"""Per-layer spans and counters, installed around chromabraid from outside.

The tracer wraps public functions of each chromabraid module without
editing the package: every module-level name (and the one class attribute)
bound to a traced function is replaced by a wrapper, and ``uninstall``
puts the originals back.  Because the package binds names with
``from .x import f``, the scan replaces the function in every loaded
chromabraid module, not only in the module that defines it.

Each timed span records its duration and its self time (duration minus the
time covered by nested timed spans).  Spans are aggregated per function as
they close rather than kept one by one, so memory stays bounded by one
float per call (needed for the median).  Counters are recorded at the same
boundaries from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

TIMED = "timed"      # calls, busy_s, self_s, p50_us
COUNTED = "counted"  # calls only: the function is too cheap to time usefully
SUITE = "suite"      # busy_s and checks (report lines) of a verification suite


def _kernel_counts(counts, args, kwargs, result):
    counts["kernel.left_normal_form.letters"] += len(args[1])
    counts["kernel.left_normal_form.factors"] += len(result[1])


def _verdict_counts(counts, args, kwargs, result):
    counts["garside.equal_in_Bn.equal" if result else "garside.equal_in_Bn.distinct"] += 1


def _window_counts(counts, args, kwargs, result):
    # m^2 (4B+1)(2B+1): the exponent-window cells of the returned matrix
    counts["lkrep.lk_matrix.window_cells"] += result.size
    counts["lkrep.lk_matrix.object_fallbacks"] += result.dtype == object


# (metric prefix, module, attribute path, kind, counter hook)
TARGETS = (
    ("kernel.left_normal_form", "chromabraid._kernel", "left_normal_form", TIMED, _kernel_counts),
    ("kernel.crossing_counts", "chromabraid._kernel", "crossing_counts", TIMED, None),
    ("garside.normal_form", "chromabraid.garside", "normal_form", TIMED, None),
    ("garside.equal_in_Bn", "chromabraid.garside", "equal_in_Bn", TIMED, _verdict_counts),
    ("lkrep.equal_via_representation", "chromabraid.lkrep", "equal_via_representation", TIMED, None),
    ("lkrep.lk_matrix", "chromabraid.lkrep", "lk_matrix", TIMED, _window_counts),
    ("words.crossing_matrix", "chromabraid.words", "crossing_matrix", TIMED, None),
    ("words.perm_of", "chromabraid.words", "perm_of", TIMED, None),
    ("chromatic.i_star", "chromabraid.chromatic", "i_star", TIMED, None),
    ("chromatic.edge_lk", "chromabraid.chromatic", "edge_lk", TIMED, None),
    ("chromatic.section", "chromabraid.chromatic", "section", TIMED, None),
    ("chromatic.equal_in_BGamma", "chromabraid.chromatic", "equal_in_BGamma", TIMED, None),
    ("graphs.is_automorphism", "chromabraid.graphs", "is_automorphism", COUNTED, None),
    ("graphs.DihedralElement.to_perm", "chromabraid.graphs", "DihedralElement.to_perm", COUNTED, None),
    ("extension.to_element", "chromabraid.extension", "to_element", TIMED, None),
    ("extension.mul", "chromabraid.extension", "mul", TIMED, None),
    ("extension.inv", "chromabraid.extension", "inv", TIMED, None),
    ("extension.compute_cocycle", "chromabraid.extension", "compute_cocycle", TIMED, None),
    ("presentations.substitute", "chromabraid.presentations", "substitute", TIMED, None),
    ("verify.full_paper_report", "chromabraid.verify", "full_paper_report", SUITE, None),
    ("verify.lemma_report", "chromabraid.verify", "lemma_report", SUITE, None),
    ("verify.artin_soundness_report", "chromabraid.verify", "artin_soundness_report", SUITE, None),
    ("verify.markoff_soundness_report", "chromabraid.verify", "markoff_soundness_report", SUITE, None),
    ("verify.chromatic_soundness_report", "chromabraid.verify", "chromatic_soundness_report", SUITE, None),
    ("verify.verify_final_proposition", "chromabraid.extension", "verify_final_proposition", SUITE, None),
)

# Counters set by hooks or read from lru_cache statistics.
EXTRA_COUNTS = (
    "kernel.left_normal_form.letters",
    "kernel.left_normal_form.factors",
    "garside.equal_in_Bn.equal",
    "garside.equal_in_Bn.distinct",
    "lkrep.lk_matrix.window_cells",
    "lkrep.lk_matrix.object_fallbacks",
    "extension.compute_cocycle.cache_hits",
    "extension.compute_cocycle.cache_misses",
)

# Per-run figures the benchmark computes itself (median of its samples).
SAMPLED = ("cli.process_overhead_s", "trace.overhead_s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix, _module, _attr, kind, _hook in TARGETS:
        if kind == TIMED:
            units.update({f"{prefix}.calls": "count", f"{prefix}.busy_s": "s",
                          f"{prefix}.self_s": "s", f"{prefix}.p50_us": "us"})
        elif kind == COUNTED:
            units[f"{prefix}.calls"] = "count"
        else:
            units.update({f"{prefix}.busy_s": "s", f"{prefix}.checks": "count"})
    units.update({name: "count" for name in EXTRA_COUNTS})
    units.update({name: "s" for name in SAMPLED})
    return units


class _Span:
    __slots__ = ("calls", "busy", "self_time", "durations", "checks")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.checks = 0


class Tracer:
    """Spans and counters for one process; ``state``/``merge`` carry them across processes."""

    def __init__(self):
        self.spans = {prefix: _Span() for prefix, *_ in TARGETS}
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0)
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cocycle = None  # compute_cocycle's lru_cache object, set by install
        self._cache_base = (0, 0)

    def _timed(self, prefix, fn, kind, hook):
        span, stack, counts = self.spans[prefix], self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.busy += elapsed
                span.self_time += elapsed - nested
                span.durations.append(elapsed)
            if kind == SUITE:
                span.checks += len(result.lines)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, prefix, fn):
        span = self.spans[prefix]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target; the package must be importable."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        # import lazily loaded modules (lkrep, verify) so their names are patched too
        for module in {target[1] for target in TARGETS}:
            importlib.import_module(module)
        self._cocycle = sys.modules["chromabraid.extension"].compute_cocycle
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "chromabraid" or name.startswith("chromabraid.")]
        for prefix, module, attr, kind, hook in TARGETS:
            owner = sys.modules[module]
            if "." in attr:  # a method: only its class holds it
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = (self._counted(prefix, original) if kind == COUNTED
                       else self._timed(prefix, original, kind, hook))
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, original, wrapper)
        self._cache_base = self._cocycle_cache()

    def _replace(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        hits, misses = self._cocycle_cache()
        base_hits, base_misses = self._cache_base
        self.counts["extension.compute_cocycle.cache_hits"] += hits - base_hits
        self.counts["extension.compute_cocycle.cache_misses"] += misses - base_misses

    def _cocycle_cache(self) -> tuple[int, int]:
        info = self._cocycle.cache_info()
        return info.hits, info.misses

    def state(self) -> dict:
        """JSON-ready copy of everything recorded."""
        return {
            "spans": {prefix: [s.calls, s.busy, s.self_time, s.durations, s.checks]
                      for prefix, s in self.spans.items()},
            "counts": dict(self.counts),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }

    def merge(self, state: dict):
        """Add a state recorded by another process (see ``state``)."""
        for prefix, (calls, busy, self_time, durations, checks) in state["spans"].items():
            span = self.spans[prefix]
            span.calls += calls
            span.busy += busy
            span.self_time += self_time
            span.durations.extend(durations)
            span.checks += checks
        for name, value in state["counts"].items():
            self.counts[name] += value
        for name, values in state["samples"].items():
            self.samples[name].extend(values)

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric; layers the run never reached read 0."""
        values = {}
        for prefix, span in self.spans.items():
            values[f"{prefix}.calls"] = span.calls
            values[f"{prefix}.busy_s"] = span.busy
            values[f"{prefix}.self_s"] = span.self_time
            values[f"{prefix}.p50_us"] = (
                statistics.median(span.durations) * 1e6 if span.durations else 0.0)
            values[f"{prefix}.checks"] = span.checks
        values.update(self.counts)
        for name, samples in self.samples.items():
            values[name] = statistics.median(samples) if samples else 0.0
        return {name: {"value": values[name], "unit": unit}
                for name, unit in metric_units().items()}
