"""Seeded end-to-end benchmark of chromabraid, with an optional traced run.

Run from the repository root; the package is imported from src/, as Tier-1
does, and nothing needs to be installed:

    python3 perfbench/run.py --workload long_words --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload long_words --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

--trace 0 times the workload with no instrumentation and reports the
end-to-end metrics.  --trace 1 runs the same rounds untraced and then traced
(spans.Tracer), requires identical answers from both, and reports the
per-layer metrics and the tracing overhead.  --workload all runs every
workload in turn, each in its own interpreter.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any answer
check failed and 2 when the package cannot be found.

Load is a closed loop in one process, one op at a time (paper_replay: one
child process at a time).  See perfbench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "equal.latency_ms.mean": "ms",
    "distinct.latency_ms.mean": "ms",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}


VERDICT_CODES = {True: 1, False: 0, None: -1}


def run_rounds(workload, seed: int, seconds: float | None = None,
               rounds: int | None = None, tracer=None, keep_answers: bool = False) -> dict:
    """Run whole rounds until `seconds` would be exceeded (at least one), or
    exactly `rounds` of them.

    The times and verdicts of the ops that returned go into compact arrays,
    and answers (None for an op that raised) are kept only if `keep_answers`:
    a fast host completes more ops, and per-op objects would make the peak
    RSS of an untraced run grow with them."""
    seconds_taken, verdicts, answers = array("d"), array("b"), []
    attempted = failed = 0
    digest, done = hashlib.sha256(), 0
    start = time.perf_counter()
    while True:
        if rounds is not None:
            if done == rounds:
                break
        elif done and (time.perf_counter() - start) * (done + 1) / done > seconds:
            break
        items = workload.make_round(random.Random(f"{workload.name}:{seed}:{done}"), done)
        digest.update(repr(items).encode())
        for item in items:
            attempted += 1
            try:
                outcome = workload.run(item, tracer)
            except Exception as exc:  # an op that raises counts as failed
                print(f"{workload.name}: op raised {exc!r}", file=sys.stderr)
                failed += 1
                if keep_answers:
                    answers.append(None)
                continue
            seconds_taken.append(outcome.seconds)
            verdicts.append(VERDICT_CODES[outcome.equal])
            failed += not outcome.ok
            if keep_answers:
                answers.append(outcome.answer)
        done += 1
    return {"seconds": seconds_taken, "verdicts": verdicts, "answers": answers,
            "attempted": attempted, "failed": failed, "rounds": done,
            "inputs_sha256": digest.hexdigest()}


def p90(values: list[float]) -> float:
    """The 90th percentile when at least ten samples lie beyond it; with
    fewer than 100 samples (paper_replay) there is no such figure, and the
    median stands in for it."""
    if len(values) < 100:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def setup_seconds() -> list[float]:
    """Set-up time of SETUP_SAMPLES fresh interpreters (see setup_probe.py)."""
    from workloads import child_env

    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(probe, cwd=ROOT, env=child_env(ROOT), capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def end_to_end(workload, result: dict, setup: list[float]) -> dict:
    latency = [t * 1e3 for t in result["seconds"]]
    p50 = statistics.median(latency)
    by_verdict = {
        verdict: [t for t, code in zip(latency, result["verdicts"])
                  if code == VERDICT_CODES[verdict]]
        for verdict in (True, False)
    }
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted = result["attempted"]
    values = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": len(latency) / sum(result["seconds"]),
        "latency_ms.p50": p50,
        "latency_ms.p90": p90(latency),
        # Means, not medians: a verdict's latencies fall in clusters by n far
        # apart, and a median between two clusters moves with small changes in
        # them.  A run without ops of one verdict (paper_replay has none)
        # reports the all-ops mean.
        "equal.latency_ms.mean": statistics.fmean(by_verdict[True] or latency),
        "distinct.latency_ms.mean": statistics.fmean(by_verdict[False] or latency),
        "correct_ratio": (attempted - result["failed"]) / attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def traced(workload, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """Untraced rounds for a third of the time, then the same rounds traced."""
    from spans import Tracer

    tracer = Tracer()
    plain = run_rounds(workload, seed, seconds=seconds / 3, keep_answers=True)
    # paper_replay installs the tracer in its child processes instead
    if workload.in_process:
        tracer.install()
    try:
        spanned = run_rounds(workload, seed, rounds=plain["rounds"], tracer=tracer,
                             keep_answers=True)
    finally:
        if workload.in_process:
            tracer.uninstall()
    pairs = zip(plain["answers"], spanned["answers"])
    mismatched = sum(a is not None and b is not None and a != b for a, b in pairs)
    if mismatched:
        print(f"{workload.name}: {mismatched} traced answers differ from untraced",
              file=sys.stderr)

    tracer.samples["trace.overhead_s"].append(sum(spanned["seconds"]) - sum(plain["seconds"]))
    attempted = plain["attempted"] + spanned["attempted"]
    failed = plain["failed"] + spanned["failed"] + mismatched
    return tracer.metrics(), attempted, failed, plain


def environment(args, result: dict, workload) -> dict:
    import chromabraid
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown ({exc.__class__.__name__})"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "lane": chromabraid.KERNEL,
        "lane_check": getattr(workload, "lane_check", "not run on this workload"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "rounds": result["rounds"],
        "inputs_sha256": result["inputs_sha256"],
    }


def run_one(args) -> int:
    from setup_probe import warm_up
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT)
    setup = None if args.trace else setup_seconds()
    if workload.in_process:
        warm_up()
    if args.trace:
        metrics, attempted, failed, result = traced(workload, args.seed, args.seconds)
    else:
        result = run_rounds(workload, args.seed, seconds=args.seconds)
        if not result["seconds"]:
            print(f"{workload.name}: every op raised; no figures to report", file=sys.stderr)
            return 1
        metrics = end_to_end(workload, result, setup)
        attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps(environment(args, result, workload)))
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    from workloads import WORKLOADS, child_env

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(ROOT), capture_output=True,
                              text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        totals["correct"] = totals["correct"] and result["correct"] and proc.returncode == 0
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}/{key}": value
                                  for key, value in result["metrics"].items()})
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = ROOT / "src" / "chromabraid"
    if not (package / "__init__.py").is_file():
        print(f"error: no chromabraid package under {ROOT / 'src'}; run from a source "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import chromabraid

    if Path(chromabraid.__file__).resolve().parent != package.resolve():
        print(f"error: imported chromabraid from {chromabraid.__file__}, not from src/",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
