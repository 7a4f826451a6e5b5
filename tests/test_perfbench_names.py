"""The package names the benchmark's tracer and workloads reach into.

perfbench/spans.py wraps functions by module and attribute name, and the
long_words workload reads _kernel._impl and the KERNEL name; a rename in
src/ would otherwise surface only when the benchmark runs.  For the same
reason the in-process workloads run one round each.  These tests only
read perfbench/.
"""

import importlib
import random
import sys
from pathlib import Path

import chromabraid
from chromabraid import _kernel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_resolves_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    originals = {target: _resolve(target[1], target[2]) for target in spans.TARGETS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for target, original in originals.items():
            assert _resolve(target[1], target[2]) is not original, target[0]
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert _resolve(target[1], target[2]) is original, target[0]


def test_kernel_names():
    assert callable(_kernel._impl.left_normal_form)
    assert chromabraid.KERNEL == _kernel.KERNEL == "pure"


def test_in_process_workloads_run_one_round(monkeypatch):
    # the benchmark's warm-up and one round of each in-process workload, so
    # a break in how they use the package fails here, not only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("setup_probe", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    importlib.import_module("setup_probe").warm_up()
    workloads = importlib.import_module("workloads")
    for name in ("oracle_xval", "long_words", "cyclic_group"):
        workload = workloads.WORKLOADS[name](PERFBENCH.parent)
        assert workload.in_process, name
        items = workload.make_round(random.Random(f"{name}:1:0"), 0)
        assert items, name
        for item in items:
            assert workload.run(item).ok, (name, item)


def test_long_words_round_matches_normal_forms(monkeypatch):
    # the benchmark checks its random pairs by permutations only; here every
    # pair of one round is checked against the whole words' normal forms
    from chromabraid.garside import equal_in_Bn, normal_form
    from chromabraid.words import BraidWord

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workload = importlib.import_module("workloads").WORKLOADS["long_words"](PERFBENCH.parent)
    items = workload.make_round(random.Random("long_words:1:0"), 0)
    assert len(items) == 8
    for u_letters, v_letters, expect_equal in items:
        u = BraidWord(workload.strands, u_letters)
        v = BraidWord(workload.strands, v_letters)
        equal = equal_in_Bn(u, v)
        assert equal == (normal_form(u) == normal_form(v))
        assert expect_equal is None or equal
