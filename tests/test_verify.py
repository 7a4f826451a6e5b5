"""Verification suites: the verify-paper fingerprint, the chromatic suite's
decidable fragment, the max_n limit, and the work the replay does."""

import hashlib
import random
from collections import Counter

import pytest

from chromabraid import chromatic, garside, verify
from chromabraid.chromatic import dihedral_lift_counts, edge_lk, i_star
from chromabraid.errors import IndexRangeError, OutOfScopeError, ResourceLimitError
from chromabraid.graphs import DihedralElement, cycle, from_edge_list
from chromabraid.verify import MAX_N, chromatic_soundness_report, full_paper_report
from chromabraid.words import BraidWord, inverse, psi_a_word, psi_b_word, s_word

# verify-paper --max-n 12, the behavioural fingerprint: all 3,991 lines PASS
FINGERPRINT_LINES = 3991
FINGERPRINT_SHA256 = "6365ac32775758e57c9d1913f23938c5dd46ffc3bb725b302b887d663c7d5aa5"


def test_full_paper_report_fingerprint():
    report = full_paper_report(12)
    text = report.render()
    assert len(text.splitlines()) == FINGERPRINT_LINES
    assert report.all_passed
    assert hashlib.sha256(text.encode()).hexdigest() == FINGERPRINT_SHA256


def test_chromatic_report_out_of_scope_graph():
    # a 3-circuit plus a non-edge: outside the fragment normal forms decide
    G = from_edge_list(4, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(OutOfScopeError, match="3-circuit but is not complete"):
        chromatic_soundness_report([("triangle4", G)])


def test_oversized_report_is_refused_before_any_check(monkeypatch):
    def no_checks(ns):
        raise AssertionError("a check was built")

    monkeypatch.setattr(verify, "lemma_report", no_checks)
    with pytest.raises(ResourceLimitError, match=f" {MAX_N + 1} is above the limit of {MAX_N}$"):
        full_paper_report(MAX_N + 1)
    with pytest.raises(AssertionError, match="a check was built"):
        full_paper_report(MAX_N)


def test_non_integer_max_n_is_refused():
    # 4.0 passes the range tests, and range() would raise a bare TypeError
    with pytest.raises(IndexRangeError, match=r"^verify-paper needs an integer max_n >= 4, got 4.0$"):
        full_paper_report(4.0)


SUITES = ("lemma_report", "artin_soundness_report", "markoff_soundness_report",
          "chromatic_soundness_report")


def test_full_paper_report_forms_each_word_once_per_suite(monkeypatch):
    # the kernel runs once per distinct (n, letters) of each suite; the
    # markoff-nN and chromatic-completeN checks share their relator words,
    # and every relator suite forms the trivial word, so across suites the
    # 4,379 distinct words take 4,434 calls (5,870 before the lemma suite
    # cached its sides and concatenated letter tuples)
    formed, suite = Counter(), [None]
    kernel = garside.left_normal_form

    def counted(n, letters):
        formed[suite[0], n, tuple(letters)] += 1
        return kernel(n, letters)

    def tagged(name, run):
        def tagging(arg):
            suite[0] = name
            return run(arg)
        return tagging

    monkeypatch.setattr(garside, "left_normal_form", counted)
    for name in SUITES:
        monkeypatch.setattr(verify, name, tagged(name, getattr(verify, name)))
    full_paper_report(12)
    assert {name for name, _, _ in formed} == set(SUITES)
    assert max(formed.values()) == 1
    assert sum(formed.values()) <= 4442


WALKS = ("strand_walk", "crossing_counts", "crossing_matrix", "perm_of")


def _count_walks(monkeypatch):
    """Count every strand walk chromatic makes through a name it imports."""
    walks = []

    def counted(walk):
        def counting(*args):
            walks.append(walk)
            return walk(*args)
        return counting

    for name in WALKS:
        if hasattr(chromatic, name):
            monkeypatch.setattr(chromatic, name, counted(getattr(chromatic, name)))
    return walks


def test_i_star_and_edge_lk_walk_each_word_once(monkeypatch):
    n, G = 7, cycle(7)
    rng = random.Random(17)
    bands = [s_word(i, j, n) for i, j in G.edges_sorted()]
    pieces = bands + [psi_a_word(n), psi_b_word(n)]
    pieces += [inverse(w) for w in pieces]
    # warm the per-element section counts, which walk each lift once per process
    for d in DihedralElement.all_elements(n):
        dihedral_lift_counts(d)
    walks = _count_walks(monkeypatch)
    for _ in range(20):
        w = BraidWord(n, sum((rng.choice(pieces).letters for _ in range(5)), ()))
        before = len(walks)
        i_star(w, G)
        assert len(walks) == before + 1
        pure = BraidWord(n, sum((rng.choice(bands).letters for _ in range(5)), ()))
        edge_lk(pure, G)
        assert len(walks) == before + 2
