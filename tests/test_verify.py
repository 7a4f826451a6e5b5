"""Verification suites: the verify-paper fingerprint and the chromatic
suite's decidable fragment."""

import hashlib

import pytest

from chromabraid.errors import OutOfScopeError
from chromabraid.graphs import from_edge_list
from chromabraid.verify import chromatic_soundness_report, full_paper_report

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
