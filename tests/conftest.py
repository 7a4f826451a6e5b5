"""Shared fixtures: acceptance-criterion registry and terminal summary.

Acceptance tests record a verdict per criterion number; the summary hook
prints one CRITERION line for each of the ten, including criteria whose
test errored before recording (reported as FAIL).

Property tests run under a fixed hypothesis profile: derandomized, no
per-example deadline (timings drift on a loaded host) and no example
database, so every run draws the same examples.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property-test module skips itself without hypothesis
    pass
else:
    settings.register_profile(
        "chromabraid", derandomize=True, deadline=None, max_examples=60, database=None
    )
    settings.load_profile("chromabraid")

CRITERIA = range(1, 11)
_results: dict[int, bool] = {}
_timings: dict[int, float] = {}


@pytest.fixture
def record_criterion():
    def _record(number: int, passed: bool, seconds: float | None = None):
        _results[number] = _results.get(number, True) and passed
        if seconds is not None:
            _timings[number] = seconds

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for k in CRITERIA:
        if k in _results:
            verdict = "PASS" if _results[k] else "FAIL"
        else:
            verdict = "FAIL (not run)"
        timing = f"  [{_timings[k]:.2f}s]" if k in _timings else ""
        terminalreporter.write_line(f"CRITERION {k}: {verdict}{timing}")
