"""Report lines: four whitespace-free fields."""

import pytest

from chromabraid.report import CheckLine


@pytest.mark.parametrize(
    "field", ["", " ", "a b", "a\tb", "a\n", "a\u00a0b", "a\u2003b"]
)
def test_rejects_empty_or_whitespace_fields(field):
    for fields in ((field, "x", "y"), ("x", field, "y"), ("x", "y", field)):
        with pytest.raises(ValueError):
            CheckLine(fields[0], True, fields[1], fields[2])


def test_accepts_report_tokens():
    line = CheckLine("R1-3", True, "D^0:", "D^0:")
    assert line.render() == "R1-3 PASS D^0: D^0:"
