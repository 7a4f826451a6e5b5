"""Report lines: four whitespace-free fields."""

import pytest

from chromabraid.garside import normal_form
from chromabraid.report import CheckLine
from chromabraid.words import BraidWord


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


def test_comparing_renders_both_forms():
    # two words for one braid (a braid relation), and a different braid
    a = normal_form(BraidWord(3, (1, 2, 1)))
    b = normal_form(BraidWord(3, (2, 1, 2)))
    c = normal_form(BraidWord(3, (1, 2)))
    assert a == b and a is not b
    assert CheckLine.comparing("eq", a, b) == CheckLine("eq", True, str(a), str(b))
    fail = CheckLine.comparing("ne", a, c)
    assert fail == CheckLine("ne", False, str(a), str(c))
    assert fail.render() == f"ne FAIL {a} {c}"
