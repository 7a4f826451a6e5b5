"""Machine-parsable pass/fail reports for the verification suites.

Every check renders as exactly four whitespace-free fields:

    RELATION-ID PASS|FAIL lhs rhs

Every suite builds its lines through one loop, Report.comparing: each
distinct side of a report is formed once, and the form of a passing line is
rendered once, since both sides render alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import ParseError
from .presentations import substitute


@dataclass(frozen=True)
class CheckLine:
    check_id: str
    passed: bool
    lhs: str
    rhs: str

    def __post_init__(self):
        for field in (self.check_id, self.lhs, self.rhs):
            if field.split() != [field]:
                raise ParseError(f"report field with whitespace or empty: {field!r}")

    @classmethod
    def comparing(cls, check_id: str, lhs, rhs) -> CheckLine:
        """The check that two normal forms agree, showing both.  A form's
        rendering is a function of its fields, so equal forms are rendered
        once."""
        text = str(lhs)
        if lhs == rhs:
            return cls(check_id, True, text, text)
        return cls(check_id, False, text, str(rhs))

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.check_id} {verdict} {self.lhs} {self.rhs}"


@dataclass(frozen=True)
class Report:
    lines: tuple[CheckLine, ...]

    @classmethod
    def comparing(cls, checks, form) -> Report:
        """One line per (check id, lhs, rhs) check, its two sides compared by
        their form; a side that recurs, such as the empty right side of
        every relator check, is formed once."""
        form = cache(form)
        return cls(tuple(
            CheckLine.comparing(cid, form(lhs), form(rhs)) for cid, lhs, rhs in checks))

    @classmethod
    def substituting(cls, relations, table, n: int, form) -> Report:
        """The checks of (check id, lhs, rhs) relations, both sides
        substituted through the generator table as words on n strands."""
        return cls.comparing(relations, lambda rel: form(substitute(rel, table, n)))

    @property
    def all_passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def __add__(self, other: Report) -> Report:
        return Report(self.lines + other.lines)

    def render(self) -> str:
        return "\n".join(line.render() for line in self.lines) + ("\n" if self.lines else "")
