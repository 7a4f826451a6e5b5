"""Machine-parsable pass/fail reports for the verification suites.

Every check renders as exactly four whitespace-free fields:

    RELATION-ID PASS|FAIL lhs rhs
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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
                raise ValueError(f"report field with whitespace or empty: {field!r}")

    @classmethod
    def comparing(cls, check_id: str, lhs, rhs) -> CheckLine:
        """The check that two normal forms agree, showing both."""
        return cls(check_id, lhs == rhs, str(lhs), str(rhs))

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.check_id} {verdict} {self.lhs} {self.rhs}"


@dataclass(frozen=True)
class Report:
    lines: tuple[CheckLine, ...]

    @classmethod
    def substituting(cls, relations, table, n: int, form) -> Report:
        """One check per (check id, lhs, rhs) relation: both sides substituted
        through the generator table as words on n strands, then compared by
        their form; a side that recurs, such as the empty right side of
        every relator check, is formed once."""
        @cache
        def side(rel):
            return form(substitute(rel, table, n))
        return cls(tuple(
            CheckLine.comparing(cid, side(lhs), side(rhs)) for cid, lhs, rhs in relations))

    @property
    def all_passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def __add__(self, other: Report) -> Report:
        return Report(self.lines + other.lines)

    def render(self) -> str:
        return "\n".join(line.render() for line in self.lines) + ("\n" if self.lines else "")
