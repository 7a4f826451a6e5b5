"""Checked entry points to the Garside kernel in _garside_py.

The kernel does not check its letters: unchecked, it reads letter 0 as
generator index -1 and returns (1, []) for (0,) on n=3.  Every entry point
therefore rejects letters outside 0 < |k| < n, and strand counts above
MAX_STRANDS, here, before the kernel runs; left_normal_form also refuses a
word whose letters times strands exceed MAX_FORM_CELLS.
"""

from __future__ import annotations

import functools

from . import _garside_py as _impl
from .errors import IndexRangeError, ResourceLimitError

# one kernel; the name stays because perfbench and chromabraid.KERNEL report it
KERNEL = "pure"

# The most strands a word or graph may have, checked before any allocation
# sized by the strand count: a crossing matrix or complete graph at the cap
# takes tens of MB, and _alphabet keeps at most 64 tables of 2n - 2 letters.
MAX_STRANDS = 1000

# The most letters times strands a normal form may take: the kernel keeps up
# to one factor of n entries per letter, about 35 B per letter-strand, so
# about 70 MB per form at the limit.
MAX_FORM_CELLS = 2_000_000


def check_strands(n):
    if n > MAX_STRANDS:
        raise ResourceLimitError(f"{n} strands exceed the limit of {MAX_STRANDS}")


@functools.lru_cache(maxsize=64)
def _alphabet(n):
    check_strands(n)
    return frozenset(range(1 - n, n)) - {0}


def _validated(kernel_fn):
    """kernel_fn(n, letters), raising IndexRangeError on a letter out of range."""

    @functools.wraps(kernel_fn)
    def checked(n, letters):
        letters = tuple(letters)
        # one set test, not a Python loop: compute_cocycle(4..12) alone sends
        # 2,544 words of 426k letters in total through here
        if not _alphabet(n).issuperset(letters):
            bad = next(k for k in letters if k not in _alphabet(n))
            raise IndexRangeError(f"letter {bad} needs 0 < |k| < {n} on {n} strands")
        return kernel_fn(n, letters)

    return checked


_checked_normal_form = _validated(_impl.left_normal_form)


def left_normal_form(n, letters):
    """The checked kernel normal form, refused above MAX_FORM_CELLS."""
    letters = tuple(letters)
    if len(letters) * n > MAX_FORM_CELLS:
        raise ResourceLimitError(
            f"a normal form of {len(letters)} letters on {n} strands exceeds "
            f"the limit of {MAX_FORM_CELLS} letter-strands"
        )
    return _checked_normal_form(n, letters)


crossing_counts = _validated(_impl.crossing_counts)
strand_walk = _validated(_impl.strand_walk)
