"""The checked entry to the Garside kernel in _garside_py, and the strand walk.

The kernel does not check its letters: unchecked, it reads letter 0 as
generator index -1 and returns (1, []) for (0,) on n=3.  check_letters is
the one letter check: it refuses a letter that is not an int k with
0 < |k| < n, and through _alphabet a strand count that check_strands
refuses.  It runs in two places.  BraidWord runs it when a word is built,
so strand_walk, which lives here, and crossing_counts take a BraidWord and
trust its letters.  left_normal_form takes raw letters, such as the middles
equal_in_Bn derives, and runs it itself; it also refuses a word whose
letters times strands exceed MAX_FORM_CELLS.
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
    """Refuse a strand count that is not an int or is above MAX_STRANDS."""
    if type(n) is not int:
        raise IndexRangeError(f"strand count must be an integer, got {n!r}")
    if n > MAX_STRANDS:
        raise ResourceLimitError(f"{n} strands exceed the limit of {MAX_STRANDS}")


# 3.0 misses the entry of 3 and reaches check_strands: lru_cache keys a lone
# int argument by itself and a float by its argument tuple
@functools.lru_cache(maxsize=64)
def _alphabet(n):
    check_strands(n)
    return frozenset(range(1 - n, n)) - {0}


# the one type a letter or a permutation entry may have: not bool, not float
_INT = frozenset((int,))


def check_letters(n, letters):
    """letters as a tuple, refused unless each is an int k with 0 < |k| < n."""
    letters = tuple(letters)
    alphabet = _alphabet(n)
    # the type test comes first: the set test admits True and 1.0 as 1, and
    # raises on an unhashable letter
    if not _INT.issuperset(map(type, letters)) or not alphabet.issuperset(letters):
        bad = next(k for k in letters if type(k) is not int or k not in alphabet)
        raise IndexRangeError(f"letter {bad!r} out of range for {n} strands")
    return letters


def left_normal_form(n, letters):
    """The checked kernel normal form, refused above MAX_FORM_CELLS."""
    letters = check_letters(n, letters)
    if len(letters) * n > MAX_FORM_CELLS:
        raise ResourceLimitError(
            f"a normal form of {len(letters)} letters on {n} strands exceeds "
            f"the limit of {MAX_FORM_CELLS} letter-strands"
        )
    return _impl.left_normal_form(n, letters)


def strand_walk(w):
    """(counts, ends) from one pass over the strands of w, labelled by start
    position (0-based): counts[p][q] sums the signs of the letters that cross
    strands p and q, and ends[p] is the end position of strand p, the word's
    permutation in the kernel's one-line convention."""
    n = w.strands
    at = list(range(n))  # position -> strand label
    m = [[0] * n for _ in range(n)]
    for k in w.letters:
        i = abs(k) - 1
        s = 1 if k > 0 else -1
        a, b = at[i], at[i + 1]
        m[a][b] += s
        m[b][a] += s
        at[i], at[i + 1] = b, a
    ends = [0] * n
    for pos, strand in enumerate(at):
        ends[strand] = pos
    return m, ends


def crossing_counts(w):
    return strand_walk(w)[0]
