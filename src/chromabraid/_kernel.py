"""Checked entry points to the Garside kernel in _garside_py.

The kernel does not check its letters: unchecked, it reads letter 0 as
generator index -1 and returns (1, []) for (0,) on n=3.  Both entry points
therefore reject letters outside 0 < |k| < n here, before the kernel runs.
"""

from __future__ import annotations

import functools

from . import _garside_py as _impl
from .errors import IndexRangeError

# one kernel; the name stays because perfbench and chromabraid.KERNEL report it
KERNEL = "pure"


@functools.lru_cache(maxsize=None)
def _alphabet(n):
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


left_normal_form = _validated(_impl.left_normal_form)
crossing_counts = _validated(_impl.crossing_counts)
