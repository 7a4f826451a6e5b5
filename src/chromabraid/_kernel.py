"""Kernel selection: compiled lane when present, pure lane otherwise.

Neither lane checks its letters (the compiled one indexes without bounds
checks), so both entry points reject letters outside 0 < |k| < n here,
before either lane runs.
"""

from __future__ import annotations

import functools

from .errors import IndexRangeError

try:
    from . import _garside_cy as _impl

    KERNEL = "compiled"
except ImportError:
    from . import _garside_py as _impl  # type: ignore[no-redef]

    KERNEL = "pure"


@functools.lru_cache(maxsize=None)
def _alphabet(n):
    return frozenset(range(1 - n, n)) - {0}


def _validated(lane_fn):
    """lane_fn(n, letters), raising IndexRangeError on a letter out of range."""

    @functools.wraps(lane_fn)
    def checked(n, letters):
        letters = tuple(letters)
        # one set test, not a Python loop: compute_cocycle(4..12) alone sends
        # 2,544 words of 426k letters in total through here
        if not _alphabet(n).issuperset(letters):
            bad = next(k for k in letters if k not in _alphabet(n))
            raise IndexRangeError(f"letter {bad} needs 0 < |k| < {n} on {n} strands")
        return lane_fn(n, letters)

    return checked


left_normal_form = _validated(_impl.left_normal_form)
crossing_counts = _validated(_impl.crossing_counts)
