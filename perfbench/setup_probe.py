"""Set-up cost of a fresh interpreter: import chromabraid and fill the lazy caches.

Run as a script (with src/ on PYTHONPATH) it prints the seconds taken by
the import plus ``warm_up``; run.py starts it several times and reports the
median as setup_s.  Input generation is not part of it.
"""

from __future__ import annotations

import time


def warm_up():
    """Fill the lazy caches for every size the workloads use."""
    from chromabraid import extension, lkrep

    for n in range(4, 13):
        extension.compute_cocycle(n)
    for n in range(2, 9):
        for k in range(1, n):
            lkrep._column_rules(n, k)
            lkrep._column_rules(n, -k)


if __name__ == "__main__":
    start = time.perf_counter()
    import chromabraid  # noqa: F401  (the import is what is timed)

    warm_up()
    print(time.perf_counter() - start)
