"""Exact faithful matrix representation used to cross-validate equal_in_Bn.

The representation acts on the free Z[q^+-1, t^+-1] module with basis x_{j,k}
for 1 <= j < k <= n.  A generator sigma_i sends x_{j,k} to

    x_{j,k}                                       i not in {j-1, j, k-1, k}
    q x_{i,k} + (q^2-q) x_{i,j} + (1-q) x_{j,k}   i = j-1
    x_{j+1,k}                                     i = j != k-1
    q x_{j,i} + (1-q) x_{j,k} - (q^2-q) t x_{i,k}  i = k-1 != j
    x_{j,k+1}                                     i = k
    -t q^2 x_{j,k}                                i = j = k-1

and the rules for sigma_i^-1 are obtained by solving the six cases above.

equal_via_representation decides equality in two stages.

1. DISTINCT certificate.  Substituting fixed non-zero residues for q and t
   modulo the prime P = 2^61 - 1 is a ring homomorphism from Z[q^+-1, t^+-1]
   to the field Z/P, so M(u) = M(v) forces y M(u) = y M(v) mod P for any
   fixed row vector y.  The rows cost O(L n) integer operations; when they
   differ the matrices differ, and by faithfulness the braids differ, so a
   DISTINCT verdict from this stage is exact.  Equal rows prove nothing
   (they almost never occur for distinct braids, by Schwartz-Zippel) and
   the pair goes on to stage 2.
2. Exact matrices.  An entry is a Laurent polynomial held as an integer
   window indexed by (q exponent, t exponent).  After k letters only q
   exponents in [-2k, 2k] and t exponents in [-k, k] can be non-zero, so
   each letter updates only that live box of the window.  A word of length
   L therefore stays inside a (4L+1, 2L+1) window, and the coefficient
   magnitudes stay below 5^L, so int64 is exact up to L = 22; longer words
   fall back to Python integers via an object array.

Only whole-matrix equality is consumed downstream, so the left/right action
convention is immaterial: word reversal preserves equality in B_n.

numpy is imported inside lk_matrix and equal_via_representation, not at
module level, so only a process that reaches the exact stage (or asks for
a matrix) loads it; the certificate and _column_rules need plain ints only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import StrandMismatchError
from .words import BraidWord

if TYPE_CHECKING:
    import numpy as np

_INT64_MAX_LEN = 22

# The certificate's field Z/P and its fixed point: q, t and the row vector
# y_r = Y^(r+1), all non-zero residues.
_P = 2**61 - 1
_AT_Q = 736681097588286491
_AT_T = 2193646641555496796
_AT_Y = 1492337387635134525

# Monomial lists as (coefficient, q exponent, t exponent).
_ONE = ((1, 0, 0),)
_Q = ((1, 1, 0),)
_Q2_MINUS_Q = ((1, 2, 0), (-1, 1, 0))
_ONE_MINUS_Q = ((1, 0, 0), (-1, 1, 0))
_MINUS_TQ2 = ((-1, 2, 1),)
_MINUS_Q2_MINUS_Q_T = ((-1, 2, 1), (1, 1, 1))
_QINV = ((1, -1, 0),)
_ONE_MINUS_QINV = ((1, 0, 0), (-1, -1, 0))
_MINUS_TQ2_INV = ((-1, -2, -1),)
_TINV_QINV_MINUS_QINV2 = ((1, -1, -1), (-1, -2, -1))
_MINUS_QINV_MINUS_QINV2 = ((-1, -1, 0), (1, -2, 0))


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: idx for idx, pair in enumerate(_pairs(n))}


@lru_cache(maxsize=None)
def _column_rules(n: int, letter: int):
    """Non-identity columns of the matrix of sigma_letter: a list of
    (column index, ((row index, monomials), ...)) entries."""
    i = abs(letter)
    idx = _pair_index(n)
    rules = []
    for (j, k), c in idx.items():
        if letter > 0:
            if i == j and i == k - 1:
                terms = (((j, k), _MINUS_TQ2),)
            elif i == j - 1:
                terms = (((i, k), _Q), ((i, j), _Q2_MINUS_Q), ((j, k), _ONE_MINUS_Q))
            elif i == j:
                terms = (((j + 1, k), _ONE),)
            elif i == k - 1:
                terms = (
                    ((j, k - 1), _Q),
                    ((j, k), _ONE_MINUS_Q),
                    ((k - 1, k), _MINUS_Q2_MINUS_Q_T),
                )
            elif i == k:
                terms = (((j, k + 1), _ONE),)
            else:
                continue
        else:
            if j == i and k == i + 1:
                terms = (((i, i + 1), _MINUS_TQ2_INV),)
            elif j == i + 1:
                terms = (((i, k), _ONE),)
            elif j == i:
                terms = (
                    ((i, k), _ONE_MINUS_QINV),
                    ((i + 1, k), _QINV),
                    ((i, i + 1), _TINV_QINV_MINUS_QINV2),
                )
            elif k == i + 1:
                terms = (((j, i), _ONE),)
            elif k == i:
                terms = (
                    ((j, i), _ONE_MINUS_QINV),
                    ((j, i + 1), _QINV),
                    ((i, i + 1), _MINUS_QINV_MINUS_QINV2),
                )
            else:
                continue
        rules.append((c, tuple((idx[row], monos) for row, monos in terms)))
    return tuple(rules)


@lru_cache(maxsize=None)
def _column_values(n: int, letter: int):
    """_column_rules(n, letter) with each monomial list evaluated at the
    certificate's point modulo _P."""
    return tuple(
        (c, tuple(
            (s, sum(coef * pow(_AT_Q, dq, _P) * pow(_AT_T, dt, _P)
                    for coef, dq, dt in monos) % _P)
            for s, monos in terms
        ))
        for c, terms in _column_rules(n, letter)
    )


def _certificate(w: BraidWord) -> list[int]:
    """The row y M(w) modulo _P, evaluated at the certificate's point."""
    m = w.strands * (w.strands - 1) // 2
    row = [pow(_AT_Y, r + 1, _P) for r in range(m)]
    for letter in w.letters:
        new_cols = [
            (c, sum(row[s] * value for s, value in terms) % _P)
            for c, terms in _column_values(w.strands, letter)
        ]
        for c, value in new_cols:
            row[c] = value
    return row


def _shift_add(dst: np.ndarray, src: np.ndarray, coef: int, dq: int, dt: int):
    """dst += coef * q^dq t^dt * src, on exponent-window arrays (..., NQ, NT)."""
    nq, nt = src.shape[-2], src.shape[-1]
    qd = slice(max(0, dq), nq + min(0, dq))
    qs = slice(max(0, -dq), nq + min(0, -dq))
    td = slice(max(0, dt), nt + min(0, dt))
    ts = slice(max(0, -dt), nt + min(0, -dt))
    dst[..., qd, td] += coef * src[..., qs, ts]


def lk_matrix(w: BraidWord, length_budget: int | None = None) -> np.ndarray:
    """Exact matrix of w, shape (m, m, 4B+1, 2B+1) with B the length budget.

    Entry [r, c, 2B + eq, B + et] is the coefficient of q^eq t^et in the
    (x_r, x_c) matrix entry.  Words compared for equality must be rendered
    with the same budget so the windows line up.
    """
    import numpy as np

    n = w.strands
    if n < 2:
        raise StrandMismatchError("representation needs at least 2 strands")
    budget = max(len(w.letters), 1) if length_budget is None else length_budget
    if budget < len(w.letters):
        raise ValueError("length budget smaller than the word")
    m = n * (n - 1) // 2
    nq, nt = 4 * budget + 1, 2 * budget + 1
    dtype = np.int64 if budget <= _INT64_MAX_LEN else object
    mat = np.zeros((m, m, nq, nt), dtype=dtype)
    q0, t0 = 2 * budget, budget
    for r in range(m):
        mat[r, r, q0, t0] = 1
    for k, letter in enumerate(w.letters, 1):
        # the live box after k letters; a letter shifts by |dq| <= 2, |dt| <= 1
        box = mat[:, :, q0 - 2 * k:q0 + 2 * k + 1, t0 - k:t0 + k + 1]
        new_cols = []
        for c, terms in _column_rules(n, letter):
            acc = np.zeros_like(box[:, c])
            for s, monos in terms:
                for coef, dq, dt in monos:
                    _shift_add(acc, box[:, s], coef, dq, dt)
            new_cols.append((c, acc))
        for c, acc in new_cols:
            box[:, c] = acc
    return mat


def equal_via_representation(u: BraidWord, v: BraidWord) -> bool:
    """Exact comparison of representation matrices; agrees with equal_in_Bn.

    Differing certificate rows decide DISTINCT; otherwise the exact matrices
    decide.
    """
    if u.strands != v.strands:
        raise StrandMismatchError(
            f"comparing words on {u.strands} and {v.strands} strands"
        )
    if u.strands == 1:
        return True
    if _certificate(u) != _certificate(v):
        return False
    import numpy as np

    budget = max(len(u.letters), len(v.letters), 1)
    return np.array_equal(
        lk_matrix(u, length_budget=budget), lk_matrix(v, length_budget=budget)
    )
