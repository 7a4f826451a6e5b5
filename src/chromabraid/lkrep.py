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

equal_via_representation first replaces each word by what words._cancel_far
leaves of it, cancelling each sigma_k^+-1 against the nearest earlier
sigma_k^-+1 across letters that all commute with sigma_k.  This uses only
the group axioms and far commutation, not Garside theory, and it is the one
step the two oracles share: the common prefix and suffix, the Cartier-Foata
order of the middles, the same-letters shortcut and the exponent-sum and
permutation checks stay in equal_in_Bn.
It then decides equality of the reduced words in two stages, each of which
takes the strand count and the cancelled letters, not a rebuilt word.

1. DISTINCT certificate.  Substituting fixed non-zero residues for q and t
   modulo the prime P = 2^61 - 1 is a ring homomorphism from Z[q^+-1, t^+-1]
   to the field Z/P, so M(u) = M(v) forces y M(u) = y M(v) mod P for any
   fixed row vector y.  The rows cost O(L n) integer operations; when they
   differ the matrices differ, and by faithfulness the braids differ, so a
   DISTINCT verdict from this stage is exact.  Equal rows prove nothing
   (they almost never occur for distinct braids, by Schwartz-Zippel) and
   the pair goes on to stage 2.
2. Exact matrices, Kronecker-packed (Kronecker substitution; see Harvey,
   "Faster polynomial multiplication via multipoint Kronecker
   substitution", JSC 2009).  Each entry is one Python int.  For a length
   budget B >= L, digits are bits = bitlen(5^B) + 2 wide and a t step is
   4B+1 digits.  Column c carries an offset e_c and stores (q^2 t)^e_c
   times the true column, so the coefficient of q^a t^b sits as a
   balanced (possibly negative) digit at position
   (a + 2 e_c) + (4B+1)(b + e_c).  Every monomial list of a column rule
   has one t exponent, so a term becomes one left shift and one small
   q-multiplier int (_packed_rules).  A rewritten column gets the offset
   max(e_s) + 1 over its sources, which makes every shift a left shift;
   a copied column (x_c <- x_s) keeps e_s and its int.  Two matrices are
   compared column by column after shifting the lower offset up to the
   higher one.

Why the packing is exact.  A column at offset e has q exponents in
[-2e, 2e] and t exponents in [-e, e] (induction: a rule moves them by at
most 2 and 1, and the offset grows by 1), so with e <= L <= B the digit
positions lie in [0, (4B+1)(2B+1)) and are distinct.  Each column rule has
l1 weight at most 5 (for i = j-1: q + (q^2-q) + (1-q) weighs 1 + 2 + 2),
and copies weigh 1, so by induction every entry's l1 norm, and with it
every coefficient, is at most 5^L < 2^(bits-2).  Balanced digits smaller
than 2^(bits-1) in magnitude are unique: if two such expansions had the
same value, their lowest differing digit would differ by a non-zero
multiple of 2^bits.  So equal ints mean equal polynomials, and equal
packed matrices mean equal matrices.

Only whole-matrix equality is consumed downstream, so the left/right action
convention is immaterial: word reversal preserves equality in B_n.

The exact stage needs plain ints only.  numpy is imported inside lk_matrix
alone, which unpacks the packed form into an exponent-window array for
callers that want the matrix itself.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import IndexRangeError, ResourceLimitError, StrandMismatchError
from .words import BraidWord, _cancel_far, common_strands

if TYPE_CHECKING:
    import numpy as np

_INT64_MAX_LEN = 22

# Worst-case size in bits of the two packed matrices of one exact comparison,
# 2 m^2 bits (4B+1)(2B+1): 256 MiB.
_PACKED_LIMIT_BITS = 2**31

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

# Each monomial list evaluated at the certificate's point modulo _P.
_VALUE = {
    monos: sum(coef * pow(_AT_Q, dq, _P) * pow(_AT_T, dt, _P) for coef, dq, dt in monos) % _P
    for monos in (
        _ONE, _Q, _Q2_MINUS_Q, _ONE_MINUS_Q, _MINUS_TQ2, _MINUS_Q2_MINUS_Q_T,
        _QINV, _ONE_MINUS_QINV, _MINUS_TQ2_INV, _TINV_QINV_MINUS_QINV2, _MINUS_QINV_MINUS_QINV2,
    )
}


@lru_cache(maxsize=None)
def _column_rules(n: int, letter: int):
    """Non-identity columns of the matrix of sigma_letter: a list of
    (column index, ((row index, monomials, value), ...)) entries, where value
    is the monomials evaluated at the certificate's point (_VALUE)."""
    i = abs(letter)
    idx = {pair: c for c, pair in enumerate(combinations(range(1, n + 1), 2))}
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
        rules.append((c, tuple((idx[row], monos, _VALUE[monos]) for row, monos in terms)))
    return tuple(rules)


def _certificate(n: int, letters: tuple[int, ...]) -> list[int]:
    """The row y M(w) modulo _P for w = letters on n strands, at the certificate's point."""
    m = n * (n - 1) // 2
    row = [pow(_AT_Y, r + 1, _P) for r in range(m)]
    for letter in letters:
        new_cols = [
            (c, sum(row[s] * value for s, _, value in terms) % _P)
            for c, terms in _column_rules(n, letter)
        ]
        for c, value in new_cols:
            row[c] = value
    return row


def _layout(budget: int) -> tuple[int, int, int]:
    """Digit width, t step (digits) and (q^2 t) step (bits) for a budget."""
    bits = (5**budget).bit_length() + 2
    row = 4 * budget + 1
    return bits, row, (row + 2) * bits


def _packed_rules(n: int, letter: int, budget: int):
    """_column_rules(n, letter) for packed columns, as (copies, sums): a
    copy (column, source) keeps its source's int and offset, and a sum
    (column, terms) has terms ((source, mult, shift), ...), where a term
    times q^2 t is (x << shift) * mult on a packed source x."""
    bits, row, _ = _layout(budget)
    copies, sums = [], []
    for c, terms in _column_rules(n, letter):
        if len(terms) == 1 and terms[0][1] == _ONE:
            copies.append((c, terms[0][0]))
            continue
        packed = []
        for s, monos, _ in terms:
            mult = sum(coef << (bits * (dq + 2)) for coef, dq, _ in monos)
            zeros = (mult & -mult).bit_length() - 1
            shift = zeros + (monos[0][2] + 1) * row * bits
            packed.append((s, mult >> zeros, shift))
        sums.append((c, tuple(packed)))
    return copies, sums


def _packed_matrix(n: int, letters: tuple[int, ...], budget: int) -> tuple[list[list[int]], list[int]]:
    """The columns of M(w) for w = letters on n strands, packed for the
    budget, and their offsets: column c is a list of one int per row."""
    m = n * (n - 1) // 2
    step = _layout(budget)[2]
    cols = [[int(r == c) for r in range(m)] for c in range(m)]
    offsets = [0] * m
    rules = {a: _packed_rules(n, a, budget) for a in set(letters)}
    for letter in letters:
        copies, sums = rules[letter]
        new_cols = [(c, cols[s], offsets[s]) for c, s in copies]
        for c, terms in sums:
            top = max(offsets[s] for s, _, _ in terms)
            col = None
            for s, mult, shift in terms:
                shift += (top - offsets[s]) * step
                part = [(x << shift) * mult for x in cols[s]]
                col = part if col is None else [a + b for a, b in zip(col, part)]
            new_cols.append((c, col, top + 1))
        for c, col, offset in new_cols:
            cols[c] = col
            offsets[c] = offset
    return cols, offsets


def lk_matrix(w: BraidWord, length_budget: int | None = None) -> np.ndarray:
    """Exact matrix of w, shape (m, m, 4B+1, 2B+1) with B the length budget.

    Entry [r, c, 2B + eq, B + et] is the coefficient of q^eq t^et in the
    (x_r, x_c) matrix entry.  Words compared for equality must be rendered
    with the same budget so the windows line up.  The dtype is int64 up to
    a budget of _INT64_MAX_LEN and object (Python ints) above it.  The
    matrix is the unpacked _packed_matrix: every column is shifted to the
    offset B, which puts q^a t^b at digit (2B + a) + (4B+1)(B + b), and the
    balanced digits are read out with numpy.
    """
    import numpy as np

    n = w.strands
    if n < 2:
        raise StrandMismatchError("representation needs at least 2 strands")
    budget = max(len(w.letters), 1) if length_budget is None else length_budget
    if budget < len(w.letters):
        raise IndexRangeError(f"length budget {budget} below the word's {len(w.letters)} letters")
    m = n * (n - 1) // 2
    bits, row, step = _layout(budget)
    cols, offsets = _packed_matrix(n, w.letters, budget)
    digits = row * (2 * budget + 1)
    width = (bits * digits + 7) // 8 + 8  # 8 spare bytes for the 8-byte reads
    buf = b"".join(
        (cols[c][r] << ((budget - offsets[c]) * step)).to_bytes(width, "little", signed=True)
        for r in range(m) for c in range(m)
    )
    # 8-byte reads starting at every byte of an entry; a chunk of at most 56
    # bits lies within the 8 bytes from the byte holding its first bit
    reads = np.ndarray((m * m, width - 7), dtype="<u8", buffer=buf, strides=(width, 1))
    wide = bits > 64
    start = np.arange(digits, dtype=np.int64) * bits
    raw = None
    for low in range(0, bits, 56):
        pos = start + low
        mask = np.uint64((1 << min(56, bits - low)) - 1)
        chunk = (reads[:, pos >> 3] >> (pos & 7).astype(np.uint64)) & mask
        chunk = chunk.astype(object) << low if wide else chunk << np.uint64(low)
        raw = chunk if raw is None else raw | chunk
    # The two's complement digit i is d_i - 1 (mod 2^bits) when the digits
    # below it sum to a negative number, which shows as the top bit of digit
    # i - 1 (they sum to less than 2^(bits i - 1) in magnitude).  Add that
    # borrow back, then read the digit as signed.
    scalar = int if wide else np.uint64
    half = scalar(1 << (bits - 1))
    raw[:, 1:] += raw[:, :-1] >> scalar(bits - 1)
    raw &= scalar((1 << bits) - 1)
    values = (raw ^ half) - half
    if not wide:
        values = values.view(np.int64)
    # digit (2B + a) + (4B+1)(B + b) is window cell [2B + a, B + b]
    mat = np.ascontiguousarray(values.reshape(m, m, 2 * budget + 1, row).transpose(0, 1, 3, 2))
    return mat.astype(object) if budget > _INT64_MAX_LEN and not wide else mat


def _columns_equal(pu, pv, step: int) -> bool:
    """Packed matrices equal, column by column at the larger offset."""
    (cols_u, offsets_u), (cols_v, offsets_v) = pu, pv
    for cu, eu, cv, ev in zip(cols_u, offsets_u, cols_v, offsets_v):
        if eu < ev:
            cu = [x << ((ev - eu) * step) for x in cu]
        elif ev < eu:
            cv = [x << ((eu - ev) * step) for x in cv]
        if cu != cv:
            return False
    return True


def equal_via_representation(u: BraidWord, v: BraidWord) -> bool:
    """Exact comparison of representation matrices; agrees with equal_in_Bn.

    Each word first loses the inverse pairs words._cancel_far finds, which
    leaves its braid, and so its matrix, unchanged.  Differing certificate
    rows of the two reduced words decide DISTINCT; otherwise their packed
    exact matrices decide.  Raises ResourceLimitError, before building
    them, when the two packed matrices could exceed _PACKED_LIMIT_BITS.
    """
    n = common_strands(u, v)
    a, b = _cancel_far(n, u.letters), _cancel_far(n, v.letters)
    if _certificate(n, a) != _certificate(n, b):
        return False
    budget = max(len(a), len(b), 1)
    bits, row, step = _layout(budget)
    m = n * (n - 1) // 2
    size = 2 * m * m * bits * row * (2 * budget + 1)
    if size > _PACKED_LIMIT_BITS:
        raise ResourceLimitError(
            f"exact LK matrices for {n} strands and {budget} letters "
            f"could take {size // 8 // 2**20} MiB, over the {_PACKED_LIMIT_BITS // 8 // 2**20} MiB limit"
        )
    return _columns_equal(_packed_matrix(n, a, budget), _packed_matrix(n, b, budget), step)
