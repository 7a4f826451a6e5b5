"""Property tests tying the LK oracle's certificate to its exact stage and to Garside."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from chromabraid import lkrep  # noqa: E402
from chromabraid.garside import equal_in_Bn  # noqa: E402
from chromabraid.lkrep import equal_via_representation, lk_matrix  # noqa: E402
from chromabraid.words import BraidWord  # noqa: E402


def letters(n, max_len):
    return st.lists(
        st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        max_size=max_len,
    ).map(tuple)


@st.composite
def words(draw, max_n=6, max_len=12):
    n = draw(st.integers(2, max_n))
    return BraidWord(n, draw(letters(n, max_len)))


@st.composite
def word_pairs(draw, max_n=6, max_len=20):
    n = draw(st.integers(2, max_n))
    return BraidWord(n, draw(letters(n, max_len))), BraidWord(n, draw(letters(n, max_len)))


@st.composite
def rewrite_pairs(draw, max_n=6, max_len=12):
    """A word and a copy changed by free insertions and deletions, far
    commutations, braid moves and inserted braid relators."""
    n = draw(st.integers(2, max_n))
    base = list(draw(letters(n, max_len)))
    w = list(base)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(w)))
        a = draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
        kind = draw(st.sampled_from(("insert", "relator", "local")))
        if kind == "insert" or (kind == "local" and pos + 1 >= len(w)):
            w[pos:pos] = [a, -a]
        elif kind == "relator":
            if abs(a) < n - 1:
                b = abs(a) + 1
                w[pos:pos] = [abs(a), b, abs(a), -b, -abs(a), -b]
        else:
            x, y = w[pos], w[pos + 1]
            if x == -y:
                del w[pos:pos + 2]
            elif abs(abs(x) - abs(y)) >= 2:
                w[pos], w[pos + 1] = y, x
            elif (pos + 2 < len(w) and w[pos + 2] == x and (x > 0) == (y > 0)
                  and abs(abs(x) - abs(y)) == 1):
                w[pos:pos + 3] = [y, x, y]
    return BraidWord(n, tuple(base)), BraidWord(n, tuple(w))


def evaluated_row(w):
    """y M(w) modulo P, from the exact matrix evaluated at the certificate's point."""
    mat = lk_matrix(w)
    budget = (mat.shape[3] - 1) // 2
    p = lkrep._P
    q_pow = [pow(lkrep._AT_Q, e - 2 * budget, p) for e in range(mat.shape[2])]
    t_pow = [pow(lkrep._AT_T, e - budget, p) for e in range(mat.shape[3])]
    y = [pow(lkrep._AT_Y, r + 1, p) for r in range(mat.shape[0])]
    row = [0] * mat.shape[0]
    for r, c, eq, et in zip(*np.nonzero(mat)):
        row[c] = (row[c] + y[r] * int(mat[r, c, eq, et]) * q_pow[eq] * t_pow[et]) % p
    return row


@given(words())
def test_certificate_is_the_exact_matrix_evaluated(w):
    assert lkrep._certificate(w) == evaluated_row(w)


@given(rewrite_pairs())
def test_rewrite_equal_pairs_pass_the_certificate(pair):
    u, v = pair
    assert lkrep._certificate(u) == lkrep._certificate(v)
    assert equal_via_representation(u, v)


@given(word_pairs())
def test_oracles_agree(pair):
    u, v = pair
    assert equal_via_representation(u, v) == equal_in_Bn(u, v)
