"""Property tests tying the LK oracle's certificate to its exact stage and to
Garside, its packed exact stage to the numpy exponent-window loop it
replaced (kept here as the reference), and its verdicts on reduced words to
the packed comparison of the whole words."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from chromabraid import lkrep  # noqa: E402
from chromabraid.garside import equal_in_Bn  # noqa: E402
from chromabraid.lkrep import equal_via_representation, lk_matrix  # noqa: E402
from chromabraid.words import BraidWord  # noqa: E402

from braid_strategies import letters, rewrite_pairs, word_pairs  # noqa: E402


@st.composite
def words(draw, max_n=6, max_len=12):
    n = draw(st.integers(2, max_n))
    return BraidWord(n, draw(letters(n, max_len)))


def _shift_add(dst, src, coef, dq, dt):
    """dst += coef * q^dq t^dt * src, on exponent-window arrays (..., NQ, NT)."""
    nq, nt = src.shape[-2], src.shape[-1]
    qd = slice(max(0, dq), nq + min(0, dq))
    qs = slice(max(0, -dq), nq + min(0, -dq))
    td = slice(max(0, dt), nt + min(0, dt))
    ts = slice(max(0, -dt), nt + min(0, -dt))
    dst[..., qd, td] += coef * src[..., qs, ts]


def reference_lk_matrix(w, length_budget=None):
    """The exact matrix by letter-by-letter updates of numpy exponent windows."""
    n = w.strands
    budget = max(len(w.letters), 1) if length_budget is None else length_budget
    m = n * (n - 1) // 2
    nq, nt = 4 * budget + 1, 2 * budget + 1
    dtype = np.int64 if budget <= lkrep._INT64_MAX_LEN else object
    mat = np.zeros((m, m, nq, nt), dtype=dtype)
    q0, t0 = 2 * budget, budget
    for r in range(m):
        mat[r, r, q0, t0] = 1
    for k, letter in enumerate(w.letters, 1):
        # the live box after k letters; a letter shifts by |dq| <= 2, |dt| <= 1
        box = mat[:, :, q0 - 2 * k:q0 + 2 * k + 1, t0 - k:t0 + k + 1]
        new_cols = []
        for c, terms in lkrep._column_rules(n, letter):
            acc = np.zeros_like(box[:, c])
            for s, monos, _ in terms:
                for coef, dq, dt in monos:
                    _shift_add(acc, box[:, s], coef, dq, dt)
            new_cols.append((c, acc))
        for c, acc in new_cols:
            box[:, c] = acc
    return mat


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
    assert lkrep._certificate(w.strands, w.letters) == evaluated_row(w)


@given(rewrite_pairs())
def test_rewrite_equal_pairs_pass_the_certificate(pair):
    u, v = pair
    assert lkrep._certificate(u.strands, u.letters) == lkrep._certificate(v.strands, v.letters)
    assert equal_via_representation(u, v)


@given(word_pairs())
def test_oracles_agree(pair):
    u, v = pair
    assert equal_via_representation(u, v) == equal_in_Bn(u, v)


@st.composite
def sized_words(draw, max_n=6, max_len=26):
    """A word whose length is drawn first, so long words are drawn as often
    as short ones."""
    n = draw(st.integers(2, max_n))
    size = draw(st.integers(0, max_len))
    return BraidWord(n, draw(letters(n, size, size)))


@st.composite
def budgeted_words(draw, max_len=26):
    """A word and a length budget from its length up to max_len, so budgets
    on both sides of _INT64_MAX_LEN occur."""
    w = draw(sized_words(max_len=max_len))
    size = max(len(w.letters), 1)
    return w, draw(st.integers(size, max(size, max_len)))


@st.composite
def unequal_length_pairs(draw, max_len=12):
    """A word and a copy with one to three free insertions a a^-1."""
    u = draw(sized_words(max_len=max_len))
    v = list(u.letters)
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(1, u.strands - 1)) * draw(st.sampled_from((1, -1)))
        pos = draw(st.integers(0, len(v)))
        v[pos:pos] = [a, -a]
    return u, BraidWord(u.strands, tuple(v))


# object-dtype budgets make the reference loop slow, so fewer drawn cases;
# the examples pin the largest int64 and object windows at n = 6 and a
# budget whose digits are wider than 64 bits
@settings(max_examples=25)
@given(budgeted_words())
@example((BraidWord(6, (5, -4, 3, 1, -2) * 4 + (1, 1)), 22))
@example((BraidWord(6, (1, -2, 3, -4, 5, 2, -1, 4, -3, -5, 1, 2, 3) * 2), 26))
@example((BraidWord(3, (1, 2, -1, 2, 2, -1, -2, 1) * 3 + (1, 2)), 30))
def test_lk_matrix_is_the_window_loop(case):
    w, budget = case
    packed, reference = lk_matrix(w, budget), reference_lk_matrix(w, budget)
    assert packed.shape == reference.shape
    assert packed.dtype == reference.dtype
    assert np.array_equal(packed, reference)


def test_column_rules_weigh_at_most_five():
    # the induction step of the 5^L coefficient bound in the lkrep docstring
    for n in range(2, 9):
        for i in range(1, n):
            for letter in (i, -i):
                for _, terms in lkrep._column_rules(n, letter):
                    assert sum(abs(coef) for _, monos, _ in terms for coef, _, _ in monos) <= 5


def test_packed_matrix_has_one_column_per_pair():
    for n in range(2, 7):
        m = n * (n - 1) // 2
        cols, offsets = lkrep._packed_matrix(n, (1, -1), 2)
        assert len(cols) == len(offsets) == m
        assert all(len(col) == m for col in cols)


def test_lone_one_rules_are_copies():
    # x_c <- x_s keeps its source's int and offset instead of a shifted sum
    for n in range(2, 9):
        for i in range(1, n):
            for letter in (i, -i):
                copies, sums = lkrep._packed_rules(n, letter, 4)
                rules = lkrep._column_rules(n, letter)
                lone_ones = [(c, terms[0][0]) for c, terms in rules
                             if len(terms) == 1 and terms[0][1] == lkrep._ONE]
                assert copies == lone_ones
                assert len(copies) + len(sums) == len(rules)


def test_rule_values_are_the_monomials_at_the_point():
    # the certificate reads each term's value instead of its monomials
    p = lkrep._P
    for n in range(2, 9):
        for i in range(1, n):
            for letter in (i, -i):
                for _, terms in lkrep._column_rules(n, letter):
                    for _, monos, value in terms:
                        at_point = sum(
                            coef * pow(lkrep._AT_Q, dq, p) * pow(lkrep._AT_T, dt, p)
                            for coef, dq, dt in monos
                        )
                        assert value == at_point % p


@given(sized_words())
def test_entries_stay_within_five_to_the_length(w):
    mat = lk_matrix(w)
    assert np.abs(mat).sum(axis=(2, 3)).max() <= 5 ** len(w.letters)


def _reference_equal(u, v):
    budget = max(len(u.letters), len(v.letters), 1)
    return np.array_equal(reference_lk_matrix(u, budget), reference_lk_matrix(v, budget))


@given(rewrite_pairs(max_len=8).filter(lambda p: max(len(p[0].letters), len(p[1].letters)) <= 26))
def test_packed_verdict_on_rewrite_pairs(pair):
    assert equal_via_representation(*pair) == _reference_equal(*pair)


@given(unequal_length_pairs())
def test_packed_verdict_on_unequal_lengths(pair):
    assert equal_via_representation(*pair) == _reference_equal(*pair)


@st.composite
def padded(draw, n, base):
    """base with one to four insertions: an inverse pair a a^-1 next to a
    letter, a^+-1 and a^-+1 on both sides of a run of letters that commute
    with a, or a braid relator."""
    w = list(base)
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
        pos = draw(st.integers(0, len(w)))
        kind = draw(st.sampled_from(("adjacent", "far", "relator")))
        if kind == "adjacent":
            w[pos:pos] = [a, -a]
        elif kind == "far":
            end = pos
            while end < len(w) and abs(abs(w[end]) - abs(a)) >= 2:
                end += 1
            end = draw(st.integers(pos, end))
            w[end:end] = [-a]
            w[pos:pos] = [a]
        elif abs(a) < n - 1:
            i, j = abs(a), abs(a) + 1
            w[pos:pos] = [i, j, i, -j, -i, -j]
    return BraidWord(n, tuple(w))


@st.composite
def padded_pairs(draw, max_n=6, max_len=12):
    """Two padded words, of one base (an equal pair) or of two."""
    n = draw(st.integers(2, max_n))
    base = draw(letters(n, max_len))
    other = base if draw(st.booleans()) else draw(letters(n, max_len))
    return draw(padded(n, base)), draw(padded(n, other))


def _whole_word_packed_equal(u, v):
    """The packed exact comparison of the unreduced words, at the longer
    whole word's budget."""
    budget = max(len(u.letters), len(v.letters), 1)
    step = lkrep._layout(budget)[2]
    return lkrep._columns_equal(
        lkrep._packed_matrix(u.strands, u.letters, budget),
        lkrep._packed_matrix(v.strands, v.letters, budget),
        step,
    )


@given(padded_pairs())
@example((BraidWord(5, (2, 4, -4, 1, -2)), BraidWord(5, (1,))))
@example((BraidWord(4, (1, 2, 1, -2, -1, -2)), BraidWord(4, ())))
def test_reduced_verdict_is_the_whole_word_verdict(pair):
    u, v = pair
    verdict = equal_via_representation(u, v)
    assert verdict == equal_in_Bn(u, v)
    assert verdict == _whole_word_packed_equal(u, v)
