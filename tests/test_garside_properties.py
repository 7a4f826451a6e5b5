"""Property tests tying the Garside kernel to the slide-by-slide pass it
replaced, kept here verbatim as the reference: every letter enters as its own
factor, every sigma_i^-1 as Delta^-1 . (Delta sigma_i^-1) with a per-letter
parity precount, and every Delta factor walks to the front one pair op at a
time.  Also ties the shortcuts of equal_in_Bn (invariants, cancellation
across far-commuting letters, common prefix and suffix, Cartier-Foata order)
to a plain comparison of the two words' normal forms, the linear
cancellation pass to a quadratic backward scan, and the middles to the
cancel-and-strip middles kept here as a length bound."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from chromabraid import _garside_py, garside, words  # noqa: E402
from chromabraid.garside import equal_in_Bn, normal_form  # noqa: E402
from chromabraid.words import BraidWord, a_word  # noqa: E402

from braid_strategies import letters, rewrite_pairs, word_pairs  # noqa: E402


def _is_half_twist(f, n):
    return all(f[x] == n - 1 - x for x in range(n))


def _tau(f, n):
    # conjugation by the half twist: tau(f)[x] = n-1 - f[n-1-x]
    return [n - 1 - f[n - 1 - x] for x in range(n)]


def _left_weight_pair(u, v, pos, n):
    """Slide head letters of v into u until S(v) is contained in F(u).

    S(v) = descent set of v, F(u) = descent set of u^-1.  A generator index
    i (0-based) is slid when i is in S(v) but not in F(u); the slide keeps
    the product u v fixed: u gains the letter on the right, v loses it on
    the left.  Mutates u and v in place; pos is scratch of length n.
    Returns True when anything moved.
    """
    for x in range(n):
        pos[u[x]] = x
    changed = False
    while True:
        j = -1
        for i in range(n - 1):
            # descent of v at i, non-descent of u^-1 at i
            if v[i] > v[i + 1] and pos[i] < pos[i + 1]:
                j = i
                break
        if j < 0:
            return changed
        # u <- u . sigma_{j+1}: swap the values j, j+1 inside u
        u[pos[j]] = j + 1
        u[pos[j + 1]] = j
        pos[j], pos[j + 1] = pos[j + 1], pos[j]
        # v <- sigma_{j+1}^-1 . v: swap the entries at j, j+1
        v[j], v[j + 1] = v[j + 1], v[j]
        changed = True


def reference_left_normal_form(n, letters):
    """Return (inf, factors): letters == Delta^inf . factors, left weighted.

    factors is a list of 0-based one-line tuples, each a proper non-trivial
    permutation braid (never the identity, never the half twist Delta).
    """
    letters = list(letters)
    if n == 1 or not letters:
        return 0, []

    # Rewrite each letter as a permutation braid, pulling every Delta^-1
    # from sigma_i^-1 = Delta^-1 . (Delta sigma_i^-1) to the front.  Moving
    # Delta^-1 left past a factor conjugates the factor by the half twist;
    # a factor is flipped once per negative letter strictly after it, so
    # only the parity of that count matters.
    total_neg = sum(1 for k in letters if k < 0)
    p = -total_neg
    neg_after = total_neg
    factors = []
    pos = [0] * n
    ident = list(range(n))
    for k in letters:
        i = abs(k) - 1
        if k < 0:
            neg_after -= 1
            # Delta sigma_i^-1: x -> t_i(n-1-x)
            f = []
            for x in range(n):
                y = n - 1 - x
                if y == i:
                    y = i + 1
                elif y == i + 1:
                    y = i
                f.append(y)
        else:
            f = list(range(n))
            f[i], f[i + 1] = f[i + 1], f[i]
        if neg_after & 1:
            f = _tau(f, n)
        factors.append(f)
        # Right multiplication (Epstein et al., Word Processing in Groups,
        # ch. 9): the factors before f are left weighted, so left-weight
        # backwards from the new pair; once a pair is unchanged, every pair
        # before it still is.  Only the new last factor can become the
        # identity, and Delta factors can only end up at the front.
        t = len(factors) - 2
        while t >= 0 and _left_weight_pair(factors[t], factors[t + 1], pos, n):
            t -= 1
        if factors[-1] == ident:
            factors.pop()

    lead = 0
    while lead < len(factors) and _is_half_twist(factors[lead], n):
        lead += 1
    return p + lead, [tuple(f) for f in factors[lead:]]


@st.composite
def kernel_words(draw, sign=0, max_len=120):
    """n in 1..10 and a word on n strands whose length is drawn first, so long
    words are drawn as often as short ones; sign > 0 draws positive letters
    only, sign < 0 negative ones only, sign 0 both."""
    n = draw(st.integers(1, 10))
    if n == 1:
        return n, ()
    size = draw(st.integers(0, max_len))
    signs = (sign,) if sign else (1, -1)
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from(signs).map(i.__mul__))
    return n, tuple(draw(st.lists(letter, min_size=size, max_size=size)))


def assert_matches_reference(n, letters):
    assert _garside_py.left_normal_form(n, letters) == reference_left_normal_form(n, letters)


def half_twist_word(n):
    """Delta as the positive runs a_word(1, 2) a_word(1, 3) ... a_word(1, n)."""
    return sum((a_word(1, j, n).letters for j in range(2, n + 1)), ())


@given(kernel_words())
@example((2, (1, -1, -1)))
@example((4, (1, 3, -1)))
# sigma_2 sigma_1 absorbed behind sigma_1 complete Delta: (1, [sigma_2])
@example((3, (1, 1, 2, 1)))
@example((4, half_twist_word(4)))
@example((5, half_twist_word(5)))
@example((5, (-1,) + half_twist_word(5) + (2, -3)))
# negative runs: sigma_1^-1 sigma_1^-1 is not simple, so the second letter
# ends the run begun after the factor sigma_1 sigma_2
@example((4, (1, 2, -1, -1)))
# runs spelling Delta^-1, whose complement is the identity
@example((3, (1, 1, -2, -1, -2)))
@example((4, (1, 3) + tuple(-k for k in reversed(half_twist_word(4)))))
# sigma_2^-1 cancels in place, then sigma_3^-1 sigma_2^-1 is one run
@example((4, (1, 2, -2, -3, -2)))
# sigma_4 is absorbed into sigma_2, and the run sigma_1^-1 sigma_3^-1 ends the word
@example((5, (2, 4, -1, -3)))
def test_kernel_matches_reference(case):
    assert_matches_reference(*case)


@pytest.fixture
def pair_ops(monkeypatch):
    """The argument tuples of every _left_weight_pair call the kernel makes."""
    calls = []
    pair_op = _garside_py._left_weight_pair

    def counted(*args):
        calls.append(args)
        return pair_op(*args)

    monkeypatch.setattr(_garside_py, "_left_weight_pair", counted)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_positive_runs_need_no_pair_op(n, pair_ops):
    """A sigma_i that is not a suffix of the last factor is absorbed into it
    and one that is becomes a new factor, neither by a pair op: a descending
    run is one simple factor, and so is each prefix of a half-twist word."""
    run = a_word(1, n, n).letters
    words = [run, run + run, half_twist_word(n), half_twist_word(n) * 3]
    for letters in words:
        assert _garside_py.left_normal_form(n, letters) == reference_left_normal_form(n, letters)
    assert _garside_py.left_normal_form(n, run) == (0, [tuple(range(1, n)) + (0,)])
    assert _garside_py.left_normal_form(n, half_twist_word(n) * 3) == (3, [])
    assert pair_ops == []


@pytest.mark.parametrize("n, letters", [
    # sigma_2 ... sigma_{n-1} absorbed into the second factor sigma_1
    (4, (1, 1, 2, 3)),
    (8, (1, 1, 2, 3, 4, 5, 6, 7)),
    # one negative run, entered as Delta^-1 and one complement factor
    (4, (1, 2, 3, -1, -2)),
    (5, (1, 2, 3, 4, -1, -2, -3)),
    # sigma_2 absorbed behind a third sigma_1: left weighting stops at the
    # first pair it leaves unchanged
    (4, (1, 1, 1, 2)),
])
def test_runs_need_at_most_one_pair_op(n, letters, pair_ops):
    """Letters absorbed into the last factor are left weighted once per run,
    not once per letter, and a negative run whose inverse is simple enters
    as one factor."""
    assert _garside_py.left_normal_form(n, letters) == reference_left_normal_form(n, letters)
    assert len(pair_ops) <= 1


@given(kernel_words(sign=1))
def test_kernel_matches_reference_on_positive_words(case):
    assert_matches_reference(*case)


@given(kernel_words(sign=-1))
def test_kernel_matches_reference_on_negative_words(case):
    assert_matches_reference(*case)


@given(kernel_words(max_len=60))
def test_kernel_matches_reference_on_word_times_inverse(case):
    n, w = case
    letters = w + tuple(-k for k in reversed(w))
    assert_matches_reference(n, letters)
    assert _garside_py.left_normal_form(n, letters) == (0, [])


def assert_decided_by_normal_forms(u, v):
    assert equal_in_Bn(u, v) == (normal_form(u) == normal_form(v))


@given(word_pairs(max_n=8, max_len=30))
def test_equal_in_Bn_on_random_pairs(pair):
    assert_decided_by_normal_forms(*pair)


@given(rewrite_pairs(max_n=8, max_len=30))
def test_equal_in_Bn_on_rewrite_pairs(pair):
    assert_decided_by_normal_forms(*pair)
    assert equal_in_Bn(*pair)


@st.composite
def twisted_pairs(draw, max_n=8, max_len=20):
    """A word and a copy with sigma_i^2 and sigma_i^-2 inserted at two places:
    the same permutation and exponent sum, usually a different braid."""
    n = draw(st.integers(2, max_n))
    w = draw(letters(n, max_len))
    v = list(w)
    i = draw(st.integers(1, n - 1))
    for twist in ((i, i), (-i, -i)):
        pos = draw(st.integers(0, len(v)))
        v[pos:pos] = twist
    return BraidWord(n, w), BraidWord(n, tuple(v))


@st.composite
def framed_pairs(draw):
    """p.a.s and p.b.s for a shared random prefix p and suffix s, where (a, b)
    is a random, a rewrite or a twisted pair."""
    a, b = draw(st.one_of(word_pairs(max_n=8), rewrite_pairs(max_n=8), twisted_pairs()))
    n = a.strands
    p, s = draw(letters(n, 20)), draw(letters(n, 20))
    return BraidWord(n, p + a.letters + s), BraidWord(n, p + b.letters + s)


@given(twisted_pairs())
def test_equal_in_Bn_on_twisted_pairs(pair):
    assert_decided_by_normal_forms(*pair)


@given(framed_pairs())
def test_equal_in_Bn_on_framed_pairs(pair):
    assert_decided_by_normal_forms(*pair)


def reference_cancel_far(letters):
    """Each letter scans the kept letters backwards: it cancels the first
    sigma_k^-+1 it meets and stops at any other letter of index |k|-1, |k|
    or |k|+1.  Quadratic; the reference for words._cancel_far."""
    kept = []
    for k in letters:
        for back in range(len(kept) - 1, -1, -1):
            if kept[back] == -k:
                del kept[back]
                break
            if abs(abs(kept[back]) - abs(k)) <= 1:
                kept.append(k)
                break
        else:
            kept.append(k)
    return tuple(kept)


@given(kernel_words())
# sigma_1^-1 meets sigma_1 across sigma_3, and sigma_2 blocks it
@example((4, (1, 3, -1)))
@example((4, (1, 2, -1)))
# sigma_2^-1 exposes sigma_1 to sigma_1^-1, and the last sigma_1^-1 cancels
# across sigma_4
@example((6, (1, 4, 2, -2, -1, 3, 1, 4, -1)))
# nested inverse pairs: sigma_2 sigma_2^-1 cancels, then sigma_1 sigma_1^-1
@example((4, (1, 2, -2, -1, 3)))
def test_cancel_far_matches_backward_scan(case):
    n, w = case
    assert words._cancel_far(n, w) == reference_cancel_far(w)


@given(kernel_words(max_len=60))
@example((4, (1, 2, -2, -1, 3)))
def test_cancel_far_keeps_the_braid(case):
    n, w = case
    reduced = words._cancel_far(n, w)
    assert normal_form(BraidWord(n, reduced)) == normal_form(BraidWord(n, w))
    assert words._cancel_far(n, reduced) == reduced
    assert words._cancel_far(n, w + tuple(-k for k in reversed(w))) == ()


def reference_middles(n, u, v):
    """The middles as cancellation and one strip left them before the
    Cartier-Foata order: the bound that reduced_middles never exceeds."""
    a, b = words._cancel_far(n, u), words._cancel_far(n, v)
    m = min(len(a), len(b))
    i = 0
    while i < m and a[i] == b[i]:
        i += 1
    j = 0
    while j < m - i and a[-1 - j] == b[-1 - j]:
        j += 1
    return a[i:len(a) - j], b[i:len(b) - j]


@given(kernel_words(max_len=60))
@example((5, (4, 1, 2, 1, 4)))
def test_foata_order_keeps_the_braid(case):
    n, w = case
    ordered = words._foata(n, w)
    assert sorted(ordered) == sorted(w)
    assert normal_form(BraidWord(n, ordered)) == normal_form(BraidWord(n, w))
    assert words._foata(n, ordered) == ordered


@given(kernel_words(), st.data())
def test_foata_order_ignores_far_swaps(case, data):
    n, w = case
    far = [i for i in range(len(w) - 1) if abs(abs(w[i]) - abs(w[i + 1])) >= 2]
    if far:
        i = data.draw(st.sampled_from(far))
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        assert words._foata(n, swapped) == words._foata(n, w)


@st.composite
def far_commuted_pairs(draw, max_n=8, max_len=30):
    """A word and a copy changed only by swaps of adjacent far letters and by
    inserted pairs k, -k (which later swaps can move apart), inside a shared
    random prefix and suffix: equal in the group of far commutation."""
    n = draw(st.integers(2, max_n))
    w = list(draw(letters(n, max_len)))
    v = list(w)
    for _ in range(draw(st.integers(0, 12))):
        pos = draw(st.integers(0, len(v)))
        if draw(st.booleans()) and pos + 1 < len(v) and abs(abs(v[pos]) - abs(v[pos + 1])) >= 2:
            v[pos], v[pos + 1] = v[pos + 1], v[pos]
        else:
            k = draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
            v[pos:pos] = [k, -k]
    p, s = draw(letters(n, 10)), draw(letters(n, 10))
    return BraidWord(n, p + tuple(w) + s), BraidWord(n, p + tuple(v) + s)


@given(st.one_of(word_pairs(max_n=8, max_len=30), rewrite_pairs(max_n=8),
                 twisted_pairs(), framed_pairs()))
@example((BraidWord(5, (4, 1, 2, 1, 4)), BraidWord(5, (4, 2, 1, 2, 4))))
def test_middles_are_never_longer_than_one_strip(pair):
    u, v = pair
    a, b = words.reduced_middles(u, v)
    ref_a, ref_b = reference_middles(u.strands, u.letters, v.letters)
    assert len(a) <= len(ref_a) and len(b) <= len(ref_b)


@given(far_commuted_pairs())
# sigma_1 sigma_3 sigma_5 against sigma_5 sigma_3 sigma_1 between different letters
@example((BraidWord(7, (-2, 1, 3, 5, 6)), BraidWord(7, (5, -2, 3, 1, 6))))
def test_far_commuted_pairs_need_no_normal_form(pair):
    """Equal in the group of far commutation: EQUAL from the middles alone,
    which is also the whole-word normal-form verdict."""
    assert normal_form(pair[0]) == normal_form(pair[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(garside, "left_normal_form", None)
        assert equal_in_Bn(*pair)
