"""Left-weighted normal form: structure, invariance, and the kernel."""

import hashlib
import random
import sys
from itertools import combinations, product

import pytest

from chromabraid import _kernel, garside, words
from chromabraid.errors import IndexRangeError, ResourceLimitError, StrandMismatchError
from chromabraid.garside import NormalForm, equal_in_Bn, equal_via_representation, normal_form
from chromabraid.words import BraidWord, Permutation, concat, inverse, perm_of

from braid_helpers import finishing_set, half_twist_perm, is_left_weighted, power, starting_set


def conjugate(w, by):
    """by^-1 w by."""
    return concat(concat(inverse(by), w), by)


def rand_word(rng, n, length):
    return BraidWord(
        n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    )


def delta_word(n):
    """Half twist as sigma_1 (sigma_2 sigma_1) ... (sigma_{n-1} ... sigma_1)."""
    letters = []
    for k in range(1, n):
        letters.extend(range(k, 0, -1))
    return BraidWord(n, tuple(letters))


def inversions(perm: Permutation) -> int:
    img = perm.image
    return sum(
        1
        for i in range(len(img))
        for j in range(i + 1, len(img))
        if img[i] > img[j]
    )


def perm_braid_word(perm: Permutation, n: int) -> BraidWord:
    """Reduced positive word of a permutation braid, by insertion sort."""
    work = list(perm.image)
    letters = []
    # bubble the one-line notation back to identity; each entry swap removes
    # one descent and the swaps in discovery order compose to the permutation
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                letters.append(i + 1)
                changed = True
    w = BraidWord(n, tuple(letters))
    assert perm_of(w) == perm and len(letters) == inversions(perm)
    return w


class TestSpotValues:
    def test_half_twist_both_words(self):
        for w in (BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))):
            nf = normal_form(w)
            assert (nf.infimum, nf.factors) == (1, ())

    def test_delta_word_all_n(self):
        for n in range(2, 9):
            w = delta_word(n)
            assert perm_of(w) == half_twist_perm(n)
            nf = normal_form(w)
            assert (nf.infimum, nf.factors) == (1, ())

    def test_trivial_words(self):
        assert normal_form(BraidWord(5)) == NormalForm(5, 0, ())
        assert normal_form(BraidWord(1)) == NormalForm(1, 0, ())
        assert normal_form(BraidWord(3, (1, -1))) == NormalForm(3, 0, ())

    def test_single_negative_letter(self):
        nf = normal_form(BraidWord(3, (-1,)))
        assert nf.infimum == -1
        assert [f.image for f in nf.factors] == [(3, 1, 2)]

    def test_b2_is_infinite_cyclic(self):
        nf = normal_form(BraidWord(2, (1, 1, 1)))
        assert nf.infimum == 3 and nf.factors == ()
        nf = normal_form(BraidWord(2, (-1, -1)))
        assert nf.infimum == -2 and nf.factors == ()

    def test_generator_factor(self):
        nf = normal_form(BraidWord(4, (2,)))
        assert nf.infimum == 0
        assert [f.image for f in nf.factors] == [(1, 3, 2, 4)]

    def test_counts(self):
        # a positive word: no Delta, and the factors' lengths (their
        # inversion counts) add up to the 5 letters
        nf = normal_form(BraidWord(4, (1, 3, 2, 2, 1)))
        assert nf.infimum == 0
        assert [f.image for f in nf.factors] == [(3, 1, 4, 2), (2, 3, 1, 4)]
        assert sum(a > b for f in nf.factors for a, b in combinations(f.image, 2)) == 5


class TestKernelEdgeCases:
    """Cases the lazily twisted pass handles by a branch of its own."""

    def test_b2_powers(self):
        # sigma_1 is Delta itself on 2 strands
        for k in range(7):
            assert _kernel.left_normal_form(2, (1,) * k) == (k, [])
            assert _kernel.left_normal_form(2, (-1,) * k) == (-k, [])

    def test_delta_cubes(self):
        for n in range(3, 10):
            for e in (3, -3):
                nf = normal_form(power(delta_word(n), e))
                assert (nf.infimum, nf.factors) == (e, ())

    def test_delta_conjugate_is_tau_of_every_factor(self):
        # Delta w Delta^-1 = Delta^p tau(A_1) ... tau(A_k)
        rng = random.Random(26)
        for _ in range(100):
            n = rng.randint(3, 8)
            w = rand_word(rng, n, rng.randint(0, 40))
            d = delta_word(n)
            nf = normal_form(concat(concat(d, w), inverse(d)))
            plain = normal_form(w)
            tau = tuple(
                Permutation(tuple(n + 1 - f.apply(n + 1 - x) for x in range(1, n + 1)))
                for f in plain.factors
            )
            assert (nf.infimum, nf.factors) == (plain.infimum, tau)

    def test_last_negative_letter_cancels_in_last_factor(self):
        # sigma_1 is a suffix of the factor sigma_1 sigma_3, so sigma_1^-1
        # leaves the prefix sigma_3 and no Delta^-1
        nf = normal_form(BraidWord(4, (1, 3, -1)))
        assert (nf.infimum, [f.image for f in nf.factors]) == (0, [(1, 2, 4, 3)])
        assert nf == normal_form(BraidWord(4, (3,)))

    def test_long_words_are_left_weighted(self):
        rng = random.Random(27)
        for _ in range(40):
            nf = normal_form(rand_word(rng, 8, rng.randint(48, 256)))
            assert is_left_weighted(nf)


class TestFormSizeLimit:
    def test_at_the_limit(self):
        # 2,000 letters on 1,000 strands: the limit's letter-strands exactly
        assert 2000 * 1000 == _kernel.MAX_FORM_CELLS
        assert _kernel.left_normal_form(1000, (1, -1) * 1000) == (0, [])

    def test_above_the_limit_is_refused_before_the_kernel(self, monkeypatch):
        monkeypatch.setattr(_kernel._impl, "left_normal_form", None)
        with pytest.raises(ResourceLimitError, match=(
            "^a normal form of 2001 letters on 1000 strands exceeds the limit"
            " of 2000000 letter-strands$"
        )):
            _kernel.left_normal_form(1000, (1, -1) * 1000 + (1,))

    def test_only_the_middles_count(self):
        # 20,000 letters on 1,000 strands as a whole word; every letter
        # cancels against one of the inverse, so no normal form is taken
        w = power(BraidWord(1000, tuple(range(1, 1000, 2))), 20)
        assert equal_in_Bn(concat(w, inverse(w)), BraidWord(1000))
        with pytest.raises(ResourceLimitError):
            normal_form(w)


class TestPermutationBraidOracle:
    """Brute-force cross-check: every positive word of length <= 4 in B_3
    whose letters multiply to a permutation with the same inversion count is
    a permutation braid; words realizing the same permutation braid must be
    equal, words realizing different permutations must not."""

    def test_b3_exhaustive(self):
        by_perm = {}
        for length in range(5):
            for letters in product((1, 2), repeat=length):
                w = BraidWord(3, letters)
                perm = perm_of(w)
                if inversions(perm) != length:
                    continue
                by_perm.setdefault(perm, []).append(w)
        assert len(by_perm) == 6
        for perm, words in by_perm.items():
            for w in words[1:]:
                assert equal_in_Bn(words[0], w)
        perms = list(by_perm)
        for i in range(len(perms)):
            for j in range(i + 1, len(perms)):
                assert not equal_in_Bn(by_perm[perms[i]][0], by_perm[perms[j]][0])

    def test_round_trip_through_factors(self):
        # rebuild the word Delta^p A_1...A_k from the computed factors and
        # normalize again: the normal form must be reproduced exactly
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(2, 7)
            w = rand_word(rng, n, rng.randint(0, 30))
            nf = normal_form(w)
            rebuilt = power(delta_word(n), nf.infimum)
            for f in nf.factors:
                rebuilt = concat(rebuilt, perm_braid_word(f, n))
            assert normal_form(rebuilt) == nf


class TestStructure:
    def test_left_weighted_and_proper(self):
        rng = random.Random(22)
        for _ in range(400):
            n = rng.randint(2, 8)
            nf = normal_form(rand_word(rng, n, rng.randint(0, 40)))
            assert is_left_weighted(nf)

    def test_starting_finishing_sets(self):
        g = perm_of(BraidWord(3, (1, 2)))
        assert starting_set(g) == {1}
        assert finishing_set(g) == {2}

    def test_factor_permutation_product(self):
        rng = random.Random(231)
        for _ in range(200):
            n = rng.randint(2, 7)
            w = rand_word(rng, n, rng.randint(0, 25))
            nf = normal_form(w)
            acc = Permutation.identity(n)
            for _ in range(abs(nf.infimum)):
                acc = acc * half_twist_perm(n)
            for f in nf.factors:
                acc = acc * f
            assert acc == perm_of(w)


class TestEquality:
    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatchError):
            equal_in_Bn(BraidWord(3), BraidWord(4))

    def test_group_laws(self):
        rng = random.Random(23)
        trivial = {n: BraidWord(n) for n in range(2, 8)}
        for _ in range(200):
            n = rng.randint(2, 7)
            w = rand_word(rng, n, rng.randint(0, 20))
            assert equal_in_Bn(concat(w, inverse(w)), trivial[n])
            assert equal_in_Bn(concat(inverse(w), w), trivial[n])

    def test_delta_central_squared(self):
        # Delta^2 generates the center: it commutes with every generator
        for n in range(3, 7):
            d2 = power(delta_word(n), 2)
            for i in range(1, n):
                g = BraidWord(n, (i,))
                assert equal_in_Bn(concat(d2, g), concat(g, d2))

    def test_delta_conjugation_flips_generators(self):
        # Delta^-1 sigma_i Delta = sigma_{n-i}
        for n in range(3, 7):
            d = delta_word(n)
            for i in range(1, n):
                lhs = conjugate(BraidWord(n, (i,)), d)
                assert equal_in_Bn(lhs, BraidWord(n, (n - i,)))

    def test_same_invariants_still_distinct(self):
        # same permutation (the identity) and exponent sum (4), different braids
        u, v = BraidWord(3, (1, 1, 2, 2)), BraidWord(3, (2, 2, 1, 1))
        assert perm_of(u) == perm_of(v)
        assert normal_form(u) != normal_form(v)
        assert not equal_in_Bn(u, v)

    @pytest.mark.parametrize("n, u, v, equal", [
        (3, (1, 1), (), False),          # exponent sums 2 and 0
        (3, (1, -2), (2, -1), False),    # exponent sums 0, permutations differ
        (4, (1, 2, -2, 3, 1, -1), (1, 3), True),  # the same after free reduction
        (4, (3, 1, 2), (3, 1, -1, 1, 2), True),
        (4, (1, 3, -1), (3,), True),     # sigma_1^-1 cancels sigma_1 across sigma_3
        # sigma_1 sigma_3 sigma_5 against sigma_5 sigma_3 sigma_1 between
        # different outer letters: equal only through far commutations
        (7, (2, 1, 3, 5, 4), (2, 5, 3, 1, 4), True),
        (7, (-2, 1, 3, 5, 6), (5, -2, 3, 1, 6), True),
    ])
    def test_shortcuts_decide_without_normal_forms(self, monkeypatch, n, u, v, equal):
        def refuse(n, letters):
            raise AssertionError(f"left_normal_form called on {letters}")

        monkeypatch.setattr(garside, "left_normal_form", refuse)
        assert equal_in_Bn(BraidWord(n, u), BraidWord(n, v)) is equal

    def test_normal_forms_see_only_the_middles(self, monkeypatch):
        seen = []

        def recording(n, letters):
            seen.append(letters)
            return _kernel.left_normal_form(n, letters)

        monkeypatch.setattr(garside, "left_normal_form", recording)
        prefix, suffix = (3, -1, 3), (2, 3, 3)
        u = BraidWord(4, prefix + (1, 2, 1) + suffix)
        v = BraidWord(4, prefix + (2, 1, 2) + suffix)
        assert equal_in_Bn(u, v)
        # in u the prefix's sigma_1^-1 cancels the middle's first sigma_1
        # across sigma_3; in v the middle's sigma_2 stands between them
        assert seen == [(3, 2, 1), (-1, 3, 2, 1, 2)]

    def test_infimum_shift(self):
        rng = random.Random(24)
        for _ in range(100):
            n = rng.randint(2, 6)
            w = rand_word(rng, n, rng.randint(0, 15))
            k = rng.randint(-3, 3)
            shifted = concat(power(delta_word(n), k), w)
            a, b = normal_form(shifted), normal_form(w)
            assert a.infimum == b.infimum + k
            assert a.factors == b.factors


class TestDerivedLetters:
    """Both oracles keep the letters they derive from built words as tuples:
    neither builds a word, and only the kernel's raw-letters entry checks
    letters again."""

    @pytest.fixture
    def spies(self, monkeypatch):
        builds, checks = [], []
        post_init, check = BraidWord.__post_init__, _kernel.check_letters

        def built(w):
            builds.append(w.strands)
            post_init(w)

        def checked(n, letters):
            checks.append(sys._getframe(1).f_code.co_name)
            return check(n, letters)

        monkeypatch.setattr(BraidWord, "__post_init__", built)
        # BraidWord reads the name words imported, left_normal_form its own
        monkeypatch.setattr(_kernel, "check_letters", checked)
        monkeypatch.setattr(words, "check_letters", checked)
        return builds, checks

    def test_garside_oracle_checks_only_the_middles(self, spies):
        builds, checks = spies
        u, v = BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))
        del builds[:], checks[:]
        assert equal_in_Bn(u, v)
        assert builds == []
        assert checks == ["left_normal_form", "left_normal_form"]

    def test_lk_oracle_builds_and_checks_nothing(self, spies):
        builds, checks = spies
        # an EQUAL pair reaches the packed stage, a DISTINCT one stops at the
        # certificate; sigma_1^-1 cancels sigma_1 across sigma_3
        pairs = [
            (BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))),
            (BraidWord(4, (1, 3, -1)), BraidWord(4, (2,))),
        ]
        del builds[:], checks[:]
        assert [equal_via_representation(u, v) for u, v in pairs] == [True, False]
        assert builds == checks == []


# letters outside 0 < |k| < 3: the kernel does not check them itself
# the last four equal valid letters but are not ints
OUT_OF_RANGE = [(0,), (3,), (-3,), (1.0,), ("1",), (1, 2.0), (True,)]

# sha256 of the kernel's normal forms on the cases below, computed with the
# fixpoint sweep that the one-pass kernel replaced
NF_DIGEST = "edefb48c59f2c77da7050e9b9a7f89192c2bdd88ef5e81383376b0fb1fb2c57a"


def digest_cases():
    rng = random.Random(25)

    def letters(n, length):
        return tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))

    for _ in range(600):
        n = rng.randint(1, 9)
        yield n, letters(n, rng.randint(0, 40) if n > 1 else 0)
    for _ in range(40):
        yield 8, letters(8, rng.randint(48, 256))


class TestKernelLanes:
    def test_normal_form_digest(self):
        h = hashlib.sha256()
        for n, letters in digest_cases():
            h.update(repr(_kernel.left_normal_form(n, letters)).encode() + b"\n")
        assert h.hexdigest() == NF_DIGEST
        for letters in OUT_OF_RANGE:
            with pytest.raises(IndexRangeError):
                _kernel.check_letters(3, letters)

    @pytest.mark.parametrize("letters", OUT_OF_RANGE)
    def test_kernel_rejects_out_of_range_letters(self, letters):
        with pytest.raises(IndexRangeError):
            _kernel.left_normal_form(3, letters)
        # the strand walks take a BraidWord, which refuses them when built
        with pytest.raises(IndexRangeError):
            BraidWord(3, letters)

    def test_kernel_selection_reports(self):
        from chromabraid._kernel import KERNEL

        assert KERNEL == "pure"

    def test_normal_form_dataclass(self):
        nf = NormalForm(3, 0, (Permutation((2, 1, 3)),))
        assert nf == normal_form(BraidWord(3, (1,)))
        assert str(nf) == "D^0:2,1,3"
