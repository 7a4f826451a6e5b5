"""Braid word plumbing: parsing, permutations, word families, crossings."""

import random

import pytest

from chromabraid import _kernel
from chromabraid._kernel import MAX_STRANDS
from chromabraid.errors import IndexRangeError, ParseError, ResourceLimitError, StrandMismatchError
from chromabraid.words import (
    BraidWord,
    Permutation,
    a_word,
    concat,
    crossing_matrix,
    e_word,
    format_word,
    inverse,
    parse_word,
    perm_of,
    psi_a_word,
    psi_b_word,
    psi_r,
    psi_s,
    reduced_middles,
    s_word,
)

from braid_helpers import half_twist_perm, power, transposition


def rand_word(rng, n, length):
    return BraidWord(
        n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    )


class TestParsing:
    def test_round_trip(self):
        w = parse_word("1 2 -1 3 -3", 4)
        assert w.letters == (1, 2, -1, 3, -3)
        assert parse_word(format_word(w), 4) == w

    def test_canonical_text_round_trip(self):
        text = "2 -1 1"
        assert format_word(parse_word(text, 3)) == text

    def test_empty(self):
        assert parse_word("", 5) == BraidWord(5)
        assert parse_word("   \t\n ", 5) == BraidWord(5)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_word("1 x 2", 4)
        assert err.value.position == 2

    @pytest.mark.parametrize("bad", ["1.5", "2x", "--1", "1_0"])
    def test_non_integer_tokens(self, bad):
        with pytest.raises(ParseError):
            parse_word(bad, 9)

    def test_zero_is_out_of_range(self):
        with pytest.raises(IndexRangeError, match=r"^letter 0 out of range for 4 strands \(token 2\)$"):
            parse_word("1 0", 4)

    @pytest.mark.parametrize("text", ["3", "-3"])
    def test_index_out_of_range(self, text):
        # the parser names the token, which BraidWord's own check cannot
        with pytest.raises(IndexRangeError, match=rf"^letter {text} out of range for 3 strands \(token 1\)$"):
            parse_word(text, 3)

    def test_constructor_validates(self):
        with pytest.raises(IndexRangeError):
            BraidWord(3, (3,))
        with pytest.raises(IndexRangeError):
            BraidWord(0, ())
        # the message names the first bad letter
        with pytest.raises(IndexRangeError, match="^letter -3 out of range for 3 strands$"):
            BraidWord(3, (1, -3, 0, 5))


class TestIntegers:
    """A letter, strand count, permutation value or exponent that equals a
    valid int but is not one is refused, naming the first such value."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BraidWord(3, (1.0,)), "letter 1.0 out of range for 3 strands"),
            (lambda: BraidWord(3, (1, 2.0, 1.0)), "letter 2.0 out of range for 3 strands"),
            (lambda: BraidWord(3, (1, "1")), "letter '1' out of range for 3 strands"),
            (lambda: BraidWord(3.0), "strand count must be an integer, got 3.0"),
            (lambda: parse_word("1", 3.0), "strand count must be an integer, got 3.0"),
            (lambda: _kernel.strand_walk(BraidWord(3, (1.0,))), "letter 1.0 out of range for 3 strands"),
            (lambda: Permutation((1.0, 2)), r"not a permutation of 1..2: \(1.0, 2\)"),
            (lambda: power(BraidWord(3, (1,)), 1.5), "power needs an integer exponent, got 1.5"),
            # a bool equals 0 or 1, and format_word would print it as True
            (lambda: BraidWord(3, (True, -1)), "letter True out of range for 3 strands"),
            (lambda: BraidWord(3, ([1],)), r"letter \[1\] out of range for 3 strands"),
            (lambda: Permutation((True, 2)), r"not a permutation of 1..2: \(True, 2\)"),
            (lambda: Permutation(("1", 2)), r"not a permutation of 1..2: \('1', 2\)"),
        ],
        ids=[
            "letter", "second-letter", "string-letter", "strands", "parse_word",
            "strand_walk", "Permutation", "power", "bool-letter", "list-letter",
            "Permutation-bool", "Permutation-string",
        ],
    )
    def test_refused(self, build, message):
        with pytest.raises(IndexRangeError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize(
        "build",
        [lambda: a_word(1.5, 3, 4), lambda: s_word(1, 2.0, 4), lambda: e_word(1, 2.5, 4)],
        ids=["a_word", "s_word", "e_word"],
    )
    def test_family_refuses_non_integer_index(self, build):
        # each passes the range test, and range() would raise a bare TypeError
        with pytest.raises(IndexRangeError, match=r" needs 1 <= "):
            build()

    def test_values_are_stored_as_tuples(self):
        w, p = BraidWord(3, [1, -2]), Permutation([2, 1])
        assert w.letters == (1, -2) and p.image == (2, 1)
        assert w == BraidWord(3, (1, -2)) and hash(w) == hash(BraidWord(3, (1, -2)))
        assert p == Permutation((2, 1)) and hash(p) == hash(Permutation((2, 1)))


class TestStrandCap:
    """A strand count above MAX_STRANDS is refused before anything sized by it
    is built; at the cap every word constructor still works."""

    REFUSAL = f"^{MAX_STRANDS + 1} strands exceed the limit of {MAX_STRANDS}$"

    def test_at_the_cap(self):
        n = MAX_STRANDS
        w = parse_word(f"{n - 1} -1", n)
        assert w == BraidWord(n, (n - 1, -1))
        assert len(a_word(1, n, n)) == len(s_word(1, n, n)) - n + 1 == n - 1
        assert perm_of(psi_a_word(n)).apply(n) == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: BraidWord(n, (1,)),
            lambda n: BraidWord(n),
            lambda n: parse_word("1", n),
            lambda n: parse_word("x 0", n),  # the cap comes before the letters
            lambda n: a_word(1, n, n),
            lambda n: s_word(1, n, n),
            lambda n: e_word(1, n, n),
            lambda n: psi_b_word(n),
            lambda n: _kernel.left_normal_form(n, (1,)),
            lambda n: _kernel.crossing_counts(BraidWord(n)),
        ],
        ids=[
            "BraidWord", "BraidWord-empty", "parse_word", "parse_word-bad-token",
            "a_word", "s_word", "e_word", "psi_b_word", "left_normal_form", "crossing_counts",
        ],
    )
    def test_refused_above_the_cap(self, build):
        with pytest.raises(ResourceLimitError, match=self.REFUSAL):
            build(MAX_STRANDS + 1)

    def test_alphabet_cache_is_bounded(self):
        # a finite cache of letter sets of at most 2 MAX_STRANDS - 2 letters
        maxsize = _kernel._alphabet.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


class TestPermutation:
    def test_compose_is_left_to_right(self):
        p = Permutation((2, 1, 3))
        q = Permutation((1, 3, 2))
        assert (p * q).image == (3, 1, 2)

    def test_compose_needs_one_size(self):
        with pytest.raises(StrandMismatchError, match="^composing permutations of sizes 3 and 2$"):
            Permutation((2, 1, 3)) * Permutation((1, 2))

    def test_inverse(self):
        p = Permutation((3, 1, 2))
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_transposition(self):
        t = transposition(4, 2, 4)
        assert t.image == (1, 4, 3, 2)
        assert (t * t).is_identity()

    def test_not_a_permutation(self):
        with pytest.raises(IndexRangeError):
            Permutation((1, 1, 3))

    def test_half_twist(self):
        assert half_twist_perm(4).image == (4, 3, 2, 1)
        assert perm_of(BraidWord(4, (1, 2, 1, 3, 2, 1))) == half_twist_perm(4)


class TestPermOf:
    def test_generator(self):
        assert perm_of(BraidWord(3, (1,))).image == (2, 1, 3)

    def test_two_letters(self):
        assert perm_of(BraidWord(3, (1, 2))).image == (3, 1, 2)

    def test_homomorphism(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 7)
            u = rand_word(rng, n, rng.randint(0, 12))
            v = rand_word(rng, n, rng.randint(0, 12))
            assert perm_of(concat(u, v)) == perm_of(u) * perm_of(v)

    def test_inverse_word(self):
        rng = random.Random(12)
        for _ in range(50):
            w = rand_word(rng, 5, 10)
            assert perm_of(inverse(w)) == perm_of(w).inverse()


class TestWordFamilies:
    def test_a_word_letters(self):
        assert a_word(1, 4, 4).letters == (3, 2, 1)
        assert a_word(2, 2, 4).letters == ()
        assert a_word(2, 4, 5).letters == (3, 2)

    def test_a_word_range(self):
        with pytest.raises(IndexRangeError):
            a_word(3, 2, 4)

    @pytest.mark.parametrize("family", [s_word, e_word])
    def test_band_and_transposition_need_two_vertices(self, family):
        # i = j would give sigma_i^2 and the empty word, not a band or a
        # transposition
        with pytest.raises(IndexRangeError, match=rf"^{family.__name__} needs 1 <= "):
            family(2, 2, 4)

    def test_s_word_letters(self):
        assert s_word(1, 2, 3).letters == (1, 1)
        assert s_word(1, 3, 4).letters == (2, 1, 1, -2)
        assert s_word(2, 4, 5).letters == (3, 2, 2, -3)

    def test_s_word_is_pure(self):
        for n in range(2, 7):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert perm_of(s_word(i, j, n)).is_identity()

    def test_e_word_letters(self):
        assert e_word(1, 3, 4).letters == (2, 1, -2)
        assert e_word(2, 4, 4).letters == (3, 2, -3)

    def test_e_word_perm_is_transposition(self):
        for n in range(3, 8):
            for k in range(1, n):
                for l in range(k + 1, n + 1):
                    assert perm_of(e_word(k, l, n)) == transposition(n, k, l)

    def test_psi_parameters(self):
        assert (psi_r(4), psi_s(4)) == (2, 4)
        assert (psi_r(5), psi_s(5)) == (3, 4)
        assert (psi_r(6), psi_s(6)) == (3, 5)
        assert (psi_r(7), psi_s(7)) == (4, 5)

    def test_psi_parameters_match_the_parity_definitions(self):
        for n in range(4, 201):
            if n % 2 == 0:
                assert (psi_r(n), psi_s(n)) == (n // 2, (n + 4) // 2)
            else:
                assert (psi_r(n), psi_s(n)) == ((n + 1) // 2, (n + 3) // 2)

    def test_psi_b_factors(self):
        assert psi_b_word(4).letters == e_word(2, 4, 4).letters
        assert psi_b_word(5).letters == concat(e_word(2, 5, 5), e_word(3, 4, 5)).letters

    def test_psi_words_project_to_dihedral_generators(self):
        from chromabraid.graphs import dihedral_generators

        for n in range(4, 10):
            a, b = dihedral_generators(n)
            assert perm_of(psi_a_word(n)) == a
            assert perm_of(psi_b_word(n)) == b

    def test_psi_needs_four_strands(self):
        with pytest.raises(IndexRangeError):
            psi_a_word(3)
        with pytest.raises(IndexRangeError):
            psi_b_word(3)


class TestReducedMiddles:
    def test_cancels_across_far_letters_only(self):
        far, near = BraidWord(4, (1, 3, -1)), BraidWord(4, (1, 2, -1))
        assert reduced_middles(far, BraidWord(4)) == ((3,), ())
        assert reduced_middles(near, BraidWord(4)) == (near.letters, ())

    def test_drops_common_prefix_and_suffix(self):
        u, v = BraidWord(5, (4, 1, 2, 1, 4)), BraidWord(5, (4, 2, 1, 2, 4))
        assert reduced_middles(u, v) == ((1, 2, 1), (2, 1, 2))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatchError):
            reduced_middles(BraidWord(3), BraidWord(4))

    def test_linear_on_a_long_word(self):
        # (sigma_1 sigma_3 ... sigma_999)^20 times its inverse on 1,000
        # strands: 20,000 letters, each cancelling across 499 far letters,
        # which a backward scan would take quadratic time over
        w = BraidWord(1000, tuple(range(1, 1000, 2)) * 20)
        assert reduced_middles(concat(w, inverse(w)), BraidWord(1000)) == ((), ())


class TestConcatPower:
    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatchError):
            concat(BraidWord(3), BraidWord(4))

    def test_power(self):
        w = BraidWord(3, (1, 2))
        assert power(w, 0) == BraidWord(3)
        assert power(w, 2).letters == (1, 2, 1, 2)
        assert power(w, -1) == inverse(w)
        assert power(w, -2).letters == (-2, -1, -2, -1)
        w = BraidWord(4, (1, -3, 2))
        for e in range(-3, 4):
            assert power(w, e).letters == (w if e >= 0 else inverse(w)).letters * abs(e)
        # the rotation lift a^999 on 1,000 strands: 998,001 letters, which
        # repeated concatenation would build in quadratic time
        w = psi_a_word(1000)
        assert power(w, 999).letters == w.letters * 999


class TestCrossingMatrix:
    def test_full_twist(self):
        m = crossing_matrix(BraidWord(2, (1, 1)))
        assert m.rows == ((0, 2), (2, 0))

    def test_sign(self):
        m = crossing_matrix(BraidWord(3, (-2,)))
        assert m.rows[1][2] == -1
        assert m.rows[0][1] == 0

    def test_labels_follow_strands(self):
        # sigma_1 sigma_1: strands 1 and 2 cross twice; sigma_1 sigma_2:
        # the second letter crosses strand 1 (now at position 2) with strand 3
        m = crossing_matrix(BraidWord(3, (1, 2)))
        assert m.rows[0][1] == 1
        assert m.rows[0][2] == 1
        assert m.rows[1][2] == 0

    def test_additivity_with_relabeling(self):
        rng = random.Random(14)
        for _ in range(150):
            n = rng.randint(2, 7)
            u = rand_word(rng, n, rng.randint(0, 15))
            v = rand_word(rng, n, rng.randint(0, 15))
            # M(uv)[p][q] = M(u)[p][q] + M(v)[g(p)][g(q)], g = perm_of(u)
            g = perm_of(u).apply
            mu, mv = crossing_matrix(u), crossing_matrix(v)
            expect = tuple(
                tuple(mu.rows[p - 1][q - 1] + mv.rows[g(p) - 1][g(q) - 1] for q in range(1, n + 1))
                for p in range(1, n + 1)
            )
            assert crossing_matrix(concat(u, v)).rows == expect

    def test_symmetry(self):
        rng = random.Random(15)
        for _ in range(50):
            m = crossing_matrix(rand_word(rng, 6, 20))
            for p in range(1, 7):
                for q in range(1, 7):
                    assert m.rows[p - 1][q - 1] == m.rows[q - 1][p - 1]
