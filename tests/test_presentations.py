"""Presentation synthesizers and canonicalization."""

import hashlib
from itertools import combinations

import pytest

from chromabraid.chromatic import equal_in_BGamma
from chromabraid.errors import IndexRangeError
from chromabraid.garside import equal_in_Bn
from chromabraid.graphs import complete, cycle, from_edge_list, path
from chromabraid.presentations import (
    Presentation,
    artin_presentation,
    commutator,
    cyclic_braid_presentation,
    cyclic_canonical,
    dihedral_presentation,
    edge_generator_name,
    equation_relator,
    equivalent_presentations,
    format_presentation,
    free_reduce_relator,
    markoff_presentation,
    pure_chromatic_presentation,
    relator_inverse,
    substitute,
)
from chromabraid.verify import standard_graph_suite
from chromabraid.words import BraidWord, a_word, parse_word, s_word

from braid_helpers import markoff_reference


def star(n):
    return from_edge_list(n, [(1, k) for k in range(2, n + 1)])


def is_commutator_shape(rel):
    return (
        len(rel) == 4
        and rel[0][1] == 1
        and rel[1][1] == 1
        and rel[2] == (rel[0][0], -1)
        and rel[3] == (rel[1][0], -1)
    )


class TestRelatorAlgebra:
    def test_free_reduce(self):
        rel = (("x", 1), ("y", 1), ("y", -1), ("x", -1), ("z", 1))
        assert free_reduce_relator(rel) == (("z", 1),)

    def test_relator_inverse(self):
        rel = (("x", 1), ("y", -1))
        assert relator_inverse(rel) == (("y", 1), ("x", -1))
        assert free_reduce_relator(rel + relator_inverse(rel)) == ()

    def test_equation_relator(self):
        rel = equation_relator((("x", 1), ("y", 1)), (("z", 1), ("y", 1)))
        assert rel == (("x", 1), ("z", -1))

    def test_cyclic_canonical_rotations(self):
        rel = (("b", 1), ("a", 1), ("c", 1))
        rotations = [rel[i:] + rel[:i] for i in range(3)]
        canon = {cyclic_canonical(r) for r in rotations}
        assert canon == {(("a", 1), ("c", 1), ("b", 1))}

    def test_cyclic_canonical_reduces_first(self):
        rel = (("b", 1), ("a", 1), ("a", -1), ("c", 1))
        assert cyclic_canonical(rel) == (("b", 1), ("c", 1))

    def test_equivalent_under_rotation_and_reorder(self):
        p = Presentation(("x", "y"), (commutator("x", "y"),))
        rotated = commutator("x", "y")[2:] + commutator("x", "y")[:2]
        q = Presentation(("y", "x"), (rotated,))
        assert equivalent_presentations(p, q)

    def test_not_equivalent_different_relators(self):
        p = Presentation(("x", "y"), (commutator("x", "y"),))
        q = Presentation(("x", "y"), ((("x", 1), ("y", 1)),))
        assert not equivalent_presentations(p, q)
        assert not equivalent_presentations(
            p, Presentation(("x", "y", "z"), (commutator("x", "y"),))
        )


class TestPresentationValidation:
    def test_duplicate_generators(self):
        with pytest.raises(ValueError):
            Presentation(("x", "x"), ())

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            Presentation(("x",), ((("y", 1),),))

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            Presentation(("x",), ((("x", 2),),))


class TestArtin:
    def test_small(self):
        p = artin_presentation(2)
        assert p.generators == ("s1",)
        assert p.relators == ()

    def test_n4_structure(self):
        p = artin_presentation(4)
        assert p.generators == ("s1", "s2", "s3")
        assert len(p.relators) == 3
        comms = [r for r in p.relators if is_commutator_shape(r)]
        assert comms == [commutator("s1", "s3")]
        braid = [r for r in p.relators if len(r) == 6]
        assert len(braid) == 2

    def test_counts(self):
        for n in range(2, 9):
            p = artin_presentation(n)
            assert len(p.generators) == n - 1
            expected = (n - 2) * (n - 3) // 2 + (n - 2)
            assert len(p.relators) == expected

    def test_range(self):
        with pytest.raises(IndexRangeError):
            artin_presentation(1)

    def test_relators_hold_in_braid_group(self):
        for n in (3, 4, 5):
            p = artin_presentation(n)
            table = {f"s{i}": BraidWord(n, (i,)) for i in range(1, n)}
            for rel in p.relators:
                assert equal_in_Bn(substitute(rel, table, n), BraidWord(n))


class TestMarkoff:
    def test_counts(self):
        def c(n, k):
            out = 1
            for i in range(k):
                out = out * (n - i) // (i + 1)
            return out

        for n in range(2, 7):
            p = markoff_presentation(n)
            assert len(p.generators) == c(n, 2)
            assert len(p.relators) == 3 * c(n, 4) + 2 * c(n, 3)
        assert len(markoff_presentation(4).relators) == 11

    def test_range(self):
        with pytest.raises(IndexRangeError):
            markoff_presentation(1)

    def test_relators_hold_in_braid_group(self):
        for n in (3, 4, 5):
            p = markoff_presentation(n)
            table = {
                edge_generator_name(i, j): s_word(i, j, n)
                for i, j in combinations(range(1, n + 1), 2)
            }
            for rel in p.relators:
                assert equal_in_Bn(substitute(rel, table, n), BraidWord(n))

    def test_complete_graph_gives_same_presentation(self):
        for n in range(3, 13):
            assert equivalent_presentations(markoff_presentation(n), markoff_reference(n))

    def test_is_the_complete_graph_case(self):
        # from n = 11 a name-first order and a position-first order of the
        # commutators differ: "s10_11" < "s1_2"
        for n in (11, 12):
            assert equivalent_presentations(
                markoff_presentation(n), pure_chromatic_presentation(complete(n))
            )

    def test_complete_graph_matches_reference_exactly(self):
        for n in range(2, 13):
            assert pure_chromatic_presentation(complete(n)) == markoff_reference(n)


class TestPureChromatic:
    def test_triangle_free_all_commutators(self):
        for G, m in ((cycle(4), 4), (cycle(5), 5), (star(5), 4), (path(4), 3)):
            p = pure_chromatic_presentation(G)
            assert len(p.generators) == m
            assert len(p.relators) == m * (m - 1) // 2
            assert all(is_commutator_shape(r) for r in p.relators)

    def test_cycle5_count(self):
        assert len(pure_chromatic_presentation(cycle(5)).relators) == 10

    def test_commutators_min_name_first(self):
        for r in pure_chromatic_presentation(cycle(6)).relators:
            assert r[0][0] < r[1][0]

    def test_disjoint_chords(self):
        G = from_edge_list(4, [(1, 3), (2, 4)])
        p = pure_chromatic_presentation(G)
        assert p.generators == ("s1_3", "s2_4")
        assert p.relators == (commutator("s1_3", "s2_4"),)

    def test_chord_over_3_circuit(self):
        G = from_edge_list(4, [(1, 3), (2, 3), (2, 4), (3, 4)])
        p = pure_chromatic_presentation(G)
        assert p.generators == ("s1_3", "s2_3", "s2_4", "s3_4")
        assert len(p.relators) == 5
        conj = (
            ("s1_3", 1),
            ("s2_3", 1),
            ("s2_4", 1),
            ("s2_3", -1),
            ("s1_3", -1),
            ("s2_3", 1),
            ("s2_4", -1),
            ("s2_3", -1),
        )
        assert conj in p.relators
        assert commutator("s1_3", "s2_3") in p.relators
        assert commutator("s1_3", "s3_4") in p.relators
        triples = [r for r in p.relators if len(r) == 6]
        assert len(triples) == 2

    def test_incident_edge_commutators_deduplicate(self):
        p = pure_chromatic_presentation(path(3))
        assert p.relators == (commutator("s1_2", "s2_3"),)

    def test_edgeless_graph(self):
        p = pure_chromatic_presentation(from_edge_list(4, []))
        assert p.generators == ()
        assert p.relators == ()

    def test_relators_hold_in_conditioned_group(self):
        # Schema (2.2) relators are identities of B(Gamma) only, so the
        # triangle-free graphs go through equal_in_BGamma; on a complete
        # graph every relator is a plain braid-group identity.
        for G in (cycle(4), cycle(5), star(5), path(4)):
            n = G.vertices
            table = {
                edge_generator_name(i, j): s_word(i, j, n)
                for i, j in G.edges_sorted()
            }
            for rel in pure_chromatic_presentation(G).relators:
                assert equal_in_BGamma(substitute(rel, table, n), BraidWord(n), G)
        G = complete(4)
        table = {
            edge_generator_name(i, j): s_word(i, j, 4)
            for i, j in G.edges_sorted()
        }
        for rel in pure_chromatic_presentation(G).relators:
            assert equal_in_Bn(substitute(rel, table, 4), BraidWord(4))


class TestDihedral:
    def test_exact(self):
        p = dihedral_presentation(4)
        assert p.generators == ("a", "b")
        assert p.relators == (
            (("a", 1), ("a", 1), ("a", 1), ("a", 1)),
            (("b", 1), ("b", 1)),
            (("b", 1), ("a", 1), ("b", 1), ("a", 1)),
        )

    def test_range(self):
        with pytest.raises(IndexRangeError):
            dihedral_presentation(2)


class TestCyclicBraid:
    def test_n4_shape(self):
        p = cyclic_braid_presentation(4)
        assert p.generators == ("s1_2", "s1_4", "s2_3", "s3_4", "psi_a", "psi_b")
        assert len(p.relators) == 17

    def test_counts(self):
        for n in range(4, 9):
            p = cyclic_braid_presentation(n)
            assert len(p.generators) == n + 2
            assert len(p.relators) == n * (n - 1) // 2 + 2 * n + 3

    def test_range(self):
        with pytest.raises(IndexRangeError):
            cyclic_braid_presentation(3)

    def test_even_reflection_relator_has_no_kernel_part(self):
        p = cyclic_braid_presentation(6)
        assert (("psi_b", 1), ("psi_b", 1)) in p.relators

    def test_odd_reflection_relator(self):
        p = cyclic_braid_presentation(5)
        assert (("psi_b", 1), ("psi_b", 1), ("s3_4", -1)) in p.relators

    def test_r1_block_is_pure_cycle_presentation(self):
        # The kernel part of the extension: the first n generators and the
        # C(n, 2) R1 relators are pure_chromatic_presentation(cycle(n)).  The
        # two builders orient some commutators differently from n = 10, so
        # each relator is keyed up to rotation and inversion.
        def key(rel):
            return min(cyclic_canonical(rel), cyclic_canonical(relator_inverse(rel)))

        for n in range(4, 13):
            pure = pure_chromatic_presentation(cycle(n))
            p = cyclic_braid_presentation(n)
            assert p.generators[:n] == pure.generators
            r1 = p.relators[: n * (n - 1) // 2]
            assert sorted(map(key, r1)) == sorted(map(key, pure.relators))


class TestSubstitute:
    def test_evaluates_tokens(self):
        table = {"u": parse_word("1 2", 3), "v": parse_word("2", 3)}
        w = substitute((("u", 1), ("v", -1)), table, 3)
        assert w.letters == (1, 2, -2)

    @pytest.mark.parametrize("exp", [0, -3, 2])
    def test_exponent_other_than_one_is_refused(self, exp):
        # as in a Presentation, a token exponent is +-1, not a sign
        with pytest.raises(IndexRangeError, match=f"^token exponent must be \\+-1, got {exp}$"):
            substitute((("x", exp),), {"x": parse_word("1", 2)}, 2)

    def test_band_words_satisfy_pure_relators(self):
        n = 4
        table = {
            edge_generator_name(i, j): s_word(i, j, n)
            for i, j in combinations(range(1, n + 1), 2)
        }
        rel = commutator("s1_2", "s3_4")
        assert equal_in_Bn(substitute(rel, table, n), BraidWord(n))

    def test_a_word_alias(self):
        assert a_word(1, 4, 5).letters == (3, 2, 1)


class TestFormatting:
    def test_plain_artin3(self):
        text = format_presentation(artin_presentation(3), "plain")
        assert text == "generators: s1 s2\ns1 s2 s1 s2^-1 s1^-1 s2^-1\n"

    def test_plain_no_relators(self):
        text = format_presentation(artin_presentation(2), "plain")
        assert text == "generators: s1\n"

    def test_algebra_dihedral(self):
        text = format_presentation(dihedral_presentation(4), "algebra-system")
        assert text == (
            'F := FreeGroup( "a", "b" );;\n'
            "rels := [\n"
            "  F.1^4,\n"
            "  F.2^2,\n"
            "  F.2*F.1*F.2*F.1\n"
            "];;\n"
        )

    def test_algebra_empty_relators(self):
        text = format_presentation(Presentation(("x",), ()), "algebra-system")
        assert text == 'F := FreeGroup( "x" );;\nrels := [];;\n'

    def test_algebra_power_compression(self):
        p = Presentation(("x", "y"), ((("x", -1), ("x", -1), ("y", 1)),))
        text = format_presentation(p, "algebra-system")
        assert "F.1^-2*F.2" in text

    def test_unknown_dialect(self):
        with pytest.raises(ValueError):
            format_presentation(artin_presentation(3), "latex")


def small_graphs(max_n):
    """Every labelled graph on 1..max_n vertices, in a fixed order."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            yield from_edge_list(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


class TestPresentDigest:
    """`present` output pinned byte for byte: one sha256 over both dialects of
    every pure presentation of a graph on at most 5 vertices and of the
    verify-paper graph suite, and of the four numbered families for n <= 8."""

    DIGEST = "f516bb725e0acf303476c45a1657ca307f6c90ffa1de5bf922a01019a62b39b2"

    def presentations(self):
        yield from (pure_chromatic_presentation(G) for G in small_graphs(5))
        yield from (pure_chromatic_presentation(G) for _, G in standard_graph_suite(12))
        for build, low in (
            (artin_presentation, 2),
            (markoff_presentation, 2),
            (dihedral_presentation, 3),
            (cyclic_braid_presentation, 4),
        ):
            yield from (build(n) for n in range(low, 9))

    def test_digest(self):
        digest = hashlib.sha256()
        for p in self.presentations():
            for dialect in ("plain", "algebra-system"):
                digest.update(format_presentation(p, dialect).encode())
        assert digest.hexdigest() == self.DIGEST

    # markoff for n = 9..12 in both dialects, the same bytes as `present pure
    # complete:N`: from n = 11 the name order of a commutator ("s10_11" <
    # "s1_2") and its vertex order differ
    MARKOFF_DIGEST = "7d06d993ba52385e1372536d211c0ed4c6ede40119a0b0fce0ab51f96fb89dd2"

    def test_markoff_digest(self):
        digest = hashlib.sha256()
        for n in range(9, 13):
            for dialect in ("plain", "algebra-system"):
                digest.update(format_presentation(markoff_presentation(n), dialect).encode())
        assert digest.hexdigest() == self.MARKOFF_DIGEST

    def test_pure_relators_are_reduced_edge_words_without_repeats(self):
        for G in small_graphs(5):
            edge_names = {edge_generator_name(i, j) for i, j in G.edges}
            relators = pure_chromatic_presentation(G).relators
            for rel in relators:
                assert rel and free_reduce_relator(rel) == rel
                assert {name for name, _ in rel} <= edge_names
            assert len(set(map(cyclic_canonical, relators))) == len(relators)
