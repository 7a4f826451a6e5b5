"""Edge vectors, the abelianized invariant, sections, and the word problem."""

import random

import pytest

from chromabraid import _kernel, words
from chromabraid.chromatic import (
    ChromaticElement,
    EdgeVector,
    dihedral_section_word,
    edge_lk,
    equal_in_BGamma,
    i_star,
    normal_form_in_BGamma,
    phi,
    section,
    unit_vector,
    zero_vector,
)
from chromabraid.errors import (
    GraphInputError,
    NotAutomorphismError,
    NotPureError,
    OutOfScopeError,
    StrandMismatchError,
)
from chromabraid.garside import equal_in_Bn, normal_form
from chromabraid.graphs import (
    DihedralElement,
    automorphisms,
    complete,
    cycle,
    from_edge_list,
    path,
)
from chromabraid.words import (
    BraidWord,
    Permutation,
    concat,
    crossing_matrix,
    inverse,
    parse_word,
    perm_of,
    psi_a_word,
    psi_b_word,
    s_word,
)

from braid_helpers import act


def star(n):
    return from_edge_list(n, [(1, k) for k in range(2, n + 1)])


def random_pure_word(G, rng, pieces=6):
    n = G.vertices
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    w = BraidWord(n)
    for _ in range(pieces):
        i, j = rng.choice(pairs)
        piece = s_word(i, j, n)
        w = concat(w, piece if rng.random() < 0.7 else inverse(piece))
    return w


class TestEdgeVector:
    def test_algebra(self):
        G = cycle(4)
        u = unit_vector(G, 1, 2)
        v = unit_vector(G, 3, 4)
        assert (u + v).coords == (1, 0, 0, 1)
        assert (-u).coords == (-1, 0, 0, 0)
        assert (u - u).is_zero()
        assert zero_vector(G).is_zero()
        assert not u.is_zero()

    def test_coefficient_lookup(self):
        # the coordinate of an edge is its place in the sorted edge list,
        # whichever order its vertices are given in
        G = cycle(4)
        assert G.edges_sorted().index((1, 4)) == 1
        assert unit_vector(G, 4, 1) == unit_vector(G, 1, 4)
        assert unit_vector(G, 4, 1).coords == (0, 1, 0, 0)
        with pytest.raises(GraphInputError):
            unit_vector(G, 1, 3)

    def test_str(self):
        assert str(unit_vector(cycle(4), 2, 3)) == "[0,0,1,0]"

    def test_length_validation(self):
        with pytest.raises(GraphInputError):
            EdgeVector(cycle(4), (1, 2))

    def test_coords_are_stored_as_a_tuple(self):
        # a list was stored as given, and the vector did not hash
        v = EdgeVector(cycle(4), [0, 0, 1, 0])
        assert v.coords == (0, 0, 1, 0)
        assert v == unit_vector(cycle(4), 2, 3)
        assert hash(v) == hash(unit_vector(cycle(4), 2, 3))
        coords = (1, 2, 3, 4)
        assert EdgeVector(cycle(4), coords).coords is coords

    def test_mixed_graph_addition_rejected(self):
        with pytest.raises(GraphInputError):
            unit_vector(cycle(4), 1, 2) + zero_vector(path(4))
        # the same edge count: only the graph test refuses it
        paw = from_edge_list(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        with pytest.raises(GraphInputError, match="^adding edge vectors over different graphs$"):
            unit_vector(cycle(4), 1, 2) + zero_vector(paw)

    def test_non_edge_unit_rejected(self):
        with pytest.raises(GraphInputError):
            unit_vector(cycle(4), 1, 3)


class TestEdgeLk:
    @pytest.mark.parametrize("G", [cycle(5), path(4), star(5)],
                             ids=["cycle5", "path4", "star5"])
    def test_band_words_hit_units(self, G):
        n = G.vertices
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                v = edge_lk(s_word(i, j, n), G)
                if G.has_edge(i, j):
                    assert v == unit_vector(G, i, j)
                else:
                    assert v.is_zero()

    def test_inverse_negates(self):
        G = cycle(5)
        w = s_word(2, 3, 5)
        assert edge_lk(inverse(w), G) == -edge_lk(w, G)

    def test_additive_on_pure_words(self):
        G = cycle(5)
        rng = random.Random(7)
        for _ in range(60):
            u = random_pure_word(G, rng)
            v = random_pure_word(G, rng)
            assert edge_lk(concat(u, v), G) == edge_lk(u, G) + edge_lk(v, G)

    def test_braid_move_invariance(self):
        G = path(3)
        u = parse_word("1 2 1 -2 -1 -2", 3)
        assert edge_lk(u, G).is_zero()

    def test_not_pure(self):
        with pytest.raises(NotPureError):
            edge_lk(parse_word("1", 4), cycle(4))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatchError):
            edge_lk(BraidWord(5), cycle(4))


class TestPhi:
    def test_accepts_automorphism(self):
        w = psi_a_word(5)
        assert phi(w, cycle(5)) == perm_of(w)

    def test_rejects_non_automorphism(self):
        with pytest.raises(NotAutomorphismError):
            phi(parse_word("1", 3), path(3))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatchError):
            phi(BraidWord(3), cycle(4))


class TestSection:
    @pytest.mark.parametrize(
        "G",
        [cycle(4), cycle(5), cycle(6), cycle(7), cycle(8),
         path(3), path(5), star(5), complete(4)],
        ids=["cycle4", "cycle5", "cycle6", "cycle7", "cycle8",
             "path3", "path5", "star5", "complete4"],
    )
    def test_round_trips_every_automorphism(self, G):
        for g in automorphisms(G):
            w = section(g, G)
            assert perm_of(w) == g

    def test_rejects_non_automorphism(self):
        with pytest.raises(NotAutomorphismError):
            section(Permutation((2, 1, 3)), path(3))

    def test_cycle_rotation_is_psi_a(self):
        for n in range(4, 8):
            a = DihedralElement(n, 1, False)
            assert section(a.to_perm(), cycle(n)) == psi_a_word(n)

    def test_cycle_reflection_is_psi_b(self):
        for n in range(4, 8):
            b = DihedralElement(n, 0, True)
            assert section(b.to_perm(), cycle(n)) == psi_b_word(n)

    def test_identity_section_is_empty_on_non_cycle(self):
        assert section(Permutation.identity(4), path(4)) == BraidWord(4)

    def test_dihedral_section_word_projects(self):
        for n in (4, 5, 6, 7):
            for d in DihedralElement.all_elements(n):
                assert perm_of(dihedral_section_word(d)) == d.to_perm()


class TestIStar:
    def test_identity_word(self):
        G = cycle(5)
        x = i_star(BraidWord(5), G)
        assert x.vector.is_zero()
        assert x.aut.is_identity()

    def test_section_words_have_zero_vector(self):
        for G in (cycle(5), path(4), star(5)):
            for g in automorphisms(G):
                x = i_star(section(g, G), G)
                assert x.vector.is_zero()
                assert x.aut == g
                assert x.is_identity() == g.is_identity()

    def test_edge_band_word(self):
        G = cycle(4)
        x = i_star(s_word(1, 2, 4), G)
        assert x.vector == unit_vector(G, 1, 2)
        assert x.aut.is_identity()
        assert not x.is_identity()

    def test_out_of_scope(self):
        with pytest.raises(OutOfScopeError):
            i_star(BraidWord(3), complete(3))

    def test_strand_mismatch(self):
        # checked before the graph's scope
        for G in (cycle(4), complete(4)):
            with pytest.raises(StrandMismatchError):
                i_star(BraidWord(5), G)

    def test_off_a_cycle_builds_no_cycle(self):
        # the cycle test built cycle(n) for every graph it was asked about,
        # and cycle's unbounded cache kept each one
        cycle.cache_clear()
        for n in (300, 299):
            i_star(BraidWord(n), path(n))
        i_star(s_word(1, 2, 5), star(5))
        assert cycle.cache_info().currsize == 0

    def test_rejects_non_automorphism_permutation(self):
        with pytest.raises(NotAutomorphismError):
            i_star(parse_word("1", 4), path(4))

    def test_str_format(self):
        G = cycle(4)
        x = i_star(concat(s_word(1, 2, 4), psi_a_word(4)), G)
        assert str(x) == "[1,0,0,0|2,3,4,1]"

    @pytest.mark.parametrize("G", [cycle(4), cycle(7), path(5), star(5)])
    def test_matches_word_definition(self, G):
        # i_star reads C(w) - C(section(g)); rebuild it from the pure word
        # w section(g)^-1 that the definition names
        rng = random.Random(G.vertices * 31 + len(G.edges))
        n = G.vertices
        pieces = [s_word(i, j, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        pieces += [section(g, G) for g in automorphisms(G)]
        pieces += [inverse(p) for p in pieces]
        for _ in range(60):
            w = BraidWord(n)
            for _ in range(rng.randint(0, 5)):
                w = concat(w, rng.choice(pieces))
            g = perm_of(w)
            x = i_star(w, G)
            assert x.aut == g
            assert x.vector == edge_lk(concat(w, inverse(section(g, G))), G)


class TestNormalFormInBGamma:
    def test_triangle_free_is_i_star(self):
        for G in (cycle(5), path(5), star(5), path(2)):
            w = concat(s_word(1, 2, G.vertices), section(automorphisms(G)[-1], G))
            assert normal_form_in_BGamma(w, G) == i_star(w, G)

    def test_complete_is_garside(self):
        for n in (3, 4):
            w = BraidWord(n, (1, 2, -1, 2))
            assert normal_form_in_BGamma(w, complete(n)) == normal_form(w)

    def test_out_of_scope_graph(self):
        G = from_edge_list(4, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(OutOfScopeError, match="^graph has a 3-circuit but is not complete"):
            normal_form_in_BGamma(BraidWord(4), G)

    def test_strand_mismatch(self):
        for G in (cycle(4), complete(4), from_edge_list(4, [(1, 2), (2, 3), (1, 3)])):
            with pytest.raises(StrandMismatchError):
                normal_form_in_BGamma(BraidWord(5), G)


class TestEqualInBGamma:
    def test_untangling(self):
        # A transient twist over a non-edge vanishes in B(Gamma) but is a
        # genuinely nontrivial braid.
        G = cycle(5)
        w = s_word(1, 3, 5)
        assert equal_in_BGamma(w, BraidWord(5), G)
        assert not equal_in_Bn(w, BraidWord(5))

    def test_edge_twist_survives(self):
        G = cycle(5)
        assert not equal_in_BGamma(s_word(1, 2, 5), BraidWord(5), G)

    def test_different_automorphisms_differ(self):
        G = cycle(4)
        assert not equal_in_BGamma(psi_a_word(4), psi_b_word(4), G)

    def test_complete_graph_delegates(self):
        rng = random.Random(11)
        G = complete(4)
        for _ in range(40):
            u = BraidWord(4, tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                                   for _ in range(rng.randint(0, 10))))
            v = BraidWord(4, tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                                   for _ in range(rng.randint(0, 10))))
            assert equal_in_BGamma(u, v, G) == equal_in_Bn(u, v)

    def test_out_of_scope_graph(self):
        G = from_edge_list(4, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(OutOfScopeError):
            equal_in_BGamma(BraidWord(4), BraidWord(4), G)

    def test_strand_mismatch(self):
        # each word's strands are checked by normal_form_in_BGamma, the first
        # word's before the second word is looked at
        for G in (cycle(4), complete(4)):
            with pytest.raises(StrandMismatchError):
                equal_in_BGamma(BraidWord(5), BraidWord(4), G)
            with pytest.raises(StrandMismatchError):
                equal_in_BGamma(BraidWord(4), BraidWord(5), G)
        with pytest.raises(NotAutomorphismError):
            equal_in_BGamma(parse_word("1", 4), BraidWord(5), path(4))

    @pytest.mark.parametrize("G", [cycle(4), cycle(7), path(5), star(5)])
    def test_matches_word_definition(self, G):
        # equal_in_BGamma compares i_star forms; check it against the edge
        # vector of the pure word u v^-1, on pairs with equal permutations
        rng = random.Random(G.vertices * 17 + len(G.edges))
        n = G.vertices
        bands = [s_word(i, j, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        bands += [inverse(b) for b in bands]
        pieces = bands + [section(g, G) for g in automorphisms(G)]
        pieces += [inverse(p) for p in pieces]
        verdicts = []
        for _ in range(300):
            parts = [rng.choice(pieces) for _ in range(rng.randint(0, 5))]
            u = BraidWord(n, tuple(a for p in parts for a in p.letters))
            for _ in range(rng.randint(1, 2)):
                parts.insert(rng.randint(0, len(parts)), rng.choice(bands))
            v = BraidWord(n, tuple(a for p in parts for a in p.letters))
            equal = equal_in_BGamma(u, v, G)
            assert equal == edge_lk(concat(u, inverse(v)), G).is_zero()
            verdicts.append(equal)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_congruence_under_concatenation(self):
        # Multiplying two equal pure words by the same word preserves equality.
        G = cycle(5)
        u = s_word(1, 3, 5)
        lifted = concat(psi_a_word(5), u)
        assert equal_in_BGamma(lifted, psi_a_word(5), G)


class TestEdgeAction:
    """The reference action act, the pull-back (g |> v)[e] = v[g(e)] over cycle(n)."""

    def test_rotation_example(self):
        G = cycle(4)
        a = DihedralElement(4, 1, False).to_perm()
        assert act(a, unit_vector(G, 1, 2)) == unit_vector(G, 1, 4)
        assert act(a.inverse(), unit_vector(G, 1, 2)) == unit_vector(G, 2, 3)

    def test_reflection_example(self):
        G = cycle(4)
        b = DihedralElement(4, 0, True).to_perm()
        assert act(b, unit_vector(G, 1, 2)) == unit_vector(G, 1, 4)

    def test_composition(self):
        G = cycle(6)
        auts = automorphisms(G)
        rng = random.Random(3)
        for _ in range(50):
            g = rng.choice(auts)
            h = rng.choice(auts)
            v = EdgeVector(G, tuple(rng.randint(-3, 3) for _ in range(6)))
            assert act(g * h, v) == act(g, act(h, v))

    def test_linear(self):
        G = cycle(6)
        rng = random.Random(4)
        for g in automorphisms(G):
            u = EdgeVector(G, tuple(rng.randint(-3, 3) for _ in range(6)))
            v = EdgeVector(G, tuple(rng.randint(-3, 3) for _ in range(6)))
            assert act(g, u + v) == act(g, u) + act(g, v)

    def test_rejects_non_automorphism(self):
        with pytest.raises(NotAutomorphismError):
            act(Permutation((2, 1, 3, 4)), zero_vector(cycle(4)))

    def test_matches_edge_lk_conjugation(self):
        # Conjugating a pure word as lift^-1 w lift pushes the edge vector
        # forward along the lift's permutation g: the pull-back along g^-1.
        G = cycle(5)
        for g in automorphisms(G):
            lift = section(g, G)
            w = s_word(2, 3, 5)
            conj = concat(concat(inverse(lift), w), lift)
            assert edge_lk(conj, G) == act(g.inverse(), edge_lk(w, G))


class TestChromaticElement:
    def test_validation(self):
        G = cycle(4)
        with pytest.raises(NotAutomorphismError):
            ChromaticElement(zero_vector(G), Permutation((2, 1, 3, 4)))
        with pytest.raises(StrandMismatchError):
            ChromaticElement(zero_vector(G), Permutation.identity(5))

    def test_value_semantics(self):
        G = cycle(4)
        x = ChromaticElement(unit_vector(G, 1, 2), Permutation.identity(4))
        y = ChromaticElement(unit_vector(G, 1, 2), Permutation.identity(4))
        assert x == y
        assert len({x, y}) == 1


class TestLetterChecks:
    """A word's letters are checked once, when it is built: the walks behind
    the chromatic layer trust a BraidWord, and each family builds one word."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = _kernel.check_letters

        def counted(n, letters):
            calls.append(n)
            return check(n, letters)

        # BraidWord reads the name words imported, left_normal_form its own
        monkeypatch.setattr(_kernel, "check_letters", counted)
        monkeypatch.setattr(words, "check_letters", counted)
        return calls

    def test_walks_do_not_check_a_built_word(self, checks):
        G = cycle(6)
        w = concat(concat(s_word(1, 3, 6), psi_b_word(6)), inverse(psi_a_word(6)))
        pure = concat(s_word(1, 2, 6), inverse(s_word(3, 4, 6)))
        i_star(w, G)  # warms the section counts, built once per process
        del checks[:]
        i_star(w, G)
        phi(w, G)
        edge_lk(pure, G)
        crossing_matrix(w)
        assert checks == []

    def test_families_build_one_word(self, checks):
        psi_b_word(8)
        assert checks == [8]
        del checks[:]
        # three transpositions, each lifted to an e_word
        section(Permutation((1, 3, 4, 5, 2)), star(5))
        assert checks == [5]
