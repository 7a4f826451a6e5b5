"""Graphs, automorphism search against a brute-force oracle, dihedral algebra."""

import gc
import random
import re
import weakref
from itertools import combinations, permutations

import pytest

from chromabraid import graphs
from chromabraid._kernel import MAX_STRANDS
from chromabraid.errors import AutBoundError, GraphInputError, IndexRangeError, ResourceLimitError
from chromabraid.graphs import (
    MAX_AUT_VERTICES,
    MAX_AUTOMORPHISMS,
    DihedralElement,
    _dihedral,
    SimpleGraph,
    automorphisms,
    complete,
    cycle,
    dihedral_generators,
    from_edge_list,
    is_3_circuit,
    is_automorphism,
    is_complete,
    is_triangle_free,
    path,
)
from chromabraid.words import Permutation


def star(n):
    return from_edge_list(n, [(1, k) for k in range(2, n + 1)])


def brute_force_automorphisms(G):
    """Independent oracle: filter all n! permutations by edge preservation."""
    result = []
    edges = G.edges
    for image in permutations(range(1, G.vertices + 1)):
        def f(v):
            return image[v - 1]

        if all(
            (min(f(i), f(j)), max(f(i), f(j))) in edges for i, j in edges
        ):
            result.append(Permutation(image))
    return result


class TestConstruction:
    def test_from_edge_list_normalizes(self):
        G = from_edge_list(4, [(3, 1), (1, 3), (2, 4)])
        assert G.edges == frozenset({(1, 3), (2, 4)})

    def test_loop_rejected(self):
        with pytest.raises(GraphInputError):
            from_edge_list(3, [(2, 2)])

    def test_range_rejected(self):
        with pytest.raises(GraphInputError):
            from_edge_list(3, [(1, 4)])

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, {(1, 7)}, "outside vertex range"),
            (3, {(0, 2)}, "outside vertex range"),
            (3, {(2, 2)}, "loop edge"),
            (4, {(1, 2), (2, 3), (3, 4), (4, 1)}, "smaller vertex first"),
            (-1, set(), "vertex count"),
        ],
        ids=["out_of_range", "vertex_zero", "loop", "unsorted", "negative_count"],
    )
    def test_direct_construction_validates(self, n, edges, message):
        # without the check these gave IndexError deep in
        # pure_chromatic_presentation and i_star, a generator named s2_2,
        # and a 4-cycle unequal to cycle(4)
        with pytest.raises(GraphInputError, match=message):
            SimpleGraph(n, frozenset(edges))

    @pytest.mark.parametrize(
        "edge", [(1.5, 2), (1, 2, 3)], ids=["float_vertex", "triple"]
    )
    def test_edges_must_be_integer_pairs(self, edge):
        # a float vertex was accepted, and a triple failed tuple unpacking
        # with a bare ValueError
        with pytest.raises(GraphInputError, match="not a pair of integers"):
            SimpleGraph(4, frozenset({edge}))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SimpleGraph(3, {(True, 2), (2, 3)}),
            lambda: from_edge_list(3, [(2, True), (2, 3)]),
        ],
        ids=["SimpleGraph", "from_edge_list"],
    )
    def test_bool_vertex_is_refused(self, build):
        # True equals 1: the graph equalled and hashed like path(3), but
        # edges_sorted gave (True, 2) and the pure presentation named its
        # generator sTrue_2
        with pytest.raises(GraphInputError, match=r"^edge \(True, 2\) is not a pair of integers$"):
            build()

    def test_families(self):
        assert cycle(4).edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
        assert path(3).edges == frozenset({(1, 2), (2, 3)})
        assert len(complete(5).edges) == 10
        with pytest.raises(GraphInputError):
            cycle(2)
        with pytest.raises(GraphInputError):
            path(0)
        with pytest.raises(GraphInputError):
            complete(0)

    @pytest.mark.parametrize(
        "build",
        [
            cycle,
            path,
            complete,
            lambda n: from_edge_list(n, []),
            lambda n: SimpleGraph(n, frozenset()),
        ],
        ids=["cycle", "path", "complete", "from_edge_list", "SimpleGraph"],
    )
    def test_strand_cap(self, build):
        with pytest.raises(ResourceLimitError, match=f"^{MAX_STRANDS + 1} strands exceed"):
            build(MAX_STRANDS + 1)

    def test_cap_comes_before_the_pairs(self):
        def pairs():
            raise AssertionError("the pairs were read")
            yield

        with pytest.raises(ResourceLimitError):
            from_edge_list(MAX_STRANDS + 1, pairs())

    @pytest.mark.parametrize("build", [cycle, path, complete, lambda n: SimpleGraph(n, frozenset())])
    def test_vertex_count_must_be_an_integer(self, build):
        build(4)  # cycle's cache holds 4; 4.0 equals it and must not hit it
        with pytest.raises(IndexRangeError, match="^strand count must be an integer, got 4.0$"):
            build(4.0)

    @pytest.mark.parametrize(
        "pair", [(1, 2, 3), 5, (1, "a")], ids=["triple", "not_iterable", "incomparable"]
    )
    def test_from_edge_list_refuses_a_non_pair(self, pair):
        # a bare ValueError from unpacking and TypeErrors from iterating
        # and comparing, before the pair reached SimpleGraph's check
        with pytest.raises(GraphInputError, match=rf"^edge {re.escape(repr(pair))} is not a pair of integers$"):
            from_edge_list(3, [(1, 2), pair])

    def test_families_at_the_cap(self):
        assert len(cycle(MAX_STRANDS).edges) == MAX_STRANDS
        assert len(path(MAX_STRANDS).edges) == MAX_STRANDS - 1

    def test_edges_sorted(self):
        assert cycle(5).edges_sorted() == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))

    def test_degree_neighbors(self):
        G = star(5)
        assert G.degree(1) == 4
        assert G.degree(3) == 1
        assert G.neighbors(1) == {2, 3, 4, 5}


class TestPredicates:
    def test_is_complete(self):
        assert is_complete(complete(4))
        assert not is_complete(cycle(4))
        assert is_complete(complete(1))

    def test_is_3_circuit(self):
        G = from_edge_list(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
        assert is_3_circuit(G, 1, 2, 3)
        assert is_3_circuit(G, 3, 1, 2)
        assert not is_3_circuit(G, 1, 3, 4)
        with pytest.raises(GraphInputError):
            is_3_circuit(G, 1, 1, 2)
        with pytest.raises(GraphInputError):
            is_3_circuit(G, 1, 2, 9)
        # 2.5 lies between valid vertices and equals none of them
        with pytest.raises(GraphInputError, match=r"^vertex 2.5 is not an integer in 1..4$"):
            is_3_circuit(cycle(4), 1, 2, 2.5)

    def test_is_triangle_free(self):
        assert is_triangle_free(cycle(4))
        assert is_triangle_free(path(6))
        assert is_triangle_free(star(5))
        assert not is_triangle_free(complete(3))
        assert not is_triangle_free(cycle(3))
        assert is_triangle_free(complete(2))


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "G",
        [cycle(4), cycle(5), cycle(6), path(4), path(2), star(5), complete(4)],
        ids=["cycle4", "cycle5", "cycle6", "path4", "path2", "star5", "complete4"],
    )
    def test_matches_brute_force(self, G):
        expected = sorted(brute_force_automorphisms(G), key=lambda g: g.image)
        assert automorphisms(G) == expected

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 6)
            pairs = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if rng.random() < 0.4
            ]
            G = from_edge_list(n, pairs)
            assert automorphisms(G) == sorted(
                brute_force_automorphisms(G), key=lambda g: g.image
            )

    def test_counts(self):
        assert len(automorphisms(cycle(7))) == 14
        assert len(automorphisms(path(5))) == 2
        assert len(automorphisms(star(5))) == 24
        assert len(automorphisms(complete(5))) == 120

    def test_sorted_output(self):
        auts = automorphisms(cycle(4))
        assert [g.image for g in auts] == sorted(g.image for g in auts)

    def test_bound(self):
        # answered at the bound, refused one vertex above it
        assert MAX_AUT_VERTICES == 10
        assert len(automorphisms(cycle(10))) == 20
        assert len(automorphisms(path(10))) == 2
        for G in (path(11), complete(11)):
            with pytest.raises(AutBoundError, match="^automorphism search on 11 vertices exceeds bound 10$"):
                automorphisms(G)

    def test_output_bound(self, monkeypatch):
        # complete(8) has 8! automorphisms, the bound itself; complete(9) is
        # refused when the search finds one more, not after all 9!
        assert MAX_AUTOMORPHISMS == 40320
        assert len(automorphisms(complete(8))) == MAX_AUTOMORPHISMS
        built = []

        def counted(image):
            built.append(image)
            return Permutation(image)

        monkeypatch.setattr(graphs, "Permutation", counted)
        with pytest.raises(AutBoundError, match="^automorphism search on 9 vertices found more than 40320$"):
            automorphisms(complete(9))
        assert len(built) == MAX_AUTOMORPHISMS

    def test_graph_data_lives_on_the_graph(self):
        G = from_edge_list(6, [(1, 2), (2, 3), (4, 6)])
        index = G.edge_index
        assert index == {(1, 2): 0, (2, 3): 1, (4, 6): 2}
        assert G.edge_index is index  # built once
        assert G.edges_sorted() == ((1, 2), (2, 3), (4, 6))
        assert is_triangle_free(G)
        # no cache outside the graph keeps it alive
        ref = weakref.ref(G)
        del G, index
        gc.collect()
        assert ref() is None

    def test_equal_graphs_built_apart_agree(self):
        edges = list(combinations(range(1, 7), 2))
        for k in range(0, 2**15, 97):
            pairs = [e for b, e in enumerate(edges) if k >> b & 1]
            G, H = from_edge_list(6, pairs), from_edge_list(6, reversed(pairs))
            assert G is not H and G == H
            assert G.edge_index == H.edge_index
            assert is_triangle_free(G) == is_triangle_free(H)
            triangles = (t for t in combinations(range(1, 7), 3) if is_3_circuit(G, *t))
            assert is_triangle_free(G) == (next(triangles, None) is None)

    def test_is_automorphism_agrees(self):
        G = path(4)
        members = set(g.image for g in brute_force_automorphisms(G))
        for image in permutations(range(1, 5)):
            assert is_automorphism(G, Permutation(image)) == (image in members)

    def test_is_automorphism_size_mismatch(self):
        assert not is_automorphism(path(4), Permutation((1, 2, 3)))


class TestDihedral:
    def test_generator_permutations(self):
        a, b = dihedral_generators(4)
        assert a.image == (2, 3, 4, 1)
        assert b.image == (1, 4, 3, 2)

    def test_generators_are_cycle_automorphisms(self):
        for n in range(3, 10):
            a, b = dihedral_generators(n)
            assert is_automorphism(cycle(n), a)
            assert is_automorphism(cycle(n), b)

    def test_defining_relations_as_permutations(self):
        for n in range(3, 10):
            a, b = dihedral_generators(n)
            an = Permutation.identity(n)
            for _ in range(n):
                an = an * a
            assert an.is_identity()
            assert (b * b).is_identity()
            assert b * a * b == a.inverse()

    def test_element_multiplication_matches_permutations(self):
        for n in range(3, 10):
            elements = DihedralElement.all_elements(n)
            assert len(elements) == 2 * n
            for x in elements:
                for y in elements:
                    assert (x * y).to_perm() == x.to_perm() * y.to_perm()

    def test_inverse(self):
        for n in (4, 5, 7):
            for x in DihedralElement.all_elements(n):
                assert (x * x.inverse()).is_identity()
                assert (x.inverse() * x).is_identity()

    def test_from_perm_round_trip(self):
        for n in range(3, 9):
            for x in DihedralElement.all_elements(n):
                assert DihedralElement.from_perm(n, x.to_perm()) == x

    def test_from_perm_rejects_non_dihedral(self):
        with pytest.raises(IndexRangeError):
            DihedralElement.from_perm(4, Permutation((2, 1, 3, 4)))

    def test_generators_realize_all_cycle_automorphisms(self):
        for n in range(3, 9):
            perms = {x.to_perm().image for x in DihedralElement.all_elements(n)}
            assert perms == {g.image for g in automorphisms(cycle(n))}

    def test_strand_cap(self):
        # refused before the 2n permutations of n points are tabulated
        with pytest.raises(ResourceLimitError, match=f"^{MAX_STRANDS + 1} strands exceed"):
            dihedral_generators(MAX_STRANDS + 1)
        with pytest.raises(ResourceLimitError):
            DihedralElement(MAX_STRANDS + 1, 0, False).to_perm()
        with pytest.raises(ResourceLimitError):
            DihedralElement.from_perm(MAX_STRANDS + 1, Permutation.identity(MAX_STRANDS + 1))

    def test_to_perm_at_the_cap(self):
        n = MAX_STRANDS
        try:
            g = DihedralElement(n, 1, True).to_perm()
            assert g.image == tuple(range(n, 0, -1))  # a b reverses 1..n
        finally:
            _dihedral.cache_clear()  # 2n permutations of n points

    def test_validation(self):
        with pytest.raises(IndexRangeError):
            DihedralElement(4, 5, False)
        with pytest.raises(IndexRangeError):
            DihedralElement(4, 4, False)
        with pytest.raises(IndexRangeError):
            DihedralElement(2, 0, False)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((4.0, 1, False), "dihedral group needs an integer n >= 3, got 4.0"),
            ((4, 1.0, False), "rotation 1.0 not an integer reduced mod 4"),
            ((4, 1, 1.0), "reflected must be a bool, got 1.0"),
        ],
        ids=["order", "rotation", "reflected"],
    )
    def test_fields_must_be_integers(self, fields, message):
        # each equals a valid value; to_perm raised TypeError on the float index
        with pytest.raises(IndexRangeError, match=f"^{message}$"):
            DihedralElement(*fields)


class TestHashing:
    def test_graphs_are_value_types(self):
        assert cycle(4) == from_edge_list(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert len({cycle(4), cycle(4), path(4)}) == 2

    def test_simple_graph_direct_construction(self):
        G = SimpleGraph(3, frozenset({(1, 2)}))
        assert G.has_edge(2, 1)
        assert not G.has_edge(1, 3)

    @pytest.mark.parametrize("edges", [{(1, 2)}, [(1, 2)], ((1, 2),), iter([(1, 2)])],
                             ids=["set", "list", "tuple", "iterator"])
    def test_edges_are_stored_as_a_frozenset(self, edges):
        # a set or list was stored as given: the graph did not hash, and
        # is_triangle_free raised TypeError from its cache
        G = SimpleGraph(3, edges)
        assert G.edges == frozenset({(1, 2)})
        assert type(G.edges) is frozenset
        assert hash(G) == hash(from_edge_list(3, [(1, 2)]))
        assert is_triangle_free(G)

    def test_empty_vertex_set(self):
        G = SimpleGraph(0, frozenset())
        assert G == from_edge_list(0, [])
        assert G.edges_sorted() == ()
        assert is_triangle_free(G)

    def test_frozen_edges_are_kept(self):
        edges = frozenset({(1, 2), (2, 3)})
        assert SimpleGraph(3, edges).edges is edges
