"""Structural checks on normal forms, transpositions, the reference
enumeration of Markoff's presentation, the reference edge action and word
powers, which the package itself does not need, shared by the test
modules."""

from itertools import combinations

from chromabraid.chromatic import EdgeVector
from chromabraid.errors import IndexRangeError, NotAutomorphismError
from chromabraid.garside import NormalForm
from chromabraid.graphs import is_automorphism
from chromabraid.presentations import (
    Presentation,
    commutator,
    edge_generator_name,
    equation_relator,
)
from chromabraid.words import BraidWord, Permutation, inverse


def power(w: BraidWord, e: int) -> BraidWord:
    """w^e as |e| copies of w, or of w^-1 when e is negative."""
    if type(e) is not int:
        raise IndexRangeError(f"power needs an integer exponent, got {e!r}")
    base = w if e >= 0 else inverse(w)
    return BraidWord(w.strands, base.letters * abs(e))


def half_twist_perm(n: int) -> Permutation:
    """Permutation of the positive half twist: i -> n + 1 - i."""
    return Permutation(tuple(range(n, 0, -1)))


def transposition(n: int, i: int, j: int) -> Permutation:
    """The permutation of 1..n that swaps i and j."""
    image = list(range(1, n + 1))
    image[i - 1], image[j - 1] = j, i
    return Permutation(tuple(image))


def starting_set(g: Permutation) -> frozenset[int]:
    """Generators sigma_i that are prefixes of the permutation braid of g:
    exactly the descents g(i) > g(i+1)."""
    return frozenset(
        i for i in range(1, g.size) if g.apply(i) > g.apply(i + 1)
    )


def finishing_set(g: Permutation) -> frozenset[int]:
    """Generators sigma_i that are suffixes of the permutation braid of g:
    the descents of g^-1."""
    return starting_set(g.inverse())


def is_left_weighted(nf: NormalForm) -> bool:
    """Proper factors (neither identity nor Delta), adjacent pairs left
    weighted."""
    half_twist = half_twist_perm(nf.strands)
    for f in nf.factors:
        if f.is_identity() or f == half_twist:
            return False
    return all(
        starting_set(nf.factors[t + 1]) <= finishing_set(nf.factors[t])
        for t in range(len(nf.factors) - 1)
    )


def markoff_reference(n: int) -> Presentation:
    """Markoff's presentation of the pure braid group on n strands, built from
    its three relation families directly (A. A. Markoff, "Foundations of the
    algebraic theory of tresses", 1945), without any graph:
      (1) [s_{i,j}, s_{k,l}] for i<j<k<l and for i<k<l<j,
      (2) s_{i,j} s_{i,k} s_{j,k} = s_{i,k} s_{j,k} s_{i,j}
                                  = s_{j,k} s_{i,j} s_{i,k} for i<j<k,
      (3) s_{i,k} s_{j,k} s_{j,l} s_{j,k}^-1
            = s_{j,k} s_{j,l} s_{j,k}^-1 s_{i,k} for i<j<k<l.
    Relators come family by family, each family in the lexicographic order
    of its vertex tuples; a commutator is written smaller name first and a
    three-way equality as its two consecutive equations."""
    vertices = range(1, n + 1)

    def band(i, j, e=1):
        return (edge_generator_name(i, j), e)

    def comm(x, y):
        return commutator(min(x, y), max(x, y))

    relators = []
    for a, b, c, d in combinations(vertices, 4):
        relators.append(comm(edge_generator_name(a, b), edge_generator_name(c, d)))
        relators.append(comm(edge_generator_name(a, d), edge_generator_name(b, c)))
    for i, j, k in combinations(vertices, 3):
        w1 = (band(i, j), band(i, k), band(j, k))
        w2 = (band(i, k), band(j, k), band(i, j))
        w3 = (band(j, k), band(i, j), band(i, k))
        relators += [equation_relator(w1, w2), equation_relator(w2, w3)]
    for i, j, k, l in combinations(vertices, 4):
        lhs = (band(i, k), band(j, k), band(j, l), band(j, k, -1))
        rhs = (band(j, k), band(j, l), band(j, k, -1), band(i, k))
        relators.append(equation_relator(lhs, rhs))
    gens = tuple(edge_generator_name(i, j) for i, j in combinations(vertices, 2))
    return Presentation(gens, tuple(relators))


def act(g: Permutation, v: EdgeVector) -> EdgeVector:
    """The twisting action g |> v of the extension layer, read edge by edge:
    the pull-back (g |> v)[e] = v[g(e)] along an automorphism g of v's graph.
    The reference that extension.mul and inv are checked against."""
    G = v.graph
    if not is_automorphism(G, g):
        raise NotAutomorphismError(f"{g.one_line()} is not an automorphism of the graph")
    edges = G.edges_sorted()
    index = {e: k for k, e in enumerate(edges)}
    image = (0,) + g.image
    return EdgeVector(
        G, tuple(v.coords[index[tuple(sorted((image[i], image[j])))]] for i, j in edges)
    )
