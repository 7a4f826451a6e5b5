"""Abelianized invariants of graph-conditioned braid groups.

A simple graph G on the strand positions conditions the braid group: two
strands may cross only transiently unless their start positions form an
edge, where a residual full twist is allowed to survive.  Concretely the
pure part P(G) of the conditioned group B(G) is free abelian on the edge
set, an element being the vector of halved crossing counts over the edges
(edge_lk).  The full group splits as P(G) -> B(G) -> Aut(G): phi reads the
underlying permutation, section lifts an automorphism to a distinguished
word, and i_star combines both into the normal form (edge vector,
automorphism) that classifies elements.  On a complete G, B(G) = B_n and
the normal form is the left-weighted one.  normal_form_in_BGamma picks the
form by graph class, and equality in B(G) is equality of forms.

Crossing counts are additive along a word once the second factor is
relabelled through the permutation of the first,

    C(uv)[p][q] = C(u)[p][q] + C(v)[g(p)][g(q)],   g = perm(u)

(see words.CrossingMatrix), and C(s^-1)[p][q] = -C(s)[h(p)][h(q)] with
h = perm(s)^-1.  For a section word s of g = perm(w) the two relabellings
cancel, so

    C(w section(g)^-1) = C(w) - C(section(g))

and i_star reads the edge vector from the halved edge entries of that
difference, with no pure word built.  One strand walk over w (the kernel's
strand_walk) gives both C(w) and the end positions that phi turns into the
checked automorphism g; edge_lk reads its purity test and its counts from
one walk the same way.  On a cycle graph the section's counts come from
dihedral_lift_counts, cached per dihedral element.  Nothing here checks
letters: each BraidWord did when built, and a section is built as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._kernel import crossing_counts, strand_walk
from .errors import (
    GraphInputError,
    NotAutomorphismError,
    NotPureError,
    OutOfScopeError,
    StrandMismatchError,
)
from .garside import NormalForm, normal_form
from .graphs import (
    DihedralElement,
    SimpleGraph,
    cycle,
    is_automorphism,
    is_complete,
    is_triangle_free,
)
from .words import BraidWord, Permutation, e_letters, psi_a_word, psi_b_word


@dataclass(frozen=True)
class EdgeVector:
    """Integer vector indexed by the sorted edge list of its graph; the
    coordinates are stored as a tuple, whatever sequence they came in."""

    graph: SimpleGraph
    coords: tuple[int, ...]

    def __post_init__(self):
        if type(self.coords) is not tuple:  # the hot paths pass tuples and skip the copy
            object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != len(self.graph.edges):
            raise GraphInputError(
                f"vector length {len(self.coords)} != edge count {len(self.graph.edges)}"
            )

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: EdgeVector) -> EdgeVector:
        if other.graph != self.graph:
            raise GraphInputError("adding edge vectors over different graphs")
        return EdgeVector(self.graph, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> EdgeVector:
        return EdgeVector(self.graph, tuple(-a for a in self.coords))

    def __sub__(self, other: EdgeVector) -> EdgeVector:
        return self + (-other)

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coords) + "]"


def zero_vector(G: SimpleGraph) -> EdgeVector:
    return EdgeVector(G, (0,) * len(G.edges))


def unit_vector(G: SimpleGraph, i: int, j: int) -> EdgeVector:
    idx = G.edge_index.get((min(i, j), max(i, j)))
    if idx is None:
        raise GraphInputError(f"({i}, {j}) is not an edge of the graph")
    coords = [0] * len(G.edges)
    coords[idx] = 1
    return EdgeVector(G, tuple(coords))


@dataclass(frozen=True)
class ChromaticElement:
    """Normal form of an element of B(G): edge vector plus automorphism."""

    vector: EdgeVector
    aut: Permutation

    def __post_init__(self):
        if self.aut.size != self.vector.graph.vertices:
            raise StrandMismatchError("automorphism size != graph vertex count")
        if not is_automorphism(self.vector.graph, self.aut):
            raise NotAutomorphismError(
                f"{self.aut.one_line()} is not an automorphism of the graph"
            )

    def is_identity(self) -> bool:
        return self.vector.is_zero() and self.aut.is_identity()

    def __str__(self) -> str:
        coords = ",".join(str(c) for c in self.vector.coords)
        image = ",".join(str(v) for v in self.aut.image)
        return f"[{coords}|{image}]"


def _check_strands(w: BraidWord, G: SimpleGraph):
    if w.strands != G.vertices:
        raise StrandMismatchError(
            f"word on {w.strands} strands against graph on {G.vertices} vertices"
        )


def edge_lk(w: BraidWord, G: SimpleGraph) -> EdgeVector:
    """Halved crossing counts of a pure word, restricted to the edges of G.

    Pure words cross every pair of strands an even number of times, so the
    halves are integers; they are invariant under braid relations and under
    removing transient (non-edge) twists, which makes the vector a complete
    abelian invariant of the pure conditioned group.  One strand walk gives
    both the purity test and the counts.
    """
    _check_strands(w, G)
    m, ends = strand_walk(w)
    if ends != list(range(w.strands)):
        raise NotPureError("edge_lk needs a pure word")
    return halved_counts(G, (m[i - 1][j - 1] for i, j in G.edges_sorted()))


def halved_counts(G: SimpleGraph, counts) -> EdgeVector:
    """The edge vector of the crossing counts of a pure word, one per edge of G
    in sorted order; a pure word crosses each pair an even number of times."""
    coords = []
    for c in counts:
        if c % 2:
            raise AssertionError("odd crossing count on a pure word")
        coords.append(c // 2)
    return EdgeVector(G, tuple(coords))


def phi(w: BraidWord, G: SimpleGraph, ends=None) -> Permutation:
    """Underlying permutation, verified to be a graph automorphism.

    ends[p] is the end position of strand p, 0-based, as the kernel's
    strand_walk over w returns it; a caller that walked w already passes it,
    and otherwise phi walks w itself.
    """
    _check_strands(w, G)
    if ends is None:
        ends = strand_walk(w)[1]
    g = Permutation([p + 1 for p in ends])
    if not is_automorphism(G, g):
        raise NotAutomorphismError(
            f"permutation {g.one_line()} is not an automorphism of the graph"
        )
    return g


def dihedral_section_word(d: DihedralElement) -> BraidWord:
    """Distinguished lift psi(a)^k psi(b)^e of a dihedral element, n >= 4."""
    n = d.order
    letters = psi_a_word(n).letters * d.rotation
    if d.reflected:
        letters += psi_b_word(n).letters
    return BraidWord(n, letters)


@lru_cache(maxsize=None)
def dihedral_lift_counts(d: DihedralElement) -> tuple[int, ...]:
    """Crossing counts of dihedral_section_word(d) on the edges of cycle(n),
    in sorted edge order; cached per element, so bounded by the 2n per n."""
    n = d.order
    m = crossing_counts(dihedral_section_word(d))
    return tuple(m[i - 1][j - 1] for i, j in cycle(n).edges_sorted())


def _is_cycle(G: SimpleGraph) -> bool:
    n = G.vertices
    # the edge count first, so cycle(n) is built and cached only for a likely cycle
    return n >= 4 and len(G.edges) == n and G.edges == cycle(n).edges


def section(g: Permutation, G: SimpleGraph) -> BraidWord:
    """A word whose permutation is g, chosen canonically per graph.

    On a cycle graph with n >= 4 the dihedral lift psi(a)^k psi(b)^e is
    used, so sections compose predictably with the extension layer; on any
    other graph g is decomposed into transpositions by selection sort and
    each transposition (p v) is lifted to e_word(p, v).
    """
    if not is_automorphism(G, g):
        raise NotAutomorphismError(
            f"permutation {g.one_line()} is not an automorphism of the graph"
        )
    n = G.vertices
    if _is_cycle(G):
        return dihedral_section_word(DihedralElement.from_perm(n, g))
    work = list(g.image)
    letters = []
    for p in range(1, n + 1):
        if work[p - 1] == p:
            continue
        v = work.index(p, p - 1) + 1
        work[v - 1] = work[p - 1]
        letters += e_letters(p, v)
    return BraidWord(n, letters)


def i_star(w: BraidWord, G: SimpleGraph) -> ChromaticElement:
    """Normal form (edge vector, automorphism) of a word in B(G), from one
    strand walk over w."""
    _check_strands(w, G)
    if not is_triangle_free(G):
        raise OutOfScopeError("i_star needs a triangle-free graph")
    n = G.vertices
    m, ends = strand_walk(w)
    g = phi(w, G, ends)
    edges = G.edge_index
    if _is_cycle(G):
        lift = dihedral_lift_counts(DihedralElement.from_perm(n, g))
    else:
        s = crossing_counts(section(g, G))
        lift = tuple(s[i - 1][j - 1] for i, j in edges)
    # C(w section(g)^-1) = C(w) - C(section(g)), see the module docstring
    counts = (m[i - 1][j - 1] - c for (i, j), c in zip(edges, lift))
    return ChromaticElement(halved_counts(G, counts), g)


def normal_form_in_BGamma(w: BraidWord, G: SimpleGraph) -> ChromaticElement | NormalForm:
    """Normal form of w in the graph-conditioned braid group B(G).

    Triangle-free G: B(G) is the split extension of Aut(G) by the free
    abelian group Z^E(G), and the form is i_star(w, G), the pair (edge
    vector, automorphism).  Complete G: the conditioning is vacuous,
    B(G) = B_n, and the form is the left-weighted normal form.  Any other
    graph (a 3-circuit plus a non-edge) is outside the decidable fragment
    handled here and raises OutOfScopeError.  This is the one place that
    chooses by graph class.
    """
    if is_triangle_free(G):
        return i_star(w, G)  # which checks the strands first
    _check_strands(w, G)
    if is_complete(G):
        return normal_form(w)
    raise OutOfScopeError(
        "graph has a 3-circuit but is not complete; equality is not decided here"
    )


def equal_in_BGamma(u: BraidWord, v: BraidWord, G: SimpleGraph) -> bool:
    """Word problem in B(G): u and v are equal iff their normal forms
    (normal_form_in_BGamma) are; raises OutOfScopeError where that does."""
    return normal_form_in_BGamma(u, G) == normal_form_in_BGamma(v, G)
