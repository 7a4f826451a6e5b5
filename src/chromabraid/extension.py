"""The cycle-conditioned braid group as an explicit twisted product.

B(C_n) sits in a split short exact sequence between the free abelian pure
part Z^n (edge vectors over the cycle) and the dihedral automorphism group
of the cycle.  An element is the pair (edge vector, automorphism) that
chromatic.i_star returns, a ChromaticElement over cycle(n); multiplication
twists by the dihedral edge action and a 2-cocycle measured from the
distinguished section psi(a^k b^e) = psi(a)^k psi(b)^e:

    (v1, g1)(v2, g2) = (v1 + g1 |> v2 + c(g1, g2), g1 g2)

where g1 |> v is the pull-back (g1 |> v)[e] = v[g1(e)] and c(g, h) is the
edge vector of psi(g) psi(h) psi(gh)^-1.  The action direction is locked
by the homomorphism property to_element(u w) = to_element(u) to_element(w),
which the test suite checks over random admissible words.

Everything here is table lookups per n, by the additivity of crossing
counts C(uv)[p][q] = C(u)[p][q] + C(v)[g(p)][g(q)] with g = perm(u)
(words.CrossingMatrix).  With a_d the edge entries of C(psi(d))
(chromatic.dihedral_lift_counts), and relabelling by an automorphism g
acting on edge entries as g |> -,

    c(g, h) = (a_g + g |> a_h - a_gh) / 2,

so no word is built per pair; to_element is i_star over cycle(n), which
reads its vector as (C(w) - a_g) / 2 on the edges; and g |> v is a gather
through the edge-index table of g.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .chromatic import (
    ChromaticElement,
    EdgeVector,
    dihedral_lift_counts,
    halved_counts,
    i_star,
)
from .errors import IndexRangeError, NotAutomorphismError, StrandMismatchError
from .graphs import DihedralElement, cycle
from .presentations import band_table, cyclic_relations, psi_name
from .report import Report
from .words import BraidWord, Permutation, psi_a_word, psi_b_word


@lru_cache(maxsize=None)
def _pullbacks(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Per dihedral permutation g of cycle(n), keyed by its image: the index
    of the edge g(e) for each edge e in sorted order."""
    edges = cycle(n).edges_sorted()
    index = {e: k for k, e in enumerate(edges)}
    table = {}
    for d in DihedralElement.all_elements(n):
        g = d.to_perm()
        image = (0,) + g.image
        table[g.image] = tuple(
            index[min(image[i], image[j]), max(image[i], image[j])] for i, j in edges
        )
    return table


def _act(g: Permutation, v: EdgeVector) -> EdgeVector:
    """The twisting action g |> v over cycle(n): pull-back along g."""
    src = _pullbacks(v.graph.vertices).get(g.image)
    if src is None:
        raise NotAutomorphismError(
            f"permutation {g.one_line()} is not an automorphism of the graph"
        )
    coords = v.coords
    return EdgeVector(v.graph, tuple(coords[k] for k in src))


@lru_cache(maxsize=None)
def compute_cocycle(n: int) -> Mapping[tuple[DihedralElement, DihedralElement], EdgeVector]:
    """c(g, h) = edge_lk(psi(g) psi(h) psi(gh)^-1) over all dihedral pairs,
    computed as (a_g + g |> a_h - a_gh) / 2 from the lifts' crossing counts.

    The cached table is shared by every caller, so it is returned as a
    read-only view: a write raises TypeError instead of corrupting every
    later mul and inv.
    """
    if n < 4:
        raise IndexRangeError(f"compute_cocycle needs n >= 4, got {n}")
    G = cycle(n)
    elements = DihedralElement.all_elements(n)
    lifts = {d: dihedral_lift_counts(d) for d in elements}
    pullbacks = _pullbacks(n)
    table = {}
    for g in elements:
        a_g, src = lifts[g], pullbacks[g.to_perm().image]
        for h in elements:
            a_h, a_gh = lifts[h], lifts[g * h]
            table[g, h] = halved_counts(
                G, (a_g[k] + a_h[s] - a_gh[k] for k, s in enumerate(src))
            )
    return MappingProxyType(table)


def _order(*xs: ChromaticElement) -> int:
    """The n of operands that are all elements over the one cycle C_n."""
    n = xs[0].aut.size
    G = cycle(n) if n >= 3 else None  # no cycle graph on fewer vertices
    if any(x.vector.graph != G for x in xs):
        raise StrandMismatchError("operands are not elements over one cycle graph")
    return n


def mul(x: ChromaticElement, y: ChromaticElement) -> ChromaticElement:
    n = _order(x, y)
    g, h = DihedralElement.from_perm(n, x.aut), DihedralElement.from_perm(n, y.aut)
    c = compute_cocycle(n)[g, h]
    return ChromaticElement(x.vector + _act(x.aut, y.vector) + c, x.aut * y.aut)


def inv(x: ChromaticElement) -> ChromaticElement:
    n = _order(x)
    g = DihedralElement.from_perm(n, x.aut)
    c = compute_cocycle(n)[g, g.inverse()]
    # solve (v, g)(v', g^-1) = (0, e): v + g |> v' + c = 0
    g_inv = x.aut.inverse()
    return ChromaticElement(_act(g_inv, -(x.vector + c)), g_inv)


def to_element(w: BraidWord, n: int) -> ChromaticElement:
    """Quotient map B(C_n) -> pairs: the normal form i_star over the cycle."""
    if w.strands != n:
        raise StrandMismatchError(f"word on {w.strands} strands, expected {n}")
    if n < 4:
        raise IndexRangeError(f"to_element needs n >= 4, got {n}")
    return i_star(w, cycle(n))


def verify_final_proposition(n: int) -> Report:
    """Check every defining relation of cyclic_braid_presentation(n) as a word
    identity in B(C_n): both sides' normal forms (to_element) must agree.

    Both sides of each equation of cyclic_relations are substituted by
    braid words: R1, the commutators of edge generators; R2, the
    conjugation table for psi(a) and psi(b) across every edge; R3, the
    three lifted relators with their parity branches.  Failures become FAIL
    lines, not exceptions.
    """
    if not 4 <= n <= 12:
        raise IndexRangeError(f"verify_final_proposition needs 4 <= n <= 12, got {n}")
    table = band_table(cycle(n).edges, n)
    table[psi_name("a")], table[psi_name("b")] = psi_a_word(n), psi_b_word(n)
    return Report.substituting(cyclic_relations(n), table, n, lambda w: to_element(w, n))
