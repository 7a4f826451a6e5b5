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

so no word is built per pair, and to_element is i_star over cycle(n), which
reads its vector as (C(w) - a_g) / 2 on the edges.  mul and inv are one
product-table lookup per call: the table of cycle(n), built on their first
call over it, holds for each dihedral pair (g, h) the edge-index table of g
(so g |> v is a gather), the coordinates of c(g, h) and the permutation gh.
It cannot miss: an element's automorphism is checked against its graph,
_order requires cycle(n), and every automorphism of a cycle is dihedral.
compute_cocycle, and with it the table, is refused above MAX_CYCLE_ORDER,
since it holds 4n^2 vectors of n coordinates.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from ._kernel import check_strands
from .chromatic import (
    ChromaticElement,
    EdgeVector,
    dihedral_lift_counts,
    halved_counts,
    i_star,
)
from .errors import IndexRangeError, ResourceLimitError, StrandMismatchError
from .graphs import DihedralElement, cycle
from .presentations import band_table, cyclic_relations, psi_name
from .report import Report
from .words import BraidWord, psi_a_word, psi_b_word

# compute_cocycle(n) and the product table hold 4n^2 entries of n coordinates
# for every n they are built for: 2.7 MB and 0.3 s to build at n = 32 (CPython
# 3.11 on a Xeon), growing as n^3, so larger orders are refused.
MAX_CYCLE_ORDER = 32


def _pullbacks(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Per dihedral permutation g of cycle(n), keyed by its image: the index
    of the edge g(e) for each edge e in sorted order."""
    index = cycle(n).edge_index
    table = {}
    for d in DihedralElement.all_elements(n):
        g = d.to_perm()
        image = (0,) + g.image
        table[g.image] = tuple(
            index[min(image[i], image[j]), max(image[i], image[j])] for i, j in index
        )
    return table


@lru_cache(maxsize=None)
def compute_cocycle(n: int) -> Mapping[tuple[DihedralElement, DihedralElement], EdgeVector]:
    """c(g, h) = edge_lk(psi(g) psi(h) psi(gh)^-1) over all dihedral pairs,
    computed as (a_g + g |> a_h - a_gh) / 2 from the lifts' crossing counts.

    The cached table is shared by every caller, so it is returned as a
    read-only view: a write raises TypeError instead of corrupting every
    later mul and inv.  n above MAX_CYCLE_ORDER is refused before anything
    is built.
    """
    if n < 4:
        raise IndexRangeError(f"compute_cocycle needs n >= 4, got {n}")
    if n > MAX_CYCLE_ORDER:
        raise ResourceLimitError(
            f"the cocycle of cycle({n}) would hold {4 * n * n} vectors of {n}"
            f" coordinates, above the limit of n = {MAX_CYCLE_ORDER}"
        )
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


@lru_cache(maxsize=None)
def _product_table(n: int) -> tuple[dict, dict]:
    """mul's and inv's lookups over cycle(n), keyed by the permutations' images,
    built on their first call over cycle(n).

    products[g, h] = (g's edge-index table, the coordinates of c(g, h), gh)
    inverses[g] = (g^-1's edge-index table, the coordinates of c(g, g^-1), g^-1)
    """
    cocycle, pullbacks = compute_cocycle(n), _pullbacks(n)
    perm = {d: d.to_perm() for d in DihedralElement.all_elements(n)}
    products, inverses = {}, {}
    for g, pg in perm.items():
        src = pullbacks[pg.image]
        for h, ph in perm.items():
            products[pg.image, ph.image] = (src, cocycle[g, h].coords, perm[g * h])
        g_inv = g.inverse()
        inverses[pg.image] = (
            pullbacks[perm[g_inv].image], cocycle[g, g_inv].coords, perm[g_inv]
        )
    return products, inverses


def mul(x: ChromaticElement, y: ChromaticElement) -> ChromaticElement:
    src, c, gh = _product_table(_order(x, y))[0][x.aut.image, y.aut.image]
    v, w = x.vector.coords, y.vector.coords
    coords = tuple([a + w[k] + b for a, k, b in zip(v, src, c)])
    return ChromaticElement(EdgeVector(x.vector.graph, coords), gh)


def inv(x: ChromaticElement) -> ChromaticElement:
    src, c, g_inv = _product_table(_order(x))[1][x.aut.image]
    # solve (v, g)(v', g^-1) = (0, e): v' = g^-1 |> -(v + c)
    v = x.vector.coords
    coords = tuple([-(v[k] + c[k]) for k in src])
    return ChromaticElement(EdgeVector(x.vector.graph, coords), g_inv)


def to_element(w: BraidWord, n: int) -> ChromaticElement:
    """Quotient map B(C_n) -> pairs: i_star over the cycle, which checks w's strands."""
    check_strands(n)  # before n < 4 compares it
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
