"""The cycle-conditioned braid group as an explicit twisted product.

B(C_n) sits in a split short exact sequence between the free abelian pure
part Z^n (edge vectors over the cycle) and the dihedral automorphism group
of the cycle.  An element is the pair (edge vector, automorphism) that
chromatic.i_star returns, a ChromaticElement over cycle(n); multiplication
twists by the dihedral edge action and a 2-cocycle measured from the
distinguished section psi(a^k b^e) = psi(a)^k psi(b)^e:

    (v1, g1)(v2, g2) = (v1 + g1 |> v2 + c(g1, g2), g1 g2)

where g1 |> v is the pull-back edge_action(g1^-1, v) and c(g, h) is the
edge vector of psi(g) psi(h) psi(gh)^-1.  The action direction is locked
by the homomorphism property to_element(u w) = to_element(u) to_element(w),
which the test suite checks over random admissible words.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .chromatic import (
    ChromaticElement,
    EdgeVector,
    dihedral_section_word,
    edge_action,
    edge_lk,
    equal_in_BGamma,
    i_star,
)
from .errors import IndexRangeError, StrandMismatchError
from .graphs import DihedralElement, cycle
from .presentations import cyclic_relations, edge_generator_name, substitute
from .report import CheckLine, Report
from .words import (
    BraidWord,
    Permutation,
    concat,
    inverse,
    psi_a_word,
    psi_b_word,
    s_word,
)


def _act(g: Permutation, v: EdgeVector) -> EdgeVector:
    # the twisting action g |> v: pull-back along g
    return edge_action(g.inverse(), v)


@lru_cache(maxsize=None)
def compute_cocycle(n: int) -> Mapping[tuple[DihedralElement, DihedralElement], EdgeVector]:
    """c(g, h) = edge_lk(psi(g) psi(h) psi(gh)^-1) over all dihedral pairs.

    The cached table is shared by every caller, so it is returned as a
    read-only view: a write raises TypeError instead of corrupting every
    later mul and inv.
    """
    if n < 4:
        raise IndexRangeError(f"compute_cocycle needs n >= 4, got {n}")
    G = cycle(n)
    elements = DihedralElement.all_elements(n)
    lifts = {d: dihedral_section_word(d) for d in elements}
    table = {}
    for g in elements:
        for h in elements:
            w = concat(concat(lifts[g], lifts[h]), inverse(lifts[g * h]))
            table[g, h] = edge_lk(w, G)
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
    identity in B(C_n), via equal_in_BGamma over the cycle graph.

    Both sides of each equation of cyclic_relations are substituted by
    braid words: R1, the commutators of edge generators; R2, the
    conjugation table for psi(a) and psi(b) across every edge; R3, the
    three lifted relators with their parity branches.  Failures become FAIL
    lines, not exceptions.
    """
    if not 4 <= n <= 12:
        raise IndexRangeError(f"verify_final_proposition needs 4 <= n <= 12, got {n}")
    G = cycle(n)
    table = {edge_generator_name(i, j): s_word(i, j, n) for i, j in G.edges_sorted()}
    table["psi_a"] = psi_a_word(n)
    table["psi_b"] = psi_b_word(n)
    lines = []
    for check_id, *sides in cyclic_relations(n):
        lhs, rhs = (substitute(side, table, n) for side in sides)
        shown = (str(to_element(lhs, n)), str(to_element(rhs, n)))
        lines.append(CheckLine(check_id, equal_in_BGamma(lhs, rhs, G), *shown))
    return Report(tuple(lines))
