"""Finite presentations: the classical braid presentations, the band-generator
presentation, its graph-conditioned quotient, and the cycle-conditioned group,
a split extension with the edge lattice as kernel and dihedral quotient.

A relator is a tuple of (generator name, +-1) tokens, always kept freely
reduced; a presentation is a generator tuple plus a relator tuple.  One
synthesizer builds every pure presentation: pure_chromatic_presentation
instantiates five schemas over the conditioning graph, each instance emitted
once, and markoff_presentation(n) is its complete-graph case, where the five
schemas reduce to Markoff's three relation families.  The test suite keeps an
independent enumeration of those families as the reference for K_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._kernel import check_strands
from .errors import IndexRangeError, ParseError
from .graphs import SimpleGraph, complete, cycle, dihedral_generators
from .words import BraidWord, psi_r, psi_s, s_word

Token = tuple[str, int]
Relator = tuple[Token, ...]


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Relator, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ParseError("duplicate generator names")
        names = set(self.generators)
        for rel in self.relators:
            for name, exp in rel:
                if name not in names:
                    raise ParseError(f"relator uses unknown generator {name!r}")
                if exp not in (-1, 1):
                    raise IndexRangeError(f"token exponent must be +-1, got {exp}")


def free_reduce_relator(rel) -> Relator:
    stack: list[Token] = []
    for name, exp in rel:
        if stack and stack[-1] == (name, -exp):
            stack.pop()
        else:
            stack.append((name, exp))
    return tuple(stack)


def relator_inverse(rel) -> Relator:
    return tuple((name, -exp) for name, exp in reversed(rel))


def commutator(x: str, y: str) -> Relator:
    return ((x, 1), (y, 1), (x, -1), (y, -1))


def equation_relator(lhs, rhs) -> Relator:
    """Relator of the equation lhs = rhs, freely reduced."""
    return free_reduce_relator(tuple(lhs) + relator_inverse(tuple(rhs)))


def cyclic_canonical(rel) -> Relator:
    """Free reduction followed by the lexicographically least rotation."""
    rel = free_reduce_relator(rel)
    if not rel:
        return rel
    return min(rel[i:] + rel[:i] for i in range(len(rel)))


def equivalent_presentations(p: Presentation, q: Presentation) -> bool:
    """Same generator set, same relator multiset up to cyclic canonicalization."""
    if sorted(p.generators) != sorted(q.generators):
        return False
    return sorted(map(cyclic_canonical, p.relators)) == sorted(
        map(cyclic_canonical, q.relators)
    )


def artin_generator_name(i: int) -> str:
    return f"s{i}"


def edge_generator_name(i: int, j: int) -> str:
    return f"s{min(i, j)}_{max(i, j)}"


def band_table(edges, n: int) -> dict[str, BraidWord]:
    """Each band generator s_{i,j}, (i, j) in edges, realized as s_word(i, j, n)."""
    return {edge_generator_name(i, j): s_word(i, j, n) for i, j in edges}


def artin_presentation(n: int) -> Presentation:
    """<sigma_1..sigma_{n-1} | far commutation, braid relations>."""
    if n < 2:
        raise IndexRangeError(f"artin_presentation needs n >= 2, got {n}")
    check_strands(n)
    gens = tuple(artin_generator_name(i) for i in range(1, n))
    relators: list[Relator] = []
    for i, j in combinations(range(1, n), 2):
        if j - i >= 2:
            relators.append(commutator(artin_generator_name(i), artin_generator_name(j)))
    for i in range(1, n - 1):
        x, y = artin_generator_name(i), artin_generator_name(i + 1)
        relators.append(equation_relator(((x, 1), (y, 1), (x, 1)), ((y, 1), (x, 1), (y, 1))))
    return Presentation(gens, tuple(relators))


def _band(i: int, j: int) -> Token:
    return (edge_generator_name(i, j), 1)


def markoff_presentation(n: int) -> Presentation:
    """Markoff's band-generator presentation of the pure braid group on n strands.

    It is pure_chromatic_presentation(complete(n)): on K_n every pair is an
    edge and every triple a 3-circuit, so schemas (2.2) and (3.2) are empty
    and (1), (2.1), (3.1) are Markoff's three families, for 1 <= i < j <= n:
      (1) [s_{i,j}, s_{k,l}] for i<j<k<l and for i<k<l<j,
      (2) s_{i,j} s_{i,k} s_{j,k} = s_{i,k} s_{j,k} s_{i,j}
                                  = s_{j,k} s_{i,j} s_{i,k} for i<j<k,
      (3) s_{i,k} s_{j,k} s_{j,l} s_{j,k}^-1
            = s_{j,k} s_{j,l} s_{j,k}^-1 s_{i,k} for i<j<k<l.
    """
    if n < 2:
        raise IndexRangeError(f"markoff_presentation needs n >= 2, got {n}")
    check_strands(n)
    return pure_chromatic_presentation(complete(n))


def pure_chromatic_presentation(G: SimpleGraph) -> Presentation:
    """Presentation of the graph-conditioned pure group P(Gamma).

    One generator s_e per edge; relators instantiate five schemas over the
    vertex order, writing E for the edge set of G:
      (1)   {i,j}, {k,l} in E, i<j<k<l or i<k<l<j:   [s_{ij}, s_{kl}],
      (2.1) {i,j,k} a 3-circuit, i<j<k:              the triple equality (2),
      (2.2) {i,j}, {j,k} in E, {i,k} not in E, i<k:  [s_{ij}, s_{jk}],
      (3.1) {i,k}, {j,l} in E, i<j<k<l, {j,k,l} a
            3-circuit:                               the conjugation relation (3),
      (3.2) {i,k}, {j,l} in E, i<j<k<l, {j,k,l} not
            a 3-circuit:                             [s_{ik}, s_{jl}].
    Each schema tests every edge it names, so each instance is emitted
    once, non-empty and freely reduced, and no two relators agree up to
    cyclic canonicalization.  Commutator-shaped relators are emitted
    lexicographically smaller generator name first ("s10_11" before
    "s1_2").  On the complete graph this is markoff_presentation.
    """
    n = G.vertices
    # name[i][j] is the generator name of {i, j} when it is an edge, else
    # None: every edge and 3-circuit test below is one or three lookups in it
    name: list[list[str | None]] = [[None] * (n + 1) for _ in range(n + 1)]
    for i, j in G.edges:
        name[i][j] = name[j][i] = edge_generator_name(i, j)
    relators: list[Relator] = []

    def comm_sorted(x: str, y: str) -> Relator:
        return commutator(x, y) if x < y else commutator(y, x)

    for a, b, c, d in combinations(range(1, n + 1), 4):
        if name[a][b] and name[c][d]:
            relators.append(comm_sorted(name[a][b], name[c][d]))
        if name[a][d] and name[b][c]:
            relators.append(comm_sorted(name[a][d], name[b][c]))
    for i, j, k in combinations(range(1, n + 1), 3):
        if name[i][j] and name[j][k] and name[i][k]:
            # the three-way equality xyz = yzx = zxy as its two consecutive equations
            x, y, z = (name[i][j], 1), (name[i][k], 1), (name[j][k], 1)
            relators.append(equation_relator((x, y, z), (y, z, x)))
            relators.append(equation_relator((y, z, x), (z, x, y)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(i + 1, n + 1):
                if name[i][j] and name[j][k] and not name[i][k]:
                    relators.append(comm_sorted(name[i][j], name[j][k]))
    for i, j, k, l in combinations(range(1, n + 1), 4):
        if name[i][k] and name[j][l]:
            if name[j][k] and name[k][l]:  # {j, k, l} a 3-circuit, {j, l} in E
                x, y, z, y_inv = (name[i][k], 1), (name[j][k], 1), (name[j][l], 1), (name[j][k], -1)
                relators.append(equation_relator((x, y, z, y_inv), (y, z, y_inv, x)))
            else:
                relators.append(comm_sorted(name[i][k], name[j][l]))

    gens = tuple(name[i][j] for i, j in G.edges_sorted())
    return Presentation(gens, tuple(relators))


def dihedral_presentation(n: int) -> Presentation:
    """<a, b | a^n = b^2 = e, b a b = a^-1>, the third relation as (ba)^2."""
    if n < 3:
        raise IndexRangeError(f"dihedral_presentation needs n >= 3, got {n}")
    check_strands(n)
    relators = (
        (("a", 1),) * n,
        (("b", 1), ("b", 1)),
        (("b", 1), ("a", 1), ("b", 1), ("a", 1)),
    )
    return Presentation(("a", "b"), relators)


def psi_name(t: str) -> str:
    return f"psi_{t}"


def cyclic_relations(n: int) -> list[tuple[str, Relator, Relator]]:
    """Defining equations of the braid group conditioned by the cycle C_n.

    Each entry is (check id, lhs tokens, rhs tokens), in three families:

        R1  s_e s_f = s_f s_e for every pair of cycle edges e < f
        R2  psi_t^-1 s_{i,j} psi_t = s_{t(i),t(j)}  for t = a, b and every edge
        R3  psi_a^n             = s_{1,n} s_{n-1,n} s_{n-2,n-1} ... s_{1,2}
            psi_b^2             = e                     (n even)
                                  s_{r,r+1}             (n odd, r = (n+1)/2)
            (psi_b psi_a)^2     = s_{1,2} s_{m,m+1}     (n even, m = (n+2)/2)
                                  s_{1,2} s_{r,r+1} s_{r+1,r+2}   (n odd)

    The R3 left sides are the relators of dihedral_presentation(n), lifted.
    The check ids name the lines of verify_final_proposition.
    """
    if n < 4:
        raise IndexRangeError(f"cyclic_relations needs n >= 4, got {n}")
    edges = cycle(n).edges_sorted()
    relations: list[tuple[str, Relator, Relator]] = []
    for e, f in combinations(edges, 2):
        u, v = _band(*e), _band(*f)
        relations.append((f"R1-{u[0]}-{v[0]}", (u, v), (v, u)))
    dihedral = dihedral_presentation(n)
    psi_a, psi_b = map(psi_name, dihedral.generators)
    for lift, g in zip((psi_a, psi_b), dihedral_generators(n)):
        for i, j in edges:
            u, v = _band(i, j), _band(g.apply(i), g.apply(j))
            relations.append((f"R2-{lift}-{u[0]}", ((lift, -1), u, (lift, 1)), (v,)))
    rot_rhs = (_band(1, n),) + tuple(_band(k, k + 1) for k in range(n - 1, 0, -1))
    r, s = psi_r(n), psi_s(n)
    if n % 2 == 0:
        refl_rhs: Relator = ()
        mixed_rhs = (_band(1, 2), _band(r + 1, s))
    else:
        refl_rhs = (_band(r, s),)
        mixed_rhs = (_band(1, 2), _band(r, s), _band(s, s + 1))
    ids = (f"R3-{psi_a}^{n}", f"R3-{psi_b}^2", f"R3-({psi_b}.{psi_a})^2")
    for check_id, q, rhs in zip(ids, dihedral.relators, (rot_rhs, refl_rhs, mixed_rhs)):
        relations.append((check_id, tuple((psi_name(t), e) for t, e in q), rhs))
    return relations


def cyclic_braid_presentation(n: int) -> Presentation:
    """Presentation of the braid group conditioned by the cycle graph C_n.

    Kernel part: one generator per cycle edge, all commuting (the kernel is
    free abelian of rank n).  Lifts psi_a, psi_b of the dihedral rotation
    and reflection, conjugation relators from the edge action of the
    dihedral group, and three lifted relators recording a^n, b^2 and (ba)^2
    as explicit kernel words; one relator per equation of cyclic_relations.
    """
    if n < 4:
        raise IndexRangeError(f"cyclic_braid_presentation needs n >= 4, got {n}")
    gens = tuple(edge_generator_name(i, j) for i, j in cycle(n).edges_sorted())
    gens += tuple(map(psi_name, dihedral_presentation(n).generators))
    relators = tuple(equation_relator(lhs, rhs) for _, lhs, rhs in cyclic_relations(n))
    return Presentation(gens, relators)


def substitute(rel, table: dict[str, BraidWord], n: int) -> BraidWord:
    """Evaluate a relator, whose token exponents are +-1 as in a
    Presentation, as a braid word through a generator-to-word table."""
    letters: list[int] = []
    try:
        for name, exp in rel:
            if exp not in (1, -1):
                raise IndexRangeError(f"token exponent must be +-1, got {exp}")
            piece = table[name].letters
            letters.extend(piece if exp > 0 else [-k for k in reversed(piece)])
    except KeyError as missing:
        raise ParseError(f"relator uses generator {missing.args[0]!r}, not in the table") from None
    return BraidWord(n, letters)


def format_presentation(p: Presentation, dialect: str = "plain") -> str:
    if dialect == "plain":
        lines = ["generators: " + " ".join(p.generators)]
        for rel in p.relators:
            lines.append(" ".join(_plain_token(t) for t in rel))
        return "\n".join(lines) + "\n"
    if dialect == "algebra-system":
        quoted = ", ".join(f'"{g}"' for g in p.generators)
        index = {g: i + 1 for i, g in enumerate(p.generators)}
        lines = [f"F := FreeGroup( {quoted} );;"]
        if not p.relators:
            lines.append("rels := [];;")
        else:
            lines.append("rels := [")
            body = [f"  {_algebra_relator(rel, index)}" for rel in p.relators]
            lines.append(",\n".join(body))
            lines.append("];;")
        return "\n".join(lines) + "\n"
    raise ParseError(f"unknown dialect {dialect!r}")


def _plain_token(t: Token) -> str:
    name, exp = t
    return name if exp > 0 else f"{name}^-1"


def _algebra_relator(rel: Relator, index: dict[str, int]) -> str:
    # compress runs of an identical token into powers
    parts = []
    pos = 0
    while pos < len(rel):
        name, exp = rel[pos]
        run = 1
        while pos + run < len(rel) and rel[pos + run] == (name, exp):
            run += 1
        power = exp * run
        parts.append(f"F.{index[name]}" + (f"^{power}" if power != 1 else ""))
        pos += run
    return "*".join(parts)
