"""Simple graphs on vertex set {1, ..., n}, their automorphisms, and the
dihedral group that Aut of a cycle graph realizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from ._kernel import check_strands
from .errors import AutBoundError, GraphInputError, IndexRangeError
from .words import Permutation

# The most vertices automorphisms searches, since the search is exhaustive.
MAX_AUT_VERTICES = 10

# The most automorphisms it returns, checked as the search finds them: 8!,
# all of complete(8), in about 0.4 s.  complete(10) has 3,628,800.
MAX_AUTOMORPHISMS = 40320


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on 1..vertices; each edge is a pair i < j, and
    the edges are stored as a frozenset whatever collection they came in."""

    vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = self.vertices
        if n < 0:
            raise GraphInputError(f"vertex count must be >= 0, got {n}")
        check_strands(n)
        # a one-shot iterator is read once, by the checks and the frozenset
        edges = self.edges if isinstance(self.edges, frozenset) else tuple(self.edges)
        for e in edges:
            if not (isinstance(e, tuple) and len(e) == 2 and all(type(v) is int for v in e)):
                raise GraphInputError(f"edge {e!r} is not a pair of integers")
            i, j = e
            if i == j:
                raise GraphInputError(f"loop edge at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphInputError(f"edge ({i}, {j}) outside vertex range 1..{n}")
            if i > j:
                raise GraphInputError(f"edge ({i}, {j}) is not written smaller vertex first")
        object.__setattr__(self, "edges", frozenset(edges))

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Edge -> its coordinate in sorted edge order."""
        return {e: idx for idx, e in enumerate(sorted(self.edges))}

    @cached_property
    def triangle_free(self) -> bool:
        # a triangle i < j < k shows at its edge (i, j): k is a later
        # neighbour of both
        later = [set() for _ in range(self.vertices + 1)]
        for i, j in self.edges:
            later[i].add(j)
        return all(later[i].isdisjoint(later[j]) for i, j in self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def edges_sorted(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.edge_index)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(a + b - v for a, b in self.edges if v in (a, b))


def from_edge_list(n: int, pairs) -> SimpleGraph:
    """Build a graph from vertex pairs in either order; multi-edges collapse.

    The strand cap is checked before the pairs are read, so a large n is
    refused before lazy pairs, such as complete(n)'s n(n-1)/2, are
    enumerated.  A pair that does not unpack into two comparable, hashable
    values is refused here, and SimpleGraph checks the rest.
    """
    check_strands(n)
    edges = set()
    for e in pairs:
        try:
            i, j = e
            edges.add((i, j) if i < j else (j, i))
        except (TypeError, ValueError):
            raise GraphInputError(f"edge {e!r} is not a pair of integers") from None
    return SimpleGraph(n, frozenset(edges))


# 4.0 misses the entry of 4, as in _kernel._alphabet, and reaches check_strands
@lru_cache(maxsize=None)
def cycle(n: int) -> SimpleGraph:
    check_strands(n)  # before range(n) reads it
    if n < 3:
        raise GraphInputError(f"cycle graph needs n >= 3, got {n}")
    return from_edge_list(n, ((i, i % n + 1) for i in range(1, n + 1)))


def path(n: int) -> SimpleGraph:
    check_strands(n)  # before range(n) reads it
    if n < 1:
        raise GraphInputError(f"path graph needs n >= 1, got {n}")
    return from_edge_list(n, ((i, i + 1) for i in range(1, n)))


def complete(n: int) -> SimpleGraph:
    check_strands(n)  # before range(n) reads it
    if n < 1:
        raise GraphInputError(f"complete graph needs n >= 1, got {n}")
    return from_edge_list(n, combinations(range(1, n + 1), 2))


def is_complete(G: SimpleGraph) -> bool:
    n = G.vertices
    return len(G.edges) == n * (n - 1) // 2


def is_3_circuit(G: SimpleGraph, i: int, j: int, k: int) -> bool:
    """True iff the three distinct vertices span a triangle of G."""
    for v in (i, j, k):
        if type(v) is not int or not 1 <= v <= G.vertices:
            raise GraphInputError(f"vertex {v!r} is not an integer in 1..{G.vertices}")
    if len({i, j, k}) != 3:
        raise GraphInputError(f"repeated vertex in triple ({i}, {j}, {k})")
    return G.has_edge(i, j) and G.has_edge(j, k) and G.has_edge(i, k)


def is_triangle_free(G: SimpleGraph) -> bool:
    return G.triangle_free


def is_automorphism(G: SimpleGraph, g: Permutation) -> bool:
    """Membership test for a single permutation; no exhaustive search."""
    if g.size != G.vertices:
        return False
    image = (0,) + g.image  # image[v] = g(v)
    edges = G.edges
    for i, j in edges:
        a, b = image[i], image[j]
        if (a, b) not in edges and (b, a) not in edges:
            return False
    return True


def automorphisms(G: SimpleGraph) -> list[Permutation]:
    """All automorphisms of G by pruned backtracking, sorted by one-line
    notation.  Graphs above MAX_AUT_VERTICES are refused, and so is a search
    that finds more than MAX_AUTOMORPHISMS."""
    n = G.vertices
    if n > MAX_AUT_VERTICES:
        raise AutBoundError(
            f"automorphism search on {n} vertices exceeds bound {MAX_AUT_VERTICES}"
        )
    deg = [0] + [G.degree(v) for v in range(1, n + 1)]
    adj = [frozenset()] + [G.neighbors(v) for v in range(1, n + 1)]
    found: list[Permutation] = []
    image = [0] * (n + 1)
    used = [False] * (n + 1)

    def extend(v: int):
        if v > n:
            if len(found) == MAX_AUTOMORPHISMS:
                raise AutBoundError(
                    f"automorphism search on {n} vertices found more than {MAX_AUTOMORPHISMS}"
                )
            found.append(Permutation(image[1:]))
            return
        for w in range(1, n + 1):
            if used[w] or deg[w] != deg[v]:
                continue
            # adjacency to every earlier vertex must be preserved both ways
            if any((u in adj[v]) != (image[u] in adj[w]) for u in range(1, v)):
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            used[w] = False
        image[v] = 0

    extend(1)
    return sorted(found, key=lambda g: g.image)


def dihedral_generators(n: int) -> tuple[Permutation, Permutation]:
    """The rotation a = (1 2 ... n) and the reflection b fixing vertex 1.

    In one-line notation a(i) = i+1 (mod n) and b(1) = 1, b(k) = n+2-k.
    Both are automorphisms of cycle(n) and generate all 2n of them.
    """
    if n < 3:
        raise IndexRangeError(f"dihedral generators need n >= 3, got {n}")
    check_strands(n)
    a = Permutation([i % n + 1 for i in range(1, n + 1)])
    b = Permutation((1,) + tuple(n + 2 - k for k in range(2, n + 1)))
    return a, b


@dataclass(frozen=True)
class DihedralElement:
    """Element a^rotation b^reflected of the dihedral group of order 2n.

    Multiplication matches left-to-right permutation composition through
    to_perm: (k1, e1) * (k2, e2) = (k1 + (-1)^e1 k2 mod n, e1 xor e2).
    """

    order: int
    rotation: int
    reflected: bool

    def __post_init__(self):
        if type(self.order) is not int or self.order < 3:
            raise IndexRangeError(f"dihedral group needs an integer n >= 3, got {self.order!r}")
        if type(self.rotation) is not int or not 0 <= self.rotation < self.order:
            raise IndexRangeError(
                f"rotation {self.rotation!r} not an integer reduced mod {self.order}"
            )
        if type(self.reflected) is not bool:
            raise IndexRangeError(f"reflected must be a bool, got {self.reflected!r}")

    @staticmethod
    def identity(n: int) -> DihedralElement:
        return DihedralElement(n, 0, False)

    def __mul__(self, other: DihedralElement) -> DihedralElement:
        if other.order != self.order:
            raise IndexRangeError("multiplying elements of different dihedral groups")
        sign = -1 if self.reflected else 1
        return DihedralElement(
            self.order,
            (self.rotation + sign * other.rotation) % self.order,
            self.reflected != other.reflected,
        )

    def inverse(self) -> DihedralElement:
        if self.reflected:
            return self
        return DihedralElement(self.order, (-self.rotation) % self.order, False)

    def is_identity(self) -> bool:
        return self.rotation == 0 and not self.reflected

    def to_perm(self) -> Permutation:
        return _dihedral(self.order)[0][self.rotation + self.order * self.reflected]

    @staticmethod
    def all_elements(n: int) -> list[DihedralElement]:
        return [
            DihedralElement(n, k, e) for e in (False, True) for k in range(n)
        ]

    @staticmethod
    def from_perm(n: int, g: Permutation) -> DihedralElement:
        d = _dihedral(n)[1].get(g.image)
        if d is None:
            raise IndexRangeError(
                f"permutation {g.one_line()} is not dihedral on cycle({n})"
            )
        return d


@lru_cache(maxsize=None)
def _dihedral(n: int) -> tuple[tuple[Permutation, ...], dict[tuple[int, ...], DihedralElement]]:
    """The permutations a^k b^e in all_elements order (index k + n e), and
    the element of each permutation, keyed by its image."""
    a, b = dihedral_generators(n)
    rotations = [Permutation.identity(n)]
    for _ in range(n - 1):
        rotations.append(rotations[-1] * a)
    perms = tuple(rotations + [g * b for g in rotations])
    return perms, {g.image: d for d, g in zip(DihedralElement.all_elements(n), perms)}
