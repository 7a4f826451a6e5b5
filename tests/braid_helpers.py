"""Structural checks on normal forms, shared by the test modules."""

from chromabraid.garside import NormalForm
from chromabraid.words import Permutation


def half_twist_perm(n: int) -> Permutation:
    """Permutation of the positive half twist: i -> n + 1 - i."""
    return Permutation(tuple(range(n, 0, -1)))


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
