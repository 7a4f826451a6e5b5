"""Word problem in the braid group B_n via the left-weighted normal form.

Every word factors uniquely as Delta^p A_1 ... A_k where Delta is the
positive half twist, each A_t is a permutation braid strictly between the
trivial braid and Delta, and each adjacent pair is left weighted: the
starting set of A_{t+1} is contained in the finishing set of A_t.  Two
words are equal in B_n iff their normal forms coincide.  The second,
independent oracle, lkrep.equal_via_representation, is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernel import left_normal_form
from .errors import StrandMismatchError
from .lkrep import equal_via_representation  # noqa: F401  re-exported
from .words import BraidWord, Permutation


@dataclass(frozen=True)
class NormalForm:
    """Normal form Delta^infimum . factors.  Delta and identity never appear
    among the factors; canonical_length is the factor count."""

    strands: int
    infimum: int
    factors: tuple[Permutation, ...]

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def supremum(self) -> int:
        return self.infimum + len(self.factors)

    def is_trivial(self) -> bool:
        return self.infimum == 0 and not self.factors

    def __str__(self) -> str:
        body = "|".join(",".join(str(v) for v in f.image) for f in self.factors)
        return f"D^{self.infimum}:{body}"


def normal_form(w: BraidWord) -> NormalForm:
    p, raw = left_normal_form(w.strands, w.letters)
    factors = tuple(Permutation(tuple(x + 1 for x in f)) for f in raw)
    return NormalForm(w.strands, p, factors)


def equal_in_Bn(u: BraidWord, v: BraidWord) -> bool:
    if u.strands != v.strands:
        raise StrandMismatchError(
            f"comparing words on {u.strands} and {v.strands} strands"
        )
    return normal_form(u) == normal_form(v)
