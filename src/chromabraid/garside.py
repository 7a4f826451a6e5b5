"""Word problem in the braid group B_n via the left-weighted normal form.

Every word factors uniquely as Delta^p A_1 ... A_k where Delta is the
positive half twist, each A_t is a permutation braid strictly between the
trivial braid and Delta, and each adjacent pair is left weighted: the
starting set of A_{t+1} is contained in the finishing set of A_t.  Two
words are equal in B_n iff their normal forms coincide.

equal_in_Bn does the least work that still gives an exact answer, in order:

1. DISTINCT when the exponent sums or the permutations differ; both are
   homomorphisms (B_n -> Z and B_n -> S_n), read off the raw words in O(L).
2. Reduce both words to their middles (words.reduced_middles): cancel each
   sigma_k^+-1 against the nearest earlier sigma_k^-+1 across letters that
   all commute with sigma_k, in linear time, then drop the longest common
   prefix and suffix, since in any group p.a.s = p.b.s iff a = b.  Then
   put each middle in Cartier-Foata order, which only swaps far letters,
   and drop the common prefix and suffix again.
3. EQUAL when the two middles are the same letters.  Every pair that far
   commutations and inverse pairs alone turn into each other ends here.
4. Otherwise compare the kernel's normal forms of the two middles, as the
   (infimum, factors) pairs that _kernel.left_normal_form returns; its check
   is the only one the middles' letters get, since no word is rebuilt.

normal_form takes no shortcut: verify-paper prints the forms of whole
words.  The second, independent oracle,
lkrep.equal_via_representation, is re-exported here.  It shares only the
per-word cancellation of step 2 with this one and takes none of the pair
steps (1, the common prefix and suffix, the Foata order, 3), so that it
cross-checks this oracle rather than sharing its reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernel import left_normal_form
from .lkrep import equal_via_representation  # noqa: F401  re-exported
from .words import BraidWord, Permutation, common_strands, perm_of, reduced_middles


@dataclass(frozen=True)
class NormalForm:
    """Normal form Delta^infimum . factors.  Delta and identity never appear
    among the factors."""

    strands: int
    infimum: int
    factors: tuple[Permutation, ...]

    def __str__(self) -> str:
        body = "|".join(",".join(str(v) for v in f.image) for f in self.factors)
        return f"D^{self.infimum}:{body}"


def normal_form(w: BraidWord) -> NormalForm:
    p, raw = left_normal_form(w.strands, w.letters)
    factors = tuple(Permutation([x + 1 for x in f]) for f in raw)
    return NormalForm(w.strands, p, factors)


def _exponent_sum(letters: tuple[int, ...]) -> int:
    # letters are nonzero: the positive count minus the negative count
    return len(letters) - 2 * sum(map((0).__gt__, letters))


def equal_in_Bn(u: BraidWord, v: BraidWord) -> bool:
    n = common_strands(u, v)
    if _exponent_sum(u.letters) != _exponent_sum(v.letters) or perm_of(u) != perm_of(v):
        return False
    a, b = reduced_middles(u, v)
    return a == b or left_normal_form(n, a) == left_normal_form(n, b)
