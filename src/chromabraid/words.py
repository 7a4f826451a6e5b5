"""Braid words over the Artin generators and their combinatorial shadows.

A braid word is a strand count n together with a finite sequence of letters
sigma_k or sigma_k^-1, 1 <= k <= n-1, stored as signed integers: k > 0
encodes sigma_k and k < 0 encodes sigma_|k|^-1.  The textual form is the
same sequence as whitespace-separated decimal integers, e.g. "1 2 -1".

Besides the free-monoid plumbing (parse, format, concat, inverse, and
reduced_middles, which cancels inverse pairs, also across far-commuting
letters, drops a common prefix and suffix, puts what is left in
Cartier-Foata order, drops a common prefix and suffix again and returns
the two middles as letter tuples) the module provides the named word
families

    a_word(i, j)   = sigma_{j-1} ... sigma_{i+1} sigma_i          (empty for i = j)
    s_word(i, j)   = sigma_{j-1} ... sigma_{i+1} sigma_i^2 sigma_{i+1}^-1 ... sigma_{j-1}^-1
    e_word(k, l)   = a_word(k, l) a_word(k+1, l)^-1
    psi_a_word(n)  = a_word(1, n)
    psi_b_word(n)  = e_word(2, n) e_word(3, n-1) ... e_word(r, n+2-r)

and two invariants computed by simulating the strand diagram bottom to top:
perm_of (the underlying permutation, with left-to-right composition so that
perm_of(concat(u, v)) = perm_of(u) * perm_of(v)) and crossing_matrix (the
symmetric matrix of signed crossing counts between labelled strands).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ._kernel import _INT, check_letters, check_strands, crossing_counts
from .errors import IndexRangeError, ParseError, StrandMismatchError

_TOKEN = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1, ..., n} in one-line notation: image[i-1] = value at i.

    Composition is left to right: (p * q)(i) = q(p(i)).  This matches the
    bottom-to-top reading of braid diagrams, so perm_of is a homomorphism.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(self.image)
        n = len(image)
        # the type test comes first: sorted raises on mixed types, and
        # admits True and 1.0 as 1
        if not _INT.issuperset(map(type, image)) or sorted(image) != list(range(1, n + 1)):
            raise IndexRangeError(f"not a permutation of 1..{n}: {image}")
        object.__setattr__(self, "image", image)

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(range(1, n + 1))

    @property
    def size(self) -> int:
        return len(self.image)

    def apply(self, i: int) -> int:
        return self.image[i - 1]

    def compose(self, other: Permutation) -> Permutation:
        """self then other, left to right."""
        if other.size != self.size:
            raise StrandMismatchError(
                f"composing permutations of sizes {self.size} and {other.size}"
            )
        return Permutation([other.image[v - 1] for v in self.image])

    __mul__ = compose

    def inverse(self) -> Permutation:
        image = [0] * self.size
        for i, v in enumerate(self.image, start=1):
            image[v - 1] = i
        return Permutation(image)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image, start=1))

    def one_line(self) -> str:
        return " ".join(str(v) for v in self.image)

    def __str__(self) -> str:
        return self.one_line()


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on `strands` strands, as signed letters."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", check_letters(self.strands, self.letters))
        if self.strands < 1:
            raise IndexRangeError(f"strand count must be >= 1, got {self.strands}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        return concat(self, other)

    def __str__(self) -> str:
        return format_word(self)


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated signed letter indices into a word on n strands."""
    check_strands(n)
    letters = []
    for position, token in enumerate(text.split(), start=1):
        if not _TOKEN.fullmatch(token):
            raise ParseError(f"not a decimal integer: {token!r}", position=position)
        k = int(token)
        if k == 0 or abs(k) >= n:
            raise IndexRangeError(
                f"letter {k} out of range for {n} strands (token {position})"
            )
        letters.append(k)
    return BraidWord(n, letters)


def format_word(w: BraidWord) -> str:
    """Canonical text: letters as signed decimal integers, single spaces."""
    return " ".join(str(k) for k in w.letters)


def concat(u: BraidWord, v: BraidWord) -> BraidWord:
    if u.strands != v.strands:
        raise StrandMismatchError(
            f"concatenating words on {u.strands} and {v.strands} strands"
        )
    return BraidWord(u.strands, u.letters + v.letters)


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, [-k for k in reversed(w.letters)])


def common_strands(u: BraidWord, v: BraidWord) -> int:
    """The strand count of two words that are compared, which must share it."""
    if u.strands != v.strands:
        raise StrandMismatchError(f"comparing words on {u.strands} and {v.strands} strands")
    return u.strands


def _cancel_far(n: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Cancel each sigma_k^+-1 against the nearest earlier sigma_k^-+1 when
    no letter between them has index |k|-1, |k| or |k|+1.

    Every letter between them commutes with sigma_k, so the pair cancels in
    B_n (reduction in a partially commutative group, Cartier and Foata
    1969).  One stack of live positions per generator index: a letter cancels
    the top of its own stack when that top is later than the tops of the two
    neighbouring stacks, so the pass is linear in the word length.
    """
    out = list(letters)
    # index 0 and n are sentinels for the neighbours of sigma_1 and sigma_{n-1}
    live = [[-1] for _ in range(n + 1)]
    for q, k in enumerate(letters):
        g = abs(k)
        own = live[g]
        top = own[-1]
        if top > live[g - 1][-1] and top > live[g + 1][-1] and out[top] == -k:
            own.pop()
            out[top] = out[q] = 0
        else:
            own.append(q)
    return tuple(filter(None, out))


def _foata(n: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """letters in Cartier-Foata order (Cartier and Foata 1969).

    A letter's level is one more than the highest level among the earlier
    letters of index |k|-1, |k| and |k|+1; the letters are sorted by
    (level, letter).  Letters of one level have pairwise far indices, and a
    letter never passes one of a near index, so this only reorders letters
    that commute.  Two words that far commutations alone turn into each
    other get the same order.
    """
    # top[g]: the highest level of a letter of index g so far; index 0 and
    # n are sentinels for the neighbours of sigma_1 and sigma_{n-1}
    top = [0] * (n + 1)
    keyed = []
    for k in letters:
        g = abs(k)
        level = max(top[g - 1], top[g], top[g + 1]) + 1
        top[g] = level
        keyed.append((level, k))
    keyed.sort()
    return tuple(k for _, k in keyed)


def _strip(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """a and b without their longest common prefix and suffix."""
    m = min(len(a), len(b))
    i = 0
    while i < m and a[i] == b[i]:
        i += 1
    j = 0
    while j < m - i and a[-1 - j] == b[-1 - j]:
        j += 1
    return a[i:len(a) - j], b[i:len(b) - j]


def reduced_middles(u: BraidWord, v: BraidWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The letters of middles a, b of u and v such that u = v in B_n iff a = b.

    Each word loses the inverse pairs _cancel_far finds, then the two lose
    their longest common prefix and suffix: in any group p.a.s = p.b.s iff
    a = b.  Each middle is then put in Cartier-Foata order, and the two
    lose their common prefix and suffix again.  A cancelled word is reduced
    in the group of far commutation, and two reduced words equal there
    differ only by far commutations, so a pair equal there ends as two
    empty middles.  Foata order on whole words, before the first strip, can
    leave longer middles: (4, 1, 2, 1, 4) against (4, 2, 1, 2, 4) would
    keep five letters each.
    """
    n = common_strands(u, v)
    a, b = _strip(_cancel_far(n, u.letters), _cancel_far(n, v.letters))
    return _strip(_foata(n, a), _foata(n, b))


def a_word(i: int, j: int, n: int) -> BraidWord:
    """sigma_{j-1} sigma_{j-2} ... sigma_i, the strand-i-to-position-j run; empty when i = j."""
    # the type test comes first: the range test admits 1.5
    if type(i) is not int or type(j) is not int or not 1 <= i <= j <= n:
        raise IndexRangeError(f"a_word needs 1 <= i <= j <= n, got ({i}, {j}) on {n}")
    check_strands(n)
    return BraidWord(n, range(j - 1, i - 1, -1))


def s_word(i: int, j: int, n: int) -> BraidWord:
    """Band generator: sigma_i^2 conjugated so strands i and j do the full twist."""
    if type(i) is not int or type(j) is not int or not 1 <= i < j <= n:
        raise IndexRangeError(f"s_word needs 1 <= i < j <= n, got ({i}, {j}) on {n}")
    check_strands(n)
    run = tuple(range(j - 1, i, -1))
    return BraidWord(n, run + (i, i) + tuple(-k for k in reversed(run)))


def e_letters(k: int, l: int) -> tuple[int, ...]:
    """The letters of e_word(k, l), unchecked, for joining into one word."""
    return (*range(l - 1, k - 1, -1), *range(-k - 1, -l, -1))


def e_word(k: int, l: int, n: int) -> BraidWord:
    """a_word(k, l) a_word(k+1, l)^-1; its permutation is the transposition (k l)."""
    if type(k) is not int or type(l) is not int or not 1 <= k < l <= n:
        raise IndexRangeError(f"e_word needs 1 <= k < l <= n, got ({k}, {l}) on {n}")
    check_strands(n)
    return BraidWord(n, e_letters(k, l))


def psi_r(n: int) -> int:
    """Last index of the reflection's transposition list: (n+1) // 2, which is
    n/2 for even n and (n+1)/2 for odd."""
    return (n + 1) // 2


def psi_s(n: int) -> int:
    """Partner of psi_r under the reflection: n // 2 + 2, which is (n+4)/2 for
    even n and (n+3)/2 for odd."""
    return n // 2 + 2


def psi_a_word(n: int) -> BraidWord:
    """Lift of the rotation (1 2 ... n): the full descending run a_word(1, n)."""
    if n < 4:
        raise IndexRangeError(f"psi_a_word needs n >= 4, got {n}")
    return a_word(1, n, n)


def psi_b_word(n: int) -> BraidWord:
    """Lift of the reflection fixing vertex 1: e_word(2, n) e_word(3, n-1) ..."""
    if n < 4:
        raise IndexRangeError(f"psi_b_word needs n >= 4, got {n}")
    check_strands(n)  # before range(n) reads it
    return BraidWord(n, [a for k in range(2, psi_r(n) + 1) for a in e_letters(k, n + 2 - k)])


def perm_of(w: BraidWord) -> Permutation:
    """Permutation sending each strand's start position to its end position."""
    n = w.strands
    at = list(range(n))  # position -> strand label, 0-based
    for k in w.letters:
        i = abs(k) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    image = [0] * n
    for pos, strand in enumerate(at):
        image[strand] = pos + 1
    return Permutation(image)


@dataclass(frozen=True)
class CrossingMatrix:
    """Symmetric matrix of signed crossing counts between labelled strands.

    rows[p-1][q-1] counts crossings of the strands *starting* at positions p
    and q, each counted +1 when positive and -1 when negative.  Additivity
    under concatenation holds after relabelling the second factor through
    the permutation g = perm_of(u) of the first:

        M(uv)[p][q] = M(u)[p][q] + M(v)[g(p)][g(q)].
    """

    rows: tuple[tuple[int, ...], ...]


def crossing_matrix(w: BraidWord) -> CrossingMatrix:
    counts = crossing_counts(w)
    return CrossingMatrix(tuple(tuple(row) for row in counts))
