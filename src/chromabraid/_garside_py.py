"""The Garside kernel: the left-weighted normal form, and nothing else.

This is the only implementation; _kernel.py passes it only checked
letters, since nothing here checks them.  The strand walk lives in
_kernel.py, behind its BraidWord entry.

Conventions inside the kernel: permutations are 0-based one-line lists
(f[x] = image of x), composed left to right, and a factor f stands for the
positive permutation braid whose strand starting at position x ends at
position f[x].  A word sigma_{k}^{+-1} enters as the signed integer +-k
(1-based generator index).

left_normal_form is one right-multiplication pass (Epstein et al., Word
Processing in Groups, ch. 9) in a lazily twisted frame.  The stored factors
are the true ones conjugated by tau^flip, where tau is conjugation by the
half twist Delta and flip is one bit for the whole list; tau is applied
once, at the end.  Letters enter by runs:

- A letter that keeps the last factor simple changes it in place: sigma_i
  is absorbed when it is not a suffix of last, and sigma_i^-1 cancels when
  it is.
- A sigma_i^-1 that cannot cancel starts a negative run N^-1.  While the
  positive braid N stays simple, N^-1 = Delta^-1 . (Delta N^-1) (ch. 9):
  the Delta^-1 goes to the front at once, conjugating every stored factor,
  which is a toggle of flip, and Delta sigma_i^-1 is appended.  The run's
  later letters cancel in it by the test above, since sigma_j N is simple
  iff sigma_j is a suffix of Delta N^-1, so the run costs one factor.
- A sigma_i that is a suffix of the last factor is appended as an atom,
  since (last, sigma_i) is left weighted.
- The last factor is left weighted backwards once per run, not once per
  letter (the meet step of El-Rifai and Morton, "Algorithms for positive
  braids", 1994): before anything is appended after it, after which the
  letter is tested again, and at the end.  A positive letter that grew it
  or an appended complement marks it for this; a cancellation in a left
  weighted factor does not, since a prefix of a left-weighted factor keeps
  the list left weighted.  Left weighting commutes with tau, so it runs in
  the stored frame.  A factor that grows to Delta moves to the front,
  conjugating the factors before it by tau, and the list is left weighted
  from there on.  So Delta is never stored once the list is left weighted.
- A pair is left weighted by slides in insertion order (_left_weight_pair):
  each entry of the second factor moves left in one inner loop, and the
  scan then goes on from where that entry started, without testing again
  the pairs it moved past.
"""

from __future__ import annotations


def _tau(f, n):
    # conjugation by the half twist: tau(f)[x] = n-1 - f[n-1-x]
    top = n - 1
    return [top - y for y in reversed(f)]


def _left_weight_pair(u, v, pos, n):
    """Slide head letters of v into u until S(v) is contained in F(u).

    S(v) = descent set of v, F(u) = descent set of u^-1.  A generator index
    i (0-based) is slid when i is in S(v) but not in F(u); the slide keeps
    the product u v fixed: u gains the letter on the right, v loses it on
    the left.  The slides go in insertion order: for start = 1 .. n-1, the
    entry of v at position start moves left, one slide at a time, for as
    long as the pair before it is a descent of v and not a descent of u^-1.
    Every order of slides ends at the same pair, since a left-weighted u is
    the meet of u v with Delta.  Mutates u and v in place; pos is scratch of
    length n.  Returns True when anything moved.
    """
    for x, y in enumerate(u):
        pos[y] = x
    changed = False
    for start in range(1, n):
        j = start
        i = j - 1
        # descent of v at i, non-descent of u^-1 at i
        while i >= 0 and v[i] > v[j] and pos[i] < pos[j]:
            # u <- u . sigma_{j}: swap the values i, j inside u
            a = pos[i]
            b = pos[j]
            u[a] = j
            u[b] = i
            pos[i] = b
            pos[j] = a
            # v <- sigma_{j}^-1 . v: swap the entries at i, j
            v[i], v[j] = v[j], v[i]
            changed = True
            j = i
            i -= 1
    return changed


def _settle(factors, pos, n, ident, delta):
    """Left weight backwards from the last factor, which grew on the right.

    The factors before it are left weighted, and stay so once a pair is
    unchanged.  A factor that grows to Delta moves to the front past the
    factors before it, and the list is left weighted from there on.  Only
    the last factor can become the identity, and is then dropped.  Returns
    the number of Deltas moved, 0 or 1.
    """
    moved = 0
    t = len(factors) - 1
    while True:
        if factors[t] == delta:
            for s in range(t):
                factors[s] = _tau(factors[s], n)
            del factors[t]
            moved = 1
            break
        t -= 1
        if t < 0 or not _left_weight_pair(factors[t], factors[t + 1], pos, n):
            break
    if factors and factors[-1] == ident:
        factors.pop()
    return moved


def left_normal_form(n, letters):
    """Return (inf, factors): letters == Delta^inf . factors, left weighted.

    factors is a list of 0-based one-line tuples, each a proper non-trivial
    permutation braid (never the identity, never the half twist Delta).
    """
    if n == 1 or not letters:
        return 0, []
    if n == 2:
        # sigma_1 is Delta itself, so B_2 is infinite cyclic on it
        return sum(1 if k > 0 else -1 for k in letters), []

    p = 0
    flip = 0
    factors = []
    pos = [0] * n
    ident = list(range(n))
    delta = ident[::-1]
    # the last factor grew in place since it was last left weighted
    dirty = False
    for k in letters:
        # the letter's generator index in the stored frame: tau maps
        # sigma_{i+1} to sigma_{n-1-i}
        i = abs(k) - 1
        if flip:
            i = n - 2 - i
        while True:
            if factors:
                last = factors[-1]
                a = last.index(i)
                b = last.index(i + 1)
                # sigma_{i+1} is a suffix of last iff b < a; last . sigma_{i+1}^-1
                # is simple iff it is, last . sigma_{i+1} iff it is not
                if (a < b) == (k > 0):
                    # last <- last . sigma^{+-1}: swap the values i, i+1 inside last
                    last[a] = i + 1
                    last[b] = i
                    if k > 0:
                        dirty = True
                    elif last == ident:
                        factors.pop()
                        dirty = False
                    break
                if dirty:
                    # left weight last before appending, then test again:
                    # last may have moved to the front or lost letters
                    p += _settle(factors, pos, n, ident, delta)
                    dirty = False
                    continue
            if k > 0:
                # no factor yet, or (last, sigma_{i+1}) is left weighted already
                f = ident[:]
                f[i] = i + 1
                f[i + 1] = i
                factors.append(f)
            else:
                # sigma^-1 = Delta^-1 . (Delta sigma^-1); the Delta^-1 goes to
                # the front, conjugating every factor: the frame toggles
                p -= 1
                flip ^= 1
                i = n - 2 - i
                # Delta sigma_{i+1}^-1: x -> t_i(n-1-x); the negative letters
                # after it cancel in it while their run stays simple
                f = delta[:]
                f[n - 1 - i] = i + 1
                f[n - 2 - i] = i
                factors.append(f)
                dirty = True
            break
    if dirty:
        p += _settle(factors, pos, n, ident, delta)

    if flip:
        factors = [_tau(f, n) for f in factors]
    return p, [tuple(f) for f in factors]

