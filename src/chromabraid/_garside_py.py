"""The Garside kernel: left-weighted normal form and crossing counts.

This is the only implementation; _kernel.py checks the letters before
calling it, since nothing here does.

Conventions inside the kernel: permutations are 0-based one-line lists
(f[x] = image of x), composed left to right, and a factor f stands for the
positive permutation braid whose strand starting at position x ends at
position f[x].  A word sigma_{k}^{+-1} enters as the signed integer +-k
(1-based generator index).
"""

from __future__ import annotations


def _is_half_twist(f, n):
    return all(f[x] == n - 1 - x for x in range(n))


def _tau(f, n):
    # conjugation by the half twist: tau(f)[x] = n-1 - f[n-1-x]
    return [n - 1 - f[n - 1 - x] for x in range(n)]


def _left_weight_pair(u, v, pos, n):
    """Slide head letters of v into u until S(v) is contained in F(u).

    S(v) = descent set of v, F(u) = descent set of u^-1.  A generator index
    i (0-based) is slid when i is in S(v) but not in F(u); the slide keeps
    the product u v fixed: u gains the letter on the right, v loses it on
    the left.  Mutates u and v in place; pos is scratch of length n.
    Returns True when anything moved.
    """
    for x in range(n):
        pos[u[x]] = x
    changed = False
    while True:
        j = -1
        for i in range(n - 1):
            # descent of v at i, non-descent of u^-1 at i
            if v[i] > v[i + 1] and pos[i] < pos[i + 1]:
                j = i
                break
        if j < 0:
            return changed
        # u <- u . sigma_{j+1}: swap the values j, j+1 inside u
        u[pos[j]] = j + 1
        u[pos[j + 1]] = j
        pos[j], pos[j + 1] = pos[j + 1], pos[j]
        # v <- sigma_{j+1}^-1 . v: swap the entries at j, j+1
        v[j], v[j + 1] = v[j + 1], v[j]
        changed = True


def left_normal_form(n, letters):
    """Return (inf, factors): letters == Delta^inf . factors, left weighted.

    factors is a list of 0-based one-line tuples, each a proper non-trivial
    permutation braid (never the identity, never the half twist Delta).
    """
    letters = list(letters)
    if n == 1 or not letters:
        return 0, []

    # Rewrite each letter as a permutation braid, pulling every Delta^-1
    # from sigma_i^-1 = Delta^-1 . (Delta sigma_i^-1) to the front.  Moving
    # Delta^-1 left past a factor conjugates the factor by the half twist;
    # a factor is flipped once per negative letter strictly after it, so
    # only the parity of that count matters.
    total_neg = sum(1 for k in letters if k < 0)
    p = -total_neg
    neg_after = total_neg
    factors = []
    pos = [0] * n
    ident = list(range(n))
    for k in letters:
        i = abs(k) - 1
        if k < 0:
            neg_after -= 1
            # Delta sigma_i^-1: x -> t_i(n-1-x)
            f = []
            for x in range(n):
                y = n - 1 - x
                if y == i:
                    y = i + 1
                elif y == i + 1:
                    y = i
                f.append(y)
        else:
            f = list(range(n))
            f[i], f[i + 1] = f[i + 1], f[i]
        if neg_after & 1:
            f = _tau(f, n)
        factors.append(f)
        # Right multiplication (Epstein et al., Word Processing in Groups,
        # ch. 9): the factors before f are left weighted, so left-weight
        # backwards from the new pair; once a pair is unchanged, every pair
        # before it still is.  Only the new last factor can become the
        # identity, and Delta factors can only end up at the front.
        t = len(factors) - 2
        while t >= 0 and _left_weight_pair(factors[t], factors[t + 1], pos, n):
            t -= 1
        if factors[-1] == ident:
            factors.pop()

    lead = 0
    while lead < len(factors) and _is_half_twist(factors[lead], n):
        lead += 1
    return p + lead, [tuple(f) for f in factors[lead:]]


def crossing_counts(n, letters):
    """n x n list-of-lists of signed crossing counts between labelled strands.

    Strands are labelled by start position (0-based); entry [p][q] gains the
    sign of each letter that crosses strand p over strand q.
    """
    at = list(range(n))  # position -> strand label
    m = [[0] * n for _ in range(n)]
    for k in letters:
        i = abs(k) - 1
        s = 1 if k > 0 else -1
        a, b = at[i], at[i + 1]
        m[a][b] += s
        m[b][a] += s
        at[i], at[i + 1] = at[i + 1], at[i]
    return m
