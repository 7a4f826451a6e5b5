"""Hypothesis strategies for braid words, shared by the property-test modules.

Import it only after ``pytest.importorskip("hypothesis")``.
"""

from hypothesis import strategies as st

from chromabraid.words import BraidWord


def letters(n, max_len, min_len=0):
    return st.lists(
        st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        min_size=min_len,
        max_size=max_len,
    ).map(tuple)


@st.composite
def word_pairs(draw, max_n=6, max_len=20):
    n = draw(st.integers(2, max_n))
    return BraidWord(n, draw(letters(n, max_len))), BraidWord(n, draw(letters(n, max_len)))


@st.composite
def rewrite_pairs(draw, max_n=6, max_len=12):
    """A word and a copy changed by free insertions and deletions, far
    commutations, braid moves and inserted braid relators."""
    n = draw(st.integers(2, max_n))
    base = list(draw(letters(n, max_len)))
    w = list(base)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(w)))
        a = draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
        kind = draw(st.sampled_from(("insert", "relator", "local")))
        if kind == "insert" or (kind == "local" and pos + 1 >= len(w)):
            w[pos:pos] = [a, -a]
        elif kind == "relator":
            if abs(a) < n - 1:
                b = abs(a) + 1
                w[pos:pos] = [abs(a), b, abs(a), -b, -abs(a), -b]
        else:
            x, y = w[pos], w[pos + 1]
            if x == -y:
                del w[pos:pos + 2]
            elif abs(abs(x) - abs(y)) >= 2:
                w[pos], w[pos + 1] = y, x
            elif (pos + 2 < len(w) and w[pos + 2] == x and (x > 0) == (y > 0)
                  and abs(abs(x) - abs(y)) == 1):
                w[pos:pos + 3] = [y, x, y]
    return BraidWord(n, tuple(base)), BraidWord(n, tuple(w))
