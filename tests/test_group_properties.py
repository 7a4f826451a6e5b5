"""Property tests: to_element is a homomorphism onto the twisted product, the
word, Garside, chromatic and extension layers, presentations, reports and
lk_matrix answer malformed input only with a ChromabraidError, and the
Garside normal form is invariant under free cancellation and braid
relations."""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from chromabraid.chromatic import (  # noqa: E402
    ChromaticElement,
    EdgeVector,
    edge_lk,
    i_star,
    normal_form_in_BGamma,
    phi,
    section,
)
from chromabraid.errors import ChromabraidError  # noqa: E402
from chromabraid.extension import (  # noqa: E402
    MAX_CYCLE_ORDER,
    compute_cocycle,
    inv,
    mul,
    to_element,
    verify_final_proposition,
)
from chromabraid.garside import NormalForm, equal_in_Bn, normal_form  # noqa: E402
from chromabraid.graphs import DihedralElement, complete, cycle, from_edge_list, path  # noqa: E402
from chromabraid.lkrep import equal_via_representation, lk_matrix  # noqa: E402
from chromabraid.presentations import Presentation, format_presentation, substitute  # noqa: E402
from chromabraid.report import CheckLine, Report  # noqa: E402
from chromabraid.words import (  # noqa: E402
    BraidWord,
    Permutation,
    a_word,
    concat,
    e_word,
    inverse,
    parse_word,
    psi_a_word,
    psi_b_word,
    s_word,
)


@lru_cache(maxsize=None)
def admissible_pieces(n):
    """Band generators of every pair (non-edges vanish in B(C_n)), and the
    rotation and reflection lifts, each with their inverses."""
    bands = [s_word(i, j, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    lifts = [psi_a_word(n), psi_b_word(n)]
    return tuple(bands + [inverse(p) for p in bands]), tuple(lifts + [inverse(p) for p in lifts])


@st.composite
def admissible_pairs(draw):
    n = draw(st.integers(4, 12))
    bands, lifts = admissible_pieces(n)
    # lifts as often as bands, so that most products are twisted
    piece = st.one_of(st.sampled_from(bands), st.sampled_from(lifts))
    u, w = BraidWord(n), BraidWord(n)
    for p in draw(st.lists(piece, max_size=4)):
        u = concat(u, p)
    for p in draw(st.lists(piece, max_size=4)):
        w = concat(w, p)
    return n, u, w


def signed_letters(n, max_len):
    return st.lists(
        st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        max_size=max_len,
    ).map(tuple)


@st.composite
def split_words(draw, min_n=2, max_n=8, max_len=20):
    """n and a word on n strands cut into a prefix and a suffix."""
    n = draw(st.integers(min_n, max_n))
    letters = draw(signed_letters(n, max_len))
    cut = draw(st.integers(0, len(letters)))
    return n, letters[:cut], letters[cut:]


@given(admissible_pairs())
def test_to_element_is_a_homomorphism(case):
    n, u, w = case
    x, y = to_element(u, n), to_element(w, n)
    assert to_element(concat(u, w), n) == mul(x, y)


@given(admissible_pairs())
def test_inv_is_a_two_sided_inverse(case):
    n, u, _ = case
    x = to_element(u, n)
    assert mul(x, inv(x)).is_identity()
    assert mul(inv(x), x).is_identity()
    assert inv(x) == to_element(inverse(u), n)


@given(split_words())
def test_word_times_inverse_is_trivial(case):
    n, prefix, suffix = case
    w = BraidWord(n, prefix + suffix)
    assert normal_form(concat(w, inverse(w))) == NormalForm(n, 0, ())


@given(split_words(), st.data())
def test_free_insertion(case, data):
    n, prefix, suffix = case
    a = data.draw(st.integers(1, n - 1)) * data.draw(st.sampled_from((1, -1)))
    assert normal_form(BraidWord(n, prefix + (a, -a) + suffix)) == normal_form(
        BraidWord(n, prefix + suffix)
    )


@given(split_words(min_n=3), st.data())
def test_braid_relation_rewrite(case, data):
    # sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1}, or its inverse
    n, prefix, suffix = case
    i = data.draw(st.integers(1, n - 2))
    e = data.draw(st.sampled_from((1, -1)))
    a, b = e * i, e * (i + 1)
    assert normal_form(BraidWord(n, prefix + (a, b, a) + suffix)) == normal_form(
        BraidWord(n, prefix + (b, a, b) + suffix)
    )


@given(split_words(min_n=4), st.data())
def test_far_commutation_rewrite(case, data):
    # sigma_i^d sigma_j^e = sigma_j^e sigma_i^d for |i - j| >= 2
    n, prefix, suffix = case
    i = data.draw(st.integers(1, n - 3))
    j = data.draw(st.integers(i + 2, n - 1))
    a = i * data.draw(st.sampled_from((1, -1)))
    b = j * data.draw(st.sampled_from((1, -1)))
    assert normal_form(BraidWord(n, prefix + (a, b) + suffix)) == normal_form(
        BraidWord(n, prefix + (b, a) + suffix)
    )


# strand counts -1..16 and orders above the cycle-order limit
orders = st.one_of(
    st.integers(-1, 16), st.sampled_from((MAX_CYCLE_ORDER + 1, 40, 1000))
)


@st.composite
def operands(draw):
    """Elements over a cycle (its dihedral group acting, an order above the
    limit included) or over a path (the identity or the reversal)."""
    if draw(st.booleans()):
        n = draw(st.one_of(st.integers(3, 16), st.just(MAX_CYCLE_ORDER + 1)))
        G = cycle(n)
        aut = draw(st.sampled_from(DihedralElement.all_elements(n))).to_perm()
    else:
        n = draw(st.integers(1, 16))
        G = path(n)
        reversed_ = draw(st.booleans())
        aut = Permutation(tuple(range(n, 0, -1)) if reversed_ else tuple(range(1, n + 1)))
    coords = draw(st.lists(st.integers(-3, 3), min_size=len(G.edges), max_size=len(G.edges)))
    return ChromaticElement(EdgeVector(G, tuple(coords)), aut)


@st.composite
def words_and_orders(draw):
    """A word on 1..16 strands and an order that may not match it."""
    k = draw(st.integers(1, 16))
    w = BraidWord(k, draw(signed_letters(k, 6))) if k > 1 else BraidWord(k)
    return w, draw(st.one_of(orders, st.just(k)))


@given(
    st.sampled_from(("to_element", "mul", "inv", "compute_cocycle", "verify")),
    words_and_orders(),
    operands(),
    operands(),
    orders,
)
def test_extension_errors_are_domain_errors(call, word_order, x, y, n):
    # malformed input returns or raises a ChromabraidError: never a
    # KeyError, IndexError or TypeError from a table miss or a bad size
    w, k = word_order
    calls = {
        "to_element": lambda: to_element(w, k),
        "mul": lambda: mul(x, y),
        "inv": lambda: inv(x),
        "compute_cocycle": lambda: compute_cocycle(n),
        "verify": lambda: verify_final_proposition(n),
    }
    try:
        calls[call]()
    except ChromabraidError:
        pass


generator_names = st.sampled_from(("x", "y", "z"))
# tokens with exponents other than +-1, over names a table may lack
relators = st.lists(st.tuples(generator_names, st.integers(-2, 2)), max_size=4).map(tuple)
# report fields, empty or with whitespace among them
fields = st.text(alphabet="ab \t", max_size=3)


@st.composite
def tables(draw):
    """n and a generator table on n strands over some of the names."""
    n = draw(st.integers(2, 4))
    names = draw(st.sets(generator_names))
    return n, {name: BraidWord(n, draw(signed_letters(n, 3))) for name in sorted(names)}


@st.composite
def words_and_budgets(draw):
    """A word on 1..4 strands and a length budget that may be below its length."""
    n = draw(st.integers(1, 4))
    w = BraidWord(n, draw(signed_letters(n, 4))) if n > 1 else BraidWord(n)
    return w, draw(st.integers(-1, len(w.letters) + 1))


@given(
    st.sampled_from(("presentation", "format", "check_line", "substitute", "report", "lk_matrix")),
    st.lists(generator_names, max_size=3).map(tuple),
    st.lists(relators, max_size=3).map(tuple),
    st.sampled_from(("plain", "algebra-system", "gap", "")),
    st.tuples(fields, fields, fields),
    tables(),
    words_and_budgets(),
)
def test_presentation_and_report_errors_are_domain_errors(
    call, generators, rels, dialect, line, table, word_budget
):
    # malformed input returns or raises a ChromabraidError: never the bare
    # ValueError or KeyError of a duplicate or missing name, a bad exponent,
    # dialect or report field, or a budget below the word's length
    n, words = table
    w, budget = word_budget
    calls = {
        "presentation": lambda: Presentation(generators, rels),
        "format": lambda: format_presentation(Presentation(("x",), ((("x", 1),),)), dialect),
        "check_line": lambda: CheckLine(line[0], True, line[1], line[2]),
        "substitute": lambda: [substitute(rel, words, n) for rel in rels],
        "report": lambda: Report.substituting(
            [(f"r{k}", rel, ()) for k, rel in enumerate(rels)], words, n, normal_form
        ),
        "lk_matrix": lambda: lk_matrix(w, length_budget=budget),
    }
    try:
        calls[call]()
    except ChromabraidError:
        pass


# strand counts -1..1,001 (the cap is 1,000), most of them small enough to
# match a graph, and a float equal to a valid one
strand_counts = st.one_of(st.integers(-1, 9), st.integers(-1, 1001), st.just(3.0))
# the LK oracle takes seconds on hundreds of strands, so it draws few; 1,001
# is refused when the words are built
lk_strand_counts = st.one_of(st.integers(-1, 6), st.just(1001), st.just(3.0))


@st.composite
def raw_words(draw, counts=strand_counts):
    """A strand count n and up to four letters, valid ones on n strands or
    ones that are not: 0, +-n, 1.0 and "1"."""
    n = draw(counts)
    bad = st.sampled_from((0, n, -n, 1.0, "1"))
    k = int(n)
    good = st.integers(1, k - 1).flatmap(lambda a: st.sampled_from((a, -a))) if k > 1 else bad
    # most words are valid, so that the calls run past the constructor
    letter = st.one_of(good, good, good, bad)
    return n, tuple(draw(st.lists(letter, max_size=4)))


# graphs on 1..7 vertices of every class normal_form_in_BGamma tells apart:
# triangle-free (cycles and paths), complete, and a triangle plus a non-edge
graphs = st.one_of(
    st.integers(3, 7).map(cycle),
    st.integers(1, 7).map(path),
    st.integers(1, 5).map(complete),
    st.just(from_edge_list(4, [(1, 2), (2, 3), (1, 3)])),
)

# permutation images of 1..7 points, most not automorphisms of the graph
# drawn with them, some of another size, and ones with a float equal to 1;
# DihedralElement reads the first value as its rotation
images = st.one_of(
    st.integers(1, 7).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple),
    st.sampled_from(((1.0, 2), (2, 1.0, 3))),
)

# vertex indices for the word families: some out of range, and floats that
# pass the range test but are not vertices
indices = st.one_of(st.integers(-1, 5), st.sampled_from((1.5, 2.0)))


@given(
    st.sampled_from((
        "BraidWord", "parse_word", "a_word", "s_word", "e_word",
        "normal_form", "equal_in_Bn", "equal_via_representation", "i_star",
        "phi", "section", "edge_lk", "normal_form_in_BGamma", "DihedralElement",
    )),
    raw_words(),
    raw_words(),
    raw_words(lk_strand_counts),
    raw_words(lk_strand_counts),
    graphs,
    images,
    st.tuples(indices, indices),
    st.booleans(),
    st.one_of(st.integers(-1, 8), st.just(4.0)),
)
def test_word_garside_and_chromatic_errors_are_domain_errors(
    call, word, other, lk_word, lk_other, G, image, ij, reflect, order
):
    # malformed input returns or raises a ChromabraidError: never the
    # TypeError of a float letter, strand count or permutation value, nor
    # an IndexError of a letter read as a list index
    (n, letters), (m, others) = word, other
    i, j = ij
    calls = {
        "BraidWord": lambda: BraidWord(n, letters),
        "parse_word": lambda: parse_word(" ".join(map(str, letters)), n),
        "a_word": lambda: a_word(i, j, n),
        "s_word": lambda: s_word(i, j, n),
        "e_word": lambda: e_word(i, j, n),
        "normal_form": lambda: normal_form(BraidWord(n, letters)),
        "equal_in_Bn": lambda: equal_in_Bn(BraidWord(n, letters), BraidWord(m, others)),
        "equal_via_representation": lambda: equal_via_representation(
            BraidWord(*lk_word), BraidWord(*lk_other)
        ),
        "i_star": lambda: i_star(BraidWord(n, letters), G),
        "phi": lambda: phi(BraidWord(n, letters), G),
        "section": lambda: section(Permutation(image), G),
        "edge_lk": lambda: edge_lk(BraidWord(n, letters), G),
        "normal_form_in_BGamma": lambda: normal_form_in_BGamma(BraidWord(n, letters), G),
        "DihedralElement": lambda: DihedralElement(order, image[0], reflect).to_perm(),
    }
    try:
        calls[call]()
    except ChromabraidError:
        pass
