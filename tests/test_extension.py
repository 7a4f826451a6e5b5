"""The twisted-product model of B(C_n): cocycle, group laws, exact sequence."""

import hashlib
import random
import re
from itertools import product

import pytest

from chromabraid.chromatic import ChromaticElement, EdgeVector, unit_vector, zero_vector
from chromabraid.errors import IndexRangeError, StrandMismatchError
from chromabraid.extension import (
    _act,
    compute_cocycle,
    inv,
    mul,
    to_element,
    verify_final_proposition,
)
from chromabraid.graphs import DihedralElement, cycle, path
from chromabraid.presentations import (
    cyclic_braid_presentation,
    format_presentation,
    substitute,
)
from chromabraid.words import (
    BraidWord,
    Permutation,
    concat,
    inverse,
    power,
    psi_a_word,
    psi_b_word,
    s_word,
)


def small_elements(n, rng, count):
    auts = DihedralElement.all_elements(n)
    out = []
    for _ in range(count):
        coords = tuple(rng.randint(-2, 2) for _ in range(n))
        out.append(
            ChromaticElement(EdgeVector(cycle(n), coords), rng.choice(auts).to_perm())
        )
    return out


def identity(n):
    return to_element(BraidWord(n), n)


def dihedral(x):
    return DihedralElement.from_perm(x.aut.size, x.aut)


def pure_kernel_element(n, coords):
    """Element with trivial automorphism and the given edge vector, built as a word."""
    word = BraidWord(n)
    for (i, j), c in zip(cycle(n).edges_sorted(), coords):
        word = concat(word, power(s_word(i, j, n), c))
    return to_element(word, n)


class TestCocycle:
    def test_normalized(self):
        for n in (4, 5):
            c = compute_cocycle(n)
            e = DihedralElement.identity(n)
            for g in DihedralElement.all_elements(n):
                assert c[e, g].is_zero()
                assert c[g, e].is_zero()

    def test_rotation_telescope(self):
        # psi(a)^n carries one full twist around the cycle: summing the
        # cocycle along the power telescope gives the all-ones vector.
        for n in (4, 5, 6, 7):
            G = cycle(n)
            c = compute_cocycle(n)
            a = DihedralElement(n, 1, False)
            total = zero_vector(G)
            g = DihedralElement.identity(n)
            for _ in range(n):
                total = total + c[g, a]
                g = g * a
            assert total.coords == (1,) * n

    def test_reflection_square_even(self):
        c = compute_cocycle(4)
        b = DihedralElement(4, 0, True)
        assert c[b, b].is_zero()

    def test_reflection_square_odd(self):
        c = compute_cocycle(5)
        b = DihedralElement(5, 0, True)
        assert c[b, b] == unit_vector(cycle(5), 3, 4)

    def test_cocycle_condition_exhaustive(self):
        for n in (4, 5):
            c = compute_cocycle(n)
            elements = DihedralElement.all_elements(n)
            for g1, g2, g3 in product(elements, repeat=3):
                lhs = _act(g1.to_perm(), c[g2, g3]) + c[g1, g2 * g3]
                rhs = c[g1, g2] + c[g1 * g2, g3]
                assert lhs == rhs

    def test_range(self):
        with pytest.raises(IndexRangeError):
            compute_cocycle(3)

    def test_table_is_read_only(self):
        # the cached table is shared by every caller, so a write must not land
        x = to_element(psi_a_word(5), 5)
        a = DihedralElement.from_perm(5, x.aut)
        with pytest.raises(TypeError):
            compute_cocycle(5)[a, a] = unit_vector(cycle(5), 1, 2)
        assert str(mul(x, x)) == "[0,0,0,0,0|3,4,5,1,2]"


class TestGroupLaws:
    def test_identity(self):
        e = identity(5)
        assert e.is_identity()
        rng = random.Random(2)
        for x in small_elements(5, rng, 30):
            assert mul(x, e) == x
            assert mul(e, x) == x

    def test_inverse(self):
        rng = random.Random(3)
        for n in (4, 5, 6):
            for x in small_elements(n, rng, 40):
                assert mul(x, inv(x)).is_identity()
                assert mul(inv(x), x).is_identity()

    def test_associativity(self):
        rng = random.Random(4)
        for n in (4, 5):
            xs = small_elements(n, rng, 12)
            for _ in range(150):
                x, y, z = rng.choice(xs), rng.choice(xs), rng.choice(xs)
                assert mul(mul(x, y), z) == mul(x, mul(y, z))

    def test_dihedral_projection_is_homomorphic(self):
        rng = random.Random(5)
        for x in small_elements(6, rng, 20):
            for y in small_elements(6, rng, 3):
                assert dihedral(mul(x, y)) == dihedral(x) * dihedral(y)

    def test_order_mismatch(self):
        with pytest.raises(StrandMismatchError):
            mul(identity(4), identity(5))
        with pytest.raises(StrandMismatchError):
            mul(identity(5), identity(4))

    def test_rejects_element_over_path(self):
        # the reversal is an automorphism of path(5) and also a dihedral
        # permutation of cycle(5), so only the graph tells them apart
        x = ChromaticElement(zero_vector(path(5)), Permutation((5, 4, 3, 2, 1)))
        with pytest.raises(StrandMismatchError):
            mul(x, x)
        with pytest.raises(StrandMismatchError):
            mul(identity(5), x)
        with pytest.raises(StrandMismatchError):
            mul(x, identity(5))
        with pytest.raises(StrandMismatchError):
            inv(x)
        # no cycle graph has two vertices
        y = ChromaticElement(zero_vector(path(2)), Permutation.identity(2))
        with pytest.raises(StrandMismatchError):
            mul(y, y)
        with pytest.raises(StrandMismatchError):
            inv(y)

    def test_vector_graph_validation(self):
        with pytest.raises(StrandMismatchError):
            ChromaticElement(zero_vector(cycle(5)), Permutation.identity(4))


class TestToElement:
    def test_identity_word(self):
        assert to_element(BraidWord(4), 4).is_identity()

    def test_edge_band(self):
        x = to_element(s_word(1, 2, 4), 4)
        assert x.vector == unit_vector(cycle(4), 1, 2)
        assert x.aut.is_identity()

    def test_non_edge_band_vanishes(self):
        assert to_element(s_word(1, 3, 5), 5).is_identity()

    def test_psi_words(self):
        for n in (4, 5, 6):
            xa = to_element(psi_a_word(n), n)
            assert xa.vector.is_zero()
            assert dihedral(xa) == DihedralElement(n, 1, False)
            xb = to_element(psi_b_word(n), n)
            assert xb.vector.is_zero()
            assert dihedral(xb) == DihedralElement(n, 0, True)

    def test_reflection_square_example(self):
        assert to_element(power(psi_b_word(4), 2), 4).is_identity()

    def test_mixed_square_example(self):
        x = to_element(power(concat(psi_b_word(4), psi_a_word(4)), 2), 4)
        assert x.vector == unit_vector(cycle(4), 1, 2) + unit_vector(cycle(4), 3, 4)
        assert x.aut.is_identity()

    def test_homomorphism_on_random_words(self):
        # Admissible words: concatenations of edge bands and psi lifts, so
        # every prefix image stays inside the dihedral automorphism group.
        rng = random.Random(6)
        for n in (4, 5):
            pieces = [s_word(i, j, n) for i, j in cycle(n).edges_sorted()]
            pieces += [psi_a_word(n), psi_b_word(n)]
            pieces += [inverse(p) for p in pieces]
            for _ in range(120):
                u = BraidWord(n)
                for _ in range(rng.randint(0, 4)):
                    u = concat(u, rng.choice(pieces))
                w = BraidWord(n)
                for _ in range(rng.randint(0, 4)):
                    w = concat(w, rng.choice(pieces))
                assert to_element(concat(u, w), n) == mul(to_element(u, n), to_element(w, n))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatchError):
            to_element(BraidWord(5), 4)

    def test_small_order(self):
        with pytest.raises(IndexRangeError):
            to_element(BraidWord(3), 3)


class TestExactSequence:
    def test_kernel_realizes_every_vector(self):
        rng = random.Random(8)
        for n in (4, 5, 6):
            for _ in range(25):
                coords = tuple(rng.randint(-3, 3) for _ in range(n))
                x = pure_kernel_element(n, coords)
                assert x.aut.is_identity()
                assert x.vector.coords == coords

    def test_projection_surjective(self):
        from chromabraid.chromatic import dihedral_section_word

        for n in (4, 5, 6, 7):
            images = {
                dihedral(to_element(dihedral_section_word(d), n))
                for d in DihedralElement.all_elements(n)
            }
            assert len(images) == 2 * n

    def test_section_words_are_honest_lifts(self):
        from chromabraid.chromatic import dihedral_section_word

        for n in (4, 5):
            for d in DihedralElement.all_elements(n):
                x = to_element(dihedral_section_word(d), n)
                assert dihedral(x) == d
                assert x.vector.is_zero()


class TestRelatorSatisfaction:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_presentation_holds_in_model(self, n):
        # Substitute the defining generators by their braid words; every
        # relator of the presentation must map to the identity element.
        p = cyclic_braid_presentation(n)
        table = {f"s{i}_{j}": s_word(i, j, n) for i, j in cycle(n).edges_sorted()}
        table["psi_a"] = psi_a_word(n)
        table["psi_b"] = psi_b_word(n)
        for rel in p.relators:
            assert to_element(substitute(rel, table, n), n).is_identity()


class TestVerifyFinalProposition:
    def test_all_pass(self):
        for n in (4, 5, 6):
            report = verify_final_proposition(n)
            assert report.all_passed

    def test_line_counts(self):
        for n in (4, 5, 6, 7):
            report = verify_final_proposition(n)
            assert len(report.lines) == n * (n - 1) // 2 + 2 * n + 3

    def test_line_format(self):
        pattern = re.compile(
            r"^(R1-s\d+_\d+-s\d+_\d+|R2-psi_[ab]-s\d+_\d+|R3-\S+) "
            r"(PASS|FAIL) \[[-\d,]*\|[\d,]+\] \[[-\d,]*\|[\d,]+\]$"
        )
        for line in verify_final_proposition(4).render().splitlines():
            assert pattern.match(line), line

    def test_known_values_n5(self):
        report = verify_final_proposition(5)
        by_id = {line.check_id: line for line in report.lines}
        assert by_id["R3-psi_a^5"].lhs == "[1,1,1,1,1|1,2,3,4,5]"
        assert by_id["R3-psi_b^2"].lhs == "[0,0,0,1,0|1,2,3,4,5]"
        assert by_id["R3-(psi_b.psi_a)^2"].lhs == "[1,0,0,1,1|1,2,3,4,5]"

    def test_range(self):
        with pytest.raises(IndexRangeError):
            verify_final_proposition(3)
        with pytest.raises(IndexRangeError):
            verify_final_proposition(13)


class TestStr:
    def test_render(self):
        x = ChromaticElement(
            unit_vector(cycle(4), 1, 2), DihedralElement(4, 1, False).to_perm()
        )
        assert str(x) == "[1,0,0,0|2,3,4,1]"


class TestByteIdentity:
    """sha256 fingerprints of the relation checks and the printed presentations."""

    def test_verify_final_proposition_lines(self):
        text = "".join(verify_final_proposition(n).render() for n in range(4, 13))
        assert text.count("\n") == 453
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5251c934b2d6f1afb710df4e38813699aa3e066b69a58d6122512f59683dca58"
        )

    def test_cyclic_presentations(self):
        text = "".join(
            format_presentation(cyclic_braid_presentation(n), dialect)
            for n in range(4, 13)
            for dialect in ("plain", "algebra-system")
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6d2a803dcd1bebec5dd4a3ad3cb4bc27cbb22c97c70555e489863409e61d2d74"
        )
