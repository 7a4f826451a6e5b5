"""Fidelity of the exact representation oracle."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import chromabraid
from chromabraid import lkrep
from chromabraid.errors import (
    ChromabraidError,
    IndexRangeError,
    ResourceLimitError,
    StrandMismatchError,
)
from chromabraid.garside import equal_in_Bn
from chromabraid.lkrep import equal_via_representation, lk_matrix
from chromabraid.words import BraidWord, concat, inverse

from braid_helpers import power


class TestDefiningRelations:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_braid_relation(self, n):
        for i in range(1, n - 1):
            u = BraidWord(n, (i, i + 1, i))
            v = BraidWord(n, (i + 1, i, i + 1))
            assert equal_via_representation(u, v)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_far_commutation(self, n):
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                assert equal_via_representation(
                    BraidWord(n, (i, j)), BraidWord(n, (j, i))
                )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inverses(self, n):
        trivial = BraidWord(n)
        for i in range(1, n):
            assert equal_via_representation(BraidWord(n, (i, -i)), trivial)
            assert equal_via_representation(BraidWord(n, (-i, i)), trivial)

    def test_one_strand(self):
        # B_1 is trivial: the only word is empty, its matrix 0 x 0
        u, v = BraidWord(1), BraidWord(1)
        assert equal_via_representation(u, v) is True
        assert equal_via_representation(u, v) == equal_in_Bn(u, v)


class TestSeparation:
    def test_distinguishes_generators(self):
        assert not equal_via_representation(BraidWord(4, (1,)), BraidWord(4, (2,)))

    def test_distinguishes_pure_words(self):
        assert not equal_via_representation(BraidWord(3, (1, 1)), BraidWord(3))
        assert not equal_via_representation(BraidWord(3, (1, 1)), BraidWord(3, (2, 2)))

    def test_b2_exponent_sum(self):
        assert equal_via_representation(
            BraidWord(2, (1, 1, -1)), BraidWord(2, (1,))
        )
        assert not equal_via_representation(BraidWord(2, (1, 1)), BraidWord(2, (1,)))


class TestWindows:
    def test_budget_validation(self):
        # refused by name: a budget below the length otherwise fails later
        # with another ValueError, or packs a wrong matrix
        with pytest.raises(IndexRangeError, match="^length budget 2 below the word's 3 letters$"):
            lk_matrix(BraidWord(3, (1, 2, 1)), length_budget=2)

    def test_one_strand_matrix_is_refused(self):
        # B_1 has no basis vectors; without the check lk_matrix returns an
        # empty array
        with pytest.raises(StrandMismatchError, match="^representation needs at least 2 strands$"):
            lk_matrix(BraidWord(1))

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatchError):
            equal_via_representation(BraidWord(3), BraidWord(4))

    def test_identity_matrix_shape(self):
        m = lk_matrix(BraidWord(4), length_budget=1)
        assert m.shape == (6, 6, 5, 3)
        assert m[0, 0, 2, 1] == 1
        assert np.array_equal(lk_matrix(BraidWord(4)), m)  # the default budget is 1

    def test_object_dtype_path_agrees(self):
        # past the int64 length threshold the object-dtype lane must give
        # identical verdicts; a 24-letter trivial word forces that lane
        w = power(BraidWord(3, (1, 2, -1, -2)), 6)
        assert len(w.letters) == 24
        assert lk_matrix(w).dtype == object
        assert not equal_via_representation(w, BraidWord(3))
        unwound = concat(w, inverse(w))
        assert equal_via_representation(unwound, BraidWord(3))

    def test_dtype_threshold(self):
        short = lk_matrix(BraidWord(3, (1,) * 22))
        assert short.dtype == np.int64

    def test_digits_wider_than_64_bits(self):
        # budget 26 packs 63-bit digits, read in uint64 lanes; budget 27
        # packs 65-bit digits, read as Python ints
        w = BraidWord(3, (1, 2) * 13)
        narrow, wide = lk_matrix(w, length_budget=26), lk_matrix(w, length_budget=27)
        assert np.array_equal(narrow, wide[..., 2:107, 1:54])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize(
        "letters", [(1,) * 22, (-1,) * 22, (1, 2) * 11, (1, -2) * 11]
    )
    def test_int64_bound_is_exact(self, n, letters):
        # the longest int64 word must match the exact object-dtype matrix,
        # whose one-letter-wider window is centred on the same origin
        w = BraidWord(n, letters)
        narrow, wide = lk_matrix(w, length_budget=22), lk_matrix(w, length_budget=23)
        assert narrow.dtype == np.int64 and wide.dtype == object
        assert np.array_equal(narrow, wide[..., 2:91, 1:46])
        assert np.abs(wide).max() < 2**63


class TestResourceLimit:
    def test_large_equal_pair_is_refused_quickly(self):
        # n=8 and 100 positive letters, which have no inverse pair to cancel:
        # the two packed matrices could take about 3.7 GB, so the exact stage
        # refuses before building them
        rng = random.Random(8)
        letters = tuple(rng.randint(1, 7) for _ in range(97))
        u = BraidWord(8, letters[:50] + (1, 2, 1) + letters[50:])
        v = BraidWord(8, letters[:50] + (2, 1, 2) + letters[50:])
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=(
            "^exact LK matrices for 8 strands and 100 letters could take 3540 MiB,"
            " over the 256 MiB limit$"
        )):
            equal_via_representation(u, v)
        assert time.perf_counter() - start < 1.0
        assert isinstance(ResourceLimitError("x"), ChromabraidError)

    def test_pair_over_the_limit_only_as_whole_words_is_answered(self):
        # 123 letters on 4 strands, over the limit's 116 as whole words; the
        # 50 inserted inverse pairs cancel, and the 23 letters left fit
        rng = random.Random(10)
        base = tuple(rng.randint(1, 3) for _ in range(20))
        padded = list(base[:10] + (1, 2, 1) + base[10:])
        for _ in range(50):
            a = rng.choice((1, -1)) * rng.randint(1, 3)
            pos = rng.randint(0, len(padded))
            padded[pos:pos] = [a, -a]
        u = BraidWord(4, tuple(padded))
        v = BraidWord(4, base[:10] + (2, 1, 2) + base[10:])
        assert len(u) == 123
        bits, row, _ = lkrep._layout(len(u))
        assert 2 * 6**2 * bits * row * (2 * len(u) + 1) > lkrep._PACKED_LIMIT_BITS
        assert equal_via_representation(u, v)
        assert equal_via_representation(v, u)

    def test_distinct_pairs_are_still_answered(self):
        rng = random.Random(9)
        u = BraidWord(8, tuple(rng.choice((1, -1)) * rng.randint(1, 7) for _ in range(100)))
        assert not equal_via_representation(u, BraidWord(8, u.letters + (1,)))

    def test_pair_at_the_limit_is_answered(self, monkeypatch):
        # the braid relation on 3 strands: m = 3 columns, budget B = 3 and
        # 9-bit digits, so the two packed matrices could take
        # 2 m^2 * 9 * (4B+1)(2B+1) bits; a real pair near the 2^31 bits
        # (256 MiB) of the limit would be too slow for this suite
        u, v = BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))
        size = 2 * 3**2 * 9 * 13 * 7
        monkeypatch.setattr(lkrep, "_PACKED_LIMIT_BITS", size)
        assert equal_via_representation(u, v)
        monkeypatch.setattr(lkrep, "_PACKED_LIMIT_BITS", size - 1)
        with pytest.raises(ResourceLimitError, match="exact LK matrices for 3 strands and 3 letters"):
            equal_via_representation(u, v)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_criterion_8_sizes_are_allowed(self, n):
        # criterion 8 compares words of at most 20 letters on n <= 6 strands
        letters = tuple((k % (n - 1)) + 1 for k in range(18))
        w = BraidWord(n, letters)
        assert equal_via_representation(w, BraidWord(n, letters[:9] + (1, -1) + letters[9:]))


class TestLazyNumpy:
    def test_numpy_loads_only_for_the_exact_stage(self):
        # a fresh interpreter: import, fill the caches the certificate and the
        # extension layer use, run the extension layer, then one EQUAL pair
        # through the packed exact stage, which needs no numpy
        script = """
import sys
import chromabraid
from chromabraid import extension, garside, lkrep
from chromabraid.words import BraidWord, psi_a_word, s_word
extension.compute_cocycle(5)
lkrep._column_rules(4, 1)
x = extension.to_element(psi_a_word(6), 6)
y = extension.to_element(s_word(1, 2, 6), 6)
print(extension.mul(x, extension.inv(x)).is_identity(), extension.mul(x, y))
print('numpy' in sys.modules)
print(garside.equal_via_representation(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))))
print('numpy' in sys.modules)
"""
        src = str(Path(chromabraid.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "True [0,1,0,0,0,0|2,3,4,5,6,1]", "False", "True", "False"
        ]
