"""The four benchmark workloads: seeded inputs, one timed op, and its answer check.

Inputs come in rounds.  ``make_round(rng, k)`` builds round k from an rng
seeded with "<workload>:<seed>:<k>" and from k alone, so inputs never depend
on the code under test.  Each round holds the same mix of sizes and verdict
classes (stratified), so the cost of a round hardly varies between seeds.
Every op calls the package through module attributes, so spans installed by
spans.Tracer see it.

``run(item, tracer)`` returns an Outcome.  ``seconds`` covers only the calls
into chromabraid; answer checks run after the clock stops.  ``tracer`` is set
during a traced run; only paper_replay uses it, because its op runs in a
child process that the in-process tracer cannot see.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Outcome:
    seconds: float       # time inside the program for this op
    equal: bool | None   # verdict, for the split latencies; None: no verdict
    answer: object       # compared between the untraced and traced runs
    ok: bool             # the answer passed every check


def random_letters(rng, n: int, length: int) -> tuple[int, ...]:
    alphabet = [k for s in (1, -1) for k in range(s, s * n, s)]
    return tuple(rng.choice(alphabet) for _ in range(length))


def rewrite(letters, n: int, rng, steps: int, max_len: int) -> tuple[int, ...]:
    """Apply up to ``steps`` rewrites that keep the braid.

    A step is a free insertion (1 in 8), a relator insertion (1 in 8), or at
    a random position the local rewrite that fits there, if any: free
    deletion, far commutation or the braid move.  Insertions are skipped
    when they would make the word longer than max_len.
    """
    w = list(letters)
    for _ in range(steps):
        kind = rng.randrange(8)
        if kind == 0 or len(w) < 2:
            if len(w) + 2 <= max_len:
                k = rng.randint(1, n - 1) * rng.choice((1, -1))
                pos = rng.randint(0, len(w))
                w[pos:pos] = [k, -k]
            continue
        if kind == 1 and n >= 3 and len(w) + 6 <= max_len:
            a = rng.randint(1, n - 2)
            b = a + 1
            if rng.random() < 0.5:
                a, b = b, a
            pos = rng.randint(0, len(w))
            w[pos:pos] = [a, b, a, -b, -a, -b]  # a b a (b a b)^-1
            continue
        i = rng.randrange(len(w) - 1)
        a, b = w[i], w[i + 1]
        if a == -b:
            del w[i:i + 2]
        elif abs(abs(a) - abs(b)) >= 2:
            w[i], w[i + 1] = b, a
        elif (i + 2 < len(w) and w[i + 2] == a and (a > 0) == (b > 0)
              and abs(abs(a) - abs(b)) == 1):
            w[i:i + 3] = [b, a, b]
    return tuple(w)


class OracleXval:
    """Both equality oracles on one pair, n in 2..6, words of at most 20 letters."""

    name = "oracle_xval"
    in_process = True

    def __init__(self, root: Path):
        from chromabraid import garside
        from chromabraid.words import BraidWord

        self.garside, self.BraidWord = garside, BraidWord

    # Irrational steps of four Kronecker sequences in the round index, one per
    # size drawn per round.  The LK oracle's cost is set by n and the word
    # lengths alone, so drawing the lengths from the index, not the seed,
    # gives every seed's run about the same cost.
    steps = (0.6180339887498949, 0.4142135623730951, 0.7548776662466927, 0.5698402909980532)

    def make_round(self, rng, index: int) -> list:
        # u and v lengths uniform over 0..20, base length over 0..12 and
        # rewrite steps over 1..6, as index runs; the seed only sets letters
        u_pos, v_pos, base_pos, step_pos = ((index * a + 0.5) % 1.0 for a in self.steps)
        items = []
        for n in range(2, 7):
            u = random_letters(rng, n, int(21 * u_pos))
            v = random_letters(rng, n, int(21 * v_pos))
            items.append((n, u, v, None))
            base = random_letters(rng, n, int(13 * base_pos))
            items.append((n, base, rewrite(base, n, rng, 1 + int(6 * step_pos), 20), True))
        rng.shuffle(items)
        return items

    def run(self, item, tracer=None) -> Outcome:
        n, u_letters, v_letters, expect_equal = item
        u, v = self.BraidWord(n, u_letters), self.BraidWord(n, v_letters)
        start = time.perf_counter()
        garside_equal = self.garside.equal_in_Bn(u, v)
        lk_equal = self.garside.equal_via_representation(u, v)
        seconds = time.perf_counter() - start
        ok = garside_equal == lk_equal and (expect_equal is None or garside_equal)
        return Outcome(seconds, garside_equal, (garside_equal, lk_equal), ok)


class LongWords:
    """One equal_in_Bn on n=8 words of about 48 to 256 letters (base length)."""

    name = "long_words"
    in_process = True
    strands = 8
    shortest, longest, strata = 48, 256, 4

    def __init__(self, root: Path):
        from chromabraid import _kernel, garside, words

        self.garside, self.BraidWord = garside, words.BraidWord
        # kept before any tracer is installed, so the checks stay untraced
        self.perm_of = words.perm_of
        self.active_nf = _kernel._impl.left_normal_form
        other_name = ("chromabraid._garside_py" if _kernel.KERNEL == "compiled"
                      else "chromabraid._garside_cy")
        try:
            self.other_nf = importlib.import_module(other_name).left_normal_form
            self.lane_check = f"{_kernel.KERNEL} lane checked against {other_name}"
        except ImportError as exc:
            self.other_nf = None
            self.lane_check = f"skipped: {other_name} does not import ({exc})"

    def _length(self, position: float) -> int:
        # log-uniform over [shortest, longest]: position 0 -> shortest, 1 -> longest
        return round(self.shortest * (self.longest / self.shortest) ** position)

    def make_round(self, rng, index: int) -> list:
        # The lengths follow a low-discrepancy sequence in the round index, the
        # same for every seed, so the seed only changes the letters.
        offset = (index * 0.6180339887498949) % 1.0
        n, items = self.strands, []
        for stratum in range(self.strata):
            length = self._length((stratum + offset) / self.strata)
            items.append((random_letters(rng, n, length), random_letters(rng, n, length), None))
            base = random_letters(rng, n, self._length((stratum + (offset + 0.5) % 1.0) / self.strata))
            derived = rewrite(base, n, rng, len(base) // 4, 2 * len(base))
            items.append((base, derived, True))
        rng.shuffle(items)
        return items

    def _lanes_agree(self, letters) -> bool:
        def canonical(result):
            p, factors = result
            return p, [tuple(f) for f in factors]

        return (canonical(self.active_nf(self.strands, letters))
                == canonical(self.other_nf(self.strands, letters)))

    def run(self, item, tracer=None) -> Outcome:
        u_letters, v_letters, expect_equal = item
        u = self.BraidWord(self.strands, u_letters)
        v = self.BraidWord(self.strands, v_letters)
        start = time.perf_counter()
        equal = self.garside.equal_in_Bn(u, v)
        seconds = time.perf_counter() - start
        ok = (expect_equal is None or equal) and not (
            equal and self.perm_of(u) != self.perm_of(v))
        if self.other_nf is not None:
            ok = ok and self._lanes_agree(u_letters) and self._lanes_agree(v_letters)
        return Outcome(seconds, equal, equal, ok)


class CyclicGroup:
    """The twisted-product model on cycles n in 4..12: homomorphism and inverse checks."""

    name = "cyclic_group"
    in_process = True

    def __init__(self, root: Path):
        from chromabraid import extension
        from chromabraid.words import BraidWord, concat, inverse, psi_a_word, psi_b_word, s_word

        self.extension, self.concat, self.BraidWord = extension, concat, BraidWord
        self.pieces, self.nontrivial = {}, {}
        for n in range(4, 13):
            # admissible: band generators of every pair (non-edges vanish in
            # B(C_n)) and the rotation and reflection lifts, with inverses
            bands = [s_word(i, j, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            lifts = [psi_a_word(n), psi_b_word(n)]
            pieces = bands + lifts
            self.pieces[n] = pieces + [inverse(p) for p in pieces]
            # elements that are not the identity: edge bands and the lifts
            edges = [s_word(i, i + 1, n) for i in range(1, n)] + [s_word(1, n, n)]
            nontrivial = edges + lifts
            self.nontrivial[n] = nontrivial + [inverse(p) for p in nontrivial]

    def _admissible(self, rng, n: int):
        w = self.BraidWord(n)
        for _ in range(rng.randint(1, 4)):
            w = self.concat(w, rng.choice(self.pieces[n]))
        return w

    def make_round(self, rng, index: int) -> list:
        items = []
        for n in range(4, 13):
            for expect_equal in (True, False):
                u, w = self._admissible(rng, n), self._admissible(rng, n)
                uw = self.concat(u, w)
                if not expect_equal:
                    # to_element(uw g) = to_element(uw) to_element(g) != to_element(uw)
                    uw = self.concat(uw, rng.choice(self.nontrivial[n]))
                items.append((n, u, w, uw, expect_equal))
        rng.shuffle(items)
        return items

    def run(self, item, tracer=None) -> Outcome:
        n, u, w, uw, expect_equal = item
        ext = self.extension
        start = time.perf_counter()
        x, y, z = ext.to_element(u, n), ext.to_element(w, n), ext.to_element(uw, n)
        product = ext.mul(x, y)
        equal = z == product
        identity = ext.mul(x, ext.inv(x)).is_identity()
        seconds = time.perf_counter() - start
        ok = equal == expect_equal and identity
        return Outcome(seconds, equal, (z, product, identity), ok)


class PaperReplay:
    """One `python -m chromabraid verify-paper --max-n 12` process, one at a time."""

    name = "paper_replay"
    in_process = False
    args = ("verify-paper", "--max-n", "12")
    # stdout of the command when this benchmark was written: 3,991 PASS lines
    expected_lines = 3991
    expected_sha256 = "6365ac32775758e57c9d1913f23938c5dd46ffc3bb725b302b887d663c7d5aa5"
    timeout_s = 170

    def __init__(self, root: Path):
        self.root = root
        self.env = child_env(root)

    def make_round(self, rng, index: int) -> list:
        return [self.args]  # no seeded input: the command is the workload

    def run(self, item, tracer=None) -> Outcome:
        if tracer is None:
            cmd = [sys.executable, "-m", "chromabraid", *item]
        else:
            cmd = [sys.executable, str(self.root / "perfbench" / "traced_cli.py"), *item]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=self.timeout_s)
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(proc.stdout).hexdigest()
        lines = proc.stdout.decode("utf-8", "replace").splitlines()
        ok = (proc.returncode == 0 and len(lines) == self.expected_lines
              and all(line.split()[1:2] == ["PASS"] for line in lines)
              and digest == self.expected_sha256)
        if not ok:
            print(f"paper_replay: exit {proc.returncode}, {len(lines)} lines, sha256 {digest}; "
                  f"stderr tail: {proc.stderr.decode('utf-8', 'replace')[-300:]!r}",
                  file=sys.stderr)
        if tracer is not None and proc.returncode in (0, 1):
            state = json.loads(proc.stderr.decode().splitlines()[-1])
            tracer.merge(state)
            report_busy = state["spans"]["verify.full_paper_report"][1]
            tracer.samples["cli.process_overhead_s"].append(seconds - report_busy)
        return Outcome(seconds, None, digest, ok)


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the package from src/, as in Tier-1."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {cls.name: cls for cls in (PaperReplay, OracleXval, LongWords, CyclicGroup)}
