"""Command-line surface: golden outputs, exit codes, graph file handling."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chromabraid import _kernel, cli
from chromabraid._kernel import MAX_STRANDS
from chromabraid.cli import main, parse_graph_spec, read_graph_file
from chromabraid.errors import GraphInputError, ResourceLimitError
from chromabraid.garside import normal_form
from chromabraid.graphs import cycle, from_edge_list
from chromabraid.verify import MAX_N
from chromabraid.words import BraidWord, parse_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGraphSpecs:
    def test_named_constructors(self):
        assert parse_graph_spec("cycle:5") == cycle(5)
        assert parse_graph_spec("path:3").edges == frozenset({(1, 2), (2, 3)})
        assert len(parse_graph_spec("complete:4").edges) == 6

    def test_file(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("4 2\n1 3\n2 4\n")
        assert parse_graph_spec(str(f)) == from_edge_list(4, [(1, 3), (2, 4)])

    def test_at_escape(self, tmp_path):
        f = tmp_path / "cycle:4"
        f.write_text("3 1\n1 2\n")
        assert parse_graph_spec("@" + str(f)) == from_edge_list(3, [(1, 2)])

    def test_missing_file(self):
        with pytest.raises(GraphInputError):
            parse_graph_spec("/nonexistent/graph.txt")

    def test_bad_header(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("4\n")
        with pytest.raises(GraphInputError):
            read_graph_file(str(f))

    def test_wrong_edge_count(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("4 2\n1 2\n")
        with pytest.raises(GraphInputError):
            read_graph_file(str(f))

    def test_non_integer(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("4 1\n1 x\n")
        with pytest.raises(GraphInputError):
            read_graph_file(str(f))

    def test_blank_lines_ignored(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3 1\n\n1 2\n\n")
        assert read_graph_file(str(f)) == from_edge_list(3, [(1, 2)])


class TestAut:
    def test_cycle4(self, capsys):
        code, out, err = run(capsys, "aut", "cycle:4")
        assert code == 0
        assert err == "|Aut| = 8\n"
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0] == "1 2 3 4"
        assert lines == sorted(lines)

    def test_path3(self, capsys):
        code, out, err = run(capsys, "aut", "path:3")
        assert code == 0
        assert out == "1 2 3\n3 2 1\n"

    def test_graph_file(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("3 1\n1 2\n")
        code, out, err = run(capsys, "aut", str(f))
        assert code == 0
        assert out == "1 2 3\n2 1 3\n"


class TestPresent:
    def test_pure_cycle5_all_commutators(self, capsys):
        code, out, err = run(capsys, "present", "pure", "cycle:5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "generators: s1_2 s1_5 s2_3 s3_4 s4_5"
        assert len(lines) == 11
        for line in lines[1:]:
            x, y, xi, yi = line.split()
            assert xi == f"{x}^-1" and yi == f"{y}^-1"

    def test_artin_plain(self, capsys):
        code, out, err = run(capsys, "present", "artin", "3")
        assert code == 0
        assert out == "generators: s1 s2\ns1 s2 s1 s2^-1 s1^-1 s2^-1\n"

    def test_dihedral_algebra_system(self, capsys):
        code, out, err = run(
            capsys, "present", "dihedral", "4", "--format", "algebra-system"
        )
        assert code == 0
        assert out == (
            'F := FreeGroup( "a", "b" );;\n'
            "rels := [\n"
            "  F.1^4,\n"
            "  F.2^2,\n"
            "  F.2*F.1*F.2*F.1\n"
            "];;\n"
        )

    def test_markoff_count(self, capsys):
        code, out, err = run(capsys, "present", "markoff", "4")
        assert code == 0
        assert len(out.splitlines()) == 12

    def test_cyclic(self, capsys):
        code, out, err = run(capsys, "present", "cyclic", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "generators: s1_2 s1_4 s2_3 s3_4 psi_a psi_b"
        assert len(lines) == 18

    def test_non_integer_argument(self, capsys):
        code, out, err = run(capsys, "present", "artin", "x")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_kind_usage_error(self, capsys):
        code, out, err = run(capsys, "present", "nosuch", "4")
        assert code == 2


class TestEq:
    def test_braid_relation_equal(self, capsys):
        code, out, err = run(capsys, "eq", "1 2 1", "2 1 2", "-n", "3")
        assert code == 0
        assert out == "EQUAL\n"

    def test_distinct(self, capsys):
        code, out, err = run(capsys, "eq", "1", "2", "-n", "3")
        assert code == 1
        assert out == "DISTINCT\n"

    @pytest.mark.parametrize("u, v, n, verdict", [
        ("1 1", "", "3", "DISTINCT"),              # exponent sums differ
        ("1 -2", "2 -1", "3", "DISTINCT"),         # permutations differ
        ("1 2 -2 3", "1 3", "4", "EQUAL"),         # same after free reduction
        ("3 1 2 1 3", "3 2 1 2 3", "4", "EQUAL"),  # middles differ, forms agree
        ("1 1 2 2", "2 2 1 1", "3", "DISTINCT"),   # middles differ, forms differ
    ])
    def test_verdict_is_the_normal_form_comparison(self, capsys, u, v, n, verdict):
        k = int(n)
        same_form = normal_form(parse_word(u, k)) == normal_form(parse_word(v, k))
        assert verdict == ("EQUAL" if same_form else "DISTINCT")
        code, out, err = run(capsys, "eq", u, v, "-n", n)
        assert out == verdict + "\n"
        assert code == (0 if same_form else 1)

    def test_untangling_with_graph(self, capsys):
        word = "2 1 1 -2"
        code, out, err = run(capsys, "eq", word, "", "--graph", "cycle:5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "EQUAL"
        assert lines[1] == "lhs [0,0,0,0,0|1,2,3,4,5]"
        assert lines[2] == "rhs [0,0,0,0,0|1,2,3,4,5]"

    def test_same_words_distinct_without_graph(self, capsys):
        code, out, err = run(capsys, "eq", "2 1 1 -2", "", "-n", "5")
        assert code == 1
        assert out == "DISTINCT\n"

    def test_complete_graph_shows_normal_forms(self, capsys):
        code, out, err = run(capsys, "eq", "1", "1", "--graph", "complete:3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "EQUAL"
        assert lines[1].startswith("lhs D^")
        assert lines[2].startswith("rhs D^")

    def test_path_graph_shows_edge_vectors(self, capsys):
        code, out, err = run(capsys, "eq", "1 1", "", "--graph", "path:3")
        assert code == 1
        assert out == "DISTINCT\nlhs [1,0|1,2,3]\nrhs [0,0|1,2,3]\n"

    def test_out_of_scope_graph(self, capsys, tmp_path):
        f = tmp_path / "triangle4.txt"
        f.write_text("4 3\n1 2\n2 3\n1 3\n")
        code, out, err = run(capsys, "eq", "1", "1", "--graph", str(f))
        assert code == 2
        assert out == ""
        assert err == (
            "error: graph has a 3-circuit but is not complete; "
            "equality is not decided here\n"
        )

    def test_n_and_graph_must_agree(self, capsys):
        code, out, err = run(capsys, "eq", "1", "1", "-n", "5", "--graph", "cycle:4")
        assert code == 2
        assert "disagrees" in err

    def test_missing_strand_count(self, capsys):
        code, out, err = run(capsys, "eq", "1", "1")
        assert code == 2

    def test_letter_out_of_range(self, capsys):
        code, out, err = run(capsys, "eq", "7", "7", "-n", "3")
        assert code == 2
        assert err.startswith("error:")

    def test_negative_letters_parse(self, capsys):
        code, out, err = run(capsys, "eq", "-n", "3", "--", "-1 1", "")
        assert code == 0
        assert out == "EQUAL\n"


class TestInvariants:
    def test_basic(self, capsys):
        code, out, err = run(capsys, "invariants", "1 2", "-n", "3")
        assert code == 0
        assert out == (
            "strands: 3\n"
            "perm: 3 1 2\n"
            "pure: no\n"
            "crossings:\n"
            "0 1 1\n"
            "1 0 0\n"
            "1 0 0\n"
        )

    def test_pure_with_graph(self, capsys):
        code, out, err = run(
            capsys, "invariants", "1 1", "--graph", "cycle:4"
        )
        assert code == 0
        lines = out.splitlines()
        assert "pure: yes" in lines
        assert "edges: 1_2 1_4 2_3 3_4" in lines
        assert "edge_lk: [1,0,0,0]" in lines

    def test_impure_with_graph_omits_vector(self, capsys):
        code, out, err = run(capsys, "invariants", "1", "--graph", "cycle:4")
        assert code == 0
        assert "edge_lk" not in out

    def test_pure_word_on_a_cycle_is_pinned(self, capsys):
        code, out, err = run(
            capsys, "invariants", "1 1 -3 -3 5 4 3 2 1 1 -2 -3 -4 -5 4 4", "--graph", "cycle:6"
        )
        assert (code, err) == (0, "")
        assert out == (
            "strands: 6\n"
            "perm: 1 2 3 4 5 6\n"
            "pure: yes\n"
            "crossings:\n"
            "0 2 0 0 0 2\n"
            "2 0 0 0 0 0\n"
            "0 0 0 -2 0 0\n"
            "0 0 -2 0 2 0\n"
            "0 0 0 2 0 0\n"
            "2 0 0 0 0 0\n"
            "edges: 1_2 1_6 2_3 3_4 4_5 5_6\n"
            "edge_lk: [1,1,0,-1,1,0]\n"
        )

    def test_impure_word_on_a_cycle_is_pinned(self, capsys):
        code, out, err = run(capsys, "invariants", "1 2 -3 5 -1 4", "--graph", "cycle:6")
        assert (code, err) == (0, "")
        assert out == (
            "strands: 6\n"
            "perm: 5 2 1 3 6 4\n"
            "pure: no\n"
            "crossings:\n"
            "0 1 1 -1 0 1\n"
            "1 0 -1 0 0 0\n"
            "1 -1 0 0 0 0\n"
            "-1 0 0 0 0 0\n"
            "0 0 0 0 0 1\n"
            "1 0 0 0 1 0\n"
        )

    def test_one_strand_walk(self, capsys, monkeypatch):
        walks = []

        def counted(w):
            walks.append(w.letters)
            return _kernel.strand_walk(w)

        monkeypatch.setattr(cli, "strand_walk", counted)
        assert run(capsys, "invariants", "1 1", "--graph", "cycle:4")[0] == 0
        assert walks == [(1, 1)]

    def test_empty_word(self, capsys):
        code, out, err = run(capsys, "invariants", "", "-n", "3")
        assert code == 0
        assert "perm: 1 2 3" in out
        assert "pure: yes" in out


class TestStrandCap:
    OVER = str(MAX_STRANDS + 1)
    REFUSAL = f"error: {MAX_STRANDS + 1} strands exceed the limit of {MAX_STRANDS}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("eq", "1", "1", "-n", OVER),
            ("invariants", "1", "-n", OVER),
            ("eq", "1", "1", "--graph", "cycle:" + OVER),
            ("invariants", "", "--graph", "path:" + OVER),
            ("aut", "complete:" + OVER),
            ("present", "pure", "cycle:" + OVER),
            ("present", "artin", OVER),
            ("present", "markoff", OVER),
            ("present", "dihedral", OVER),
        ],
    )
    def test_exit_2_with_one_error_line(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", self.REFUSAL)

    def test_graph_file(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(self.OVER + " 1\n1 2\n")
        assert run(capsys, "aut", str(f)) == (2, "", self.REFUSAL)

    def test_far_above_the_cap(self, capsys):
        # the same checks refuse a count just above the cap first, so a lost
        # check fails here instead of allocating gigabytes below
        for build in (lambda n: parse_word("1", n), BraidWord):
            with pytest.raises(ResourceLimitError):
                build(MAX_STRANDS + 1)
        code, out, err = run(capsys, "eq", "-n", "100000000", "1", "1")
        assert (code, out) == (2, "")
        assert err == f"error: 100000000 strands exceed the limit of {MAX_STRANDS}\n"

    def test_at_the_cap(self, capsys):
        code, out, err = run(capsys, "invariants", "1", "-n", str(MAX_STRANDS))
        assert code == 0
        lines = out.splitlines()
        rest = " ".join(str(k) for k in range(3, MAX_STRANDS + 1))
        assert lines[:4] == [f"strands: {MAX_STRANDS}", f"perm: 2 1 {rest}", "pure: no", "crossings:"]
        assert len(lines) == 4 + MAX_STRANDS
        assert lines[4].startswith("0 1 0 ")


class TestFormSizeLimit:
    def test_eq_just_above_the_limit_exits_2(self, capsys):
        # sigma_1^1999 sigma_2^2 and sigma_2^2 sigma_1^1999 on 1,000 strands
        # share no prefix or suffix, so both middles need a normal form of
        # 2,001 letters; unchecked, the two would take about 0.6 s and 150 MB
        u = " ".join(["1"] * 1999 + ["2", "2"])
        v = " ".join(["2", "2"] + ["1"] * 1999)
        assert run(capsys, "eq", "-n", "1000", u, v) == (2, "", (
            "error: a normal form of 2001 letters on 1000 strands exceeds the limit"
            " of 2000000 letter-strands\n"
        ))


class TestVerifyPaper:
    def test_small_run_passes(self, capsys):
        code, out, err = run(capsys, "verify-paper", "--max-n", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines, "expected report lines"
        for line in lines:
            fields = line.split()
            assert len(fields) == 4
            assert fields[1] == "PASS"
        assert err.endswith("checks passed\n")
        total = len(lines)
        assert err == f"{total}/{total} checks passed\n"

    def test_determinism(self, capsys):
        code1, out1, err1 = run(capsys, "verify-paper", "--max-n", "4")
        code2, out2, err2 = run(capsys, "verify-paper", "--max-n", "4")
        assert (code1, out1, err1) == (code2, out2, err2)

    def test_size_limit(self, capsys):
        # the smallest max_n over the limit: exit 2, one error line
        code, out, err = run(capsys, "verify-paper", "--max-n", str(MAX_N + 1))
        assert (code, out) == (2, "")
        assert err == f"error: verify-paper --max-n {MAX_N + 1} is above the limit of {MAX_N}\n"


class TestMainProperty:
    """main over generated argv: every command, named graphs and a graph
    file, malformed words, small counts.  It never raises, exits 0, 1 or 2,
    and exit 2 prints exactly one error line."""

    def test_main_never_raises(self, capsys, tmp_path):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        def named_graph(max_vertices):
            kinds = st.sampled_from(("cycle", "path", "complete"))
            return st.builds("{}:{}".format, kinds, st.integers(0, max_vertices))

        @st.composite
        def graph_file(draw):
            # edge ends in 0..8 give loops and out-of-range vertices
            n = draw(st.integers(0, 7))
            edges = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=8))
            path = tmp_path / "g.txt"
            path.write_text(f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges))
            return str(path)

        # half the words also draw zero, out-of-range and non-integer tokens
        letter = st.integers(-2, 2).filter(bool).map(str)
        noise = st.sampled_from(("0", "9", "-9", "x", "1.5", "--"))
        word = st.one_of(
            st.lists(letter, max_size=8), st.lists(letter | noise, max_size=8)
        ).map(" ".join)
        strands = st.one_of(
            st.integers(1, 8).map(lambda n: ("-n", str(n))),
            named_graph(8).map(lambda g: ("--graph", g)),
        )
        fmt = st.sampled_from(("plain", "algebra-system"))
        numbered = st.sampled_from(("artin", "markoff", "cyclic", "dihedral"))
        argvs = st.one_of(
            st.builds(lambda g: ("aut", g), named_graph(7) | graph_file()),
            st.builds(
                lambda kind, k, f: ("present", kind, str(k), "--format", f),
                numbered, st.integers(1, 12), fmt,
            ),
            st.builds(lambda g, f: ("present", "pure", g, "--format", f), named_graph(12), fmt),
            st.builds(lambda u, v, s: ("eq", u, v, *s), word, word, strands),
            st.builds(lambda w, s: ("invariants", w, *s), word, strands),
            st.builds(lambda m: ("verify-paper", "--max-n", str(m)), st.integers(1, 5)),
        )

        @settings(max_examples=150)
        @given(argvs)
        def check(argv):
            code = main(list(argv))
            err = capsys.readouterr().err
            assert code in (0, 1, 2), argv
            if code == 2:
                assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)

        check()


class TestEntryPoints:
    @pytest.mark.skipif(
        shutil.which("chromabraid") is None,
        reason="no chromabraid console script on PATH: the package is not installed",
    )
    def test_console_script(self):
        proc = subprocess.run(
            ["chromabraid", "eq", "1 2 1", "2 1 2", "-n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "EQUAL\n"

    def test_console_script_target(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["chromabraid"]
        module, func = target.split(":")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; from {module} import {func}; sys.exit({func}())",
                "eq", "1 2 1", "2 1 2", "-n", "3",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "EQUAL\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chromabraid", "aut", "path:2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1 2\n2 1\n"
