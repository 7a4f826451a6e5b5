"""Command-line surface.

Commands: aut, present, eq, invariants, verify-paper.  Results go to
standard output, diagnostics to standard error.  Exit codes: 0 success /
EQUAL / all checks pass, 1 DISTINCT or any failed check, 2 usage or domain
errors.  Graph arguments accept named constructors (cycle:N, path:N,
complete:N) or a file path; prefix with @ to force reading a file whose
name collides with a constructor.  The graph file format is a header line
"n m" followed by m lines "i j", one edge each.
"""

from __future__ import annotations

import argparse
import re
import sys

from ._kernel import strand_walk
from .chromatic import halved_counts, normal_form_in_BGamma
from .errors import ChromabraidError, GraphInputError, ParseError
from .garside import equal_in_Bn
from .graphs import SimpleGraph, automorphisms, complete, cycle, from_edge_list, path
from .presentations import (
    artin_presentation,
    cyclic_braid_presentation,
    dihedral_presentation,
    format_presentation,
    markoff_presentation,
    pure_chromatic_presentation,
)
from .words import Permutation, parse_word

_NAMED_GRAPH = re.compile(r"(cycle|path|complete):([0-9]+)")
_CONSTRUCTORS = {"cycle": cycle, "path": path, "complete": complete}


def read_graph_file(filename: str) -> SimpleGraph:
    try:
        with open(filename, encoding="ascii") as handle:
            raw = [line.split() for line in handle if line.strip()]
    except OSError as exc:
        raise GraphInputError(f"cannot read graph file {filename}: {exc}") from None
    if not raw or len(raw[0]) != 2:
        raise GraphInputError(f"{filename}: first line must be 'n m'")
    try:
        header = [int(tok) for tok in raw[0]]
        body = [[int(tok) for tok in line] for line in raw[1:]]
    except ValueError:
        raise GraphInputError(f"{filename}: non-integer token") from None
    n, m = header
    if len(body) != m or any(len(line) != 2 for line in body):
        raise GraphInputError(f"{filename}: expected {m} edge lines 'i j'")
    return from_edge_list(n, [(i, j) for i, j in body])


def parse_graph_spec(spec: str) -> SimpleGraph:
    """Named constructor, or file path; '@path' bypasses constructor names."""
    if spec.startswith("@"):
        return read_graph_file(spec[1:])
    match = _NAMED_GRAPH.fullmatch(spec)
    if match:
        return _CONSTRUCTORS[match.group(1)](int(match.group(2)))
    return read_graph_file(spec)


def _resolve_strands(args) -> tuple[int, SimpleGraph | None]:
    G = parse_graph_spec(args.graph) if args.graph else None
    if G is not None:
        if args.n is not None and args.n != G.vertices:
            raise ParseError(
                f"-n {args.n} disagrees with the graph on {G.vertices} vertices"
            )
        return G.vertices, G
    if args.n is None:
        raise ParseError("one of -n or --graph is required")
    return args.n, None


def cmd_aut(args) -> int:
    G = parse_graph_spec(args.graph_spec)
    elements = automorphisms(G)
    print(f"|Aut| = {len(elements)}", file=sys.stderr)
    for g in elements:
        print(g.one_line())
    return 0


def cmd_present(args) -> int:
    if args.kind == "pure":
        pres = pure_chromatic_presentation(parse_graph_spec(args.arg))
    else:
        try:
            n = int(args.arg)
        except ValueError:
            raise ParseError(f"{args.kind} presentation needs an integer, got {args.arg!r}") from None
        maker = {
            "artin": artin_presentation,
            "markoff": markoff_presentation,
            "cyclic": cyclic_braid_presentation,
            "dihedral": dihedral_presentation,
        }[args.kind]
        pres = maker(n)
    sys.stdout.write(format_presentation(pres, args.format))
    return 0


def cmd_eq(args) -> int:
    n, G = _resolve_strands(args)
    u = parse_word(args.word1, n)
    v = parse_word(args.word2, n)
    if G is None:
        equal = equal_in_Bn(u, v)
        print("EQUAL" if equal else "DISTINCT")
    else:
        a, b = normal_form_in_BGamma(u, G), normal_form_in_BGamma(v, G)
        equal = a == b
        print("EQUAL" if equal else "DISTINCT")
        print(f"lhs {a}")
        print(f"rhs {b}")
    return 0 if equal else 1


def cmd_invariants(args) -> int:
    n, G = _resolve_strands(args)
    w = parse_word(args.word, n)
    # one walk gives what perm_of, crossing_matrix and edge_lk would
    counts, ends = strand_walk(w)
    g = Permutation([p + 1 for p in ends])
    pure = g.is_identity()
    print(f"strands: {n}")
    print(f"perm: {g.one_line()}")
    print(f"pure: {'yes' if pure else 'no'}")
    print("crossings:")
    for row in counts:
        print(" ".join(str(c) for c in row))
    if G is not None and pure:
        edges = G.edges_sorted()
        print("edges: " + " ".join(f"{i}_{j}" for i, j in edges))
        print(f"edge_lk: {halved_counts(G, (counts[i - 1][j - 1] for i, j in edges))}")
    return 0


def cmd_verify_paper(args) -> int:
    from .verify import full_paper_report

    report = full_paper_report(args.max_n)
    sys.stdout.write(report.render())
    passed = sum(1 for line in report.lines if line.passed)
    print(f"{passed}/{len(report.lines)} checks passed", file=sys.stderr)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromabraid",
        description="Graph-conditioned braid groups: presentations, equality oracles, invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_aut = sub.add_parser("aut", help="list automorphisms of a graph")
    p_aut.add_argument("graph_spec")
    p_aut.set_defaults(handler=cmd_aut)

    p_present = sub.add_parser("present", help="emit a presentation")
    p_present.add_argument(
        "kind", choices=("artin", "markoff", "pure", "cyclic", "dihedral")
    )
    p_present.add_argument("arg", help="strand count, or graph spec for 'pure'")
    p_present.add_argument(
        "--format", choices=("plain", "algebra-system"), default="plain"
    )
    p_present.set_defaults(handler=cmd_present)

    p_eq = sub.add_parser("eq", help="decide equality of two words")
    p_eq.add_argument("word1")
    p_eq.add_argument("word2")
    p_eq.add_argument("-n", type=int, default=None, help="strand count")
    p_eq.add_argument("--graph", default=None, help="decide in B(graph) instead of B_n")
    p_eq.set_defaults(handler=cmd_eq)

    p_inv = sub.add_parser("invariants", help="permutation, purity, crossing counts")
    p_inv.add_argument("word")
    p_inv.add_argument("-n", type=int, default=None, help="strand count")
    p_inv.add_argument("--graph", default=None, help="also report the edge vector")
    p_inv.set_defaults(handler=cmd_invariants)

    p_verify = sub.add_parser("verify-paper", help="run the full verification suite")
    p_verify.add_argument("--max-n", type=int, default=9, dest="max_n")
    p_verify.set_defaults(handler=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except ChromabraidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
