"""Verification suites: every word identity the library's presentations rest
on, checked against the equality oracles and rendered as report lines.

These functions power both the verify-paper CLI command and the acceptance
tests, so their check IDs are stable identifiers.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations

from .chromatic import normal_form_in_BGamma
from .errors import IndexRangeError
from .extension import verify_final_proposition
from .garside import normal_form
from .graphs import SimpleGraph, complete, cycle, path
from .presentations import (
    artin_generator_name,
    artin_presentation,
    band_table,
    markoff_presentation,
    pure_chromatic_presentation,
)
from .report import CheckLine, Report
from .words import BraidWord, a_word, concat, e_word, psi_r


def _bn_check(check_id: str, lhs: BraidWord, rhs: BraidWord) -> CheckLine:
    return CheckLine.comparing(check_id, normal_form(lhs), normal_form(rhs))


def lemma_report(ns) -> Report:
    """The five auxiliary word identities, across all valid indices.

    (1) sigma_{i+1} sigma_i sigma_{i+1}^2 = sigma_i^2 sigma_{i+1} sigma_i
    (2) a_{i,j} sigma_k = sigma_{k-1} a_{i,j}            for i < k < j
    (3) a_{i,j} a_{k,l} = a_{k-1,l-1} a_{i,j}            for i < k < l <= j
    (4) the reflection factors e_{k,n+2-k} commute pairwise
    (5) e_{k,n+2-k} a_{1,n} = a_{1,n} e_{k+1,n+3-k}      for 2 < k <= (n+1)//2
    """
    lines = []
    for n in ns:
        for i in range(1, n - 1):
            lhs = BraidWord(n, (i + 1, i, i + 1, i + 1))
            rhs = BraidWord(n, (i, i, i + 1, i))
            lines.append(_bn_check(f"L1-n{n}-i{i}", lhs, rhs))
        for i, k, j in combinations(range(1, n + 1), 3):
            lhs = concat(a_word(i, j, n), BraidWord(n, (k,)))
            rhs = concat(BraidWord(n, (k - 1,)), a_word(i, j, n))
            lines.append(_bn_check(f"L2-n{n}-a{i}_{j}-k{k}", lhs, rhs))
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                for l in range(k + 1, n + 1):
                    for j in range(l, n + 1):
                        lhs = concat(a_word(i, j, n), a_word(k, l, n))
                        rhs = concat(a_word(k - 1, l - 1, n), a_word(i, j, n))
                        lines.append(_bn_check(f"L3-n{n}-a{i}_{j}-a{k}_{l}", lhs, rhs))
        factors = [(k, n + 2 - k) for k in range(2, psi_r(n) + 1)]
        for (k1, l1), (k2, l2) in combinations(factors, 2):
            u, v = e_word(k1, l1, n), e_word(k2, l2, n)
            lines.append(_bn_check(f"L4-n{n}-e{k1}_{l1}-e{k2}_{l2}", concat(u, v), concat(v, u)))
        for k in range(3, (n + 1) // 2 + 1):
            lhs = concat(e_word(k, n + 2 - k, n), a_word(1, n, n))
            rhs = concat(a_word(1, n, n), e_word(k + 1, n + 3 - k, n))
            lines.append(_bn_check(f"L5-n{n}-k{k}", lhs, rhs))
    return Report(tuple(lines))


def _relator_checks(prefix: str, pres, table, n: int, form) -> Report:
    """Each relator of pres, substituted through table, has the form of the
    trivial word; the checks are numbered from 1 after prefix."""
    checks = ((f"{prefix}-rel{idx}", rel, ()) for idx, rel in enumerate(pres.relators, start=1))
    return Report.substituting(checks, table, n, form)


def artin_soundness_report(ns) -> Report:
    """Every relator of artin_presentation(n) evaluates to the trivial braid."""
    report = Report(())
    for n in ns:
        table = {artin_generator_name(i): BraidWord(n, (i,)) for i in range(1, n)}
        report += _relator_checks(f"artin-n{n}", artin_presentation(n), table, n, normal_form)
    return report


def markoff_soundness_report(ns) -> Report:
    """Every relator of markoff_presentation(n), with s_{i,j} realized as
    s_word(i,j,n), evaluates to the trivial braid."""
    report = Report(())
    for n in ns:
        table = band_table(combinations(range(1, n + 1), 2), n)
        report += _relator_checks(f"markoff-n{n}", markoff_presentation(n), table, n, normal_form)
    return report


def chromatic_soundness_report(named_graphs) -> Report:
    """Every relator of pure_chromatic_presentation(G) holds in B(G).

    Each relator and the trivial word are compared by their normal forms in
    B(G) (normal_form_in_BGamma: i_star forms on triangle-free graphs,
    left-weighted forms on complete ones); a graph outside that fragment
    raises OutOfScopeError.
    """
    report = Report(())
    for name, G in named_graphs:
        n, pres = G.vertices, pure_chromatic_presentation(G)
        form = partial(normal_form_in_BGamma, G=G)
        report += _relator_checks(f"chromatic-{name}", pres, band_table(G.edges, n), n, form)
    return report


def standard_graph_suite(max_n: int) -> list[tuple[str, SimpleGraph]]:
    """Deterministic graph family used by verify-paper: cycles, paths, the
    5-star, and small complete graphs."""
    graphs: list[tuple[str, SimpleGraph]] = []
    for n in range(4, max_n + 1):
        graphs.append((f"cycle{n}", cycle(n)))
    for n in range(2, max_n + 1):
        graphs.append((f"path{n}", path(n)))
    if max_n >= 5:
        star5 = SimpleGraph(5, frozenset((1, k) for k in range(2, 6)))
        graphs.append(("star5", star5))
    for n in range(3, min(max_n, 5) + 1):
        graphs.append((f"complete{n}", complete(n)))
    return graphs


def full_paper_report(max_n: int = 9) -> Report:
    """Aggregate suite run by the verify-paper command."""
    if max_n < 4:
        raise IndexRangeError(f"verify-paper needs max_n >= 4, got {max_n}")
    report = lemma_report(range(4, max_n + 1))
    report += artin_soundness_report(range(3, min(max_n, 6) + 1))
    report += markoff_soundness_report(range(3, min(max_n, 6) + 1))
    report += chromatic_soundness_report(standard_graph_suite(max_n))
    for n in range(4, min(max_n, 12) + 1):
        report += verify_final_proposition(n)
    return report
