"""Verification suites: every word identity the library's presentations rest
on, checked against the equality oracles and rendered as report lines.

These functions power both the verify-paper CLI command and the acceptance
tests, so their check IDs are stable identifiers.  Each suite forms every
distinct side once (Report.comparing).  full_paper_report refuses a max_n
above MAX_N before building any check.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, combinations_with_replacement

from .chromatic import normal_form_in_BGamma
from .errors import IndexRangeError, ResourceLimitError
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
from .report import Report
from .words import BraidWord, a_word, e_word, psi_r

# The largest max_n full_paper_report builds.  Its line count grows about as
# max_n^5 / 120, from identity (3): --max-n 12 gives 3,991 lines, and 21
# gives 45,043 lines in 2.5 s on a 2-CPU VM (22 would give 55,953).
MAX_N = 21


def _lemma_checks(n: int):
    """(check id, lhs letters, rhs letters) of the five identities on n
    strands; each a_word's letters are built once and concatenated."""
    a = {(i, j): a_word(i, j, n).letters
         for i, j in combinations_with_replacement(range(1, n + 1), 2)}
    for i in range(1, n - 1):
        yield f"L1-n{n}-i{i}", (i + 1, i, i + 1, i + 1), (i, i, i + 1, i)
    for i, k, j in combinations(range(1, n + 1), 3):
        yield f"L2-n{n}-a{i}_{j}-k{k}", a[i, j] + (k,), (k - 1,) + a[i, j]
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            for l in range(k + 1, n + 1):
                for j in range(l, n + 1):
                    yield (f"L3-n{n}-a{i}_{j}-a{k}_{l}",
                           a[i, j] + a[k, l], a[k - 1, l - 1] + a[i, j])
    factors = [(k, n + 2 - k) for k in range(2, psi_r(n) + 1)]
    e = {f: e_word(*f, n).letters for f in factors}
    for (k1, l1), (k2, l2) in combinations(factors, 2):
        u, v = e[k1, l1], e[k2, l2]
        yield f"L4-n{n}-e{k1}_{l1}-e{k2}_{l2}", u + v, v + u
    for k in range(3, (n + 1) // 2 + 1):
        yield (f"L5-n{n}-k{k}", e_word(k, n + 2 - k, n).letters + a[1, n],
               a[1, n] + e_word(k + 1, n + 3 - k, n).letters)


def _bn_form(n: int, letters: tuple[int, ...]):
    return normal_form(BraidWord(n, letters))


def lemma_report(ns) -> Report:
    """The five auxiliary word identities, across all valid indices.

    (1) sigma_{i+1} sigma_i sigma_{i+1}^2 = sigma_i^2 sigma_{i+1} sigma_i
    (2) a_{i,j} sigma_k = sigma_{k-1} a_{i,j}            for i < k < j
    (3) a_{i,j} a_{k,l} = a_{k-1,l-1} a_{i,j}            for i < k < l <= j
    (4) the reflection factors e_{k,n+2-k} commute pairwise
    (5) e_{k,n+2-k} a_{1,n} = a_{1,n} e_{k+1,n+3-k}      for 2 < k <= (n+1)//2

    Each side is a validated BraidWord, and each distinct side on n strands
    is formed once.
    """
    report = Report(())
    for n in ns:
        report += Report.comparing(_lemma_checks(n), partial(_bn_form, n))
    return report


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
    """Aggregate suite run by the verify-paper command.  A max_n above
    MAX_N is refused before any check is built."""
    if type(max_n) is not int or max_n < 4:
        raise IndexRangeError(f"verify-paper needs an integer max_n >= 4, got {max_n!r}")
    if max_n > MAX_N:
        raise ResourceLimitError(f"verify-paper --max-n {max_n} is above the limit of {MAX_N}")
    report = lemma_report(range(4, max_n + 1))
    report += artin_soundness_report(range(3, min(max_n, 6) + 1))
    report += markoff_soundness_report(range(3, min(max_n, 6) + 1))
    report += chromatic_soundness_report(standard_graph_suite(max_n))
    for n in range(4, min(max_n, 12) + 1):
        report += verify_final_proposition(n)
    return report
