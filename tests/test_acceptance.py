"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single "ACCEPTANCE <n> PASS" line (run with ``-s`` to
see them live); a pytest failure is the corresponding FAIL line.  All
comparisons are exact (canonical-form equality or integer equality); the
only tolerances are the two wall-clock budgets stated inline.
"""

import hashlib
import json
import random
import time

from c2surf.bigraded import Decomposition, Summand, render_grid
from c2surf.checks import verify_decomposition
from c2surf.cli import main as cli_main
from c2surf.engine import closed_form, transform
from c2surf.f2linalg import ChainComplex, F2Matrix, betti_f2
from c2surf.surfaces import (
    BASE_TOKENS,
    FREE_SPHERE,
    FREE_TORUS,
    NONFREE,
    TRIVIAL,
    Base,
    ClosedSurface,
    Op,
    SingProfile,
    WordError,
    apply_op,
    base_profile,
    cell,
    enumerate_profiles,
    invariants,
    parse_word,
)

from _oracles import (
    DELTA_COMPLEXES,
    GOLDEN_A0_0_3,
    GOLDEN_A1_0_3,
    GOLDEN_A2_0_3,
    GOLDEN_M2_0_3,
    M2,
    MUTANT_REPORTS,
    MUTANT_REPORTS_SHA256,
    MUTANTS,
    WORKED,
    X1,
    X2,
    X3,
    mutant_sweep,
    naive_rank,
    random_matrix,
    search_profiles_by_words,
)


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def _compute_cli(capsys, *argv) -> str:
    assert cli_main(["compute", *argv]) == 0
    return capsys.readouterr().out.strip()


def test_criterion_1_worked_examples(capsys):
    start = time.perf_counter()
    for w in (X1, X2, X3):
        got = _compute_cli(capsys, "--json", w.source)
        assert Decomposition.from_json_obj(json.loads(got)) == w.answer, w.source
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"worked examples took {elapsed:.2f}s"
    _report(1, f"three worked examples reproduced exactly in {elapsed * 1000:.0f}ms")


def test_criterion_2_free_examples():
    free = [w for w in WORKED.values() if w.profile.kind in (FREE_SPHERE, FREE_TORUS)]
    for w in free:
        assert closed_form(invariants(parse_word(w.source))) == w.answer, w.source
    _report(2, f"{len(free)} free sphere and free torus decompositions exact")


def test_criterion_3_figure_fidelity():
    window = ((0, 3), (-5, 5))
    cases = [
        (Decomposition([M2]), GOLDEN_M2_0_3),
        (Decomposition([Summand.antipodal(0, 0)]), GOLDEN_A0_0_3),
        (Decomposition([Summand.antipodal(0, 1)]), GOLDEN_A1_0_3),
        (Decomposition([Summand.antipodal(0, 2)]), GOLDEN_A2_0_3),
    ]
    for module, golden in cases:
        assert render_grid(module, *window).splitlines() == golden
    _report(3, "grids of M2, A0, A1, A2 match the hand transcriptions cell-by-cell")


def test_criterion_4_catalog_sweep():
    start = time.perf_counter()
    # Two independent generators: the breadth-first word search and the
    # inequality scan.
    profiles = enumerate_profiles(20)
    assert list(search_profiles_by_words(20)) == profiles, "enumeration paths disagree"
    violations = 0
    for pr in profiles:
        violations += len(verify_decomposition(closed_form(pr), pr))
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0, f"catalog sweep took {elapsed:.2f}s"
    _report(4, f"{len(profiles)} profiles (beta <= 20) verified with zero "
               f"violations in {elapsed:.2f}s")


# Ops that can appear in a word of beta <= 16 from a beta-0 base.
_WORD_ALPHABET = ([Op("AT11"), Op("AT10"), Op("FM"), Op("DCC")]
                  + [Op("CS", ClosedSurface(True, g)) for g in range(1, 5)]
                  + [Op("CS", ClosedSurface(False, s)) for s in range(1, 9)])


def _fold_all_words(d, pr, ops_left, beta_max, rules):
    """Fold every legal op of ``_WORD_ALPHABET`` into ``(d, pr)``, up to
    ``ops_left`` ops and beta <= beta_max, each step's ``transform``
    checked against the closed form; add each step's rule case (op token,
    cell of the profile before it) to ``rules``, and return the step count."""
    steps = 0
    for op in _WORD_ALPHABET:
        try:
            nxt = apply_op(pr, op)
        except WordError:
            continue
        if nxt.beta > beta_max:
            continue
        folded = transform(d, pr, op)
        assert folded == closed_form(nxt), (pr, op)
        rules.add((op.token, cell(pr)))
        steps += 1
        if ops_left > 1:
            steps += _fold_all_words(folded, nxt, ops_left - 1, beta_max, rules)
    return steps


def test_criterion_5_incremental_equals_closed():
    steps = 0
    for token in BASE_TOKENS:
        pr = base_profile(Base(token))
        steps += _fold_all_words(closed_form(pr), pr, 5, 16, set())
    assert steps > 10_000
    _report(5, f"transform fold equals closed form on every valid word with "
               f"<= 5 ops and beta <= 16 ({steps} surgery steps, zero mismatches)")


def test_criterion_6_mutation_sensitivity():
    tried = reports = 0
    digest = hashlib.sha256()
    for mutant, pr in mutant_sweep():
        tried += 1
        violations = verify_decomposition(mutant, pr)
        assert violations, f"silently accepted {mutant} for {pr}"
        reports += len(violations)
        digest.update("".join(f"{v}\n" for v in violations).encode())
    assert tried == MUTANTS
    assert (reports, digest.hexdigest()) == (MUTANT_REPORTS, MUTANT_REPORTS_SHA256)
    _report(6, f"every one of {tried} single-summand mutations broke a check "
               f"({reports} reports, as recorded)")


def test_criterion_7_f2_engine():
    rng = random.Random(20260810)
    for _ in range(1000):
        rows = random_matrix(rng, max_side=64)
        m = F2Matrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
        assert m.rank() == naive_rank(rows)
    for name, (d1, d2, betti) in DELTA_COMPLEXES.items():
        c = ChainComplex(F2Matrix.from_rows(d1), F2Matrix.from_rows(d2))
        assert not (c.d1.is_zero() and c.d2.is_zero()), name
        assert betti_f2(c) == SingProfile(*betti), name
    _report(7, "rank engine matches the naive eliminator on 1000 random "
               f"matrices; betti_f2 exact on {len(DELTA_COMPLEXES)} hand-built "
               "Delta-complexes (" + ", ".join(DELTA_COMPLEXES) + ")")


def test_criterion_8_branch_coverage_is_complete():
    # Desk-scale reproducibility: the closed form passes on every cell
    # (kind, C == 0), and the fold of every word of <= 2 ops with beta <= 8
    # takes every rewrite rule, each step checked against the closed form.
    cells = set()
    for pr in enumerate_profiles(2):
        assert verify_decomposition(closed_form(pr), pr) == [], pr
        cells.add(cell(pr))
    assert cells == {(TRIVIAL, True), (FREE_SPHERE, True), (FREE_TORUS, True),
                     (NONFREE, True), (NONFREE, False)}
    rules = set()
    for token in BASE_TOKENS:
        pr = base_profile(Base(token))
        _fold_all_words(closed_form(pr), pr, 2, 8, rules)
    expected_rules = {(token, key) for token in ("CS", "DCC", "AT11", "AT10")
                      for key in cells - {(TRIVIAL, True)}}
    expected_rules |= {("FM", (NONFREE, True)), ("FM", (NONFREE, False))}
    assert len(expected_rules) == 18
    assert rules == expected_rules, f"rules never exercised: {expected_rules - rules}"
    _report(8, f"all {len(cells)} closed-form cells and all "
               f"{len(expected_rules)} rewrite-rule cases exercised")
