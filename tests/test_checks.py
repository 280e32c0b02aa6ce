"""The structural oracles: quotient row, localization, exact sequence,
top class, beta recovery, and their sensitivity to corruption."""

import ast
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _oracles import CELL_PROFILES, Affine, naive_forgetful_les, naive_verify, nonzero
from c2surf import checks
from c2surf.bigraded import Bidegree, Decomposition, Summand
from c2surf.checks import (
    DEFAULT_LES_WINDOW,
    Tally,
    Violation,
    Window,
    check_beta_recovery,
    check_forgetful_les,
    check_quotient_row,
    check_rho_localization,
    check_top_class,
    expected,
    tally,
    verify_decomposition,
)
from c2surf.engine import _CLOSED_FORMS, closed_form
from c2surf.surfaces import (
    FREE_SPHERE,
    FREE_TORUS,
    NONFREE,
    TRIVIAL,
    InvariantProfile,
    SingProfile,
    cell,
    enumerate_profiles,
    invariants,
    parse_word,
    underlying_sing,
)

M2 = Summand.free(0, 0)
S10 = Summand.free(1, 0)
S11 = Summand.free(1, 1)

X1_PROFILE = InvariantProfile(NONFREE, 2, 0, 2)
X2_PROFILE = InvariantProfile(NONFREE, 14, 8, 0)
X3_PROFILE = InvariantProfile(NONFREE, 1, 1, 1)


def test_window_parsing():
    w = Window(-2, 6, -8, 8)
    assert (w.pmin, w.pmax, w.qmin, w.qmax) == (-2, 6, -8, 8)
    assert str(w) == "-2:6,-8:8"
    with pytest.raises(ValueError, match="inverted window 3:1,0:0"):
        Window(3, 1, 0, 0)


def test_checks_cannot_see_the_closed_form():
    # The oracle imports only the types and the profile's Betti numbers,
    # never ``engine``, whose closed form it judges.
    imported = set()
    for node in ast.walk(ast.parse(Path(checks.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {name for name in imported if name.startswith((".", "c2surf"))} == {
        ".bigraded", ".surfaces"}


def test_quotient_row_worked_examples():
    x2 = closed_form(X2_PROFILE)
    assert check_quotient_row(tally(x2), expected(X2_PROFILE)) == []
    # The weight-zero row of the X2 answer really is (1, 4, 1): the top
    # class only shows up there through its theta class.
    assert [x2.dim_at((p, 0)) for p in (-1, 0, 1, 2, 3)] == [0, 1, 4, 1, 0]
    x3 = closed_form(X3_PROFILE)
    assert check_quotient_row(tally(x3), expected(X3_PROFILE)) == []
    assert [x3.dim_at((p, 0)) for p in (-1, 0, 1, 2, 3)] == [0, 1, 0, 0, 0]
    s2a = closed_form(InvariantProfile(FREE_SPHERE, 0))
    assert check_quotient_row(tally(s2a), expected(InvariantProfile(FREE_SPHERE, 0))) == []
    assert [s2a.dim_at((p, 0)) for p in (0, 1, 2)] == [1, 1, 1]


def free_diagonals(d):
    """The sorted p - q of the free summands, with multiplicity."""
    return sorted(s.shift.p - s.shift.q for s, c in d.items() if s.is_free
                  for _ in range(c))


def test_rho_localization_worked_examples():
    assert check_rho_localization(tally(closed_form(X1_PROFILE)), expected(X1_PROFILE)) == []
    # X1's free shifts (0,0),(1,0),(1,1),(2,1) have p-q multiset {0,0,1,1},
    # matching two fixed circles.
    assert free_diagonals(closed_form(X1_PROFILE)) == [0, 0, 1, 1]
    # X2: eight isolated points, eight zeros.
    assert free_diagonals(closed_form(X2_PROFILE)) == [0] * 8
    assert check_rho_localization(tally(closed_form(X2_PROFILE)), expected(X2_PROFILE)) == []
    free = InvariantProfile(FREE_SPHERE, 6)
    assert check_rho_localization(tally(closed_form(free)), expected(free)) == []


def test_rho_localization_reports_counts_per_degree():
    # X2 has eight fixed points; dropping an S(1,1)M2 leaves seven free
    # summands on the diagonal p - q = 0, and an added S(3,1)M2 sits at 2.
    wrong = closed_form(X2_PROFILE).remove(S11) + Decomposition([Summand.free(3, 1)])
    assert check_rho_localization(tally(wrong), expected(X2_PROFILE)) == [
        ("rho-localization", "fixed-set degrees", [[0, 8]], [[0, 7], [2, 1]])]


def test_rho_localization_covers_trivial_actions():
    trivial = InvariantProfile(TRIVIAL, 3)
    assert check_rho_localization(tally(closed_form(trivial)), expected(trivial)) == []


def test_forgetful_les_hand_values():
    point = Decomposition([M2])
    sing = SingProfile(1, 0, 0)
    # At (0, 0): dims 1 + 1 minus rho ranks 0 + 1 leaves h^0 = 1.
    b = Bidegree(0, 0)
    got = (point.dim_at((0, 1)) + point.dim_at(b)
           - point.rank_at((-1, 0), "rho") - point.rank_at(b, "rho"))
    assert got == 1
    assert naive_forgetful_les(point, sing, Window(-4, 4, -6, 6)) == []
    assert tally(point).classes == {0: 1}


def test_forgetful_les_free_orbit():
    # The free orbit: two points, so h^0_sing = 2, and rho acts as zero.
    orbit = Decomposition([Summand.antipodal(0, 0)])
    assert naive_forgetful_les(orbit, SingProfile(2, 0, 0), Window(0, 1, -5, 5)) == []
    assert tally(orbit).classes == {0: 2}


def test_forgetful_les_third_example_full_sweep():
    x3 = closed_form(X3_PROFILE)
    assert naive_forgetful_les(x3, SingProfile(1, 1, 1), Window(-2, 5, -6, 6)) == []
    assert tally(x3).classes == {0: 1, 1: 1, 2: 1} == expected(X3_PROFILE).classes
    assert check_forgetful_les(tally(x3), expected(X3_PROFILE), Window(-2, 5, -6, 6)) == []


summands = st.one_of(
    st.builds(Summand.free, st.integers(-10, 15), st.integers(-12, 12)),
    st.builds(Summand.antipodal, st.integers(-10, 15), st.integers(0, 4)))
decompositions = st.dictionaries(summands, st.integers(1, 3), max_size=8).map(Decomposition)
PROFILES_TO_12 = enumerate_profiles(12)


@st.composite
def windows(draw):
    """The default window, or one inside it or reaching beyond it."""
    if draw(st.booleans()):
        return DEFAULT_LES_WINDOW
    pmin, qmin = draw(st.integers(-14, 8)), draw(st.integers(-16, 10))
    return Window(pmin, pmin + draw(st.integers(0, 20)),
                  qmin, qmin + draw(st.integers(0, 24)))


@given(decompositions, st.sampled_from(PROFILES_TO_12), windows())
def test_forgetful_les_matches_the_naive_sweep(d, pr, window):
    # The check is the naive sweep against the surface's Betti numbers
    # (1, beta, 1), beta in 0..12, collapsed per p: for each p it reports,
    # the sweep fails at every q of the window with the same two sides, and
    # it fails at no other p, so the collapse loses nothing.
    sweep = naive_forgetful_les(d, underlying_sing(pr), window)
    by_p = {}
    for v in sweep:
        p, q = (int(x) for x in v.location.strip("()").split(","))
        by_p.setdefault(p, []).append((q, v.expected, v.actual))
    got = check_forgetful_les(tally(d), expected(pr), window)
    assert [v.location for v in got] == [f"p={p}" for p in sorted(by_p)]
    qs = list(range(window.qmin, window.qmax + 1))
    for v in got:
        p = int(v.location.removeprefix("p="))
        assert v.check == "forgetful-les"
        assert by_p[p] == [(q, v.expected, v.actual) for q in qs], p


@settings(max_examples=300)
@given(decompositions, st.sampled_from(PROFILES_TO_12))
@example(Decomposition([Summand.free(-5, 1)]), X2_PROFILE)
@example(Decomposition([Summand.free(9, 1), Summand.antipodal(-3, 2)]), X1_PROFILE)
def test_a_summand_outside_the_les_window_fails_another_check(extra, pr):
    # The verify window never changes a verdict: a summand with an
    # underlying degree outside its p range fails the quotient row, rho
    # localization or the top class, whatever else the decomposition holds.
    # Tried on the drawn decomposition, on it added to the right answer,
    # and on each such summand alone added to the right answer.
    pmin, pmax = DEFAULT_LES_WINDOW.pmin, DEFAULT_LES_WINDOW.pmax
    outside = [s for s, _ in extra.items()
               if any(not pmin <= p <= pmax for p in s.underlying_degrees())]
    assume(outside)
    right = closed_form(pr)
    for d in [extra, right + extra, *(right + Decomposition([s]) for s in outside)]:
        t, want = tally(d), expected(pr)
        assert (check_quotient_row(t, want) or check_rho_localization(t, want)
                or check_top_class(t, want)), (str(d), pr)


def test_top_class_positions():
    assert check_top_class(tally(closed_form(X2_PROFILE)), expected(X2_PROFILE)) == []
    assert dict(closed_form(X2_PROFILE).items())[Summand.free(2, 2)] == 1
    assert check_top_class(tally(closed_form(X1_PROFILE)), expected(X1_PROFILE)) == []
    trivial = InvariantProfile(TRIVIAL, 2)
    assert check_top_class(tally(closed_form(trivial)), expected(trivial)) == []
    assert dict(closed_form(trivial).items())[Summand.free(2, 0)] == 1
    # A free action has no free summands, so none with p >= 2.
    sphere = InvariantProfile(FREE_SPHERE, 0)
    assert check_top_class(tally(closed_form(sphere)), expected(sphere)) == []
    assert check_top_class(tally(closed_form(sphere) + Decomposition([Summand.free(2, 2)])),
                           expected(sphere)) == [("top-class", "free summands with p >= 2",
                                        [], [[2, 2, 1]])]
    # Counts per shift, in the [p, q, count] shape of the wire format.
    x2 = closed_form(X2_PROFILE)
    assert check_top_class(tally(x2 + Decomposition([Summand.free(2, 2), Summand.free(3, 0)])),
                           expected(X2_PROFILE)) == [("top-class", "free summands with p >= 2",
                                            [[2, 2, 1]], [[2, 2, 2], [3, 0, 1]])]


def test_top_class_detects_misplacement():
    wrong = closed_form(X2_PROFILE).remove(Summand.free(2, 2)).direct_sum(
        Decomposition([Summand.free(2, 1)]))
    assert check_top_class(tally(wrong), expected(X2_PROFILE))


def test_every_top_summand_edit_of_the_closed_form_table_fails_its_whole_cell():
    # An edit of a _CLOSED_FORMS entry's top summand, S(2,q)M2, is caught
    # on every profile of the cell with beta <= 8: moved to another weight,
    # dropped, or added to a free cell.  The rule it breaks is read off the
    # fixed set, not off a second table that could be edited to match.
    weights = [Summand.free(2, q) for q in (0, 1, 2)]
    by_cell = {}
    for pr in enumerate_profiles(8):
        by_cell.setdefault(cell(pr), []).append(pr)
    assert {key: len(prs) for key, prs in by_cell.items()} == {
        (TRIVIAL, True): 9, (FREE_SPHERE, True): 5, (FREE_TORUS, True): 4,
        (NONFREE, True): 15, (NONFREE, False): 55}
    edits = []
    for key, prs in by_cell.items():
        tops = [s for s in _CLOSED_FORMS[key](*prs[0][1:]) if s in weights]
        for top in tops:
            edits += [(key, top, s) for s in weights if s != top] + [(key, top, None)]
        if not tops:
            edits += [(key, None, s) for s in weights]
    assert len(edits) == 15

    def edited(entry, drop, add):
        def counts(b, f, c):
            out = dict(entry(b, f, c))
            if drop is not None:
                assert out.pop(drop) == 1
            if add is not None:
                out[add] = out.get(add, 0) + 1
            return out
        return counts

    saved = dict(_CLOSED_FORMS)
    try:
        for key, drop, add in edits:
            _CLOSED_FORMS[key] = edited(saved[key], drop, add)
            closed_form.cache_clear()
            for pr in by_cell[key]:
                assert verify_decomposition(closed_form(pr), pr), (key, drop, add, pr)
    finally:
        _CLOSED_FORMS.update(saved)
        closed_form.cache_clear()


def test_beta_recovery():
    assert check_beta_recovery(tally(closed_form(X2_PROFILE)), expected(X2_PROFILE)) == []
    for pr in enumerate_profiles(8):
        assert check_beta_recovery(tally(closed_form(pr)), expected(pr)) == []


S22_PROFILE = InvariantProfile(NONFREE, 0, 2, 0)


def test_far_antipodal_summands_are_rejected():
    # Each added summand sits outside the LES window and the old fixed
    # quotient-row range p in [-1, 3], and used to pass every check.
    for extra in (Summand.antipodal(10, 0), Summand.antipodal(7, 3),
                  Summand.antipodal(-6, 0)):
        wrong = closed_form(S22_PROFILE).direct_sum(Decomposition([extra]))
        violations = verify_decomposition(wrong, S22_PROFILE)
        assert violations, extra
        assert check_quotient_row(tally(wrong), expected(S22_PROFILE)), extra


def test_verify_all_worked_examples():
    for word in ("S21 + AT10", "S2a + CS(T[1])", "S22 + FM"):
        pr = invariants(parse_word(word))
        assert verify_decomposition(closed_form(pr), pr) == [], word


def test_corrupted_decomposition_fails_les_and_beta_recovery():
    corrupted = closed_form(X2_PROFILE).remove(S11)
    violations = verify_decomposition(corrupted, X2_PROFILE)
    checks = {v.check for v in violations}
    assert "forgetful-les" in checks
    assert "beta-recovery" in checks
    assert any(v.location == "p=1" for v in violations if v.check == "forgetful-les")


def test_violation_serialization():
    corrupted = closed_form(X3_PROFILE).remove(S11)
    violations = verify_decomposition(corrupted, X3_PROFILE)
    assert violations
    obj = violations[0].to_json_obj()
    assert set(obj) == {"check", "location", "expected", "actual"}


PROFILES_TO_20 = enumerate_profiles(20)


@settings(max_examples=300)
@given(decompositions, st.sampled_from(PROFILES_TO_20))
@example(Decomposition({S11: 10**20, Summand.antipodal(1, 0): 3}), X2_PROFILE)
def test_verify_matches_the_per_check_walks(extra, pr):
    # The tally is the five old walks over the summands done in one pass:
    # every violation, its order and both its sides, agree with them, with
    # the per-summand memo and the per-profile memos cold and warm, on the
    # drawn decomposition, on it added to the right answer, and on the
    # right answer itself.
    right = closed_form(pr)
    for d in (extra, right + extra, right):
        want = naive_verify(d, pr)
        for memo in (checks._reads, checks.expected):
            memo.cache_clear()
        assert verify_decomposition(d, pr) == want, (str(d), pr)
        assert verify_decomposition(d, pr) == want, (str(d), pr)


def test_beta_recovery_is_the_p1_row_of_the_forgetful_les_on_every_cell():
    # Both checks read the tally's underlying classes: beta recovery at
    # p = 1 against beta, the LES at each p of its window against the
    # surface's Betti numbers.  p = 1 is in the window, and on every cell,
    # for every beta, h1 is beta: the two compare the same two numbers.
    assert DEFAULT_LES_WINDOW.pmin <= 1 <= DEFAULT_LES_WINDOW.pmax
    for key, pr in CELL_PROFILES.items():
        assert underlying_sing(pr).h1 == pr.beta, key


@given(decompositions, st.sampled_from(PROFILES_TO_20))
@example(Decomposition([S11]), X2_PROFILE)
def test_beta_recovery_reports_what_the_les_reports_at_p1(extra, pr):
    # So beta recovery fails exactly when the LES fails at p = 1, with the
    # same two sides.
    for d in (extra, closed_form(pr) + extra):
        t, want = tally(d), expected(pr)
        les = [(v.expected, v.actual) for v in check_forgetful_les(t, want)
               if v.location == "p=1"]
        assert [(v.expected, v.actual) for v in check_beta_recovery(t, want)] == les, str(d)


def test_expected_is_the_tally_of_the_closed_form():
    # The profile side of every check is the tally of the right answer,
    # key for key: no zero entries, and the top class rule on every kind.
    profiles = enumerate_profiles(40)
    assert len(profiles) == 3624
    for pr in profiles:
        assert expected(pr) == tally(closed_form(pr)), pr


def test_expected_is_the_tally_of_the_closed_form_on_every_cell():
    # The proof of the sweep above for every beta, on each cell's symbolic
    # profile: the closed-form table's counts are natural numbers, each
    # "// 2" is exact, and their tally, each summand read through the real
    # _reads, has the four tables expected reads, key for key.
    for key, pr in CELL_PROFILES.items():
        counts = _CLOSED_FORMS[cell(pr)](*pr[1:])
        assert all(Affine.of(c).nonnegative() for c in counts.values()), key
        got = tally(counts)
        want = (enumerate(checks.quotient_sing(pr)), enumerate(checks.fixed_sing(pr)),
                checks._tops(nonzero(enumerate(checks.fixed_sing(pr)))),
                enumerate(checks.underlying_sing(pr)))
        for name, table, table_want in zip(Tally._fields, got, want):
            assert nonzero(table) == nonzero(table_want), (key, name)


def test_equal_profiles_share_one_expected_tally():
    # The memo is keyed by the profile's value: a profile built again, or
    # read from JSON, reads the same tables and gets the same violations.
    wrong = closed_form(X2_PROFILE).remove(S11) + Decomposition([Summand.free(2, 1)])
    again = InvariantProfile.from_json_obj(X2_PROFILE.to_json_obj())
    assert again == X2_PROFILE and again is not X2_PROFILE
    checks.expected.cache_clear()
    first = verify_decomposition(wrong, X2_PROFILE)
    assert first == naive_verify(wrong, X2_PROFILE)
    assert {v.check for v in first} == {"rho-localization", "forgetful-les",
                                        "top-class", "beta-recovery"}
    assert verify_decomposition(wrong, again) == first
    info = checks.expected.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert expected(again) is expected(X2_PROFILE)


def test_equal_betti_numbers_share_one_expected_table():
    # expected's tables are keyed by the Betti numbers they hold, so equal
    # ones, across profiles and kinds, are one read-only dict.
    checks.expected.cache_clear()
    by_table = {}
    for pr in enumerate_profiles(12):
        want = expected(pr)
        for table in (want.row, want.free, want.classes):
            by_table.setdefault(tuple(sorted(table.items())), set()).add(id(table))
    assert all(len(ids) == 1 for ids in by_table.values())
    t, n = expected(InvariantProfile(TRIVIAL, 4)), expected(InvariantProfile(NONFREE, 4, 2, 0))
    assert t.classes is n.classes == {0: 1, 1: 4, 2: 1}
    assert t.row is t.classes                  # the trivial quotient is the surface
    assert expected(InvariantProfile(FREE_SPHERE, 2)).free == {}


def test_verify_calls_each_check_once_in_order(monkeypatch):
    # verify_decomposition reaches the checks through their module names,
    # so a wrapper of each one (as a tracer installs) sees every call.
    names = ["check_quotient_row", "check_rho_localization", "check_forgetful_les",
             "check_top_class", "check_beta_recovery"]
    calls = []
    for name in names:
        def spy(*args, _name=name, _check=getattr(checks, name)):
            calls.append(_name)
            return _check(*args)
        monkeypatch.setattr(checks, name, spy)
    wrong = closed_form(X2_PROFILE).remove(S11)
    assert verify_decomposition(wrong, X2_PROFILE) == naive_verify(wrong, X2_PROFILE)
    assert calls == names


def test_verify_looks_up_the_expected_tally_once(monkeypatch):
    # verify_decomposition reads expected(pr) once and hands it to all five
    # checks, which never read the profile: one lookup per verification,
    # on a correct answer and on a wrong one alike.
    lookups = []

    def spy(pr, _real=checks.expected):
        lookups.append(pr)
        return _real(pr)
    monkeypatch.setattr(checks, "expected", spy)
    right = closed_form(X2_PROFILE)
    wrong = right.remove(S11)
    assert verify_decomposition(right, X2_PROFILE) == []
    assert lookups == [X2_PROFILE]
    assert verify_decomposition(wrong, X2_PROFILE) == naive_verify(wrong, X2_PROFILE) != []
    assert lookups == [X2_PROFILE, X2_PROFILE]


def test_verify_reads_each_betti_profile_once(monkeypatch):
    # Every check takes (t, want), with want the profile's tally that
    # verify_decomposition reads once through the memoized expected(pr):
    # two verifies of one profile, with the memo cold, build each of the
    # three singular profiles once.
    calls = []
    for name in ("underlying_sing", "fixed_sing", "quotient_sing"):
        def spy(pr, _name=name, _real=getattr(checks, name)):
            calls.append(_name)
            return _real(pr)
        monkeypatch.setattr(checks, name, spy)
    checks.expected.cache_clear()
    wrong = closed_form(X2_PROFILE).remove(S11)
    for _ in range(2):
        assert verify_decomposition(wrong, X2_PROFILE) == naive_verify(wrong, X2_PROFILE)
    assert sorted(calls) == ["fixed_sing", "quotient_sing", "underlying_sing"]


def test_quotient_row_and_rho_localization_each_reject_alone():
    # For each of these two checks, a wrong answer that no other check
    # rejects: the free sphere at beta 0, whose answer is A2, plus one
    # summand whose underlying degree lies outside the LES window.
    sphere = InvariantProfile(FREE_SPHERE, 0)
    assert closed_form(sphere) == Decomposition([Summand.antipodal(0, 2)])
    far_antipodal = Decomposition([Summand.antipodal(0, 2), Summand.antipodal(7, 0)])
    assert verify_decomposition(far_antipodal, sphere) == [
        ("quotient-row", "(7,0)", 0, 1)]
    low_free = Decomposition([Summand.free(-4, 1), Summand.antipodal(0, 2)])
    assert verify_decomposition(low_free, sphere) == [
        ("rho-localization", "fixed-set degrees", [], [[-5, 1]])]


def test_reports_and_tallies_equal_the_constructed_ones():
    # The checks build reports and tallies as bare tuples of their class;
    # each one is, in every way a reader sees, the one the public
    # four-argument constructor builds.
    sphere = InvariantProfile(FREE_SPHERE, 0)
    wrong = closed_form(X2_PROFILE).remove(S11) + Decomposition(
        [Summand.free(2, 1), Summand.antipodal(-3, 0)])
    for d, pr in ((wrong, X2_PROFILE), (Decomposition([Summand.antipodal(7, 0)]), sphere)):
        violations = verify_decomposition(d, pr)
        assert {v.check for v in violations} >= {"quotient-row", "forgetful-les"}
        for v in violations:
            built = Violation(v.check, v.location, v.expected, v.actual)
            assert type(v) is type(built) is Violation
            assert v == built and repr(v) == repr(built) and str(v) == str(built)
            assert v.to_json_obj() == built.to_json_obj()
        for t in (tally(d), expected(pr)):
            built = Tally(t.row, t.free, t.tops, t.classes)
            assert type(t) is type(built) is Tally
            assert t == built and repr(t) == repr(built) and str(t) == str(built)
    # The location texts come from memos that stay bounded.
    assert checks._row_location.cache_info().maxsize == checks._degree.cache_info().maxsize == 256


def test_quotient_row_walks_wrong_keys_on_both_sides_of_the_base():
    # Row keys below 0 and above 2 are reported in ascending order around
    # 0, 1, 2: the free sphere at beta 0 plus S(-3,0)A0 and S(4,0)A1 (the
    # forgetful LES does not report -3, outside its window).
    sphere = InvariantProfile(FREE_SPHERE, 0)
    wrong = Decomposition([Summand.antipodal(0, 2), Summand.antipodal(-3, 0),
                           Summand.antipodal(4, 1)])
    assert verify_decomposition(wrong, sphere) == [
        ("quotient-row", "(-3,0)", 0, 1), ("quotient-row", "(4,0)", 0, 1),
        ("quotient-row", "(5,0)", 0, 1), ("forgetful-les", "p=4", 0, 1),
        ("forgetful-les", "p=5", 0, 1)]
    assert verify_decomposition(wrong, sphere) == naive_verify(wrong, sphere)
