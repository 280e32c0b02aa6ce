"""Closed formulas, the reduced flag, and the incremental rewrite rules."""

import importlib
import inspect
import pkgutil
from collections import Counter
from types import SimpleNamespace

import pytest

import c2surf
import c2surf.surfaces
from _oracles import (
    A0_1,
    CELL_PROFILES,
    CLOSED_FORMS,
    M2,
    QUOTIENT_SING,
    S10,
    S11,
    S21,
    S22,
    W,
    WORKED,
    X1,
    X3,
    Affine,
    nonzero,
)
from c2surf.bigraded import Decomposition, Summand
from c2surf.engine import (
    _RULES,
    _solve,
    TransformError,
    closed_form,
    reduced_form,
    transform,
)
from c2surf.surfaces import (
    FREE_SPHERE,
    FREE_TORUS,
    NONFREE,
    TRIVIAL,
    ClosedSurface,
    InvariantProfile,
    Op,
    ProfileError,
    WordError,
    _ProfileFields,
    _step,
    apply_op,
    base_profile,
    cell,
    enumerate_profiles,
    fixed_sing,
    parse_word,
    quotient_sing,
)


def test_worked_examples():
    for w in WORKED.values():
        assert closed_form(w.profile) == w.answer, w.source


def test_solve_is_the_papers_table_on_every_cell():
    # The proof that closed_form gives the paper's answer for every beta:
    # on each cell's symbolic profile, _solve, fed the fixed set's nonzero
    # Betti numbers as expected keys them, gives the counts of the paper's
    # table, each a natural number and each "// 2" exact; and the orbit
    # space that quotient_sing derives from the Euler characteristic is the
    # paper's, with its "// 2" exact too.
    for key, pr in CELL_PROFILES.items():
        free = nonzero(enumerate(fixed_sing(pr)))
        counts = _solve(free, pr.beta, pr.kind == FREE_SPHERE)
        assert all(Affine.of(c).nonnegative() for c in counts.values()), key
        assert nonzero(counts) == nonzero(CLOSED_FORMS[key](*pr[1:])), key
        assert quotient_sing(pr) == QUOTIENT_SING[key](*pr[1:]), key


def test_closed_form_is_the_papers_table_up_to_beta_40():
    # The proof above, evaluated through the memos of closed_form and
    # expected and the Decomposition built from _solve's counts, zeros
    # dropped: the paper's answer and orbit space on each of the 3,624
    # profiles with beta <= 40.
    profiles = enumerate_profiles(40)
    assert len(profiles) == 3624
    for pr in profiles:
        key = cell(pr)
        assert closed_form(pr) == Decomposition(CLOSED_FORMS[key](*pr[1:])), pr
        assert quotient_sing(pr) == QUOTIENT_SING[key](*pr[1:]), pr


def test_closed_form_memo_matches_a_fresh_computation():
    profiles = enumerate_profiles(20)
    assert len(profiles) == 614
    closed_form.cache_clear()
    for pr in profiles:
        closed_form(pr)
    hits = closed_form.cache_info().hits
    memo = [closed_form(pr) for pr in profiles]
    assert closed_form.cache_info().hits == hits + len(profiles)
    closed_form.cache_clear()
    fresh = [closed_form(pr) for pr in profiles]
    assert closed_form.cache_info().hits == 0
    for m, f in zip(memo, fresh):
        assert m is not f
        assert m == f and str(m) == str(f) and m.to_json_obj() == f.to_json_obj()


def test_closed_form_memo_caches_no_error_and_is_bounded():
    for _ in range(2):
        with pytest.raises(ProfileError):
            closed_form(InvariantProfile(NONFREE, 1, 2, 0))
    # A float field never reaches the memo, before or after its int twin does.
    whole = InvariantProfile(NONFREE, 4, 2, 0)
    want = str(Decomposition({M2: 1, S22: 1, A0_1: 2}))
    with pytest.raises(ProfileError):
        closed_form(InvariantProfile(NONFREE, 4.0, 2, 0))
    assert str(closed_form(whole)) == want
    with pytest.raises(ProfileError):
        closed_form(InvariantProfile(NONFREE, 4.0, 2, 0))
    assert str(closed_form(whole)) == want
    assert closed_form.cache_info().maxsize is not None


def test_every_memo_is_bounded():
    # Every lru_cache in a c2surf module or class dict holds at most 1024
    # entries, so no memo grows with the inputs a long-lived process sees.
    memos = {}
    for info in pkgutil.iter_modules(c2surf.__path__):
        if info.name == "__main__":             # importing it runs the CLI
            continue
        module = importlib.import_module(f"c2surf.{info.name}")
        spaces = [vars(module)] + [vars(cls) for cls in vars(module).values()
                                   if inspect.isclass(cls) and cls.__module__ == module.__name__]
        for space in spaces:
            for name, value in space.items():
                if callable(getattr(value, "cache_parameters", None)):
                    memos[name] = value.cache_parameters()["maxsize"]
    assert {"closed_form", "expected"} <= set(memos)
    for name, maxsize in memos.items():
        assert type(maxsize) is int and maxsize <= 1024, (name, maxsize)


def test_kind_separation():
    for pr in enumerate_profiles(10):
        d = closed_form(pr)
        frees = [s for s, _ in d.items() if s.is_free]
        antis = [s for s, _ in d.items() if not s.is_free]
        if pr.kind in (FREE_SPHERE, FREE_TORUS):
            assert not frees
        if pr.kind == TRIVIAL:
            assert not antis
        if pr.kind in (NONFREE, TRIVIAL):
            # Exactly one summand generated in dimension 0 and one in 2.
            p_counts = {}
            for s, c in d.items():
                p_counts[s.shift.p] = p_counts.get(s.shift.p, 0) + c
            assert p_counts.get(0) == 1
            assert p_counts.get(2) == 1


def test_beta_recovery_formula_for_nonfree_outputs():
    for pr in enumerate_profiles(12):
        if pr.kind != NONFREE:
            continue
        counts = dict(closed_form(pr).items())
        recovered = (2 * counts.get(A0_1, 0) + counts.get(S10, 0) + counts.get(S11, 0))
        assert recovered == pr.beta


def test_reduced_form():
    assert reduced_form(InvariantProfile(NONFREE, 0, 2, 0)) == Decomposition([S22])
    assert reduced_form(InvariantProfile(TRIVIAL, 0)) == Decomposition(
        [Summand.free(2, 0)])
    with pytest.raises(ProfileError):
        reduced_form(InvariantProfile(FREE_SPHERE, 2))


# -- the rewrite rules ---------------------------------------------------------


def test_transform_fm_on_sphere_gives_third_example():
    s22 = InvariantProfile(NONFREE, 0, 2, 0)
    out = transform(closed_form(s22), s22, Op("FM"))
    assert out == X3.answer
    assert out == closed_form(apply_op(s22, Op("FM")))


def test_transform_antitube_on_free_sphere():
    free2 = InvariantProfile(FREE_SPHERE, 2)
    out = transform(closed_form(free2), free2, Op("AT11"))
    assert out == Decomposition([M2, A0_1, A0_1, S22])


def test_transform_at10_on_circle_action_is_additive():
    out = transform(X1.answer, X1.profile, Op("AT10"))
    assert out == X1.answer.direct_sum(Decomposition([S11, S10]))


def test_transform_at10_on_point_action_replaces_top_class():
    # The new fixed circle moves the top class to weight one; the wedge
    # and the nontrivial extension contribute two S(1,1)M2 summands.
    s22 = InvariantProfile(NONFREE, 0, 2, 0)
    out = transform(closed_form(s22), s22, Op("AT10"))
    assert out == Decomposition([M2, S11, S11, S21])
    assert out == closed_form(apply_op(s22, Op("AT10")))


def test_transform_connected_sum_with_sphere_is_identity():
    # CS(T[0]) glues two spheres: a legal word that changes nothing.
    assert transform(X1.answer, X1.profile, Op("CS", ClosedSurface(True, 0))) == X1.answer
    assert apply_op(X1.profile, Op("CS", ClosedSurface(True, 0))) == X1.profile


def test_transform_connected_sum_rejects_a_non_int_beta_after_an_int_one():
    # transform puts beta(Y) in as a count unchecked, so no CS op may carry
    # a non-int one: its surface is a ClosedSurface, whose genus is an int,
    # and a stand-in with a float beta makes no Op.
    x1, pr = X1.answer, X1.profile
    assert transform(x1, pr, Op("CS", ClosedSurface(True, 1))) == x1 + Decomposition([A0_1] * 2)
    with pytest.raises(ValueError, match="genus must be an integer, got 1.0"):
        transform(x1, pr, Op("CS", ClosedSurface(True, 1.0)))


def test_transform_rejects_illegal_ops():
    free0 = InvariantProfile(FREE_SPHERE, 0)
    with pytest.raises(WordError):
        transform(closed_form(free0), free0, Op("FM"))
    trivial = InvariantProfile(TRIVIAL, 2)
    with pytest.raises(WordError):
        transform(closed_form(trivial), trivial, Op("AT11"))


def _outcome(fn, *args):
    """``fn(*args)``'s WordError as its text, or None when it raises none."""
    try:
        fn(*args)
    except WordError as exc:
        assert exc.op_index is None
        return str(exc)
    return None


def test_transform_refuses_exactly_the_steps_apply_op_refuses():
    # transform calls apply_op only on the steps it finds illegal: it must
    # still raise on every illegal step, with apply_op's text, and on no
    # legal one.  An op token with no rule makes no Op (test_surfaces).
    ops = [Op("AT11"), Op("AT10"), Op("FM"), Op("DCC"), Op("CS", ClosedSurface(True, 1)),
           Op("CS", ClosedSurface(False, 1))]
    refused = 0
    for pr in enumerate_profiles(12):
        d = closed_form(pr)
        for op in ops:
            want = _outcome(apply_op, pr, op)
            assert _outcome(transform, d, pr, op) == want, (pr, op)
            refused += want is not None
    assert refused > 100


def test_a_fold_takes_each_surgery_step_once(monkeypatch):
    # A fold of n ops through transform and apply_op takes n steps: the
    # legality of a legal op is never checked apart from its step.
    steps = []
    real = c2surf.surfaces._step
    monkeypatch.setattr(c2surf.surfaces, "_step",
                        lambda *args: steps.append(args[-1]) or real(*args))
    for text in ["S21 + AT10 + AT11 + FM", "S2a + CS(T[1]) + AT11 + DCC + AT10 + FM",
                 "T1a + AT11 + FM + FM + CS(N[3])", "S22 + AT11 + AT11 + FM + AT10"]:
        word = parse_word(text)
        pr = base_profile(word.base)
        d = closed_form(pr)
        steps.clear()
        for op in word.ops:
            d = transform(d, pr, op)
            pr = apply_op(pr, op)
        assert d == closed_form(pr), text
        assert steps == list(word.ops), text


def test_transform_rejects_malformed_inputs():
    s22 = InvariantProfile(NONFREE, 0, 2, 0)
    missing_top = Decomposition([M2])
    with pytest.raises(TransformError, match=r"S\(2,2\)M2"):
        transform(missing_top, s22, Op("FM"))
    free2 = InvariantProfile(FREE_SPHERE, 2)
    with pytest.raises(TransformError, match="closed-form"):
        transform(Decomposition([M2]), free2, Op("AT11"))


def test_transform_rewrites_a_free_input_that_holds_the_antipodal_top():
    # A free antitube removes the antipodal top and adds fixed summands, so
    # an input that holds the top but is not in closed form is rewritten,
    # not refused; a fold's comparison with closed_form still catches it.
    free2 = InvariantProfile(FREE_SPHERE, 2)
    extra = Decomposition([S11])
    out = transform(closed_form(free2) + extra, free2, Op("AT11"))
    assert out == closed_form(apply_op(free2, Op("AT11"))) + extra


def test_rule_table_covers_exactly_the_legal_cells_with_the_closed_form_increment():
    # _RULES has a cell (token, kind, C == 0) for each one where apply_op
    # takes an antitube or FM, and no other, and on every such step from a
    # profile with beta <= 40 what a rule adds less what it removes is
    # closed_form's increment, compared as counts.
    legal = set()
    steps = 0
    for pr in enumerate_profiles(40):
        before = dict(closed_form(pr).items())
        for op in (Op("AT11"), Op("AT10"), Op("FM")):
            try:
                after = closed_form(apply_op(pr, op))
            except WordError:
                continue
            key = (op.token, pr.kind, pr.fixed_circles == 0)
            legal.add(key)
            removed, added = _RULES[key]
            increment = Counter(dict(added))
            increment.subtract(removed)
            want = Counter(dict(after.items()))
            want.subtract(before)
            assert increment == want, (pr, op)
            steps += 1
    assert set(_RULES) == legal
    assert steps == 10477


def test_every_rule_is_the_closed_form_increment_on_every_cell():
    # The proof of the sweep above for every beta: from each cell's
    # symbolic profile, the real _step takes an antitube or FM exactly on
    # the keys of _RULES, the closed form holds every summand its rule
    # removes, and what the rule adds less what it removes is the closed
    # form's increment, with each "// 2" exact.  FM from a cell with C > 0
    # is taken on F = 0 too; an identity of forms holds on F >= 1 all the
    # same.
    legal = set()
    for key, pr in CELL_PROFILES.items():
        before = CLOSED_FORMS[key](*pr[1:])
        for op in (Op("AT11"), Op("AT10"), Op("FM")):
            try:
                fields = _step(*pr, op)
            except WordError:
                continue
            rule = (op.token, pr.kind, pr.fixed_circles == 0)
            legal.add(rule)
            removed, added = _RULES[rule]
            increment = dict(added)
            for s in removed:
                assert (Affine.of(before.get(s, 0)) - 1).nonnegative(), (rule, s)
                increment[s] = increment.get(s, 0) - 1
            change = dict(CLOSED_FORMS[cell(_ProfileFields(*fields))](*fields[1:]))
            for s, c in before.items():
                change[s] = change.get(s, 0) - c
            assert nonzero(increment) == nonzero(change), rule
    assert legal == set(_RULES)


def test_connected_sum_and_cross_cap_are_the_closed_form_increment_on_every_cell():
    # The proof of the CS and DCC steps for every beta: from each nontrivial
    # cell's symbolic profile, the real _step takes CS(Y) with beta(Y) = w,
    # and DCC, and the closed form grows by exactly what transform adds,
    # S(1,0)A0^w and S(1,0)A0, with each "// 2" exact.  _step reads only
    # the op's token and its surface's beta, so a stand-in carries w.
    cs = SimpleNamespace(token="CS", surface=SimpleNamespace(beta=W))
    cells = [key for key, pr in CELL_PROFILES.items() if pr.kind != TRIVIAL]
    assert len(cells) == 4
    for op, addend in ((cs, {A0_1: W}), (Op("DCC"), {A0_1: 1})):
        for key in cells:
            pr = CELL_PROFILES[key]
            fields = _step(*pr, op)
            change = dict(CLOSED_FORMS[cell(_ProfileFields(*fields))](*fields[1:]))
            for s, c in CLOSED_FORMS[key](*pr[1:]).items():
                change[s] = change.get(s, 0) - c
            assert nonzero(change) == nonzero(addend), (op.token, key)
    # ... and transform adds exactly that to a closed form: S(1,0)A0^k for
    # CS(Y) with beta(Y) = k, T[0] for k = 0 and N[k] else, and DCC one.
    steps = [(Op("CS", ClosedSurface(True, 0)), 0), (Op("DCC"), 1)]
    steps += [(Op("CS", ClosedSurface(False, k)), k) for k in range(1, 9)]
    for pr in enumerate_profiles(4):
        if pr.kind == TRIVIAL:
            continue
        d = closed_form(pr)
        for op, k in steps:
            change = dict(transform(d, pr, op).items())
            for s, c in d.items():
                change[s] = change.get(s, 0) - c
            assert nonzero(change) == nonzero({A0_1: k}), (pr, op)


ALL_OPS = [Op("AT11"), Op("AT10"), Op("FM"), Op("DCC"),
           Op("CS", ClosedSurface(True, 1)), Op("CS", ClosedSurface(True, 2)),
           Op("CS", ClosedSurface(False, 1)), Op("CS", ClosedSurface(False, 2)),
           Op("CS", ClosedSurface(False, 3))]


def test_transform_agrees_with_closed_form_on_every_step():
    # One surgery step from every reachable profile; by induction this
    # covers folding along arbitrary words.
    checked = 0
    for pr in enumerate_profiles(12):
        if pr.kind == TRIVIAL:
            continue
        d = closed_form(pr)
        for op in ALL_OPS:
            try:
                nxt = apply_op(pr, op)
            except WordError:
                continue
            assert transform(d, pr, op) == closed_form(nxt), (pr, op)
            checked += 1
    assert checked > 300


def test_transform_fold_along_words():
    for text in ["S21 + AT10 + AT11 + FM", "S2a + CS(T[1]) + AT11 + DCC",
                 "T1a + AT11 + FM + FM", "S22 + AT11 + AT11 + FM + AT10"]:
        word = parse_word(text)
        pr = base_profile(word.base)
        d = closed_form(pr)
        for op in word.ops:
            d = transform(d, pr, op)
            pr = apply_op(pr, op)
        assert d == closed_form(pr), text
