"""Closed formulas, the reduced flag, and the incremental rewrite rules."""

from types import SimpleNamespace

import pytest

import c2surf.surfaces
from c2surf.bigraded import Decomposition, Summand
from c2surf.checks import verify_decomposition
from c2surf.engine import (
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
    apply_op,
    base_profile,
    enumerate_profiles,
    invariants,
    parse_word,
)

M2 = Summand.free(0, 0)
S10 = Summand.free(1, 0)
S11 = Summand.free(1, 1)
S21 = Summand.free(2, 1)
S22 = Summand.free(2, 2)
A0_1 = Summand.antipodal(1, 0)

X1 = Decomposition([M2, S10, S11, S21])
X2 = Decomposition([M2] + [S11] * 6 + [A0_1] * 4 + [S22])
X3 = Decomposition([M2, S11, S21])


def test_worked_examples():
    assert closed_form(InvariantProfile(NONFREE, 2, 0, 2)) == X1
    assert closed_form(InvariantProfile(NONFREE, 14, 8, 0)) == X2
    assert closed_form(InvariantProfile(NONFREE, 1, 1, 1)) == X3


def test_free_examples():
    assert closed_form(InvariantProfile(FREE_SPHERE, 4)) == Decomposition(
        [A0_1, A0_1, Summand.antipodal(0, 2)])
    assert closed_form(InvariantProfile(FREE_TORUS, 2)) == Decomposition(
        [Summand.antipodal(0, 1), Summand.antipodal(1, 1)])


def test_sphere_and_trivial_base_cases():
    assert closed_form(InvariantProfile(NONFREE, 0, 2, 0)) == Decomposition([M2, S22])
    assert closed_form(InvariantProfile(NONFREE, 0, 0, 1)) == Decomposition([M2, S21])
    assert closed_form(InvariantProfile(TRIVIAL, 2)) == Decomposition(
        [M2, S10, S10, Summand.free(2, 0)])


def test_closed_form_rejects_invalid_profiles():
    with pytest.raises(ProfileError):
        closed_form(InvariantProfile(NONFREE, 1, 2, 0))


def test_closed_form_rejects_non_integer_fields():
    # Never coerced: 2.5 used to give S(1,0)M2^2.5, 4.0 gave S(1,0)A0^2.0.
    for fields in [(TRIVIAL, 2.5), (NONFREE, 4.0, 2, 0), (NONFREE, 2, True, 0),
                   (NONFREE, 4, 2, "0"), (FREE_SPHERE, 2.0)]:
        with pytest.raises(ProfileError, match="must be an integer"):
            closed_form(InvariantProfile(*fields))
        with pytest.raises(ProfileError, match="must be an integer"):
            verify_decomposition(Decomposition([M2]), InvariantProfile(*fields))
    # An unhashable kind is named as bad input, never reaching the memo.
    with pytest.raises(ProfileError, match="unknown kind"):
        closed_form(InvariantProfile([NONFREE], 0, 2, 0))


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
    with pytest.raises(ProfileError):
        closed_form(InvariantProfile(NONFREE, 4.0, 2, 0))
    assert str(closed_form(whole)) == "M2 + S(2,2)M2 + S(1,0)A0^2"
    with pytest.raises(ProfileError):
        closed_form(InvariantProfile(NONFREE, 4.0, 2, 0))
    assert str(closed_form(whole)) == "M2 + S(2,2)M2 + S(1,0)A0^2"
    assert closed_form.cache_info().maxsize is not None


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
    assert out == X3
    assert out == closed_form(apply_op(s22, Op("FM")))


def test_transform_antitube_on_free_sphere():
    free2 = InvariantProfile(FREE_SPHERE, 2)
    out = transform(closed_form(free2), free2, Op("AT11"))
    assert out == Decomposition([M2, A0_1, A0_1, S22])


def test_transform_at10_on_circle_action_is_additive():
    x1_profile = InvariantProfile(NONFREE, 2, 0, 2)
    out = transform(X1, x1_profile, Op("AT10"))
    assert out == X1.direct_sum(Decomposition([S11, S10]))


def test_transform_at10_on_point_action_replaces_top_class():
    # The new fixed circle moves the top class to weight one; the wedge
    # and the nontrivial extension contribute two S(1,1)M2 summands.
    s22 = InvariantProfile(NONFREE, 0, 2, 0)
    out = transform(closed_form(s22), s22, Op("AT10"))
    assert out == Decomposition([M2, S11, S11, S21])
    assert out == closed_form(apply_op(s22, Op("AT10")))


def test_transform_connected_sum_with_sphere_is_identity():
    # CS(T[0]) glues two spheres: a legal word that changes nothing.
    pr = InvariantProfile(NONFREE, 2, 0, 2)
    assert transform(X1, pr, Op("CS", ClosedSurface(True, 0))) == X1
    assert apply_op(pr, Op("CS", ClosedSurface(True, 0))) == pr


def test_transform_connected_sum_rejects_a_non_int_beta_after_an_int_one():
    # CS's addend is memoized per beta(Y); a float beta that equals an int
    # one must still fail as a multiplicity, not reuse the int's entry.  A
    # ClosedSurface has an int genus, so the float comes from a stand-in.
    pr = InvariantProfile(NONFREE, 2, 0, 2)
    assert transform(X1, pr, Op("CS", ClosedSurface(True, 1))) == X1 + Decomposition([A0_1] * 2)
    with pytest.raises(ValueError, match="multiplicity must be an integer, got 2.0"):
        transform(X1, pr, Op("CS", SimpleNamespace(beta=2.0)))
    with pytest.raises(ValueError, match="genus must be an integer, got 1.0"):
        transform(X1, pr, Op("CS", ClosedSurface(True, 1.0)))


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
    # transform calls check_op only on the steps it finds illegal: it must
    # still raise on every illegal step, with apply_op's text, and on no
    # legal one.
    ops = [Op("AT11"), Op("AT10"), Op("FM"), Op("DCC"), Op("CS", ClosedSurface(True, 1)),
           Op("CS", ClosedSurface(False, 1)), Op("XX")]
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
