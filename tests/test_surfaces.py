"""Words, profiles, realizability, and the singular profiles."""

import doctest
import itertools

import pytest
from hypothesis import given, strategies as st

import c2surf.surfaces
from c2surf.surfaces import (
    FREE_SPHERE,
    FREE_TORUS,
    KINDS,
    NONFREE,
    TRIVIAL,
    Base,
    ClosedSurface,
    InvariantProfile,
    Op,
    ParseError,
    ProfileError,
    SurgeryWord,
    WordError,
    _enumeration_ops,
    apply_op,
    base_profile,
    enumerate_profiles,
    fixed_sing,
    invariants,
    parse_word,
    profiles_by_scan,
    profiles_by_words,
    quotient_sing,
    underlying_sing,
    validate_profile,
    witnessed_profiles,
)


def test_doctests():
    assert doctest.testmod(c2surf.surfaces).failed == 0


# -- parsing ------------------------------------------------------------------


def test_parse_and_format_round_trip():
    for text in ["S22", "S21 + AT10", "S2a + CS(T[1])", "T1a + DCC",
                 "triv:N[3]", "S22 + FM + AT11 + CS(N[2])"]:
        assert str(parse_word(text)) == text


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_word("S21 + XY")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_word("S99")
    with pytest.raises(ParseError):
        parse_word("S21 + CS(T[x])")
    with pytest.raises(ParseError):
        parse_word("triv:N[0]")   # no nonorientable surface of genus 0
    with pytest.raises(ParseError):
        parse_word("S21 + ")


# -- invariant folding --------------------------------------------------------


def test_base_profiles():
    assert base_profile(Base("S22")) == InvariantProfile(NONFREE, 0, 2, 0)
    assert base_profile(Base("S21")) == InvariantProfile(NONFREE, 0, 0, 1)
    assert base_profile(Base("S2a")) == InvariantProfile(FREE_SPHERE, 0)
    assert base_profile(Base("T1r")) == InvariantProfile(FREE_TORUS, 2)
    assert base_profile(Base("triv", ClosedSurface(False, 3))) == InvariantProfile(TRIVIAL, 3)


def test_invariants_worked_examples():
    assert invariants(parse_word("S22 + FM")) == InvariantProfile(NONFREE, 1, 1, 1)
    assert invariants(parse_word("S21 + AT10")) == InvariantProfile(NONFREE, 2, 0, 2)
    assert invariants(parse_word("S2a + CS(T[1])")) == InvariantProfile(FREE_SPHERE, 4)
    assert invariants(parse_word("T1a + DCC")) == InvariantProfile(FREE_TORUS, 4)


def test_validate_rejects_surgery_on_trivial_base():
    with pytest.raises(WordError, match="trivial") as err:
        invariants(parse_word("triv:T[2] + AT11"))
    assert err.value.op_index == 0


def test_validate_rejects_fm_without_fixed_point():
    with pytest.raises(WordError, match="isolated fixed point"):
        invariants(parse_word("S21 + FM"))
    with pytest.raises(WordError):
        invariants(parse_word("S2a + FM"))


def test_validate_rejects_third_fm_when_points_exhausted():
    invariants(parse_word("S22 + FM + FM"))           # F: 2 -> 1 -> 0, legal
    with pytest.raises(WordError) as err:
        invariants(parse_word("S22 + FM + FM + FM"))
    assert err.value.op_index == 2


words_strategy = st.builds(
    SurgeryWord,
    st.sampled_from([Base(t) for t in ("S22", "S21", "S2a", "T1a", "T1r")]),
    st.lists(st.one_of(
        st.sampled_from([Op("AT11"), Op("AT10"), Op("FM"), Op("DCC")]),
        st.builds(Op, st.just("CS"),
                  st.builds(ClosedSurface, st.booleans(), st.integers(1, 3))),
    ), max_size=5).map(tuple),
)


@given(words_strategy, st.randoms(use_true_random=False))
def test_invariants_are_op_order_insensitive(word, rng):
    try:
        pr = invariants(word)
    except WordError:
        return
    shuffled = list(word.ops)
    rng.shuffle(shuffled)
    try:
        pr2 = invariants(SurgeryWord(word.base, tuple(shuffled)))
    except WordError:
        return  # the permuted order need not validate prefix by prefix
    assert pr == pr2


@given(words_strategy)
def test_valid_words_fold_to_valid_profiles(word):
    try:
        pr = invariants(word)
    except WordError:
        return
    validate_profile(pr)
    assert (2 - pr.beta + pr.fixed_points) % 2 == 0  # Euler consistency


# -- profile validation -------------------------------------------------------


def test_validate_profile_examples():
    validate_profile(InvariantProfile(NONFREE, 14, 8, 0))
    with pytest.raises(ProfileError, match=r"\(mod 2\)"):
        validate_profile(InvariantProfile(NONFREE, 1, 2, 0))
    with pytest.raises(ProfileError, match="F \\+ 2C - 2"):
        validate_profile(InvariantProfile(NONFREE, 0, 0, 2))


def test_validate_profile_rejects_odd_points_without_circles():
    # beta == F (mod 2) alone would allow this; the branched-cover parity
    # argument and word reachability both exclude it.
    with pytest.raises(ProfileError, match="even number of isolated"):
        validate_profile(InvariantProfile(NONFREE, 3, 3, 0))


def test_validate_profile_kind_constraints():
    with pytest.raises(ProfileError):
        validate_profile(InvariantProfile(TRIVIAL, 2, 1, 0))
    with pytest.raises(ProfileError):
        validate_profile(InvariantProfile(FREE_SPHERE, 3))
    with pytest.raises(ProfileError):
        validate_profile(InvariantProfile(FREE_TORUS, 0))
    with pytest.raises(ProfileError):
        validate_profile(InvariantProfile(NONFREE, 0, 0, 0))
    with pytest.raises(ProfileError):
        validate_profile(InvariantProfile("weird", 0))
    with pytest.raises(ProfileError):
        validate_profile(InvariantProfile(NONFREE, -2, 2, 0))


def test_profile_json_round_trip():
    pr = InvariantProfile(NONFREE, 14, 8, 0)
    obj = pr.to_json_obj()
    assert obj == {"kind": "nonfree", "beta": 14, "F": 8, "C": 0}
    assert InvariantProfile.from_json_obj(obj) == pr
    with pytest.raises(ProfileError):
        InvariantProfile.from_json_obj({"kind": "nonfree"})


def test_construction_accepts_exactly_the_realizable_profiles():
    accepted = set()
    for kind in (*KINDS, "spherical"):
        for beta, f, c in itertools.product(range(-1, 11), range(-1, 13), range(-1, 13)):
            try:
                accepted.add(InvariantProfile(kind, beta, f, c))
            except ProfileError:
                pass
    assert accepted == profiles_by_scan(10)
    for fields in [(TRIVIAL, 2.5), (TRIVIAL, "2"), (TRIVIAL, True), (NONFREE, 4, 2.0, 0),
                   (NONFREE, 2, 2, False), (NONFREE, 4, None, 0)]:
        with pytest.raises(ProfileError, match="must be an integer"):
            InvariantProfile(*fields)


def test_apply_op_yields_valid_profiles():
    # A legal surgery on a realizable profile lands on a realizable one:
    # apply_op raises WordError or returns, never ProfileError.
    ops = _enumeration_ops(12) + [Op("CS", ClosedSurface(True, 0))]
    reachable = profiles_by_scan(12 + 12)   # no op raises beta by more than 12
    for pr in profiles_by_scan(12):
        for op in ops:
            try:
                nxt = apply_op(pr, op)
            except WordError:
                continue
            assert nxt in reachable, (pr, op)
    # A surface of non-integer genus gives a non-integer beta: rejected.
    with pytest.raises(ProfileError, match="must be an integer"):
        apply_op(InvariantProfile(FREE_SPHERE, 0), Op("CS", ClosedSurface(True, 1.0)))


# -- singular profiles --------------------------------------------------------


def test_underlying_sing_is_closed_surface():
    assert underlying_sing(InvariantProfile(NONFREE, 14, 8, 0)).h1 == 14
    assert underlying_sing(InvariantProfile(TRIVIAL, 5)).euler() == 2 - 5


def test_fixed_sing_examples():
    x3 = InvariantProfile(NONFREE, 1, 1, 1)
    assert fixed_sing(x3) == c2surf.surfaces.SingProfile(2, 1, 0)
    assert fixed_sing(InvariantProfile(FREE_SPHERE, 2)) == c2surf.surfaces.SingProfile(0, 0, 0)
    # Trivial action: the fixed set is everything.
    assert fixed_sing(InvariantProfile(TRIVIAL, 4)) == c2surf.surfaces.SingProfile(1, 4, 1)


def test_fixed_sing_euler_is_point_count():
    for pr in enumerate_profiles(10):
        if pr.kind == NONFREE:
            assert fixed_sing(pr).euler() == pr.fixed_points


def test_quotient_sing_examples():
    x1 = InvariantProfile(NONFREE, 2, 0, 2)
    assert quotient_sing(x1) == c2surf.surfaces.SingProfile(1, 1, 0)
    assert quotient_sing(InvariantProfile(FREE_SPHERE, 0)) == c2surf.surfaces.SingProfile(1, 1, 1)
    x2 = InvariantProfile(NONFREE, 14, 8, 0)
    assert quotient_sing(x2) == c2surf.surfaces.SingProfile(1, 4, 1)
    x3 = InvariantProfile(NONFREE, 1, 1, 1)
    assert quotient_sing(x3) == c2surf.surfaces.SingProfile(1, 0, 0)
    assert quotient_sing(InvariantProfile(TRIVIAL, 3)) == c2surf.surfaces.SingProfile(1, 3, 1)


def test_quotient_h1_for_free_actions():
    # Doubling the quotient Euler characteristic: h1(X/C2) = beta/2 + 1.
    for beta in range(0, 13, 2):
        assert quotient_sing(InvariantProfile(FREE_SPHERE, beta)).h1 == beta // 2 + 1
        if beta >= 2:
            assert quotient_sing(InvariantProfile(FREE_TORUS, beta)).h1 == beta // 2 + 1


# -- enumeration --------------------------------------------------------------


def test_enumerate_smallest_catalogs():
    zero = set(enumerate_profiles(0))
    assert zero == {InvariantProfile(TRIVIAL, 0),
                    InvariantProfile(FREE_SPHERE, 0),
                    InvariantProfile(NONFREE, 0, 2, 0),
                    InvariantProfile(NONFREE, 0, 0, 1)}
    one = set(enumerate_profiles(1))
    assert one - zero == {InvariantProfile(TRIVIAL, 1),
                          InvariantProfile(NONFREE, 1, 1, 1)}
    fields = {(pr.kind, pr.beta, pr.fixed_points, pr.fixed_circles)
              for pr in enumerate_profiles(12)}
    assert (NONFREE, 1, 3, 0) not in fields


def test_enumeration_paths_agree():
    for beta_max in (0, 1, 5, 12):
        worded = set(profiles_by_words(beta_max))
        scanned = profiles_by_scan(beta_max)
        assert worded <= scanned
        assert worded == scanned


def test_every_scanned_profile_is_valid():
    for pr in profiles_by_scan(10):
        validate_profile(pr)


def test_witness_words_fold_back_to_their_profiles():
    for pr, word in profiles_by_words(8).items():
        assert invariants(word) == pr


def test_witnessed_profiles_sort_the_word_witnesses():
    witnesses = witnessed_profiles(6)
    assert list(witnesses) == sorted(profiles_by_scan(6), key=InvariantProfile.sort_key)
    assert witnesses == profiles_by_words(6)


def test_expected_witnesses():
    witnesses = profiles_by_words(2)
    assert str(witnesses[InvariantProfile(NONFREE, 1, 1, 1)]) == "S22 + FM"
    assert str(witnesses[InvariantProfile(NONFREE, 2, 0, 2)]) == "S21 + AT10"
