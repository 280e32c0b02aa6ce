"""Words, profiles, realizability, and the singular profiles."""

import enum
import itertools
import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import c2surf.surfaces
from _oracles import CELL_PROFILES, WORKED, Affine, naive_parse_word, search_profiles_by_words
from c2surf.checks import Window
from c2surf.engine import _CLOSED_FORMS, _RULES
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
    SingProfile,
    SurgeryWord,
    WordError,
    apply_op,
    _FIXED_SING,
    _QUOTIENT_SING,
    base_profile,
    cell,
    enumerate_profiles,
    fixed_sing,
    invariants,
    parse_surface,
    parse_word,
    profiles_by_words,
    quotient_sing,
    underlying_sing,
    validate_profile,
    witness,
)


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
    # A surface descriptor on its own is read from its first character.
    for token in ("T[x]", "N[0]"):
        with pytest.raises(ParseError) as err:
            parse_surface(token)
        assert err.value.position == 0, token
    with pytest.raises(ParseError):
        parse_word("S21 + CS(T[x])")
    with pytest.raises(ParseError):
        parse_word("triv:N[0]")   # no nonorientable surface of genus 0
    with pytest.raises(ParseError):
        parse_word("S21 + ")


def test_cs_pieces_keep_their_positioned_errors_after_a_good_one():
    # A good CS piece warms the memo of CS pieces; a bad one, seen once or
    # again, at any position, still raises the naive parser's ParseError.
    assert str(parse_word("S21 + CS(T[1])")) == "S21 + CS(T[1])"
    for text in ["S21 + CS(T[x])", "S21 + CS(N[0])", "S21 + CS(T[1]) + CS(T[x])",
                 "S21 + CS(T[1]) +  CS(N[0]) ", "S21 + CS(N[0])", "S21+CS(T[1])+CS(T[x])"]:
        with pytest.raises(ParseError) as err:
            parse_word(text)
        assert _parsed(parse_word, text) == _parsed(naive_parse_word, text)
        assert err.value.position == text.rindex("CS(") + 3
    # The same for triv: bases, each bad one seen twice.
    assert str(parse_word("triv:T[1]")) == "triv:T[1]"
    for text in ["triv:T[x]", " triv:N[0]", "triv:T[x]", " triv:N[0]"]:
        with pytest.raises(ParseError) as err:
            parse_word(text)
        assert _parsed(parse_word, text) == _parsed(naive_parse_word, text)
        assert err.value.position == text.index("triv:") + 5


# Pieces of generated word texts: every base and op, the descriptors of
# ``triv:`` and ``CS(...)`` (good and bad), unknown tokens, the empty one
# and arbitrary text.  A piece is valid in its place about half the time,
# so that texts often parse, or fail only late.
_DESCRIPTORS = ("T[0]", "T[1]", "T[12]", "N[1]", "N[3]", "N[0]", "T[-1]", "T[x]",
                "T[]", "N[1", "X[1]", "t[1]", " T[1]", "T[１]")
_GOOD_BASES = ("S22", "S21", "S2a", "T1a", "T1r", "triv:T[0]", "triv:T[2]", "triv:N[1]")
_GOOD_OPS = ("AT11", "AT10", "FM", "DCC", "CS(T[0])", "CS(T[1])", "CS(N[2])")
_BAD_TOKENS = (("", "XX", "S23", "AT1", "at11", "AT 11", "triv:", "triv", "CS", "CS(",
                "CS()", "CS(T[1]", "S22 S21")
               + tuple(f"triv:{d}" for d in _DESCRIPTORS)
               + tuple(f"CS({d})" for d in _DESCRIPTORS))
_ANY_TOKEN = st.sampled_from(_GOOD_BASES + _GOOD_OPS + _BAD_TOKENS) | st.text(max_size=4)
# ASCII and Unicode whitespace; str.strip removes each of these.
_SPACES = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000", max_size=3)


def _piece(good):
    token = st.booleans().flatmap(lambda ok: st.sampled_from(good) if ok else _ANY_TOKEN)
    return st.tuples(_SPACES, token, _SPACES).map("".join)


def _parsed(parse, text):
    """A parser's word for ``text``, or its ParseError as (position, message)."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.position, str(exc)


@settings(max_examples=400)
@given(_piece(_GOOD_BASES), st.lists(_piece(_GOOD_OPS), max_size=6))
@example("triv:", [])
@example("S22", ["CS()"])
@example("S22 ", [" CS("])
@example("S22", ["triv:T[1]"])
@example("CS(T[1])", [])
@example("", [])
@example("S22", [""])
def test_parse_word_matches_the_naive_parser(base, ops):
    text = "+".join([base] + ops)
    assert _parsed(parse_word, text) == _parsed(naive_parse_word, text)


@pytest.mark.parametrize("make, args, message", [
    (Base, ("XX",), "unknown base token 'XX'"),
    (Base, ("AT11",), "unknown base token 'AT11'"),
    (Base, ("triv",), "triv needs a ClosedSurface, got None"),
    (Base, ("triv", "T[1]"), "triv needs a ClosedSurface, got 'T[1]'"),
    (Base, ("S22", ClosedSurface(True, 1)), "S22 takes no surface, got ClosedSurface(orientable"),
    (Op, ("XX",), "unknown op token 'XX'"),
    (Op, ("S22",), "unknown op token 'S22'"),
    (Op, ("CS",), "CS needs a ClosedSurface, got None"),
    (Op, ("CS", SimpleNamespace(beta=1.0)), "CS needs a ClosedSurface, got namespace(beta=1.0)"),
    (Op, ("DCC", ClosedSurface(True, 1)), "DCC takes no surface, got ClosedSurface(orientable"),
])
def test_bases_and_ops_are_valid_by_construction(make, args, message):
    # Each of these used to build, and then fold to an AttributeError or a
    # KeyError, or (DCC with a surface) fold and print as plain DCC.  The
    # constructor, _make and _replace now reject it by name.
    message = re.escape(message)
    with pytest.raises(ValueError, match=message):
        make(*args)
    with pytest.raises(ValueError, match=message):
        make._make(args)
    good = make("triv" if make is Base else "CS", ClosedSurface(True, 1))
    with pytest.raises(ValueError, match=message):
        good._replace(**dict(zip(make._fields, args + (None,))))


@pytest.mark.parametrize("args, message", [
    (("S22",), "a word's base must be a Base, got 'S22'"),
    ((Op("FM"),), "a word's base must be a Base, got Op(token='FM'"),
    ((Base("S22"), ("FM",)), "a word's op must be an Op, got 'FM'"),
    ((Base("S22"), (Op("FM"), Base("S21"))), "a word's op must be an Op, got Base(token='S21'"),
    ((Base("S22"), [Op("FM")]), "a word's ops must be a tuple, got [Op(token='FM'"),
    ((Base("S22"), Op("FM")), "a word's ops must be a tuple, got Op(token='FM'"),
    ((Base("S22"), (Op("FM"), "AT11", 3)), "a word's op must be an Op, got 'AT11'"),
])
def test_words_are_valid_by_construction(args, message):
    # A word is folded by the fields of its pieces, so a string or a list
    # would reach an AttributeError, or print as a valid word: construction,
    # _make and _replace name it instead, and never coerce a list.
    message = re.escape(message)
    with pytest.raises(ValueError, match=message):
        SurgeryWord(*args)
    with pytest.raises(ValueError, match=message):
        SurgeryWord._make(args + ((),) * (2 - len(args)))
    good = SurgeryWord(Base("S22"), (Op("FM"),))
    with pytest.raises(ValueError, match=message):
        good._replace(**dict(zip(SurgeryWord._fields, args)))


_surfaces = st.builds(ClosedSurface, st.booleans(), st.integers(1, 12))


@given(st.one_of(st.sampled_from([Base(t) for t in Base._PLAIN]),
                 st.builds(Base, st.just("triv"), _surfaces)),
       st.lists(st.one_of(st.sampled_from([Op(t) for t in Op._PLAIN]),
                          st.builds(Op, st.just("CS"), _surfaces)), max_size=6).map(tuple))
def test_word_text_is_the_piece_by_piece_join(base, ops):
    # A word spells each piece through a memo: its text is still the plain
    # join of its pieces' own texts, and parses back to the word.
    w = SurgeryWord(base, ops)
    want = " + ".join(c2surf.surfaces._Piece.__str__(piece) for piece in (base, *ops))
    assert str(w) == str(w) == want and parse_word(want) == w
    assert (c2surf.surfaces._piece_text.cache_info().maxsize
            == c2surf.surfaces._fill.cache_info().maxsize
            == c2surf.surfaces._read_piece.cache_info().maxsize == 256)


# -- invariant folding --------------------------------------------------------


def test_base_profiles():
    assert base_profile(Base("S22")) == InvariantProfile(NONFREE, 0, 2, 0)
    assert base_profile(Base("S21")) == InvariantProfile(NONFREE, 0, 0, 1)
    assert base_profile(Base("S2a")) == InvariantProfile(FREE_SPHERE, 0)
    assert base_profile(Base("T1r")) == InvariantProfile(FREE_TORUS, 2)
    assert base_profile(Base("triv", ClosedSurface(False, 3))) == InvariantProfile(TRIVIAL, 3)


def test_invariants_worked_examples():
    for w in WORKED.values():
        if w.source.startswith("{"):
            pr = InvariantProfile.from_json_obj(json.loads(w.source))
        else:
            pr = invariants(parse_word(w.source))
        assert pr == w.profile, w.source


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


# Words whose ops may be illegal anywhere: trivial bases and FM without a
# fixed point.  A token outside the grammar never makes an ``Op``.
any_words_strategy = st.builds(
    SurgeryWord,
    st.one_of(words_strategy.map(lambda w: w.base),
              st.builds(Base, st.just("triv"),
                        st.builds(ClosedSurface, st.just(True), st.integers(0, 2)))),
    st.lists(st.one_of(
        st.sampled_from([Op("AT11"), Op("AT10"), Op("FM"), Op("DCC")]),
        st.builds(Op, st.just("CS"),
                  st.builds(ClosedSurface, st.booleans(), st.integers(1, 3))),
    ), max_size=6).map(tuple),
)


@given(any_words_strategy)
def test_invariants_is_the_fold_of_apply_op(word):
    # invariants folds integer fields; apply_op builds a profile per op.
    # Both give the same profile, or the same WordError at the same op:
    # apply_op's message names the op alone, and invariants adds its index.
    expected = base_profile(word.base)
    for i, op in enumerate(word.ops):
        try:
            expected = apply_op(expected, op)
        except WordError as exc:
            assert exc.op_index is None
            assert not str(exc).startswith(("base", "op "))
            with pytest.raises(WordError) as err:
                invariants(word)
            assert (err.value.op_index, str(err.value)) == (i, f"op {i}: {exc}")
            return
    assert invariants(word) == expected
    assert type(invariants(word)) is InvariantProfile


def test_invariants_validates_one_profile_per_word(monkeypatch):
    # One profile per word at most: none when the memo of reached profiles
    # already holds it.
    calls = []
    real = c2surf.surfaces.validate_profile
    monkeypatch.setattr(c2surf.surfaces, "validate_profile",
                        lambda pr: calls.append(pr) or real(pr))
    c2surf.surfaces._reached.cache_clear()
    word = parse_word("S22 + FM + AT11 + CS(N[2]) + DCC + AT10")
    profile = invariants(word)
    assert calls == [profile]
    assert invariants(word) is profile
    assert calls == [profile]
    assert profile == InvariantProfile(NONFREE, 11, 3, 2)


def test_apply_op_validates_each_reached_profile_once(monkeypatch):
    s22 = InvariantProfile(NONFREE, 0, 2, 0)
    calls = []
    real = c2surf.surfaces.validate_profile
    monkeypatch.setattr(c2surf.surfaces, "validate_profile",
                        lambda pr: calls.append(pr) or real(pr))
    c2surf.surfaces._reached.cache_clear()
    reached = {apply_op(s22, Op(token)) for token in ("AT11", "AT10", "FM", "DCC") * 3}
    assert sorted(calls) == sorted(reached) and len(reached) == 4


def test_reached_profiles_are_typed_and_never_cache_an_error():
    # The memo of reached profiles is keyed by field value and type: the
    # cached int fields never serve 2.0, True or "2", which still fail.
    reach = c2surf.surfaces._reached
    s22 = InvariantProfile(NONFREE, 0, 2, 0)
    good = apply_op(s22, Op("DCC"))
    assert good == InvariantProfile(NONFREE, 2, 2, 0)
    assert reach(NONFREE, 2, 2, 0) is good
    size = reach.cache_info().currsize
    for bad in (2.0, True, "2"):
        for fields in ((NONFREE, bad, 2, 0), (NONFREE, 2, bad, 0)):
            for _ in range(2):
                with pytest.raises(ProfileError, match="must be an integer"):
                    reach(*fields)
    with pytest.raises(ProfileError, match="beta == F"):
        reach(NONFREE, 1, 2, 0)
    assert reach.cache_info().currsize == size
    # No surgery reaches a float beta: the stand-in surface that carried one
    # makes no Op (test_bases_and_ops_are_valid_by_construction).


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
    for fields, message in (
        ((TRIVIAL, 2, 1, 0), "trivial actions have F = 0 and C = 0"),
        ((FREE_SPHERE, 3), "free sphere-like actions need beta even"),
        ((FREE_TORUS, 0), "free torus-like actions need beta even and >= 2"),
        ((NONFREE, 0, 0, 0), "nonfree actions have a nonempty fixed set"),
        (("weird", 0), "unknown kind 'weird'"),
        # An unhashable kind is named as bad input, never reaching a memo.
        (([NONFREE], 0, 2, 0), "unknown kind ['nonfree']"),
        ((NONFREE, -2, 2, 0), "beta, F, C must be nonnegative"),
        # C = 0 with F even and F >= 2: only the lower bound on beta is left.
        ((NONFREE, 0, 4, 0), "beta >= F - 2 violated"),
    ):
        with pytest.raises(ProfileError, match=re.escape(message)):
            validate_profile(InvariantProfile(*fields))


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
    assert accepted == set(enumerate_profiles(10))
    for fields in [(TRIVIAL, 2.5), (TRIVIAL, "2"), (TRIVIAL, True), (NONFREE, 4, 2.0, 0),
                   (NONFREE, 2, 2, False), (NONFREE, 4, None, 0), (NONFREE, 4.0, 2, 0),
                   (NONFREE, 4, 2, "0"), (FREE_SPHERE, 2.0)]:
        with pytest.raises(ProfileError, match="must be an integer"):
            InvariantProfile(*fields)


class _Count(enum.IntEnum):
    ONE = 1
    TWO = 2
    FOUR = 4


def test_int_subclasses_pass_and_bools_fail_in_every_field():
    # Three exact ints skip validate_profile's type test; any other field
    # type must still meet it, in the constructor and in the JSON reader.
    good = {"kind": NONFREE, "beta": 4, "F": 2, "C": 1}
    want = InvariantProfile(NONFREE, 4, 2, 1)
    for name in ("beta", "F", "C"):
        obj = dict(good, **{name: _Count(good[name])})
        assert InvariantProfile(*obj.values()) == want
        assert InvariantProfile.from_json_obj(obj) == want
        for flag in (True, False):
            obj = dict(good, **{name: flag})
            message = f"profile field {name} must be an integer, got {flag!r}"
            with pytest.raises(ProfileError, match=message):
                InvariantProfile(*obj.values())
            with pytest.raises(ProfileError, match=message):
                InvariantProfile.from_json_obj(obj)


@pytest.mark.parametrize("genus", [1.0, 1.5, True, False, "1", None])
def test_closed_surface_rejects_a_non_int_genus(genus):
    # The type rule of validate_profile, in the constructor and _replace:
    # a bool is never read as 0 or 1, a float never truncated.
    message = re.escape(f"genus must be an integer, got {genus!r}")
    for orientable in (True, False):
        with pytest.raises(ValueError, match=message):
            ClosedSurface(orientable, genus)
        with pytest.raises(ValueError, match=message):
            ClosedSurface(orientable, 1)._replace(genus=genus)
    assert ClosedSurface(False, _Count.TWO).beta == 2
    assert str(ClosedSurface(True, _Count.ONE)) == "T[1]"


def test_apply_op_yields_valid_profiles():
    # A legal surgery on a realizable profile lands on a realizable one:
    # apply_op raises WordError or returns, never ProfileError.
    ops = ([Op(token) for token in ("AT11", "AT10", "FM", "DCC")]
           + [Op("CS", ClosedSurface(True, g)) for g in range(4)]
           + [Op("CS", ClosedSurface(False, s)) for s in range(1, 7)])
    reachable = set(enumerate_profiles(12 + 12))   # no op raises beta by more than 12
    for pr in enumerate_profiles(12):
        for op in ops:
            try:
                nxt = apply_op(pr, op)
            except WordError:
                continue
            assert nxt in reachable, (pr, op)
    # A non-integer beta never reaches a surgery: the Op that would carry
    # it is rejected at construction (test_bases_and_ops_are_valid_by_construction),
    # and ClosedSurface's own type rule is tested with the other surface rules.


# -- singular profiles --------------------------------------------------------


def test_underlying_sing_is_closed_surface():
    assert underlying_sing(InvariantProfile(NONFREE, 14, 8, 0)).h1 == 14
    s = underlying_sing(InvariantProfile(TRIVIAL, 5))
    assert s.h0 - s.h1 + s.h2 == 2 - 5


def test_fixed_sing_examples():
    x3 = InvariantProfile(NONFREE, 1, 1, 1)
    assert fixed_sing(x3) == c2surf.surfaces.SingProfile(2, 1, 0)
    assert fixed_sing(InvariantProfile(FREE_SPHERE, 2)) == c2surf.surfaces.SingProfile(0, 0, 0)
    # Trivial action: the fixed set is everything.
    assert fixed_sing(InvariantProfile(TRIVIAL, 4)) == c2surf.surfaces.SingProfile(1, 4, 1)


def test_fixed_sing_euler_is_point_count():
    for pr in enumerate_profiles(10):
        if pr.kind == NONFREE:
            s = fixed_sing(pr)
            assert s.h0 - s.h1 + s.h2 == pr.fixed_points


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


def test_orbit_space_euler_characteristic_on_every_cell():
    # A proof for every profile, on each cell's symbolic one: the orbit
    # space's and the fixed set's Betti numbers are natural numbers, chi(X)
    # = 2 chi(X/C2) - chi(fixed set), the fixed set's chi is F (the whole
    # surface under the trivial action), and X/C2 is connected, with h2 = 1
    # exactly when C = 0; each "// 2" of the tables is exact.
    def chi(s):
        return s.h0 - s.h1 + s.h2

    for key, pr in CELL_PROFILES.items():
        quotient, fixed, surface = quotient_sing(pr), fixed_sing(pr), underlying_sing(pr)
        assert all(Affine.of(h).nonnegative() for h in quotient + fixed), key
        assert chi(surface) == 2 * chi(quotient) - chi(fixed), key
        assert (quotient.h0, quotient.h2) == (1, 1 if pr.fixed_circles == 0 else 0), key
        if pr.kind == TRIVIAL:
            assert quotient == fixed == surface
        else:
            assert chi(fixed) == pr.fixed_points, key


# -- cells ----------------------------------------------------------------------


def test_every_cell_table_has_the_five_realizable_cells():
    # closed_form, fixed_sing and quotient_sing each read one table keyed
    # by cell(pr), and each has exactly the cells that realizable profiles
    # fall in; _RULES's keys name only those.
    cells = set(CELL_PROFILES)
    assert len(cells) == 5
    for table in (_CLOSED_FORMS, _FIXED_SING, _QUOTIENT_SING):
        assert set(table) == cells
    assert {key[1:] for key in _RULES} <= cells
    assert {cell(pr) for pr in enumerate_profiles(6)} == cells


def test_cell_parameters_reach_exactly_the_profiles_of_each_cell():
    # The proofs run on CELL_PROFILES, so its points must be the cell's
    # profiles: up to beta 14, each point is a valid profile of its cell,
    # no two points are one profile, and every profile is some point.
    bound = 14
    for key, pr in CELL_PROFILES.items():
        assert cell(pr) == key
        fields = pr[1:]
        ranges = [range(bound + 1) if any(v.k[i] for v in fields) else range(1)
                  for i in (1, 2, 3)]
        reached = []
        for point in itertools.product(*ranges):
            values = [v.at(*point) for v in fields]
            if values[0] <= bound:
                reached.append(InvariantProfile(pr.kind, *values))
        want = [p for p in enumerate_profiles(bound) if cell(p) == key]
        assert len(reached) == len(set(reached)) == len(want), key
        assert set(reached) == set(want), key


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
    # The catalog's rows are the scan's profiles, in the scan's order.
    for beta_max in (0, 1, 5, 12):
        assert list(profiles_by_words(beta_max)) == enumerate_profiles(beta_max)


def test_every_scanned_profile_is_valid():
    # Built through the validating constructor, each once, in order of
    # (beta, kind in KINDS order, F, C).
    profiles = enumerate_profiles(40)
    assert len(profiles) == 3624
    for pr in profiles:
        assert type(pr) is InvariantProfile
        validate_profile(pr)
    keys = [(pr.beta, KINDS.index(pr.kind), pr.fixed_points, pr.fixed_circles)
            for pr in profiles]
    assert keys == sorted(set(keys))


def test_witness_words_fold_back_to_their_profiles():
    # witness assembles its words without SurgeryWord's checks, so each one
    # must also be the word the checking constructor builds: a Base and a
    # tuple of Ops.
    witnesses = profiles_by_words(80)
    assert len(witnesses) == 24844
    for pr, word in witnesses.items():
        assert invariants(word) == pr
        assert SurgeryWord(*word) == word
        assert isinstance(word.base, Base)
        assert type(word.ops) is tuple and all(isinstance(op, Op) for op in word.ops)


def test_word_search_matches_the_object_level_search():
    # The closed-form witnesses are the breadth-first search's first words,
    # profile for profile and in the same order.  Beta only grows along a
    # word, so the search at a smaller bound is the one at 40 cut to that
    # bound, as a few smaller bounds check directly; every bound up to 40
    # is compared with that cut.
    full = search_profiles_by_words(40)
    for beta_max in range(41):
        want = [(pr, w) for pr, w in full.items() if pr.beta <= beta_max]
        if beta_max in (0, 1, 2, 9):
            assert list(search_profiles_by_words(beta_max).items()) == want
        got = profiles_by_words(beta_max)
        assert list(got.items()) == want, beta_max
        assert all(type(pr) is InvariantProfile and type(w) is SurgeryWord
                   for pr, w in got.items())


def test_expected_witnesses():
    witnesses = profiles_by_words(2)
    assert str(witnesses[InvariantProfile(NONFREE, 1, 1, 1)]) == "S22 + FM"
    assert str(witnesses[InvariantProfile(NONFREE, 2, 0, 2)]) == "S21 + AT10"
    # One profile per branch of ``witness`` and per fill.
    for fields, word in [((TRIVIAL, 4), "triv:T[2]"), ((TRIVIAL, 5), "triv:N[5]"),
                         ((FREE_SPHERE, 0), "S2a"), ((FREE_SPHERE, 2), "S2a + DCC"),
                         ((FREE_SPHERE, 8), "S2a + CS(T[2])"),
                         ((FREE_SPHERE, 6), "S2a + CS(N[3])"), ((FREE_TORUS, 2), "T1a"),
                         ((FREE_TORUS, 6), "T1a + CS(T[1])"),
                         ((NONFREE, 12, 6, 0), "S22 + AT11 + AT11 + CS(T[2])"),
                         ((NONFREE, 7, 1, 1), "S22 + FM + CS(N[3])"),
                         ((NONFREE, 6, 0, 3), "S21 + AT10 + AT10 + DCC")]:
        assert str(witness(InvariantProfile(*fields))) == word, fields
    # Profiles with the same beta left to fill share that op.
    fill = witness(InvariantProfile(FREE_SPHERE, 8)).ops[-1]
    assert witness(InvariantProfile(FREE_TORUS, 10)).ops[-1] is fill
    assert witness(InvariantProfile(NONFREE, 8, 2, 0)).ops[-1] is fill


# -- value semantics ------------------------------------------------------------


VALUES = [
    (ClosedSurface(False, 2), "ClosedSurface(orientable=False, genus=2)"),
    (Base("triv", ClosedSurface(True, 1)),
     "Base(token='triv', surface=ClosedSurface(orientable=True, genus=1))"),
    (Op("AT10"), "Op(token='AT10', surface=None)"),
    (SurgeryWord(Base("S22"), (Op("FM"),)),
     "SurgeryWord(base=Base(token='S22', surface=None), ops=(Op(token='FM', surface=None),))"),
    (InvariantProfile(NONFREE, 2, 0, 2),
     "InvariantProfile(kind='nonfree', beta=2, fixed_points=0, fixed_circles=2)"),
    (SingProfile(1, 4, 1), "SingProfile(h0=1, h1=4, h2=1)"),
    (Window(-2, 6, -8, 8), "Window(pmin=-2, pmax=6, qmin=-8, qmax=8)"),
]


@pytest.mark.parametrize("value, text", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_keep_their_semantics(value, text):
    assert repr(value) == text
    again = type(value)(*value)
    assert again == value and hash(again) == hash(value) and again is not value
    assert type(value)._make(value) == value and value._replace() == value
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_replace_and_make_reject_what_the_constructor_rejects():
    profile = InvariantProfile(NONFREE, 0, 2, 0)
    with pytest.raises(ProfileError, match=r"\(mod 2\)"):
        profile._replace(beta=1)
    with pytest.raises(ProfileError, match=r"\(mod 2\)"):
        InvariantProfile._make((NONFREE, 1, 2, 0))
    assert profile._replace(beta=2) == InvariantProfile(NONFREE, 2, 2, 0)
    window = Window(-2, 6, -8, 8)
    with pytest.raises(ValueError, match="inverted window 7:6,-8:8"):
        window._replace(pmin=7)
    with pytest.raises(ValueError, match="inverted window"):
        Window._make((0, 0, 1, 0))
    with pytest.raises(ValueError, match="nonorientable genus"):
        ClosedSurface(False, 0)
    with pytest.raises(ValueError, match="nonorientable genus"):
        ClosedSurface(False, 2)._replace(genus=0)
    with pytest.raises(ValueError, match="orientable genus"):
        ClosedSurface._make((True, -1))
    with pytest.raises(ValueError, match="genus must be an integer, got 1.5"):
        ClosedSurface(True, 1)._replace(genus=1.5)
