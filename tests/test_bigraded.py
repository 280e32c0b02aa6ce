"""Dimension tables, ranks, and multiset algebra for the basic modules."""

import hashlib
import json
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import c2surf.bigraded
from c2surf.bigraded import (
    Bidegree,
    Decomposition,
    Summand,
    render_grid,
)

from c2surf.engine import closed_form, transform
from c2surf.surfaces import ClosedSurface, Op, WordError, apply_op, enumerate_profiles

from _oracles import (
    GOLDEN_M2_SQUARE,
    X1,
    X2,
    an_dim,
    an_rho_rank,
    m2_dim,
    m2_rho_rank,
    m2_tau_rank,
    naive_items,
    naive_render,
    naive_render_grid,
    reference,
    theta_divided_positions,
)

bidegrees = st.builds(Bidegree, st.integers(-25, 25), st.integers(-25, 25))
small_n = st.integers(0, 6)


# -- the point module -------------------------------------------------------

POINT = Summand.free(0, 0)


def rank(summand, b, generator):
    return Decomposition([summand]).rank_at(b, generator)


def test_m2_dim_known_values():
    for b, want in (((0, 0), 1), ((1, 0), 0),
                    ((0, -2), 1),      # theta
                    ((-1, -3), 1)):    # theta/rho
        assert POINT.dim_at(b) == m2_dim(*b) == want


def test_m2_bottom_cone_matches_divided_element_enumeration():
    # Oracle: list the theta/(rho^i tau^j) spots directly from the
    # divisibility rules; inside the window below the i, j <= 5 sweep is
    # exhaustive.
    spots = theta_divided_positions(bound=5)
    assert (-1, -3) in spots
    for p in range(-3, 1):
        for q in range(-7, -1):
            assert POINT.dim_at(Bidegree(p, q)) == (1 if (p, q) in spots else 0)


def test_m2_rho_rank_examples():
    for b, want in (((-1, -3), 1),    # theta/rho -> theta
                    ((0, -3), 0),     # target (1,-2) vanishes
                    ((0, 0), 1)):
        assert rank(POINT, b, "rho") == m2_rho_rank(*b) == want


def test_m2_tau_rank_examples():
    for b, want in (((0, -2), 0),     # tau * theta = 0
                    ((0, -3), 1),     # theta/tau -> theta
                    ((2, 5), 1)):
        assert rank(POINT, b, "tau") == m2_tau_rank(*b) == want


@given(bidegrees)
def test_m2_cones_are_disjoint(b):
    top = b.p >= 0 and b.q >= b.p
    bottom = b.p <= 0 and b.q <= b.p - 2
    assert not (top and bottom)
    assert POINT.dim_at(b) == m2_dim(*b) == int(top or bottom)


@given(bidegrees)
def test_m2_rank_is_source_times_target(b):
    # Cone generators act injectively inside each cone, so rank equals
    # the product of source and target dimensions: the reference's own
    # rank inequalities agree, and so does rank_at.
    assert rank(POINT, b, "rho") == m2_rho_rank(*b) == m2_dim(*b) * m2_dim(b.p + 1, b.q + 1)
    assert rank(POINT, b, "tau") == m2_tau_rank(*b) == m2_dim(*b) * m2_dim(b.p, b.q + 1)


# -- the antipodal modules ---------------------------------------------------


def test_an_dim_examples():
    a0 = Summand.antipodal(0, 0)
    for q in range(-6, 7):
        assert a0.dim_at(Bidegree(0, q)) == an_dim(0, 0) == 1
        assert a0.dim_at(Bidegree(1, q)) == an_dim(0, 1) == 0
    assert Summand.antipodal(0, 2).dim_at(Bidegree(3, 0)) == an_dim(2, 3) == 0
    assert Summand.antipodal(0, 5).dim_at(Bidegree(4, -3)) == an_dim(5, 4) == 1


def test_an_rank_examples():
    assert rank(Summand.antipodal(0, 0), (0, 5), "rho") == an_rho_rank(0, 0) == 0  # rho kills A0
    assert rank(Summand.antipodal(0, 2), (1, -4), "rho") == an_rho_rank(2, 1) == 1
    assert rank(Summand.antipodal(0, 1), (1, 0), "rho") == an_rho_rank(1, 1) == 0  # rho^2 = 0 in A1
    assert rank(Summand.antipodal(0, 1), (1, -9), "tau") == an_dim(1, 1) == 1


@given(small_n, bidegrees)
def test_an_rank_is_source_times_target(n, b):
    an = Summand.antipodal(0, n)
    assert rank(an, b, "rho") == an_rho_rank(n, b.p) == an_dim(n, b.p) * an_dim(n, b.p + 1)
    assert rank(an, b, "tau") == an_dim(n, b.p) == an_dim(n, b.p) * an_dim(n, b.p)


@given(small_n, bidegrees)
def test_an_is_tau_periodic(n, b):
    an = Summand.antipodal(0, n)
    assert an.dim_at(b) == an.dim_at(Bidegree(b.p, 0)) == an_dim(n, b.p)


@given(st.integers(-15, 15), st.integers(-15, 15), st.none() | small_n,
       st.integers(-40, 40))
def test_row_support_matches_the_dimensions(a, b, n, q):
    s = Summand(Bidegree(a, b), n)
    # Weight b - 1 is relative weight -1, where M2 has an empty row.
    for weight in (q, b - 1):
        support = s.row_support(weight)
        for p in [*range(-40, 41), *support]:
            dim = reference([(s, 1)], p, weight)[0]
            assert (p in support) == (dim == 1) == (s.dim_at((p, weight)) == 1), (s, p, weight)
    assert not Summand.free(a, b).row_support(b - 1)


# -- summands and decompositions ---------------------------------------------


def test_dim_at_examples():
    assert Decomposition([Summand.free(0, 0)]).dim_at((0, 1)) == 1
    # Oracle: evaluate the four summands pointwise with m2_dim.
    x1 = X1.answer
    for b in [(1, 0), (1, 1)]:
        manual = sum(m2_dim(*(Bidegree(*b) - s.shift)) for s, _ in x1.items())
        assert x1.dim_at(b) == manual
    assert x1.dim_at((1, 0)) == 1
    assert x1.dim_at((1, 1)) == 3
    assert Decomposition([Summand.antipodal(0, 2)]).dim_at((2, -7)) == 1


def test_rank_at_examples():
    assert Decomposition([Summand.free(0, 0)]).rank_at((0, 0), "rho") == 1
    two_a0 = Decomposition([Summand.antipodal(0, 0), Summand.antipodal(1, 0)])
    assert two_a0.rank_at((0, 3), "rho") == 0
    x2 = X2.answer
    # Oracle: per-summand rank tables summed by hand: 1 (point module at
    # the cone) + 6 (each S(1,1) at its origin) + 0 + 0.
    assert x2.rank_at((1, 1), "rho") == 7
    with pytest.raises(ValueError):
        x2.rank_at((0, 0), "sigma")


def test_canonicalize_examples():
    # Construction is the only canonicalization: a weight-shifted antipodal
    # summand builds the same decomposition as the unshifted one.
    shifted = Decomposition([Summand(Bidegree(1, 1), 0)])
    assert shifted == Decomposition([Summand.antipodal(1, 0)])
    assert list(shifted.items()) == [(Summand.antipodal(1, 0), 1)]
    assert Decomposition([]) == Decomposition({}) == Decomposition({Summand.free(0, 0): 0})
    frees = Decomposition([Summand.free(2, 2), Summand.free(0, 0)])
    assert frees == Decomposition([Summand.free(0, 0), Summand.free(2, 2)])
    assert [str(s) for s, _ in frees.items()] == ["M2", "S(2,2)M2"]


def test_canonicalize_is_idempotent_and_preserves_evaluation():
    raw = [(1, 3, 1), (0, 1, None), (0, -2, 0)]     # (p, q, n) as given
    d = Decomposition([Summand(Bidegree(p, q), n) for p, q, n in raw])
    assert d == Decomposition([Summand.antipodal(1, 1), Summand.free(0, 1),
                               Summand.antipodal(0, 0)])
    # Rebuilding from its own pairs, as a mapping or as a multiset, is
    # the identity.
    again = Decomposition(dict(d.items()))
    assert again == d and list(again.items()) == list(d.items())
    assert Decomposition([s for s, c in d.items() for _ in range(c)]) == d
    # Evaluation agrees with the summands as given, weight shifts included.
    given = [(((sp, sq), n), 1) for sp, sq, n in raw]
    for p in range(-4, 5):
        for q in range(-6, 7):
            b = Bidegree(p, q)
            want = reference(given, p, q)
            assert (d.dim_at(b), d.rank_at(b, "rho"), d.rank_at(b, "tau")) == want


def test_direct_sum_examples():
    m2 = Decomposition([Summand.free(0, 0)])
    assert m2.direct_sum(Decomposition([])) == m2
    assert len(m2 + m2) == 2


summand_strategy = st.one_of(
    st.builds(Summand.free, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(Summand, st.builds(Bidegree, st.integers(-3, 3), st.integers(-3, 3)),
              st.integers(0, 3)),
)
decompositions = st.lists(summand_strategy, max_size=6).map(Decomposition)
wide_summands = st.one_of(
    st.builds(Summand.free, st.integers(-10, 15), st.integers(-12, 12)),
    st.builds(Summand.antipodal, st.integers(-10, 15), st.integers(0, 4)))
wide_decompositions = st.dictionaries(wide_summands, st.integers(1, 3),
                                      max_size=8).map(Decomposition)


summand_specs = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                   st.none() | st.integers(0, 3)), max_size=8)


@given(summand_specs, st.data())
def test_construction_is_canonical(specs, data):
    # (p, q, n) specs; n is None for M2.  The first build uses q as the
    # weight of an antipodal summand, the second a random weight and a
    # shuffled order: both describe the same multiset of isomorphism classes.
    def build(specs, weight):
        return Decomposition([Summand(Bidegree(p, q if n is None else weight(q)), n)
                              for p, q, n in specs])

    d = build(specs, lambda q: q)
    items = list(d.items())
    keys = [s.sort_key() for s, _ in items]
    assert keys == sorted(set(keys))
    assert all(s.shift.q == 0 for s, _ in items if not s.is_free)
    assert len(d) == len(specs)
    e = build(data.draw(st.permutations(specs)),
              lambda q: data.draw(st.integers(-9, 9)))
    assert d == e and hash(d) == hash(e)
    assert str(d) == str(e) and d.to_json_obj() == e.to_json_obj()


@given(st.dictionaries(summand_strategy, st.integers(1, 4), max_size=6))
def test_text_is_the_plain_spelling(counts):
    # A decomposition spells each summand through a memo: its text is still
    # the plain one, each summand's own text with ^c past one copy, in
    # sort_key order, or "0" for the zero module.
    d = Decomposition(counts)
    order = sorted(counts, key=Summand.sort_key)
    want = " + ".join([Summand.__str__(s) + (f"^{counts[s]}" if counts[s] > 1 else "")
                       for s in order]) or "0"
    assert str(d) == str(d) == want and repr(d) == f"Decomposition<{want}>"
    assert str(Decomposition([s for s in order for _ in range(counts[s])])) == want
    assert str(Decomposition()) == "0"
    assert c2surf.bigraded._text.cache_info().maxsize == 1024


def test_text_is_spelled_once_per_decomposition():
    # Each decomposition keeps its text: str returns the same object every
    # time, and a result of the algebra spells its own text, never its
    # operand's, already kept or not.  Each has two or more summands: the
    # text of one summand of count one is its memoized text, the same
    # object with or without the slot.
    def plain(d):
        return " + ".join([f"{s}^{c}" if c > 1 else str(s) for s, c in d.items()]) or "0"

    base = X2.answer
    spelled = Decomposition(dict(base.items()))
    str(spelled)
    extra = Decomposition([Summand.free(3, 1), Summand.antipodal(0, 2)])
    results = [Decomposition(dict(base.items())),
               Decomposition([s for s, c in base.items() for _ in range(c)])]
    for d in (base, spelled):
        results += [d + extra, d + d, d.remove(Summand.free(1, 1)), d.remove(Summand.free(0, 0)),
                    Decomposition.from_json_obj(d.to_json_obj())]
    for d in results:
        text = str(d)
        assert str(d) is text and text == plain(d) and len(d.items()) > 1, text
        assert repr(d) == f"Decomposition<{text}>"
    assert str(spelled) is str(spelled) == str(base)


@given(summand_strategy, st.builds(Bidegree, st.integers(-4, 4), st.integers(-4, 4)),
       bidegrees)
def test_suspension_equivariance(s, t, b):
    # Suspending by t moves the summand's support by t; an antipodal
    # summand's weight shift is absorbed, as tau is invertible on it.
    assert Summand(s.shift + t, s.n).dim_at(b) == s.dim_at(b - t)


@given(decompositions, decompositions, bidegrees)
def test_direct_sum_is_pointwise_additive(d1, d2, b):
    total = d1.direct_sum(d2)
    assert total.dim_at(b) == d1.dim_at(b) + d2.dim_at(b)
    assert total.rank_at(b, "tau") == d1.rank_at(b, "tau") + d2.rank_at(b, "tau")


@given(wide_decompositions, bidegrees)
def test_evaluation_matches_the_reference(d, b):
    want = reference(list(d.items()), *b)
    assert (d.dim_at(b), d.rank_at(b, "rho"), d.rank_at(b, "tau")) == want


@given(decompositions, bidegrees)
def test_rank_soundness(d, b):
    for generator, step in (("rho", Bidegree(1, 1)), ("tau", Bidegree(0, 1))):
        r = d.rank_at(b, generator)
        assert r <= d.dim_at(b)
        assert r <= d.dim_at(b + step)


# -- the algebra against a Counter-based oracle --------------------------------

wide_specs = st.tuples(st.integers(-10, 15), st.integers(-12, 12), st.none() | st.integers(0, 4))
spec_pairs = st.lists(st.tuples(wide_specs, st.integers(0, 3)), max_size=8)


def _summand(p, q, n):
    return Summand(Bidegree(p, q), n)


def _from_pairs(pairs) -> Decomposition:
    return Decomposition([_summand(*spec) for spec, c in pairs for _ in range(c)])


def assert_like_oracle(d: Decomposition, pairs) -> None:
    want = naive_items(pairs)
    assert list(d.items()) == want
    text, obj = naive_render(want)
    assert str(d) == text and d.to_json_obj() == obj
    # An equal decomposition built another way: summands one by one,
    # in reverse order.
    ref = Decomposition([Summand(Bidegree(*shift), n)
                         for (shift, n), c in reversed(want) for _ in range(c)])
    assert d == ref and hash(d) == hash(ref)


@given(spec_pairs)
def test_construction_matches_the_oracle(pairs):
    assert_like_oracle(_from_pairs(pairs), pairs)
    counts = Counter()
    for spec, c in pairs:
        counts[_summand(*spec)] += c        # keeps zero counts
    assert_like_oracle(Decomposition(counts), pairs)
    assert_like_oracle(Decomposition(dict(counts)), pairs)
    s = _summand(*pairs[0][0]) if pairs else Summand.free(0, 0)
    for bad in (-1, 1.0, 2.5, True, "1", None):
        with pytest.raises(ValueError):
            Decomposition({s: bad})
    # A member that is not a Summand, a plain tuple that hashes like one
    # included, is named by both constructor shapes, never read later.
    for bad in (((0, 0), None), ((1, 0), None), "M2", None):
        message = re.escape(f"must be a Summand, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            Decomposition([s, bad])
        with pytest.raises(ValueError, match=message):
            Decomposition({bad: 1})


@given(spec_pairs, spec_pairs, st.data())
def test_direct_sum_matches_the_oracle(pairs1, pairs2, data):
    d1 = _from_pairs(pairs1)
    assert_like_oracle(d1 + _from_pairs(pairs2), pairs1 + pairs2)
    # Only summands d1 already has: d1's order is kept, not re-sorted.
    present = [(spec, c) for spec, c in pairs1 if c]
    same = data.draw(st.lists(st.sampled_from(present), max_size=4)) if present else []
    assert_like_oracle(d1.direct_sum(_from_pairs(same)), pairs1 + same)


@given(spec_pairs, wide_specs, st.booleans())
def test_remove_matches_the_oracle(pairs, spec, from_d):
    if from_d and any(c for _, c in pairs):
        spec = next(spec for spec, c in pairs if c)
    d = _from_pairs(pairs)
    s = _summand(*spec)
    if s not in dict(naive_items(pairs)):
        with pytest.raises(KeyError):
            d.remove(s)
    else:
        assert_like_oracle(d.remove(s), pairs + [(spec, -1)])


def test_remove():
    d = X1.answer
    assert len(d.remove(Summand.free(1, 1))) == 3
    with pytest.raises(KeyError, match=re.escape("decomposition has no summand S(5,5)M2")):
        d.remove(Summand.free(5, 5))


FOLD_PROFILES = enumerate_profiles(8)
FOLD_OPS = [Op("AT11"), Op("AT10"), Op("FM"), Op("DCC"), Op("CS", ClosedSurface(True, 1)),
            Op("CS", ClosedSurface(False, 3))]


@given(decompositions, decompositions, summand_strategy, st.sampled_from(FOLD_PROFILES),
       st.lists(st.sampled_from(FOLD_OPS), max_size=8))
def test_the_algebra_never_mutates_what_it_reads(d1, d2, s, pr, ops):
    # Results copy their operand's dict, and closed_form hands one shared
    # decomposition to every caller: no operation may write to what it read.
    def frozen(d):
        return d.to_json_obj(), str(d)

    read = [(d1, frozen(d1)), (d2, frozen(d2))]     # each operand, as it was
    results = [d1 + d2, d2 + d1, d1 + d1] + [d1.remove(t) for t, _ in d1.items()]
    if s not in dict(d1.items()):
        with pytest.raises(KeyError):
            d1.remove(s)
    d = closed_form(pr)
    for op in ops:
        try:
            nxt = apply_op(pr, op)
        except WordError:
            continue
        read.append((d, frozen(d)))
        d, pr = transform(d, pr, op), nxt
        results.append(d)
    assert [frozen(d) for d, _ in read] == [was for _, was in read]
    # Dict equality ignores order: only the order items() gives shows it.
    for r in results:
        keys = [s.sort_key() for s, _ in r.items()]
        assert keys == sorted(set(keys)), r
    # Every memo entry still reads as a fresh build of its profile.
    for pr in FOLD_PROFILES:
        assert frozen(closed_form(pr)) == frozen(closed_form.__wrapped__(pr)), pr


# SHA-256 of one line per profile of enumerate_profiles(20), in its order:
# "kind beta F C", str(closed_form) and its compact JSON, tab-separated.
# Recorded while Bidegree and Summand were frozen dataclasses.
CLOSED_FORMS_BETA_20_SHA256 = "8972cc0e552537202b62e2e13a2a378f9fd2a83c8da155a0b0dc4fafb0b8a28a"


def test_value_types_keep_their_semantics():
    assert str(Bidegree(1, -2)) == repr(Bidegree(1, -2)) == "(1,-2)"
    # Componentwise arithmetic, not tuple concatenation.
    assert Bidegree(1, 2) + Bidegree(3, 4) == Bidegree(4, 6)
    assert Bidegree(1, 2) - Bidegree(3, 4) == Bidegree(-2, -2)
    assert Bidegree(1, 2) == (1, 2) and hash(Bidegree(1, 2)) == hash((1, 2))
    assert Summand(Bidegree(3, 5), 1) == Summand.antipodal(3, 1)
    assert hash(Summand(Bidegree(3, 5), 1)) == hash(Summand.antipodal(3, 1))
    assert Summand.antipodal(3, 1)._replace(shift=Bidegree(3, 4)).shift == (3, 0)
    assert str(Summand.free(1, 2)) == "S(1,2)M2" and str(Summand.antipodal(0, 2)) == "A2"
    assert POINT.dim_at((0, -2)) == POINT.dim_at(Bidegree(0, -2)) == 1
    with pytest.raises(ValueError):
        Summand.antipodal(0, -1)
    assert type(Summand((1, 2)).shift) is Bidegree and str(Summand((1, 2))) == "S(1,2)M2"
    for make, bad in ((lambda: Summand.free(1.5, 0), "1.5"), (lambda: Summand.antipodal(0, True), "True"),
                      (lambda: Summand(Bidegree("0", 0)), "'0'")):
        with pytest.raises(ValueError, match=re.escape(bad)):
            make()
    with pytest.raises(AttributeError):
        Bidegree(1, 2).p = 3
    with pytest.raises(AttributeError):
        Summand.free(0, 0).shift = Bidegree(1, 1)
    with pytest.raises(AttributeError):
        Summand.free(0, 0).extra = 1
    # A decomposition equals only a decomposition: any other value compares
    # through its own __eq__, never by the counts.
    assert (Decomposition() == 0) is False and (Decomposition() != "x") is True
    digest = hashlib.sha256()
    for pr in enumerate_profiles(20):
        d = closed_form(pr)
        keys = [s.sort_key() for s, _ in d.items()]
        assert keys == sorted(keys)
        digest.update(f"{pr.kind} {pr.beta} {pr.fixed_points} {pr.fixed_circles}\t{d}\t"
                      f"{json.dumps(d.to_json_obj(), separators=(',', ':'))}\n".encode())
    assert digest.hexdigest() == CLOSED_FORMS_BETA_20_SHA256


def test_json_round_trip():
    x2 = X2.answer
    obj = x2.to_json_obj()
    assert json.dumps(obj, separators=(",", ":")) == X2.json
    assert Decomposition.from_json_obj(obj) == x2
    assert Decomposition.from_json_obj({"free": [[0, 0, 1], [0, 0, 2]]}) == Decomposition(
        [Summand.free(0, 0)] * 3)
    for bad in ({"free": [[0, 0, 2.5]]}, {"antipodal": [[1, 0, -1]]}, {"free": [[0, 0, True]]},
                {"free": [[0, 0, "1"]]}, {"free": [[0, 0, 2], [0, 0, -1]]},
                {"Free": [[0, 0, 1]]}, {"free": [[0, 0, 1]], "extra": 1}, {"extra": 1},
                {"free": [[0, 0]]}, {"antipodal": [[1, 0, 1, 1]]}, {"free": [5]},
                {"free": [[1.5, 0, 1]]}, {"free": [[0, 2.0, 1]]}, {"antipodal": [[0, 1.0, 1]]},
                {"free": [[True, 0, 1]]}, {"antipodal": [[0, True, 1]]},
                {"free": [["0", 0, 1]]}, {"antipodal": [[1, "0", 1]]},
                [["free", 1]], 3, None, {"free": 5}, {"free": None}, "free"):
        with pytest.raises(ValueError):
            Decomposition.from_json_obj(bad)


# -- rendering ---------------------------------------------------------------


def test_render_grid_point_module():
    grid = render_grid(Decomposition([Summand.free(0, 0)]), (-3, 3), (-3, 3))
    assert grid.splitlines() == GOLDEN_M2_SQUARE


def test_render_grid_zero_module():
    grid = render_grid(Decomposition([]), (0, 2), (0, 1))
    assert grid.splitlines() == ["...", "..."]


def test_render_grid_large_dims_capped():
    d = Decomposition([Summand.free(0, 0)] * 12)
    assert render_grid(d, (0, 0), (0, 0)) == "+"


def test_render_grid_clamps_totals_past_a_byte():
    # Totals of 9, 10, 255, 256 and 300 in one window: a total above 255
    # fits no byte, so the grid takes its clamping path, and still agrees
    # with the cell-by-cell grid.
    d = Decomposition({Summand.free(p, 0): c for p, c in enumerate((9, 10, 255, 256, 300))})
    grid = render_grid(d, (-1, 5), (-1, 1))
    assert grid.splitlines()[1] == ".9++++."
    assert grid == naive_render_grid(d, (-1, 5), (-1, 1))
    below = Decomposition({Summand.free(p, 0): c for p, c in enumerate((9, 10, 255))})
    assert render_grid(below, (-1, 3), (0, 0)) == ".9++." == naive_render_grid(below, (-1, 3), (0, 0))


def test_render_grid_rejects_inverted_window():
    with pytest.raises(ValueError):
        render_grid(Decomposition([]), (2, 0), (0, 1))
    with pytest.raises(ValueError):
        render_grid(Decomposition([]), (0, 1), (4, -4))


@st.composite
def grid_windows(draw):
    """A (p_range, q_range) pair, over the summands or beyond every one of
    them, and sometimes inverted."""
    pmin, qmin = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    return ((pmin, pmin + draw(st.integers(-2, 20))),
            (qmin, qmin + draw(st.integers(-2, 24))))


@given(wide_decompositions, grid_windows())
def test_render_grid_matches_the_naive_grid(d, window):
    p_range, q_range = window
    if p_range[0] > p_range[1] or q_range[0] > q_range[1]:
        with pytest.raises(ValueError):
            render_grid(d, p_range, q_range)
        return
    want = naive_render_grid(d, p_range, q_range)
    assert render_grid(d, p_range, q_range) == want
    c2surf.bigraded._grid_cells.cache_clear()
    assert render_grid(d, p_range, q_range) == want    # every table cold
    assert render_grid(d, p_range, q_range) == want    # every table warm


def test_grid_memo_holds_one_range_per_row():
    # An entry grows with the window's rows, not its cells: M2 over the
    # largest window the CLI draws (316 x 316) is one run in each weight
    # but -1, where it is zero.
    rows = c2surf.bigraded._grid_cells(Summand.free(0, 0), -158, 157, -158, 157)
    assert len(rows) == 315 and all(type(r) is range and r for r in rows)
    assert sum(map(len, rows)) == sum(
        len(Summand.free(0, 0).row_support(q)) for q in range(-158, 158))
