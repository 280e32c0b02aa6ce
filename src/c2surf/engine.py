"""Closed-form cohomology of C2-surfaces, plus per-surgery rewrite rules.

``closed_form`` emits the full (unreduced) RO(C2)-graded mod-2 Bredon
cohomology of any realizable invariant profile as a decomposition over
the point module.  The answers, by kind of action:

* trivial:        M2 (+) (S(1,0)M2)^beta (+) S(2,0)M2
                  (the point module tensored with singular cohomology)
* free sphere:    (S(1,0)A0)^(beta/2) (+) A2
* free torus:     (S(1,0)A0)^((beta-2)/2) (+) A1 (+) S(1,0)A1
* nonfree, C = 0: M2 (+) (S(1,1)M2)^(F-2) (+) (S(1,0)A0)^((beta-F)/2+1)
                  (+) S(2,2)M2
* nonfree, C > 0: M2 (+) (S(1,1)M2)^(F+C-1) (+) (S(1,0)M2)^(C-1)
                  (+) (S(1,0)A0)^((beta-F)/2+1-C) (+) S(2,1)M2

The profile inequalities make every exponent a nonnegative integer.

``closed_form`` is a bounded memo (``functools.lru_cache``, thread-safe,
1024 entries) keyed by the profile itself, a ``NamedTuple`` that hashes
and compares as its four fields.  Nothing here validates
a profile: an ``InvariantProfile`` is valid from construction, so its
fields are a kind name and three ints.  Results are immutable and shared
between callers.

``transform`` implements the incremental effect of a single surgery on a
closed-form-shaped decomposition, as an independent set of rewrite rules;
folding it along a word must land on ``closed_form`` of the folded
profile, which is the cross-validation the test suite runs exhaustively.
The rules' addends are module constants, except CS(Y)'s (S(1,0)A0)^k,
k = beta(Y), which comes from a small memo keyed by k.  ``transform``
does not take the surgery step on the profile: an ``Op`` is valid from
construction, so only two steps are illegal (any op on a trivial action,
FM with F = 0), and it calls ``apply_op`` on those alone, for its
WordError.  A fold that also calls ``apply_op`` so takes each step once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NoReturn

from .bigraded import Decomposition, Summand
from .surfaces import (
    FREE_SPHERE,
    FREE_TORUS,
    TRIVIAL,
    InvariantProfile,
    Op,
    ProfileError,
    apply_op,
)

_M2 = Summand.free(0, 0)
_S10 = Summand.free(1, 0)
_S11 = Summand.free(1, 1)
_S20 = Summand.free(2, 0)
_S21 = Summand.free(2, 1)
_S22 = Summand.free(2, 2)
_A0_1 = Summand.antipodal(1, 0)

# The fixed addends of the rewrite rules.
_PLUS_2_S11 = Decomposition({_S11: 2})
_PLUS_S11_S10 = Decomposition({_S11: 1, _S10: 1})
_PLUS_S10 = Decomposition({_S10: 1})
_PLUS_A0 = Decomposition({_A0_1: 1})
_TOP_AT10 = Decomposition({_S11: 2, _S21: 1})
_TOP_FM = Decomposition({_S11: 1, _S21: 1})


class TransformError(ValueError):
    """A rewrite rule applied to a decomposition it does not match."""


@lru_cache(maxsize=1024)
def closed_form(pr: InvariantProfile) -> Decomposition:
    """The unreduced cohomology decomposition of a profile (memoized)."""
    kind, beta, f, c = pr
    if kind == TRIVIAL:
        return Decomposition({_M2: 1, _S10: beta, _S20: 1})
    if kind == FREE_SPHERE:
        return Decomposition({_A0_1: beta // 2, Summand.antipodal(0, 2): 1})
    if kind == FREE_TORUS:
        return Decomposition({_A0_1: (beta - 2) // 2, Summand.antipodal(0, 1): 1,
                              Summand.antipodal(1, 1): 1})
    if c == 0:
        return Decomposition({_M2: 1, _S11: f - 2, _A0_1: (beta - f) // 2 + 1, _S22: 1})
    return Decomposition({_M2: 1, _S11: f + c - 1, _S10: c - 1,
                          _A0_1: (beta - f) // 2 + 1 - c, _S21: 1})


def reduced_form(pr: InvariantProfile) -> Decomposition:
    """The reduced cohomology: the unreduced answer minus one unshifted M2.

    Defined for trivial and nonfree actions only; for free actions the
    antipodal summands absorb degree zero and there is no M2 to strip.
    """
    if pr.kind in (FREE_SPHERE, FREE_TORUS):
        raise ProfileError("reduced form is not defined for free actions")
    return closed_form(pr).remove(_M2)


def _free_at_result(beta_y: int, top: Summand) -> Decomposition:
    # Attaching either antitube to a free surface yields
    # M2 (+) (S(1,0)A0)^((beta+2)/2) (+) the top summand.
    return Decomposition({_M2: 1, _A0_1: (beta_y + 2) // 2, top: 1})


@lru_cache(maxsize=64, typed=True)
def _plus_a0(k: int) -> Decomposition:
    """The addend of CS(Y) with beta(Y) = k: (S(1,0)A0)^k.  Typed, so a
    non-int k is never served an int's entry and still fails construction."""
    return Decomposition({_A0_1: k})


def transform(d_y: Decomposition, pr_y: InvariantProfile, op: Op) -> Decomposition:
    """Rewrite the decomposition of Y into that of Y-after-one-surgery.

    ``d_y`` must be in closed-form shape for ``pr_y``; ``op`` must be a
    surgery valid on ``pr_y``, else the WordError of ``apply_op``
    propagates, which ``transform`` calls on the two illegal steps only.
    This is a validation device for the closed formulas, not a general
    module functor: each rule is exactly the incremental statement proved
    by the corresponding cofiber sequence.
    """
    kind = pr_y.kind
    if kind == TRIVIAL:
        _refuse(pr_y, op)
    free_kind = kind in (FREE_SPHERE, FREE_TORUS)
    token = op.token

    if token in ("CS", "DCC"):
        # Connected summing glues two conjugate copies of a punctured Y:
        # each singular 1-class of the glued surface contributes one
        # tau-periodic column in dimension one.
        if token == "DCC":
            return d_y.direct_sum(_PLUS_A0)
        return d_y.direct_sum(_plus_a0(op.surface.beta))

    if token == "AT11":
        if free_kind:
            if d_y != closed_form(pr_y):
                raise TransformError("antitube rule needs the closed-form input")
            return _free_at_result(pr_y.beta, _S22)
        # Pinching the conjugate gluing disks wedges on an S(1,1) sphere,
        # and the remaining extension splits off a second one.
        return d_y.direct_sum(_PLUS_2_S11)

    if token == "AT10":
        if free_kind:
            if d_y != closed_form(pr_y):
                raise TransformError("antitube rule needs the closed-form input")
            return _free_at_result(pr_y.beta, _S21)
        if pr_y.fixed_circles >= 1:
            return d_y.direct_sum(_PLUS_S11_S10)
        # C(Y) = 0: the new circle moves the top class from weight 2 to
        # weight 1; the pinch wedge and the nontrivial extension each
        # contribute one S(1,1)M2.
        return _swap_top(d_y, add=_TOP_AT10)

    # The last token an Op can have: FM.
    if pr_y.fixed_points == 0:
        _refuse(pr_y, op)
    if pr_y.fixed_circles >= 1:
        return d_y.direct_sum(_PLUS_S10)
    # C(Y) = 0: trading a fixed point for a circle again rewrites the
    # top class, with a single new S(1,1)M2 from the extension.
    return _swap_top(d_y, add=_TOP_FM)


def _refuse(pr_y: InvariantProfile, op: Op) -> NoReturn:
    """Raise the WordError of ``apply_op`` for a step ``transform`` has no
    rule for; a step ``apply_op`` takes has a rule, so it never returns."""
    apply_op(pr_y, op)
    raise TransformError(f"no rewrite rule for op {op.token!r}")


def _swap_top(d_y: Decomposition, add: Decomposition) -> Decomposition:
    try:
        trimmed = d_y.remove(_S22)
    except KeyError:
        raise TransformError("rule must remove S(2,2)M2 but the input has none") from None
    return trimmed.direct_sum(add)
