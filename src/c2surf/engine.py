"""Closed-form cohomology of C2-surfaces, plus per-surgery rewrite rules.

``closed_form`` emits the full (unreduced) RO(C2)-graded mod-2 Bredon
cohomology of any realizable invariant profile as a decomposition over
the point module: one entry of ``_CLOSED_FORMS`` per cell (kind, C == 0)
of ``surfaces.cell``, each summand's count affine in beta, F and C.  The
profile inequalities make every count a natural number.  The tests prove
this on each cell for every beta, on symbols, as they prove that
``checks.expected`` is the tally of each entry and that each ``_RULES``
entry is the increment between two.

``closed_form`` is a bounded, thread-safe memo (1024 entries) keyed by
the profile, which is valid from construction, so nothing here validates
it.  Results are immutable and shared between callers.

``transform`` implements the incremental effect of a single surgery on a
closed-form-shaped decomposition, as an independent set of rewrite rules:
each removes fixed summands, one copy each, then adds fixed counts of
summands, and is applied as one ``Decomposition._edit``, one copy of the
dict.  The antitubes' and FM's are one table, ``_RULES``, keyed by
(op, kind, C == 0); CS(Y) adds k = beta(Y) copies of S(1,0)A0 (for k = 0,
CS(T[0]), it returns its input), and DCC one.  ``transform`` never calls
``closed_form``, nor takes the surgery step: only two steps are illegal
(any op on a trivial action, FM with F = 0), and it calls ``apply_op`` on
those alone, for its WordError.
"""

from __future__ import annotations

from functools import lru_cache

from .bigraded import Decomposition, Summand
from .surfaces import (
    FREE_SPHERE,
    FREE_TORUS,
    NONFREE,
    TRIVIAL,
    InvariantProfile,
    Op,
    ProfileError,
    apply_op,
    cell,
)

_M2 = Summand.free(0, 0)
_S10 = Summand.free(1, 0)
_S11 = Summand.free(1, 1)
_S20 = Summand.free(2, 0)
_S21 = Summand.free(2, 1)
_S22 = Summand.free(2, 2)
_A0_1 = Summand.antipodal(1, 0)
_A1 = Summand.antipodal(0, 1)
_A1_1 = Summand.antipodal(1, 1)
_A2 = Summand.antipodal(0, 2)

# The rule of each antitube and FM, keyed by (token, kind, C == 0): the
# summands it removes, one copy each, and the (summand, count) pairs it then
# adds: the two arguments of ``Decomposition._edit``.
# A free kind has C = 0, and FM needs F >= 1, so it has no free cell.
_RULES = {
    # Pinching the conjugate gluing disks wedges on an S(1,1) sphere,
    # and the remaining extension splits off a second one.
    ("AT11", NONFREE, False): ((), ((_S11, 2),)),
    ("AT11", NONFREE, True): ((), ((_S11, 2),)),
    # C(Y) > 0: the top class already sits in weight 1; the pinch wedge
    # adds one S(1,1)M2 and the new circle one S(1,0)M2.
    ("AT10", NONFREE, False): ((), ((_S11, 1), (_S10, 1))),
    # C(Y) = 0: the new circle moves the top class from weight 2 to
    # weight 1; the pinch wedge and the nontrivial extension each
    # contribute one S(1,1)M2.
    ("AT10", NONFREE, True): ((_S22,), ((_S11, 2), (_S21, 1))),
    # C(Y) > 0: trading a fixed point for a circle keeps the top class,
    # and the new circle adds one S(1,0)M2.
    ("FM", NONFREE, False): ((), ((_S10, 1),)),
    # C(Y) = 0: trading a fixed point for a circle again rewrites the
    # top class, with a single new S(1,1)M2 from the extension.
    ("FM", NONFREE, True): ((_S22,), ((_S11, 1), (_S21, 1))),
    # An antitube on a free surface makes the action nonfree: its
    # antipodal top, A2 on a sphere and A1 (+) S(1,0)A1 on a torus, gives
    # way to the M2 of the new fixed set, the top class S(2,2)M2 (AT11) or
    # S(2,1)M2 (AT10), and one resp. two tau-periodic columns S(1,0)A0.
    ("AT11", FREE_SPHERE, True): ((_A2,), ((_M2, 1), (_A0_1, 1), (_S22, 1))),
    ("AT10", FREE_SPHERE, True): ((_A2,), ((_M2, 1), (_A0_1, 1), (_S21, 1))),
    ("AT11", FREE_TORUS, True): ((_A1, _A1_1), ((_M2, 1), (_A0_1, 2), (_S22, 1))),
    ("AT10", FREE_TORUS, True): ((_A1, _A1_1), ((_M2, 1), (_A0_1, 2), (_S21, 1))),
}


# closed_form per cell (kind, C == 0): each summand's count in beta, F, C.
_CLOSED_FORMS = {
    # The point module tensored with singular cohomology.
    (TRIVIAL, True): lambda b, f, c: {_M2: 1, _S10: b, _S20: 1},
    (FREE_SPHERE, True): lambda b, f, c: {_A0_1: b // 2, _A2: 1},
    (FREE_TORUS, True): lambda b, f, c: {_A0_1: (b - 2) // 2, _A1: 1, _A1_1: 1},
    (NONFREE, True): lambda b, f, c: {_M2: 1, _S11: f - 2, _A0_1: (b - f) // 2 + 1, _S22: 1},
    (NONFREE, False): lambda b, f, c: {_M2: 1, _S11: f + c - 1, _S10: c - 1,
                                       _A0_1: (b - f) // 2 + 1 - c, _S21: 1},
}


class TransformError(ValueError):
    """A rewrite rule applied to a decomposition it does not match."""


@lru_cache(maxsize=1024)
def closed_form(pr: InvariantProfile) -> Decomposition:
    """The unreduced cohomology decomposition of a profile, from
    ``_CLOSED_FORMS`` (memoized)."""
    return Decomposition(_CLOSED_FORMS[cell(pr)](*pr[1:]))


def reduced_form(pr: InvariantProfile) -> Decomposition:
    """The reduced cohomology: the unreduced answer minus one unshifted M2,
    for trivial and nonfree actions only (a free action's antipodal summands
    absorb degree zero, and there is no M2 to strip)."""
    if pr.kind in (FREE_SPHERE, FREE_TORUS):
        raise ProfileError("reduced form is not defined for free actions")
    return closed_form(pr).remove(_M2)


def transform(d_y: Decomposition, pr_y: InvariantProfile, op: Op) -> Decomposition:
    """Rewrite the decomposition of Y into that of Y-after-one-surgery.

    ``d_y`` must be in closed-form shape for ``pr_y``; ``op`` must be a
    surgery valid on ``pr_y``, else the WordError of ``apply_op``
    propagates, which ``transform`` calls on the two illegal steps only.
    This is a validation device for the closed formulas, not a general
    module functor: each rule is exactly the incremental statement proved
    by the corresponding cofiber sequence.  A summand a rule removes and
    ``d_y`` lacks raises TransformError.
    """
    kind, _, f, c = pr_y
    token = op.token
    if kind == TRIVIAL or (token == "FM" and f == 0):
        apply_op(pr_y, op)
        # A guard: test_transform_refuses_exactly_the_steps_apply_op_refuses pins equal refusals.
        raise TransformError(f"no rewrite rule for op {token!r}")
    if token == "CS":
        # Connected summing glues two conjugate copies of a punctured Y:
        # each singular 1-class of the glued surface contributes one
        # tau-periodic column in dimension one.  CS(T[0]) changes nothing.
        k = op.surface.beta
        return d_y._edit((), ((_A0_1, k),)) if k else d_y
    if token == "DCC":
        return d_y._edit((), ((_A0_1, 1),))
    remove, add = _RULES[token, kind, c == 0]
    try:
        return d_y._edit(remove, add)
    except KeyError:
        s = next(s for s in remove if s not in dict(d_y.items()))
        raise TransformError(f"{token} must remove {s}, which the input lacks:"
                             " it is not in closed-form shape") from None
