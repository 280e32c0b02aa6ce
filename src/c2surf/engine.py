"""Closed-form cohomology of C2-surfaces, plus per-surgery rewrite rules.

``closed_form`` emits the full (unreduced) RO(C2)-graded mod-2 Bredon
cohomology of any realizable invariant profile as a decomposition over
the point module: by May's structure theorem, the one sum of shifted M2
and A_n whose counts the fixed set, beta and a^2 force, which ``_solve``
reads off ``checks.expected(pr)``'s fixed-set table, beta and the kind.
So a closed form passes ``verify`` by construction.  The tests prove on
symbols, for every beta, that on each cell (kind, C == 0) it is the
paper's table, and each ``_RULES`` entry the increment between two.

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
from .checks import expected
from .surfaces import (
    FREE_SPHERE,
    FREE_TORUS,
    NONFREE,
    TRIVIAL,
    InvariantProfile,
    Op,
    ProfileError,
    apply_op,
)

_M2 = Summand.free(0, 0)
_S10 = Summand.free(1, 0)
_S11 = Summand.free(1, 1)
_S21 = Summand.free(2, 1)
_S22 = Summand.free(2, 2)
_A0_1 = Summand.antipodal(1, 0)
_A1 = Summand.antipodal(0, 1)
_A1_1 = Summand.antipodal(1, 1)
_A2 = Summand.antipodal(0, 2)
_S1 = (_S11, _S10, Summand.free(1, -1))    # S(1,1-k)M2
_S2 = (_S22, _S21, Summand.free(2, 0))     # S(2,2-k)M2

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


def _solve(free: dict[int, int], beta: int, a2: bool) -> dict[Summand, int]:
    """The summand counts, some maybe zero, forced by the fixed set's nonzero
    Betti numbers ``free``, beta and ``a2``, a^2 != 0 on a free action."""
    if free:
        # M2 and the top class _S2[d] = S(2,2-d)M2 take one class each, of
        # degree 0 and the top degree d; any other of degree k is _S1[k].
        d = max(free)
        counts = {_S1[k]: h for k, h in free.items()}
        counts[_S1[0]] -= 1
        counts[_S1[d]] -= 1
        ones = sum(counts.values())
        counts[_M2] = counts[_S2[d]] = 1
    else:
        counts, ones = ({_A2: 1}, 0) if a2 else ({_A1: 1, _A1_1: 1}, 2)
    # S(1,0)A0 restricts to two classes of degree 1, and S(1,q)M2 to one.
    counts[_A0_1] = (beta - ones) // 2
    return counts


class TransformError(ValueError):
    """A rewrite rule applied to a decomposition it does not match."""


@lru_cache(maxsize=1024)
def closed_form(pr: InvariantProfile) -> Decomposition:
    """The unreduced cohomology decomposition of a profile (memoized)."""
    return Decomposition(_solve(expected(pr).free, pr.beta, pr.kind == FREE_SPHERE))


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
