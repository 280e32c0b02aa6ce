"""Per-layer tracing of c2surf, installed from outside the package.

The tracer replaces functions and methods of the six c2surf modules with
wrappers and puts the originals back on ``uninstall``.  Nothing under
``src/`` changes.  Three kinds of wrapper:

* ``span``    -- timed, and one span per call is kept in memory.  Used only
  at per-operation and per-check boundaries (``cli.main``, the five checks
  and ``verify_decomposition``).
* ``timed``   -- total time, self time and calls, summed; no span.
* ``counted`` -- calls only.  Used for the hot methods (``dim_at``,
  ``rank_at``, ``Decomposition.__init__`` / ``items``), which run millions
  of times per run.

Self time is a wrapper's duration minus the time covered by the timed
wrappers called inside it.

Most modules import with ``from .x import y``, so a caller holds its own
binding of ``y``.  A function is therefore replaced in every loaded
``c2surf`` module that binds the original object, not only where it is
defined; otherwise its layer would silently read zero.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (metric prefix, module, attribute path, kind).  The metric prefix names
# the layer (module) and the function, so numbers stay comparable across
# refactors that move code inside a module.
TARGETS = (
    ("cli.main", "c2surf.cli", "main", SPAN),
    ("checks.verify_decomposition", "c2surf.checks", "verify_decomposition", SPAN),
    ("checks.check_quotient_row", "c2surf.checks", "check_quotient_row", SPAN),
    ("checks.check_rho_localization", "c2surf.checks", "check_rho_localization", SPAN),
    ("checks.check_forgetful_les", "c2surf.checks", "check_forgetful_les", SPAN),
    ("checks.check_top_class", "c2surf.checks", "check_top_class", SPAN),
    ("checks.check_beta_recovery", "c2surf.checks", "check_beta_recovery", SPAN),
    ("engine.transform", "c2surf.engine", "transform", TIMED),
    ("engine.closed_form", "c2surf.engine", "closed_form", TIMED),
    ("bigraded.render_grid", "c2surf.bigraded", "render_grid", TIMED),
    ("bigraded.Decomposition.eq", "c2surf.bigraded", "Decomposition.__eq__", TIMED),
    ("surfaces.parse_word", "c2surf.surfaces", "parse_word", TIMED),
    ("surfaces.enumerate_profiles", "c2surf.surfaces", "enumerate_profiles", TIMED),
    ("f2linalg.betti_f2", "c2surf.f2linalg", "betti_f2", TIMED),
    ("bigraded.dim_at", "c2surf.bigraded", "Decomposition.dim_at", COUNTED),
    ("bigraded.rank_at", "c2surf.bigraded", "Decomposition.rank_at", COUNTED),
    ("bigraded.Decomposition.init", "c2surf.bigraded", "Decomposition.__init__", COUNTED),
    ("bigraded.Decomposition.items", "c2surf.bigraded", "Decomposition.items", COUNTED),
    ("surfaces.apply_op", "c2surf.surfaces", "apply_op", COUNTED),
    ("surfaces.profiles_by_words", "c2surf.surfaces", "profiles_by_words", COUNTED),
    ("f2linalg.F2Matrix.rank", "c2surf.f2linalg", "F2Matrix.rank", COUNTED),
)


def _window_area(window) -> int:
    return (window.pmax - window.pmin + 1) * (window.qmax - window.qmin + 1)


class Tracer:
    """Wraps the TARGETS while installed and accumulates their numbers."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.op_id = None
        self._stack: list[list[float]] = []
        self._span_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- accumulation ------------------------------------------------------

    def _timed_wrapper(self, name, fn, span, after=None):
        stack, span_stack = self._stack, self._span_stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            span_index = None
            if span and self.keep_spans:
                span_index = len(self.spans)
                parent = span_stack[-1] if span_stack else None
                self.spans.append(None)
                span_stack.append(span_index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if span_index is not None:
                    span_stack.pop()
                    self.spans[span_index] = (span_index, parent, self.op_id,
                                              name, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def operation(self, op_id, fn, *args):
        """Run one workload operation as a top-level span."""
        self.op_id = op_id
        wrapped = self._timed_wrapper("op", fn, span=True)
        try:
            return wrapped(*args)
        finally:
            self.op_id = None

    # -- installation --------------------------------------------------------

    def _after(self, name, fn):
        if name == "checks.check_forgetful_les":
            signature = inspect.signature(fn)

            def count_bidegrees(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts["checks.forgetful_les.bidegrees"] += _window_area(
                    bound.arguments["window"])
            return count_bidegrees
        if name == "checks.verify_decomposition":
            def count_violations(args, kwargs, result):
                self.counts["checks.violations"] += len(result)
            return count_violations
        return None

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "c2surf" or n.startswith("c2surf."))]
        for name, module_name, attr, kind in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if cls_path else getattr(owner, leaf)
            if kind == COUNTED:
                wrapper = self._counted_wrapper(name, original)
            else:
                wrapper = self._timed_wrapper(name, original, kind == SPAN,
                                              self._after(name, original))
            if cls_path:
                self._patch(owner, leaf, wrapper)
                continue
            # Every module-level binding of the same object: the defining
            # module and each ``from .x import y`` in another module.
            for module in loaded:
                if module.__dict__.get(leaf) is original:
                    self._patch(module, leaf, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def bindings(self) -> list[str]:
        """``module.attr`` for every binding currently replaced."""
        return sorted(f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
