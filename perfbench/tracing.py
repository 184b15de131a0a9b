"""Per-layer tracing of popuc's public functions, installed from outside the package.

Nothing under ``src/`` knows about this module. ``Patches`` swaps a public
function for a wrapper in every popuc module that bound it at import time
(``dynamics`` calls ``gram_opuc`` through its own global, for example) and
puts the originals back afterwards.

Three kinds of wrapper:

- span: records (name, start, end, parent span, job id) and self time, which
  is the span's duration minus the time covered by its child spans and timed
  leaves;
- timed leaf: hot functions that need a self time but would flood the span
  list (``expressions.evaluate``); adds its duration to its own total and to
  the enclosing span's child time, records no span;
- counted: hot leaf functions that get a call count only.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("expressions", "measures", "opuc", "paraorthogonal", "dynamics", "predicates")

SPANS = (
    "measures.moments",
    "measures.quadrature_moment",
    "measures.MomentSequence.toeplitz",
    "opuc.gram_opuc",
    "opuc.inner_product",
    "paraorthogonal.zeros_on_circle",
    "paraorthogonal.aberth_roots",
    "paraorthogonal.fix_zero_param",
    "dynamics.solve_at",
    "dynamics.sweep",
    "dynamics.sweep_verdicts",
    "dynamics.balance_check",
    "dynamics.tracked_velocity",
    "predicates.motion_context",
    "predicates.verdict",
)
TIMED_LEAVES = ("expressions.evaluate",)
COUNTED = (
    "expressions.differentiate",
    "measures.ACWeight.density",
    "measures.circular_gap",
    "opuc.polyval",
    "predicates.w_continuous",
    "predicates.s_factor",
    "predicates.s_sum",
)


def _resolve(target: str):
    """(owner, attribute, original) for 'module.function' or 'module.Class.method'."""
    module, _, rest = target.partition(".")
    owner = sys.modules[f"popuc.{module}"]
    *classes, attr = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


class Patches:
    """Swaps public popuc functions for wrappers; ``restore`` undoes every swap."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper) -> None:
        owner, attr, original = _resolve(target)
        wrapper = functools.wraps(original)(make_wrapper(original))
        if isinstance(owner, type):
            owners = [owner]
        else:
            owners = [
                mod
                for name, mod in list(sys.modules.items())
                if (name == "popuc" or name.startswith("popuc."))
                and getattr(mod, attr, None) is original
            ]
        for mod in owners:
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SolveTimer:
    """Latency of every ``dynamics.solve_at`` call, for the untraced run."""

    def __init__(self):
        self.samples: list[float] = []

    def install(self, patches: Patches) -> None:
        samples = self.samples
        clock = time.perf_counter

        def make(fn):
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    samples.append(clock() - start)

            return timed

        patches.wrap("dynamics.solve_at", make)


class Health:
    """Guard margins read from the PipelineState objects ``solve_at`` returns."""

    def __init__(self):
        self.min_one_minus_abs_alpha = math.inf
        self.min_norm_ratio = math.inf
        self.max_residual = 0.0
        self.max_pre_projection_deviation = 0.0
        self.min_gap = math.inf

    def observe(self, state) -> None:
        family, zs = state.family, state.zero_set
        if len(family.alphas):
            self.min_one_minus_abs_alpha = min(
                self.min_one_minus_abs_alpha, float(1.0 - max(abs(family.alphas)))
            )
        self.min_norm_ratio = min(
            self.min_norm_ratio, float(family.norms[-1] / family.norms[0])
        )
        scale = float(max(abs(state.popuc.poly.coeffs)))
        self.max_residual = max(self.max_residual, float(max(zs.residuals)) / scale)
        self.max_pre_projection_deviation = max(
            self.max_pre_projection_deviation, zs.pre_projection_deviation
        )
        self.min_gap = min(self.min_gap, zs.min_gap)


class Tracer:
    """Spans, self times and call counts, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.health = Health()
        self.job: int | None = None
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def install(self, patches: Patches) -> None:
        for target in SPANS:
            patches.wrap(target, functools.partial(self._span, target))
        for target in TIMED_LEAVES:
            patches.wrap(target, functools.partial(self._timed_leaf, target))
        for target in COUNTED:
            patches.wrap(target, functools.partial(self._counted, target))

    def _span(self, name, fn):
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls
        clock = time.perf_counter
        observe = self.health.observe if name == "dynamics.solve_at" else None

        def span(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][0] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
                self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                observe(result)
            return result

        return span

    def _timed_leaf(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            calls[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return leaf

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.partition(".")[0]] += seconds
        return totals
