"""Outside-in layer trace for the qheis benchmark.

The tracer wraps named public callables of each layer and rebinds every
qheis module attribute that held the original, so that calls made through
a name imported into another module (``algebra`` calls ``normalize_free``,
``lie`` calls ``multiply``) are seen as well.  Methods are wrapped on their
class.  Nothing private is read; ``uninstall`` puts every original back.

Every wrapped call is a frame on one stack.  A layer's self time is the
duration of its frames minus the time of the frames they called.  Calls
into module-level functions are also kept as spans (task, id, parent,
name, start, end) in memory, up to a cap, and written out with the run;
the frequent method calls (coefficient arithmetic, term accumulation) are
only counted and timed, which keeps the trace small and cheap.

Everything is recorded under the current ``tag``: ``"task"`` for the timed
call, ``"oracle"`` while the benchmark checks an output, so reference
computations never count as program work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from qheis import algebra, cli, expr, lie, ratfun, rewrite, spectral

SPAN_CAP = 20_000


def _ratfun_result(tracer, result, entered):
    if entered and isinstance(result, ratfun.RatFun):
        tracer.peak("ratfun.max_degree", max(result.num.degree, result.den.degree))


def _gcd_result(tracer, result, entered):
    if result.degree >= 1:
        tracer.count("ratfun.gcd_useful")


def _product_result(tracer, result, entered):
    tracer.count("algebra.terms_out", len(result.terms))


_RATFUN_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse", "q_power", "from_fraction",
)

#: (owner, attribute, layer, options).  ``counter`` names a call counter,
#: ``timer`` an inclusive timer that counts only the outermost call.
TARGETS = (
    [(ratfun.RatFun, name, "ratfun", {"on_result": _ratfun_result}) for name in _RATFUN_OPS]
    + [
        (ratfun.RatFun, "evaluate", "ratfun", {"counter": "ratfun.evaluate_calls"}),
        (ratfun.QPolynomial, "gcd", "ratfun", {"counter": "ratfun.gcd_calls", "timer": "ratfun.gcd_s", "on_result": _gcd_result}),
        (ratfun, "qbracket", "ratfun", {}),
        (ratfun, "qbracket_value", "ratfun", {}),
        (rewrite, "normalize_free", "rewrite", {"counter": "rewrite.calls", "span": True}),
        (rewrite, "word_normal_form", "rewrite", {"counter": "rewrite.words"}),
        (rewrite, "check_confluence", "rewrite", {"span": True}),
        (rewrite.FreeElement, "__add__", "rewrite", {}),
        (rewrite.FreeElement, "scale", "rewrite", {}),
        (algebra, "multiply", "algebra", {"counter": "algebra.products", "on_result": _product_result, "span": True}),
        (algebra, "multiply_cascade", "algebra", {"span": True}),
        (algebra, "bracket", "algebra", {"span": True}),
        (algebra, "ad_power", "algebra", {"span": True}),
        (algebra, "element_power", "algebra", {"span": True}),
        (algebra, "normalize", "algebra", {"span": True}),
        (algebra, "adjoint", "algebra", {"span": True}),
        (algebra.Element, "__add__", "algebra", {}),
        (algebra.Element, "__sub__", "algebra", {}),
        (algebra.Element, "__neg__", "algebra", {}),
        (algebra.Element, "scale", "algebra", {}),
    ]
    + [
        (lie, name, "lie", {"span": True})
        for name in (
            "gamma", "build_ck_al_via_ad", "build_bl_ck_via_ad", "gamma_closed_form_rhs", "gamma_sum_rhs",
            "verify_identity_suite", "verify_fredholm_relations", "decompose", "calkin_image",
            "is_lie_polynomial", "is_compact", "lie_surrogate", "surrogate_residual",
        )
    ]
    + [
        (lie, "apply_symbolic", "lie", {"counter": "lie.apply_symbolic_calls"}),
        (lie.KetImage, "numeric", "lie", {}),
        (spectral, "matrix", "spectral", {"timer": "spectral.matrix_s", "span": True}),
        (spectral, "apply_numeric", "spectral", {"counter": "spectral.columns"}),
    ]
    + [
        (spectral, name, "spectral", {"span": True})
        for name in (
            "op_norm", "compact_decay_report", "spectral_radius_est", "lower_index_est",
            "coherent_vector", "weights", "spectrum_facts",
        )
    ]
    + [
        (np.linalg, "svd", "linalg", {"timer": "spectral.linalg_s", "span": True}),
        (expr, "parse", "expr", {"timer": "expr.parse_s", "span": True}),
        (expr, "parse_ratfun", "expr", {"span": True}),
        (expr, "eval_ast", "expr", {}),
        (expr, "eval_ast_free", "expr", {}),
        (expr, "evaluate", "expr", {"span": True}),
        (expr, "element_text", "expr", {"timer": "expr.render_s"}),
        (expr, "element_json", "expr", {"timer": "expr.render_s"}),
        (expr, "ratfun_json", "expr", {"timer": "expr.render_s"}),
        (cli, "main", "cli", {"timer": "cli.main_s", "span": True}),
    ]
)


def qheis_modules():
    return [m for name, m in list(sys.modules.items()) if name == "qheis" or name.startswith("qheis.")]


class Tracer:
    def __init__(self):
        self.tag = "task"
        self.task = None
        self.self_s = defaultdict(float)  # (tag, layer) -> seconds
        self.entries = defaultdict(int)  # (tag, layer) -> calls entering the layer from outside it
        self.counters = defaultdict(int)  # (tag, name) -> count
        self.timers = defaultdict(float)  # (tag, name) -> seconds, outermost calls only
        self.peaks = defaultdict(int)  # (tag, name) -> maximum
        self.spans = []
        self.spans_dropped = 0
        self._stack = []
        self._depth = defaultdict(int)
        self._next_span = 0
        self._installed = []

    # -- recording ------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[(self.tag, name)] += n

    def peak(self, name: str, value: int) -> None:
        key = (self.tag, name)
        if value > self.peaks[key]:
            self.peaks[key] = value

    def wrap(self, fn, layer: str, name: str, counter=None, timer=None, on_result=None, span=False):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            entered = parent is None or parent[0] != layer
            span_id = None
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
            # frame: layer, time spent in called frames, own span, enclosing span
            frame = [layer, 0.0, span_id, span_id if span else (parent[3] if parent else None)]
            parent_span = parent[3] if parent else None
            tag = tracer.tag
            if entered:
                tracer.entries[(tag, layer)] += 1
            if counter:
                tracer.counters[(tag, counter)] += 1
            if timer:
                tracer._depth[timer] += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[(tag, layer)] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if timer:
                    tracer._depth[timer] -= 1
                    if tracer._depth[timer] == 0:
                        tracer.timers[(tag, timer)] += dur
                if span:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((tag, tracer.task, span_id, parent_span, name, t0, t1))
                    else:
                        tracer.spans_dropped += 1
            if on_result is not None:
                on_result(tracer, result, entered)
            return result

        return traced

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = qheis_modules()
        for owner, attr, layer, opts in TARGETS:
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            if inspect.isclass(owner):
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, layer, name, **opts))
                else:
                    new = self.wrap(raw, layer, name, **opts)
                self._installed.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            new = self.wrap(original, layer, name, **opts)
            for m in {id(m): m for m in modules + [owner]}.values():
                if getattr(m, attr, None) is original:
                    self._installed.append((m, attr, original))
                    setattr(m, attr, new)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain data, keyed "tag|name"."""

        def flat(d):
            return {f"{tag}|{name}": v for (tag, name), v in d.items()}

        return {
            "self_s": flat(self.self_s),
            "entries": flat(self.entries),
            "counters": flat(self.counters),
            "timers": flat(self.timers),
            "peaks": flat(self.peaks),
        }

    def merge(self, snap: dict, task=None, spans=()) -> None:
        """Fold in the snapshot of a traced child process."""
        for field in ("self_s", "entries", "counters", "timers"):
            mine = getattr(self, field)
            for key, v in snap[field].items():
                tag, name = key.split("|", 1)
                mine[(tag, name)] += v
        for key, v in snap["peaks"].items():
            tag, name = key.split("|", 1)
            self.peaks[(tag, name)] = max(self.peaks[(tag, name)], v)
        for s in spans:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((s[0], task, *s[2:]))
            else:
                self.spans_dropped += 1
