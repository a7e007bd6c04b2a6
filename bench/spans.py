"""In-memory spans around the public functions of classinv's modules.

A traced run replaces each function below by a wrapper in the namespace
where its caller looks it up (``classinv.classpoly.form_action``, not
``classinv.etarep.form_action``), records one span per call, and puts
the original object back when the ``Tracer`` context exits.  The
package itself is never edited.

Cyclotomic multiplication and Galois maps are counted, not spanned:
they run hundreds of thousands of times per workload, a span would cost
more than the call, and their time stays in the self time of the
caller (for ``word_action`` that is the dense 6x6 product).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import mpmath

import classinv.classpoly as classpoly
import classinv.etarep as etarep
import classinv.numeval as numeval
from classinv.cyclotomic import CycNum

LAYERS = ("quadforms", "sl2words", "etarep", "cyclotomic", "orders",
          "numeval", "classpoly")
"""The package modules, one layer each."""

SPANNED: Tuple[Tuple[object, str, str], ...] = (
    # (namespace the caller looks the name up in, attribute, span name)
    (classpoly, "compute_ramanujan", "classpoly.compute_ramanujan"),
    (classpoly, "compute_hilbert", "classpoly.compute_hilbert"),
    (classpoly, "reduced_forms", "quadforms.reduced_forms"),
    (classpoly, "form_root", "quadforms.form_root"),
    (classpoly, "form_action", "etarep.form_action"),
    (classpoly, "conjugate_action", "etarep.conjugate_action"),
    (classpoly, "r_value", "numeval.r_value"),
    (classpoly, "j_invariant", "numeval.j_invariant"),
    (etarep, "invariance_check", "etarep.invariance_check"),
    (etarep, "full_action", "etarep.full_action"),
    (etarep, "word_action", "etarep.word_action"),
    (etarep, "dual_action", "etarep.dual_action"),
    (etarep, "form_matrix", "sl2words.form_matrix"),
    (etarep, "crt_combine", "sl2words.crt_combine"),
    (etarep, "split_det", "sl2words.split_det"),
    (etarep, "decompose", "sl2words.decompose"),
    (etarep, "lift_word", "sl2words.lift_word"),
    (etarep, "unit_group", "orders.unit_group"),
    (etarep, "generators_for", "orders.generators_for"),
    (etarep, "generator_matrix", "orders.generator_matrix"),
    (numeval, "eta", "numeval.eta"),
    (CycNum, "embed", "cyclotomic.embed"),
)

COUNTED: Tuple[Tuple[object, str, str], ...] = (
    (CycNum, "__mul__", "cyclotomic.mul.calls"),
    (CycNum, "galois", "cyclotomic.galois.calls"),
)

# A span is [name, start, end, parent index or None, polynomial id].
Span = List[object]


class Tracer:
    """Collects spans and counters while installed as a context manager.

    ``poly`` is set by the caller before each top-level call; every span
    opened during that call carries it.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter(dict.fromkeys(
            [name for _, _, name in COUNTED] + ["sl2words.word_tokens"], 0))
        self.eta_digits_max = 0
        self.action_matrices: set = set()
        self.poly: Optional[str] = None
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in SPANNED:
            self._install(owner, attr, self._spanning(name, getattr(owner, attr)))
        for owner, attr, name in COUNTED:
            self._install(owner, attr, self._counting(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _install(self, owner, attr: str, wrapper: Callable) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _note(self, name: str, args: tuple, kwargs: dict) -> None:
        """Per-call measurements taken from the arguments."""
        if name == "etarep.word_action":
            self.counts["sl2words.word_tokens"] += len(args[0])
        elif name == "numeval.eta":
            dps = args[1] if len(args) > 1 else kwargs.get("dps")
            digits = dps if dps is not None else mpmath.mp.dps
            self.eta_digits_max = max(self.eta_digits_max, digits)
        elif name == "etarep.full_action" and self._stack:
            if self.spans[self._stack[-1]][0] == "etarep.form_action":
                self.action_matrices.add(args[0].entries())

    def _spanning(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._note(name, args, kwargs)
            index = len(spans)
            span: Span = [name, 0.0, 0.0, stack[-1] if stack else None, self.poly]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counting(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self, roots: int, results: Sequence[object]) -> Dict[str, float]:
        """Per-layer metrics of the traced pass that produced ``results``;
        ``roots`` is the sum of their class numbers."""
        metrics = function_metrics(self.spans)
        metrics.update(self.counts)
        metrics["numeval.eta.digits_max"] = self.eta_digits_max
        calls = metrics["etarep.form_action.calls"]
        metrics["etarep.matrix_reuse"] = (
            len(self.action_matrices) / calls if calls else 0.0)
        evaluations = metrics["numeval.r_value.calls"] + metrics["numeval.j_invariant.calls"]
        metrics["classpoly.attempts_per_root"] = (
            evaluations / roots if evaluations else 0.0)
        metrics["classpoly.digits_max"] = max(
            getattr(r, "precision_digits", 0) for r in results)
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def unbalanced(self, walls: Dict[str, float], overhead: float) -> List[str]:
        """Polynomials whose span self times do not add up to the wall time
        measured around their call, within the tracing overhead.

        When tracing costs less than the run-to-run noise the measured
        overhead can read 0 or below; 1 ms is then the tolerance.
        """
        tolerance = max(overhead, 1e-3)
        totals = poly_self_totals(self.spans)
        return [f"{poly}: self times add to {totals.get(poly, 0.0):.6f} s, "
                f"traced wall {wall:.6f} s"
                for poly, wall in walls.items()
                if abs(wall - totals.get(poly, 0.0)) > tolerance]

    def dump(self) -> Dict[str, object]:
        """The recorded spans and counters as plain JSON-ready data."""
        return {
            "fields": ["name", "start", "end", "parent", "poly"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children of one parent are
    disjoint and lie inside it; their durations simply add up.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def _outermost(spans: Sequence[Span], index: int, key: Callable[[str], str]) -> bool:
    """No ancestor of the span has the same key, so recursion through one
    function or layer is not counted twice in its busy time."""
    value = key(spans[index][0])
    parent = spans[index][3]
    while parent is not None:
        if key(spans[parent][0]) == value:
            return False
        parent = spans[parent][3]
    return True


def function_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Busy time ``.s``, self time ``.self_s`` and ``.calls`` for every
    wrapped function (keyed by span name) and for every layer."""
    own = self_times(spans)
    names = {name for _, _, name in SPANNED}
    metrics: Dict[str, float] = {}
    for key, groups in ((lambda name: name, names), (layer_of, LAYERS)):
        for group in groups:
            metrics.update({f"{group}.s": 0.0, f"{group}.self_s": 0.0,
                            f"{group}.calls": 0})
        for index, span in enumerate(spans):
            group = key(span[0])
            metrics[f"{group}.calls"] += 1
            metrics[f"{group}.self_s"] += own[index]
            if _outermost(spans, index, key):
                metrics[f"{group}.s"] += span[2] - span[1]
    return metrics


def poly_self_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Sum of the self times of every span, grouped by polynomial id."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[4]] = totals.get(span[4], 0.0) + own
    return totals

