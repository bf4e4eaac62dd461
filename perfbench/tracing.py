"""Spans recorded from the benchmark's own process, and the per-layer table.

Nothing here changes the program.  The traced run wraps public calls at
class level (:func:`install`), answers the front end's
``run_in_executor(None, ...)`` hop through a timestamping executor
(:class:`TracingExecutor`, installed with ``loop.set_default_executor``),
and records one ``request`` span per client call.  Spans live in memory
and are written out once, as :func:`export` documents, when the run ends;
:func:`per_layer` recomputes the per-layer table from such a document.

Span names and what they cover:

``request``                    client call to ``FrontendSession.estimate`` -> resumed
``frontend.batch``             executor submit -> worker end (one lane batch)
``executor.run``               worker start -> worker end
``reader.selectivity_batch``   ``KernelDensityEstimator.selectivity_batch``
``backend.selectivity_block``  ``<backend>.selectivity_block``
``server.feedback``            ``SnapshotServer.feedback``
``model.feedback``             ``SelfTuningKDE.feedback``
``model.snapshot``             ``SelfTuningKDE.snapshot``
``reader.from_state``          ``KernelDensityEstimator.from_state``

A lane evaluates its batches one at a time, popping up to its batch cap
from the head of a first-in, first-out queue that a call joins at once,
so requests in call order fill the batches in submit order, each batch
taking as many as it had rows (:func:`attribute`); no program change is
needed for that link.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

FIELDS = ("id", "name", "start", "end", "parent", "request_id", "attrs")

#: One recorded span, in :data:`FIELDS` order.
Span = Tuple[int, str, float, float, Optional[int], Optional[int], Optional[dict]]


class Tracer:
    """In-memory span store shared by every thread of the run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> int:
        return next(self._ids)

    def current(self) -> Optional[int]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def push(self, span_id: int) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span_id)

    def pop(self) -> None:
        self._local.stack.pop()

    def record(self, span: Span) -> None:
        self.spans.append(span)  # list.append is atomic under the GIL

    def clear(self) -> None:
        self.spans = []

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None):
        """``fn`` recording a ``name`` span under the calling thread's span."""
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.new_id()
            parent = tracer.current()
            tracer.push(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.pop()
                extra = attrs(args) if attrs is not None else None
                tracer.record((span_id, name, start, end, parent, None, extra))

        traced.__wrapped__ = fn
        return traced


class TracingExecutor(ThreadPoolExecutor):
    """Default executor that timestamps submit, worker start and worker end.

    Records a ``frontend.batch`` span (submit -> end) with an
    ``executor.run`` child (start -> end) while :attr:`recording` is set;
    otherwise it is a plain :class:`ThreadPoolExecutor`.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(thread_name_prefix="perfbench-exec")
        self.tracer = tracer
        self.recording = False

    def submit(self, fn, /, *args, **kwargs):
        if not self.recording:
            return super().submit(fn, *args, **kwargs)
        tracer = self.tracer
        submitted = perf_counter()
        batch_id = tracer.new_id()
        run_id = tracer.new_id()
        rows = len(args[0]) if args and hasattr(args[0], "__len__") else None

        def run():
            started = perf_counter()
            tracer.push(run_id)
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                tracer.pop()
                tracer.record((run_id, "executor.run", started, ended,
                               batch_id, None, None))
                tracer.record((batch_id, "frontend.batch", submitted, ended,
                               None, None, {"rows": rows}))

        return super().submit(run)


def _backend_classes() -> List[type]:
    """Every execution backend class that defines its own selectivity_block."""
    from repro.core.backends import ExecutionBackend

    found, pending = [], [ExecutionBackend]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not ExecutionBackend and "selectivity_block" in vars(cls):
            found.append(cls)
    return found


def install(tracer: Tracer, readers: Optional[list] = None) -> Callable[[], None]:
    """Wrap the traced public calls at class level; returns the undo.

    ``readers`` (when given) collects every reader engine built through
    ``KernelDensityEstimator.from_state`` while installed.
    """
    from repro.core.estimator import KernelDensityEstimator
    from repro.core.model import SelfTuningKDE
    from repro.serve.server import SnapshotServer

    saved: List[Tuple[type, str, object]] = []

    def patch(cls, attr, value):
        saved.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, value)

    patch(KernelDensityEstimator, "selectivity_batch", tracer.wrap(
        "reader.selectivity_batch",
        KernelDensityEstimator.selectivity_batch,
        attrs=lambda args: {"rows": len(args[1])},
    ))
    for cls in _backend_classes():
        patch(cls, "selectivity_block", tracer.wrap(
            "backend.selectivity_block", vars(cls)["selectivity_block"],
            attrs=lambda args: {"backend": args[0].name},
        ))
    patch(SnapshotServer, "feedback",
          tracer.wrap("server.feedback", SnapshotServer.feedback))
    patch(SelfTuningKDE, "feedback",
          tracer.wrap("model.feedback", SelfTuningKDE.feedback))
    patch(SelfTuningKDE, "snapshot",
          tracer.wrap("model.snapshot", SelfTuningKDE.snapshot))

    from_state = vars(KernelDensityEstimator)["from_state"].__func__
    traced_from_state = tracer.wrap("reader.from_state", from_state)

    def collecting_from_state(cls, *args, **kwargs):
        reader = traced_from_state(cls, *args, **kwargs)
        if readers is not None:
            readers.append(reader)
        return reader

    patch(KernelDensityEstimator, "from_state",
          classmethod(collecting_from_state))

    def uninstall() -> None:
        for cls, attr, value in reversed(saved):
            setattr(cls, attr, value)

    return uninstall


# ----------------------------------------------------------------------
# Attribution and the per-layer table
# ----------------------------------------------------------------------
def attribute(
    calls: Sequence[float],
    resolved: Sequence[float],
    submits: Sequence[float],
    ends: Sequence[float],
    rows: Sequence[int],
) -> List[int]:
    """Index of the batch that answered each request, or -1.

    Requests, taken in call order, fill the batches, taken in submit
    order, each batch taking ``rows`` of them: the lane's queue is first
    in, first out, and a batch may leave requests queued behind it when
    more are waiting than its cap.  A match that called after its batch
    was submitted, or resolved before it ended, is impossible and yields
    -1, as do requests left over when the batches are full.
    """
    out = [-1] * len(calls)
    pending = iter(sorted(range(len(calls)), key=calls.__getitem__))
    for batch in sorted(range(len(submits)), key=submits.__getitem__):
        for request in itertools.islice(pending, rows[batch]):
            if calls[request] <= submits[batch] and ends[batch] <= resolved[request]:
                out[request] = batch
    return out


def self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds and self seconds.

    Self time is a span's duration minus the part of it that its child
    spans cover (children of one span may overlap only across threads;
    their union is what is subtracted).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    table: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, _parent, _rid, _attrs in spans:
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered
    return table


def export(spans: Sequence[Span], counters: Dict[str, float], **extra) -> dict:
    """The trace document written when the run ends."""
    return {
        "fields": list(FIELDS),
        "spans": [list(span) for span in spans],
        "counters": dict(counters),
        **extra,
    }


def _ms(values, q: float) -> float:
    return float(np.quantile(values, q)) * 1e3 if len(values) else 0.0


def per_layer(doc: dict) -> Dict[str, float]:
    """The per-layer metrics, recomputed from an :func:`export` document.

    Span-derived timings come from ``doc["spans"]``; counts the program
    keeps itself (lane and backend stats, publish and tuner counters)
    come from ``doc["counters"]``.  A metric of a layer the workload does
    not exercise (staleness without a writer, table bytes of a numpy
    reader) reads 0.
    """
    spans = [tuple(s) for s in doc["spans"]]
    by_id = {s[0]: s for s in spans}
    runs = {s[4]: s for s in spans if s[1] == "executor.run"}
    batches = [s for s in spans if s[1] == "frontend.batch" and s[0] in runs]
    requests = [s for s in spans if s[1] == "request"]

    queue_wait, hop, fanout = [], [], []
    for request in requests:
        batch_id = (request[6] or {}).get("batch")
        if batch_id is None or batch_id not in runs:
            continue
        batch, run = by_id[batch_id], runs[batch_id]
        queue_wait.append(batch[2] - request[2])
        hop.append(run[2] - batch[2])
        fanout.append(request[3] - run[3])
    hop_per_batch = [runs[b[0]][2] - b[2] for b in batches]

    run_ids = set(s[0] for s in runs.values())
    readers = [s for s in spans
               if s[1] == "reader.selectivity_batch" and s[4] in run_ids]
    reader_ids = set(s[0] for s in readers)
    reader_s = [s[3] - s[2] for s in readers]
    reader_rows = sum((s[6] or {}).get("rows", 0) for s in readers)
    block_s = sum(s[3] - s[2] for s in spans
                  if s[1] == "backend.selectivity_block" and s[4] in reader_ids)

    feedbacks = [s for s in spans if s[1] == "server.feedback"]
    publish: Dict[int, float] = {}
    for s in spans:
        if s[1] in ("model.snapshot", "reader.from_state") and s[4] is not None:
            parent = by_id.get(s[4])
            if parent is not None and parent[1] == "server.feedback":
                publish[s[4]] = publish.get(s[4], 0.0) + (s[3] - s[2])
    model_feedback = [s[3] - s[2] for s in spans if s[1] == "model.feedback"]
    from_state = [s[3] - s[2] for s in spans if s[1] == "reader.from_state"]

    counters = doc["counters"]
    return {
        "frontend.queue_wait_p50_ms": _ms(queue_wait, 0.5),
        "frontend.queue_wait_p99_ms": _ms(queue_wait, 0.99),
        # The hop is a property of the batch, so its percentiles are
        # taken over batches, not over the requests riding them.
        "frontend.executor_hop_p50_ms": _ms(hop_per_batch, 0.5),
        "frontend.executor_hop_p99_ms": _ms(hop_per_batch, 0.99),
        "frontend.fanout_p50_ms": _ms(fanout, 0.5),
        "frontend.batch_size_mean": counters["frontend.batch_size_mean"],
        "frontend.batches": counters["frontend.batches"],
        "reader.batch_p50_ms": _ms(reader_s, 0.5),
        "reader.batch_p99_ms": _ms(reader_s, 0.99),
        "reader.us_per_query": (
            sum(reader_s) / reader_rows * 1e6 if reader_rows else 0.0
        ),
        "backend.block_share": (
            block_s / sum(reader_s) if reader_s else 0.0
        ),
        "backend.rows_per_query": counters["backend.rows_per_query"],
        "backend.builds": counters["backend.builds"],
        # A table backend's build is its table; a reader without tables
        # is ready once constructed, so its build is ``from_state``.
        "backend.build_p50_ms": (
            counters["backend.build_p50_ms"] or _ms(from_state, 0.5)
        ),
        "backend.table_bytes": counters["backend.table_bytes"],
        "backend.qerror_vs_numpy_max": counters["backend.qerror_vs_numpy_max"],
        "server.feedback_p50_ms": _ms([s[3] - s[2] for s in feedbacks], 0.5),
        "server.feedback_p99_ms": _ms([s[3] - s[2] for s in feedbacks], 0.99),
        "server.publish_p50_ms": _ms(list(publish.values()), 0.5),
        "server.publishes": counters["server.publishes"],
        "server.staleness_mean": counters["server.staleness_mean"],
        "model.feedback_p50_ms": _ms(model_feedback, 0.5),
        "model.train_s": counters["model.train_s"],
        "model.tuner_updates": counters["model.tuner_updates"],
        "model.points_replaced": counters["model.points_replaced"],
        "trace.overhead_pct": counters["trace.overhead_pct"],
    }
