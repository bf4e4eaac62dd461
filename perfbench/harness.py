"""Drive one workload through the public serving stack and measure it.

The stack is ``EstimatorFrontend`` -> lane -> ``SnapshotServer`` ->
reader -> backend, with a feedback writer beside it on tune-feedback.
Load comes from one process and one asyncio event loop: clients are
coroutines, each sending its next request when the previous one is
answered (closed loop).  tune-feedback adds one writer thread that
applies its feedback stream on a fixed schedule (open loop), so the
benchmark itself uses at most two threads.

Everything is read from outside the program: client-side clocks, public
stats, and (in the traced run) wrappers around public calls.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import platform
import resource
import statistics
import threading
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy

from repro.core import SelfTuningKDE
from repro.core.estimator import KernelDensityEstimator
from repro.db import Table
from repro.geometry import Box, QueryBatch
from repro.serve import (
    EstimatorFrontend,
    ModelKey,
    ModelRegistry,
    Overloaded,
    SnapshotServer,
)

from . import inputs, spec, tracing

#: Untimed closed-loop seconds before measuring: creates the lane and
#: its dispatcher and runs the first batches.
WARMUP_SECONDS = 0.5

#: Untraced read-only phases run past their deadline until this many
#: requests are answered, so that ten latencies lie beyond p99.
MIN_LATENCY_SAMPLES = 1000

#: Rounds a read-only workload's timed reads are cut into, each followed by
#: its share of the workload's closed-loop feedbacks, so the feedback lags
#: sample the host over the whole run rather than the few seconds after it.
FEEDBACK_ROUNDS = 8

#: Served answers of an exact reader must equal a fresh numpy reader's.
EXACT_TOLERANCE = 1e-12

#: Timings are figured per window of about this length, then averaged over
#: the windows.  No shorter: each window must hold a whole tune-feedback
#: publication cycle (ten feedbacks at 10/s), or some windows would miss
#: the grid rebuilds that workload is there to measure.
WINDOW_SECONDS = 1.0

#: Share of windows dropped at each end before averaging, so a stall of a
#: second or two on a shared host does not move the figure.  A mean rather
#: than a median of the rest: such a host alternates between a fast and a
#: slow state every few seconds, and a median jumps between the two as
#: their shares of a run cross one half, where a mean moves in proportion.
TRIM = 0.1

#: Failure messages kept for the report (the count is always exact).
_KEEP_ERRORS = 5


@dataclass
class Tally:
    """Operations attempted and the ways they failed."""

    attempted: int = 0
    shed: int = 0
    raised: int = 0
    rejected: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.shed + self.raised + self.rejected

    def note(self, message: str) -> None:
        if len(self.errors) < _KEEP_ERRORS:
            self.errors.append(message)

    def check(self, value: float) -> bool:
        """The gate every answer passes: finite and inside [0, 1]."""
        if math.isfinite(value) and 0.0 <= value <= 1.0:
            return True
        self.rejected += 1
        self.note(f"answer {value!r} outside [0, 1]")
        return False


@dataclass
class Service:
    frontend: EstimatorFrontend
    server: SnapshotServer
    model: SelfTuningKDE
    key: ModelKey


@dataclass
class Phase:
    """What one closed-loop phase observed."""

    #: Seconds per answered request; an ``array`` so that the benchmark's
    #: own memory barely grows with throughput (peak RSS is a metric).
    latencies: array
    #: ``perf_counter`` time each answered request resumed, same order.
    ends: array
    started: float
    wall: float
    #: ``(request id, call, resumed)`` per answered request, traced runs only.
    requests: List[Tuple[int, float, float]]
    staleness: List[int]

    @property
    def answered(self) -> int:
        return len(self.latencies)

    @property
    def rate(self) -> float:
        return self.answered / self.wall if self.wall > 0 else 0.0

    @staticmethod
    def joined(phases: List["Phase"]) -> "Phase":
        """Untraced ``phases`` run one after another, as one phase with the
        time between them cut out."""
        latencies, ends = array("d"), array("d")
        gap = 0.0
        previous_end = phases[0].started
        for phase in phases:
            gap += phase.started - previous_end
            latencies.extend(phase.latencies)
            ends.extend(end - gap for end in phase.ends)
            previous_end = phase.started + phase.wall
        return Phase(latencies, ends, phases[0].started,
                     sum(phase.wall for phase in phases), [], [])


async def set_up(
    table: Table, data: inputs.Inputs, workload: spec.Workload
) -> Tuple[Service, float, float]:
    """The program calls before the first timed request.

    Returns the service, the whole set-up time and the training pass
    time.  Only program calls are inside the clock.
    """
    train = data.boxes("train")
    key = ModelKey.for_table("bench", table.column_names)
    started = perf_counter()
    sample = table.analyze(workload.sample_size, seed=spec.DATA_SEED)
    model = SelfTuningKDE(
        sample, row_source=table, population_size=len(table),
        seed=spec.DATA_SEED,
    )
    trained = perf_counter()
    model.feedback_many(train, data.train_truth)
    train_s = perf_counter() - trained
    registry = ModelRegistry()
    server = registry.register(
        key, model, reader_backend=workload.reader_backend
    )
    server.warm()
    frontend = EstimatorFrontend(registry)
    await frontend.start()
    setup_s = perf_counter() - started
    return Service(frontend, server, model, key), setup_s, train_s


@dataclass
class Load:
    """The workload's clients: ``clients`` coroutines on one event loop."""

    service: Service
    pool: List[Box]
    #: Client ``c`` sends ``pool[order[c]], pool[order[c + clients]], ...``.
    order: np.ndarray
    clients: int
    tally: Tally

    async def _estimate(self, session, box: Box) -> Optional[float]:
        """One request; ``None`` when it was shed, raised or failed the gate."""
        tally = self.tally
        tally.attempted += 1
        try:
            value = await session.estimate(self.service.key, box)
        except Overloaded:
            tally.shed += 1
            return None
        except Exception:
            tally.raised += 1
            tally.note(traceback.format_exc(limit=3))
            return None
        return value if tally.check(value) else None

    async def closed_loop(
        self, keep_going: Callable[[int], bool], traced: bool = False
    ) -> Phase:
        """Closed-loop clients while ``keep_going(answered)`` holds."""
        latencies = array("d")
        ends = array("d")
        requests: List[Tuple[int, float, float]] = []
        staleness: List[int] = []
        server = self.service.server
        ids = iter(range(1, 1 << 62))

        async def client(position: int) -> None:
            async with self.service.frontend.session() as session:
                while keep_going(len(latencies)):
                    box = self.pool[self.order[position % len(self.order)]]
                    position += self.clients
                    call = perf_counter()
                    if await self._estimate(session, box) is None:
                        continue
                    resumed = perf_counter()
                    latencies.append(resumed - call)
                    ends.append(resumed)
                    if traced:
                        requests.append((next(ids), call, resumed))
                        staleness.append(server.staleness)

        started = perf_counter()
        await asyncio.gather(*(client(i) for i in range(self.clients)))
        return Phase(latencies, ends, started, perf_counter() - started,
                     requests, staleness)

    async def ask_once(self, boxes: List[Box]) -> np.ndarray:
        """Every query once, through the same number of sessions."""
        answers = np.full(len(boxes), np.nan)
        pending = iter(range(len(boxes)))

        async def client() -> None:
            async with self.service.frontend.session() as session:
                for index in pending:
                    value = await self._estimate(session, boxes[index])
                    if value is not None:
                        answers[index] = value

        await asyncio.gather(*(client() for _ in range(self.clients)))
        return answers


class Writer(threading.Thread):
    """Open-loop feedback writer: feedback ``i`` is due ``i / rate`` s in.

    Lag is measured from when a feedback was due, so a stall delays (and
    is charged to) every feedback queued behind it.
    """

    def __init__(self, server, boxes, truths, rate: float) -> None:
        super().__init__(name="perfbench-writer")
        self.server = server
        self.boxes = boxes
        self.truths = truths
        self.rate = rate
        self.lags: List[float] = []
        self.errors: List[str] = []
        self.done = threading.Event()
        self.start_time = 0.0

    def run(self) -> None:
        try:
            for i, (box, truth) in enumerate(zip(self.boxes, self.truths)):
                due = self.start_time + i / self.rate
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    self.server.feedback(box, float(truth))
                except Exception:
                    self.errors.append(traceback.format_exc(limit=3))
                self.lags.append(perf_counter() - due)
        finally:
            self.done.set()

    async def beside(self, load: Load, traced: bool) -> Phase:
        """Apply the stream while ``load`` reads, until it is exhausted."""
        self.start_time = perf_counter()
        self.start()
        try:
            return await load.closed_loop(
                lambda _answered: not self.done.is_set(), traced
            )
        finally:
            # Clients stop once the stream is exhausted, so this returns at
            # once; after a cancellation it waits out the rest of the stream.
            self.join()


async def reads_between_feedbacks(
    load: Load, server, boxes, truths, seconds: float, tally: Tally
) -> Tuple[Phase, List[float]]:
    """Closed-loop reads for ``seconds`` in :data:`FEEDBACK_ROUNDS` rounds,
    each followed by its share of the closed-loop feedbacks."""
    phases: List[Phase] = []
    lags: List[float] = []
    answered = 0
    shares = np.array_split(np.arange(len(boxes)), FEEDBACK_ROUNDS)
    for round_, share in enumerate(shares):
        timer = _deadline(seconds / FEEDBACK_ROUNDS)
        last = round_ == FEEDBACK_ROUNDS - 1
        phase = await load.closed_loop(
            lambda n: timer(n) or (last and answered + n < MIN_LATENCY_SAMPLES)
        )
        phases.append(phase)
        answered += phase.answered
        lags += feedback_tail(server, [boxes[i] for i in share], truths[share], tally)
    return Phase.joined(phases), lags


def feedback_tail(server, boxes, truths, tally: Tally) -> List[float]:
    """Closed-loop feedbacks: each is due when the previous one returned."""
    lags = []
    for box, truth in zip(boxes, truths):
        tally.attempted += 1
        due = perf_counter()
        try:
            server.feedback(box, float(truth))
        except Exception:
            tally.raised += 1
            tally.note(traceback.format_exc(limit=3))
        lags.append(perf_counter() - due)
    return lags


def qerrors(estimates: np.ndarray, truths: np.ndarray, floor: float) -> np.ndarray:
    """Floored Q-error ``max(e/t, t/e)`` with both sides raised to ``floor``."""
    e = np.maximum(estimates, floor)
    t = np.maximum(truths, floor)
    return np.maximum(e / t, t / e)


def _window_count(samples: int, span: float, q: float) -> int:
    """One window per :data:`WINDOW_SECONDS` of ``span``, each holding at
    least ten samples beyond the ``q`` quantile (one window if too few)."""
    return max(1, min(int(span / WINDOW_SECONDS), int(samples * (1.0 - q) / 10)))


def trimmed_mean(values) -> float:
    """Mean of ``values`` without the :data:`TRIM` share at each end."""
    values = np.sort(np.asarray(values))
    cut = int(len(values) * TRIM)
    return float(np.mean(values[cut:len(values) - cut]))


def windowed_quantile(values, q: float, span: float) -> float:
    """Trimmed mean over consecutive windows of the ``q`` quantile of
    ``values``, which were observed in this order over ``span`` seconds."""
    values = np.asarray(values)
    parts = np.array_split(values, _window_count(len(values), span, q))
    return trimmed_mean([np.quantile(part, q) for part in parts])


def windowed_rate(ends, started: float, span: float) -> float:
    """Trimmed mean over consecutive windows of answers per second, from
    the sorted times ``ends`` at which answers arrived after ``started``."""
    ends = np.asarray(ends)
    rates = []
    for part in np.array_split(ends, _window_count(len(ends), span, 0.5)):
        rates.append(len(part) / (part[-1] - started))
        started = part[-1]
    return trimmed_mean(rates)


def _deadline(seconds: float) -> Callable[[int], bool]:
    end = perf_counter() + seconds
    return lambda _answered: perf_counter() < end


@dataclass
class _Traced:
    """What the traced run keeps besides its spans."""

    tracer: tracing.Tracer
    executor: tracing.TracingExecutor
    #: The reader serving when tracing began, then every reader engine
    #: built while the wrappers were installed.
    readers: list = field(default_factory=list)
    publishes_before: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    def install(self) -> Callable[[], None]:
        return tracing.install(self.tracer, self.readers)


async def _traced_phases(
    load: Load, writer: Optional[Writer], seconds: float, traced: _Traced
) -> Phase:
    """The overhead pair, then the phase the layers are measured in.

    The pair is the same read load untraced and traced.  Read-only
    workloads measure their layers in the traced half; tune-feedback
    measures them with its writer running, after the pair.
    """
    service = load.service
    share = seconds / 2 if writer is None else seconds / 4
    plain = await load.closed_loop(_deadline(share))
    traced.readers.append(service.server.published.reader)
    traced.publishes_before = service.server.publish_count
    lane = service.frontend.stats(service.key)
    traced.executor.recording = True
    uninstall = traced.install()
    try:
        phase = pair = await load.closed_loop(_deadline(share), traced=True)
        if writer is not None:
            traced.tracer.clear()
            lane = service.frontend.stats(service.key)
            phase = await writer.beside(load, traced=True)
    finally:
        traced.executor.recording = False
        uninstall()
    after = service.frontend.stats(service.key)
    batches = after.batches - lane.batches
    traced.counters.update({
        "trace.overhead_pct": (
            (plain.rate - pair.rate) / plain.rate * 100.0 if plain.rate else 0.0
        ),
        "frontend.batches": float(batches),
        "frontend.batch_size_mean": (
            (after.answered - lane.answered) / batches if batches else 0.0
        ),
        "server.staleness_mean": (
            float(np.mean(phase.staleness)) if phase.staleness else 0.0
        ),
    })
    return phase


async def run(
    workload: spec.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    table_rows: int,
    cache_dir: Path,
    src: Path,
) -> dict:
    """Run ``workload`` once; returns the full result record."""
    data = inputs.load(workload, table_rows, cache_dir, src)
    table = Table(workload.dimensions, initial_rows=data.rows)
    probe = data.boxes("probe")
    tally = Tally()
    traced: Optional[_Traced] = None
    if trace:
        tracer = tracing.Tracer()
        traced = _Traced(tracer, tracing.TracingExecutor(tracer))
        asyncio.get_running_loop().set_default_executor(traced.executor)

    setups: List[Tuple[float, float]] = []
    service: Optional[Service] = None
    for _ in range(spec.SETUP_REPEATS):
        if service is not None:
            await service.frontend.stop()
        service, setup_s, train_s = await set_up(table, data, workload)
        setups.append((setup_s, train_s))
    server = service.server
    order = np.random.default_rng(seed).permutation(len(data.pool_low))
    load = Load(service, data.boxes("pool"), order, workload.clients, tally)
    await load.closed_loop(_deadline(WARMUP_SECONDS))

    writer: Optional[Writer] = None
    if workload.feedback_rate is not None:
        count = int(round(workload.feedback_rate * seconds))
        writer = Writer(server, data.boxes("stream")[:count],
                        data.stream_truth[:count], workload.feedback_rate)

    tail = data.boxes("tail")
    if traced is not None:
        phase = await _traced_phases(load, writer, seconds, traced)
        if writer is None:
            # Every feedback after the reads: the model ends in the same
            # state as when they are spread between the reads.
            uninstall = traced.install()
            try:
                lags = feedback_tail(server, tail, data.tail_truth, tally)
            finally:
                uninstall()
    elif writer is not None:
        phase = await writer.beside(load, traced=False)
    else:
        phase, lags = await reads_between_feedbacks(
            load, server, tail, data.tail_truth, seconds, tally
        )

    # The probe: asked once, after the timed phase and every feedback, by
    # the workload's clients.
    answers = await load.ask_once(probe)
    floor = 1.0 / len(table)
    errors = qerrors(answers, data.probe_truth, floor)
    reference = None
    if workload.reader_backend is None or traced is not None:
        reference = KernelDensityEstimator.from_state(
            server.published_state
        ).selectivity_batch(QueryBatch.from_boxes(probe))
    checks: Dict[str, object] = {}
    if workload.reader_backend is None:
        # The served reader is the exact scan: answers must match.
        deviation = np.abs(answers - reference)
        mismatched = int(np.sum(~(deviation <= EXACT_TOLERANCE)))
        tally.rejected += mismatched
        if mismatched:
            tally.note(f"{mismatched} probe answers differ from the numpy "
                       f"reader by up to {np.nanmax(deviation):.3e}")
        checks["probe_max_abs_deviation_vs_numpy"] = float(np.nanmax(deviation))

    if writer is not None:
        tally.attempted += len(writer.boxes)
        tally.raised += len(writer.errors)
        for message in writer.errors:
            tally.note(message)
        lags = writer.lags
        lag_span = len(lags) / writer.rate
    else:
        lag_span = sum(lags)  # closed loop: each was due as the last returned

    await service.frontend.stop()

    setup_times = [s for s, _ in setups]
    latency_p50_ms = windowed_quantile(phase.latencies, 0.5, phase.wall) * 1e3
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": {"shed": tally.shed, "raised": tally.raised,
                     "rejected": tally.rejected, "messages": tally.errors},
        "error_rate": tally.failed / max(1, tally.attempted),
        "samples": {"latency": phase.answered, "feedback_lag": len(lags),
                    "probe": len(probe), "setup": len(setup_times)},
        "setup_s_all": setup_times,
        "checks": checks,
        "stale_batches": service.frontend.stats(service.key).stale_batches,
        "end_to_end": {
            "latency_p50_ms": latency_p50_ms,
            "latency_p99_ms": (
                windowed_quantile(phase.latencies, 0.99, phase.wall) * 1e3
            ),
            "estimates_per_s": windowed_rate(phase.ends, phase.started, phase.wall),
            "qerror_p50": float(np.quantile(errors, 0.5)),
            "qerror_p95": float(np.quantile(errors, 0.95)),
            "qerror_max": float(np.max(errors)),
            "feedback_lag_p50_ms": windowed_quantile(lags, 0.5, lag_span) * 1e3,
            "feedback_lag_p99_ms": windowed_quantile(lags, 0.99, lag_span) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        },
    }
    if traced is None:
        return record

    # ------------------------------------------------------------------
    # Per-layer counters and the trace document
    # ------------------------------------------------------------------
    counters = traced.counters
    backends = list({id(r): r.backend for r in traced.readers}.values())
    build_seconds = [b.last_build_seconds for b in backends
                     if b.stats.builds and hasattr(b, "last_build_seconds")]
    touched = sum(b.stats.rows_touched for b in backends)
    evaluated = sum(b.stats.queries_evaluated for b in backends)
    counters.update({
        "backend.rows_per_query": touched / evaluated if evaluated else 0.0,
        "backend.builds": float(sum(b.stats.builds for b in backends)),
        "backend.build_p50_ms": (
            statistics.median(build_seconds) * 1e3 if build_seconds else 0.0
        ),
        "backend.table_bytes": float(max(
            getattr(b, "table_nbytes", 0) for b in backends
        )),
        "backend.qerror_vs_numpy_max": float(np.max(qerrors(answers, reference, floor))),
        # From the start of tracing to the end of the run, so read-only
        # workloads count the publications of their feedback tail.
        "server.publishes": float(server.publish_count - traced.publishes_before),
        "model.train_s": statistics.median(t for _, t in setups),
        "model.tuner_updates": float(service.model.tuner.updates_applied),
        "model.points_replaced": float(service.model.points_replaced),
    })
    requests, record["attribution"] = _request_spans(traced.tracer, phase)
    spans = traced.tracer.spans + requests
    record["trace_doc"] = tracing.export(
        spans, counters, workload=workload.name, seed=seed
    )
    record["self_times"] = tracing.self_times(spans)
    layers = record["per_layer"] = tracing.per_layer(record["trace_doc"])
    record["layer_checks"] = {
        "reader_share_of_latency_p50": layers["reader.batch_p50_ms"] / latency_p50_ms,
        "frontend_share_of_latency_p50": (
            layers["frontend.queue_wait_p50_ms"]
            + layers["frontend.executor_hop_p50_ms"]
            + layers["frontend.fanout_p50_ms"]
        ) / latency_p50_ms,
        "builds_minus_publishes": (
            counters["backend.builds"] - counters["server.publishes"]
        ),
    }
    return record


def _request_spans(tracer: tracing.Tracer, phase: Phase) -> Tuple[list, dict]:
    """One ``request`` span per answered request, linked to its batch.

    Also returns how well the link held: every batch should have as many
    attributed requests as it had rows.
    """
    batches = [s for s in tracer.spans if s[1] == "frontend.batch"]
    owners = tracing.attribute(
        [call for _, call, _ in phase.requests],
        [done for _, _, done in phase.requests],
        [s[2] for s in batches],
        [s[3] for s in batches],
        [s[6]["rows"] for s in batches],
    )
    spans = []
    per_batch: Dict[Optional[int], int] = {}
    for (rid, call, done), owner in zip(phase.requests, owners):
        batch_id = batches[owner][0] if owner >= 0 else None
        per_batch[batch_id] = per_batch.get(batch_id, 0) + 1
        spans.append((tracer.new_id(), "request", call, done, None, rid,
                      {"batch": batch_id}))
    return spans, {
        "requests": len(spans),
        "unattributed": per_batch.get(None, 0),
        "batches": len(batches),
        "batches_with_size_mismatch": sum(
            1 for s in batches if per_batch.get(s[0], 0) != s[6]["rows"]
        ),
    }


def provenance(root: Path, workload: spec.Workload, table_rows: int) -> dict:
    """Machine, versions, source identity and the workload's parameters."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "data_seed": spec.DATA_SEED,
        "table_rows": table_rows,
        "setup_repeats": spec.SETUP_REPEATS,
        "workload": workload.params(),
    }


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from ``.git`` files; ``None`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
