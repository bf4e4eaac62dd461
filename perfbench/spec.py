"""What the serving benchmark runs and what it reports.

One table per concern, so ``BENCHMARK.json``, the harness and the
self-tests read the same definitions:

* :data:`WORKLOADS` — each workload's parameters and why it is here;
* :data:`END_TO_END` — metrics a caller of the front end sees, with the
  bound by which each may worsen before a change counts as a regression;
* :data:`PER_LAYER` — metrics of single layers from the traced run, each
  with the end-to-end metric and workload it should move.

Accuracy inputs (table, ANALYZE sample, training queries, probe set and
the tune-feedback stream) come from the fixed :data:`DATA_SEED`, so the
``qerror_*`` figures are a pure function of the code under test.  The
run's ``--seed`` picks the order in which clients draw their timed
queries from the workload's query pool.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

#: Seed of every accuracy input; the run seed never touches them.
DATA_SEED = 20150531

#: Rows of the correlated ``gunopulos_synthetic`` table.
TABLE_ROWS = 200_000

#: Times the set-up sequence is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dimensions: int
    sample_size: int
    clients: int
    #: Reader backend registry name; ``None`` keeps the default numpy scan.
    reader_backend: Optional[str]
    #: Workload kind of the timed reader queries (``DT`` or ``DV``).
    query_kind: str
    #: Distinct queries the clients draw from, in a seed-chosen order.
    pool_size: int
    #: DT queries in the seeded ``feedback_many`` training pass of set-up.
    training_size: int
    #: Held-out queries asked once after the timed phase.
    probe_size: int
    #: Workload kind of the probe set.
    probe_kind: str
    #: Open-loop writer rate (feedbacks per second); ``None`` = read-only.
    feedback_rate: Optional[float]
    #: Closed-loop feedbacks of held-out queries (of the probe's kind) that
    #: read-only workloads apply in rounds between their timed reads, which
    #: give their ``feedback_lag_*`` figures.
    tail_feedbacks: int
    #: Smallest true selectivity a probe query may have.
    probe_min_selectivity: float = 0.0

    def params(self) -> Dict[str, object]:
        out = asdict(self)
        out.pop("why")
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="scan-heavy",
            why=(
                "2 clients, d=8 s=32768 default numpy reader, DT 1%: every "
                "estimate scans every sample row, so backend compute is the "
                "latency"
            ),
            dimensions=8,
            sample_size=32768,
            clients=2,
            reader_backend=None,
            query_kind="DT",
            pool_size=1024,
            training_size=80,
            probe_size=96,
            probe_kind="DT",
            feedback_rate=None,
            tail_feedbacks=160,
        ),
        Workload(
            name="tune-feedback",
            why=(
                "512 clients on a d=4 s=8192 grid reader beside a 10/s DV "
                "feedback writer: the front end is most of the latency, and "
                "each publication rebuilds the grid under the reads"
            ),
            dimensions=4,
            sample_size=8192,
            # A writer busy for a large share of each second leaves the
            # readers a leftover that swings far more than the host's speed,
            # and with few clients the p99 latency sits on the edge between
            # reads that met a feedback and reads that did not.  Twice the
            # front end's max_batch_size (256) keeps a full batch queued
            # behind the one in flight, so every batch is full; with fewer
            # clients than that the lane settles, run by run, into one of
            # several batch-size patterns whose latencies differ by a third.
            # So many clients also make the front end (admission,
            # coalescing, the executor hop and fan-out) most of a grid
            # answer's latency.
            clients=512,
            reader_backend="grid",
            query_kind="DV",
            pool_size=2048,
            training_size=200,
            probe_size=192,
            probe_kind="DV",
            feedback_rate=10.0,
            tail_feedbacks=0,
            probe_min_selectivity=1e-3,
        ),
    )
}

#: Sizes for the self-tests: every code path, a few seconds per run.
TINY_OVERRIDES: Dict[str, object] = {
    "sample_size": 512,
    "pool_size": 64,
    "training_size": 20,
    "probe_size": 24,
    "tail_feedbacks": 12,
}
TINY_TABLE_ROWS = 5_000


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end bound (share of the parent's median); ``None`` per layer.
    bound: Optional[float] = None
    #: Per layer: the end-to-end metric(s) this should move, and where.
    moves: str = ""
    on: str = ""


#: Wall-clock figures get the widest bound the contract allows: on a
#: shared 2-vCPU machine, single-thread speed alone drifts by 10-30%
#: across minutes.  Latencies, throughput and lags are trimmed means over
#: one-second windows of the run (``harness.windowed_quantile``), so a
#: stall is dropped with the windows it fell in.  The Q-error figures are
#: deterministic (see DATA_SEED), so their bounds are tight; peak RSS moves
#: by several percent from run to run with the tune-feedback clients'
#: garbage and the overlap of the reader's and writer's temporaries.
END_TO_END: Tuple[Metric, ...] = (
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p99_ms", "ms", "lower", 0.25),
    Metric("estimates_per_s", "1/s", "higher", 0.25),
    Metric("qerror_p50", "ratio", "lower", 0.05),
    Metric("qerror_p95", "ratio", "lower", 0.1),
    Metric("qerror_max", "ratio", "lower", 0.1),
    Metric("feedback_lag_p50_ms", "ms", "lower", 0.25),
    Metric("feedback_lag_p99_ms", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.2),
)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("frontend.queue_wait_p50_ms", "ms", "lower",
           moves="latency_p50_ms", on="tune-feedback"),
    Metric("frontend.queue_wait_p99_ms", "ms", "lower",
           moves="latency_p99_ms", on="tune-feedback"),
    Metric("frontend.executor_hop_p50_ms", "ms", "lower",
           moves="latency_p99_ms", on="tune-feedback"),
    Metric("frontend.executor_hop_p99_ms", "ms", "lower",
           moves="latency_p99_ms", on="tune-feedback"),
    Metric("frontend.fanout_p50_ms", "ms", "lower",
           moves="latency_p50_ms", on="tune-feedback"),
    Metric("frontend.batch_size_mean", "count", "higher",
           moves="estimates_per_s", on="tune-feedback, scan-heavy"),
    Metric("frontend.batches", "count", "higher",
           moves="estimates_per_s", on="tune-feedback, scan-heavy"),
    Metric("reader.batch_p50_ms", "ms", "lower",
           moves="latency_p50_ms, estimates_per_s", on="scan-heavy"),
    Metric("reader.batch_p99_ms", "ms", "lower",
           moves="latency_p99_ms", on="scan-heavy"),
    Metric("reader.us_per_query", "us", "lower",
           moves="estimates_per_s", on="scan-heavy"),
    Metric("backend.block_share", "ratio", "higher",
           moves="estimates_per_s",
           on="scan-heavy (numpy), tune-feedback (grid)"),
    Metric("backend.rows_per_query", "count", "lower",
           moves="estimates_per_s",
           on="scan-heavy (=s) vs tune-feedback (0)"),
    Metric("backend.builds", "count", "lower",
           moves="feedback_lag_p99_ms, estimates_per_s; setup_s",
           on="tune-feedback"),
    Metric("backend.build_p50_ms", "ms", "lower",
           moves="feedback_lag_p99_ms, estimates_per_s; setup_s",
           on="tune-feedback"),
    Metric("backend.table_bytes", "B", "lower",
           moves="peak_rss_mb", on="tune-feedback"),
    Metric("backend.qerror_vs_numpy_max", "ratio", "lower",
           moves="qerror_p95, qerror_max", on="tune-feedback"),
    Metric("server.feedback_p50_ms", "ms", "lower",
           moves="feedback_lag_p50_ms", on="tune-feedback"),
    Metric("server.feedback_p99_ms", "ms", "lower",
           moves="feedback_lag_p99_ms", on="tune-feedback"),
    Metric("server.publish_p50_ms", "ms", "lower",
           moves="feedback_lag_p99_ms", on="tune-feedback"),
    Metric("server.publishes", "count", "lower",
           moves="qerror_p50", on="tune-feedback"),
    Metric("server.staleness_mean", "count", "lower",
           moves="qerror_p50", on="tune-feedback"),
    Metric("model.feedback_p50_ms", "ms", "lower",
           moves="feedback_lag_p50_ms", on="tune-feedback"),
    Metric("model.train_s", "s", "lower", moves="setup_s", on="all"),
    Metric("model.tuner_updates", "count", "higher",
           moves="qerror_p50", on="tune-feedback"),
    Metric("model.points_replaced", "count", "higher",
           moves="qerror_p50", on="tune-feedback"),
    Metric("trace.overhead_pct", "%", "lower", moves="", on="all"),
)
