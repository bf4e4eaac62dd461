"""Sharded multi-core execution over shared-memory sample views.

This backend maps the paper's two-phase GPU choreography (Section 5.1:
one virtual thread per (point, dimension) term; Section 5.4: a parallel
reduction over the per-point contribution buffer) onto host cores:

* the sample is published once into a ``multiprocessing.shared_memory``
  segment (the analogue of the one-time device upload of Section 5.2);
  worker processes attach zero-copy numpy views of it,
* each evaluation splits the sample into contiguous *row shards*; every
  worker computes its shard's per-query partial contribution sums /
  mass slabs / gradient term sums (phase one — the "local" evaluation),
* the host reduces the per-shard partials exactly like the paper's
  estimate+sum kernel pair (phase two — the global reduction).

Per-element math is identical to the reference numpy backend (the same
Eq. (13) factors in the same multiplication order); only the reduction
tree over the sample axis differs, which bounds the divergence far below
the 1e-12 equivalence budget.

In-place sample updates (Karma replacements) are write-through: the host
rewrites the shared segment before the next evaluation, so workers never
see stale rows and the pool never restarts.

Execution is fault-tolerant (see :mod:`repro.faults`): each shard runs
under a per-dispatch timeout with bounded retries and exponential
backoff+jitter (:class:`~repro.faults.retry.RetryPolicy`); a crashed or
hung worker pool is *resurrected* — segment and pool rebuilt, the sample
re-published, and only the unfinished shards re-dispatched.  The backend
guards the whole sharded path with a
:class:`~repro.faults.breaker.CircuitBreaker`: when even the retry
budget cannot save an execution it answers inline (numerically
identical) and periodically probes the pool until sharded execution is
healthy again.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ...faults.breaker import CircuitBreaker, export_breaker_metrics
from ...faults.injector import FaultInjector, InjectedFault
from ...faults.plan import WorkerFault, apply_worker_fault
from ...faults.retry import RetryPolicy
from ...obs.metrics import get_registry
from ...obs.spans import SpanContext, current_span_context
from ..chunking import get_chunk_budget
from ..kernels import contribution_block
from .base import ExecutionBackend

__all__ = [
    "ShardExecutionError",
    "ShardedBackend",
    "ShardedSampleExecutor",
    "default_shard_count",
]

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def default_shard_count() -> int:
    """One shard per available core (affinity-aware where possible)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _start_method() -> str:
    method = os.environ.get(START_METHOD_ENV)
    available = get_all_start_methods()
    if method:
        if method not in available:
            raise ValueError(
                f"{START_METHOD_ENV}={method!r} is not available here "
                f"(choices: {', '.join(available)})"
            )
        return method
    # fork attaches workers in milliseconds; spawn is the portable fallback.
    return "fork" if "fork" in available else "spawn"


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------
_WORKER_SHM: Optional[shared_memory.SharedMemory] = None
_WORKER_SAMPLE: Optional[np.ndarray] = None


def _attach_worker(
    shm_name: str, shape: Tuple[int, ...], dtype: str, order: str
) -> None:
    """Pool initializer: map the shared sample segment read-only-by-convention."""
    global _WORKER_SHM, _WORKER_SAMPLE
    _WORKER_SHM = shared_memory.SharedMemory(name=shm_name)
    _WORKER_SAMPLE = np.ndarray(
        shape, dtype=np.dtype(dtype), buffer=_WORKER_SHM.buf, order=order
    )


def _run_shard(
    fn: Callable,
    start: int,
    stop: int,
    payload,
    fault: Optional[WorkerFault] = None,
) -> np.ndarray:
    """Generic worker entry: run a shard function over [start, stop)."""
    assert _WORKER_SAMPLE is not None, "worker sample segment not attached"
    apply_worker_fault(fault)
    return fn(_WORKER_SAMPLE, start, stop, payload)


def _run_shard_traced(
    fn: Callable,
    start: int,
    stop: int,
    payload,
    context: SpanContext,
    index: int,
    fault: Optional[WorkerFault] = None,
):
    """Traced worker entry: run a shard and report its span by value.

    Workers hold no registry; the host's :class:`SpanContext` arrives in
    the task arguments and the worker returns ``(result, path, seconds)``
    for the host to fold into its registry (see module docstring of
    :mod:`repro.obs.spans`).
    """
    assert _WORKER_SAMPLE is not None, "worker sample segment not attached"
    apply_worker_fault(fault)
    path = context.child(f"shard[{index}]")
    started = time.perf_counter()
    result = fn(_WORKER_SAMPLE, start, stop, payload)
    return result, path, time.perf_counter() - started


def _shard_contribution_sums(sample, start, stop, payload):
    """Phase one of estimate+sum: per-query partial contribution sums."""
    low, high, bandwidth, kernels, budget = payload
    shard = sample[start:stop]
    b, d = low.shape
    out = np.empty(b, dtype=np.float64)
    chunk = max(1, budget // max(1, shard.shape[0] * d))
    for qs in range(0, b, chunk):
        qe = min(b, qs + chunk)
        block, _ = contribution_block(
            shard, low[qs:qe], high[qs:qe], bandwidth, kernels
        )
        out[qs:qe] = block.sum(axis=1)
    return out


def _shard_contribution_slab(sample, start, stop, payload):
    """``(b, shard)`` contribution slab (for contributions_batch)."""
    low, high, bandwidth, kernels, budget = payload
    shard = sample[start:stop]
    b, d = low.shape
    out = np.empty((b, shard.shape[0]), dtype=np.float64)
    chunk = max(1, budget // max(1, shard.shape[0] * d))
    for qs in range(0, b, chunk):
        qe = min(b, qs + chunk)
        out[qs:qe] = contribution_block(
            shard, low[qs:qe], high[qs:qe], bandwidth, kernels
        )[0]
    return out


def _shard_masses_slab(sample, start, stop, payload):
    """``(b, shard, d)`` per-dimension mass slab."""
    low, high, bandwidth, kernels, _budget = payload
    shard = sample[start:stop]
    b, d = low.shape
    out = np.empty((b, shard.shape[0], d), dtype=np.float64)
    for j in range(d):
        out[:, :, j] = kernels[j].interval_mass(
            low[:, j, None], high[:, j, None], shard[None, :, j], bandwidth[j]
        )
    return out


def _shard_gradient_sums(sample, start, stop, payload):
    """``(b, d)`` partial sums of the Eq. (17) per-point gradient terms."""
    low, high, bandwidth, kernels, budget = payload
    shard = sample[start:stop]
    b, d = low.shape
    s_shard = shard.shape[0]
    out = np.empty((b, d), dtype=np.float64)
    chunk = max(1, budget // max(1, s_shard * d))
    for qs in range(0, b, chunk):
        qe = min(b, qs + chunk)
        m = qe - qs
        masses = np.empty((m, s_shard, d), dtype=np.float64)
        for j in range(d):
            masses[:, :, j] = kernels[j].interval_mass(
                low[qs:qe, j, None],
                high[qs:qe, j, None],
                shard[None, :, j],
                bandwidth[j],
            )
        # Zero-safe leave-one-dimension-out products (prefix/suffix),
        # the same scheme as the reference gradient.
        prefix = np.ones((m, s_shard, d + 1), dtype=np.float64)
        suffix = np.ones((m, s_shard, d + 1), dtype=np.float64)
        for j in range(d):
            prefix[:, :, j + 1] = prefix[:, :, j] * masses[:, :, j]
        for j in range(d - 1, -1, -1):
            suffix[:, :, j] = suffix[:, :, j + 1] * masses[:, :, j]
        for i in range(d):
            dmass = kernels[i].interval_mass_grad(
                low[qs:qe, i, None],
                high[qs:qe, i, None],
                shard[None, :, i],
                bandwidth[i],
            )
            others = prefix[:, :, i] * suffix[:, :, i + 1]
            out[qs:qe, i] = (dmass * others).sum(axis=1)
    return out


# ----------------------------------------------------------------------
# Host-side executor
# ----------------------------------------------------------------------
def _release(shm: Optional[shared_memory.SharedMemory],
             pool: Optional[ProcessPoolExecutor]) -> None:
    if pool is not None:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
    if shm is not None:
        try:
            shm.close()
            shm.unlink()
        except Exception:  # pragma: no cover - already unlinked
            pass


class ShardExecutionError(RuntimeError):
    """Sharded execution failed even after its whole retry budget.

    Raised by :meth:`ShardedSampleExecutor.run` with the last
    infrastructure failure (broken pool, shard timeout, injected detach)
    as ``__cause__``.  Genuine worker exceptions — the shard *function*
    raising — are never wrapped: they surface as-is, first shard first.
    """


class ShardedSampleExecutor:
    """Owns the shared-memory sample segment and the worker pool.

    Generic on purpose: callers hand it any module-level shard function
    ``fn(sample, start, stop, payload)``, so both the core estimator and
    the simulated device layer can shard their evaluation through one
    piece of infrastructure.

    Fault tolerance (``retry``, a :class:`~repro.faults.retry.RetryPolicy`):

    * every shard dispatch runs under ``retry.shard_timeout`` seconds;
    * an infrastructure failure (worker SIGKILL → ``BrokenProcessPool``,
      a shard timeout, a detached segment) tears the suspect pool down
      (hung workers are killed), waits out the policy's backoff+jitter,
      rebuilds segment and pool, re-publishes the sample, and
      re-dispatches *only the unfinished shards* — completed shard
      results are kept across resurrections;
    * after ``retry.max_attempts`` rounds the last infrastructure error
      is raised wrapped in :class:`ShardExecutionError`;
    * genuine worker exceptions (the shard function raising) are not
      retried: outstanding futures are cancelled and the first failing
      shard's exception surfaces unchanged.

    Recovery/fault counters are kept as plain attributes
    (``retry_count``, ``timeout_count``, ``resurrection_count``,
    ``republication_count``) and mirrored into the ambient metrics
    registry when one is enabled (``executor.retries`` /
    ``executor.timeouts`` / ``executor.resurrections`` /
    ``executor.republications``).
    """

    def __init__(
        self,
        shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        verify_publication: bool = True,
    ) -> None:
        if shards is not None and shards < 1:
            raise ValueError("shards must be at least 1")
        self.shards = shards or default_shard_count()
        self.max_workers = max_workers or min(
            self.shards, default_shard_count()
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        #: Compare the published segment against the host sample before
        #: each run and re-publish on divergence (an O(s*d) memcmp —
        #: negligible next to the O(q*s*d) evaluation it protects).
        #: Turns external segment corruption into a self-healed
        #: republication instead of silently wrong estimates.
        self.verify_publication = verify_publication
        self.retry_count = 0
        self.timeout_count = 0
        self.resurrection_count = 0
        self.republication_count = 0
        self._start_method = start_method
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._view: Optional[np.ndarray] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._dirty = False
        self._finalizer = None
        #: Guards the run-generation bookkeeping below (see :meth:`resize`).
        self._run_cv = threading.Condition()
        #: Runs currently inside :meth:`_run_attempts`.
        self._active_runs = 0
        #: Completed-run counter; ``resize`` waits on it so a topology
        #: change never races a batch that is mid-flight.
        self.run_generation = 0

    # -- lifecycle -----------------------------------------------------
    def ensure(self, sample: np.ndarray) -> None:
        """Publish (or refresh) ``sample`` into the shared segment."""
        if (
            self._view is not None
            and self._view.shape == sample.shape
            and self._view.dtype == sample.dtype
        ):
            if self._dirty:
                np.copyto(self._view, sample)
                self._dirty = False
            elif self.verify_publication and not np.array_equal(
                self._view, sample
            ):
                # The segment diverged without the host marking it dirty
                # — external corruption.  Repair and count it.
                np.copyto(self._view, sample)
                self.republication_count += 1
                registry = get_registry()
                if registry.enabled:
                    registry.counter("executor.republications").inc()
            return
        self.close()
        # Mirror the host layout: a column-major estimator sample keeps
        # contiguous columns in every worker's row shard.
        order = "F" if np.isfortran(sample) else "C"
        shm = shared_memory.SharedMemory(create=True, size=sample.nbytes)
        view = None
        try:
            view = np.ndarray(
                sample.shape, dtype=sample.dtype, buffer=shm.buf, order=order
            )
            np.copyto(view, sample)
            method = self._start_method or _start_method()
            pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=get_context(method),
                initializer=_attach_worker,
                initargs=(shm.name, sample.shape, sample.dtype.str, order),
            )
        except BaseException:
            # Pool startup can fail after the segment exists (bad start
            # method, fork limits); without this the segment would leak
            # until interpreter exit — or past it, under /dev/shm.
            view = None  # release the buffer export before closing
            shm.close()
            shm.unlink()
            raise
        self._shm, self._view, self._pool = shm, view, pool
        self._dirty = False
        self._finalizer = weakref.finalize(self, _release, shm, pool)

    def mark_dirty(self) -> None:
        """The host sample changed; re-publish before the next run."""
        self._dirty = True

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()  # idempotent; runs _release once
            self._finalizer = None
        self._shm = self._view = self._pool = None

    def _resurrect(self) -> None:
        """Tear a suspect pool down hard; the next :meth:`ensure` rebuilds.

        The pool may contain a hung worker that a graceful
        ``shutdown(wait=True)`` would block on forever, so workers are
        SIGKILLed first — their shards are re-dispatched anyway.
        """
        pool = self._pool
        if pool is not None:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:  # pragma: no cover - already dead
                    pass
        self.close()
        self.resurrection_count += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("executor.resurrections").inc()

    # -- execution -----------------------------------------------------
    def shard_bounds(self, rows: int) -> List[Tuple[int, int]]:
        """Contiguous, near-equal row shards (empty shards dropped)."""
        n = min(self.shards, rows)
        bounds = [
            ((i * rows) // n, ((i + 1) * rows) // n) for i in range(n)
        ]
        return [(a, b) for a, b in bounds if b > a]

    def run(self, fn: Callable, sample: np.ndarray, payload) -> List[np.ndarray]:
        """Map ``fn`` over the row shards; results in shard order.

        Retries infrastructure failures per the executor's
        :class:`~repro.faults.retry.RetryPolicy`; see the class
        docstring for the full recovery ladder.
        """
        return self._run_attempts(fn, sample, payload, context=None)

    def run_traced(
        self,
        fn: Callable,
        sample: np.ndarray,
        payload,
        context: SpanContext,
    ) -> List[Tuple[np.ndarray, Tuple[str, ...], float]]:
        """Like :meth:`run`, returning ``(result, path, seconds)`` per shard.

        ``context`` is the host's span snapshot; each worker parents its
        timing on it so the host can fold shard spans into the registry.
        """
        return self._run_attempts(fn, sample, payload, context=context)

    def _submit(
        self,
        fn: Callable,
        index: int,
        bounds: Tuple[int, int],
        payload,
        context: Optional[SpanContext],
        fault: Optional[WorkerFault],
    ):
        start, stop = bounds
        assert self._pool is not None
        if context is None:
            return self._pool.submit(
                _run_shard, fn, start, stop, payload, fault
            )
        return self._pool.submit(
            _run_shard_traced, fn, start, stop, payload, context, index, fault
        )

    def _draw_shm_fault(self, attempt: int) -> Optional[BaseException]:
        """Host-side shm faults: corrupt the segment or detach it."""
        if self.faults is None:
            return None
        spec = self.faults.draw("shm", attempt=attempt)
        if spec is None:
            return None
        if spec.kind == "corrupt" and self._view is not None:
            self._view[...] = np.inf  # publication guard repairs
            return None
        if spec.kind == "detach":
            self._resurrect()
            return InjectedFault(
                "shared-memory segment detached (injected fault)"
            )
        return None

    def resize(
        self,
        shards: int,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Change the shard count, never racing an in-flight batch.

        The method waits until every run that was inside
        :meth:`_run_attempts` when ``resize`` was called has completed
        (tracked by :attr:`run_generation`), then updates the topology
        while still holding the run lock — a run arriving during the
        mutation blocks on the same lock and sees the new topology
        atomically.  The worker pool is only torn down when the pool
        *width* actually changes; the next :meth:`ensure` rebuilds it at
        the new size.  Results are invariant to the shard count (within
        the documented 1e-12 reduction budget), so resizing is purely a
        capacity action.

        Returns the effective shard count.  Raises ``TimeoutError`` if
        the in-flight generation does not drain within ``timeout``
        seconds (``None`` waits indefinitely).
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        with self._run_cv:
            target = self.run_generation + self._active_runs
            while self.run_generation < target:
                if not self._run_cv.wait(timeout=timeout):
                    raise TimeoutError(
                        "resize timed out waiting for in-flight batches"
                    )
            workers = max_workers or min(shards, default_shard_count())
            rebuild = workers != self.max_workers
            self.shards = shards
            self.max_workers = workers
            if rebuild:
                # Pool width changes need a rebuild; shard-count-only
                # changes reuse the live pool (shard_bounds re-splits).
                self.close()
            return self.shards

    def _run_attempts(
        self,
        fn: Callable,
        sample: np.ndarray,
        payload,
        context: Optional[SpanContext],
    ) -> List:
        with self._run_cv:
            self._active_runs += 1
        try:
            return self._run_attempts_inner(fn, sample, payload, context)
        finally:
            with self._run_cv:
                self._active_runs -= 1
                self.run_generation += 1
                self._run_cv.notify_all()

    def _run_attempts_inner(
        self,
        fn: Callable,
        sample: np.ndarray,
        payload,
        context: Optional[SpanContext],
    ) -> List:
        policy = self.retry
        registry = get_registry()
        bounds = self.shard_bounds(sample.shape[0])
        results: List = [None] * len(bounds)
        pending: Set[int] = set(range(len(bounds)))
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                delay = policy.delay(attempt - 1)
                if delay > 0:
                    time.sleep(delay)
                self.retry_count += len(pending)
                if registry.enabled:
                    registry.counter("executor.retries").inc(len(pending))
            injected = self._draw_shm_fault(attempt)
            if injected is not None:
                last_error = injected
                continue
            # (Re)build segment + pool and re-publish the sample; also
            # repairs corrupted segments via the publication guard.
            self.ensure(sample)
            try:
                futures: Dict[int, object] = {
                    index: self._submit(
                        fn,
                        index,
                        bounds[index],
                        payload,
                        context,
                        self._worker_fault(index, attempt),
                    )
                    for index in sorted(pending)
                }
            except (BrokenProcessPool, RuntimeError, OSError) as error:
                last_error = error
                self._resurrect()
                continue
            infra_error = self._collect(futures, results, pending, policy)
            if infra_error is None and not pending:
                return results
            # Harvest shards that finished before the failure was seen,
            # cancel what never started, and tear the pool down.
            for index, future in futures.items():
                if index not in pending or not future.done():
                    continue
                if future.cancelled() or future.exception() is not None:
                    continue
                results[index] = future.result()
                pending.discard(index)
            for future in futures.values():
                future.cancel()
            last_error = infra_error
            self._resurrect()
        raise ShardExecutionError(
            f"sharded execution failed after {policy.max_attempts} "
            f"attempt(s); {len(pending)} shard(s) unfinished: {last_error}"
        ) from last_error

    def _worker_fault(
        self, index: int, attempt: int
    ) -> Optional[WorkerFault]:
        if self.faults is None:
            return None
        spec = self.faults.draw("shard", shard=index, attempt=attempt)
        return self.faults.worker_fault(spec)

    def _collect(
        self,
        futures: Dict[int, object],
        results: List,
        pending: Set[int],
        policy: RetryPolicy,
    ) -> Optional[BaseException]:
        """Collect futures in shard order; return the infra error, if any.

        Genuine worker exceptions are *raised* (first failing shard
        first), after cancelling every outstanding future so a retrying
        caller never races leftover tasks from this generation.
        """
        registry = get_registry()
        deadline = (
            None
            if policy.shard_timeout is None
            else time.monotonic() + policy.shard_timeout
        )
        for index in sorted(futures):
            future = futures[index]
            try:
                if deadline is None:
                    outcome = future.result()
                else:
                    outcome = future.result(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
            except FutureTimeoutError:
                self.timeout_count += 1
                if registry.enabled:
                    registry.counter("executor.timeouts").inc()
                return TimeoutError(
                    f"shard {index} exceeded its {policy.shard_timeout:.3g}s "
                    "timeout"
                )
            except BrokenProcessPool as error:
                return error
            except BaseException:
                for other in futures.values():
                    other.cancel()
                raise
            results[index] = outcome
            pending.discard(index)
        return None


class ShardedBackend(ExecutionBackend):
    """Row-sharded evaluation on a process pool over shared memory.

    Parameters
    ----------
    shards:
        Number of row shards per evaluation (default: one per core).
        Results are invariant to the shard count within 1e-12.
    max_workers:
        Pool size (default ``min(shards, cores)``).
    start_method:
        Multiprocessing start method; defaults to ``fork`` where
        available (overridable via ``REPRO_MP_START_METHOD``).
    fallback_inline:
        When worker infrastructure is unavailable (no ``/dev/shm``,
        sandboxed fork) even after the retry budget, warn and evaluate
        inline instead of failing — the backend stays numerically
        correct either way.  The demotion is governed by ``breaker``,
        not a permanent latch: after the breaker's recovery window one
        probe re-attempts the sharded path, and a successful probe
        re-arms it.
    retry:
        :class:`~repro.faults.retry.RetryPolicy` for the executor
        (per-shard timeout, bounded retries, backoff+jitter).
    breaker:
        :class:`~repro.faults.breaker.CircuitBreaker` guarding the
        sharded path (default: open after one exhausted retry budget,
        probe again after 30 s).
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector` for
        deterministic chaos testing.
    """

    name = "sharded"

    def __init__(
        self,
        shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        fallback_inline: bool = True,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__()
        self.executor = ShardedSampleExecutor(
            shards=shards,
            max_workers=max_workers,
            start_method=start_method,
            retry=retry,
            faults=faults,
        )
        self._fallback_inline = fallback_inline
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(failure_threshold=1, recovery_after=30.0)
        )
        self._breaker_exported = 0
        #: Per-shard wall-clock seconds of the most recent traced run
        #: (``None`` until a run happens with metrics enabled).
        self.last_shard_seconds: Optional[Tuple[float, ...]] = None

    @property
    def shards(self) -> int:
        return self.executor.shards

    def resize(
        self, shards: int, max_workers: Optional[int] = None
    ) -> int:
        """Autoscale the shard count (see :meth:`ShardedSampleExecutor.resize`).

        Safe against in-flight batches and bitwise-neutral per shard:
        per-element math is shard-local, so any fixed-shard run and any
        resize schedule agree within the backend's 1e-12 reduction
        budget (and bit-for-bit when the shard count at evaluation time
        matches).  Returns the effective shard count.
        """
        effective = self.executor.resize(shards, max_workers=max_workers)
        registry = self._registry()
        if registry is not None and registry.enabled:
            registry.gauge("backend.shards", {"backend": self.name}).set(
                float(effective)
            )
        return effective

    def warm(self, low=None, high=None) -> bool:
        """Pre-spin the worker pool and publish the sample segment.

        The first sharded evaluation otherwise pays pool start-up and
        the one-time sample publication; warming moves that cost ahead
        of the forecast spike.  Region bounds are irrelevant (workers
        map the whole sample).
        """
        del low, high
        if self._estimator is None:
            return False
        self.executor.ensure(self.estimator._sample)
        return True

    # -- lifecycle -----------------------------------------------------
    def invalidate(self, reason: str) -> None:
        super().invalidate(reason)
        if reason == "sample":
            self.executor.mark_dirty()
        # Bandwidth travels with every payload; nothing cached to drop.

    def close(self) -> None:
        self.executor.close()

    # -- evaluation ----------------------------------------------------
    def _payload(self, low: np.ndarray, high: np.ndarray):
        estimator = self.estimator
        return (
            np.ascontiguousarray(low),
            np.ascontiguousarray(high),
            estimator.bandwidth,
            estimator.kernels,
            get_chunk_budget(),
        )

    def _export_breaker(self) -> None:
        self._breaker_exported = export_breaker_metrics(
            self.breaker,
            self._registry(),
            {"component": "backend.sharded"},
            self._breaker_exported,
        )

    def _map(self, fn: Callable, low, high) -> List[np.ndarray]:
        """Run a shard function over the pool, inline when the breaker is open."""
        estimator = self.estimator
        sample = estimator._sample
        payload = self._payload(low, high)
        registry = self._registry()
        traced = registry is not None and registry.enabled
        if self.breaker.allow():
            try:
                if traced:
                    context = current_span_context()
                    records = self.executor.run_traced(
                        fn, sample, payload, context
                    )
                    outcome = self._fold_traced(registry, records)
                else:
                    outcome = self.executor.run(fn, sample, payload)
            except (OSError, ValueError, RuntimeError) as error:
                # Detach the dead infrastructure *before* falling back:
                # a broken pool would otherwise be happily reused by
                # ``ensure()`` (the shm view still matches the sample),
                # so a later half-open probe would fail forever.
                self.executor.close()
                self.breaker.record_failure()
                self._export_breaker()
                if not self._fallback_inline:
                    raise
                warnings.warn(
                    f"sharded backend falling back to inline evaluation: "
                    f"{error}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            else:
                self.breaker.record_success()
                self._export_breaker()
                return outcome
        else:
            self._export_breaker()
        bounds = self.executor.shard_bounds(sample.shape[0])
        if traced:
            context = current_span_context()
            records = []
            for index, (start, stop) in enumerate(bounds):
                started = time.perf_counter()
                result = fn(sample, start, stop, payload)
                records.append(
                    (
                        result,
                        context.child(f"shard[{index}]"),
                        time.perf_counter() - started,
                    )
                )
            return self._fold_traced(registry, records)
        return [fn(sample, start, stop, payload) for start, stop in bounds]

    def _fold_traced(self, registry, records) -> List[np.ndarray]:
        """Record shard spans/metrics; return results in shard order."""
        results: List[np.ndarray] = []
        seconds: List[float] = []
        labels = {"backend": self.name}
        for result, path, shard_seconds in records:
            registry.record_span(path, shard_seconds, labels)
            registry.histogram("backend.shard_seconds", labels).observe(
                shard_seconds
            )
            results.append(result)
            seconds.append(shard_seconds)
        self.last_shard_seconds = tuple(seconds)
        return results

    def selectivity_block(
        self, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        self._count(low.shape[0])
        partials = self._map(_shard_contribution_sums, low, high)
        total = np.sum(np.stack(partials, axis=0), axis=0)
        return total / self.estimator.sample_size

    def contribution_block(
        self, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        self._count(low.shape[0])
        slabs = self._map(_shard_contribution_slab, low, high)
        return np.concatenate(slabs, axis=1)

    def masses_block(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        self._count(low.shape[0])
        slabs = self._map(_shard_masses_slab, low, high)
        return np.concatenate(slabs, axis=1)

    def gradient_block(
        self,
        low: np.ndarray,
        high: np.ndarray,
        dimension_masses: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        # ``dimension_masses`` is a host-side reuse optimisation; shipping
        # the (q, s, d) tensor to workers would cost more than recomputing
        # the (bitwise-identical) masses shard-locally, so it is ignored.
        self._count(low.shape[0])
        partials = self._map(_shard_gradient_sums, low, high)
        total = np.sum(np.stack(partials, axis=0), axis=0)
        return total / self.estimator.sample_size
