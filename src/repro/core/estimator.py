"""The multivariate KDE range-selectivity estimator (Eqs. 1, 2 and 13).

A :class:`KernelDensityEstimator` holds a data sample, a per-dimension
(diagonal) bandwidth vector and a product kernel.  The selectivity of a
hyper-rectangular query region is the average over the sample of each
point's *individual probability mass contribution* — the closed form of
Appendix B:

.. math::
    \\hat p_H^{(i)}(\\Omega) = \\prod_{j=1}^{d}
        \\left[ F\\left(\\frac{u_j - t_j^{(i)}}{h_j}\\right)
              - F\\left(\\frac{l_j - t_j^{(i)}}{h_j}\\right) \\right]

with ``F`` the kernel CDF (for the Gaussian this is exactly Eq. (13),
``F(z) = (1 + erf(z / sqrt(2))) / 2``).

The per-point contributions are first-class citizens here because the
self-tuning machinery needs them: the Karma maintenance of Section 4.2
re-derives leave-one-out estimates from them (Eq. 6), and the paper's GPU
implementation explicitly retains the contribution buffer between the
estimate and the feedback step (Section 5.4).
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..geometry import Box, QueryBatch
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.spans import span
from ..obs.trace import EstimationTrace
from . import chunking
from .backends import ExecutionBackend, resolve_backend
from .kernels import Kernel, contribution_block, get_kernel
from .state import ModelState

__all__ = ["KernelDensityEstimator"]

#: Legacy override for the per-chunk ``(b, s, d)`` element cap of the
#: batched evaluation paths.  ``None`` (the default) defers to the
#: tunable policy of :mod:`repro.core.chunking` (env override +
#: L2-cache-derived default); setting an integer here pins the budget
#: for this module, which tests use to force tiny chunks.
_BATCH_ELEMENT_BUDGET: Optional[int] = None


def _columns_by_kernel(kernels: Sequence[Kernel]) -> tuple:
    """``(kernel, column indices)`` pairs, one per distinct kernel."""
    groups: dict = {}
    for j, kernel in enumerate(kernels):
        groups.setdefault(kernel, []).append(j)
    return tuple(
        (kernel, np.array(cols, dtype=np.intp))
        for kernel, cols in groups.items()
    )


def _leave_one_out_products(masses: np.ndarray) -> np.ndarray:
    """``(d, s)`` products over all dimensions but one, from ``(s, d)``.

    Zero-safe (no division): prefix times suffix cumulative products
    along the dimension axis.
    """
    masses = masses.T
    prefix = np.ones(masses.shape, dtype=np.float64)
    np.cumprod(masses[:-1], axis=0, out=prefix[1:])
    suffix = np.ones(masses.shape, dtype=np.float64)
    np.cumprod(masses[:0:-1], axis=0, out=suffix[-2::-1])
    return np.multiply(prefix, suffix, out=prefix)


class KernelDensityEstimator:
    """Product-kernel density model over a data sample.

    Parameters
    ----------
    sample:
        ``(s, d)`` array of sampled tuples.  A column-major copy is
        stored, so each dimension streams contiguously through the kernel
        loops; the sample is mutable through :meth:`replace_rows`
        (sample maintenance).
    bandwidth:
        Per-dimension bandwidth vector ``(d,)``; all entries must be
        strictly positive (the constraint of optimisation problem (5)).
    kernel:
        Kernel name or instance; defaults to the Gaussian of Eq. (9).
    backend:
        Execution backend for the batched evaluation paths: a registry
        name (``"numpy"``, ``"sharded"``, ``"cached"``, ``"grid"``,
        ``"hashing"``), a configured
        :class:`~repro.core.backends.ExecutionBackend` instance, or
        ``None`` for the default single-thread numpy strategy.  The
        exact backends (numpy/sharded/cached) are numerically
        equivalent within 1e-12 — the knob only changes how the work
        is scheduled; the sublinear pair (grid/hashing) trades a
        documented, bounded error for per-query cost that no longer
        scales with the sample (see their class docstrings).
    metrics:
        Metrics registry the estimation entry points report into (see
        :mod:`repro.obs`).  ``None`` (the default) defers to the
        process-wide registry *at call time*, so
        :func:`repro.obs.enable_metrics` instruments existing models;
        pass a registry to scope this model's signals explicitly.
    """

    #: Display name used by the evaluation harness reports.
    name = "KDE"

    def __init__(
        self,
        sample: np.ndarray,
        bandwidth: Union[Sequence[float], np.ndarray],
        kernel: Union[str, Kernel, Sequence[Union[str, Kernel]]] = "gaussian",
        backend: Union[str, ExecutionBackend, None] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        sample = np.array(sample, dtype=np.float64, copy=True, order="F")
        if sample.ndim != 2:
            raise ValueError("sample must be a two-dimensional (s, d) array")
        if sample.shape[0] == 0:
            raise ValueError("sample must contain at least one point")
        if not np.all(np.isfinite(sample)):
            raise ValueError("sample contains non-finite values")
        self._sample = sample
        if isinstance(kernel, (str, Kernel)):
            self._set_kernels([get_kernel(kernel)] * sample.shape[1])
        else:
            kernels = tuple(get_kernel(k) for k in kernel)
            if len(kernels) != sample.shape[1]:
                raise ValueError(
                    f"need one kernel per dimension ({sample.shape[1]}), "
                    f"got {len(kernels)}"
                )
            self._set_kernels(kernels)
        self._bandwidth_epoch = 0
        self._sample_epoch = 0
        self._metrics = metrics
        self._backend: Optional[ExecutionBackend] = None
        self._bandwidth = np.empty(sample.shape[1], dtype=np.float64)
        self.bandwidth = bandwidth  # runs validation
        self._backend = resolve_backend(backend).bind(self)

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    @property
    def sample(self) -> np.ndarray:
        """The underlying sample (read-only view)."""
        view = self._sample.view()
        view.flags.writeable = False
        return view

    @property
    def sample_size(self) -> int:
        return self._sample.shape[0]

    @property
    def dimensions(self) -> int:
        return self._sample.shape[1]

    @property
    def kernel(self) -> Kernel:
        """The shared kernel (raises for mixed per-dimension kernels)."""
        first = self._kernels[0]
        if any(k is not first for k in self._kernels):
            raise ValueError(
                "estimator uses mixed per-dimension kernels; use kernel_for()"
            )
        return first

    @property
    def kernels(self) -> tuple:
        """Per-dimension kernel tuple (mixed-data support, Section 8)."""
        return self._kernels

    def kernel_for(self, dimension: int) -> Kernel:
        """The kernel applied along ``dimension``."""
        return self._kernels[dimension]

    def _set_kernels(self, kernels: Sequence[Kernel]) -> None:
        self._kernels = tuple(kernels)
        self._kernel_columns = _columns_by_kernel(self._kernels)

    @property
    def bandwidth(self) -> np.ndarray:
        """Per-dimension bandwidth vector (copy)."""
        return self._bandwidth.copy()

    @bandwidth.setter
    def bandwidth(self, value: Union[Sequence[float], np.ndarray]) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.ndim == 0:
            value = np.full(self.dimensions, float(value))
        if value.shape != (self.dimensions,):
            raise ValueError(
                f"bandwidth must have shape ({self.dimensions},), got {value.shape}"
            )
        if np.any(~np.isfinite(value)) or np.any(value <= 0.0):
            raise ValueError("bandwidth entries must be positive and finite")
        self._bandwidth = value.copy()
        self._bandwidth_epoch += 1
        if self._backend is not None:
            self._backend.invalidate("bandwidth")

    # ------------------------------------------------------------------
    # Execution backend & epochs
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend serving the batched evaluation paths."""
        assert self._backend is not None
        return self._backend

    @backend.setter
    def backend(self, value: Union[str, ExecutionBackend, None]) -> None:
        """Swap the execution backend (closing the previous one)."""
        new = resolve_backend(value).bind(self)
        old = self._backend
        self._backend = new
        if old is not None and old is not new:
            old.close()

    @property
    def obs(self) -> MetricsRegistry:
        """The metrics registry this model reports into.

        Resolves the process-wide registry dynamically when no registry
        was injected at construction, so enabling metrics after the model
        exists still instruments it.
        """
        return self._metrics if self._metrics is not None else get_registry()

    @property
    def bandwidth_epoch(self) -> int:
        """Monotone counter bumped on every bandwidth replacement.

        Backends key derived state (e.g. cached CDF terms) on the epoch
        pair so entries from superseded model states can never be
        returned.
        """
        return self._bandwidth_epoch

    @property
    def sample_epoch(self) -> int:
        """Monotone counter bumped on every in-place sample rewrite."""
        return self._sample_epoch

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _check_query(self, query: Box) -> None:
        if query.dimensions != self.dimensions:
            raise ValueError(
                f"query has {query.dimensions} dimensions, "
                f"estimator has {self.dimensions}"
            )

    def contributions(self, query: Box) -> np.ndarray:
        """Per-point probability mass contributions ``p_H^(i)(query)``.

        Returns an ``(s,)`` vector with entries in ``[0, 1]``; the
        selectivity estimate is its mean (Eq. 2).
        """
        self._check_query(query)
        block, _ = self._contribution_block(
            query.low[None, :], query.high[None, :]
        )
        return block[0]

    def selectivity(self, query: Box) -> float:
        """Selectivity estimate for ``query``: mean per-point contribution."""
        registry = self.obs
        if not registry.enabled:
            return float(self.contributions(query).mean())
        backend_name = self.backend.name
        snapshot = self._cache_snapshot()
        with span("estimate", registry, backend=backend_name):
            value = float(self.contributions(query).mean())
        self._emit_traces(
            registry,
            (value,),
            snapshot,
            QueryBatch(query.low[None, :], query.high[None, :]),
        )
        return value

    # ------------------------------------------------------------------
    # Estimator-protocol facade (the harness's three-call protocol)
    # ------------------------------------------------------------------
    def estimate(self, query: Box) -> float:
        """Selectivity estimate — the estimator-protocol spelling.

        Makes the plain KDE model satisfy the
        :class:`~repro.baselines.base.SelectivityEstimator` protocol, so
        the same harness code drives it and every baseline.
        """
        return self.selectivity(query)

    def feedback(self, query: Box, true_selectivity: float) -> None:
        """True-selectivity feedback — a no-op for the static model.

        The plain KDE model does not tune itself; the self-tuning
        subclasses/facades (:class:`~repro.core.model.SelfTuningKDE`)
        override the loop with their learning machinery.  Validation
        still applies, so miswired feedback fails loudly.
        """
        if not 0.0 <= true_selectivity <= 1.0:
            raise ValueError("true selectivity must lie in [0, 1]")

    def selectivity_many(
        self, queries: Union[QueryBatch, Sequence[Box]]
    ) -> np.ndarray:
        """Selectivity estimates for a sequence of queries (batched).

        :class:`~repro.geometry.QueryBatch` instances are dispatched
        directly (no list round-trip); box sequences are stacked once.
        Dimensionality is validated *before* dispatch, so a batch of the
        wrong dimensionality fails loudly instead of silently producing
        empty or nonsense results.
        """
        if not isinstance(queries, QueryBatch):
            queries = list(queries)
            if not queries:
                return np.empty(0, dtype=np.float64)
            queries = QueryBatch.from_boxes(queries)
        self._check_batch(queries)
        return self.selectivity_batch(queries)

    def estimate_many(
        self, queries: Union[QueryBatch, Sequence[Box]]
    ) -> np.ndarray:
        """Batched estimates — the estimator-protocol spelling.

        Alias of :meth:`selectivity_many`, mirroring how
        :meth:`estimate` aliases :meth:`selectivity`: the evaluation
        harness drives every model through the same
        ``estimate_many``/``feedback_many`` surface.
        """
        return self.selectivity_many(queries)

    def feedback_many(
        self,
        queries: Union[QueryBatch, Sequence[Box]],
        true_selectivities: Sequence[float],
    ) -> None:
        """Batched feedback — validation only, like :meth:`feedback`.

        The static model learns nothing, but the batch is still checked
        (one truth per query, truths in ``[0, 1]``) so a miswired
        harness fails loudly here exactly as it would on the tuning
        models.  Empty batches are a no-op.
        """
        queries = (
            list(queries) if not isinstance(queries, QueryBatch) else queries
        )
        truths = np.asarray(list(true_selectivities), dtype=np.float64)
        if truths.shape != (len(queries),):
            raise ValueError(
                "need exactly one true selectivity per query, got "
                f"{len(queries)} queries and {truths.size} values"
            )
        if truths.size and (truths.min() < 0.0 or truths.max() > 1.0):
            raise ValueError("true selectivities must lie in [0, 1]")

    def memory_bytes(self) -> int:
        """Model footprint for §6.2 budget accounting.

        A KDE model is essentially its sample: ``s × d`` values at the
        4-byte single precision the paper's device buffers use
        (Section 5.1) — the same accounting as the baseline wrappers.
        """
        return self.sample_size * self.dimensions * 4

    # ------------------------------------------------------------------
    # Batched estimation
    # ------------------------------------------------------------------
    def _check_batch(
        self, queries: Union[QueryBatch, Sequence[Box]]
    ) -> QueryBatch:
        batch = QueryBatch.coerce(queries)
        if batch.dimensions != self.dimensions:
            raise ValueError(
                f"query batch has {batch.dimensions} dimensions, "
                f"estimator has {self.dimensions}"
            )
        return batch

    def _uses_batch_fast_path(self) -> bool:
        """Whether the vectorised batch kernels apply to this instance.

        The fast path inlines the fixed-bandwidth mass/gradient formulas;
        subclasses overriding the per-query methods (e.g. the variable-
        bandwidth model) automatically fall back to query-at-a-time loops
        that delegate to their own overrides.
        """
        cls = type(self)
        return (
            cls.dimension_masses is KernelDensityEstimator.dimension_masses
            and cls.contributions is KernelDensityEstimator.contributions
            and cls.selectivity_gradient
            is KernelDensityEstimator.selectivity_gradient
        )

    def _batch_chunk(self) -> int:
        budget = (
            _BATCH_ELEMENT_BUDGET
            if _BATCH_ELEMENT_BUDGET is not None
            else chunking.get_chunk_budget()
        )
        return max(1, budget // max(1, self.sample_size * self.dimensions))

    def _masses_block(
        self, low_block: np.ndarray, high_block: np.ndarray
    ) -> np.ndarray:
        """``(b, s, d)`` per-dimension interval masses for a bound block."""
        b = low_block.shape[0]
        masses = np.empty(
            (b, self.sample_size, self.dimensions), dtype=np.float64
        )
        for j in range(self.dimensions):
            masses[:, :, j] = self._kernels[j].interval_mass(
                low_block[:, j, None],
                high_block[:, j, None],
                self._sample[None, :, j],
                self._bandwidth[j],
            )
        return masses

    def _contribution_block(
        self, low_block: np.ndarray, high_block: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """``(b, s)`` per-point contributions for a bound block.

        Returns ``(block, evaluated)`` from the shared Eq. (13) kernel
        :func:`~repro.core.kernels.contribution_block`: only rows within
        each kernel's support of the box get kernel terms, the rest are
        exactly ``0.0``, and the block is bitwise identical to the dense
        product over every row.
        """
        return contribution_block(
            self._sample, low_block, high_block, self._bandwidth,
            self._kernels,
        )

    def dimension_masses_batch(
        self, queries: Union[QueryBatch, Sequence[Box]]
    ) -> np.ndarray:
        """``(q, s, d)`` per-dimension interval masses for a whole batch.

        The batched counterpart of :meth:`dimension_masses`: the tensor is
        what the paper's batched device kernel materialises once per batch
        and shares between the estimate and gradient stages (Section 5.4).
        """
        batch = self._check_batch(queries)
        if not self._uses_batch_fast_path():
            return np.stack([self.dimension_masses(box) for box in batch])
        return self.backend.masses_block(batch.low, batch.high)

    def contributions_batch(
        self, queries: Union[QueryBatch, Sequence[Box]]
    ) -> np.ndarray:
        """``(q, s)`` per-point contributions, one row per query.

        Row means give :meth:`selectivity_batch`; computed in query chunks
        so the transient ``(b, s, d)`` mass tensor stays memory-bounded.
        """
        batch = self._check_batch(queries)
        if not self._uses_batch_fast_path():
            return np.stack([self.contributions(box) for box in batch])
        return self.backend.contribution_block(batch.low, batch.high)

    def selectivity_batch(
        self, queries: Union[QueryBatch, Sequence[Box]]
    ) -> np.ndarray:
        """``(q,)`` selectivity estimates for a whole batch of queries.

        Numerically equivalent to calling :meth:`selectivity` per query
        (the per-element operations and their order are identical), but
        evaluated in chunked ``(b, s)`` numpy blocks: the Python-level
        per-query overhead is paid once per batch rather than ``q`` times.
        """
        batch = self._check_batch(queries)
        if not self._uses_batch_fast_path():
            return np.array(
                [self.selectivity(box) for box in batch], dtype=np.float64
            )
        registry = self.obs
        if not registry.enabled:
            return self.backend.selectivity_block(batch.low, batch.high)
        backend_name = self.backend.name
        snapshot = self._cache_snapshot()
        with span(
            "estimate_batch", registry, backend=backend_name
        ) as batch_span:
            estimates = self.backend.selectivity_block(batch.low, batch.high)
        registry.counter(
            "estimator.queries", {"backend": backend_name}
        ).inc(len(batch))
        registry.histogram(
            "estimator.batch_seconds", {"backend": backend_name}
        ).observe(batch_span.seconds)
        self._emit_traces(registry, estimates, snapshot, batch)
        return estimates

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------
    def _cache_snapshot(self):
        """``(hits, misses)`` of the backend's cache counters right now."""
        stats = self.backend.stats
        return stats.cache_hits, stats.cache_misses

    def _emit_traces(
        self, registry, estimates, cache_snapshot, batch=None
    ) -> None:
        """Record one :class:`~repro.obs.trace.EstimationTrace` per query.

        Cache hit/miss counts are the *evaluation's* delta against
        ``cache_snapshot``; queries evaluated in the same batch share it
        (per-query attribution inside one fused block is meaningless).
        Per-shard worker seconds, when the sharded backend just ran,
        likewise describe the whole evaluation.  ``batch`` (when given)
        supplies the per-query box bounds so drift detectors can follow
        the predicate region.
        """
        stats = self.backend.stats
        hits = stats.cache_hits - cache_snapshot[0]
        misses = stats.cache_misses - cache_snapshot[1]
        shard_seconds = getattr(self.backend, "last_shard_seconds", None)
        backend_name = self.backend.name
        for index, value in enumerate(estimates):
            low = high = None
            if batch is not None:
                low = tuple(float(v) for v in batch.low[index])
                high = tuple(float(v) for v in batch.high[index])
            registry.record_trace(
                EstimationTrace(
                    query_id=registry.next_query_id(),
                    predicted=float(value),
                    backend=backend_name,
                    bandwidth_epoch=self._bandwidth_epoch,
                    sample_epoch=self._sample_epoch,
                    cache_hits=hits,
                    cache_misses=misses,
                    shard_seconds=shard_seconds,
                    query_low=low,
                    query_high=high,
                )
            )

    def selectivity_gradient_batch(
        self,
        queries: Union[QueryBatch, Sequence[Box]],
        dimension_masses: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(q, d)`` bandwidth gradients, one row per query (Eq. 17).

        Parameters
        ----------
        queries:
            The query batch.
        dimension_masses:
            Optional precomputed ``(q, s, d)`` tensor from
            :meth:`dimension_masses_batch`; pass it when computing both
            the estimates and the gradients for the same batch so the erf
            terms are evaluated once (the retained buffer of Section 5.4).
        """
        batch = self._check_batch(queries)
        if not self._uses_batch_fast_path():
            rows = []
            for index, box in enumerate(batch):
                masses = (
                    dimension_masses[index]
                    if dimension_masses is not None
                    else None
                )
                rows.append(self.selectivity_gradient(box, masses))
            return np.stack(rows)
        return self.backend.gradient_block(
            batch.low, batch.high, dimension_masses
        )

    def _gradient_block(
        self,
        low: np.ndarray,
        high: np.ndarray,
        dimension_masses: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Reference ``(q, d)`` gradient evaluation over raw bound arrays.

        The chunked whole-array implementation behind the fast path;
        backends delegate here (``numpy``) or reproduce the same math on
        their own schedule (``sharded``).
        """
        s, d = self.sample_size, self.dimensions
        out = np.empty((low.shape[0], d), dtype=np.float64)
        chunk = self._batch_chunk()
        for start in range(0, low.shape[0], chunk):
            stop = min(low.shape[0], start + chunk)
            low_block = low[start:stop]
            high_block = high[start:stop]
            if dimension_masses is not None:
                masses = dimension_masses[start:stop]
            else:
                masses = self._masses_block(low_block, high_block)
            b = stop - start
            # Zero-safe leave-one-dimension-out products via prefix/suffix
            # (the same scheme as the per-query gradient).
            prefix = np.ones((b, s, d + 1), dtype=np.float64)
            suffix = np.ones((b, s, d + 1), dtype=np.float64)
            for j in range(d):
                prefix[:, :, j + 1] = prefix[:, :, j] * masses[:, :, j]
            for j in range(d - 1, -1, -1):
                suffix[:, :, j] = suffix[:, :, j + 1] * masses[:, :, j]
            for i in range(d):
                dmass = self._kernels[i].interval_mass_grad(
                    low_block[:, i, None],
                    high_block[:, i, None],
                    self._sample[None, :, i],
                    self._bandwidth[i],
                )
                others = prefix[:, :, i] * suffix[:, :, i + 1]
                out[start:stop, i] = (dmass * others).mean(axis=1)
        return out

    def density(self, points: np.ndarray) -> np.ndarray:
        """Pointwise density estimate ``p_hat(x)`` of Eq. (1).

        Not used for selectivity estimation itself (which integrates the
        density) but handy for diagnostics, plotting and tests.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dimensions:
            raise ValueError("points have the wrong dimensionality")
        h = self._bandwidth
        # (n, s, d) standardised distances; evaluated chunk-wise to bound memory.
        out = np.empty(points.shape[0], dtype=np.float64)
        norm = float(np.prod(h)) * self.sample_size
        budget = chunking.get_density_chunk_budget()
        chunk = max(1, budget // max(1, self.sample_size * self.dimensions))
        for start in range(0, points.shape[0], chunk):
            block = points[start : start + chunk]
            z = (block[:, None, :] - self._sample[None, :, :]) / h
            k = np.ones(z.shape[:2], dtype=np.float64)
            for j in range(self.dimensions):
                k *= self._kernels[j].pdf(z[:, :, j])
            out[start : start + chunk] = k.sum(axis=1) / norm
        return out

    # ------------------------------------------------------------------
    # Gradient (Eq. 15-17)
    # ------------------------------------------------------------------
    def selectivity_gradient(
        self, query: Box, dimension_masses: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gradient ``d p_hat(query) / d h`` — the closed form of Eq. (17).

        Parameters
        ----------
        query:
            The query region.
        dimension_masses:
            Optional precomputed ``(s, d)`` matrix of per-dimension interval
            masses (see :meth:`dimension_masses`); pass it when computing
            both the estimate and the gradient for the same query to avoid
            recomputing the erf terms.
        """
        self._check_query(query)
        if dimension_masses is None:
            dimension_masses = self.dimension_masses(query)
        dmass = self._kernel_terms(
            "interval_mass_grad", query, self._bandwidth[:, None]
        )
        dmass *= _leave_one_out_products(dimension_masses)
        return dmass.mean(axis=1)

    def dimension_masses(self, query: Box) -> np.ndarray:
        """``(s, d)`` matrix of per-dimension interval masses for ``query``.

        Row products give :meth:`contributions`; the matrix is shared
        between the estimate and gradient computations (mirroring the
        retained temporary buffer of Section 5.4).
        """
        self._check_query(query)
        return self._kernel_terms(
            "interval_mass", query, self._bandwidth[:, None]
        ).T

    def _kernel_terms(
        self, method: str, query: Box, bandwidth: np.ndarray
    ) -> np.ndarray:
        """``(d, s)`` per-dimension kernel ``method`` terms for ``query``.

        One call per distinct kernel over its whole column block of the
        sample, gathered as a contiguous ``(k, s)`` block so every numpy
        loop runs along the sample; bounds and ``bandwidth`` (``(d, 1)``,
        or ``(d, s)`` for per-point bandwidths) broadcast across it.
        """
        out = np.empty((self.dimensions, self.sample_size), dtype=np.float64)
        for kernel, cols in self._kernel_columns:
            out[cols] = getattr(kernel, method)(
                query.low[cols, None],
                query.high[cols, None],
                self._sample.T[cols],
                bandwidth[cols],
            )
        return out

    # ------------------------------------------------------------------
    # Sample maintenance hooks
    # ------------------------------------------------------------------
    def replace_rows(self, indices: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite sample rows in place (single-transfer row updates).

        This mirrors the paper's row-major device buffer, where replacing a
        sample point is one PCIe write (Section 5.1).  The device-resident
        estimator exposes the same operation under the same name.
        """
        indices = np.asarray(indices, dtype=np.intp)
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape != (indices.size, self.dimensions):
            raise ValueError(
                f"rows must have shape ({indices.size}, {self.dimensions})"
            )
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.sample_size
        ):
            raise IndexError("replacement index out of range")
        if not np.all(np.isfinite(rows)):
            raise ValueError("replacement rows contain non-finite values")
        self._sample[indices] = rows
        self._sample_epoch += 1
        if self._backend is not None:
            self._backend.invalidate("sample")

    def replace_points(self, indices: np.ndarray, rows: np.ndarray) -> None:
        """Deprecated alias of :meth:`replace_rows` (pre-1.1 spelling)."""
        warnings.warn(
            "KernelDensityEstimator.replace_points is deprecated; "
            "use replace_rows",
            DeprecationWarning,
            stacklevel=2,
        )
        self.replace_rows(indices, rows)

    # ------------------------------------------------------------------
    # State snapshot / restore (the state/engine split)
    # ------------------------------------------------------------------
    def snapshot(self) -> ModelState:
        """Immutable :class:`~repro.core.state.ModelState` of this model.

        The snapshot owns copies of the sample and bandwidth, so later
        mutation of this estimator (tuning, row replacement) can never
        reach through it — the invariant snapshot-isolated serving
        (:mod:`repro.serve`) builds on.
        """
        self._require_named_kernels()
        return ModelState(
            kind="kde",
            sample=self._sample,
            bandwidth=self._bandwidth,
            kernels=tuple(k.name for k in self._kernels),
            bandwidth_epoch=self._bandwidth_epoch,
            sample_epoch=self._sample_epoch,
        )

    def restore(self, state: ModelState) -> None:
        """Adopt a snapshot's sample, bandwidth and kernels in place.

        Estimates after ``restore`` are bit-identical to estimates at
        snapshot time.  The epoch counters are *not* rewound: they jump
        past both the snapshot's and the current values, so backend
        caches keyed on ``(bandwidth_epoch, sample_epoch)`` can never
        alias entries from a superseded lineage.
        """
        if state.dimensions != self.dimensions:
            raise ValueError(
                f"state has {state.dimensions} dimensions, "
                f"estimator has {self.dimensions}"
            )
        sample = np.array(state.sample, dtype=np.float64, copy=True, order="F")
        if not np.all(np.isfinite(sample)):
            raise ValueError("state sample contains non-finite values")
        self._sample = sample
        self._set_kernels([get_kernel(name) for name in state.kernels])
        self._bandwidth = np.array(
            state.bandwidth, dtype=np.float64, copy=True
        )
        self._bandwidth_epoch = (
            max(self._bandwidth_epoch, state.bandwidth_epoch) + 1
        )
        self._sample_epoch = max(self._sample_epoch, state.sample_epoch) + 1
        if self._backend is not None:
            self._backend.invalidate("sample")
            self._backend.invalidate("bandwidth")

    @classmethod
    def from_state(
        cls,
        state: ModelState,
        backend: Union[str, ExecutionBackend, None] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "KernelDensityEstimator":
        """Construct a fresh estimator from a snapshot (warm start).

        Accepts snapshots of any kind — a ``"self_tuning"`` or
        ``"device"`` snapshot yields the static KDE over the same
        sample/bandwidth/kernels (what snapshot-isolated serving reads).
        """
        estimator = cls(
            np.asarray(state.sample, dtype=np.float64),
            state.bandwidth,
            kernel=[get_kernel(name) for name in state.kernels],
            backend=backend,
            metrics=metrics,
        )
        estimator._bandwidth_epoch = state.bandwidth_epoch
        estimator._sample_epoch = state.sample_epoch
        return estimator

    def _require_named_kernels(self) -> None:
        """Snapshots resolve kernels by registry name at restore time."""
        for kernel in self._kernels:
            try:
                registered = get_kernel(kernel.name)
            except ValueError:
                registered = None
            if registered is not kernel:
                raise ValueError(
                    f"kernel {kernel!r} is not registered under its name "
                    f"{kernel.name!r}; register it (see "
                    "repro.core.kernels.register_kernel) before snapshotting"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelDensityEstimator(s={self.sample_size}, d={self.dimensions}, "
            f"kernel={self._kernels[0].name!r})"
        )
