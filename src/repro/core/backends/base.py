"""The execution-backend contract for the KDE batch hot path.

The paper's estimator is embarrassingly data-parallel over the sample:
one (point, dimension) term per virtual GPU thread, reduced in a second
phase (Sections 5.1-5.4).  An :class:`ExecutionBackend` abstracts *how*
that evaluation is scheduled on the host — inline numpy, sharded across
a process pool over shared memory, or served from a per-dimension CDF
term cache — while the estimator keeps owning *what* is computed (the
Eq. (13) factorisation and the Eq. (17) gradient).

A backend binds to exactly one :class:`~repro.core.estimator.
KernelDensityEstimator` and receives the raw ``(q, d)`` bound matrices
of a validated :class:`~repro.geometry.QueryBatch`.  Every backend must
be numerically equivalent to the reference ``numpy`` backend to 1e-12
(the reduction tree may differ; the per-element math may not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = ["BackendStats", "ExecutionBackend"]


@dataclass
class BackendStats:
    """Counters a backend accumulates across evaluations."""

    blocks_evaluated: int = 0
    queries_evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Sample rows whose kernel terms were actually evaluated on the
    #: selectivity path.  ``numpy`` touches the rows within the kernel
    #: support of each box (all ``s`` at wide bandwidths); the sublinear
    #: backends (``grid``, ``hashing``) touch fewer — this counter is how
    #: that saving is *observed* rather than asserted.  Backends that
    #: never report it leave it at zero.
    rows_touched: int = 0
    builds: int = 0
    invalidations: Dict[str, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of column lookups served from the cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def rows_touched_per_query(self) -> float:
        """Mean kernel-evaluated rows per selectivity query."""
        if not self.queries_evaluated:
            return 0.0
        return self.rows_touched / self.queries_evaluated

    def as_dict(self) -> Dict[str, object]:
        return {
            "blocks_evaluated": self.blocks_evaluated,
            "queries_evaluated": self.queries_evaluated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "rows_touched": self.rows_touched,
            "rows_touched_per_query": self.rows_touched_per_query,
            "builds": self.builds,
            "invalidations": dict(self.invalidations),
        }


class ExecutionBackend:
    """Base class for pluggable batch-evaluation strategies.

    Subclasses implement the three block primitives; everything above
    (query validation, chunk-budget policy defaults, the per-query
    fallback for estimator subclasses) stays in the estimator.
    """

    #: Registry name, set by subclasses.
    name: str = ""

    def __init__(self) -> None:
        self._estimator = None
        self.stats = BackendStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, estimator) -> "ExecutionBackend":
        """Attach to an estimator; a backend serves exactly one model."""
        if self._estimator is not None and self._estimator is not estimator:
            raise ValueError(
                f"backend {self.name!r} is already bound to another "
                "estimator; create one backend instance per model"
            )
        self._estimator = estimator
        return self

    @property
    def estimator(self):
        if self._estimator is None:
            raise RuntimeError(
                f"backend {self.name!r} is not bound to an estimator"
            )
        return self._estimator

    def invalidate(self, reason: str) -> None:
        """Notification that bound-model state changed.

        ``reason`` is ``"bandwidth"`` (the bandwidth vector was replaced)
        or ``"sample"`` (sample rows were rewritten in place).  Backends
        drop or refresh whatever derived state depends on it.
        """
        self.stats.invalidations[reason] = (
            self.stats.invalidations.get(reason, 0) + 1
        )

    def close(self) -> None:
        """Release external resources (pools, shared memory).  Idempotent."""

    def warm(
        self,
        low: Optional[np.ndarray] = None,
        high: Optional[np.ndarray] = None,
    ) -> bool:
        """Eagerly build whatever derived state the next query would build.

        ``low``/``high`` are optional ``(q, d)`` bound matrices of
        *forecast* queries; region-aware backends (the CDF-term cache)
        pre-compute exactly their terms, while table-based backends
        (grid, hashing) build their tables regardless of the region.
        Returns ``True`` when the backend did (or could have done) any
        eager work — the proactive controller uses the return value to
        know whether warming is worth scheduling for this backend at
        all.  The base implementation does nothing and returns
        ``False``; warming never changes results, only *when* the cost
        is paid.
        """
        return False

    # ------------------------------------------------------------------
    # Block primitives
    # ------------------------------------------------------------------
    def contribution_block(
        self, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        """``(q, s)`` per-point contributions for ``(q, d)`` bounds."""
        raise NotImplementedError

    def selectivity_block(
        self, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        """``(q,)`` selectivity estimates (mean-reduced contributions)."""
        raise NotImplementedError

    def masses_block(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """``(q, s, d)`` per-dimension interval masses."""
        raise NotImplementedError

    def gradient_block(
        self,
        low: np.ndarray,
        high: np.ndarray,
        dimension_masses: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(q, d)`` bandwidth gradients (Eq. 17), one row per query."""
        raise NotImplementedError

    def _count(self, queries: int) -> None:
        self.stats.blocks_evaluated += 1
        self.stats.queries_evaluated += int(queries)
        registry = self._registry()
        if registry is not None and registry.enabled:
            labels = {"backend": self.name}
            registry.counter("backend.blocks", labels).inc()
            registry.counter("backend.queries", labels).inc(int(queries))

    def _count_rows_touched(self, rows: int) -> None:
        """Account ``rows`` kernel-evaluated sample rows (see stats)."""
        self.stats.rows_touched += int(rows)
        registry = self._registry()
        if registry is not None and registry.enabled:
            registry.counter(
                "backend.rows_touched", {"backend": self.name}
            ).inc(int(rows))

    def _registry(self):
        """The bound estimator's metrics registry (None when unbound)."""
        estimator = self._estimator
        if estimator is None:
            return None
        return getattr(estimator, "obs", None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = "bound" if self._estimator is not None else "unbound"
        return f"{type(self).__name__}(name={self.name!r}, {bound})"
