"""Grid/CDF backend: sublinear range selectivities from precomputed tables.

The binned route of Andrzejewski et al. ("Density Estimations for
Approximate Query Processing on SIMD Architectures", PAPERS.md) breaks
the O(sample x queries) wall of the paper's evaluation model: instead of
touching every sample row per query, the sample is **snapped to a fixed
per-dimension grid at build time** and range selectivities are answered
from precomputed per-dimension kernel-CDF tables.

Build (lazy, per ``(bandwidth_epoch, sample_epoch)``):

* per dimension ``j``, lay ``G`` knots over the sample's range padded by
  ``padding * h_j`` on both sides (so the kernel CDF saturates to 0/1 at
  the edges),
* snap each sample coordinate to its nearest knot — an ``(G,)`` weight
  vector ``w_j`` per dimension (O(s d) digitise, done once),
* tabulate the *smoothed marginal CDF* at every knot::

      T_j(x_k) = sum_g w_jg * F((x_k - x_g) / h_j)

  The knots are uniform, so ``F((x_k - x_g) / h_j)`` depends only on
  ``k - g``: per dimension, ``2G - 1`` kernel-CDF evaluations at the
  offsets ``m * step / h_j`` plus one length-``G`` convolution with the
  weights — O(G d) kernel evaluations total, independent of the sample
  size.

Query (O(d) per query — no sample rows touched):

* per dimension, the marginal interval mass is a table lookup with
  linear interpolation, ``T_j(u_j) - T_j(l_j)``,
* the selectivity estimate is the product of the per-dimension masses —
  the Eq. (13) product form evaluated on the *smoothed marginals*
  instead of per sample point.

Accuracy contract (the ``grid`` row of the README backends table):

* **zero-width dimensions are exact**: ``T_j(u) - T_j(l) == 0.0``
  bit-for-bit when ``u == l``, matching the reference backend's exactly-
  zero interval mass — degenerate and point queries agree exactly;
* snapping and interpolation each contribute O(step) error per
  dimension (``step = span_j / (grid_size - 1)``), driven to any budget
  by ``grid_size``;
* factoring the joint sum-of-products into a product of marginal sums
  additionally assumes cross-dimension independence *of the sample*.
  On independent dimensions the residual is sampling-level; on
  correlated data it is the measured Q-error axis of
  ``run_backend_scaling`` — the price of O(d) queries, exactly the
  speed/accuracy trade the bench reports.

Only the selectivity path is approximated.  Per-point contributions,
mass tensors and bandwidth gradients (the tuning paths, which need the
exact per-row terms) delegate to the reference chunked numpy evaluation
inherited from :class:`~repro.core.backends.numpy_backend.NumpyBackend`.

Correctness of table reuse mirrors :class:`~repro.core.backends.cache.
CachedBackend`: tables are keyed on the estimator's
``(bandwidth_epoch, sample_epoch)`` pair — a stale table can never be
*consulted* because its key no longer matches — and
:meth:`GridBackend.invalidate` additionally drops the dead generation
eagerly (``bandwidth`` setter, ``replace_rows`` and ``restore()`` all
bump epochs and notify).
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from .numpy_backend import NumpyBackend

__all__ = ["GridBackend"]


class GridBackend(NumpyBackend):
    """Per-dimension kernel-CDF tables over a grid-snapped sample.

    Parameters
    ----------
    grid_size:
        Knots per dimension (``G``).  Build cost is ``2G - 1``
        kernel-CDF evaluations plus one length-``G`` convolution per
        dimension; table memory is ``2 * 8 * G`` bytes per dimension.
        Larger grids shrink the snapping/interpolation error linearly.
    padding:
        Edge padding in bandwidth units.  8 covers the Gaussian tail to
        ~1e-15 and every compactly supported kernel outright.
    """

    name = "grid"

    def __init__(self, grid_size: int = 1024, padding: float = 8.0) -> None:
        super().__init__()
        if grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if padding <= 0.0:
            raise ValueError("padding must be positive")
        self.grid_size = int(grid_size)
        self.padding = float(padding)
        self._knots: List[np.ndarray] = []
        self._tables: List[np.ndarray] = []
        self._table_key: Optional[Tuple[int, int]] = None
        self.last_build_seconds = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def table_epochs(self) -> Optional[Tuple[int, int]]:
        """``(bandwidth_epoch, sample_epoch)`` the tables were built for.

        ``None`` while no tables exist (never built, or eagerly dropped
        by :meth:`invalidate`).  When set, it always equals the bound
        estimator's current epoch pair at query time — the invariant the
        invalidation property tests pin down.
        """
        return self._table_key

    @property
    def table_nbytes(self) -> int:
        """Resident bytes of the knot + CDF tables."""
        return sum(t.nbytes for t in self._tables) + sum(
            k.nbytes for k in self._knots
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, estimator) -> "GridBackend":
        """Attach to ``estimator``; every kernel must have a CDF.

        The tables tabulate each dimension's kernel CDF, so a discrete
        kernel (interval forms only) is rejected here rather than on the
        first read.
        """
        for j, kernel in enumerate(estimator.kernels):
            if not kernel.continuous:
                raise ValueError(
                    f"grid backend needs a continuous kernel CDF, but "
                    f"dimension {j} uses the {kernel.name!r} kernel"
                )
        return super().bind(estimator)

    def invalidate(self, reason: str) -> None:
        super().invalidate(reason)
        # Epoch-keyed tables already guarantee a stale generation is
        # never consulted; dropping eagerly frees its memory now.
        self._knots = []
        self._tables = []
        self._table_key = None

    def warm(
        self,
        low: Optional[np.ndarray] = None,
        high: Optional[np.ndarray] = None,
    ) -> bool:
        """Build the CDF tables for the current epochs ahead of traffic.

        The tables cover the whole sample range, so the forecast region
        is irrelevant; a no-op when the current generation's tables
        already exist.
        """
        del low, high
        self._ensure_tables()
        return True

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _ensure_tables(self) -> None:
        estimator = self.estimator
        key = (estimator.bandwidth_epoch, estimator.sample_epoch)
        if self._table_key == key:
            return
        started = perf_counter()
        sample = estimator._sample
        bandwidth = estimator._bandwidth
        knots: List[np.ndarray] = []
        tables: List[np.ndarray] = []
        size = self.grid_size
        for j in range(estimator.dimensions):
            column = sample[:, j]
            h = float(bandwidth[j])
            lo = float(column.min()) - self.padding * h
            hi = float(column.max()) + self.padding * h
            if hi <= lo:  # pragma: no cover - padding > 0 prevents this
                hi = lo + h
            axis = np.linspace(lo, hi, size)
            # Snap the sample to the grid: nearest-knot weights.
            step = (hi - lo) / (size - 1)
            cells = np.clip(
                np.rint((column - lo) / step).astype(np.intp), 0, size - 1
            )
            weights = np.bincount(cells, minlength=size).astype(np.float64)
            weights /= float(column.shape[0])
            # T_j(knot_k) = sum_g w_g F((k - g) * step / h): the CDF at
            # the 2G - 1 knot offsets, convolved with the weights.
            offsets = np.arange(1 - size, size) * (step / h)
            table = np.convolve(weights, estimator.kernels[j].cdf(offsets))[
                size - 1 : 2 * size - 1
            ].copy()
            # The CDF is monotone in theory; enforce it so interpolated
            # interval masses can never go (slightly) negative.
            np.maximum.accumulate(table, out=table)
            np.clip(table, 0.0, 1.0, out=table)
            knots.append(axis)
            tables.append(table)
        self._knots = knots
        self._tables = tables
        self._table_key = key
        self.last_build_seconds = perf_counter() - started
        self.stats.builds += 1
        registry = self._registry()
        if registry is not None and registry.enabled:
            labels = {"backend": self.name}
            registry.histogram("backend.build_seconds", labels).observe(
                self.last_build_seconds
            )
            registry.gauge("backend.table_bytes", labels).set(
                float(self.table_nbytes)
            )
            registry.counter("backend.builds", labels).inc()

    # ------------------------------------------------------------------
    # Block primitives
    # ------------------------------------------------------------------
    def selectivity_block(
        self, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        self._count(low.shape[0])
        self._count_rows_touched(0)  # the whole point: no rows touched
        self._ensure_tables()
        out = np.ones(low.shape[0], dtype=np.float64)
        for j in range(low.shape[1]):
            axis = self._knots[j]
            table = self._tables[j]
            mass = np.interp(high[:, j], axis, table) - np.interp(
                low[:, j], axis, table
            )
            # Monotone tables keep mass >= 0 up to interpolation
            # rounding; clip defensively so products stay in [0, 1].
            np.clip(mass, 0.0, 1.0, out=mass)
            out *= mass
        return out
