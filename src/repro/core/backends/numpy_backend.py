"""The reference single-thread numpy backend.

The reference evaluation strategy behind the
:class:`~repro.core.backends.base.ExecutionBackend` contract: chunked
``(b, s)`` blocks, sized by the chunk-budget policy of
:mod:`repro.core.chunking`.  Each block is the shared Eq. (13) kernel
:func:`~repro.core.kernels.contribution_block`: a cheap comparison mask
over the ``s x d`` column-major sample marks the rows within each
kernel's support of the box, and kernel terms are evaluated on those
rows only — every other row's contribution is exactly ``0.0``.  Results
are bitwise identical to evaluating every row (same factors, same
multiplication order, same reductions); ``stats.rows_touched`` counts
the rows actually evaluated.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import ExecutionBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ExecutionBackend):
    """Inline chunked numpy evaluation (the default backend)."""

    name = "numpy"

    def contribution_block(
        self, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        estimator = self.estimator
        self._count(low.shape[0])
        out = np.empty(
            (low.shape[0], estimator.sample_size), dtype=np.float64
        )
        chunk = estimator._batch_chunk()
        for start in range(0, low.shape[0], chunk):
            stop = min(low.shape[0], start + chunk)
            out[start:stop] = estimator._contribution_block(
                low[start:stop], high[start:stop]
            )[0]
        return out

    def selectivity_block(
        self, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        estimator = self.estimator
        self._count(low.shape[0])
        out = np.empty(low.shape[0], dtype=np.float64)
        touched = 0
        chunk = estimator._batch_chunk()
        for start in range(0, low.shape[0], chunk):
            stop = min(low.shape[0], start + chunk)
            block, evaluated = estimator._contribution_block(
                low[start:stop], high[start:stop]
            )
            out[start:stop] = block.mean(axis=1)
            touched += evaluated
        self._count_rows_touched(touched)
        return out

    def masses_block(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        estimator = self.estimator
        self._count(low.shape[0])
        return estimator._masses_block(low, high)

    def gradient_block(
        self,
        low: np.ndarray,
        high: np.ndarray,
        dimension_masses: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        estimator = self.estimator
        self._count(low.shape[0])
        return estimator._gradient_block(low, high, dimension_masses)
