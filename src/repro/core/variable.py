"""Variable (adaptive) kernel density models (Section 8, future work).

The paper's third future-work direction: sample-point KDE in the sense
of Terrell & Scott [41], where every sample point carries its own
bandwidth.  We implement the classic Abramson construction: a pilot
density estimate assigns each point a *local scaling factor*

.. math::
    \\lambda_i = \\left( \\frac{\\hat p_{pilot}(t^{(i)})}{G} \\right)^{-\\alpha}

(with ``G`` the geometric mean of the pilot densities and ``alpha``
typically ``1/2``), and the effective bandwidth of point ``i`` along
dimension ``j`` is ``lambda_i * h_j``.  Points in dense regions get
narrow kernels (preserving detail), points in sparse tails get wide
ones (suppressing spurious bumps).

The paper conjectures its bandwidth optimisation "should be portable to
variable KDE models as well" — and it is: the global vector ``h``
remains the free parameter, the local factors are constants, and by the
chain rule the Eq. (17) gradient merely picks up a ``lambda_i`` factor
per point.  :class:`VariableKernelDensityEstimator` therefore works
unchanged with the batch optimiser and the online learner.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..geometry import Box
from .bandwidth import scott_bandwidth
from .estimator import KernelDensityEstimator, _leave_one_out_products
from .kernels import Kernel

__all__ = ["VariableKernelDensityEstimator", "abramson_factors"]


def abramson_factors(
    sample: np.ndarray,
    pilot_bandwidth: Optional[np.ndarray] = None,
    alpha: float = 0.5,
    kernel: Union[str, Kernel] = "gaussian",
) -> np.ndarray:
    """Per-point Abramson scaling factors from a pilot density estimate.

    Parameters
    ----------
    sample:
        ``(s, d)`` sample the variable model will be built on.
    pilot_bandwidth:
        Bandwidth of the fixed pilot KDE; Scott's rule when omitted.
    alpha:
        Sensitivity exponent; ``0`` gives a fixed-bandwidth model,
        ``1/2`` is Abramson's square-root law.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    sample = np.asarray(sample, dtype=np.float64)
    if pilot_bandwidth is None:
        pilot_bandwidth = scott_bandwidth(sample)
    pilot = KernelDensityEstimator(sample, pilot_bandwidth, kernel)
    densities = np.maximum(pilot.density(sample), 1e-300)
    geometric_mean = float(np.exp(np.mean(np.log(densities))))
    return (densities / geometric_mean) ** (-alpha)


class VariableKernelDensityEstimator(KernelDensityEstimator):
    """KDE with per-point bandwidth scaling factors.

    The effective bandwidth of sample point ``i`` in dimension ``j`` is
    ``local_factors[i] * bandwidth[j]``; everything else — the closed
    form Eq. (13), the gradient Eq. (17), Karma's leave-one-out scores —
    carries over with the factors folded in.

    Parameters
    ----------
    sample, bandwidth, kernel:
        As for :class:`KernelDensityEstimator`.
    local_factors:
        Positive per-point factors ``(s,)``; computed by
        :func:`abramson_factors` when omitted.
    """

    def __init__(
        self,
        sample: np.ndarray,
        bandwidth: Union[Sequence[float], np.ndarray],
        kernel: Union[str, Kernel] = "gaussian",
        local_factors: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(sample, bandwidth, kernel)
        if local_factors is None:
            local_factors = abramson_factors(self.sample, kernel=kernel)
        local_factors = np.asarray(local_factors, dtype=np.float64)
        if local_factors.shape != (self.sample_size,):
            raise ValueError(
                f"local_factors must have shape ({self.sample_size},)"
            )
        if np.any(~np.isfinite(local_factors)) or np.any(local_factors <= 0):
            raise ValueError("local_factors must be positive and finite")
        self._local_factors = local_factors.copy()

    @property
    def local_factors(self) -> np.ndarray:
        """Per-point bandwidth scaling factors (copy)."""
        return self._local_factors.copy()

    # ------------------------------------------------------------------
    # Overridden kernels: fold the local factor into the bandwidth.
    # ------------------------------------------------------------------
    def _point_bandwidths(self) -> np.ndarray:
        """``(d, s)`` effective bandwidths ``h_j * lambda_i``."""
        return np.outer(self._bandwidth, self._local_factors)

    def dimension_masses(self, query: Box) -> np.ndarray:
        self._check_query(query)
        return self._kernel_terms(
            "interval_mass", query, self._point_bandwidths()
        ).T

    def contributions(self, query: Box) -> np.ndarray:
        return np.prod(self.dimension_masses(query), axis=1)

    def selectivity_gradient(
        self, query: Box, dimension_masses: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gradient with respect to the *global* bandwidth vector.

        With ``b_{ij} = lambda_i h_j`` the chain rule gives
        ``d M / d h_j = lambda_i * (d M / d b_{ij})``.
        """
        self._check_query(query)
        if dimension_masses is None:
            dimension_masses = self.dimension_masses(query)
        dmass = self._kernel_terms(
            "interval_mass_grad", query, self._point_bandwidths()
        )
        dmass *= self._local_factors
        dmass *= _leave_one_out_products(dimension_masses)
        return dmass.mean(axis=1)

    def density(self, points: np.ndarray) -> np.ndarray:
        """Pointwise density with per-point bandwidths."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dimensions:
            raise ValueError("points have the wrong dimensionality")
        sample = self.sample
        h = self.bandwidth
        out = np.empty(points.shape[0], dtype=np.float64)
        chunk = max(
            1, int(4_000_000 / max(1, self.sample_size * self.dimensions))
        )
        # Per-point normalisation: prod_j (lambda_i h_j) = lambda_i^d prod h.
        norms = (
            self._local_factors ** self.dimensions * float(np.prod(h))
        ) * self.sample_size
        for start in range(0, points.shape[0], chunk):
            block = points[start : start + chunk]
            k = np.ones((block.shape[0], self.sample_size), dtype=np.float64)
            for j in range(self.dimensions):
                z = (block[:, None, j] - sample[None, :, j]) / (
                    self._local_factors[None, :] * h[j]
                )
                k *= self.kernel_for(j).pdf(z)
            out[start : start + chunk] = (k / norms[None, :]).sum(axis=1)
        return out

    def replace_rows(self, indices: np.ndarray, rows: np.ndarray) -> None:
        """Replace sample rows; fresh points get the neutral factor 1.

        Recomputing pilot densities per replacement would defeat the
        transfer-thrift of Karma maintenance, so replacements start at
        the fixed-bandwidth behaviour; call :meth:`refresh_factors`
        periodically to re-estimate all factors.
        """
        super().replace_rows(indices, rows)
        self._local_factors[np.asarray(indices, dtype=np.intp)] = 1.0

    def refresh_factors(self, alpha: float = 0.5) -> None:
        """Re-derive all local factors from a fresh pilot estimate."""
        self._local_factors = abramson_factors(
            self.sample, pilot_bandwidth=self.bandwidth, alpha=alpha
        )
