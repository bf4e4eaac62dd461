"""Kernel functions for multivariate product-kernel density estimation.

The estimator of the paper (Eq. 1) builds a *product kernel*: the
``d``-dimensional kernel factors into ``d`` one-dimensional kernels, one per
attribute, each scaled by its own bandwidth ``h_j`` (the diagonal-bandwidth
simplification of Section 3.1.3).  Integrating the estimator over a
hyper-rectangular query region therefore reduces to a product of
one-dimensional interval integrals (Appendix B), which in turn reduce to
differences of the kernel's cumulative distribution function.

Each kernel here exposes exactly the three quantities the rest of the
library needs:

``cdf(z)``
    One-dimensional CDF of the standardised kernel.
``interval_mass(low, high, points, bandwidth)``
    Per-dimension probability contribution
    ``F((u - t) / h) - F((l - t) / h)`` — Eq. (13)'s per-dimension factor.
``interval_mass_grad(low, high, points, bandwidth)``
    Partial derivative of that factor with respect to the bandwidth ``h``
    — the per-dimension building block of the gradient Eq. (17).

plus a ``support`` constant: the standardised radius beyond which
``cdf`` is exactly 0 or 1 in float64.  :func:`contribution_block`, the
one Eq. (13) product every exact backend evaluates, uses it to skip
sample rows whose contribution is exactly ``0.0``.

The Gaussian kernel is the paper's primary choice (Eq. 9); the
Epanechnikov kernel is the alternative discussed in Section 3.1.2 and
Appendix A.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple, Type, Union

import numpy as np
from scipy.special import erf

__all__ = [
    "Kernel",
    "GaussianKernel",
    "EpanechnikovKernel",
    "contribution_block",
    "get_kernel",
    "register_kernel",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Kernel:
    """Base class for one-dimensional symmetric kernel functions.

    Subclasses implement :meth:`pdf` and :meth:`cdf` for the standardised
    (bandwidth-one, zero-centred) kernel; the interval-mass helpers are
    shared and derive everything else from those two functions plus the
    closed-form bandwidth derivative.
    """

    #: Registry name, set by subclasses.
    name: str = ""
    #: Whether :meth:`pdf` and :meth:`cdf` exist on a continuous
    #: standardised axis; discrete kernels provide only the interval forms.
    continuous: bool = True
    #: Standardised radius beyond which :meth:`cdf` is exactly 0 (below
    #: ``-support``) or exactly 1 (above ``support``) in float64, so a
    #: point more than ``support * h`` outside an interval has interval
    #: mass exactly ``0.0``.  ``inf`` means the mass is never exactly
    #: zero and rows are never skipped on this kernel's dimensions.
    support: float = math.inf

    # -- standardised kernel -------------------------------------------
    def pdf(self, z: np.ndarray) -> np.ndarray:
        """Density of the standardised kernel at ``z``."""
        raise NotImplementedError

    def cdf(self, z: np.ndarray) -> np.ndarray:
        """CDF of the standardised kernel at ``z``."""
        raise NotImplementedError

    # -- interval contributions ----------------------------------------
    def interval_mass(
        self,
        low: Union[float, np.ndarray],
        high: Union[float, np.ndarray],
        points: np.ndarray,
        bandwidth: Union[float, np.ndarray],
    ) -> np.ndarray:
        """Probability mass a kernel centred at ``points`` puts on [low, high].

        All arguments broadcast; the usual call uses scalar bounds, a vector
        of per-point coordinates and a scalar bandwidth, returning one value
        per point.
        """
        points = np.asarray(points, dtype=np.float64)
        z_high = (high - points) / bandwidth
        z_low = (low - points) / bandwidth
        return self.cdf(z_high) - self.cdf(z_low)

    def interval_mass_grad(
        self,
        low: Union[float, np.ndarray],
        high: Union[float, np.ndarray],
        points: np.ndarray,
        bandwidth: Union[float, np.ndarray],
    ) -> np.ndarray:
        """Derivative of :meth:`interval_mass` with respect to ``bandwidth``.

        With ``F`` the standardised CDF and ``f`` its density,

        .. math::
            \\frac{\\partial}{\\partial h}
            \\left[ F\\left(\\frac{u-t}{h}\\right)
                  - F\\left(\\frac{l-t}{h}\\right) \\right]
            = \\frac{(l-t) f\\left(\\frac{l-t}{h}\\right)
                   - (u-t) f\\left(\\frac{u-t}{h}\\right)}{h^2}

        which is exactly the bracketed factor of Eq. (17) for the Gaussian.
        """
        points = np.asarray(points, dtype=np.float64)
        du = high - points
        dl = low - points
        h2 = bandwidth * bandwidth
        return (dl * self.pdf(dl / bandwidth) - du * self.pdf(du / bandwidth)) / h2


class GaussianKernel(Kernel):
    """The standard normal kernel of Eq. (9).

    Continuously differentiable with unbounded support; the paper's default
    because its interval integral has the clean erf closed form of Eq. (13).
    """

    name = "gaussian"
    #: ``erf`` rounds to exactly +-1 beyond 5.92, i.e. ``cdf`` saturates
    #: at ``|z| = 8.37``; 9 leaves 0.6 bandwidths for threshold rounding.
    support = 9.0

    def pdf(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        return _INV_SQRT_2PI * np.exp(-0.5 * z * z)

    def cdf(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        return 0.5 * (1.0 + erf(z / _SQRT2))


class EpanechnikovKernel(Kernel):
    """The Epanechnikov kernel ``K(z) = 3/4 (1 - z^2)`` on ``[-1, 1]``.

    Mean-square-error optimal among all kernels and cheap to evaluate, but
    only piecewise differentiable at the support boundary (Appendix A notes
    the limited support makes derivations more cumbersome; the formulas
    below handle the clipping explicitly).
    """

    name = "epanechnikov"
    #: ``cdf`` clips to exactly 0/1 at ``|z| = 1``; the hair of margin
    #: absorbs the rounding of the ``low - support * h`` threshold.
    support = 1.0 + 1e-9

    def pdf(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        inside = np.abs(z) <= 1.0
        return np.where(inside, 0.75 * (1.0 - z * z), 0.0)

    def cdf(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        zc = np.clip(z, -1.0, 1.0)
        return (3.0 * zc - zc ** 3 + 2.0) / 4.0


def contribution_block(
    columns: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    bandwidth: np.ndarray,
    kernels: Sequence[Kernel],
) -> Tuple[np.ndarray, int]:
    """``(b, s)`` Eq. (13) contributions and the number evaluated.

    ``columns`` is the ``(s, d)`` sample (column-major, so every
    dimension streams contiguously); ``low``/``high`` are ``(b, d)``
    bounds.  A row is *alive* for a query when, in every dimension, it
    lies within ``support * h_j`` of ``[low_j, high_j]``; every other
    row has a factor that is exactly ``0.0`` in float64, so its kernel
    terms are skipped and it stays ``0.0`` in the zeroed block.  The
    factors of the alive (query, row) pairs are gathered, multiplied in
    dimension order as in the dense product and scattered back, so the
    block — and any mean over it — is bitwise identical to evaluating
    every row.

    Returns ``(block, evaluated)``, where ``evaluated`` counts the alive
    (query, row) pairs, whose kernel terms were computed.
    """
    b = low.shape[0]
    s = columns.shape[0]
    alive = np.ones((b, s), dtype=bool)
    scratch = np.empty((b, s), dtype=bool)
    for j, kernel in enumerate(kernels):
        if math.isinf(kernel.support):
            continue
        reach = kernel.support * bandwidth[j]
        column = columns[:, j]
        np.greater_equal(column, (low[:, j] - reach)[:, None], out=scratch)
        alive &= scratch
        np.less_equal(column, (high[:, j] + reach)[:, None], out=scratch)
        alive &= scratch
    # A NaN bound makes every factor of its query NaN; never skip those.
    alive[np.isnan(low).any(axis=1) | np.isnan(high).any(axis=1)] = True
    # Flat indices run query by query, so each query's bounds repeat
    # over its own run of alive rows.
    pairs = np.flatnonzero(alive)
    per_query = np.count_nonzero(alive, axis=1)
    rows = pairs - np.repeat(np.arange(b) * s, per_query)
    # ``1.0 * x == x`` exactly, so starting from ones changes no bit.
    product = np.ones(pairs.size, dtype=np.float64)
    for j, kernel in enumerate(kernels):
        product *= kernel.interval_mass(
            np.repeat(low[:, j], per_query),
            np.repeat(high[:, j], per_query),
            columns[:, j].take(rows),
            bandwidth[j],
        )
    block = np.zeros((b, s), dtype=np.float64)
    np.put(block, pairs, product)
    return block, int(pairs.size)


_REGISTRY: Dict[str, Kernel] = {}


def register_kernel(kernel_cls: Type[Kernel]) -> Type[Kernel]:
    """Register a kernel class under its ``name`` for lookup by string."""
    if not kernel_cls.name:
        raise ValueError("kernel classes must define a non-empty name")
    _REGISTRY[kernel_cls.name] = kernel_cls()
    return kernel_cls


register_kernel(GaussianKernel)
register_kernel(EpanechnikovKernel)


def get_kernel(kernel: Union[str, Kernel]) -> Kernel:
    """Resolve a kernel instance from a name or pass an instance through."""
    if isinstance(kernel, Kernel):
        return kernel
    try:
        return _REGISTRY[kernel]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown kernel {kernel!r}; known kernels: {known}")
