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

The Gaussian kernel is the paper's primary choice (Eq. 9); the
Epanechnikov kernel is the alternative discussed in Section 3.1.2 and
Appendix A.
"""

from __future__ import annotations

import math
from typing import Dict, Type, Union

import numpy as np
from scipy.special import erf

__all__ = [
    "Kernel",
    "GaussianKernel",
    "EpanechnikovKernel",
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

    def pdf(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        inside = np.abs(z) <= 1.0
        return np.where(inside, 0.75 * (1.0 - z * z), 0.0)

    def cdf(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        zc = np.clip(z, -1.0, 1.0)
        return (3.0 * zc - zc ** 3 + 2.0) / 4.0


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
