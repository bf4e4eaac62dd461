"""Discrete-data support: an ordered-discrete kernel (Section 8).

The paper notes that real databases mix continuous and discrete
attributes, points at the mixed-variable KDE literature (Li & Racine
[27]), and observes that its own estimator already degrades gracefully:
on discrete attributes the bandwidth optimiser drives the (Gaussian)
bandwidth towards zero and the estimator effectively counts matching
tuples.  This module implements the proper statistical treatment for
*ordered* discrete attributes (integer codes): the Wang-van Ryzin
kernel

.. math::
    K_\\lambda(v, t) = \\begin{cases}
        1 - \\lambda & v = t \\\\
        \\frac{1}{2} (1 - \\lambda) \\lambda^{|v - t|} & v \\ne t
    \\end{cases}
    \\qquad \\lambda \\in (0, 1)

which sums to one over the integers and smooths geometrically with the
ordinal distance.

To plug into the rest of the library unchanged — the estimator, the
gradient machinery, the batch optimiser and the online learner all
assume a *positive real bandwidth* — the kernel reparameterises
``lambda = h / (1 + h)``: ``h -> 0`` recovers exact counting (the
degradation the paper describes) and ``h -> inf`` maximal smoothing.
All interval masses and their bandwidth derivatives are closed-form
geometric sums, so optimisation works exactly as for the Gaussian.

Mix kernels per dimension via the estimator's per-dimension kernel
support::

    est = KernelDensityEstimator(
        sample, bandwidth,
        kernel=["gaussian", "ordered_discrete", "gaussian"],
    )
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .kernels import Kernel, register_kernel

__all__ = ["OrderedDiscreteKernel", "encode_categories"]


def _lambda_of(bandwidth: Union[float, np.ndarray]) -> np.ndarray:
    """The reparameterisation ``lambda = h / (1 + h)`` into ``(0, 1)``."""
    h = np.asarray(bandwidth, dtype=np.float64)
    return h / (1.0 + h)


class OrderedDiscreteKernel(Kernel):
    """Wang-van Ryzin kernel over integer-coded ordered categories.

    Data values are rounded to the nearest integer; interval masses sum
    the kernel over the integers inside ``[low, high]`` in closed form.
    """

    name = "ordered_discrete"
    continuous = False

    # -- standardised forms --------------------------------------------
    # pdf/cdf on the standardised axis are not meaningful for a discrete
    # kernel; interval_mass/interval_mass_grad below are the real API.
    def pdf(self, z: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError(
            "the ordered-discrete kernel has no continuous density; "
            "use interval_mass"
        )

    def cdf(self, z: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError(
            "the ordered-discrete kernel has no continuous CDF; "
            "use interval_mass"
        )

    # -- interval contributions ----------------------------------------
    def interval_mass(
        self,
        low: Union[float, np.ndarray],
        high: Union[float, np.ndarray],
        points: np.ndarray,
        bandwidth: Union[float, np.ndarray],
    ) -> np.ndarray:
        """Mass on the integers in ``[low, high]`` for centres ``points``.

        Closed form per centre ``t`` with ``q = lambda``, ``a = ceil(low)``,
        ``b = floor(high)``:

        * ``t`` inside ``[a, b]``:   ``1 - (q^{t-a+1} + q^{b-t+1}) / 2``
        * ``t < a``:                 ``(q^{a-t} - q^{b-t+1}) / 2``
        * ``t > b``:                 ``(q^{t-b} - q^{t-a+1}) / 2``
        """
        t = np.rint(np.asarray(points, dtype=np.float64))
        a = np.ceil(np.asarray(low, dtype=np.float64))
        b = np.floor(np.asarray(high, dtype=np.float64))
        q = _lambda_of(bandwidth)
        empty = b < a

        with np.errstate(invalid="ignore", over="ignore"):
            inside = (t >= a) & (t <= b)
            below = t < a
            mass_inside = 1.0 - 0.5 * (
                np.power(q, t - a + 1.0) + np.power(q, b - t + 1.0)
            )
            mass_below = 0.5 * (np.power(q, a - t) - np.power(q, b - t + 1.0))
            mass_above = 0.5 * (np.power(q, t - b) - np.power(q, t - a + 1.0))
        result = np.where(inside, mass_inside,
                          np.where(below, mass_below, mass_above))
        result = np.where(empty, 0.0, result)
        return np.clip(result, 0.0, 1.0)

    def interval_mass_grad(
        self,
        low: Union[float, np.ndarray],
        high: Union[float, np.ndarray],
        points: np.ndarray,
        bandwidth: Union[float, np.ndarray],
    ) -> np.ndarray:
        """Derivative of :meth:`interval_mass` with respect to ``h``.

        Differentiates the geometric closed forms in ``q`` and chains
        through ``dq/dh = 1 / (1 + h)^2``.
        """
        t = np.rint(np.asarray(points, dtype=np.float64))
        a = np.ceil(np.asarray(low, dtype=np.float64))
        b = np.floor(np.asarray(high, dtype=np.float64))
        h = np.asarray(bandwidth, dtype=np.float64)
        q = _lambda_of(h)
        dq_dh = 1.0 / ((1.0 + h) * (1.0 + h))
        empty = b < a

        def dpow(exponent: np.ndarray) -> np.ndarray:
            # d/dq q^e = e q^{e-1}; exponents here are always >= 1 when
            # the branch applies, so the power is well-defined at q -> 0.
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                return exponent * np.power(q, exponent - 1.0)

        inside = (t >= a) & (t <= b)
        below = t < a
        grad_inside = -0.5 * (dpow(t - a + 1.0) + dpow(b - t + 1.0))
        grad_below = 0.5 * (dpow(a - t) - dpow(b - t + 1.0))
        grad_above = 0.5 * (dpow(t - b) - dpow(t - a + 1.0))
        result = np.where(inside, grad_inside,
                          np.where(below, grad_below, grad_above))
        result = np.where(empty, 0.0, result)
        return result * dq_dh


register_kernel(OrderedDiscreteKernel)


def encode_categories(values: np.ndarray) -> tuple:
    """Integer-encode an unordered categorical column.

    Returns ``(codes, categories)`` where ``codes`` is a float array of
    integer codes usable as an ordered-discrete estimator dimension and
    ``categories`` maps code -> original value.  Codes follow the sorted
    category order; for genuinely unordered data with many categories an
    unordered (Aitchison-Aitken) kernel would be preferable, but code
    order works well for the low-cardinality columns databases index.
    """
    values = np.asarray(values)
    categories, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.float64), categories
