"""Support pruning of the Eq. (13) contribution kernel.

:func:`repro.core.kernels.contribution_block` skips the kernel terms of
sample rows lying beyond a kernel's ``support`` of the query box, whose
contribution is exactly ``0.0`` in float64.  The contract is strict:
every block, selectivity and per-query contribution vector is *bitwise*
equal to the dense product over every row, checked here against that
dense loop written out inline.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KernelDensityEstimator, scott_bandwidth
from repro.core import kernels as kernel_module
from repro.core.backends import ShardedBackend
from repro.core.kernels import contribution_block, get_kernel
from repro.geometry import Box, QueryBatch

KERNEL_SETS = {
    "gaussian": ["gaussian"] * 3,
    "epanechnikov": ["epanechnikov"] * 3,
    "mixed": ["gaussian", "ordered_discrete", "epanechnikov"],
}

CONTINUOUS = [
    kernel
    for kernel in kernel_module._REGISTRY.values()
    if kernel.continuous
]


def _dense(estimator, low, high):
    """The dense Eq. (13) loop: every factor of every row, in order."""
    sample = np.ascontiguousarray(estimator.sample)
    block = None
    for j, kernel in enumerate(estimator.kernels):
        masses = kernel.interval_mass(
            low[:, j, None],
            high[:, j, None],
            sample[None, :, j],
            estimator.bandwidth[j],
        )
        block = masses if block is None else np.multiply(
            block, masses, out=block
        )
    return block


def _sample(rng, kernels, rows=600):
    sample = rng.normal(size=(rows, len(kernels))) * 3.0
    for j, name in enumerate(kernels):
        if name == "ordered_discrete":
            sample[:, j] = np.rint(sample[:, j])
    return sample


def _estimator(sample, kernels, scale=0.05, backend=None):
    return KernelDensityEstimator(
        sample,
        scott_bandwidth(sample) * scale,
        kernel=kernels,
        backend=backend,
    )


def _assert_bitwise(estimator, low, high):
    batch = QueryBatch(low, high)
    reference = _dense(estimator, low, high)
    assert np.array_equal(estimator.contributions_batch(batch), reference)
    assert np.array_equal(
        estimator.selectivity_batch(batch), reference.mean(axis=1)
    )
    for index in range(low.shape[0]):
        box = Box(low[index], high[index])
        assert np.array_equal(estimator.contributions(box), reference[index])
        assert estimator.selectivity(box) == reference[index].mean()


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.mark.parametrize("name", sorted(KERNEL_SETS))
class TestBitwiseAgainstDense:
    def test_box_beyond_every_row(self, rng, name):
        kernels = KERNEL_SETS[name]
        estimator = _estimator(_sample(rng, kernels), kernels)
        low = np.full((1, 3), 1e3)
        high = np.full((1, 3), 2e3)
        _assert_bitwise(estimator, low, high)
        touched = estimator.backend.stats.rows_touched
        assert estimator.selectivity_batch(QueryBatch(low, high))[0] == 0.0
        assert estimator.backend.stats.rows_touched == touched

    def test_box_containing_every_row(self, rng, name):
        kernels = KERNEL_SETS[name]
        sample = _sample(rng, kernels)
        estimator = _estimator(sample, kernels)
        low = (sample.min(axis=0) - 1.0)[None, :]
        high = (sample.max(axis=0) + 1.0)[None, :]
        _assert_bitwise(estimator, low, high)

    def test_degenerate_box(self, rng, name):
        kernels = KERNEL_SETS[name]
        sample = _sample(rng, kernels)
        estimator = _estimator(sample, kernels)
        point = sample[:3]
        _assert_bitwise(estimator, point.copy(), point.copy())

    def test_block_with_differing_alive_sets(self, rng, name):
        kernels = KERNEL_SETS[name]
        sample = _sample(rng, kernels)
        estimator = _estimator(sample, kernels)
        centres = sample[rng.integers(0, sample.shape[0], size=7)]
        widths = rng.uniform(0.1, 2.0, size=(7, 3))
        low, high = centres - widths, centres + widths
        batch = QueryBatch(low, high)
        _assert_bitwise(estimator, low, high)
        before = estimator.backend.stats.rows_touched
        estimator.selectivity_batch(batch)
        touched = estimator.backend.stats.rows_touched - before
        alive = _dense(estimator, low, high) != 0.0
        # Pruning skipped rows, and never one that contributes.
        assert alive.sum() <= touched < low.shape[0] * sample.shape[0]
        # The count is per (query, row) pair, so it does not depend on
        # how the queries were blocked.
        one_by_one = estimator.backend.stats.rows_touched
        for index in range(low.shape[0]):
            estimator.selectivity_batch(QueryBatch(low[index:index + 1],
                                                   high[index:index + 1]))
        assert estimator.backend.stats.rows_touched - one_by_one == touched

    def test_rows_at_the_support_edge(self, rng, name):
        kernels = KERNEL_SETS[name]
        sample = _sample(rng, kernels)
        bandwidth = scott_bandwidth(sample) * 0.05
        low = np.array([-0.5, -0.5, -0.5])
        high = np.array([0.5, 0.5, 0.5])
        edges = []
        for j, kernel_name in enumerate(kernels):
            support = get_kernel(kernel_name).support
            if math.isinf(support):
                continue
            for bound, sign in ((low[j], -1.0), (high[j], 1.0)):
                edge = bound + sign * support * bandwidth[j]
                for value in (
                    np.nextafter(edge, -np.inf),
                    edge,
                    np.nextafter(edge, np.inf),
                ):
                    row = np.zeros(3)
                    row[j] = value
                    edges.append(row)
        sample[: len(edges)] = edges
        estimator = KernelDensityEstimator(sample, bandwidth, kernel=kernels)
        _assert_bitwise(estimator, low[None, :], high[None, :])

    def test_after_replace_rows_and_restore(self, rng, name):
        kernels = KERNEL_SETS[name]
        sample = _sample(rng, kernels)
        estimator = _estimator(sample, kernels)
        state = estimator.snapshot()
        centres = sample[rng.integers(0, sample.shape[0], size=4)]
        low, high = centres - 0.7, centres + 0.7
        estimator.replace_rows(
            np.arange(50), _sample(rng, kernels, rows=50) + 0.3
        )
        _assert_bitwise(estimator, low, high)
        estimator.restore(state)
        assert estimator.sample.flags.f_contiguous
        _assert_bitwise(estimator, low, high)


def test_nan_bound_is_never_pruned(rng):
    sample = rng.normal(size=(200, 2))
    estimator = _estimator(sample, ["gaussian"] * 2)
    box = Box(np.array([50.0, np.nan]), np.array([60.0, np.nan]))
    assert np.isnan(estimator.contributions(box)).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_rejected(rng, bad):
    # A non-finite row would fail every support comparison and be pruned
    # to 0.0, where the dense product gives NaN; the estimator never
    # holds one.
    estimator = _estimator(rng.normal(size=(100, 3)), ["gaussian"] * 3)
    before = estimator.sample.copy()
    state = estimator.snapshot()
    row = np.array([[0.0, bad, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        estimator.replace_rows(np.array([4]), row)
    assert np.array_equal(estimator.sample, before)
    poisoned = state.sample.copy()
    poisoned[4] = row
    with pytest.raises(ValueError, match="non-finite"):
        estimator.restore(dataclasses.replace(state, sample=poisoned))
    assert np.array_equal(estimator.sample, before)


def test_snapshot_sample_stays_row_major(rng):
    estimator = _estimator(rng.normal(size=(100, 3)), ["gaussian"] * 3)
    assert estimator.sample.flags.f_contiguous
    assert estimator.snapshot().sample.flags.c_contiguous


def test_sharded_worker_fold_matches_numpy(rng):
    kernels = KERNEL_SETS["mixed"]
    sample = _sample(rng, kernels, rows=2000)
    centres = sample[rng.integers(0, sample.shape[0], size=5)]
    batch = QueryBatch(centres - 0.6, centres + 0.6)
    reference = _estimator(sample, kernels)
    sharded = _estimator(sample, kernels, backend=ShardedBackend(shards=2))
    try:
        assert np.array_equal(
            sharded.contributions_batch(batch),
            reference.contributions_batch(batch),
        )
        np.testing.assert_allclose(
            sharded.selectivity_batch(batch),
            reference.selectivity_batch(batch),
            rtol=0,
            atol=1e-15,
        )
    finally:
        sharded.backend.close()


def test_direct_call_counts_evaluated_pairs(rng):
    sample = np.asfortranarray(rng.normal(size=(1000, 2)))
    kernels = [get_kernel("gaussian")] * 2
    bandwidth = np.full(2, 0.01)
    reach = kernels[0].support * bandwidth
    low = np.array([[0.0, 0.0], [5e2, 5e2]])
    high = np.array([[0.2, 0.2], [6e2, 6e2]])
    block, evaluated = contribution_block(sample, low, high, bandwidth, kernels)
    alive = ((sample >= low[0] - reach) & (sample <= high[0] + reach)).all(
        axis=1
    )
    assert evaluated == alive.sum()
    assert not block[1].any()


@pytest.mark.parametrize("kernel", CONTINUOUS, ids=lambda k: k.name)
class TestSupportIsExact:
    @given(st.floats(0.0, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_cdf_saturates_beyond_support(self, kernel, excess):
        z = np.array([kernel.support + excess])
        assert kernel.cdf(z)[0] == 1.0
        assert kernel.cdf(-z)[0] == 0.0

    @given(
        st.floats(-1e3, 1e3),
        st.floats(0.0, 1e3),
        st.floats(1e-6, 1e2),
        st.floats(0.0, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_mass_is_zero_beyond_support(
        self, kernel, low, width, bandwidth, excess
    ):
        high = low + width
        reach = kernel.support * bandwidth
        below = np.nextafter(low - reach, -np.inf) - excess
        above = np.nextafter(high + reach, np.inf) + excess
        masses = kernel.interval_mass(
            low, high, np.array([below, above]), bandwidth
        )
        assert masses[0] == 0.0 and masses[1] == 0.0
