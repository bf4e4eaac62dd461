"""Sublinear backends: registry, ε-equivalence, invalidation, obs wiring.

The correctness contract of the ``grid`` and ``hashing`` backends is
looser than the 1e-12 budget of the exact backends — they trade bounded
error for per-query cost that no longer scales with the sample — but it
is still a *contract*:

* **grid**: tight equivalence in 1-D (the per-dimension CDF tables
  represent a 1-D estimator almost exactly), ε-equivalence in multi-D
  on independent samples (the product-of-marginals factorisation), and
  *exact* zeros for degenerate (zero-width) query dimensions;
* **hashing**: ε-relative equivalence everywhere (the near stratum is
  exact; the far stratum is certified by Hoeffding sampling), exactness
  for compactly supported kernels, and observed sublinearity — fewer
  kernel-evaluated rows than the full scan on selective queries;
* both: derived state (CDF tables, bucket index) is keyed on the
  estimator's epochs and eagerly invalidated by the ``bandwidth``
  setter, ``replace_rows`` and ``restore()``, so no stale table is ever
  consulted — mirroring the cache-invalidation suite in
  ``tests/core/test_backends.py``.
"""

import numpy as np
import pytest

from repro.core import KernelDensityEstimator, scott_bandwidth
from repro.core.backends import (
    GridBackend,
    HashingBackend,
    available_backends,
    get_backend,
)
from repro.core.kernels import GaussianKernel
from repro.geometry import Box, QueryBatch
from repro.obs import MetricsRegistry


@pytest.fixture
def rng():
    return np.random.default_rng(19)


def _make(sample, backend, **kwargs):
    return KernelDensityEstimator(
        sample, scott_bandwidth(sample), backend=backend, **kwargs
    )


def _independent_batch(rng, dimensions, queries=40):
    lows = rng.uniform(-2.5, 1.0, size=(queries, dimensions))
    highs = lows + rng.uniform(0.1, 2.0, size=(queries, dimensions))
    return QueryBatch(lows, highs)


# ----------------------------------------------------------------------
# Registry (satellite: error message lists registered names)
# ----------------------------------------------------------------------
class TestRegistry:
    def test_sublinear_backends_registered(self):
        assert {"grid", "hashing"} <= set(available_backends())
        assert isinstance(get_backend("grid"), GridBackend)
        assert isinstance(get_backend("hashing"), HashingBackend)

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("no-such-backend")
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message
        # The chained KeyError is suppressed: the ValueError *is* the
        # diagnosis, not a symptom of a dict lookup.
        assert excinfo.value.__cause__ is None

    @pytest.mark.parametrize(
        "factory,kwargs",
        [
            (GridBackend, dict(grid_size=1)),
            (GridBackend, dict(padding=0.0)),
            (HashingBackend, dict(epsilon=0.0)),
            (HashingBackend, dict(epsilon=1.0)),
            (HashingBackend, dict(delta=0.0)),
            (HashingBackend, dict(tail_radius=0.0)),
            (HashingBackend, dict(cells_per_dim=0)),
            (HashingBackend, dict(exact_threshold=-1)),
            (HashingBackend, dict(selectivity_floor=0.0)),
        ],
    )
    def test_parameter_validation(self, factory, kwargs):
        with pytest.raises(ValueError):
            factory(**kwargs)


# ----------------------------------------------------------------------
# Grid: equivalence within ε
# ----------------------------------------------------------------------
class TestGridEquivalence:
    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("bandwidth_scale", [0.5, 1.0, 2.0])
    def test_one_dimensional_is_tight(self, rng, kernel, bandwidth_scale):
        """In 1-D the CDF table is the estimator: only O(step) error."""
        sample = rng.normal(size=(5000, 1))
        bandwidth = scott_bandwidth(sample) * bandwidth_scale
        reference = KernelDensityEstimator(sample, bandwidth, kernel=kernel)
        grid = KernelDensityEstimator(
            sample, bandwidth, kernel=kernel, backend=GridBackend()
        )
        batch = _independent_batch(rng, 1, queries=60)
        np.testing.assert_allclose(
            grid.selectivity_batch(batch),
            reference.selectivity_batch(batch),
            rtol=0,
            atol=5e-3,
        )

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_multid_independent_within_epsilon(self, rng, kernel):
        """On independent dimensions the product form holds to ~1/sqrt(s)."""
        sample = rng.normal(size=(20_000, 3))
        reference = _make(sample, None, kernel=kernel)
        grid = _make(sample, GridBackend(), kernel=kernel)
        batch = _independent_batch(rng, 3)
        np.testing.assert_allclose(
            grid.selectivity_batch(batch),
            reference.selectivity_batch(batch),
            rtol=0,
            atol=0.02,
        )

    def test_zero_width_dimension_is_exactly_zero(self, rng):
        """Degenerate boxes: bit-for-bit zero, matching the reference."""
        sample = rng.normal(size=(3000, 3))
        grid = _make(sample, GridBackend())
        reference = _make(sample, None)
        boxes = [
            Box((0.0, -9.0, -9.0), (0.0, 9.0, 9.0)),  # zero-width dim
            Box((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),  # point query
        ]
        batch = QueryBatch.from_boxes(boxes)
        estimates = grid.selectivity_batch(batch)
        assert np.all(estimates == 0.0)
        assert np.all(reference.selectivity_batch(batch) == 0.0)

    def test_full_range_box_is_one(self, rng):
        sample = rng.normal(size=(3000, 2))
        grid = _make(sample, GridBackend())
        batch = QueryBatch.from_boxes(
            [Box((-100.0, -100.0), (100.0, 100.0))]
        )
        np.testing.assert_allclose(
            grid.selectivity_batch(batch), [1.0], rtol=0, atol=1e-9
        )

    def test_no_rows_touched_and_tuning_paths_exact(self, rng):
        """Selectivity touches zero rows; gradients stay reference-exact."""
        sample = rng.normal(size=(2000, 2))
        grid = _make(sample, GridBackend())
        reference = _make(sample, None)
        batch = _independent_batch(rng, 2, queries=10)
        grid.selectivity_batch(batch)
        assert grid.backend.stats.rows_touched == 0
        np.testing.assert_allclose(
            grid.selectivity_gradient_batch(batch),
            reference.selectivity_gradient_batch(batch),
            rtol=0,
            atol=1e-12,
        )


# ----------------------------------------------------------------------
# Grid: table build
# ----------------------------------------------------------------------
class _CountingGaussian(GaussianKernel):
    """Gaussian kernel counting the points its CDF is evaluated on."""

    name = "counting-gaussian"

    def __init__(self) -> None:
        self.points = 0

    def cdf(self, z):
        self.points += np.size(z)
        return super().cdf(z)


class TestGridBuild:
    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("grid_size", [2, 3, 17, 1024])
    def test_tables_match_dense_contraction(self, rng, kernel, grid_size):
        """The convolution build equals the (G x G) CDF-matrix product."""
        sample = rng.normal(size=(3000, 3)) * [1.0, 3.0, 0.0] + [0.0, 2.0, 1.5]
        bandwidth = np.array([0.3, 0.8, 0.2])
        grid = GridBackend(grid_size=grid_size)
        kde = KernelDensityEstimator(
            sample, bandwidth, kernel=kernel, backend=grid
        )
        grid.warm()
        for j in range(3):  # the last column is constant
            axis = grid._knots[j]
            step = (axis[-1] - axis[0]) / (grid_size - 1)
            cells = np.clip(
                np.rint((sample[:, j] - axis[0]) / step).astype(np.intp),
                0,
                grid_size - 1,
            )
            weights = np.bincount(cells, minlength=grid_size) / len(sample)
            z = (axis[:, None] - axis[None, :]) / bandwidth[j]
            dense = kde.kernels[j].cdf(z) @ weights
            np.maximum.accumulate(dense, out=dense)
            np.clip(dense, 0.0, 1.0, out=dense)
            np.testing.assert_allclose(
                grid._tables[j], dense, rtol=0, atol=1e-13
            )

    def test_build_evaluates_cdf_at_knot_offsets_only(self, rng):
        """One build costs (2G - 1) CDF points per dimension, not G x s."""
        kernel = _CountingGaussian()
        sample = rng.normal(size=(2000, 3))
        kde = _make(sample, GridBackend(grid_size=64), kernel=kernel)
        kernel.points = 0
        kde.backend.warm()
        assert kernel.points == (2 * 64 - 1) * 3
        kde.selectivity_batch(_independent_batch(rng, 3, queries=5))
        assert kernel.points == (2 * 64 - 1) * 3  # tables reused

    def test_bind_rejects_discrete_kernel(self, rng):
        """A discrete kernel has no CDF to tabulate: fail at bind time."""
        sample = np.column_stack(
            [rng.normal(size=500), rng.integers(0, 5, size=500)]
        )
        kernels = ["gaussian", "ordered_discrete"]
        with pytest.raises(ValueError, match="dimension 1.*ordered_discrete"):
            KernelDensityEstimator(
                sample, [0.3, 0.5], kernel=kernels, backend="grid"
            )
        kde = KernelDensityEstimator(sample, [0.3, 0.5], kernel=kernels)
        with pytest.raises(ValueError, match="dimension 1.*ordered_discrete"):
            kde.backend = GridBackend()
        assert kde.backend.name == "numpy"
        batch = QueryBatch.from_boxes([Box((-1.0, 1.0), (1.0, 3.0))])
        assert 0.0 < kde.selectivity_batch(batch)[0] < 1.0


# ----------------------------------------------------------------------
# Grid: table invalidation (satellite: mirror the cache suite)
# ----------------------------------------------------------------------
class TestGridInvalidation:
    def test_tables_keyed_on_epochs(self, rng):
        sample = rng.normal(size=(1500, 2))
        grid = _make(sample, GridBackend())
        batch = _independent_batch(rng, 2, queries=5)
        assert grid.backend.table_epochs is None
        grid.selectivity_batch(batch)
        assert grid.backend.table_epochs == (
            grid.bandwidth_epoch,
            grid.sample_epoch,
        )
        assert grid.backend.stats.builds == 1
        grid.selectivity_batch(batch)
        assert grid.backend.stats.builds == 1  # reused, not rebuilt

    def test_bandwidth_setter_invalidates(self, rng):
        sample = rng.normal(size=(1500, 2))
        grid = _make(sample, GridBackend())
        batch = _independent_batch(rng, 2, queries=8)
        before = grid.selectivity_batch(batch).copy()
        grid.bandwidth = grid.bandwidth * 3.0
        assert grid.backend.table_epochs is None  # eagerly dropped
        after = grid.selectivity_batch(batch)
        assert grid.backend.stats.builds == 2
        assert grid.backend.table_epochs == (
            grid.bandwidth_epoch,
            grid.sample_epoch,
        )
        # The rebuilt tables must track the *new* bandwidth: a freshly
        # built grid estimator over the same state agrees exactly.
        fresh = KernelDensityEstimator(
            sample, grid.bandwidth, backend=GridBackend()
        )
        np.testing.assert_allclose(
            after, fresh.selectivity_batch(batch), rtol=0, atol=1e-12
        )
        assert not np.allclose(before, after)

    def test_replace_rows_invalidates(self, rng):
        sample = rng.normal(size=(1500, 2))
        grid = _make(sample, GridBackend())
        batch = _independent_batch(rng, 2, queries=8)
        grid.selectivity_batch(batch)
        indices = np.arange(700)
        replacement = rng.normal(loc=4.0, size=(700, 2))
        grid.replace_rows(indices, replacement)
        assert grid.backend.table_epochs is None
        after = grid.selectivity_batch(batch)
        # No stale table consulted: a freshly built grid estimator over
        # the mutated sample agrees exactly.
        fresh = KernelDensityEstimator(
            grid.sample.copy(), grid.bandwidth, backend=GridBackend()
        )
        np.testing.assert_allclose(
            after, fresh.selectivity_batch(batch), rtol=0, atol=1e-12
        )

    def test_restore_invalidates(self, rng):
        """restore() bumps epochs past both lineages; tables follow."""
        sample = rng.normal(size=(1500, 2))
        grid = _make(sample, GridBackend())
        batch = _independent_batch(rng, 2, queries=8)
        state = grid.snapshot()
        before = grid.selectivity_batch(batch).copy()
        grid.bandwidth = grid.bandwidth * 3.0
        grid.selectivity_batch(batch)
        grid.restore(state)
        assert grid.backend.table_epochs is None
        restored = grid.selectivity_batch(batch)
        assert grid.backend.table_epochs == (
            grid.bandwidth_epoch,
            grid.sample_epoch,
        )
        np.testing.assert_allclose(restored, before, rtol=0, atol=1e-12)

    def test_invalidation_counters(self, rng):
        sample = rng.normal(size=(800, 2))
        grid = _make(sample, GridBackend())
        grid.bandwidth = grid.bandwidth * 1.1
        grid.replace_rows(np.arange(10), rng.normal(size=(10, 2)))
        assert grid.backend.stats.invalidations["bandwidth"] >= 1
        assert grid.backend.stats.invalidations["sample"] >= 1


# ----------------------------------------------------------------------
# Hashing: ε-equivalence, sublinearity, determinism
# ----------------------------------------------------------------------
class TestHashingEquivalence:
    def test_epanechnikov_is_near_exact(self, rng):
        """Compact support: the far bound is exactly 0 past the radius."""
        sample = rng.normal(size=(10_000, 2))
        reference = _make(sample, None, kernel="epanechnikov")
        hashing = _make(
            sample,
            HashingBackend(exact_threshold=64),
            kernel="epanechnikov",
        )
        batch = _independent_batch(rng, 2)
        np.testing.assert_allclose(
            hashing.selectivity_batch(batch),
            reference.selectivity_batch(batch),
            rtol=0,
            atol=1e-10,
        )

    @pytest.mark.parametrize("bandwidth_scale", [0.5, 1.0, 2.0])
    def test_gaussian_within_relative_epsilon(self, rng, bandwidth_scale):
        sample = rng.normal(size=(12_000, 2))
        bandwidth = scott_bandwidth(sample) * bandwidth_scale
        epsilon = 0.05
        reference = KernelDensityEstimator(sample, bandwidth)
        hashing = KernelDensityEstimator(
            sample,
            bandwidth,
            backend=HashingBackend(epsilon=epsilon, exact_threshold=64),
        )
        batch = _independent_batch(rng, 2)
        expected = reference.selectivity_batch(batch)
        got = hashing.selectivity_batch(batch)
        floor = hashing.backend.selectivity_floor
        # The certificate budget is epsilon * max(S_near, floor); allow
        # a small slack over it for the certificate's delta tail.
        tolerance = 2.0 * epsilon * np.maximum(expected, floor)
        assert np.all(np.abs(got - expected) <= tolerance)

    def test_degenerate_boxes_exact_zero(self, rng):
        sample = rng.normal(size=(9000, 2))
        hashing = _make(sample, HashingBackend(exact_threshold=64))
        batch = QueryBatch.from_boxes(
            [
                Box((0.0, -9.0), (0.0, 9.0)),
                Box((0.25, 0.25), (0.25, 0.25)),
            ]
        )
        assert np.all(hashing.selectivity_batch(batch) == 0.0)

    def test_selective_queries_touch_fewer_rows(self, rng):
        """Observed sublinearity: rows touched << s * queries."""
        sample = rng.normal(size=(30_000, 2))
        hashing = _make(sample, HashingBackend(exact_threshold=64))
        lows = rng.uniform(-2.0, 2.0, size=(20, 2))
        batch = QueryBatch(lows, lows + 0.05)
        hashing.selectivity_batch(batch)
        stats = hashing.backend.stats
        assert stats.queries_evaluated == 20
        assert stats.rows_touched_per_query < sample.shape[0] / 2

    def test_small_sample_falls_back_to_exact(self, rng):
        sample = rng.normal(size=(500, 2))
        reference = _make(sample, None)
        hashing = _make(sample, HashingBackend(exact_threshold=4096))
        batch = _independent_batch(rng, 2)
        np.testing.assert_allclose(
            hashing.selectivity_batch(batch),
            reference.selectivity_batch(batch),
            rtol=0,
            atol=1e-12,
        )
        # The fallback is the reference scan — and reports itself as one.
        assert (
            hashing.backend.stats.rows_touched
            == reference.backend.stats.rows_touched
        )
        assert 0 < hashing.backend.stats.rows_touched <= (
            len(batch) * sample.shape[0]
        )

    def test_seeded_runs_are_deterministic(self, rng):
        sample = rng.normal(size=(12_000, 2))
        batch = _independent_batch(rng, 2)
        results = []
        for _ in range(2):
            kde = _make(
                sample, HashingBackend(seed=123, exact_threshold=64)
            )
            results.append(kde.selectivity_batch(batch))
        np.testing.assert_array_equal(results[0], results[1])

    def test_index_rebuilt_on_sample_change_only(self, rng):
        sample = rng.normal(size=(9000, 2))
        hashing = _make(sample, HashingBackend(exact_threshold=64))
        batch = _independent_batch(rng, 2, queries=5)
        hashing.selectivity_batch(batch)
        assert hashing.backend.index_epoch == hashing.sample_epoch
        builds = hashing.backend.stats.builds
        # Bandwidth moves do not touch the bucket geometry...
        hashing.bandwidth = hashing.bandwidth * 1.5
        hashing.selectivity_batch(batch)
        assert hashing.backend.stats.builds == builds
        # ...but sample rewrites rebuild it.
        hashing.replace_rows(np.arange(100), rng.normal(size=(100, 2)))
        assert hashing.backend.index_epoch is None
        hashing.selectivity_batch(batch)
        assert hashing.backend.stats.builds == builds + 1
        assert hashing.backend.index_epoch == hashing.sample_epoch


# ----------------------------------------------------------------------
# Observability wiring
# ----------------------------------------------------------------------
class TestObsWiring:
    def _snapshot_names(self, registry):
        snapshot = registry.snapshot()
        keys = []
        for kind in ("counters", "gauges", "histograms"):
            keys.extend(snapshot.get(kind, {}))
        # Strip the "{backend=...}" label suffix down to the bare name.
        return {key.split("{", 1)[0] for key in keys}

    def test_grid_emits_build_and_table_metrics(self, rng):
        registry = MetricsRegistry()
        sample = rng.normal(size=(2000, 2))
        kde = KernelDensityEstimator(
            sample,
            scott_bandwidth(sample),
            backend=GridBackend(),
            metrics=registry,
        )
        kde.selectivity_batch(_independent_batch(rng, 2, queries=5))
        names = self._snapshot_names(registry)
        assert "backend.build_seconds" in names
        assert "backend.table_bytes" in names
        assert "backend.builds" in names
        assert "backend.rows_touched" in names

    def test_hashing_emits_rows_touched(self, rng):
        registry = MetricsRegistry()
        sample = rng.normal(size=(9000, 2))
        kde = KernelDensityEstimator(
            sample,
            scott_bandwidth(sample),
            backend=HashingBackend(exact_threshold=64),
            metrics=registry,
        )
        kde.selectivity_batch(_independent_batch(rng, 2, queries=5))
        names = self._snapshot_names(registry)
        assert "backend.build_seconds" in names
        assert "backend.rows_touched" in names

    def test_stats_as_dict_includes_rows_and_builds(self, rng):
        sample = rng.normal(size=(2000, 2))
        kde = _make(sample, GridBackend())
        kde.selectivity_batch(_independent_batch(rng, 2, queries=5))
        payload = kde.backend.stats.as_dict()
        assert payload["builds"] == 1
        assert payload["rows_touched"] == 0
        assert payload["rows_touched_per_query"] == 0.0
