"""Tests for the batched query-evaluation engine.

The batched paths (``QueryBatch``, ``selectivity_batch`` and friends, the
tuner's ``observe_batch``, ``SelfTuningKDE.feedback_batch``) promise
*numerical equivalence* with the per-query loops — the per-element
operations and their order are identical, only Python dispatch overhead
is batched away.  These tests pin that promise down to 1e-12 (and mostly
to bitwise equality).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KernelDensityEstimator, SelfTuningKDE, scott_bandwidth
from repro.core.adaptive import RMSpropTuner
from repro.core.config import AdaptiveConfig, SelfTuningConfig
from repro.core.model import ArrayRowSource
from repro.core.variable import VariableKernelDensityEstimator
from repro.geometry import Box, QueryBatch

from ..conftest import random_data_centered_queries


# ----------------------------------------------------------------------
# QueryBatch: construction and container protocol
# ----------------------------------------------------------------------
class TestQueryBatch:
    def test_from_boxes_roundtrip(self):
        boxes = [Box([0.0, 0.0], [1.0, 2.0]), Box([-1.0, 0.5], [0.0, 0.5])]
        batch = QueryBatch.from_boxes(boxes)
        assert len(batch) == 2
        assert batch.dimensions == 2
        assert list(batch) == boxes
        assert batch.box(1) == boxes[1]
        assert batch[0] == boxes[0]

    def test_slice_returns_subbatch(self):
        batch = QueryBatch(np.zeros((4, 3)), np.ones((4, 3)))
        sub = batch[1:3]
        assert isinstance(sub, QueryBatch)
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.widths(), np.ones((2, 3)))

    def test_coerce_accepts_all_forms(self):
        box = Box([0.0], [1.0])
        single = QueryBatch.coerce(box)
        assert len(single) == 1 and single.box(0) == box
        batch = QueryBatch.coerce([box, box])
        assert len(batch) == 2
        assert QueryBatch.coerce(batch) is batch

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryBatch.from_boxes([])
        with pytest.raises(ValueError):
            QueryBatch(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            QueryBatch(np.zeros((2, 0)), np.zeros((2, 0)))
        with pytest.raises(ValueError):
            QueryBatch(np.ones((2, 2)), np.zeros((2, 2)))  # high < low
        with pytest.raises(ValueError):
            QueryBatch(np.full((1, 2), np.nan), np.ones((1, 2)))
        with pytest.raises(ValueError):
            QueryBatch.from_boxes([Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0])])

    def test_degenerate_queries_allowed(self):
        batch = QueryBatch(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.all(batch.widths() == 0.0)

    def test_equality_and_hash(self):
        a = QueryBatch(np.zeros((2, 2)), np.ones((2, 2)))
        b = QueryBatch(np.zeros((2, 2)), np.ones((2, 2)))
        c = QueryBatch(np.zeros((2, 2)), np.full((2, 2), 2.0))
        assert a == b and hash(a) == hash(b)
        assert a != c


# ----------------------------------------------------------------------
# Batched estimator paths vs the per-query loops
# ----------------------------------------------------------------------
#: Mixed per-dimension kernels: the per-query paths evaluate the two
#: (non-adjacent) Gaussian columns as one column block.
MIXED_KERNELS = ["gaussian", "ordered_discrete", "gaussian"]


def _make_queries(data, rng, count=12):
    queries = random_data_centered_queries(data, count - 2, rng)
    # Include degenerate (zero-width) and far-out empty queries.
    point = data[0]
    queries.append(Box(point, point))
    queries.append(Box(point + 100.0, point + 101.0))
    return queries


class TestBatchEquivalence:
    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_selectivity_batch_matches_loop(self, small_sample, rng, kernel):
        kde = KernelDensityEstimator(
            small_sample, scott_bandwidth(small_sample), kernel
        )
        queries = _make_queries(small_sample, rng)
        batched = kde.selectivity_batch(queries)
        looped = np.array([kde.selectivity(q) for q in queries])
        np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "kernel",
        ["gaussian", "epanechnikov", pytest.param(MIXED_KERNELS, id="mixed")],
    )
    def test_gradient_batch_matches_loop(self, small_sample, rng, kernel):
        kde = KernelDensityEstimator(
            small_sample, scott_bandwidth(small_sample), kernel
        )
        queries = _make_queries(small_sample, rng)
        batched = kde.selectivity_gradient_batch(queries)
        looped = np.stack([kde.selectivity_gradient(q) for q in queries])
        np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-12)

    def test_gradient_batch_with_precomputed_masses(self, small_sample, rng):
        kde = KernelDensityEstimator(small_sample, scott_bandwidth(small_sample))
        queries = _make_queries(small_sample, rng)
        masses = kde.dimension_masses_batch(queries)
        np.testing.assert_array_equal(
            kde.selectivity_gradient_batch(queries, masses),
            kde.selectivity_gradient_batch(queries),
        )

    def test_contributions_and_masses_match_loop(self, small_sample, rng):
        queries = _make_queries(small_sample, rng)
        for kernel in ("gaussian", MIXED_KERNELS):
            kde = KernelDensityEstimator(
                small_sample, scott_bandwidth(small_sample), kernel
            )
            batched_masses = kde.dimension_masses_batch(queries)
            batched_contrib = kde.contributions_batch(queries)
            for index, query in enumerate(queries):
                np.testing.assert_allclose(
                    batched_masses[index],
                    kde.dimension_masses(query),
                    atol=1e-15,
                )
                np.testing.assert_allclose(
                    batched_contrib[index], kde.contributions(query), atol=1e-13
                )

    def test_chunked_path_matches_unchunked(self, small_sample, rng, monkeypatch):
        # Force a tiny chunk so the loop boundary logic is exercised.
        from repro.core import estimator as estimator_module

        kde = KernelDensityEstimator(small_sample, scott_bandwidth(small_sample))
        queries = _make_queries(small_sample, rng, count=9)
        full = kde.selectivity_batch(queries)
        monkeypatch.setattr(estimator_module, "_BATCH_ELEMENT_BUDGET", 1)
        assert kde._batch_chunk() == 1
        np.testing.assert_array_equal(kde.selectivity_batch(queries), full)

    def test_selectivity_many_empty(self, small_sample):
        kde = KernelDensityEstimator(small_sample, scott_bandwidth(small_sample))
        assert kde.selectivity_many([]).shape == (0,)

    def test_dimension_mismatch_raises(self, small_sample):
        kde = KernelDensityEstimator(small_sample, scott_bandwidth(small_sample))
        with pytest.raises(ValueError):
            kde.selectivity_batch([Box([0.0], [1.0])])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 24))
    @settings(max_examples=25, deadline=None)
    def test_property_batch_equals_loop(self, seed, d, q):
        rng = np.random.default_rng(seed)
        sample = rng.normal(size=(64, d))
        kde = KernelDensityEstimator(sample, scott_bandwidth(sample))
        centers = rng.normal(size=(q, d))
        widths = rng.uniform(0.0, 3.0, size=(q, d))
        batch = QueryBatch(centers - widths / 2, centers + widths / 2)
        np.testing.assert_allclose(
            kde.selectivity_batch(batch),
            np.array([kde.selectivity(b) for b in batch]),
            rtol=0,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            kde.selectivity_gradient_batch(batch),
            np.stack([kde.selectivity_gradient(b) for b in batch]),
            rtol=0,
            atol=1e-12,
        )


class TestVariableKDEFallback:
    """Subclasses overriding the per-query methods fall back correctly."""

    def test_fast_path_detection(self, small_sample):
        plain = KernelDensityEstimator(small_sample, scott_bandwidth(small_sample))
        variable = VariableKernelDensityEstimator(
            small_sample, scott_bandwidth(small_sample)
        )
        assert plain._uses_batch_fast_path()
        assert not variable._uses_batch_fast_path()

    def test_variable_batch_matches_loop(self, small_sample, rng):
        kde = VariableKernelDensityEstimator(
            small_sample, scott_bandwidth(small_sample)
        )
        queries = _make_queries(small_sample, rng, count=6)
        np.testing.assert_array_equal(
            kde.selectivity_batch(queries),
            np.array([kde.selectivity(q) for q in queries]),
        )
        np.testing.assert_array_equal(
            kde.selectivity_gradient_batch(queries),
            np.stack([kde.selectivity_gradient(q) for q in queries]),
        )
        np.testing.assert_array_equal(
            kde.contributions_batch(queries),
            np.stack([kde.contributions(q) for q in queries]),
        )


# ----------------------------------------------------------------------
# Batched tuner accumulation
# ----------------------------------------------------------------------
class TestObserveBatch:
    def test_matches_observe_loop(self):
        rng = np.random.default_rng(7)
        gradients = rng.normal(size=(37, 3))
        bandwidth = np.array([0.5, 1.0, 2.0])
        looped = RMSpropTuner(3, AdaptiveConfig(batch_size=10))
        batched = RMSpropTuner(3, AdaptiveConfig(batch_size=10))
        current = bandwidth.copy()
        for gradient in gradients:
            updated = looped.observe(gradient, current)
            if updated is not None:
                current = updated
        result = batched.observe_batch(gradients, bandwidth)
        np.testing.assert_array_equal(result, current)
        assert looped.pending == batched.pending
        assert looped.updates_applied == batched.updates_applied
        np.testing.assert_array_equal(
            looped.learning_rates, batched.learning_rates
        )

    def test_no_boundary_returns_none(self):
        tuner = RMSpropTuner(2, AdaptiveConfig(batch_size=10))
        assert tuner.observe_batch(np.ones((4, 2)), np.ones(2)) is None
        assert tuner.pending == 4
        assert tuner.batch_room == 6

    def test_resumes_partial_batch(self):
        tuner = RMSpropTuner(2, AdaptiveConfig(batch_size=5))
        tuner.observe(np.ones(2), np.ones(2))
        tuner.observe(np.ones(2), np.ones(2))
        assert tuner.batch_room == 3
        updated = tuner.observe_batch(np.ones((3, 2)), np.ones(2))
        assert updated is not None
        assert tuner.pending == 0

    def test_rejects_bad_shapes(self):
        tuner = RMSpropTuner(2)
        with pytest.raises(ValueError):
            tuner.observe_batch(np.ones((3, 4)), np.ones(2))
        with pytest.raises(ValueError):
            tuner.observe_batch(np.full((2, 2), np.nan), np.ones(2))


# ----------------------------------------------------------------------
# SelfTuningKDE batched feedback vs the estimate/feedback loop
# ----------------------------------------------------------------------
def _paired_models(sample, data, config, seed=11):
    kwargs = dict(
        config=config,
        row_source=ArrayRowSource(data),
        population_size=len(data),
        seed=seed,
    )
    return SelfTuningKDE(sample, **kwargs), SelfTuningKDE(sample, **kwargs)


def _workload(data, rng, count):
    queries = random_data_centered_queries(data, count, rng)
    truths = [
        float(np.all((data >= q.low) & (data <= q.high), axis=1).mean())
        for q in queries
    ]
    return queries, truths


class TestFeedbackBatch:
    @pytest.mark.parametrize("log_updates", [True, False])
    def test_matches_loop(self, gaussian_data, small_sample, rng, log_updates):
        config = SelfTuningConfig(
            adaptive=AdaptiveConfig(batch_size=7, log_updates=log_updates)
        )
        looped, batched = _paired_models(small_sample, gaussian_data, config)
        queries, truths = _workload(gaussian_data, rng, 40)
        for query, truth in zip(queries, truths):
            looped.estimate(query)
            looped.feedback(query, truth)
        batched.feedback_batch(queries, truths)
        np.testing.assert_allclose(
            batched.bandwidth, looped.bandwidth, rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(
            batched.estimator.sample, looped.estimator.sample
        )
        assert batched.feedback_count == looped.feedback_count
        assert batched.points_replaced == looped.points_replaced
        assert batched.tuner.updates_applied == looped.tuner.updates_applied

    def test_matches_loop_with_replacements(self, rng):
        # Queries covering sample points but reported empty trigger the
        # Appendix E shortcut, exercising the segment-truncation path.
        data = rng.uniform(-5, 5, size=(5000, 2))
        sample = data[rng.choice(len(data), size=128, replace=False)]
        config = SelfTuningConfig(adaptive=AdaptiveConfig(batch_size=3))

        def paired():
            kwargs = dict(
                config=config,
                row_source=ArrayRowSource(data),
                population_size=len(data),
                bandwidth=np.array([0.2, 0.2]),
                seed=5,
            )
            return SelfTuningKDE(sample, **kwargs), SelfTuningKDE(
                sample, **kwargs
            )

        looped, batched = paired()
        queries = random_data_centered_queries(data, 20, rng)
        truths = [
            float(np.all((data >= q.low) & (data <= q.high), axis=1).mean())
            for q in queries
        ]
        # "Deleted cluster": regions dense with sample points whose true
        # selectivity is reported as zero — the shortcut flags the certified
        # interior points for replacement.
        for k in range(6):
            center = sample[5 * k]
            queries.insert(3 * k, Box(center - 1.0, center + 1.0))
            truths.insert(3 * k, 0.0)
        for query, truth in zip(queries, truths):
            looped.estimate(query)
            looped.feedback(query, truth)
        batched.feedback_batch(queries, truths)
        assert batched.points_replaced == looped.points_replaced
        assert batched.points_replaced > 0
        np.testing.assert_array_equal(
            batched.estimator.sample, looped.estimator.sample
        )
        np.testing.assert_allclose(
            batched.bandwidth, looped.bandwidth, rtol=0, atol=1e-12
        )

    def test_matches_loop_non_adaptive(self, gaussian_data, small_sample, rng):
        config = SelfTuningConfig(adapt_bandwidth=False)
        looped, batched = _paired_models(small_sample, gaussian_data, config)
        queries, truths = _workload(gaussian_data, rng, 15)
        for query, truth in zip(queries, truths):
            looped.estimate(query)
            looped.feedback(query, truth)
        batched.feedback_batch(queries, truths)
        np.testing.assert_array_equal(
            batched.estimator.sample, looped.estimator.sample
        )
        np.testing.assert_array_equal(batched.bandwidth, looped.bandwidth)

    def test_estimate_batch_matches_estimate(self, small_sample, rng):
        model = SelfTuningKDE(small_sample)
        queries = _make_queries(small_sample, rng, count=8)
        np.testing.assert_allclose(
            model.estimate_batch(queries),
            np.array([model.estimate(q) for q in queries]),
            rtol=0,
            atol=1e-12,
        )

    def test_validation(self, small_sample):
        model = SelfTuningKDE(small_sample)
        queries = [Box(np.zeros(3), np.ones(3))]
        with pytest.raises(ValueError):
            model.feedback_batch(queries, [0.5, 0.5])  # length mismatch
        with pytest.raises(ValueError):
            model.feedback_batch(queries, [1.5])  # out of [0, 1]
        with pytest.raises(ValueError):
            model.feedback_batch([Box([0.0], [1.0])], [0.5])  # wrong d
