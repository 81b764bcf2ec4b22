"""Tests for the statistical density models, including the Fig. 9
hypergeometric behaviour and agreement with actual data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom

from repro.common.cache import spec_digest
from repro.common.errors import SpecError
from repro.sparse.density import (
    ActualDataDensity,
    BandedDensity,
    FixedStructuredDensity,
    StructuredNMDensity,
    UniformDensity,
    effectual_compute_fraction,
    intersection_nonempty_probability,
)
from repro.tensor.generator import banded_matrix, uniform_random_tensor


class TestUniform:
    def test_prob_empty_hypergeometric(self):
        # Fig. 9 setup: 50% dense tensor, exact finite-size model.
        model = UniformDensity(0.5, tensor_size=64)
        expected = hypergeom.pmf(0, 64, 32, 4)
        assert math.isclose(model.prob_empty(4), expected, rel_tol=1e-12)

    def test_prob_empty_infinite_limit(self):
        model = UniformDensity(0.25)
        assert math.isclose(model.prob_empty(3), 0.75**3)

    def test_fig9_shape_one(self):
        model = UniformDensity(0.5, tensor_size=1024)
        # A single element is empty with probability 1 - density.
        assert math.isclose(model.prob_empty(1), 0.5, rel_tol=1e-3)

    def test_fig9_variance_shrinks_with_shape(self):
        # Bigger fibers have tighter density distributions.
        model = UniformDensity(0.5, tensor_size=4096)
        def spread(shape):
            dist = model.occupancy_distribution(shape)
            mean = sum(k * p for k, p in dist)
            var = sum((k - mean) ** 2 * p for k, p in dist)
            return math.sqrt(var) / shape  # density std
        assert spread(64) < spread(16) < spread(4)

    def test_expected_occupancy(self):
        model = UniformDensity(0.3, tensor_size=100)
        assert math.isclose(model.expected_occupancy(10), 3.0)

    def test_distribution_sums_to_one(self):
        model = UniformDensity(0.4, tensor_size=50)
        total = sum(p for _k, p in model.occupancy_distribution(8))
        assert math.isclose(total, 1.0, rel_tol=1e-9)

    def test_max_occupancy_bounded_by_nnz(self):
        model = UniformDensity(0.1, tensor_size=100)
        assert model.max_occupancy(50) == 10

    def test_quantile_between_mean_and_max(self):
        model = UniformDensity(0.3, tensor_size=1000)
        q = model.quantile_occupancy(100)
        assert 30.0 <= q <= model.max_occupancy(100)

    def test_zero_density(self):
        model = UniformDensity(0.0, tensor_size=16)
        assert model.prob_empty(4) == 1.0
        assert model.expected_occupancy(4) == 0.0

    def test_rejects_bad_density(self):
        with pytest.raises(SpecError):
            UniformDensity(1.2)

    @pytest.mark.parametrize(
        "density", ["0.5", None, True, False, np.bool_(True), [0.5]],
        ids=repr,
    )
    def test_rejects_non_real_density(self, density):
        # "0.5" used to fail with a TypeError; True was accepted.
        with pytest.raises(SpecError, match="density"):
            UniformDensity(density, 64)

    @pytest.mark.parametrize(
        "size", [True, 64.0, "64", np.float64(64.0)], ids=repr
    )
    def test_rejects_bad_tensor_size(self, size):
        with pytest.raises(SpecError, match="tensor_size"):
            UniformDensity(0.5, size)

    def test_equal_models_share_one_digest(self):
        # The digest follows the key's repr: 1 and 1.0, or numpy
        # scalars, used to digest apart from equal plain floats.
        plain = UniformDensity(1.0, 64)
        for model in (
            UniformDensity(1, 64),
            UniformDensity(np.float64(1.0), np.int64(64)),
            UniformDensity(np.float32(1.0), np.int32(64)),
        ):
            assert model.cache_key() == plain.cache_key()
            assert spec_digest(model) == spec_digest(plain)
            assert type(model.density) is float
            assert type(model.tensor_size) is int
            assert model.prob_empty(4) == plain.prob_empty(4)

    def test_nonzero_count_is_computed_once(self):
        # An attribute, not a property re-rounding on every query.
        model = UniformDensity(0.25, 64)
        assert vars(model)["_nnz"] == 16
        assert model.max_occupancy(64) == 16
        assert vars(UniformDensity(0.25))["_nnz"] is None

    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=30)
    def test_matches_monte_carlo(self, tile, density):
        """P(empty) from the model matches empirical tiling stats."""
        size = 240
        model = UniformDensity(density, tensor_size=size)
        empties = 0
        trials = 300
        for seed in range(trials):
            t = uniform_random_tensor((size,), density, seed=seed)
            empties += int(np.count_nonzero(t[:tile]) == 0)
        # A coarse bound: the model is exact, sampling is noisy.
        assert abs(empties / trials - model.prob_empty(tile)) < 0.12


class TestFixedStructured:
    def test_density(self):
        assert FixedStructuredDensity(2, 4).density == 0.5

    def test_aligned_tiles_deterministic(self):
        model = FixedStructuredDensity(2, 4)
        assert model.occupancy_distribution(8) == [(4, 1.0)]
        assert model.prob_empty(8) == 0.0

    def test_partial_block_hypergeometric(self):
        model = FixedStructuredDensity(2, 4)
        expected = hypergeom.pmf(0, 4, 2, 2)
        assert math.isclose(model.prob_empty(2), expected)

    def test_max_occupancy_partial(self):
        model = FixedStructuredDensity(2, 4)
        assert model.max_occupancy(3) == 2
        assert model.max_occupancy(9) == 2 * 2 + 1

    def test_2to8_speed_ratio_inputs(self):
        assert FixedStructuredDensity(2, 8).density == 0.25

    def test_empty_structure(self):
        assert FixedStructuredDensity(0, 4).prob_empty(16) == 1.0

    def test_rejects_infeasible(self):
        with pytest.raises(SpecError):
            FixedStructuredDensity(5, 4)

    @pytest.mark.parametrize(
        "args", [(True, 4), (2, True), (2.0, 4), (2, 4.0), ("2", 4)], ids=repr
    )
    def test_rejects_non_integer_structure(self, args):
        # True was accepted into the key, 2.0 keyed apart from 2, and
        # "2" raised a TypeError.
        with pytest.raises(SpecError, match="must be an integer"):
            FixedStructuredDensity(*args)

    def test_equal_models_share_one_digest(self):
        plain = FixedStructuredDensity(2, 4)
        model = FixedStructuredDensity(np.int64(2), np.int32(4))
        assert model.cache_key() == plain.cache_key()
        assert spec_digest(model) == spec_digest(plain)
        assert type(model.nonzeros_per_block) is int


class TestStructuredNMArguments:
    @pytest.mark.parametrize(
        "args", [(2.0, 4), (2.5, 4), (True, 4), (2, "4")], ids=repr
    )
    def test_rejects_non_integer_structure(self, args):
        # 2.5:4 was accepted with density 0.625; 2.0:4 digested apart
        # from 2:4.
        with pytest.raises(SpecError, match="must be an integer"):
            StructuredNMDensity(*args)

    def test_equal_models_share_one_digest(self):
        plain = StructuredNMDensity(2, 4)
        model = StructuredNMDensity(np.int16(2), np.int64(4))
        assert model.cache_key() == plain.cache_key()
        assert spec_digest(model) == spec_digest(plain)

    def test_matches_generated_data(self):
        from repro.tensor.generator import structured_sparse_matrix

        t = structured_sparse_matrix(16, 32, 2, 4, seed=0)
        model = FixedStructuredDensity(2, 4)
        # Every aligned block of 4 holds exactly 2.
        blocks = t.reshape(-1, 4)
        assert np.all(np.count_nonzero(blocks, axis=1) == 2)
        assert math.isclose(
            model.expected_occupancy(4), 2.0
        )


class TestBanded:
    def test_density_counts_band(self):
        model = BandedDensity(4, 4, band_width=0)
        assert math.isclose(model.density, 4 / 16)

    def test_off_band_tiles_empty(self):
        model = BandedDensity(16, 16, band_width=1)
        assert model.tile_prob_empty((0, 8), (4, 4)) == 1.0
        assert model.tile_prob_empty((0, 0), (4, 4)) == 0.0

    def test_average_prob_empty_between_extremes(self):
        model = BandedDensity(16, 16, band_width=1)
        avg = model.prob_empty((4, 4))
        assert 0.0 < avg < 1.0

    def test_fill_density_scales_occupancy(self):
        full = BandedDensity(16, 16, 2, fill_density=1.0)
        half = BandedDensity(16, 16, 2, fill_density=0.5)
        assert math.isclose(
            half.expected_occupancy((4, 4)),
            full.expected_occupancy((4, 4)) / 2,
        )

    @pytest.mark.parametrize(
        "args, name",
        [
            ((16, 16, 2, "0.5"), "fill_density"),
            ((16, 16, 2, True), "fill_density"),
            ((16, 16, 2, None), "fill_density"),
            ((16.0, 16, 2), "rows"),
            ((16, True, 2), "cols"),
            ((16, 16, 2.0), "band_width"),
        ],
        ids=repr,
    )
    def test_rejects_bad_argument_types(self, args, name):
        # "0.5" and 16.0 raised TypeError tracebacks; True was keyed.
        with pytest.raises(SpecError, match=name):
            BandedDensity(*args)

    def test_equal_models_share_one_digest(self):
        plain = BandedDensity(16, 16, 2, 1.0)
        for model in (
            BandedDensity(16, 16, 2, 1),
            BandedDensity(np.int64(16), np.int32(16), np.int8(2)),
            BandedDensity(16, 16, 2, np.float64(1.0)),
        ):
            assert model.cache_key() == plain.cache_key()
            assert spec_digest(model) == spec_digest(plain)
            assert type(model.fill_density) is float

    def test_matches_generated_band(self):
        model = BandedDensity(32, 32, band_width=2)
        data = banded_matrix(32, 32, band_width=2, seed=0)
        assert math.isclose(
            model.density, np.count_nonzero(data) / data.size
        )


class TestActualData:
    def test_exact_density(self):
        data = uniform_random_tensor((8, 8), 0.25, seed=0)
        model = ActualDataDensity(data)
        assert math.isclose(model.density, 0.25)

    def test_exact_tile_stats(self):
        data = np.array([[1, 0, 0, 0], [0, 0, 0, 0]])
        model = ActualDataDensity(data)
        assert model.prob_empty((1, 2)) == 3 / 4
        assert model.max_occupancy((1, 2)) == 1

    def test_distribution_matches_enumeration(self):
        data = uniform_random_tensor((8, 8), 0.5, seed=3)
        model = ActualDataDensity(data)
        dist = dict(model.occupancy_distribution((2, 2)))
        assert math.isclose(sum(dist.values()), 1.0)
        mean = sum(k * p for k, p in dist.items())
        assert math.isclose(mean, model.expected_occupancy((2, 2)))

    def test_scalar_shape_is_row_run(self):
        data = np.array([[1, 1, 0, 0], [0, 0, 0, 0]])
        model = ActualDataDensity(data)
        # Tiles of 1x2: [1,1],[0,0],[0,0],[0,0].
        assert model.prob_empty(2) == 3 / 4

    def test_rejects_empty(self):
        with pytest.raises(SpecError):
            ActualDataDensity(np.zeros((0,)))

    def test_cache_key_is_content_addressed(self):
        data = uniform_random_tensor((8, 8), 0.25, seed=0)
        a = ActualDataDensity(data)
        b = ActualDataDensity(data.copy())  # same content, new array
        assert a.cache_key() is not None
        assert a.cache_key() == b.cache_key()
        # Repeated calls reuse the computed digest.
        assert a.cache_key() is a.cache_key()

    def test_cache_key_distinguishes_content_shape_dtype(self):
        base = uniform_random_tensor((8, 8), 0.25, seed=0)
        key = ActualDataDensity(base).cache_key()
        changed = base.copy()
        changed[0, 0] = 0.0 if changed[0, 0] else 1.0
        assert ActualDataDensity(changed).cache_key() != key
        assert (
            ActualDataDensity(base.reshape(4, 16)).cache_key() != key
        )
        assert (
            ActualDataDensity(base.astype(np.float32)).cache_key() != key
        )

    def test_participates_in_tile_format_memo(self):
        from repro.sparse.format_analyzer import (
            analyze_tile_format,
            clear_tile_format_cache,
        )
        from repro.sparse.formats import (
            CoordinatePayload,
            FormatRank,
            FormatSpec,
        )

        clear_tile_format_cache()
        data = uniform_random_tensor((8, 8), 0.25, seed=1)
        fmt = FormatSpec(
            [FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())]
        )
        first = analyze_tile_format(fmt, (4, 4), ActualDataDensity(data))
        second = analyze_tile_format(
            fmt, (4, 4), ActualDataDensity(data.copy())
        )
        # Two distinct model objects over the same content hit the memo.
        assert first is second


class TestCombinators:
    def test_intersection_probability(self):
        a = UniformDensity(0.5)
        b = UniformDensity(0.5)
        assert math.isclose(
            intersection_nonempty_probability(a, b, 1), 0.25
        )

    def test_effectual_fraction(self):
        models = [UniformDensity(0.5), UniformDensity(0.4)]
        assert math.isclose(effectual_compute_fraction(models), 0.2)

    def test_effectual_fraction_empty(self):
        assert effectual_compute_fraction([]) == 1.0
