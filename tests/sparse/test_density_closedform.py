"""Closed-form density kernels vs the scipy reference implementation.

The library computes hypergeometric/binomial statistics with cached
log-gamma kernels (no scipy at runtime); these tests pin them against
``scipy.stats`` within 1e-9 over a parameter grid covering every regime
the models query: tiny fibers, hyper-sparse tensors, dense tensors,
full-tensor draws. scipy is a test-only dependency.

Beyond ~1e5 positions scipy's own log-gamma noise exceeds 1e-9 (it
disagrees with exact rational arithmetic there), so the grid tops out
at 65536 — large enough to cover every fiber/tile size the analyzers
produce for the paper's workloads.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

scipy_stats = pytest.importorskip(
    "scipy.stats", reason="scipy is the (optional) reference implementation"
)
scipy_binom = scipy_stats.binom
scipy_hypergeom = scipy_stats.hypergeom

from repro.sparse.density import (
    _SCALAR_SPAN_MAX,
    FixedStructuredDensity,
    UniformDensity,
    binom_distribution,
    binom_pmf,
    hypergeom_distribution,
    hypergeom_pmf,
    hypergeom_prob_empty,
)

TOTALS = [1, 2, 3, 5, 17, 64, 100, 1024, 4096, 65536]
NNZ_FRACTIONS = [0.0, 0.001, 0.05, 0.25, 0.5, 0.9, 1.0]
DRAW_FRACTIONS = [0.001, 0.1, 0.5, 1.0]


def assert_close(mine: float, ref: float) -> None:
    assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12), (mine, ref)


def _scalar_prob_empty(total: int, nnz: int, draws: int) -> float:
    """The falling-factorial loop, one Python multiply per factor: the
    oracle the empty-tile kernel must match bit for bit up to span 4096."""
    if nnz <= 0 or draws <= 0:
        return 1.0
    if draws > total - nnz:
        return 0.0
    span = min(draws, nnz)
    longer = max(draws, nnz)
    p = 1.0
    for i in range(span):
        p *= (total - longer - i) / (total - i)
    return p


def assert_matches_loop(total: int, nnz: int, draws: int) -> None:
    # ``__wrapped__`` bypasses the LRU cache, so every call computes.
    mine = hypergeom_prob_empty.__wrapped__(total, nnz, draws)
    assert type(mine) is float, type(mine)
    assert mine.hex() == _scalar_prob_empty(total, nnz, draws).hex(), (
        total,
        nnz,
        draws,
    )


@st.composite
def _exact_products(draw):
    """``(total, nnz, draws)`` with a span of 1..4096 factors and
    ``total`` up to 2**40; either operand may be the shorter one."""
    span = draw(st.integers(min_value=1, max_value=4096))
    longer = draw(st.integers(min_value=span, max_value=2**40 - span))
    total = draw(st.integers(min_value=span + longer, max_value=2**40))
    if draw(st.booleans()):
        return total, span, longer
    return total, longer, span


def _grid():
    for total in TOTALS:
        for nnz_frac in NNZ_FRACTIONS:
            nnz = int(round(total * nnz_frac))
            for draw_frac in DRAW_FRACTIONS:
                draws = max(1, int(round(total * draw_frac)))
                yield total, nnz, draws


class TestHypergeomKernel:
    @pytest.mark.parametrize("total,nnz,draws", list(_grid()))
    def test_pmf_matches_scipy(self, total, nnz, draws):
        lo = max(0, draws - (total - nnz))
        hi = min(nnz, draws)
        step = max(1, (hi - lo) // 7)
        for k in range(lo, hi + 1, step):
            assert_close(
                hypergeom_pmf(k, total, nnz, draws),
                float(scipy_hypergeom.pmf(k, total, nnz, draws)),
            )

    @pytest.mark.parametrize("total,nnz,draws", list(_grid()))
    def test_prob_empty_matches_scipy(self, total, nnz, draws):
        assert_close(
            hypergeom_prob_empty(total, nnz, draws),
            float(scipy_hypergeom.pmf(0, total, nnz, draws)),
        )

    def test_out_of_support_is_zero(self):
        assert hypergeom_pmf(5, 10, 4, 4) == 0.0
        assert hypergeom_pmf(-1, 10, 4, 4) == 0.0
        # Drawing more than the zero count forces a nonzero.
        assert hypergeom_prob_empty(10, 4, 7) == 0.0

    def test_distribution_sums_to_one(self):
        for total, nnz, draws in [(100, 30, 10), (64, 1, 64), (17, 17, 5)]:
            pairs = hypergeom_distribution(total, nnz, draws)
            assert math.isclose(sum(p for _, p in pairs), 1.0, rel_tol=1e-9)

    @given(_exact_products())
    @settings(max_examples=200, deadline=None)
    def test_prob_empty_matches_scalar_loop_bit_for_bit(self, case):
        assert_matches_loop(*case)

    @pytest.mark.parametrize(
        "span", [_SCALAR_SPAN_MAX - 1, _SCALAR_SPAN_MAX, _SCALAR_SPAN_MAX + 1, 4096]
    )
    @pytest.mark.parametrize("total", [2 * 4096 + 1, 10**6, 2**40])
    def test_prob_empty_at_regime_edges(self, span, total):
        for longer in (span, total // 2, total - span):
            assert_matches_loop(total, span, longer)
            assert_matches_loop(total, longer, span)

    @pytest.mark.parametrize("total", [2 * 4097, 10**6, 2**40])
    def test_prob_empty_past_exact_span_is_log_gamma(self, total):
        for nnz, draws in [(4097, 4097), (4097, total // 2), (total // 2, 4097)]:
            mine = hypergeom_prob_empty.__wrapped__(total, nnz, draws)
            assert type(mine) is float
            assert mine == hypergeom_pmf(0, total, nnz, draws)

    @pytest.mark.parametrize(
        "total,nnz,draws,expected",
        [
            (100, 0, 10, 1.0),
            (100, -1, 10, 1.0),
            (100, 10, 0, 1.0),
            (100, 10, -3, 1.0),
            (100, 10, 91, 0.0),
            (2**40, 2**39, 2**39 + 1, 0.0),
        ],
    )
    def test_prob_empty_early_returns(self, total, nnz, draws, expected):
        mine = hypergeom_prob_empty.__wrapped__(total, nnz, draws)
        assert type(mine) is float
        assert mine == expected

    @given(
        total=st.integers(min_value=1, max_value=2000),
        nnz_frac=st.floats(min_value=0.0, max_value=1.0),
        draw_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_prob_empty_property(self, total, nnz_frac, draw_frac):
        nnz = int(round(total * nnz_frac))
        draws = max(1, int(round(total * draw_frac)))
        assert_close(
            hypergeom_prob_empty(total, nnz, draws),
            float(scipy_hypergeom.pmf(0, total, nnz, draws)),
        )


class TestBinomKernel:
    @pytest.mark.parametrize("size", [1, 2, 7, 64, 1000])
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.2, 0.5, 0.99, 1.0])
    def test_pmf_matches_scipy(self, size, density):
        for k in range(0, size + 1, max(1, size // 7)):
            assert_close(
                binom_pmf(k, size, density),
                float(scipy_binom.pmf(k, size, density)),
            )

    def test_distribution_sums_to_one(self):
        pairs = binom_distribution(64, 0.3)
        assert math.isclose(sum(p for _, p in pairs), 1.0, rel_tol=1e-9)


class TestUniformDensityVsScipy:
    """The model-level API must match the former scipy implementation."""

    @pytest.mark.parametrize("tensor_size", [16, 100, 4096, 65536])
    @pytest.mark.parametrize("density", [0.01, 0.2, 0.5, 0.9])
    def test_prob_empty(self, tensor_size, density):
        model = UniformDensity(density, tensor_size)
        nnz = int(round(tensor_size * density))
        for tile in [1, 2, tensor_size // 3 or 1, tensor_size]:
            tile = min(tile, tensor_size)
            assert_close(
                model.prob_empty(tile),
                float(scipy_hypergeom.pmf(0, tensor_size, nnz, tile)),
            )

    def test_expected_and_max_occupancy(self):
        model = UniformDensity(0.25, 1024)
        assert model.expected_occupancy(64) == 64 * 0.25
        assert model.max_occupancy(64) == 64
        assert model.max_occupancy(1024) == 256  # bounded by nnz
        assert model.max_occupancy(2048) == 256

    def test_occupancy_distribution_matches_scipy(self):
        model = UniformDensity(0.3, 200)
        pairs = dict(model.occupancy_distribution(20))
        nnz = int(round(200 * 0.3))
        for k, p in pairs.items():
            assert_close(p, float(scipy_hypergeom.pmf(k, 200, nnz, 20)))
        assert math.isclose(sum(pairs.values()), 1.0, rel_tol=1e-9)

    def test_binomial_limit_distribution(self):
        model = UniformDensity(0.4)  # no tensor_size: binomial limit
        pairs = dict(model.occupancy_distribution(16))
        for k, p in pairs.items():
            assert_close(p, float(scipy_binom.pmf(k, 16, 0.4)))


class TestStructuredDensityVsScipy:
    def test_partial_block_is_hypergeometric(self):
        model = FixedStructuredDensity(2, 4)
        # A 3-element tile inside one block of 4 holding 2 nonzeros.
        assert_close(
            model.prob_empty(3), float(scipy_hypergeom.pmf(0, 4, 2, 3))
        )
        pairs = dict(model.occupancy_distribution(3))
        for k, p in pairs.items():
            assert_close(p, float(scipy_hypergeom.pmf(k, 4, 2, 3)))


class TestKernelCaching:
    def test_repeated_queries_hit_cache(self):
        before = hypergeom_prob_empty.cache_info().hits
        for _ in range(5):
            hypergeom_prob_empty(123457, 1000, 321)
        after = hypergeom_prob_empty.cache_info().hits
        assert after >= before + 4
