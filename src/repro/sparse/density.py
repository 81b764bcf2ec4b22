"""Statistical density models (Sec 5.3.2, Table 4).

A density model statistically characterises the occupancy (nonzero
count) of the fibers/tiles of a tensor, answering three questions the
analyzers ask:

* ``prob_empty(shape)`` — probability a tile of this shape is all-zero
  (drives gating/skipping savings),
* ``expected_occupancy(shape)`` — average nonzeros per tile (drives
  compressed traffic and format overhead),
* ``max_occupancy(shape)`` — worst case nonzeros (drives capacity
  validity checks).

``shape`` may be a scalar element count (coordinate-independent models
only need the size) or a per-rank extent tuple (coordinate-dependent
models such as :class:`BandedDensity` and :class:`ActualDataDensity`
exploit the geometry).

The hypergeometric/binomial statistics are computed with closed-form
log-gamma kernels (below) rather than ``scipy.stats``: the scalar
``hypergeom.pmf`` machinery dominated the evaluation hot loop, and the
same ``(tensor_size, nnz, tile_size)`` queries repeat across mappings
and SAF variants, so the kernels are memoised module-wide. scipy stays
out of this module, which keeps ``import repro`` free of its cold-start
tax. numpy is imported at module top: ``import repro`` already loads it
through the engine, :class:`ActualDataDensity` counts with it, and the
empty-tile kernel multiplies long products with it.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.common.cache import digest
from repro.common.errors import SpecError
from repro.common.util import prod, spec_int

TileShape = int | Sequence[int]

#: Probabilities below this are dropped from occupancy distributions,
#: matching the old scipy-backed behaviour.
_PMF_EPSILON = 1e-15


# ----------------------------------------------------------------------
# Closed-form distribution kernels.
#
# The models below only ever ask for hypergeometric/binomial pmfs at
# integer parameters, and the engine asks for the same parameters over
# and over (every mapping of a workload shares its tensor sizes and nnz
# counts), so every kernel is wrapped in an LRU cache.


@lru_cache(maxsize=1 << 16)
def _log_comb(n: int, k: int) -> float:
    """``log C(n, k)``; ``-inf`` outside the support."""
    if k < 0 or k > n or n < 0:
        return -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


@lru_cache(maxsize=1 << 16)
def hypergeom_pmf(k: int, total: int, nnz: int, draws: int) -> float:
    """P(occupancy == k) drawing ``draws`` of ``total`` positions with
    ``nnz`` nonzeros: ``C(nnz, k) C(total-nnz, draws-k) / C(total, draws)``."""
    if k < max(0, draws - (total - nnz)) or k > min(nnz, draws):
        return 0.0
    log_p = (
        _log_comb(nnz, k)
        + _log_comb(total - nnz, draws - k)
        - _log_comb(total, draws)
    )
    return math.exp(log_p)


#: Longest product :func:`hypergeom_prob_empty` multiplies in a Python
#: loop; longer ones go through one ``np.multiply.accumulate``. Per call
#: on a 2-core x86-64 Xeon host (CPython 3.11, numpy 2.4, best of 5),
#: loop vs numpy: span 2: 0.6 vs 4.1 µs; span 32: 3.0 vs 3.7 µs; span
#: 64: 5.9 vs 3.8 µs; span 512: 47 vs 9.4 µs; span 4,096: 424 vs 29 µs.
#: Both regimes carry real traffic: over 3,000 points of the benchmark's
#: sweep-cold stream (seed 1), 10,287 of the 18,926 distinct queries
#: have spans of 16 or less, while spans above 64 carry 94% of the 3.9M
#: multiplies.
_SCALAR_SPAN_MAX = 32

#: Longest product :func:`hypergeom_prob_empty` evaluates exactly;
#: beyond it the log-gamma pmf takes over.
_EXACT_SPAN_MAX = 4096


@lru_cache(maxsize=1 << 16)
def hypergeom_prob_empty(total: int, nnz: int, draws: int) -> float:
    """P(occupancy == 0) = ``C(total-nnz, draws) / C(total, draws)``.

    Evaluated as the falling-factorial product
    ``prod_{i<span} (total - longer - i) / (total - i)`` over
    ``span = min(draws, nnz)`` factors (``longer`` is the larger of the
    two; both orderings are exact), in one of two regimes:

    * ``span <= _SCALAR_SPAN_MAX``: a Python loop ``p *= ratio`` from
      ``p = 1.0`` — cheaper than a numpy call for short products;
    * ``span <= _EXACT_SPAN_MAX``: the ratio vector multiplied by
      ``np.multiply.accumulate``, bit-identical to the loop: every
      operand is an integer below 2**53 (tensor sizes stay far below
      it), so its float64 conversion is exact; IEEE division is
      correctly rounded, so each ratio equals Python's ``int / int``;
      and ``accumulate`` is sequential (``out[i] = out[i-1] * r[i]``),
      the loop's multiplication order.

    Longer spans fall back to the log-gamma form.
    """
    if nnz <= 0:
        return 1.0
    if draws <= 0:
        return 1.0
    if draws > total - nnz:
        return 0.0
    span = min(draws, nnz)
    if span > _EXACT_SPAN_MAX:
        return hypergeom_pmf(0, total, nnz, draws)
    longer = max(draws, nnz)
    if span <= _SCALAR_SPAN_MAX:
        p = 1.0
        for i in range(span):
            p *= (total - longer - i) / (total - i)
        return p
    i = np.arange(span, dtype=np.float64)
    ratios = (total - longer - i) / (total - i)
    # Return a plain float, as the loop does: an np.float64 would leak
    # into the LRU cache, downstream arithmetic and JSON, and numpy 2
    # writes its repr as ``np.float64(x)``.
    return float(np.multiply.accumulate(ratios)[-1])


@lru_cache(maxsize=1 << 16)
def binom_pmf(k: int, n: int, p: float) -> float:
    """Binomial pmf ``C(n, k) p^k (1-p)^(n-k)``."""
    if k < 0 or k > n:
        return 0.0
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    log_p = _log_comb(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)
    return math.exp(log_p)


@lru_cache(maxsize=4096)
def hypergeom_distribution(
    total: int, nnz: int, draws: int
) -> tuple[tuple[int, float], ...]:
    """Full ``(occupancy, probability)`` support of the hypergeometric."""
    lo = max(0, draws - (total - nnz))
    hi = min(nnz, draws)
    pairs = []
    for k in range(lo, hi + 1):
        p = hypergeom_pmf(k, total, nnz, draws)
        if p > _PMF_EPSILON:
            pairs.append((k, p))
    return tuple(pairs)


@lru_cache(maxsize=4096)
def binom_distribution(
    size: int, density: float
) -> tuple[tuple[int, float], ...]:
    """Full ``(occupancy, probability)`` support of the binomial."""
    pairs = []
    for k in range(size + 1):
        p = binom_pmf(k, size, density)
        if p > _PMF_EPSILON:
            pairs.append((k, p))
    return tuple(pairs)


def _tile_size(shape: TileShape) -> int:
    if isinstance(shape, int):
        if shape <= 0:
            raise SpecError(f"tile size must be positive, got {shape}")
        return shape
    size = int(prod(shape))
    if size <= 0:
        raise SpecError(f"tile shape must be positive, got {tuple(shape)}")
    return size


def _real(name: str, value) -> float:
    """``value`` as a ``float``: a non-bool real (numpy scalars pass),
    so equal models share one content key (``1`` and ``1.0`` repr
    differently)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecError(f"{name} must be a real number, got {value!r}")
    return float(value)


class DensityModel(ABC):
    """Base class for all statistical density models."""

    @property
    @abstractmethod
    def density(self) -> float:
        """Overall fraction of nonzero values in the tensor."""

    @abstractmethod
    def prob_empty(self, shape: TileShape) -> float:
        """Probability that a tile of ``shape`` contains only zeros."""

    def cache_key(self) -> tuple | None:
        """Content key for memoising derived analyses.

        Two models with equal keys must answer every query identically.
        It may hold only primitives and tuples of them (see
        :func:`~repro.common.cache.spec_digest`, which memoises its
        digest: a model is frozen once evaluated). ``None`` (the
        default) marks the model as uncacheable; analyses then fall
        back to recomputing.
        """
        return None

    def prob_nonempty(self, shape: TileShape) -> float:
        return 1.0 - self.prob_empty(shape)

    def expected_occupancy(self, shape: TileShape) -> float:
        """Expected nonzero count in a tile of ``shape``."""
        return _tile_size(shape) * self.density

    def max_occupancy(self, shape: TileShape) -> int:
        """Worst-case nonzero count in a tile of ``shape``."""
        return _tile_size(shape)

    def quantile_occupancy(self, shape: TileShape, sigmas: float = 3.0) -> float:
        """Statistically-largest tile occupancy (mean + ``sigmas`` std).

        The paper's validity check sizes buffers for the *statistical*
        largest tile rather than the absolute worst case (Sec 5.4);
        models with known variance override this. The base
        implementation is conservative (the absolute maximum).
        """
        return float(self.max_occupancy(shape))

    def monotone_occupancy_bound(self, shape: TileShape) -> float | None:
        """A lower bound of :meth:`quantile_occupancy` that is
        *monotone* in the tile extents, or ``None`` when the model
        cannot provide one.

        Used by the engine's capacity prefilter to derive dominance
        witnesses for mapspace pruning: a witness is only sound when
        growing the tile can never shrink the bound. Models whose
        expected occupancy is provably ``size * density`` (uniform,
        structured) opt in; coordinate-dependent models default to
        ``None`` and simply forgo subtree pruning.
        """
        return None

    def occupancy_distribution(self, shape: TileShape) -> list[tuple[int, float]]:
        """``(occupancy, probability)`` pairs for a tile of ``shape``.

        The default two-point approximation preserves ``prob_empty`` and
        the conditional mean; exact models override this.
        """
        p_empty = self.prob_empty(shape)
        mean = self.expected_occupancy(shape)
        if p_empty >= 1.0 or mean <= 0.0:
            return [(0, 1.0)]
        conditional = mean / (1.0 - p_empty)
        k = max(1, round(conditional))
        return [(0, p_empty), (k, 1.0 - p_empty)]


class UniformDensity(DensityModel):
    """Uniformly random nonzero placement (Table 4, row 2).

    With ``tensor_size`` positions holding exactly
    ``round(tensor_size * density)`` nonzeros, the occupancy of a tile
    of size *s* is hypergeometric. When ``tensor_size`` is omitted the
    model uses the infinite-tensor (binomial) limit, where
    ``P(empty) = (1 - density) ** s``.
    """

    def __init__(self, density: float, tensor_size: int | None = None):
        density = _real("density", density)
        if not 0.0 <= density <= 1.0:
            raise SpecError(f"density must be in [0, 1], got {density}")
        if tensor_size is not None:
            tensor_size = spec_int("tensor_size", tensor_size)
            if tensor_size <= 0:
                raise SpecError(
                    f"tensor_size must be positive, got {tensor_size}"
                )
        self._density = density
        self.tensor_size = tensor_size
        #: Nonzero count of the finite tensor, ``None`` in the binomial
        #: limit.
        self._nnz = (
            None if tensor_size is None else int(round(tensor_size * density))
        )

    @property
    def density(self) -> float:
        return self._density

    def cache_key(self) -> tuple:
        return ("uniform", self._density, self.tensor_size)

    def prob_empty(self, shape: TileShape) -> float:
        size = _tile_size(shape)
        if self._density == 0.0:
            return 1.0
        if self.tensor_size is None:
            return (1.0 - self._density) ** size
        n = self.tensor_size
        return hypergeom_prob_empty(n, self._nnz, min(size, n))

    def expected_occupancy(self, shape: TileShape) -> float:
        return _tile_size(shape) * self._density

    def max_occupancy(self, shape: TileShape) -> int:
        size = _tile_size(shape)
        if self._nnz is None:
            return size
        return min(size, self._nnz)

    def quantile_occupancy(self, shape: TileShape, sigmas: float = 3.0) -> float:
        size = _tile_size(shape)
        d = self._density
        if self.tensor_size is None:
            variance = size * d * (1.0 - d)
        else:
            n = self.tensor_size
            size = min(size, n)
            # Hypergeometric variance with finite-population correction.
            fpc = (n - size) / max(1, n - 1)
            variance = size * d * (1.0 - d) * fpc
        estimate = size * d + sigmas * math.sqrt(max(0.0, variance))
        return float(min(self.max_occupancy(size), estimate))

    def monotone_occupancy_bound(self, shape: TileShape) -> float:
        # Expected occupancy: monotone in the tile size and never
        # above the mean + 3 sigma quantile.
        return _tile_size(shape) * self._density

    def occupancy_distribution(self, shape: TileShape) -> list[tuple[int, float]]:
        size = _tile_size(shape)
        if self._density == 0.0:
            return [(0, 1.0)]
        if self.tensor_size is None:
            return list(binom_distribution(size, self._density))
        n = self.tensor_size
        return list(hypergeom_distribution(n, self._nnz, min(size, n)))

    def __repr__(self) -> str:
        return (
            f"UniformDensity(density={self._density}, "
            f"tensor_size={self.tensor_size})"
        )


class FixedStructuredDensity(DensityModel):
    """N:M structured sparsity (Table 4, row 1).

    Every aligned block of ``block_size`` elements along the innermost
    axis holds exactly ``nonzeros_per_block`` nonzeros, so occupancy of
    block-aligned tiles is deterministic. Within a partial block the
    nonzero positions are unknown, modeled as hypergeometric inside the
    block.
    """

    def __init__(self, nonzeros_per_block: int, block_size: int):
        nonzeros_per_block = spec_int("nonzeros_per_block", nonzeros_per_block)
        block_size = spec_int("block_size", block_size)
        if nonzeros_per_block < 0 or block_size <= 0:
            raise SpecError(
                f"invalid structure {nonzeros_per_block}:{block_size}"
            )
        if nonzeros_per_block > block_size:
            raise SpecError(
                f"structure {nonzeros_per_block}:{block_size} is infeasible"
            )
        self.nonzeros_per_block = nonzeros_per_block
        self.block_size = block_size

    @property
    def density(self) -> float:
        return self.nonzeros_per_block / self.block_size

    def cache_key(self) -> tuple:
        return ("structured", self.nonzeros_per_block, self.block_size)

    def _split(self, shape: TileShape) -> tuple[int, int]:
        """Full blocks and remainder elements covered by the tile."""
        size = _tile_size(shape)
        return size // self.block_size, size % self.block_size

    def prob_empty(self, shape: TileShape) -> float:
        if self.nonzeros_per_block == 0:
            return 1.0
        full, rem = self._split(shape)
        if full > 0:
            return 0.0
        return hypergeom_prob_empty(
            self.block_size, self.nonzeros_per_block, rem
        )

    def expected_occupancy(self, shape: TileShape) -> float:
        return _tile_size(shape) * self.density

    def monotone_occupancy_bound(self, shape: TileShape) -> float:
        # Expected occupancy: monotone, and structured sparsity keeps
        # the per-block occupancy at or above it deterministically.
        return _tile_size(shape) * self.density

    def max_occupancy(self, shape: TileShape) -> int:
        full, rem = self._split(shape)
        return full * self.nonzeros_per_block + min(rem, self.nonzeros_per_block)

    def occupancy_distribution(self, shape: TileShape) -> list[tuple[int, float]]:
        full, rem = self._split(shape)
        base = full * self.nonzeros_per_block
        if rem == 0:
            return [(base, 1.0)]
        pairs = hypergeom_distribution(
            self.block_size, self.nonzeros_per_block, rem
        )
        return [(base + k, p) for k, p in pairs]

    def __repr__(self) -> str:
        return (
            f"FixedStructuredDensity({self.nonzeros_per_block}:"
            f"{self.block_size})"
        )


class StructuredNMDensity(DensityModel):
    """Row-aware N:M structured sparsity (e.g. the 2:4 tensor-core
    pattern the DSTC design exploits).

    Every aligned block of ``m`` consecutive elements along the
    *innermost* axis holds exactly ``n`` nonzeros. Unlike
    :class:`FixedStructuredDensity` — which flattens a multi-rank tile
    into one contiguous run — this model respects row boundaries: a
    tile of shape ``(..., c)`` covers ``prod(outer)`` independent row
    segments of ``c`` elements each, every segment starting
    block-aligned (tiles whose innermost extent divides into the
    block grid, the shapes N:M hardware produces). Each segment spans
    ``c // m`` full blocks (exactly ``n`` nonzeros apiece,
    deterministic) plus one partial block of ``c % m`` positions whose
    occupancy is hypergeometric inside the block, independent across
    rows. Scalar shape queries are treated as a single row segment.
    """

    def __init__(self, n: int, m: int):
        n, m = spec_int("n", n), spec_int("m", m)
        if m <= 0 or n < 0:
            raise SpecError(f"invalid N:M structure {n}:{m}")
        if n > m:
            raise SpecError(f"N:M structure {n}:{m} is infeasible")
        self.n = n
        self.m = m

    @property
    def density(self) -> float:
        return self.n / self.m

    def cache_key(self) -> tuple:
        return ("structured-nm", self.n, self.m)

    def _split(self, shape: TileShape) -> tuple[int, int, int]:
        """(row segments, full blocks per row, remainder per row)."""
        size = _tile_size(shape)  # validates positivity
        if isinstance(shape, int):
            rows, inner = 1, shape
        else:
            dims = tuple(int(s) for s in shape)
            inner = dims[-1]
            rows = size // inner
        return rows, inner // self.m, inner % self.m

    def prob_empty(self, shape: TileShape) -> float:
        if self.n == 0:
            return 1.0
        rows, full, rem = self._split(shape)
        if full > 0:
            return 0.0
        # Independent partial blocks, one per row segment.
        return hypergeom_prob_empty(self.m, self.n, rem) ** rows

    def expected_occupancy(self, shape: TileShape) -> float:
        return _tile_size(shape) * self.density

    def monotone_occupancy_bound(self, shape: TileShape) -> float:
        # Expected occupancy: monotone in every extent, and the
        # structure keeps block occupancies at it deterministically.
        return _tile_size(shape) * self.density

    def max_occupancy(self, shape: TileShape) -> int:
        rows, full, rem = self._split(shape)
        return rows * (full * self.n + min(rem, self.n))

    def quantile_occupancy(self, shape: TileShape, sigmas: float = 3.0) -> float:
        rows, full, rem = self._split(shape)
        mean = _tile_size(shape) * self.density
        if rem == 0 or self.m == 1:
            return float(mean)  # fully deterministic
        # Per-row partial block: hypergeometric(total=m, nnz=n,
        # draws=rem) variance, independent across rows.
        d = self.density
        fpc = (self.m - rem) / max(1, self.m - 1)
        variance = rows * rem * d * (1.0 - d) * fpc
        estimate = mean + sigmas * math.sqrt(max(0.0, variance))
        return float(min(self.max_occupancy(shape), estimate))

    #: Row counts above this fall back to the two-point approximation
    #: in :meth:`occupancy_distribution` — the exact convolution's
    #: support grows linearly with the row count.
    _EXACT_CONVOLUTION_ROWS = 64

    def occupancy_distribution(self, shape: TileShape) -> list[tuple[int, float]]:
        rows, full, rem = self._split(shape)
        base = rows * full * self.n
        if rem == 0 or self.n == 0:
            return [(base, 1.0)]
        if rows > self._EXACT_CONVOLUTION_ROWS:
            return super().occupancy_distribution(shape)
        pairs = hypergeom_distribution(self.m, self.n, rem)
        dist = {0: 1.0}
        for _ in range(rows):
            folded: dict[int, float] = {}
            for have, p0 in dist.items():
                for k, p in pairs:
                    q = p0 * p
                    if q > _PMF_EPSILON:
                        folded[have + k] = folded.get(have + k, 0.0) + q
            dist = folded
        return sorted((base + k, p) for k, p in dist.items())

    def __repr__(self) -> str:
        return f"StructuredNMDensity({self.n}:{self.m})"


class BandedDensity(DensityModel):
    """Diagonal-band sparsity for 2D matrices (Table 4, row 3).

    Element ``(i, j)`` may be nonzero only when ``|i - j| <= band_width``;
    ``fill_density`` thins the band uniformly. The model is
    coordinate-dependent: tiles near the diagonal are dense, tiles far
    from it are empty. Scalar-shape queries treat the tile as a
    ``1 x s`` row segment at a uniformly random position.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        band_width: int,
        fill_density: float = 1.0,
    ):
        rows, cols = spec_int("rows", rows), spec_int("cols", cols)
        band_width = spec_int("band_width", band_width)
        fill_density = _real("fill_density", fill_density)
        if rows <= 0 or cols <= 0:
            raise SpecError(f"matrix shape must be positive, got {rows}x{cols}")
        if band_width < 0:
            raise SpecError(f"band_width must be >= 0, got {band_width}")
        if not 0.0 <= fill_density <= 1.0:
            raise SpecError(f"fill_density must be in [0,1], got {fill_density}")
        self.rows = rows
        self.cols = cols
        self.band_width = band_width
        self.fill_density = fill_density
        # Precompute in-band indicator lazily for large matrices.
        self._band_elems = self._count_band_elements()

    def _count_band_elements(self) -> int:
        count = 0
        for i in range(self.rows):
            lo = max(0, i - self.band_width)
            hi = min(self.cols - 1, i + self.band_width)
            if hi >= lo:
                count += hi - lo + 1
        return count

    @property
    def density(self) -> float:
        return self._band_elems * self.fill_density / (self.rows * self.cols)

    def cache_key(self) -> tuple:
        return (
            "banded",
            self.rows,
            self.cols,
            self.band_width,
            self.fill_density,
        )

    def _band_overlap(self, r0: int, c0: int, th: int, tw: int) -> int:
        """Number of in-band elements inside tile [r0, r0+th) x [c0, c0+tw)."""
        overlap = 0
        for i in range(r0, min(r0 + th, self.rows)):
            lo = max(c0, i - self.band_width)
            hi = min(c0 + tw - 1, self.cols - 1, i + self.band_width)
            if hi >= lo:
                overlap += hi - lo + 1
        return overlap

    def _normalize_shape(self, shape: TileShape) -> tuple[int, int]:
        if isinstance(shape, int):
            return (1, shape)
        dims = [d for d in shape if d > 1] or [1]
        if len(dims) == 1:
            # Ambiguous orientation; treat as a row segment.
            return (1, dims[0])
        if len(dims) == 2:
            return (dims[0], dims[1])
        raise SpecError(
            f"BandedDensity supports 2D tiles, got shape {tuple(shape)}"
        )

    def tile_prob_empty(self, origin: tuple[int, int], shape: TileShape) -> float:
        """Coordinate-dependent P(empty) for a tile at a given origin."""
        th, tw = self._normalize_shape(shape)
        overlap = self._band_overlap(origin[0], origin[1], th, tw)
        return (1.0 - self.fill_density) ** overlap if overlap else 1.0

    def prob_empty(self, shape: TileShape) -> float:
        """P(empty) averaged over all aligned tile positions."""
        th, tw = self._normalize_shape(shape)
        total, count = 0.0, 0
        for r0 in range(0, self.rows, th):
            for c0 in range(0, self.cols, tw):
                total += self.tile_prob_empty((r0, c0), (th, tw))
                count += 1
        return total / count if count else 1.0

    def expected_occupancy(self, shape: TileShape) -> float:
        th, tw = self._normalize_shape(shape)
        total, count = 0.0, 0
        for r0 in range(0, self.rows, th):
            for c0 in range(0, self.cols, tw):
                total += self._band_overlap(r0, c0, th, tw) * self.fill_density
                count += 1
        return total / count if count else 0.0

    def max_occupancy(self, shape: TileShape) -> int:
        th, tw = self._normalize_shape(shape)
        best = 0
        for r0 in range(0, self.rows, th):
            for c0 in range(0, self.cols, tw):
                best = max(best, self._band_overlap(r0, c0, th, tw))
        return best

    def __repr__(self) -> str:
        return (
            f"BandedDensity({self.rows}x{self.cols}, band={self.band_width}, "
            f"fill={self.fill_density})"
        )


class ActualDataDensity(DensityModel):
    """Exact statistics from real tensor data (Table 4, row 4).

    Enumerates the coordinate-space tiling of the provided array for
    each queried tile shape; results are cached per shape. Slower but
    exact — this is the model the paper uses to close the gap on
    Eyeriss V2 layers where statistical approximation shows error.
    """

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data)
        if self.data.size == 0:
            raise SpecError("ActualDataDensity requires a non-empty tensor")
        self._cache: dict[tuple[int, ...], np.ndarray] = {}
        self._content_key: tuple | None = None

    def cache_key(self) -> tuple:
        """Content key: a bytes digest of the tensor.

        Two models over bit-identical arrays answer every query
        identically, so hashing the raw buffer (plus shape and dtype,
        which the buffer alone does not encode) lets real-data
        workloads share the tile-format and sparse-analysis memos
        instead of being keyed by array identity. The digest is
        computed once, on first request, and reused for the lifetime
        of the model; callers must not mutate ``data`` afterwards.
        """
        if self._content_key is None:
            self._content_key = (
                "actual-data",
                self.data.shape,
                str(self.data.dtype),
                digest(np.ascontiguousarray(self.data).tobytes()),
            )
        return self._content_key

    @property
    def density(self) -> float:
        return float(np.count_nonzero(self.data)) / self.data.size

    def _normalize_shape(self, shape: TileShape) -> tuple[int, ...]:
        if isinstance(shape, int):
            # Interpret as a contiguous run along the innermost axis.
            full = [1] * (self.data.ndim - 1) + [shape]
            return tuple(full)
        shape = tuple(int(s) for s in shape)
        if len(shape) < self.data.ndim:
            shape = (1,) * (self.data.ndim - len(shape)) + shape
        elif len(shape) > self.data.ndim:
            extra, rest = shape[: -self.data.ndim], shape[-self.data.ndim :]
            if any(e != 1 for e in extra):
                raise SpecError(
                    f"tile shape {shape} has more ranks than data "
                    f"({self.data.ndim})"
                )
            shape = rest
        return tuple(min(s, d) for s, d in zip(shape, self.data.shape))

    def _occupancies(self, shape: tuple[int, ...]) -> np.ndarray:
        if shape not in self._cache:
            counts = []
            ranges = [
                range(0, dim, t) for dim, t in zip(self.data.shape, shape)
            ]
            grids = np.meshgrid(*[np.asarray(r) for r in ranges], indexing="ij")
            origins = np.stack([g.ravel() for g in grids], axis=-1)
            for origin in origins:
                slices = tuple(
                    slice(int(o), int(o) + t) for o, t in zip(origin, shape)
                )
                counts.append(int(np.count_nonzero(self.data[slices])))
            self._cache[shape] = np.asarray(counts)
        return self._cache[shape]

    def prob_empty(self, shape: TileShape) -> float:
        occ = self._occupancies(self._normalize_shape(shape))
        return float(np.mean(occ == 0))

    def expected_occupancy(self, shape: TileShape) -> float:
        occ = self._occupancies(self._normalize_shape(shape))
        return float(np.mean(occ))

    def max_occupancy(self, shape: TileShape) -> int:
        occ = self._occupancies(self._normalize_shape(shape))
        return int(np.max(occ))

    def occupancy_distribution(self, shape: TileShape) -> list[tuple[int, float]]:
        occ = self._occupancies(self._normalize_shape(shape))
        values, counts = np.unique(occ, return_counts=True)
        total = counts.sum()
        return [(int(v), float(c) / total) for v, c in zip(values, counts)]

    def __repr__(self) -> str:
        return (
            f"ActualDataDensity(shape={self.data.shape}, "
            f"density={self.density:.3f})"
        )


def intersection_nonempty_probability(
    a: DensityModel, b: DensityModel, shape: TileShape
) -> float:
    """P(both tiles nonempty) assuming independent operand tensors.

    The statistical approximation the paper identifies as its main
    error source on Eyeriss V2 (Sec 6.3.2): when nonzero locations are
    correlated the true ratio deviates.
    """
    return a.prob_nonempty(shape) * b.prob_nonempty(shape)


def effectual_compute_fraction(operands: Sequence[DensityModel]) -> float:
    """Fraction of dense compute with all operands nonzero (independent)."""
    if not operands:
        return 1.0
    return float(prod(m.density for m in operands))
