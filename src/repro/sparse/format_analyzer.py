"""Format analyzer (Sec 5.3.3): representation overhead per stored tile.

For the tile a tensor keeps at a storage level, this module derives the
expected and worst-case storage occupancy in the level's representation
format: payload words (data values actually materialised) plus metadata
bits, rank by rank, using the statistical fiber characterisation from
the density model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.cache import digest, global_cache, spec_digest
from repro.common.util import prod
from repro.sparse.density import DensityModel
from repro.sparse.formats import FormatSpec


@dataclass
class RankOccupancy:
    """Occupancy contribution of one format rank."""

    format_name: str
    fiber_shape: int
    stored_fibers: float
    nonempty_elements: float
    metadata_bits: float


@dataclass
class TileOccupancy:
    """Expected/worst-case storage occupancy of one tile in one format.

    ``payload_words`` counts the data values materialised (compressed
    formats store only nonzeros); ``metadata_bits`` is the total
    encoding overhead. ``dense_words`` is the uncompressed tile size for
    compression-rate computations.
    """

    dense_words: int
    payload_words: float
    metadata_bits: float
    worst_payload_words: float
    worst_metadata_bits: float
    per_rank: list[RankOccupancy] = field(default_factory=list)

    def occupancy_words(self, word_bits: int) -> float:
        """Expected total occupancy in data-word equivalents."""
        return self.payload_words + self.metadata_bits / word_bits

    def worst_occupancy_words(self, word_bits: int) -> float:
        return self.worst_payload_words + self.worst_metadata_bits / word_bits

    def compression_rate(self, word_bits: int) -> float:
        """Dense words divided by encoded words (higher = better)."""
        encoded = self.occupancy_words(word_bits)
        if encoded <= 0:
            return float("inf")
        return self.dense_words / encoded

    @property
    def payload_fraction(self) -> float:
        """Stored payload words per dense word (<= 1 when compressed)."""
        if self.dense_words == 0:
            return 1.0
        return self.payload_words / self.dense_words

    def metadata_bits_per_element(self) -> float:
        """Metadata bits accompanying one dense element's worth of tile."""
        if self.dense_words == 0:
            return 0.0
        return self.metadata_bits / self.dense_words


#: Memo for :func:`analyze_tile_format`, keyed by
#: ``(format key, rank extents, density key)``. The same (format, tile
#: shape, density) triple recurs for every mapping sharing a tile size
#: and for every SAF variant of a mapspace sweep. Hosted as the
#: ``"tile-format"`` stage of the process-global
#: :class:`~repro.common.cache.AnalysisCache` so the engine can ship
#: its entries to parallel workers alongside the other stages.
TILE_FORMAT_STAGE = "tile-format"


def _tile_stage():
    return global_cache().stage(TILE_FORMAT_STAGE)


def clear_tile_format_cache() -> None:
    """Drop all memoised tile-format analyses (mainly for tests)."""
    _tile_stage().clear()


def analyze_tile_format(
    fmt: FormatSpec,
    rank_extents: tuple[int, ...],
    density: DensityModel,
) -> TileOccupancy:
    """Statistically characterise one tile's encoded occupancy.

    Results are memoised module-wide when the density model exposes a
    content key (``cache_key()``); callers must treat the returned
    :class:`TileOccupancy` as read-only.

    Walks format ranks outer to inner. At each rank, the expected count
    of nonempty coordinates equals the number of coordinate positions
    times the probability that the subtree hanging below one position
    is nonempty (from the density model). Uncompressed ranks materialise
    every position of every stored fiber; compressed ranks keep only
    nonempty ones.
    """
    density_digest = spec_digest(density)
    if density_digest is None:
        return _analyze_tile_format(fmt, rank_extents, density)
    key = digest(
        spec_digest(fmt) + density_digest + repr(tuple(rank_extents)).encode()
    )
    return _tile_stage().get_or_compute(
        key, lambda: _analyze_tile_format(fmt, rank_extents, density)
    )


def _analyze_tile_format(
    fmt: FormatSpec,
    rank_extents: tuple[int, ...],
    density: DensityModel,
) -> TileOccupancy:
    extents = fmt.group_extents(rank_extents)
    # The memoised (type name, repr, flattened_ranks) entry per rank;
    # its repr names the rank without rebuilding it on every call.
    rank_keys = fmt.cache_key()
    dense_words = int(prod(extents))
    # Statistically-largest occupancy (Sec 5.4): capacity is sized for
    # mean + 3 sigma, not the absolute worst case.
    max_nnz = density.quantile_occupancy(dense_words)

    per_rank: list[RankOccupancy] = []
    metadata_bits = 0.0
    worst_metadata_bits = 0.0
    stored_fibers = 1.0
    worst_stored_fibers = 1.0
    positions_so_far = 1  # coordinate positions down to current rank
    stored_positions = 1.0
    worst_stored_positions = 1.0

    for rank_index, rank in enumerate(fmt.ranks):
        fiber_shape = extents[rank_index]
        positions_so_far *= fiber_shape
        subtree = int(prod(extents[rank_index + 1 :]))
        # Expected nonempty coordinates at this rank across the tile.
        p_nonempty = density.prob_nonempty(subtree)
        nonempty = positions_so_far * p_nonempty
        worst_nonempty = float(min(positions_so_far, max_nnz))

        bits = rank.format.metadata_bits(fiber_shape, stored_fibers, nonempty)
        worst_bits = rank.format.metadata_bits(
            fiber_shape, worst_stored_fibers, worst_nonempty
        )
        metadata_bits += bits
        worst_metadata_bits += worst_bits
        per_rank.append(
            RankOccupancy(
                format_name=rank_keys[rank_index][1],
                fiber_shape=fiber_shape,
                stored_fibers=stored_fibers,
                nonempty_elements=nonempty,
                metadata_bits=bits,
            )
        )

        if rank.format.compressed:
            stored_positions = nonempty
            worst_stored_positions = worst_nonempty
        else:
            stored_positions = stored_fibers * fiber_shape
            worst_stored_positions = worst_stored_fibers * fiber_shape
        stored_fibers = stored_positions
        worst_stored_fibers = worst_stored_positions

    return TileOccupancy(
        dense_words=dense_words,
        payload_words=stored_positions,
        metadata_bits=metadata_bits,
        worst_payload_words=worst_stored_positions,
        worst_metadata_bits=worst_metadata_bits,
        per_rank=per_rank,
    )
