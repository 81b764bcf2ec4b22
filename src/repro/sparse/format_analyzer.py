"""Format analyzer (Sec 5.3.3): representation overhead per stored tile.

For the tile a tensor keeps at a storage level, this module derives the
expected and worst-case storage occupancy in the level's representation
format: payload words (data values actually materialised) plus metadata
bits, rank by rank, using the statistical fiber characterisation from
the density model.

The analysis splits into a density-free half and a density half.
:func:`compile_tile_format` derives the per-rank integers (grouped
extents, subtree sizes, dense words) from the format and the tile shape
alone; :func:`occupancy_terms` is the one per-rank loop that combines
them with the density model's answers, and :func:`format_scalars`
turns its totals into the five scalings the sparse step reads.

:func:`analyze_tile_format` runs both halves and memoises the result, a
flat tuple of five numbers, in the process-global ``"tile-format"``
stage; it serves the sparse walk (first-seen mappings, searches,
network layers) and direct callers. A tuple of atomics is untracked by
the cyclic collector at its first collection, so a full stage adds
nothing to a full collection's scan. A planned sparse evaluation
(:class:`~repro.sparse.postprocess.SparsePlan`) compiles the first half
once per plan and calls the same loop and scalings per density point,
without a stage lookup. Per-rank terms exist only inside the loop; pass
``occupancy_terms(..., per_rank=rows)`` to collect them.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.common.cache import digest, global_cache, spec_digest
from repro.common.util import prod
from repro.sparse.density import DensityModel
from repro.sparse.formats import FormatRank, FormatSpec


def compile_tile_format(
    fmt: FormatSpec, rank_extents: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The density-free half of a tile's format analysis.

    Returns, per format rank outer to inner, its grouped fiber extent
    and the size of the subtree below one of its coordinate positions;
    then the tile's dense word count. The density half asks
    ``P(nonempty)`` of each subtree size and the ``quantile_occupancy``
    of the dense word count, both as ints: coordinate-dependent models
    answer an int size and a shape tuple differently.
    """
    extents = tuple(fmt.group_extents(rank_extents))
    subtrees = tuple(
        int(prod(extents[index + 1 :])) for index in range(len(extents))
    )
    return extents, subtrees, int(prod(extents))


def occupancy_terms(
    ranks: Sequence[FormatRank],
    extents: Sequence[int],
    p_nonempty: Sequence[float],
    max_nnz: float,
    per_rank: list | None = None,
) -> tuple[float, float, float, float]:
    """Walk the format ranks outer to inner: the one per-rank loop.

    At each rank, the expected count of nonempty coordinates is the
    number of coordinate positions down to it times the probability
    that the subtree below one position is nonempty (``p_nonempty``).
    Uncompressed ranks materialise every position of every stored
    fiber; compressed ranks keep only nonempty ones. The worst case
    caps each rank's nonempty count at ``max_nnz``, the tile's
    statistically-largest occupancy (Sec 5.4: capacity is sized for
    mean + 3 sigma, not the absolute worst case).

    Returns ``(payload words, metadata bits, worst payload words, worst
    metadata bits)``; ``per_rank``, when given, collects ``(fiber
    shape, stored fibers, nonempty elements, metadata bits)`` per rank.
    """
    metadata_bits = 0.0
    worst_metadata_bits = 0.0
    reach = 1  # coordinate positions down to the current rank
    stored = 1.0  # stored fibers at this rank, stored positions after it
    worst_stored = 1.0
    for rank, fiber_shape, p in zip(ranks, extents, p_nonempty):
        rank_format = rank.format
        reach *= fiber_shape
        nonempty = reach * p
        worst_nonempty = float(min(reach, max_nnz))
        bits = rank_format.metadata_bits(fiber_shape, stored, nonempty)
        metadata_bits += bits
        worst_metadata_bits += rank_format.metadata_bits(
            fiber_shape, worst_stored, worst_nonempty
        )
        if per_rank is not None:
            per_rank.append((fiber_shape, stored, nonempty, bits))
        if rank_format.compressed:
            stored = nonempty
            worst_stored = worst_nonempty
        else:
            stored = stored * fiber_shape
            worst_stored = worst_stored * fiber_shape
    return stored, metadata_bits, worst_stored, worst_metadata_bits


def format_scalars(
    dense_words: int,
    terms: tuple[float, float, float, float],
    word_bits: int,
    metadata_word_bits: int,
    compressed: bool,
) -> tuple[float, float, float, float, float]:
    """The five format scalings the sparse step reads for one tile.

    ``terms`` is :func:`occupancy_terms`' result. Returns the payload
    fraction (stored payload words per dense word; 1 unless the format
    is ``compressed``), the metadata words (of ``metadata_word_bits``)
    per dense element, the expected and worst occupancy in data words
    (of ``word_bits``), and the compression rate (dense words over
    expected encoded words, ``inf`` for an empty encoding).
    """
    payload_words, metadata_bits, worst_payload_words, worst_bits = terms
    if dense_words == 0:
        payload_fraction, bits_per_element = 1.0, 0.0
    else:
        payload_fraction = payload_words / dense_words
        bits_per_element = metadata_bits / dense_words
    occupancy = payload_words + metadata_bits / word_bits
    return (
        payload_fraction if compressed else 1.0,
        bits_per_element / metadata_word_bits,
        occupancy,
        worst_payload_words + worst_bits / word_bits,
        dense_words / occupancy if occupancy > 0 else float("inf"),
    )


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
) -> tuple[int, float, float, float, float]:
    """Statistically characterise one tile's encoded occupancy.

    Returns ``(dense words, payload words, metadata bits, worst payload
    words, worst metadata bits)``: the uncompressed tile size, the data
    values materialised (compressed formats store only nonzeros), the
    total encoding overhead, and their worst cases. ``format_scalars(
    tile[0], tile[1:], ...)`` turns it into the sparse step's scalings.
    Results are memoised module-wide when the density model exposes a
    content key (``cache_key()``). The per-rank arithmetic is
    :func:`occupancy_terms`.
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
) -> tuple[int, float, float, float, float]:
    extents, subtrees, dense_words = compile_tile_format(fmt, rank_extents)
    max_nnz = density.quantile_occupancy(dense_words)
    p_nonempty = [density.prob_nonempty(size) for size in subtrees]
    return (dense_words,) + occupancy_terms(
        fmt.ranks, extents, p_nonempty, max_nnz
    )
