"""Per-rank representation format models (Sec 3.1.1 and 5.3.3).

A tensor tile is described rank by rank (outer to inner); each rank is
encoded with a per-dimension format. The format model answers: how many
metadata bits does this rank add, and does it prune the payload
positions to nonzeros only? Composing per-rank formats yields classic
formats (Table 2): CSR = UOP-CP, 2D COO = CP^2 (flattened), CSB =
UOP-CP-CP, 3-D CSF = CP-CP-CP.

The overhead formulas follow the paper directly, e.g.::

    Overhead_RLE = #nonempty_elements * run_length_bitwidth
    Overhead_B   = total #elements    * 1 bit
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import lru_cache

from repro.common.errors import SpecError
from repro.common.util import spec_int


def _store_count(spec, name: str, optional: bool = False) -> None:
    """Check a frozen spec's bit width or rank count ``name`` and store
    it as an ``int`` >= 1 (``None`` passes when ``optional``), so equal
    formats share one repr and digest."""
    value = getattr(spec, name)
    if value is None and optional:
        return
    value = spec_int(name, value)
    if value < 1:
        raise SpecError(f"{name} must be at least 1, got {value}")
    object.__setattr__(spec, name, value)


def _coord_bits(fiber_shape: int) -> int:
    """Bits to name one coordinate inside a fiber of ``fiber_shape``."""
    return max(1, math.ceil(math.log2(max(2, fiber_shape))))


class RankFormat(ABC):
    """Base class for per-rank (per-dimension) format models."""

    #: Whether this rank stores only nonempty coordinates (compressed)
    #: or all positions (uncompressed).
    compressed: bool = True

    @abstractmethod
    def metadata_bits(
        self,
        fiber_shape: int,
        stored_fibers: float,
        nonempty_elements: float,
    ) -> float:
        """Expected metadata bits for this rank across the whole tile.

        ``fiber_shape`` is the coordinate extent of one fiber,
        ``stored_fibers`` the (expected) number of fibers materialised
        at this rank, and ``nonempty_elements`` the (expected) total
        count of nonempty coordinates across those fibers.
        """

    @property
    def name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Uncompressed(RankFormat):
    """U: all positions stored in place; zero metadata."""

    compressed = False

    def metadata_bits(
        self, fiber_shape: int, stored_fibers: float, nonempty_elements: float
    ) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "U"


@dataclass(frozen=True)
class Bitmask(RankFormat):
    """B: one presence bit per coordinate position of each stored fiber."""

    def metadata_bits(
        self, fiber_shape: int, stored_fibers: float, nonempty_elements: float
    ) -> float:
        return stored_fibers * fiber_shape

    def __repr__(self) -> str:
        return "B"


@dataclass(frozen=True)
class UncompressedBitmask(RankFormat):
    """UB: bitmask metadata but payloads kept at all positions.

    Used by designs (e.g. Eyeriss on-chip inputs) that keep data
    uncompressed yet carry a zero-flag per element to drive gating.
    """

    compressed = False

    def metadata_bits(
        self, fiber_shape: int, stored_fibers: float, nonempty_elements: float
    ) -> float:
        return stored_fibers * fiber_shape

    def __repr__(self) -> str:
        return "UB"


@dataclass(frozen=True)
class CoordinatePayload(RankFormat):
    """CP: explicit coordinate (multi-bit) per nonzero payload.

    ``coord_bits`` overrides the default ``ceil(log2(fiber_shape))``,
    e.g. STC's 2-bit offsets inside blocks of four.
    """

    coord_bits: int | None = None

    def __post_init__(self) -> None:
        _store_count(self, "coord_bits", optional=True)

    def metadata_bits(
        self, fiber_shape: int, stored_fibers: float, nonempty_elements: float
    ) -> float:
        bits = self.coord_bits or _coord_bits(fiber_shape)
        return nonempty_elements * bits

    def __repr__(self) -> str:
        return "CP" if self.coord_bits is None else f"CP({self.coord_bits}b)"


@dataclass(frozen=True)
class RunLengthEncoding(RankFormat):
    """RLE: run of zeros before each nonzero, in ``run_bits`` bits.

    Runs longer than ``2**run_bits - 1`` need padding tokens; the
    expected overflow token count is approximated from the average run
    length assuming geometrically distributed runs.
    """

    run_bits: int = 4

    def __post_init__(self) -> None:
        _store_count(self, "run_bits")

    def metadata_bits(
        self, fiber_shape: int, stored_fibers: float, nonempty_elements: float
    ) -> float:
        base = nonempty_elements * self.run_bits
        # Overflow padding: average zero-run length within stored fibers.
        total_positions = stored_fibers * fiber_shape
        zeros = max(0.0, total_positions - nonempty_elements)
        if nonempty_elements > 0:
            avg_run = zeros / nonempty_elements
            max_run = 2**self.run_bits - 1
            if avg_run > 0 and max_run > 0:
                # Each run of length L needs floor(L / max_run) extra tokens.
                extra_tokens = nonempty_elements * (avg_run / max_run)
                # Only runs exceeding max_run pay; scale by that chance
                # under a geometric run-length approximation.
                p_long = math.exp(-max_run / max(avg_run, 1e-9))
                base += extra_tokens * p_long * self.run_bits
        return base

    def __repr__(self) -> str:
        return f"RLE({self.run_bits}b)"


@dataclass(frozen=True)
class UncompressedOffsetPairs(RankFormat):
    """UOP: start (inclusive) / end (non-inclusive) offsets per
    coordinate position.

    Each stored fiber keeps a shared offsets array with
    ``fiber_shape + 1`` entries (CSR's row-pointer array); this cost is
    paid for empty positions too, which is what makes UOP-based formats
    expensive for hyper-sparse tiles.
    """

    offset_bits: int | None = None

    def __post_init__(self) -> None:
        _store_count(self, "offset_bits", optional=True)

    def metadata_bits(
        self, fiber_shape: int, stored_fibers: float, nonempty_elements: float
    ) -> float:
        if self.offset_bits is not None:
            bits = self.offset_bits
        else:
            bits = max(1, math.ceil(math.log2(max(2, nonempty_elements + 1))))
        return stored_fibers * (fiber_shape + 1) * bits

    def __repr__(self) -> str:
        return "UOP" if self.offset_bits is None else f"UOP({self.offset_bits}b)"


@dataclass(frozen=True)
class FormatRank:
    """One rank of a :class:`FormatSpec`.

    ``flattened_ranks`` > 1 means this format rank covers that many
    consecutive tensor ranks flattened into one coordinate space (the
    superscript notation of Table 2, e.g. 2D COO = CP^2).
    """

    format: RankFormat
    flattened_ranks: int = 1

    def __post_init__(self) -> None:
        _store_count(self, "flattened_ranks")


@dataclass
class FormatSpec:
    """Full hierarchical representation format for one tensor.

    ``ranks`` run outer to inner and must jointly cover the tensor's
    rank count once flattening is accounted for. A ``FormatSpec`` of all
    :class:`Uncompressed` ranks is the dense representation.
    """

    ranks: list[FormatRank] = field(default_factory=list)
    #: Lazily-computed content key; treat the spec as frozen once it
    #: has been evaluated (the tile-format stage keys on this).
    _cache_key: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.ranks:
            raise SpecError("FormatSpec requires at least one rank")

    @property
    def tensor_rank_count(self) -> int:
        return sum(r.flattened_ranks for r in self.ranks)

    @property
    def is_compressed(self) -> bool:
        """True if any rank prunes payloads to nonzeros."""
        return any(r.format.compressed for r in self.ranks)

    def cache_key(self) -> tuple:
        """Hashable content key: one ``(type name, repr,
        flattened_ranks)`` entry per rank. Format specs with equal keys
        produce identical occupancy analyses (used to memoise the format
        analyzer); the repr encodes a rank format's bit-width
        parameters. Computed once and memoised: do not mutate a spec
        after it has been evaluated."""
        if self._cache_key is None:
            self._cache_key = tuple(
                (type(r.format).__name__, repr(r.format), r.flattened_ranks)
                for r in self.ranks
            )
        return self._cache_key

    def group_extents(self, rank_extents: tuple[int, ...]) -> list[int]:
        """Collapse per-tensor-rank extents into per-format-rank extents.

        If the tile has fewer ranks than the format covers (an inner
        tile may not expose outer ranks), the extents are left-padded
        with 1.
        """
        extents = list(rank_extents)
        need = self.tensor_rank_count
        if len(extents) < need:
            extents = [1] * (need - len(extents)) + extents
        elif len(extents) > need:
            # Flatten surplus outer ranks into the outermost format rank.
            head = 1
            for e in extents[: len(extents) - need + 1]:
                head *= e
            extents = [head] + extents[len(extents) - need + 1 :]
        grouped: list[int] = []
        idx = 0
        for rank in self.ranks:
            size = 1
            for _ in range(rank.flattened_ranks):
                size *= extents[idx]
                idx += 1
            grouped.append(size)
        return grouped

    def describe(self) -> str:
        parts = []
        for rank in self.ranks:
            text = repr(rank.format)
            if rank.flattened_ranks > 1:
                text += f"^{rank.flattened_ranks}"
            parts.append(text)
        return "-".join(parts)

    def __repr__(self) -> str:
        return f"FormatSpec({self.describe()})"


_CLASSIC_FORMATS: dict[str, list[FormatRank]] = {}


def _register_classics() -> None:
    _CLASSIC_FORMATS.update(
        {
            # Compressed Sparse Row: UOP over rows, CP over columns.
            "CSR": [
                FormatRank(UncompressedOffsetPairs()),
                FormatRank(CoordinatePayload()),
            ],
            # 2D coordinate list: CP over flattened (row, col).
            "COO": [FormatRank(CoordinatePayload(), flattened_ranks=2)],
            # Compressed Sparse Block.
            "CSB": [
                FormatRank(UncompressedOffsetPairs()),
                FormatRank(CoordinatePayload()),
                FormatRank(CoordinatePayload()),
            ],
            # 3D Compressed Sparse Fiber.
            "CSF": [
                FormatRank(CoordinatePayload()),
                FormatRank(CoordinatePayload()),
                FormatRank(CoordinatePayload()),
            ],
        }
    )


_register_classics()


def classic_format(name: str) -> FormatSpec:
    """Build a classic format by name: CSR, COO, CSB, or CSF (Table 2)."""
    key = name.upper()
    if key not in _CLASSIC_FORMATS:
        raise SpecError(
            f"unknown classic format {name!r}; expected one of "
            f"{sorted(_CLASSIC_FORMATS)}"
        )
    return FormatSpec(list(_CLASSIC_FORMATS[key]))


@lru_cache(maxsize=None)
def dense_format(num_ranks: int) -> FormatSpec:
    """All-uncompressed format for a tensor with ``num_ranks`` ranks.

    Returns one shared spec per rank count (the sparse walk asks for one
    per dense (level, tensor) pair), so its memoised key is built once;
    treat the result as read-only."""
    return FormatSpec([FormatRank(Uncompressed()) for _ in range(num_ranks)])
