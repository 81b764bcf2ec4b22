"""Fibertree: format-agnostic representation of sparse tensors.

A tensor with ranks ``(R1, R0)`` is a tree: rank ``R1`` holds one root
fiber whose coordinates are the nonempty ``R1`` indices; each payload is
a rank-``R0`` fiber; leaf payloads are the nonzero values. Coordinates
with all-zero payloads are omitted, so emptiness of any sub-tensor is
directly visible (Fig. 7b of the paper).

This module is the ground truth used by the *actual data* density model
and by the cycle-level reference simulator; the analytical model only
works with statistical summaries of fibers.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import SpecError


@dataclass
class Fiber:
    """A single fiber: sorted coordinates with payloads.

    Payloads are either child :class:`Fiber` objects (intermediate
    ranks) or numeric leaf values (the lowest rank).
    """

    coords: list[int] = field(default_factory=list)
    payloads: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.coords) != len(self.payloads):
            raise SpecError(
                f"fiber has {len(self.coords)} coords but "
                f"{len(self.payloads)} payloads"
            )

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def is_empty(self) -> bool:
        return not self.coords

    def payload_at(self, coord: int):
        """Payload stored at ``coord``, or None if the position is empty."""
        # Fibers are small; linear scan keeps the structure simple. The
        # reference simulator uses dense numpy views on hot paths.
        for c, p in zip(self.coords, self.payloads):
            if c == coord:
                return p
        return None


class FiberTree:
    """A fibertree over a dense numpy array.

    The tree is built lazily from the dense array; rank names run from
    the outermost (``rank_names[0]``) to the innermost dimension.
    """

    def __init__(self, dense: np.ndarray, rank_names: Sequence[str]):
        dense = np.asarray(dense)
        if dense.ndim != len(rank_names):
            raise SpecError(
                f"tensor has {dense.ndim} dims but {len(rank_names)} rank names"
            )
        self.dense = dense
        self.rank_names = list(rank_names)
        self._root: Fiber | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.dense.shape

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.dense))

    @property
    def size(self) -> int:
        return int(self.dense.size)

    @property
    def density(self) -> float:
        return self.nnz / self.size if self.size else 0.0

    @property
    def root(self) -> Fiber:
        if self._root is None:
            self._root = _build_fiber(self.dense)
        return self._root

    def fibers_at_rank(self, rank: int) -> list[Fiber]:
        """All non-empty fibers at tree depth ``rank`` (0 = root rank)."""
        if not 0 <= rank < len(self.rank_names):
            raise SpecError(f"rank {rank} out of range for {self.rank_names}")
        level = [self.root]
        for _ in range(rank):
            level = [p for f in level for p in f.payloads if isinstance(p, Fiber)]
        return level

    def tile(self, origin: Sequence[int], shape: Sequence[int]) -> np.ndarray:
        """Dense view of the tile starting at ``origin`` with ``shape``.

        Tiles extending past the tensor edge are truncated, matching
        coordinate-space tiling of an exact-fit or ragged mapping.
        """
        if len(origin) != self.dense.ndim or len(shape) != self.dense.ndim:
            raise SpecError("origin/shape rank mismatch")
        slices = tuple(
            slice(o, min(o + s, d))
            for o, s, d in zip(origin, shape, self.dense.shape)
        )
        return self.dense[slices]

    def tile_occupancies(self, shape: Sequence[int]) -> list[int]:
        """Nonzero counts of every aligned tile of ``shape``.

        Enumerates the coordinate-space tiling of the whole tensor with
        the given tile shape (ragged edge tiles included). This is the
        exact statistic the *actual data* density model summarises.
        """
        counts: list[int] = []
        for origin in _tile_origins(self.dense.shape, shape):
            counts.append(int(np.count_nonzero(self.tile(origin, shape))))
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FiberTree(shape={self.shape}, ranks={self.rank_names}, "
            f"nnz={self.nnz})"
        )


def _build_fiber(dense: np.ndarray) -> Fiber:
    """Recursively build the fiber for a dense (sub-)tensor."""
    fiber = Fiber()
    if dense.ndim == 1:
        for coord, value in enumerate(dense):
            if value != 0:
                fiber.coords.append(coord)
                fiber.payloads.append(value.item() if hasattr(value, "item") else value)
        return fiber
    for coord in range(dense.shape[0]):
        sub = dense[coord]
        if np.any(sub != 0):
            fiber.coords.append(coord)
            fiber.payloads.append(_build_fiber(sub))
    return fiber


def _tile_origins(
    tensor_shape: Sequence[int], tile_shape: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Origins of all aligned tiles covering ``tensor_shape``."""
    if any(t <= 0 for t in tile_shape):
        raise SpecError(f"tile shape must be positive, got {tile_shape}")
    ranges = [range(0, d, t) for d, t in zip(tensor_shape, tile_shape)]

    def rec(prefix: tuple[int, ...], rest: list[range]) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield prefix
            return
        for v in rest[0]:
            yield from rec(prefix + (v,), rest[1:])

    yield from rec((), ranges)
