"""Architecture specification (Sec 5.1).

An :class:`Architecture` is an ordered list of storage levels from the
outermost (typically DRAM) to the innermost (registers), plus a compute
level. Each level carries the hardware attributes the micro-architecture
step needs: capacity, word width, bandwidth, instance count, and the
energy-model component it is built from.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from repro.common.errors import SpecError
from repro.common.util import spec_int


def _check_count(owner: str, name: str, value) -> None:
    """``value`` must be an integer of at least 1 (not converted, so
    the content key keeps what the spec gave)."""
    if spec_int(f"{owner}: {name}", value) < 1:
        raise SpecError(f"{owner}: {name} must be at least 1, got {value!r}")


def _check_positive(owner: str, name: str, value) -> None:
    """``value`` must be ``None`` or a positive non-bool real."""
    if value is None:
        return
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not value > 0
    ):
        raise SpecError(
            f"{owner}: {name} must be a positive number or null, got {value!r}"
        )


@dataclass
class StorageLevel:
    """One storage level of the hierarchy.

    Attributes:
        name: Unique level name (referenced by mappings and SAFs).
        capacity_words: Data capacity in words; ``None`` = unbounded
            (DRAM). Metadata shares this capacity, converted by bits.
        word_bits: Data word width in bits.
        read_bandwidth: Words/cycle per instance the level can source;
            ``None`` = never a bottleneck.
        write_bandwidth: Words/cycle per instance it can sink.
        instances: Number of physical instances at this level.
        component: Energy-model component class (see
            :mod:`repro.accelergy.library`), e.g. ``"sram"``, ``"dram"``,
            ``"regfile"``.
        component_attrs: Extra attributes forwarded to the energy model.
        metadata_word_bits: Width of one metadata word for bandwidth
            and energy accounting.
        metadata_on_data_port: Whether metadata traffic shares the data
            port (counts against read/write bandwidth). Designs with
            dedicated metadata storage (e.g. Eyeriss V2's PE) set this
            False; designs streaming metadata in-band (e.g. STC's SMEM)
            keep the default True.
        multicast: Whether reads can be multicast to several children
            (saves parent reads for spatially-reused tensors).
        spatial_reduction: Whether drains from children over spatially
            partitioned reduction dims merge in a reduction tree.
    """

    name: str
    capacity_words: float | None = None
    word_bits: int = 16
    read_bandwidth: float | None = None
    write_bandwidth: float | None = None
    instances: int = 1
    component: str = "sram"
    component_attrs: dict = field(default_factory=dict)
    metadata_word_bits: int = 8
    metadata_on_data_port: bool = True
    multicast: bool = True
    spatial_reduction: bool = True

    def __post_init__(self) -> None:
        owner = f"level {self.name!r}"
        _check_count(owner, "instances", self.instances)
        _check_count(owner, "word_bits", self.word_bits)
        _check_count(owner, "metadata_word_bits", self.metadata_word_bits)
        _check_positive(owner, "capacity_words", self.capacity_words)
        _check_positive(owner, "read_bandwidth", self.read_bandwidth)
        _check_positive(owner, "write_bandwidth", self.write_bandwidth)


@dataclass
class ComputeLevel:
    """The compute array at the bottom of the hierarchy."""

    name: str = "MAC"
    instances: int = 1
    component: str = "mac"
    component_attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_count(f"compute {self.name!r}", "instances", self.instances)


@dataclass
class Architecture:
    """The full hardware organisation, outermost storage first."""

    name: str
    levels: list[StorageLevel]
    compute: ComputeLevel

    def __post_init__(self) -> None:
        if not self.levels:
            raise SpecError(f"architecture {self.name!r} has no storage levels")
        names = [level.name for level in self.levels]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate storage level names: {names}")
        if self.compute.name in names:
            raise SpecError(
                f"compute level name {self.compute.name!r} collides with a "
                "storage level"
            )

    @property
    def level_names(self) -> list[str]:
        return [level.name for level in self.levels]

    def cache_key(self) -> tuple:
        """Canonical content key of primitives over every model-relevant
        attribute; architectures with equal keys evaluate identically.
        Memoised on first use, like its digest — an architecture is
        frozen by contract once it has been through the engine."""
        memo = getattr(self, "_cache_key", None)
        if memo is not None:
            return memo

        def attrs_key(attrs: dict) -> tuple:
            return tuple(sorted((k, repr(v)) for k, v in attrs.items()))

        levels = tuple(
            (
                lvl.name,
                lvl.capacity_words,
                lvl.word_bits,
                lvl.read_bandwidth,
                lvl.write_bandwidth,
                lvl.instances,
                lvl.component,
                attrs_key(lvl.component_attrs),
                lvl.metadata_word_bits,
                lvl.metadata_on_data_port,
                lvl.multicast,
                lvl.spatial_reduction,
            )
            for lvl in self.levels
        )
        compute = (
            self.compute.name,
            self.compute.instances,
            self.compute.component,
            attrs_key(self.compute.component_attrs),
        )
        self._cache_key = (levels, compute)
        return self._cache_key

    def level(self, name: str) -> StorageLevel:
        for lvl in self.levels:
            if lvl.name == name:
                return lvl
        raise SpecError(
            f"unknown storage level {name!r}; architecture {self.name!r} has "
            f"{self.level_names}"
        )

    def level_index(self, name: str) -> int:
        """Index counted from the *innermost* level (0) outward.

        The dataflow analysis numbers levels inner-to-outer, matching
        the convention that level 0 feeds the compute units.
        """
        names = self.level_names
        if name not in names:
            raise SpecError(f"unknown storage level {name!r}")
        return len(names) - 1 - names.index(name)

    def inner_to_outer(self) -> list[StorageLevel]:
        """Storage levels ordered innermost first."""
        return list(reversed(self.levels))

    def describe(self) -> str:
        lines = [f"architecture {self.name}"]
        for level in self.levels:
            cap = (
                "unbounded"
                if level.capacity_words is None
                else f"{level.capacity_words:g} words"
            )
            lines.append(
                f"  {level.name}: {cap}, {level.word_bits}b words, "
                f"x{level.instances}"
            )
        lines.append(
            f"  {self.compute.name}: x{self.compute.instances} compute units"
        )
        return "\n".join(lines)
