"""Mapping: an exact schedule of the workload onto the architecture.

A mapping assigns to each storage level an ordered list of temporal
loops and a list of spatial loops (Sec 5.1, Fig. 6). Following the
Timeloop convention, the data resident in a level is the footprint of
all loops at that level and below; the loops of outer levels iterate
over those resident tiles. Spatial loops at a level distribute work
across instances of the level below.

Mappings also carry per-level *keep* sets (tensors resident at the
level); tensors not kept bypass the level entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.spec import Architecture
from repro.common.errors import MappingError
from repro.common.util import prod
from repro.workload.einsum import EinsumSpec


@dataclass(frozen=True)
class Loop:
    """A single for / parallel-for loop over an iteration dimension."""

    dim: str
    bound: int
    spatial: bool = False

    def __post_init__(self) -> None:
        if self.bound <= 0:
            raise MappingError(f"loop over {self.dim!r} has bound {self.bound}")

    def __repr__(self) -> str:
        kind = "parallel-for" if self.spatial else "for"
        return f"{kind} {self.dim} in [0:{self.bound})"


@dataclass
class LevelMapping:
    """Loops and residency for one storage level.

    ``temporal`` is ordered outermost first. ``keep`` is the set of
    tensor names resident at this level (``None`` keeps everything).
    """

    level: str
    temporal: list[Loop] = field(default_factory=list)
    spatial: list[Loop] = field(default_factory=list)
    keep: set[str] | None = None

    def __post_init__(self) -> None:
        for loop in self.temporal:
            if loop.spatial:
                raise MappingError(
                    f"spatial loop {loop!r} listed in temporal loops of "
                    f"{self.level!r}"
                )
        self.spatial = [
            Loop(l.dim, l.bound, spatial=True) for l in self.spatial
        ]

    def keeps(self, tensor: str) -> bool:
        return self.keep is None or tensor in self.keep

    @property
    def spatial_fanout(self) -> int:
        return int(prod(l.bound for l in self.spatial))

    def loops(self) -> list[Loop]:
        """All loops at this level, temporal (outer) then spatial."""
        return list(self.temporal) + list(self.spatial)


@dataclass
class Mapping:
    """A complete mapping: one :class:`LevelMapping` per storage level,
    ordered outermost first (matching ``Architecture.levels``)."""

    levels: list[LevelMapping]

    def level(self, name: str) -> LevelMapping:
        for lvl in self.levels:
            if lvl.level == name:
                return lvl
        raise MappingError(f"mapping has no level {name!r}")

    def validate(self, einsum: EinsumSpec, arch: Architecture) -> None:
        """Check structural consistency against workload and hardware.

        * level names and order match the architecture,
        * per-dimension loop bounds multiply exactly to the dim bound,
        * spatial fanout at each level fits the instance ratio to the
          level below,
        * every tensor is kept somewhere, and the outermost level keeps
          everything it ever serves.
        """
        arch_names = arch.level_names
        map_names = [lvl.level for lvl in self.levels]
        if map_names != arch_names:
            raise MappingError(
                f"mapping levels {map_names} do not match architecture "
                f"levels {arch_names}"
            )
        # Loop bound products must tile each dimension exactly.
        for dim, bound in einsum.dims.items():
            product = 1
            for lvl in self.levels:
                for loop in lvl.loops():
                    if loop.dim == dim:
                        product *= loop.bound
            if product != bound:
                raise MappingError(
                    f"dimension {dim!r}: loop bounds multiply to {product}, "
                    f"workload needs {bound}"
                )
        for lvl in self.levels:
            for loop in lvl.loops():
                if loop.dim not in einsum.dims:
                    raise MappingError(
                        f"level {lvl.level!r} loops over unknown dim "
                        f"{loop.dim!r}"
                    )
        # Spatial fanout must fit hardware instance ratios.
        ordered = list(self.levels)  # outer -> inner
        for idx, lvl in enumerate(ordered):
            parent_instances = (
                arch.level(ordered[idx - 1].level).instances if idx else 1
            )
            below_instances = (
                arch.level(ordered[idx + 1].level).instances
                if idx + 1 < len(ordered)
                else arch.compute.instances
            )
            this_instances = arch.level(lvl.level).instances
            if this_instances % parent_instances != 0:
                raise MappingError(
                    f"level {lvl.level!r}: {this_instances} instances not a "
                    f"multiple of parent's {parent_instances}"
                )
            fanout = lvl.spatial_fanout
            available = below_instances // this_instances
            if fanout > available:
                raise MappingError(
                    f"level {lvl.level!r}: spatial fanout {fanout} exceeds "
                    f"available child instances {available}"
                )
        # Residency checks.
        for tensor in einsum.tensors:
            if not any(lvl.keeps(tensor.name) for lvl in self.levels):
                raise MappingError(
                    f"tensor {tensor.name!r} is kept at no storage level"
                )

    def keep_chain(self, tensor: str) -> list[str]:
        """Names of levels keeping ``tensor``, outermost first.

        Memoised per instance: callers must treat the returned list as
        read-only and must not rearrange levels after the first call.
        """
        memo = getattr(self, "_keep_chains", None)
        if memo is None:
            memo = self._keep_chains = {}
        chain = memo.get(tensor)
        if chain is None:
            chain = [lvl.level for lvl in self.levels if lvl.keeps(tensor)]
            memo[tensor] = chain
        return chain

    def to_spec(self) -> list[dict]:
        """Serializable spec form: the same list-of-level-entries shape
        the YAML ``mapping:`` section uses (and
        :func:`repro.io.yaml_spec.load_mapping` parses). Keep sets are
        emitted sorted so equal mappings serialize identically."""
        spec: list[dict] = []
        for lvl in self.levels:
            entry: dict = {"level": lvl.level}
            if lvl.temporal:
                entry["temporal"] = [
                    {"dim": l.dim, "bound": l.bound} for l in lvl.temporal
                ]
            if lvl.spatial:
                entry["spatial"] = [
                    {"dim": l.dim, "bound": l.bound} for l in lvl.spatial
                ]
            if lvl.keep is not None:
                entry["keep"] = sorted(lvl.keep)
            spec.append(entry)
        return spec

    @classmethod
    def from_spec(cls, spec: list[dict]) -> "Mapping":
        """Rebuild a mapping from :meth:`to_spec` output (also the
        parsed YAML ``mapping:`` section)."""
        if not isinstance(spec, list):
            raise MappingError("mapping spec must be a list of level entries")
        levels = []
        for entry in spec:
            try:
                temporal = [
                    Loop(l["dim"], int(l["bound"]))
                    for l in entry.get("temporal", [])
                ]
                spatial = [
                    Loop(l["dim"], int(l["bound"]), spatial=True)
                    for l in entry.get("spatial", [])
                ]
                keep = entry.get("keep")
                levels.append(
                    LevelMapping(
                        entry["level"],
                        temporal,
                        spatial,
                        keep=set(keep) if keep is not None else None,
                    )
                )
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise MappingError(
                    f"malformed mapping level entry {entry!r}: {exc!r}"
                ) from exc
        return cls(levels)

    def cache_key(self) -> tuple:
        """Canonical content key of primitives.

        Two mappings with equal keys schedule identically: same levels,
        same ordered temporal loops, same spatial loops, same keep sets.
        Loops are ``(dim, bound, spatial)`` tuples and keep sets sorted
        tuples, so the key's ``repr`` — what the engine's dense-analysis
        key digests — is the same in every process. (List
        comprehensions: every warm hit builds this key, and they halve
        its cost against generator expressions.)
        """
        return tuple([
            (
                lvl.level,
                tuple([(l.dim, l.bound, l.spatial) for l in lvl.temporal]),
                tuple([(l.dim, l.bound, l.spatial) for l in lvl.spatial]),
                None if lvl.keep is None else tuple(sorted(lvl.keep)),
            )
            for lvl in self.levels
        ])

    def describe(self) -> str:
        lines = []
        indent = 0
        for lvl in self.levels:
            lines.append(" " * indent + f"[{lvl.level}]")
            for loop in lvl.loops():
                indent += 2
                lines.append(" " * indent + repr(loop))
        return "\n".join(lines)


def single_level_mapping(
    arch: Architecture,
    einsum: EinsumSpec,
    order: list[str] | None = None,
) -> Mapping:
    """Trivial mapping: all loops temporal at the innermost level.

    Useful for tests and as a mapper seed. ``order`` gives the loop
    order (outermost first); default is the einsum's dim order.
    """
    dims = order or list(einsum.dims)
    levels = []
    for idx, level in enumerate(arch.levels):
        if idx == len(arch.levels) - 1:
            temporal = [Loop(d, einsum.dims[d]) for d in dims]
        else:
            temporal = []
        levels.append(LevelMapping(level.name, temporal))
    return Mapping(levels)
