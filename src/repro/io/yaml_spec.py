"""Load Sparseloop-style YAML specifications (Fig. 6).

The original tool consumes YAML descriptions of the architecture,
workload, SAFs, and mapping. This module provides the same front-end
for the Python reproduction. Each loader accepts either a YAML string,
a path to a file, or an already-parsed dict.

Example::

    arch:
      name: simple
      storage:
        - {name: BackingStorage, capacity_words: 65536, component: dram}
        - {name: Buffer, capacity_words: 1024, component: sram,
           read_bandwidth: 4}
      compute: {name: MAC, instances: 4}

    workload:
      kernel: matmul
      dims: {m: 16, k: 16, n: 16}
      densities: {A: 0.25, B: 0.5}

    safs:
      formats:
        - {level: Buffer, tensor: A, format: CSR}
      actions:
        - {kind: skip, target: B, condition_on: [A], level: Buffer}
        - {kind: gate, unit: compute}

    mapping:
      - level: BackingStorage
        temporal: [{dim: m, bound: 4}]
      - level: Buffer
        temporal: [{dim: m, bound: 4}, {dim: k, bound: 16}]
        spatial: [{dim: n, bound: 4}]
        keep: [A, Z]
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.errors import MappingError, SpecError
from repro.mapping.mapping import Mapping
from repro.mapping.mapspace import Mapper, MapspaceConstraints
from repro.model.engine import Design
from repro.sparse.formats import (
    Bitmask,
    CoordinatePayload,
    FormatRank,
    FormatSpec,
    RunLengthEncoding,
    Uncompressed,
    UncompressedBitmask,
    UncompressedOffsetPairs,
    classic_format,
)
from repro.mapping.fused import FusedMapping
from repro.sparse.saf import ComputeSAF, SAFKind, SAFSpec, StorageSAF, _tupled
from repro.workload.einsum import (
    EinsumSpec,
    conv2d,
    depthwise_conv2d,
    einsum_from_dict,
    einsum_to_dict,
    matmul,
)
from repro.workload.graph import EinsumGraph
from repro.workload.spec import Workload

_KERNELS = {
    "matmul": matmul,
    "conv2d": conv2d,
    "depthwise_conv2d": depthwise_conv2d,
}

_RANK_FORMATS = {
    "U": Uncompressed,
    "B": Bitmask,
    "UB": UncompressedBitmask,
    "CP": CoordinatePayload,
    "RLE": RunLengthEncoding,
    "UOP": UncompressedOffsetPairs,
}


def _as_dict(source) -> dict:
    """Accept a dict, a YAML string, or a path to a YAML file. yaml is
    imported only to parse text, so in-process users do not load it."""
    if isinstance(source, dict):
        return source
    import yaml

    if isinstance(source, Path) or (
        isinstance(source, str)
        and "\n" not in source
        and source.endswith((".yaml", ".yml"))
    ):
        try:
            with open(source) as handle:
                parsed = yaml.safe_load(handle)
        except OSError as exc:
            raise SpecError(f"cannot read spec file {source}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise SpecError(f"malformed YAML in {source}: {exc}") from exc
    elif isinstance(source, str):
        try:
            parsed = yaml.safe_load(source)
        except yaml.YAMLError as exc:
            raise SpecError(f"malformed YAML spec: {exc}") from exc
    else:
        raise SpecError(f"cannot load a spec from {type(source).__name__}")
    if not isinstance(parsed, dict):
        raise SpecError(
            "spec must parse to a mapping of sections, got "
            f"{type(parsed).__name__}"
        )
    return parsed


def _level_fields(entry, section: str, cls) -> dict:
    """``entry`` as ``cls`` keyword arguments: a mapping whose keys are
    all fields of ``cls``; anything else is a :class:`SpecError`
    naming it."""
    if not isinstance(entry, dict):
        raise SpecError(f"arch.{section} entry {entry!r} is not a mapping")
    known = [f.name for f in fields(cls)]
    unknown = [key for key in entry if key not in known]
    if unknown:
        raise SpecError(
            f"arch.{section} entry {entry.get('name', entry)!r}: unknown "
            f"key(s) {', '.join(map(repr, unknown))}; known: {known}"
        )
    return dict(entry)


def load_architecture(source) -> Architecture:
    """Build an :class:`Architecture` from its YAML description. A
    storage or compute entry that is not a mapping or names an unknown
    key fails with a :class:`SpecError` naming it."""
    spec = _as_dict(source)
    spec = spec.get("arch", spec)
    storage_specs = spec.get("storage")
    if not storage_specs:
        raise SpecError("architecture spec needs a 'storage' list")
    if not isinstance(storage_specs, list):
        raise SpecError(f"arch.storage must be a list, got {storage_specs!r}")
    levels = []
    for entry in storage_specs:
        entry = _level_fields(entry, "storage", StorageLevel)
        name = entry.pop("name", None)
        if name is None:
            raise SpecError("every storage level needs a 'name'")
        levels.append(StorageLevel(name, **entry))
    compute_spec = _level_fields(spec.get("compute", {}), "compute", ComputeLevel)
    compute = ComputeLevel(
        name=compute_spec.pop("name", "MAC"), **compute_spec
    )
    return Architecture(spec.get("name", "arch"), levels, compute)


def _parse_densities(section) -> dict[str, float]:
    """A ``densities`` section: a mapping from tensor name to a number
    (an ``int`` or ``float``, never a ``bool``); absent means empty."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise SpecError(
            "densities must map tensor names to numbers, got "
            f"{type(section).__name__}"
        )
    densities: dict[str, float] = {}
    for name, value in section.items():
        if not isinstance(name, str):
            raise SpecError(f"densities: tensor name {name!r} is not a string")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(
                f"densities: {name!r} must be a number, got {value!r}"
            )
        try:
            densities[name] = float(value)
        except OverflowError:
            raise SpecError(
                f"densities: {name!r} is out of range: {value!r}"
            ) from None
    return densities


def load_workload(source) -> Workload:
    """Build a :class:`Workload` from its YAML description."""
    spec = _as_dict(source)
    spec = spec.get("workload", spec)
    kernel_name = spec.get("kernel")
    if kernel_name not in _KERNELS:
        raise SpecError(
            f"unknown kernel {kernel_name!r}; supported: {sorted(_KERNELS)}"
        )
    dims = spec.get("dims", {})
    einsum = _KERNELS[kernel_name](**dims, name=spec.get("name", kernel_name))
    densities = _parse_densities(spec.get("densities"))
    return Workload.uniform(einsum, densities, name=spec.get("name"))


def _parse_format(desc) -> FormatSpec:
    """Parse a format: a classic name ('CSR'), a rank list
    ('B-UOP-RLE', optionally with flattening like 'B^3-RLE'), or a list
    of rank mappings (``{rank: CP, coord_bits: 2, flattened_ranks:
    1}``). A malformed rank fails with a :class:`SpecError` naming it."""
    if isinstance(desc, list):
        return FormatSpec([_parse_rank(item) for item in desc])
    text = str(desc)
    try:
        return classic_format(text)
    except SpecError:
        pass
    ranks = []
    for token in text.split("-"):
        kind, caret, count = token.partition("^")
        cls = _RANK_FORMATS.get(kind.upper())
        if cls is None:
            raise SpecError(f"unknown rank format {kind!r} in {text!r}")
        flattened = 1
        if caret:
            flattened = int(count) if count.isdecimal() else count
        try:
            ranks.append(FormatRank(cls(), flattened_ranks=flattened))
        except SpecError as exc:
            raise SpecError(f"format rank {token!r} in {text!r}: {exc}")
    return FormatSpec(ranks)


def _parse_rank(item) -> FormatRank:
    """One ``{rank: <name>, <parameter>: <value>, ...}`` item of a rank
    list: the rank format's own parameters plus ``flattened_ranks``."""
    if not isinstance(item, dict) or not isinstance(item.get("rank"), str):
        raise SpecError(
            f"format rank {item!r} must be a mapping with a 'rank' name"
        )
    params = dict(item)
    kind = params.pop("rank")
    cls = _RANK_FORMATS.get(kind)
    if cls is None:
        raise SpecError(f"unknown rank format {kind!r} in {item!r}")
    flattened = params.pop("flattened_ranks", 1)
    try:
        return FormatRank(cls(**params), flattened_ranks=flattened)
    except (TypeError, SpecError) as exc:  # TypeError: unknown parameter
        raise SpecError(f"format rank {item!r}: {exc}") from exc


def _saf_entries(spec: dict, section: str) -> list[dict]:
    """The ``safs.<section>`` list; every entry must be a mapping."""
    entries = spec.get(section, [])
    if not isinstance(entries, list):
        raise SpecError(f"safs.{section} must be a list, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, dict):
            raise SpecError(f"safs.{section} entry {entry!r} is not a mapping")
    return entries


def load_saf_spec(source) -> SAFSpec:
    """Build a :class:`SAFSpec` from its YAML description. A malformed
    ``formats`` or ``actions`` entry fails with a :class:`SpecError`
    naming it."""
    spec = _as_dict(source)
    spec = spec.get("safs", spec)
    formats = {}
    for entry in _saf_entries(spec, "formats"):
        missing = [f for f in ("level", "tensor", "format") if f not in entry]
        if missing:
            raise SpecError(
                f"safs.formats entry {entry!r} lacks "
                f"{', '.join(map(repr, missing))}"
            )
        formats[(entry["level"], entry["tensor"])] = _parse_format(
            entry["format"]
        )
    storage_safs = []
    compute_safs = []
    kinds = [kind.value for kind in SAFKind]
    for entry in _saf_entries(spec, "actions"):
        if entry.get("kind") not in kinds:
            raise SpecError(
                f"safs.actions entry {entry!r}: 'kind' must be one of {kinds}"
            )
        kind = SAFKind(entry["kind"])
        try:
            conditioned = _tupled(entry.get("condition_on", ()))
        except SpecError as exc:
            raise SpecError(
                f"safs.actions entry {entry!r}: 'condition_on' {exc}"
            ) from None
        if entry.get("unit") == "compute" or "target" not in entry:
            compute_safs.append(ComputeSAF(kind, conditioned))
        elif "level" not in entry:
            raise SpecError(
                f"safs.actions entry {entry!r} has a 'target' but no 'level'"
            )
        else:
            storage_safs.append(
                StorageSAF(kind, entry["target"], conditioned, entry["level"])
            )
    return SAFSpec(
        formats=formats,
        storage_safs=storage_safs,
        compute_safs=compute_safs,
    )


def load_mapping(source) -> Mapping:
    """Build a :class:`Mapping` from its YAML description."""
    spec = _as_dict(source)
    spec = spec.get("mapping", spec)
    try:
        return Mapping.from_spec(spec)
    except MappingError as exc:
        # from_spec owns the structural validation; at this boundary a
        # bad mapping section is a malformed *spec*.
        raise SpecError(str(exc)) from exc


def load_constraints(source) -> MapspaceConstraints:
    """Build :class:`MapspaceConstraints` from a ``constraints`` section.

    Example::

        constraints:
          loop_orders: {Buffer: [m, k, n]}
          spatial_dims: {Buffer: [n, m]}
          keep: {Buffer: [A, Z]}
          fixed_factors: {DRAM: {m: 4}}
          max_permutations: 8
    """
    spec = _as_dict(source)
    spec = spec.get("constraints", spec)
    if not isinstance(spec, dict):
        raise SpecError("constraints spec must be a mapping of options")
    known = {
        "loop_orders",
        "spatial_dims",
        "keep",
        "fixed_factors",
        "max_permutations",
    }
    unknown = set(spec) - known
    if unknown:
        raise SpecError(
            f"unknown constraints options {sorted(unknown)}; "
            f"supported: {sorted(known)}"
        )
    try:
        return MapspaceConstraints(
            loop_orders={
                level: list(dims)
                for level, dims in (spec.get("loop_orders") or {}).items()
            },
            spatial_dims={
                level: list(dims)
                for level, dims in (spec.get("spatial_dims") or {}).items()
            },
            keep={
                level: None if tensors is None else set(tensors)
                for level, tensors in (spec.get("keep") or {}).items()
            },
            fixed_factors={
                level: {dim: int(factor) for dim, factor in factors.items()}
                for level, factors in (spec.get("fixed_factors") or {}).items()
            },
            max_permutations=int(spec.get("max_permutations", 8)),
        )
    except (TypeError, ValueError, AttributeError) as exc:
        raise SpecError(f"malformed constraints section: {exc}") from exc


def _load_einsum(entry) -> EinsumSpec:
    """One einsum of a ``graph`` section: either a kernel shorthand
    (``{kernel: matmul, name: fc, dims: {...}}``) or the explicit
    tensors form (:func:`repro.workload.einsum.einsum_from_dict`)."""
    if not isinstance(entry, dict):
        raise SpecError(
            f"graph einsum entries must be dicts, got {type(entry).__name__}"
        )
    if "kernel" in entry:
        kernel_name = entry["kernel"]
        if kernel_name not in _KERNELS:
            raise SpecError(
                f"unknown kernel {kernel_name!r}; supported: "
                f"{sorted(_KERNELS)}"
            )
        dims = entry.get("dims", {})
        try:
            spec = _KERNELS[kernel_name](
                **dims, name=entry.get("name", kernel_name)
            )
        except TypeError as exc:
            raise SpecError(
                f"bad dims for kernel {kernel_name!r}: {exc}"
            ) from exc
        rename = entry.get("rename") or {}
        if rename:
            # Kernel factories hard-code tensor names (matmul: A/B/Z),
            # so chained einsums need renames to share intermediates:
            # {kernel: matmul, name: fc2, rename: {A: H}} consumes the
            # tensor H another einsum produced.
            data = einsum_to_dict(spec)
            known = {tensor["name"] for tensor in data["tensors"]}
            unknown = set(rename) - known
            if unknown:
                raise SpecError(
                    f"rename of unknown tensors {sorted(unknown)} in "
                    f"einsum {spec.name!r}; kernel {kernel_name!r} has "
                    f"{sorted(known)}"
                )
            for tensor in data["tensors"]:
                tensor["name"] = rename.get(tensor["name"], tensor["name"])
            spec = einsum_from_dict(data)
        return spec
    if "tensors" in entry:
        return einsum_from_dict(entry)
    raise SpecError(
        "graph einsum entries need a 'kernel' shorthand or an explicit "
        "'tensors' list"
    )


def load_einsum_graph(source) -> EinsumGraph:
    """Build an :class:`EinsumGraph` from a ``graph`` section.

    Example::

        graph:
          name: mlp
          einsums:
            - {kernel: matmul, name: fc1, dims: {m: 64, k: 32, n: 128}}
            - name: fc2        # explicit form; consumes fc1's output
              dims: {m: 64, k: 128, n: 10}
              tensors: [...]

    Structural validation (duplicate einsum names, multiple producers,
    consumer-before-producer order, shared-tensor shape mismatches,
    malformed einsums) raises :class:`SpecError` /
    :class:`~repro.common.errors.SpecError` at load time.
    """
    spec = _as_dict(source)
    spec = spec.get("graph", spec)
    einsums = spec.get("einsums")
    if not einsums:
        raise SpecError("graph spec needs a non-empty 'einsums' list")
    return EinsumGraph(
        spec.get("name", "graph"), [_load_einsum(entry) for entry in einsums]
    )


def load_fused_mapping(source) -> FusedMapping:
    """Build a :class:`FusedMapping` from a ``fused`` section.

    Example::

        fused:
          fuse_at: Buffer
          mappings:
            fc1: [{level: DRAM, temporal: [...]}, ...]
            fc2: [...]

    Both keys are optional: no ``mappings`` defers sub-nests to the
    design's mapping policy; no ``fuse_at`` is the degenerate (unfused)
    evaluation.
    """
    spec = _as_dict(source)
    spec = spec.get("fused", spec)
    try:
        return FusedMapping.from_spec(spec)
    except MappingError as exc:
        raise SpecError(str(exc)) from exc


def load_fused_spec(source) -> tuple[Design, EinsumGraph, FusedMapping, dict]:
    """Load a full fused-evaluation input: arch + graph (+ safs, fused,
    densities).

    Returns ``(design, graph, fused, densities)`` ready for
    :meth:`repro.api.Session.evaluate_fused`. When the spec provides
    neither per-einsum ``fused.mappings`` nor a ``constraints`` section,
    the design falls back to the shape-agnostic
    :func:`repro.designs.common.generic_einsum_mapping` policy so every
    graph einsum has a schedule.
    """
    spec = _as_dict(source)
    if "graph" not in spec:
        raise SpecError("fused spec needs a 'graph' section")
    arch = load_architecture(spec)
    graph = load_einsum_graph(spec)
    safs = load_saf_spec(spec) if "safs" in spec else SAFSpec()
    fused = (
        load_fused_mapping(spec) if "fused" in spec else FusedMapping()
    )
    constraints = load_constraints(spec) if "constraints" in spec else None
    if constraints is not None:
        # Same load-time cross-check as load_design, against every
        # einsum in the graph — a fused spec's constraints must be
        # satisfiable by each sub-nest's mapspace.
        for einsum in graph.einsums:
            try:
                Mapper(einsum, arch, constraints)
            except MappingError as exc:
                raise SpecError(
                    f"invalid constraints section for einsum "
                    f"{einsum.name!r}: {exc}"
                ) from exc
    mapping_factory = None
    if fused.mappings is None and constraints is None:
        from repro.designs.common import generic_einsum_mapping

        mapping_factory = generic_einsum_mapping
    densities = _parse_densities(spec.get("densities"))
    design = Design(
        name=spec.get("name", arch.name),
        arch=arch,
        safs=safs,
        constraints=constraints,
        mapping_factory=mapping_factory,
    )
    return design, graph, fused, densities


def load_design(source) -> tuple[Design, Workload]:
    """Load a full evaluation input: arch + workload + safs + mapping
    (and/or mapspace constraints).

    Returns the (design, workload) pair ready for
    :meth:`repro.api.Session.evaluate` — designs with a ``mapping``
    section evaluate it directly; designs with only a ``constraints``
    section search the mapspace.
    """
    spec = _as_dict(source)
    arch = load_architecture(spec)
    workload = load_workload(spec)
    safs = load_saf_spec(spec) if "safs" in spec else SAFSpec()
    mapping = load_mapping(spec) if "mapping" in spec else None
    constraints = (
        load_constraints(spec) if "constraints" in spec else None
    )
    if constraints is not None:
        # Cross-check the constraints against this spec's architecture
        # and workload now, with the mapper's own validation (unknown
        # level names, unknown spatial dims): a typo'd constraint is a
        # malformed *spec*, and must fail at load time rather than be
        # silently ignored by a later search.
        try:
            Mapper(workload.einsum, arch, constraints)
        except MappingError as exc:
            raise SpecError(f"invalid constraints section: {exc}") from exc
    design = Design(
        name=spec.get("name", arch.name),
        arch=arch,
        safs=safs,
        mapping=mapping,
        constraints=constraints,
    )
    return design, workload
