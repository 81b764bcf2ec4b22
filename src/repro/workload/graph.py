"""Einsum graphs: cascades of einsums over shared intermediate tensors.

The single-einsum model (Sec 5.1) evaluates one kernel at a time;
multi-phase workloads such as transformer attention (QK -> softmax ->
AV) are *cascades*: later einsums consume tensors earlier einsums
produce. An :class:`EinsumGraph` names the member einsums and derives
the producer/consumer edges from tensor names — a tensor appearing as
the output of one einsum and an input of another is an *intermediate*
shared between them.

Validation happens at construction (so the YAML front-end and the wire
``from_dict`` surface :class:`SpecError` at load time):

* einsum names are unique and non-empty,
* every tensor has at most one producer,
* shared tensors agree on their dense shape (per-rank extents) between
  producer and every consumer,
* the dependency graph is acyclic, and the einsums are listed in a
  topological order (producers before consumers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SpecError
from repro.workload.einsum import EinsumSpec, einsum_from_dict, einsum_to_dict

GRAPH_SCHEMA_VERSION = 1


@dataclass
class EinsumGraph:
    """A DAG of named einsums sharing tensors by name."""

    name: str
    einsums: list[EinsumSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("einsum graph needs a non-empty name")
        if not self.einsums:
            raise SpecError(f"einsum graph {self.name!r} has no einsums")
        names = [e.name for e in self.einsums]
        if len(set(names)) != len(names):
            raise SpecError(
                f"duplicate einsum names in graph {self.name!r}: {names}"
            )
        producers: dict[str, str] = {}
        for spec in self.einsums:
            out = spec.output.name
            if out in producers:
                raise SpecError(
                    f"graph {self.name!r}: tensor {out!r} produced by both "
                    f"{producers[out]!r} and {spec.name!r}"
                )
            producers[out] = spec.name
        # Topological order: every consumed intermediate must already
        # have been produced by an earlier einsum. Listing a consumer
        # before its producer is either a cycle or a mis-ordered spec;
        # both are rejected (callers can sort explicitly).
        seen_outputs: set[str] = set()
        for spec in self.einsums:
            for tensor in spec.inputs:
                producer = producers.get(tensor.name)
                if producer is not None and tensor.name not in seen_outputs:
                    raise SpecError(
                        f"graph {self.name!r}: einsum {spec.name!r} consumes "
                        f"{tensor.name!r} before its producer {producer!r} "
                        f"(cycle or non-topological order)"
                    )
            seen_outputs.add(spec.output.name)
        # Shared tensors must agree on their dense shape everywhere.
        shapes: dict[str, tuple[tuple[int, ...], str]] = {}
        for spec in self.einsums:
            for tensor in spec.tensors:
                shape = spec.tensor_shape(tensor.name)
                prior = shapes.get(tensor.name)
                if prior is None:
                    shapes[tensor.name] = (shape, spec.name)
                elif prior[0] != shape:
                    raise SpecError(
                        f"graph {self.name!r}: tensor {tensor.name!r} has "
                        f"shape {prior[0]} in einsum {prior[1]!r} but "
                        f"{shape} in einsum {spec.name!r}"
                    )
        self._producers = producers

    def einsum(self, name: str) -> EinsumSpec:
        for spec in self.einsums:
            if spec.name == name:
                return spec
        raise SpecError(f"graph {self.name!r} has no einsum {name!r}")

    def producer_of(self, tensor: str) -> str | None:
        """Name of the einsum producing ``tensor`` (``None`` if it is a
        graph input)."""
        return self._producers.get(tensor)

    def consumers_of(self, tensor: str) -> list[str]:
        """Names of the einsums consuming ``tensor``, in graph order."""
        return [
            spec.name
            for spec in self.einsums
            if any(t.name == tensor for t in spec.inputs)
        ]

    @property
    def intermediates(self) -> list[str]:
        """Tensors produced by one einsum and consumed by another, in
        production order."""
        consumed = {
            t.name for spec in self.einsums for t in spec.inputs
        }
        return [
            spec.output.name
            for spec in self.einsums
            if spec.output.name in consumed
        ]

    @property
    def graph_inputs(self) -> list[str]:
        """Tensors consumed but never produced, first-use order."""
        out: list[str] = []
        for spec in self.einsums:
            for tensor in spec.inputs:
                if tensor.name not in self._producers and tensor.name not in out:
                    out.append(tensor.name)
        return out

    @property
    def graph_outputs(self) -> list[str]:
        """Tensors produced but never consumed, production order."""
        consumed = {
            t.name for spec in self.einsums for t in spec.inputs
        }
        return [
            spec.output.name
            for spec in self.einsums
            if spec.output.name not in consumed
        ]

    @property
    def total_operations(self) -> int:
        return sum(spec.total_operations for spec in self.einsums)

    def tensor_names(self) -> list[str]:
        """All tensor names in the graph, first-appearance order."""
        out: list[str] = []
        for spec in self.einsums:
            for tensor in spec.tensors:
                if tensor.name not in out:
                    out.append(tensor.name)
        return out

    def cache_key(self) -> tuple:
        """Canonical content key of primitives (the engine memoises its
        digest; graphs are frozen by contract once evaluated)."""
        return (
            self.name,
            tuple((spec.name, spec.cache_key()) for spec in self.einsums),
        )

    def to_dict(self) -> dict:
        return {
            "schema": GRAPH_SCHEMA_VERSION,
            "kind": "einsum-graph",
            "name": self.name,
            "einsums": [einsum_to_dict(spec) for spec in self.einsums],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EinsumGraph":
        """Rebuild from :meth:`to_dict` output (also the parsed YAML
        ``graph:`` section). Construction re-runs every einsum- and
        graph-level consistency check, so malformed payloads raise
        :class:`SpecError` here, at load time."""
        if not isinstance(data, dict):
            raise SpecError(
                f"serialized einsum graph must be a dict, got "
                f"{type(data).__name__}"
            )
        version = data.get("schema", GRAPH_SCHEMA_VERSION)
        if version != GRAPH_SCHEMA_VERSION:
            raise SpecError(
                f"unsupported einsum-graph schema version {version!r} "
                f"(this build reads version {GRAPH_SCHEMA_VERSION})"
            )
        try:
            name = data["name"]
            entries = data["einsums"]
        except KeyError as exc:
            raise SpecError(
                f"malformed serialized einsum graph: {exc!r}"
            ) from exc
        if not isinstance(entries, list):
            raise SpecError("einsum graph 'einsums' must be a list")
        return cls(
            name=name,
            einsums=[einsum_from_dict(entry) for entry in entries],
        )

    def describe(self) -> str:
        lines = [f"einsum graph {self.name}:"]
        for spec in self.einsums:
            inputs = ", ".join(t.name for t in spec.inputs)
            lines.append(f"  {spec.name}: {spec.output.name} <- {inputs}")
        if self.intermediates:
            lines.append("intermediates: " + ", ".join(self.intermediates))
        return "\n".join(lines)
