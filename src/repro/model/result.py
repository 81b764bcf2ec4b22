"""Evaluation results: the model's outputs for one (design, workload).

Results are first-class *data*: every result type carries a versioned,
stable serialization (``to_dict`` / ``from_dict`` / ``to_json`` /
``from_json``, ``schema: 1``) so results can be logged, diffed in CI,
stored next to experiments, or served over a wire. Round-trips are
bit-exact for every numeric field — ``from_dict(r.to_dict()).to_dict()
== r.to_dict()`` — across all bundled designs.

What the schema covers: the evaluated mapping (in the YAML ``mapping:``
spec shape) and every derived number — dense traffic records, sparse
action breakdowns, latency, energy, and capacity-usage reports (whether
or not the tiles fit). What it deliberately omits: the input
*objects* — the workload's density models (which may embed whole
tensors) and the architecture — which belong to the job spec, not the
result. A deserialized result therefore has ``dense.workload`` /
``dense.arch`` set to ``None``; every metric, property, and summary
still works.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.common.errors import MappingError, SpecError
from repro.dataflow.nest_analysis import DenseTraffic, TensorTraffic
from repro.mapping.mapping import Mapping
from repro.micro.energy import EnergyResult, energy_view
from repro.micro.latency import LatencyResult, latency_view
from repro.micro.record import EvaluationRecord
from repro.micro.validity import LevelUsage, usage_view
from repro.search.frontier import ParetoFrontier
from repro.sparse.traffic import (
    ACTION_CHANNELS,
    ActionBreakdown,
    LevelTensorActions,
    SparseTraffic,
    unpack_sparse,
)

#: Version of the serialized result schema. Bump only on incompatible
#: key/layout changes; consumers should reject versions they don't
#: know (``from_dict`` does).
RESULT_SCHEMA_VERSION = 1

#: Scalar fields of one dense traffic record, serialized in this order.
_TRAFFIC_FIELDS = (
    "tile_size",
    "instances",
    "episodes",
    "distinct",
    "reads",
    "writes",
    "fills",
    "drains",
    "rmw_reads",
    "refill_writes",
    "compute_feed_reads",
    "update_writes",
)

#: Scalar fields of one sparse (level, tensor) record.
_SPARSE_SCALARS = (
    "occupancy_words",
    "worst_occupancy_words",
    "compression_rate",
    "intersection_checks",
)


class SerializableResult:
    """Shared JSON-text round-trip for every result kind; subclasses
    provide the ``to_dict``/``from_dict`` pair."""

    def to_dict(self) -> dict:  # pragma: no cover - subclasses override
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict):  # pragma: no cover - overridden
        raise NotImplementedError

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


def decode_envelope(data: dict, kind: str, noun: str, build):
    """Validate a serialized ``kind`` envelope (a dict of this build's
    schema version with that ``kind`` tag), then run ``build()`` with
    body-level failures (missing keys, wrong value shapes) normalised to
    :class:`SpecError`, so callers get one exception type for any
    malformed input, never a raw ``KeyError``. ``noun`` (``"result"``
    or ``"job"``) words the messages. Every result and job
    ``from_dict`` decodes through here."""
    if not isinstance(data, dict):
        raise SpecError(
            f"serialized {noun} must be a dict, got {type(data).__name__}"
        )
    version = data.get("schema")
    if version != RESULT_SCHEMA_VERSION:
        raise SpecError(
            f"unsupported {noun} schema version {version!r} "
            f"(this build reads version {RESULT_SCHEMA_VERSION})"
        )
    found = data.get("kind")
    if found != kind:
        raise SpecError(f"expected a {kind!r} {noun}, got kind {found!r}")
    try:
        return build()
    except SpecError:
        raise
    except (KeyError, TypeError, AttributeError) as exc:
        raise SpecError(f"malformed serialized {kind} {noun}: {exc!r}") from exc


def _breakdown_to_dict(b: ActionBreakdown) -> dict:
    return {"actual": b.actual, "gated": b.gated, "skipped": b.skipped}


def _breakdown_from_dict(data: dict) -> ActionBreakdown:
    return ActionBreakdown(
        actual=data["actual"], gated=data["gated"], skipped=data["skipped"]
    )


def _dense_to_dict(dense: DenseTraffic) -> dict:
    records = []
    for (level, tensor), rec in dense.traffic.items():
        entry = {
            "level": level,
            "tensor": tensor,
            "level_index": rec.level_index,
            "tile_dim_extents": dict(rec.tile_dim_extents),
            "tile_rank_extents": list(rec.tile_rank_extents),
        }
        for name in _TRAFFIC_FIELDS:
            entry[name] = getattr(rec, name)
        records.append(entry)
    return {
        "computes": dense.computes,
        "utilized_compute_instances": dense.utilized_compute_instances,
        "latch_extents": {
            tensor: dict(extents)
            for tensor, extents in dense.latch_extents.items()
        },
        "traffic": records,
    }


def _dense_from_dict(data: dict, mapping: Mapping | None) -> DenseTraffic:
    traffic = {}
    for entry in data["traffic"]:
        rec = TensorTraffic(
            tensor=entry["tensor"],
            level=entry["level"],
            level_index=entry["level_index"],
            tile_size=entry["tile_size"],
            tile_dim_extents=dict(entry["tile_dim_extents"]),
            tile_rank_extents=tuple(entry["tile_rank_extents"]),
            instances=entry["instances"],
            episodes=entry["episodes"],
            distinct=entry["distinct"],
        )
        for name in _TRAFFIC_FIELDS[4:]:
            setattr(rec, name, entry[name])
        traffic[(entry["level"], entry["tensor"])] = rec
    return DenseTraffic(
        workload=None,
        arch=None,
        mapping=mapping,
        traffic=traffic,
        computes=data["computes"],
        utilized_compute_instances=data["utilized_compute_instances"],
        latch_extents={
            tensor: dict(extents)
            for tensor, extents in data["latch_extents"].items()
        },
    )


def _sparse_to_dict(sparse: SparseTraffic) -> dict:
    records = []
    for (level, tensor), actions in sparse.actions.items():
        entry = {"level": level, "tensor": tensor}
        for channel in ACTION_CHANNELS:
            entry[channel] = _breakdown_to_dict(getattr(actions, channel))
        for name in _SPARSE_SCALARS:
            entry[name] = getattr(actions, name)
        records.append(entry)
    return {
        "compute": _breakdown_to_dict(sparse.compute),
        "compute_fractions": list(sparse.compute_fractions),
        "actions": records,
    }


def _sparse_from_dict(data: dict) -> SparseTraffic:
    actions = {}
    for entry in data["actions"]:
        rec = LevelTensorActions(tensor=entry["tensor"], level=entry["level"])
        for channel in ACTION_CHANNELS:
            setattr(rec, channel, _breakdown_from_dict(entry[channel]))
        for name in _SPARSE_SCALARS:
            setattr(rec, name, entry[name])
        actions[(entry["level"], entry["tensor"])] = rec
    return SparseTraffic(
        actions=actions,
        compute=_breakdown_from_dict(data["compute"]),
        compute_fractions=tuple(data["compute_fractions"]),
    )


def _latency_to_dict(latency: LatencyResult) -> dict:
    return {
        "cycles": latency.cycles,
        "bottleneck": latency.bottleneck,
        "per_component": dict(latency.per_component),
        "bandwidth_demand": dict(latency.bandwidth_demand),
        "compute_cycles": latency.compute_cycles,
    }


def _latency_from_dict(data: dict) -> LatencyResult:
    return LatencyResult(
        cycles=data["cycles"],
        bottleneck=data["bottleneck"],
        per_component=dict(data["per_component"]),
        bandwidth_demand=dict(data["bandwidth_demand"]),
        compute_cycles=data["compute_cycles"],
    )


def _energy_to_dict(energy: EnergyResult) -> dict:
    return {
        "total_pj": energy.total_pj,
        "per_component": dict(energy.per_component),
        "per_component_breakdown": {
            name: dict(parts)
            for name, parts in energy.per_component_breakdown.items()
        },
    }


def _energy_from_dict(data: dict) -> EnergyResult:
    return EnergyResult(
        total_pj=data["total_pj"],
        per_component=dict(data["per_component"]),
        per_component_breakdown={
            name: dict(parts)
            for name, parts in data["per_component_breakdown"].items()
        },
    )


def _usage_to_list(usage: dict[str, LevelUsage]) -> list[dict]:
    return [
        {
            "level": report.level,
            "capacity_words": report.capacity_words,
            "used_words": report.used_words,
            "per_tensor": dict(report.per_tensor),
        }
        for report in usage.values()
    ]


def _usage_from_list(entries: list[dict]) -> dict[str, LevelUsage]:
    return {
        entry["level"]: LevelUsage(
            level=entry["level"],
            capacity_words=entry["capacity_words"],
            used_words=entry["used_words"],
            per_tensor=dict(entry["per_tensor"]),
        )
        for entry in entries
    }


@dataclass(eq=False)
class EvaluationResult(SerializableResult):
    """Processing speed, energy, and traffic for one evaluation.

    An engine result reads its :class:`~repro.micro.record.
    EvaluationRecord`: ``cycles``, ``energy_pj``, ``edp`` and the
    ``"summary"`` projection come straight from the record's buffer,
    and ``sparse``, ``usage``, ``latency`` and ``energy`` are built from
    it on first access and kept on this result. They are this result's
    own objects, so mutating them changes no other result and no
    cache entry. A deserialized result (:meth:`from_dict`) has no
    record and carries the objects themselves. ``==`` compares the
    names, the dense analysis and those four objects, whichever form
    holds them.
    """

    design_name: str
    workload_name: str
    dense: DenseTraffic
    record: EvaluationRecord | None = field(default=None, repr=False)
    _sparse: SparseTraffic | None = field(default=None, repr=False)
    _usage: dict[str, LevelUsage] | None = field(default=None, repr=False)
    _latency: LatencyResult | None = field(default=None, repr=False)
    _energy: EnergyResult | None = field(default=None, repr=False)

    @property
    def sparse(self) -> SparseTraffic:
        if self._sparse is None:
            self._sparse = unpack_sparse(
                self.record.layout.slots, self.record.values
            )
        return self._sparse

    @property
    def usage(self) -> dict[str, LevelUsage]:
        if self._usage is None:
            self._usage = usage_view(self.record.layout, self.record.values)
        return self._usage

    @property
    def latency(self) -> LatencyResult:
        if self._latency is None:
            self._latency = latency_view(self.record.layout, self.record.values)
        return self._latency

    @property
    def energy(self) -> EnergyResult:
        if self._energy is None:
            self._energy = energy_view(self.record.layout, self.record.values)
        return self._energy

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvaluationResult):
            return NotImplemented
        return (
            self.design_name,
            self.workload_name,
            self.dense,
            self.sparse,
            self.latency,
            self.energy,
            self.usage,
        ) == (
            other.design_name,
            other.workload_name,
            other.dense,
            other.sparse,
            other.latency,
            other.energy,
            other.usage,
        )

    def __getstate__(self) -> dict:
        # Objects built from a record are rebuilt on demand, not shipped.
        state = dict(self.__dict__)
        if self.record is not None:
            state.update(_sparse=None, _usage=None, _latency=None, _energy=None)
        return state

    @property
    def cycles(self) -> float:
        if self.record is not None:
            return self.record.cycles
        return self.latency.cycles

    @property
    def energy_pj(self) -> float:
        if self.record is not None:
            return self.record.energy_pj
        return self.energy.total_pj

    @property
    def edp(self) -> float:
        """Energy-delay product (pJ x cycles)."""
        return self.energy_pj * self.cycles

    @property
    def energy_per_compute(self) -> float:
        computes = max(1.0, self.sparse.compute.actual)
        return self.energy_pj / computes

    @property
    def actual_computes(self) -> float:
        return self.sparse.compute.actual

    def level_energy(self, level: str) -> float:
        return self.energy.component(level)

    def level_cycles(self, level: str) -> float:
        return self.latency.per_component.get(level, 0.0)

    def compression_rate(self, level: str, tensor: str) -> float:
        return self.sparse.at(level, tensor).compression_rate

    def summary(self) -> str:
        lines = [
            f"{self.design_name} / {self.workload_name}",
            f"  cycles: {self.cycles:.4g} (bottleneck: {self.latency.bottleneck},"
            f" utilization {self.latency.utilization:.1%})",
            f"  energy: {self.energy_pj:.6g} pJ  (EDP {self.edp:.6g})",
            "  computes: "
            f"actual {self.sparse.compute.actual:.4g}, "
            f"gated {self.sparse.compute.gated:.4g}, "
            f"skipped {self.sparse.compute.skipped:.4g}",
        ]
        for name, energy in sorted(
            self.energy.per_component.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"    {name}: {energy:.6g} pJ")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization (schema v1)

    def to_dict(self, *, fields=None) -> dict:
        """Serialize to the versioned, JSON-compatible schema.

        ``fields`` (an iterable of top-level key names) projects the
        payload: only the named keys plus the ``schema``/``kind``
        envelope are emitted, and sub-dicts projected away are never
        built — a sweep client reading one scalar per candidate skips
        most of the serialization cost. The virtual ``"summary"``
        field (``cycles``/``energy_pj``/``edp``) exists only under
        projection. Projected payloads are partial and do not
        round-trip through :meth:`from_dict`; the default
        (``fields=None``) output is the full schema, unchanged.
        """
        builders = {
            "design": lambda: self.design_name,
            "workload": lambda: self.workload_name,
            "mapping": lambda: (
                None
                if self.dense.mapping is None
                else self.dense.mapping.to_spec()
            ),
            "dense": lambda: _dense_to_dict(self.dense),
            "sparse": lambda: _sparse_to_dict(self.sparse),
            "latency": lambda: _latency_to_dict(self.latency),
            "energy": lambda: _energy_to_dict(self.energy),
            "usage": lambda: _usage_to_list(self.usage),
        }
        data = {"schema": RESULT_SCHEMA_VERSION, "kind": "evaluation"}
        if fields is None:
            for key, build in builders.items():
                data[key] = build()
            return data
        keep = set(fields)
        if "summary" in keep:
            data["summary"] = {
                "cycles": self.cycles,
                "energy_pj": self.energy_pj,
                "edp": self.edp,
            }
        for key, build in builders.items():
            if key in keep:
                data[key] = build()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationResult":
        """Rebuild a result from :meth:`to_dict` output.

        The reconstructed result reproduces every serialized number
        bit-exactly and carries its objects (it has no record); the
        ``dense.workload`` / ``dense.arch`` input back-references (not
        part of the schema) come back ``None``.
        """
        def build() -> "EvaluationResult":
            mapping = (
                None
                if data["mapping"] is None
                else Mapping.from_spec(data["mapping"])
            )
            return cls(
                design_name=data["design"],
                workload_name=data["workload"],
                dense=_dense_from_dict(data["dense"], mapping),
                _sparse=_sparse_from_dict(data["sparse"]),
                _latency=_latency_from_dict(data["latency"]),
                _energy=_energy_from_dict(data["energy"]),
                _usage=_usage_from_list(data["usage"]),
            )

        return decode_envelope(data, "evaluation", "result", build)



@dataclass
class SearchResult(SerializableResult):
    """Outcome of one mapspace search: the winning evaluation (or
    ``None`` when no candidate within budget was valid) plus the search
    parameters that produced it. ``budget``/``seed`` are ``None`` when
    the search scanned explicit candidates, which bypass sampling.

    Results are self-describing: ``objective`` records the objective
    spec that produced ``best_score`` (a metric name, a weighted/multi
    spec dict, or a descriptive ``{"callable": ...}`` record for
    legacy callables — see :mod:`repro.search.objective`),
    ``strategy`` the scan that ran, ``best_index`` the winner's
    candidate-stream index, and ``frontier`` the Pareto frontier over
    the objective's axes (for scalar objectives, the single winning
    point). All of it rides the same schema-v1 envelope and
    round-trips bit-exactly."""

    design_name: str
    workload_name: str
    budget: int | None
    seed: int | None
    best: EvaluationResult | None
    objective: object = None
    strategy: str | None = None
    best_score: float | None = None
    best_index: int | None = None
    frontier: ParetoFrontier | None = None

    @property
    def found(self) -> bool:
        return self.best is not None

    def best_or_raise(self) -> EvaluationResult:
        """The winning evaluation, or :class:`MappingError` when the
        search found no valid mapping."""
        if self.best is None:
            scope = (
                "among the explicit candidates"
                if self.budget is None
                else f"within budget {self.budget}"
            )
            raise MappingError(
                f"no valid mapping found for {self.design_name!r} on "
                f"{self.workload_name!r} {scope}"
            )
        return self.best

    def to_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "kind": "search",
            "design": self.design_name,
            "workload": self.workload_name,
            "budget": self.budget,
            "seed": self.seed,
            "objective": self.objective,
            "strategy": self.strategy,
            "best_score": self.best_score,
            "best_index": self.best_index,
            "best": None if self.best is None else self.best.to_dict(),
            "frontier": (
                None if self.frontier is None else self.frontier.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchResult":
        def build() -> "SearchResult":
            best = data["best"]
            frontier = data.get("frontier")
            return cls(
                design_name=data["design"],
                workload_name=data["workload"],
                budget=data["budget"],
                seed=data["seed"],
                best=(
                    None if best is None else EvaluationResult.from_dict(best)
                ),
                objective=data.get("objective"),
                strategy=data.get("strategy"),
                best_score=data.get("best_score"),
                best_index=data.get("best_index"),
                frontier=(
                    None
                    if frontier is None
                    else ParetoFrontier.from_dict(frontier)
                ),
            )

        return decode_envelope(data, "search", "result", build)



@dataclass
class SearchShardResult(SerializableResult):
    """One shard's contribution to a distributed mapspace search.

    Produced by :func:`repro.distributed.worker.run_shard`: the Pareto
    frontier over the shard's slice of the candidate stream (points
    carry *global* stream indices), the scan counters, and the
    authoritative end-of-shard state — the stream position and index
    counter reached plus the overflow-witness set held there — which
    downstream shards use to fast-forward their prefix replay.

    Unlike :class:`SearchResult`, frontier points here ship their full
    evaluations (``results``: frontier index → :class:`EvaluationResult`)
    so the coordinator can rebuild the winning result after merging;
    ``ParetoFrontier.to_dict`` deliberately drops results, so they ride
    in a parallel index-keyed table and are reattached on
    :meth:`from_dict`.
    """

    shard_id: int
    start: int
    stop: int
    position_end: int
    index_end: int
    evaluated: int
    withheld: int
    rejected: int
    frontier: ParetoFrontier
    witnesses: dict
    results: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "kind": "search-shard",
            "shard": self.shard_id,
            "start": self.start,
            "stop": self.stop,
            "position_end": self.position_end,
            "index_end": self.index_end,
            "evaluated": self.evaluated,
            "withheld": self.withheld,
            "rejected": self.rejected,
            "frontier": self.frontier.to_dict(),
            "witnesses": {
                level: [dict(w) for w in entries]
                for level, entries in self.witnesses.items()
            },
            "results": [
                [index, result.to_dict()]
                for index, result in sorted(self.results.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchShardResult":
        def build() -> "SearchShardResult":
            from dataclasses import replace as _replace

            results = {
                int(index): EvaluationResult.from_dict(entry)
                for index, entry in data["results"]
            }
            frontier = ParetoFrontier.from_dict(data["frontier"])
            frontier._points = [
                _replace(point, result=results.get(point.index))
                for point in frontier._points
            ]
            return cls(
                shard_id=data["shard"],
                start=data["start"],
                stop=data["stop"],
                position_end=data["position_end"],
                index_end=data["index_end"],
                evaluated=data["evaluated"],
                withheld=data["withheld"],
                rejected=data["rejected"],
                frontier=frontier,
                witnesses={
                    level: [dict(w) for w in entries]
                    for level, entries in data["witnesses"].items()
                },
                results=results,
            )

        return decode_envelope(data, "search-shard", "result", build)


@dataclass
class NetworkLayerResult:
    """One network layer's evaluation, with its repeat count."""

    layer_name: str
    repeat: int
    result: EvaluationResult


@dataclass
class NetworkResult(SerializableResult):
    """Per-layer results of a full-network evaluation (Sec 6.1).

    Totals weight each layer by its repeat count, matching the paper's
    whole-network methodology.
    """

    design_name: str
    layers: list[NetworkLayerResult]

    @property
    def total_cycles(self) -> float:
        return sum(l.repeat * l.result.cycles for l in self.layers)

    @property
    def total_energy_pj(self) -> float:
        return sum(l.repeat * l.result.energy_pj for l in self.layers)

    def layer(self, name: str) -> NetworkLayerResult:
        for entry in self.layers:
            if entry.layer_name == name:
                return entry
        raise KeyError(f"no layer {name!r} in this network result")

    def to_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "kind": "network",
            "design": self.design_name,
            "layers": [
                {
                    "name": entry.layer_name,
                    "repeat": entry.repeat,
                    "result": entry.result.to_dict(),
                }
                for entry in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkResult":
        def build() -> "NetworkResult":
            return cls(
                design_name=data["design"],
                layers=[
                    NetworkLayerResult(
                        layer_name=entry["name"],
                        repeat=entry["repeat"],
                        result=EvaluationResult.from_dict(entry["result"]),
                    )
                    for entry in data["layers"]
                ],
            )

        return decode_envelope(data, "network", "result", build)


@dataclass
class FusedEinsumResult:
    """One einsum's evaluation inside a fused cascade."""

    einsum_name: str
    result: EvaluationResult


@dataclass
class FusedResult(SerializableResult):
    """Per-einsum results of a fused einsum-graph evaluation.

    ``einsums`` holds one entry per graph einsum, in graph order;
    ``shared`` attributes the intermediate tensors' traffic: one record
    per intermediate with its producer/consumer einsums, the words
    moved at the fusion level, and the words moved at the outermost
    (backing-store) level — zero when fused, the DRAM round trip when
    not.
    """

    design_name: str
    graph_name: str
    einsums: list[FusedEinsumResult]
    fuse_at: str | None = None
    shared: list[dict] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(e.result.cycles for e in self.einsums)

    @property
    def total_energy_pj(self) -> float:
        return sum(e.result.energy_pj for e in self.einsums)

    def einsum(self, name: str) -> FusedEinsumResult:
        for entry in self.einsums:
            if entry.einsum_name == name:
                return entry
        raise KeyError(f"no einsum {name!r} in this fused result")

    def shared_tensor(self, tensor: str) -> dict:
        for entry in self.shared:
            if entry.get("tensor") == tensor:
                return entry
        raise KeyError(f"no shared tensor {tensor!r} in this fused result")

    @property
    def intermediate_backing_words(self) -> float:
        """Total words the intermediates move at the outermost storage
        level (the fused-vs-unfused benchmark's headline metric)."""
        return sum(
            sum(entry.get("backing_words", {}).values())
            for entry in self.shared
        )

    def summary(self) -> str:
        fusion = (
            "unfused (degenerate)"
            if self.fuse_at is None
            else f"fused at {self.fuse_at}"
        )
        lines = [
            f"{self.design_name} / {self.graph_name} ({fusion})",
            f"  cycles: {self.total_cycles:.4g}",
            f"  energy: {self.total_energy_pj:.6g} pJ",
        ]
        for entry in self.einsums:
            lines.append(
                f"  {entry.einsum_name}: cycles {entry.result.cycles:.4g}, "
                f"energy {entry.result.energy_pj:.6g} pJ"
            )
        for entry in self.shared:
            backing = sum(entry.get("backing_words", {}).values())
            fusion_words = sum(entry.get("fusion_words", {}).values())
            lines.append(
                f"  intermediate {entry.get('tensor')}: "
                f"{entry.get('producer')} -> "
                f"{', '.join(entry.get('consumers', []))}; "
                f"backing {backing:.4g} words, "
                f"fusion-level {fusion_words:.4g} words"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "kind": "fused",
            "design": self.design_name,
            "graph": self.graph_name,
            "fuse_at": self.fuse_at,
            "einsums": [
                {
                    "name": entry.einsum_name,
                    "result": entry.result.to_dict(),
                }
                for entry in self.einsums
            ],
            "shared": [dict(entry) for entry in self.shared],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FusedResult":
        def build() -> "FusedResult":
            # ``fuse_at`` and ``shared`` are read leniently: a minimal
            # (or older) schema-v1 envelope carrying only the per-einsum
            # results rebuilds with the degenerate defaults instead of
            # raising KeyError.
            return cls(
                design_name=data["design"],
                graph_name=data["graph"],
                einsums=[
                    FusedEinsumResult(
                        einsum_name=entry["name"],
                        result=EvaluationResult.from_dict(entry["result"]),
                    )
                    for entry in data["einsums"]
                ],
                fuse_at=data.get("fuse_at"),
                shared=[dict(entry) for entry in data.get("shared") or []],
            )

        return decode_envelope(data, "fused", "result", build)

