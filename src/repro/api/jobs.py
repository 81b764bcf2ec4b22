"""Job types and handles for the :class:`repro.api.Session` façade.

A *job* is one unit of evaluation work, expressed as plain data:

* :class:`EvaluateJob` — one (design, workload[, mapping]) point,
* :class:`SearchJob` — a mapspace search for one (design, workload),
* :class:`NetworkJob` — a per-layer full-network evaluation,
* :class:`FusedJob` — an einsum-graph evaluation, optionally fused at
  a shared buffer level.

Jobs are constructed directly from Python objects, or by
:meth:`Session.submit` from dicts / YAML strings / YAML paths. They
carry no execution state; submitting one returns a :class:`JobHandle`,
a futures-like ticket the Session resolves — batched, so many pending
evaluate jobs share one process-pool fan-out.

Jobs are also *wire data*: each kind has a ``to_dict``/``from_dict``
pair mirroring the result schema (``schema: 1`` envelopes with a
``kind`` tag; see :mod:`repro.model.result`), and
:func:`job_from_dict` dispatches on the tag. Mappings and candidate
lists serialize structurally via :meth:`Mapping.to_spec`, and search
objectives as their spec data; a callable objective has no spec form
and stays in-process (``to_dict`` raises a :class:`SpecError`).
Designs, workloads and ``densities_for`` have no spec form yet —
bundled designs carry ``mapping_factory`` callables and arbitrary
density models — so they ship as tagged base64 pickles, the same trust
model as the engine's own process-pool protocol. Decode job dicts only
from trusted peers (the serving daemon binds localhost / unix sockets
by default for exactly this reason).
"""

from __future__ import annotations

import base64
import pickle
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.common.errors import SpecError
from repro.mapping.fused import FusedMapping
from repro.mapping.mapping import Mapping
from repro.model.engine import Design
from repro.model.result import RESULT_SCHEMA_VERSION, decode_envelope
from repro.search.objective import (
    OBJECTIVE_NAMES,
    CallableObjective,
    resolve_objective,
)
from repro.workload.graph import EinsumGraph
from repro.workload.spec import Workload

__all__ = [
    "EvaluateJob",
    "SearchJob",
    "SearchShardJob",
    "NetworkJob",
    "FusedJob",
    "JobHandle",
    "job_from_dict",
    "job_resendable",
    "JOB_SCHEMA_VERSION",
]

#: Job envelopes version in lockstep with result envelopes: a peer that
#: can read one side of the wire can read the other.
JOB_SCHEMA_VERSION = RESULT_SCHEMA_VERSION


def _pack(obj) -> dict:
    """Tagged wire encoding for payloads with no spec-dict form."""
    return {
        "encoding": "pickle",
        "data": base64.b64encode(
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii"),
    }


def _unpack(blob):
    if blob is None:
        return None
    if not isinstance(blob, dict) or blob.get("encoding") != "pickle":
        raise SpecError(
            "job payloads must be tagged pickle blobs "
            "({'encoding': 'pickle', 'data': ...}), got "
            f"{type(blob).__name__}"
        )
    try:
        return pickle.loads(base64.b64decode(blob["data"]))
    except SpecError:
        raise
    except Exception as exc:
        raise SpecError(f"cannot decode job payload: {exc!r}") from exc


#: The objective forms a job envelope carries.
_OBJECTIVE_SPEC_FORMS = (
    "a metric name (%s), a sequence of names, a {'weighted': {...}} or "
    "a {'multi': [...]} spec" % ", ".join(repr(n) for n in OBJECTIVE_NAMES)
)


def _objective_to_wire(objective):
    """Wire form of a job objective: names and spec dicts as given
    (validated, so a bad name fails at submission), sequences and
    :class:`~repro.search.Objective` instances as their ``to_spec()``.
    A callable objective has no spec form: it stays in-process, and
    serializing it raises a :class:`SpecError`."""
    if objective is None:
        return None
    resolved = resolve_objective(objective)
    if isinstance(resolved, CallableObjective):
        raise SpecError(
            "a callable objective cannot be serialized; keep it "
            f"in-process, or send {_OBJECTIVE_SPEC_FORMS}"
        )
    if isinstance(objective, (str, dict)):
        return objective
    return resolved.to_spec()


def _objective_from_wire(spec):
    """Inverse of :func:`_objective_to_wire`: spec data passes through
    verbatim once validated (the engine resolves it at search time).
    Anything else, a pickle blob included, is a :class:`SpecError`."""
    if spec is None:
        return None
    if isinstance(spec, dict) and "encoding" in spec:
        raise SpecError(
            "objectives travel as spec data, never as pickles: send "
            f"{_OBJECTIVE_SPEC_FORMS}"
        )
    resolve_objective(spec)
    return spec


def _is_int(value, minimum: int | None = None) -> bool:
    """The rule every integer knob follows: an ``int`` that is not a
    ``bool`` (``"8"`` would seed a different random stream than ``8``),
    and at least ``minimum`` when one is given."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and (minimum is None or value >= minimum)
    )


def _check_int(name: str, value, minimum: int | None = None) -> None:
    """Raise a :class:`SpecError` naming ``name`` unless ``value``
    follows :func:`_is_int`."""
    if not _is_int(value, minimum):
        expected = "an integer"
        if minimum is not None:
            expected += f" >= {minimum}"
        raise SpecError(f"{name} must be {expected}, got {value!r}")


def _wire_int(kind: str, name: str, value, *, optional: bool = True):
    """Decode one integer knob of a ``kind`` envelope: a JSON integer
    that is not a bool, or ``null`` where the field is ``optional``.
    Anything else is a :class:`SpecError` naming the job kind and
    field."""
    if value is None and optional:
        return None
    if not _is_int(value):
        expected = "an integer or null" if optional else "an integer"
        raise SpecError(
            f"{kind} field {name!r} must be {expected}, got {value!r}"
        )
    return value


@dataclass
class EvaluateJob:
    """Evaluate one design on one workload.

    ``mapping`` overrides the design's own mapping policy (fixed
    mapping, factory, or constraints-driven search — exactly the rules
    of the evaluation engine).
    """

    design: Design
    workload: Workload
    mapping: Mapping | None = None

    def engine_args(self) -> tuple:
        """The positional job tuple the engine's batch API consumes."""
        if self.mapping is None:
            return (self.design, self.workload)
        return (self.design, self.workload, self.mapping)

    def to_dict(self, *, pack=_pack) -> dict:
        """Serialize to a ``schema: 1`` wire envelope (see module
        docstring for the payload encodings).

        ``pack`` swaps the payload encoder for the design/workload
        blobs; the serving client passes an interning encoder that
        replaces repeated payloads with content-digest references
        (see :mod:`repro.serve.client`). The default wire form is
        self-contained.
        """
        return {
            "schema": JOB_SCHEMA_VERSION,
            "kind": "evaluate-job",
            "design": pack(self.design),
            "workload": pack(self.workload),
            "mapping": None if self.mapping is None else self.mapping.to_spec(),
        }

    @classmethod
    def from_dict(cls, data: dict, *, unpack=_unpack) -> "EvaluateJob":
        """Rebuild from a :meth:`to_dict` envelope. ``unpack`` swaps the
        payload decoder the way ``pack`` swaps the encoder (see
        :func:`job_from_dict`)."""

        def build() -> "EvaluateJob":
            mapping = data["mapping"]
            return cls(
                design=unpack(data["design"]),
                workload=unpack(data["workload"]),
                mapping=None if mapping is None else Mapping.from_spec(mapping),
            )

        return decode_envelope(data, "evaluate-job", "job", build)


@dataclass
class SearchJob:
    """Search the design's mapspace for the best valid mapping.

    ``objective`` takes any form ``repro.search.resolve_objective``
    accepts: ``None`` (EDP), a metric name (``"edp"``, ``"energy"``,
    ``"latency"``, ``"cycles"``, ``"slack"``), a sequence of names
    (vector objective searched as a Pareto frontier), a weighted/multi
    spec dict, an :class:`repro.search.Objective`, or a legacy
    callable scoring an :class:`EvaluationResult` (lower is better;
    must be picklable — a module-level function — when the search fans
    out over worker processes; in-process only, so :meth:`to_dict`
    refuses it).
    Explicit ``candidates`` bypass the design's constraints.
    ``parallel`` overrides the Session's default worker count for this
    job; the fan-out installs the design/workload/candidate state once
    per worker process and ships only candidate index ranges per task
    (see ``docs/caching.md``), so per-task payloads stay O(1)
    regardless of candidate count.

    ``strategy`` picks how candidates are evaluated: ``"batched"``
    (the engine default) scans in candidate blocks — one stacked numpy
    sparse evaluation per block, with sampled candidate streams
    replayed from the ``"candidates"`` cache stage — while
    ``"serial"`` is the per-candidate oracle scan. Both return a
    bit-identical winner; ``batch_size`` tunes the block size
    (``None`` keeps the engine's default of 32).
    ``"evolutionary"`` breeds candidates from the design's mapspace
    instead of scanning a stream (see ``docs/search.md``).

    ``budget`` / ``seed`` (when set) override the executing Session's
    ``search_budget`` / ``search_seed`` for this job, making the job
    fully self-describing on the wire — a worker daemon booted with
    different defaults still scans the exact stream the submitter
    meant. ``shards`` asks for the distributed scan: the Session
    splits the candidate stream into that many contiguous shards and
    fans them out over its worker fleet (see ``docs/distributed.md``);
    the merged result is bit-identical to the single-host batched
    scan. ``progress`` is an in-process observation callback (called
    with incremental progress dicts); it never serializes.
    """

    design: Design
    workload: Workload
    objective: object = None
    candidates: list[Mapping] | None = None
    parallel: int | None = None
    batch_size: int | None = None
    strategy: str | None = None
    budget: int | None = None
    seed: int | None = None
    shards: int | None = None
    progress: Callable[[dict], None] | None = field(
        default=None, compare=False, repr=False
    )

    def to_dict(self) -> dict:
        """Serialize to a ``schema: 1`` wire envelope. The objective
        rides as plain spec data; a callable objective raises a
        :class:`SpecError` before anything is pickled."""
        objective = _objective_to_wire(self.objective)
        return {
            "schema": JOB_SCHEMA_VERSION,
            "kind": "search-job",
            "design": _pack(self.design),
            "workload": _pack(self.workload),
            "objective": objective,
            "candidates": (
                None
                if self.candidates is None
                else [mapping.to_spec() for mapping in self.candidates]
            ),
            "parallel": self.parallel,
            "batch_size": self.batch_size,
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, data: dict, *, unpack=_unpack) -> "SearchJob":
        def build() -> "SearchJob":
            num = partial(_wire_int, "search-job")
            objective = _objective_from_wire(data["objective"])
            candidates = data["candidates"]
            return cls(
                design=unpack(data["design"]),
                workload=unpack(data["workload"]),
                objective=objective,
                candidates=(
                    None
                    if candidates is None
                    else [Mapping.from_spec(spec) for spec in candidates]
                ),
                parallel=num("parallel", data["parallel"]),
                batch_size=num("batch_size", data["batch_size"]),
                strategy=data["strategy"],
                budget=num("budget", data.get("budget")),
                seed=num("seed", data.get("seed")),
                shards=num("shards", data.get("shards")),
            )

        return decode_envelope(data, "search-job", "job", build)


@dataclass
class SearchShardJob:
    """Scan one contiguous shard of a search's candidate stream.

    The distributed coordinator's unit of work (see
    ``docs/distributed.md``): evaluate stream positions ``[start,
    stop)`` of the deterministic unpruned candidate stream defined by
    (design, constraints, ``mode``, ``budget``, ``seed``), replaying
    the prefix ``[0, start)`` through the capacity prefilter and
    overflow-witness bookkeeping — no evaluations — so stream indices
    and witness state are bit-identical to the single-host batched
    scan's at every position. ``total`` is the expected stream length;
    workers regenerate the stream and refuse to run (``SpecError``) if
    theirs disagrees, which catches config/version skew before it can
    corrupt a merge. ``snapshot`` optionally seeds the replay with an
    authoritative upstream scan state (position/index/witnesses) to
    fast-forward it; further snapshots may arrive mid-flight via the
    ``witness-update`` serve op. ``check_capacity`` / ``prefilter``
    pin the executing engine's gating knobs to the coordinator's.

    ``board`` and ``progress`` are in-process attachments (the serve
    daemon wires them up after decoding); they never serialize. Shard
    jobs are pure functions of their payload — witnesses only
    accelerate the replay, never change its outcome — so they are
    always safe to resend.
    """

    design: Design
    workload: Workload
    objective: object = None
    search_id: str = ""
    shard_id: int = 0
    start: int = 0
    stop: int = 0
    total: int = 0
    mode: str = "sampled"
    budget: int = 64
    seed: int = 0
    batch_size: int | None = None
    check_capacity: bool = True
    prefilter: bool = True
    candidates: list[Mapping] | None = None
    snapshot: dict | None = None
    board: object = field(default=None, compare=False, repr=False)
    progress: Callable[[dict], None] | None = field(
        default=None, compare=False, repr=False
    )

    def to_dict(self) -> dict:
        objective = _objective_to_wire(self.objective)
        return {
            "schema": JOB_SCHEMA_VERSION,
            "kind": "search-shard-job",
            "design": _pack(self.design),
            "workload": _pack(self.workload),
            "objective": objective,
            "search_id": self.search_id,
            "shard": self.shard_id,
            "start": self.start,
            "stop": self.stop,
            "total": self.total,
            "mode": self.mode,
            "budget": self.budget,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "check_capacity": self.check_capacity,
            "prefilter": self.prefilter,
            "candidates": (
                None
                if self.candidates is None
                else [mapping.to_spec() for mapping in self.candidates]
            ),
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_dict(cls, data: dict, *, unpack=_unpack) -> "SearchShardJob":
        def build() -> "SearchShardJob":
            num = partial(_wire_int, "search-shard-job", optional=False)
            objective = _objective_from_wire(data["objective"])
            candidates = data["candidates"]
            return cls(
                design=unpack(data["design"]),
                workload=unpack(data["workload"]),
                objective=objective,
                search_id=data["search_id"],
                shard_id=num("shard", data["shard"]),
                start=num("start", data["start"]),
                stop=num("stop", data["stop"]),
                total=num("total", data["total"]),
                mode=data["mode"],
                budget=num("budget", data["budget"]),
                seed=num("seed", data["seed"]),
                batch_size=num(
                    "batch_size", data["batch_size"], optional=True
                ),
                check_capacity=data["check_capacity"],
                prefilter=data["prefilter"],
                candidates=(
                    None
                    if candidates is None
                    else [Mapping.from_spec(spec) for spec in candidates]
                ),
                snapshot=data["snapshot"],
            )

        return decode_envelope(data, "search-shard-job", "job", build)


@dataclass
class NetworkJob:
    """Evaluate a full network layer by layer (Sec 6.1 methodology).

    ``layers`` is a list of :class:`~repro.workload.nets.NetLayer`;
    ``densities_for(layer)`` supplies per-tensor densities for each.
    Identical layers are deduped and the fan-out brackets itself with
    the persistent tier exactly like the engine's network path.
    """

    design: Design
    layers: list = field(default_factory=list)
    densities_for: Callable[[object], dict[str, float]] | None = None
    parallel: int | None = None

    def to_dict(self) -> dict:
        """Serialize to a ``schema: 1`` wire envelope. ``layers`` and
        ``densities_for`` ship as one pickle each (layer objects and
        density callables have no spec form)."""
        return {
            "schema": JOB_SCHEMA_VERSION,
            "kind": "network-job",
            "design": _pack(self.design),
            "layers": _pack(list(self.layers)),
            "densities_for": (
                None if self.densities_for is None else _pack(self.densities_for)
            ),
            "parallel": self.parallel,
        }

    @classmethod
    def from_dict(cls, data: dict, *, unpack=_unpack) -> "NetworkJob":
        def build() -> "NetworkJob":
            num = partial(_wire_int, "network-job")
            return cls(
                design=unpack(data["design"]),
                layers=unpack(data["layers"]) or [],
                densities_for=unpack(data["densities_for"]),
                parallel=num("parallel", data["parallel"]),
            )

        return decode_envelope(data, "network-job", "job", build)


@dataclass
class FusedJob:
    """Evaluate an einsum graph, optionally fused at a buffer level.

    ``graph`` and ``fused`` have structural spec forms and ship as
    plain data; the design ships as one pickle (mapping factories have
    no spec form). ``fused=None`` — or a :class:`FusedMapping` with
    ``fuse_at=None`` — is the degenerate (unfused) form, bit-identical
    per einsum to evaluating the graph as a network layer list.
    """

    design: Design
    graph: EinsumGraph
    densities: dict[str, float] | None = None
    fused: FusedMapping | None = None
    parallel: int | None = None

    def to_dict(self) -> dict:
        """Serialize to a ``schema: 1`` wire envelope."""
        return {
            "schema": JOB_SCHEMA_VERSION,
            "kind": "fused-job",
            "design": _pack(self.design),
            "graph": self.graph.to_dict(),
            "densities": (
                None if self.densities is None else dict(self.densities)
            ),
            "fused": None if self.fused is None else self.fused.to_spec(),
            "parallel": self.parallel,
        }

    @classmethod
    def from_dict(cls, data: dict, *, unpack=_unpack) -> "FusedJob":
        def build() -> "FusedJob":
            num = partial(_wire_int, "fused-job")
            fused = data.get("fused")
            return cls(
                design=unpack(data["design"]),
                graph=EinsumGraph.from_dict(data["graph"]),
                densities=data.get("densities"),
                fused=(
                    None if fused is None else FusedMapping.from_spec(fused)
                ),
                parallel=num("parallel", data.get("parallel")),
            )

        return decode_envelope(data, "fused-job", "job", build)


def job_from_dict(data: dict, *, unpack=_unpack):
    """Rebuild any job from its :meth:`to_dict` envelope, dispatching
    on the ``kind`` tag.

    ``unpack`` decodes every payload field: designs, workloads, network
    layers and ``densities_for`` (which may be ``None``). The default
    returns fresh objects on every call. The serving daemon passes its
    table of decoded payloads, which returns one shared object per
    distinct payload, so decoded specs are frozen by contract (see
    ``docs/serving.md``, "Payload interning").
    """
    if not isinstance(data, dict):
        raise SpecError(
            f"serialized job must be a dict, got {type(data).__name__}"
        )
    kind = data.get("kind")
    kinds = {
        "evaluate-job": EvaluateJob,
        "search-job": SearchJob,
        "search-shard-job": SearchShardJob,
        "network-job": NetworkJob,
        "fused-job": FusedJob,
    }
    cls = kinds.get(kind)
    if cls is None:
        raise SpecError(
            f"unknown job kind {kind!r}; expected one of {sorted(kinds)}"
        )
    return cls.from_dict(data, unpack=unpack)


def job_resendable(job) -> bool:
    """Whether a job in flight on a dropped connection may be silently
    resent on reconnect.

    Evaluate, network, fused, and shard jobs are pure functions of
    their payload — running them twice returns the same result — so
    resending is safe. A mapspace :class:`SearchJob` (``candidates is None``) is
    *not*: it consumes the executing daemon's seeded candidate stream
    and search budget, so a silent re-run would spend budget twice and
    could race a still-running first attempt. The serve client resolves
    such jobs with :class:`~repro.common.errors.WorkerLostError`
    instead (the caller resubmits explicitly once it knows the first
    attempt's fate). An explicit-candidates search job is a pure scan
    and resends fine. ``None`` (protocol ops) is resendable.
    """
    if isinstance(job, SearchJob):
        return job.candidates is not None
    return True


class JobHandle:
    """A futures-like ticket for one submitted job.

    Handles resolve lazily and in bulk: the first :meth:`result` /
    :meth:`exception` call on any pending handle makes its Session run
    *all* pending jobs (evaluate jobs in one batched — optionally
    process-pool — pass), so callers can submit a whole sweep and only
    then start reading results. Expected modeling failures
    (:class:`~repro.common.errors.ReproError` subclasses: malformed
    specs, invalid mappings, capacity overflows) are captured per job;
    :meth:`result` re-raises them, :meth:`exception` returns them.
    """

    __slots__ = ("job", "_session", "_done", "_result", "_exception")

    def __init__(self, session, job):
        self.job = job
        self._session = session
        self._done = False
        self._result = None
        self._exception: BaseException | None = None

    def done(self) -> bool:
        """True once the job has run (successfully or not)."""
        return self._done

    def result(self, timeout: float | None = None):
        """The job's result, running all pending session jobs first.

        Returns an :class:`EvaluationResult` (evaluate jobs), a
        :class:`~repro.model.result.SearchResult` (search jobs), or a
        :class:`~repro.model.result.NetworkResult` (network jobs).
        Re-raises the job's captured error, if it failed.

        Thread-safe. ``timeout`` (seconds) bounds how long to wait for
        the Session lock when another thread is mid-drain; expiry
        raises :class:`TimeoutError` and leaves the handle pending, so
        a later untimed call still resolves it.
        """
        if not self._done and not self._session.run(timeout=timeout):
            raise TimeoutError(
                f"job did not resolve within {timeout:g}s (Session busy)"
            )
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(
        self, timeout: float | None = None
    ) -> BaseException | None:
        """The job's captured failure (``None`` on success), running
        all pending session jobs first. ``timeout`` behaves exactly as
        in :meth:`result`."""
        if not self._done and not self._session.run(timeout=timeout):
            raise TimeoutError(
                f"job did not resolve within {timeout:g}s (Session busy)"
            )
        return self._exception

    def _resolve(self, result=None, exception: BaseException | None = None):
        # Publish the payload before the done flag: result()/exception()
        # fast-path on `_done` without taking the Session lock, so a
        # reader that observes done() must never see a stale payload.
        self._result = result
        self._exception = exception
        self._done = True

    def __repr__(self) -> str:
        state = "pending"
        if self._done:
            state = "failed" if self._exception is not None else "done"
        return f"JobHandle({type(self.job).__name__}, {state})"
