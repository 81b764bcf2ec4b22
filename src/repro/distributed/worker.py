"""Worker-side shard scan for distributed search.

:func:`run_shard` executes one :class:`~repro.api.jobs.SearchShardJob`
with the engine's blocked scan (:meth:`Evaluator._scan
<repro.model.engine.Evaluator._scan>`) — the very loop the single-host
batched strategy runs: it rebuilds the search's deterministic unpruned
candidate stream, *replays* the prefix ``[0, start)`` with the scan's
bookkeeping only — witness-withheld candidates consume no stream index,
prefilter-rejected candidates do, monotone overflows register
witnesses — then scans ``[start, stop)`` with the same bookkeeping plus
block evaluation of prefilter survivors.

Why this is bit-identical to the single-host scan (the proof the
tests enforce):

* The unpruned stream is a pure function of the job payload
  (:func:`sampled_candidates_key`'s contract for sampled streams; the
  factorization enumeration order for exhaustive ones), so every
  shard sees the same candidates at the same positions.
* The scan state at position ``p`` — (index counter, witness set) —
  is a deterministic fold over positions ``0..p``: withholding
  depends only on the witness set, indexing only on withholding, and
  witness registration only on the candidate and the prefilter
  (which is itself stateless per candidate). Replay therefore
  reproduces the single-host state at ``start`` exactly, and the
  shard's survivors get exactly the global indices the single-host
  scan assigns them.
* Evaluation never feeds back into the stream, so deferring it (or
  skipping it for the prefix) cannot change any state the scan
  depends on; and no prefilter *survivor* is ever witness-dominated —
  a candidate dominating a witness at level L has a monotone bound at
  L at least the witness's, which overflowed — so prefix replay
  skipping evaluations can never skip an evaluation the single-host
  scan performed.
* A :class:`WitnessSnapshot` posted by any shard is that shared
  fold's state at its position (every shard passes through identical
  states), so adopting one mid-replay — *replacing* the witness set
  and index counter, then continuing from its position — lands the
  replay in exactly the state it would have computed itself.

Witness exchange is therefore purely an accelerator: it lets shard
``k`` skip replaying work shards ``< k`` already did, and lets a
reassigned shard resume from the dead worker's last reported state,
with the merged result provably unchanged either way. The engine's
process-pool search runs the same scan per shard without a board.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.api.jobs import SearchShardJob
from repro.common.errors import SpecError
from repro.mapping.mapspace import (
    CANDIDATES_STAGE,
    Mapper,
    sampled_candidates_key,
)
from repro.model.engine import (
    SEARCH_BATCH_SIZE,
    ScanState,
    exhaustive_mapspace,
)
from repro.model.result import SearchShardResult

from .plan import WitnessBoard, WitnessSnapshot
from .store import StreamStore, stream_store_for

__all__ = ["resolve_stream", "run_shard", "shard_stream_key"]


def shard_stream_key(job: SearchShardJob) -> str:
    """The shared-store key of ``job``'s candidate stream."""
    identity = sampled_candidates_key(
        job.workload.einsum,
        job.design.arch,
        job.design.constraints,
        job.seed,
        job.budget,
    )
    return StreamStore.key(job.mode, identity, job.budget, job.seed)


def resolve_stream(
    evaluator, job: SearchShardJob, store: StreamStore | None = None
) -> tuple[list, Mapper | None]:
    """The job's full unpruned candidate stream plus a fresh witness
    mapper (``None`` for explicit-candidates jobs).

    Resolution order: explicit candidates from the payload, the
    evaluator's ``"candidates"`` memo stage, the shared stream store,
    deterministic regeneration — all provably identical, so the
    cheapest available source wins. The regenerated/loaded stream is
    cross-checked against ``job.total`` (and the mode against the
    mapspace size rule); a mismatch means the coordinator and worker
    disagree about what the stream *is* — config or version skew — and
    scanning anyway would corrupt the merge, so it raises
    :class:`SpecError` instead.
    """
    if job.candidates is not None:
        if len(job.candidates) != job.total:
            raise SpecError(
                f"shard job carries {len(job.candidates)} explicit "
                f"candidates but declares total={job.total}"
            )
        return list(job.candidates), None

    design, workload = job.design, job.workload
    mapper = Mapper(workload.einsum, design.arch, design.constraints)
    exhaustive = exhaustive_mapspace(mapper, job.budget)
    if exhaustive != (job.mode == "exhaustive"):
        raise SpecError(
            f"shard job declares mode={job.mode!r} but this worker's "
            f"mapspace estimate ({mapper.mapspace_size_estimate()}) vs "
            f"budget ({job.budget}) implies the opposite — "
            "coordinator/worker config or version skew"
        )

    stream = None
    stage = key = None
    if not exhaustive and evaluator.cache is not None:
        key = sampled_candidates_key(
            workload.einsum, design.arch, mapper.constraints,
            job.seed, job.budget,
        )
        stage = evaluator.cache.stage(CANDIDATES_STAGE)
        stream = stage.get(key)
    memoised = stream is not None
    if stream is None and store is not None:
        stream = store.fetch(shard_stream_key(job), total=job.total)
    if stream is None:
        if exhaustive:
            stream = list(mapper.enumerate_mappings())
        else:
            stream = list(mapper.sample_mappings(job.budget, seed=job.seed))
    if len(stream) != job.total:
        raise SpecError(
            f"shard job declares a stream of {job.total} candidates but "
            f"this worker reconstructs {len(stream)} — "
            "coordinator/worker config or version skew"
        )
    if stage is not None and not memoised:
        stage.put(key, stream)
    return list(stream), mapper


def run_shard(
    evaluator,
    job: SearchShardJob,
    board: WitnessBoard | None = None,
    progress: Callable[[dict], None] | None = None,
    store: StreamStore | None = None,
) -> SearchShardResult:
    """Scan one shard; returns its :class:`SearchShardResult`.

    ``board`` (when given) supplies mid-flight witness snapshots from
    other shards — polled between chunks while still replaying — and
    receives this shard's own snapshots. ``progress`` is called with
    incremental state dicts (position, snapshot, best-so-far) after
    every chunk; the serve daemon turns these into progress envelopes
    and the coordinator forwards the embedded snapshots to the other
    workers. Snapshots are only built when one of the two is given.
    ``store`` defaults to the evaluator's persistent tier's stream
    sibling. The gating (``check_capacity``, ``prefilter``) comes from
    the job.
    """
    if not 0 <= job.start <= job.stop <= job.total:
        raise SpecError(
            f"malformed shard range [{job.start}, {job.stop}) of "
            f"total {job.total}"
        )
    if store is None:
        store = stream_store_for(evaluator.persistent)
    stream, mapper = resolve_stream(evaluator, job, store=store)
    seeds = (
        [] if job.snapshot is None
        else [WitnessSnapshot.from_dict(job.snapshot)]
    )

    def _fast_forward(position: int) -> WitnessSnapshot | None:
        if seeds:  # the coordinator's seed snapshot comes first
            return seeds.pop()
        if board is None:
            return None
        return board.best_before(job.start, after=position)

    def _report(state: ScanState) -> None:
        snapshot = WitnessSnapshot(
            position=state.position,
            index=state.index,
            witnesses=mapper.export_witnesses() if mapper else {},
        )
        if board is not None:
            board.post(snapshot)
        if progress is not None:
            progress(
                {
                    "search": job.search_id,
                    "shard": job.shard_id,
                    "snapshot": snapshot.to_dict(),
                    "withheld": state.withheld,
                    "rejected": state.rejected,
                    **state.summary(),
                }
            )

    state = evaluator._scan(
        job.design,
        job.workload,
        stream,
        job.objective,
        mapper=mapper,
        batch_size=job.batch_size or SEARCH_BATCH_SIZE,
        prefilter=job.prefilter and job.check_capacity,
        start=job.start,
        stop=job.stop,
        fast_forward=_fast_forward,
        on_chunk=(
            _report if board is not None or progress is not None else None
        ),
    )
    return SearchShardResult(
        shard_id=job.shard_id,
        start=job.start,
        stop=job.stop,
        position_end=state.position,
        index_end=state.index,
        evaluated=state.evaluated,
        withheld=state.withheld,
        rejected=state.rejected,
        frontier=state.frontier,
        witnesses=mapper.export_witnesses() if mapper is not None else {},
        results={
            point.index: point.result
            for point in state.frontier
            if point.result is not None
        },
    )
