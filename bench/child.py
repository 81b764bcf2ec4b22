"""One run of one benchmark workload, in a fresh process.

    python bench/child.py --workload NAME --seed N --seconds S --trace 0|1
                          --workdir DIR --result FILE [--setup-only]

``bench/run.py`` starts one of these per workload run, so no run can
reuse another's warm caches. The child sets the workload up once,
measures for ``S`` seconds, checks the outputs, and writes its metrics,
checks and output digest to ``FILE`` as JSON. Its set-up time runs
from before the program's first import to the end of the set-up, so it
includes every one-time cost a fresh process pays: imports, lazy
initialisation and process-wide caches. With ``--setup-only`` the child
stops after the set-up and reports only that time.

With ``--trace 0`` it reports the end-to-end metrics. With
``--trace 1`` it measures ``S/2`` seconds untraced, then ``S/2``
seconds with the tracer installed, and reports the per-layer metrics
plus the tracing overhead between the two halves.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import sys
import time
from array import array
from pathlib import Path

clock = time.perf_counter_ns
#: The set-up clock starts here, before numpy and the program load.
STARTED = clock()

from hostspeed import HostSpeed  # noqa: E402

#: Samples the host's speed through the set-up, imports included.
SETUP_SPEED = HostSpeed()
if __name__ == "__main__":
    SETUP_SPEED.start_sampling()

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import repro  # noqa: E402  (imported from ROOT/src, checked in main)
from repro import Session, Workload  # noqa: E402
from repro.api import EvaluateJob  # noqa: E402
from repro.common.cache import global_cache  # noqa: E402
from repro.common.errors import ReproError  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from loadgen import Connection, Daemon, answered, peak_rss_mb  # noqa: E402

#: The digest takes the full ``to_json()`` of every Nth job.
DIGEST_FULL_EVERY = 100
#: sweep-cold starts a fresh Session every this many jobs.
SESSION_JOBS = 1000
#: sweep-warm's working set (below the sparse stage's 4096 entries).
WARM_POINTS = 2000
#: Warm-up points per sweep-cold set-up (50 per family).
SWEEP_WARMUP_POINTS = 550
#: Engine stages that must not miss while sweep-warm replays.
WARM_STAGES = ("dense", "sparse", "validity", "latency", "energy")
#: Stages reported as ``cache.<stage>.*`` (tile-format comes from the
#: process-wide cache, the rest from each Session's).
CACHE_STAGES = ("dense", "sparse", "validity", "latency", "energy", "candidates", "tile-format")
SERVE_PHASES = ("low", "high", "sat")
#: Every serve job with ``index % SERVE_CHECK_EVERY == 0`` is
#: re-evaluated in-process and compared.
SERVE_CHECK_EVERY = 50


def per_layer_names() -> list[str]:
    """Every per-layer metric a ``--trace 1`` run reports, in order."""
    names = []
    for layer in [*spans.LAYERS, *spans.DAEMON_LAYERS]:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.share"]
    names += ["dataflow.items", "sparse.items", "search.evaluated_ratio"]
    for stage in CACHE_STAGES:
        names += [f"cache.{stage}.hit_ratio", f"cache.{stage}.misses"]
    for phase in SERVE_PHASES:
        names += [f"server.engine_s.{phase}", f"server.busy_frac.{phase}", f"server.batch_mean.{phase}"]
    for phase in SERVE_PHASES[:2]:
        names += [f"loadgen.late_p99_ms.{phase}", f"loadgen.backlog_max.{phase}"]
    names += ["loadgen.p50_ms.high", "loadgen.p99_ms.low", "loadgen.p99_ms.high"]
    names += ["gc.full_collections", "gc.pause_s", "gc.max_pause_ms"]
    names += ["trace.coverage", "trace.overhead_frac"]
    return names


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Digest:
    """blake2b over every checked job's outputs (``float.hex`` of each
    number, plus the full ``to_json()`` of every 100th job)."""

    def __init__(self):
        self._hash = hashlib.blake2b(digest_size=16)

    def add(self, *values, full: str | None = None) -> None:
        for value in values:
            text = float.hex(value) if isinstance(value, float) else repr(value)
            self._hash.update(text.encode() + b";")
        if full is not None:
            self._hash.update(full.encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def latency_summary(latencies_ms, tail: float) -> dict:
    """Median and ``tail`` percentile of a whole phase's latencies, with
    the sample count and the number of samples beyond the tail."""
    latencies_ms = np.asarray(latencies_ms, dtype=np.float64)
    tail_ms = percentile(latencies_ms, tail)
    return {
        "samples": len(latencies_ms),
        "p50_ms": percentile(latencies_ms, 50),
        "tail_ms": tail_ms,
        "tail_percentile": tail,
        "beyond_tail": int((latencies_ms > tail_ms).sum()),
    }


class Phase:
    """A closed-loop timed phase: per-job latencies, start and end
    times, failures, and the dense computes of everything modeled.
    Between jobs it runs the host-speed calibration loop."""

    def __init__(self, seconds: float, min_ops: int, speed: HostSpeed):
        self.latencies = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.ops = 0
        self.failed = 0
        self.computes = 0
        self.speed = speed
        self.start = clock()
        self.end = self.start
        self._deadline = self.start + int(seconds * 1e9)
        self._min_ops = min_ops

    def running(self) -> bool:
        self.speed.tick()
        self.end = clock()
        return self.end < self._deadline or self.ops < self._min_ops

    def record(self, t0: int, t1: int, computes: int, calibrating_ns: int = 0) -> None:
        """One job from ``t0`` to ``t1``, of which ``calibrating_ns``
        went to calibration loops run inside it."""
        self.latencies.append(t1 - t0 - calibrating_ns)
        self.starts.append(t0)
        self.ends.append(t1)
        self.ops += 1
        self.computes += computes

    def fail(self) -> None:
        self.ops += 1
        self.failed += 1

    @property
    def wall_s(self) -> float:
        return (self.end - self.start) / 1e9

    def raw_ms(self) -> np.ndarray:
        return np.frombuffer(self.latencies, dtype=np.int64) / 1e6

    def scaled_ms(self) -> np.ndarray:
        """Latencies at the reference host speed (see ``hostspeed``)."""
        self.speed.probe()  # so the last jobs have a loop after them
        return self.raw_ms() * self.speed.factors(self.starts, self.ends)


class CacheTally:
    """Sums Session cache counters over the part of each Session's life
    that falls inside the traced phase."""

    def __init__(self):
        self.totals = {stage: {"hits": 0, "misses": 0} for stage in CACHE_STAGES}
        self._base: dict[int, dict] = {}

    def begin(self, session: Session) -> None:
        self._base[id(session)] = session.cache_stats()

    def end(self, session: Session) -> None:
        delta = session.cache_stats(since=self._base.pop(id(session), {}))
        for stage, counters in delta.items():
            if stage in self.totals:
                self.totals[stage]["hits"] += counters["hits"]
                self.totals[stage]["misses"] += counters["misses"]

    def add_tile_format(self, before: dict, after: dict) -> None:
        for key in ("hits", "misses"):
            self.totals["tile-format"][key] += after.get(key, 0) - before.get(key, 0)


def tile_format_stats() -> dict:
    return dict(global_cache().stats().get("tile-format", {}))


def cache_metrics(totals: dict) -> dict:
    metrics = {}
    for stage, counters in totals.items():
        lookups = counters["hits"] + counters["misses"]
        metrics[f"cache.{stage}.hit_ratio"] = counters["hits"] / lookups if lookups else 0.0
        metrics[f"cache.{stage}.misses"] = counters["misses"]
    return metrics


def layer_metrics(stats: dict, busy_s: float) -> dict:
    """``<layer>.calls/.self_s/.share`` plus the item counters; a
    layer's share is its self time over all traced (root span) time."""
    metrics = {}
    for layer, values in stats.items():
        metrics[f"{layer}.calls"] = values["calls"]
        metrics[f"{layer}.self_s"] = values["self_s"]
        metrics[f"{layer}.share"] = values["self_s"] / busy_s if busy_s else 0.0
    metrics["dataflow.items"] = stats["dataflow"]["items"]
    metrics["sparse.items"] = stats["sparse.walk"]["items"]
    return metrics


def merge_layer_stats(*parts: dict) -> dict:
    merged = {}
    for part in parts:
        for layer, values in part.items():
            into = merged.setdefault(layer, {"calls": 0, "items": 0, "self_s": 0.0})
            for key in into:
                into[key] += values[key]
    return merged


# ----------------------------------------------------------------------
# In-process workloads


class InProcess:
    """A closed loop with one caller, inside this process."""

    name = ""
    #: percentile reported as ``tail_ms``; about ten samples or more lie
    #: beyond it at the committed run length
    tail = 99.0
    #: jobs covered by the output digest (every run does at least these)
    digest_ops = 0
    #: units of work per job counted by ``ops_per_s``
    ops_unit = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.digest = Digest()
        self.speed = HostSpeed()
        self.tally: CacheTally | None = None
        self.attempted = 0
        self.failed = 0
        self.details: dict = {}

    def _opened(self, session: Session) -> None:
        if self.tally is not None:
            self.tally.begin(session)

    def _closed(self, session: Session) -> None:
        if self.tally is not None:
            self.tally.end(session)

    def _current_sessions(self) -> list[Session]:
        """Sessions that stay open across phases."""
        return []

    def _phase(self, seconds: float, min_ops: int) -> Phase:
        phase = self.phase(seconds, min_ops)
        self.attempted += phase.ops
        self.failed += phase.failed
        return phase

    def measure(self, seconds: float) -> dict:
        phase = self._phase(seconds, self.digest_ops)
        scaled = phase.scaled_ms()
        summary = latency_summary(scaled, self.tail)
        raw = phase.raw_ms()
        self.details.update(
            summary,
            raw_p50_ms=percentile(raw, 50),
            raw_ops_per_s=len(raw) * self.ops_unit / phase.wall_s,
            host_speed=float(np.median(scaled / raw)),
        )
        # Throughput over the time spent inside the timed calls, at the
        # reference host speed: the benchmark's own loop and calibration
        # between the calls are not the program's work.
        busy_s = scaled.sum() / 1e3
        return {
            "ops_per_s": summary["samples"] * self.ops_unit / busy_s,
            "p50_ms": summary["p50_ms"],
            "tail_ms": summary["tail_ms"],
            "cphc": phase.computes / busy_s / workloads.HOST_HZ,
            "peak_rss_mb": peak_rss_mb(),
        }

    def measure_traced(self, seconds: float) -> dict:
        untraced = self._phase(seconds / 2, self.digest_ops)
        tracer = spans.Tracer()
        pauses = spans.GcPauses()
        self.tally = CacheTally()
        for session in self._current_sessions():
            self.tally.begin(session)
        tile_before = tile_format_stats()
        tracer.install()
        pauses.start()
        try:
            traced = self.traced = self._phase(seconds / 2, 1)
        finally:
            pauses.stop()
            tracer.uninstall()
        for session in self._current_sessions():
            self.tally.end(session)
        self.tally.add_tile_format(tile_before, tile_format_stats())
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{self.name}.npz")
        stats, busy_s = spans.layer_times(tracer.spans(), tracer.layer_of_name())
        metrics = layer_metrics(stats, busy_s)
        metrics.update(cache_metrics(self.tally.totals))
        metrics.update(pauses.summary())
        # Both are over the time spent inside the timed calls; the rest
        # of a phase's wall time is this benchmark's own loop.
        metrics["trace.coverage"] = busy_s / (traced.raw_ms().sum() / 1e3)
        # Mean call time at the reference host speed, so a slow spell of
        # the host during one half does not read as tracing overhead.
        metrics["trace.overhead_frac"] = traced.scaled_ms().mean() / untraced.scaled_ms().mean() - 1
        self.tally = None
        return metrics

    def setup(self) -> None:
        raise NotImplementedError

    def phase(self, seconds: float, min_ops: int) -> Phase:
        raise NotImplementedError

    def check(self) -> dict:
        raise NotImplementedError


class SweepCold(InProcess):
    """First-touch evaluation of distinct points across every family."""

    name = "sweep-cold"
    digest_ops = 2000

    def setup(self) -> None:
        families = workloads.sweep_families()
        warmup = Session()
        for family, workload in workloads.SweepStream(families, self.seed, "warmup").take(
            SWEEP_WARMUP_POINTS
        ):
            warmup.evaluate(family.design, workload)
        warmup.close()
        self.stream = workloads.SweepStream(families, self.seed, "timed")
        self.session: Session | None = None
        self.jobs = 0
        self.samples: list[tuple] = []

    def _current_sessions(self) -> list[Session]:
        return [self.session] if self.session is not None else []

    def phase(self, seconds: float, min_ops: int) -> Phase:
        phase = Phase(seconds, min_ops, self.speed)
        while phase.running():
            if self.jobs % SESSION_JOBS == 0:
                if self.session is not None:
                    self._closed(self.session)
                    self.session.close()
                self.session = Session()
                self._opened(self.session)
            family, workload = self.stream.next()
            index = self.jobs
            self.jobs += 1
            t0 = clock()
            try:
                result = self.session.evaluate(family.design, workload)
            except ReproError:
                phase.fail()
                continue
            t1 = clock()
            phase.record(t0, t1, family.einsum.total_operations)
            if index < self.digest_ops:
                full = result.to_json() if index % DIGEST_FULL_EVERY == 0 else None
                self.digest.add(result.cycles, result.energy_pj, full=full)
                if full is not None:
                    self.samples.append((family, workload, full))
        return phase

    def check(self) -> dict:
        """Every digested full result must match the scalar oracle."""
        oracle = Session(sparse_vectorized=False, dense_vectorized=False, prefilter_vectorized=False)
        mismatches = sum(
            oracle.evaluate(family.design, workload).to_json() != full
            for family, workload, full in self.samples
        )
        return {"oracle_mismatches": mismatches, "ok": mismatches == 0 and bool(self.samples)}


class SweepWarm(InProcess):
    """Cache hits only: replays of an already-evaluated working set."""

    name = "sweep-warm"
    digest_ops = 2000

    def setup(self) -> None:
        families = workloads.sweep_families()
        self.points = workloads.SweepStream(families, self.seed, "timed").take(WARM_POINTS)
        self.session = Session()
        self.cold = [self.session.evaluate(family.design, workload) for family, workload in self.points]
        self.expected = [(result.cycles, result.energy_pj) for result in self.cold]
        self.computes = [family.einsum.total_operations for family, _ in self.points]
        self.before = self.session.cache_stats()
        self.order = workloads.rng(self.seed, "replay")
        self.pending: list[int] = []
        self.jobs = 0
        self.samples: list[tuple[int, str]] = []
        self.mismatches = 0

    def _current_sessions(self) -> list[Session]:
        return [self.session]

    def _next_index(self) -> int:
        if not self.pending:
            self.pending = list(range(WARM_POINTS))
            self.order.shuffle(self.pending)
        return self.pending.pop()

    def phase(self, seconds: float, min_ops: int) -> Phase:
        # A warm hit takes tens of microseconds, so the loop keeps its
        # own bookkeeping to a few local operations per job.
        phase = Phase(seconds, min_ops, self.speed)
        evaluate = self.session.evaluate
        points, expected, computes = self.points, self.expected, self.computes
        append, append_start, append_end = phase.latencies.append, phase.starts.append, phase.ends.append
        while phase.running():
            point = self._next_index()
            family, workload = points[point]
            t0 = clock()
            try:
                result = evaluate(family.design, workload)
            except ReproError:
                phase.fail()
                continue
            t1 = clock()
            append(t1 - t0)
            append_start(t0)
            append_end(t1)
            phase.ops += 1
            phase.computes += computes[point]
            if (result.cycles, result.energy_pj) != expected[point]:
                self.mismatches += 1
            if self.jobs < self.digest_ops:
                self._observe(point, result)
            self.jobs += 1
        return phase

    def _observe(self, point: int, result) -> None:
        full = result.to_json() if self.jobs % DIGEST_FULL_EVERY == 0 else None
        self.digest.add(result.cycles, result.energy_pj, full=full)
        if full is not None:
            self.samples.append((point, full))

    def check(self) -> dict:
        """Replays equal the set-up's cold pass job by job, and the
        replay phase never missed in the dense, sparse or micro stages."""
        json_mismatches = sum(self.cold[point].to_json() != full for point, full in self.samples)
        delta = self.session.cache_stats(since=self.before)
        misses = {stage: delta.get(stage, {}).get("misses", 0) for stage in WARM_STAGES}
        return {
            "replay_mismatches": self.mismatches,
            "json_mismatches": json_mismatches,
            "replay_misses": misses,
            "ok": self.mismatches == 0 and json_mismatches == 0 and not any(misses.values()),
        }


class SearchCold(InProcess):
    """Cold mapspace searches, each on a fresh Session."""

    name = "search-cold"
    #: a run does 40-70 searches, depending on how busy the host is, so
    #: 8-14 of them lie beyond p80
    tail = 80.0
    digest_ops = 10
    ops_unit = workloads.SEARCH_BUDGET
    #: searches re-run with the serial-strategy oracle
    oracle_searches = 2
    warmup_searches = 2

    def setup(self) -> None:
        self.design, self.einsum = workloads.search_design()
        for index in range(self.warmup_searches):
            workload, search_seed = workloads.search_job(self.einsum, self.seed, index, label="warmup")
            Session().search(self.design, workload, budget=workloads.SEARCH_BUDGET, seed=search_seed)
        self.jobs = 0
        self.samples: list[tuple] = []

    def phase(self, seconds: float, min_ops: int) -> Phase:
        phase = Phase(seconds, min_ops, self.speed)
        computes = workloads.SEARCH_BUDGET * self.einsum.total_operations
        while phase.running():
            workload, search_seed = workloads.search_job(self.einsum, self.seed, self.jobs)
            index = self.jobs
            self.jobs += 1
            session = Session()
            self._opened(session)
            t0 = clock()
            try:
                result = session.search(
                    self.design, workload, budget=workloads.SEARCH_BUDGET, seed=search_seed
                )
            except ReproError:
                phase.fail()
                continue
            t1 = clock()
            self._closed(session)
            phase.record(t0, t1, computes)
            if index < self.digest_ops:
                full = result.best.to_json() if index % DIGEST_FULL_EVERY == 0 else None
                self.digest.add(result.best_index, result.best_score, full=full)
                if index < self.oracle_searches:
                    self.samples.append(
                        (workload, search_seed, result.best_index, result.best_score, result.best.to_json())
                    )
        return phase

    def measure_traced(self, seconds: float) -> dict:
        metrics = super().measure_traced(seconds)
        candidates = self.traced.ops * workloads.SEARCH_BUDGET
        metrics["search.evaluated_ratio"] = metrics["sparse.items"] / candidates
        return metrics

    def check(self) -> dict:
        """The first searches' winners match the serial-strategy oracle."""
        mismatches = 0
        for workload, search_seed, best_index, best_score, best_json in self.samples:
            oracle = Session().search(
                self.design,
                workload,
                budget=workloads.SEARCH_BUDGET,
                seed=search_seed,
                strategy="serial",
            )
            mismatches += (oracle.best_index, oracle.best_score, oracle.best.to_json()) != (
                best_index,
                best_score,
                best_json,
            )
        return {"oracle_mismatches": mismatches, "ok": mismatches == 0 and bool(self.samples)}


class DnnCphc(InProcess):
    """The Table 5 grid of full-network evaluations. A job is one round:
    a pass over every (design, network) of the grid, so every job runs
    the same mix of networks (single passes range from ~1 to ~60 ms)."""

    name = "dnn-cphc"
    #: a run does 55-100 rounds, depending on how busy the host is, so
    #: 11-20 of them lie beyond p80
    tail = 80.0
    #: rounds covered by the output digest: 120 passes
    digest_ops = 10
    ops_unit = len(workloads.DNN_DESIGNS) * len(workloads.NETWORKS)
    #: three passes per (design, network) of the grid
    warmup_passes = 36

    def setup(self) -> None:
        self.grid = workloads.dnn_grid()
        for index in range(self.warmup_passes):
            combo, policy = workloads.dnn_pass(self.grid, self.seed, index, label="warmup")
            Session(check_capacity=False).evaluate_network(combo.design, combo.layers, policy)
        self.jobs = 0

    def phase(self, seconds: float, min_ops: int) -> Phase:
        phase = Phase(seconds, min_ops, self.speed)
        while phase.running():
            first = self.jobs
            results, computes = [], 0
            calibrating = self.speed.spent_ns
            t0 = clock()
            try:
                for _ in range(self.ops_unit):
                    combo, policy = workloads.dnn_pass(self.grid, self.seed, self.jobs)
                    self.jobs += 1
                    session = Session(check_capacity=False)
                    self._opened(session)
                    results.append(session.evaluate_network(combo.design, combo.layers, policy))
                    self._closed(session)
                    computes += combo.computes
                    # A round is long: calibrate inside it as well, and
                    # take that time out of the round's.
                    self.speed.tick()
            except ReproError:
                phase.fail()
                continue
            t1 = clock()
            phase.record(t0, t1, computes, self.speed.spent_ns - calibrating)
            for index, result in enumerate(results, first):
                if index < self.digest_ops * self.ops_unit:
                    for layer in result.layers:
                        self.digest.add(layer.result.cycles, layer.result.energy_pj)
                    if index % DIGEST_FULL_EVERY == 0:
                        self.digest.add(full=result.to_json())
        return phase

    def check(self) -> dict:
        """The Table 6 validation stays inside the paper's bands."""
        import validation

        errors = validation.table6_errors()
        self.details["table6_err_pct"] = errors
        self.details["model_err_pct"] = max(errors.values())
        return {"table6_within_bands": validation.within_bands(errors), "ok": validation.within_bands(errors)}


# ----------------------------------------------------------------------
# serve-open: a daemon process and this process as its load generator


class ServeOpen:
    """Open-loop traffic at two fixed rates, then closed-loop saturation."""

    name = "serve-open"
    #: ``tail_ms`` is this percentile of the saturation phase (~6,000
    #: jobs). At 200 jobs/s the daemon's full garbage collections (up to
    #: ~300 ms, at points that vary from run to run) set the p99 of the
    #: ~1,200 jobs, which then does not repeat; it is the per-layer
    #: ``loadgen.p99_ms.high``.
    tail = 99.0
    digest_ops = 300
    warmup_jobs = 64
    #: the latency limit of an open-loop job; jobs over it are counted
    #: in the run's details, not failed (see the README)
    limit_ms = 25.0
    #: share of the run each phase gets: low rate, high rate, saturation
    shares = {"low": 0.3, "high": 0.3, "sat": 0.4}

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.digest = Digest()
        # Calibrating holds the client's interpreter lock for ~0.1 ms;
        # every 10 ms keeps the receiver thread's share of delay at 1%.
        self.speed = HostSpeed(interval_ns=10_000_000)
        self.attempted = 0
        self.failed = 0
        self.details: dict = {}
        self.daemon: Daemon | None = None
        self.conn: Connection | None = None
        self.checked: list[tuple[int, dict]] = []
        self.digested = False
        self.daemons = 0

    def setup(self) -> None:
        """Build the job streams, boot a cold daemon, connect, warm up."""
        self.design, self.einsum, self.mappings = workloads.serve_scenario()
        self.jobs = workloads.ServeJobs(self.seed, "serve", len(self.mappings))
        self.warmup = workloads.ServeJobs(self.seed, "warmup", len(self.mappings))
        self.densities: dict[float, Workload] = {}
        self._start_daemon(spans_path=None)

    def _start_daemon(self, spans_path: Path | None) -> None:
        self.daemons += 1
        # Relative to ROOT, so the path stays short whatever the checkout.
        socket_path = str((self.workdir / f"d{self.daemons}.sock").relative_to(ROOT))
        log = self.workdir / f"daemon{self.daemons}.log"
        self.daemon = Daemon(ROOT, socket_path, log, self.env, spans_path)
        self.conn = Connection(str(ROOT / socket_path))
        # Warm-up jobs come from their own stream under negative request
        # ids, so no timed job repeats one.
        for index in range(self.warmup_jobs):
            self.conn.send_job(-1 - index, self._job(self.warmup, index))
        self.conn.wait_for(self.warmup_jobs)

    def job(self, index: int) -> EvaluateJob:
        return self._job(self.jobs, index)

    def _job(self, stream: workloads.ServeJobs, index: int) -> EvaluateJob:
        mapping, density = stream[index]
        if density not in self.densities:
            self.densities[density] = Workload.uniform(self.einsum, {"A": density, "B": density})
        return EvaluateJob(self.design, self.densities[density], self.mappings[mapping])

    def _stream(self):
        """``(request id, job)`` pairs from job 0; request ids are job
        indices."""
        for index in itertools.count():
            yield index, self.job(index)

    def stop(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def _run_phases(self, seconds: float) -> dict:
        """The three phases on the current daemon, from job 0."""
        conn = self.conn
        jobs = self._stream()
        phases = {}
        for name in SERVE_PHASES:
            before = conn.op("server-stats")
            if name == "sat":
                stats = conn.closed_loop(
                    name, jobs, workloads.SERVE_INFLIGHT, seconds * self.shares[name], speed=self.speed
                )
            else:
                rate = workloads.SERVE_RATE_LOW if name == "low" else workloads.SERVE_RATE_HIGH
                stats = conn.open_loop(name, jobs, rate, seconds * self.shares[name], speed=self.speed)
            after = conn.op("server-stats")
            batches = after["evaluate_batches"] - before["evaluate_batches"]
            engine_s = after["engine_seconds"] - before["engine_seconds"]
            stats.server = {
                "engine_s": engine_s,
                "busy_frac": engine_s / stats.wall_s,
                "batch_mean": (after["evaluate_jobs"] - before["evaluate_jobs"]) / batches if batches else 0.0,
            }
            phases[name] = stats
        self._account(phases)
        return phases

    def _account(self, phases: dict) -> None:
        """Count attempts and failures; digest and sample outputs."""
        for stats in phases.values():
            for request_id in stats.ids:
                self.attempted += 1
                response = self.conn.responses.get(request_id)
                if response is None or "result" not in response[1]:
                    self.failed += 1
                    continue
                if request_id % SERVE_CHECK_EVERY == 0:
                    self.checked.append((request_id, response[1]["result"]["summary"]))
        if self.digested:
            return
        # Job ids count up from 0 across the phases, so the first jobs
        # are the same ones however the run length splits the phases.
        self.digested = True
        for request_id in range(self.digest_ops):
            response = self.conn.responses.get(request_id)
            if response is None or "result" not in response[1]:
                self.digest.add("missing")
                continue
            summary = response[1]["result"]["summary"]
            self.digest.add(summary["cycles"], summary["energy_pj"])

    def _loadgen_metrics(self, phases: dict) -> dict:
        metrics = {}
        for name, stats in phases.items():
            for key, value in stats.server.items():
                metrics[f"server.{key}.{name}"] = value
            if name == "sat":
                continue
            late = [(sent - due) / 1e6 for sent, due in zip(stats.sent, stats.scheduled)]
            metrics[f"loadgen.late_p99_ms.{name}"] = percentile(late, 99)
            metrics[f"loadgen.backlog_max.{name}"] = stats.backlog_max
        low = answered(self.conn, phases["low"])
        high = answered(self.conn, phases["high"])
        metrics["loadgen.p50_ms.high"] = percentile(high, 50)
        metrics["loadgen.p99_ms.low"] = percentile(low, 99)
        metrics["loadgen.p99_ms.high"] = percentile(high, 99)
        return metrics

    def measure(self, seconds: float) -> dict:
        phases = self._run_phases(seconds)
        latencies = {name: answered(self.conn, stats) for name, stats in phases.items()}
        factor = self._factor(phases)
        # At the low rate the daemon is mostly idle, so a job's latency is
        # its service time; at 200 jobs/s the median also depends on how
        # many jobs the daemon's collections happen to hold up (ten runs:
        # spread up to 0.28, against up to 0.11 at 100 jobs/s).
        low = latency_summary(np.asarray(latencies["low"]) * factor, self.tail)
        # Not scaled: this tail is the daemon's full-collection pauses, on
        # the other core, which the client's calibration does not track
        # (over five sets of ten runs scaling did not narrow its spread).
        sat = latency_summary(latencies["sat"], self.tail)
        self.details.update(
            low=low,
            sat=sat,
            host_speed=factor,
            phases={
                name: {
                    "jobs": len(stats.ids),
                    "wall_s": stats.wall_s,
                    "raw_p50_ms": percentile(latencies[name], 50),
                    "raw_jobs_per_s": len(latencies[name]) / stats.wall_s,
                }
                for name, stats in phases.items()
            },
            over_limit={
                name: sum(latency > self.limit_ms for latency in latencies[name])
                for name in ("low", "high")
            },
            loadgen=self._loadgen_metrics(phases),
        )
        jobs_per_s = self._saturation_rate(phases)
        return {
            "ops_per_s": jobs_per_s,
            "p50_ms": low["p50_ms"],
            "tail_ms": sat["tail_ms"],
            "cphc": jobs_per_s * self.einsum.total_operations / workloads.HOST_HZ,
            "peak_rss_mb": self.daemon.peak_rss_mb(),
        }

    def _factor(self, phases: dict) -> float:
        """The host-speed factor of a run of the three phases, from the
        calibration loops the client runs in the gaps between its sends.
        One factor per run: with a factor per phase, the saturation
        throughput of ten runs spread 0.11, with one 0.07."""
        return self.speed.factor(phases["low"].start, phases["sat"].end)

    def _saturation_rate(self, phases: dict) -> float:
        """Jobs answered per second over the closed-loop phase, at the
        reference host speed."""
        stats = phases["sat"]
        return len(answered(self.conn, stats)) / stats.wall_s / self._factor(phases)

    def measure_traced(self, seconds: float) -> dict:
        untraced = self._run_phases(seconds / 2)
        metrics = self._loadgen_metrics(untraced)
        untraced_rate = self._saturation_rate(untraced)
        self.stop()
        spans_path = self.workdir / "daemon-spans.npz"
        self._start_daemon(spans_path=spans_path)
        tracer = spans.Tracer()
        tracer.install({"serve.wire": spans.LAYERS["serve.wire"]})
        try:
            traced = self._run_phases(seconds / 2)
        finally:
            tracer.uninstall()
        sat = traced["sat"]
        metrics["trace.overhead_frac"] = untraced_rate / self._saturation_rate(traced) - 1
        self.stop()
        daemon_spans, daemon_layers, daemon_threads = spans.load(spans_path)
        OUT.mkdir(exist_ok=True)
        shutil.copyfile(spans_path, OUT / f"spans-{self.name}.npz")
        window = (traced["low"].start, traced["sat"].end)
        daemon_stats, daemon_busy = spans.layer_times(daemon_spans, daemon_layers, window=window)
        client_stats, client_busy = spans.layer_times(tracer.spans(), tracer.layer_of_name())
        stats = merge_layer_stats(daemon_stats, client_stats)
        metrics.update(layer_metrics(stats, daemon_busy + client_busy))
        lanes = {i for i, name in enumerate(daemon_threads) if name.startswith("repro-serve-batch")}
        _, lane_busy = spans.layer_times(daemon_spans, daemon_layers, window=(sat.start, sat.end), threads=lanes)
        metrics["trace.coverage"] = lane_busy / sat.wall_s
        daemon_info = json.loads(spans_path.with_suffix(".json").read_text())
        totals = {stage: {"hits": 0, "misses": 0} for stage in CACHE_STAGES}
        for stage, counters in [*daemon_info["cache"].items(), ("tile-format", daemon_info["tile-format"])]:
            if stage in totals:
                totals[stage] = {"hits": counters.get("hits", 0), "misses": counters.get("misses", 0)}
        metrics.update(cache_metrics(totals))
        metrics.update(daemon_info["gc"])
        return metrics

    def check(self) -> dict:
        """Every 50th served result equals an in-process evaluation."""
        self.stop()
        local = Session(check_capacity=False)
        mismatches = 0
        for request_id, summary in self.checked:
            result = local.evaluate(*self.job(request_id).engine_args())
            mismatches += (result.cycles, result.energy_pj, result.edp) != (
                summary["cycles"],
                summary["energy_pj"],
                summary["edp"],
            )
        return {
            "served_checked": len(self.checked),
            "served_mismatches": mismatches,
            "ok": mismatches == 0 and bool(self.checked),
        }


IN_PROCESS = {cls.name: cls for cls in (SweepCold, SweepWarm, SearchCold, DnnCphc)}


def run(
    name: str, seed: int, seconds: float, traced: bool, workdir: Path, env: dict, setup_only: bool = False
) -> dict:
    workload = ServeOpen(seed, workdir, env) if name == ServeOpen.name else IN_PROCESS[name](seed)
    try:
        try:
            workload.setup()
        finally:
            SETUP_SPEED.stop_sampling()
        setup_raw_ns = clock() - STARTED
        # At the reference host speed, and without the sampling's own
        # calibration loops.
        setup_raw_s = setup_raw_ns / 1e9
        setup_s = (setup_raw_ns - SETUP_SPEED.spent_ns) / 1e9 * SETUP_SPEED.factor()
        if setup_only:
            return {"workload": name, "seed": seed, "setup_s": setup_s, "setup_raw_s": setup_raw_s}
        if traced:
            metrics = {metric: 0.0 for metric in per_layer_names()}
            metrics.update(workload.measure_traced(seconds))
        else:
            metrics = workload.measure(seconds)
        checks = workload.check()
    finally:
        if isinstance(workload, ServeOpen):
            workload.stop()
    failed = workload.attempted if not checks["ok"] else workload.failed
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "attempted": workload.attempted,
        "failed": failed,
        "checks": checks,
        "outputs_digest": workload.digest.hexdigest(),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "metrics": metrics,
        "details": workload.details,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload once.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    source = (ROOT / "src").resolve()
    if source not in Path(repro.__file__).resolve().parents:
        print(f"error: repro was imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    result = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.workdir,
        dict(os.environ),
        setup_only=args.setup_only,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        # On an early exit the set-up's timer is still running; at
        # shutdown its signal would kill the process.
        SETUP_SPEED.stop_sampling()
    sys.exit(code)
