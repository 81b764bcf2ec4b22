"""Perf smoke for the fast-path evaluation engine.

Measures three throughput numbers that the fast path is responsible
for — fixed-mapping evaluations/sec under a SAF x density sweep (the
Fig. 17 co-design traffic pattern), mapspace-search candidates/sec
(the DSE traffic pattern), and sparse-postprocess evaluations/sec
(the vectorized + cache-served sparse modeling stage, compared against
the scalar no-cache oracle that matches the pre-vectorization
pipeline) — plus the dense-analysis cache hit rate. The numbers are
written to ``BENCH_perf_engine.json`` next to this file and checked
against the committed ``baseline_perf_engine.json``: the test fails if
a throughput regresses more than 30% below the baseline, or if the
sparse-postprocess stage falls below 3x its scalar oracle.

The committed baseline is deliberately conservative (roughly half of
the throughput measured on the reference machine) so that CI noise does
not trip it while order-of-magnitude regressions — e.g. reintroducing
scalar scipy pmf calls in the hot loop — still fail loudly.

Run:  pytest benchmarks/bench_perf_engine.py -q -s
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from repro import Design, Evaluator, SAFSpec, Workload, conv2d, matmul
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.cache import PersistentCache
from repro.designs import codesign
from repro.mapping.mapspace import MapspaceConstraints
from repro.model.engine import persistent_state_key
from repro.sparse.formats import CoordinatePayload, FormatRank, FormatSpec
from repro.sparse.saf import SAFKind, double_sided, gate_compute, skip_compute

BASELINE_PATH = Path(__file__).parent / "baseline_perf_engine.json"
SUMMARY_PATH = Path(__file__).parent / "BENCH_perf_engine.json"
WARM_SUMMARY_PATH = Path(__file__).parent / "BENCH_warm_start.json"
BATCHED_SUMMARY_PATH = Path(__file__).parent / "BENCH_search_batched.json"
COLD_SUMMARY_PATH = Path(__file__).parent / "BENCH_search_cold.json"

#: Fail when throughput drops below this fraction of the baseline.
REGRESSION_FLOOR = 0.7

SWEEP_DENSITIES = [1e-4, 1e-3, 1e-2, 0.06, 0.3]
SWEEP_ROUNDS = 3
SEARCH_BUDGET = 40
#: Times each (mapping, SAF, density) point is revisited — a (very
#: conservative) stand-in for evolution-strategy mappers and TeAAL-like
#: front-ends that re-evaluate the same einsums under many schedules.
SPARSE_ROUNDS = 6
#: The sparse-postprocess stage must beat its scalar no-cache oracle
#: (the pre-vectorization pipeline) by at least this factor.
SPARSE_SPEEDUP_FLOOR = 3.0


def _codesign_sweep(evaluator: Evaluator) -> int:
    """One Fig.17-style SAF x density sweep; returns evaluation count."""
    count = 0
    for density in SWEEP_DENSITIES:
        workload = Workload.uniform(
            matmul(1024, 1024, 1024), {"A": density, "B": density}
        )
        for dataflow, saf in codesign.ALL_COMBINATIONS:
            design = codesign.build_design(dataflow, saf)
            evaluator._evaluate(design, workload)
            count += 1
    return count


def _dse_designs() -> tuple[list[Design], Workload]:
    """The DSE searches' design points: three SAF variants of one
    small accelerator, plus the shared workload."""
    arch = Architecture(
        "perf-dse",
        [
            StorageLevel("DRAM", None, component="dram",
                         read_bandwidth=8, write_bandwidth=8),
            StorageLevel("Buffer", 16 * 1024, component="sram",
                         read_bandwidth=8, write_bandwidth=8),
        ],
        ComputeLevel("MAC", instances=16),
    )
    workload = Workload.uniform(matmul(128, 128, 128), {"A": 0.2, "B": 0.2})
    cp2 = FormatSpec(
        [FormatRank(CoordinatePayload()), FormatRank(CoordinatePayload())]
    )
    saf_choices = [
        SAFSpec(),
        SAFSpec(
            formats={("Buffer", "A"): cp2, ("DRAM", "A"): cp2},
            compute_safs=[gate_compute()],
        ),
        SAFSpec(
            formats={("Buffer", "A"): cp2, ("DRAM", "A"): cp2},
            storage_safs=double_sided(SAFKind.SKIP, "A", "B", "Buffer"),
            compute_safs=[skip_compute()],
        ),
    ]
    constraints = MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]})
    designs = [
        Design(f"dse-{index}", arch, safs, constraints=constraints)
        for index, safs in enumerate(saf_choices)
    ]
    return designs, workload


def _dse_search(evaluator: Evaluator) -> int:
    """One DSE-style mapspace search over three SAF variants; returns
    the nominal candidate count."""
    designs, workload = _dse_designs()
    candidates = 0
    for design in designs:
        result = evaluator._search_full(design, workload).best_result
        assert result is not None
        candidates += SEARCH_BUDGET
    return candidates


def _sparse_stage_pairs():
    """(dense, safs) pairs of the codesign sweep, dense analyses shared
    the way the engine shares them (one per dataflow x density)."""
    evaluator = Evaluator()
    pairs = []
    for density in SWEEP_DENSITIES:
        workload = Workload.uniform(
            matmul(1024, 1024, 1024), {"A": density, "B": density}
        )
        for dataflow, saf in codesign.ALL_COMBINATIONS:
            design = codesign.build_design(dataflow, saf)
            mapping = design.mapping_for(workload)
            dense, _key, _reused = evaluator._dense_analysis_keyed(
                design, workload, mapping
            )
            pairs.append((dense, design.safs))
    return pairs


def _bench_sparse_postprocess() -> dict:
    """Sparse-postprocess throughput: cached+vectorized vs the scalar
    no-cache oracle (the pre-vectorization pipeline).

    Both paths are timed with the process-global memos (tile-format
    stage, density kernels) and numpy already warm — the pre-PR
    pipeline had those too — so the ratio isolates what this PR adds:
    the batched arithmetic and the sparse-analysis cache stage.
    """
    from repro.sparse.postprocess import analyze_sparse
    from repro.sparse.traffic import unpack_sparse

    pairs = _sparse_stage_pairs()
    for vectorized in (False, True):  # shared warmup for both paths
        for dense, safs in pairs:
            analyze_sparse(dense, safs, vectorized=vectorized)

    t0 = time.perf_counter()
    oracle = None
    for _ in range(SPARSE_ROUNDS):
        for dense, safs in pairs:
            oracle = analyze_sparse(dense, safs, vectorized=False)
    scalar_seconds = time.perf_counter() - t0

    evaluator = Evaluator()
    t0 = time.perf_counter()
    record = None
    for _ in range(SPARSE_ROUNDS):
        for dense, safs in pairs:
            record = evaluator._sparse_analysis_keyed(dense, safs)
    fast_seconds = time.perf_counter() - t0

    # The fast path must agree bit-for-bit with the oracle (spot check
    # on the last pair; the test suite covers every bundled design).
    fast = unpack_sparse(record.layout.slots, record.values)
    assert fast.compute.actual == oracle.compute.actual
    assert fast.compute.gated == oracle.compute.gated
    for key, actions in oracle.actions.items():
        other = fast.actions[key]
        assert other.data_reads.actual == actions.data_reads.actual
        assert other.data_writes.actual == actions.data_writes.actual

    evals = SPARSE_ROUNDS * len(pairs)
    per_sec = evals / fast_seconds
    scalar_per_sec = evals / scalar_seconds
    return {
        "sparse_evals_per_sec": round(per_sec, 1),
        "sparse_scalar_evals_per_sec": round(scalar_per_sec, 1),
        "sparse_speedup_vs_scalar": round(per_sec / scalar_per_sec, 2),
        "sparse_evaluations": evals,
        "sparse_seconds": round(fast_seconds, 4),
        "sparse_cache_hit_rate": round(
            evaluator.cache.sparse.hit_rate, 4
        ),
    }


@pytest.mark.perf
def test_perf_engine_smoke():
    # --- fixed-mapping evaluation throughput (SAF x density sweep) ---
    evaluator = Evaluator()
    _codesign_sweep(evaluator)  # warm caches (kernel + dense-analysis)
    t0 = time.perf_counter()
    evals = sum(_codesign_sweep(evaluator) for _ in range(SWEEP_ROUNDS))
    sweep_seconds = time.perf_counter() - t0
    evals_per_sec = evals / sweep_seconds
    cache_stats = evaluator.cache.dense.stats()

    # --- mapspace-search throughput (DSE pattern) ---
    search_evaluator = Evaluator(search_budget=SEARCH_BUDGET)
    t0 = time.perf_counter()
    candidates = _dse_search(search_evaluator)
    search_seconds = time.perf_counter() - t0
    search_candidates_per_sec = candidates / search_seconds

    # --- sparse-postprocess throughput (vectorized + cache stage) ---
    sparse_summary = _bench_sparse_postprocess()

    summary = {
        "bench": "perf_engine",
        "evals_per_sec": round(evals_per_sec, 1),
        "sweep_evaluations": evals,
        "sweep_seconds": round(sweep_seconds, 4),
        "dense_cache_hit_rate": round(cache_stats["hit_rate"], 4),
        "dense_cache_hits": cache_stats["hits"],
        "dense_cache_misses": cache_stats["misses"],
        "search_candidates_per_sec": round(search_candidates_per_sec, 1),
        "search_candidates": candidates,
        "search_seconds": round(search_seconds, 4),
        **sparse_summary,
    }
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\n=== perf_engine ===\n{json.dumps(summary, indent=2)}")

    # The codesign sweep re-evaluates the same (einsum, arch, mapping)
    # per density/SAF variant; a healthy dense cache serves most of it.
    assert cache_stats["hit_rate"] > 0.5, cache_stats

    baseline = json.loads(BASELINE_PATH.read_text())
    for metric in (
        "evals_per_sec",
        "search_candidates_per_sec",
        "sparse_evals_per_sec",
    ):
        floor = baseline[metric] * REGRESSION_FLOOR
        assert summary[metric] >= floor, (
            f"{metric} regressed: {summary[metric]:.1f}/s is below "
            f"{REGRESSION_FLOOR:.0%} of the committed baseline "
            f"{baseline[metric]:.1f}/s"
        )

    # Acceptance: the vectorized + cache-served sparse stage must beat
    # the scalar no-cache oracle (the pre-vectorization pipeline) 3x.
    assert summary["sparse_speedup_vs_scalar"] >= SPARSE_SPEEDUP_FLOOR, (
        f"sparse-postprocess speedup {summary['sparse_speedup_vs_scalar']}x "
        f"is below the {SPARSE_SPEEDUP_FLOOR}x floor"
    )


#: Warm repeats of the DSE search in the batched-search bench (on top
#: of each path's own cold round) — the repeated-search traffic pattern
#: (SAF sweeps, co-design loops, CI re-runs) the batched strategy and
#: the candidates memo are built for.
BATCHED_SEARCH_ROUNDS = 4


@pytest.mark.perf
def test_search_batched_smoke():
    """Cross-candidate batched search vs the serial per-candidate oracle.

    Both strategies run the same DSE traffic — one cold round plus
    ``BATCHED_SEARCH_ROUNDS`` warm repeats over the three SAF variants,
    each with its own fresh evaluator — after a shared warmup of the
    process-global memos (tile-format stage, density kernels, divisor
    tables), so the ratio isolates exactly what the batched strategy
    adds: block-stacked sparse evaluation on the cold round and
    memoised candidate-stream replay (the ``"candidates"`` stage) on
    every warm one. The winners must agree bit for bit — the batched
    path is the default precisely because it is provably identical —
    and the speedup must clear the committed
    ``search_batched_speedup_floor``.
    """
    designs, workload = _dse_designs()
    warmup = Evaluator(search_budget=SEARCH_BUDGET)
    for design in designs:
        warmup._search_full(design, workload, strategy="serial")

    def timed(strategy):
        evaluator = Evaluator(search_budget=SEARCH_BUDGET)
        winners = []
        t0 = time.perf_counter()
        for _ in range(1 + BATCHED_SEARCH_ROUNDS):
            for design in designs:
                result = evaluator._search_full(
                    design, workload, strategy=strategy
                ).best_result
                winners.append(
                    (
                        result.cycles,
                        result.energy_pj,
                        result.dense.mapping.cache_key(),
                    )
                )
        return time.perf_counter() - t0, winners, evaluator

    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["search_batched_speedup_floor"]
    # Timing-ratio smoke on shared runners: allow one re-measure before
    # declaring the floor breached (winner equality is never retried).
    for attempts_left in (1, 0):
        serial_seconds, serial_winners, _ = timed("serial")
        batched_seconds, batched_winners, batched_evaluator = timed("batched")
        assert batched_winners == serial_winners, (
            "batched search diverged from the serial oracle"
        )
        if serial_seconds / batched_seconds >= floor or not attempts_left:
            break

    speedup = serial_seconds / batched_seconds
    searches = (1 + BATCHED_SEARCH_ROUNDS) * len(designs)
    candidate_stats = batched_evaluator.cache.stage("candidates").stats()
    summary = {
        "bench": "search_batched",
        "searches": searches,
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "search_batched_speedup": round(speedup, 2),
        "batched_searches_per_sec": round(searches / batched_seconds, 1),
        "candidates_stage_hits": candidate_stats["hits"],
        "candidates_stage_misses": candidate_stats["misses"],
    }
    BATCHED_SUMMARY_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\n=== search_batched ===\n{json.dumps(summary, indent=2)}")

    # The three SAF variants share one mapspace: every search after the
    # very first replays the memoised candidate stream.
    assert candidate_stats["misses"] == 1, candidate_stats
    assert candidate_stats["hits"] == searches - 1, candidate_stats

    assert speedup >= floor, (
        f"batched search beat the serial per-candidate oracle only "
        f"{speedup:.2f}x (serial {serial_seconds:.3f}s -> batched "
        f"{batched_seconds:.3f}s); the committed floor is {floor}x"
    )


def _reset_analysis_memos() -> None:
    """Simulate a fresh process for the analysis work the persistent
    snapshot replaces: clear the process-global stages (tile-format)
    and the density-kernel LRUs before each timed phase, so the cold
    run cannot pre-warm them for the warm run — the snapshot is the
    only carrier of analysis warmth. The `divisors`/`factorizations`
    memos behind candidate *sampling* are deliberately left alone:
    both phases regenerate the identical candidate stream, so that
    cost is symmetric by construction, and clearing it would only add
    a shared constant that drowns the signal the floor gates."""
    from repro.common.cache import global_cache
    from repro.sparse import density

    global_cache().clear()
    for obj in vars(density).values():
        if callable(obj) and hasattr(obj, "cache_clear"):
            obj.cache_clear()


@pytest.mark.perf
def test_warm_start_smoke(tmp_path):
    """Persistent-tier warm start on the DSE traffic pattern.

    A cold evaluator runs the DSE search and spills its cache to the
    persistent store; a fresh evaluator then warm-starts from the
    snapshot and repeats the search. The warm run must beat the cold
    run by the committed ``warm_start_speedup_floor`` — the measure of
    what the on-disk tier saves a repeated CLI/CI invocation.

    The store location honours ``REPRO_CACHE_DIR`` (a temp directory
    otherwise), so CI can persist it between steps: when a prior
    process already left a snapshot, the warm run loads *that* one —
    exercising true cross-process key stability — and the
    ``REPRO_REQUIRE_WARM_START`` environment variable turns "a
    snapshot pre-existed" into a hard assertion for such second runs.

    Two fairness measures: the snapshot key is derived from the DSE
    content (arch/SAFs/workload/budget), so editing the bench scenario
    invalidates stale stores instead of wedging the warm assertions;
    and the process-global stages plus density-kernel memos are
    reset before *each* timed phase, so the cold run cannot pre-warm
    the warm run and the speedup isolates what the on-disk tier
    carries (candidate-sampling memos stay symmetric-warm; both
    phases pay that identical generation cost).
    """
    root = os.environ.get("REPRO_CACHE_DIR") or str(tmp_path / "store")
    store = PersistentCache(root=root)
    designs, workload = _dse_designs()
    content = [persistent_state_key(d, [workload]) for d in designs]
    key = "bench-warm-start-dse-" + hashlib.blake2b(
        repr((content, SEARCH_BUDGET)).encode(), digest_size=8
    ).hexdigest()
    preexisting = store.load(key) is not None
    if os.environ.get("REPRO_REQUIRE_WARM_START"):
        assert preexisting, (
            "REPRO_REQUIRE_WARM_START is set but no snapshot was found "
            f"under {store.store_dir}"
        )

    def attempt():
        _reset_analysis_memos()
        cold_evaluator = Evaluator(search_budget=SEARCH_BUDGET)
        t0 = time.perf_counter()
        candidates = _dse_search(cold_evaluator)
        cold_seconds = time.perf_counter() - t0
        if store.load(key) is None:
            cold_evaluator.persistent = store
            cold_evaluator.spill_cache(key)

        _reset_analysis_memos()  # snapshot = the only analysis warmth
        warm_evaluator = Evaluator(
            search_budget=SEARCH_BUDGET, persistent=store
        )
        imported = warm_evaluator.warm_start(key)
        assert imported > 0, "warm start installed nothing"
        t0 = time.perf_counter()
        _dse_search(warm_evaluator)
        warm_seconds = time.perf_counter() - t0
        return candidates, cold_seconds, warm_seconds, imported, warm_evaluator

    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["warm_start_speedup_floor"]
    # Timing-ratio smoke on shared runners: allow one re-measure before
    # declaring the floor breached (the functional hit-rate assertions
    # below are never retried).
    for attempts_left in (1, 0):
        candidates, cold_seconds, warm_seconds, imported, warm_evaluator = (
            attempt()
        )
        if cold_seconds / warm_seconds >= floor or not attempts_left:
            break

    speedup = cold_seconds / warm_seconds
    sparse_stats = warm_evaluator.cache.stage("sparse").stats()
    summary = {
        "bench": "warm_start",
        "persistent_preexisting": preexisting,
        "warm_entries_imported": imported,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_start_speedup": round(speedup, 2),
        "warm_candidates_per_sec": round(candidates / warm_seconds, 1),
        "warm_sparse_hit_rate": round(sparse_stats["hit_rate"], 4),
    }
    WARM_SUMMARY_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\n=== warm_start ===\n{json.dumps(summary, indent=2)}")

    # Every sparse record (the analysis and its micro tail) the warm
    # run needed must come from the snapshot: the search revisits the
    # exact seeded candidate stream the cold run explored.
    assert sparse_stats["hits"] > 0 and sparse_stats["misses"] == 0, (
        sparse_stats
    )

    assert speedup >= floor, (
        f"persistent warm start sped the DSE search up only "
        f"{speedup:.2f}x (cold {cold_seconds:.3f}s -> warm "
        f"{warm_seconds:.3f}s); the committed floor is {floor}x"
    )


#: Candidate budget (and batch size) of the cold-search bench: one
#: large single-shot search with nothing cached — the first-invocation
#: traffic pattern the tensorized cold path (batched dense nest
#: analysis) is built for.
COLD_SEARCH_BUDGET = 512
#: Interleaved timing rounds per path; the minimum of each side is
#: compared, which cancels transient machine load that a single A/B
#: pair would fold into the ratio.
COLD_SEARCH_ROUNDS = 3


def _cold_design() -> tuple[Design, Workload]:
    """The cold-search scenario: a sparse conv2d searched from scratch
    on a two-level accelerator. Conv2d's seven dimensions make the
    capacity prefilter earn its keep (many sampled tilings overflow the
    16 KiB buffer), and the compressed-W + gated-compute SAF exercises
    the full sparse pipeline per surviving candidate."""
    arch = Architecture(
        "perf-cold",
        [
            StorageLevel("DRAM", None, component="dram",
                         read_bandwidth=8, write_bandwidth=8),
            StorageLevel("Buffer", 16 * 1024, component="sram",
                         read_bandwidth=8, write_bandwidth=8),
        ],
        ComputeLevel("MAC", instances=16),
    )
    workload = Workload.uniform(
        conv2d(n=4, k=32, c=16, p=14, q=14, r=3, s=3),
        {"W": 0.3, "I": 0.5},
    )
    cp4 = FormatSpec([FormatRank(CoordinatePayload())] * 4)
    safs = SAFSpec(
        formats={("Buffer", "W"): cp4, ("DRAM", "W"): cp4},
        compute_safs=[gate_compute()],
    )
    constraints = MapspaceConstraints(spatial_dims={"Buffer": ["k", "c"]})
    return Design("cold-dse", arch, safs, constraints=constraints), workload


@pytest.mark.perf
def test_search_cold_smoke():
    """Fully tensorized cold search vs the scalar serial oracle.

    One 512-candidate search with every per-evaluator cache empty — the
    cost a user pays on the very first invocation, where the warm-start
    and candidate-memo tiers cannot help. The fast path (batched dense
    nest analysis, the default) is timed against the same code with the
    dense stage forced scalar (``dense_vectorized=False``); both sides
    run the one scalar capacity prefilter. Fresh evaluators each round,
    interleaved, min of each side. Winners must agree bit for bit
    (never retried).

    The scalar oracle is *faster* than the PR the floor is anchored to:
    it shares this tree's cross-cutting trims (memoised keep chains and
    spec accessors, slotted dataclasses, hash-memoised cache keys,
    combo-level sample validity), which the committed
    ``search_cold_oracle_pr5_factor`` corrects for — the factor is the
    measured wall-time ratio of the PR 5 checkout to this tree's scalar
    oracle on the same scenario, rounded *down* (see the baseline JSON
    comment for the reference measurements). The product of the same-run
    ratio and that factor is the cold speedup the committed
    ``search_cold_speedup_floor`` gates.
    """
    design, workload = _cold_design()

    def one_run(fast: bool):
        kwargs = {} if fast else dict(dense_vectorized=False)
        evaluator = Evaluator(search_budget=COLD_SEARCH_BUDGET, **kwargs)
        t0 = time.perf_counter()
        result = evaluator._search_full(
            design, workload, batch_size=COLD_SEARCH_BUDGET
        ).best_result
        seconds = time.perf_counter() - t0
        winner = (
            result.cycles,
            result.energy_pj,
            result.dense.mapping.cache_key(),
        )
        return seconds, winner, evaluator.cache.dense.stats()

    def measure():
        fast_seconds = oracle_seconds = float("inf")
        for _ in range(COLD_SEARCH_ROUNDS):
            seconds, fast_winner, fast_stats = one_run(fast=True)
            fast_seconds = min(fast_seconds, seconds)
            seconds, oracle_winner, _ = one_run(fast=False)
            oracle_seconds = min(oracle_seconds, seconds)
            assert fast_winner == oracle_winner, (
                "tensorized cold search diverged from the scalar oracle"
            )
        return fast_seconds, oracle_seconds, fast_stats

    one_run(fast=True), one_run(fast=False)  # warmup (process memos)

    baseline = json.loads(BASELINE_PATH.read_text())
    floor = baseline["search_cold_speedup_floor"]
    factor = baseline["search_cold_oracle_pr5_factor"]
    # Timing-ratio smoke on shared runners: allow one re-measure before
    # declaring the floor breached (winner equality is never retried).
    for attempts_left in (1, 0):
        fast_seconds, oracle_seconds, fast_stats = measure()
        if (oracle_seconds / fast_seconds) * factor >= floor or not attempts_left:
            break

    ratio = oracle_seconds / fast_seconds
    speedup = ratio * factor
    summary = {
        "bench": "search_cold",
        "candidates": COLD_SEARCH_BUDGET,
        "fast_seconds": round(fast_seconds, 4),
        "oracle_seconds": round(oracle_seconds, 4),
        "cold_candidates_per_sec": round(COLD_SEARCH_BUDGET / fast_seconds, 1),
        "search_cold_ratio_vs_oracle": round(ratio, 2),
        "search_cold_oracle_pr5_factor": factor,
        "search_cold_speedup": round(speedup, 2),
        "dense_cache_hit_rate": round(fast_stats["hit_rate"], 4),
    }
    COLD_SUMMARY_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\n=== search_cold ===\n{json.dumps(summary, indent=2)}")

    assert speedup >= floor, (
        f"tensorized cold search achieved only {speedup:.2f}x over the "
        f"PR 5 cold baseline ({ratio:.2f}x same-run vs the scalar "
        f"oracle x the committed {factor} oracle-vs-PR-5 factor; fast "
        f"{fast_seconds:.3f}s, oracle {oracle_seconds:.3f}s); the "
        f"committed floor is {floor}x"
    )
