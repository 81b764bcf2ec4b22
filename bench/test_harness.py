"""Tests of the benchmark harness itself: ``python -m pytest bench -q``.

They check the tracer's self-time arithmetic and patching, the
open-loop latency clock, the host-speed scaling, the serve job stream,
the comparison rules, and that the output digests repeat; they do not
measure anything.
"""

from __future__ import annotations

import itertools
import json

import pytest

import child
import compare
import hostspeed
import loadgen
import spans
import workloads


class FakeClock:
    """Integer nanoseconds that advance only when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def layer_totals(tracer: spans.Tracer) -> dict:
    stats, root_s = spans.layer_times(tracer.spans(), tracer.layer_of_name())
    return {layer: values for layer, values in stats.items() if values["calls"]}, root_s


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(10)

    def middle():
        clock.advance(5)
        leaf()
        leaf()
        clock.advance(7)

    leaf = tracer.wrap(leaf, "leaf", "leaf")
    middle = tracer.wrap(middle, "middle", "middle")
    outer = tracer.wrap(lambda: (clock.advance(100), middle()), "outer", "outer")
    outer()
    totals, root_s = layer_totals(tracer)
    assert totals["leaf"] == {"calls": 2, "items": 2, "self_s": 20e-9}
    assert totals["middle"]["self_s"] == pytest.approx(12e-9)
    assert totals["outer"]["self_s"] == pytest.approx(100e-9)
    assert root_s == pytest.approx(132e-9)
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(root_s)
    assert list(tracer.spans()["request"]) == [0, 0, 0, 0]


def test_self_time_of_generator_spans():
    """Each next() is a span under whichever span consumes it."""
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def produce():
        for _ in range(3):
            clock.advance(4)
            yield clock.now

    def consume():
        total = 0
        for value in produce():
            clock.advance(1)
            total += value
        return total

    produce = tracer.wrap(produce, "gen", "produce")
    consume = tracer.wrap(consume, "consumer", "consume")
    consume()
    totals, root_s = layer_totals(tracer)
    # three yields plus the final StopIteration next()
    assert totals["gen"]["calls"] == 4
    assert totals["gen"]["self_s"] == pytest.approx(12e-9)
    assert totals["consumer"]["self_s"] == pytest.approx(3e-9)
    assert root_s == pytest.approx(15e-9)


def test_batch_entry_points_count_items():
    tracer = spans.Tracer()

    def analyze_sparse_batch(jobs):
        return jobs

    tracer.wrap(analyze_sparse_batch, "sparse.walk", "analyze_sparse_batch")([1, 2, 3])
    totals, _ = layer_totals(tracer)
    assert totals["sparse.walk"]["items"] == 3


def test_patching_reaches_imported_bindings_and_unpatching_restores_them():
    from repro.common import cache
    from repro.model import engine
    from repro.sparse import density, postprocess

    originals = {
        "engine.analyze_sparse": engine.analyze_sparse,
        "postprocess.analyze_sparse": postprocess.analyze_sparse,
        "engine.dense_analysis_key": engine.dense_analysis_key,
        "get": cache.StageCache.__dict__["get"],
        "prob_empty": density.UniformDensity.__dict__["prob_empty"],
        "evaluate": engine.Evaluator.__dict__["_evaluate"],
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert engine.analyze_sparse is postprocess.analyze_sparse
        assert engine.analyze_sparse is not originals["engine.analyze_sparse"]
        assert engine.analyze_sparse.__wrapped__ is originals["engine.analyze_sparse"]
        assert engine.dense_analysis_key is not originals["engine.dense_analysis_key"]
        assert cache.StageCache.__dict__["get"] is not originals["get"]
        assert density.UniformDensity.__dict__["prob_empty"] is not originals["prob_empty"]
        assert engine.Evaluator.__dict__["_evaluate"] is not originals["evaluate"]
    finally:
        tracer.uninstall()
    assert engine.analyze_sparse is originals["engine.analyze_sparse"]
    assert postprocess.analyze_sparse is originals["postprocess.analyze_sparse"]
    assert engine.dense_analysis_key is originals["engine.dense_analysis_key"]
    assert cache.StageCache.__dict__["get"] is originals["get"]
    assert density.UniformDensity.__dict__["prob_empty"] is originals["prob_empty"]
    assert engine.Evaluator.__dict__["_evaluate"] is originals["evaluate"]


def test_traced_evaluation_records_every_layer_of_a_cold_eval():
    from repro import Session

    family, workload = workloads.SweepStream(workloads.sweep_families(), seed=3, label="test").next()
    tracer = spans.Tracer()
    tracer.install()
    try:
        Session().evaluate(family.design, workload)
    finally:
        tracer.uninstall()
    totals, root_s = layer_totals(tracer)
    for layer in ("api", "engine", "dataflow", "cache.key", "cache.lookup", "sparse.walk", "micro"):
        assert totals[layer]["calls"] > 0, layer
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(root_s)


class ScriptedConnection(loadgen.Connection):
    """A connection whose daemon answers instantly, and whose very first
    send stalls, so every later job is sent late."""

    def __init__(self, stall_ns: int):
        self.received = 0
        self.responses = {}
        self._stall_ns = stall_ns
        self._sent = 0

    def send_job(self, request_id, job) -> None:
        if self._sent == 0:
            deadline = loadgen.clock() + self._stall_ns
            while loadgen.clock() < deadline:
                pass
        self._sent += 1
        self.responses[request_id] = (loadgen.clock(), {"result": {}})
        self.received += 1


def test_open_loop_latency_counts_from_the_scheduled_send():
    stall_ns = 50_000_000
    conn = ScriptedConnection(stall_ns)
    jobs = ((index, None) for index in itertools.count())
    stats = conn.open_loop("test", jobs, rate=1000.0, seconds=0.01)
    latencies = loadgen.answered(conn, stats)
    assert len(latencies) == 10
    # Job k was due k ms after the first; all went out after the
    # 50 ms stall, so each waited at least 50 - k ms from its due time,
    # although each was answered immediately after its actual send.
    for k, latency in enumerate(latencies):
        assert latency >= stall_ns / 1e6 - k - 0.5
    sent_to_answer = [
        (conn.responses[i][0] - sent) / 1e6 for i, sent in zip(stats.ids, stats.sent)
    ]
    assert max(sent_to_answer[1:]) < 5


@pytest.mark.parametrize("cls, ops", [(child.SweepCold, 30), (child.DnnCphc, 3), (child.SearchCold, 1)])
def test_digests_repeat_across_runs(cls, ops):
    digests = []
    for _ in range(2):
        workload = cls(seed=7)
        workload.digest_ops = ops
        workload.setup()
        workload.phase(0.0, ops)
        digests.append(workload.digest.hexdigest())
    assert digests[0] == digests[1]
    other = cls(seed=8)
    other.digest_ops = ops
    other.setup()
    other.phase(0.0, ops)
    assert other.digest.hexdigest() != digests[0]


def test_host_speed_scales_each_job_by_the_loops_around_it():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_NS
    # Loops at t = 10, 20, ... 150; the host runs at half speed from t = 80.
    for k in range(1, 16):
        speed.at.append(10 * k)
        speed.took.append(ref if k < 8 else 2 * ref)
    # A job is scaled by the mean of the loops during it and the first
    # one after it, plus two on either side: a short job by the five
    # loops centred on the one after it, a long one by more; jobs at
    # the edges by the loops that exist.
    factors = speed.factors([1, 25, 61, 135, 200], [2, 28, 99, 138, 300])
    assert list(factors) == [1.0, 1.0, 8 / 13, 0.5, 0.5]
    assert speed.factor() == 0.5
    assert speed.factor(start=0, end=45) == 1.0
    assert speed.factor(start=1000) == 0.5  # an empty window: every loop


def test_host_speed_sampling_probes_until_stopped():
    speed = hostspeed.HostSpeed()
    speed.start_sampling()
    try:
        deadline = hostspeed.clock() + 50_000_000
        while hostspeed.clock() < deadline:
            pass
    finally:
        speed.stop_sampling()
    sampled = len(speed.took)
    assert sampled >= 3
    deadline = hostspeed.clock() + 20_000_000
    while hostspeed.clock() < deadline:
        pass
    assert len(speed.took) == sampled
    assert speed.spent_ns >= sum(speed.took) > 0


def test_serve_jobs_are_distinct_and_unbounded():
    """However many jobs a run sends, none repeats a timed or warm-up job."""
    mappings = 7
    size = mappings * workloads.SERVE_LEVELS
    timed = workloads.ServeJobs(seed=1, label="serve", mapping_count=mappings)
    warmup = workloads.ServeJobs(seed=1, label="warmup", mapping_count=mappings)
    jobs = [timed[index] for index in range(3 * size)]
    assert len(set(jobs)) == len(jobs)
    assert not set(jobs) & {warmup[index] for index in range(size)}
    assert workloads.ServeJobs(seed=1, label="serve", mapping_count=mappings)[2 * size + 5] == jobs[2 * size + 5]


def write_side(path, values, *, failed=0, first=True, seconds=15):
    """A result file of one workload's runs, one per value, every
    end-to-end metric reading that value; ``first`` says whether this
    side started the first pair (sides alternate after that)."""
    names = [metric["name"] for metric in json.loads((compare.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = [
        {
            "workload": "w",
            "seed": seed,
            "started": 2.0 * seed + (0 if (seed % 2 == 0) == first else 1),
            "attempted": 10,
            "failed": failed,
            "checks": {"ok": True},
            "outputs_digest": f"d{seed}",
            "metrics": {name: value for name in names},
        }
        for seed, value in enumerate(values)
    ]
    path.write_text(json.dumps({"seconds": seconds, "runs": runs}))
    return str(path)


def verdicts(capsys) -> set[str]:
    lines = capsys.readouterr().out.splitlines()[1:]
    return {line.split()[-1] for line in lines if line.startswith("w ") and "no gain" not in line}


def test_compare_claims_a_gain_only_under_the_guide_rules(tmp_path, capsys):
    parent = write_side(tmp_path / "a.json", [100.0 + k for k in range(10)])
    faster = [50.0 + k for k in range(10)]
    # Every metric moves by half: lower-is-better metrics improve,
    # higher-is-better ones regress.
    assert compare.main([parent, write_side(tmp_path / "b.json", faster, first=False)]) == 0
    assert verdicts(capsys) == {"improved", "regressed"}
    assert compare.main([parent, write_side(tmp_path / "c.json", faster, first=False, failed=1)]) == 0
    assert "improved" not in verdicts(capsys)
    assert compare.main([parent, write_side(tmp_path / "d.json", faster, first=True)]) == 0
    assert "improved" not in verdicts(capsys)


def test_compare_refuses_sides_measured_differently(tmp_path):
    parent = write_side(tmp_path / "a.json", [1.0] * 10)
    assert compare.main([parent, write_side(tmp_path / "b.json", [1.0] * 10, seconds=10)]) == 2
    assert compare.main([parent, write_side(tmp_path / "c.json", [1.0] * 9)]) == 2
