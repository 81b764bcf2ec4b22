"""The flat evaluation record and the einsum-only factory memo.

The ``"sparse"`` stage's value is one :class:`EvaluationRecord` — a
shared layout and one float buffer — and results build their
``sparse``, ``usage``, ``latency`` and ``energy`` objects from it. These
tests pin:

* the views equal the pre-record object functions (test-local copies
  below, the loops the record's tail formulas replaced) run over the
  scalar oracle's walk, to the last bit, on every sweep family and a
  capacity overflow, for a walked miss, a planned miss and a hit;
* ``from_dict``, pickle and ``dataclasses.replace`` keep every number;
* a cached evaluation keeps at most ten GC-tracked objects;
* a repeated evaluation of a bundled-factory design builds no
  ``Mapping`` and makes exactly the dense and sparse lookups, while a
  user factory is called every time.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Workload, matmul
from repro.accelergy.backend import Accelergy
from repro.accelergy.library import build_component
from repro.api import Session
from repro.common.cache import StageCache
from repro.common.errors import ValidationError
from repro.dataflow import analyze_dataflow
from repro.designs import codesign, common, dstc, eyeriss, eyeriss_v2, scnn, stc, toy
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.micro.energy import EnergyResult, compute_energy
from repro.micro.latency import LatencyResult, compute_latency
from repro.micro.record import EvaluationRecord
from repro.micro.validity import LevelUsage, check_validity
from repro.model import engine
from repro.model.engine import Design, Evaluator
from repro.model.result import EvaluationResult
from repro.sparse.density import UniformDensity
from repro.sparse.postprocess import analyze_sparse, ensure_output_density
from repro.workload.nets import alexnet, mobilenet_v1
from tests.model.test_evaluate_batch import _family_jobs, _overflow_job

# ----------------------------------------------------------------------
# The object functions the record's tail replaced, kept as the reference.


def _reference_usage(arch, sparse) -> dict[str, LevelUsage]:
    usage = {}
    for level in arch.levels:
        report = LevelUsage(level.name, level.capacity_words, 0.0)
        for actions in sparse.level_actions(level.name):
            report.per_tensor[actions.tensor] = actions.worst_occupancy_words
            report.used_words += actions.worst_occupancy_words
        usage[level.name] = report
    return usage


def _reference_latency(arch, dense, sparse) -> LatencyResult:
    per_component, demand = {}, {}
    compute_cycles = sparse.compute.cycled / dense.utilized_compute_instances
    per_component[arch.compute.name] = compute_cycles
    for level in arch.levels:
        reads = writes = 0.0
        instances = 1
        for actions in sparse.level_actions(level.name):
            r = actions.data_reads.actual
            w = actions.data_writes.actual
            if level.metadata_on_data_port:
                scale = level.metadata_word_bits / level.word_bits
                r += actions.metadata_reads.actual * scale
                w += actions.metadata_writes.actual * scale
            reads += r
            writes += w
            record = dense.traffic.get((level.name, actions.tensor))
            if record is not None:
                instances = max(instances, record.instances)
        read_cycles = write_cycles = 0.0
        if level.read_bandwidth is not None:
            read_cycles = reads / instances / level.read_bandwidth
        if level.write_bandwidth is not None:
            write_cycles = writes / instances / level.write_bandwidth
        per_component[level.name] = max(read_cycles, write_cycles)
        if compute_cycles > 0:
            demand[level.name] = (reads + writes) / instances / compute_cycles
    bottleneck = max(per_component, key=per_component.get)
    cycles = per_component[bottleneck]
    if cycles <= 0.0:
        cycles = 1.0
    return LatencyResult(cycles, bottleneck, per_component, demand, compute_cycles)


def _reference_energy(arch, sparse) -> EnergyResult:
    backend = Accelergy(arch)
    check_pj = build_component("intersection").energy_per_action("check")

    def charge(breakdown, energy, gated):
        return breakdown.actual * energy + breakdown.gated * energy * gated

    per_component, detail = {}, {}
    for level in arch.levels:
        spec = backend.storage(level.name)
        total = 0.0
        parts_of_level = {}
        for actions in sparse.level_actions(level.name):
            parts = {
                "intersection": actions.intersection_checks * check_pj,
                "read": charge(actions.data_reads, spec.read, spec.gated_fraction),
                "write": charge(actions.data_writes, spec.write, spec.gated_fraction),
                "metadata_read": charge(
                    actions.metadata_reads, spec.metadata_read, spec.gated_fraction
                ),
                "metadata_write": charge(
                    actions.metadata_writes, spec.metadata_write, spec.gated_fraction
                ),
            }
            for key, value in parts.items():
                parts_of_level[f"{actions.tensor}:{key}"] = value
                total += value
        per_component[level.name] = total
        detail[level.name] = parts_of_level
    compute = charge(sparse.compute, backend.compute.op, backend.compute.gated_fraction)
    per_component[arch.compute.name] = compute
    detail[arch.compute.name] = {"op": compute}
    return EnergyResult(sum(per_component.values()), per_component, detail)


def _exact(data):
    """``data`` with every float spelled by ``float.hex`` (so ``-0.0``,
    NaN and the last bit all count) and its type kept; dataclasses as
    their fields."""
    if dataclasses.is_dataclass(data):
        return _exact(dataclasses.asdict(data))
    if isinstance(data, dict):
        return {key: _exact(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_exact(value) for value in data]
    if isinstance(data, float):
        return ("float", data.hex())
    return (type(data).__name__, data)


def _reference_result(design, workload, result) -> EvaluationResult:
    """The result the object functions give over the scalar walk."""
    dense = analyze_dataflow(workload, design.arch, result.dense.mapping)
    sparse = analyze_sparse(dense, design.safs, vectorized=False)
    return EvaluationResult(
        design.name,
        result.workload_name,
        result.dense,
        _sparse=sparse,
        _usage=_reference_usage(design.arch, sparse),
        _latency=_reference_latency(design.arch, dense, sparse),
        _energy=_reference_energy(design.arch, sparse),
    )


def _with_density(job, scale):
    """``job`` on a fresh workload whose uniform input densities are
    scaled by ``scale``."""
    design, workload = job
    einsum = workload.einsum
    models = {}
    for tensor in einsum.inputs:
        model = workload.densities.get(tensor.name)
        if isinstance(model, UniformDensity):
            model = UniformDensity(model.density * scale, model.tensor_size)
        if model is not None:
            models[tensor.name] = model
    return design, Workload(einsum, models)


RECORD_JOBS = _family_jobs(0.3) + [_overflow_job()]
RECORD_IDS = [f"family-{i}" for i in range(len(RECORD_JOBS) - 1)] + ["overflow"]


class TestViewsEqualObjectFunctions:
    @pytest.mark.parametrize("job", RECORD_JOBS, ids=RECORD_IDS)
    def test_walked_planned_and_hit_records(self, job):
        design, workload = job
        evaluator = Evaluator(check_capacity=False)
        other = _with_density(job, 0.5)
        walked = evaluator._evaluate(design, workload)
        evaluator._evaluate(*other)
        planned_design, planned_workload = _with_density(job, 0.25)
        planned = evaluator._evaluate(planned_design, planned_workload)
        hit = evaluator._evaluate(design, workload)
        stats = evaluator.cache.stats()
        assert stats["sparse"]["hits"] == 1
        if evaluator.sparse_vectorized:
            assert stats["plan"]["misses"] == 1 and stats["plan"]["hits"] == 1
        for result, point in (
            (walked, workload),
            (planned, planned_workload),
            (hit, workload),
        ):
            assert isinstance(result.record, EvaluationRecord)
            reference = _reference_result(design, point, result)
            assert result.to_json() == reference.to_json()
            assert _exact(result.to_dict()) == _exact(reference.to_dict())
            assert result == reference
            assert (result.cycles, result.energy_pj) == (
                reference.latency.cycles,
                reference.energy.total_pj,
            )

    @pytest.mark.parametrize("job", RECORD_JOBS, ids=RECORD_IDS)
    def test_adapters_equal_the_reference_loops(self, job):
        design, workload = job
        dense = analyze_dataflow(workload, design.arch, design.mapping_for(workload))
        sparse = analyze_sparse(dense, design.safs, vectorized=False)
        arch = design.arch
        pairs = (
            (
                check_validity(arch, sparse, raise_on_invalid=False),
                _reference_usage(arch, sparse),
            ),
            (compute_latency(arch, dense, sparse), _reference_latency(arch, dense, sparse)),
            (compute_energy(arch, sparse), _reference_energy(arch, sparse)),
        )
        for got, want in pairs:
            assert _exact(got) == _exact(want)

    def test_overflow_is_raised_from_the_record(self):
        design, workload = _overflow_job()
        dense = analyze_dataflow(workload, design.arch, design.mapping_for(workload))
        sparse = analyze_sparse(dense, design.safs, vectorized=False)
        with pytest.raises(ValidationError) as oracle:
            check_validity(design.arch, sparse)
        with pytest.raises(ValidationError) as cached:
            Evaluator()._evaluate(design, workload)
        assert str(cached.value) == str(oracle.value)


class TestRoundTrips:
    @pytest.mark.parametrize("job", RECORD_JOBS, ids=RECORD_IDS)
    def test_from_dict_pickle_and_replace_keep_every_number(self, job):
        result = Evaluator(check_capacity=False)._evaluate(*job)
        exact = _exact(result.to_dict())
        restored = EvaluationResult.from_dict(result.to_dict())
        assert restored.record is None
        assert _exact(restored.to_dict()) == exact
        shipped = pickle.loads(pickle.dumps(result))
        assert shipped.record.layout is result.record.layout
        assert _exact(shipped.to_dict()) == exact
        renamed = replace(result, workload_name="renamed")
        assert renamed.record is result.record
        assert renamed.workload_name == "renamed"
        assert _exact({**renamed.to_dict(), "workload": result.workload_name}) == exact
        renamed_restored = replace(restored, workload_name="renamed")
        assert _exact(
            {**renamed_restored.to_dict(), "workload": result.workload_name}
        ) == exact

    @pytest.mark.parametrize("job", RECORD_JOBS, ids=RECORD_IDS)
    def test_results_equal_their_round_trips(self, job):
        # DenseTraffic leaves its workload and arch back-references out
        # of equality: a pickled workload is a new object, and from_dict
        # restores no architecture.
        result = Evaluator(check_capacity=False)._evaluate(*job)
        assert pickle.loads(pickle.dumps(result)) == result
        assert EvaluationResult.from_dict(result.to_dict()) == result

    def test_summary_projection_builds_no_object(self):
        design, workload = _family_jobs(0.3)[0]
        result = Evaluator()._evaluate(design, workload)
        summary = result.to_dict(fields=["summary"])["summary"]
        assert summary == {
            "cycles": result.record.cycles,
            "energy_pj": result.record.energy_pj,
            "edp": result.record.energy_pj * result.record.cycles,
        }
        assert (result._sparse, result._usage, result._latency, result._energy) == (
            None,
            None,
            None,
            None,
        )

    def test_mutating_a_result_leaves_the_cache_alone(self):
        design, workload = _family_jobs(0.3)[0]
        evaluator = Evaluator()
        first = evaluator._evaluate(design, workload)
        expected = first.to_json()
        first.energy.per_component.clear()
        first.sparse.compute.actual = -1.0
        first.usage.clear()
        assert evaluator._evaluate(design, workload).to_json() == expected


class TestGcFootprint:
    def test_a_cached_evaluation_keeps_at_most_ten_tracked_objects(self):
        # Twenty density points per family: a sweep's shape, where the
        # dense analysis, plan and mapping of a family are shared.
        jobs = [
            _with_density(family, 1.0 - 0.045 * step)
            for step in range(20)
            for family in _family_jobs(0.3)
        ]
        for _design, workload in jobs:
            ensure_output_density(workload)
        warm = Evaluator()
        for job in jobs[:11]:
            warm._evaluate(*job)
        evaluator = Evaluator()
        gc.collect()
        before = len(gc.get_objects())
        for job in jobs:
            evaluator._evaluate(*job)
        gc.collect()
        kept = len(gc.get_objects()) - before
        assert len(evaluator.cache.sparse) == len(jobs)
        assert kept / len(jobs) <= 10, kept


# ----------------------------------------------------------------------
# The einsum-only factory memo.

#: Every registered factory with an architecture and the einsums it
#: schedules.
_CONV = alexnet()[2].spec
_MOBILE = mobilenet_v1()[3].spec
_MATMULS = (matmul(64, 64, 64), matmul(32, 128, 16))
_FACTORY_CASES = {
    "toy.output_stationary": (toy.bitmask_design(), _MATMULS),
    "eyeriss.row_stationary": (eyeriss.eyeriss_design(), (_CONV, *_MATMULS)),
    "eyeriss_v2.pe": (eyeriss_v2.eyeriss_v2_pe_design(), (_MOBILE, *_MATMULS)),
    "scnn.planar_tiled": (scnn.scnn_design(), (_CONV, *_MATMULS)),
    "dstc.outer_product": (dstc.dstc_design(), _MATMULS),
    "stc.stc": (stc.stc_design(), _MATMULS),
    "codesign.reuse_abz": (codesign.build_design("ReuseABZ", "InnermostSkip"), _MATMULS),
    "codesign.reuse_az": (codesign.build_design("ReuseAZ", "InnermostSkip"), _MATMULS),
    "common.generic_einsum": (
        replace(toy.bitmask_design(), mapping_factory=common.generic_einsum_mapping),
        (_CONV, *_MATMULS),
    ),
}


def test_every_registered_factory_is_covered():
    assert set(engine._EINSUM_ONLY) == set(_FACTORY_CASES)
    for name, (design, _einsums) in _FACTORY_CASES.items():
        assert design.mapping_factory is engine._EINSUM_ONLY[name]


@given(
    name=st.sampled_from(sorted(_FACTORY_CASES)),
    pick=st.integers(min_value=0, max_value=2),
    densities=st.lists(
        st.floats(min_value=1e-4, max_value=1.0), min_size=6, max_size=6
    ),
    label=st.text(max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_registered_factories_read_only_the_einsum(name, pick, densities, label):
    design, einsums = _FACTORY_CASES[name]
    einsum = einsums[pick % len(einsums)]
    inputs = [tensor.name for tensor in einsum.inputs]
    first = Workload.uniform(einsum, dict(zip(inputs, densities)))
    second = Workload.uniform(einsum, dict(zip(inputs, densities[3:])), name=label)
    factory = design.mapping_factory
    assert (
        factory(first, design.arch).cache_key()
        == factory(second, design.arch).cache_key()
    )


class TestFactoryMemo:
    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"mappings": 0, "lookups": []}
        init = Mapping.__init__
        get = StageCache.get

        def counted_init(self, *args, **kwargs):
            counts["mappings"] += 1
            init(self, *args, **kwargs)

        def counted_get(stage, key):
            counts["lookups"].append(stage.name)
            return get(stage, key)

        monkeypatch.setattr(Mapping, "__init__", counted_init)
        monkeypatch.setattr(StageCache, "get", counted_get)
        return counts

    @pytest.mark.parametrize("job", _family_jobs(0.3), ids=RECORD_IDS[:-1])
    def test_repeated_evaluate_builds_no_mapping(self, job, counters):
        design, workload = job
        with Session() as session:
            first = session.evaluate(design, workload)
            counters["mappings"] = 0
            counters["lookups"].clear()
            second = session.evaluate(design, workload)
        assert counters["mappings"] == 0
        assert counters["lookups"] == ["dense", "sparse"]
        assert second.record is first.record
        assert second.dense.mapping is first.dense.mapping

    def test_a_new_density_point_reuses_the_memoised_mapping(self, counters):
        design, workload = _family_jobs(0.3)[0]
        other = _with_density((design, workload), 0.5)[1]
        evaluator = Evaluator()
        first = evaluator._evaluate(design, workload)
        counters["mappings"] = 0
        second = evaluator._evaluate(design, other)
        assert counters["mappings"] == 0
        assert second.dense.mapping is first.dense.mapping
        assert len(evaluator.cache.mappings) == 1

    def test_user_factories_are_never_memoised(self):
        calls = []

        def by_density(workload, arch):
            """Splits ``m`` by how dense ``A`` is."""
            calls.append(workload)
            inner = 8 if workload.density_of("A").density > 0.5 else 16
            return Mapping(
                [
                    LevelMapping("DRAM", [Loop("m", 64 // inner), Loop("k", 4), Loop("n", 4)]),
                    LevelMapping("Buffer", [Loop("m", inner), Loop("k", 16), Loop("n", 16)]),
                ]
            )

        base = toy.bitmask_design()
        design = Design("user", base.arch, base.safs, mapping_factory=by_density)
        sparse = Workload.uniform(matmul(64, 64, 64), {"A": 0.2, "B": 0.5})
        dense = Workload.uniform(matmul(64, 64, 64), {"A": 0.9, "B": 0.5})
        evaluator = Evaluator(check_capacity=False)
        results = [evaluator._evaluate(design, w) for w in (sparse, dense, sparse)]
        assert len(calls) == 3
        assert evaluator.cache.mappings == {}
        assert results[0].dense.mapping.cache_key() != results[1].dense.mapping.cache_key()
        assert results[2].record is results[0].record

    def test_no_cache_calls_the_factory_every_time(self, counters):
        design, workload = _family_jobs(0.3)[0]
        evaluator = Evaluator(cache=None)
        evaluator._evaluate(design, workload)
        counters["mappings"] = 0
        evaluator._evaluate(design, workload)
        assert counters["mappings"] == 1
