"""The batched evaluation path against the serial loop.

``Evaluator._evaluate_batch`` is the engine's one batched path: the
serving daemon's micro-batches and every search block run through it.
For any list of jobs it must agree with calling ``_evaluate`` once per
job — per-job results, per-job errors, and the hit/miss accounting of
every cache stage — including when a stacked pass fails and the batch
recounts through the serial oracle.
"""

from __future__ import annotations

import pytest

from repro import Workload, matmul
from repro.api import Session
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.errors import ReproError, ValidationError
from repro.designs import codesign, dstc, eyeriss, eyeriss_v2, scnn, stc, toy
from repro.designs.common import conv_as_gemm
from repro.model import engine as engine_module
from repro.model.engine import Design, Evaluator
from repro.sparse.density import FixedStructuredDensity, UniformDensity
from repro.sparse.saf import SAFSpec
from repro.workload.nets import alexnet, mobilenet_v1, resnet50


def _gemm_workload(densities: dict[str, object]) -> Workload:
    gemm = conv_as_gemm(resnet50()[10])
    return Workload(
        gemm,
        {
            name: (
                UniformDensity(model, gemm.tensor_size(name))
                if isinstance(model, float)
                else model
            )
            for name, model in densities.items()
        },
    )


def _family_jobs(density: float) -> list[tuple]:
    """One job per bundled design family (the seven non-codesign
    families and the four Fig. 17 co-design combinations)."""
    mm64 = matmul(64, 64, 64)
    conv = alexnet()[2].spec
    mobile = mobilenet_v1()[3].spec
    jobs = [
        (toy.bitmask_design(), Workload.uniform(mm64, {"A": density, "B": density})),
        (
            toy.coordinate_list_design(),
            Workload.uniform(mm64, {"A": density, "B": density}),
        ),
        (eyeriss.eyeriss_design(), Workload.uniform(conv, {"I": density})),
        (
            eyeriss_v2.eyeriss_v2_pe_design(),
            Workload.uniform(mobile, {"I": density, "W": density}),
        ),
        (scnn.scnn_design(), Workload.uniform(conv, {"I": density, "W": density})),
        (dstc.dstc_design(), _gemm_workload({"A": density, "B": density})),
        (
            stc.stc_design(),
            _gemm_workload({"A": FixedStructuredDensity(2, 4), "B": density}),
        ),
    ]
    mm = Workload.uniform(matmul(256, 256, 256), {"A": density / 4, "B": density / 4})
    for dataflow, saf in codesign.ALL_COMBINATIONS:
        jobs.append((codesign.build_design(dataflow, saf), mm))
    return jobs


def _overflow_job() -> tuple:
    """A fixed-mapping job whose tiles cannot fit the buffer."""
    design = toy.bitmask_design()
    arch = Architecture(
        "tiny-buffer",
        [
            StorageLevel("DRAM", None, component="dram"),
            StorageLevel("Buffer", 4, component="sram"),
        ],
        ComputeLevel("MAC", instances=1),
    )
    tiny = Design("tiny", arch, SAFSpec(), mapping_factory=design.mapping_factory)
    return tiny, Workload.uniform(matmul(64, 64, 64), {"A": 0.5, "B": 0.5})


def _mixed_jobs() -> list[tuple]:
    jobs = _family_jobs(0.3) + _family_jobs(0.05)
    # Duplicates: the same job object again, and an equal-content job
    # built from fresh objects (served as a hit by the serial loop).
    jobs += [jobs[0], jobs[5], _family_jobs(0.3)[7]]
    jobs.insert(4, _overflow_job())
    return jobs


def _serial(evaluator: Evaluator, jobs) -> list[tuple]:
    outcomes = []
    for job in jobs:
        try:
            outcomes.append((evaluator._evaluate(*job), None))
        except ReproError as exc:
            outcomes.append((None, exc))
    return outcomes


def _counters(evaluator: Evaluator) -> dict:
    return {
        name: (stats["hits"], stats["misses"])
        for name, stats in evaluator.cache.stats().items()
    }


def _assert_same_outcomes(batched, serial) -> None:
    assert len(batched) == len(serial)
    for position, ((result, error), (want, want_error)) in enumerate(
        zip(batched, serial)
    ):
        if want_error is not None:
            assert result is None, position
            assert type(error) is type(want_error), position
            assert str(error) == str(want_error), position
        else:
            assert error is None, (position, error)
            assert result.to_dict() == want.to_dict(), position


class TestHeterogeneousBatchMatchesSerial:
    def test_every_family_with_duplicates_and_an_overflow(self):
        jobs = _mixed_jobs()
        batch_evaluator = Evaluator()
        serial_evaluator = Evaluator()
        batched = batch_evaluator._evaluate_batch(jobs)
        serial = _serial(serial_evaluator, jobs)
        assert any(error is not None for _, error in serial)
        assert sum(error is None for _, error in serial) >= 25
        _assert_same_outcomes(batched, serial)
        assert _counters(batch_evaluator) == _counters(serial_evaluator)

    def test_uncached_batch(self):
        jobs = _mixed_jobs()
        batched = Evaluator(cache=None)._evaluate_batch(jobs)
        _assert_same_outcomes(batched, _serial(Evaluator(cache=None), jobs))


class TestStackedFailureRecountsSerially:
    """A stacked pass that raises is re-run through the serial oracle;
    the aborted attempt's lookups must not be counted twice."""

    def _jobs(self):
        return [
            (codesign.build_design(*codesign.ALL_COMBINATIONS[0]),
             Workload.uniform(matmul(128, 128, 128), {"A": d, "B": d}))
            for d in (0.1, 0.2, 0.3)
        ]

    def _serial_stats(self, jobs) -> dict:
        with Session() as session:
            for design, workload in jobs:
                session.evaluate(design, workload)
            return session.cache_stats()

    @pytest.mark.parametrize(
        "backend", ["analyze_sparse_batch", "analyze_dataflow_batch"]
    )
    def test_submit_many_counts_like_the_serial_loop(self, monkeypatch, backend):
        jobs = self._jobs()
        serial = self._serial_stats(jobs)

        def fail(*args, **kwargs):
            raise ValidationError("stacked pass failed")

        monkeypatch.setattr(engine_module, backend, fail)
        with Session() as session:
            handles = session.submit_many(jobs)
            results = [handle.result() for handle in handles]
            stats = session.cache_stats()
        assert len(results) == 3
        assert stats["sparse"]["misses"] == serial["sparse"]["misses"] == 3
        assert stats == serial
