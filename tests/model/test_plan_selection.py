"""When the engine evaluates a sparse plan, and how it counts it.

A sparse-stage miss takes the plan path exactly when its dense
analysis came from the dense stage: a density sweep of one mapping
builds one plan and evaluates it for every later point, while a
mapspace search and a network pass (whose mappings never recur) walk.
The batch path must report the serial loop's counters for every stage,
also when a plan fails.
"""

from __future__ import annotations

from dataclasses import replace

from repro import MapspaceConstraints, Session, Workload, matmul
from repro.common.cache import global_cache
from repro.common.errors import ValidationError
from repro.designs import eyeriss, toy
from repro.sparse.format_analyzer import TILE_FORMAT_STAGE
from repro.sparse.postprocess import SparsePlan
from repro.workload.nets import alexnet

DENSITIES = [0.02 + 0.019 * index for index in range(50)]


def _points() -> list[tuple]:
    design = toy.bitmask_design()
    return [
        (design, Workload.uniform(matmul(64, 64, 64), {"A": d, "B": d}))
        for d in DENSITIES
    ]


def _counters(session: Session) -> dict[str, tuple[int, int]]:
    return {
        name: (stats["hits"], stats["misses"])
        for name, stats in session.cache_stats().items()
    }


def _densities_for(layer):
    return {"I": 0.5, "W": 0.4}


class TestSelectionRule:
    def test_density_sweep_builds_one_plan(self):
        with Session(sparse_vectorized=True) as session:
            results = [session.evaluate(*point) for point in _points()]
            counters = _counters(session)
        assert counters["dense"] == (49, 1)
        assert counters["sparse"] == (0, 50)
        assert counters["plan"] == (48, 1)
        with Session(sparse_vectorized=False) as oracle:
            expected = [oracle.evaluate(*point) for point in _points()]
            assert _counters(oracle)["plan"] == (0, 0)
        assert [r.to_json() for r in results] == [
            r.to_json() for r in expected
        ]

    def test_planned_points_skip_the_tile_format_stage(self):
        # A plan compiles its tile formats: only the first, walked
        # point looks up the process-global tile-format stage.
        stage = global_cache().stage(TILE_FORMAT_STAGE)
        points = _points()
        with Session(sparse_vectorized=True) as session:
            session.evaluate(*points[0])
            walked = stage.hits + stage.misses
            for point in points[1:]:
                session.evaluate(*point)
            assert _counters(session)["plan"] == (48, 1)
        assert stage.hits + stage.misses == walked

    def test_plan_stage_is_always_reported(self):
        with Session() as session:
            assert _counters(session)["plan"] == (0, 0)

    def test_search_walks(self):
        design = replace(
            toy.bitmask_design(),
            mapping_factory=None,
            constraints=MapspaceConstraints(),
        )
        workload = Workload.uniform(matmul(64, 64, 64), {"A": 0.3, "B": 0.5})
        with Session(sparse_vectorized=True, search_budget=64) as session:
            assert session.search(design, workload).found
            counters = _counters(session)
        assert counters["sparse"][1] > 0
        assert counters["plan"] == (0, 0)

    def test_network_walks(self):
        with Session(check_capacity=False, sparse_vectorized=True) as session:
            session.evaluate_network(
                eyeriss.eyeriss_design(), alexnet()[:5], _densities_for
            )
            counters = _counters(session)
        assert counters["sparse"][1] > 0
        assert counters["plan"] == (0, 0)


class TestBatchAccounting:
    def _serial(self) -> tuple[list, dict]:
        with Session(sparse_vectorized=True) as session:
            outcomes = [_outcome(session, point) for point in _points()]
            return outcomes, _counters(session)

    def _batched(self) -> tuple[list, dict]:
        with Session(sparse_vectorized=True) as session:
            handles = session.submit_many(_points())
            outcomes = [_resolve(handle) for handle in handles]
            return outcomes, _counters(session)

    def test_submit_many_reports_the_serial_counters(self):
        serial, serial_counters = self._serial()
        batched, batched_counters = self._batched()
        assert batched_counters == serial_counters
        assert batched_counters["plan"] == (48, 1)
        assert batched == serial

    def test_failed_plan_rolls_back_and_recounts(self, monkeypatch):
        def fail(self, workload, safs):
            raise ValidationError("plan evaluation failed")

        monkeypatch.setattr(SparsePlan, "evaluate", fail)
        serial, serial_counters = self._serial()
        batched, batched_counters = self._batched()
        assert batched_counters == serial_counters
        assert batched_counters["plan"] == (48, 1)
        assert batched == serial
        assert serial[0][1] is None
        errors = {error for _result, error in serial[1:]}
        assert errors == {"plan evaluation failed"}


def _outcome(session: Session, point) -> tuple:
    try:
        return session.evaluate(*point).to_json(), None
    except ValidationError as exc:
        return None, str(exc)


def _resolve(handle) -> tuple:
    try:
        return handle.result().to_json(), None
    except ValidationError as exc:
        return None, str(exc)
