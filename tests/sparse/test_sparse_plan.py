"""Planned sparse walk vs the scalar oracle.

A :class:`~repro.sparse.postprocess.SparsePlan` is built once per
(design, mapping) and evaluated at many densities; every evaluation
must equal ``analyze_sparse(..., vectorized=False)`` exactly — same
dataclass, same slot order — on every bundled design family. The
tests call the plan API directly, so they also run when the
environment forces the scalar oracle for the engine.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, Workload
from repro.dataflow.nest_analysis import analyze_dataflow
from repro.designs import eyeriss, stc
from repro.sparse.density import DensityModel, FixedStructuredDensity
from repro.sparse.postprocess import (
    PLAN_STAGE,
    SparsePlan,
    analyze_sparse,
)
from repro.workload.nets import alexnet
from tests.model.test_evaluate_batch import _family_jobs, _gemm_workload


def _all_family_jobs(density: float) -> list[tuple]:
    """The 11 sweep families plus dense Eyeriss and flexible STC."""
    conv = alexnet()[2].spec
    return _family_jobs(density) + [
        (
            eyeriss.dense_eyeriss_design(),
            Workload.uniform(conv, {"I": density}),
        ),
        (
            stc.stc_flexible_design(8),
            _gemm_workload({"A": FixedStructuredDensity(2, 8), "B": density}),
        ),
    ]


def _case(index: int, density: float) -> tuple:
    return _all_family_jobs(density)[index]


def _plans() -> list[tuple]:
    """One ``(design, dense, plan)`` per family, built under a workload
    at density 0.5."""
    plans = []
    for design, workload in _all_family_jobs(0.5):
        mapping = design.mapping_for(workload)
        assert mapping is not None, design.name
        dense = analyze_dataflow(workload, design.arch, mapping)
        plans.append((design, dense, SparsePlan.build(dense, design.safs)))
    return plans


PLANS = _plans()
FAMILY_IDS = [design.name for design, *_ in PLANS]


def _assert_plan_matches_oracle(index: int, density: float) -> None:
    design, built_dense, plan = PLANS[index]
    _, workload = _case(index, density)
    dense = replace(built_dense, workload=workload)
    planned = analyze_sparse(dense, design.safs, plan=plan)
    oracle = analyze_sparse(dense, design.safs, vectorized=False)
    assert planned == oracle, (design.name, density)
    assert list(planned.actions) == list(oracle.actions)
    # Float reprs round-trip exactly: bit-identical, signed zeros too.
    assert repr(planned) == repr(oracle)


def test_every_bundled_family_is_covered():
    assert len(PLANS) == 13
    assert len(set(FAMILY_IDS)) == 13


@pytest.mark.parametrize("index", range(len(PLANS)), ids=FAMILY_IDS)
@pytest.mark.parametrize("density", [0.0, 1.0])
def test_plan_equals_oracle_at_the_density_bounds(index, density):
    _assert_plan_matches_oracle(index, density)


@given(
    index=st.integers(min_value=0, max_value=len(PLANS) - 1),
    density=st.floats(min_value=0.005, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_plan_equals_oracle_at_drawn_densities(index, density):
    _assert_plan_matches_oracle(index, density)


def test_plan_built_under_one_workload_evaluates_another():
    design, workload_a = _case(0, 0.3)
    _, workload_b = _case(0, 0.05)
    mapping = design.mapping_for(workload_a)
    dense_a = analyze_dataflow(workload_a, design.arch, mapping)
    dense_b = analyze_dataflow(workload_b, design.arch, mapping)
    plan = SparsePlan.build(dense_a, design.safs)
    planned = analyze_sparse(dense_b, design.safs, plan=plan)
    assert planned == analyze_sparse(dense_b, design.safs, vectorized=False)
    assert planned != analyze_sparse(dense_a, design.safs, vectorized=False)


def _reachable(root) -> list:
    """Every object reachable from ``root`` through
    ``gc.get_referents``, classes excluded."""
    seen: set[int] = set()
    found = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("index", range(len(PLANS)), ids=FAMILY_IDS)
def test_plan_holds_only_atomics_tuples_and_arrays(index):
    plan = PLANS[index][2]
    kinds = {type(obj) for obj in _reachable(plan)}
    assert not any(
        issubclass(kind, (Workload, DensityModel)) for kind in kinds
    )
    assert kinds <= {
        SparsePlan, tuple, str, int, float, bool, type(None), np.ndarray,
    }, kinds


def test_cached_plan_keeps_at_most_four_tracked_objects():
    with Session(sparse_vectorized=True) as session:
        for density in (0.2, 0.3):
            session.evaluate(*_case(0, density))
        stage = session.evaluator.cache.stage(PLAN_STAGE)
        (plan,) = [value for _key, value in stage.export_entries(limit=None)]
    gc.collect()
    tracked = [obj for obj in _reachable(plan) if gc.is_tracked(obj)]
    assert len(tracked) <= 4, [type(obj).__name__ for obj in tracked]
