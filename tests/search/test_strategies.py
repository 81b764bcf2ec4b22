"""Strategy-level guarantees: scalar equivalence, winner-on-frontier,
frontier agreement on exhaustive mapspaces, and evolutionary behaviour
(determinism, pinned factors, budget accounting).
"""

from __future__ import annotations

import pytest

from repro import Design, SAFSpec, Session, Workload, matmul
from repro.api.jobs import SearchJob
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.common.errors import SpecError
from repro.mapping.mapspace import Mapper, MapspaceConstraints
from repro.model.engine import Evaluator
from repro.search.evolutionary import genome_of
from repro.search.frontier import dominates

BUDGET = 24


def _arch(buffer_words=16 * 1024, macs=16) -> Architecture:
    return Architecture(
        "strategies",
        [
            StorageLevel("DRAM", None, component="dram",
                         read_bandwidth=8, write_bandwidth=8),
            StorageLevel("Buffer", buffer_words, component="sram",
                         read_bandwidth=8, write_bandwidth=8),
        ],
        ComputeLevel("MAC", instances=macs),
    )


def _sampled_case():
    constraints = MapspaceConstraints(spatial_dims={"Buffer": ["n", "m"]})
    workload = Workload.uniform(matmul(128, 128, 128), {"A": 0.2, "B": 0.2})
    design = Design("sampled", _arch(), SAFSpec(), constraints=constraints)
    return design, workload


def _exhaustive_case():
    workload = Workload.uniform(matmul(8, 8, 8), {"A": 0.5, "B": 0.5})
    design = Design(
        "tiny", _arch(buffer_words=1024, macs=4),
        SAFSpec(), constraints=MapspaceConstraints(),
    )
    return design, workload


def _outcome(strategy, objective=None, case=_sampled_case, budget=BUDGET):
    design, workload = case()
    evaluator = Evaluator(search_budget=budget)
    return evaluator._search_full(
        design, workload, objective=objective, strategy=strategy
    )


class TestScalarEquivalence:
    @pytest.mark.parametrize("objective", [None, "energy", "cycles"])
    def test_batched_matches_serial_bit_identically(self, objective):
        serial = _outcome("serial", objective)
        batched = _outcome("batched", objective)
        assert serial.best_score == batched.best_score
        assert serial.best_index == batched.best_index
        assert (serial.best_result.to_dict()
                == batched.best_result.to_dict())
        assert serial.frontier.to_dict() == batched.frontier.to_dict()

    def test_scalar_winner_is_on_frontier(self):
        outcome = _outcome("batched", "energy")
        winner = outcome.frontier.best()
        assert winner.index == outcome.best_index
        assert winner.score == outcome.best_score
        assert winner in outcome.frontier.ordered()


class TestMultiObjective:
    def test_frontier_mutually_non_dominated(self):
        outcome = _outcome("batched", ("energy", "cycles", "slack"))
        points = outcome.frontier.ordered()
        assert points
        for a in points:
            for b in points:
                assert not dominates(a.objectives, b.objectives)

    def test_scalar_winner_on_multi_frontier(self):
        outcome = _outcome("batched", ("energy", "cycles", "slack"))
        assert any(
            p.index == outcome.best_index
            for p in outcome.frontier.ordered()
        )

    def test_parallel_frontier_matches_serial(self):
        design, workload = _sampled_case()
        solo = Evaluator(search_budget=BUDGET)._search_full(
            design, workload, objective=("energy", "cycles"),
        )
        fanned = Evaluator(search_budget=BUDGET)._search_full(
            design, workload, objective=("energy", "cycles"), parallel=2
        )
        assert solo.frontier.to_dict() == fanned.frontier.to_dict()
        assert solo.best_score == fanned.best_score


class TestExhaustiveAgreement:
    def test_all_strategies_agree_on_exhaustive_mapspaces(self):
        """On an exhaustive scan every strategy sees every candidate,
        so the frontiers must be identical — evolutionary degrades to
        the batched scan by design."""
        objective = ("energy", "cycles")
        frontiers = {
            strategy: _outcome(
                strategy, objective, case=_exhaustive_case, budget=4096
            ).frontier.to_dict()
            for strategy in ("serial", "batched", "evolutionary")
        }
        assert frontiers["serial"] == frontiers["batched"]
        assert frontiers["serial"] == frontiers["evolutionary"]


class TestEvolutionary:
    def test_deterministic_with_fixed_seed(self):
        a = _outcome("evolutionary", "energy")
        b = _outcome("evolutionary", "energy")
        assert a.best_score == b.best_score
        assert a.best_index == b.best_index
        assert a.frontier.to_dict() == b.frontier.to_dict()

    def test_winner_is_valid_and_on_frontier(self):
        outcome = _outcome("evolutionary", "energy")
        assert outcome.best_result is not None
        winner = outcome.frontier.best()
        assert winner.index == outcome.best_index

    def test_fixed_factors_honoured_by_construction(self):
        constraints = MapspaceConstraints(
            spatial_dims={"Buffer": ["n", "m"]},
            fixed_factors={"Buffer": {"k": 8}},
        )
        workload = Workload.uniform(
            matmul(128, 128, 128), {"A": 0.2, "B": 0.2}
        )
        design = Design(
            "pinned", _arch(), SAFSpec(), constraints=constraints
        )
        evaluator = Evaluator(search_budget=BUDGET)
        outcome = evaluator._search_full(
            design, workload, objective="edp", strategy="evolutionary"
        )
        mapper = Mapper(workload.einsum, design.arch, constraints)
        for point in outcome.frontier.ordered():
            mapping = point.result.dense.mapping
            genome = genome_of(mapper, mapping)
            assert genome["k"][mapper._dim_slot_names("k").index(
                ("t", "Buffer")
            )] == 8

    def test_explicit_candidates_rejected(self):
        design, workload = _sampled_case()
        evaluator = Evaluator(search_budget=BUDGET)
        with pytest.raises(SpecError, match="evolutionary"):
            evaluator._search_full(
                design, workload,
                candidates=[design.mapping] if design.mapping else [],
                strategy="evolutionary",
            )

    def test_budget_caps_proposals(self):
        """The evolutionary loop never evaluates more candidates than
        the budget: total dense-stage analyses stay <= budget."""
        design, workload = _sampled_case()
        evaluator = Evaluator(search_budget=BUDGET)
        evaluator._search_full(
            design, workload, objective="edp", strategy="evolutionary"
        )
        dense = evaluator.cache.stats()["dense"]
        assert dense["misses"] + dense["hits"] <= BUDGET

    def test_matches_or_beats_batched_at_equal_budget(self):
        """The acceptance bar asserted for CI in
        benchmarks/bench_search_pareto.py, pinned here on the small
        case too."""
        batched = _outcome("batched", "edp")
        evolved = _outcome("evolutionary", "edp")
        assert evolved.best_score <= batched.best_score

    def test_session_round_trip(self):
        design, workload = _sampled_case()
        with Session(search_budget=BUDGET) as session:
            result = session.search(
                SearchJob(design, workload, strategy="evolutionary",
                          objective=("energy", "cycles", "slack"))
            )
        data = result.to_dict()
        assert data["strategy"] == "evolutionary"
        assert data["objective"] == {
            "multi": ["energy", "cycles", "slack"], "scalar": "edp",
        }
        from repro.model.result import SearchResult

        assert SearchResult.from_dict(data).to_dict() == data


def energy_callable(result) -> float:
    """Module-level (hence picklable) callable objective."""
    return result.energy_pj


class TestCallableObjectivesInProcess:
    """A callable objective never travels on the wire, but every
    in-process search form takes it and scores exactly like the named
    objective it mirrors."""

    @pytest.mark.parametrize(
        "strategy,parallel",
        [("serial", 1), ("batched", 1), ("batched", 2), ("evolutionary", 1)],
    )
    def test_callable_matches_named_objective(self, strategy, parallel):
        design, workload = _sampled_case()
        results = []
        for objective in (energy_callable, "energy"):
            with Session(search_budget=BUDGET, parallel=parallel) as session:
                results.append(
                    session.search(
                        design, workload, objective=objective,
                        strategy=strategy,
                    )
                )
        called, named = results
        assert called.objective == {
            "callable": f"{__name__}:energy_callable"
        }
        assert called.best_index == named.best_index
        assert called.best_score == named.best_score
        assert called.best.to_dict() == named.best.to_dict()
        assert [p.to_dict() for p in called.frontier.ordered()] == [
            p.to_dict() for p in named.frontier.ordered()
        ]
