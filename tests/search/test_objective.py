"""Objective resolution and wire-spec round-trips.

Every objective form a user can hand to ``Session.search`` must
resolve to an :class:`Objective`, and every wire-safe objective must
survive ``to_spec -> objective_from_spec`` unchanged; callables are the
single deliberate exception (descriptive spec only, never rebuilt).
"""

from __future__ import annotations

import math

import pytest

from repro import Session
from repro.common.errors import SpecError
from repro.search import (
    MultiObjective,
    NamedObjective,
    Objective,
    WeightedObjective,
    resolve_objective,
)
from repro.search.objective import (
    DEFAULT_OBJECTIVE,
    OBJECTIVE_NAMES,
    CallableObjective,
    capacity_slack,
    objective_from_spec,
)
from tests.io.test_yaml_spec import FULL_SPEC


@pytest.fixture(scope="module")
def result():
    with Session() as session:
        return session.evaluate(FULL_SPEC)


class TestResolution:
    def test_none_is_edp(self):
        assert resolve_objective(None) is DEFAULT_OBJECTIVE
        assert DEFAULT_OBJECTIVE.name == "edp"

    def test_names_resolve(self):
        for name in OBJECTIVE_NAMES:
            objective = resolve_objective(name)
            assert isinstance(objective, NamedObjective)
            assert objective.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(SpecError, match="objective"):
            resolve_objective("power")

    def test_sequence_resolves_to_multi(self):
        objective = resolve_objective(["energy", "cycles"])
        assert isinstance(objective, MultiObjective)
        assert objective.axes == ("energy", "cycles")

    def test_objective_passes_through(self):
        objective = NamedObjective("energy")
        assert resolve_objective(objective) is objective

    def test_callable_wraps(self):
        objective = resolve_objective(lambda r: r.cycles)
        assert isinstance(objective, CallableObjective)

    def test_garbage_rejected(self):
        with pytest.raises(SpecError):
            resolve_objective(3.14)


class TestScoring:
    def test_named_scores_match_metrics(self, result):
        assert NamedObjective("edp").score(result) == result.edp
        assert NamedObjective("energy").score(result) == result.energy_pj
        assert NamedObjective("cycles").score(result) == result.cycles
        assert NamedObjective("latency").score(result) == result.cycles
        assert NamedObjective("slack").score(result) == pytest.approx(
            -capacity_slack(result)
        )

    def test_capacity_slack_bounds(self, result):
        slack = capacity_slack(result)
        assert 0.0 <= slack <= 1.0

    def test_weighted_is_linear(self, result):
        objective = resolve_objective(
            {"weighted": {"energy": 0.5, "cycles": 2.0}}
        )
        expected = 0.5 * result.energy_pj + 2.0 * result.cycles
        assert objective.score(result) == pytest.approx(expected)

    def test_weighted_rejects_bad_weights(self):
        with pytest.raises(SpecError):
            resolve_objective({"weighted": {"energy": math.inf}})
        with pytest.raises(SpecError):
            resolve_objective({"weighted": {"power": 1.0}})

    def test_multi_vector_and_scalar(self, result):
        objective = MultiObjective(
            metrics=("energy", "cycles", "slack"), scalar="edp"
        )
        assert objective.score(result) == result.edp
        vector = objective.vector(result)
        assert vector == (
            result.energy_pj,
            result.cycles,
            pytest.approx(-capacity_slack(result)),
        )

    def test_scalar_vector_is_one_dimensional(self, result):
        objective = NamedObjective("energy")
        assert objective.vector(result) == (result.energy_pj,)
        assert objective.axes == ("energy",)


class TestWireSpecs:
    @pytest.mark.parametrize(
        "objective",
        [
            NamedObjective("energy"),
            WeightedObjective((("energy", 0.5), ("cycles", 2.0))),
            MultiObjective(metrics=("energy", "cycles"), scalar="energy"),
        ],
        ids=["named", "weighted", "multi"],
    )
    def test_wire_safe_round_trip(self, objective):
        spec = objective.to_spec()
        rebuilt = objective_from_spec(spec)
        assert rebuilt == objective
        assert rebuilt.to_spec() == spec

    def test_named_spec_is_plain_string(self):
        assert NamedObjective("energy").to_spec() == "energy"

    def test_callable_spec_is_descriptive_only(self):
        objective = CallableObjective(capacity_slack)
        spec = objective.to_spec()
        assert spec == {"callable": "repro.search.objective:capacity_slack"}
        with pytest.raises(SpecError, match="callable"):
            objective_from_spec(spec)

    def test_unknown_spec_rejected(self):
        with pytest.raises(SpecError):
            objective_from_spec({"maximize": "throughput"})

    def test_base_objective_is_abstract_enough(self, result):
        with pytest.raises(NotImplementedError):
            Objective().score(result)
