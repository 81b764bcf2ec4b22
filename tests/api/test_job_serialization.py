"""Job wire-format round-trips: ``to_dict`` / ``from_dict`` /
:func:`job_from_dict`.

Envelopes must be pure JSON (the daemon frames them as JSON lines),
version-checked like result envelopes, and round-trip to jobs that
evaluate bit-identically to the originals.
"""

from __future__ import annotations

import json

import pytest
import yaml

from repro.api import (
    EvaluateJob,
    FusedJob,
    NetworkJob,
    SearchJob,
    SearchShardJob,
    Session,
    job_from_dict,
)
from repro.api.jobs import JOB_SCHEMA_VERSION, _pack, _unpack
from repro.common.errors import SpecError
from repro.io.yaml_spec import load_design
from repro.search.objective import CallableObjective
from repro.workload.nets import alexnet
from tests.io.test_yaml_spec import FULL_SPEC
from tests.workload.test_graph import chain_graph


def _wire(job_dict: dict) -> dict:
    """Simulate the wire: envelopes must survive JSON framing."""
    return json.loads(json.dumps(job_dict))


def edp_objective(result) -> float:
    return result.edp


def uniform_densities(layer) -> dict:
    return {"I": 0.5}


class TestEvaluateJobRoundTrip:
    def test_envelope_shape(self):
        design, workload = load_design(FULL_SPEC)
        data = EvaluateJob(design, workload).to_dict()
        assert data["schema"] == JOB_SCHEMA_VERSION
        assert data["kind"] == "evaluate-job"
        assert data["design"]["encoding"] == "pickle"
        assert data["mapping"] is None

    def test_round_trip_evaluates_bit_identically(self):
        design, workload = load_design(FULL_SPEC)
        original = EvaluateJob(design, workload)
        rebuilt = EvaluateJob.from_dict(_wire(original.to_dict()))
        with Session() as session:
            expected = session.submit(original).result().to_dict()
        with Session() as session:
            actual = session.submit(rebuilt).result().to_dict()
        assert actual == expected

    def test_explicit_mapping_round_trips_structurally(self):
        design, workload = load_design(FULL_SPEC)
        job = EvaluateJob(design, workload, design.mapping)
        data = _wire(job.to_dict())
        assert isinstance(data["mapping"], list), "mappings use to_spec()"
        rebuilt = EvaluateJob.from_dict(data)
        assert rebuilt.mapping.to_spec() == design.mapping.to_spec()


class TestSearchJobRoundTrip:
    def test_round_trip_with_objective_and_knobs(self):
        design, workload = load_design(FULL_SPEC)
        job = SearchJob(
            design,
            workload,
            objective=("energy", "cycles"),
            parallel=2,
            batch_size=16,
            strategy="serial",
        )
        rebuilt = SearchJob.from_dict(_wire(job.to_dict()))
        assert rebuilt.objective == {
            "multi": ["energy", "cycles"], "scalar": "edp",
        }
        assert (rebuilt.parallel, rebuilt.batch_size, rebuilt.strategy) == (
            2,
            16,
            "serial",
        )

    @pytest.mark.parametrize("kind", [SearchJob, SearchShardJob])
    @pytest.mark.parametrize(
        "objective", [edp_objective, CallableObjective(edp_objective)],
        ids=["function", "wrapped"],
    )
    def test_callable_objective_is_not_serializable(self, kind, objective):
        design, workload = load_design(FULL_SPEC)
        job = kind(design, workload, objective=objective)
        with pytest.raises(SpecError, match="'weighted'.*'multi'"):
            job.to_dict()

    @pytest.mark.parametrize("kind", [SearchJob, SearchShardJob])
    def test_pickled_objective_refused_before_any_decode(self, kind):
        design, workload = load_design(FULL_SPEC)
        data = _wire(kind(design, workload).to_dict())
        data["objective"] = _pack(edp_objective)
        decoded = []

        def unpack(blob):
            decoded.append(blob)
            return _unpack(blob)

        with pytest.raises(SpecError, match="never as pickles"):
            job_from_dict(data, unpack=unpack)
        assert decoded == []

    def test_candidates_serialize_structurally(self):
        design, workload = load_design(FULL_SPEC)
        job = SearchJob(design, workload, candidates=[design.mapping])
        data = _wire(job.to_dict())
        assert isinstance(data["candidates"][0], list)
        rebuilt = SearchJob.from_dict(data)
        assert rebuilt.candidates[0].to_spec() == design.mapping.to_spec()

    def test_search_results_identical_after_round_trip(self):
        design, workload = load_design(FULL_SPEC)
        design = load_design(FULL_SPEC)[0]
        job = SearchJob(design, workload, candidates=[design.mapping])
        rebuilt = job_from_dict(_wire(job.to_dict()))
        with Session() as session:
            expected = session.submit(job).result().to_dict()
        with Session() as session:
            actual = session.submit(rebuilt).result().to_dict()
        assert actual == expected


class TestNetworkJobRoundTrip:
    def test_round_trip_evaluates_bit_identically(self):
        design, _ = load_design(FULL_SPEC)
        spec = yaml.safe_load(FULL_SPEC)
        layers = alexnet()[:2]
        job = NetworkJob(design, layers, uniform_densities)
        rebuilt = job_from_dict(_wire(job.to_dict()))
        assert [l.name for l in rebuilt.layers] == [l.name for l in layers]
        assert rebuilt.densities_for is uniform_densities
        assert rebuilt.design.name == design.name


class TestEnvelopeValidation:
    def test_job_from_dict_dispatches_every_kind(self):
        design, workload = load_design(FULL_SPEC)
        jobs = [
            EvaluateJob(design, workload),
            SearchJob(design, workload),
            NetworkJob(design, alexnet()[:1], uniform_densities),
        ]
        for job in jobs:
            assert type(job_from_dict(_wire(job.to_dict()))) is type(job)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown job kind"):
            job_from_dict({"schema": JOB_SCHEMA_VERSION, "kind": "teleport"})

    def test_wrong_schema_version_rejected(self):
        design, workload = load_design(FULL_SPEC)
        data = EvaluateJob(design, workload).to_dict()
        data["schema"] = 99
        with pytest.raises(SpecError, match="unsupported job schema"):
            EvaluateJob.from_dict(data)

    def test_wrong_kind_rejected(self):
        design, workload = load_design(FULL_SPEC)
        data = SearchJob(design, workload).to_dict()
        with pytest.raises(SpecError, match="expected a 'evaluate-job'"):
            EvaluateJob.from_dict(data)

    def test_non_dict_rejected(self):
        with pytest.raises(SpecError, match="must be a dict"):
            job_from_dict("a string")

    def test_tampered_payload_normalised_to_spec_error(self):
        design, workload = load_design(FULL_SPEC)
        data = EvaluateJob(design, workload).to_dict()
        data["design"] = {"encoding": "pickle", "data": "!!!not-base64!!!"}
        with pytest.raises(SpecError, match="cannot decode job payload"):
            EvaluateJob.from_dict(data)

    def test_untagged_payload_rejected(self):
        design, workload = load_design(FULL_SPEC)
        data = EvaluateJob(design, workload).to_dict()
        data["workload"] = "raw-string"
        with pytest.raises(SpecError, match="tagged pickle"):
            EvaluateJob.from_dict(data)


def _envelope(kind: str) -> dict:
    design, workload = load_design(FULL_SPEC)
    job = {
        "evaluate-job": lambda: EvaluateJob(design, workload),
        "search-job": lambda: SearchJob(design, workload),
        "search-shard-job": lambda: SearchShardJob(
            design, workload, search_id="s", stop=4, total=8
        ),
        "network-job": lambda: NetworkJob(
            design, alexnet()[:1], uniform_densities
        ),
        "fused-job": lambda: FusedJob(design, chain_graph()),
    }[kind]()
    return _wire(job.to_dict())


#: Every integer knob a job envelope carries, and whether it may be
#: ``null`` on the wire.
WIRE_INTS = [
    ("search-job", "parallel", True),
    ("search-job", "batch_size", True),
    ("search-job", "budget", True),
    ("search-job", "seed", True),
    ("search-job", "shards", True),
    ("network-job", "parallel", True),
    ("fused-job", "parallel", True),
    ("search-shard-job", "shard", False),
    ("search-shard-job", "start", False),
    ("search-shard-job", "stop", False),
    ("search-shard-job", "total", False),
    ("search-shard-job", "budget", False),
    ("search-shard-job", "seed", False),
    ("search-shard-job", "batch_size", True),
]


class TestWireIntegers:
    """Integer knobs decode strictly: ``"seed": "8"`` would seed a
    different random stream than ``8``, and ``"parallel": true`` would
    run as ``parallel=1``."""

    @pytest.mark.parametrize(
        "kind,name,nullable",
        WIRE_INTS,
        ids=[f"{kind}.{name}" for kind, name, _ in WIRE_INTS],
    )
    def test_only_integers_decode(self, kind, name, nullable):
        data = _envelope(kind)
        bad = ["8", True, 8.0, [8]] + ([] if nullable else [None])
        for value in bad:
            data[name] = value
            with pytest.raises(SpecError, match=f"{kind} field '{name}'"):
                job_from_dict(data)
        data[name] = 8
        assert job_from_dict(data).to_dict()[name] == 8
        if nullable:
            data[name] = None
            assert job_from_dict(data).to_dict()[name] is None


JOB_KINDS = [
    "evaluate-job",
    "search-job",
    "search-shard-job",
    "network-job",
    "fused-job",
]


class TestUnpackHook:
    """``job_from_dict(data, unpack=...)`` swaps the payload decoder,
    the way ``to_dict(pack=...)`` swaps the encoder."""

    def test_default_decodes_fresh_objects(self):
        data = _envelope("evaluate-job")
        first, second = job_from_dict(data), job_from_dict(data)
        assert first.design is not second.design
        assert first.workload is not second.workload
        assert first.design.name == second.design.name

    @pytest.mark.parametrize("kind", JOB_KINDS)
    def test_hook_sees_every_pickled_field(self, kind):
        data = _envelope(kind)
        pickled = [
            value
            for value in data.values()
            if isinstance(value, dict) and value.get("encoding") == "pickle"
        ]
        seen = []
        memo = {}

        def unpack(blob):
            seen.append(blob)
            if blob is None:
                return None
            if blob["data"] not in memo:
                memo[blob["data"]] = _unpack(blob)
            return memo[blob["data"]]

        first = job_from_dict(data, unpack=unpack)
        assert all(any(b is value for b in seen) for value in pickled)
        assert all(b is None or any(b is v for v in pickled) for b in seen)
        # What the hook returns is what the job holds.
        second = job_from_dict(data, unpack=unpack)
        assert first.design is second.design
        assert len(memo) == len({value["data"] for value in pickled})
