"""The Session/Job façade: one front door for every evaluation path.

Covers the acceptance bar of the API redesign: the same design
expressed as a YAML path, a YAML string, a dict, and Python objects
produces bit-identical results through ``Session.submit``; handles
behave like futures (lazy, batched, error-capturing); the Session owns
the persistent tier (auto warm-start on first use, spill on close);
and search/network jobs reproduce the engine exactly.
"""

from __future__ import annotations

import pytest
import yaml

from repro import (
    Design,
    EvaluateJob,
    Evaluator,
    MapspaceConstraints,
    NetworkJob,
    Session,
    load_design,
)
from repro.api import evaluate_network
from repro.common.cache import AnalysisCache, PersistentCache
from repro.common.errors import (
    MappingError,
    ReproError,
    SpecError,
    ValidationError,
)
from repro.model.result import NetworkResult, SearchResult
from repro.workload.nets import NetLayer, alexnet
from tests.io.test_yaml_spec import FULL_SPEC


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(FULL_SPEC)
    return str(path)


def _overflow_spec() -> dict:
    """The full spec with a Buffer too small for its tiles."""
    spec = yaml.safe_load(FULL_SPEC)
    spec["arch"]["storage"][1]["capacity_words"] = 4
    return spec


class TestSubmitForms:
    def test_four_spec_forms_bit_identical(self, spec_file):
        design, workload = load_design(FULL_SPEC)
        with Session() as session:
            results = [
                session.evaluate(spec_file),               # YAML path
                session.evaluate(FULL_SPEC),               # YAML string
                session.evaluate(yaml.safe_load(FULL_SPEC)),  # dict
                session.evaluate(design, workload),        # Python objects
            ]
        dicts = [r.to_dict() for r in results]
        assert dicts[0] == dicts[1] == dicts[2] == dicts[3]

    def test_tuple_job_form(self):
        design, workload = load_design(FULL_SPEC)
        with Session() as session:
            via_tuple = session.submit((design, workload)).result()
            via_job = session.submit(EvaluateJob(design, workload)).result()
        assert via_tuple.to_dict() == via_job.to_dict()

    def test_constraints_only_spec_searches(self):
        spec = yaml.safe_load(FULL_SPEC)
        del spec["mapping"]
        spec["constraints"] = {"spatial_dims": {"Buffer": ["n"]}}
        with Session(search_budget=8) as session:
            outcome = session.submit(spec).result()
        assert isinstance(outcome, SearchResult)
        assert outcome.found

    def test_search_flag_overrides_mapping(self):
        with Session(search_budget=8) as session:
            outcome = session.submit(FULL_SPEC, search=True).result()
        assert isinstance(outcome, SearchResult)
        assert outcome.best is not None

    def test_rejects_unsubmittable_objects(self):
        with Session() as session:
            with pytest.raises(SpecError):
                session.submit(42)
            with pytest.raises(SpecError):
                session.submit((1,))
            handle = session.submit(FULL_SPEC)
            with pytest.raises(SpecError):
                session.submit(handle)

    def test_malformed_spec_raises_spec_error(self):
        with Session() as session:
            with pytest.raises(SpecError):
                session.submit("- not\n- a\n- design\n")


class TestJobHandles:
    def test_handles_resolve_lazily_and_in_bulk(self):
        design, workload = load_design(FULL_SPEC)
        with Session() as session:
            handles = session.submit_many(
                [EvaluateJob(design, workload) for _ in range(3)]
            )
            assert not any(h.done() for h in handles)
            first = handles[0].result()
            # One result() drains the whole batch.
            assert all(h.done() for h in handles)
            assert handles[2].result().to_dict() == first.to_dict()

    def test_capacity_error_captured_per_job(self):
        bad = _overflow_spec()
        with Session() as session:
            ok = session.submit(FULL_SPEC)
            failing = session.submit(bad)
            assert isinstance(failing.exception(), ValidationError)
            with pytest.raises(ValidationError):
                failing.result()
            # The healthy job in the same batch still succeeded.
            assert ok.exception() is None
            assert ok.result().cycles > 0

    def test_run_resolves_without_result_reads(self):
        with Session() as session:
            handle = session.submit(FULL_SPEC)
            session.run()
            assert handle.done()

    def test_parallel_batch_matches_serial(self):
        design, workload = load_design(FULL_SPEC)
        jobs = [EvaluateJob(design, workload) for _ in range(4)]
        with Session() as serial:
            expected = [h.result().to_dict() for h in serial.submit_many(jobs)]
        with Session(parallel=2) as pooled:
            got = [h.result().to_dict() for h in pooled.submit_many(jobs)]
        assert got == expected

    def test_missing_workload_rejected_at_submit(self):
        design, workload = load_design(FULL_SPEC)
        with Session() as session:
            with pytest.raises(SpecError):
                session.submit(EvaluateJob(design, None))
            with pytest.raises(SpecError):
                session.evaluate(design)  # forgot the workload

    def test_unexpected_error_resolves_all_handles(self, monkeypatch):
        # A non-ReproError aborts the batch, but every orphaned handle
        # must still resolve with that error — never a silent None.
        design, workload = load_design(FULL_SPEC)
        boom = RuntimeError("engine exploded")

        def explode(*args, **kwargs):
            raise boom

        with Session() as session:
            # Patch both serial and stacked-batch entry points: the
            # Session picks one based on batch size.
            monkeypatch.setattr(session.evaluator, "_evaluate", explode)
            monkeypatch.setattr(session.evaluator, "_evaluate_batch", explode)
            bad = session.submit(EvaluateJob(design, workload))
            orphan = session.submit(EvaluateJob(design, workload))
            with pytest.raises(RuntimeError):
                bad.result()
            assert bad.done() and bad.exception() is boom
            assert orphan.done(), "handles must never be orphaned"
            assert orphan.exception() is boom

    def test_parallel_batch_with_failures_attributes_them(self):
        # A pooled batch containing a capacity-overflow job attributes
        # the failure to the one job that caused it.
        with Session(parallel=2) as session:
            ok = session.submit(FULL_SPEC)
            bad = session.submit(_overflow_spec())
            assert ok.exception() is None
            assert isinstance(bad.exception(), ValidationError)

    def test_pooled_batch_with_an_overflow_is_evaluated_once(
        self, monkeypatch
    ):
        specs = [FULL_SPEC, _overflow_spec(), FULL_SPEC, FULL_SPEC]
        with Session() as serial:
            expected = [h.exception() or h.result() for h in serial.submit_many(specs)]
        calls = []
        with Session(parallel=2) as pooled:
            engine = pooled.evaluator
            for name in ("_evaluate", "_evaluate_batch", "_evaluate_many"):
                method = getattr(engine, name)

                def counted(*args, _name=name, _method=method, **kwargs):
                    calls.append(_name)
                    return _method(*args, **kwargs)

                monkeypatch.setattr(engine, name, counted)
            handles = pooled.submit_many(specs)
            pooled.run()
        # One pooled pass; no job re-runs in-process.
        assert calls == ["_evaluate_many"]
        error = handles[1].exception()
        assert isinstance(error, ValidationError)
        assert str(error) == str(expected[1])
        for index in (0, 2, 3):
            assert handles[index].exception() is None
            assert handles[index].result().to_dict() == expected[index].to_dict()


class TestSessionLifecycle:
    def test_context_manager_closes(self):
        with Session() as session:
            pass
        assert session.closed
        with pytest.raises(SpecError):
            session.submit(FULL_SPEC)

    def test_close_runs_pending_jobs(self):
        session = Session()
        handle = session.submit(FULL_SPEC)
        session.close()
        assert handle.done()
        assert handle.result().cycles > 0
        session.close()  # idempotent

    def test_exception_exit_cancels_pending_jobs(self):
        # Ctrl-C (or any exception) mid-sweep must not run the rest of
        # the sweep during unwind; pending handles resolve as cancelled.
        design, workload = load_design(FULL_SPEC)
        with pytest.raises(KeyboardInterrupt):
            with Session() as session:
                pending = session.submit(EvaluateJob(design, workload))
                raise KeyboardInterrupt
        assert session.closed
        assert pending.done()
        assert isinstance(pending.exception(), ReproError)
        assert "cancelled" in str(pending.exception())

    def test_cache_stats_through_session(self):
        with Session() as session:
            session.evaluate(FULL_SPEC)
            session.evaluate(FULL_SPEC)
            stats = session.cache_stats()
        assert stats["sparse"]["hits"] >= 1
        assert Session(cache=None).cache_stats() == {}

    def test_shared_cache_pools_hits(self):
        shared = AnalysisCache()
        with Session(cache=shared) as first:
            first.evaluate(FULL_SPEC)
        with Session(cache=shared) as second:
            second.evaluate(FULL_SPEC)
            assert second.cache_stats()["sparse"]["hits"] >= 1

    def test_rejects_bad_parallel(self):
        with pytest.raises(SpecError):
            Session(parallel=0)

    @pytest.mark.parametrize("budget", [0, -3, True, 8.0, "8", None])
    def test_rejects_bad_search_budget(self, budget):
        # A budget below 1 would search nothing and report found=False.
        with pytest.raises(SpecError, match="search_budget"):
            Session(search_budget=budget)

    @pytest.mark.parametrize("seed", ["8", 8.0, True, None])
    def test_rejects_bad_search_seed(self, seed):
        # random.Random("8") draws a different stream than seed 8.
        with pytest.raises(SpecError, match="search_seed"):
            Session(search_seed=seed)

    def test_accepts_integer_search_knobs(self):
        with Session(search_budget=1, search_seed=-5) as session:
            assert session.evaluator.search_budget == 1
            assert session.evaluator.search_seed == -5

    @pytest.mark.parametrize(
        "knobs",
        [
            {"parallel": "2"},
            {"parallel": True},
            {"parallel": 2.5},
            {"workers": True},
            {"workers": "2"},
            {"worker_timeout": -1},
            {"worker_timeout": 0},
            {"worker_timeout": "30"},
            {"worker_timeout": True},
            {"worker_timeout": float("nan")},
        ],
        ids=repr,
    )
    def test_rejects_bad_pool_knobs(self, knobs):
        # Each used to be accepted as given or fail with a TypeError.
        (name,) = knobs
        with pytest.raises(SpecError, match=name):
            Session(**knobs)

    def test_accepts_pool_knobs(self):
        for knobs in (
            {"parallel": 2, "workers": 2, "worker_timeout": 5},
            {"workers": ["127.0.0.1:7001"], "worker_timeout": 0.5},
            {"workers": None},
        ):
            with Session(**knobs):
                pass


    def test_prefilter_vectorized_is_accepted_and_ignored(self):
        # The capacity prefilter has one backend; the keyword stays only
        # for callers that still pass it.
        design, workload = load_design(FULL_SPEC)
        searched = {}
        for knobs in ({}, {"prefilter_vectorized": False}):
            with Session(search_budget=8, **knobs) as session:
                evaluated = session.evaluate(design, workload).to_dict()
                outcome = session.search(design, workload)
            searched[bool(knobs)] = (
                evaluated,
                outcome.best_index,
                outcome.best.to_dict(),
                [point.index for point in outcome.frontier.ordered()],
            )
        assert searched[True] == searched[False]


class TestPersistentTier:
    def test_warm_start_on_first_use_and_spill_on_close(self, tmp_path):
        store = PersistentCache(root=tmp_path)
        with Session(persistent=store) as first:
            cold = first.evaluate(FULL_SPEC)
            assert first.warm_loaded == 0
        snapshots = list(tmp_path.rglob("*.pkl"))
        assert snapshots, "close() must spill a snapshot"

        with Session(persistent=PersistentCache(root=tmp_path)) as second:
            warm = second.evaluate(FULL_SPEC)
            assert second.warm_loaded > 0, "first use must warm-start"
            # The warm evaluation is a pure cache replay.
            assert second.cache_stats()["sparse"]["misses"] == 0
        assert warm.to_dict() == cold.to_dict()

    def test_multi_key_spill_keeps_every_snapshot_fresh(self, tmp_path):
        from repro.model.engine import persistent_state_key

        def variant(density):
            spec = yaml.safe_load(FULL_SPEC)
            spec["workload"]["densities"]["A"] = density
            return load_design(spec)

        points = [variant(d) for d in (0.25, 0.3, 0.35)]
        keys = [persistent_state_key(d, [w]) for d, w in points]
        assert len(set(keys)) == 3

        with Session(persistent=PersistentCache(root=tmp_path)) as first:
            for design, workload in points[:2]:
                first.evaluate(design, workload)
        with Session(persistent=PersistentCache(root=tmp_path)) as second:
            for design, workload in points:
                second.evaluate(design, workload)
        # Every touched key's snapshot must include the new (third
        # variant's) entries — a spill under an earlier key marking the
        # cache clean must not leave later keys' snapshots stale.
        store = PersistentCache(root=tmp_path)
        for key in keys:
            snapshot = store.load(key)
            assert snapshot is not None, key
            assert len(snapshot["sparse"]) == 3, key

    def test_no_persistent_tier_no_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with Session() as session:
            session.evaluate(FULL_SPEC)
        assert not list(tmp_path.rglob("*.pkl"))


def _edp(result):
    return result.edp


class TestSearchJobs:
    def test_search_matches_engine_search(self):
        spec = yaml.safe_load(FULL_SPEC)
        del spec["mapping"]
        spec["constraints"] = {"spatial_dims": {"Buffer": ["n"]}}
        design, workload = load_design(spec)
        engine = Evaluator(search_budget=12)._search_full(
            design, workload
        ).best_result
        with Session(search_budget=12) as session:
            outcome = session.search(design, workload)
        assert outcome.best.to_dict() == engine.to_dict()
        assert outcome.budget == 12 and outcome.seed == 0

    def test_search_with_objective_and_candidates(self):
        design, workload = load_design(FULL_SPEC)
        candidates = [design.mapping]
        with Session() as session:
            outcome = session.search(
                design, workload, objective=_edp, candidates=candidates
            )
        assert outcome.found
        assert outcome.best.dense.mapping.cache_key() == (
            design.mapping.cache_key()
        )
        # Explicit candidates bypass sampling: no budget/seed recorded.
        assert outcome.budget is None and outcome.seed is None

    def test_search_spec_form_honours_objective_and_candidates(self):
        design, workload = load_design(FULL_SPEC)
        candidates = [design.mapping]
        with Session() as session:
            via_spec = session.search(
                FULL_SPEC, objective=_edp, candidates=candidates
            )
            via_objects = session.search(
                design, workload, objective=_edp, candidates=candidates
            )
        assert via_spec.best.to_dict() == via_objects.best.to_dict()

    def test_search_honours_search_job_fields(self):
        from repro import SearchJob

        design, workload = load_design(FULL_SPEC)
        job = SearchJob(
            design, workload, objective=_edp, candidates=[design.mapping]
        )
        with Session() as session:
            outcome = session.search(job)
        # The job's own fields must survive (not be reset to defaults).
        assert job.objective is _edp
        assert job.candidates == [design.mapping]
        assert outcome.found and outcome.budget is None

    @pytest.mark.parametrize(
        "knobs",
        [
            {"budget": "8"},
            {"budget": 8.0},
            {"batch_size": 0},
            {"batch_size": True},
            {"parallel": 0},
            {"parallel": "2"},
            {"shards": 0},
            {"seed": "1"},
            {"seed": 1.0},
        ],
        ids=repr,
    )
    def test_search_rejects_bad_integer_knobs(self, knobs):
        # "8" used to raise a TypeError, batch_size=0 was clamped to 1,
        # parallel/shards=0 fell back to the defaults, and seed="1"
        # seeded a different stream than seed=1.
        design, workload = load_design(FULL_SPEC)
        (name,) = knobs
        with Session() as session:
            with pytest.raises(SpecError, match=name):
                session.search(design, workload, **knobs)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"batch_size": 0},
            {"batch_size": -3},
            {"batch_size": True},
            {"parallel": 0},
            {"shards": -1},
            {"budget": 0},
            {"seed": "1"},
        ],
        ids=repr,
    )
    def test_submitted_search_jobs_check_their_knobs(self, knobs):
        # submit() used to run these without complaint: only search()
        # checked them.
        from repro import SearchJob

        design, workload = load_design(FULL_SPEC)
        (name,) = knobs
        with Session() as session:
            handle = session.submit(SearchJob(design, workload, **knobs))
            error = handle.exception()
        assert isinstance(error, SpecError) and name in str(error)

    def test_wire_search_job_knobs_are_checked_when_run(self):
        import json

        from repro import SearchJob
        from repro.api.jobs import job_from_dict

        design, workload = load_design(FULL_SPEC)
        data = json.loads(json.dumps(SearchJob(design, workload).to_dict()))
        data["batch_size"] = -3
        job = job_from_dict(data)
        assert job.batch_size == -3  # the wire decoder keeps it
        with Session() as session:
            with pytest.raises(SpecError, match="batch_size"):
                session.submit(job).result()

    def test_search_job_knobs_are_checked_after_overrides(self):
        from repro import SearchJob

        design, workload = load_design(FULL_SPEC)
        with Session() as session:
            with pytest.raises(SpecError, match="batch_size"):
                session.search(SearchJob(design, workload, batch_size=0))
            outcome = session.search(
                SearchJob(design, workload, batch_size=0),
                batch_size=2,
                budget=4,
                seed=-3,
            )
        assert outcome.found and outcome.budget == 4 and outcome.seed == -3

    def test_search_rejects_non_search_jobs(self):
        design, workload = load_design(FULL_SPEC)
        with Session() as session:
            with pytest.raises(SpecError):
                session.search(EvaluateJob(design, workload))
            with pytest.raises(SpecError):
                session.submit(EvaluateJob(design, workload), search=True)

    def test_search_tuple_with_mapping_rejected(self):
        design, workload = load_design(FULL_SPEC)
        with Session() as session:
            with pytest.raises(SpecError):
                session.submit(
                    (design, workload, design.mapping), search=True
                )

    def test_unsatisfiable_search_returns_empty_result(self):
        spec = _overflow_spec()
        del spec["mapping"]
        spec["constraints"] = {}
        with Session(search_budget=4) as session:
            outcome = session.submit(spec).result()
            assert isinstance(outcome, SearchResult)
            assert not outcome.found
            # evaluate() unwraps searches; an empty one is an error.
            with pytest.raises(MappingError):
                session.evaluate(spec)


def _densities_for(layer):
    return {"I": 0.5, "W": 0.4}


class TestNetworkJobs:
    def test_network_job_matches_engine_pairs(self):
        from repro.designs import eyeriss

        design = eyeriss.eyeriss_design()
        layers = alexnet()[:3]
        engine = Evaluator(check_capacity=False)._evaluate_network(
            design, layers, _densities_for
        )
        with Session(check_capacity=False) as session:
            net = session.evaluate_network(design, layers, _densities_for)
        assert isinstance(net, NetworkResult)
        assert [l.layer_name for l in net.layers] == [
            layer.name for layer, _ in engine
        ]
        for entry, (layer, result) in zip(net.layers, engine):
            assert entry.repeat == layer.repeat
            assert entry.result.to_dict() == result.to_dict()
        assert net.total_cycles == sum(
            layer.repeat * result.cycles for layer, result in engine
        )

    def test_module_level_convenience(self):
        from repro.designs import eyeriss

        design = eyeriss.eyeriss_design()
        layers = alexnet()[:2]
        net = evaluate_network(
            design, layers, _densities_for, check_capacity=False
        )
        assert isinstance(net, NetworkResult)
        assert len(net.layers) == 2

    def test_network_result_names_layers_without_repr(self):
        from repro.designs import eyeriss

        class ReprRaisingLayer(NetLayer):
            def __repr__(self):
                raise AssertionError("network result built a layer repr")

        layers = [
            ReprRaisingLayer(layer.name, layer.spec, layer.repeat)
            for layer in alexnet()[:2]
        ]
        with Session(check_capacity=False) as session:
            net = session.evaluate_network(
                eyeriss.eyeriss_design(), layers, _densities_for
            )
        assert [entry.layer_name for entry in net.layers] == ["conv1", "conv2"]

    def test_network_job_requires_densities(self):
        design = Design(
            "d",
            load_design(FULL_SPEC)[0].arch,
        )
        with Session() as session:
            handle = session.submit(NetworkJob(design, alexnet()[:1], None))
            assert isinstance(handle.exception(), SpecError)


class TestDesignWithFactoryAndConstraints:
    def test_python_object_job_with_explicit_mapping(self):
        design, workload = load_design(FULL_SPEC)
        mapping = design.mapping
        bare = Design(design.name, design.arch, design.safs)
        with Session() as session:
            overridden = session.evaluate(bare, workload, mapping)
            direct = session.evaluate(design, workload)
        assert overridden.to_dict() == direct.to_dict()

    def test_spec_form_honours_mapping_override(self):
        design, workload = load_design(FULL_SPEC)
        # Reorder the spec mapping's Buffer loops: a different schedule
        # with the same factors.
        alt = yaml.safe_load(FULL_SPEC)["mapping"]
        alt[1]["temporal"] = list(reversed(alt[1]["temporal"]))
        from repro import Mapping

        alt_mapping = Mapping.from_spec(alt)
        assert alt_mapping.cache_key() != design.mapping.cache_key()
        with Session() as session:
            via_spec = session.evaluate(FULL_SPEC, mapping=alt_mapping)
            via_objects = session.evaluate(design, workload, alt_mapping)
        assert via_spec.to_dict() == via_objects.to_dict()
        assert (
            via_spec.dense.mapping.cache_key() == alt_mapping.cache_key()
        )

    def test_search_override_does_not_mutate_callers_job(self):
        from repro import SearchJob

        design, workload = load_design(FULL_SPEC)
        job = SearchJob(design, workload)
        with Session() as session:
            outcome = session.search(job, candidates=[design.mapping])
        assert job.candidates is None, "caller's job must not be mutated"
        assert outcome.found and outcome.budget is None

    def test_constraints_only_design_evaluate_unwraps_search(self):
        design, workload = load_design(FULL_SPEC)
        searched = Design(
            design.name,
            design.arch,
            design.safs,
            constraints=MapspaceConstraints(spatial_dims={"Buffer": ["n"]}),
        )
        with Session(search_budget=8) as session:
            result = session.evaluate(searched, workload)
        assert result.cycles > 0
