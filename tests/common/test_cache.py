"""Unit tests for the unified content-addressed cache subsystem."""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest

from repro import Workload, matmul
from repro.api import Session
from repro.common.cache import (
    DEFAULT_STAGE_SIZES,
    PERSISTENT_SCHEMA_VERSION,
    AnalysisCache,
    PersistentCache,
    StageCache,
    global_cache,
    repro_code_hash,
)
from repro.designs import toy
from repro.model.engine import persistent_state_key
from repro.sparse.density import (
    ActualDataDensity,
    BandedDensity,
    FixedStructuredDensity,
    StructuredNMDensity,
    UniformDensity,
)
from repro.sparse.format_analyzer import (
    TILE_FORMAT_STAGE,
    analyze_tile_format,
    clear_tile_format_cache,
)
from repro.sparse.formats import (
    CoordinatePayload,
    FormatRank,
    FormatSpec,
    RunLengthEncoding,
    UncompressedOffsetPairs,
    classic_format,
    dense_format,
)


class TestStageCache:
    def test_get_put_and_stats(self):
        cache = StageCache(maxsize=4, name="t")
        assert cache.get(("a",)) is None
        cache.put(("a",), 1)
        assert cache.get(("a",)) == 1
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
            "entries": 1,
        }

    def test_get_or_compute_runs_once(self):
        cache = StageCache(maxsize=4)
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", compute) == "value"
        assert cache.get_or_compute("k", compute) == "value"
        assert len(calls) == 1

    def test_lru_eviction(self):
        cache = StageCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)  # evicts 'b'
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            StageCache(maxsize=0)

    def test_export_import_preserves_order_and_values(self):
        cache = StageCache(maxsize=8)
        for i in range(5):
            cache.put(("k", i), i * 10)
        pairs = cache.export_entries(limit=3)
        assert [k for k, _ in pairs] == [("k", 2), ("k", 3), ("k", 4)]
        other = StageCache(maxsize=8)
        assert other.import_entries(pairs) == 3
        assert other.get(("k", 4)) == 40
        # No limit exports everything.
        assert len(cache.export_entries(limit=None)) == 5

    def test_clear_resets_accounting(self):
        cache = StageCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 0


class TestAnalysisCache:
    def test_stage_creation_and_defaults(self):
        cache = AnalysisCache()
        sparse = cache.stage("sparse")
        assert sparse.maxsize == DEFAULT_STAGE_SIZES["sparse"]
        assert cache.stage("sparse") is sparse  # same instance
        assert cache.stage("custom").maxsize > 0

    def test_dense_stage_is_a_plain_stage(self):
        cache = AnalysisCache()
        assert type(cache.dense) is StageCache
        assert cache.dense is cache.stage("dense")
        assert cache.dense.name == "dense"

    def test_stage_size_overrides(self, monkeypatch):
        # Sizes come from DEFAULT_STAGE_SIZES when a stage is created.
        monkeypatch.setitem(DEFAULT_STAGE_SIZES, "dense", 2)
        cache = AnalysisCache()
        assert cache.dense.maxsize == 2
        for key in ("a", "b", "c"):
            cache.dense.put(key, key)
        assert len(cache.dense) == 2 and "a" not in cache.dense

    def test_stats_and_clear_cover_all_stages(self):
        cache = AnalysisCache()
        cache.stage("sparse").put("k", "v")
        cache.stage("sparse").get("k")
        stats = cache.stats()
        assert stats["sparse"]["hits"] == 1
        cache.clear()
        assert cache.stats()["sparse"]["entries"] == 0

    def test_export_import_round_trip(self):
        parent = AnalysisCache()
        parent.stage("sparse").put(("s",), "sparse-value")
        parent.stage("dense").put(("d",), "dense-value")
        state = parent.export_state()
        assert set(state) == {"sparse", "dense"}

        child = AnalysisCache()
        assert child.import_state(state) == 2
        assert child.stage("sparse").get(("s",)) == "sparse-value"
        assert child.stage("dense").get(("d",)) == "dense-value"

    def test_export_skips_empty_stages(self):
        cache = AnalysisCache()
        cache.stage("sparse")  # created but empty
        assert cache.export_state() == {}


class TestPersistentCache:
    STATE = {"sparse": [(("k", 1), "v1"), (("k", 2), "v2")]}

    def _store(self, tmp_path, **kwargs) -> PersistentCache:
        kwargs.setdefault("namespace", "test-ns")
        return PersistentCache(root=tmp_path, **kwargs)

    def test_round_trip(self, tmp_path):
        store = self._store(tmp_path)
        path = store.store("run-a", self.STATE)
        assert path.exists()
        assert store.load("run-a") == self.STATE
        # A second PersistentCache over the same root sees it too (the
        # cross-process case).
        assert self._store(tmp_path).load("run-a") == self.STATE

    def test_missing_key_is_none(self, tmp_path):
        assert self._store(tmp_path).load("never-stored") is None

    def test_store_layout_is_versioned_and_keyed(self, tmp_path):
        store = self._store(tmp_path)
        path = store.path_for("run-a")
        assert path.parent == (
            tmp_path / f"v{PERSISTENT_SCHEMA_VERSION}" / "test-ns"
        )
        assert path == store.path_for("run-a")  # deterministic
        assert path != store.path_for("run-b")

    def test_transient_read_error_is_a_miss_not_a_discard(
        self, tmp_path, monkeypatch
    ):
        store = self._store(tmp_path)
        path = store.store("run-a", self.STATE)
        real_open = open

        def flaky_open(file, *args, **kwargs):
            if str(file) == str(path):
                raise PermissionError(13, "transient denial", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", flaky_open)
        assert store.load("run-a") is None  # miss...
        monkeypatch.undo()
        assert path.exists()  # ...but the snapshot survives
        assert store.load("run-a") == self.STATE

    def test_corrupted_file_is_discarded(self, tmp_path):
        store = self._store(tmp_path)
        path = store.store("run-a", self.STATE)
        path.write_bytes(b"\x80garbage not a pickle")
        assert store.load("run-a") is None
        assert not path.exists()  # removed so it cannot fail again
        # The store recovers on the next spill.
        store.store("run-a", self.STATE)
        assert store.load("run-a") == self.STATE

    def test_truncated_pickle_is_discarded(self, tmp_path):
        store = self._store(tmp_path)
        path = store.store("run-a", self.STATE)
        path.write_bytes(path.read_bytes()[:-7])
        assert store.load("run-a") is None
        assert not path.exists()

    def test_schema_bump_invalidates(self, tmp_path):
        old = self._store(tmp_path)
        old.store("run-a", self.STATE)
        new = self._store(tmp_path, version=PERSISTENT_SCHEMA_VERSION + 1)
        # New schema reads nothing from the old version directory...
        assert new.load("run-a") is None
        # ...and prune sweeps the stale directory away.
        assert new.prune_stale_versions() == 1
        assert not old.store_dir.exists()

    def test_first_spill_prunes_older_version_trees(self, tmp_path):
        stale = tmp_path / "v1" / "ns"
        stale.mkdir(parents=True)
        (stale / "x.pkl").write_bytes(b"a snapshot of the old key scheme")
        (tmp_path / "v99").mkdir()
        with Session(persistent=PersistentCache(tmp_path)) as session:
            session.evaluate(
                toy.bitmask_design(),
                Workload.uniform(matmul(16, 16, 16), {"A": 0.3, "B": 0.5}),
            )
        assert not (tmp_path / "v1").exists()
        assert (tmp_path / f"v{PERSISTENT_SCHEMA_VERSION}").is_dir()
        # A newer install's tree is never swept.
        assert (tmp_path / "v99").is_dir()

    def test_payload_header_mismatch_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        path = store.store("run-a", self.STATE)
        payload = pickle.loads(path.read_bytes())
        payload["namespace"] = "someone-else"
        path.write_bytes(pickle.dumps(payload))
        assert store.load("run-a") is None

    def test_namespace_separates_code_versions(self, tmp_path):
        a = self._store(tmp_path, namespace="code-a")
        b = self._store(tmp_path, namespace="code-b")
        a.store("run", self.STATE)
        assert b.load("run") is None
        assert a.load("run") == self.STATE

    def test_invalidate_one_key_and_whole_namespace(self, tmp_path):
        store = self._store(tmp_path)
        store.store("run-a", self.STATE)
        store.store("run-b", self.STATE)
        store.invalidate("run-a")
        assert store.load("run-a") is None
        assert store.load("run-b") == self.STATE
        store.invalidate()
        assert store.load("run-b") is None

    def test_overwrite_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        store = self._store(tmp_path)
        store.store("run-a", self.STATE)
        newer = {"sparse": [(("k", 3), "v3")]}
        store.store("run-a", newer)
        assert store.load("run-a") == newer
        leftovers = [
            p for p in store.store_dir.iterdir() if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_default_namespace_tracks_code_hash(self, tmp_path):
        store = PersistentCache(root=tmp_path)
        assert repro_code_hash() in store.namespace
        assert repro_code_hash() == repro_code_hash()  # memoised, stable

    def test_is_picklable_for_worker_initializers(self, tmp_path):
        store = self._store(tmp_path)
        store.store("run-a", self.STATE)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.load("run-a") == self.STATE


class TestGlobalCache:
    def test_singleton_hosts_tile_format_stage(self):
        a = global_cache()
        b = global_cache()
        assert a is b
        stage = a.stage("tile-format")
        assert stage.maxsize == DEFAULT_STAGE_SIZES["tile-format"]

    def test_tile_format_analyses_land_in_global_stage(self):
        from repro.sparse.density import UniformDensity
        from repro.sparse.format_analyzer import (
            analyze_tile_format,
            clear_tile_format_cache,
        )
        from repro.sparse.formats import (
            CoordinatePayload,
            FormatRank,
            FormatSpec,
        )

        clear_tile_format_cache()
        fmt = FormatSpec([FormatRank(CoordinatePayload())])
        model = UniformDensity(0.25, 64)
        first = analyze_tile_format(fmt, (8,), model)
        second = analyze_tile_format(fmt, (8,), model)
        assert first is second  # memoised, not recomputed
        stage = global_cache().stage("tile-format")
        assert len(stage) >= 1
        assert stage.hits >= 1


class TestTileFormatValues:
    """The process-global tile-format stage holds one flat tuple of
    five numbers per tile, which the cyclic collector untracks at its
    first collection, so a full stage costs full collections nothing."""

    MODELS = [
        UniformDensity(0.3, 4096),
        FixedStructuredDensity(2, 4),
        StructuredNMDensity(2, 8),
        BandedDensity(64, 64, 4, 0.5),
        ActualDataDensity(
            (np.random.default_rng(3).random((64, 64)) < 0.2).astype(float)
        ),
    ]
    FORMATS = [
        classic_format("CSR"),
        classic_format("COO"),
        classic_format("CSB"),
        dense_format(2),
        FormatSpec(
            [
                FormatRank(UncompressedOffsetPairs(offset_bits=6)),
                FormatRank(CoordinatePayload(coord_bits=2)),
                FormatRank(RunLengthEncoding(3)),
            ]
        ),
    ]
    EXTENTS = [(8, 8), (4, 16), (16, 16), (2, 32), (64,)]

    def test_stage_values_are_untracked_after_one_collection(self):
        clear_tile_format_cache()
        stage = global_cache().stage(TILE_FORMAT_STAGE)
        calls = 0
        for model in self.MODELS:
            for fmt in self.FORMATS:
                for extents in self.EXTENTS:
                    analyze_tile_format(fmt, extents, model)
                    calls += 1
        assert stage.misses == len(stage) == calls  # all distinct
        gc.collect()
        values = [value for _, value in stage.export_entries(None)]
        assert len(values) == calls
        assert {(type(value), len(value)) for value in values} == {(tuple, 5)}
        tracked = [value for value in values if gc.is_tracked(value)]
        assert tracked == []

    def test_spill_and_warm_start_round_trip_tile_formats(self, tmp_path):
        # A tree of the previous schema, whose tile-format values were
        # objects: the first write of the process sweeps it.
        stale = tmp_path / "v2" / "ns"
        stale.mkdir(parents=True)
        (stale / "x.pkl").write_bytes(b"a snapshot of TileOccupancy values")
        design = toy.bitmask_design()
        workload = Workload.uniform(matmul(16, 16, 16), {"A": 0.3, "B": 0.5})
        store = PersistentCache(tmp_path)
        clear_tile_format_cache()
        stage = global_cache().stage(TILE_FORMAT_STAGE)
        with Session(persistent=store) as session:
            expected = session.evaluate(design, workload).to_json()
        assert not (tmp_path / "v2").exists()
        exported = stage.export_entries(None)
        assert exported  # the first evaluation walked its tile formats
        snapshot = store.load(persistent_state_key(design, [workload]))
        assert snapshot[TILE_FORMAT_STAGE] == exported
        clear_tile_format_cache()
        with Session(persistent=store) as session:
            assert session.evaluate(design, workload).to_json() == expected
            assert session.warm_loaded > 0
        assert stage.export_entries(None) == exported
