"""End-to-end daemon tests: one in-process server, real sockets.

The server runs its asyncio loop on a background thread and listens on
a unix socket in the test's tmp dir; clients are real
:class:`RemoteSession` connections. The core contract under test:
anything a client does remotely behaves *identically* — bit-identical
results, same exception types and messages — to doing it on an
in-process :class:`Session`.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading

import pytest
import yaml

from repro import Workload, matmul
from repro.api import (
    EvaluateJob,
    FusedJob,
    NetworkJob,
    SearchJob,
    SearchShardJob,
    Session,
    connect,
)
from repro.api.jobs import _pack
from repro.common.errors import (
    MappingError,
    OverloadedError,
    SpecError,
    ValidationError,
)
from repro.io.yaml_spec import load_design
from repro.serve import client as client_module
from repro.serve import server as server_module
from repro.serve.protocol import (
    decode_line,
    encode_line,
    error_from_envelope,
    result_from_dict,
)
from repro.serve.server import ReproServer, ServeConfig
from repro.workload.nets import alexnet
from tests.io.test_yaml_spec import FULL_SPEC


def _overflow_spec() -> dict:
    spec = yaml.safe_load(FULL_SPEC)
    spec["arch"]["storage"][1]["capacity_words"] = 4
    return spec


def uniform_densities(layer) -> dict:
    return {"I": 0.5, "W": 0.4}


class _Daemon:
    """One in-process daemon on a background event-loop thread."""

    def __init__(self, config: ServeConfig, **session_kwargs):
        self.server = ReproServer(config, **session_kwargs)
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._started.wait(timeout=15), "daemon failed to start"

    def _run(self) -> None:
        async def main() -> None:
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_forever()

        asyncio.run(main())

    @property
    def address(self) -> str:
        return self.server.addresses[0]

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=15)


@pytest.fixture
def daemon(tmp_path):
    d = _Daemon(
        ServeConfig(
            port=None,
            unix_path=str(tmp_path / "serve.sock"),
            batch_window_ms=5.0,
            batch_max=8,
            workers=2,
            queue_depth=8,
        ),
        search_budget=8,
    )
    yield d
    d.stop()


@pytest.fixture
def remote(daemon):
    session = connect(daemon.address)
    yield session
    session.close()


class TestBasics:
    def test_ping(self, remote, daemon):
        info = remote.ping(timeout=10)
        assert info["protocol"] == 1
        assert info["addresses"] == daemon.server.addresses

    def test_evaluate_bit_identical_to_in_process(self, remote):
        design, workload = load_design(FULL_SPEC)
        remote_result = remote.evaluate(design, workload)
        with Session() as local:
            expected = local.evaluate(design, workload)
        assert remote_result.to_dict() == expected.to_dict()

    def test_spec_forms_accepted(self, remote):
        # The client shares the Session's coercion rules, so every
        # spec form works remotely too.
        a = remote.evaluate(FULL_SPEC)
        b = remote.evaluate(yaml.safe_load(FULL_SPEC))
        assert a.to_dict() == b.to_dict()

    def test_search_identical_to_in_process(self, remote):
        design, workload = load_design(FULL_SPEC)
        remote_result = remote.search(SearchJob(design, workload))
        with Session(search_budget=8) as local:
            expected = local.search(SearchJob(design, workload))
        assert remote_result.to_dict() == expected.to_dict()

    def test_network_identical_to_in_process(self, tmp_path):
        from repro.designs import eyeriss

        d = _Daemon(
            ServeConfig(port=None, unix_path=str(tmp_path / "net.sock")),
            check_capacity=False,
        )
        try:
            design = eyeriss.eyeriss_design()
            layers = alexnet()[:2]
            with connect(d.address) as session:
                remote_result = session.evaluate_network(
                    design, layers, uniform_densities
                )
            with Session(check_capacity=False) as local:
                expected = local.evaluate_network(
                    design, layers, uniform_densities
                )
            assert remote_result.to_dict() == expected.to_dict()
        finally:
            d.stop()

    def test_fused_identical_to_in_process(self, tmp_path):
        from dataclasses import replace

        from repro.api import FusedMapping
        from repro.designs import toy
        from repro.designs.common import generic_einsum_mapping
        from repro.workload.nets import attention

        d = _Daemon(
            ServeConfig(port=None, unix_path=str(tmp_path / "fused.sock")),
            check_capacity=False,
        )
        try:
            design = replace(
                toy.dense_design(),
                mapping=None,
                constraints=None,
                mapping_factory=generic_einsum_mapping,
            )
            graph = attention(seq=32, d_model=64, heads=2)
            fused = FusedMapping(fuse_at="Buffer")
            with connect(d.address) as session:
                remote_result = session.evaluate_fused(
                    design, graph, fused=fused
                )
            with Session(check_capacity=False) as local:
                expected = local.evaluate_fused(design, graph, fused=fused)
            assert remote_result.to_dict() == expected.to_dict()
            assert remote_result.intermediate_backing_words == 0
        finally:
            d.stop()


class TestMicroBatching:
    def test_concurrent_clients_batch_and_match(self, daemon):
        design, workload = load_design(FULL_SPEC)
        with Session() as local:
            expected = local.evaluate(design, workload).to_dict()
        results = [None] * 4
        errors = []

        def client(i):
            try:
                with connect(daemon.address) as session:
                    handles = session.submit_many(
                        [EvaluateJob(design, workload) for _ in range(3)]
                    )
                    results[i] = [h.result(timeout=60).to_dict() for h in handles]
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert not errors, errors
        for batch in results:
            assert batch is not None
            assert all(r == expected for r in batch)

    def test_batch_max_1_still_correct(self, tmp_path):
        # --batch-max 1 disables cross-client batching; results must
        # not change, only throughput.
        d = _Daemon(
            ServeConfig(
                port=None,
                unix_path=str(tmp_path / "nobatch.sock"),
                batch_max=1,
            )
        )
        try:
            design, workload = load_design(FULL_SPEC)
            with connect(d.address) as session:
                handles = session.submit_many(
                    [EvaluateJob(design, workload) for _ in range(4)]
                )
                dicts = [h.result(timeout=60).to_dict() for h in handles]
            with Session() as local:
                expected = local.evaluate(design, workload).to_dict()
            assert all(r == expected for r in dicts)
        finally:
            d.stop()

    def test_cache_hits_attributed_to_client(self, remote):
        design, workload = load_design(FULL_SPEC)
        handles = remote.submit_many(
            [EvaluateJob(design, workload) for _ in range(6)]
        )
        for handle in handles:
            handle.result(timeout=60)
        stats = remote.stats(timeout=10)
        assert stats["jobs"] == 6
        assert stats["cache_hits"] > 0, "duplicate jobs must hit the cache"
        assert stats["bytes_in"] > 0 and stats["bytes_out"] > 0


class TestErrorRoundTrips:
    """Satellite: every ReproError subclass crosses the wire with
    ``exception()``/``result()`` behaving identically to in-process."""

    def _compare(self, job, remote, **session_kwargs):
        with Session(**session_kwargs) as local:
            local_exc = local.submit(job).exception()
        remote_exc = remote.submit(job).exception(timeout=60)
        assert type(remote_exc) is type(local_exc)
        assert str(remote_exc) == str(local_exc)
        return remote_exc

    def test_validation_error_capacity_overflow(self, remote):
        design, workload = load_design(_overflow_spec())
        exc = self._compare(EvaluateJob(design, workload), remote)
        assert isinstance(exc, ValidationError)
        assert "overflows" in str(exc), "the usage report survives the wire"

    def test_mapping_error(self, remote):
        design, _ = load_design(FULL_SPEC)
        mismatched = Workload.uniform(matmul(8, 8, 8), {"A": 0.5})
        exc = self._compare(EvaluateJob(design, mismatched), remote)
        assert isinstance(exc, MappingError)

    def test_spec_error(self, remote):
        design, _ = load_design(FULL_SPEC)
        job = NetworkJob(design, alexnet()[:1], densities_for=None)
        exc = self._compare(job, remote)
        assert isinstance(exc, SpecError)

    @pytest.mark.parametrize("knob", ["batch_size", "parallel", "shards"])
    def test_bad_search_knob_from_the_wire(self, remote, knob):
        # The daemon runs wire search jobs through the Session's one
        # knob check, so a negative knob fails as it does in-process.
        design, workload = load_design(FULL_SPEC)
        job = SearchJob(design, workload, **{knob: -3})
        exc = self._compare(job, remote)
        assert isinstance(exc, SpecError) and knob in str(exc)

    def test_result_reraises_like_in_process(self, remote):
        design, workload = load_design(_overflow_spec())
        handle = remote.submit(EvaluateJob(design, workload))
        with pytest.raises(ValidationError, match="overflows"):
            handle.result(timeout=60)
        assert handle.done()

    @pytest.mark.parametrize("with_workload", [False, True])
    @pytest.mark.parametrize("kind", ["FusedJob", "SearchShardJob"])
    def test_search_rejects_other_jobs_like_in_process(
        self, remote, kind, with_workload
    ):
        # Both clients build search jobs with the same code, so a job
        # that is not a SearchJob fails identically and never reaches
        # the daemon.
        from tests.workload.test_graph import chain_graph

        design, workload = load_design(FULL_SPEC)
        job = {
            "FusedJob": lambda: FusedJob(design, chain_graph()),
            "SearchShardJob": lambda: SearchShardJob(design, workload),
        }[kind]()
        args = (job, workload) if with_workload else (job,)
        with Session() as local:
            with pytest.raises(SpecError) as local_exc:
                local.search(*args)
        with pytest.raises(SpecError) as remote_exc:
            remote.search(*args)
        assert str(remote_exc.value) == str(local_exc.value)
        assert f"search() cannot run a {kind}" in str(remote_exc.value)


class TestAdmissionControl:
    def test_overload_sheds_with_explicit_envelope(self, tmp_path):
        d = _Daemon(
            ServeConfig(
                port=None,
                unix_path=str(tmp_path / "tiny.sock"),
                workers=1,
                queue_depth=1,
            ),
            search_budget=16,
        )
        try:
            design, workload = load_design(FULL_SPEC)
            with connect(d.address) as session:
                handles = [
                    session.submit(SearchJob(design, workload))
                    for _ in range(8)
                ]
                outcomes = [h.exception(timeout=120) for h in handles]
            shed = [e for e in outcomes if isinstance(e, OverloadedError)]
            ran = [e for e in outcomes if e is None]
            assert shed, "a full queue must shed with OverloadedError"
            assert ran, "admitted jobs must still complete"
            assert "retry" in str(shed[0])
        finally:
            d.stop()


class TestServeConfig:
    """Settings that would stall the worker pool, shed every search or
    crash in ``bind()`` fail at construction with a SpecError naming
    the field."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", 0),
            ("workers", True),
            ("workers", 2.0),
            ("batch_max", 0),
            ("batch_max", -4),
            ("queue_depth", 0),
            ("queue_depth", "8"),
            ("port", 70000),
            ("port", -1),
            ("port", "8000"),
            ("batch_window_ms", -1.0),
            ("batch_window_ms", float("nan")),
            ("heartbeat_s", float("inf")),
            ("heartbeat_s", "5"),
            ("default_deadline_ms", 0),
            ("default_deadline_ms", float("inf")),
            ("default_deadline_ms", True),
        ],
        ids=repr,
    )
    def test_bad_field_is_refused(self, field, value):
        with pytest.raises(SpecError, match=field):
            ServeConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        config = ServeConfig(
            port=0,
            workers=1,
            batch_max=1,
            queue_depth=1,
            batch_window_ms=0,
            heartbeat_s=0,
            default_deadline_ms=0.5,
        )
        assert (config.port, config.workers, config.heartbeat_s) == (0, 1, 0)
        assert ServeConfig(port=65535).port == 65535


class TestAddresses:
    @pytest.mark.parametrize(
        "address",
        [
            "tcp://127.0.0.1",
            "tcp://:8000",
            "tcp://127.0.0.1:",
            "tcp://127.0.0.1:0",
            "tcp://127.0.0.1:x",
            "127.0.0.1:70000",
            ("127.0.0.1", "x"),
            ("127.0.0.1", 70000),
            ("127.0.0.1", 0),
            ("127.0.0.1", True),
            ("127.0.0.1", 8000.0),
            ("", 8000),
        ],
        ids=repr,
    )
    def test_malformed_tcp_address_is_refused(self, address):
        with pytest.raises(SpecError, match="TCP address") as excinfo:
            connect(address)
        assert repr(address) in str(excinfo.value)

    def test_well_formed_addresses_parse(self):
        parse = client_module._parse_address
        assert parse("tcp://127.0.0.1:8000") == ("tcp", "127.0.0.1", 8000)
        assert parse("localhost:65535") == ("tcp", "localhost", 65535)
        assert parse(("127.0.0.1", 1)) == ("tcp", "127.0.0.1", 1)
        assert parse(("127.0.0.1", "8000")) == ("tcp", "127.0.0.1", 8000)
        assert parse("unix://run/d.sock") == ("unix", "run/d.sock", None)
        assert parse("run/d.sock") == ("unix", "run/d.sock", None)
        assert parse("d.sock") == ("unix", "d.sock", None)


class TestReconnect:
    def test_dropped_connection_retries_idempotent_jobs(self, remote):
        design, workload = load_design(FULL_SPEC)
        handle = remote.submit(EvaluateJob(design, workload))
        # Sever the transport under the client; the wait must
        # reconnect and resend the in-flight request once.
        remote._sock.shutdown(2)
        result = handle.result(timeout=60)
        with Session() as local:
            expected = local.evaluate(design, workload)
        assert result.to_dict() == expected.to_dict()

    def test_close_resolves_inflight_handles(self, daemon):
        session = connect(daemon.address)
        design, workload = load_design(FULL_SPEC)
        handle = session.submit(EvaluateJob(design, workload))
        session.close()
        exc = handle.exception()
        assert exc is not None and "closed" in str(exc)
        with pytest.raises(SpecError, match="closed"):
            session.submit(EvaluateJob(design, workload))


class TestPayloadInterning:
    """Repeated design/workload payloads cross the wire once per
    connection; later jobs carry content-digest ref stubs."""

    def test_refs_replace_repeated_payloads(self, remote):
        design, workload = load_design(FULL_SPEC)
        first = remote._job_wire(EvaluateJob(design, workload))
        second = remote._job_wire(EvaluateJob(design, workload))
        assert first["design"]["encoding"] == "pickle"
        assert "ref" in first["design"]
        assert second["design"] == {
            "encoding": "ref", "ref": first["design"]["ref"]
        }
        assert second["workload"]["encoding"] == "ref"

    def test_interned_jobs_bit_identical(self, remote):
        design, workload = load_design(FULL_SPEC)
        handles = remote.submit_many(
            [EvaluateJob(design, workload) for _ in range(3)]
        )
        dicts = [h.result(timeout=60).to_dict() for h in handles]
        with Session() as local:
            expected = local.evaluate(design, workload).to_dict()
        assert all(d == expected for d in dicts)

    def test_dangling_ref_is_a_spec_error(self, remote):
        design, workload = load_design(FULL_SPEC)
        # Mark the payloads as already sent without ever sending them:
        # the server must reject the stub, not crash or hang.
        remote._pack_interned(design)
        remote._pack_interned(workload)
        exc = remote.submit(EvaluateJob(design, workload)).exception(
            timeout=60
        )
        assert isinstance(exc, SpecError)
        assert "unknown payload ref" in str(exc)

    def test_reconnect_resends_payloads_in_full(self, remote):
        design, workload = load_design(FULL_SPEC)
        remote.submit(EvaluateJob(design, workload)).result(timeout=60)
        assert remote._sent_refs, "first job should have interned refs"
        # Sever the transport: the fresh connection's server-side blob
        # store is empty, so the client must drop its sent-ref memory
        # and re-carry the payloads inline.
        remote._sock.shutdown(2)
        result = remote.submit(EvaluateJob(design, workload)).result(
            timeout=60
        )
        with Session() as local:
            expected = local.evaluate(design, workload)
        assert result.to_dict() == expected.to_dict()


class TestFieldProjection:
    """``fields=`` trims the response envelope server-side; projected
    handles resolve to plain dicts."""

    def test_projected_fields_match_full_result(self, remote):
        design, workload = load_design(FULL_SPEC)
        job = EvaluateJob(design, workload)
        full = remote.submit(job).result(timeout=60)
        projected = remote.submit(
            job, fields=["latency", "summary"]
        ).result(timeout=60)
        assert set(projected) == {"schema", "kind", "latency", "summary"}
        assert projected["latency"] == full.to_dict()["latency"]
        assert projected["summary"] == {
            "cycles": full.cycles,
            "energy_pj": full.energy_pj,
            "edp": full.edp,
        }

    def test_submit_many_projects_every_result(self, remote):
        design, workload = load_design(FULL_SPEC)
        handles = remote.submit_many(
            [EvaluateJob(design, workload) for _ in range(3)],
            fields=["summary"],
        )
        summaries = [h.result(timeout=60) for h in handles]
        with Session() as local:
            expected = local.evaluate(design, workload)
        assert all(
            s == {
                "schema": 1,
                "kind": "evaluation",
                "summary": {
                    "cycles": expected.cycles,
                    "energy_pj": expected.energy_pj,
                    "edp": expected.edp,
                },
            }
            for s in summaries
        )

    def test_projection_applies_to_worker_pool_jobs(self, remote):
        design, workload = load_design(FULL_SPEC)
        projected = remote.submit(
            SearchJob(design, workload), fields=["best"]
        ).result(timeout=120)
        assert set(projected) == {"schema", "kind", "best"}
        assert projected["kind"] == "search"
        assert projected["best"] is not None

    def test_invalid_fields_rejected(self, remote):
        design, workload = load_design(FULL_SPEC)
        exc = remote.submit(
            EvaluateJob(design, workload), fields=[1, 2]
        ).exception(timeout=60)
        assert isinstance(exc, SpecError)
        assert "'fields'" in str(exc)

    def test_errors_unaffected_by_projection(self, remote):
        design, workload = load_design(_overflow_spec())
        exc = remote.submit(
            EvaluateJob(design, workload), fields=["summary"]
        ).exception(timeout=60)
        assert isinstance(exc, ValidationError)


class TestServerStats:
    def test_counters_track_batches(self, remote):
        design, workload = load_design(FULL_SPEC)
        handles = remote.submit_many(
            [EvaluateJob(design, workload) for _ in range(6)]
        )
        for handle in handles:
            handle.result(timeout=60)
        stats = remote.server_stats(timeout=10)
        assert stats["evaluate_jobs"] >= 6
        assert stats["evaluate_batches"] >= 1
        assert stats["evaluate_batch_max"] >= 1
        assert stats["evaluate_batch_mean"] >= 1
        assert stats["engine_seconds"] > 0
        assert stats["clients"] >= 1


PAYLOAD_KEYS = ("payloads_decoded", "payload_hits", "payloads_held")


class _Wire:
    """A raw protocol connection, for frames :class:`RemoteSession`
    never sends (malformed pickles, a reused ref with new bytes)."""

    def __init__(self, address: str):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(60)
        self._sock.connect(address.removeprefix("unix://"))
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    def request(self, **message) -> dict:
        self._next_id += 1
        self._sock.sendall(encode_line({"id": self._next_id, **message}))
        while True:
            response = decode_line(self._rfile.readline())
            if response["id"] == self._next_id and "progress" not in response:
                return response

    def evaluate(self, design_blob: dict, workload_blob: dict) -> dict:
        return self.request(
            job={
                "schema": 1,
                "kind": "evaluate-job",
                "design": design_blob,
                "workload": workload_blob,
                "mapping": None,
            }
        )

    def payload_stats(self) -> dict:
        stats = self.request(op="server-stats")["ok"]
        return {key: stats[key] for key in PAYLOAD_KEYS}

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()


def _workloads(count: int) -> list:
    """``count`` workloads on FULL_SPEC's einsum, each its own payload."""
    _, workload = load_design(FULL_SPEC)
    return [
        Workload.uniform(workload.einsum, {"A": 0.1 + 0.05 * i, "B": 0.5})
        for i in range(count)
    ]


def _in_process(pairs) -> list[dict]:
    """In-process results for ``(design, workload)`` pairs. Run after
    the remote jobs: evaluating fills the objects' memos, which would
    change their pickled bytes."""
    with Session() as local:
        return [local.evaluate(d, w).to_dict() for d, w in pairs]


class TestDecodeOnce:
    """The daemon decodes each distinct payload once, keyed by its
    bytes, and shares the object across jobs and connections."""

    def test_connections_share_decoded_payloads(self, daemon):
        design, _ = load_design(FULL_SPEC)
        workloads = _workloads(2)
        pairs = [(design, w) for w in (*workloads, workloads[0])]
        with connect(daemon.address) as probe:
            before = probe.server_stats(timeout=10)
        results = []
        for _ in range(2):
            with connect(daemon.address) as session:
                handles = session.submit_many(
                    [EvaluateJob(d, w) for d, w in pairs]
                )
                results.append(
                    [h.result(timeout=60).to_dict() for h in handles]
                )
            with connect(daemon.address) as probe:
                stats = probe.server_stats(timeout=10)
            # One design and two workloads, whichever connection.
            assert stats["payloads_decoded"] - before["payloads_decoded"] == 3
            assert stats["payloads_held"] == 3
        assert stats["payload_hits"] - before["payload_hits"] == 12 - 3
        expected = _in_process(pairs)
        assert results == [expected, expected]

    def test_malformed_pickle_fails_only_its_job(self, daemon):
        design, workload = load_design(FULL_SPEC)
        wire = _Wire(daemon.address)
        try:
            good = wire.evaluate(_pack(design), _pack(workload))
            assert "result" in good
            before = wire.payload_stats()
            for data in ("bm90IGEgcGlja2xl", "%%% not base64 %%%", 7):
                # The design decodes first, so its failure stops the
                # job before the workload is looked up.
                response = wire.evaluate(
                    {"encoding": "pickle", "data": data}, _pack(workload)
                )
                error = error_from_envelope(response["error"])
                assert type(error) is SpecError
                assert "cannot decode job payload" in str(error)
                assert wire.payload_stats() == before
            # The connection survives, and the next good job works.
            again = wire.evaluate(_pack(design), _pack(workload))
        finally:
            wire.close()
        assert again["result"] == good["result"]
        expected = _in_process([(design, workload)])[0]
        assert result_from_dict(again["result"]).to_dict() == expected

    def test_reused_ref_with_new_bytes(self, daemon):
        design, _ = load_design(FULL_SPEC)
        first, second = _workloads(2)
        wire = _Wire(daemon.address)
        try:
            results = [
                wire.evaluate(
                    {**_pack(design), "ref": "d"},
                    {**_pack(first), "ref": "w"},
                ),
                # The same ref, different bytes: the table keys on the
                # bytes, never on the client's ref.
                wire.evaluate(
                    {"encoding": "ref", "ref": "d"},
                    {**_pack(second), "ref": "w"},
                ),
                wire.evaluate(
                    {"encoding": "ref", "ref": "d"},
                    {"encoding": "ref", "ref": "w"},
                ),
            ]
        finally:
            wire.close()
        expected = _in_process(
            [(design, first), (design, second), (design, second)]
        )
        assert [
            result_from_dict(r["result"]).to_dict() for r in results
        ] == expected
        assert expected[0] != expected[1]

    def test_table_stays_bounded(self, daemon, monkeypatch):
        monkeypatch.setattr(server_module, "PAYLOAD_TABLE_ENTRIES", 3)
        design, _ = load_design(FULL_SPEC)
        workloads = _workloads(5)
        # Every workload twice, the second round after its entry was
        # evicted: each is decoded again, and results stay correct.
        pairs = [(design, w) for w in workloads * 2]
        wire = _Wire(daemon.address)
        try:
            results = []
            for d, w in pairs:
                results.append(wire.evaluate(_pack(d), _pack(w)))
                assert wire.payload_stats()["payloads_held"] <= 3
            stats = wire.payload_stats()
        finally:
            wire.close()
        assert [
            result_from_dict(r["result"]).to_dict() for r in results
        ] == _in_process(pairs)
        assert stats["payloads_decoded"] == 1 + 2 * len(workloads)
        assert stats["payloads_held"] == 3

    def test_oversized_payload_is_never_held(self, daemon, monkeypatch):
        design, workload = load_design(FULL_SPEC)
        design_blob, workload_blob = _pack(design), _pack(workload)
        limit = len(design_blob["data"]) - 1
        assert len(workload_blob["data"]) <= limit
        monkeypatch.setattr(server_module, "PAYLOAD_MAX_CHARS", limit)
        wire = _Wire(daemon.address)
        try:
            results = [
                wire.evaluate(design_blob, workload_blob) for _ in range(3)
            ]
            stats = wire.payload_stats()
        finally:
            wire.close()
        # The design decodes for every job; only the workload is held.
        assert stats == {
            "payloads_decoded": 3 + 1,
            "payload_hits": 2,
            "payloads_held": 1,
        }
        expected = _in_process([(design, workload)])[0]
        assert all(
            result_from_dict(r["result"]).to_dict() == expected
            for r in results
        )

    def test_table_is_thread_safe(self):
        # The lane and the pool workers share one table: a lost update
        # would break the counts, a double decode the object identity.
        blobs = [_pack(w) for w in _workloads(6)]
        table = server_module._PayloadTable()
        seen = [[] for _ in range(8)]
        rounds = 200

        def worker(i):
            for r in range(rounds):
                seen[i].append(table.unpack(blobs[(i + r) % len(blobs)]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert table.stats() == {
            "payloads_decoded": 6,
            "payload_hits": 8 * rounds - 6,
            "payloads_held": 6,
        }
        assert len({id(obj) for objs in seen for obj in objs}) == 6

    def test_repeated_search_and_network_jobs(self, tmp_path):
        from repro.designs import eyeriss

        d = _Daemon(
            ServeConfig(port=None, unix_path=str(tmp_path / "once.sock")),
            check_capacity=False,
            search_budget=8,
        )
        try:
            design, workload = load_design(FULL_SPEC)
            net_design = eyeriss.eyeriss_design()
            layers = alexnet()[:2]
            with connect(d.address) as session:
                searches = [
                    session.search(SearchJob(design, workload)).to_dict()
                    for _ in range(2)
                ]
                networks = [
                    session.evaluate_network(
                        net_design, layers, uniform_densities
                    ).to_dict()
                    for _ in range(2)
                ]
                stats = session.server_stats(timeout=10)
            with Session(check_capacity=False, search_budget=8) as local:
                local_searches = [
                    local.search(SearchJob(design, workload)).to_dict()
                    for _ in range(2)
                ]
                local_networks = [
                    local.evaluate_network(
                        net_design, layers, uniform_densities
                    ).to_dict()
                    for _ in range(2)
                ]
        finally:
            d.stop()
        assert searches == local_searches
        assert networks == local_networks
        # design + workload, then design + layers + densities_for; the
        # repeats decode nothing.
        assert stats["payloads_decoded"] == 5
        assert stats["payload_hits"] == 5


class TestClientPackMemo:
    """``RemoteSession``'s pack memo is an LRU as large as the daemon's
    decoded-payload table: a long sweep of distinct workloads does not
    pin every packed object, and an evicted object is re-pickled but
    still crosses the wire as a ref stub."""

    def test_memo_stays_bounded_and_refs_survive_eviction(self, daemon):
        bound = client_module.PACK_MEMO_ENTRIES
        assert bound == server_module.PAYLOAD_TABLE_ENTRIES == 128
        design, base = load_design(FULL_SPEC)
        count = 500
        workloads = [
            Workload.uniform(base.einsum, {"A": 0.1 + 0.8 * i / count})
            for i in range(count)
        ]
        with connect(daemon.address) as session:
            results = []
            for start in range(0, count, 100):
                chunk = workloads[start : start + 100]
                handles = session.submit_many(
                    [EvaluateJob(design, w) for w in chunk]
                )
                results += [h.result(timeout=120).to_dict() for h in handles]
                assert len(session._blob_packs) <= bound
            (connection,) = daemon.server._clients.values()
            held = len(connection.blobs)
            assert held == count + 1  # every payload crossed once, in full
            # The first workload left the memo long ago; sending it
            # again re-pickles it, but its digest was sent, so the
            # daemon receives a stub and stores nothing new.
            assert id(workloads[0]) not in session._blob_packs
            wire = session._job_wire(EvaluateJob(design, workloads[0]))
            assert wire["workload"]["encoding"] == "ref"
            again = session.submit(EvaluateJob(design, workloads[0]))
            again = again.result(timeout=60).to_dict()
            assert len(connection.blobs) == held
            assert len(session._blob_packs) <= bound
        expected = _in_process([(design, w) for w in workloads])
        assert results == expected
        assert again == expected[0]
