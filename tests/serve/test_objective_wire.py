"""Objectives over the serve wire: named specs, frontier projection,
and the rule that objectives never travel as pickles.

The acceptance contract: a remote ``search`` with ``objective="energy"``
returns bit-identical results (including the frontier section) to an
in-process :class:`Session`, with no pickle on the wire. A callable
objective fails on the client before anything is sent, and a pickled
objective in a hand-built envelope is refused on every transport
before anything is unpickled.
"""

from __future__ import annotations

import asyncio
import pickle
import threading

import pytest

from repro.api import SearchJob, Session, connect
from repro.api.jobs import _pack
from repro.common.errors import SpecError
from repro.io.yaml_spec import load_design
from repro.serve.server import ReproServer, ServeConfig
from tests.io.test_yaml_spec import FULL_SPEC

BUDGET = 8


def energy_callable(result) -> float:
    """Module-level (hence picklable) callable objective."""
    return result.energy_pj


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
def unix_daemon(tmp_path):
    d = _Daemon(
        ServeConfig(
            port=None,
            unix_path=str(tmp_path / "serve.sock"),
            batch_window_ms=5.0,
            batch_max=8,
            workers=2,
            queue_depth=8,
        ),
        search_budget=BUDGET,
    )
    yield d
    d.stop()


@pytest.fixture
def tcp_daemon():
    d = _Daemon(
        ServeConfig(
            port=0,
            unix_path=None,
            batch_window_ms=5.0,
            batch_max=8,
            workers=2,
            queue_depth=8,
        ),
        search_budget=BUDGET,
    )
    yield d
    d.stop()


class TestNamedObjectivesOnTheWire:
    def test_energy_search_identical_to_in_process(self, unix_daemon):
        design, workload = load_design(FULL_SPEC)
        with connect(unix_daemon.address) as remote:
            got = remote.search(design, workload, objective="energy")
        with Session(search_budget=BUDGET) as local:
            expected = local.search(
                SearchJob(design, workload, objective="energy")
            )
        assert got.to_dict() == expected.to_dict()
        assert got.objective == "energy"
        assert got.frontier is not None

    def test_multi_objective_frontier_identical(self, unix_daemon):
        design, workload = load_design(FULL_SPEC)
        objective = ("energy", "cycles", "slack")
        with connect(unix_daemon.address) as remote:
            got = remote.search(design, workload, objective=objective)
        with Session(search_budget=BUDGET) as local:
            expected = local.search(
                SearchJob(design, workload, objective=objective)
            )
        assert got.frontier.to_dict() == expected.frontier.to_dict()
        assert got.to_dict() == expected.to_dict()

    def test_frontier_projection(self, unix_daemon):
        design, workload = load_design(FULL_SPEC)
        job = SearchJob(design, workload, objective="energy")
        with connect(unix_daemon.address) as remote:
            full = remote.search(job)
            projected = remote.submit(job, fields=["frontier"]).result()
        assert set(projected) == {"schema", "kind", "frontier"}
        assert projected["frontier"] == full.to_dict()["frontier"]

    def test_named_objective_works_over_tcp(self, tcp_daemon):
        design, workload = load_design(FULL_SPEC)
        with connect(tcp_daemon.address) as remote:
            got = remote.search(design, workload, objective="energy")
        with Session(search_budget=BUDGET) as local:
            expected = local.search(
                SearchJob(design, workload, objective="energy")
            )
        assert got.to_dict() == expected.to_dict()

    def test_server_stats_attribute_objectives(self, unix_daemon):
        design, workload = load_design(FULL_SPEC)
        with connect(unix_daemon.address) as remote:
            remote.search(design, workload, objective="energy")
            remote.search(design, workload)
            stats = remote.server_stats()
        assert stats["search_jobs"] == 2
        assert stats["search_objectives"] == {"energy": 1, "edp": 1}


class _SendRecorder:
    """A client socket stand-in that records every ``sendall``."""

    def __init__(self, sock):
        self._sock = sock
        self.sent: list[bytes] = []

    def sendall(self, data):
        self.sent.append(data)
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture(params=["unix", "tcp"])
def any_daemon(request):
    return request.getfixturevalue(f"{request.param}_daemon")


class TestObjectivesNeverPickled:
    def test_remote_callable_fails_before_anything_is_sent(self, unix_daemon):
        design, workload = load_design(FULL_SPEC)
        with connect(unix_daemon.address) as remote:
            remote.ping()
            recorder = remote._sock = _SendRecorder(remote._sock)
            with pytest.raises(SpecError, match="callable objective"):
                remote.search(design, workload, objective=energy_callable)
            assert recorder.sent == []
            assert remote.ping()["protocol"] == 1

    def test_pickled_objective_refused_before_any_unpickling(
        self, any_daemon, monkeypatch
    ):
        design, workload = load_design(FULL_SPEC)
        tampered = SearchJob(design, workload).to_dict()
        tampered["objective"] = _pack(energy_callable)
        reached = []

        def loads(*args, **kwargs):
            reached.append(args)
            raise RuntimeError("pickle.loads reached")

        with connect(any_daemon.address) as remote:
            with monkeypatch.context() as patch:
                patch.setattr(pickle, "loads", loads)
                patch.setattr(remote, "_job_wire", lambda job: tampered)
                handle = remote.submit(SearchJob(design, workload))
                with pytest.raises(SpecError, match="never as pickles"):
                    handle.result(timeout=60)
            assert reached == []
            # The connection keeps serving.
            assert remote.ping()["protocol"] == 1
            got = remote.search(design, workload, objective="energy")
        with Session(search_budget=BUDGET) as local:
            expected = local.search(
                SearchJob(design, workload, objective="energy")
            )
        assert got.to_dict() == expected.to_dict()
