"""A sharded search over malformed or failing workers ends with an
error instead of hanging.

Each search runs on a daemon thread joined with a timeout, so a
regression to the old hang fails the test instead of stalling the
suite.
"""

from __future__ import annotations

import threading

import pytest

from repro import Session
from repro.api.jobs import SearchJob
from repro.common.errors import SpecError
from repro.distributed import sharded_search
from repro.serve import client as client_module

from .conftest import BUDGET, make_evaluator

TIMEOUT_S = 30


def _error_within(seconds: float, call) -> BaseException | None:
    """Run ``call`` on a daemon thread and return what it raised
    (``None`` when it returned); fail if it is still running after
    ``seconds``."""
    outcome: dict = {}

    def run() -> None:
        try:
            call()
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return outcome.get("error")


class _FailingSession:
    """A worker connection that connects, then fails every job with an
    error no worker loss explains."""

    def __init__(self, address, **_kwargs):
        self.address = address

    def submit(self, job, on_progress=None):
        raise RuntimeError(f"submit failed on {self.address}")

    def close(self):
        pass


def test_malformed_worker_address_fails_promptly(
    witness_design, witness_workload
):
    workers = [("127.0.0.1", "x"), ("127.0.0.1", 1)]
    # No ``with``: closing waits for the Session lock, which a hung
    # search would hold forever.
    session = Session(search_budget=BUDGET, workers=workers)
    error = _error_within(
        TIMEOUT_S,
        lambda: session.search(witness_design, witness_workload, shards=2),
    )
    session.close()
    assert isinstance(error, SpecError)
    assert "('127.0.0.1', 'x')" in str(error)


def test_malformed_address_fails_before_any_connection(
    monkeypatch, witness_design, witness_workload
):
    opened = []
    monkeypatch.setattr(
        client_module, "RemoteSession",
        lambda address, **_: opened.append(address),
    )
    job = SearchJob(witness_design, witness_workload)
    with pytest.raises(SpecError, match="tcp://127.0.0.1'"):
        sharded_search(
            make_evaluator(), job, ["127.0.0.1:1", "tcp://127.0.0.1"]
        )
    assert opened == []


def test_worker_that_cannot_be_built_ends_the_search(
    monkeypatch, witness_design, witness_workload
):
    def broken(address, **_kwargs):
        raise RuntimeError(f"cannot build a session for {address}")

    monkeypatch.setattr(client_module, "RemoteSession", broken)
    job = SearchJob(witness_design, witness_workload)
    error = _error_within(
        TIMEOUT_S,
        lambda: sharded_search(
            make_evaluator(), job, ["127.0.0.1:1", "127.0.0.1:2"],
            shards=2,
        ),
    )
    assert isinstance(error, RuntimeError)
    assert "cannot build a session" in str(error)


def test_unexpected_job_error_ends_the_search(
    monkeypatch, witness_design, witness_workload
):
    monkeypatch.setattr(client_module, "RemoteSession", _FailingSession)
    job = SearchJob(witness_design, witness_workload)
    error = _error_within(
        TIMEOUT_S,
        lambda: sharded_search(
            make_evaluator(), job, ["127.0.0.1:1", "127.0.0.1:2"],
            shards=2,
        ),
    )
    assert isinstance(error, RuntimeError)
    assert "submit failed" in str(error)
