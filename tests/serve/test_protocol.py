"""Wire-protocol unit tests: framing, error envelopes, result dispatch.

The error-envelope contract is the load-bearing piece: every
:class:`ReproError` subclass must cross the wire and come back as the
*same type with the same message*, so remote handles are
indistinguishable from in-process ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.common.errors import (
    MappingError,
    OverloadedError,
    ReproError,
    SpecError,
    ValidationError,
)
from repro.micro.validity import LevelUsage, overflow_error
from repro.serve.protocol import (
    ERROR_KINDS,
    decode_line,
    encode_line,
    error_from_envelope,
    error_to_envelope,
    result_from_dict,
)


class TestFraming:
    def test_encode_decode_round_trip(self):
        payload = {"id": 7, "job": {"kind": "evaluate-job"}}
        line = encode_line(payload)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1], "one frame per line"
        assert decode_line(line) == payload

    def test_decode_rejects_non_json(self):
        with pytest.raises(SpecError, match="malformed protocol line"):
            decode_line(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(SpecError, match="JSON objects"):
            decode_line(b"[1, 2, 3]\n")


class TestErrorEnvelopes:
    @pytest.mark.parametrize("kind", sorted(ERROR_KINDS))
    def test_every_registered_kind_round_trips(self, kind):
        cls = ERROR_KINDS[kind]
        exc = cls(f"a {kind} failure: detail 42")
        envelope = error_to_envelope(exc)
        assert envelope == {"kind": kind, "message": str(exc)}
        rebuilt = error_from_envelope(json.loads(json.dumps(envelope)))
        assert type(rebuilt) is cls
        assert str(rebuilt) == str(exc)

    def test_capacity_overflow_report_survives(self):
        # The whole usage report lives in the message, so the envelope
        # reproduces the in-process error text exactly.
        report = LevelUsage(
            level="Buffer",
            capacity_words=4.0,
            used_words=144.0,
            per_tensor={"A": 80.0, "B": 64.0},
        )
        exc = overflow_error(report)
        rebuilt = error_from_envelope(error_to_envelope(exc))
        assert type(rebuilt) is ValidationError
        assert str(rebuilt) == str(exc)
        assert "Buffer" in str(rebuilt) and "144.0" in str(rebuilt)

    def test_unregistered_subclass_maps_to_nearest_base(self):
        class CustomMappingError(MappingError):
            pass

        envelope = error_to_envelope(CustomMappingError("nested failure"))
        assert envelope["kind"] == "mapping"
        assert type(error_from_envelope(envelope)) is MappingError

    def test_non_repro_error_becomes_internal_without_traceback(self):
        envelope = error_to_envelope(RuntimeError("engine exploded"))
        assert envelope == {
            "kind": "internal",
            "message": "RuntimeError: engine exploded",
        }
        assert "Traceback" not in envelope["message"]
        assert type(error_from_envelope(envelope)) is ReproError

    def test_overloaded_is_a_registered_kind(self):
        envelope = error_to_envelope(OverloadedError("queue full"))
        assert envelope["kind"] == "overloaded"
        assert isinstance(error_from_envelope(envelope), OverloadedError)

    def test_unknown_kind_degrades_to_base(self):
        rebuilt = error_from_envelope({"kind": "from-the-future", "message": "x"})
        assert type(rebuilt) is ReproError


class TestResultDispatch:
    def test_unknown_result_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown result kind"):
            result_from_dict({"schema": 1, "kind": "hologram"})

    def test_non_dict_rejected(self):
        with pytest.raises(SpecError, match="must be a dict"):
            result_from_dict([1, 2])


def test_clients_load_neither_the_daemon_nor_asyncio():
    # A fresh interpreter: this process may have imported them already.
    probe = (
        "import sys; import repro.serve.client, repro.serve.protocol; "
        "print(sorted({'asyncio', 'ssl', 'repro.serve.server'} & set(sys.modules))); "
        "from repro.serve import ReproServer, connect; print(ReproServer.__name__)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout.split()
    assert out == ["[]", "ReproServer"]
