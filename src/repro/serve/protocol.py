"""Wire protocol for the serving daemon: newline-delimited JSON.

One message per line, every message a JSON object. Requests carry a
client-assigned ``id`` plus either a ``job`` (a job envelope from
:func:`repro.api.jobs.job_from_dict` — ``schema: 1``, kind-tagged) or
an ``op`` (control verbs: ``ping``, ``stats``). Responses echo the
``id`` with exactly one of:

* ``result`` — a ``schema: 1`` result dict (see
  :mod:`repro.model.result`), bit-identical to what an in-process
  :class:`~repro.api.Session` would have produced,
* ``error`` — a structured envelope ``{"kind": ..., "message": ...}``
  mapping the :class:`~repro.common.errors.ReproError` hierarchy; the
  daemon never writes a traceback to the wire,
* ``ok`` — the payload of a control ``op``.

Responses are written per job as each finishes, so they may interleave
across the ids in flight on one connection; clients match on ``id``.

Long-running jobs additionally stream *progress envelopes* — ``{"id",
"progress": {...}}`` — before their terminal response: heartbeats
(``{"heartbeat": true}``) every ``heartbeat_s`` seconds while the job
runs or queues, and incremental search state (evaluated count,
best-so-far score, frontier size, witness snapshots) for search and
shard jobs. Progress frames are non-terminal and may repeat; clients
treat any of them as a liveness signal, and a client that sees none
for a whole timeout window raises
:class:`~repro.common.errors.WorkerLostError` instead of hanging. A
request without an ``id`` is a *notification* (e.g. the coordinator's
``witness-update`` op): the daemon applies it and writes nothing
back.

Error kinds round-trip: the client rebuilds the *same exception type*
with the same message, so remote handles behave identically to
in-process ones (capacity-overflow reports included — a
``ValidationError`` carries its whole usage report in the message).
Unregistered :class:`ReproError` subclasses map to their nearest
registered base; non-Repro failures inside the daemon map to kind
``"internal"`` with a one-line message, never a traceback.
"""

from __future__ import annotations

import json

from repro.common.errors import (
    MappingError,
    OverloadedError,
    ReproError,
    SpecError,
    ValidationError,
    WorkerLostError,
)
from repro.model.result import (
    EvaluationResult,
    FusedResult,
    NetworkResult,
    SearchResult,
    SearchShardResult,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "ERROR_KINDS",
    "encode_line",
    "decode_line",
    "error_to_envelope",
    "error_from_envelope",
    "result_from_dict",
]

PROTOCOL_VERSION = 1

#: Distinct decoded payloads a daemon holds, least recently used
#: evicted first; a client keeps as many packed payloads, so the two
#: ends of a connection evict alike.
PAYLOAD_TABLE_ENTRIES = 128

#: Upper bound on one framed message; the reader rejects longer lines.
#: Network-job envelopes carry whole layer lists, hence the headroom.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Registered error kinds, stable on the wire. The client rebuilds the
#: mapped class; servers serialize unknown subclasses as their nearest
#: registered base (walking the MRO).
ERROR_KINDS: dict[str, type[ReproError]] = {
    "spec": SpecError,
    "mapping": MappingError,
    "validation": ValidationError,
    "overloaded": OverloadedError,
    "worker-lost": WorkerLostError,
    "error": ReproError,
}

_KIND_BY_TYPE = {cls: kind for kind, cls in ERROR_KINDS.items()}

_RESULT_KINDS = {
    "evaluation": EvaluationResult,
    "search": SearchResult,
    "search-shard": SearchShardResult,
    "network": NetworkResult,
    "fused": FusedResult,
}


def encode_line(payload: dict) -> bytes:
    """One wire frame: compact JSON plus the newline delimiter."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one frame; malformed input raises :class:`SpecError`."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"malformed protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise SpecError(
            "protocol messages must be JSON objects, got "
            f"{type(message).__name__}"
        )
    return message


def error_to_envelope(exc: BaseException) -> dict:
    """Serialize an exception to a ``{"kind", "message"}`` envelope.

    :class:`ReproError` subclasses keep their identity (nearest
    registered base for unregistered subclasses); anything else —
    an unexpected server-side failure — becomes kind ``"internal"``
    with a single terse line, never a traceback.
    """
    if isinstance(exc, ReproError):
        for klass in type(exc).__mro__:
            kind = _KIND_BY_TYPE.get(klass)
            if kind is not None:
                return {"kind": kind, "message": str(exc)}
    return {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}


def error_from_envelope(data: dict) -> ReproError:
    """Rebuild the exception a daemon serialized.

    Unknown kinds (including ``"internal"``) come back as the
    :class:`ReproError` base — callers can always catch one type.
    """
    if not isinstance(data, dict):
        return ReproError(f"malformed error envelope: {data!r}")
    cls = ERROR_KINDS.get(data.get("kind"), ReproError)
    return cls(str(data.get("message", "")))


def result_from_dict(data: dict):
    """Rebuild any ``schema: 1`` result, dispatching on its kind."""
    if not isinstance(data, dict):
        raise SpecError(
            f"serialized result must be a dict, got {type(data).__name__}"
        )
    kind = data.get("kind")
    cls = _RESULT_KINDS.get(kind)
    if cls is None:
        raise SpecError(
            f"unknown result kind {kind!r}; expected one of "
            f"{sorted(_RESULT_KINDS)}"
        )
    return cls.from_dict(data)
