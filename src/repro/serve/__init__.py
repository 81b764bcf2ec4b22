"""Evaluation-as-a-service: daemon, wire protocol, and thin client.

The daemon (``repro serve`` or :class:`ReproServer`) owns one hot
:class:`~repro.api.Session` per process and speaks newline-delimited
``schema: 1`` JSON over TCP and unix sockets; concurrent evaluate jobs
from different clients micro-batch into single stacked engine passes.
:func:`repro.api.connect` returns a :class:`RemoteSession` mirroring
the Session surface. See ``docs/serving.md``.
"""

__all__ = [
    "connect",
    "RemoteSession",
    "RemoteHandle",
    "ReproServer",
    "ServeConfig",
]

#: Where each public name lives. They load on first access, so
#: importing the wire protocol alone (``repro.serve.protocol``) does not
#: load the client, the daemon, or asyncio and ssl with them.
_HOMES = {
    "connect": "client",
    "RemoteSession": "client",
    "RemoteHandle": "client",
    "ReproServer": "server",
    "ServeConfig": "server",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{home}"), name)
