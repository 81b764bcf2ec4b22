"""Shared candidate-stream store for distributed search.

Candidate streams are pure functions of (einsum, arch, constraints,
mode, budget, seed), so they are perfect content-addressed objects: a
coordinator publishes the stream once and every worker on the same
store root fetches it instead of re-enumerating or re-sampling —
two writers racing on one key write identical bytes, which is what
makes the unsynchronised sharing safe. Regeneration is always a
correct fallback (workers without a store, or with a cold one,
rebuild the exact same stream), so the store is purely an
accelerator; bit-identity never depends on it.

Streams live in an :class:`~repro.common.cache.ObjectStore` that is a
``sibling`` of the session's :class:`PersistentCache` (same root and
schema version, namespace suffixed ``-streams``), so a worker fleet
pointed at one ``--cache-dir`` shares a warm analysis tier *and* a
stream tier without the two payload shapes ever meeting on a key.
"""

from __future__ import annotations

from repro.common.cache import ObjectStore, content_digest

__all__ = ["StreamStore", "stream_store_for"]

#: Namespace suffix distinguishing stream blobs from analysis snapshots.
STREAM_NAMESPACE_SUFFIX = "streams"


def stream_store_for(persistent) -> "StreamStore | None":
    """The stream store sharing ``persistent``'s root, or ``None`` when
    the session runs without a persistent tier."""
    if persistent is None:
        return None
    sibling = persistent.sibling(STREAM_NAMESPACE_SUFFIX)
    return StreamStore(sibling)


class StreamStore:
    """Candidate streams keyed by their generating parameters."""

    def __init__(self, store: ObjectStore):
        self.store = store

    @staticmethod
    def key(mode: str, identity, budget: int, seed: int) -> str:
        """Content key of one stream. ``identity`` is the mapspace
        identity (the :func:`sampled_candidates_key` digest, or any
        primitives-only equivalent); ``mode`` / ``budget`` / ``seed``
        pin the draw discipline."""
        key = content_digest((mode, identity, budget, seed)).hex()
        return f"stream-{mode}-{key}"

    def fetch(self, key: str, total: int | None = None):
        """The stream stored under ``key``, or ``None``. ``total``
        (when given) cross-checks the stream length — a mismatch is
        treated as corruption and discarded."""
        stream = self.store.get(key)
        if stream is None:
            return None
        if not isinstance(stream, list):
            self.store.invalidate(key)
            return None
        if total is not None and len(stream) != total:
            self.store.invalidate(key)
            return None
        return stream

    def publish(self, key: str, stream: list) -> None:
        """Best-effort spill: a full disk or unwritable root must not
        fail the search, only un-warm it."""
        try:
            self.store.put(key, list(stream))
        except OSError:
            pass
