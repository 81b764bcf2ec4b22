"""Unified content-addressed analysis cache (the memo service).

Every stage of the evaluation pipeline — dense dataflow analysis,
sparse post-processing, tile-format characterisation — is a pure
function of *content*: einsum iteration spaces, architecture
parameters, mapping schedules, SAF specifications, and density-model
parameters. Each of those objects exposes a primitives-only
``cache_key()``, and this module decides how content is identified:
one 16-byte blake2b :func:`digest`, the :func:`content_digest` of a
key's ``repr()``, and its per-spec memo :func:`spec_digest`. Every
stage key is one digest over the joined digests of the stage's inputs,
so a lookup hashes and compares 16 bytes, and a key means the same
content in every process.

This module provides that memo service as one subsystem instead of the
ad-hoc per-module caches it grew out of:

* :class:`StageCache` — one bounded, content-addressed LRU map with
  hit/miss accounting. Values are treated as **read-only** by
  convention: a hit returns the stored object itself.
* :class:`AnalysisCache` — a registry of named stages. The evaluation
  engine owns one (stages ``"dense"``, ``"sparse"`` — whose value is
  one flat record of the sparse analysis and its micro-model tail —
  ``"plan"``, ``"candidates"`` and ``"fused"``, plus the einsum-only
  factory memo ``mappings``); the process-global instance from
  :func:`global_cache` hosts stages whose results are safely shared by
  every evaluator in the process (stage ``"tile-format"``).
* :class:`PersistentCache` — an on-disk tier that spills
  :meth:`AnalysisCache.export_state` snapshots to a versioned store
  (default ``~/.cache/repro/``) so repeated CLI runs, network
  fan-outs, and CI jobs start warm instead of cold.

Adding a new stage takes three steps: derive a digest from the
stage's *actual* inputs, pick a stage name and default size in
:data:`DEFAULT_STAGE_SIZES`, and wrap the computation in
``cache.stage(name).get_or_compute(key, fn)``. A computation that is a
pure function of an existing stage's value belongs in that value, not
in a stage of its own under the same key. See ``docs/caching.md`` for
the key-composition rules and invalidation story.

Warm workers: :meth:`AnalysisCache.export_state` snapshots the
most-recently-used entries of every stage into a picklable payload and
:meth:`AnalysisCache.import_state` restores them — the engine ships the
parent's entries through the process-pool initializer so ``parallel=N``
workers start warm instead of re-deriving shared analyses.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import sys
import tempfile
from collections import OrderedDict
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

from repro.common.errors import SpecError

#: Default LRU capacities per well-known stage name. Stages not listed
#: here fall back to ``DEFAULT_STAGE_SIZE``.
DEFAULT_STAGE_SIZES = {
    "dense": 1024,
    "sparse": 4096,
    # Density-free sparse plans: one per (mapping, SAFs) whose dense
    # analysis recurs, so the stage tracks the dense stage and a dense
    # hit normally finds its plan.
    "plan": 1024,
    "tile-format": 16384,
    # Sampled candidate streams (mapspace search): each entry is a
    # whole list of mappings (up to the search budget), so the stage is
    # kept small — one entry per distinct (constraints, einsum, arch,
    # seed, budget) search configuration.
    "candidates": 64,
    # Whole fused-cascade results: each entry bundles one
    # EvaluationResult per graph einsum, so the stage is kept small —
    # one entry per distinct (graph, design, fused mapping, densities)
    # evaluation.
    "fused": 64,
}

DEFAULT_STAGE_SIZE = 1024

#: Default cap on entries exported *per stage* when shipping cache
#: state to worker processes; bounds the pickle payload.
DEFAULT_EXPORT_LIMIT = 512

#: Entries :attr:`AnalysisCache.mappings` holds before it is cleared.
MAPPING_MEMO_SIZE = 1024


def digest(data: bytes) -> bytes:
    """The one content hash, a 16-byte blake2b: stage keys, persistent
    snapshot and stream names, and wire interning refs derive from it."""
    return hashlib.blake2b(data, digest_size=16).digest()


def content_digest(key: Any) -> bytes:
    """Digest of a primitives-only content key, whose ``repr`` is
    injective and the same in every process."""
    return digest(repr(key).encode())


_PRIMITIVE_TYPES = frozenset({str, int, float, bool, bytes, type(None)})


def _foreign_type(items: tuple) -> type | None:
    """The type of the first leaf in ``items`` that is not a primitive
    (subclasses of the scalar types, such as numpy floats, count)."""
    for item in items:
        kind = type(item)
        if kind is tuple:
            found = _foreign_type(item)
            if found is not None:
                return found
        elif kind not in _PRIMITIVE_TYPES and not isinstance(
            item, (str, int, float, bytes)
        ):
            return kind
    return None


def spec_digest(spec: Any) -> bytes | None:
    """The :func:`content_digest` of ``spec.cache_key()``, memoised on
    the spec, or ``None`` when the spec is uncacheable.

    Only for specs that are frozen by contract once evaluated —
    einsums, architectures, SAF and format specs, einsum graphs, and
    density models. The first call checks that the key holds only
    ``str``, ``int``, ``float``, ``bool``, ``None``, ``bytes`` and
    tuples of them (a frozenset prints in hash-seed order, a
    hand-written ``repr`` can collide) and raises :class:`SpecError`
    naming the class if not.
    """
    memo = getattr(spec, "_content_digest", None)
    if memo is None:
        key = spec.cache_key()
        if key is None:
            return None
        foreign = _foreign_type((key,))
        if foreign is not None:
            raise SpecError(
                f"{type(spec).__name__}.cache_key() holds a "
                f"{foreign.__name__}; content keys may hold only str, int, "
                "float, bool, None, bytes and tuples of them"
            )
        memo = spec._content_digest = content_digest(key)
    return memo


class StageCache:
    """One content-addressed LRU memo table with hit/miss accounting.

    Keys are hashable content keys — the pipeline's stages use 16-byte
    digests; values are arbitrary analysis results treated as
    read-only by callers.
    """

    def __init__(self, maxsize: int = DEFAULT_STAGE_SIZE, name: str = ""):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: True when the stage holds content not yet captured by a
        #: snapshot: set by :meth:`put` (fresh computation or
        #: absorption), left alone by :meth:`import_entries` (restored
        #: state is, by definition, already persisted somewhere).
        #: Cleared by persistent spills so fully-warm runs skip
        #: rewriting identical snapshots.
        self.dirty = False

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.dirty = False

    def get(self, key: Any) -> Any | None:
        """Return the cached value (refreshing LRU order) or ``None``.

        Counts a hit or a miss; use ``key in cache`` to peek without
        touching the accounting.
        """
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        self.dirty = True
        self._install(key, value)

    def _install(self, key: Any, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    # ------------------------------------------------------------------
    # Warm-worker state shipping

    def export_entries(
        self, limit: int | None = DEFAULT_EXPORT_LIMIT
    ) -> list[tuple[Any, Any]]:
        """Most-recently-used ``(key, value)`` pairs, oldest first.

        The pairs are ordered so that importing them in sequence leaves
        the receiving cache with the same LRU ordering.
        """
        pairs = list(self._entries.items())
        if limit is not None and len(pairs) > limit:
            pairs = pairs[-limit:]
        return pairs

    def import_entries(self, pairs: Iterable[tuple[Any, Any]]) -> int:
        """Install exported pairs; returns the number imported.

        Restored entries do not mark the stage dirty — they came from
        a snapshot, so they are already persisted somewhere.
        """
        count = 0
        for key, value in pairs:
            self._install(key, value)
            count += 1
        return count


class AnalysisCache:
    """A registry of named :class:`StageCache` stages.

    Stages are created lazily on first access, sized by
    :data:`DEFAULT_STAGE_SIZES`.
    """

    def __init__(self):
        self._stages: dict[str, StageCache] = {}
        #: The engine's einsum-only factory memo: (factory, einsum
        #: digest, architecture digest) -> (mapping, dense key), at most
        #: :data:`MAPPING_MEMO_SIZE` entries. Not a stage: it is not
        #: counted, spilled or shipped.
        self.mappings: dict = {}

    def stage(self, name: str) -> StageCache:
        """The stage named ``name``, created on first use."""
        stage = self._stages.get(name)
        if stage is None:
            stage = self._stages[name] = StageCache(
                DEFAULT_STAGE_SIZES.get(name, DEFAULT_STAGE_SIZE), name=name
            )
        return stage

    @property
    def dense(self) -> StageCache:
        return self.stage("dense")

    @property
    def sparse(self) -> StageCache:
        return self.stage("sparse")

    def is_dirty(self) -> bool:
        """True when any stage holds content no snapshot has captured."""
        return any(stage.dirty for stage in self._stages.values())

    def mark_clean(self) -> None:
        """Record that the current contents have been spilled."""
        for stage in self._stages.values():
            stage.dirty = False

    def stats(self) -> dict[str, dict[str, float]]:
        return {name: stage.stats() for name, stage in self._stages.items()}

    def clear(self) -> None:
        for stage in self._stages.values():
            stage.clear()
        self.mappings.clear()

    # ------------------------------------------------------------------
    # Warm-worker state shipping

    def export_state(
        self, per_stage_limit: int | None = DEFAULT_EXPORT_LIMIT
    ) -> dict[str, list[tuple[Any, Any]]]:
        """Picklable snapshot of every stage's hottest entries."""
        return {
            name: stage.export_entries(per_stage_limit)
            for name, stage in self._stages.items()
            if len(stage)
        }

    def import_state(self, state: dict[str, list[tuple[Any, Any]]]) -> int:
        """Install a snapshot from :meth:`export_state`; returns the
        total number of entries imported."""
        total = 0
        for name, pairs in state.items():
            total += self.stage(name).import_entries(pairs)
        return total


# ----------------------------------------------------------------------
# Persistent on-disk tier

#: Bump when the snapshot payload layout, the key scheme or a stage's
#: value type changes incompatibly; older ``v<N>`` directories are then
#: ignored, and the first write of each process sweeps them
#: (:meth:`ObjectStore.prune_stale_versions`).
PERSISTENT_SCHEMA_VERSION = 5

#: Store roots whose stale version trees this process already swept.
_PRUNED_ROOTS: set[Path] = set()

_CODE_HASH: str | None = None


def repro_code_hash() -> str:
    """Content hash of the installed ``repro`` package sources.

    blake2b over every ``*.py`` file (path + bytes) under the package
    root, memoised per process. Any source change — which could change
    what a content key means or what a stage computes — lands snapshots
    in a fresh namespace, which is the persistent tier's invalidation
    story: conservative, automatic, and never wrong.
    """
    global _CODE_HASH
    if _CODE_HASH is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        hasher = hashlib.blake2b(digest_size=16)
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _CODE_HASH = hasher.hexdigest()
    return _CODE_HASH


class ObjectStore:
    """Corruption-safe content-addressed on-disk object store.

    Layout::

        <root>/v<schema>/<namespace>/<blake2b(key)>.pkl

    ``root`` defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
    ``namespace`` defaults to ``py<maj><min>-<repro_code_hash()>`` so
    stored objects never outlive the code (or pickle format) that
    wrote them. ``key`` is a free-form string naming one object —
    callers derive it from content, never identity, so a fleet of
    workers pointed at one ``root`` shares a single warm tier safely:
    two writers racing on the same key are writing the same bytes.

    Writes are atomic (temp file + ``os.replace``) so a crashed or
    concurrent run can never leave a half-written object in place;
    loads that hit an unreadable or mismatched file discard it and
    report a miss. Instances are picklable (plain path + strings) so a
    process-pool initializer can reopen the same store in workers.

    Subclasses pick the payload field name (``payload_field``) and may
    tighten :meth:`_validate`; the on-disk envelope always carries
    ``schema`` / ``namespace`` / ``key`` headers so stores with
    different payloads can safely share one directory tree (distinct
    keys) or be told apart (mismatched field is a miss).
    """

    #: Name of the payload slot inside the on-disk envelope.
    payload_field = "value"

    def __init__(
        self,
        root: str | Path | None = None,
        namespace: str | None = None,
        version: int = PERSISTENT_SCHEMA_VERSION,
    ):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro"
            )
        self.root = Path(root)
        if namespace is None:
            namespace = (
                f"py{sys.version_info[0]}{sys.version_info[1]}"
                f"-{repro_code_hash()}"
            )
        self.namespace = namespace
        self.version = version

    @property
    def store_dir(self) -> Path:
        return self.root / f"v{self.version}" / self.namespace

    def path_for(self, key: str) -> Path:
        return self.store_dir / f"{digest(key.encode()).hex()}.pkl"

    def _validate(self, value: Any) -> bool:
        """Whether a deserialized payload is shaped as expected;
        anything failing this is discarded as corrupt."""
        return value is not None

    def get(self, key: str) -> Any | None:
        """The object stored under ``key``, or ``None``.

        Any failure — missing file, truncated/corrupt pickle, or a
        payload whose schema/namespace/key does not match — is a miss;
        unreadable files are removed so they cannot fail again.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            # Missing file or a transient read failure (EIO, EACCES,
            # sharing violation): a miss, but never destroy the file —
            # it may be perfectly good on the next attempt.
            return None
        try:
            payload = pickle.loads(data)
        except Exception:
            # The bytes themselves are bad (truncated/corrupt pickle):
            # discard so the store recovers on the next spill.
            self._discard(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != self.version
            or payload.get("namespace") != self.namespace
            or payload.get("key") != key
            or self.payload_field not in payload
            or not self._validate(payload[self.payload_field])
        ):
            self._discard(path)
            return None
        return payload[self.payload_field]

    def put(self, key: str, value: Any) -> Path:
        """Atomically write ``value`` under ``key``; returns the
        object's path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": self.version,
            "namespace": self.namespace,
            "key": key,
            self.payload_field: value,
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            self._discard(Path(tmp))
            raise
        if self.root not in _PRUNED_ROOTS:
            _PRUNED_ROOTS.add(self.root)
            self.prune_stale_versions()
        return path

    def invalidate(self, key: str | None = None) -> None:
        """Drop one object (``key``) or the whole namespace."""
        if key is not None:
            self._discard(self.path_for(key))
        else:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def prune_stale_versions(self) -> int:
        """Remove object directories of older schema versions; returns
        how many were swept. Newer versions are left alone, so an older
        install sharing the root cannot delete a newer tree."""
        swept = 0
        try:
            entries = list(self.root.iterdir())
        except OSError:
            return 0
        for entry in entries:
            if (
                entry.is_dir()
                and entry.name.startswith("v")
                and entry.name[1:].isdigit()
                and int(entry.name[1:]) < self.version
            ):
                shutil.rmtree(entry, ignore_errors=True)
                swept += 1
        return swept

    def sibling(self, suffix: str) -> "ObjectStore":
        """A plain :class:`ObjectStore` sharing this store's root and
        version but namespaced ``<namespace>-<suffix>``.

        The distributed layer uses this to park candidate streams and
        other shared blobs next to the analysis snapshots without the
        two payload shapes ever colliding on a key.
        """
        return ObjectStore(
            root=self.root,
            namespace=f"{self.namespace}-{suffix}",
            version=self.version,
        )

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


class PersistentCache(ObjectStore):
    """On-disk tier for analysis-cache snapshots.

    An :class:`ObjectStore` whose payload is a stage-state snapshot
    (``AnalysisCache.export_state()``): a dict of stage name → entry
    pairs, stored under the envelope field ``"stages"`` — the exact
    on-disk format this class wrote before it grew the generic base,
    so existing stores stay readable. ``key`` is derived from
    workload/design content (see
    :func:`repro.model.engine.persistent_state_key`).
    """

    payload_field = "stages"

    def _validate(self, value: Any) -> bool:
        return isinstance(value, dict)

    def load(self, key: str) -> dict[str, list[tuple[Any, Any]]] | None:
        """The stage-state snapshot stored under ``key``, or ``None``."""
        return self.get(key)

    def store(
        self, key: str, stages: dict[str, list[tuple[Any, Any]]]
    ) -> Path:
        """Atomically write ``stages`` (an ``export_state()`` snapshot)
        under ``key``; returns the snapshot path."""
        return self.put(key, dict(stages))


_GLOBAL_CACHE: AnalysisCache | None = None


def global_cache() -> AnalysisCache:
    """The process-wide :class:`AnalysisCache`.

    Hosts stages whose results are independent of any evaluator's
    configuration and therefore safe to share process-wide — currently
    the ``"tile-format"`` stage used by
    :mod:`repro.sparse.format_analyzer`.
    """
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = AnalysisCache()
    return _GLOBAL_CACHE
