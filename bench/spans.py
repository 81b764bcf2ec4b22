"""Outside-in span tracer for the benchmark's per-layer breakdown.

The tracer times calls into each layer's public functions from outside
the program: :meth:`Tracer.install` replaces every binding of a listed
function in every loaded ``repro.*`` module (the engine imports these
functions by name, so patching only the defining module would miss most
calls), wraps listed methods on their class, and times each ``next()``
of a generator. :meth:`Tracer.uninstall` restores the original objects.

Each span records its name, start, end, parent span, thread, and an
item count (the batch length for ``*_batch`` entry points). Spans stay
in memory as compact per-thread arrays; :meth:`Tracer.spans` merges
them and :func:`layer_times` turns them into per-layer call counts and
self times. A span's self time is its duration minus the durations of
its child spans; the request id of a span is the index of its root.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

#: Layer -> wrapped entry points, as ``(module, qualname)``. A qualname
#: ``Class.method`` wraps the method on that class; ``Class*.method``
#: wraps it on the class and on every subclass that defines it.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "api": [
        ("repro.api.session", "Session.evaluate"),
        ("repro.api.session", "Session.search"),
        ("repro.api.session", "Session.evaluate_network"),
        ("repro.api.session", "Session.submit_many"),
    ],
    "engine": [
        ("repro.model.engine", "Evaluator._evaluate"),
        ("repro.model.engine", "Evaluator._evaluate_batch"),
        ("repro.model.engine", "Evaluator._evaluate_many"),
        ("repro.model.engine", "Evaluator._search_full"),
        ("repro.model.engine", "Evaluator._evaluate_network"),
    ],
    "mapping": [("repro.mapping.mapspace", "Mapper.sample_mappings")],
    "dataflow": [
        ("repro.dataflow.nest_analysis", "analyze_dataflow"),
        ("repro.dataflow.nest_analysis", "analyze_dataflow_batch"),
    ],
    "cache.key": [
        ("repro.dataflow.nest_analysis", "dense_analysis_key"),
        ("repro.sparse.postprocess", "sparse_analysis_key"),
    ],
    "cache.lookup": [
        ("repro.common.cache", "StageCache.get"),
        ("repro.common.cache", "StageCache.put"),
    ],
    "sparse.walk": [
        ("repro.sparse.postprocess", "analyze_sparse"),
        ("repro.sparse.postprocess", "analyze_sparse_batch"),
    ],
    "sparse.format": [
        ("repro.sparse.format_analyzer", "analyze_tile_format"),
    ],
    "density": [
        ("repro.sparse.density", "hypergeom_prob_empty"),
        ("repro.sparse.density", "hypergeom_distribution"),
        ("repro.sparse.density", "binom_distribution"),
        ("repro.sparse.density", "DensityModel*.prob_empty"),
        ("repro.sparse.density", "DensityModel*.occupancy_distribution"),
        ("repro.sparse.density", "DensityModel*.expected_occupancy"),
    ],
    "sparse.flush": [("repro.sparse.postprocess", "_BatchEmitter.flush")],
    "micro": [
        ("repro.micro.validity", "check_validity"),
        ("repro.micro.latency", "compute_latency"),
        ("repro.micro.energy", "compute_energy"),
    ],
    "serve.wire": [
        ("repro.serve.protocol", "encode_line"),
        ("repro.serve.protocol", "decode_line"),
        ("repro.serve.protocol", "result_from_dict"),
    ],
}

#: Layers wrapped only inside the serving daemon (see serve_traced.py):
#: the lane thread's per-batch entry point and the loop's per-request
#: dispatch, whose self time is job decoding, Session bookkeeping and
#: result projection.
DAEMON_LAYERS: dict[str, list[tuple[str, str]]] = {
    "serve.daemon": [
        ("repro.serve.server", "ReproServer._run_evaluate_batch"),
        ("repro.serve.server", "ReproServer._dispatch"),
    ],
}

#: Entry points whose first argument is a batch: their spans count one
#: item per member, so ``dataflow.items``/``sparse.items`` count
#: analyses rather than calls.
BATCH_ENTRY_POINTS = {
    "analyze_dataflow_batch",
    "analyze_sparse_batch",
}


class _ThreadSpans:
    """One thread's span buffers (appended only by that thread)."""

    __slots__ = ("thread", "name", "parent", "items", "start", "end", "stack")

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.parent = array("q")
        self.items = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []

    def open(self, name_id: int, items: int, clock) -> int:
        index = len(self.name)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.items.append(items)
        self.end.append(-1)
        stack.append(index)
        self.start.append(clock())
        return index

    def close(self, index: int, clock) -> None:
        self.end[index] = clock()
        self.stack.pop()


class _TracedIterator:
    """Times each ``next()`` of a wrapped generator as one span."""

    __slots__ = ("_iterator", "_tracer", "_name_id")

    def __init__(self, iterator, tracer: "Tracer", name_id: int):
        self._iterator = iterator
        self._tracer = tracer
        self._name_id = name_id

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        spans = tracer._thread_spans()
        index = spans.open(self._name_id, 1, tracer.clock)
        try:
            return next(self._iterator)
        finally:
            spans.close(index, tracer.clock)

    def close(self) -> None:
        self._iterator.close()


class Tracer:
    """Records spans around the layer entry points it installs.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        #: span name id -> (layer, qualname)
        self.names: list[tuple[str, str]] = []
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        #: thread id (the ``thread`` span field) -> thread name
        self.thread_names: list[str] = []
        self._lock = threading.Lock()
        #: (owner, attribute, original object) in installation order.
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span recording

    def _thread_spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            with self._lock:
                spans = _ThreadSpans(len(self._threads))
                self._threads.append(spans)
                self.thread_names.append(threading.current_thread().name)
            self._local.spans = spans
            return spans

    def wrap(self, fn, layer: str, qualname: str):
        """A traced stand-in for ``fn`` recording spans under ``layer``."""
        self.names.append((layer, qualname))
        name_id = len(self.names) - 1
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return _TracedIterator(fn(*args, **kwargs), self, name_id)

            return traced_generator
        counts_items = qualname.rsplit(".", 1)[-1] in BATCH_ENTRY_POINTS
        thread_spans = self._thread_spans
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = thread_spans()
            items = len(args[0]) if counts_items else 1
            index = spans.open(name_id, items, clock)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.close(index, clock)

        return traced

    # ------------------------------------------------------------------
    # Patching

    def install(self, layers: dict[str, list[tuple[str, str]]] = LAYERS) -> None:
        """Patch every entry point of ``layers``; :meth:`uninstall` undoes it."""
        for layer, entries in layers.items():
            for module_name, qualname in entries:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    self._install_method(module, layer, qualname)
                else:
                    self._install_function(module, layer, qualname)

    def _install_function(self, module, layer: str, name: str) -> None:
        original = getattr(module, name)
        traced = self.wrap(original, layer, name)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, attribute, original))
                    setattr(loaded, attribute, traced)

    def _install_method(self, module, layer: str, qualname: str) -> None:
        class_name, attribute = qualname.split(".")
        with_subclasses = class_name.endswith("*")
        base = getattr(module, class_name.rstrip("*"))
        classes = [base]
        if with_subclasses:
            pending = list(base.__subclasses__())
            while pending:
                cls = pending.pop()
                classes.append(cls)
                pending.extend(cls.__subclasses__())
        for cls in classes:
            original = cls.__dict__.get(attribute)
            if original is None or getattr(original, "__isabstractmethod__", False):
                continue
            self._patches.append((cls, attribute, original))
            setattr(cls, attribute, self.wrap(original, layer, f"{cls.__name__}.{attribute}"))

    def uninstall(self) -> None:
        """Restore every patched binding to its original object."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Results

    def spans(self) -> dict[str, np.ndarray]:
        """Every thread's spans merged into flat arrays.

        ``parent`` and ``request`` are indices into the merged arrays
        (-1 parent = root); ``end`` is -1 for spans still open.
        """
        fields = ("name", "parent", "items", "start", "end")
        parts = {key: [] for key in ("thread", *fields)}
        offset = 0
        for spans in list(self._threads):
            # bytes() copies each buffer in one call, so a thread still
            # appending never sees its array exported; spans opened
            # after the first copy are cut off by the shortest length.
            snapshot = {
                key: np.frombuffer(
                    bytes(getattr(spans, key)),
                    dtype=np.int32 if key == "name" else np.int64,
                ).astype(np.int64)
                for key in fields
            }
            count = min(len(values) for values in snapshot.values())
            for key in fields:
                parts[key].append(snapshot[key][:count])
            parent = parts["parent"][-1]
            parent[parent >= 0] += offset
            parts["thread"].append(np.full(count, spans.thread, dtype=np.int64))
            offset += count
        merged = {
            key: np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            for key, chunks in parts.items()
        }
        merged["request"] = request_ids(merged["parent"])
        return merged

    def layer_of_name(self) -> list[str]:
        return [layer for layer, _qualname in self.names]

    def save(self, path) -> None:
        """Write the spans, the name table and the thread names to
        ``path`` (``.npz``); :func:`load` reads them back."""
        spans = self.spans()
        np.savez(
            path,
            names=np.array([f"{layer}:{qualname}" for layer, qualname in self.names]),
            thread_names=np.array(self.thread_names + [""]),
            **spans,
        )


def load(path) -> tuple[dict[str, np.ndarray], list[str], list[str]]:
    """Spans, per-name layers and thread names saved by :meth:`Tracer.save`."""
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files if key not in ("names", "thread_names")}
        layers = [str(name).split(":", 1)[0] for name in data["names"]]
        threads = [str(name) for name in data["thread_names"]][:-1]
    return spans, layers, threads


class GcPauses:
    """Garbage-collector pause accounting through ``gc.callbacks``."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.full_collections = 0
        self.pause_ns = 0
        self.max_pause_ns = 0
        self._started = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = self.clock()
            return
        pause = self.clock() - self._started
        self.pause_ns += pause
        self.max_pause_ns = max(self.max_pause_ns, pause)
        if info.get("generation") == 2:
            self.full_collections += 1

    def start(self) -> None:
        gc.callbacks.append(self)

    def stop(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)

    def summary(self) -> dict[str, float]:
        return {
            "gc.full_collections": self.full_collections,
            "gc.pause_s": self.pause_ns / 1e9,
            "gc.max_pause_ms": self.max_pause_ns / 1e6,
        }


def request_ids(parent: np.ndarray) -> np.ndarray:
    """Root index of every span (pointer jumping over ``parent``)."""
    index = np.arange(len(parent), dtype=np.int64)
    root = np.where(parent < 0, index, parent)
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            return root
        root = jumped


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time in nanoseconds: duration minus the summed
    durations of the span's direct children."""
    duration = (spans["end"] - spans["start"]).astype(np.float64)
    parent = spans["parent"]
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(parent)
    )
    return duration - children


def layer_times(
    spans: dict[str, np.ndarray],
    layer_of_name: list[str],
    *,
    window: tuple[int, int] | None = None,
    threads: set[int] | None = None,
) -> tuple[dict[str, dict[str, float]], float]:
    """Aggregate closed spans per layer.

    Returns ``({layer: {"calls", "items", "self_s"}}, root_s)`` where
    ``root_s`` is the summed duration of root spans. ``window`` keeps
    spans whose *request* started inside ``[start, end)`` (nanoseconds);
    ``threads`` keeps spans of the given thread ids.
    """
    own = self_times(spans)
    keep = spans["end"] >= 0
    keep &= spans["end"][spans["request"]] >= 0
    if window is not None:
        request_start = spans["start"][spans["request"]]
        keep &= (request_start >= window[0]) & (request_start < window[1])
    if threads is not None:
        keep &= np.isin(spans["thread"], sorted(threads))
    layers = np.array(layer_of_name + [""], dtype=object)[spans["name"]]
    out: dict[str, dict[str, float]] = {}
    for layer in dict.fromkeys(layer_of_name):
        mask = keep & (layers == layer)
        out[layer] = {
            "calls": int(mask.sum()),
            "items": int(spans["items"][mask].sum()),
            "self_s": float(own[mask].sum()) / 1e9,
        }
    roots = keep & (spans["parent"] < 0)
    root_s = float((spans["end"][roots] - spans["start"][roots]).sum()) / 1e9
    return out, root_s
