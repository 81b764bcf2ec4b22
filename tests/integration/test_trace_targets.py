"""Every entry point the benchmark's span tracer wraps still exists.

``bench/spans.py`` names its targets as ``(module, qualname)`` strings
and silently skips any it cannot find, so renaming or moving one of
them would drop its spans from the per-layer trace without an error.
This guard resolves each target exactly where the tracer looks:

* a plain name is a module attribute;
* ``Class.method`` is in ``Class.__dict__``;
* ``Class*.method`` is in the ``__dict__`` of the class or of one of
  its subclasses.

The tracer also skips abstract methods, so a target must resolve to
at least one concrete definition.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import repro  # noqa: F401  (loads every subclass the tracer can see)

SPANS_PATH = Path(__file__).resolve().parents[2] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _load_spans()
TARGETS = [
    (layer, module_name, qualname)
    for table in (_SPANS.LAYERS, _SPANS.DAEMON_LAYERS)
    for layer, entries in table.items()
    for module_name, qualname in entries
]


def _hierarchy(cls) -> list[type]:
    classes, pending = [], [cls]
    while pending:
        current = pending.pop()
        classes.append(current)
        pending.extend(current.__subclasses__())
    return classes


def _concrete(value) -> bool:
    return value is not None and not getattr(
        value, "__isabstractmethod__", False
    )


@pytest.mark.parametrize(
    "layer,module_name,qualname",
    TARGETS,
    ids=[f"{layer}:{qualname}" for layer, _, qualname in TARGETS],
)
def test_target_resolves_where_the_tracer_looks(layer, module_name, qualname):
    module = importlib.import_module(module_name)
    if "." not in qualname:
        assert callable(getattr(module, qualname, None)), (
            f"{layer}: {module_name}.{qualname} is not a module attribute"
        )
        return
    class_name, attribute = qualname.split(".")
    cls = getattr(module, class_name.rstrip("*"), None)
    assert isinstance(cls, type), (
        f"{layer}: {module_name} has no class {class_name.rstrip('*')}"
    )
    classes = _hierarchy(cls) if class_name.endswith("*") else [cls]
    assert any(_concrete(c.__dict__.get(attribute)) for c in classes), (
        f"{layer}: {qualname} is not defined on "
        f"{[c.__name__ for c in classes]} (a base class or a rename "
        "would drop its spans from the trace)"
    )
