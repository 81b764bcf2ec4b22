"""Shared utilities: errors, math helpers, caching, and spec loading."""

from repro.common.cache import (
    AnalysisCache,
    PersistentCache,
    StageCache,
    global_cache,
)
from repro.common.errors import (
    MappingError,
    ReproError,
    SpecError,
    ValidationError,
)
from repro.common.util import (
    ceil_div,
    clamp,
    factorizations,
    prod,
)

__all__ = [
    "ReproError",
    "SpecError",
    "MappingError",
    "ValidationError",
    "AnalysisCache",
    "PersistentCache",
    "StageCache",
    "global_cache",
    "ceil_div",
    "clamp",
    "prod",
    "factorizations",
]
