"""repro: a from-scratch reproduction of Sparseloop (MICRO 2022).

Sparseloop is an analytical modeling framework for sparse tensor
accelerators. The public API mirrors the paper's structure:

* :mod:`repro.api` — the :class:`Session`/job evaluation façade (the
  primary entry point; see ``docs/api.md``)
* :mod:`repro.workload` — extended-Einsum workloads and DNN layer tables
* :mod:`repro.arch` — architecture specifications
* :mod:`repro.mapping` — mappings and mapspace search
* :mod:`repro.search` — objectives (named, weighted, vector) and
  Pareto frontiers for mapspace search (see ``docs/search.md``)
* :mod:`repro.sparse` — density models, formats, and SAF specifications
* :mod:`repro.model` — the three-step evaluation engine and the
  versioned, serializable result schema
* :mod:`repro.designs` — prebuilt accelerator models from the paper
* :mod:`repro.refsim` — cycle-level reference simulator (validation)

Quick start::

    from repro import Session

    with Session() as session:
        result = session.evaluate("design.yaml")
        print(result.summary())
"""

from repro.api import (
    EvaluateJob,
    JobHandle,
    NetworkJob,
    SearchJob,
    Session,
    evaluate_network,
)
from repro.arch.spec import Architecture, ComputeLevel, StorageLevel
from repro.io.yaml_spec import load_design
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.mapping.mapspace import MapspaceConstraints
from repro.model.engine import Design, Evaluator
from repro.model.result import (
    RESULT_SCHEMA_VERSION,
    EvaluationResult,
    NetworkResult,
    SearchResult,
)
from repro.search import (
    MultiObjective,
    NamedObjective,
    Objective,
    ParetoFrontier,
    WeightedObjective,
    resolve_objective,
)
from repro.sparse.density import (
    ActualDataDensity,
    BandedDensity,
    FixedStructuredDensity,
    StructuredNMDensity,
    UniformDensity,
)
from repro.sparse.saf import SAFSpec
from repro.workload.einsum import conv2d, matmul
from repro.workload.spec import Workload

__version__ = "2.0.0"

__all__ = [
    # Evaluation façade
    "Session",
    "EvaluateJob",
    "SearchJob",
    "NetworkJob",
    "JobHandle",
    "evaluate_network",
    # Specs and building blocks
    "Architecture",
    "StorageLevel",
    "ComputeLevel",
    "Loop",
    "LevelMapping",
    "Mapping",
    "MapspaceConstraints",
    "Workload",
    "matmul",
    "conv2d",
    "UniformDensity",
    "FixedStructuredDensity",
    "StructuredNMDensity",
    "BandedDensity",
    "ActualDataDensity",
    "SAFSpec",
    "Design",
    "load_design",
    # Search objectives and frontiers
    "Objective",
    "NamedObjective",
    "WeightedObjective",
    "MultiObjective",
    "ParetoFrontier",
    "resolve_objective",
    # The engine behind Session, and results
    "Evaluator",
    "EvaluationResult",
    "SearchResult",
    "NetworkResult",
    "RESULT_SCHEMA_VERSION",
    "__version__",
]
