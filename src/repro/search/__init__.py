"""First-class search objectives and Pareto frontiers.

This package is the declarative layer over the engine's mapspace
search (see ``docs/search.md``):

* :mod:`repro.search.objective` — named scalar objectives (``"edp"``,
  ``"energy"``, ``"latency"``, ``"cycles"``, ``"slack"``), weighted
  combinations, the vector-valued :class:`MultiObjective`, and the
  resolution rules that turn names / vectors / legacy callables into
  one :class:`Objective`.
* :mod:`repro.search.frontier` — the :class:`ParetoFrontier`
  container with incremental dominance maintenance; the scalar search
  path is its 1-D special case.
* :mod:`repro.search.evolutionary` — genome operators (factorization
  -space crossover and mutation honouring ``fixed_factors``) and the
  constants of the engine's ``strategy="evolutionary"`` search.

Objectives cross the job wire only as plain schema-v1 spec data (a
name string or a small spec dict), never as pickles; a callable
objective stays in-process.
"""

from repro.search.frontier import FrontierPoint, ParetoFrontier
from repro.search.objective import (
    DEFAULT_OBJECTIVE,
    OBJECTIVE_NAMES,
    CallableObjective,
    MultiObjective,
    NamedObjective,
    Objective,
    WeightedObjective,
    capacity_slack,
    objective_from_spec,
    resolve_objective,
)

__all__ = [
    "Objective",
    "NamedObjective",
    "WeightedObjective",
    "MultiObjective",
    "CallableObjective",
    "OBJECTIVE_NAMES",
    "DEFAULT_OBJECTIVE",
    "capacity_slack",
    "objective_from_spec",
    "resolve_objective",
    "ParetoFrontier",
    "FrontierPoint",
]
