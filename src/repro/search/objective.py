"""Declarative search objectives.

An :class:`Objective` turns an ``EvaluationResult`` into the value the
mapspace search minimises.  Objectives come in four flavours:

* :class:`NamedObjective` — one of the built-in metrics
  (:data:`OBJECTIVE_NAMES`).  ``"edp"`` is the package-wide default
  and reproduces the engine's historical EDP objective bit-for-bit.
* :class:`WeightedObjective` — a weighted sum of named metrics.
* :class:`MultiObjective` — a vector of named metrics.  The scalar
  winner is still picked by a designated scalar axis, but the search
  maintains a Pareto frontier over the full vector.
* :class:`CallableObjective` — a wrapper over a legacy
  ``Callable[[EvaluationResult], float]``.  In-process only: it has no
  wire form.

Every objective **minimises**.  Metrics where larger is better (the
capacity-slack axis) are negated so the frontier's dominance test can
stay a plain component-wise ``<=``.

Named objectives and their combinations serialize as plain JSON data
(``to_spec`` / :func:`objective_from_spec`), never as pickles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import SpecError

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
]


def capacity_slack(result) -> float:
    """Fraction of the tightest bounded level left unused, in [~, 1].

    ``1.0`` means no bounded level holds any data (or the design has
    no bounded levels); ``0.0`` means some level is exactly full.
    Larger is better — the ``"slack"`` objective negates this so that
    all objective axes minimise.
    """

    slack = 1.0
    for usage in result.usage.values():
        capacity = usage.capacity_words
        if capacity:
            slack = min(slack, 1.0 - usage.used_words / capacity)
    return slack


def _metric_edp(result) -> float:
    return result.edp


def _metric_energy(result) -> float:
    return result.energy_pj


def _metric_cycles(result) -> float:
    return result.cycles


def _metric_slack(result) -> float:
    return -capacity_slack(result)


_METRICS = {
    "edp": _metric_edp,
    "energy": _metric_energy,
    "latency": _metric_cycles,
    "cycles": _metric_cycles,
    "slack": _metric_slack,
}

OBJECTIVE_NAMES = tuple(_METRICS)


def _require_name(name) -> str:
    if not isinstance(name, str) or name not in _METRICS:
        raise SpecError(
            "unknown objective name %r; expected one of %s"
            % (name, ", ".join(OBJECTIVE_NAMES))
        )
    return name


class Objective:
    """Base class for search objectives.  Objectives minimise."""

    @property
    def name(self) -> str:
        raise NotImplementedError

    @property
    def axes(self) -> tuple[str, ...]:
        """Names of the frontier axes this objective spans."""

        return (self.name,)

    def score(self, result) -> float:
        """The scalar value the winner is picked by (minimised)."""

        raise NotImplementedError

    def vector(self, result) -> tuple[float, ...]:
        """The point this result occupies in frontier space."""

        return (self.score(result),)

    def to_spec(self):
        """Plain JSON data describing this objective.

        For every objective but a callable the spec round-trips
        through :func:`objective_from_spec`; for callables it is a
        purely descriptive record (results stay self-describing, but
        the callable itself cannot be rebuilt from it).
        """

        raise NotImplementedError


@dataclass(frozen=True)
class NamedObjective(Objective):
    """One of the built-in metrics, referenced by name."""

    metric: str = "edp"

    def __post_init__(self):
        _require_name(self.metric)

    @property
    def name(self) -> str:
        return self.metric

    def score(self, result) -> float:
        return _METRICS[self.metric](result)

    def to_spec(self):
        return self.metric


@dataclass(frozen=True)
class WeightedObjective(Objective):
    """A weighted sum of named metrics (still a scalar objective)."""

    weights: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if not self.weights:
            raise SpecError("weighted objective needs at least one term")
        terms = []
        for entry in self.weights:
            try:
                name, weight = entry
            except (TypeError, ValueError):
                raise SpecError(
                    "weighted objective terms must be (name, weight) pairs, "
                    "got %r" % (entry,)
                ) from None
            _require_name(name)
            weight = float(weight)
            if not math.isfinite(weight):
                raise SpecError(
                    "weighted objective weight for %r must be finite, got %r"
                    % (name, weight)
                )
            terms.append((name, weight))
        object.__setattr__(self, "weights", tuple(terms))

    @property
    def name(self) -> str:
        return "+".join("%g*%s" % (weight, name) for name, weight in self.weights)

    def score(self, result) -> float:
        return sum(weight * _METRICS[name](result) for name, weight in self.weights)

    def to_spec(self):
        return {"weighted": {name: weight for name, weight in self.weights}}


@dataclass(frozen=True)
class MultiObjective(Objective):
    """A vector of named metrics searched as a Pareto frontier.

    ``scalar`` names the axis-like metric that still picks the single
    reported winner (``best_score`` / ``best``); it does not have to
    be one of the vector axes — the default pairs the classic EDP
    winner with the (energy, cycles, slack) frontier from ROADMAP
    item 2.
    """

    metrics: tuple[str, ...] = ("energy", "cycles", "slack")
    scalar: str = "edp"

    def __post_init__(self):
        if not self.metrics:
            raise SpecError("multi-objective needs at least one axis")
        object.__setattr__(
            self, "metrics", tuple(_require_name(name) for name in self.metrics)
        )
        _require_name(self.scalar)

    @property
    def name(self) -> str:
        return "multi(%s)" % ",".join(self.metrics)

    @property
    def axes(self) -> tuple[str, ...]:
        return self.metrics

    def score(self, result) -> float:
        return _METRICS[self.scalar](result)

    def vector(self, result) -> tuple[float, ...]:
        return tuple(_METRICS[name](result) for name in self.metrics)

    def to_spec(self):
        return {"multi": list(self.metrics), "scalar": self.scalar}


@dataclass(frozen=True)
class CallableObjective(Objective):
    """A legacy ``Callable[[EvaluationResult], float]`` objective."""

    fn: object = field(default=None)

    def __post_init__(self):
        if not callable(self.fn):
            raise SpecError("callable objective needs a callable, got %r" % (self.fn,))

    @property
    def name(self) -> str:
        fn = self.fn
        return getattr(fn, "__qualname__", None) or getattr(
            fn, "__name__", None
        ) or "callable"

    def score(self, result) -> float:
        return self.fn(result)

    def to_spec(self):
        fn = self.fn
        module = getattr(fn, "__module__", None) or "?"
        return {"callable": "%s:%s" % (module, self.name)}


DEFAULT_OBJECTIVE = NamedObjective("edp")


def objective_from_spec(spec) -> Objective:
    """Rebuild an :class:`Objective` from ``to_spec()`` wire data.

    Accepts a metric name string, a ``{"weighted": {...}}`` dict, or a
    ``{"multi": [...], "scalar": ...}`` dict.  Raises
    :class:`SpecError` for anything else — including ``{"callable":
    ...}`` records, which are descriptive only.
    """

    if isinstance(spec, str):
        return NamedObjective(_require_name(spec))
    if isinstance(spec, dict):
        if "callable" in spec:
            raise SpecError(
                "callable objective %r cannot be reconstructed from its "
                "spec; use a named objective (%s) instead"
                % (spec["callable"], ", ".join(OBJECTIVE_NAMES))
            )
        if "weighted" in spec:
            weights = spec["weighted"]
            if not isinstance(weights, dict):
                raise SpecError(
                    "weighted objective spec must map names to weights, "
                    "got %r" % (weights,)
                )
            return WeightedObjective(tuple(weights.items()))
        if "multi" in spec:
            metrics = spec["multi"]
            if not isinstance(metrics, (list, tuple)):
                raise SpecError(
                    "multi-objective spec must list axis names, got %r"
                    % (metrics,)
                )
            return MultiObjective(tuple(metrics), spec.get("scalar", "edp"))
    raise SpecError("unrecognised objective spec %r" % (spec,))


def resolve_objective(objective) -> Objective:
    """Normalise any accepted objective form into one :class:`Objective`.

    ``None`` means the default EDP objective; strings are named
    objectives; sequences of names become a :class:`MultiObjective`;
    dicts are parsed as wire specs; callables are wrapped (in-process
    only); Objective instances pass through.
    """

    if objective is None:
        return DEFAULT_OBJECTIVE
    if isinstance(objective, Objective):
        return objective
    if isinstance(objective, str):
        return NamedObjective(_require_name(objective))
    if isinstance(objective, (list, tuple)):
        return MultiObjective(tuple(objective))
    if isinstance(objective, dict):
        return objective_from_spec(objective)
    if callable(objective):
        return CallableObjective(objective)
    raise SpecError(
        "objective must be a name, a sequence of names, an Objective, "
        "or a callable; got %r" % (objective,)
    )
