"""Mapping validity: tiles (data + format overhead) must fit (Sec 5.4).

A mapping is valid only if the largest tiles — derived from the
statistical tile densities and format overheads — meet the capacity of
their storage levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.spec import Architecture
from repro.common.errors import ValidationError
from repro.sparse.traffic import SparseTraffic


@dataclass
class LevelUsage:
    level: str
    capacity_words: float | None
    used_words: float
    per_tensor: dict[str, float] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        if self.capacity_words is None or self.capacity_words == 0:
            return 0.0
        return self.used_words / self.capacity_words

    @property
    def fits(self) -> bool:
        return self.capacity_words is None or self.used_words <= self.capacity_words


def overflow_error(report: LevelUsage) -> ValidationError:
    """The :class:`ValidationError` for one overflowing level —
    identical to what :func:`check_validity` raises, so callers
    replaying a cached usage report reproduce the uncached error."""
    return ValidationError(
        f"level {report.level!r} overflows: needs "
        f"{report.used_words:.1f} words of {report.capacity_words:g} "
        f"({', '.join(f'{t}={w:.1f}' for t, w in report.per_tensor.items())})"
    )


def check_validity(
    arch: Architecture,
    sparse: SparseTraffic,
    raise_on_invalid: bool = True,
) -> dict[str, LevelUsage]:
    """Check per-level worst-case occupancy against capacity.

    Returns per-level usage reports; raises :class:`ValidationError`
    for the first overflowing level unless ``raise_on_invalid`` is
    False.
    """
    usage: dict[str, LevelUsage] = {}
    for level in arch.levels:
        report = LevelUsage(
            level=level.name,
            capacity_words=level.capacity_words,
            used_words=0.0,
        )
        for actions in sparse.level_actions(level.name):
            report.per_tensor[actions.tensor] = actions.worst_occupancy_words
            report.used_words += actions.worst_occupancy_words
        usage[level.name] = report
        if raise_on_invalid and not report.fits:
            raise overflow_error(report)
    return usage
