"""Mapping validity: tiles (data + format overhead) must fit (Sec 5.4).

A mapping is valid only if the largest tiles — derived from the
statistical tile densities and format overheads — meet the capacity of
their storage levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.spec import Architecture
from repro.common.errors import ValidationError
from repro.micro.record import EvaluationRecord, RecordLayout, as_record
from repro.sparse.traffic import WORST_OCCUPANCY, SparseTraffic


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


def level_usage(layout: RecordLayout, values, index: int) -> LevelUsage:
    """The usage report of storage level ``index``."""
    slots = layout.slots
    return LevelUsage(
        level=layout.levels[index],
        capacity_words=layout.capacities[index],
        used_words=values[layout.usage + index],
        per_tensor={
            slots[2 * slot + 1]: values[layout.rows[slot] + WORST_OCCUPANCY]
            for slot in layout.level_slots[index]
        },
    )


def usage_view(layout: RecordLayout, values) -> dict[str, LevelUsage]:
    """Every level's usage report, outermost first."""
    return {
        level: level_usage(layout, values, index)
        for index, level in enumerate(layout.levels)
    }


def check_validity(
    arch: Architecture,
    sparse: SparseTraffic | EvaluationRecord,
    raise_on_invalid: bool = True,
) -> dict[str, LevelUsage] | EvaluationRecord:
    """Check per-level worst-case occupancy against capacity.

    Each level's used words are its slots' worst-case occupancies,
    summed in slot order. Returns per-level usage reports; raises
    :class:`ValidationError` for the first overflowing level unless
    ``raise_on_invalid`` is False.

    ``sparse`` may also be an open record (:func:`~repro.micro.record.
    open_record`), as the engine passes it: the used words and the
    index of the first level that does not fit (``-1``) are written
    into its buffer, and the record comes back instead of reports.
    """
    record = as_record(arch, sparse)
    layout, values = record.layout, record.values
    rows = layout.rows
    overflow = -1
    at = layout.usage
    for index, slots in enumerate(layout.level_slots):
        used = 0.0
        for slot in slots:
            used += values[rows[slot] + WORST_OCCUPANCY]
        values[at + index] = used
        capacity = layout.capacities[index]
        if overflow < 0 and not (capacity is None or used <= capacity):
            overflow = index
    values[layout.overflow] = overflow
    if raise_on_invalid and overflow >= 0:
        raise overflow_error(level_usage(layout, values, overflow))
    return record if record is sparse else usage_view(layout, values)
