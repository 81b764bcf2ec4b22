"""Sparse Acceleration Feature (SAF) specifications (Sec 3).

The taxonomy classifies sparsity-aware acceleration into three
orthogonal features:

* **representation format** — how nonzero locations are encoded
  (:mod:`repro.sparse.formats`),
* **gating** — idle during ineffectual operations (saves energy only),
* **skipping** — do not spend cycles on ineffectual operations (saves
  energy and time).

Gating/skipping at storage is based on intersections:
``Skip B <- A`` is a leader-follower intersection (A leads), and
``Skip A <-> B`` is double-sided, modeled as the pair of
leader-follower SAFs in both directions (Sec 5.3.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import SpecError


class SAFKind(enum.Enum):
    """Whether ineffectual operations are gated (idle) or skipped."""

    GATE = "gate"
    SKIP = "skip"


@dataclass(frozen=True)
class StorageSAF:
    """Gating or skipping applied to a storage level.

    ``target`` accesses at ``level`` are eliminated when the leader
    tile(s) of every tensor in ``conditioned_on`` is empty... more
    precisely: the access is *kept* only when all leader tiles are
    nonempty (an access conditioned on A and B is eliminated if either
    leader is empty), matching ``Skip Z <- A & B`` semantics.

    A double-sided intersection ``Skip A <-> B`` is expressed as two
    instances: ``StorageSAF(skip, A, [B])`` and ``StorageSAF(skip, B, [A])``.
    """

    kind: SAFKind
    target: str
    conditioned_on: tuple[str, ...]
    level: str

    def __post_init__(self) -> None:
        if not self.conditioned_on:
            raise SpecError(
                f"SAF on {self.target!r} must be conditioned on at least "
                "one tensor"
            )
        if self.target in self.conditioned_on:
            raise SpecError(
                f"SAF target {self.target!r} cannot condition on itself"
            )

    def describe(self) -> str:
        arrow = " <- ".join([self.target, " & ".join(self.conditioned_on)])
        return f"{self.kind.value.capitalize()} {arrow} @ {self.level}"

    def __repr__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class ComputeSAF:
    """Gating or skipping applied to the compute units.

    Conditioned on the operand tensors listed (default: all operands):
    a compute with any all-zero conditioned operand is eliminated.
    """

    kind: SAFKind
    conditioned_on: tuple[str, ...] = ()

    def describe(self) -> str:
        cond = " & ".join(self.conditioned_on) if self.conditioned_on else "operands"
        return f"{self.kind.value.capitalize()} Compute <- {cond}"

    def __repr__(self) -> str:
        return self.describe()


def gate_storage(target: str, conditioned_on, level: str) -> StorageSAF:
    """Shorthand for ``Gate target <- conditioned_on @ level``."""
    return StorageSAF(SAFKind.GATE, target, _tupled(conditioned_on), level)


def skip_storage(target: str, conditioned_on, level: str) -> StorageSAF:
    """Shorthand for ``Skip target <- conditioned_on @ level``."""
    return StorageSAF(SAFKind.SKIP, target, _tupled(conditioned_on), level)


def double_sided(
    kind: SAFKind, tensor_a: str, tensor_b: str, level: str
) -> list[StorageSAF]:
    """``A <-> B``: the pair of leader-follower SAFs in both directions."""
    return [
        StorageSAF(kind, tensor_a, (tensor_b,), level),
        StorageSAF(kind, tensor_b, (tensor_a,), level),
    ]


def gate_compute(conditioned_on=()) -> ComputeSAF:
    return ComputeSAF(SAFKind.GATE, _tupled(conditioned_on))


def skip_compute(conditioned_on=()) -> ComputeSAF:
    return ComputeSAF(SAFKind.SKIP, _tupled(conditioned_on))


def _tupled(value) -> tuple[str, ...]:
    """A tensor name, or a list or tuple of names, as a tuple of names;
    anything else is a :class:`SpecError`."""
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(
        isinstance(name, str) for name in value
    ):
        return tuple(value)
    raise SpecError(
        f"must be a tensor name or a list of tensor names, got {value!r}"
    )


@dataclass
class SAFSpec:
    """All SAFs of one design plus per-level representation formats.

    ``formats`` maps ``(level_name, tensor_name)`` to a
    :class:`~repro.sparse.formats.FormatSpec`; unlisted pairs default to
    uncompressed. ``storage_safs`` and ``compute_safs`` list the
    gating/skipping features.
    """

    formats: dict[tuple[str, str], object] = field(default_factory=dict)
    storage_safs: list[StorageSAF] = field(default_factory=list)
    compute_safs: list[ComputeSAF] = field(default_factory=list)

    def format_for(self, level: str, tensor: str):
        return self.formats.get((level, tensor))

    def cache_key(self) -> tuple:
        """Canonical content key of primitives.

        Two SAF specs with equal keys filter traffic identically: same
        per-(level, tensor) formats, same storage SAFs (order
        preserved — it is observable through accumulation order), same
        compute SAFs. SAFs enter as their fields, not their
        ``describe()`` text: ``Skip Compute <- operands`` prints for no
        condition and for a tensor named ``operands`` alike. The engine
        memoises the key's digest: do not mutate a spec after it has
        been evaluated.
        """
        return (
            tuple(
                sorted(
                    (level, tensor, fmt.cache_key())
                    for (level, tensor), fmt in self.formats.items()
                )
            ),
            tuple(
                (s.kind.value, s.target, s.conditioned_on, s.level)
                for s in self.storage_safs
            ),
            tuple((s.kind.value, s.conditioned_on) for s in self.compute_safs),
        )

    def storage_safs_at(self, level: str) -> list[StorageSAF]:
        return [s for s in self.storage_safs if s.level == level]

    def describe(self) -> str:
        lines = []
        for (level, tensor), fmt in sorted(self.formats.items()):
            lines.append(f"{level}/{tensor}: {fmt.describe()}")
        lines.extend(s.describe() for s in self.storage_safs)
        lines.extend(s.describe() for s in self.compute_safs)
        return "\n".join(lines) if lines else "(dense design: no SAFs)"
