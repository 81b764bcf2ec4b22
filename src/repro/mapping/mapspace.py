"""Mapspace constraints and mapping enumeration (Sec 5.1).

Characterising a design requires finding its best mapping for each
workload, so Sparseloop accepts *mapspace constraints* instead of a
fixed mapping and searches the space they allow. This module provides
the combinatorial machinery: per-dimension factorization across levels,
permutation handling, and exhaustive or random enumeration. Picking the
best candidate by model feedback lives in
:meth:`repro.model.engine.Evaluator._search_full`.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.arch.spec import Architecture
from repro.common.cache import digest, spec_digest
from repro.common.errors import MappingError
from repro.common.util import (
    cached_divisors,
    factorization_count,
    factorizations,
    prod,
)
from repro.mapping.mapping import LevelMapping, Loop, Mapping
from repro.workload.einsum import EinsumSpec


@dataclass
class MapspaceConstraints:
    """Restrictions on the allowed schedules (Fig. 6's mapspace input).

    Attributes:
        loop_orders: Fixed temporal loop order (outermost first) per
            level name; dims omitted from the order are appended in
            workload order. ``None`` = search permutations too (only for
            levels listed in ``permute_levels``).
        spatial_dims: Dims allowed to be spatial at each level name.
        keep: Per-level resident tensor sets (``None`` entry = keep all).
        fixed_factors: Pin ``level -> dim -> factor`` tiling choices.
        max_permutations: Cap on permutations searched per level.
    """

    loop_orders: dict[str, list[str]] = field(default_factory=dict)
    spatial_dims: dict[str, list[str]] = field(default_factory=dict)
    keep: dict[str, set[str] | None] = field(default_factory=dict)
    fixed_factors: dict[str, dict[str, int]] = field(default_factory=dict)
    max_permutations: int = 8

    def cache_key(self) -> tuple:
        """Canonical hashable content key (sorted, order-insensitive
        for the dict containers, order-preserving for the lists whose
        order matters — loop orders and spatial priority)."""
        return (
            tuple(
                (level, tuple(dims))
                for level, dims in sorted(self.loop_orders.items())
            ),
            tuple(
                (level, tuple(dims))
                for level, dims in sorted(self.spatial_dims.items())
            ),
            tuple(
                (level, None if tensors is None else tuple(sorted(tensors)))
                for level, tensors in sorted(self.keep.items())
            ),
            tuple(
                (level, tuple(sorted(factors.items())))
                for level, factors in sorted(self.fixed_factors.items())
            ),
            self.max_permutations,
        )


#: Cache-stage name under which sampled candidate streams are memoised
#: (see :func:`sampled_candidates_key` and the engine's search path).
CANDIDATES_STAGE = "candidates"


def sampled_candidates_key(
    einsum: EinsumSpec,
    arch: Architecture,
    constraints: MapspaceConstraints,
    seed: int | None,
    count: int,
    max_tries: int | None = None,
) -> bytes:
    """Content digest of one :meth:`Mapper.sample_mappings` stream.

    The stream is a pure function of the mapspace (einsum dims, the
    architecture's level/fanout structure, the constraints) and the
    sampling parameters (seed, count, try budget): witnesses never
    alter the draws — they only withhold doomed candidates — so the
    *unpruned* stream is deterministic under this key and can be
    replayed across searches, evaluators, and processes.
    """
    return digest(
        spec_digest(einsum)
        + spec_digest(arch)
        + repr((constraints.cache_key(), seed, count, max_tries)).encode()
    )


class Mapper:
    """Enumerates valid mappings of a workload onto an architecture.

    The mapspace per dimension is the set of factorizations of its
    bound across (temporal slots of every level) + (spatial slots of
    levels allowing that dim spatially). ``enumerate_mappings`` walks it
    exhaustively; ``sample_mappings`` draws random points for large
    spaces.
    """

    def __init__(
        self,
        einsum: EinsumSpec,
        arch: Architecture,
        constraints: MapspaceConstraints | None = None,
    ):
        self.einsum = einsum
        self.arch = arch
        self.constraints = constraints or MapspaceConstraints()
        self.level_names = arch.level_names  # outermost first
        self._level_order = {name: i for i, name in enumerate(self.level_names)}
        # Constraints must name real levels: a typo'd level would
        # otherwise be silently ignored (its pins/orders/keeps never
        # consulted), which reads as "constraint accepted" while the
        # search roams the unconstrained space.
        for option, per_level in (
            ("loop_orders", self.constraints.loop_orders),
            ("spatial_dims", self.constraints.spatial_dims),
            ("keep", self.constraints.keep),
            ("fixed_factors", self.constraints.fixed_factors),
        ):
            for level in per_level:
                if level not in self._level_order:
                    raise MappingError(
                        f"constraint {option} names unknown level "
                        f"{level!r}; architecture has {self.level_names}"
                    )
        # ...and real dimensions: a typo'd dim in a loop order or a
        # pinned factor would be looked up with `.get` and silently
        # never enforced (the same silent-acceptance class as the level
        # names above; spatial_dims already validates its dims below).
        for option, dims_of_level in (
            ("loop_orders", self.constraints.loop_orders),
            ("fixed_factors", self.constraints.fixed_factors),
        ):
            for level, dims in dims_of_level.items():
                for dim in dims:
                    if dim not in einsum.dims:
                        raise MappingError(
                            f"constraint {option} at {level!r} names "
                            f"unknown dim {dim!r}; workload has "
                            f"{sorted(einsum.dims)}"
                        )
        # Slot layout: per dim, temporal slot per level then spatial
        # slots for levels that allow this dim spatially.
        self._spatial_slots: list[tuple[str, str]] = []  # (level, dim)
        for level in self.level_names:
            for dim in self.constraints.spatial_dims.get(level, []):
                if dim not in einsum.dims:
                    raise MappingError(
                        f"constraint allows unknown spatial dim {dim!r} at "
                        f"{level!r}"
                    )
                self._spatial_slots.append((level, dim))
        self._slot_levels_cache: dict[str, list[int]] = {}
        self._dim_pins_cache: dict[str, dict[int, int]] = {}
        self._dim_slots_cache: dict[str, list[tuple[str, str]]] = {}
        self._draw_ctx: tuple[bool, list[tuple[int, list[tuple[str, int]]]]] | None = None
        # ...and satisfiable pins: factors that are non-positive or
        # cannot tile their dim's bound make the whole mapspace empty.
        # Failing here attributes that to the malformed constraint
        # instead of a later, misleading "no valid mapping found".
        for dim in einsum.dims:
            if not self._pins_satisfiable(dim):
                pins = {
                    level: factors[dim]
                    for level, factors in self.constraints.fixed_factors.items()
                    if dim in factors
                }
                raise MappingError(
                    f"fixed_factors pins {pins} cannot tile dim {dim!r} "
                    f"(bound {einsum.dims[dim]}); the mapspace is empty"
                )
        # Capacity-overflow feedback (engine prefilter -> mapper): per
        # level, monotone infeasibility witnesses. A witness ``w`` means
        # any candidate whose per-dim tile extents at that level
        # dominate ``w`` (>= in every dim) is guaranteed to overflow,
        # so enumeration/sampling drops it — and whole factorization
        # subtrees when a chosen prefix already seals the dominance.
        self._overflow_witnesses: dict[str, list[dict[str, int]]] = {}
        #: Candidates dropped by witness dominance (observability).
        self.pruned_candidates = 0
        #: Factorization subtrees cut before enumeration reached them.
        self.pruned_subtrees = 0

    # ------------------------------------------------------------------
    # Factor enumeration

    def _dim_slot_names(self, dim: str) -> list[tuple[str, str]]:
        """Slots a dim's bound can be split across: ('t'|'s', level).

        Cached per dim: the sampler asks for the same slot list on
        every candidate draw. Callers must not mutate the result.
        """
        slots = self._dim_slots_cache.get(dim)
        if slots is None:
            slots = [("t", level) for level in self.level_names]
            slots += [
                ("s", level) for (level, d) in self._spatial_slots if d == dim
            ]
            self._dim_slots_cache[dim] = slots
        return slots

    def _dim_factorizations(self, dim: str) -> Iterator[tuple[int, ...]]:
        bound = self.einsum.dims[dim]
        slots = self._dim_slot_names(dim)
        pinned = {
            ("t", level): level_factors.get(dim)
            for level, level_factors in self.constraints.fixed_factors.items()
        }
        for combo in factorizations(bound, len(slots)):
            ok = True
            for slot, factor in zip(slots, combo):
                want = pinned.get(slot)
                if want is not None and factor != want:
                    ok = False
                    break
            if ok:
                yield combo

    def _dim_pins(self, dim: str) -> dict[int, int]:
        """Pinned slots of ``dim``: slot index -> fixed factor, from
        ``constraints.fixed_factors`` (temporal slots only, matching
        :meth:`_dim_factorizations`)."""
        pins = self._dim_pins_cache.get(dim)
        if pins is None:
            pins = {}
            for index, (kind, level) in enumerate(self._dim_slot_names(dim)):
                if kind != "t":
                    continue
                factor = self.constraints.fixed_factors.get(level, {}).get(dim)
                if factor is not None:
                    pins[index] = factor
            self._dim_pins_cache[dim] = pins
        return pins

    def _pins_satisfiable(self, dim: str) -> bool:
        """True when the pinned factors of ``dim`` can tile its bound
        (their product divides it; all-slots-pinned needs an exact
        tile). Unsatisfiable pins would make the whole mapspace empty,
        so :meth:`__init__` rejects them outright."""
        pins = self._dim_pins(dim)
        quotient = self.einsum.dims[dim]
        for factor in pins.values():
            if factor <= 0 or quotient % factor:
                return False
            quotient //= factor
        slots = len(self._dim_slot_names(dim))
        return quotient == 1 if len(pins) == slots else True

    def _random_dim_factorization(
        self, dim: str, rng: random.Random
    ) -> tuple[int, ...]:
        """A uniform-ish random slot factorization honouring the pins.

        Pinned slots take their fixed factor directly; only the free
        slots are drawn, from the pinned-down quotient — every draw
        conforms by construction, so pins never trigger redraw loops
        (and never desynchronise the documented RNG stream contract:
        with no pins the draw sequence is exactly the historical one).
        Pin satisfiability was established at :meth:`__init__`.
        """
        bound = self.einsum.dims[dim]
        slots = self._dim_slot_names(dim)
        pins = self._dim_pins(dim)
        remaining = bound
        for factor in pins.values():
            remaining //= factor
        free = len(slots) - len(pins)
        combo = []
        if free > 0:
            for _ in range(free - 1):
                f = rng.choice(cached_divisors(remaining))
                combo.append(f)
                remaining //= f
            combo.append(remaining)
            rng.shuffle(combo)
        if not pins:
            return tuple(combo)
        free_factors = iter(combo)
        return tuple(
            pins[index] if index in pins else next(free_factors)
            for index in range(len(slots))
        )

    # ------------------------------------------------------------------
    # Capacity-overflow feedback (monotone dominance pruning)

    def register_overflow(self, level: str, dim_extents: dict[str, int]) -> None:
        """Record a monotone infeasibility witness for ``level``.

        The engine's capacity prefilter calls this when a candidate's
        tile at ``level`` overflows even under a *monotone* occupancy
        bound (dense tile sizes, expected occupancy for compressed
        tensors). Because that bound grows with every per-dim tile
        extent, any other candidate whose extents at ``level`` dominate
        the witness (>= in every dimension) must overflow too, so
        enumeration and sampling drop it — whole factorization subtrees
        at once when a chosen prefix already seals the dominance. The
        search result never changes: every pruned candidate is one the
        prefilter, and therefore the full validity check, would reject.

        The witness set is kept minimal: new witnesses dominated by an
        existing one are discarded, and existing witnesses dominated by
        a new one are replaced.
        """
        if level not in self.level_names:
            raise MappingError(
                f"overflow registered for unknown level {level!r}; "
                f"architecture has {self.level_names}"
            )
        witness = {d: int(e) for d, e in dim_extents.items() if int(e) > 1}
        witnesses = self._overflow_witnesses.setdefault(level, [])
        for existing in witnesses:
            if all(witness.get(d, 1) >= v for d, v in existing.items()):
                return  # an existing witness already prunes a superset
        witnesses[:] = [
            w
            for w in witnesses
            if not all(w.get(d, 1) >= v for d, v in witness.items())
        ]
        witnesses.append(witness)

    @property
    def overflow_witness_count(self) -> int:
        return sum(len(w) for w in self._overflow_witnesses.values())

    def export_witnesses(self) -> dict[str, list[dict[str, int]]]:
        """JSON-safe snapshot of the overflow-witness set.

        Plain ``{level: [{dim: extent, ...}, ...]}`` with int extents —
        the wire form the distributed search layer ships between
        shards. Empty levels are dropped.
        """
        return {
            level: [dict(w) for w in witnesses]
            for level, witnesses in self._overflow_witnesses.items()
            if witnesses
        }

    def import_witnesses(
        self, witnesses: dict[str, list[dict[str, int]]]
    ) -> None:
        """Replace the witness set with an :meth:`export_witnesses`
        snapshot.

        Replacement (not merging) is deliberate: a snapshot is an
        authoritative point-in-time state of the single-host scan
        timeline, and a shard fast-forwarding its replay to that point
        must hold *exactly* that state — merging in witnesses the
        single-host scan had not yet registered would withhold
        candidates it had not yet learned to withhold, shifting stream
        indices.
        """
        imported: dict[str, list[dict[str, int]]] = {}
        for level, entries in witnesses.items():
            if level not in self.level_names:
                raise MappingError(
                    f"witness snapshot names unknown level {level!r}; "
                    f"architecture has {self.level_names}"
                )
            imported[level] = [
                {str(d): int(e) for d, e in entry.items()} for entry in entries
            ]
        self._overflow_witnesses = imported

    def _slot_levels(self, dim: str) -> list[int]:
        """Per slot of ``dim``, the outermost-first index of its level."""
        cached = self._slot_levels_cache.get(dim)
        if cached is None:
            cached = [
                self._level_order[level]
                for (_kind, level) in self._dim_slot_names(dim)
            ]
            self._slot_levels_cache[dim] = cached
        return cached

    def _dim_extent_at(
        self, dim: str, combo: tuple[int, ...], level_index: int
    ) -> int:
        """Tile extent of ``dim`` at a level: the product of factors in
        slots at or inside that level (temporal and spatial)."""
        extent = 1
        for slot_index, factor in zip(self._slot_levels(dim), combo):
            if slot_index >= level_index:
                extent *= factor
        return extent

    def _combo_sort_key(self, dim: str, combo: tuple[int, ...]) -> tuple:
        """Ascending tile extents, innermost level most significant."""
        last = len(self.level_names) - 1
        return tuple(
            self._dim_extent_at(dim, combo, index)
            for index in range(last, -1, -1)
        )

    def _witness_dominated(
        self, dims: list[str], combos: list[tuple[int, ...]]
    ) -> bool:
        """True when a full candidate dominates a registered witness."""
        if not self._overflow_witnesses:
            return False
        for level, witnesses in self._overflow_witnesses.items():
            level_index = self._level_order[level]
            for witness in witnesses:
                dominated = True
                for j, dim in enumerate(dims):
                    need = witness.get(dim, 1)
                    if need <= 1:
                        continue
                    if self._dim_extent_at(dim, combos[j], level_index) < need:
                        dominated = False
                        break
                if dominated:
                    return True
        return False

    def mapping_dominated(self, mapping: Mapping) -> bool:
        """True when a built mapping dominates a registered witness.

        The replayed-stream equivalent of the yield-time check inside
        :meth:`enumerate_mappings` / :meth:`sample_mappings`: a search
        that scans a *materialised* candidate list (e.g. a memoised
        sampled stream) calls this per candidate to withhold exactly
        the candidates the live generator would have withheld, keeping
        stream positions — and therefore tie-breaking indices —
        identical to the generator-driven scan.
        """
        if not self._overflow_witnesses:
            return False
        extents = {dim: 1 for dim in self.einsum.dims}
        for level_map in reversed(mapping.levels):  # innermost first
            for loop in level_map.temporal + level_map.spatial:
                extents[loop.dim] *= loop.bound
            witnesses = self._overflow_witnesses.get(level_map.level)
            if not witnesses:
                continue
            for witness in witnesses:
                if all(extents.get(d, 1) >= v for d, v in witness.items()):
                    return True
        return False

    def _subtree_dominated(
        self, dims: list[str], chosen: list[tuple[int, ...]]
    ) -> bool:
        """True when every completion of the chosen prefix dominates a
        witness: the chosen dims already meet the witness extents and
        the witness asks nothing (> 1) of the unchosen dims, whose
        extents are always >= 1."""
        if not self._overflow_witnesses:
            return False
        k = len(chosen)
        for level, witnesses in self._overflow_witnesses.items():
            level_index = self._level_order[level]
            for witness in witnesses:
                if any(witness.get(d, 1) > 1 for d in dims[k:]):
                    continue
                if all(
                    self._dim_extent_at(d, chosen[j], level_index)
                    >= witness.get(d, 1)
                    for j, d in enumerate(dims[:k])
                ):
                    return True
        return False

    # ------------------------------------------------------------------
    # Mapping construction

    def _build_mapping(
        self, factor_choices: dict[str, tuple[int, ...]]
    ) -> Mapping:
        levels: list[LevelMapping] = []
        for level in self.level_names:
            temporal_factors: dict[str, int] = {}
            spatial_factors: dict[str, int] = {}
            for dim, combo in factor_choices.items():
                slots = self._dim_slot_names(dim)
                for slot, factor in zip(slots, combo):
                    kind, slot_level = slot
                    if slot_level != level or factor == 1:
                        continue
                    if kind == "t":
                        temporal_factors[dim] = factor
                    else:
                        spatial_factors[dim] = factor
            order = self.constraints.loop_orders.get(level)
            ordered_dims = self._ordered(temporal_factors, order)
            temporal = [Loop(d, temporal_factors[d]) for d in ordered_dims]
            spatial = [
                Loop(d, f, spatial=True) for d, f in spatial_factors.items()
            ]
            keep = self.constraints.keep.get(level, None)
            levels.append(LevelMapping(level, temporal, spatial, keep=keep))
        return Mapping(levels)

    def _ordered(
        self, factors: dict[str, int], order: list[str] | None
    ) -> list[str]:
        if order is None:
            return [d for d in self.einsum.dims if d in factors]
        ordered = [d for d in order if d in factors]
        ordered += [d for d in self.einsum.dims if d in factors and d not in ordered]
        return ordered

    # ------------------------------------------------------------------
    # Public enumeration API

    def enumerate_mappings(self, limit: int | None = None) -> Iterator[Mapping]:
        """Exhaustively yield structurally-valid mappings.

        Candidates violating hardware fanout limits are silently
        dropped, as are candidates dominated by a registered overflow
        witness (:meth:`register_overflow`). When no ``limit`` is set —
        the engine's exhaustive-search path — whole factorization
        subtrees are cut as soon as a chosen prefix seals a dominance.
        Witnesses may be registered *while* this generator is being
        consumed; later candidates observe them immediately.

        Candidates are visited inner-tiles-first (ascending tile
        extents at the innermost levels): capacity overflow grows with
        the inner tile, so a model-driven consumer that registers
        witnesses as it scans sees the infeasibility frontier early and
        prunes everything beyond it.
        """
        dims = list(self.einsum.dims)
        spaces = [
            sorted(
                self._dim_factorizations(d),
                key=lambda combo, d=d: self._combo_sort_key(d, combo),
            )
            for d in dims
        ]
        prune_subtrees = limit is None

        def walk(k: int, chosen: list[tuple[int, ...]]) -> Iterator[Mapping]:
            if k == len(dims):
                mapping = self._build_mapping(dict(zip(dims, chosen)))
                if not self._structurally_valid(mapping):
                    return
                if self._witness_dominated(dims, chosen):
                    self.pruned_candidates += 1
                    return
                yield mapping
                return
            for combo in spaces[k]:
                chosen.append(combo)
                if (
                    prune_subtrees
                    and k + 1 < len(dims)
                    and self._subtree_dominated(dims, chosen)
                ):
                    self.pruned_subtrees += 1
                else:
                    yield from walk(k + 1, chosen)
                chosen.pop()

        produced = 0
        for mapping in walk(0, []):
            yield mapping
            produced += 1
            if limit is not None and produced >= limit:
                return

    def sample_mappings(
        self, count: int, seed: int | None = None, max_tries: int | None = None
    ) -> Iterator[Mapping]:
        """Yield up to ``count`` random valid mappings.

        Structurally-valid candidates dominated by an overflow witness
        still count toward ``count`` but are not yielded: a pruned run
        draws exactly the same random candidates as an unpruned one and
        merely withholds the doomed ones, so a model-driven search over
        the samples finds the same winner either way. Draws honour
        ``constraints.fixed_factors`` by construction (pinned slots are
        fixed, only the free slots are drawn), so pins neither produce
        non-conforming candidates nor perturb the draw sequence of
        unpinned dimensions. ``max_tries`` caps the structural-validity
        rejection loop; an explicit ``0`` means no tries at all (only
        ``None`` selects the default ``count * 50`` budget).
        """
        rng = random.Random(seed)
        dims = list(self.einsum.dims)
        tries = 0
        produced = 0
        budget = count * 50 if max_tries is None else max_tries
        while produced < count and tries < budget:
            tries += 1
            combos = {
                d: self._random_dim_factorization(d, rng) for d in dims
            }
            # Structural validity is decided on the combos themselves
            # (see _combo_structurally_valid): rejected draws never pay
            # a Mapping construction, accepted ones are valid by the
            # same rules Mapping.validate enforces.
            if not self._combo_structurally_valid(combos):
                continue
            produced += 1
            if self._witness_dominated(dims, [combos[d] for d in dims]):
                self.pruned_candidates += 1
                continue
            yield self._build_mapping(combos)

    def _structurally_valid(self, mapping: Mapping) -> bool:
        try:
            mapping.validate(self.einsum, self.arch)
        except MappingError:
            return False
        return True

    def _combo_structurally_valid(
        self, combos: dict[str, tuple[int, ...]]
    ) -> bool:
        """:meth:`Mapping.validate` evaluated directly on slot combos.

        Sampled draws satisfy most of ``validate`` *by construction*:
        level names match the architecture, factor products tile every
        bound exactly, and all dims are known. What remains is the
        spatial-fanout limit (genuinely draw-dependent) and the
        draw-independent checks (instance ratios, keep-set residency),
        which are computed once and reused. Accepts exactly the combos
        whose built mapping passes ``validate``, without paying a
        :class:`Mapping` construction for rejected draws.
        """
        ctx = self._draw_ctx
        if ctx is None:
            ctx = self._draw_ctx = self._build_draw_ctx()
        static_ok, spatial_checks = ctx
        if not static_ok:
            return False
        for available, slots in spatial_checks:
            fanout = 1
            for dim, index in slots:
                fanout *= combos[dim][index]
            if fanout > available:
                return False
        return True

    def _build_draw_ctx(
        self,
    ) -> tuple[bool, list[tuple[int, list[tuple[str, int]]]]]:
        """Draw-independent validity facts for sampled candidates.

        Returns ``(static_ok, spatial_checks)``: ``static_ok`` covers
        the checks no draw can change (hardware instance ratios, keep
        residency under the fixed constraint keep sets, fanout room at
        levels with no spatial slots), ``spatial_checks`` lists, per
        level that can receive spatial factors, the available child
        instances and the (dim, slot index) positions contributing to
        that level's fanout.
        """
        ordered = self.level_names
        static_ok = True
        for tensor in self.einsum.tensors:
            if not any(
                self.constraints.keep.get(level) is None
                or tensor.name in self.constraints.keep[level]
                for level in ordered
            ):
                static_ok = False
        spatial_checks: list[tuple[int, list[tuple[str, int]]]] = []
        for idx, level in enumerate(ordered):
            parent_instances = (
                self.arch.level(ordered[idx - 1]).instances if idx else 1
            )
            below_instances = (
                self.arch.level(ordered[idx + 1]).instances
                if idx + 1 < len(ordered)
                else self.arch.compute.instances
            )
            this_instances = self.arch.level(level).instances
            if this_instances % parent_instances != 0:
                static_ok = False
            available = below_instances // this_instances
            slots = [
                (dim, index)
                for dim in self.einsum.dims
                for index, (kind, slot_level) in enumerate(
                    self._dim_slot_names(dim)
                )
                if kind == "s" and slot_level == level
            ]
            if slots:
                spatial_checks.append((available, slots))
            elif available < 1:
                # A draw puts no spatial factor here, so its fanout is
                # exactly 1 — which still needs one child instance.
                static_ok = False
        return static_ok, spatial_checks

    def mapspace_size_estimate(self) -> int:
        """Upper bound on the factorization space (permutations excluded).

        Computed in closed form per dimension (stars-and-bars over the
        prime exponents) — no enumeration, so it is cheap even for huge
        mapspaces.
        """
        total = 1
        for dim in self.einsum.dims:
            slots = len(self._dim_slot_names(dim))
            bound = self.einsum.dims[dim]
            total *= factorization_count(bound, slots)
        return total
