"""Genome operators for the evolutionary search strategy.

The genome of a mapping is exactly the mapper's per-dimension slot
factorization: for every problem dimension, a tuple of integer
factors over the dimension's slot layout (one temporal slot per
architecture level followed by one spatial slot per matching
spatial-dims constraint).  ``Mapper._build_mapping`` is the
genome→phenotype map, and it is invertible because a factor > 1 only
ever appears in the loop of its own slot — :func:`genome_of` walks a
built mapping back into slot space.

Operators:

* crossover — uniform per-dimension: each dimension's whole factor
  tuple comes from one parent.  Because both parents honour the
  ``fixed_factors`` pins, so does every child, by construction.
* mutation — redraw one dimension's tuple with the mapper's own
  constraint-honouring sampler (``_random_dim_factorization``), which
  keeps pinned slots fixed and redistributes only the free quotient.

Offspring are killed before evaluation by the mapper's structural
checks and accumulated overflow witnesses; killed offspring do not
consume search budget (the pruned mass is recycled into extra
population budget).  The sizing and breeding knobs are the module
constants below, listed in ``docs/search.md``.
"""

from __future__ import annotations

__all__ = [
    "POPULATION_FRACTION",
    "PARENT_FRACTION",
    "MUTATION_RATE",
    "TRIES_FACTOR",
    "population_size",
    "parent_count",
    "genome_of",
    "genome_key",
    "random_genome",
    "make_offspring",
]

#: Size of each generation as a fraction of the search budget.
POPULATION_FRACTION = 0.25
#: The truncation-selection cut: the fraction of scored individuals
#: that parent the next generation.
PARENT_FRACTION = 0.5
#: Per-dimension redraw probability applied after crossover.
MUTATION_RATE = 0.3
#: Structurally invalid or duplicate proposals the offspring loop
#: discards per requested child before giving up (the termination
#: guard for exhausted genome neighbourhoods).
TRIES_FACTOR = 50


def population_size(budget: int) -> int:
    """Individuals per generation (at least 2, at most ``budget``)."""
    return max(2, min(budget, round(budget * POPULATION_FRACTION)))


def parent_count(population: int) -> int:
    """Parents kept per generation (at least 2)."""
    return max(2, int(population * PARENT_FRACTION))


def genome_of(mapper, mapping) -> dict:
    """Invert a built mapping into its per-dimension slot combos."""

    temporal = {}
    spatial = {}
    for level in mapping.levels:
        temporal[level.level] = {loop.dim: loop.bound for loop in level.temporal}
        spatial[level.level] = {loop.dim: loop.bound for loop in level.spatial}
    genome = {}
    for dim in mapper.einsum.dims:
        combo = []
        for kind, level in mapper._dim_slot_names(dim):
            table = temporal if kind == "t" else spatial
            combo.append(table.get(level, {}).get(dim, 1))
        genome[dim] = tuple(combo)
    return genome


def genome_key(genome, dims) -> tuple:
    """Hashable identity of a genome (dims in canonical order)."""

    return tuple(genome[dim] for dim in dims)


def random_genome(mapper, rng) -> dict:
    """A fresh constraint-honouring genome (diversity injection)."""

    return {
        dim: mapper._random_dim_factorization(dim, rng)
        for dim in mapper.einsum.dims
    }


def make_offspring(mapper, parents, rng, count, seen) -> list:
    """Breed up to ``count`` novel, structurally valid genomes.

    ``parents`` is an ordered list (best first); ``seen`` is the
    all-time set of genome keys and is updated in place so no genome
    is ever proposed twice.  With fewer than two parents the loop
    falls back to fresh random genomes.  Deterministic for a given
    ``rng`` state.
    """

    dims = list(mapper.einsum.dims)
    out = []
    tries = max(1, count) * TRIES_FACTOR
    while len(out) < count and tries > 0:
        tries -= 1
        if len(parents) >= 2:
            mother, father = rng.sample(parents, 2)
            child = {
                dim: (mother if rng.random() < 0.5 else father)[dim]
                for dim in dims
            }
            for dim in dims:
                if rng.random() < MUTATION_RATE:
                    child[dim] = mapper._random_dim_factorization(dim, rng)
        else:
            child = random_genome(mapper, rng)
        key = genome_key(child, dims)
        if key in seen:
            continue
        if not mapper._combo_structurally_valid(child):
            continue
        seen.add(key)
        out.append(child)
    return out
