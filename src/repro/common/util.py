"""Small numeric helpers used across the library.

The combinatorial helpers (:func:`divisors`, :func:`factorizations`,
:func:`factorization_count`) are memoised: the mapper asks for the same
decompositions for every candidate mapping of a workload, which made
them a measurable share of mapspace-search time.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

from repro.common.errors import SpecError


def prod(values: Iterable[float]) -> float:
    """Product of an iterable; 1 for an empty iterable.

    Unlike :func:`math.prod`, keeps integer inputs integral but accepts
    floats as well (tile densities, scaling factors).
    """
    result = 1
    for value in values:
        result = result * value
    return result


def spec_int(name: str, value) -> int:
    """``value`` as an ``int``: a non-bool integral (numpy integers
    pass), so equal specs share one content key; anything else is a
    :class:`~repro.common.errors.SpecError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division; ``denominator`` must be positive."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive range [low, high]."""
    if low > high:
        raise ValueError(f"empty clamp range [{low}, {high}]")
    return max(low, min(high, value))


@lru_cache(maxsize=65536)
def cached_divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of ``n`` in ascending order (memoised)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    small, large = [], []
    limit = int(math.isqrt(n))
    for candidate in range(1, limit + 1):
        if n % candidate == 0:
            small.append(candidate)
            if candidate != n // candidate:
                large.append(n // candidate)
    return tuple(small + large[::-1])


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n`` in ascending order.

    Returns a fresh list per call; use :func:`cached_divisors` in hot
    loops that only read.
    """
    return list(cached_divisors(n))


@lru_cache(maxsize=4096)
def cached_factorizations(n: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Every ordered tuple of ``parts`` positive ints with product ``n``.

    Memoised by ``(n, parts)``; the recursion reuses sub-results for
    the quotients, so enumerating a whole mapspace touches each
    ``(quotient, remaining_parts)`` pair once.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if parts == 1:
        return ((n,),)
    combos = []
    for first in cached_divisors(n):
        for rest in cached_factorizations(n // first, parts - 1):
            combos.append((first, *rest))
    return tuple(combos)


#: Result sets larger than this stream from the recursive generator
#: instead of being pinned in the cache (entry *size* is what matters,
#: not entry count).
_FACTORIZATION_CACHE_LIMIT = 65536


def factorizations(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield every ordered tuple of ``parts`` positive ints whose product is ``n``.

    Used by the mapper to enumerate per-level tiling factors. Small
    result sets are served from the memo; combinatorial blow-ups are
    streamed without caching so one huge query cannot pin hundreds of
    megabytes for the process lifetime.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if factorization_count(n, parts) <= _FACTORIZATION_CACHE_LIMIT:
        yield from cached_factorizations(n, parts)
        return
    yield from _stream_factorizations(n, parts)


def _stream_factorizations(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (n,)
        return
    for first in cached_divisors(n):
        for rest in _stream_factorizations(n // first, parts - 1):
            yield (first, *rest)


@lru_cache(maxsize=65536)
def _prime_exponents(n: int) -> tuple[int, ...]:
    """Exponents of the prime factorization of ``n`` (order-free)."""
    exps = []
    factor = 2
    while factor * factor <= n:
        if n % factor == 0:
            e = 0
            while n % factor == 0:
                n //= factor
                e += 1
            exps.append(e)
        factor += 1 if factor == 2 else 2
    if n > 1:
        exps.append(1)
    return tuple(exps)


def factorization_count(n: int, parts: int) -> int:
    """Number of ordered ``parts``-tuples with product ``n``, in closed
    form: ``prod_i C(e_i + parts - 1, parts - 1)`` over the prime
    exponents ``e_i`` of ``n`` — no enumeration needed.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    count = 1
    for e in _prime_exponents(n):
        count *= math.comb(e + parts - 1, parts - 1)
    return count


def bits_to_words(bits: float, word_bits: int) -> float:
    """Convert a bit count to (fractional) words of ``word_bits`` each."""
    if word_bits <= 0:
        raise ValueError(f"word_bits must be positive, got {word_bits}")
    return bits / word_bits


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))
