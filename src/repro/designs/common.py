"""Shared helpers for building design mapping factories."""

from __future__ import annotations

from repro.common.util import divisors
from repro.model.engine import einsum_only
from repro.workload.einsum import EinsumSpec
from repro.workload.nets import NetLayer
from repro.workload.einsum import matmul


def split_factor(bound: int, inner_target: int) -> tuple[int, int]:
    """Split ``bound`` into (outer, inner) with inner <= target.

    Picks the largest divisor of ``bound`` not exceeding
    ``inner_target`` so loop bounds always multiply back exactly.
    """
    if inner_target <= 1:
        return bound, 1
    inner = 1
    for d in divisors(bound):
        if d <= inner_target:
            inner = d
    return bound // inner, inner


def conv_as_gemm(layer: NetLayer) -> EinsumSpec:
    """Lower a conv layer to the GEMM its im2col form computes.

    Tensor-core style designs (STC, DSTC) consume matrix
    multiplications: M = output channels, K = C*R*S, N = N*P*Q.
    Non-conv (matmul) layers pass through.
    """
    spec = layer.spec
    if set(spec.dims) == {"m", "k", "n"}:
        return spec
    d = spec.dims
    m = d.get("k", 1)
    k = d.get("c", 1) * d.get("r", 1) * d.get("s", 1)
    n = d.get("n", 1) * d.get("p", 1) * d.get("q", 1)
    return matmul(m, k, n, name=f"{spec.name}_gemm")


@einsum_only("common.generic_einsum")
def generic_einsum_mapping(workload, arch):
    """Shape-agnostic schedule for arbitrary einsums.

    A small inner tile per dimension at the innermost storage level,
    the remainder outermost, every tensor kept at every level (no
    ``keep`` restriction). Used where a mapping must exist for einsums
    whose dimension names no kernel-specific factory recognises —
    notably the einsum-graph (fused) paths, whose cascade einsums
    (attention's ``h``/``p`` dims) fit no conv or matmul template.
    """
    from repro.mapping.mapping import LevelMapping, Loop, Mapping

    names = arch.level_names  # outermost first
    inner, outer = [], []
    for dim, bound in workload.einsum.dims.items():
        rest, inner_f = split_factor(bound, 16)
        if inner_f > 1:
            inner.append(Loop(dim, inner_f))
        if rest > 1:
            outer.append(Loop(dim, rest))
    if len(names) == 1:
        return Mapping([LevelMapping(names[0], outer + inner)])
    levels = [LevelMapping(names[0], outer)]
    for extra in names[1:-1]:
        levels.append(LevelMapping(extra, []))
    levels.append(LevelMapping(names[-1], inner))
    return Mapping(levels)


def generic_matmul_mapping(workload, arch):
    """Conservative matmul schedule for DNN designs' FC/attention layers.

    Conv-oriented mapping factories delegate here when handed a plain
    matmul (fully-connected or BERT layers): small inner tiles that fit
    any of the modeled register files, larger middle tiles, remainder
    outermost.
    """
    from repro.mapping.mapping import LevelMapping, Loop, Mapping

    dims = workload.einsum.dims
    m_rest, m0 = split_factor(dims["m"], 16)
    n_rest, n0 = split_factor(dims["n"], 16)
    k_rest, k0 = split_factor(dims["k"], 64)
    m1, m2 = split_factor(m_rest, 16)
    n1, n2 = split_factor(n_rest, 16)
    k1, k2 = split_factor(k_rest, 8)

    names = arch.level_names  # outermost first
    inner = [Loop("k", k0)]
    middle = [Loop("m", m0), Loop("n", n0), Loop("k", k2)]
    outer = [
        Loop("m", m1),
        Loop("n", n1),
        Loop("k", k1),
        Loop("m", m2),
        Loop("n", n2),
    ]

    def prune(loops):
        return [l for l in loops if l.bound > 1]

    if len(names) == 2:
        return Mapping(
            [
                LevelMapping(names[0], prune(outer + middle[2:3])),
                LevelMapping(
                    names[1], prune(middle[:2] + inner)
                ),
            ]
        )
    levels = [LevelMapping(names[0], prune(outer))]
    levels.append(LevelMapping(names[1], prune(middle)))
    levels.append(LevelMapping(names[2], prune(inner)))
    for extra in names[3:]:
        levels.append(LevelMapping(extra, []))
    return Mapping(levels)
