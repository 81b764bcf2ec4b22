"""Extended Einsum workload algorithms.

An Einsum (Sec 5.1) names iteration-space dimensions with bounds and
declares tensors whose ranks project onto those dimensions. Projections
are affine sums like conv's ``h = p + r`` (optionally strided), which is
all that is needed for matrix multiplication, convolution, and the
other kernels the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SpecError
from repro.common.util import prod


@dataclass(frozen=True)
class ProjectionTerm:
    """One ``coefficient * dimension`` term of a rank projection."""

    dim: str
    coefficient: int = 1

    def __post_init__(self) -> None:
        if self.coefficient <= 0:
            raise SpecError(
                f"projection coefficient must be positive, got {self.coefficient}"
            )


@dataclass(frozen=True)
class RankProjection:
    """A tensor rank as an affine sum of iteration dimensions.

    The rank coordinate is ``sum(coeff_i * dim_i)``; e.g. a conv input
    row is ``stride * p + r``.
    """

    name: str
    terms: tuple[ProjectionTerm, ...]

    @property
    def dims(self) -> tuple[str, ...]:
        return tuple(t.dim for t in self.terms)

    def extent(self, dim_extents: dict[str, int]) -> int:
        """Rank extent when each dimension spans ``dim_extents[dim]``.

        For an affine sum, the number of distinct coordinates touched is
        ``sum(coeff * (extent - 1)) + 1`` (e.g. P-point output tile with
        R-point filter tile touches ``P + R - 1`` input rows).
        """
        span = 0
        for term in self.terms:
            span += term.coefficient * (dim_extents[term.dim] - 1)
        return span + 1


@dataclass(frozen=True)
class TensorRef:
    """A tensor participating in an Einsum.

    ``ranks`` run from the outermost rank to the innermost; each has a
    projection onto iteration dimensions. ``is_output`` marks the tensor
    populated (and reduced into) by the computation.
    """

    name: str
    ranks: tuple[RankProjection, ...]
    is_output: bool = False

    @property
    def rank_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.ranks)

    @property
    def dims(self) -> frozenset[str]:
        """All iteration dimensions this tensor depends on."""
        return frozenset(d for r in self.ranks for d in r.dims)

    def tile_size(self, dim_extents: dict[str, int]) -> int:
        """Number of data elements covered by per-dimension tile extents."""
        return prod(r.extent(dim_extents) for r in self.ranks)

    def tile_rank_extents(self, dim_extents: dict[str, int]) -> tuple[int, ...]:
        """Per-rank extents (outer..inner) for the given dim extents."""
        return tuple(r.extent(dim_extents) for r in self.ranks)


@dataclass
class EinsumSpec:
    """A complete tensor-algebra kernel specification.

    Example (matrix multiplication ``Z[m,n] = sum_k A[m,k] * B[k,n]``)::

        spec = matmul(m=16, k=32, n=8)
    """

    name: str
    dims: dict[str, int]
    tensors: list[TensorRef] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.dims:
            raise SpecError(f"einsum {self.name!r} declares no dimensions")
        for dim, bound in self.dims.items():
            if bound <= 0:
                raise SpecError(f"dimension {dim!r} has bound {bound}")
        outputs = [t for t in self.tensors if t.is_output]
        if len(outputs) != 1:
            raise SpecError(
                f"einsum {self.name!r} must have exactly one output tensor, "
                f"found {len(outputs)}"
            )
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate tensor names in einsum {self.name!r}")
        for tensor in self.tensors:
            for rank in tensor.ranks:
                for term in rank.terms:
                    if term.dim not in self.dims:
                        raise SpecError(
                            f"tensor {tensor.name!r} projects rank "
                            f"{rank.name!r} onto unknown dim {term.dim!r}"
                        )

    def cache_key(self) -> tuple:
        """Canonical content key of primitives: dims in declaration
        order, then each tensor as nested ``(name, ((rank name,
        ((dim, coefficient), ...)), ...), is_output)`` tuples. Einsums
        with equal keys have identical iteration spaces and projections.
        The engine memoises the key's digest; einsums are frozen by
        contract once evaluated."""
        return (
            tuple(self.dims.items()),
            tuple(
                (
                    t.name,
                    tuple(
                        (r.name, tuple((x.dim, x.coefficient) for x in r.terms))
                        for r in t.ranks
                    ),
                    t.is_output,
                )
                for t in self.tensors
            ),
        )

    @property
    def output(self) -> TensorRef:
        # Memoised: einsums are frozen by contract once evaluated, and
        # the modeling walks ask for the output tensor once or more per
        # candidate mapping.
        memo = getattr(self, "_output", None)
        if memo is None:
            memo = next(t for t in self.tensors if t.is_output)
            self._output = memo
        return memo

    @property
    def inputs(self) -> list[TensorRef]:
        memo = getattr(self, "_inputs", None)
        if memo is None:
            memo = [t for t in self.tensors if not t.is_output]
            self._inputs = memo
        return memo

    def tensor(self, name: str) -> TensorRef:
        by_name = getattr(self, "_tensors_by_name", None)
        if by_name is None:
            by_name = {t.name: t for t in self.tensors}
            self._tensors_by_name = by_name
        try:
            return by_name[name]
        except KeyError:
            raise SpecError(
                f"unknown tensor {name!r} in einsum {self.name!r}"
            ) from None

    @property
    def total_operations(self) -> int:
        """Dense compute count = the full iteration space volume."""
        return prod(self.dims.values())

    def tensor_size(self, name: str) -> int:
        """Dense element count of a tensor at full dimension bounds."""
        return self.tensor(name).tile_size(dict(self.dims))

    def tensor_shape(self, name: str) -> tuple[int, ...]:
        """Dense per-rank shape (outer..inner) at full dimension bounds."""
        return self.tensor(name).tile_rank_extents(dict(self.dims))

    @property
    def reduction_dims(self) -> frozenset[str]:
        """Dimensions reduced away (absent from the output tensor)."""
        memo = getattr(self, "_reduction_dims", None)
        if memo is None:
            memo = frozenset(self.dims) - self.output.dims
            self._reduction_dims = memo
        return memo


def _simple_rank(name: str, dim: str) -> RankProjection:
    return RankProjection(name, (ProjectionTerm(dim),))


def einsum_to_dict(spec: EinsumSpec) -> dict:
    """Explicit serialized form of an einsum (dims + tensor rank
    projections), the inverse of :func:`einsum_from_dict`.

    Unlike the kernel shorthand (``matmul``/``conv2d`` factories), this
    form can express any affine-projection einsum, so it is what
    :class:`~repro.workload.graph.EinsumGraph` envelopes and the YAML
    ``einsums:`` section carry.
    """
    return {
        "name": spec.name,
        "dims": dict(spec.dims),
        "tensors": [
            {
                "name": tensor.name,
                "output": tensor.is_output,
                "ranks": [
                    {
                        "name": rank.name,
                        "terms": [
                            {"dim": term.dim, "coefficient": term.coefficient}
                            for term in rank.terms
                        ],
                    }
                    for rank in tensor.ranks
                ],
            }
            for tensor in spec.tensors
        ],
    }


def einsum_from_dict(data: dict) -> EinsumSpec:
    """Rebuild an einsum from :func:`einsum_to_dict` output.

    Construction re-runs every :class:`EinsumSpec` consistency check
    (exactly one output, unique tensor names, projections onto known
    dims), so malformed serialized specs raise :class:`SpecError` here
    — at load time — rather than deep inside nest analysis.
    """
    if not isinstance(data, dict):
        raise SpecError(
            f"serialized einsum must be a dict, got {type(data).__name__}"
        )
    try:
        tensors = [
            TensorRef(
                name=entry["name"],
                ranks=tuple(
                    RankProjection(
                        name=rank["name"],
                        terms=tuple(
                            ProjectionTerm(
                                dim=term["dim"],
                                coefficient=int(term.get("coefficient", 1)),
                            )
                            for term in rank["terms"]
                        ),
                    )
                    for rank in entry["ranks"]
                ),
                is_output=bool(entry.get("output", False)),
            )
            for entry in data["tensors"]
        ]
        return EinsumSpec(
            name=data["name"],
            dims={dim: int(bound) for dim, bound in data["dims"].items()},
            tensors=tensors,
        )
    except SpecError:
        raise
    except (KeyError, TypeError, AttributeError) as exc:
        raise SpecError(f"malformed serialized einsum: {exc!r}") from exc


def matmul(m: int, k: int, n: int, name: str = "matmul") -> EinsumSpec:
    """``Z[m, n] = sum_k A[m, k] * B[k, n]``."""
    a = TensorRef("A", (_simple_rank("M", "m"), _simple_rank("K", "k")))
    b = TensorRef("B", (_simple_rank("K", "k"), _simple_rank("N", "n")))
    z = TensorRef(
        "Z", (_simple_rank("M", "m"), _simple_rank("N", "n")), is_output=True
    )
    return EinsumSpec(name, {"m": m, "k": k, "n": n}, [a, b, z])


def conv2d(
    n: int,
    k: int,
    c: int,
    p: int,
    q: int,
    r: int,
    s: int,
    stride: int = 1,
    name: str = "conv2d",
) -> EinsumSpec:
    """2D convolution as a 7-dim Einsum.

    ``O[n,k,p,q] = sum_{c,r,s} I[n,c,stride*p+r,stride*q+s] * W[k,c,r,s]``
    """
    weights = TensorRef(
        "W",
        (
            _simple_rank("K", "k"),
            _simple_rank("C", "c"),
            _simple_rank("R", "r"),
            _simple_rank("S", "s"),
        ),
    )
    inputs = TensorRef(
        "I",
        (
            _simple_rank("N", "n"),
            _simple_rank("C", "c"),
            RankProjection(
                "H", (ProjectionTerm("p", stride), ProjectionTerm("r"))
            ),
            RankProjection(
                "Wd", (ProjectionTerm("q", stride), ProjectionTerm("s"))
            ),
        ),
    )
    outputs = TensorRef(
        "O",
        (
            _simple_rank("N", "n"),
            _simple_rank("K", "k"),
            _simple_rank("P", "p"),
            _simple_rank("Q", "q"),
        ),
        is_output=True,
    )
    dims = {"n": n, "k": k, "c": c, "p": p, "q": q, "r": r, "s": s}
    return EinsumSpec(name, dims, [weights, inputs, outputs])


def depthwise_conv2d(
    n: int,
    c: int,
    p: int,
    q: int,
    r: int,
    s: int,
    stride: int = 1,
    name: str = "dwconv2d",
) -> EinsumSpec:
    """Depthwise convolution: one filter per channel, no reduction over c."""
    weights = TensorRef(
        "W",
        (
            _simple_rank("C", "c"),
            _simple_rank("R", "r"),
            _simple_rank("S", "s"),
        ),
    )
    inputs = TensorRef(
        "I",
        (
            _simple_rank("N", "n"),
            _simple_rank("C", "c"),
            RankProjection(
                "H", (ProjectionTerm("p", stride), ProjectionTerm("r"))
            ),
            RankProjection(
                "Wd", (ProjectionTerm("q", stride), ProjectionTerm("s"))
            ),
        ),
    )
    outputs = TensorRef(
        "O",
        (
            _simple_rank("N", "n"),
            _simple_rank("C", "c"),
            _simple_rank("P", "p"),
            _simple_rank("Q", "q"),
        ),
        is_output=True,
    )
    dims = {"n": n, "c": c, "p": p, "q": q, "r": r, "s": s}
    return EinsumSpec(name, dims, [weights, inputs, outputs])
