"""Based vector spaces, sparse exact-rational tensors and linear maps.

Scalars follow one rule throughout the package: a coefficient is a plain
``int`` when it is integral and a ``fractions.Fraction`` only when its
denominator exceeds 1.  :func:`q` owns the rule, and every parser, literal
and division goes through it, so ``int`` products take the interpreter's
fast path while arithmetic stays exact.  Stored values are never zero, and
iteration over entries is in lexicographic key order so that reports and
serialized artifacts are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .sparse import El

Scalar = int | Fraction

QLike = Fraction | int | str


def q(value: QLike) -> Scalar:
    """Coerce an int, a ``Fraction`` or a ``"p/q"`` string to an exact
    scalar: the ``int`` numerator when integral, else a ``Fraction``."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"not an exact rational: {value!r}")
    return value.numerator if value.denominator == 1 else value


def qdiv(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient ``a / b`` (``/`` on two ints would give a float)."""
    return q(Fraction(a) / b)


def qstr(value: Scalar) -> str:
    """Serialize a rational as ``"p"`` or ``"p/q"``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class BasedSpace:
    """A finite-dimensional vector space with an ordered basis."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate basis labels in space {self.name!r}")
        if not self.labels:
            raise ValueError("a based space needs at least one basis vector")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __repr__(self):
        return f"BasedSpace({self.name!r}, dim={self.dim})"


class Tensor(El):
    """Sparse element of a tensor product of based spaces: an ``El`` keyed by
    index tuples (one index per slot) whose values are nonzero rationals.
    Arity 0 is allowed and represents a bare scalar (single key ``()``).
    """

    __slots__ = ("spaces",)

    def __init__(self, spaces: Iterable[BasedSpace], data: Mapping[tuple[int, ...], QLike] | None = None):
        self.spaces: tuple[BasedSpace, ...] = tuple(spaces)
        clean: dict[tuple[int, ...], Scalar] = {}
        if data:
            for key, value in data.items():
                key = tuple(key)
                if len(key) != len(self.spaces):
                    raise ValueError(f"key {key} has wrong arity for {len(self.spaces)} slots")
                for idx, space in zip(key, self.spaces):
                    if not 0 <= idx < space.dim:
                        raise ValueError(f"index {idx} out of range for space {space.name!r}")
                value = q(value)
                if value:
                    clean[key] = value
        self.data = clean

    @classmethod
    def zero(cls, spaces: Iterable[BasedSpace]) -> "Tensor":
        return cls(spaces, {})

    def _empty(self) -> "Tensor":
        return Tensor.zero(self.spaces)

    @property
    def arity(self) -> int:
        return len(self.spaces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.spaces == other.spaces and self.data == other.data

    def __hash__(self):
        return hash((self.spaces, frozenset(self.data.items())))

    def __repr__(self):
        if self.is_zero():
            return "Tensor(0)"
        parts = []
        for key, value in self.items_sorted()[:8]:
            mon = "⊗".join(self.spaces[i].labels[k] for i, k in enumerate(key)) or "1"
            parts.append(f"{qstr(value)}·{mon}")
        more = "" if len(self.data) <= 8 else f" (+{len(self.data) - 8} terms)"
        return "Tensor(" + " + ".join(parts) + more + ")"

    # -- tensor operations -----------------------------------------------------

    def permute(self, sigma: tuple[int, ...]) -> "Tensor":
        """Relabel slots: entry at ``key`` moves to position ``p`` with
        ``p[j] = key[sigma[j]]`` (``sigma`` is 0-based and must be a bijection).
        """
        k = self.arity
        if sorted(sigma) != list(range(k)):
            raise ValueError(f"not a permutation of {k} slots: {sigma}")
        out = Tensor.zero(tuple(self.spaces[s] for s in sigma))
        for key, value in self.data.items():
            out.data[tuple(key[s] for s in sigma)] = value
        return out

    def swap(self) -> "Tensor":
        if self.arity != 2:
            raise ValueError("swap needs arity 2")
        return self.permute((1, 0))


def cyclic_sum3(t: Tensor) -> Tensor:
    """Sum of ``t`` over the three cyclic slot rotations (arity 3 only)."""
    if t.arity != 3:
        raise ValueError("cyclic_sum3 needs arity 3")
    if len(set(t.spaces)) != 1:
        raise ValueError("cyclic_sum3 needs all slots over the same space")
    return t + t.permute((1, 2, 0)) + t.permute((2, 0, 1))


class LinearMap:
    """Dense exact matrix ``dst <- src`` in the column convention:
    the image of the j-th basis vector of ``src`` is ``sum_i rows[i][j] e_i``.
    """

    __slots__ = ("src", "dst", "rows")

    def __init__(self, src: BasedSpace, dst: BasedSpace, rows: Iterable[Iterable[QLike]]):
        self.src = src
        self.dst = dst
        self.rows: tuple[tuple[Scalar, ...], ...] = tuple(
            tuple(q(v) for v in row) for row in rows
        )
        if len(self.rows) != dst.dim or any(len(r) != src.dim for r in self.rows):
            raise ValueError("matrix shape does not match the spaces")

    @classmethod
    def identity(cls, space: BasedSpace) -> "LinearMap":
        n = space.dim
        return cls(space, space, [[int(i == j) for j in range(n)] for i in range(n)])

    def column(self, j: int) -> dict[int, Scalar]:
        return {i: self.rows[i][j] for i in range(self.dst.dim) if self.rows[i][j]}

    def apply_vec(self, vec: Mapping[int, Scalar]) -> dict[int, Scalar]:
        out: dict[int, Scalar] = {}
        for j, value in vec.items():
            for i, m in self.column(j).items():
                acc = out.get(i, 0) + m * value
                if acc:
                    out[i] = acc
                else:
                    out.pop(i, None)
        return out

    def apply_tensor(self, t: Tensor) -> Tensor:
        """Apply the map on every slot (all slots must live in ``src``)."""
        if any(space != self.src for space in t.spaces):
            raise ValueError("tensor slots do not match the map source")
        out = Tensor.zero(tuple(self.dst for _ in t.spaces))
        for key, value in t.data.items():
            partial: list[tuple[tuple[int, ...], Scalar]] = [((), value)]
            for j in key:
                col = self.column(j)
                partial = [
                    (prefix + (i,), coeff * m)
                    for prefix, coeff in partial
                    for i, m in col.items()
                ]
            for new_key, coeff in partial:
                out.add_term(new_key, coeff)
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self ∘ other."""
        if other.dst != self.src:
            raise ValueError("composition shape mismatch")
        n, m, p = self.dst.dim, self.src.dim, other.src.dim
        rows = [
            [sum(self.rows[i][k] * other.rows[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)
        ]
        return LinearMap(other.src, self.dst, rows)

    def inverse(self) -> "LinearMap":
        if self.src.dim != self.dst.dim:
            raise ValueError("only square maps can be inverted")
        n = self.src.dim
        aug = [list(self.rows[i]) + [int(i == j) for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col]), None)
            if piv is None:
                raise ValueError("singular matrix")
            aug[col], aug[piv] = aug[piv], aug[col]
            pivot = aug[col][col]
            aug[col] = [qdiv(v, pivot) for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        rows = [row[n:] for row in aug]
        return LinearMap(self.dst, self.src, rows)

    def is_identity(self) -> bool:
        return self.src == self.dst and all(
            self.rows[i][j] == (1 if i == j else 0)
            for i in range(self.dst.dim)
            for j in range(self.src.dim)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.src, self.dst, self.rows) == (other.src, other.dst, other.rows)

    def __hash__(self):
        return hash((self.src, self.dst, self.rows))

    def __repr__(self):
        return f"LinearMap({self.src.name!r}→{self.dst.name!r}, {self.rows})"
