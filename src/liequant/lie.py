"""Lie algebras, Lie coalgebras and Lie bialgebras by structure constants.

Defect operations return the exact tensor by which an axiom fails; an axiom
holds iff its defect tensor is identically zero.  Constructors only enforce
structural normalization (antisymmetry is rebuilt from ``i < j`` entries), so
deliberately broken tables can be fed to the defect operations.
"""

from __future__ import annotations

from typing import Mapping

from .errors import MathDefectError
from .tensors import BasedSpace, LinearMap, QLike, Scalar, Tensor, cyclic_sum3, q

Vec = dict[int, Scalar]

BracketTable = Mapping[tuple[int, int], Mapping[int, QLike]]
CobracketTable = Mapping[int, Mapping[tuple[int, int], QLike]]


class LieAlgebra:
    """Bracket by structure constants ``[x_i, x_j] = sum_k c[i][j][k] x_k``.

    Input gives only ``i < j`` entries; antisymmetry fills in the rest.
    Validity (Jacobi) is *not* assumed: see :func:`jacobi_defect`.
    """

    def __init__(self, space: BasedSpace, brackets: BracketTable):
        self.space = space
        n = space.dim
        table: dict[tuple[int, int], Vec] = {}
        for (i, j), entry in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < {n}")
            vec = {int(k): q(v) for k, v in entry.items() if q(v)}
            for k in vec:
                if not 0 <= k < n:
                    raise ValueError(f"bracket target index {k} out of range")
            if vec:
                table[(i, j)] = vec
        self._table = table

    @property
    def dim(self) -> int:
        return self.space.dim

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[x_i, x_j] as a sparse coordinate vector."""
        if i == j:
            return {}
        if i < j:
            return dict(self._table.get((i, j), {}))
        return {k: -v for k, v in self._table.get((j, i), {}).items()}

    def bracket_vec(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.bracket_basis(i, j).items():
                    acc = out.get(k, 0) + a * b * c
                    if acc:
                        out[k] = acc
                    else:
                        out.pop(k, None)
        return out

    def items_sorted(self):
        return sorted((key, sorted(vec.items())) for key, vec in self._table.items())

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.space == other.space and self.items_sorted() == other.items_sorted()


def jacobi_defect(lie: LieAlgebra) -> Tensor:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] on all basis triples.

    Slots of the result: (x, y, z, output).
    """
    a = lie.space
    out = Tensor.zero((a, a, a, a))
    n = a.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc: Vec = {}
                for (p, r, s) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = lie.bracket_basis(p, r)
                    for m, c in inner.items():
                        for t, d in lie.bracket_basis(m, s).items():
                            val = acc.get(t, 0) + c * d
                            if val:
                                acc[t] = val
                            else:
                                acc.pop(t, None)
                for t, val in acc.items():
                    out.data[(i, j, k, t)] = val
    return out


class LieBialgebra:
    """A Lie algebra with a cobracket given per basis vector.

    Cobracket input gives ``j < k`` entries of ``delta(x_i)``; the stored
    tensors are the antisymmetrized elements of the tensor square.
    """

    def __init__(self, lie: LieAlgebra, cobrackets: CobracketTable | None = None,
                 cobracket_tensors: list[Tensor] | None = None):
        self.lie = lie
        a = lie.space
        if cobracket_tensors is not None:
            if len(cobracket_tensors) != a.dim:
                raise ValueError("need one cobracket tensor per basis vector")
            for t in cobracket_tensors:
                if t.spaces != (a, a):
                    raise ValueError("cobracket tensors must live in the tensor square")
                if not (t + t.swap()).is_zero():
                    raise ValueError("cobracket tensors must be antisymmetric")
            self._cobr = list(cobracket_tensors)
        else:
            self._cobr = [Tensor.zero((a, a)) for _ in range(a.dim)]
            for i, entry in (cobrackets or {}).items():
                t = Tensor.zero((a, a))
                for (j, k), v in entry.items():
                    if not (0 <= j < k < a.dim):
                        raise ValueError(f"cobracket key ({j},{k}) must satisfy j < k")
                    v = q(v)
                    if v:
                        t.data[(j, k)] = v
                        t.data[(k, j)] = -v
                self._cobr[int(i)] = t

    @property
    def space(self) -> BasedSpace:
        return self.lie.space

    @property
    def dim(self) -> int:
        return self.lie.dim

    def cobracket_basis(self, i: int) -> Tensor:
        return self._cobr[i]

    def cobracket_tables(self) -> list[Tensor]:
        return list(self._cobr)

    def __eq__(self, other):
        if not isinstance(other, LieBialgebra):
            return NotImplemented
        return self.lie == other.lie and self._cobr == other._cobr

    def assert_valid(self):
        for name, defect in (
            ("jacobi", jacobi_defect(self.lie)),
            ("co-jacobi", cojacobi_defect(self)),
            ("cocycle", cocycle_defect(self)),
        ):
            if not defect.is_zero():
                raise MathDefectError(f"{name} defect is nonzero", defect)


def ad2(lie: LieAlgebra, i: int, t: Tensor) -> Tensor:
    """ad_x ⊗ id + id ⊗ ad_x applied to an arity-2 tensor, x = basis vector i."""
    a = lie.space
    out = Tensor.zero((a, a))
    for (p, r), v in t.data.items():
        for m, c in lie.bracket_basis(i, p).items():
            out.data[(m, r)] = out.data.get((m, r), 0) + v * c
        for m, c in lie.bracket_basis(i, r).items():
            out.data[(p, m)] = out.data.get((p, m), 0) + v * c
    out.data = {k: v for k, v in out.data.items() if v}
    return out


def hom_defect(m: LinearMap, src: LieAlgebra, dst: LieAlgebra) -> dict[tuple[int, int], Vec]:
    """m[x_i, x_j] - [m x_i, m x_j] on the basis pairs i < j of ``src``.

    Only nonzero defects are returned, so ``m`` is a Lie-algebra
    homomorphism iff the result is empty.
    """
    out = {}
    for i in range(src.dim):
        for j in range(i + 1, src.dim):
            diff = m.apply_vec(src.bracket_basis(i, j))
            for k, v in dst.bracket_vec(m.column(i), m.column(j)).items():
                acc = diff.get(k, 0) - v
                if acc:
                    diff[k] = acc
                else:
                    diff.pop(k, None)
            if diff:
                out[(i, j)] = diff
    return out


def cojacobi_defect(bialg: LieBialgebra) -> Tensor:
    """Cyclic sum of (delta ⊗ id) ∘ delta per basis vector.

    Slots of the result: (input, o1, o2, o3).
    """
    a = bialg.space
    out = Tensor.zero((a, a, a, a))
    for i in range(a.dim):
        acc = Tensor.zero((a, a, a))
        for (p, r), v in bialg.cobracket_basis(i).data.items():
            for (s, t), w in bialg.cobracket_basis(p).data.items():
                acc.data[(s, t, r)] = acc.data.get((s, t, r), 0) + v * w
        acc.data = {k: v for k, v in acc.data.items() if v}
        for key, v in cyclic_sum3(acc).data.items():
            out.data[(i,) + key] = v
    return out


def cocycle_defect(bialg: LieBialgebra) -> Tensor:
    """delta([x,y]) - ad2_x(delta y) + ad2_y(delta x) on basis pairs.

    Slots of the result: (x, y, o1, o2).
    """
    a = bialg.space
    lie = bialg.lie
    out = Tensor.zero((a, a, a, a))
    for i in range(a.dim):
        for j in range(a.dim):
            acc = Tensor.zero((a, a))
            for k, c in lie.bracket_basis(i, j).items():
                acc = acc + c * bialg.cobracket_basis(k)
            acc = acc - ad2(lie, i, bialg.cobracket_basis(j)) + ad2(lie, j, bialg.cobracket_basis(i))
            for key, v in acc.data.items():
                out.data[(i, j) + key] = v
    return out


def cybe_defect(lie: LieAlgebra, r: Tensor) -> Tensor:
    """[r12, r13] + [r12, r23] + [r13, r23] in the tensor cube."""
    a = lie.space
    if r.spaces != (a, a):
        raise ValueError("r must live in the tensor square of the algebra")
    out = Tensor.zero((a, a, a))

    def add(key, coeff):
        acc = out.data.get(key, 0) + coeff
        if acc:
            out.data[key] = acc
        else:
            out.data.pop(key, None)

    items = list(r.data.items())
    for (a1, b1), v1 in items:
        for (a2, b2), v2 in items:
            for m, c in lie.bracket_basis(a1, a2).items():
                add((m, b1, b2), v1 * v2 * c)          # [r12, r13]
            for m, c in lie.bracket_basis(b1, a2).items():
                add((a1, m, b2), v1 * v2 * c)          # [r12, r23]
            for m, c in lie.bracket_basis(b1, b2).items():
                add((a1, a2, m), v1 * v2 * c)          # [r13, r23]
    return out


def invariance_defect(lie: LieAlgebra, t: Tensor) -> Tensor:
    """ad2_x(t) for each basis x; slots (x, o1, o2)."""
    a = lie.space
    out = Tensor.zero((a, a, a))
    for i in range(a.dim):
        for key, v in ad2(lie, i, t).data.items():
            out.data[(i,) + key] = v
    return out


def coboundary_cobracket(lie: LieAlgebra, r: Tensor) -> list[Tensor]:
    """delta(x) := [r, x⊗1 + 1⊗x] = -ad2_x(r) per basis vector."""
    return [-ad2(lie, i, r) for i in range(lie.dim)]


class QuasitriangularData:
    """A Lie algebra with a classical r-matrix; ``t = r + r^21`` is derived."""

    def __init__(self, lie: LieAlgebra, r: Tensor):
        if r.spaces != (lie.space, lie.space):
            raise ValueError("r must live in the tensor square")
        self.lie = lie
        self.r = r

    @property
    def t(self) -> Tensor:
        return self.r + self.r.swap()

    def assert_valid(self):
        defect = cybe_defect(self.lie, self.r)
        if not defect.is_zero():
            raise MathDefectError("classical Yang-Baxter defect is nonzero", defect)
        defect = invariance_defect(self.lie, self.t)
        if not defect.is_zero():
            raise MathDefectError("symmetric part of r is not invariant", defect)

    def bialgebra(self) -> LieBialgebra:
        return LieBialgebra(self.lie, cobracket_tensors=coboundary_cobracket(self.lie, self.r))
