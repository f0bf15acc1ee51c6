"""Classical twists: verification, twisting, composition, double transport."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, MathDefectError
from .lie import LieBialgebra, ad2, drinfeld_double, hom_defect
from .linsolve import Certificate, LinSystem, lin_solve
from .tensors import LinearMap, Scalar, Tensor, cyclic_sum3


def twist_defect(bialg: LieBialgebra, f: Tensor) -> Tensor:
    """Cyclic sum of (delta ⊗ id)(f) + [f13, f23]; zero iff f is a twist."""
    a = bialg.space
    if f.spaces != (a, a):
        raise ValueError("f must live in the tensor square")
    if not (f + f.swap()).is_zero():
        raise MathDefectError("twist candidate is not antisymmetric", f + f.swap())
    lie = bialg.lie
    acc = Tensor.zero((a, a, a))

    def add(key, value):
        val = acc.data.get(key, 0) + value
        if val:
            acc.data[key] = val
        else:
            acc.data.pop(key, None)

    for (p, r), v in f.data.items():
        for (s, t), w in bialg.cobracket_basis(p).data.items():
            add((s, t, r), v * w)
    items = list(f.data.items())
    for (a1, b1), v1 in items:
        for (a2, b2), v2 in items:
            # [f13, f23] = sum f' ⊗ f' ⊗ [f'', f'']
            for m, c in lie.bracket_basis(b1, b2).items():
                add((a1, a2, m), v1 * v2 * c)
    return cyclic_sum3(acc)


@dataclass(frozen=True)
class Twist:
    bialgebra: LieBialgebra
    f: Tensor

    @classmethod
    def checked(cls, bialg: LieBialgebra, f: Tensor) -> "Twist":
        defect = twist_defect(bialg, f)
        if not defect.is_zero():
            raise MathDefectError("twist defect is nonzero", defect)
        return cls(bialg, f)


def twist(bialg: LieBialgebra, f: Tensor, check: bool = True) -> LieBialgebra:
    """The twisted bialgebra (same bracket, cobracket shifted by ad(f))."""
    if check:
        defect = twist_defect(bialg, f)
        if not defect.is_zero():
            raise MathDefectError("twist defect is nonzero", defect)
    lie = bialg.lie
    tables = []
    for i in range(bialg.dim):
        # ad(f)(x) = [f, x⊗1 + 1⊗x] = -ad2_x(f)
        tables.append(bialg.cobracket_basis(i) - ad2(lie, i, f))
    return LieBialgebra(lie, cobracket_tensors=tables)


@dataclass(frozen=True)
class TwistPair:
    bialgebra: LieBialgebra
    f: Tensor
    f_prime: Tensor

    @property
    def twisted(self) -> LieBialgebra:
        return twist(self.bialgebra, self.f, check=False)

    @property
    def total(self) -> Tensor:
        return self.f + self.f_prime


def compose_twists(bialg: LieBialgebra, f: Tensor, f_prime: Tensor) -> TwistPair:
    """Check that f' twists the f-twisted bialgebra; then f + f' twists the
    original (re-verified as a free soundness check of the implementation).
    """
    defect = twist_defect(bialg, f)
    if not defect.is_zero():
        raise MathDefectError("f is not a twist of the base bialgebra", defect)
    twisted = twist(bialg, f, check=False)
    defect = twist_defect(twisted, f_prime)
    if not defect.is_zero():
        raise MathDefectError("f' is not a twist of the twisted bialgebra", defect)
    defect = twist_defect(bialg, f + f_prime)
    if not defect.is_zero():
        raise InternalCheckError("f + f' failed the composition-closure identity")
    return TwistPair(bialg, f, f_prime)


def double_twist_iso(bialg: LieBialgebra, f: Tensor) -> LinearMap:
    """Invertible map from the double of the bialgebra to the double of its
    f-twist: identity on a, and xi ↦ xi + (f-contraction of xi) on a*.

    The a*→a block is solved from: bracket intertwining on the mixed pairs,
    preservation of the canonical pairing, and transport of the canonical
    element (both orientations of the f-block are tried deterministically,
    first consistent one wins).  The result is then verified to intertwine
    the brackets exactly on *all* basis pairs, including the dual-dual pairs
    that are quadratic in the block and therefore excluded from the solve.
    """
    defect = twist_defect(bialg, f)
    if not defect.is_zero():
        raise MathDefectError("twist defect is nonzero", defect)
    d_src = drinfeld_double(bialg)
    d_dst = drinfeld_double(twist(bialg, f, check=False))
    n = bialg.dim
    dim = 2 * n

    def var(a_comp: int, j: int) -> int:
        # unknown A[a_comp][j]: x_{a_comp}-component of the image of xi_j
        return a_comp * n + j

    def build(sign: int) -> LinearMap | None:
        system = LinSystem(nvars=n * n)
        # canonical element transport: sum_i x_i ⊗ A(xi_i) = sign * f
        for a_comp in range(n):
            for i in range(n):
                system.add_row({var(a_comp, i): 1},
                               sign * f.coeff((i, a_comp)))
        # pairing preservation forces the block to be antisymmetric
        for i in range(n):
            for j in range(i, n):
                system.add_row({var(i, j): 1, var(j, i): 1}, 0)
        # bracket intertwining on mixed pairs (x_i, xi_j); linear in the block
        for i in range(n):
            for j in range(n):
                src = d_src.lie.bracket_basis(i, n + j)
                dst = d_dst.lie.bracket_basis(i, n + j)
                rows: dict[int, dict[int, Scalar]] = {}
                rhs: dict[int, Scalar] = {}

                def bump(comp, col, val):
                    if val:
                        row = rows.setdefault(comp, {})
                        row[col] = row.get(col, 0) + val

                for comp in set(src) | set(dst):
                    rhs[comp] = dst.get(comp, 0) - src.get(comp, 0)
                # lhs unknown terms: M of the xi-components of the source bracket
                for comp, v_src in src.items():
                    if comp >= n:
                        for a_comp in range(n):
                            bump(a_comp, var(a_comp, comp - n), v_src)
                # rhs unknown terms: [x_i, A(xi_j)] in the twisted double
                for a_comp in range(n):
                    for comp, val in d_dst.lie.bracket_basis(i, a_comp).items():
                        bump(comp, var(a_comp, j), -val)
                for comp in sorted(set(rows) | {c for c, v in rhs.items() if v}):
                    system.add_row(rows.get(comp, {}), rhs.get(comp, 0))
        result = lin_solve(system)
        if isinstance(result, Certificate):
            return None
        mat = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for a_comp in range(n):
            for j in range(n):
                mat[a_comp][n + j] = result.values[var(a_comp, j)]
        return LinearMap(d_src.lie.space, d_dst.lie.space, mat)

    for sign in (1, -1):
        m = build(sign)
        if m is not None and not double_iso_defect(bialg, f, m):
            return m
    raise InternalCheckError("no orientation of the f-block intertwines the doubles")


def double_iso_defect(bialg: LieBialgebra, f: Tensor, m: LinearMap) -> dict:
    """Exact bracket-intertwining defect of a candidate map on all pairs."""
    d_src = drinfeld_double(bialg)
    d_dst = drinfeld_double(twist(bialg, f, check=False))
    return hom_defect(m, d_src.lie, d_dst.lie)
