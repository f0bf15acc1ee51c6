"""Finite groups, actions on Lie (bi)algebras, and group twist families.

A group twist family attaches to every group element an antisymmetric tensor
subject to three compatibility conditions with the action and the cobracket:

  (a) pushing the cobracket through the action shifts it by ad of the twist,
  (b) the family is a 1-cocycle: f_{gh} = f_g + (theta_g ⊗ theta_g)(f_h),
  (c) every member is a classical twist.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import MathDefectError, SchemaError
from .lie import LieAlgebra, LieBialgebra, QuasitriangularData, ad2, hom_defect
from .tensors import LinearMap, Tensor
from .twists import twist_defect


class FiniteGroup:
    """Multiplication table with labelled elements; axioms checked on build."""

    def __init__(self, labels: tuple[str, ...], table: tuple[tuple[int, ...], ...]):
        self.labels = tuple(labels)
        self.table = tuple(tuple(row) for row in table)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise SchemaError("duplicate group element labels")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise SchemaError("multiplication table shape mismatch")
        if any(not 0 <= v < n for row in self.table for v in row):
            raise SchemaError("multiplication table entry out of range")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise SchemaError("no identity element in multiplication table")
        self.identity = identity
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise SchemaError(
                            f"multiplication table not associative at ({a},{b},{c})")
        self._inv = []
        for a in range(n):
            inv = next((b for b in range(n) if self.table[a][b] == identity
                        and self.table[b][a] == identity), None)
            if inv is None:
                raise SchemaError(f"element {self.labels[a]!r} has no inverse")
            self._inv.append(inv)

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.labels == other.labels and self.table == other.table

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(("e",), ((0,),))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        labels = tuple("e" if k == 0 else f"g{k}" if n > 2 else "g" for k in range(n))
        table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        return cls(labels, table)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        labels = tuple("".join(str(v) for v in p) for p in perms)
        # composition convention: (p*q)(x) = p(q(x))
        table = tuple(
            tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
        )
        return cls(labels, table)


@dataclass
class ActionReport:
    hom_defects: dict = field(default_factory=dict)
    aut_defects: dict = field(default_factory=dict)
    identity_defect: bool = False

    @property
    def all_zero(self) -> bool:
        return not self.hom_defects and not self.aut_defects and not self.identity_defect


class GroupAction:
    """A map from group elements to invertible matrices on the algebra."""

    def __init__(self, group: FiniteGroup, maps: list[LinearMap]):
        if len(maps) != group.order:
            raise SchemaError("need one matrix per group element")
        self.group = group
        self.maps = list(maps)
        for m in self.maps:
            m.inverse()  # raises on singular input

    def theta(self, g: int) -> LinearMap:
        return self.maps[g]

    @classmethod
    def trivial(cls, group: FiniteGroup, space) -> "GroupAction":
        ident = LinearMap.identity(space)
        return cls(group, [ident for _ in group.elements()])


def check_action(action: GroupAction, lie: LieAlgebra) -> ActionReport:
    """Homomorphism and automorphism defects of a candidate action."""
    report = ActionReport()
    grp = action.group
    if not action.theta(grp.identity).is_identity():
        report.identity_defect = True
    for g in grp.elements():
        for h in grp.elements():
            composed = action.theta(g).compose(action.theta(h))
            expected = action.theta(grp.mul(g, h))
            if composed != expected:
                diff = [
                    [a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(composed.rows, expected.rows)
                ]
                report.hom_defects[(g, h)] = diff
    for g in grp.elements():
        for (i, j), diff in hom_defect(action.theta(g), lie, lie).items():
            report.aut_defects[(g, i, j)] = diff
    return report


class GammaLieBialgebra:
    """A Lie bialgebra with a group action and a twist family."""

    def __init__(self, bialgebra: LieBialgebra, action: GroupAction,
                 twists: list[Tensor]):
        if len(twists) != action.group.order:
            raise SchemaError("need one twist tensor per group element")
        a = bialgebra.space
        for t in twists:
            if t.spaces != (a, a):
                raise SchemaError("twist tensors must live in the tensor square")
        self.bialgebra = bialgebra
        self.action = action
        self.twists = list(twists)

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    def f(self, g: int) -> Tensor:
        return self.twists[g]

    def assert_valid(self):
        self.bialgebra.assert_valid()
        report = check_action(self.action, self.bialgebra.lie)
        if not report.all_zero:
            raise MathDefectError("group action defect is nonzero", report)
        defects = gamma_defects(self)
        if not defects.all_zero:
            raise MathDefectError("group twist family defect is nonzero", defects)


@dataclass
class GammaDefectReport:
    condition_a: dict = field(default_factory=dict)   # g -> nonzero tensor, per basis vector folded in
    condition_b: dict = field(default_factory=dict)   # (g, h) -> nonzero tensor
    condition_c: dict = field(default_factory=dict)   # g -> nonzero tensor
    antisymmetry: dict = field(default_factory=dict)  # g -> nonzero tensor
    identity_twist: Tensor | None = None              # f_e when nonzero

    @property
    def all_zero(self) -> bool:
        return (not self.condition_a and not self.condition_b and not self.condition_c
                and not self.antisymmetry and self.identity_twist is None)


def gamma_defects(g_bialg: GammaLieBialgebra) -> GammaDefectReport:
    """Structured defect report for the three twist-family conditions.

    Also checks the forced consequence that the identity twist vanishes.
    """
    report = GammaDefectReport()
    bialg = g_bialg.bialgebra
    lie = bialg.lie
    grp = g_bialg.group
    a = bialg.space
    n = a.dim

    for g in grp.elements():
        f = g_bialg.f(g)
        anti = f + f.swap()
        if not anti.is_zero():
            report.antisymmetry[g] = anti

    if not g_bialg.f(grp.identity).is_zero():
        report.identity_twist = g_bialg.f(grp.identity)

    # (a): (theta ⊗ theta)(delta(theta^{-1} x)) - delta(x) - [f_g, x⊗1 + 1⊗x],
    # where [f_g, x⊗1 + 1⊗x] = -ad2_x(f_g)
    for g in grp.elements():
        theta = g_bialg.action.theta(g)
        theta_inv = theta.inverse()
        defect = Tensor.zero((a, a, a))  # slots (x, o1, o2)
        for i in range(n):
            pushed = Tensor.zero((a, a))
            for j, c in theta_inv.column(i).items():
                pushed = pushed + c * theta.apply_tensor(bialg.cobracket_basis(j))
            diff = pushed - bialg.cobracket_basis(i) + ad2(lie, i, g_bialg.f(g))
            for key, v in diff.data.items():
                defect.data[(i,) + key] = v
        if not defect.is_zero():
            report.condition_a[g] = defect

    # (b): f_{gh} - f_g - (theta_g ⊗ theta_g)(f_h)
    for g in grp.elements():
        theta = g_bialg.action.theta(g)
        for h in grp.elements():
            diff = g_bialg.f(grp.mul(g, h)) - g_bialg.f(g) - theta.apply_tensor(g_bialg.f(h))
            if not diff.is_zero():
                report.condition_b[(g, h)] = diff

    # (c): each twist passes the classical twist condition
    for g in grp.elements():
        f = g_bialg.f(g)
        if (f + f.swap()).is_zero():
            defect = twist_defect(bialg, f)
            if not defect.is_zero():
                report.condition_c[g] = defect
    return report


def quasitriangular_gamma(qt: QuasitriangularData, action: GroupAction) -> GammaLieBialgebra:
    """Group twist family from an r-matrix: f_g = (theta_g ⊗ theta_g)(r) - r.

    Requires the r-matrix axioms and that every matrix preserves the
    symmetric part of r.  The construction is re-verified exactly.
    """
    qt.assert_valid()
    report = check_action(action, qt.lie)
    if not report.all_zero:
        raise MathDefectError("group action defect is nonzero", report)
    t = qt.t
    for g in action.group.elements():
        pushed = action.theta(g).apply_tensor(t)
        if pushed != t:
            raise MathDefectError(
                f"group element {action.group.labels[g]!r} does not preserve the symmetric part",
                pushed - t)
    bialg = qt.bialgebra()
    twists = [action.theta(g).apply_tensor(qt.r) - qt.r for g in action.group.elements()]
    out = GammaLieBialgebra(bialg, action, twists)
    defects = gamma_defects(out)
    if not defects.all_zero:
        raise MathDefectError("constructed family fails its own defect report", defects)
    return out
