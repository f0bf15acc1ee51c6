"""Named example structures used by tests, the CLI and the docs.

Every acceptance-style test refers to one of these entries.  The sl2 family
uses the basis order (e, f, h) with [h,e] = 2e, [h,f] = -2f, [e,f] = h and
the standard r-matrix e⊗f + h⊗h/4; the 2-dim solvable algebra is the ax+b
algebra [h,x] = x.  The S3 action on sl2 is conjugation by the rational
matrices s = [[0,1],[1,0]] and t = [[0,-1],[1,-1]] inside GL2.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import FiniteGroup, GammaLieBialgebra, GroupAction, quasitriangular_gamma
from .lie import LieAlgebra, LieBialgebra, QuasitriangularData
from .tensors import BasedSpace, LinearMap, Tensor

Q = Fraction


def abelian(n: int = 2) -> LieBialgebra:
    space = BasedSpace(f"abelian{n}", tuple(f"a{i}" for i in range(n)))
    return LieBialgebra(LieAlgebra(space, {}), {})


def solvable2() -> LieBialgebra:
    """ax+b algebra with the non-coboundary cobracket delta(x) = x ∧ h."""
    space = BasedSpace("solvable2", ("h", "x"))
    lie = LieAlgebra(space, {(0, 1): {1: 1}})
    # delta(x) = x⊗h - h⊗x  -> entry (h,x) with coefficient -1 (keys j < k)
    return LieBialgebra(lie, {1: {(0, 1): -1}})


def solvable2_triangular() -> QuasitriangularData:
    """Triangular structure on ax+b: r = h⊗x - x⊗h (symmetric part zero)."""
    space = BasedSpace("solvable2", ("h", "x"))
    lie = LieAlgebra(space, {(0, 1): {1: 1}})
    r = Tensor((space, space), {(0, 1): 1, (1, 0): -1})
    return QuasitriangularData(lie, r)


def sl2_lie() -> LieAlgebra:
    space = BasedSpace("sl2", ("e", "f", "h"))
    return LieAlgebra(space, {
        (0, 1): {2: 1},    # [e,f] = h
        (0, 2): {0: -2},   # [e,h] = -2e
        (1, 2): {1: 2},    # [f,h] = 2f
    })


def sl2_r() -> Tensor:
    space = sl2_lie().space
    return Tensor((space, space), {(0, 1): 1, (2, 2): Q(1, 4)})


def sl2_quasitriangular() -> QuasitriangularData:
    return QuasitriangularData(sl2_lie(), sl2_r())


def sl2() -> LieBialgebra:
    """Standard bialgebra: coboundary of the r-matrix.

    delta(e) = (h⊗e - e⊗h)/2, delta(f) = (h⊗f - f⊗h)/2, delta(h) = 0.
    """
    return sl2_quasitriangular().bialgebra()


def sl2_trivial() -> LieBialgebra:
    return LieBialgebra(sl2_lie(), {})


def sl2_cartan_involution() -> LinearMap:
    """e ↦ f, f ↦ e, h ↦ -h."""
    space = sl2_lie().space
    return LinearMap(space, space, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])


def _conjugation_on_sl2(g11, g12, g21, g22) -> LinearMap:
    """Automorphism of sl2 induced by conjugation with [[g11,g12],[g21,g22]]."""
    space = sl2_lie().space
    det = g11 * g22 - g12 * g21
    if not det:
        raise ValueError("singular matrix")
    inv = [[g22 / det, -g12 / det], [-g21 / det, g11 / det]]
    basis = {
        0: [[Q(0), Q(1)], [Q(0), Q(0)]],   # e
        1: [[Q(0), Q(0)], [Q(1), Q(0)]],   # f
        2: [[Q(1), Q(0)], [Q(0), Q(-1)]],  # h
    }
    cols = []
    for j in range(3):
        m = basis[j]
        gm = [[g11 * m[0][0] + g12 * m[1][0], g11 * m[0][1] + g12 * m[1][1]],
              [g21 * m[0][0] + g22 * m[1][0], g21 * m[0][1] + g22 * m[1][1]]]
        res = [[gm[0][0] * inv[0][0] + gm[0][1] * inv[1][0],
                gm[0][0] * inv[0][1] + gm[0][1] * inv[1][1]],
               [gm[1][0] * inv[0][0] + gm[1][1] * inv[1][0],
                gm[1][0] * inv[0][1] + gm[1][1] * inv[1][1]]]
        # decompose res = a·e + b·f + c·h  (traceless 2x2)
        cols.append({0: res[0][1], 1: res[1][0], 2: res[0][0]})
    rows = [[cols[j].get(i, Q(0)) for j in range(3)] for i in range(3)]
    return LinearMap(space, space, rows)


def z2_cartan_action() -> GroupAction:
    group = FiniteGroup.cyclic(2)
    space = sl2_lie().space
    return GroupAction(group, [LinearMap.identity(space), sl2_cartan_involution()])


def s3_sl2_action() -> GroupAction:
    """Faithful S3 action on sl2 by rational conjugation.

    The transposition (0 1) acts through s = [[0,1],[1,0]] (the Cartan
    involution) and the 3-cycle (0 1 2) through t = [[0,-1],[1,-1]].
    """
    group = FiniteGroup.symmetric(3)
    s_mat = (Q(0), Q(1), Q(1), Q(0))
    t_mat = (Q(0), Q(-1), Q(1), Q(-1))

    def mat_mul(a, b):
        return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])

    ident = (Q(1), Q(0), Q(0), Q(1))
    # group labels are one-line permutation strings over {0,1,2}
    perm_to_mat = {"012": ident}
    frontier = {"012": ident}
    gens = {"102": s_mat, "120": t_mat}  # s = (0 1); t maps x ↦ perm...
    # build the permutation realization consistently with FiniteGroup.symmetric:
    # multiply permutations as (p*q)(x) = p(q(x)) and matrices accordingly.
    def perm_mul(p, q):
        return "".join(p[int(c)] for c in q)

    while frontier:
        new_frontier = {}
        for p, m in frontier.items():
            for gp, gm in gens.items():
                q = perm_mul(gp, p)
                if q not in perm_to_mat:
                    qm = mat_mul(gm, m)
                    perm_to_mat[q] = qm
                    new_frontier[q] = qm
        frontier = new_frontier
    maps = []
    for label in group.labels:
        m = perm_to_mat[label]
        maps.append(_conjugation_on_sl2(m[0], m[1], m[2], m[3]))
    return GroupAction(group, maps)


def z2_solvable_action() -> GroupAction:
    """Sign action on ax+b: h ↦ h, x ↦ -x."""
    group = FiniteGroup.cyclic(2)
    space = solvable2_triangular().lie.space
    flip = LinearMap(space, space, [[1, 0], [0, -1]])
    return GroupAction(group, [LinearMap.identity(space), flip])


def s3_solvable_action() -> GroupAction:
    """S3 acting on ax+b through the sign homomorphism (no faithful rational
    S3 action exists on this algebra)."""
    group = FiniteGroup.symmetric(3)
    space = solvable2_triangular().lie.space
    ident = LinearMap.identity(space)
    flip = LinearMap(space, space, [[1, 0], [0, -1]])

    def parity(label: str) -> int:
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if label[i] > label[j])
        return inv % 2

    return GroupAction(group, [flip if parity(lab) else ident for lab in group.labels])


def gamma_family(name: str) -> GammaLieBialgebra:
    """Named quasitriangular group families used across the test matrix."""
    builders = {
        "sl2-cartan-z2": lambda: quasitriangular_gamma(sl2_quasitriangular(), z2_cartan_action()),
        "sl2-trivial-group": lambda: quasitriangular_gamma(
            sl2_quasitriangular(),
            GroupAction.trivial(FiniteGroup.trivial(), sl2_lie().space)),
        "sl2-s3": lambda: quasitriangular_gamma(sl2_quasitriangular(), s3_sl2_action()),
        "solvable2-tri-z2": lambda: quasitriangular_gamma(solvable2_triangular(), z2_solvable_action()),
        "solvable2-tri-s3": lambda: quasitriangular_gamma(solvable2_triangular(), s3_solvable_action()),
    }
    if name not in builders:
        raise KeyError(f"unknown family {name!r}")
    return builders[name]()


BIALGEBRAS = {
    "abelian2": lambda: abelian(2),
    "solvable2": solvable2,
    "sl2": sl2,
    "sl2-trivial": sl2_trivial,
}

QUASITRIANGULAR = {
    "sl2": sl2_quasitriangular,
    "solvable2-tri": solvable2_triangular,
}

GAMMA_FAMILIES = (
    "sl2-cartan-z2",
    "sl2-trivial-group",
    "sl2-s3",
    "solvable2-tri-z2",
    "solvable2-tri-s3",
)


def names() -> list[str]:
    return sorted(set(BIALGEBRAS) | {"solvable2-tri"} | set(GAMMA_FAMILIES))


def input_document(name: str) -> dict:
    """Catalog entry as a JSON-ready input document."""
    from .schema import to_document
    if name in BIALGEBRAS:
        bialg = BIALGEBRAS[name]()
        r = sl2_r() if name == "sl2" else None
        return to_document(bialg, r=r, name=name)
    if name == "solvable2-tri":
        qt = solvable2_triangular()
        return to_document(qt.bialgebra(), r=qt.r, name=name)
    if name in GAMMA_FAMILIES:
        fam = gamma_family(name)
        r = {
            "sl2-cartan-z2": sl2_r,
            "sl2-trivial-group": sl2_r,
            "sl2-s3": sl2_r,
            "solvable2-tri-z2": lambda: solvable2_triangular().r,
            "solvable2-tri-s3": lambda: solvable2_triangular().r,
        }[name]()
        return to_document(fam.bialgebra, r=r, gamma=fam, name=name)
    raise KeyError(f"unknown catalog entry {name!r}")
