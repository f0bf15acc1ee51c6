"""Classical structures: defects and coboundaries."""

from fractions import Fraction

import pytest

from liequant import catalog
from liequant.errors import MathDefectError
from liequant.lie import (LieAlgebra, LieBialgebra, cocycle_defect, cojacobi_defect,
                          coboundary_cobracket, cybe_defect, invariance_defect,
                          jacobi_defect)
from liequant.tensors import BasedSpace, Tensor

Q = Fraction


def test_abelian_jacobi():
    assert jacobi_defect(catalog.abelian(3).lie).is_zero()


def test_sl2_jacobi_by_expansion():
    assert jacobi_defect(catalog.sl2_lie()).is_zero()


def test_broken_sl2_jacobi():
    space = BasedSpace("sl2", ("e", "f", "h"))
    broken = LieAlgebra(space, {(0, 1): {0: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    defect = jacobi_defect(broken)
    assert not defect.is_zero()
    # exhibit a failing triple
    assert any(key[:3] == (0, 1, 2) for key in defect.data)


def test_cojacobi_zero_for_dual_of_solvable():
    # delta dual to the ax+b bracket: delta(x) dual structure is a valid table
    assert cojacobi_defect(catalog.solvable2()).is_zero()
    assert cojacobi_defect(catalog.sl2()).is_zero()


def test_cojacobi_nonzero_for_non_jacobi_dual():
    # dualize the broken sl2 table: delta(e) = e∧f etc. fails co-Jacobi
    space = BasedSpace("v", ("a", "b", "c"))
    lie = LieAlgebra(space, {})
    bialg = LieBialgebra(lie, {0: {(0, 1): 1}, 1: {(1, 2): 1}, 2: {(0, 2): 1}})
    assert not cojacobi_defect(bialg).is_zero()


def test_cocycle_zero_for_coboundary():
    assert cocycle_defect(catalog.sl2()).is_zero()


def test_cocycle_zero_trivial():
    assert cocycle_defect(catalog.sl2_trivial()).is_zero()


def test_cocycle_nonzero_mutation():
    # delta(e) = h∧f, delta(f) = delta(h) = 0 on sl2
    bialg = LieBialgebra(catalog.sl2_lie(), {0: {(1, 2): -1}})
    assert not cocycle_defect(bialg).is_zero()


def test_cybe_examples():
    lie = catalog.sl2_lie()
    assert cybe_defect(lie, Tensor.zero((lie.space, lie.space))).is_zero()
    assert cybe_defect(lie, catalog.sl2_r()).is_zero()
    bare = Tensor((lie.space, lie.space), {(0, 1): 1})
    assert not cybe_defect(lie, bare).is_zero()


def test_invariance_examples():
    lie = catalog.sl2_lie()
    assert invariance_defect(lie, Tensor.zero((lie.space, lie.space))).is_zero()
    casimir = Tensor((lie.space, lie.space), {(0, 1): 1, (1, 0): 1, (2, 2): "1/2"})
    assert invariance_defect(lie, casimir).is_zero()
    assert not invariance_defect(lie, Tensor((lie.space, lie.space), {(0, 0): 1})).is_zero()


def test_coboundary_values_on_sl2():
    lie = catalog.sl2_lie()
    tables = coboundary_cobracket(lie, catalog.sl2_r())
    sp = lie.space
    assert tables[2].is_zero()                                   # delta(h) = 0
    assert tables[0] == Tensor((sp, sp), {(2, 0): "1/2", (0, 2): "-1/2"})
    assert tables[1] == Tensor((sp, sp), {(2, 1): "1/2", (1, 2): "-1/2"})


def test_coboundary_of_zero():
    lie = catalog.sl2_lie()
    assert all(t.is_zero() for t in coboundary_cobracket(lie, Tensor.zero((lie.space,) * 2)))


def test_catalog_bialgebras_valid():
    for name, builder in catalog.BIALGEBRAS.items():
        builder().assert_valid()


def test_random_coboundaries_are_cocycles():
    """For seeded random r with invariant symmetric part, the coboundary
    cobracket passes the cocycle check (and antisymmetry) exactly."""
    import random

    from liequant.lie import LieBialgebra as LB

    rng = random.Random(20240817)

    def rnd():
        return Q(rng.randint(-6, 6), rng.randint(1, 4))

    sl2 = catalog.sl2_lie()
    casimir = Tensor((sl2.space, sl2.space), {(0, 1): 1, (1, 0): 1, (2, 2): "1/2"})
    for _ in range(5):
        anti = Tensor.zero((sl2.space, sl2.space))
        for i in range(3):
            for j in range(i + 1, 3):
                c = rnd()
                if c:
                    anti.data[(i, j)] = c
                    anti.data[(j, i)] = -c
        r = anti + rnd() * casimir
        tables = coboundary_cobracket(sl2, r)
        bialg = LB(sl2, cobracket_tensors=tables)   # antisymmetry enforced
        assert cocycle_defect(bialg).is_zero()

    solvable = catalog.solvable2().lie
    for _ in range(5):
        c = rnd()
        r = Tensor((solvable.space, solvable.space), {(0, 1): c, (1, 0): -c})
        tables = coboundary_cobracket(solvable, r)
        bialg = LB(solvable, cobracket_tensors=tables)
        assert cocycle_defect(bialg).is_zero()


def test_quasitriangular_validation():
    catalog.sl2_quasitriangular().assert_valid()
    catalog.solvable2_triangular().assert_valid()
    lie = catalog.sl2_lie()
    bad = Tensor((lie.space, lie.space), {(0, 1): 1})
    from liequant.lie import QuasitriangularData
    with pytest.raises(MathDefectError):
        QuasitriangularData(lie, bad).assert_valid()
