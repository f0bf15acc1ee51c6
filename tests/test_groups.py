"""Finite groups, actions, and group twist families."""

from fractions import Fraction

import pytest

from liequant import catalog
from liequant.errors import MathDefectError, SchemaError
from liequant.groups import (FiniteGroup, GammaLieBialgebra, GroupAction, check_action,
                             gamma_defects, quasitriangular_gamma)
from liequant.tensors import LinearMap, Tensor

Q = Fraction


def test_group_table_validation():
    FiniteGroup.cyclic(4)
    FiniteGroup.symmetric(3)
    with pytest.raises(SchemaError):
        FiniteGroup(("e", "g"), ((0, 1), (1, 1)))      # no inverse for g
    with pytest.raises(SchemaError):
        FiniteGroup(("a", "b"), ((1, 0), (0, 0)))      # no identity... or broken
    with pytest.raises(SchemaError):
        FiniteGroup(("e",), ((1,),))                   # out of range


def test_symmetric_group_structure():
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6
    e = s3.identity
    for a in s3.elements():
        assert s3.mul(a, s3.inv(a)) == e
    # nonabelian witness
    assert any(s3.mul(a, b) != s3.mul(b, a)
               for a in s3.elements() for b in s3.elements())


def test_trivial_action_report():
    lie = catalog.sl2_lie()
    action = GroupAction.trivial(FiniteGroup.cyclic(2), lie.space)
    assert check_action(action, lie).all_zero


def test_cartan_action_is_automorphism():
    assert check_action(catalog.z2_cartan_action(), catalog.sl2_lie()).all_zero


def test_broken_action_detected():
    lie = catalog.sl2_lie()
    bad = LinearMap(lie.space, lie.space, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # h ↦ h
    action = GroupAction(FiniteGroup.cyclic(2), [LinearMap.identity(lie.space), bad])
    report = check_action(action, lie)
    assert report.aut_defects
    assert not report.all_zero


def test_singular_action_matrix_rejected():
    lie = catalog.sl2_lie()
    singular = LinearMap(lie.space, lie.space, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        GroupAction(FiniteGroup.cyclic(2), [LinearMap.identity(lie.space), singular])


def test_s3_action_on_sl2_valid():
    action = catalog.s3_sl2_action()
    assert check_action(action, catalog.sl2_lie()).all_zero
    # faithful: no two elements act identically
    mats = [action.theta(g).rows for g in action.group.elements()]
    assert len({tuple(map(tuple, m)) for m in mats}) == 6


def test_gamma_defects_trivial_group():
    fam = catalog.gamma_family("sl2-trivial-group")
    assert gamma_defects(fam).all_zero


@pytest.mark.parametrize("name", catalog.GAMMA_FAMILIES)
def test_gamma_defects_zero_across_matrix(name):
    assert gamma_defects(catalog.gamma_family(name)).all_zero


def test_gamma_scaled_twist_breaks_condition_a():
    fam = catalog.gamma_family("sl2-cartan-z2")
    scaled = GammaLieBialgebra(fam.bialgebra, fam.action,
                               [fam.f(0), 2 * fam.f(1)])
    report = gamma_defects(scaled)
    assert report.condition_a
    assert not report.all_zero


def test_gamma_identity_twist_forced_zero():
    fam = catalog.gamma_family("sl2-cartan-z2")
    shifted = GammaLieBialgebra(fam.bialgebra, fam.action,
                                [catalog.sl2_cartan_twist(), fam.f(1)])
    report = gamma_defects(shifted)
    assert report.identity_twist is not None


def test_quasitriangular_gamma_cartan_value():
    fam = catalog.gamma_family("sl2-cartan-z2")
    assert fam.f(0).is_zero()
    assert fam.f(1) == catalog.sl2_cartan_twist()


def test_quasitriangular_gamma_identity_action_gives_zero_twists():
    qt = catalog.sl2_quasitriangular()
    action = GroupAction.trivial(FiniteGroup.cyclic(2), qt.lie.space)
    fam = quasitriangular_gamma(qt, action)
    assert all(fam.f(g).is_zero() for g in fam.group.elements())


def test_quasitriangular_gamma_rejects_t_breaking_action():
    # on an abelian algebra every invertible map is an automorphism, so a
    # sign flip on one coordinate breaks invariance of t without breaking
    # anything else
    from liequant.lie import QuasitriangularData
    ab = catalog.abelian(2)
    r = Tensor((ab.space, ab.space), {(0, 1): 1})
    qt = QuasitriangularData(ab.lie, r)
    flip = LinearMap(ab.space, ab.space, [[-1, 0], [0, 1]])
    action = GroupAction(FiniteGroup.cyclic(2),
                         [LinearMap.identity(ab.space), flip])
    assert check_action(action, ab.lie).all_zero
    with pytest.raises(MathDefectError):
        quasitriangular_gamma(qt, action)


def test_derived_inverse_twist_identity():
    # f_{g^{-1}} = -(theta_{g^{-1}} ⊗ theta_{g^{-1}})(f_g), independent of (b)
    for name in catalog.GAMMA_FAMILIES:
        fam = catalog.gamma_family(name)
        for g in fam.group.elements():
            ginv = fam.group.inv(g)
            theta_inv = fam.action.theta(ginv)
            assert fam.f(ginv) == -theta_inv.apply_tensor(fam.f(g))


def test_gamma_naturality_of_defect_reports():
    # a nontrivial automorphism commuting with the involution (e ↦ -e,
    # f ↦ -f, h ↦ h) transports the family to a family whose report is zero
    fam = catalog.gamma_family("sl2-cartan-z2")
    assert gamma_defects(fam).all_zero
    phi = LinearMap(fam.bialgebra.space, fam.bialgebra.space,
                    [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    transported = GammaLieBialgebra(
        fam.bialgebra, fam.action,
        [phi.apply_tensor(fam.f(g)) for g in fam.group.elements()])
    assert gamma_defects(transported).all_zero
