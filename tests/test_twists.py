"""Classical twists: defects, twisting, composition."""

from fractions import Fraction

import pytest

from liequant import catalog
from liequant.errors import MathDefectError
from liequant.tensors import Tensor
from liequant.twists import TwistPair, compose_twists, twist, twist_defect

Q = Fraction


def oracle_twist_defect(bialg, f):
    """Independent brute-force expansion of the twist condition.

    Raw dictionary loops, no shared tensor machinery beyond data access.
    """
    acc = {}

    def add(key, val):
        acc[key] = acc.get(key, Q(0)) + val
        if not acc[key]:
            del acc[key]

    for (p, r), v in f.data.items():
        for (s, t), w in bialg.cobracket_basis(p).data.items():
            add((s, t, r), v * w)
    for (a1, b1), v1 in f.data.items():
        for (a2, b2), v2 in f.data.items():
            for m, c in bialg.lie.bracket_basis(b1, b2).items():
                add((a1, a2, m), v1 * v2 * c)
    out = {}
    for (i, j, k), v in acc.items():
        for key in ((i, j, k), (j, k, i), (k, i, j)):
            out[key] = out.get(key, Q(0)) + v
            if not out[key]:
                del out[key]
    return out


def test_zero_twist():
    b = catalog.sl2()
    assert twist_defect(b, Tensor.zero((b.space, b.space))).is_zero()


def test_cartan_twist_is_twist():
    b = catalog.sl2()
    f = catalog.sl2_cartan_twist()
    defect = twist_defect(b, f)
    assert defect.is_zero()
    assert oracle_twist_defect(b, f) == {}


def test_eh_twist_regression_fixture():
    # e∧h on standard sl2: the oracle expansion gives identically zero,
    # so the fixture status is "twist" (frozen here after oracle evaluation)
    b = catalog.sl2()
    f = Tensor((b.space, b.space), {(0, 2): 1, (2, 0): -1})
    assert oracle_twist_defect(b, f) == {}
    assert twist_defect(b, f).is_zero()


def test_twist_defect_matches_oracle_on_nontwists():
    b = catalog.sl2()
    for data in ({(0, 1): 1, (1, 0): -1}, {(1, 2): 1, (2, 1): -1}):
        f = Tensor((b.space, b.space), data)
        lib = twist_defect(b, f)
        assert dict(lib.data) == oracle_twist_defect(b, f)


def test_twist_rejects_non_antisymmetric():
    b = catalog.sl2()
    with pytest.raises(MathDefectError):
        twist_defect(b, Tensor((b.space, b.space), {(0, 1): 1}))


def test_twist_by_zero_is_identity():
    b = catalog.sl2()
    assert twist(b, Tensor.zero((b.space, b.space))) == b


def test_twisted_cobracket_matches_involution_pushforward():
    # the twisted cobracket equals the Cartan-involution pushforward
    b = catalog.sl2()
    f = catalog.sl2_cartan_twist()
    tw = twist(b, f)
    theta = catalog.sl2_cartan_involution()
    theta_inv = theta.inverse()
    for i in range(3):
        pushed = Tensor.zero((b.space, b.space))
        for j, c in theta_inv.column(i).items():
            pushed = pushed + c * theta.apply_tensor(b.cobracket_basis(j))
        assert pushed == tw.cobracket_basis(i)
    tw.assert_valid()


def test_twisted_bialgebras_valid_across_family_matrix():
    # twisting by any family member yields a bialgebra passing all axioms
    for name in catalog.GAMMA_FAMILIES:
        fam = catalog.gamma_family(name)
        for g in fam.group.elements():
            twist(fam.bialgebra, fam.f(g)).assert_valid()
    b = catalog.sl2()
    eh = Tensor((b.space, b.space), {(0, 2): 1, (2, 0): -1})
    twist(b, eh).assert_valid()


def test_twist_twice_by_opposite_restores():
    b = catalog.sl2()
    f = catalog.sl2_cartan_twist()
    tw = twist(b, f)
    back = twist(tw, -f)
    assert back == b


def test_compose_trivial_pairs():
    b = catalog.sl2()
    zero = Tensor.zero((b.space, b.space))
    f = catalog.sl2_cartan_twist()
    pair = compose_twists(b, f, zero)
    assert isinstance(pair, TwistPair)
    assert pair.total == f
    pair = compose_twists(b, zero, f)
    assert pair.total == f


def test_compose_cartan_pair_sums_to_zero():
    b = catalog.sl2()
    f = catalog.sl2_cartan_twist()
    f_prime = catalog.sl2_cartan_involution().apply_tensor(f)
    pair = compose_twists(b, f, f_prime)
    assert pair.total.is_zero()


def test_compose_rejects_bad_second_twist():
    # e∧f is a twist of the Cartan-twisted bialgebra but not of the standard
    # one, so composing it with the zero twist must be rejected
    b = catalog.sl2()
    zero = Tensor.zero((b.space, b.space))
    bad = Tensor((b.space, b.space), {(0, 1): 1, (1, 0): -1})
    assert not twist_defect(b, bad).is_zero()
    with pytest.raises(MathDefectError):
        compose_twists(b, zero, bad)
    # while the same tensor is accepted over the twisted algebra
    f = catalog.sl2_cartan_twist()
    assert twist_defect(twist(b, f), bad).is_zero()


def test_twisting_is_additive_in_the_twist():
    # (B_f)_{f'} has the same tables as B_{f+f'}
    b = catalog.sl2()
    f = catalog.sl2_cartan_twist()
    f_prime = catalog.sl2_cartan_involution().apply_tensor(f)
    once = twist(twist(b, f), f_prime)
    assert once == twist(b, f + f_prime)
