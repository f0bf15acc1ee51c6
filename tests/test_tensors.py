"""Exact-core tensor operations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequant.tensors import BasedSpace, LinearMap, Tensor, cyclic_sum3, q, qstr

SP = BasedSpace("v", ("a", "b", "c"))

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def tensor2(data):
    return Tensor((SP, SP), data)


def test_rational_coercion():
    assert q("3/4") == Fraction(3, 4)
    assert q(5) == Fraction(5)
    assert qstr(Fraction(-7, 2)) == "-7/2"
    assert qstr(Fraction(4)) == "4"
    with pytest.raises(TypeError):
        q(0.5)


@given(st.lists(rationals, min_size=2, max_size=2),
       st.lists(rationals, min_size=2, max_size=2))
def test_exact_arithmetic(xs, ys):
    a, b = Fraction(xs[0]), Fraction(ys[0])
    assert (a + b) - b == a
    if b:
        assert (a * b) / b == a


def test_permute_swap_is_transposition():
    t = tensor2({(0, 1): 1})  # a⊗b
    assert t.permute((1, 0)) == tensor2({(1, 0): 1})  # b⊗a


def test_permute_identity():
    t = tensor2({(0, 1): "2/3", (2, 2): -1})
    assert t.permute((0, 1)) == t


def test_permute_cycle_on_basis():
    # e⊗f⊗h under the cycle (123) lands on h⊗e⊗f
    t = Tensor((SP, SP, SP), {(0, 1, 2): 1})
    moved = t.permute((1, 2, 0))
    # direct index relabeling oracle: the (1, 2, 0)-image of e⊗f⊗h is f⊗h⊗e,
    # the (2, 0, 1)-image is h⊗e⊗f
    assert t.permute((2, 0, 1)) == Tensor((SP, SP, SP), {(2, 0, 1): 1})
    assert moved == Tensor((SP, SP, SP), {(1, 2, 0): 1})


@st.composite
def tensor3_strategy(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    data = {}
    for _ in range(n):
        key = tuple(draw(st.integers(0, 2)) for _ in range(3))
        data[key] = draw(rationals)
    return Tensor((SP, SP, SP), data)


@st.composite
def perm3(draw):
    return tuple(draw(st.permutations(range(3))))


@given(tensor3_strategy(), perm3(), perm3())
@settings(max_examples=60, deadline=None)
def test_permute_group_action(t, sigma, tau):
    # applying sigma then tau equals applying the composite relabeling
    composite = tuple(sigma[tau[j]] for j in range(3))
    assert t.permute(sigma).permute(tau) == t.permute(composite)


@given(tensor3_strategy())
@settings(max_examples=30, deadline=None)
def test_involutive_permutation_restores(t):
    swap01 = (1, 0, 2)
    assert t.permute(swap01).permute(swap01) == t


def test_cyclic_sum3_zero_and_fixed_point():
    zero = Tensor.zero((SP, SP, SP))
    assert cyclic_sum3(zero).is_zero()
    sym = Tensor((SP, SP, SP), {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    assert cyclic_sum3(sym) == 3 * sym


def test_cyclic_sum3_expansion():
    t = Tensor((SP, SP, SP), {(0, 1, 2): 1})
    expected = Tensor((SP, SP, SP), {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    assert cyclic_sum3(t) == expected


def test_cyclic_sum3_requires_arity3():
    with pytest.raises(ValueError):
        cyclic_sum3(tensor2({(0, 0): 1}))


def test_linear_map_inverse_and_compose():
    m = LinearMap(SP, SP, [[1, 1, 0], [0, 1, 0], [0, 0, "1/2"]])
    inv = m.inverse()
    assert m.compose(inv).is_identity()
    with pytest.raises(ValueError):
        LinearMap(SP, SP, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]).inverse()


def scalar_types(values):
    """``int`` for integral values, ``Fraction`` for the rest; fails on a float."""
    assert not any(isinstance(v, float) for v in values)
    return [type(v) for v in values]


def test_scalar_rule_at_construction():
    assert scalar_types([q(5), q("6/3"), q(Fraction(8, 4)), q("-1/2")]) == [int, int, int, Fraction]
    t = tensor2({(0, 1): "4/2", (1, 0): "1/3"})
    assert scalar_types([t.coeff((0, 1)), t.coeff((1, 0)), t.coeff((2, 2))]) == [int, Fraction, int]


def test_linear_map_inverse_of_int_matrix_is_exact():
    plane = BasedSpace("p", ("x", "y"))
    inv = LinearMap(plane, plane, [[2, 0], [0, 1]]).inverse()
    assert inv.rows == ((Fraction(1, 2), 0), (0, 1))
    assert [scalar_types(row) for row in inv.rows] == [[Fraction, int], [int, int]]
    inv = LinearMap(plane, plane, [[2, 1], [1, 1]]).inverse()
    assert inv.rows == ((1, -1), (-1, 2))
    assert all(t is int for row in inv.rows for t in scalar_types(row))


def test_linear_map_tensor_application():
    m = LinearMap(SP, SP, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    t = tensor2({(0, 2): 1})
    assert m.apply_tensor(t) == tensor2({(1, 2): -1})
