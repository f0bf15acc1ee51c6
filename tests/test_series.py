"""Truncated series arithmetic: ``ElSeries`` over the envelope of sl2."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequant import catalog
from liequant.envelope import ONE, Envelope
from liequant.errors import InternalCheckError
from liequant.hquant.core import CoproductSeries, DualSeries, ElSeries
from liequant.hquant.solvers import solve_coproduct
from liequant.sparse import El

ENV = Envelope(catalog.sl2().lie)
E, F, H = ((0,),), ((1,),), ((2,),)
UNIT = (ONE,)


def el(*terms) -> El:
    """``el((key, c), ...)``: a sparse element of U(sl2)."""
    return El(list(terms))


def series(*coeffs: El) -> ElSeries:
    return ElSeries(ENV, 1, list(coeffs))


def unit(order: int) -> ElSeries:
    return ElSeries.unit(ENV, 1, order)


def test_telescoping_product():
    a = Fraction(3, 7)
    left = series(ENV.unit(1), el((E, a)), El())
    right = series(ENV.unit(1), el((E, -a)), El())
    assert left.mul(right) == series(ENV.unit(1), El(), el((((0, 0),), -a * a)))


def test_unit_law():
    a = series(ENV.unit(1), el((E, 5)), el((((1, 2),), Fraction(7, 3))))
    assert a.mul(unit(2)) == a
    assert unit(2).mul(a) == a


def test_truncation_drops_cross_term():
    # (1 + h e)(1 + h f) = 1 + h(e + f) mod h^2: the h^2 term ef is dropped
    left = series(ENV.unit(1), el((E, 2)))
    right = series(ENV.unit(1), el((F, Fraction(5, 3))))
    assert left.mul(right) == series(ENV.unit(1), el((E, 2), (F, Fraction(5, 3))))


def test_inverse_of_unit():
    assert unit(2).inverse() == unit(2)


def test_geometric_inverse():
    a = Fraction(4, 9)
    s = series(ENV.unit(1), el((E, a)), El())
    assert s.inverse() == series(ENV.unit(1), el((E, -a)), el((((0, 0),), a * a)))


def test_inverse_order_two_oracle():
    # independent oracle: expand (1 + h x + h^2 y)(1 + h x' + h^2 y') = 1 and
    # solve order by order: x' = -x, y' = x^2 - y, here with x = a e, y = b f
    a, b = Fraction(2, 5), Fraction(-3)
    s = series(ENV.unit(1), el((E, a)), el((F, b)))
    assert s.inverse() == series(ENV.unit(1), el((E, -a)),
                                 el((((0, 0),), a * a), (F, -b)))


def test_inverse_requires_unit_leading():
    with pytest.raises(InternalCheckError):
        series(el((UNIT, 2)), el((E, 1))).inverse()


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        series(ENV.unit(1), el((E, 2))).mul(series(ENV.unit(1), el((E, 2)), el((F, 3))))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=7)
elements = st.lists(st.tuples(st.sampled_from([UNIT, E, F, H]), rationals),
                    max_size=3).map(lambda terms: el(*terms))
orders2 = st.lists(elements, min_size=3, max_size=3).map(lambda cs: series(*cs))


@given(orders2, orders2, orders2)
@settings(max_examples=50, deadline=None)
def test_mul_associative_within_truncation(a, b, c):
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@given(orders2)
@settings(max_examples=50, deadline=None)
def test_inverse_is_two_sided(s):
    s = series(ENV.unit(1), *s.coeffs[1:])
    inv = s.inverse()
    assert s.mul(inv) == unit(s.order)
    assert inv.mul(s) == unit(s.order)


def test_map_and_truncate():
    s = series(ENV.unit(1), el((E, 2)), el((F, 3)))
    assert s.scale(2) == series(el((UNIT, 2)), el((E, 4)), el((F, 6)))
    assert s.truncated(1) == series(ENV.unit(1), el((E, 2)))
    assert (s - s).is_zero()


def test_algebra_map_truncation_is_memoised():
    cop = solve_coproduct(catalog.sl2(), 2, ENV)
    one = cop.truncated(1)
    assert cop.truncated(1) is one
    assert cop.truncated(2) is cop
    fresh = CoproductSeries(ENV, 1, [dict(t) for t in cop.tables[:2]])
    assert one.tables == fresh.tables
    assert one.ext_mon((0, 1, 2)) == fresh.ext_mon((0, 1, 2))


def tagged(el: El, tag: int) -> El:
    """``el`` with ``tag`` appended to every key, as a forward-mode tangent
    carries it."""
    return El({key + (tag,): c for key, c in el.data.items()})


def test_dual_tensor_puts_the_tag_last():
    value, other = el((UNIT, 1), (E, 2)), el((H, 5), (F, Fraction(1, 3)))
    parts = [el((F, 3)), el((H, Fraction(1, 2)), (E, 1))]
    dual = DualSeries(ENV, 1, value, tagged(parts[0], 0) + tagged(parts[1], 1), {})
    constant = DualSeries(ENV, 1, other, None, {})

    def tensor(x: El, y: El) -> El:
        return series(x).tensor(series(y))[0]

    assert dual.tensor(constant).tangent == (tagged(tensor(parts[0], other), 0)
                                             + tagged(tensor(parts[1], other), 1))
    assert constant.tensor(dual).tangent == (tagged(tensor(other, parts[0]), 0)
                                             + tagged(tensor(other, parts[1]), 1))


def test_dual_map_leg_puts_the_tag_of_a_tangent_image_last():
    # leg 0 of a two-leg value mapped by the coproduct, with a tagged
    # tangent image: each tag's terms are that image's splice, tag appended
    value = El([(((0,), (1,)), 2), ((ONE, (2,)), Fraction(1, 3)), (((1, 2), ONE), -1)])
    parts = [lambda m: El([((m, (2,)), 1)]) if m else El(),
             lambda m: El([((ONE, m), Fraction(1, 2)), ((m, m), 3)]) if m else El()]

    def bundle(m):
        return tagged(parts[0](m), 0) + tagged(parts[1](m), 1)

    def mapped(dimage) -> El:
        return DualSeries(ENV, 2, value, None, {}).map_leg(0, ENV.coproduct_mon, dimage, 2).tangent

    got = mapped(bundle)
    assert got and got == tagged(mapped(parts[0]), 0) + tagged(mapped(parts[1]), 1)
    assert all(len(key) == 4 and type(key[-1]) is int for key in got.data)
