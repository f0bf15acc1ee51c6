"""Order-by-order solvers: deformed coproduct, conjugator, twists, intertwiners,
composition elements, and their gauge behavior."""

import hashlib
import json
from fractions import Fraction

import pytest

from liequant import catalog
from liequant.envelope import Envelope
from liequant.errors import InternalCheckError, MathDefectError, SolverInconsistencyError
from liequant.hquant.core import CoproductSeries, ElSeries, MapSeries
from liequant.hquant.solvers import (GaugeLog, algebra_compat_defect, classical_limit_defect,
                                     coassoc_defect, cocycle_defect, composition_defect,
                                     counit_defect, iso_intertwine_defect,
                                     solve_composition_v, solve_coproduct,
                                     solve_j_conjugator, solve_twist_pair, twist_counit_defect,
                                     twisted_coproduct, _solve_with_supports)
from liequant.hquant.unknowns import LinearisedDefect, Tangent, blocks
from liequant.lie import LieBialgebra
from liequant.schema import series_to_json
from liequant.sparse import El
from liequant.tensors import Tensor
from liequant.twists import twist

Q = Fraction


def gauge_transform(cop, f_series, iso, u):
    """Gauge move: F ↦ (u⊗u) F Δ(u)^{-1}, i ↦ i ∘ Ad(u)^{-1}."""
    f_new = u.tensor(u).mul(f_series).mul(cop.apply_leg(u, 0).inverse())
    return f_new, iso.compose(twisted_coproduct(MapSeries.identity(cop.env, u.order), u.inverse()))


def solve_v(env, f_total, f_second_pulled, f_first, cop, order):
    """The composition element to ``order``, one order at a time as the
    Γ-assembly solves it, without the assembly's family alignment."""
    v = ElSeries.unit(env, 1, 0)
    for _ in range(order):
        v = solve_composition_v(env, f_total, f_second_pulled, f_first, cop, v.coeffs)
    return v


@pytest.fixture(scope="module")
def sl2_setup():
    bialg = catalog.sl2()
    env = Envelope(bialg.lie)
    cop = solve_coproduct(bialg, 2, env)
    return bialg, env, cop


@pytest.fixture(scope="module")
def cartan_pair(sl2_setup):
    """(F, i) of the sl2 Cartan twist onto the solved coproduct of the twist."""
    bialg, env, cop = sl2_setup
    f = catalog.gamma_family("sl2-cartan-z2").f(1)
    cop_f = solve_coproduct(twist(bialg, f), 2, env)
    f_series, iso = solve_twist_pair(bialg, cop, f, cop_f, 2)
    return f, cop_f, f_series, iso


def test_trivial_cobracket_keeps_coproduct_undeformed():
    bialg = catalog.sl2_trivial()
    env = Envelope(bialg.lie)
    cop = solve_coproduct(bialg, 2, env)
    for k in (1, 2):
        assert not cop.tables[k]


def test_order1_table_is_half_cobracket(sl2_setup):
    bialg, env, cop = sl2_setup
    for i in range(3):
        expected = Fraction(1, 2) * env.embed_tensor(bialg.cobracket_basis(i))
        assert cop.tables[1].get(i, El()) == expected


def test_coproduct_defects_zero(sl2_setup):
    bialg, env, cop = sl2_setup
    assert not algebra_compat_defect(bialg, cop)
    assert not coassoc_defect(cop)
    assert not counit_defect(cop)
    assert not classical_limit_defect(bialg, cop)


def test_coproduct_solver_leaves_certificateless_log():
    bialg = catalog.sl2()
    log = GaugeLog()
    solve_coproduct(bialg, 2, Envelope(bialg.lie), log)
    assert all(r.status in ("pinned", "solved") for r in log.records)


def test_generator_sufficiency_on_monomials(sl2_setup):
    # equality of algebra-map coproducts on generators extends to monomials:
    # the coassociativity defect of the extension vanishes on degree <= 3
    bialg, env, cop = sl2_setup
    for m in env.mons_up_to(3):
        s = ElSeries(env, 2, cop.ext_mon(m))
        diff = cop.apply_leg(s, 0) - cop.apply_leg(s, 1)
        assert diff.is_zero(), m


def test_coassoc_mutation_detected():
    # on a table whose cocycle compatibility fails, the hand-built first
    # order (half the broken cobracket, no symmetric correction) violates
    # the algebra-map constraint; on a valid bialgebra the full (unscaled)
    # cobracket instead breaks the classical-limit normalization
    broken = LieBialgebra(catalog.sl2_lie(), {0: {(1, 2): -1}})
    env = Envelope(broken.lie)
    tables = [dict(CoproductSeries.undeformed(env, 0).tables[0])]
    tables.append({0: Fraction(1, 2) * env.embed_tensor(broken.cobracket_basis(0))})
    cand = CoproductSeries(env, 1, tables)
    assert algebra_compat_defect(broken, cand)

    bialg = catalog.sl2()
    env2 = Envelope(bialg.lie)
    tables = [dict(CoproductSeries.undeformed(env2, 0).tables[0])]
    tables.append({i: env2.embed_tensor(bialg.cobracket_basis(i)) for i in range(3)})
    tables[1] = {i: el for i, el in tables[1].items() if el}
    doubled = CoproductSeries(env2, 1, tables)
    assert not coassoc_defect(doubled)            # scale-free identity
    assert classical_limit_defect(bialg, doubled)  # but the limit pins delta/2


def test_j_trivial_r():
    ab = catalog.abelian(2)
    from liequant.lie import QuasitriangularData
    qt = QuasitriangularData(ab.lie, Tensor.zero((ab.space, ab.space)))
    env = Envelope(ab.lie)
    j, cop = solve_j_conjugator(qt, 2, env)
    assert j == ElSeries.unit(env, 2, 2)


def test_j_order1_coassociativity_is_free(sl2_setup):
    # Ad(1 + h r/2) Delta_0 is coassociative at order 1 regardless of CYBE:
    # check with a non-CYBE r
    bialg, env, _ = sl2_setup
    bad_r = Tensor((bialg.space, bialg.space), {(0, 1): 1})
    j1 = ElSeries(env, 2, [env.unit(2), Fraction(1, 2) * env.embed_tensor(bad_r)])
    cop = twisted_coproduct(CoproductSeries.undeformed(env, 1), j1)
    defects = coassoc_defect(cop)
    assert all(not series.coeffs[1] for series in defects.values())


def test_j_sl2(sl2_setup):
    bialg, env, _ = sl2_setup
    qt = catalog.sl2_quasitriangular()
    log = GaugeLog()
    j, cop = solve_j_conjugator(qt, 2, env, log)
    assert j.coeffs[1] == Fraction(1, 2) * env.embed_tensor(qt.r)
    assert not coassoc_defect(cop)
    assert not counit_defect(cop)
    assert not classical_limit_defect(bialg, cop)


def test_twist_f_zero(sl2_setup):
    bialg, env, cop = sl2_setup
    f_series, _ = solve_twist_pair(bialg, cop, Tensor.zero((bialg.space,) * 2), cop, 2)
    assert f_series == ElSeries.unit(env, 2, 2)


def test_twist_f_abelian_exact():
    ab = catalog.abelian(2)
    env = Envelope(ab.lie)
    cop = solve_coproduct(ab, 2, env)
    f = Tensor((ab.space, ab.space), {(0, 1): 1, (1, 0): -1})
    f_series, _ = solve_twist_pair(ab, cop, f, cop, 2)
    assert f_series.coeffs[1] == Fraction(1, 2) * env.embed_tensor(f)
    assert cocycle_defect(cop, f_series).is_zero()
    # abelian oracle: F = 1 + h f/2 + h^2 f^2/8 solves exactly (commutative
    # exponential); compare the full series against the oracle
    half_f = ElSeries(env, 2, [El(), Fraction(1, 2) * env.embed_tensor(f), El()])
    oracle = ElSeries.unit(env, 2, 2) + half_f + \
        Fraction(1, 2) * half_f.mul(half_f)
    assert cocycle_defect(cop, oracle).is_zero()
    assert (oracle - f_series).coeffs[1].is_zero()


def test_twist_f_cartan(sl2_setup, cartan_pair):
    bialg, env, cop = sl2_setup
    f, _, f_series, _ = cartan_pair
    assert cocycle_defect(cop, f_series).is_zero()
    assert not twist_counit_defect(env, f_series)
    one = f_series.coeffs[1]
    assert one - one.map_keys(lambda key: (key[1], key[0])) == env.embed_tensor(f)


def test_twist_f_rejects_nontwist(sl2_setup):
    bialg, env, cop = sl2_setup
    bad = Tensor((bialg.space, bialg.space), {(0, 1): 1, (1, 0): -1})
    with pytest.raises(MathDefectError):
        solve_twist_pair(bialg, cop, bad, cop, 2)


def test_twist_pair_rejects_a_truncated_base(sl2_setup):
    bialg, env, cop = sl2_setup
    with pytest.raises(ValueError, match="truncated"):
        solve_twist_pair(bialg, cop, catalog.gamma_family("sl2-cartan-z2").f(1), cop, 3)


def test_twisted_coproduct_classical_limit(sl2_setup, cartan_pair):
    bialg, env, cop = sl2_setup
    f, _, f_series, _ = cartan_pair
    tw = twisted_coproduct(cop, f_series)
    assert not classical_limit_defect(twist(bialg, f), tw)


def test_iso_identity_for_zero_twist(sl2_setup):
    bialg, env, cop = sl2_setup
    _, iso = solve_twist_pair(bialg, cop, Tensor.zero((bialg.space,) * 2), cop, 2)
    assert iso.tables == MapSeries.identity(env, 2).tables


def test_iso_abelian_identity():
    ab = catalog.abelian(2)
    env = Envelope(ab.lie)
    cop = solve_coproduct(ab, 2, env)
    f = Tensor((ab.space, ab.space), {(0, 1): 1, (1, 0): -1})
    _, iso = solve_twist_pair(ab, cop, f, cop, 2)
    assert iso.tables == MapSeries.identity(env, 2).tables


def test_iso_cartan(sl2_setup, cartan_pair):
    bialg, env, cop = sl2_setup
    _, cop_f, f_series, iso = cartan_pair
    assert not iso_intertwine_defect(twisted_coproduct(cop, f_series), cop_f, iso)
    inv = iso.inverse()
    identity = MapSeries.identity(env, 2).tables
    assert iso.compose(inv).tables == identity
    assert inv.compose(iso).tables == identity


def test_iso_product_intertwining_automatic(sl2_setup, cartan_pair):
    # both sides carry the undeformed product, so the extension of i is an
    # algebra map by construction; check it on sample monomials
    bialg, env, cop = sl2_setup
    iso = cartan_pair[3]
    for m1 in env.mons_up_to(2):
        for m2 in env.mons_up_to(1):
            prod = env.mul_mon(m1, m2)
            left = ElSeries(env, 1, [El() for _ in range(3)])
            for mon, c in prod.items():
                left = left + c * ElSeries(env, 1, iso.ext_mon(mon))
            right = ElSeries(env, 1, iso.ext_mon(m1)).mul(
                ElSeries(env, 1, iso.ext_mon(m2)))
            assert left == right


def test_v_trivial(sl2_setup):
    bialg, env, cop = sl2_setup
    unit2 = ElSeries.unit(env, 2, 2)
    v = solve_v(env, unit2, unit2, unit2, cop, 2)
    assert v == ElSeries.unit(env, 1, 2)


@pytest.fixture(scope="module")
def cartan_composition(sl2_setup, cartan_pair):
    """For the sl2 Cartan twist f and its pushforward f' (f + f' = 0): F(f)
    and i(f), F(a_f, f') pulled back by i(f), F(f+f'), the twisted base
    coproduct of f+f' and its target, and i(a_f, f')."""
    bialg, env, cop = sl2_setup
    f, cop_f, f_series, iso_f = cartan_pair
    f_prime = catalog.sl2_cartan_involution().apply_tensor(f)
    cop_total = solve_coproduct(twist(bialg, f + f_prime), 2, env)
    f_prime_series, iso_second = solve_twist_pair(twist(bialg, f), cop_f, f_prime, cop_total, 2)
    f_total, _ = solve_twist_pair(bialg, cop, f + f_prime, cop_total, 2)
    pulled = iso_f.inverse().apply_all_legs(f_prime_series)
    return f_series, iso_f, f_prime_series, pulled, f_total, cop_total, iso_second


def test_v_cartan_pair(sl2_setup, cartan_composition):
    bialg, env, cop = sl2_setup
    f_series, iso_f, f_prime_series, pulled, f_total, cop_total, iso_second = cartan_composition
    # in the joint twist-pair gauge this pair composes strictly (v = 1)
    v = solve_v(env, f_total, pulled, f_series, cop, 2)
    assert v == ElSeries.unit(env, 1, 2)
    assert composition_defect(env, f_total, pulled, f_series, cop, v).is_zero()
    # the composed intertwiner i(a_f, f') ∘ i(f) ∘ Ad(v^{-1}) is an intertwiner
    composed = iso_second.compose(iso_f).compose(
        twisted_coproduct(MapSeries.identity(env, 2), v.inverse()))
    assert not iso_intertwine_defect(twisted_coproduct(cop, f_total), cop_total, composed)
    # a gauge move w of the first twist makes the composition element w^{-1}
    w = ElSeries(env, 1, [env.unit(1), El(), El({((0, 1),): Q(1, 2)})])
    f_w, iso_w = gauge_transform(cop, f_series, iso_f, w)
    pulled = iso_w.inverse().apply_all_legs(f_prime_series)
    v = solve_v(env, f_total, pulled, f_w, cop, 2)
    assert v == w.inverse()
    assert v.coeffs[2] == El({((0, 1),): Q(-1, 2)})
    # counit normalization per order
    assert all(env.counit(c) == 0 for c in v.coeffs[1:])
    assert composition_defect(env, f_total, pulled, f_w, cop, v).is_zero()


def test_composition_v_can_miss_an_element_that_exists(sl2_setup, cartan_composition):
    # an order-1 gauge move w = 1 + h x0 of the first twist: v = w^{-1}
    # satisfies the composition relation, but the solve pins the free
    # primitive part of v_1 to zero, and no order-2 coefficient extends that
    bialg, env, cop = sl2_setup
    f_series, iso_f, f_prime_series, _, f_total, _, _ = cartan_composition
    w = ElSeries(env, 1, [env.unit(1), El.term(((0,),)), El()])
    f_w, iso_w = gauge_transform(cop, f_series, iso_f, w)
    pulled = iso_w.inverse().apply_all_legs(f_prime_series)
    assert composition_defect(env, f_total, pulled, f_w, cop, w.inverse()).is_zero()
    v1 = solve_composition_v(env, f_total, pulled, f_w, cop, [env.unit(1)])
    assert v1.coeffs[1] == El()
    with pytest.raises(InternalCheckError,
                       match="no composition element extends the orders solved below 2"):
        solve_composition_v(env, f_total, pulled, f_w, cop, v1.coeffs)


def test_gauge_invariance_of_defects(sl2_setup, cartan_pair):
    bialg, env, cop = sl2_setup
    _, cop_f, f_series, iso = cartan_pair
    u = ElSeries(env, 1, [
        env.unit(1),
        El({((0,),): Q(1, 3), ((2,),): Q(-1)}),
        El({((0, 1),): Q(1, 2), ((1,),): Q(2)}),
    ])
    f_new, iso_new = gauge_transform(cop, f_series, iso, u)
    assert cocycle_defect(cop, f_new).is_zero()
    assert not twist_counit_defect(env, f_new)
    assert not iso_intertwine_defect(twisted_coproduct(cop, f_new), cop_f, iso_new)


def test_support_ladder_exhaustion_reports_hint():
    env = Envelope(catalog.abelian(1).lie)

    def defect(top, n):
        # every unknown must vanish, and a constant row 1 = 0 is unsatisfiable;
        # the constant row is no part of a column
        const = {} if isinstance(top, Tangent) else {0: El.term((), Q(1))}
        return blocks({0: top.get("u", El())}, const)

    supports = [("tiny", [("u", env.keys_up_to(1, 1, 1))])]
    with pytest.raises(SolverInconsistencyError) as info:
        _solve_with_supports("probe", 1, supports, LinearisedDefect(defect, 1), GaugeLog())
    assert "degree-cap" in str(info.value)
    assert info.value.certificate is not None


def test_column_with_a_term_no_unknown_enters_is_refused():
    # a constant row returned from the column evaluation too would be copied
    # into every column: the defect is not affine in the unknowns as given
    env = Envelope(catalog.abelian(1).lie)

    def defect(top, n):
        return blocks({0: top.get("u", El())}, {0: El.term((), Q(1))})

    supports = [("tiny", [("u", env.keys_up_to(1, 1, 1))])]
    with pytest.raises(InternalCheckError, match=r"block \(1, 0\)"):
        _solve_with_supports("probe", 1, supports, LinearisedDefect(defect, 1), GaugeLog())


def test_support_ladder_repeats_the_last_rung_of_a_shorter_part(sl2_setup):
    from liequant.hquant.solvers import _pair_rungs, _support_ladder

    _, env, _ = sl2_setup
    # the cap adds a rung to F's ladder (last leg bound 5) but not to i's (7)
    ladder = _support_ladder(env, 6, (["F"], _pair_rungs(3)), ([0, 1, 2], [4, 7]))
    assert [label for label, _ in ladder] == [
        "legs<=3,total<=6|deg<=4", "legs<=5,total<=10|deg<=7", "legs<=6|deg<=7"]
    assert ladder[2][1][1:] == ladder[1][1][1:]


def test_joint_twist_pair_fallback(sl2_setup):
    # the joint per-order solve is the only twist-pair route; its output must
    # satisfy the exact postconditions of F and of i
    bialg, env, cop = sl2_setup
    f = catalog.gamma_family("sl2-cartan-z2").f(1)
    target = cop.pushforward(catalog.sl2_cartan_involution())

    log = GaugeLog()
    f_series, iso = solve_twist_pair(bialg, cop, f, target, 2, log=log)
    assert cocycle_defect(cop, f_series).is_zero()
    assert not iso_intertwine_defect(twisted_coproduct(cop, f_series), target, iso)
    assert [(r.operation, r.order) for r in log.records] == [("twist-pair", 1), ("twist-pair", 2)]
    assert not log.events
    # the route's output is pinned byte for byte
    payload = {"F": series_to_json(f_series.coeffs),
               "i": {str(i): series_to_json(iso.gen_series(i).coeffs) for i in range(env.dim)},
               "log": log.as_dict()}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == "87f4ae8700f25382bd070db3b2a5e0e8e1963370564a96710c2f4f439215f8db"


def test_map_series_inverse_with_linear_order0():
    env = Envelope(catalog.sl2().lie)
    theta = MapSeries.from_linear(env, 2, catalog.sl2_cartan_involution())
    inv = theta.inverse()
    identity = MapSeries.identity(env, 2).tables
    assert theta.compose(inv).tables == identity
    assert inv.compose(theta).tables == identity


def test_order3_cartan_twist_pair_is_solved_jointly():
    """At truncation order 3 an intertwiner of the sl2 Cartan twist onto the
    solved twisted coproduct exists only for some gauges of F (the gauge a
    separate F solve picks has none), so F and i are solved jointly; the
    joint solve finds both."""
    bialg = catalog.sl2()
    env = Envelope(bialg.lie)
    cop = solve_coproduct(bialg, 3, env)
    f = catalog.gamma_family("sl2-cartan-z2").f(1)
    cop_f = solve_coproduct(twist(bialg, f), 3, env)
    f_series, iso = solve_twist_pair(bialg, cop, f, cop_f, 3)
    assert cocycle_defect(cop, f_series).is_zero()
    assert not iso_intertwine_defect(twisted_coproduct(cop, f_series), cop_f, iso)
