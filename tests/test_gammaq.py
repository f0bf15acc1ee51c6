"""Group-graded quantization: assemblies, axioms, comparison."""

import copy
from fractions import Fraction

import pytest

from liequant import catalog
from liequant.envelope import ONE, Envelope, SmashAlgebra
from liequant.hquant.core import CoproductSeries, ElSeries, MapSeries
from liequant.errors import InternalCheckError
from liequant.hquant import packed
from liequant.hquant.packed import _scaled_table
from liequant.hquant.gammaq import (ComparisonWitness, GammaQuantization,
                                    assemble_gamma_quantization, bialgebra_axiom_defects,
                                    classical_limit_check, compare_pipelines,
                                    quasitriangular_gamma_quantize)
from liequant.hquant.pipeline import gamma_v_cocycle_defects
from liequant.hquant.solvers import twisted_coproduct
from liequant.schema import parse_document
from liequant.sparse import El
from liequant.tensors import q

Q = Fraction


@pytest.fixture(scope="module")
def flagship():
    fam = catalog.gamma_family("sl2-cartan-z2")
    env = Envelope(fam.bialgebra.lie)
    generic = assemble_gamma_quantization(fam, 2, env=env)
    return fam, env, generic


def test_trivial_group_trivial_cobracket_assembly():
    assembly = assemble_gamma_quantization(catalog.gamma_family("sl2-trivial-group"), 0)
    report = bialgebra_axiom_defects(assembly, 1)
    assert report.all_zero


def test_order_zero_assembly_is_classical_smash(flagship):
    fam, env, _ = flagship
    assembly = assemble_gamma_quantization(fam, 0, env=env)
    report = bialgebra_axiom_defects(assembly, 2)
    assert report.all_zero
    limits = classical_limit_check(assembly, 2)
    assert not limits["product0"]


def test_flagship_axioms(flagship):
    fam, env, generic = flagship
    report = bialgebra_axiom_defects(generic, 2)
    assert report.all_zero, report.summary()


def test_flagship_classical_limits(flagship):
    fam, env, generic = flagship
    limits = classical_limit_check(generic, 2)
    assert all(not v for v in limits.values())


def test_flagship_v_cocycle(flagship):
    fam, env, generic = flagship
    assert not gamma_v_cocycle_defects(generic)


def test_abelian_family_assembly():
    # abelian algebra with a sign action and a nonzero twist family
    from liequant.groups import FiniteGroup, GammaLieBialgebra, GroupAction
    from liequant.lie import QuasitriangularData
    from liequant.tensors import LinearMap, Tensor
    ab = catalog.abelian(2)
    r = Tensor((ab.space, ab.space), {(0, 1): 1, (1, 0): -1})
    qt = QuasitriangularData(ab.lie, r)
    flip = LinearMap(ab.space, ab.space, [[0, 1], [1, 0]])
    action = GroupAction(FiniteGroup.cyclic(2), [LinearMap.identity(ab.space), flip])
    from liequant.groups import quasitriangular_gamma
    fam = quasitriangular_gamma(qt, action)
    assert not fam.f(1).is_zero()
    assembly = assemble_gamma_quantization(fam, 2)
    assert bialgebra_axiom_defects(assembly, 2).all_zero
    assert not gamma_v_cocycle_defects(assembly)


def test_direct_quasitriangular_assembly(flagship):
    fam, env, _ = flagship
    direct = quasitriangular_gamma_quantize(catalog.sl2_quasitriangular(),
                                            catalog.z2_cartan_action(), 2, env=env)
    report = bialgebra_axiom_defects(direct, 2)
    assert report.all_zero
    assert not gamma_v_cocycle_defects(direct)
    limits = classical_limit_check(direct, 1)
    assert all(not v for v in limits.values())


@pytest.mark.parametrize("name", catalog.GAMMA_FAMILIES)
def test_direct_assemblies_pass_their_check_table(name):
    # the direct assembly closes on the full check table: the intertwiners'
    # bracket and counit checks and the classical limit of Ad(F_g)∘Δ included
    parsed = parse_document(catalog.input_document(name))
    direct = quasitriangular_gamma_quantize(parsed.quasitriangular, parsed.gamma.action, 2)
    assert [ok for _, ok, _ in direct.checks] == [True] * 9


def test_direct_trivial_group_reduces_to_plain_quantization():
    from liequant.groups import FiniteGroup, GroupAction
    qt = catalog.sl2_quasitriangular()
    action = GroupAction.trivial(FiniteGroup.trivial(), qt.lie.space)
    direct = quasitriangular_gamma_quantize(qt, action, 2)
    assert bialgebra_axiom_defects(direct, 2).all_zero


@pytest.fixture(scope="module")
def conjugated_units(flagship):
    """The flagship with each non-identity transport conjugated by
    u = 1 + h x0 and every composition element replaced by 1.

    The flagship's transports compose strictly (T_g T_g = id), so units in
    place of its composition elements alone break only compatibility; the
    conjugated transports no longer compose strictly, so associativity
    breaks too."""
    fam, env, generic = flagship
    u = ElSeries(env, 1, [env.unit(1), El.term(((0,),)), El()])
    identity = MapSeries.identity(env, 2).tables
    t_map = {g: t if t.tables == identity else twisted_coproduct(t, u)
             for g, t in generic.t_map.items()}
    units = {pair: ElSeries.unit(env, 1, 2) for pair in generic.v_map}
    return GammaQuantization(env, generic.gamma, generic.cop, generic.f_map, t_map, units, 2)


def test_conjugated_transports_with_unit_compositions_break_associativity(conjugated_units):
    # counts recorded with the unscaled checks: scaling may not hide a defect
    report = bialgebra_axiom_defects(conjugated_units, 1)
    assert report.summary() == {"associativity": 96, "unit": 0, "coassociativity": 0,
                                "counit": 0, "compatibility": 24, "grading": 0}


def test_per_pair_accumulators_keep_every_failing_triple(conjugated_units):
    # many triples of one pair fail at d_in 2; counts recorded with the
    # one-accumulator-per-triple checks
    report = bialgebra_axiom_defects(conjugated_units, 2)
    assert report.summary() == {"associativity": 1800, "unit": 0, "coassociativity": 0,
                                "counit": 0, "compatibility": 170, "grading": 0}


@pytest.fixture(scope="module")
def s3_tables():
    """``solvable2-tri-s3``'s artifact tables with 1/997 in the generator-1
    coefficient of the order-2 composition element of the eighth pair label,
    and its parsed input."""
    from liequant.artifact import _assembly_to_json
    name = "solvable2-tri-s3"
    data = _assembly_to_json(assemble_gamma_quantization(catalog.gamma_family(name), 2))
    data["compositions"][sorted(data["compositions"])[7]][2]["1"] = "1/997"
    return data, parse_document(catalog.input_document(name))


@pytest.fixture(scope="module")
def shifted_s3(s3_tables):
    """The shifted tables read back through the artifact codec: a
    six-element group whose products carry defects."""
    from liequant.artifact import _assembly_from_json
    return _assembly_from_json(*s3_tables)[0]


@pytest.fixture(scope="module")
def shifted_s3_coproduct(s3_tables):
    """``shifted_s3`` with 1/991 as the x1 ⊗ x1 coefficient of generator 1's
    order-2 coproduct: a coproduct that is no algebra map."""
    from liequant.artifact import _assembly_from_json
    data, parsed = s3_tables
    data = copy.deepcopy(data)
    data["coproduct"]["1"][2]["1|1"] = "1/991"
    return _assembly_from_json(data, parsed)[0]


def _check_fused_against_plain_products(assembly):
    """The scaled one-pass checks report exactly the defects of the plain
    products at d_in 1, and do find some."""
    report = bialgebra_axiom_defects(assembly, 1)
    assert report.associativity
    basis = assembly.basis_up_to(1)
    s = {a: assembly.basis_series(*a) for a in basis}
    mul, cop = assembly.mul, assembly.coproduct

    def check(found, key, left, right):
        diff = [x - y for x, y in zip(left, right)]
        assert found.get(key) == (diff if any(diff) else None), key

    for a in basis:
        for b in basis:
            check(report.compatibility, (a, b), cop(mul(s[a], s[b])),
                  mul(cop(s[a]), cop(s[b]), k=2))
            ab = mul(s[a], s[b])
            for c in basis:
                check(report.associativity, (a, b, c), mul(ab, s[c]),
                      mul(s[a], mul(s[b], s[c])))


def test_fused_checks_match_plain_products(conjugated_units):
    _check_fused_against_plain_products(conjugated_units)


def test_fused_checks_match_plain_products_over_six_group_elements(shifted_s3):
    # packed tags over an 18-element window of six group elements, defect
    # series included
    _check_fused_against_plain_products(shifted_s3)


def test_fused_checks_match_plain_products_where_the_coproduct_is_no_algebra_map(
        shifted_s3_coproduct):
    # compatibility cannot be derived from the left factors [1|g] here, so
    # every left factor is evaluated; associativity is still derived
    assert shifted_s3_coproduct.coproduct_table["algebra-map"]
    assert bialgebra_axiom_defects(shifted_s3_coproduct, 1).compatibility
    _check_fused_against_plain_products(shifted_s3_coproduct)


def test_scaled_views_keep_uncleared_fractions_exact():
    source = [(0, 5, Q(1, 3)), (1, 5, Q(1, 2))]
    table, fill = _scaled_table(lambda code, upto: source, 4)
    assert fill("k", 1) == (1, [(0, 5, Q(4, 3)), (1, 5, 2)])
    assert table["k"][1] is fill("k", 1)[1]
    assert type(table["k"][1][1][2]) is int
    # unscaled, an entry is the source list itself
    table, fill = _scaled_table(lambda code, upto: source)
    assert fill("k", 0) == (0, source) and table["k"][1] is source


def _decoded(assembly, terms, k):
    """Cached terms ``(order, key, coeff)`` with their packed legs decoded."""
    return [(o, key, d) for o, legs, c in terms
            for key, d in assembly._series({legs: c}, 0, k)[0].data.items()]


def test_packed_fields_do_not_alias(flagship):
    # a leg code at the top of its field stays in it: the leg beside it
    # decodes as it was packed, and the tag above is dropped
    _, env, generic = flagship
    assembly = GammaQuantization(env, generic.gamma, generic.cop, generic.f_map,
                                 generic.t_map, generic.v_map, generic.order)
    low, high = (ONE, 0), ((0,), 1)
    low_key = assembly._key(low)
    assembly._leg_list += [None] * (packed._LEG_MASK - len(assembly._leg_list))
    high_key = assembly._key(high)
    assert high_key >> assembly._ob == packed._LEG_MASK
    key = (2 + high_key + (low_key << packed._LEG_BITS)
           + (3 << (assembly._ob + 2 * packed._LEG_BITS)))
    out = assembly._series({key: 5}, 2, 2)
    assert out[2].data == {(high, low): 5}
    # one leg more would overflow the field: refused, not aliased
    with pytest.raises(InternalCheckError):
        assembly._key(((1,), 0))
    # so would an order past the assembly's: the order field is sized by it
    with pytest.raises(InternalCheckError):
        generic.mul(generic.unit() + [El()], generic.unit() + [El()])


@pytest.fixture(scope="module")
def order3(flagship):
    fam, env, _ = flagship
    return assemble_gamma_quantization(fam, 3, env=env, seed_order=1)


def _fresh(assembly):
    """The assembly with empty caches, its coproduct's truncations included."""
    cop = CoproductSeries(assembly.env, assembly.order, [dict(t) for t in assembly.cop.tables])
    return GammaQuantization(assembly.env, assembly.gamma, cop, assembly.f_map,
                             assembly.t_map, assembly.v_map, assembly.order)


def test_budgeted_coproduct_fills_are_truncations_of_the_full_fill(order3):
    # leg codes follow fill order, so fills of two assemblies compare decoded
    n = order3.order
    full = _fresh(order3)
    shallow_first = {upto: _fresh(order3) for upto in range(n)}
    for mg in order3.basis_up_to(4):
        want = full._cop_key(mg, n)
        for upto in range(n + 1):
            cut = [t for t in want if t[0] <= upto]
            # deep then shallow: the deeper entry, read to the budget
            assert [t for t in full._cop_key(mg, upto) if t[0] <= upto] == cut, (mg, upto)
            if upto < n:
                # shallow then deep: a fresh fill to the budget, then the refill
                shallow = shallow_first[upto]
                assert (_decoded(shallow, shallow._cop_key(mg, upto), 2)
                        == _decoded(full, cut, 2)), (mg, upto)
                assert (_decoded(shallow, shallow._cop_key(mg, n), 2)
                        == _decoded(full, want, 2)), (mg, upto)


def test_coproduct_fills_extend_one_chain_per_monomial(order3):
    # a deeper fill extends the coproduct's extension of the monomial in
    # place: no truncation of the coproduct is made for a shallow fill
    assembly = _fresh(order3)
    for mg in order3.basis_up_to(3):
        assembly._cop_key(mg, 0)
        chain = assembly.cop._ext[mg[0]]
        assembly._cop_key(mg, order3.order)
        assert assembly.cop._ext[mg[0]] is chain and len(chain) == order3.order + 1
    assert not assembly.cop._truncations


def test_scaled_coproduct_view_serves_deep_requests_deep_terms(order3):
    n = order3.order
    assembly = _fresh(order3)
    full = _fresh(order3)
    table, fill = _scaled_table(assembly._cop_read, 6)
    for mg in order3.basis_up_to(2):
        key = assembly._key(mg)
        shallow = fill(key, 0)[1]
        assert {t[0] for t in shallow} == {0}
        want = [(o, legs, q(6 * c)) for o, legs, c in full._cop_key(mg, n)]
        assert table[key][1] is shallow
        assert _decoded(assembly, fill(key, n)[1], 2) == _decoded(full, want, 2), mg


def test_budgeted_slot_fills_are_truncations_of_the_full_fill(order3):
    n = order3.order
    full = _fresh(order3)
    shallow_first = {upto: _fresh(order3) for upto in range(n)}
    basis = order3.basis_up_to(2)
    for mg_a in basis:
        for mg_b in basis:
            want = full._slot((mg_a, mg_b), n)
            for upto in range(n + 1):
                cut = [t for t in want if t[0] <= upto]
                # deep then shallow: the deeper entry, read to the budget
                assert [t for t in full._slot((mg_a, mg_b), upto) if t[0] <= upto] == cut
                if upto < n:
                    # shallow then deep: a fill to the budget, then extended in place
                    shallow = shallow_first[upto]
                    assert (_decoded(shallow, shallow._slot((mg_a, mg_b), upto), 1)
                            == _decoded(full, cut, 1)), (mg_a, mg_b)
                    assert (_decoded(shallow, shallow._slot((mg_a, mg_b), n), 1)
                            == _decoded(full, want, 1)), (mg_a, mg_b)


def test_slot_product_is_the_two_product_construction(order3):
    # [m1|g1][m2|g2] = m1 · T_g1(m2) · v^{-1}, here with v's that are not units
    env, n = order3.env, order3.order
    v = ElSeries(env, 1, [env.unit(1), El.term(((0,),)), El.term(((1, 2),), Q(1, 2)), El()])
    skewed = GammaQuantization(env, order3.gamma, order3.cop, order3.f_map, order3.t_map,
                               {pair: v for pair in order3.v_map}, n)
    basis = order3.basis_up_to(2)
    for mg_a in basis:
        for mg_b in basis:
            (m1, g1), (m2, g2) = mg_a, mg_b
            left = ElSeries.constant(env, 1, n, El.term((m1,)))
            moved = ElSeries(env, 1, order3.t_map[g1].ext_mon(m2))
            series = left.mul(moved).mul(skewed.v_inv[(g1, g2)])
            gg = order3.group.mul(g1, g2)
            want = {(o, (mon, gg)): c for o, el in enumerate(series.coeffs)
                    for (mon,), c in el.data.items()}
            terms = skewed._slot_product(mg_a, mg_b)
            assert {(o, skewed._leg_of(legs)): c for o, legs, c in terms} == want, (mg_a, mg_b)
            assert len(terms) == len(want)
            assert [t[0] for t in terms] == sorted(t[0] for t in terms)


def test_compare_pipelines_flagship(flagship):
    fam, env, generic = flagship
    direct = quasitriangular_gamma_quantize(catalog.sl2_quasitriangular(),
                                            catalog.z2_cartan_action(), 2, env=env)
    witness = compare_pipelines(generic, direct, window=2)
    assert isinstance(witness, ComparisonWitness)


def test_compare_pipelines_abelian_explicit():
    from liequant.groups import FiniteGroup, GroupAction, quasitriangular_gamma
    from liequant.lie import QuasitriangularData
    from liequant.tensors import LinearMap, Tensor
    ab = catalog.abelian(2)
    r = Tensor((ab.space, ab.space), {(0, 1): 1, (1, 0): -1})
    qt = QuasitriangularData(ab.lie, r)
    flip = LinearMap(ab.space, ab.space, [[0, 1], [1, 0]])
    action = GroupAction(FiniteGroup.cyclic(2), [LinearMap.identity(ab.space), flip])
    fam = quasitriangular_gamma(qt, action)
    env = Envelope(ab.lie)
    generic = assemble_gamma_quantization(fam, 2, env=env)
    direct = quasitriangular_gamma_quantize(qt, action, 2, env=env)
    witness = compare_pipelines(generic, direct, window=2)
    assert isinstance(witness, ComparisonWitness)


def test_compare_rejects_mismatched_groups(flagship):
    fam, env, generic = flagship
    from liequant.errors import MathDefectError
    from liequant.groups import FiniteGroup, GroupAction
    qt = catalog.sl2_quasitriangular()
    action = GroupAction.trivial(FiniteGroup.trivial(), qt.lie.space)
    direct = quasitriangular_gamma_quantize(qt, action, 2, env=env)
    with pytest.raises(MathDefectError):
        compare_pipelines(generic, direct)


def test_assembly_is_deterministic(flagship):
    fam, env, generic = flagship
    again = assemble_gamma_quantization(fam, 2, env=Envelope(fam.bialgebra.lie))
    for g, series in generic.f_map.items():
        assert series.coeffs == again.f_map[g].coeffs
    for pair, series in generic.v_map.items():
        assert series.coeffs == again.v_map[pair].coeffs
    for g in generic.t_map:
        assert generic.t_map[g].tables == again.t_map[g].tables


def test_solvable_z2_assembly_full():
    fam = catalog.gamma_family("solvable2-tri-z2")
    assembly = assemble_gamma_quantization(fam, 2)
    assert bialgebra_axiom_defects(assembly, 2).all_zero
    assert not gamma_v_cocycle_defects(assembly)
    limits = classical_limit_check(assembly, 2)
    assert all(not v for v in limits.values())


def test_reshuffled_gauge_still_exact():
    # a different pinning order picks a different gauge representative;
    # every exact postcondition must be unaffected
    fam = catalog.gamma_family("solvable2-tri-z2")
    assembly = assemble_gamma_quantization(fam, 2, seed_order=20240817)
    assert bialgebra_axiom_defects(assembly, 2).all_zero
    assert not gamma_v_cocycle_defects(assembly)
    limits = classical_limit_check(assembly, 2)
    assert all(not v for v in limits.values())


def test_randomized_coboundary_bialgebras_solve():
    # seeded random r with invariant symmetric part over sl2: the induced
    # bialgebra is valid and the coproduct solver succeeds with exact defects
    import random

    from liequant.hquant.solvers import (algebra_compat_defect, coassoc_defect,
                                         classical_limit_defect, solve_coproduct)
    from liequant.lie import LieBialgebra, coboundary_cobracket
    from liequant.tensors import Tensor

    rng = random.Random(31415)
    lie = catalog.sl2_lie()
    casimir = Tensor((lie.space, lie.space), {(0, 1): 1, (1, 0): 1, (2, 2): "1/2"})
    for _ in range(3):
        anti = Tensor.zero((lie.space, lie.space))
        for i in range(3):
            for j in range(i + 1, 3):
                c = Q(rng.randint(-3, 3), rng.randint(1, 3))
                if c:
                    anti.data[(i, j)] = c
                    anti.data[(j, i)] = -c
        r = anti + Q(rng.randint(-2, 2)) * casimir
        bialg = LieBialgebra(lie, cobracket_tensors=coboundary_cobracket(lie, r))
        bialg.assert_valid()
        env = Envelope(lie)
        cop = solve_coproduct(bialg, 2, env)
        assert not algebra_compat_defect(bialg, cop)
        assert not coassoc_defect(cop)
        assert not classical_limit_defect(bialg, cop)


def test_solvable_z2_order_three():
    # higher truncation stays within the tight caps on the small algebra
    fam = catalog.gamma_family("solvable2-tri-z2")
    env = Envelope(fam.bialgebra.lie)
    assembly = assemble_gamma_quantization(fam, 3, env=env)
    assert bialgebra_axiom_defects(assembly, 2).all_zero
    assert not gamma_v_cocycle_defects(assembly)
    direct = quasitriangular_gamma_quantize(catalog.solvable2_triangular(),
                                            catalog.z2_solvable_action(), 3, env=env)
    witness = compare_pipelines(assembly, direct, window=2)
    assert isinstance(witness, ComparisonWitness)


def test_graded_k_mul_passes_a_tag_through(flagship):
    # the smash product, the order-0 product that compare's tangents
    # multiply in: as Envelope.k_mul, a tagged factor, on either side,
    # multiplies like the untagged terms of each tag, with the tag appended
    # to the product keys
    fam, env, _ = flagship
    smash = SmashAlgebra(env, fam.action)

    def tagged(el: El, tag: int) -> El:
        return El({key + (tag,): c for key, c in el.data.items()})

    for k, (a, c, b) in enumerate([
            (El([((((0,), 0),), 2), (((ONE, 1),), Fraction(1, 3))]),
             El([((((1, 2), 1),), -1)]),
             El([((((2,), 1),), 5), (((ONE, 0),), 1)])),
            (El([((((0,), 1), ((2,), 1)), Fraction(1, 2))]),
             El([(((ONE, 0), ((1,), 0)), 3), ((((2,), 1), (ONE, 1)), 1)]),
             El([((((1,), 1), ((0,), 1)), 4)]))], 1):
        bundle = tagged(a, 0) + tagged(c, 1)
        assert smash.k_mul(bundle, b, k) == (tagged(smash.k_mul(a, b, k), 0)
                                             + tagged(smash.k_mul(c, b, k), 1))
        assert smash.k_mul(b, bundle, k) == (tagged(smash.k_mul(b, a, k), 0)
                                             + tagged(smash.k_mul(b, c, k), 1))
        assert smash.k_mul(b, bundle, k)


def test_no_tangent_enters_the_packed_kernel(monkeypatch):
    # compare's column evaluations multiply their tangents in the smash
    # product, so every key the packed kernel makes or decodes during a
    # compare ends at its leg fields, with no tag above them
    fam = catalog.gamma_family("solvable2-tri-z2")
    env = Envelope(fam.bialgebra.lie)
    generic = assemble_gamma_quantization(fam, 2, env=env)
    direct = quasitriangular_gamma_quantize(catalog.solvable2_triangular(),
                                            catalog.z2_solvable_action(), 2, env=env)
    add_product, series = packed.PackedKernel._add_product, packed.PackedKernel._series
    above: list = []

    def checked_add_product(self, acc, a, b, n, k, table, fill):
        add_product(self, acc, a, b, n, k, table, fill)
        above.extend(key >> (self._ob + k * packed._LEG_BITS) for key in acc)

    def checked_series(self, acc, n, k, *args, **kwargs):
        above.extend(key >> (self._ob + k * packed._LEG_BITS) for key in acc)
        return series(self, acc, n, k, *args, **kwargs)

    monkeypatch.setattr(packed.PackedKernel, "_add_product", checked_add_product)
    monkeypatch.setattr(packed.PackedKernel, "_series", checked_series)
    assert isinstance(compare_pipelines(generic, direct, window=1), ComparisonWitness)
    assert above and not any(above)
