"""PBW envelope, smash product, co-Poisson layer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequant import catalog
from liequant.envelope import (CoPoissonStructure, Envelope, ONE, SmashAlgebra,
                               copoisson_axiom_defects, copoisson_delta)
from liequant.groups import GammaLieBialgebra
from liequant.sparse import El
from liequant.tensors import Tensor

Q = Fraction


@pytest.fixture(scope="module")
def sl2_env():
    return Envelope(catalog.sl2().lie)


@pytest.fixture(scope="module")
def cartan_smash():
    fam = catalog.gamma_family("sl2-cartan-z2")
    env = Envelope(fam.bialgebra.lie)
    return fam, SmashAlgebra(env, fam.action)


def term(*mons):
    return El.term(tuple(mons), Q(1))


def test_unit_law(sl2_env):
    a = term((0, 1, 2))
    assert sl2_env.k_mul(sl2_env.unit(1), a, 1) == a
    assert sl2_env.k_mul(a, sl2_env.unit(1), 1) == a


ENVS = {name: Envelope(bialg.lie)
        for name, bialg in (("sl2", catalog.sl2()), ("solvable2", catalog.solvable2()))}

# int, integral Fraction and true Fraction coefficients
COEFFICIENT = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(Fraction),
                        st.builds(Fraction, st.integers(-6, 6), st.integers(2, 6)))


def naive_k_mul(env: Envelope, a: El, b: El, k: int) -> dict:
    """Reference product on Fractions: every pair of terms, the straightened
    legs multiplied out term by term."""
    out: dict = {}
    for ka, ca in a.data.items():
        for kb, cb in b.data.items():
            legs = [env.straighten(ka[i] + kb[i]).items() for i in range(k)]
            for combo in itertools.product(*legs):
                c = Fraction(ca) * cb
                for _, d in combo:
                    c *= d
                key = tuple(m for m, _ in combo)
                out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


@st.composite
def k_mul_operands(draw):
    env = ENVS[draw(st.sampled_from(sorted(ENVS)))]
    k = draw(st.sampled_from([1, 2, 3]))
    mon = st.lists(st.integers(0, env.dim - 1), max_size=3).map(lambda m: tuple(sorted(m)))
    element = st.dictionaries(st.tuples(*[mon] * k), COEFFICIENT, max_size=4).map(El)
    return env, draw(element), draw(element), k


@settings(max_examples=300, deadline=None)
@given(k_mul_operands())
def test_k_mul_matches_fraction_reference(operands):
    env, a, b, k = operands
    product = env.k_mul(a, b, k)
    assert product.data == naive_k_mul(env, a, b, k)
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in product.data.values())


def test_defining_relation(sl2_env):
    e, f = term((0,)), term((1,))
    left = sl2_env.k_mul(e, f, 1) - sl2_env.k_mul(f, e, 1)
    assert left == term((2,))


def test_straightening_fixture(sl2_env):
    # f·e = (ordered monomial ef) - h in the PBW order e<f<h
    assert sl2_env.k_mul(term((1,)), term((0,)), 1) == \
        El({((0, 1),): Q(1), ((2,),): Q(-1)})


def test_associativity_in_window(sl2_env):
    mons = sl2_env.mons_up_to(2)
    for a, b, c in itertools.islice(itertools.product(mons, repeat=3), 0, None, 11):
        ea, eb, ec = term(a), term(b), term(c)
        left = sl2_env.k_mul(sl2_env.k_mul(ea, eb, 1), ec, 1)
        right = sl2_env.k_mul(ea, sl2_env.k_mul(eb, ec, 1), 1)
        assert left == right


def test_straightening_confluence_against_rightmost_oracle(sl2_env):
    """Independent oracle: reduce using the *rightmost* descent instead of
    the library's leftmost strategy; both normal forms must agree."""
    import random

    def oracle(env, word):
        acc = {}

        def reduce(w, coeff):
            descent = next((i for i in range(len(w) - 2, -1, -1)
                            if w[i] > w[i + 1]), None)
            if descent is None:
                acc[w] = acc.get(w, Q(0)) + coeff
                if not acc[w]:
                    del acc[w]
                return
            i = descent
            reduce(w[:i] + (w[i + 1], w[i]) + w[i + 2:], coeff)
            for k, c in env.lie.bracket_basis(w[i], w[i + 1]).items():
                reduce(w[:i] + (k,) + w[i + 2:], coeff * c)

        reduce(tuple(word), Q(1))
        return acc

    rng = random.Random(11)
    for _ in range(40):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 6)))
        assert sl2_env.straighten(word) == oracle(sl2_env, word), word


def test_top_degree_symbol_is_commutative(sl2_env):
    # the leading term of f·e equals the ordered monomial ef
    prod = sl2_env.k_mul(term((1,)), term((0,)), 1)
    top = {k: v for k, v in prod.data.items() if len(k[0]) == 2}
    assert top == {((0, 1),): Q(1)}


def test_smash_unit_and_relations(cartan_smash):
    fam, smash = cartan_smash
    sigma = El.term(((ONE, 1),), Q(1))
    e_gen = El.term((((0,), 0),), Q(1))
    assert smash.k_mul(smash.unit(), sigma) == sigma
    # [1|s][e|e] = [f|s]
    assert smash.k_mul(sigma, e_gen) == El.term((((1,), 1),), Q(1))
    # [1|s][1|s] = [1|e]
    assert smash.k_mul(sigma, sigma) == smash.unit()


def test_smash_grading_multiplicative(cartan_smash):
    fam, smash = cartan_smash
    for m, g in smash.basis_up_to(2):
        for m2, g2 in smash.basis_up_to(1):
            prod = smash.k_mul(El.term(((m, g),), Q(1)), El.term(((m2, g2),), Q(1)), 1)
            target = smash.group.mul(g, g2)
            assert all(key[0][1] == target for key in prod.data)


def test_smash_associativity(cartan_smash):
    fam, smash = cartan_smash
    basis = smash.basis_up_to(1)
    for a, b, c in itertools.islice(itertools.product(basis, repeat=3), 0, None, 7):
        ea, eb, ec = (El.term((x,), Q(1)) for x in (a, b, c))
        left = smash.k_mul(smash.k_mul(ea, eb, 1), ec, 1)
        right = smash.k_mul(ea, smash.k_mul(eb, ec, 1), 1)
        assert left == right


def test_smash_coproduct_values(cartan_smash):
    fam, smash = cartan_smash
    sigma = El.term(((ONE, 1),), Q(1))
    assert smash.coproduct_leg(sigma, 0) == El.term((((ONE), 1), (ONE, 1)), Q(1))
    x = El.term((((0,), 0),), Q(1))
    expected = El({(((0,), 0), (ONE, 0)): Q(1), ((ONE, 0), ((0,), 0)): Q(1)})
    assert smash.coproduct_leg(x, 0) == expected
    # primitive product gains cross terms
    xy = El.term((((0, 1), 0),), Q(1))
    d = smash.coproduct_leg(xy, 0)
    assert d.coeff((((0,), 0), ((1,), 0))) == Q(1)
    assert d.coeff((((1,), 0), ((0,), 0))) == Q(1)


def test_smash_coproduct_coassociative_and_counital(cartan_smash):
    fam, smash = cartan_smash
    for m, g in smash.basis_up_to(3):
        el = El.term(((m, g),), Q(1))
        d = smash.coproduct_leg(el, 0)
        assert smash.coproduct_leg(d, 0) == smash.coproduct_leg(d, 1)
        left = El()
        for key, c in d.data.items():
            if key[0][0] == ONE:
                left.add_term((key[1],), c)
        assert left == el


def test_copoisson_generator_values(cartan_smash):
    fam, smash = cartan_smash
    structure = CoPoissonStructure(smash, fam.bialgebra.cobracket_tables(), fam.twists)
    # delta([1|s]) = -[f_sigma | s,s]
    got = structure.delta_basis(ONE, 1)
    expected = El({(((1,), 1), ((0,), 1)): Q(-1), (((0,), 1), ((1,), 1)): Q(1)})
    assert got == expected
    # delta([h|e]) = 0 for the standard structure
    assert structure.delta_basis((2,), 0).is_zero()
    # trivial twists and cobracket give zero
    trivial = CoPoissonStructure(
        smash, [Tensor.zero((fam.bialgebra.space,) * 2) for _ in range(3)],
        [Tensor.zero((fam.bialgebra.space,) * 2) for _ in fam.group.elements()])
    assert trivial.delta_basis((0, 1), 1).is_zero()


def test_copoisson_axioms_flagship(cartan_smash):
    fam, smash = cartan_smash
    structure = copoisson_delta(fam, smash.env)
    report = copoisson_axiom_defects(structure, 2)
    assert all(not table for table in report.values()), {
        k: len(v) for k, v in report.items()}


def test_copoisson_well_definedness_degree3(cartan_smash):
    fam, smash = cartan_smash
    structure = CoPoissonStructure(smash, fam.bialgebra.cobracket_tables(), fam.twists)
    report = copoisson_axiom_defects(structure, 3)
    assert not report["derivation"]


def test_copoisson_mutation_breaks_axioms(cartan_smash):
    # violate condition (b): replace f_sigma by half its value
    fam, smash = cartan_smash
    broken = GammaLieBialgebra(fam.bialgebra, fam.action,
                               [fam.f(0), Fraction(1, 2) * fam.f(1)])
    structure = CoPoissonStructure(smash, broken.bialgebra.cobracket_tables(),
                                   broken.twists)
    report = copoisson_axiom_defects(structure, 2)
    assert report["coderivation"] or report["cojacobi"] or report["derivation"]


def test_copoisson_axioms_across_family_matrix():
    # every quasitriangular family output passes the axioms (small window)
    for name in catalog.GAMMA_FAMILIES:
        fam = catalog.gamma_family(name)
        structure = copoisson_delta(fam)
        report = copoisson_axiom_defects(structure, 1)
        assert all(not table for table in report.values()), name


def test_copoisson_trivial_case():
    ab = catalog.abelian(2)
    env = Envelope(ab.lie)
    from liequant.groups import FiniteGroup, GroupAction
    smash = SmashAlgebra(env, GroupAction.trivial(FiniteGroup.trivial(), ab.space))
    structure = CoPoissonStructure(smash, ab.cobracket_tables(),
                                   [Tensor.zero((ab.space, ab.space))])
    report = copoisson_axiom_defects(structure, 2)
    assert all(not table for table in report.values())


def tagged(el: El, tag: int) -> El:
    """``el`` with ``tag`` appended to every key, as a forward-mode tangent
    carries it."""
    return El({key + (tag,): c for key, c in el.data.items()})


def test_k_mul_passes_a_tag_through(sl2_env):
    # a tagged factor, on either side, multiplies like the untagged terms of
    # each tag, with the tag appended to the product keys
    a = El([(((0,), (1, 2)), Q(1, 2)), (((2,), ONE), 3)])
    c = El([(((0, 2), (1,)), 5), ((ONE, ONE), Q(-2, 7))])
    b = El([(((1,), (0,)), Q(2, 3)), ((ONE, (2, 2)), -1)])
    bundle = tagged(a, 0) + tagged(c, 1)
    assert sl2_env.k_mul(bundle, b, 2) == (tagged(sl2_env.k_mul(a, b, 2), 0)
                                           + tagged(sl2_env.k_mul(c, b, 2), 1))
    assert sl2_env.k_mul(b, bundle, 2) == (tagged(sl2_env.k_mul(b, a, 2), 0)
                                           + tagged(sl2_env.k_mul(b, c, 2), 1))
    assert sl2_env.k_mul(bundle, b, 2)


def test_counit_on_leg_0_of_one_leg_is_the_counit(sl2_env):
    for x in (El(), term((0,)), El([(((0,),), 2), ((ONE,), Q(1, 3))]), El([((ONE,), -1)])):
        assert sl2_env.counit_leg(x, 0) == El.term((), sl2_env.counit(x))
