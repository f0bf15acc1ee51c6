"""PBW-truncated enveloping algebra, smash product, and co-Poisson layer.

Monomials are nondecreasing index tuples; straightening moves larger indices
right by repeated bracket substitution, so every product is an exact finite
computation.  Degree windows are enforced by the public entry points: an
operation that could exceed the window refuses instead of truncating.

Element keys follow one convention throughout:
  * elements of the k-th tensor power of U: tuples of k monomials,
  * elements of the k-th tensor power of the smash product: tuples of k
    (monomial, group index) pairs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .errors import WindowOverflowError
from .groups import GroupAction
from .lie import LieAlgebra
from .sparse import El
from .tensors import LinearMap, Scalar, Tensor, q

Mon = tuple[int, ...]

ONE: Mon = ()


def key_deg(key) -> int:
    return sum(len(m) for m in key)


def _int_terms(data: dict):
    """``(d, terms)``: ``d`` is the lcm of the denominators of the values,
    and ``terms`` the ``(key, d·c)`` pairs, whose values are ``int``s."""
    d = 1
    for c in data.values():
        if type(c) is not int:
            d = lcm(d, c.denominator)
    if d == 1:
        return 1, data.items()
    return d, [(key, c.numerator * (d // c.denominator)) for key, c in data.items()]


def _descaled(acc: dict, d: int) -> dict:
    """``{key: c / d}`` over the nonzero ``c``, under the scalar rule.  ``c``
    is an ``int`` unless a structure constant (or an integral ``Fraction``
    operand) made it a ``Fraction``."""
    if d == 1:
        return {key: c if type(c) is int else q(c) for key, c in acc.items() if c}
    out = {}
    for key, c in acc.items():
        if c:
            if type(c) is int:
                quo, rem = divmod(c, d)
                out[key] = Fraction(c, d) if rem else quo
            else:
                out[key] = q(c / d)
    return out


class Envelope:
    """Multiplication, coproduct and counit of U(a) with straightening caches."""

    def __init__(self, lie: LieAlgebra):
        self.lie = lie
        self._straight: dict[Mon, dict[Mon, Scalar]] = {}
        self._coprod: dict[Mon, El] = {}
        self._linear: dict[tuple[LinearMap, Mon], dict[Mon, Scalar]] = {}

    @property
    def dim(self) -> int:
        return self.lie.dim

    # -- monomial arithmetic ---------------------------------------------------

    def straighten(self, word: tuple[int, ...]) -> dict[Mon, Scalar]:
        """Normal form of an arbitrary word as a combination of monomials."""
        cached = self._straight.get(word)
        if cached is not None:
            return cached
        descent = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
        if descent is None:
            result = {word: 1}
        else:
            i = descent
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
            result = dict(self.straighten(swapped))
            for k, c in self.lie.bracket_basis(word[i], word[i + 1]).items():
                contracted = word[:i] + (k,) + word[i + 2:]
                for m, d in self.straighten(contracted).items():
                    acc = result.get(m, 0) + c * d
                    if acc:
                        result[m] = acc
                    else:
                        result.pop(m, None)
        self._straight[word] = result
        return result

    def mul_mon(self, m1: Mon, m2: Mon) -> dict[Mon, Scalar]:
        return self.straighten(m1 + m2)

    def k_mul(self, a: El, b: El, k: int) -> El:
        """Componentwise product on the k-th tensor power of U.

        Each operand is scaled to integers by the lcm of its denominators, so
        the products and sums run on ints; each output coefficient is divided
        once, back under the scalar rule.  Each pair of terms is multiplied
        leg by leg.  Key elements past the ``k`` legs are a tag, which passes
        to the product key after its legs (a forward-mode tangent carries its
        unknown's tag there; at most one factor of a product is tagged)."""
        da, terms_a = _int_terms(a.data)
        db, terms_b = _int_terms(b.data)
        straighten = self.straighten
        acc: dict = {}
        get = acc.get
        for ka, ca in terms_a:
            for kb, cb in terms_b:
                partial = [((), ca * cb)]
                for leg in range(k):
                    legs = straighten(ka[leg] + kb[leg]).items()
                    partial = [(key + (m,), c * d) for key, c in partial for m, d in legs]
                tag = ka[k:] + kb[k:]
                for key, c in partial:
                    key += tag
                    acc[key] = get(key, 0) + c
        out = El()
        out.data = _descaled(acc, da * db)
        return out

    def unit(self, k: int) -> El:
        return El.term((ONE,) * k)

    # -- coalgebra structure ---------------------------------------------------

    def coproduct_mon(self, m: Mon) -> El:
        """Primitive-generator coproduct of a monomial (exact, arity 2)."""
        cached = self._coprod.get(m)
        if cached is not None:
            return cached
        if not m:
            result = self.unit(2)
        else:
            head = El({(((m[0],)), ONE): 1, (ONE, (m[0],)): 1})
            result = self.k_mul(head, self.coproduct_mon(m[1:]), 2)
        self._coprod[m] = result
        return result

    def counit(self, a: El, k: int = 1):
        return a.coeff((ONE,) * k)

    def counit_leg(self, a: El, leg: int) -> El:
        """Apply the counit on one leg of a tensor-power element."""
        out = El()
        for key, c in a.data.items():
            if key[leg] == ONE:
                out.add_term(key[:leg] + key[leg + 1:], c)
        return out

    # -- linear-map extension ----------------------------------------------------

    def apply_linear_mon(self, linmap: LinearMap, m: Mon) -> dict[Mon, Scalar]:
        """Multiplicative extension of a space map to a monomial."""
        cached = self._linear.get((linmap, m))
        if cached is not None:
            return cached
        if not m:
            result = {ONE: 1}
        else:
            tail = self.apply_linear_mon(linmap, m[1:])
            result = {}
            for i, c in linmap.column(m[0]).items():
                for mt, d in tail.items():
                    for mm, e in self.mul_mon((i,), mt).items():
                        acc = result.get(mm, 0) + c * d * e
                        if acc:
                            result[mm] = acc
                        else:
                            result.pop(mm, None)
        self._linear[(linmap, m)] = result
        return result

    def apply_linear(self, linmap: LinearMap, a: El) -> El:
        """Extension of a space map applied on every leg."""
        out = El()
        for key, c in a.data.items():
            partial = [(key, c)]
            for leg in range(len(key)):
                nxt = []
                for kk, cc in partial:
                    for mm, d in self.apply_linear_mon(linmap, kk[leg]).items():
                        nxt.append((kk[:leg] + (mm,) + kk[leg + 1:], cc * d))
                partial = nxt
            for kk, cc in partial:
                out.add_term(kk, cc)
        return out

    # -- embeddings and supports -------------------------------------------------

    def embed_tensor(self, t: Tensor) -> El:
        """Classical tensor-power element as degree-1 monomial legs."""
        out = El()
        for key, v in t.data.items():
            out.add_term(tuple((i,) for i in key), v)
        return out

    def mons_up_to(self, d: int) -> list[Mon]:
        out: list[Mon] = [ONE]
        for deg in range(1, d + 1):
            out.extend(itertools.combinations_with_replacement(range(self.dim), deg))
        return out

    def keys_up_to(self, k: int, leg_cap: int, total_cap: int) -> list[tuple[Mon, ...]]:
        """Sorted list of arity-k keys within the given degree caps."""
        mons = self.mons_up_to(min(leg_cap, total_cap))
        out = [key for key in itertools.product(mons, repeat=k) if key_deg(key) <= total_cap]
        out.sort()
        return out


class SmashAlgebra:
    """U(a) ⋊ Γ: the group acts by automorphism extensions."""

    def __init__(self, env: Envelope, action: GroupAction):
        self.env = env
        self.action = action
        self.group = action.group

    def unit(self, k: int = 1) -> El:
        e = self.group.identity
        return El.term(((ONE, e),) * k)

    def theta_mon(self, g: int, m: Mon) -> dict[Mon, Scalar]:
        return self.env.apply_linear_mon(self.action.theta(g), m)

    def k_mul(self, a: El, b: El, k: int = 1) -> El:
        """[m|g][m'|g'] = [m · theta_g(m') | gg'], componentwise on k slots."""
        out = El()
        grp = self.group
        for ka, ca in a.data.items():
            for kb, cb in b.data.items():
                partial = [((), ca * cb)]
                for slot in range(k):
                    m1, g1 = ka[slot]
                    m2, g2 = kb[slot]
                    gg = grp.mul(g1, g2)
                    nxt = []
                    for prefix, coeff in partial:
                        for mt, d in self.theta_mon(g1, m2).items():
                            for mm, e in self.env.mul_mon(m1, mt).items():
                                nxt.append((prefix + ((mm, gg),), coeff * (d * e)))
                    partial = nxt
                for key, coeff in partial:
                    out.add_term(key, coeff)
        return out

    def coproduct(self, a: El) -> El:
        """[m|g] ↦ sum [m(1)|g] ⊗ [m(2)|g]; exact (no truncation)."""
        out = El()
        for ((m, g),), c in a.data.items():
            for (m1, m2), d in self.env.coproduct_mon(m).data.items():
                out.add_term(((m1, g), (m2, g)), c * d)
        return out

    def coproduct_leg(self, a: El, leg: int) -> El:
        out = El()
        for key, c in a.data.items():
            m, g = key[leg]
            for (m1, m2), d in self.env.coproduct_mon(m).data.items():
                out.add_term(key[:leg] + ((m1, g), (m2, g)) + key[leg + 1:], c * d)
        return out

    def counit(self, a: El):
        # group-likes have counit 1: sum the coefficients of [1|g] over all g
        acc = 0
        for ((m, _g),), c in a.data.items():
            if m == ONE:
                acc = acc + c
        return acc

    def basis_up_to(self, d: int) -> list[tuple[Mon, int]]:
        return [(m, g) for m in self.env.mons_up_to(d) for g in self.group.elements()]


class CoPoissonStructure:
    """Generator table and derivation extension of the co-Poisson cobracket.

    On primitives it is the classical cobracket, on group-likes it is
    -f_g ⊗ (g, g); products extend by delta(ab) = delta(a)Delta(b) + Delta(a)delta(b).
    """

    def __init__(self, smash: SmashAlgebra, cobracket_tables: list[Tensor],
                 twists: list[Tensor]):
        self.smash = smash
        self.env = smash.env
        self.cobr = cobracket_tables
        self.twists = twists
        self._cache: dict[tuple[Mon, int], El] = {}

    def _delta_generator(self, i: int) -> El:
        """delta([x_i|e]) = [delta(x_i)|e,e]."""
        e = self.smash.group.identity
        out = El()
        for (p, r), v in self.cobr[i].data.items():
            out.add_term((((p,), e), ((r,), e)), v)
        return out

    def _delta_grouplike(self, g: int) -> El:
        """delta([1|g]) = -[f_g | g,g]."""
        out = El()
        for (p, r), v in self.twists[g].data.items():
            out.add_term((((p,), g), ((r,), g)), -v)
        return out

    def delta_basis(self, m: Mon, g: int) -> El:
        key = (m, g)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        e = self.smash.group.identity
        if not m:
            result = El() if g == e else self._delta_grouplike(g)
        else:
            head_delta = self._delta_generator(m[0])
            head_cop = El({(((m[0],), e), (ONE, e)): 1,
                           ((ONE, e), ((m[0],), e)): 1})
            tail = El.term(((m[1:], g),))
            tail_delta = self.delta_basis(m[1:], g)
            tail_cop = self.smash.coproduct(tail)
            result = self.smash.k_mul(head_delta, tail_cop, 2) + \
                self.smash.k_mul(head_cop, tail_delta, 2)
        self._cache[key] = result
        return result

    def delta(self, a: El) -> El:
        out = El()
        for ((m, g),), c in a.data.items():
            for key, d in self.delta_basis(m, g).data.items():
                out.add_term(key, c * d)
        return out

    def delta_leg(self, a: El, leg: int) -> El:
        out = El()
        for key, c in a.data.items():
            m, g = key[leg]
            for dkey, d in self.delta_basis(m, g).data.items():
                out.add_term(key[:leg] + dkey + key[leg + 1:], c * d)
        return out

    def delta_product_rule(self, a: El, b: El) -> El:
        """delta(a)Delta(b) + Delta(a)delta(b) for arity-1 inputs."""
        return self.smash.k_mul(self.delta(a), self.smash.coproduct(b), 2) + \
            self.smash.k_mul(self.smash.coproduct(a), self.delta(b), 2)


def copoisson_delta(gamma, env: Envelope | None = None) -> CoPoissonStructure:
    """Co-Poisson structure attached to a group twist family."""
    env = env or Envelope(gamma.bialgebra.lie)
    smash = SmashAlgebra(env, gamma.action)
    return CoPoissonStructure(smash, gamma.bialgebra.cobracket_tables(), gamma.twists)


def copoisson_axiom_defects(structure: CoPoissonStructure, d_in: int, window: int):
    """Exact defect report for the co-Poisson axioms on low-degree monomials.

    Checks, on every smash basis monomial of degree <= d_in:
    derivation well-definedness across factorizations, the coderivation
    identity, co-Jacobi, and preservation of the group grading.
    Requires window >= 2*d_in + 2 so no intermediate result is truncated.
    """
    if window < 2 * d_in + 2:
        raise WindowOverflowError(
            f"window {window} too small for inputs of degree {d_in} (need {2 * d_in + 2})")
    smash = structure.smash
    report = {
        "derivation": {},
        "coderivation": {},
        "cojacobi": {},
        "grading": {},
    }
    basis = smash.basis_up_to(d_in)
    for m, g in basis:
        one = El.term(((m, g),))
        delta = structure.delta_basis(m, g)

        # grading: all output slots carry the grading of the input
        bad = El({key: c for key, c in delta.data.items()
                  if any(gg != g for _, gg in key)})
        if bad:
            report["grading"][(m, g)] = bad

        # derivation rule independent of the factorization
        e = smash.group.identity
        splits = [(m[:p], e, m[p:], g) for p in range(1, len(m))]
        if m and g != e:
            splits.append((m, e, ONE, g))
        for m1, g1, m2, g2 in splits:
            a = El.term(((m1, g1),))
            b = El.term(((m2, g2),))
            diff = structure.delta_product_rule(a, b) - delta
            if diff:
                report["derivation"][(m, g, m1, m2)] = diff

        # coderivation: (Delta ⊗ id)∘delta = (id ⊗ delta)∘Delta + swap12∘(id ⊗ delta)∘Delta
        lhs = smash.coproduct_leg(delta, 0)
        rhs = structure.delta_leg(smash.coproduct(one), 1)
        swapped = El()
        for key, c in rhs.data.items():
            swapped.add_term((key[1], key[0], key[2]), c)
        diff = lhs - rhs - swapped
        if diff:
            report["coderivation"][(m, g)] = diff

        # co-Jacobi: cyclic sum of (delta ⊗ id)∘delta
        inner = structure.delta_leg(delta, 0)
        acc = El()
        for key, c in inner.data.items():
            acc.add_term(key, c)
            acc.add_term((key[1], key[2], key[0]), c)
            acc.add_term((key[2], key[0], key[1]), c)
        if acc:
            report["cojacobi"][(m, g)] = acc
    return report
