"""Group-graded quantization: assembly, axiom verification, comparison.

An assembled object stores, for every group element, a quantized twist and a
slot-transport map, and for every pair a composition element.  The product
and coproduct read

    [x|g][x'|g'] = [x · T_g(x') · v_{g,g'}^{-1} | gg'],
    Delta([x|g]) = [Delta(x) · F_g^{-1} | g,g],

which covers the generic (solver-built) pipeline and the direct
quasitriangular one (T_g the plain action extension, v = 1, base coproduct
conjugated by the solved r-matrix element) in one representation.

Products and coproducts run on the packed-int kernel of
:mod:`liequant.hquant.packed`: every key ``(order, legs..., tag)`` is one
int, and ``_series`` is the one place where keys become legs again.  The
slot product ``[m1|g1][m2|g2]`` and the coproduct of each basis element
``[m|g]`` are cached as flat term lists ``(order, legs, coeff)`` sorted by
order, ``legs`` the packed legs.  A term of order ``o`` asks for the slot
products and leg images it meets only to order ``n - o``, so a cache entry
is filled to the order its first caller needs and extended in place when a
later caller needs more; most high-degree monomials appear only at high
orders and are filled at order 0 alone.  A slot entry is ``m1 · R`` with
the right factor ``R = T_{g1}(m2) · v_{g1,g2}^{-1}`` made once per
``(g1, m2, g2)``; a coproduct entry extends the coproduct's one chain of
images of ``m``.

The axiom checks read the window's products and coproducts straight from
the caches (a basis element is one order-0 unit term), accumulate
``left - right`` of each identity on denominator-scaled ints, one
accumulator per pair ``(a, b)`` whose tags tell the third factors apart, and
test it for zero.  Slot entries are looked up inline by the packed code of
their pair: ``(ab)c`` reads the entries of each leg of ``ab`` with every
``c``, and ``a(bc)`` the entry ``a · leg`` of each term of every ``bc``,
one list sorted by order per ``b``.

Both identities with a left factor are evaluated for ``[1|g]`` only; the
defect of every other left factor ``[m|g]`` is derived from it exactly,
and only where the defect of ``[1|g]`` is nonzero.  ``m·`` and ``Delta(m)·``
multiply in U(a) and U(a)⊗U(a) order by order and keep the group labels.

Associativity, ``D(a, b, c) = (ab)c - a(bc)``:

1. ``[m|g][y|k] = [m · T_g(y) v_{g,k}^{-1} | gk] = m · ([1|g][y|k])``: the
   slot entry, by construction.
2. ``[m|g] X = m · ([1|g] X)`` for every X, by linearity of step 1.
3. ``(m · Y) c = m · (Y c)``: U(a)[[h]] is associative, as ``jacobi`` holds.
4. ``([m|g] b) c = m · (([1|g] b) c)``, by steps 2 and 3.
5. ``[m|g] (bc) = m · ([1|g] (bc))``, by step 2.
6. ``D([m|g], b, c) = m · D([1|g], b, c)``, by steps 4 and 5.

Compatibility, ``D(a, b) = Delta(ab) - Delta(a) Delta(b)``, with
``Delta(m) = cop.ext_mon(m)``:

1. ``Delta([x|g]) = [Delta(x) F_g^{-1} | g,g]``: the coproduct, by construction.
2. ``Delta(m · x) = Delta(m) Delta(x)`` on U(a): ``coproduct-algebra-map``
   passes, so the extension to monomials is multiplicative.
3. ``Delta([m|g] b) = Delta(m · ([1|g] b)) = Delta(m) · Delta([1|g] b)``, by
   product step 2 and steps 1 and 2.
4. ``Delta([m|g]) = Delta(m) · Delta([1|g])``, by step 1.
5. ``(Delta(m) · Z) Delta(b) = Delta(m) · (Z Delta(b))``: product step 2 on
   each leg, and U(a)⊗U(a)[[h]] is associative (``jacobi``).
6. ``D([m|g], b) = Delta(m) · D([1|g], b)``, by steps 3 to 5.

Both derivations take ``jacobi`` as a precondition: the CLI checks it before
any window check.  Where ``coproduct-algebra-map`` fails, compatibility is
evaluated for every left factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from ..envelope import Envelope, Mon, ONE, SmashAlgebra
from ..errors import InternalCheckError, MathDefectError, SolverInconsistencyError
from ..groups import GammaLieBialgebra, GroupAction, quasitriangular_gamma
from ..sparse import El
from ..tensors import q
from .core import CoproductSeries, DualMap, DualSeries, ElSeries, MapSeries, product_coeff
from .packed import _LEG_BITS, PackedKernel, _arity, _scaled_table
from .pipeline import gamma_v_cocycle_defects
from .solvers import (GaugeLog, _solve_with_supports, _support_ladder, antisymmetric_part,
                      composition_defect, conjugation_defect, coproduct_defects, iso_defects,
                      solve_composition_v, solve_coproduct, solve_j_conjugator,
                      solve_twist_pair, twist_defects, twisted_coproduct, v_cocycle_defect)
from .unknowns import Columns, LinearisedDefect, blocks, candidate, candidate_map

class GammaQuantization(PackedKernel):
    """Deformed product/coproduct tables over U(a) ⋊ Γ modulo h^{N+1}, a
    quantization of the Γ-family ``gamma``.

    An assembly is immutable after construction, so the caches, the derived
    family data and the check table below are computed at most once.
    """

    def __init__(self, env: Envelope, gamma: GammaLieBialgebra, cop: CoproductSeries,
                 f_map: dict[int, ElSeries], t_map: dict[int, MapSeries],
                 v_map: dict[tuple[int, int], ElSeries], order: int):
        super().__init__(order)
        self.env = env
        self.gamma = gamma
        self.group = gamma.group
        self.cop = cop
        self.f_map = f_map
        self.t_map = t_map
        self.v_map = v_map
        self.f_inv = {g: s.inverse() for g, s in f_map.items()}
        self.v_inv = {pair: s.inverse() for pair, s in v_map.items()}
        self._right_factors: dict = {}
        self._slot_cache: dict = {}
        self._slot_depth: dict = {}
        self._cop_cache: dict = {}
        self._cop_depth: dict = {}

    # -- elements ---------------------------------------------------------------

    def unit(self, k: int = 1) -> list[El]:
        e = self.group.identity
        out = [El() for _ in range(self.order + 1)]
        out[0] = El.term(((ONE, e),) * k)
        return out

    def basis_series(self, m: Mon, g: int) -> list[El]:
        out = [El() for _ in range(self.order + 1)]
        out[0] = El.term(((m, g),))
        return out

    def basis_up_to(self, d: int) -> list[tuple[Mon, int]]:
        return [(m, g) for m in self.env.mons_up_to(d) for g in self.group.elements()]

    # -- product ------------------------------------------------------------------

    def _slot(self, pair, upto: int) -> list[tuple]:
        """``[m1|g1][m2|g2]`` for ``pair = ((m1, g1), (m2, g2))``, modulo
        h^{upto+1} at least, as flat terms ``(order, legs, coeff)`` sorted by
        order, ``legs`` the packed key of ``(mon, g1 g2)``.

        An entry is ``m1 · R`` with the right factor
        ``R = T_{g1}(m2) · v_{g1,g2}^{-1}``, made once per ``(g1, m2, g2)`` to
        the full order.  It is filled to the order its caller reads; a deeper
        read appends the orders it adds, and a shallower one reads the deeper
        entry.  ``_slot_depth`` holds the order each entry reaches.
        """
        upto = min(upto, self.order)
        depth = self._slot_depth.get(pair, -1)
        if depth >= upto:
            return self._slot_cache[pair]
        (m1, g1), (m2, g2) = pair
        right = self._right_factors.get((g1, m2, g2))
        if right is None:
            right = self._right_factors[(g1, m2, g2)] = ElSeries(
                self.env, 1, self.t_map[g1].ext_mon(m2)).mul(self.v_inv[(g1, g2)]).coeffs
        gg = self.group.mul(g1, g2)
        key = self._key
        left = El.term((m1,))
        terms = self._slot_cache.setdefault(pair, [])
        for o in range(depth + 1, upto + 1):
            if right[o]:
                # cached coefficients feed every product: keep them under the scalar rule
                terms += [(o, key((mon, gg)), q(c))
                          for (mon,), c in self.env.k_mul(left, right[o], 1).data.items()]
        self._slot_depth[pair] = upto
        return terms

    def _slot_product(self, mg_a, mg_b) -> list[tuple]:
        """``[m1|g1][m2|g2]`` to the full order: the slot read of ``mul``."""
        return self._slot((mg_a, mg_b), self.order)

    def _slot_read(self, code: int, upto: int) -> list[tuple]:
        """The slot entry of a packed pair code, for ``_scaled_table``."""
        return self._slot(self._pair(code), upto)

    def mul(self, a: list[El], b: list[El], k: int = 1) -> list[El]:
        if isinstance(a, DualSeries):
            return a.mul(b)
        if len(a) != len(b):
            raise ValueError("series order mismatch")
        acc: dict = {}
        self._add_product(acc, self._left(self._flat(a), k),
                          self._right([term + (0,) for term in self._flat(b)], k), len(a) - 1, k,
                          *_scaled_table(lambda code, _upto: self._slot_product(*self._pair(code))))
        return self._series(acc, len(a) - 1, k)

    # -- coproduct -----------------------------------------------------------------

    def _cop_key(self, mg, upto: int) -> list[tuple]:
        """``Delta([m|g])`` modulo h^{upto+1} at least, as flat terms
        ``(order, legs, coeff)`` sorted by order, ``legs`` the packed keys of
        ``((m1, g), (m2, g))``.

        An entry is filled to the order its first caller needs, from the
        coproduct's extension of ``m``, which is itself extended in place,
        and ``F_g^{-1}``; a later request for more orders appends the orders
        it adds, and one for fewer orders reads the deeper entry (so it may
        get more orders than it asked for).  ``_cop_depth`` holds the order
        each entry reaches.
        """
        depth = self._cop_depth.get(mg, -1)
        if depth >= upto:
            return self._cop_cache[mg]
        m, g = mg
        ext = self.cop.ext_mon(m, upto)
        terms = self._cop_cache.setdefault(mg, [])
        key = self._key
        for o in range(depth + 1, upto + 1):
            el = product_coeff(self.env, 2, ext, self.f_inv[g].coeffs, o)
            terms += [(o, key((m1, g)) + (key((m2, g)) << _LEG_BITS), q(c))
                      for (m1, m2), c in el.data.items()]
        self._cop_depth[mg] = upto
        return terms

    def _cop_read(self, key: int, upto: int) -> list[tuple]:
        """The coproduct entry of a packed leg key, for ``_scaled_table``."""
        return self._cop_key(self._leg_of(key), upto)

    def coproduct(self, a: list[El]) -> list[El]:
        if isinstance(a, DualSeries):
            # a dual's algebra is the smash product, this structure's order 0 (see ``_phi``)
            return a.map_leg(0, lambda mg: a.alg.coproduct_leg(El.term((mg,)), 0), None, 2)
        return self.coproduct_leg(a, 0)

    def coproduct_leg(self, a: list[El], leg: int) -> list[El]:
        acc: dict = {}
        n = len(a) - 1
        self._add_coproduct(acc, [(o + legs, c) for o, legs, c in self._flat(a)], n, leg,
                            *_scaled_table(self._cop_read))
        return self._series(acc, n, _arity(a) + 1)

    def counit(self, a: list[El]):
        out = []
        for el in a:
            acc = 0
            for ((m, _g),), c in el.data.items():
                if m == ONE:
                    acc = acc + c
            out.append(acc)
        return out

    def counit_leg(self, a: list[El], leg: int) -> list[El]:
        out = []
        for el in a:
            reduced = El()
            for key, c in el.data.items():
                if key[leg][0] == ONE:
                    reduced.add_term(key[:leg] + key[leg + 1:], c)
            out.append(reduced)
        return out

    def grading_defect_keys(self, a: list[El], grades: tuple[int, ...]) -> list:
        bad = []
        for el in a:
            for key in el.data:
                if tuple(g for _, g in key) != grades:
                    bad.append(key)
        return bad

    # -- family identities ---------------------------------------------------------

    @cached_property
    def family_defects(self) -> tuple[dict, dict, dict]:
        """Nonzero defects of the three family identities, in one pass.

        Twist composition and conjugation per pair ``(g, h)`` (conjugation as
        ``{generator: defect}``), and coherence per triple ``(g, h, l)``.
        """
        grp = self.group
        composition: dict = {}
        conjugation: dict = {}
        for g in grp.elements():
            for h in grp.elements():
                gh = grp.mul(g, h)
                v = self.v_map[(g, h)]
                pulled = self.t_map[g].apply_all_legs(self.f_map[h])
                defect = composition_defect(self.env, self.f_map[gh], pulled,
                                            self.f_map[g], self.cop, v)
                if not defect.is_zero():
                    composition[(g, h)] = defect
                composed = self.t_map[g].compose(self.t_map[h])
                per_generator = {}
                for i in range(self.env.dim):
                    defect = conjugation_defect(self.t_map[gh], composed, v, i)
                    if not defect.is_zero():
                        per_generator[i] = defect
                if per_generator:
                    conjugation[(g, h)] = per_generator
        return composition, conjugation, gamma_v_cocycle_defects(self)

    @cached_property
    def intertwiners(self) -> dict[int, MapSeries]:
        """The intertwiner of each element, θ_g ∘ T_g⁻¹."""
        return {g: MapSeries.from_linear(self.env, self.order, self.gamma.action.theta(g))
                .compose(t.inverse()) for g, t in sorted(self.t_map.items())}

    @cached_property
    def coproduct_table(self) -> dict[str, dict]:
        """The coproduct's defect table (``coproduct_defects``), read by the
        check table and by the window checks, which derive compatibility only
        where its ``algebra-map`` entry passes."""
        return coproduct_defects(self.gamma.bialgebra, self.cop)

    @cached_property
    def checks(self) -> list[tuple[str, bool, str]]:
        """The generator-level check table, ``(name, ok, detail)`` per entry in
        report order: the coproduct's defect table; every twist's, an entry
        passing where every element's does; every intertwiner's, as
        ``transport-intertwining``; and the family identities, whose detail
        names the first defect (per pair twist composition, then conjugation;
        then coherence).  Both assemblies close on it and the verifier
        reports it, so a job evaluates each of these identities once."""
        bialg, cop = self.gamma.bialgebra, self.cop
        out = [(f"coproduct-{name}", not defects, "")
               for name, defects in self.coproduct_table.items()]
        twists = [twist_defects(bialg, cop, self.f_map[g], self.gamma.f(g))
                  for g in self.group.elements()]
        out += [(f"twist-{name}", not any(table[name] for table in twists), "")
                for name in twists[0]]
        isos = [iso_defects(bialg, twisted_coproduct(cop, self.f_map[g]),
                            cop.pushforward(self.gamma.action.theta(g)), iso)
                for g, iso in self.intertwiners.items()]
        out.append(("transport-intertwining", not any(any(t.values()) for t in isos), ""))
        composition, conjugation, coherence = self.family_defects
        pair = min(composition.keys() | conjugation.keys(), default=None)
        kind = "twist-composition" if pair in composition else "conjugation"
        detail = (f"family {kind} defect at {pair}" if pair is not None else
                  f"family coherence defect at {next(iter(coherence))}" if coherence else "")
        return out + [("family-identities", not detail, detail)]

    def closed(self) -> "GammaQuantization":
        """The assembly, once every entry of its check table passes."""
        for name, ok, detail in self.checks:
            if not ok:
                raise InternalCheckError(f"{name} check fails" + (f": {detail}" if detail else ""))
        return self


# ---------------------------------------------------------------------------
# assembly of the generic pipeline
# ---------------------------------------------------------------------------


def assemble_gamma_quantization(g_bialg: GammaLieBialgebra, order: int,
                                env: Envelope | None = None,
                                log: GaugeLog | None = None,
                                cap: int | None = None,
                                seed_order: int | None = None) -> GammaQuantization:
    """Solver-built group-graded quantization with the aligned-gauge policy.

    Per-element data: target coproducts are action pushforwards of the one
    solved base coproduct; twists and intertwiners are solved per element;
    composition elements are solved per pair and then aligned across the
    whole family by a primitive-shift correction solve at each order.
    """
    g_bialg.assert_valid()
    bialg = g_bialg.bialgebra
    env = env or Envelope(bialg.lie)
    log = log or GaugeLog()
    grp = g_bialg.group
    e = grp.identity

    cop = solve_coproduct(bialg, order, env, log, cap=cap, seed_order=seed_order)

    f_map: dict[int, ElSeries] = {e: ElSeries.unit(env, 2, order)}
    t_map: dict[int, MapSeries] = {e: MapSeries.identity(env, order)}
    for g in grp.elements():
        if g == e:
            continue
        theta = g_bialg.action.theta(g)
        target = cop.pushforward(theta)
        f_series, iso = solve_twist_pair(bialg, cop, g_bialg.f(g), target, order,
                                         log=log, cap=cap, seed_order=seed_order)
        f_map[g] = f_series
        t_map[g] = iso.inverse().compose(MapSeries.from_linear(env, order, theta))

    # composition elements, order by order with family alignment
    pairs = [(g, h) for g in grp.elements() for h in grp.elements()
             if g != e and h != e]
    v_coeffs: dict[tuple[int, int], list[El]] = {}
    for g in grp.elements():
        for h in grp.elements():
            if g == e or h == e:
                v_coeffs[(g, h)] = [env.unit(1)] + [El() for _ in range(order)]
    for pair in pairs:
        v_coeffs[pair] = [env.unit(1)]

    pulled = {(g, h): t_map[g].apply_all_legs(f_map[h]) for g, h in pairs}
    composed = {(g, h): t_map[g].compose(t_map[h]) for g, h in pairs}

    for k in range(1, order + 1):
        for pair in pairs:
            g, h = pair
            gh = grp.mul(g, h)
            v_new = solve_composition_v(
                env, f_map[gh].truncated(k), pulled[pair].truncated(k),
                f_map[g].truncated(k), cop.truncated(k), v_coeffs[pair], log=log, cap=cap,
                seed_order=seed_order)
            v_coeffs[pair] = v_new.coeffs
        _align_family_order(env, g_bialg, t_map, composed, v_coeffs, pairs, k, log)

    v_map = {pair: ElSeries(env, 1, coeffs) for pair, coeffs in v_coeffs.items()}
    for pair, series in v_map.items():
        if len(series.coeffs) != order + 1:
            raise InternalCheckError("composition series has wrong truncation")

    return GammaQuantization(env, g_bialg, cop, f_map, t_map, v_map, order).closed()


def _align_family_order(env: Envelope, g_bialg, t_map, composed, v_coeffs, pairs, k: int,
                        log: GaugeLog):
    """Primitive-shift correction making the pair family coherent at order k.

    ``composed`` holds ``T_g ∘ T_h`` per pair, composed once for all orders.

    The per-pair solves determine each composition element only up to a
    primitive summand per order; this solve pins those summands so that the
    conjugation identity and the pairwise coherence identity hold exactly.
    Primitive shifts leave the twist-composition relation at this order
    untouched, so the corrected family still satisfies it.
    """
    grp = g_bialg.group
    n = env.dim

    def defect(top, m):
        """Both identities at order m with ``top`` added to the order-m
        coefficients."""

        def v(g, h):
            return candidate(env, 1, v_coeffs[(g, h)], m, top, (g, h))

        conjugation = {}
        for g, h in pairs:
            v_gh = v(g, h)
            for i in range(n):
                conjugation[((g, h), i)] = conjugation_defect(
                    t_map[grp.mul(g, h)], composed[(g, h)], v_gh, i)[m]
        coherence = {}
        for g in grp.elements():
            for h in grp.elements():
                for l in grp.elements():
                    gh, hl = grp.mul(g, h), grp.mul(h, l)
                    coherence[(g, h, l)] = v_cocycle_defect(
                        env, v(gh, l), v(g, h), v(g, hl),
                        t_map[g].apply_leg(v(h, l), 0))[m]
        return blocks(conjugation, coherence)

    primitives = [((i,),) for i in range(n)]
    try:
        shifts = _solve_with_supports(
            "v-alignment", k, [("primitive shifts", [(pair, primitives) for pair in pairs])],
            LinearisedDefect(defect, k), log)
    except SolverInconsistencyError:
        raise InternalCheckError(f"family alignment at order {k} is inconsistent") from None
    corrected_pairs = 0
    for pair, c_el in shifts.items():
        if c_el:
            corrected_pairs += 1
            v_coeffs[pair][k] = v_coeffs[pair][k] + c_el
    if corrected_pairs:
        log.note(f"order {k}: primitive correction applied to {corrected_pairs} pairs")


# ---------------------------------------------------------------------------
# direct quasitriangular pipeline
# ---------------------------------------------------------------------------


def quasitriangular_gamma_quantize(qt, action: GroupAction, order: int,
                                   env: Envelope | None = None,
                                   log: GaugeLog | None = None,
                                   cap: int | None = None,
                                   seed_order: int | None = None) -> GammaQuantization:
    """Undeformed smash product with the conjugated coproduct, a quantization
    of the Γ-family that ``qt`` and ``action`` induce."""
    env = env or Envelope(qt.lie)
    log = log or GaugeLog()
    g_bialg = quasitriangular_gamma(qt, action)  # re-verifies all preconditions
    j_series, cop = solve_j_conjugator(qt, order, env, log, cap=cap, seed_order=seed_order)
    grp = action.group
    j_inv = j_series.inverse()
    f_map: dict[int, ElSeries] = {}
    t_map: dict[int, MapSeries] = {}
    v_map: dict[tuple[int, int], ElSeries] = {}
    for g in grp.elements():
        theta = MapSeries.from_linear(env, order, action.theta(g))
        f_map[g] = theta.apply_all_legs(j_series).mul(j_inv)
        t_map[g] = theta
        for h in grp.elements():
            v_map[(g, h)] = ElSeries.unit(env, 1, order)
    return GammaQuantization(env, g_bialg, cop, f_map, t_map, v_map, order).closed()


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    associativity: dict = field(default_factory=dict)
    unit: dict = field(default_factory=dict)
    coassociativity: dict = field(default_factory=dict)
    counit: dict = field(default_factory=dict)
    compatibility: dict = field(default_factory=dict)
    grading: dict = field(default_factory=dict)

    @property
    def all_zero(self) -> bool:
        return not any((self.associativity, self.unit, self.coassociativity,
                        self.counit, self.compatibility, self.grading))

    def summary(self) -> dict:
        return {
            "associativity": len(self.associativity),
            "unit": len(self.unit),
            "coassociativity": len(self.coassociativity),
            "counit": len(self.counit),
            "compatibility": len(self.compatibility),
            "grading": len(self.grading),
        }


def bialgebra_axiom_defects(assembly: GammaQuantization, d_in: int) -> AxiomReport:
    """Exact axiom defects on all smash monomials of degree <= d_in.

    Associativity and compatibility are evaluated for the left factors
    ``[1|g]`` and derived exactly for every other left factor ``[m|g]``
    (see the module docstring), compatibility only where the coproduct's
    ``algebra-map`` entry passes; where it fails, every left factor is
    evaluated.  The bracket must satisfy Jacobi (``jacobi`` passes), so
    that U(a) is associative.
    """
    report = AxiomReport()
    basis = assembly.basis_up_to(d_in)
    n = assembly.order
    grp = assembly.group
    env = assembly.env
    key = assembly._key
    keys = [key(a) for a in basis]
    units = [a for a in basis if a[0] == ONE]
    compat_lefts = basis if assembly.coproduct_table["algebra-map"] else units

    # A basis element is one order-0 unit term, so the window's products and
    # coproducts are cache entries: the slot products [a][b] and Delta([a]).
    for a in basis:
        for b in basis:
            assembly._slot((a, b), n)
        assembly._cop_key(a, n)

    # Associativity and compatibility accumulate left - right per identity,
    # with every slot product scaled by the common denominator s of the
    # cached ones, and every coproduct by t, that of the cached coproducts.
    # Both sides of an identity carry the same powers of s and t (the left
    # side of compatibility is multiplied by s t to match), so the zero test
    # is unchanged; it runs on ints wherever s and t clear a denominator, on
    # exact Fractions elsewhere.
    s = math.lcm(1, *(c.denominator for terms in assembly._slot_cache.values()
                      for _, _, c in terms))
    t = math.lcm(1, *(c.denominator for terms in assembly._cop_cache.values()
                      for _, _, c in terms))
    slots, fill = _scaled_table(assembly._slot_read, s)
    cops, cop_fill = _scaled_table(assembly._cop_read, t)

    products: dict = {}
    for a, key_a in zip(basis, keys):
        for b, key_b in zip(basis, keys):
            ab = products[(a, b)] = fill(key_a + (key_b << _LEG_BITS), n)[1]
            gg = grp.mul(a[1], b[1])
            bad = [(leg,) for leg in map(assembly._leg_of, (legs for _, legs, _ in ab))
                   if leg[1] != gg]
            if bad:
                report.grading[(a, b)] = bad

    # A derived accumulator (module docstring) of a = [m|g] is L · D, D that
    # of [1|g] and L the left factor m (k = 1) or Delta(m) (k = 2), whose legs
    # are (m_i, e).  The kernel reads the product of a leg (m, e) of L with a
    # leg (x, h) of D from ``left_mul``: the exact order-0 entry (m x, h).
    e = grp.identity
    order_mask = (1 << assembly._ob) - 1
    left_mul: dict = {}

    def left_mul_fill(code, _upto):
        (m, _), (x, h) = assembly._pair(code)
        entry = left_mul[code] = (n, [(0, key((mon, h)), q(c)) for (mon,), c in
                                      env.k_mul(El.term((m,)), El.term((x,)), 1).data.items()])
        return entry

    def left_factor(m: Mon, k: int) -> list[tuple]:
        if k == 1:
            return [(0, key((m, e)), 1)]
        return [(o, key((m1, e)) + (key((m2, e)) << _LEG_BITS), q(c))
                for o, el in enumerate(assembly.cop.ext_mon(m, n)[: n + 1])
                for (m1, m2), c in el.data.items()]

    def per_pair(lefts: list, accs: dict, k: int):
        """``(a, b, acc)`` for every window pair in window order, keys of
        ``k`` legs: ``accs[(a, b)]`` where ``a`` is one of the evaluated
        ``lefts``, else derived; ``acc`` is empty where the identity holds."""
        evaluated, factors = set(lefts), {}
        high = assembly._ob + k * _LEG_BITS
        for a in basis:
            for b in basis:
                acc = accs.get((a, b) if a in evaluated else ((ONE, a[1]), b), {})
                if acc and a not in evaluated:
                    # D's tags, above its legs, pass to the products
                    right = sorted(((at & order_mask, at & ((1 << high) - 1) & ~order_mask, c,
                                     (at >> high) << high) for at, c in acc.items() if c),
                                   key=itemgetter(0))
                    if a[0] not in factors:
                        factors[a[0]] = assembly._left(left_factor(a[0], k), k)
                    acc = {}
                    assembly._add_product(acc, factors[a[0]], assembly._right(right, k), n, k,
                                          left_mul, left_mul_fill)
                yield a, b, acc

    # One accumulator per pair (a, b) holds the identities of every c, each
    # product tagged with the index of c in the field above its leg.
    tag_shift = assembly._ob + _LEG_BITS
    # (ab)c: the row of each leg x of a product is [x] times every c, made
    # once by the kernel to the order its lowest-order term in a product
    # leaves, and sorted by order
    every_c = assembly._right([(0, key_c, 1, tag << tag_shift) for tag, key_c in enumerate(keys)],
                              1)
    depth: dict = {}
    for a in units:
        for b in basis:
            for o, legs, _ in products[(a, b)]:
                depth[legs] = max(depth.get(legs, 0), n - o)
    rows = {}
    for x, upto in depth.items():
        row: dict = {}
        assembly._add_product(row, [(0, x, 1)], every_c, upto, 1, slots, fill)
        rows[x] = sorted(((at & order_mask, at, c) for at, c in row.items()), key=itemgetter(0))
    # a(bc): the terms of bc for every c, sorted by order
    bc_terms = {b: assembly._right(sorted(
        ((o, legs, c, tag << tag_shift) for tag, c_ in enumerate(basis)
         for o, legs, c in products[(b, c_)]), key=itemgetter(0)), 1) for b in basis}
    associativity: dict = {}
    for a in units:
        minus_a = [(0, key(a), -1)]
        for b in basis:
            acc: dict = {}
            get = acc.get
            for oa, x, ca in products[(a, b)]:
                rest = n - oa
                for o, row_key, c in rows[x]:
                    if o > rest:
                        break
                    at = oa + row_key
                    acc[at] = get(at, 0) + ca * c
            assembly._add_product(acc, minus_a, bc_terms[b], n, 1, slots, fill)
            if any(acc.values()):
                associativity[(a, b)] = acc
    for a, b, acc in per_pair(units, associativity, 1):
        for tag in sorted({at >> tag_shift for at, c in acc.items() if c}):
            report.associativity[(a, b, basis[tag])] = assembly._series(
                {at: c for at, c in acc.items() if at >> tag_shift == tag}, n, 1, s * s)

    unit = assembly.unit()
    for a in basis:
        sa = assembly.basis_series(*a)
        for name, candidate in (("left", assembly.mul(unit, sa)),
                                ("right", assembly.mul(sa, unit))):
            diff = [x - y for x, y in zip(candidate, sa)]
            if any(diff):
                report.unit[(a, name)] = diff

    scaled_cop = {}
    for a, key_a in zip(basis, keys):
        d = assembly._series({o + legs: c for o, legs, c in assembly._cop_key(a, n)}, n, 2)
        bad = assembly.grading_defect_keys(d, (a[1], a[1]))
        if bad:
            report.grading[(a, "coproduct")] = bad
        terms = scaled_cop[a] = cop_fill(key_a, n)[1]
        acc = {}
        assembly._add_coproduct(acc, [(o + legs, c) for o, legs, c in terms], n, 0, cops, cop_fill)
        assembly._add_coproduct(acc, [(o + legs, -c) for o, legs, c in terms], n, 1, cops,
                                cop_fill)
        if any(acc.values()):
            report.coassociativity[a] = assembly._series(acc, n, 3, t * t)
        sa = assembly.basis_series(*a)
        for leg in (0, 1):
            diff = [x - y for x, y in zip(assembly.counit_leg(d, leg), sa)]
            if any(diff):
                report.counit[(a, leg)] = diff

    rights = {b: assembly._right([(o, legs, c, 0) for o, legs, c in terms], 2)
              for b, terms in scaled_cop.items()}
    compatibility: dict = {}
    for a in compat_lefts:
        left = assembly._left([(o, legs, -c) for o, legs, c in scaled_cop[a]], 2)
        for b in basis:
            acc = {}
            assembly._add_coproduct(acc, [(o + legs, c * s * t) for o, legs, c in products[(a, b)]],
                                    n, 0, cops, cop_fill)
            assembly._add_product(acc, left, rights[b], n, 2, slots, fill)
            if any(acc.values()):
                compatibility[(a, b)] = acc
    for a, b, acc in per_pair(compat_lefts, compatibility, 2):
        if any(acc.values()):
            report.compatibility[(a, b)] = assembly._series(acc, n, 2, (s * t) ** 2)
    return report


@dataclass
class ComparisonWitness:
    """Graded algebra isomorphism [x|g] ↦ [j(x) · w_g | g] between pipelines."""

    j: MapSeries
    w: dict[int, ElSeries]
    log: GaugeLog

    def as_dict(self, serialize):
        return {
            "j": {str(i): serialize(self.j.gen_series(i)) for i in range(self.j.env.dim)},
            "w": {str(g): serialize(s) for g, s in sorted(self.w.items())},
        }


def _phi(target: GammaQuantization, j: MapSeries, w: dict[int, ElSeries],
         series: list[El], order: int, cache: dict) -> list[El]:
    """The witness map ``[m|g] ↦ [j(m) · w_g | g]`` on every leg of ``series``,
    modulo h^{order+1}, through the leg-map kernel of ``target``.  For a dual
    ``j`` (a column evaluation) it is the dual of the image of the order-0
    coefficient of ``series`` over the smash product U(a) ⋊ Γ, which is the
    order-0 part of ``target``: there ``T_g = θ_g``, ``v = 1``, and ``F_g``
    and ``J`` start at 1.

    ``cache`` holds the images of each ``(m, g)`` for one ``j, w``: for a
    plain ``j`` it is the leg-map kernel's table, keyed by the packed key of
    ``(m, g)``.
    """
    if isinstance(j, DualMap):

        def dual_image(mg, part: int) -> El:
            img = cache.get((mg, part))
            if img is None:
                m, g = mg
                if mg not in cache:
                    cache[mg] = j.ext_mon(m).mul(w[g])
                # a tangent's keys end in their unknown's tag, after the leg
                img = cache[(mg, part)] = El({((key[0], g),) + key[1:]: c
                                              for key, c in cache[mg][part].data.items()})
            return img

        out = DualSeries(SmashAlgebra(target.env, target.gamma.action),
                         len(next(iter(series[0].data), ())), series[0], None, j.order0)
        for leg in range(out.arity):
            out = out.map_leg(leg, lambda mg: dual_image(mg, 0), lambda mg: dual_image(mg, 1), 1)
        return out

    def image(key: int, upto: int):
        # the images are cut at ``order`` already: every budget reads them whole
        m, g = target._leg_of(key)
        img = ElSeries(j.env, 1, j.ext_mon(m)[: order + 1]).mul(w[g])
        entry = cache[key] = (order, [(o, target._key((mon, g)), c)
                                      for o, el in enumerate(img.coeffs)
                                      for (mon,), c in el.data.items()])
        return entry

    acc = {o + legs: c for o, legs, c in target._flat(series)}
    arity = _arity(series)
    for leg in range(arity):
        terms, acc = [(key, c) for key, c in acc.items() if c], {}
        target._add_coproduct(acc, terms, order, leg, cache, image, 1)
    return target._series(acc, order, arity)


def _witness_defects(generic: GammaQuantization, direct: GammaQuantization, phi,
                     keys: list, right_keys: list, products: dict, coproducts: dict) -> dict:
    """The witness identities as series: ``(ia, 0, ib)`` φ(ab) − φ(a)φ(b) for
    ``a = keys[ia]``, ``b = right_keys[ib]``; ``(ia, 1)`` (φ⊗φ)Δ(a) − Δ(φ(a));
    ``(ia, 2)`` ε(φ(a)) − ε(a).  ``products`` and ``coproducts`` hold the
    generic structure on those basis elements."""
    def minus(x, y):
        return x - y if isinstance(x, DualSeries) else [p - q for p, q in zip(x, y)]

    out = {}
    for ia, a in enumerate(keys):
        sa = generic.basis_series(*a)
        phi_a = phi(sa)
        for ib, b in enumerate(right_keys):
            right = direct.mul(phi_a, phi(generic.basis_series(*b)))
            out[(ia, 0, ib)] = minus(phi(products[(a, b)]), right)
        out[(ia, 1)] = minus(phi(coproducts[a]), direct.coproduct(phi_a))
        out[(ia, 2)] = [x - El.term((), y)
                        for x, y in zip(direct.counit_leg(phi_a, 0), generic.counit(sa))]
    return out


def compare_pipelines(generic: GammaQuantization, direct: GammaQuantization,
                      window: int = 2, log: GaugeLog | None = None,
                      seed_order: int | None = None):
    """Solve for a grading-preserving, counit-normalized isomorphism carrying
    the solver-built structure onto the direct quasitriangular one.

    Returns a :class:`ComparisonWitness` or the :class:`Certificate` of the
    first order at which no isomorphism of the given shape exists.
    """
    env = generic.env
    if direct.env.lie.items_sorted() != env.lie.items_sorted():
        raise MathDefectError("pipelines live over different algebras")
    if generic.group != direct.group:
        raise MathDefectError("pipelines live over different groups")
    order = generic.order
    log = log or GaugeLog()
    grp = generic.group
    e = grp.identity
    n = env.dim

    gen_keys = [((i,), e) for i in range(n)] + [(ONE, g) for g in grp.elements()]
    row_basis = generic.basis_up_to(window + 2)
    verify_basis = generic.basis_up_to(window)

    def structure(keys, right_keys):
        """The generic products ``keys × right_keys`` and coproducts ``keys``."""
        basis = generic.basis_series
        return ({(a, b): generic.mul(basis(*a), basis(*b)) for a in keys for b in right_keys},
                {a: generic.coproduct(basis(*a)) for a in keys})

    gen_structure = structure(gen_keys, row_basis)

    j_tables: list[dict[int, El]] = list(MapSeries.identity(env, 0).tables)
    w_coeffs: dict[int, list[El]] = {g: [env.unit(1)] for g in grp.elements()}

    columns = Columns()
    for k in range(1, order + 1):

        def defect(top, m):
            # w_e is 1: there is no ("w", e) unknown
            j_cand = candidate_map(MapSeries, env, j_tables, m, top, lambda i: ("j", i))
            w_cand = {g: candidate(env, 1, w_coeffs[g], m, top, ("w", g))
                      for g in grp.elements()}
            cache: dict = {}

            def phi(series):
                return _phi(direct, j_cand, w_cand, series[: m + 1], m, cache)

            defects = _witness_defects(generic, direct, phi, gen_keys, row_basis, *gen_structure)
            return blocks({key: series[m] for key, series in defects.items()})

        supports = _support_ladder(env, None, ([("j", i) for i in range(n)], [k + 1, 2 * k + 1]),
                                   ([("w", g) for g in grp.elements() if g != e],
                                    [2 * k, 2 * k + 2]))
        try:
            solved = _solve_with_supports("pipeline-witness", k, supports,
                                          LinearisedDefect(defect, k, columns), log, seed_order)
        except SolverInconsistencyError as exc:
            return exc.certificate
        j_tables.append({i: solved[("j", i)] for i in range(n) if solved[("j", i)]})
        for g in grp.elements():
            w_coeffs[g].append(solved.get(("w", g), El()) if g != e else El())

    j_map = MapSeries(env, order, j_tables)
    w_map = {g: ElSeries(env, 1, coeffs) for g, coeffs in w_coeffs.items()}

    cache: dict = {}
    defects = _witness_defects(generic, direct,
                               lambda series: _phi(direct, j_map, w_map, series, order, cache),
                               verify_basis, verify_basis, *structure(verify_basis, verify_basis))
    for key, series in defects.items():
        if any(series):
            identity = ("product", "coproduct", "counit")[key[1]]
            raise InternalCheckError(
                f"witness {identity} identity fails on {verify_basis[key[0]]}")
    return ComparisonWitness(j=j_map, w=w_map, log=log)


def classical_limit_check(assembly: GammaQuantization, d_in: int) -> dict:
    """Order-0 slice vs the smash product; order-1 antisymmetric slice vs the
    co-Poisson cobracket, both of the assembly's Γ-family."""
    from ..envelope import CoPoissonStructure
    env = assembly.env
    g_bialg = assembly.gamma
    smash = SmashAlgebra(env, g_bialg.action)
    structure = CoPoissonStructure(smash, g_bialg.bialgebra.cobracket_tables(),
                                   g_bialg.twists)
    out = {"product0": {}, "copoisson1": {}}
    basis = assembly.basis_up_to(d_in)
    # the slices read the caches the axiom checks fill: the order-0 slot
    # products and the order-1 coproduct terms
    for a in basis:
        for b in basis:
            got = assembly._series({legs: c for o, legs, c in assembly._slot((a, b), 0) if not o},
                                   0, 1)[0]
            want = smash.k_mul(El.term((a,)), El.term((b,)), 1)
            if got != want:
                out["product0"][(a, b)] = got - want
    if assembly.order < 1:
        return out
    for a in basis:
        d1 = assembly._series({legs: c for o, legs, c in assembly._cop_key(a, 1) if o == 1},
                              0, 2)[0]
        diff = antisymmetric_part(d1) - structure.delta_basis(*a)
        if diff:
            out["copoisson1"][a] = diff
    return out
