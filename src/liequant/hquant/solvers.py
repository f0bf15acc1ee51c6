"""Order-by-order solvers for deformed coproducts, quantized twists,
intertwiners and composition elements.

Every solver follows the same discipline: order-1 coefficients are pinned in
closed form (half the classical datum) and verified against the order-1
equations; higher orders are linear solves whose free variables are pinned
to zero by the deterministic elimination in :mod:`liequant.linsolve`.
Unknown supports start at the tight caps dictated by the grading of the
deformation problem and escalate on a fixed ladder before giving up with a
cap hint.  Every solve appends a record to the run's gauge log.

A solver does not re-check what it returns at full order: its caller
evaluates the defect tables below once, in the check table of a
``GammaQuantization``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..envelope import Envelope
from ..errors import InternalCheckError, MathDefectError, SolverInconsistencyError
from ..lie import LieBialgebra
from ..linsolve import Certificate, lin_solve
from ..sparse import El
from ..tensors import Tensor, qdiv
from ..twists import twist as twist_bialgebra
from ..twists import twist_defect
from .core import AlgebraMapSeries, CoproductSeries, DualMap, DualSeries, ElSeries, MapSeries
from .unknowns import (Columns, LinearisedDefect, allocation_order, blocks, candidate,
                       candidate_map, top_coeffs, values_by_slot)


def _half(env: Envelope, t: Tensor) -> El:
    """Half a classical tensor, embedded: the closed-form order-1 coefficient."""
    return El({key: qdiv(c, 2) for key, c in env.embed_tensor(t).data.items()})


@dataclass
class SolveRecord:
    operation: str
    order: int
    support: str
    nvars: int
    nrows: int
    status: str

    def as_dict(self):
        return {
            "operation": self.operation,
            "order": self.order,
            "support": self.support,
            "nvars": self.nvars,
            "nrows": self.nrows,
            "status": self.status,
        }


@dataclass
class GaugeLog:
    records: list[SolveRecord] = field(default_factory=list)
    events: list[str] = field(default_factory=list)

    def note(self, message: str):
        self.events.append(message)

    def as_dict(self):
        return {"solves": [r.as_dict() for r in self.records], "events": list(self.events)}


def _pair_rungs(k: int) -> list[tuple[int, int]]:
    """The fixed rungs of a two-leg unknown (J, F) at order k."""
    return [(k, 2 * k), (k + 2, 2 * (k + 2))]


def _support_ladder(env: Envelope, cap: int | None, *parts) -> list:
    """The support ladder of one solve: ``(label, [(slot, keys), ...])`` per rung.

    Each part ``(slots, rungs)`` gives all its slots one key support per
    rung: an int ``d`` bounds the degree of a one-leg unknown (label
    ``deg<=d``), a pair ``(legs, total)`` the degree per leg and in all of a
    two-leg one (``legs<=L,total<=T``, or ``total<=T`` when both bounds
    agree).  A ``cap`` above a part's last leg bound adds the rung
    ``deg<=cap`` (``legs<=cap`` with total ``2·cap``).  The parts' ladders
    are joined rung by rung, their labels by ``|``; a shorter ladder repeats
    its last rung, so a cap rung that only one part gains is still tried.
    """
    ladders = []
    for slots, rungs in parts:
        arity = 1 if isinstance(rungs[0], int) else 2
        bounds = [(d, d) if arity == 1 else d for d in rungs]
        labels = [f"deg<={legs}" if arity == 1 else f"total<={total}" if legs == total
                  else f"legs<={legs},total<={total}" for legs, total in bounds]
        if cap is not None and cap > bounds[-1][0]:
            bounds.append((cap, arity * cap))
            labels.append(f"{'deg' if arity == 1 else 'legs'}<={cap}")
        ladder = []
        for label, (legs, total) in zip(labels, bounds):
            keys = env.keys_up_to(arity, legs, total)
            ladder.append((label, [(slot, keys) for slot in slots]))
        ladders.append(ladder)
    depth = max(len(ladder) for ladder in ladders)
    ladders = [ladder + ladder[-1:] * (depth - len(ladder)) for ladder in ladders]
    return [("|".join(label for label, _ in rung), [sk for _, sks in rung for sk in sks])
            for rung in zip(*ladders)]


def _solve_with_supports(operation: str, order: int, supports, defect: LinearisedDefect,
                         log: GaugeLog, seed_order: int | None = None) -> dict:
    """Try each support; return the solved top-order element per slot or raise.

    ``supports`` lists ``(label, [(slot, keys), ...])`` on the ladder; the
    unknowns of one attempt are every slot's keys in allocation order.
    """
    last_cert: Certificate | None = None
    for label, slot_keys in supports:
        unknowns = [(slot, key) for slot, keys in slot_keys
                    for key in allocation_order(keys, seed_order)]
        system = defect.system(unknowns)
        result = lin_solve(system)
        if isinstance(result, Certificate):
            log.records.append(SolveRecord(operation, order, label, len(unknowns),
                                           system.nrows, "inconsistent"))
            last_cert = result
            continue
        log.records.append(SolveRecord(operation, order, label, len(unknowns),
                                       system.nrows, "solved"))
        return values_by_slot(unknowns, result.values, [slot for slot, _ in slot_keys])
    raise SolverInconsistencyError(
        f"{operation} has no solution at order {order} within the support ladder",
        certificate=last_cert,
        hint="increase --degree-cap")


# ---------------------------------------------------------------------------
# deformed coproduct
# ---------------------------------------------------------------------------


def algebra_compat_defect(bialg: LieBialgebra, series_map: AlgebraMapSeries) -> dict:
    """m(x)m(y) - m(y)m(x) - m([x,y]) per basis pair: zero iff the series map
    ``m`` (a coproduct or an intertwiner) respects the bracket."""
    out = {}
    n = series_map.env.dim
    for i in range(n):
        for j in range(i + 1, n):
            di = series_map.gen_series(i)
            dj = series_map.gen_series(j)
            acc = di.mul(dj) - dj.mul(di)
            for k, c in bialg.lie.bracket_basis(i, j).items():
                acc = acc - series_map.gen_series(k).scale(c)
            if not acc.is_zero():
                out[(i, j)] = acc
    return out


def coassoc_defect(cop: CoproductSeries) -> dict:
    """(Delta ⊗ id)Delta - (id ⊗ Delta)Delta per generator."""
    out = {}
    for i in range(cop.env.dim):
        d = cop.gen_series(i)
        diff = cop.apply_leg(d, 0) - cop.apply_leg(d, 1)
        if not diff.is_zero():
            out[i] = diff
    return out


def counit_defect(cop: CoproductSeries) -> dict:
    """(eps ⊗ id)Delta(x) - x and (id ⊗ eps)Delta(x) - x per generator."""
    env = cop.env
    out = {}
    for i in range(env.dim):
        d = cop.gen_series(i)
        for leg in (0, 1):
            coeffs = [env.counit_leg(c, leg) for c in d.coeffs]
            coeffs[0] = coeffs[0] - El.term(((i,),))
            if any(c for c in coeffs):
                out[(i, leg)] = ElSeries(env, 1, coeffs)
    return out


def antisymmetric_part(el: El) -> El:
    """``x - x^op`` of a two-leg element: the order-1 slice a classical limit reads."""
    return el - el.map_keys(lambda key: (key[1], key[0]))


def classical_limit_defect(bialg: LieBialgebra, cop: CoproductSeries) -> dict:
    """Delta_1 - Delta_1^op - delta per generator (exact)."""
    env = cop.env
    out = {}
    if cop.order < 1:
        return out
    for i in range(env.dim):
        diff = antisymmetric_part(cop.tables[1].get(i, El())) - env.embed_tensor(
            bialg.cobracket_basis(i))
        if diff:
            out[i] = diff
    return out


def coproduct_defects(bialg: LieBialgebra, cop: CoproductSeries) -> dict[str, dict]:
    """The defect table of a deformed coproduct: ``{check: defects}`` in check
    order, an empty entry where the identity holds."""
    return {"algebra-map": algebra_compat_defect(bialg, cop),
            "coassociativity": coassoc_defect(cop),
            "counit": counit_defect(cop),
            "classical-limit": classical_limit_defect(bialg, cop)}


def _verify_zero(table: dict[str, dict], what: str):
    """Raise on the first failed check of a defect table."""
    for name, defects in table.items():
        if defects:
            raise InternalCheckError(f"{what} {name} defect is nonzero: {list(defects)[:3]}")


def solve_coproduct(bialg: LieBialgebra, order: int, env: Envelope | None = None,
                    log: GaugeLog | None = None, cap: int | None = None,
                    seed_order: int | None = None) -> CoproductSeries:
    """Deformed coproduct with Delta_1 = delta/2 and gauge-pinned higher orders."""
    env = env or Envelope(bialg.lie)
    log = log or GaugeLog()
    tables: list[dict[int, El]] = [dict(CoproductSeries.undeformed(env, 0).tables[0])]
    if order >= 1:
        t1 = {}
        for i in range(env.dim):
            el = _half(env, bialg.cobracket_basis(i))
            if el:
                t1[i] = el
        tables.append(t1)
        _verify_zero(coproduct_defects(bialg, CoproductSeries(env, 1, tables[:2])),
                     "order-1 coproduct")
        log.records.append(SolveRecord("coproduct", 1, "pinned delta/2", 0, 0, "pinned"))

    columns = Columns()
    for k in range(2, order + 1):

        def defect(top, n):
            cand = candidate_map(CoproductSeries, env, tables, n, top)
            return blocks(top_coeffs(algebra_compat_defect(bialg, cand), n),
                          top_coeffs(coassoc_defect(cand), n),
                          top_coeffs(counit_defect(cand), n))

        supports = _support_ladder(env, cap,
                                   (range(env.dim), [(k + 1, k + 1), (k + 2, 2 * (k + 2))]))
        solved = _solve_with_supports("coproduct", k, supports,
                                      LinearisedDefect(defect, k, columns), log, seed_order)
        tables.append({i: el for i, el in solved.items() if el})

    return CoproductSeries(env, order, tables)


# ---------------------------------------------------------------------------
# quasitriangular conjugator
# ---------------------------------------------------------------------------


def twisted_coproduct(series_map: AlgebraMapSeries, u: ElSeries) -> AlgebraMapSeries:
    """Ad(u) ∘ m, x ↦ u m(x) u^{-1}, as generator tables of the type of ``m``.

    ``u`` is a unit-leading series of the arity and order of ``m``: a twist F
    on a coproduct, J on the undeformed coproduct, or v on the identity map
    (the inner automorphism Ad(v)).
    """
    env = series_map.env
    uinv = u.inverse()
    images = [u.mul(series_map.gen_series(i)).mul(uinv) for i in range(env.dim)]
    if isinstance(u, DualSeries):
        return DualMap(type(series_map), env, images, u.order0)
    return type(series_map).from_images(env, series_map.order, images)


def solve_j_conjugator(qt, order: int, env: Envelope | None = None,
                       log: GaugeLog | None = None, cap: int | None = None,
                       seed_order: int | None = None):
    """J = 1 + h r/2 + ... making Ad(J)Delta_0 coassociative and counital.

    Returns (J series, the conjugated coproduct).
    """
    qt.assert_valid()
    env = env or Envelope(qt.lie)
    log = log or GaugeLog()
    undeformed = CoproductSeries.undeformed(env, order)
    coeffs = [env.unit(2)]
    if order >= 1:
        coeffs.append(_half(env, qt.r))
        cand = ElSeries(env, 2, coeffs[:2])
        cop1 = twisted_coproduct(undeformed.truncated(1), cand)
        _verify_zero({"coassociativity": coassoc_defect(cop1)}, "order-1 conjugated coproduct")
        log.records.append(SolveRecord("j-conjugator", 1, "pinned r/2", 0, 0, "pinned"))

    columns = Columns()
    for k in range(2, order + 1):

        def defect(top, n):
            j_cand = candidate(env, 2, coeffs, n, top, "J")
            cop = twisted_coproduct(undeformed.truncated(n), j_cand)
            return blocks(top_coeffs(coassoc_defect(cop), n),
                          {leg: env.counit_leg(j_cand[n], leg) for leg in (0, 1)})

        supports = _support_ladder(env, cap, (["J"], _pair_rungs(k)))
        solved = _solve_with_supports("j-conjugator", k, supports,
                                      LinearisedDefect(defect, k, columns), log, seed_order)
        coeffs.append(solved["J"])

    j_series = ElSeries(env, 2, coeffs)
    return j_series, twisted_coproduct(undeformed, j_series)


# ---------------------------------------------------------------------------
# quantized twists and intertwiners
# ---------------------------------------------------------------------------


def cocycle_defect(cop: CoproductSeries, f_series: ElSeries) -> ElSeries:
    """(F⊗1)(Delta⊗id)(F) - (1⊗F)(id⊗Delta)(F) in the tensor cube."""
    env = cop.env
    one = ElSeries.unit(env, 1, f_series.order)
    left = f_series.tensor(one).mul(cop.apply_leg(f_series, 0))
    right = one.tensor(f_series).mul(cop.apply_leg(f_series, 1))
    return left - right


def twist_counit_defect(env: Envelope, f_series: ElSeries) -> list[El]:
    out = []
    for leg in (0, 1):
        coeffs = [env.counit_leg(c, leg) for c in f_series.coeffs]
        coeffs[0] = coeffs[0] - env.unit(1)
        out.extend(c for c in coeffs if c)
    return out


def twist_defects(bialg: LieBialgebra, cop: CoproductSeries, f_series: ElSeries,
                  f: Tensor) -> dict[str, dict]:
    """The defect table of a quantized twist F of ``cop``, a quantization of
    ``bialg``, for the classical twist ``f``: the cocycle identity per order,
    the counit on either leg, and the classical limits, F_1 - F_1^op = f (by
    the terms of F_1) and that of the twisted coproduct Ad(F)∘cop against the
    f-twist of ``bialg`` (by generator); an empty entry where it holds."""
    env = cop.env
    limit = {}
    if f_series.order >= 1:
        twisted = twisted_coproduct(cop.truncated(1), f_series.truncated(1))
        limit = {**(antisymmetric_part(f_series.coeffs[1]) - env.embed_tensor(f)).data,
                 **classical_limit_defect(twist_bialgebra(bialg, f), twisted)}
    return {"cocycle": {k: c for k, c in enumerate(cocycle_defect(cop, f_series).coeffs) if c},
            "counit": dict(enumerate(twist_counit_defect(env, f_series))),
            "classical-limit": limit}


def iso_intertwine_defect(src: CoproductSeries, dst: CoproductSeries,
                          iso: MapSeries) -> dict:
    """i^{⊗2}(src(x)) - dst(i(x)) per generator."""
    env = iso.env
    out = {}
    for i in range(env.dim):
        left = iso.apply_all_legs(src.gen_series(i))
        right = dst.apply_leg(iso.gen_series(i), 0)
        diff = left - right
        if not diff.is_zero():
            out[i] = diff
    return out


def _twist_rows(cop: CoproductSeries, f_cand: ElSeries) -> list[dict]:
    """F's row families at the order n of ``f_cand``: its cocycle identity
    over ``cop``, then the counit of its order-n coefficient on either leg."""
    n = f_cand.order
    return [{0: cocycle_defect(cop.truncated(n), f_cand)[n]},
            {leg: cop.env.counit_leg(f_cand[n], leg) for leg in (0, 1)}]


def _iso_rows(bialg: LieBialgebra, src: CoproductSeries, dst: CoproductSeries,
              iso_cand: MapSeries) -> list[dict]:
    """i's row families at the order n of ``iso_cand``: algebra map,
    intertwining src onto dst, and one counit row per generator image."""
    n = iso_cand.order
    env = iso_cand.env
    return [top_coeffs(algebra_compat_defect(bialg, iso_cand), n),
            top_coeffs(iso_intertwine_defect(src.truncated(n), dst.truncated(n), iso_cand), n),
            {i: env.counit_leg(iso_cand.gen_series(i)[n], 0) for i in range(env.dim)}]


def iso_defects(bialg: LieBialgebra, src: CoproductSeries, dst: CoproductSeries,
                iso: MapSeries) -> dict[str, dict]:
    """The defect table of an intertwiner i of quantizations of ``bialg``:
    algebra map, intertwining ``src`` onto ``dst``, and the counit of each
    generator image above order 0; an empty entry where it holds."""
    return {"algebra-map": algebra_compat_defect(bialg, iso),
            "intertwining": iso_intertwine_defect(src, dst, iso),
            "counit": {(k, i): c for k, table in enumerate(iso.tables[1:], 1)
                       for i, el in table.items() if (c := iso.env.counit(el))}}


def solve_twist_pair(bialg: LieBialgebra, cop: CoproductSeries, f: Tensor,
                     dst: CoproductSeries, order: int, log: GaugeLog | None = None,
                     cap: int | None = None,
                     seed_order: int | None = None) -> tuple[ElSeries, MapSeries]:
    """(F, i) for the classical twist f: the quantized twist F = 1 + h f/2 + ...
    of ``cop``, and the algebra automorphism i (identity at order 0) carrying
    the twisted coproduct Ad(F)∘cop onto ``dst``.

    F and i are solved jointly, order by order from order 1: F's order-k
    coefficient is chosen together with i's, so its gauge is the one an
    intertwiner onto ``dst`` exists for.  (Solving F first and i after it can
    leave no intertwiner at all: on sl2 with the Cartan twist that i system
    is inconsistent at order 3.)  A nonzero classical twist defect of ``f``
    raises :class:`MathDefectError`, and ``cop`` truncated below ``order``
    raises ``ValueError``.  The pair's identities at full order are
    ``twist_defects`` and ``iso_defects``, which its caller evaluates.
    """
    defect = twist_defect(bialg, f)
    if not defect.is_zero():
        raise MathDefectError("classical twist defect is nonzero", defect)
    if cop.order < order:
        raise ValueError("base coproduct truncated below the requested order")
    env = cop.env
    log = log or GaugeLog()
    coeffs = [env.unit(2), _half(env, f)]
    tables: list[dict[int, El]] = list(MapSeries.identity(env, 0).tables)
    columns = Columns()
    for k in range(1, order + 1):

        def defect(top, n):
            # at k = 1 the candidate's order-1 coefficient is the pinned F_1
            f_cand = candidate(env, 2, coeffs, n, top, "F")
            iso_cand = candidate_map(MapSeries, env, tables, n, top, lambda i: ("i", i))
            # F is pinned at order 1, so its rows enter from order 2
            twist_rows = _twist_rows(cop, f_cand) if k >= 2 else [{}, {}]
            return blocks(*twist_rows, *_iso_rows(
                bialg, twisted_coproduct(cop.truncated(n), f_cand), dst, iso_cand))

        supports = _support_ladder(env, cap, (["F"] if k >= 2 else [], _pair_rungs(k)),
                                   ([("i", i) for i in range(env.dim)], [k + 1, 2 * k + 1]))
        solved = _solve_with_supports("twist-pair", k, supports,
                                      LinearisedDefect(defect, k, columns), log, seed_order)
        if k >= 2:
            coeffs.append(solved["F"])
        tables.append({i: solved[("i", i)] for i in range(env.dim) if solved[("i", i)]})

    return ElSeries(env, 2, coeffs[: order + 1]), MapSeries(env, order, tables)


# ---------------------------------------------------------------------------
# composition elements
# ---------------------------------------------------------------------------


def solve_composition_v(env: Envelope, f_total: ElSeries, f_second_pulled: ElSeries,
                        f_first: ElSeries, cop: CoproductSeries, lower: list[El],
                        log: GaugeLog | None = None, cap: int | None = None,
                        seed_order: int | None = None) -> ElSeries:
    """v with F(f+f') = v^{⊗2} (i^{⊗2})^{-1}(F(a_f,f')) F(f) Delta(v)^{-1} at
    order k = ``len(lower)``, extending the fixed coefficients ``lower`` of
    the orders below k; returns v to order k.

    The inputs are the already-solved twist series.  The solve pins the free
    part of the order-k coefficient (the primitive part, which the relation
    at that order does not see) to zero; a caller that needs those shifts
    free fixes them afterwards.  When no order-k coefficient extends
    ``lower``, the exhausted ladder's certificate is converted into an
    :class:`InternalCheckError` that says so.
    """
    log = log or GaugeLog()
    k = len(lower)

    def defect(top, n):
        v = candidate(env, 1, lower, n, top, "v")
        data = (s.truncated(n) for s in (f_total, f_second_pulled, f_first, cop))
        return blocks({0: composition_defect(env, *data, v)[n]},
                      {0: env.counit_leg(v[n], 0)})

    supports = _support_ladder(env, cap, (["v"], [2 * k, 2 * k + 2]))
    try:
        solved = _solve_with_supports("composition-v", k, supports,
                                      LinearisedDefect(defect, k), log, seed_order)
    except SolverInconsistencyError as exc:
        raise InternalCheckError(
            f"no composition element extends the orders solved below {k}: {exc}") from exc
    return ElSeries(env, 1, lower + [solved["v"]])


def composition_defect(env: Envelope, f_total: ElSeries, f_second_pulled: ElSeries,
                       f_first: ElSeries, cop: CoproductSeries, v: ElSeries) -> ElSeries:
    """F(f+f') - v^{⊗2} G Delta(v)^{-1}, G = F(f') pulled back times F(f)."""
    g = f_second_pulled.mul(f_first)
    return f_total - v.tensor(v).mul(g).mul(cop.apply_leg(v, 0).inverse())


def v_cocycle_defect(env: Envelope, v_total_second: ElSeries, v_pair: ElSeries,
                     v_first_merged: ElSeries, v_twisted_pulled: ElSeries) -> ElSeries:
    """v(f+f',f'') * v(f,f')  -  v(f,f'+f'') * i(f)^{-1}(v(a_f,f',f''))."""
    return v_total_second.mul(v_pair) - v_first_merged.mul(v_twisted_pulled)


def conjugation_defect(t_gh: MapSeries, t_g_t_h: MapSeries, v: ElSeries, i: int) -> ElSeries:
    """T_{gh}(x_i) v - v T_g T_h(x_i), truncated at the order of ``v``."""
    env, m = v.alg, v.order
    left = ElSeries(env, 1, t_gh.ext_mon((i,))[: m + 1]).mul(v)
    right = v.mul(ElSeries(env, 1, t_g_t_h.ext_mon((i,))[: m + 1]))
    return left - right
