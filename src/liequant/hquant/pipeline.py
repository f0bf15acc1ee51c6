"""End-to-end orchestration for twist pairs, triples and gauge moves.

These drivers wire the individual solvers together in a fixed order so that
runs are reproducible: the coproducts first, then each twist jointly with its
intertwiner onto a freshly solved target (``solve_twist_pair``), then the
composition elements.  The intertwiner of a composed twist is *defined* by
the composition formula once the composition element is solved; the
independently solved one is kept for comparison and the replacement is
recorded in the gauge log.

The solvers do not re-check what they return: the drivers close each
solved object on its defect table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..envelope import Envelope
from ..errors import InternalCheckError
from ..lie import LieBialgebra
from ..tensors import Tensor
from ..twists import compose_twists, twist
from .core import CoproductSeries, ElSeries, MapSeries
from .solvers import (GaugeLog, _verify_zero, composition_defect, coproduct_defects,
                      iso_defects, iso_intertwine_defect, solve_composition_v, solve_coproduct,
                      solve_twist_pair, twist_defects, twisted_coproduct, v_cocycle_defect)


def _twist_pair(bialg: LieBialgebra, cop: CoproductSeries, f: Tensor, dst: CoproductSeries,
                order: int, log: GaugeLog, cap: int | None
                ) -> tuple[ElSeries, MapSeries, CoproductSeries]:
    """``solve_twist_pair``, closed on the defect tables of F and i; returns
    F, i and the twisted coproduct ``Ad(F)∘Δ`` that i was checked on."""
    f_series, iso = solve_twist_pair(bialg, cop, f, dst, order, log=log, cap=cap)
    _verify_zero(twist_defects(bialg, cop, f_series, f), "twist")
    twisted = twisted_coproduct(cop, f_series)
    _verify_zero(iso_defects(bialg, twisted, dst, iso), "iso")
    return f_series, iso, twisted


def _composition_v(env: Envelope, f_total: ElSeries, f_second_pulled: ElSeries,
                   f_first: ElSeries, cop: CoproductSeries, order: int, log: GaugeLog,
                   cap: int | None) -> ElSeries:
    """``solve_composition_v``, closed on its composition defect."""
    v = solve_composition_v(env, f_total, f_second_pulled, f_first, cop, order, log=log, cap=cap)
    if not composition_defect(env, f_total, f_second_pulled, f_first, cop, v).is_zero():
        raise InternalCheckError("composition relation defect after solve")
    return v


@dataclass
class TwistPairData:
    """All solved data attached to a composition of twists (f, f')."""

    bialgebra: LieBialgebra
    f: Tensor
    f_prime: Tensor
    env: Envelope
    cop: CoproductSeries              # base quantized coproduct
    cop_f: CoproductSeries            # quantization of the f-twist
    cop_total: CoproductSeries        # quantization of the (f+f')-twist
    f_series: ElSeries                # F(a, f)
    f_prime_series: ElSeries          # F(a_f, f')
    f_total_series: ElSeries          # F(a, f+f')
    iso_f: MapSeries                  # i(a, f)
    iso_second: MapSeries             # i(a_f, f')
    iso_total_solved: MapSeries       # independently solved i(a, f+f')
    iso_total: MapSeries              # aligned i(a, f+f') (composition formula)
    v: ElSeries                       # composition element
    iso_total_redefined: bool
    log: GaugeLog


def solve_pair(bialg: LieBialgebra, f: Tensor, f_prime: Tensor, order: int,
               env: Envelope | None = None, log: GaugeLog | None = None,
               cap: int | None = None) -> TwistPairData:
    """Quantize a composition of twists with the aligned-gauge policy."""
    pair = compose_twists(bialg, f, f_prime)
    env = env or Envelope(bialg.lie)
    log = log or GaugeLog()
    bf = pair.twisted
    b_total = twist(bialg, pair.total)

    cop = solve_coproduct(bialg, order, env, log, cap=cap)
    cop_f = solve_coproduct(bf, order, env, log, cap=cap)
    cop_total = solve_coproduct(b_total, order, env, log, cap=cap)
    for b, c in ((bialg, cop), (bf, cop_f), (b_total, cop_total)):
        _verify_zero(coproduct_defects(b, c), "coproduct")

    f_series, iso_f, _ = _twist_pair(bialg, cop, f, cop_f, order, log, cap)
    f_prime_series, iso_second, _ = _twist_pair(bf, cop_f, f_prime, cop_total, order, log, cap)
    f_total_series, iso_total_solved, twisted_total = _twist_pair(
        bialg, cop, pair.total, cop_total, order, log, cap)

    pulled = iso_f.inverse().apply_all_legs(f_prime_series)
    v = _composition_v(env, f_total_series, pulled, f_series, cop, order, log, cap)

    ad_vinv = twisted_coproduct(MapSeries.identity(env, order), v.inverse())
    iso_composed = iso_second.compose(iso_f).compose(ad_vinv)
    redefined = False
    if any(iso_composed.tables[k] != iso_total_solved.tables[k]
           for k in range(order + 1)):
        redefined = True
        log.note("composed-intertwiner formula replaces the independent solve")
    if iso_intertwine_defect(twisted_total, cop_total, iso_composed):
        raise InternalCheckError("composed intertwiner fails to intertwine")

    return TwistPairData(
        bialgebra=bialg, f=f, f_prime=f_prime, env=env,
        cop=cop, cop_f=cop_f, cop_total=cop_total,
        f_series=f_series, f_prime_series=f_prime_series,
        f_total_series=f_total_series,
        iso_f=iso_f, iso_second=iso_second,
        iso_total_solved=iso_total_solved, iso_total=iso_composed,
        v=v, iso_total_redefined=redefined, log=log)


def gauge_transform(cop: CoproductSeries, f_series: ElSeries, iso: MapSeries,
                    u: ElSeries) -> tuple[ElSeries, MapSeries]:
    """Gauge move: F ↦ (u⊗u) F Delta(u)^{-1}, i ↦ i ∘ Ad(u)^{-1}.

    Applied to a solution of the twist equations this yields another
    solution; the invariant tests re-verify the cocycle and intertwining
    defects of the transformed pair.
    """
    f_new = u.tensor(u).mul(f_series).mul(cop.apply_leg(u, 0).inverse())
    i_new = iso.compose(twisted_coproduct(MapSeries.identity(cop.env, u.order), u.inverse()))
    return f_new, i_new


def gamma_v_cocycle_defects(assembly) -> dict:
    """Coherence defect of the composition family on every group triple.

    LHS - RHS of  v_{gh,l} * v_{g,h}  =  v_{g,hl} * T_g(v_{h,l})
    with the twisted-side element realized by the action pushforward.
    """
    env = assembly.env
    grp = assembly.group
    out = {}
    for g in grp.elements():
        for h in grp.elements():
            for l in grp.elements():
                gh, hl = grp.mul(g, h), grp.mul(h, l)
                moved = assembly.t_map[g].apply_leg(assembly.v_map[(h, l)], 0)
                defect = v_cocycle_defect(env, assembly.v_map[(gh, l)],
                                          assembly.v_map[(g, h)],
                                          assembly.v_map[(g, hl)], moved)
                if not defect.is_zero():
                    out[(g, h, l)] = defect
    return out


@dataclass
class TwistTripleData:
    """Standalone tower for a triple (f, f', f''): the four composition
    elements entering the coherence identity, under the aligned policy."""

    pair_first: TwistPairData          # (f, f') over the base
    v_total_second: ElSeries           # v(a, f+f', f'')
    v_first_merged: ElSeries           # v(a, f, f'+f'')
    v_twisted: ElSeries                # v(a_f, f', f'')
    env: Envelope
    log: GaugeLog

    def cocycle_defect(self) -> ElSeries:
        pulled = self.pair_first.iso_f.inverse().apply_leg(self.v_twisted, 0)
        return v_cocycle_defect(self.env, self.v_total_second, self.pair_first.v,
                                self.v_first_merged, pulled)


def solve_triple(bialg: LieBialgebra, f: Tensor, f_prime: Tensor, f_second: Tensor,
                 order: int, env: Envelope | None = None,
                 log: GaugeLog | None = None, cap: int | None = None) -> TwistTripleData:
    """Solve every composition element appearing in the coherence identity.

    The construction order is fixed: the (f, f') pair first; then the
    remaining towers reuse its solved objects so that all four elements are
    built against the same gauge choices.  The three composite twists all
    end at the (f+f'+f'')-twist, so they share one solved target coproduct.
    """
    env = env or Envelope(bialg.lie)
    log = log or GaugeLog()
    compose_twists(bialg, f + f_prime, f_second)
    pair = solve_pair(bialg, f, f_prime, order, env=env, log=log, cap=cap)
    b_f = twist(bialg, f)
    b_total = twist(bialg, f + f_prime)
    f_all = f + f_prime + f_second
    b_all = twist(bialg, f_all)
    cop_all = solve_coproduct(b_all, order, env, log, cap=cap)
    _verify_zero(coproduct_defects(b_all, cop_all), "coproduct")

    # quantized twists of the three composite objects
    f_all_base, _, _ = _twist_pair(bialg, pair.cop, f_all, cop_all, order, log, cap)
    f2_total, _, _ = _twist_pair(b_total, pair.cop_total, f_second, cop_all, order, log, cap)
    f_merged, _, _ = _twist_pair(b_f, pair.cop_f, f_prime + f_second, cop_all, order, log, cap)

    # v(a, f+f', f'')  -- uses the aligned i(a, f+f')
    v_total_second = _composition_v(
        env, f_all_base, pair.iso_total.inverse().apply_all_legs(f2_total),
        pair.f_total_series, pair.cop, order, log, cap)

    # v(a, f, f'+f'')
    v_first_merged = _composition_v(
        env, f_all_base, pair.iso_f.inverse().apply_all_legs(f_merged),
        pair.f_series, pair.cop, order, log, cap)

    # v(a_f, f', f'')  -- tower over the f-twist, reusing i(a_f, f')
    v_twisted = _composition_v(
        env, f_merged, pair.iso_second.inverse().apply_all_legs(f2_total),
        pair.f_prime_series, pair.cop_f, order, log, cap)

    return TwistTripleData(pair_first=pair, v_total_second=v_total_second,
                           v_first_merged=v_first_merged, v_twisted=v_twisted,
                           env=env, log=log)
