"""Quantization artifacts: the codec of an assembly's tables, and the verifier,
which re-checks an assembly exactly and trusts nothing an artifact says about
itself.  It reports the assembly's check table (``GammaQuantization.checks``),
the one that the assemblies close on, and then the window checks.
"""

from __future__ import annotations

from .envelope import Envelope
from .errors import SchemaError
from .groups import FiniteGroup, GammaLieBialgebra, GroupAction
from .hquant.core import CoproductSeries, ElSeries, MapSeries
from .hquant.gammaq import GammaQuantization, bialgebra_axiom_defects, classical_limit_check
from .lie import LieBialgebra
from .schema import (ParsedInput, canonical_int, non_negative_int, pointer, series_from_json,
                     series_to_json)
from .sparse import El
from .tensors import Tensor


def _add_check(report: dict, name: str, ok: bool | None, detail: str = ""):
    status = "skipped" if ok is None else ("pass" if ok else "fail")
    entry = {"name": name, "status": status}
    if detail:
        entry["detail"] = detail
    report["checks"].append(entry)
    return status == "fail"


def _first_keys(mapping, limit=4) -> str:
    keys = sorted(str(k) for k in (mapping or {}))
    head = keys[:limit]
    more = "" if len(keys) <= limit else f" (+{len(keys) - limit})"
    return "; ".join(head) + more


def _add_defects(report: dict, name: str, defects) -> bool:
    """The check entry of a defect table: pass iff it is empty; a failure's
    detail names its first keys."""
    return _add_check(report, name, not defects, _first_keys(defects))


def _trivial_gamma(bialg: LieBialgebra) -> GammaLieBialgebra:
    group = FiniteGroup.trivial()
    action = GroupAction.trivial(group, bialg.space)
    return GammaLieBialgebra(bialg, action, [Tensor.zero((bialg.space,) * 2)])


def _assembly_to_json(assembly: GammaQuantization) -> dict:
    grp = assembly.group
    env = assembly.env
    return {
        "order": assembly.order,
        "coproduct": {str(i): series_to_json(assembly.cop.gen_series(i).coeffs)
                      for i in range(env.dim)},
        "twist_family": {grp.labels[g]: series_to_json(s.coeffs)
                         for g, s in sorted(assembly.f_map.items())},
        "transport": {grp.labels[g]: {str(i): series_to_json(t.gen_series(i).coeffs)
                                      for i in range(env.dim)}
                      for g, t in sorted(assembly.t_map.items())},
        "compositions": {f"{grp.labels[g]},{grp.labels[h]}": series_to_json(s.coeffs)
                         for (g, h), s in sorted(assembly.v_map.items())},
        # derivable from the transport maps; stored for direct inspection of
        # the solved family, and checked against the derivation on verify
        "intertwiners": {grp.labels[g]: {str(i): series_to_json(iso.gen_series(i).coeffs)
                                         for i in range(env.dim)}
                         for g, iso in assembly.intertwiners.items()},
    }


def _assembly_from_json(data: dict, parsed: ParsedInput
                        ) -> tuple[GammaQuantization, dict[int, list[dict[int, El]]]]:
    """Rebuild an assembly from an artifact's tables, trusting none of their shape.

    Every table must be present, name only known group elements and
    generators, cover every group element and pair, and hold series of
    exactly ``order + 1`` coefficients in normal-ordered monomials.  Returns
    the assembly and the stored intertwiner tables per group element.
    """
    gamma = parsed.gamma or _trivial_gamma(parsed.bialgebra)
    env = Envelope(parsed.bialgebra.lie)
    grp = gamma.group
    n = env.dim
    if not isinstance(data, dict):
        raise SchemaError("assembly must be a JSON object", "/assembly")
    order = non_negative_int(data.get("order"), "order", "/assembly/order")

    def table(tbl, where: str) -> dict:
        if not isinstance(tbl, dict):
            raise SchemaError("missing or malformed table", where)
        return tbl

    def series(value, arity: int, where: str) -> list[El]:
        if not isinstance(value, list) or not all(isinstance(c, dict) for c in value):
            raise SchemaError("a series must be a list of coefficient tables", where)
        if len(value) != order + 1:
            raise SchemaError(f"series has {len(value)} coefficients, order {order} needs "
                              f"{order + 1}", where)
        coeffs = series_from_json(value, arity, where=where)
        for el in coeffs:
            for key in el.data:
                for m in key:
                    if any(not 0 <= i < n for i in m) or list(m) != sorted(m):
                        raise SchemaError(f"monomial {m} is not a normal-ordered monomial "
                                          f"in {n} generators", where)
        return coeffs

    def generator_tables(tbl, arity: int, where: str) -> list[dict[int, El]]:
        tables: list[dict[int, El]] = [{} for _ in range(order + 1)]
        for gen, value in table(tbl, where).items():
            i = canonical_int(gen)
            if i is None or not 0 <= i < n:
                raise SchemaError(f"generator index {gen!r} out of range 0..{n - 1}",
                                  pointer(where, gen))
            for k, el in enumerate(series(value, arity, pointer(where, gen))):
                if el:
                    tables[k][i] = el
        return tables

    def element(label: str, where: str) -> int:
        if label not in grp.labels:
            raise SchemaError(f"unknown group element {label!r}", where)
        return grp.labels.index(label)

    def by_element(name: str) -> dict:
        where = f"/assembly/{name}"
        out = {element(label, pointer(where, label)): (value, pointer(where, label))
               for label, value in table(data.get(name), where).items()}
        for g in grp.elements():
            if g not in out:
                raise SchemaError(f"no entry for group element {grp.labels[g]!r}", where)
        return out

    cop = CoproductSeries(env, order, generator_tables(data.get("coproduct"), 2,
                                                       "/assembly/coproduct"))
    f_map = {g: ElSeries(env, 2, series(value, 2, where))
             for g, (value, where) in by_element("twist_family").items()}
    t_map = {g: MapSeries(env, order, generator_tables(value, 1, where))
             for g, (value, where) in by_element("transport").items()}
    v_map = {}
    for key, value in table(data.get("compositions"), "/assembly/compositions").items():
        where = pointer("/assembly/compositions", key)
        labels = key.split(",")
        if len(labels) != 2:
            raise SchemaError(f"bad group pair {key!r}", where)
        pair = (element(labels[0], where), element(labels[1], where))
        v_map[pair] = ElSeries(env, 1, series(value, 1, where))
    for g in grp.elements():
        for h in grp.elements():
            if (g, h) not in v_map:
                raise SchemaError(f"no entry for pair {grp.labels[g]},{grp.labels[h]}",
                                  "/assembly/compositions")
    intertwiners = {g: generator_tables(value, 1, where)
                    for g, (value, where) in by_element("intertwiners").items()}
    return GammaQuantization(env, gamma, cop, f_map, t_map, v_map, order), intertwiners


def _verify_assembly(assembly: GammaQuantization, report: dict, d_in: int,
                     stored_intertwiners: dict | None = None) -> bool:
    """Exact re-verification of a (re)constructed assembly into ``report``, its
    check table and then the window checks; returns True if any check fails.
    An artifact's stored intertwiner tables must equal the derived ones."""
    failed = False
    for name, ok, detail in assembly.checks:
        if name == "transport-intertwining" and stored_intertwiners is not None:
            ok = ok and all(stored_intertwiners[g] == iso.tables
                            for g, iso in assembly.intertwiners.items())
        failed |= _add_check(report, name, ok, detail)
    axioms = bialgebra_axiom_defects(assembly, d_in)
    failed |= _add_check(report, "bialgebra-axioms", axioms.all_zero,
                         "" if axioms.all_zero else str(axioms.summary()))
    failed |= _add_defects(report, "composition-coherence", assembly.family_defects[2])
    limits = classical_limit_check(assembly, d_in)
    failed |= _add_check(report, "classical-limit-slices", not any(limits.values()))
    return failed
