"""Command-line front end.

Subcommands: check, quantize, compare, verify-artifact, catalog.
Exit codes: 0 pass, 2 mathematical defect, 3 schema error, 4 solver cap
failure, 5 equivalence not found.  Reports are deterministic for identical
inputs; timings are only included with --timestamps on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__, catalog
from .envelope import Envelope, copoisson_axiom_defects, copoisson_delta
from .errors import (InternalCheckError, LiequantError, MathDefectError, SchemaError,
                     SolverInconsistencyError)
from .groups import (FiniteGroup, GammaLieBialgebra, GroupAction, check_action,
                     gamma_defects)
from .hquant.gammaq import (ComparisonWitness, GammaQuantization, assemble_gamma_quantization,
                            bialgebra_axiom_defects, classical_limit_check,
                            compare_pipelines, quasitriangular_gamma_quantize)
from .hquant.core import CoproductSeries, ElSeries, MapSeries
from .hquant.solvers import (GaugeLog, algebra_compat_defect, coassoc_defect,
                             classical_limit_defect, cocycle_defect, counit_defect,
                             iso_intertwine_defect, twist_counit_defect, twisted_coproduct)
from .lie import (LieBialgebra, cocycle_defect as bialg_cocycle_defect, cojacobi_defect,
                  coboundary_cobracket, cybe_defect, invariance_defect, jacobi_defect)
from .schema import (ParsedInput, canonical_int, non_negative_int, parse_document, pointer,
                     series_from_json, series_to_json)
from .sparse import El

EXIT_OK = 0
EXIT_DEFECT = 2
EXIT_SCHEMA = 3
EXIT_SOLVER = 4
EXIT_NO_WITNESS = 5


def _digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _load_input(path: str) -> tuple[bytes, dict]:
    if path.startswith("catalog:"):
        name = path.split(":", 1)[1]
        try:
            doc = catalog.input_document(name)
        except KeyError as exc:
            raise SchemaError(str(exc), "/") from None
        raw = json.dumps(doc, sort_keys=True).encode()
        return raw, doc
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}", path) from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", path) from None
    return raw, doc


def _emit(report: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print(f"liequant {report.get('tool_version', __version__)}")
    for check in report.get("checks", []):
        line = f"  [{check['status']:>5}] {check['name']}"
        if check.get("detail"):
            line += f"  ({check['detail']})"
        print(line)
    for key in ("artifact", "witness"):
        if key in report and isinstance(report[key], str):
            print(f"{key}: {report[key]}")
    if "exit" in report:
        print(f"exit: {report['exit']}")


def _base_report(raw: bytes, seed_order: int | None = None) -> dict:
    report = {
        "tool_version": __version__,
        "input_digest": _digest(raw),
        "checks": [],
    }
    if seed_order is not None:
        report["seed_order"] = seed_order
    return report


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


def run_classical_checks(parsed: ParsedInput, report: dict) -> bool:
    """All applicable classical checks; returns True if any defect found."""
    bialg = parsed.bialgebra
    failed = False

    defect = jacobi_defect(bialg.lie)
    failed |= _add_check(report, "jacobi", defect.is_zero(),
                         "" if defect.is_zero() else _first_keys(defect.data))
    defect = cojacobi_defect(bialg)
    failed |= _add_check(report, "co-jacobi", defect.is_zero(),
                         "" if defect.is_zero() else _first_keys(defect.data))
    defect = bialg_cocycle_defect(bialg)
    failed |= _add_check(report, "cocycle", defect.is_zero(),
                         "" if defect.is_zero() else _first_keys(defect.data))

    if parsed.quasitriangular is not None:
        qt = parsed.quasitriangular
        defect = cybe_defect(qt.lie, qt.r)
        failed |= _add_check(report, "cybe", defect.is_zero(),
                             "" if defect.is_zero() else _first_keys(defect.data))
        defect = invariance_defect(qt.lie, qt.t)
        failed |= _add_check(report, "t-invariance", defect.is_zero(),
                             "" if defect.is_zero() else _first_keys(defect.data))
        derived = coboundary_cobracket(qt.lie, qt.r)
        same = all(derived[i] == bialg.cobracket_basis(i) for i in range(bialg.dim))
        failed |= _add_check(report, "r-cobracket-consistency", same)
    else:
        _add_check(report, "cybe", None, "no r-matrix")

    if parsed.gamma is not None:
        gamma = parsed.gamma
        action_report = check_action(gamma.action, bialg.lie)
        failed |= _add_check(report, "action", action_report.all_zero,
                             "" if action_report.all_zero else
                             _first_keys(action_report.hom_defects or action_report.aut_defects))
        gd = gamma_defects(gamma)
        for name, table in (("gamma-(a)", gd.condition_a), ("gamma-(b)", gd.condition_b),
                            ("gamma-(c)", gd.condition_c)):
            failed |= _add_check(report, name, not table,
                                 "" if not table else _first_keys(table))
        failed |= _add_check(report, "gamma-identity-twist", gd.identity_twist is None)

        structure = copoisson_delta(gamma)
        d_in = non_negative_int(parsed.options.get("copoisson_degree", 2), "copoisson_degree",
                                "/options/copoisson_degree")
        rep = copoisson_axiom_defects(structure, d_in, 2 * d_in + 2)
        for part, table in sorted(rep.items()):
            failed |= _add_check(report, f"copoisson-{part}", not table,
                                 "" if not table else _first_keys(table))
    else:
        _add_check(report, "gamma-(a)", None, "no group")
    return failed


def cmd_check(args) -> int:
    raw, doc = _load_input(args.input)
    report = _base_report(raw)
    parsed = parse_document(doc)
    failed = run_classical_checks(parsed, report)
    report["exit"] = EXIT_DEFECT if failed else EXIT_OK
    _emit(report, args)
    return report["exit"]


def _trivial_gamma(bialg: LieBialgebra) -> GammaLieBialgebra:
    from .tensors import Tensor
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
    return GammaQuantization(env, gamma.action, cop, f_map, t_map, v_map, order), intertwiners


def _verify_assembly(assembly: GammaQuantization, parsed: ParsedInput, report: dict,
                     d_in: int, stored_intertwiners: dict | None = None) -> bool:
    """Exact re-verification of a (re)constructed assembly; an artifact's
    stored intertwiner tables must equal the derived intertwiners."""
    gamma = parsed.gamma or _trivial_gamma(parsed.bialgebra)
    bialg = parsed.bialgebra
    failed = False
    failed |= _add_check(report, "coproduct-algebra-map",
                         not algebra_compat_defect(bialg, assembly.cop))
    failed |= _add_check(report, "coproduct-coassociativity",
                         not coassoc_defect(assembly.cop))
    failed |= _add_check(report, "coproduct-counit", not counit_defect(assembly.cop))
    failed |= _add_check(report, "coproduct-classical-limit",
                         not classical_limit_defect(bialg, assembly.cop))
    grp = assembly.group
    cocycle_ok = True
    counit_ok = True
    limit_ok = True
    for g in grp.elements():
        fs = assembly.f_map[g]
        if not cocycle_defect(assembly.cop, fs).is_zero():
            cocycle_ok = False
        if twist_counit_defect(assembly.env, fs):
            counit_ok = False
        if assembly.order >= 1:
            one = fs.coeffs[1]
            anti = one - one.map_keys(lambda key: (key[1], key[0]))
            if anti != assembly.env.embed_tensor(gamma.f(g)):
                limit_ok = False
    failed |= _add_check(report, "twist-cocycle", cocycle_ok)
    failed |= _add_check(report, "twist-counit", counit_ok)
    failed |= _add_check(report, "twist-classical-limit", limit_ok)
    intertwine_ok = True
    for g, iso in assembly.intertwiners.items():
        defect = iso_intertwine_defect(
            twisted_coproduct(assembly.cop, assembly.f_map[g]),
            assembly.cop.pushforward(assembly.action.theta(g)), iso)
        if defect or (stored_intertwiners is not None and stored_intertwiners[g] != iso.tables):
            intertwine_ok = False
    failed |= _add_check(report, "transport-intertwining", intertwine_ok)
    try:
        assembly.verify_family()
        failed |= _add_check(report, "family-identities", True)
    except InternalCheckError as exc:
        failed |= _add_check(report, "family-identities", False, str(exc))
    axioms = bialgebra_axiom_defects(assembly, d_in)
    failed |= _add_check(report, "bialgebra-axioms", axioms.all_zero,
                         "" if axioms.all_zero else str(axioms.summary()))
    _, _, coherence = assembly.family_defects
    failed |= _add_check(report, "composition-coherence", not coherence,
                         "" if not coherence else _first_keys(coherence))
    limits = classical_limit_check(assembly, gamma, d_in)
    failed |= _add_check(report, "classical-limit-slices",
                         all(not v for v in limits.values()))
    return failed


def _setting(args, parsed: ParsedInput, name: str, default: int | None = None) -> int | None:
    """A solver setting: the flag of that name, else the document option."""
    flag = getattr(args, name)
    if flag is not None:
        return flag
    value = parsed.options.get(name)
    return default if value is None else non_negative_int(value, name, f"/options/{name}")


def _seed_order(args, parsed: ParsedInput, report: dict) -> int | None:
    """The seed-order setting; one taken from the document goes into the report."""
    seed_order = _setting(args, parsed, "seed_order")
    if args.seed_order is None and seed_order is not None:
        report["seed_order"] = seed_order
    return seed_order


def cmd_quantize(args) -> int:
    raw, doc = _load_input(args.input)
    report = _base_report(raw, args.seed_order)
    parsed = parse_document(doc)
    if run_classical_checks(parsed, report):
        report["exit"] = EXIT_DEFECT
        _emit(report, args)
        return EXIT_DEFECT
    gamma = parsed.gamma or _trivial_gamma(parsed.bialgebra)
    order = _setting(args, parsed, "order", 2)
    cap = _setting(args, parsed, "degree_cap")
    seed_order = _seed_order(args, parsed, report)
    d_in = args.d_in
    log = GaugeLog()
    t0 = time.time()
    try:
        assembly = assemble_gamma_quantization(gamma, order, log=log, cap=cap,
                                               seed_order=seed_order)
    except SolverInconsistencyError as exc:
        report["exit"] = EXIT_SOLVER
        report["solver_error"] = str(exc)
        report["gauge_log"] = log.as_dict()
        _emit(report, args)
        return EXIT_SOLVER
    failed = _verify_assembly(assembly, parsed, report, d_in)
    elapsed = time.time() - t0
    artifact = {
        "tool_version": __version__,
        "input_digest": _digest(raw),
        "input": doc,
        "d_in": d_in,
        "gauge_log": log.as_dict(),
        "assembly": _assembly_to_json(assembly),
        "checks": report["checks"],
    }
    if args.seed_order is not None:
        artifact["seed_order"] = args.seed_order
    if args.timestamps == "on":
        artifact["timings"] = {"quantize_seconds": round(elapsed, 3)}
        report["timings"] = artifact["timings"]
    payload = json.dumps(artifact, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        report["artifact"] = args.out
    else:
        report["artifact_inline"] = artifact
    report["exit"] = EXIT_DEFECT if failed else EXIT_OK
    _emit(report, args)
    return report["exit"]


def cmd_compare(args) -> int:
    raw, doc = _load_input(args.input)
    report = _base_report(raw, args.seed_order)
    parsed = parse_document(doc)
    if parsed.quasitriangular is None or parsed.gamma is None:
        raise SchemaError("compare needs both an r-matrix and a group action", "/")
    if run_classical_checks(parsed, report):
        report["exit"] = EXIT_DEFECT
        _emit(report, args)
        return EXIT_DEFECT
    order = _setting(args, parsed, "order", 2)
    cap = _setting(args, parsed, "degree_cap")
    seed_order = _seed_order(args, parsed, report)
    env = Envelope(parsed.bialgebra.lie)
    log = GaugeLog()
    try:
        generic = assemble_gamma_quantization(parsed.gamma, order, env=env, log=log,
                                              cap=cap, seed_order=seed_order)
        direct = quasitriangular_gamma_quantize(parsed.quasitriangular,
                                                parsed.gamma.action, order, env=env,
                                                log=log, cap=cap, seed_order=seed_order)
    except SolverInconsistencyError as exc:
        report["exit"] = EXIT_SOLVER
        report["solver_error"] = str(exc)
        _emit(report, args)
        return EXIT_SOLVER
    witness = compare_pipelines(generic, direct, window=args.d_in, log=log,
                                seed_order=seed_order)
    report["gauge_log"] = log.as_dict()
    if isinstance(witness, ComparisonWitness):
        _add_check(report, "pipeline-equivalence", True)
        report["witness"] = witness.as_dict(lambda s: series_to_json(s.coeffs))
        report["exit"] = EXIT_OK
    else:
        _add_check(report, "pipeline-equivalence", False, "no witness within ladder")
        report["certificate"] = {
            "rows": {str(k): str(v) for k, v in sorted((witness.combination or {}).items())},
            "residual": str(witness.residual),
        } if witness is not None else None
        report["exit"] = EXIT_NO_WITNESS
    _emit(report, args)
    return report["exit"]


def cmd_verify_artifact(args) -> int:
    raw, artifact = _load_input(args.input)
    report = _base_report(raw)
    if not isinstance(artifact, dict) or "assembly" not in artifact or "input" not in artifact:
        raise SchemaError("not a quantization artifact", "/")
    d_in = non_negative_int(artifact.get("d_in", 2), "d_in", "/d_in")
    try:
        parsed = parse_document(artifact["input"])
        classical_failed = run_classical_checks(parsed, report)
    except SchemaError as exc:
        raise exc.within("/input") from None
    if classical_failed:
        report["exit"] = EXIT_DEFECT
        _emit(report, args)
        return EXIT_DEFECT
    assembly, intertwiners = _assembly_from_json(artifact["assembly"], parsed)
    failed = _verify_assembly(assembly, parsed, report, d_in, intertwiners)
    report["exit"] = EXIT_DEFECT if failed else EXIT_OK
    _emit(report, args)
    return report["exit"]


def cmd_catalog(args) -> int:
    entries = []
    for name in catalog.names():
        doc = catalog.input_document(name)
        entries.append({
            "name": name,
            "dimension": doc["dimension"],
            "group": doc.get("group", {}).get("elements", ["-"]) if doc.get("group") else None,
            "has_r": "r" in doc,
        })
    report = {"tool_version": __version__, "catalog": entries}
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for entry in entries:
            grp = ",".join(entry["group"]) if entry["group"] else "-"
            print(f"{entry['name']:<20} dim={entry['dimension']} r={'yes' if entry['has_r'] else 'no'} group={grp}")
    return EXIT_OK


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liequant",
        description="Exact workbench for Lie bialgebras with group twist families "
                    "and their order-by-order quantization.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    def seed_order(p):
        p.add_argument("--seed-order", type=int, default=None, dest="seed_order",
                       help="deterministic reshuffle of the gauge-pinning variable order")

    p = sub.add_parser("check", help="run every applicable classical check")
    p.add_argument("input", help="input JSON path or catalog:NAME")
    output(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("quantize", help="solve and assemble the graded quantization")
    p.add_argument("input")
    p.add_argument("--order", type=_non_negative, default=None)
    p.add_argument("--degree-cap", type=_non_negative, default=None, dest="degree_cap")
    p.add_argument("--d-in", type=_non_negative, default=2, dest="d_in",
                   help="degree window for the axiom verification")
    p.add_argument("--out", default=None, help="artifact output path")
    p.add_argument("--timestamps", choices=("on", "off"), default="off")
    output(p)
    seed_order(p)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("compare", help="compare generic and direct quantizations")
    p.add_argument("input")
    p.add_argument("--order", type=_non_negative, default=None)
    p.add_argument("--degree-cap", type=_non_negative, default=None, dest="degree_cap")
    p.add_argument("--d-in", type=_non_negative, default=2, dest="d_in")
    output(p)
    seed_order(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify-artifact", help="re-verify a quantization artifact")
    p.add_argument("input")
    output(p)
    p.set_defaults(func=cmd_verify_artifact)

    p = sub.add_parser("catalog", help="list shipped examples")
    output(p)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(json.dumps({"error": "schema", "message": str(exc),
                          "location": exc.location}, sort_keys=True, indent=2),
              file=sys.stderr)
        return EXIT_SCHEMA
    except SolverInconsistencyError as exc:
        print(json.dumps({"error": "solver", "message": str(exc)}, sort_keys=True,
                         indent=2), file=sys.stderr)
        return EXIT_SOLVER
    except (MathDefectError, InternalCheckError) as exc:
        print(json.dumps({"error": "defect", "message": str(exc)}, sort_keys=True,
                         indent=2), file=sys.stderr)
        return EXIT_DEFECT
    except LiequantError as exc:
        print(json.dumps({"error": "other", "message": str(exc)}, sort_keys=True,
                         indent=2), file=sys.stderr)
        return EXIT_DEFECT


if __name__ == "__main__":
    sys.exit(main())
