"""Command-line front end.

Subcommands: check, quantize, compare, verify-artifact, catalog.
Exit codes: 0 pass, 2 mathematical defect, 3 schema error, 4 solver cap
failure, 5 equivalence not found.  Reports are deterministic for identical
inputs; timings are only included with --timestamps on.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, catalog
from .artifact import (_add_check, _add_defects, _assembly_from_json, _assembly_to_json,
                       _first_keys, _trivial_gamma, _verify_assembly)
from .envelope import Envelope, copoisson_axiom_defects, copoisson_delta
from .errors import (InternalCheckError, LiequantError, MathDefectError, SchemaError,
                     SolverInconsistencyError)
from .groups import check_action, gamma_defects
from .hquant.gammaq import (ComparisonWitness, assemble_gamma_quantization, compare_pipelines,
                            quasitriangular_gamma_quantize)
from .hquant.solvers import GaugeLog
from .lie import (cocycle_defect as bialg_cocycle_defect, cojacobi_defect, coboundary_cobracket,
                  cybe_defect, invariance_defect, jacobi_defect)
from .schema import ParsedInput, non_negative_int, parse_document, series_to_json

EXIT_OK = 0
EXIT_DEFECT = 2
EXIT_SCHEMA = 3
EXIT_SOLVER = 4
EXIT_NO_WITNESS = 5


def _sha256():
    """The interpreter's built-in SHA-256.  ``hashlib`` loads OpenSSL
    (``_hashlib``, about 3.6 MB resident) for this one digest, so it is only
    the fallback for a build without built-in hashes."""
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    import hashlib
    return hashlib.sha256


def _digest(raw: bytes) -> str:
    return "sha256:" + _sha256()(raw).hexdigest()


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


def run_classical_checks(parsed: ParsedInput, report: dict) -> bool:
    """All applicable classical checks; returns True if any defect found."""
    bialg = parsed.bialgebra
    failed = False
    failed |= _add_defects(report, "jacobi", jacobi_defect(bialg.lie).data)
    failed |= _add_defects(report, "co-jacobi", cojacobi_defect(bialg).data)
    failed |= _add_defects(report, "cocycle", bialg_cocycle_defect(bialg).data)

    if parsed.quasitriangular is not None:
        qt = parsed.quasitriangular
        failed |= _add_defects(report, "cybe", cybe_defect(qt.lie, qt.r).data)
        failed |= _add_defects(report, "t-invariance", invariance_defect(qt.lie, qt.t).data)
        derived = coboundary_cobracket(qt.lie, qt.r)
        same = all(derived[i] == bialg.cobracket_basis(i) for i in range(bialg.dim))
        failed |= _add_check(report, "r-cobracket-consistency", same)
    else:
        _add_check(report, "cybe", None, "no r-matrix")

    if parsed.gamma is not None:
        gamma = parsed.gamma
        action_report = check_action(gamma.action, bialg.lie)
        failed |= _add_check(report, "action", action_report.all_zero,
                             _first_keys(action_report.hom_defects or action_report.aut_defects))
        gd = gamma_defects(gamma)
        failed |= _add_defects(report, "gamma-(a)", gd.condition_a)
        failed |= _add_defects(report, "gamma-(b)", gd.condition_b)
        failed |= _add_defects(report, "gamma-(c)", gd.condition_c)
        failed |= _add_check(report, "gamma-identity-twist", gd.identity_twist is None)

        structure = copoisson_delta(gamma)
        d_in = non_negative_int(parsed.options.get("copoisson_degree", 2), "copoisson_degree",
                                "/options/copoisson_degree")
        rep = copoisson_axiom_defects(structure, d_in, 2 * d_in + 2)
        for part, table in sorted(rep.items()):
            failed |= _add_defects(report, f"copoisson-{part}", table)
    else:
        _add_check(report, "gamma-(a)", None, "no group")
    return failed


def _finish(report: dict, args, code: int) -> int:
    report["exit"] = code
    _emit(report, args)
    return code


def _prologue(args, raw: bytes, doc, where: str = "", needs_r_and_group: bool = False):
    """The shared start of every command on a document: start the report of
    the input ``raw``, parse ``doc`` (embedded in the input at pointer
    ``where``), and run the classical checks.

    Returns ``(report, parsed)``; ``parsed`` is None once a classical
    defect's exit-2 report is emitted.
    """
    report = {"tool_version": __version__, "input_digest": _digest(raw), "checks": []}
    if getattr(args, "seed_order", None) is not None:
        report["seed_order"] = args.seed_order
    try:
        parsed = parse_document(doc)
        if needs_r_and_group and (parsed.quasitriangular is None or parsed.gamma is None):
            raise SchemaError("compare needs both an r-matrix and a group action", "/")
        failed = run_classical_checks(parsed, report)
    except SchemaError as exc:
        raise (exc.within(where) if where else exc) from None
    if failed:
        _finish(report, args, EXIT_DEFECT)
        return report, None
    return report, parsed


def cmd_check(args) -> int:
    report, parsed = _prologue(args, *_load_input(args.input))
    return EXIT_DEFECT if parsed is None else _finish(report, args, EXIT_OK)


def _solver_settings(args, parsed: ParsedInput, report: dict) -> list[int | None]:
    """``[order, degree_cap, seed_order]``: each flag, else its document
    option; a seed order taken from the document goes into the report."""
    settings = []
    for name, default in (("order", 2), ("degree_cap", None), ("seed_order", None)):
        flag, option = getattr(args, name), parsed.options.get(name)
        settings.append(flag if flag is not None else default if option is None else
                        non_negative_int(option, name, f"/options/{name}"))
    if args.seed_order is None and settings[2] is not None:
        report["seed_order"] = settings[2]
    return settings


def _certificate_json(cert) -> dict | None:
    """An inconsistency certificate as reported: its row combination and residual."""
    if cert is None:
        return None
    return {"rows": {str(k): str(v) for k, v in sorted(cert.combination.items())},
            "residual": str(cert.residual)}


def _solver_failure(report: dict, args, exc: SolverInconsistencyError, log: GaugeLog) -> int:
    """Exit 4: a solve exhausted its support ladder; the report keeps the gauge
    log and the certificate of the last rung."""
    report["solver_error"] = str(exc)
    report["certificate"] = _certificate_json(exc.certificate)
    report["gauge_log"] = log.as_dict()
    return _finish(report, args, EXIT_SOLVER)


def cmd_quantize(args) -> int:
    raw, doc = _load_input(args.input)
    report, parsed = _prologue(args, raw, doc)
    if parsed is None:
        return EXIT_DEFECT
    gamma = parsed.gamma or _trivial_gamma(parsed.bialgebra)
    order, cap, seed_order = _solver_settings(args, parsed, report)
    log = GaugeLog()
    t0 = time.time()
    try:
        assembly = assemble_gamma_quantization(gamma, order, log=log, cap=cap,
                                               seed_order=seed_order)
    except SolverInconsistencyError as exc:
        return _solver_failure(report, args, exc, log)
    failed = _verify_assembly(assembly, report, args.d_in)
    elapsed = time.time() - t0
    artifact = {
        "tool_version": __version__,
        "input_digest": report["input_digest"],
        "input": doc,
        "d_in": args.d_in,
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
    return _finish(report, args, EXIT_DEFECT if failed else EXIT_OK)


def cmd_compare(args) -> int:
    report, parsed = _prologue(args, *_load_input(args.input), needs_r_and_group=True)
    if parsed is None:
        return EXIT_DEFECT
    order, cap, seed_order = _solver_settings(args, parsed, report)
    env = Envelope(parsed.bialgebra.lie)
    log = GaugeLog()
    try:
        generic = assemble_gamma_quantization(parsed.gamma, order, env=env, log=log,
                                              cap=cap, seed_order=seed_order)
        direct = quasitriangular_gamma_quantize(parsed.quasitriangular,
                                                parsed.gamma.action, order, env=env,
                                                log=log, cap=cap, seed_order=seed_order)
    except SolverInconsistencyError as exc:
        return _solver_failure(report, args, exc, log)
    witness = compare_pipelines(generic, direct, window=args.d_in, log=log,
                                seed_order=seed_order)
    report["gauge_log"] = log.as_dict()
    if isinstance(witness, ComparisonWitness):
        _add_check(report, "pipeline-equivalence", True)
        report["witness"] = witness.as_dict(lambda s: series_to_json(s.coeffs))
        return _finish(report, args, EXIT_OK)
    _add_check(report, "pipeline-equivalence", False, "no witness within ladder")
    report["certificate"] = _certificate_json(witness)
    return _finish(report, args, EXIT_NO_WITNESS)


def cmd_verify_artifact(args) -> int:
    raw, artifact = _load_input(args.input)
    if not isinstance(artifact, dict) or "assembly" not in artifact or "input" not in artifact:
        raise SchemaError("not a quantization artifact", "/")
    d_in = non_negative_int(artifact.get("d_in", 2), "d_in", "/d_in")
    report, parsed = _prologue(args, raw, artifact["input"], "/input")
    if parsed is None:
        return EXIT_DEFECT
    assembly, intertwiners = _assembly_from_json(artifact["assembly"], parsed)
    failed = _verify_assembly(assembly, report, d_in, intertwiners)
    return _finish(report, args, EXIT_DEFECT if failed else EXIT_OK)


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
        p.add_argument("--seed-order", type=_non_negative, default=None, dest="seed_order",
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
        error = {"error": "schema", "message": str(exc), "location": exc.location}
        code = EXIT_SCHEMA
    except SolverInconsistencyError as exc:
        error, code = {"error": "solver", "message": str(exc)}, EXIT_SOLVER
    except (MathDefectError, InternalCheckError) as exc:
        error, code = {"error": "defect", "message": str(exc)}, EXIT_DEFECT
    except LiequantError as exc:
        error, code = {"error": "other", "message": str(exc)}, EXIT_DEFECT
    print(json.dumps(error, sort_keys=True, indent=2), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
