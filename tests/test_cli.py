"""Command-line interface: exit codes, reports, artifacts, reproducibility."""

import copy
import json
from fractions import Fraction

import pytest

from liequant import catalog
from liequant.artifact import _assembly_from_json
from liequant.cli import main
from liequant.hquant.gammaq import bialgebra_axiom_defects
from liequant.schema import parse_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    return str(path)


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    data = json.loads(out)
    names = {entry["name"] for entry in data["catalog"]}
    assert {"abelian2", "solvable2", "sl2", "sl2-trivial", "sl2-cartan-z2"} <= names


def test_check_catalog_passes(capsys):
    code, out, _ = run(capsys, "check", "catalog:sl2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["jacobi"] == "pass"
    assert statuses["cybe"] == "pass"


def test_check_detects_mutated_structure_constant(tmp_path, capsys):
    doc = catalog.input_document("sl2")
    doc["bracket"]["0,1"] = {"0": "1"}  # [e,f] = e breaks Jacobi
    code, out, _ = run(capsys, "check", write_doc(tmp_path, doc), "--format", "json")
    assert code == 2
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["jacobi"] == "fail"
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert any(c.get("detail") for c in failing)  # defect location is named


def test_check_schema_error_exit_code(tmp_path, capsys):
    doc = catalog.input_document("sl2")
    del doc["bracket"]
    code, _, err = run(capsys, "check", write_doc(tmp_path, doc), "--format", "json")
    assert code == 3
    assert "bracket" in err


def test_check_bad_rational_rejected(tmp_path, capsys):
    doc = catalog.input_document("sl2")
    doc["bracket"]["0,1"] = {"2": 0.5}
    code, _, err = run(capsys, "check", write_doc(tmp_path, doc), "--format", "json")
    assert code == 3


def test_check_unreadable_input(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/input.json")
    assert code == 3


def test_quantize_order_zero(tmp_path, capsys):
    code, out, _ = run(capsys, "quantize", "catalog:sl2-cartan-z2", "--order", "0",
                       "--d-in", "1", "--format", "json")
    assert code == 0


def test_quantize_rejects_condition_b_violation(tmp_path, capsys):
    doc = catalog.input_document("sl2-cartan-z2")
    doc["twists"]["g"] = {"0,1": "2"}   # scaled twist breaks (a)/(b)
    code, out, _ = run(capsys, "quantize", write_doc(tmp_path, doc), "--order", "1",
                       "--format", "json")
    assert code == 2
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert "fail" in {statuses.get("gamma-(a)"), statuses.get("gamma-(b)")}


def test_quantize_artifact_roundtrip_and_reproducibility(tmp_path, capsys):
    art1 = tmp_path / "a1.json"
    art2 = tmp_path / "a2.json"
    code, _, _ = run(capsys, "quantize", "catalog:solvable2-tri-z2", "--order", "2",
                     "--out", str(art1), "--format", "json")
    assert code == 0
    code, _, _ = run(capsys, "quantize", "catalog:solvable2-tri-z2", "--order", "2",
                     "--out", str(art2), "--format", "json")
    assert code == 0
    assert art1.read_bytes() == art2.read_bytes()
    payload = json.loads(art1.read_text())
    assert payload["gauge_log"]["solves"]
    code, out, _ = run(capsys, "verify-artifact", str(art1), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert all(c["status"] != "fail" for c in report["checks"])


def test_verify_artifact_detects_tampering(tmp_path, capsys):
    art = tmp_path / "a.json"
    code, _, _ = run(capsys, "quantize", "catalog:solvable2-tri-z2", "--order", "2",
                     "--out", str(art), "--format", "json")
    assert code == 0
    payload = json.loads(art.read_text())
    label = payload["input"]["group"]["elements"][1]
    series = payload["assembly"]["twist_family"][label]
    # tamper with the order-1 coefficient of the twist series
    key, value = next(iter(series[1].items()))
    series[1][key] = "7/3"
    art.write_text(json.dumps(payload, sort_keys=True, indent=2))
    code, out, _ = run(capsys, "verify-artifact", str(art), "--format", "json")
    assert code == 2


def test_quantize_plain_bialgebra_uses_trivial_grading(capsys):
    code, out, _ = run(capsys, "quantize", "catalog:solvable2", "--order", "2",
                       "--d-in", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["artifact_inline"]["assembly"]["coproduct"]


def test_compare_flagship(capsys):
    code, out, _ = run(capsys, "compare", "catalog:sl2-cartan-z2", "--order", "1",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["witness"]["j"]
    assert {c["name"]: c["status"] for c in report["checks"]}["pipeline-equivalence"] == "pass"


def test_compare_requires_r_and_group(tmp_path, capsys):
    code, _, err = run(capsys, "compare", "catalog:sl2")
    assert code == 3


def _abelian_flip_doc(scale: str) -> dict:
    # abelian algebra, r = a0∧a1, swap action; the twist family scaled by
    # `scale` relative to the one r induces (conditions (a),(b),(c) hold for
    # any scale since the bracket vanishes)
    return {
        "dimension": 2,
        "basis": ["a0", "a1"],
        "bracket": {},
        "cobracket": {},
        "r": {"0,1": "1", "1,0": "-1"},
        "group": {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
        "action": {"s": [["0", "1"], ["1", "0"]]},
        "twists": {"s": {"0,1": scale}},
    }


def test_compare_mismatched_family_exits_5(tmp_path, capsys):
    # the r-induced twist is -2(a0∧a1); doubling it still passes every
    # classical check but quantizes a different object, so no witness exists
    doc = _abelian_flip_doc("-4")
    code, out, _ = run(capsys, "compare", write_doc(tmp_path, doc), "--order", "2",
                       "--format", "json")
    assert code == 5
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["gamma-(b)"] == "pass"
    assert statuses["pipeline-equivalence"] == "fail"


def test_compare_matching_family_and_trivial_r(tmp_path, capsys):
    doc = _abelian_flip_doc("-2")
    code, _, _ = run(capsys, "compare", write_doc(tmp_path, doc), "--order", "2",
                     "--format", "json")
    assert code == 0
    trivial = _abelian_flip_doc("0")
    trivial["r"] = {}
    trivial["twists"] = {}
    code, out, _ = run(capsys, "compare", write_doc(tmp_path, trivial), "--order", "2",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    # identity witness: generator images are the generators, right factors 1
    j_tables = report["witness"]["j"]
    assert j_tables["0"][0] == {"0": "1"}
    assert all(not entry for entry in j_tables["0"][1:])


def test_seed_order_changes_gauge_not_validity(capsys):
    code, out1, _ = run(capsys, "quantize", "catalog:solvable2-tri-z2", "--order", "2",
                        "--format", "json", "--seed-order", "7")
    assert code == 0
    code, out2, _ = run(capsys, "quantize", "catalog:solvable2-tri-z2", "--order", "2",
                        "--format", "json", "--seed-order", "7")
    assert code == 0
    # deterministic under a fixed seed
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["artifact_inline"]["assembly"] == r2["artifact_inline"]["assembly"]


def test_quantize_solver_cap_failure_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    from liequant import cli
    from liequant.errors import SolverInconsistencyError

    def boom(*args, **kwargs):
        raise SolverInconsistencyError("probe", certificate=None,
                                       hint="increase --degree-cap")

    monkeypatch.setattr(cli, "assemble_gamma_quantization", boom)
    code, out, _ = run(capsys, "quantize", "catalog:solvable2-tri-z2", "--order", "2",
                       "--format", "json")
    assert code == 4
    report = json.loads(out)
    assert "degree-cap" in report["solver_error"]


def test_compare_solver_cap_failure_maps_to_exit_4(capsys, monkeypatch):
    from liequant import cli
    from liequant.errors import SolverInconsistencyError

    def boom(*args, **kwargs):
        raise SolverInconsistencyError("probe", certificate=None,
                                       hint="increase --degree-cap")

    # the generic pipeline solves, then the direct one fails
    monkeypatch.setattr(cli, "quasitriangular_gamma_quantize", boom)
    code, out, _ = run(capsys, "compare", "catalog:solvable2-tri-z2", "--order", "2",
                       "--format", "json")
    assert code == 4
    report = json.loads(out)
    assert "degree-cap" in report["solver_error"]
    # the exit-4 report keeps the gauge log of the solves that ran, as quantize's does
    assert report["gauge_log"]["solves"]


def test_text_format_output(capsys):
    code, out, _ = run(capsys, "check", "catalog:abelian2")
    assert code == 0
    assert "jacobi" in out
    assert "exit: 0" in out


def test_missing_cobracket_derived_from_r(tmp_path, capsys):
    doc = catalog.input_document("sl2")
    del doc["cobracket"]
    code, out, _ = run(capsys, "check", write_doc(tmp_path, doc), "--format", "json")
    assert code == 0
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["r-cobracket-consistency"] == "pass"
    assert statuses["cocycle"] == "pass"


def test_explicit_zero_cobracket_with_r_is_inconsistent(tmp_path, capsys):
    doc = catalog.input_document("sl2")
    doc["cobracket"] = {}
    code, out, _ = run(capsys, "check", write_doc(tmp_path, doc), "--format", "json")
    assert code == 2
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["r-cobracket-consistency"] == "fail"


def test_check_report_bytes_deterministic(capsys):
    _, out1, _ = run(capsys, "check", "catalog:sl2-cartan-z2", "--format", "json")
    _, out2, _ = run(capsys, "check", "catalog:sl2-cartan-z2", "--format", "json")
    assert out1 == out2


def test_timestamps_flag_adds_timings(tmp_path, capsys):
    code, out, _ = run(capsys, "quantize", "catalog:abelian2", "--order", "1",
                       "--d-in", "1", "--format", "json", "--timestamps", "on")
    assert code == 0
    report = json.loads(out)
    assert "timings" in report


@pytest.mark.parametrize("argv", [
    ("check", "catalog:sl2", "--timestamps", "on"),
    ("check", "catalog:sl2", "--seed-order", "7"),
    ("compare", "catalog:solvable2-tri-z2", "--timestamps", "on"),
    ("verify-artifact", "artifact.json", "--timestamps", "on"),
    ("verify-artifact", "artifact.json", "--seed-order", "7"),
], ids=["check-timestamps", "check-seed-order", "compare-timestamps",
        "verify-timestamps", "verify-seed-order"])
def test_options_without_effect_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_negative_numbers_are_usage_errors(capsys):
    import pytest

    for flag in ("--order", "--d-in", "--degree-cap", "--seed-order"):
        for command in ("quantize", "compare"):
            with pytest.raises(SystemExit) as info:
                main([command, "catalog:solvable2-tri-z2", flag, "-1"])
            assert info.value.code == 2
            assert "non-negative" in capsys.readouterr().err
    # a negative window used to verify nothing and report every check as passing
    with pytest.raises(SystemExit) as info:
        main(["quantize", "catalog:solvable2-tri-z2", "--order", "2", "--d-in", "-3"])
    assert info.value.code == 2


def test_negative_seed_order_is_refused_not_mirrored(capsys):
    # random.Random(-7) shuffles like random.Random(7): a negative seed-order
    # would report -7 and pin the gauge of 7
    for command in ("quantize", "compare"):
        with pytest.raises(SystemExit) as info:
            main([command, "catalog:abelian2", "--order", "1", "--seed-order", "-7"])
        assert info.value.code == 2
        assert "non-negative" in capsys.readouterr().err


def test_solver_failure_reports_the_checked_certificate(capsys):
    from argparse import Namespace

    from liequant.cli import _solver_failure
    from liequant.envelope import Envelope
    from liequant.errors import SolverInconsistencyError
    from liequant.hquant.solvers import GaugeLog, solve_coproduct, solve_twist_pair
    from liequant.linsolve import verify_certificate

    # the Cartan-twisted and the untwisted sl2 coproducts differ in their
    # classical limits, so no intertwiner exists at order 1 on any rung
    bialg = catalog.sl2()
    env = Envelope(bialg.lie)
    cop = solve_coproduct(bialg, 1, env)
    log = GaugeLog()
    with pytest.raises(SolverInconsistencyError) as info:
        solve_twist_pair(bialg, cop, catalog.sl2_cartan_twist(), cop, 1, log=log)
    cert = info.value.certificate
    assert _solver_failure({}, Namespace(format="json"), info.value, log) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["exit"] == 4 and "degree-cap" in report["solver_error"]
    assert [s["status"] for s in report["gauge_log"]["solves"]] == ["inconsistent"] * 2
    assert report["certificate"]["residual"] == str(cert.residual) != "0"
    assert report["certificate"]["rows"] == {str(k): str(v)
                                             for k, v in sorted(cert.combination.items())}
    assert cert.system.nrows == report["gauge_log"]["solves"][-1]["nrows"]
    assert verify_certificate(cert.system, cert)


def test_negative_order_option_is_a_schema_error(tmp_path, capsys):
    doc = catalog.input_document("solvable2-tri-z2")
    for bad in (-1, "x"):
        doc["options"] = {"order": bad}
        code, _, err = run(capsys, "quantize", write_doc(tmp_path, doc), "--format", "json")
        assert code == 3
        assert json.loads(err)["location"] == "/options/order"


@pytest.fixture(scope="module")
def z2_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "z2.json"
    assert main(["quantize", "catalog:solvable2-tri-z2", "--order", "2",
                 "--out", str(path), "--format", "json"]) == 0
    return json.loads(path.read_text())


def test_bad_integer_options_are_schema_errors(tmp_path, capsys):
    doc = catalog.input_document("solvable2-tri-z2")
    for name in ("order", "degree_cap", "seed_order", "copoisson_degree"):
        for bad in (-1, "x", 2.5, True, [1]):
            doc["options"] = {name: bad}
            for command in ("quantize", "compare"):
                code, _, err = run(capsys, command, write_doc(tmp_path, doc), "--format", "json")
                assert code == 3, (name, bad, command)
                assert json.loads(err)["location"] == f"/options/{name}"


def test_compare_honours_seed_order_option(tmp_path, capsys):
    doc = catalog.input_document("solvable2-tri-z2")
    doc["options"] = {"seed_order": 5}
    code, out, _ = run(capsys, "compare", write_doc(tmp_path, doc), "--format", "json")
    assert code == 0
    from_option = json.loads(out)
    code, out, _ = run(capsys, "compare", "catalog:solvable2-tri-z2", "--seed-order", "5",
                       "--format", "json")
    assert code == 0
    from_flag = json.loads(out)
    assert from_option["seed_order"] == 5
    for key in ("gauge_log", "witness", "checks"):
        assert from_option[key] == from_flag[key]


def _drop_first_pair(assembly):
    assembly["compositions"].pop(sorted(assembly["compositions"])[0])


def _rename_label(assembly):
    table = assembly["twist_family"]
    table["no-such-element"] = table.pop(sorted(table)[-1])


@pytest.mark.parametrize("mutate, location", [
    (lambda a: a.update(order="x"), "/assembly/order"),
    (lambda a: a.update(order=-1), "/assembly/order"),
    (lambda a: a.update(order=5), "/assembly/coproduct/0"),
    (lambda a: a.pop("coproduct"), "/assembly/coproduct"),
    (lambda a: a.pop("twist_family"), "/assembly/twist_family"),
    (lambda a: a.pop("transport"), "/assembly/transport"),
    (lambda a: a.pop("compositions"), "/assembly/compositions"),
    (_rename_label, "/assembly/twist_family/no-such-element"),
    (lambda a: a["twist_family"].update({"a/b~c": []}), "/assembly/twist_family/a~1b~0c"),
    (lambda a: a["transport"].pop("e"), "/assembly/transport"),
    (_drop_first_pair, "/assembly/compositions"),
    (lambda a: a["coproduct"].update({"2": a["coproduct"]["0"]}), "/assembly/coproduct/2"),
    (lambda a: a["compositions"]["e,e"][0].update({"1.0": "1"}), "/assembly/compositions/e,e"),
    (lambda a: a.pop("intertwiners"), "/assembly/intertwiners"),
    (lambda a: a["intertwiners"]["g"].update({"1": [{}]}), "/assembly/intertwiners/g/1"),
    (lambda a: a["compositions"]["e,e"][0].update({"00": "1"}), "/assembly/compositions/e,e"),
], ids=["order-not-int", "order-negative", "order-disagrees", "no-coproduct", "no-twist-family",
        "no-transport", "no-compositions", "unknown-label", "escaped-label", "missing-element",
        "missing-pair", "generator-out-of-range", "monomial-not-normal-ordered",
        "no-intertwiners", "intertwiner-wrong-length", "monomial-zero-padded"])
def test_verify_artifact_refuses_malformed_assembly(z2_artifact, mutate, location,
                                                     tmp_path, capsys):
    artifact = copy.deepcopy(z2_artifact)
    mutate(artifact["assembly"])
    code, _, err = run(capsys, "verify-artifact", write_doc(tmp_path, artifact),
                       "--format", "json")
    assert code == 3
    assert json.loads(err)["location"] == location


def test_scalar_rule_holds_through_axiom_verification(z2_artifact):
    assembly, _ = _assembly_from_json(z2_artifact["assembly"],
                                      parse_document(z2_artifact["input"]))
    assert bialgebra_axiom_defects(assembly, z2_artifact["d_in"]).all_zero
    elements = [el for series in (*assembly.f_map.values(), *assembly.v_map.values())
                for el in series.coeffs]
    elements += [el for tables in (assembly.cop.tables,
                                   *(t.tables for t in assembly.t_map.values()))
                 for table in tables for el in table.values()]
    assert assembly._slot_cache and assembly._cop_cache
    values = [v for el in elements for v in el.data.values()]
    values += [c for cache in (assembly._slot_cache, assembly._cop_cache)
               for terms in cache.values() for _, _, c in terms]
    assert values
    assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in values)


@pytest.fixture(scope="module")
def sl2_z2_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "sl2-z2.json"
    assert main(["quantize", "catalog:sl2-cartan-z2", "--order", "2",
                 "--out", str(path), "--format", "json"]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("fixture", ["z2_artifact", "sl2_z2_artifact"])
def test_scalar_rule_holds_in_extension_caches(fixture, request):
    artifact = request.getfixturevalue(fixture)
    assembly, _ = _assembly_from_json(artifact["assembly"], parse_document(artifact["input"]))
    assert bialgebra_axiom_defects(assembly, artifact["d_in"]).all_zero

    def with_truncations(maps):
        for series_map in maps:
            yield series_map
            yield from with_truncations(series_map._truncations.values())

    for maps in ([assembly.cop], assembly.t_map.values()):
        values = [c for series_map in with_truncations(maps)
                  for images in series_map._ext.values() for el in images
                  for c in el.data.values()]
        assert values
        assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
                   for v in values)


Z2 = {"elements": ["e", "g"], "table": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("doc, location", [
    ({"dimension": 2, "bracket": []}, "/bracket"),
    ({"dimension": 2, "bracket": {}, "cobracket": {"0": []}}, "/cobracket/0"),
    ({"dimension": 2, "bracket": {"0,1": {"x": "1"}}}, "/bracket/0,1/x"),
    ({"dimension": 2, "basis": 5, "bracket": {}}, "/basis"),
    ({"dimension": 1, "bracket": {}, "group": {"elements": ["e", "g"], "table": [[0, 1], [1, 0]]},
      "action": {"g": [1]}}, "/action/g"),
    ({"dimension": 2.7, "bracket": {}}, "/dimension"),
    ({"dimension": True, "bracket": {}}, "/dimension"),
    ({"dimension": 0, "bracket": {}}, "/dimension"),
    ({"bracket": {}}, "/dimension"),
    ({"dimension": 2, "basis": [[1], [2]], "bracket": {}}, "/basis"),
    ({"dimension": 2, "basis": [1, "1"], "bracket": {}}, "/basis"),
    ({"dimension": 2, "basis": [True, "x"], "bracket": {}}, "/basis"),
    ({"dimension": 1, "bracket": {}, "group": Z2, "action": {"g": [["0"]]}}, "/action/g"),
    ({"dimension": 1, "bracket": {}, "group": Z2, "action": {"h": [["1"]]}}, "/action/h"),
    ({"dimension": 2, "bracket": {}, "group": Z2, "twists": {"h": {"0,1": "1"}}}, "/twists/h"),
    ({"dimension": 2, "bracket": {}, "twists": {"g": {"0,1": "1"}}}, "/twists/g"),
    ({"dimension": 2, "bracket": {"00,1": {"1": "1"}}}, "/bracket/00,1"),
    ({"dimension": 2, "bracket": {"0,0_1": {"1": "1"}}}, "/bracket/0,0_1"),
    ({"dimension": 2, "bracket": {"0,1": {"+1": "1"}}}, "/bracket/0,1/+1"),
    ({"dimension": 2, "bracket": {}, "cobracket": {" 1": {}}}, "/cobracket/ 1"),
    ({"dimension": 1, "bracket": {}, "group": {**Z2, "elements": ["e", "a/b"]},
      "action": {"a/b": [["0"]]}}, "/action/a~1b"),
    ({"dimension": 2, "bracket": {}, "group": {**Z2, "elements": ["e", "a~b"]},
      "twists": {"a~b": {"0/1": "1"}}}, "/twists/a~0b/0~11"),
    ({"dimension": 2, "bracket": {}, "cobracket": []}, "/cobracket"),
    ({"dimension": 2, "bracket": {}, "cobracket": 0}, "/cobracket"),
    ({"dimension": 1, "bracket": {}, "group": Z2, "action": []}, "/action"),
    ({"dimension": 1, "bracket": {}, "group": Z2, "action": False}, "/action"),
    ({"dimension": 2, "bracket": {}, "group": Z2, "twists": ""}, "/twists"),
    ({"dimension": 2, "bracket": {}, "group": Z2, "twists": {"g": []}}, "/twists/g"),
    ({"dimension": 2, "bracket": {}, "group": Z2, "twists": {"g": 0}}, "/twists/g"),
    ({"dimension": 2, "bracket": {}, "twists": []}, "/twists"),
    ({"dimension": 2, "bracket": {}, "options": False}, "/options"),
    ({"dimension": 2, "bracket": {}, "options": []}, "/options"),
    ({"dimension": 2, "bracket": {}, "options": ""}, "/options"),
], ids=["bracket-not-object", "cobracket-entry-not-object", "bracket-target-not-int",
        "basis-not-list", "action-row-not-list", "dimension-float", "dimension-bool",
        "dimension-zero", "dimension-missing", "basis-unhashable", "basis-collides-as-str",
        "basis-bool", "action-singular", "action-unknown-element", "twists-unknown-element",
        "twists-without-group", "pair-key-zero-padded", "pair-key-underscore",
        "target-key-signed", "generator-key-spaced", "label-with-slash", "label-with-tilde",
        "cobracket-empty-list", "cobracket-zero", "action-empty-list", "action-false",
        "twists-empty-string", "twist-entry-empty-list", "twist-entry-zero",
        "twists-empty-list-without-group", "options-false", "options-empty-list",
        "options-empty-string"])
def test_malformed_tables_are_schema_errors(doc, location, tmp_path, capsys):
    code, _, err = run(capsys, "check", write_doc(tmp_path, doc), "--format", "json")
    assert code == 3
    assert json.loads(err)["location"] == location


def test_null_optional_tables_read_as_empty(tmp_path, capsys):
    doc = catalog.input_document("sl2-cartan-z2")
    identity = doc["group"]["elements"][0]
    assert identity not in doc["twists"]
    _, out, _ = run(capsys, "check", write_doc(tmp_path, doc), "--format", "json")
    expected = json.loads(out)["checks"]
    doc.update(options=None)
    doc["twists"][identity] = None
    code, out, _ = run(capsys, "check", write_doc(tmp_path, doc), "--format", "json")
    assert code == 0
    assert json.loads(out)["checks"] == expected
    trivial = {"dimension": 2, "bracket": {}, "cobracket": None, "action": None,
               "twists": None, "options": None}
    code, _, err = run(capsys, "check", write_doc(tmp_path, trivial), "--format", "json")
    assert code == 0, err


def test_verify_artifact_points_into_embedded_input(z2_artifact, tmp_path, capsys):
    artifact = copy.deepcopy(z2_artifact)
    artifact["input"]["bracket"]["0,1"]["1"] = 0.5
    code, _, err = run(capsys, "verify-artifact", write_doc(tmp_path, artifact),
                       "--format", "json")
    assert code == 3
    error = json.loads(err)
    assert error["location"] == "/input/bracket/0,1/1"
    assert error["message"].startswith("/input/bracket/0,1/1: ")


def test_verify_artifact_refuses_singular_action(z2_artifact, tmp_path, capsys):
    artifact = copy.deepcopy(z2_artifact)
    artifact["input"]["action"]["g"] = [["1", "0"], ["0", "0"]]
    code, _, err = run(capsys, "verify-artifact", write_doc(tmp_path, artifact),
                       "--format", "json")
    assert code == 3
    assert json.loads(err)["location"] == "/input/action/g"


def test_second_spelling_of_an_index_is_refused(z2_artifact, tmp_path, capsys):
    # each second spelling comes before the real key, which used to replace it
    path = tmp_path / "unsorted.json"
    doc = catalog.input_document("solvable2-tri-z2")
    doc["bracket"] = {"0, 1": {"0": "7"}, **doc["bracket"]}
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(path), "--format", "json")
    assert code == 3
    assert json.loads(err)["location"] == "/bracket/0, 1"
    artifact = copy.deepcopy(z2_artifact)
    cop = artifact["assembly"]["coproduct"]
    artifact["assembly"]["coproduct"] = {"00": cop["1"], **cop}
    path.write_text(json.dumps(artifact))
    code, _, err = run(capsys, "verify-artifact", str(path), "--format", "json")
    assert code == 3
    assert json.loads(err)["location"] == "/assembly/coproduct/00"


def failing_checks(out: str) -> dict:
    return {c["name"]: c.get("detail", "") for c in json.loads(out)["checks"]
            if c["status"] == "fail"}


def test_verify_artifact_checks_stored_intertwiners(z2_artifact, tmp_path, capsys):
    artifact = copy.deepcopy(z2_artifact)
    artifact["assembly"]["intertwiners"]["g"]["1"][1] = {"1": "5"}
    code, out, _ = run(capsys, "verify-artifact", write_doc(tmp_path, artifact),
                       "--format", "json")
    assert code == 2
    assert failing_checks(out) == {"transport-intertwining": ""}


def coefficients(node):
    """``(table, key)`` for every coefficient of a nest of series, in sorted order."""
    if isinstance(node, list):
        for item in node:
            yield from coefficients(item)
    elif all(isinstance(value, str) for value in node.values()):
        for key in sorted(node):
            yield node, key
    else:
        for key in sorted(node):
            yield from coefficients(node[key])


@pytest.mark.parametrize("table", ["coproduct", "twist_family", "transport"])
def test_every_stored_coefficient_is_verified(z2_artifact, table, tmp_path, capsys):
    count = len(list(coefficients(z2_artifact["assembly"][table])))
    assert count
    for index in range(count):
        artifact = copy.deepcopy(z2_artifact)
        coeff, key = list(coefficients(artifact["assembly"][table]))[index]
        coeff[key] = str(Fraction(coeff[key]) + 1)
        code, _, _ = run(capsys, "verify-artifact", write_doc(tmp_path, artifact),
                         "--format", "json")
        assert code == 2, (table, index, key)


# details recorded with the unscaled axiom checks: a 1/997 shift, a prime no
# solved coefficient carries, gives the same failing counts on scaled integers
@pytest.mark.parametrize("key, detail", [
    ("e", "{'associativity': 0, 'unit': 0, 'coassociativity': 0, 'counit': 0, "
          "'compatibility': 36, 'grading': 0}"),
    ("1", "{'associativity': 324, 'unit': 0, 'coassociativity': 0, 'counit': 0, "
          "'compatibility': 0, 'grading': 0}"),
], ids=["scalar", "generator"])
def test_composition_shift_by_1_997_fails_the_axioms(z2_artifact, key, detail,
                                                    tmp_path, capsys):
    artifact = copy.deepcopy(z2_artifact)
    assert not artifact["assembly"]["compositions"]["g,g"][2]
    artifact["assembly"]["compositions"]["g,g"][2][key] = "1/997"
    code, out, _ = run(capsys, "verify-artifact", write_doc(tmp_path, artifact),
                       "--format", "json")
    assert code == 2
    assert failing_checks(out)["bialgebra-axioms"] == detail


# details recorded before the family checks were merged into one pass; h is
# fixed by the action of g, so shifting v_{g,g} by h keeps the family coherent
@pytest.mark.parametrize("primitive, coherence", [
    ({"0": "1"}, None),
    ({"1": "1"}, "(1, 1, 1)"),
], ids=["fixed-generator", "negated-generator"])
def test_shifted_composition_fails_the_family_checks(z2_artifact, primitive, coherence,
                                                      tmp_path, capsys):
    artifact = copy.deepcopy(z2_artifact)
    assert not artifact["assembly"]["compositions"]["g,g"][1]
    artifact["assembly"]["compositions"]["g,g"][1].update(primitive)
    code, out, _ = run(capsys, "verify-artifact", write_doc(tmp_path, artifact),
                       "--format", "json")
    assert code == 2
    failing = failing_checks(out)
    assert failing["family-identities"] == "family twist-composition defect at (1, 1)"
    assert failing.get("composition-coherence") == coherence
