"""The artifact codec, the assembly check table and the verifier."""

import json
import sys

import pytest

from liequant import catalog
from liequant.artifact import (_assembly_from_json, _assembly_to_json, _trivial_gamma,
                               _verify_assembly)
from liequant.cli import main
from liequant.envelope import Envelope
from liequant.hquant import solvers
from liequant.hquant.core import CoproductSeries, ElSeries, MapSeries
from liequant.hquant.gammaq import GammaQuantization, assemble_gamma_quantization
from liequant.schema import parse_document
from liequant.sparse import El

# the checks of a verified assembly, in report order
CHECKS = ["coproduct-algebra-map", "coproduct-coassociativity", "coproduct-counit",
          "coproduct-classical-limit", "twist-cocycle", "twist-counit", "twist-classical-limit",
          "transport-intertwining", "family-identities", "bialgebra-axioms",
          "composition-coherence", "classical-limit-slices"]


@pytest.fixture(scope="module")
def z2():
    parsed = parse_document(catalog.input_document("sl2-cartan-z2"))
    return parsed, assemble_gamma_quantization(parsed.gamma, 2)


def tables(assembly: GammaQuantization) -> dict:
    """Every stored series of an assembly, per generator where it is a map."""
    gens = range(assembly.env.dim)
    return {
        "coproduct": [assembly.cop.gen_series(i).coeffs for i in gens],
        "twist_family": {g: s.coeffs for g, s in assembly.f_map.items()},
        "transport": {g: [t.gen_series(i).coeffs for i in gens]
                      for g, t in assembly.t_map.items()},
        "compositions": {pair: s.coeffs for pair, s in assembly.v_map.items()},
    }


def verify(assembly: GammaQuantization, **kwargs) -> tuple[bool, list]:
    report = {"checks": []}
    failed = _verify_assembly(assembly, report, 1, **kwargs)
    return failed, [(c["name"], c["status"]) for c in report["checks"]]


def test_codec_round_trip_gives_back_equal_tables(z2):
    parsed, assembly = z2
    data = json.loads(json.dumps(_assembly_to_json(assembly)))
    decoded, intertwiners = _assembly_from_json(data, parsed)
    assert decoded.order == assembly.order
    assert tables(decoded) == tables(assembly)
    assert intertwiners == {g: iso.tables for g, iso in assembly.intertwiners.items()}
    assert _assembly_to_json(decoded) == data


def test_verifier_passes_every_check_in_report_order(z2):
    parsed, assembly = z2
    decoded, intertwiners = _assembly_from_json(_assembly_to_json(assembly), parsed)
    failed, checks = verify(decoded, stored_intertwiners=intertwiners)
    assert not failed
    assert checks == [(name, "pass") for name in CHECKS]


def test_shifted_order_2_twist_coefficient_fails_twist_cocycle(z2):
    parsed, assembly = z2
    g = next(g for g in assembly.group.elements() if g != assembly.group.identity)
    coeffs = [c.copy() for c in assembly.f_map[g].coeffs]
    # e f ⊗ h: counit-free, but its coboundary e⊗f⊗h + f⊗e⊗h is not zero
    coeffs[2] = coeffs[2] + El.term(((0, 1), (2,)))
    f_map = {**assembly.f_map, g: ElSeries(assembly.env, 2, coeffs)}
    shifted = GammaQuantization(assembly.env, assembly.gamma, assembly.cop, f_map,
                                assembly.t_map, assembly.v_map, assembly.order)
    failed, checks = verify(shifted)
    assert failed
    status = dict(checks)
    assert status["twist-cocycle"] == "fail"
    assert status["twist-counit"] == status["twist-classical-limit"] == "pass"


def test_quantize_evaluates_each_generator_check_once(monkeypatch, capsys):
    # the defect tables of the full-order coproduct and of each twist are
    # evaluated once per job: in the check table that the assembly closes on
    # and the verifier reports
    calls = {"coproduct_defects": 0, "twist_defects": 0}
    for name in calls:
        original = getattr(solvers, name)

        def counted(*args, _name=name, _original=original):
            if _name == "twist_defects" or args[1].order == 3:
                calls[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("liequant")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    assert main(["quantize", "catalog:sl2-cartan-z2", "--order", "3", "--d-in", "1",
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == {"coproduct_defects": 1, "twist_defects": 2}


def test_intertwiner_that_breaks_the_bracket_fails_transport_intertwining(tmp_path, capsys):
    # solvable2 ([h, x] = x) with the undeformed coproduct and the intertwiner
    # i(x) = x + h²·h: it intertwines and its images are counit-free, but
    # i([h, x]) - [i(h), i(x)] = h²·h, so it is no algebra map
    doc = catalog.input_document("solvable2")
    bialg = parse_document(doc).bialgebra
    env, gamma = Envelope(bialg.lie), _trivial_gamma(bialg)
    e = gamma.group.identity
    tables = [dict(table) for table in MapSeries.identity(env, 2).tables]
    tables[2][1] = El.term(((0,),))
    iso = MapSeries(env, 2, tables)
    cop = CoproductSeries.undeformed(env, 2)
    assembly = GammaQuantization(env, gamma, cop, {e: ElSeries.unit(env, 2, 2)},
                                 {e: iso.inverse()}, {(e, e): ElSeries.unit(env, 1, 2)}, 2)
    defects = solvers.iso_defects(bialg, cop, cop, assembly.intertwiners[e])
    assert defects["algebra-map"] and not defects["intertwining"] and not defects["counit"]
    assert ("transport-intertwining", False, "") in assembly.checks
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps({"input": doc, "d_in": 1,
                                "assembly": _assembly_to_json(assembly)}))
    assert main(["verify-artifact", str(path), "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["transport-intertwining"] == "fail"
