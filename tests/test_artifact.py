"""The artifact codec and the assembly verifier, without the command line."""

import json

import pytest

from liequant import catalog
from liequant.artifact import _assembly_from_json, _assembly_to_json, _verify_assembly
from liequant.hquant.core import ElSeries
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


def verify(assembly: GammaQuantization, parsed, **kwargs) -> tuple[bool, list]:
    report = {"checks": []}
    failed = _verify_assembly(assembly, parsed, report, 1, **kwargs)
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
    failed, checks = verify(decoded, parsed, stored_intertwiners=intertwiners)
    assert not failed
    assert checks == [(name, "pass") for name in CHECKS]


def test_shifted_order_2_twist_coefficient_fails_twist_cocycle(z2):
    parsed, assembly = z2
    g = next(g for g in assembly.group.elements() if g != assembly.group.identity)
    coeffs = [c.copy() for c in assembly.f_map[g].coeffs]
    # e f ⊗ h: counit-free, but its coboundary e⊗f⊗h + f⊗e⊗h is not zero
    coeffs[2] = coeffs[2] + El.term(((0, 1), (2,)))
    f_map = {**assembly.f_map, g: ElSeries(assembly.env, 2, coeffs)}
    shifted = GammaQuantization(assembly.env, assembly.action, assembly.cop, f_map,
                                assembly.t_map, assembly.v_map, assembly.order)
    failed, checks = verify(shifted, parsed)
    assert failed
    status = dict(checks)
    assert status["twist-cocycle"] == "fail"
    assert status["twist-counit"] == status["twist-classical-limit"] == "pass"
