"""Linearised solver build: rows against brute-force affine rows, and pinned
output bytes of the solver-built pipeline."""

import hashlib
import json
from fractions import Fraction

import pytest

import liequant.hquant.gammaq as gammaq_module
import liequant.hquant.solvers as solvers_module
from liequant import catalog
from liequant.cli import main
from liequant.envelope import Envelope
from liequant.hquant.gammaq import assemble_gamma_quantization
from liequant.hquant.solvers import GaugeLog, solve_coproduct, solve_twist_pair
from liequant.hquant.unknowns import LinearisedDefect
from liequant.linsolve import LinSystem
from liequant.sparse import El


def brute_force_system(defect, k: int, unknowns: list[tuple]) -> LinSystem:
    """Rows of ``defect_k(top=E_u) - defect_k(top=0)`` at full order k."""
    zero = defect({}, k)
    rows: dict[tuple, dict[int, Fraction]] = {}
    for var, (slot, key) in enumerate(unknowns):
        full = defect({slot: El.term(key, Fraction(1))}, k)
        for bid in set(full) | set(zero):
            diff = full.get(bid, El()) - zero.get(bid, El())
            for ekey, c in diff.data.items():
                rows.setdefault((bid, ekey), {})[var] = c
    for bid, el in zero.items():
        for ekey in el.data:
            rows.setdefault((bid, ekey), {})
    system = LinSystem(nvars=len(unknowns))
    for bid, ekey in sorted(rows):
        system.add_row(rows[(bid, ekey)], -zero.get(bid, El()).coeff(ekey))
    return system


def rows_of(system: LinSystem) -> tuple:
    """A system's rows, in order and with each row's column order, and its
    right-hand sides."""
    return [list(r.items()) for r in system.rows], system.rhs


@pytest.fixture
def checked(monkeypatch):
    """Check every solve's systems, at both modules that solve through
    ``_solve_with_supports``: the first rung's against the brute force, and
    every system the solve builds from its shared ``Columns`` (each rung of
    each order) against one built cold.  Records ``(operation, order, rung,
    rows)`` per system built."""
    seen = []
    original = solvers_module._solve_with_supports

    def checking(operation, order, supports, defect, log, seed_order=None):
        _, slot_keys = supports[0]
        unknowns = [(slot, key) for slot, keys in slot_keys for key in keys]
        got = defect.system(unknowns)
        assert rows_of(got) == rows_of(brute_force_system(defect.defect, order, unknowns))
        shared, rungs = defect.system, iter(range(len(supports)))

        def system(unknowns):
            got = shared(unknowns)
            cold = LinearisedDefect(defect.defect, order).system(unknowns)
            assert rows_of(got) == rows_of(cold), (operation, order)
            seen.append((operation, order, next(rungs), got.nrows))
            return got

        defect.system = system
        return original(operation, order, supports, defect, log, seed_order)

    monkeypatch.setattr(solvers_module, "_solve_with_supports", checking)
    monkeypatch.setattr(gammaq_module, "_solve_with_supports", checking)
    return seen


def test_solver_systems_keep_the_scalar_rule(monkeypatch):
    # every value and right-hand side that reaches the elimination is an int
    # or a Fraction with denominator > 1 (integral Fractions would reach it
    # from the joint twist-pair rows of both assemblies)
    seen = []
    original = solvers_module.lin_solve

    def checking(system):
        for row, b in zip(system.rows, system.rhs):
            for v in (*row.values(), b):
                assert type(v) is int or (type(v) is Fraction and v.denominator > 1), v
        seen.append(system.nrows)
        return original(system)

    monkeypatch.setattr(solvers_module, "lin_solve", checking)
    for name in ("solvable2-tri-s3", "solvable2-tri-z2"):
        assemble_gamma_quantization(catalog.gamma_family(name), 2)
    assert seen


def test_coproduct_rows_match_brute_force(checked):
    solve_coproduct(catalog.solvable2(), 2)
    assert [(op, k) for op, k, _, _ in checked] == [("coproduct", 2)]
    assert checked[0][3] > 0


def test_joint_twist_pair_rows_match_brute_force(checked):
    bialg = catalog.sl2()
    env = Envelope(bialg.lie)
    cop = solve_coproduct(bialg, 2, env)
    target = cop.pushforward(catalog.sl2_cartan_involution())
    solve_twist_pair(bialg, cop, catalog.sl2_cartan_twist(), target, 2)
    ops = [(op, k) for op, k, _, _ in checked]
    assert ("twist-pair", 1) in ops and ("twist-pair", 2) in ops


def test_escalations_and_later_orders_reuse_columns(checked, monkeypatch):
    # the catalog's order-3 solves do not escalate on their own ladders, so
    # each ladder gets a first rung with half of every slot's keys: where it
    # is inconsistent, the next rung builds its system from the columns that
    # rung left plus the keys it adds
    original = solvers_module._support_ladder

    def with_a_half_rung(env, cap, *parts):
        ladder = original(env, cap, *parts)
        _, slot_keys = ladder[0]
        return [("half", [(slot, keys[: len(keys) // 2]) for slot, keys in slot_keys])] + ladder

    monkeypatch.setattr(solvers_module, "_support_ladder", with_a_half_rung)
    log = GaugeLog()
    assemble_gamma_quantization(catalog.gamma_family("solvable2-tri-z2"), 3, log=log)
    escalated = {(r.operation, r.order) for r in log.records if r.status == "inconsistent"}
    assert {("coproduct", 3), ("twist-pair", 3)} <= escalated
    assert {(op, k) for op, k, rung, _ in checked if rung} == escalated
    # the systems of the later orders, which read the columns of the orders
    # before them, were checked too
    assert {(op, k) for op, k, _, _ in checked} >= {
        ("coproduct", 2), ("twist-pair", 1), ("twist-pair", 2), ("composition-v", 3)}


def test_alignment_rows_match_brute_force(checked):
    assemble_gamma_quantization(catalog.gamma_family("solvable2-tri-z2"), 2)
    ops = [(op, k) for op, k, _, _ in checked]
    assert ("v-alignment", 1) in ops and ("v-alignment", 2) in ops


def test_compare_rows_match_brute_force(checked, capsys):
    # the direct pipeline's conjugator, the composition elements and the
    # comparison witness, at orders 1 and 2
    assert main(["compare", "catalog:solvable2-tri-z2", "--order", "2", "--format", "json"]) == 0
    capsys.readouterr()
    ops = {(op, k) for op, k, _, _ in checked}
    assert {("j-conjugator", 2), ("composition-v", 1), ("composition-v", 2),
            ("pipeline-witness", 1), ("pipeline-witness", 2)} <= ops


# sha256 of the CLI report (stdout), each recorded in a fresh process
GOLDEN = {
    ("quantize", "catalog:solvable2-tri-z2", "--order", "2"):
        "7a6df92a2cb269a2bab194254e716f17c199a4c88fc745681e1f14f0300b3615",
    ("quantize", "catalog:sl2-cartan-z2", "--order", "2", "--d-in", "1", "--seed-order", "7"):
        "35f2ef91ebd26980180163c1ecd8e019f9127c3d47566b53786f548eb21222b4",
    ("quantize", "catalog:sl2-cartan-z2", "--order", "2", "--d-in", "1", "--seed-order", "77"):
        "34e011eec002f676f8078ba2866630246661ff66a2b8d3ac9921fa4bd233311c",
    ("quantize", "catalog:sl2-cartan-z2", "--order", "2", "--d-in", "1"):
        "685e024fa6d3ba03aac4c6e2494c47ae203bfd3809bb67fbec3d61b3dbed6083",
}
GOLDEN_ARTIFACT = "229bd69c9ebb446c786e19b801635add99c4ec4baa99a4f528b88a3675c5b4b0"
# sha256 of the `compare` JSON reports: a witness, and the exit-5 certificate
# of an abelian swap family scaled to -4 times the one its r induces
GOLDEN_COMPARE_WITNESS = "c7523e52f428fb2e843b82cfbd63940f4b134181cd06c17ef404f4c231b9ffe1"
GOLDEN_COMPARE_CERTIFICATE = "d3d46958322dd7aa61378e0b61c3ea1cca01c68c17b3c7bf3c6a5834dd5a32a9"


def report_digest(capsys, argv, code: int = 0) -> str:
    assert main(list(argv) + ["--format", "json"]) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_golden_report_and_artifact(tmp_path, capsys):
    argv = ("quantize", "catalog:solvable2-tri-z2", "--order", "2")
    assert report_digest(capsys, argv) == GOLDEN[argv]
    art = tmp_path / "a.json"
    assert main(["quantize", "catalog:solvable2-tri-z2", "--order", "2", "--seed-order", "7",
                 "--format", "json", "--out", str(art)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(art.read_bytes()).hexdigest() == GOLDEN_ARTIFACT


def test_seed_orders_in_one_process_match_separate_processes(capsys):
    # three gauges in a row in one process: no seed-order may leak into the next run
    runs = [argv for argv in GOLDEN if argv[1] == "catalog:sl2-cartan-z2"]
    assert len({GOLDEN[argv] for argv in runs}) == 3
    for argv in runs:
        assert report_digest(capsys, argv) == GOLDEN[argv], argv


def test_golden_compare_reports(tmp_path, capsys):
    argv = ("compare", "catalog:solvable2-tri-z2", "--order", "2")
    assert report_digest(capsys, argv) == GOLDEN_COMPARE_WITNESS
    doc = {"dimension": 2, "basis": ["a0", "a1"], "bracket": {}, "cobracket": {},
           "r": {"0,1": "1", "1,0": "-1"},
           "group": {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
           "action": {"s": [["0", "1"], ["1", "0"]]}, "twists": {"s": {"0,1": "-4"}}}
    path = tmp_path / "flip.json"
    # the report's input digest is taken over these exact bytes
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    argv = ("compare", str(path), "--order", "2")
    assert report_digest(capsys, argv, code=5) == GOLDEN_COMPARE_CERTIFICATE
