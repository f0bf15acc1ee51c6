"""Acceptance suite: one test per criterion, exact tolerances, timed.

Every defect must be identically zero in exact rational arithmetic; run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import time
from fractions import Fraction

from liequant import catalog
from liequant.cli import main as cli_main
from liequant.envelope import CoPoissonStructure, Envelope, SmashAlgebra, copoisson_axiom_defects
from liequant.groups import gamma_defects, quasitriangular_gamma
from liequant.hquant.gammaq import (ComparisonWitness, assemble_gamma_quantization,
                                    bialgebra_axiom_defects, classical_limit_check,
                                    compare_pipelines, quasitriangular_gamma_quantize)
from liequant.hquant.pipeline import gamma_v_cocycle_defects
from liequant.hquant.solvers import (GaugeLog, algebra_compat_defect, coassoc_defect,
                                     classical_limit_defect, cocycle_defect,
                                     composition_defect, counit_defect,
                                     iso_intertwine_defect, solve_coproduct,
                                     solve_j_conjugator, solve_twist_pair, twist_counit_defect,
                                     twisted_coproduct)
from liequant.lie import (LieAlgebra, LieBialgebra, cocycle_defect as classical_cocycle,
                          cojacobi_defect, cybe_defect, invariance_defect, jacobi_defect)
from liequant.tensors import BasedSpace, Tensor
from liequant.twists import twist, twist_defect

Q = Fraction

CLASSICAL_CATALOG = ("abelian2", "solvable2", "sl2")

GAMMA_MATRIX = ("sl2-cartan-z2", "sl2-s3", "solvable2-tri-z2", "solvable2-tri-s3")


class Timer:
    def __init__(self, criterion: str, budget: float):
        self.criterion = criterion
        self.budget = budget

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.criterion}] {status} ({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.criterion} exceeded its runtime budget"
        return False


def test_criterion_1_classical_axiom_suite():
    with Timer("criterion 1: classical axiom suite", 1.0):
        for name in CLASSICAL_CATALOG:
            bialg = catalog.BIALGEBRAS[name]()
            assert jacobi_defect(bialg.lie).is_zero(), name
            assert cojacobi_defect(bialg).is_zero(), name
            assert classical_cocycle(bialg).is_zero(), name
        qt = catalog.sl2_quasitriangular()
        assert cybe_defect(qt.lie, qt.r).is_zero()
        assert invariance_defect(qt.lie, qt.t).is_zero()
        qts = catalog.solvable2_triangular()
        assert cybe_defect(qts.lie, qts.r).is_zero()
        assert invariance_defect(qts.lie, qts.t).is_zero()

        # mutations: one structure constant perturbed per structure
        space = BasedSpace("sl2", ("e", "f", "h"))
        broken_lie = LieAlgebra(space, {(0, 1): {0: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
        assert not jacobi_defect(broken_lie).is_zero()
        broken_cobr = LieBialgebra(catalog.sl2_lie(), {0: {(1, 2): -1}})
        assert not classical_cocycle(broken_cobr).is_zero()
        sl2 = catalog.sl2_lie()
        assert not cybe_defect(sl2, Tensor((sl2.space, sl2.space), {(0, 1): 1})).is_zero()
        assert not invariance_defect(sl2, Tensor((sl2.space, sl2.space), {(0, 0): 1})).is_zero()
        abelian_dual = LieBialgebra(
            LieAlgebra(space, {}),
            {0: {(0, 1): 1}, 1: {(1, 2): 1}, 2: {(0, 2): 1}})
        assert not cojacobi_defect(abelian_dual).is_zero()


def test_criterion_2_quasitriangular_family_theorem():
    with Timer("criterion 2: quasitriangular family construction", 1.0):
        fam = quasitriangular_gamma(catalog.sl2_quasitriangular(), catalog.z2_cartan_action())
        report = gamma_defects(fam)
        assert report.all_zero
        # f⊗e − e⊗f
        assert fam.f(1) == Tensor((fam.bialgebra.space,) * 2, {(1, 0): 1, (0, 1): -1})
        trivial = catalog.gamma_family("sl2-trivial-group")
        assert gamma_defects(trivial).all_zero


def test_criterion_3_copoisson_suite():
    with Timer("criterion 3: co-Poisson axioms", 30.0):
        fam = catalog.gamma_family("sl2-cartan-z2")
        env = Envelope(fam.bialgebra.lie)
        smash = SmashAlgebra(env, fam.action)
        structure = CoPoissonStructure(smash, fam.bialgebra.cobracket_tables(), fam.twists)
        report = copoisson_axiom_defects(structure, 2)
        assert all(not table for table in report.values()), {
            k: len(v) for k, v in report.items()}


def test_criterion_4_twist_composition_closure():
    with Timer("criterion 4: twist-composition closure", 5.0):
        for name in GAMMA_MATRIX:
            fam = catalog.gamma_family(name)
            bialg = fam.bialgebra
            for g in fam.group.elements():
                theta = fam.action.theta(g)
                for h in fam.group.elements():
                    f, f_prime = fam.f(g), theta.apply_tensor(fam.f(h))
                    assert twist_defect(twist(bialg, f), f_prime).is_zero()
                    assert twist_defect(bialg, f + f_prime).is_zero()
                    assert twist(twist(bialg, f), f_prime) == twist(bialg, f + f_prime)


def test_criterion_6_quantization_solvers():
    with Timer("criterion 6: quantization solvers at N=2", 300.0):
        # deformed coproducts across the catalog: solved, exact defects zero
        for name in ("abelian2", "solvable2", "sl2", "sl2-trivial"):
            bialg = catalog.BIALGEBRAS[name]()
            env = Envelope(bialg.lie)
            log = GaugeLog()
            cop = solve_coproduct(bialg, 2, env, log)
            assert all(r.status in ("pinned", "solved") for r in log.records)
            assert not algebra_compat_defect(bialg, cop)
            assert not coassoc_defect(cop)
            assert not counit_defect(cop)
            assert not classical_limit_defect(bialg, cop)

        # conjugator solves for both quasitriangular structures
        for qt in (catalog.sl2_quasitriangular(), catalog.solvable2_triangular()):
            env = Envelope(qt.lie)
            j, copj = solve_j_conjugator(qt, 2, env)
            assert j.coeffs[1] == Q(1, 2) * env.embed_tensor(qt.r)
            assert not coassoc_defect(copj)
            assert not counit_defect(copj)

        # flagship twist pair: F and i with every postcondition exact
        bialg = catalog.sl2()
        env = Envelope(bialg.lie)
        f = catalog.gamma_family("sl2-cartan-z2").f(1)
        cop = solve_coproduct(bialg, 2, env)
        cop_f = solve_coproduct(twist(bialg, f), 2, env)
        f_series, iso_f = solve_twist_pair(bialg, cop, f, cop_f, 2)
        assert cocycle_defect(cop, f_series).is_zero()
        assert not twist_counit_defect(env, f_series)
        one = f_series.coeffs[1]
        assert one - one.map_keys(lambda key: (key[1], key[0])) == env.embed_tensor(f)
        assert not iso_intertwine_defect(twisted_coproduct(cop, f_series), cop_f, iso_f)

        # an additional twist: the e∧h twist on sl2
        eh = Tensor((bialg.space, bialg.space), {(0, 2): 1, (2, 0): -1})
        cop_eh = solve_coproduct(twist(bialg, eh), 2, env)
        feh, ieh = solve_twist_pair(bialg, cop, eh, cop_eh, 2)
        assert cocycle_defect(cop, feh).is_zero()
        assert not iso_intertwine_defect(twisted_coproduct(cop, feh), cop_eh, ieh)

        # the composition of quantized twists on every pair of two assemblies:
        # F_{gh} = v^{⊗2} T_g(F_h) F_g Δ(v)^{-1}, each v_k of counit zero
        for name in ("sl2-cartan-z2", "solvable2-tri-z2"):
            assembly = assemble_gamma_quantization(catalog.gamma_family(name), 2)
            env, grp = assembly.env, assembly.group
            for (g, h), v in assembly.v_map.items():
                pulled = assembly.t_map[g].apply_all_legs(assembly.f_map[h])
                assert composition_defect(env, assembly.f_map[grp.mul(g, h)], pulled,
                                          assembly.f_map[g], assembly.cop, v).is_zero()
                assert all(env.counit(c) == 0 for c in v.coeffs[1:]), (name, g, h)


def test_criterion_7_v_coherence():
    with Timer("criterion 7: composition coherence across the matrix", 300.0):
        for name in GAMMA_MATRIX:
            fam = catalog.gamma_family(name)
            assembly = assemble_gamma_quantization(fam, 2)
            defects = gamma_v_cocycle_defects(assembly)
            assert not defects, (name, sorted(defects)[:3])


def test_criterion_8_flagship_gamma_quantization():
    with Timer("criterion 8: graded quantization of the flagship", 600.0):
        fam = catalog.gamma_family("sl2-cartan-z2")
        assembly = assemble_gamma_quantization(fam, 2)
        report = bialgebra_axiom_defects(assembly, 2)
        assert report.all_zero, report.summary()
        limits = classical_limit_check(assembly, 2)
        assert not limits["product0"], "order-0 product differs from the smash product"
        assert not limits["copoisson1"], "order-1 slice differs from the co-Poisson structure"


def test_criterion_9_pipeline_equivalence():
    with Timer("criterion 9: pipeline equivalence witness", 600.0):
        fam = catalog.gamma_family("sl2-cartan-z2")
        env = Envelope(fam.bialgebra.lie)
        generic = assemble_gamma_quantization(fam, 2, env=env)
        direct = quasitriangular_gamma_quantize(catalog.sl2_quasitriangular(),
                                                catalog.z2_cartan_action(), 2, env=env)
        witness = compare_pipelines(generic, direct, window=2)
        assert isinstance(witness, ComparisonWitness)


def test_criterion_10_reproducibility(tmp_path, capsys):
    with Timer("criterion 10: byte-identical artifacts", 600.0):
        # two fresh processes must agree byte for byte (hash randomization on)
        import subprocess
        import sys
        paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
        for path in paths:
            proc = subprocess.run(
                [sys.executable, "-m", "liequant.cli", "quantize",
                 "catalog:sl2-cartan-z2", "--order", "2", "--out", str(path),
                 "--format", "json"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        assert paths[0].read_bytes() == paths[1].read_bytes()
        log1 = json.loads(paths[0].read_text())["gauge_log"]
        log2 = json.loads(paths[1].read_text())["gauge_log"]
        assert log1 == log2
        # and the in-process path emits the same bytes as the subprocess one
        inproc = tmp_path / "run3.json"
        code = cli_main(["quantize", "catalog:sl2-cartan-z2", "--order", "2",
                         "--out", str(inproc), "--format", "json"])
        capsys.readouterr()
        assert code == 0
        assert inproc.read_bytes() == paths[0].read_bytes()
