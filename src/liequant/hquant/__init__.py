"""Order-by-order quantization: series machinery, solvers, graded assembly."""

from .core import CoproductSeries, ElSeries, MapSeries
from .gammaq import (ComparisonWitness, GammaQuantization, assemble_gamma_quantization,
                     bialgebra_axiom_defects, classical_limit_check, compare_pipelines,
                     quasitriangular_gamma_quantize)
from .pipeline import gamma_v_cocycle_defects
from .solvers import (GaugeLog, coassoc_defect, cocycle_defect, solve_composition_v,
                      solve_coproduct, solve_j_conjugator, solve_twist_pair,
                      twisted_coproduct, v_cocycle_defect)

__all__ = [
    "CoproductSeries", "ElSeries", "MapSeries",
    "GaugeLog", "solve_coproduct", "solve_j_conjugator", "solve_twist_pair",
    "solve_composition_v", "coassoc_defect", "cocycle_defect",
    "twisted_coproduct", "v_cocycle_defect",
    "gamma_v_cocycle_defects",
    "GammaQuantization", "ComparisonWitness", "assemble_gamma_quantization",
    "bialgebra_axiom_defects", "classical_limit_check", "compare_pipelines",
    "quasitriangular_gamma_quantize",
]
