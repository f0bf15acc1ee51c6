"""Exact-arithmetic workbench for Lie bialgebras, group twist families and
order-by-order quantization."""

__version__ = "0.1.0"

from .lie import (LieAlgebra, LieBialgebra, QuasitriangularData, cocycle_defect,
                  cojacobi_defect, coboundary_cobracket, cybe_defect, invariance_defect,
                  jacobi_defect)
from .groups import (FiniteGroup, GammaLieBialgebra, GroupAction, check_action,
                     gamma_defects, quasitriangular_gamma)
from .tensors import BasedSpace, LinearMap, Tensor, cyclic_sum3
from .twists import twist, twist_defect

__all__ = [
    "__version__",
    "BasedSpace", "LinearMap", "Tensor", "cyclic_sum3",
    "LieAlgebra", "LieBialgebra", "QuasitriangularData",
    "jacobi_defect", "cojacobi_defect", "cocycle_defect", "cybe_defect",
    "invariance_defect", "coboundary_cobracket",
    "twist", "twist_defect",
    "FiniteGroup", "GroupAction", "GammaLieBialgebra",
    "check_action", "gamma_defects", "quasitriangular_gamma",
]
