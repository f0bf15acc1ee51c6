"""Coherence of an assembly's composition family on every group triple.

The composition elements themselves are solved by the Γ-assembly
(``gammaq.assemble_gamma_quantization``), one order at a time for every pair;
this module evaluates the pairwise coherence identity they must satisfy.
"""

from __future__ import annotations

from .solvers import v_cocycle_defect


def gamma_v_cocycle_defects(assembly) -> dict:
    """Coherence defect of the composition family on every group triple.

    LHS - RHS of  v_{gh,l} * v_{g,h}  =  v_{g,hl} * T_g(v_{h,l})
    with the twisted-side element realized by the action pushforward.
    """
    env = assembly.env
    grp = assembly.group
    out = {}
    for g in grp.elements():
        for h in grp.elements():
            for l in grp.elements():
                gh, hl = grp.mul(g, h), grp.mul(h, l)
                moved = assembly.t_map[g].apply_leg(assembly.v_map[(h, l)], 0)
                defect = v_cocycle_defect(env, assembly.v_map[(gh, l)],
                                          assembly.v_map[(g, h)],
                                          assembly.v_map[(g, hl)], moved)
                if not defect.is_zero():
                    out[(g, h, l)] = defect
    return out
