"""Classical twists: verification and twisting."""

from __future__ import annotations

from .errors import MathDefectError
from .lie import LieBialgebra, ad2
from .tensors import Tensor, cyclic_sum3


def twist_defect(bialg: LieBialgebra, f: Tensor) -> Tensor:
    """Cyclic sum of (delta ⊗ id)(f) + [f13, f23]; zero iff f is a twist."""
    a = bialg.space
    if f.spaces != (a, a):
        raise ValueError("f must live in the tensor square")
    if not (f + f.swap()).is_zero():
        raise MathDefectError("twist candidate is not antisymmetric", f + f.swap())
    lie = bialg.lie
    acc = Tensor.zero((a, a, a))
    add = acc.add_term
    for (p, r), v in f.data.items():
        for (s, t), w in bialg.cobracket_basis(p).data.items():
            add((s, t, r), v * w)
    items = list(f.data.items())
    for (a1, b1), v1 in items:
        for (a2, b2), v2 in items:
            # [f13, f23] = sum f' ⊗ f' ⊗ [f'', f'']
            for m, c in lie.bracket_basis(b1, b2).items():
                add((a1, a2, m), v1 * v2 * c)
    return cyclic_sum3(acc)


def twist(bialg: LieBialgebra, f: Tensor) -> LieBialgebra:
    """The twisted bialgebra (same bracket, cobracket shifted by ad(f)).

    ``f`` must be a twist of ``bialg``; this is not re-checked here (see
    :func:`twist_defect`).
    """
    lie = bialg.lie
    tables = []
    for i in range(bialg.dim):
        # ad(f)(x) = [f, x⊗1 + 1⊗x] = -ad2_x(f)
        tables.append(bialg.cobracket_basis(i) - ad2(lie, i, f))
    return LieBialgebra(lie, cobracket_tensors=tables)
