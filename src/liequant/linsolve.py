"""Deterministic sparse Gaussian elimination over the rationals.

The solver processes pivot columns in ascending variable order; among the
active rows containing the column it picks the shortest one (ties broken by
row id), eliminates forward, and back-substitutes.  Variables that never
acquire a pivot are pinned to zero.  Inconsistent systems yield a left null
vector ``y`` of the matrix with ``y·b != 0`` instead of raising; ``y`` is
made only when it is read (see :class:`Certificate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InternalCheckError
from .tensors import Scalar, qdiv


@dataclass
class LinSystem:
    """Sparse rational system ``A x = b``."""

    nvars: int
    rows: list[dict[int, Scalar]] = field(default_factory=list)
    rhs: list[Scalar] = field(default_factory=list)

    def add_row(self, row: dict[int, Scalar], rhs: Scalar):
        self.rows.append({c: v for c, v in row.items() if v})
        self.rhs.append(rhs)

    @property
    def nrows(self) -> int:
        return len(self.rows)


class Certificate:
    """Left null vector proving inconsistency: y·A = 0 and y·b != 0.

    ``residual`` is y·b, and ``row`` the row that the elimination reduced to
    ``0 = residual``.  The combination y is made on first use, by eliminating
    ``system`` again while tracking the row combinations: the pivots are the
    same, so y is the combination of that row.  It is checked before it is
    returned, so a certificate that is never reported is never made, and one
    that is reported has been verified.
    """

    def __init__(self, system: LinSystem, row: int, residual: Scalar):
        self.system = system
        self.row = row
        self.residual = residual
        self._combination: dict[int, Scalar] | None = None

    @property
    def combination(self) -> dict[int, Scalar]:
        if self._combination is None:
            comb: list[dict[int, Scalar]] = [{i: 1} for i in range(self.system.nrows)]
            _, rhs, _ = _eliminate(self.system, comb)
            self._combination = comb[self.row]
            if rhs[self.row] != self.residual or not verify_certificate(self.system, self):
                raise InternalCheckError("inconsistency certificate fails its check")
        return self._combination


@dataclass
class Solution:
    values: list[Scalar]
    pivot_columns: list[int]


def _eliminate(system: LinSystem, comb: list[dict[int, Scalar]] | None = None):
    """Forward elimination on a copy of ``system``: ``(rows, rhs, pivot_of_col)``.

    With ``comb`` (one ``{original row: factor}`` per row), each elimination
    step also updates the combination of original rows that a row now is.
    """
    nvars = system.nvars
    rows = [dict(r) for r in system.rows]
    rhs = list(system.rhs)

    # column -> set of active (non-pivot) row ids that mention it
    col_rows: dict[int, set[int]] = {}
    for rid, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(rid)

    pivot_of_col: dict[int, int] = {}

    for col in range(nvars):
        cands = col_rows.get(col)
        if not cands:
            continue
        piv = min(cands, key=lambda rid: (len(rows[rid]), rid))
        pivot_of_col[col] = piv
        piv_row = rows[piv]
        piv_val = piv_row[col]
        for rid in sorted(cands):
            if rid == piv:
                continue
            row = rows[rid]
            factor = qdiv(row[col], piv_val)
            for c, v in piv_row.items():
                acc = row.get(c, 0) - factor * v
                if acc:
                    row[c] = acc
                    if c != col:
                        col_rows.setdefault(c, set()).add(rid)
                else:
                    row.pop(c, None)
                    if c != col:
                        s = col_rows.get(c)
                        if s is not None:
                            s.discard(rid)
            rhs[rid] -= factor * rhs[piv]
            if comb is not None:
                crow = comb[rid]
                for orig, cv in comb[piv].items():
                    acc = crow.get(orig, 0) - factor * cv
                    if acc:
                        crow[orig] = acc
                    else:
                        crow.pop(orig, None)
        # retire the pivot column and row from the active index
        for c in list(piv_row):
            s = col_rows.get(c)
            if s is not None:
                s.discard(piv)
        col_rows.pop(col, None)
    return rows, rhs, pivot_of_col


def lin_solve(system: LinSystem) -> Solution | Certificate:
    rows, rhs, pivot_of_col = _eliminate(system)
    pivot_rows = set(pivot_of_col.values())
    for rid in range(len(rows)):
        if rid not in pivot_rows and not rows[rid] and rhs[rid]:
            return Certificate(system, rid, rhs[rid])

    values = [0] * system.nvars
    for col in sorted(pivot_of_col, reverse=True):
        rid = pivot_of_col[col]
        row = rows[rid]
        acc = rhs[rid]
        for c, v in row.items():
            if c != col:
                acc -= v * values[c]
        values[col] = qdiv(acc, row[col])
    return Solution(values=values, pivot_columns=sorted(pivot_of_col))


def verify_certificate(system: LinSystem, cert: Certificate) -> bool:
    """Check y·A = 0 and y·b != 0 for a returned certificate."""
    acc_cols: dict[int, Scalar] = {}
    acc_rhs = 0
    for rid, y in cert.combination.items():
        for c, v in system.rows[rid].items():
            acc = acc_cols.get(c, 0) + y * v
            if acc:
                acc_cols[c] = acc
            else:
                acc_cols.pop(c, None)
        acc_rhs += y * system.rhs[rid]
    return not acc_cols and acc_rhs != 0
