"""Deterministic sparse Gaussian elimination over the rationals.

The solver processes pivot columns in ascending variable order; among the
active rows containing the column it picks the shortest one (ties broken by
row id), eliminates forward, and back-substitutes.  Variables that never
acquire a pivot are pinned to zero.  Inconsistent systems yield a left null
vector ``y`` of the matrix with ``y·b != 0`` instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class Certificate:
    """Left null vector proving inconsistency: y·A = 0 and y·b != 0."""

    combination: dict[int, Scalar]
    residual: Scalar


@dataclass
class Solution:
    values: list[Scalar]
    pivot_columns: list[int]


def lin_solve(system: LinSystem) -> Solution | Certificate:
    nvars = system.nvars
    rows = [dict(r) for r in system.rows]
    rhs = list(system.rhs)
    nrows = len(rows)
    comb: list[dict[int, Scalar]] = [{i: 1} for i in range(nrows)]

    # column -> set of active (non-pivot) row ids that mention it
    col_rows: dict[int, set[int]] = {}
    for rid, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(rid)

    pivot_of_col: dict[int, int] = {}
    is_pivot_row = [False] * nrows

    for col in range(nvars):
        cands = col_rows.get(col)
        if not cands:
            continue
        piv = min(cands, key=lambda rid: (len(rows[rid]), rid))
        pivot_of_col[col] = piv
        is_pivot_row[piv] = True
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

    for rid in range(nrows):
        if not is_pivot_row[rid] and not rows[rid] and rhs[rid]:
            return Certificate(combination=comb[rid], residual=rhs[rid])

    values = [0] * nvars
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
