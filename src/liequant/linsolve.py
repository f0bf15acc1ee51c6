"""Deterministic sparse Gaussian elimination over the rationals, done on
integers.

The solver processes pivot columns in ascending variable order; among the
active rows containing the column it picks the shortest one (ties broken by
row id), eliminates forward, and back-substitutes.  Variables that never
acquire a pivot are pinned to zero.  Inconsistent systems yield a left null
vector ``y`` of the matrix with ``y·b != 0`` instead of raising; ``y`` is
made only when it is read (see :class:`Certificate`).

The elimination is fraction-free: each row and its right-hand side become a
primitive integer vector, a step replaces a row by an integer combination of
it and the pivot row, and the row's content (the gcd of its entries) is
divided out.  A row stays a nonzero multiple of the row the rational
elimination would hold, so supports, pivots and solutions are the same; the
multiple (the row's scale) is tracked so that a certificate's residual and
combination are the rational ones.  Only the solution values and reported
certificates leave the module, as rationals under the scalar rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import InternalCheckError
from .tensors import Scalar, q, qdiv


@dataclass
class LinSystem:
    """Sparse rational system ``A x = b``."""

    nvars: int
    rows: list[dict[int, Scalar]] = field(default_factory=list)
    rhs: list[Scalar] = field(default_factory=list)

    def add_row(self, row: dict[int, Scalar], rhs: Scalar):
        """Append a row; its values and right-hand side go through ``q``."""
        self.rows.append({c: q(v) for c, v in row.items() if v})
        self.rhs.append(q(rhs))

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
            _, rhs, scale, _ = _eliminate(self.system, comb)
            self._combination = {orig: _descale(v, scale[self.row])
                                 for orig, v in comb[self.row].items()}
            if (_descale(rhs[self.row], scale[self.row]) != self.residual
                    or not verify_certificate(self.system, self)):
                raise InternalCheckError("inconsistency certificate fails its check")
        return self._combination


@dataclass
class Solution:
    values: list[Scalar]
    pivot_columns: list[int]


def _descale(value: Scalar, scale: tuple[int, int]) -> Scalar:
    """``value / (num/den)``: the rational elimination's value of an entry of
    a row with scale ``(num, den)``."""
    num, den = scale
    return qdiv(value * den, num)


def _eliminate(system: LinSystem, comb: list[dict[int, Scalar]] | None = None):
    """Fraction-free forward elimination on a copy of ``system``:
    ``(rows, rhs, scale, pivot_of_col)``.

    ``rows`` and ``rhs`` hold ints; row ``rid`` with its right-hand side is
    ``num/den`` times the row of the rational elimination, where
    ``scale[rid] = (num, den)``.  With ``comb`` (one ``{original row:
    factor}`` per row), each step also updates the combination of original
    rows that a row now is, under the row's scale.
    """
    nvars = system.nvars
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    scale: list[tuple[int, int]] = []
    for rid, (row, b) in enumerate(zip(system.rows, system.rhs)):
        d = lcm(b.denominator, *[v.denominator for v in row.values()])
        ints = {c: v.numerator * (d // v.denominator) for c, v in row.items()}
        b = b.numerator * (d // b.denominator)
        g = gcd(b, *ints.values()) or 1
        if g > 1:
            ints = {c: v // g for c, v in ints.items()}
            b //= g
        rows.append(ints)
        rhs.append(b)
        scale.append((d, g))
        if comb is not None:
            comb[rid] = {orig: qdiv(cv * d, g) for orig, cv in comb[rid].items()}

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
        piv_rhs = rhs[piv]
        for rid in sorted(cands):
            if rid == piv:
                continue
            # row := (p·row - r·pivot row) / content, which clears the column
            row = rows[rid]
            g = gcd(piv_val, row[col])
            p, r = piv_val // g, row[col] // g
            if p != 1:
                for c in row:
                    row[c] *= p
            for c, v in piv_row.items():
                acc = row.get(c, 0) - r * v
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
            b = p * rhs[rid] - r * piv_rhs
            h = gcd(b, *row.values()) or 1
            if h > 1:
                for c in row:
                    row[c] //= h
                b //= h
            rhs[rid] = b
            num, den = scale[rid][0] * p, scale[rid][1] * h
            common = gcd(num, den)
            scale[rid] = (num // common, den // common)
            if comb is not None:
                crow = {orig: p * cv for orig, cv in comb[rid].items()}
                for orig, cv in comb[piv].items():
                    acc = crow.get(orig, 0) - r * cv
                    if acc:
                        crow[orig] = acc
                    else:
                        crow.pop(orig, None)
                comb[rid] = {orig: qdiv(cv, h) for orig, cv in crow.items()}
        # retire the pivot column and row from the active index
        for c in list(piv_row):
            s = col_rows.get(c)
            if s is not None:
                s.discard(piv)
        col_rows.pop(col, None)
    return rows, rhs, scale, pivot_of_col


def lin_solve(system: LinSystem) -> Solution | Certificate:
    rows, rhs, scale, pivot_of_col = _eliminate(system)
    pivot_rows = set(pivot_of_col.values())
    for rid in range(len(rows)):
        if rid not in pivot_rows and not rows[rid] and rhs[rid]:
            return Certificate(system, rid, _descale(rhs[rid], scale[rid]))

    values: list[Scalar] = [0] * system.nvars
    for col in sorted(pivot_of_col, reverse=True):
        rid = pivot_of_col[col]
        row = rows[rid]
        acc = rhs[rid]
        for c, v in row.items():
            if c != col:
                value = values[c]
                if value:
                    acc -= v * value
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
