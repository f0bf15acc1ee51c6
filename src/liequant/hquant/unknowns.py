"""Linearised solver systems: a constant part plus cached per-unknown columns.

At order k every solver's defect is affine in the order-k unknowns: series
are truncated at order k, so an order-k unknown only ever meets order-0 data.
A system is therefore built from two exact parts:

* the constant part, the defect evaluated with an empty top-order table, on
  plain rationals, once per (operation, order);
* one column per unknown, ``D(E) - D(0)`` where ``D`` is the same defect
  truncated at order 1 and ``E`` is the unit element of the unknown's key in
  the order-1 slot.  At order 1 every product pairs ``E`` with order-0 data,
  exactly as the order-k unknown is paired in the order-k coefficient, and
  the subtraction removes everything that does not involve ``E``.

A column depends on the (slot, key) of its unknown and on order-0 data only,
so it is cached for the whole solve: a support-ladder escalation, or the next
order, computes only the keys it adds.  A defect is returned as blocks
``{block id: El}`` (one block per identity and defect key); rows come out in
sorted (block id, element key) order with zero rows skipped.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable

from ..linsolve import LinSystem
from ..sparse import El
from ..tensors import Scalar

Blocks = dict[Hashable, El]
# defect(top, n, slot): the blocks of the order-n coefficient with ``top`` as
# the order-n table; with ``slot`` given, the defect may restrict itself to
# the identities that slot's unknowns enter (the others do not depend on it).
Defect = Callable[[dict, int, Hashable], Blocks]


def blocks(*families: dict) -> Blocks:
    """Number the families in order: ``{(family, key): El}``, zeros dropped."""
    return {(f, key): el for f, fam in enumerate(families) for key, el in fam.items() if el}


def top_coeffs(defects: dict, n: int) -> dict:
    """Order-n coefficients of a ``{key: ElSeries}`` defect table."""
    return {key: series.coeffs[n] for key, series in defects.items()}


def allocation_order(keys, seed_order: int | None) -> list:
    """Keys in unknown-allocation order: given order, or a seeded reshuffle.

    A reshuffle changes only which gauge representative the pinned solves
    select; all defect postconditions are unaffected.
    """
    keys = list(keys)
    if seed_order is not None:
        random.Random(seed_order).shuffle(keys)
    return keys


class LinearisedDefect:
    """Affine order-k defect: constant part plus per-unknown columns.

    ``columns`` is the column cache; the orders of one solve pass the same
    dict, since a column pairs its unknown with order-0 data only.
    """

    def __init__(self, defect: Defect, k: int, columns: dict | None = None):
        self.defect = defect
        self.constant = defect({}, k, None)
        self._base: dict[Hashable, Blocks] = {}
        self._columns: dict[tuple, Blocks] = {} if columns is None else columns

    def column(self, slot, key) -> Blocks:
        cached = self._columns.get((slot, key))
        if cached is not None:
            return cached
        base = self._base.get(slot)
        if base is None:
            base = self._base[slot] = self.defect({slot: El()}, 1, slot)
        col = self.defect({slot: El.term(key)}, 1, slot)
        for bid, el in base.items():
            diff = col.get(bid, El()) - el
            if diff:
                col[bid] = diff
            else:
                col.pop(bid, None)
        self._columns[(slot, key)] = col
        return col

    def system(self, unknowns: list[tuple]) -> LinSystem:
        """The system ``A x = b`` in the given unknowns, one per (slot, key)."""
        rows: dict[tuple, dict[int, Scalar]] = {}
        for var, (slot, key) in enumerate(unknowns):
            for bid, el in self.column(slot, key).items():
                for ekey, c in el.data.items():
                    rows.setdefault((bid, ekey), {})[var] = c
        for bid, el in self.constant.items():
            for ekey in el.data:
                rows.setdefault((bid, ekey), {})
        system = LinSystem(nvars=len(unknowns))
        for bid, ekey in sorted(rows):
            const = self.constant.get(bid)
            system.add_row(rows[(bid, ekey)],
                           -const.coeff(ekey) if const is not None else 0)
        return system


def values_by_slot(unknowns: list[tuple], values: list[Scalar], slots) -> dict:
    """Solved unknowns gathered into one element per slot (zeros dropped)."""
    out = {slot: El() for slot in slots}
    for (slot, key), value in zip(unknowns, values):
        if value:
            out[slot].data[key] = value
    return out
