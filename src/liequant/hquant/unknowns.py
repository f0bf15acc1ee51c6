"""Linearised solver systems: a constant part plus per-unknown columns.

At order k every solver's defect is affine in the order-k unknowns: series
are truncated at order k, so an order-k unknown only ever meets order-0 data.
A system is therefore built from two exact parts:

* the constant part, the defect evaluated with an empty top-order table, on
  plain rationals, once per (operation, order);
* one column per unknown: the derivative of the defect with respect to the
  unit element ``E`` of the unknown's key, evaluated in first-order vector
  forward mode.  One evaluation makes the columns of a whole batch of
  unknowns.  The defect is called with a :class:`Tangent` top table at
  n = 1, ``{slot: E}``, where ``E`` holds each unknown ``(slot, key)`` of
  the batch as the term ``key + (tag,)`` with coefficient 1, ``tag`` being
  the unknown's index in the batch.  Its candidates (:func:`candidate`,
  :func:`candidate_map`) are then :class:`~liequant.hquant.core.DualSeries`
  and :class:`~liequant.hquant.core.DualMap` carrying that bundle as their
  tangent, and every known series enters through its order-0 coefficient
  only.  A product computes only ``a0·b' + a'·b0``, a term whose tangent is
  zero is never evaluated, and the order-0 images of monomials are made once
  per solve.  The order-n readout of a dual is its tangent: no tangent ever
  meets another one, so its terms ending in ``tag`` are the column of that
  tag's unknown.  A term with no tag would mean the defect is not affine in
  the unknowns, and is refused.

A column depends on the (slot, key) of its unknown and on order-0 data only,
so it is cached for the whole solve, with the order-0 data it shares
(:class:`Columns`): a support-ladder escalation, or the next order, evaluates
only the keys it adds, in one batch.  Both are dropped with the solve.  A
defect is returned as blocks ``{block id: El}`` (one block per identity and
defect key); rows come out in sorted (block id, element key) order with zero
rows skipped.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable

from ..errors import InternalCheckError
from ..linsolve import LinSystem
from ..sparse import El
from ..tensors import Scalar
from .core import DualMap, DualSeries, ElSeries

Blocks = dict[Hashable, El]
# defect(top, n): the blocks of the order-n coefficient with ``top`` as the
# order-n table.  The unknowns enter only through candidate() and
# candidate_map(), so on a Tangent top at n = 1 the same callable returns the
# columns of the unknowns top holds, each term tagged with its unknown.
Defect = Callable[[dict, int], Blocks]


class Tangent(dict):
    """The top table of a column evaluation, ``{slot: E}`` with every key of
    ``E`` tagged by its unknown's index in the batch, and ``order0``, the
    order-0 memo of the solve."""

    def __init__(self, unknowns: list[tuple], order0: dict):
        super().__init__()
        for tag, (slot, key) in enumerate(unknowns):
            self.setdefault(slot, El()).data[key + (tag,)] = 1
        self.order0 = order0


class Columns(dict):
    """One solve's columns, ``{(slot, key): blocks}``, shared by its orders and
    ladder rungs, and ``order0``, the order-0 maps their evaluations share."""

    def __init__(self):
        super().__init__()
        self.order0: dict = {}


def candidate(alg, arity: int, coeffs: list[El], n: int, top: dict, name: Hashable):
    """The order-n candidate series of the unknown ``name``: ``coeffs`` below
    order n, and at order n the known coefficient ``coeffs[n]`` (if any) plus
    ``top[name]``.  On a :class:`Tangent` top it is the dual with value
    ``coeffs[0]`` and tangent ``top[name]``."""
    if isinstance(top, Tangent):
        return DualSeries(alg, arity, coeffs[0], top.get(name), top.order0)
    last = top.get(name, El())
    if len(coeffs) > n:
        last = coeffs[n] + last
    return ElSeries(alg, arity, coeffs[:n] + [last])


def candidate_map(kind: type, env, tables: list[dict], n: int, top: dict,
                  slot=lambda i: i):
    """The order-n candidate map of type ``kind``: generator tables below
    order n and, at order n, generator i from ``top[slot(i)]``.  On a
    :class:`Tangent` top it is the dual map with order-0 table ``tables[0]``."""
    tops = {i: top[slot(i)] for i in range(env.dim) if slot(i) in top}
    if isinstance(top, Tangent):
        return DualMap(kind, env, [DualSeries(env, kind.arity, tables[0].get(i, El()), tops.get(i),
                                              top.order0) for i in range(env.dim)], top.order0)
    return kind(env, n, tables[:n] + [tops])


def blocks(*families: dict) -> Blocks:
    """Number the families in order: ``{(family, key): El}``, zeros dropped."""
    return {(f, key): el for f, fam in enumerate(families) for key, el in fam.items() if el}


def top_coeffs(defects: dict, n: int) -> dict:
    """Order-n coefficients of a ``{key: series}`` defect table."""
    return {key: series[n] for key, series in defects.items()}


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

    ``columns`` is the solve's :class:`Columns`; the orders of one solve pass
    the same one, since a column pairs its unknown with order-0 data only.
    """

    def __init__(self, defect: Defect, k: int, columns: Columns | None = None):
        self.defect = defect
        self.constant = defect({}, k)
        self._columns = Columns() if columns is None else columns

    def _fill(self, unknowns: list[tuple]):
        """Evaluate the columns of the unknowns not cached yet, in one batch,
        and split the blocks by their trailing tags into the cache."""
        missing = [u for u in dict.fromkeys(unknowns) if u not in self._columns]
        if not missing:
            return
        cols: list[Blocks] = [{} for _ in missing]
        for bid, el in self.defect(Tangent(missing, self._columns.order0), 1).items():
            for ekey, c in el.data.items():
                tag = ekey[-1] if ekey else None
                if type(tag) is not int:
                    raise InternalCheckError(
                        f"defect block {bid!r} has a term that no unknown enters: {ekey!r}")
                col = cols[tag].get(bid)
                if col is None:
                    col = cols[tag][bid] = El()
                col.data[ekey[:-1]] = c
        self._columns.update(zip(missing, cols))

    def system(self, unknowns: list[tuple]) -> LinSystem:
        """The system ``A x = b`` in the given unknowns, one per (slot, key)."""
        self._fill(unknowns)
        rows: dict[tuple, dict[int, Scalar]] = {}
        for var, unknown in enumerate(unknowns):
            for bid, el in self._columns[unknown].items():
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
