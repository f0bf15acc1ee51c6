"""Sparse free-module elements over exact scalars.

``El`` is a key-agnostic sparse vector: keys are arbitrary hashable tuples
(monomial tuples, pairs of monomials, smash-product basis labels, ...) and
values are exact scalars.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class El:
    __slots__ = ("data",)

    def __init__(self, data: Mapping | Iterable[tuple] | None = None):
        if data is None:
            self.data = {}
        elif isinstance(data, dict):
            self.data = {k: v for k, v in data.items() if v}
        else:
            self.data = {}
            for k, v in data:
                self.add_term(k, v)

    @classmethod
    def term(cls, key, coeff=1) -> "El":
        out = cls()
        if coeff:
            out.data[key] = coeff
        return out

    def add_term(self, key, coeff):
        acc = self.data.get(key)
        acc = coeff if acc is None else acc + coeff
        if acc:
            self.data[key] = acc
        else:
            self.data.pop(key, None)

    def copy(self) -> "El":
        out = El()
        out.data = dict(self.data)
        return out

    def __bool__(self) -> bool:
        return bool(self.data)

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        if not isinstance(other, El):
            return NotImplemented
        return self.data == other.data

    def __len__(self) -> int:
        return len(self.data)

    def items_sorted(self):
        return sorted(self.data.items(), key=lambda kv: kv[0])

    def coeff(self, key):
        return self.data.get(key, 0)

    def __add__(self, other: "El") -> "El":
        out = self.copy()
        for k, v in other.data.items():
            out.add_term(k, v)
        return out

    def __sub__(self, other: "El") -> "El":
        out = self.copy()
        for k, v in other.data.items():
            out.add_term(k, -v)
        return out

    def __neg__(self) -> "El":
        out = El()
        out.data = {k: -v for k, v in self.data.items()}
        return out

    def scale(self, factor) -> "El":
        out = El()
        if factor:
            out.data = {k: factor * v for k, v in self.data.items()}
        return out

    def __rmul__(self, factor) -> "El":
        return self.scale(factor)

    def map_keys(self, fn) -> "El":
        out = El()
        for k, v in self.data.items():
            out.add_term(fn(k), v)
        return out

    def __repr__(self):
        if not self.data:
            return "El(0)"
        items = ", ".join(f"{k}: {v}" for k, v in list(self.items_sorted())[:6])
        more = "" if len(self.data) <= 6 else f", ... ({len(self.data)} terms)"
        return "El({" + items + more + "})"
