"""Truncated formal series in the deformation parameter.

An ``HSeries`` holds coefficients ``c_0 .. c_N`` of a series modulo h^{N+1}.
Coefficients can be anything with ``+``/``-`` and rational scaling (tensors,
enveloping-algebra elements, plain rationals); multiplication is supplied by
the caller as a bilinear callable so one class serves every coefficient space.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .tensors import q


class HSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        self.coeffs = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"HSeries({self.coeffs!r})"

    def _check_order(self, other: "HSeries"):
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __add__(self, other: "HSeries") -> "HSeries":
        self._check_order(other)
        return HSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "HSeries") -> "HSeries":
        self._check_order(other)
        return HSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "HSeries":
        return HSeries([-a for a in self.coeffs])

    def map(self, fn: Callable) -> "HSeries":
        return HSeries([fn(c) for c in self.coeffs])

    def truncated(self, order: int) -> "HSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return HSeries(self.coeffs[: order + 1])

    def mul(self, other: "HSeries", mult: Callable) -> "HSeries":
        """Cauchy product truncated at the common order."""
        self._check_order(other)
        n = self.order
        out = []
        for k in range(n + 1):
            acc = None
            for a in range(k + 1):
                term = mult(self.coeffs[a], other.coeffs[k - a])
                acc = term if acc is None else acc + term
            out.append(acc)
        return HSeries(out)

    def inverse(self, mult: Callable, unit) -> "HSeries":
        """Multiplicative inverse; the order-0 coefficient must equal ``unit``."""
        if self.coeffs[0] != unit:
            raise ValueError("leading coefficient is not the unit")
        inv = [unit]
        zero = unit - unit
        for k in range(1, self.order + 1):
            acc = zero
            for a in range(1, k + 1):
                acc = acc + mult(self.coeffs[a], inv[k - a])
            inv.append(-acc)
        return HSeries(inv)


def hseries_mul(a: HSeries, b: HSeries, mult: Callable) -> HSeries:
    return a.mul(b, mult)


def hseries_inverse(a: HSeries, mult: Callable, unit) -> HSeries:
    return a.inverse(mult, unit)


def scalar_series(values: Sequence) -> HSeries:
    """Series with plain rational coefficients."""
    return HSeries([q(v) for v in values])
