"""Series-valued elements, algebra-map series and coproduct series over U(a).

Coefficients are exact rationals.  Series arithmetic is always truncated at
the series order, so in the order-k coefficient of a product an order-k
coefficient of one factor only meets order-0 coefficients of the others; the
solvers' linearised build in :mod:`liequant.hquant.unknowns` relies on this.
"""

from __future__ import annotations

from ..envelope import Envelope, Mon, ONE
from ..errors import InternalCheckError
from ..sparse import El
from ..tensors import LinearMap


class ElSeries:
    """Truncated series whose coefficients live in a tensor power of an
    algebra exposing ``k_mul(a, b, k)`` and ``unit(k)``."""

    __slots__ = ("alg", "arity", "coeffs")

    def __init__(self, alg, arity: int, coeffs: list[El]):
        self.alg = alg
        self.arity = arity
        self.coeffs = list(coeffs)

    @classmethod
    def unit(cls, alg, arity: int, order: int) -> "ElSeries":
        return cls(alg, arity, [alg.unit(arity)] + [El() for _ in range(order)])

    @classmethod
    def constant(cls, alg, arity: int, order: int, value: El) -> "ElSeries":
        return cls(alg, arity, [value] + [El() for _ in range(order)])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> El:
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ElSeries):
            return NotImplemented
        return self.arity == other.arity and self.coeffs == other.coeffs

    def _check(self, other: "ElSeries"):
        if self.order != other.order or self.arity != other.arity:
            raise ValueError("series shape mismatch")

    def __add__(self, other: "ElSeries") -> "ElSeries":
        self._check(other)
        return ElSeries(self.alg, self.arity, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "ElSeries") -> "ElSeries":
        self._check(other)
        return ElSeries(self.alg, self.arity, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "ElSeries":
        return ElSeries(self.alg, self.arity, [-a for a in self.coeffs])

    def scale(self, factor) -> "ElSeries":
        return ElSeries(self.alg, self.arity, [factor * a for a in self.coeffs])

    __rmul__ = scale

    def mul(self, other: "ElSeries") -> "ElSeries":
        self._check(other)
        n = self.order
        out = []
        for k in range(n + 1):
            acc = El()
            for a in range(k + 1):
                ca, cb = self.coeffs[a], other.coeffs[k - a]
                if ca and cb:
                    acc = acc + self.alg.k_mul(ca, cb, self.arity)
            out.append(acc)
        return ElSeries(self.alg, self.arity, out)

    def inverse(self) -> "ElSeries":
        unit = self.alg.unit(self.arity)
        if self.coeffs[0] != unit:
            raise InternalCheckError("series inverse needs unit leading coefficient")
        inv = [unit]
        for k in range(1, self.order + 1):
            acc = El()
            for a in range(1, k + 1):
                if self.coeffs[a] and inv[k - a]:
                    acc = acc + self.alg.k_mul(self.coeffs[a], inv[k - a], self.arity)
            inv.append(-acc)
        return ElSeries(self.alg, self.arity, inv)

    def tensor(self, other: "ElSeries") -> "ElSeries":
        """Concatenate legs: arity adds, orders convolve."""
        self._check_order_only(other)
        n = self.order
        out = []
        for k in range(n + 1):
            acc = El()
            for a in range(k + 1):
                ca, cb = self.coeffs[a], other.coeffs[k - a]
                if ca and cb:
                    for ka, va in ca.data.items():
                        for kb, vb in cb.data.items():
                            acc.add_term(ka + kb, va * vb)
            out.append(acc)
        return ElSeries(self.alg, self.arity + other.arity, out)

    def _check_order_only(self, other: "ElSeries"):
        if self.order != other.order:
            raise ValueError("series order mismatch")

    def truncated(self, order: int) -> "ElSeries":
        return ElSeries(self.alg, self.arity, self.coeffs[: order + 1])


class AlgebraMapSeries:
    """Series of algebra maps from U(a), undeformed product, into its
    ``arity``-th tensor power, given per order on generators and extended
    multiplicatively.

    ``tables[k][i]`` is the order-k image of the i-th generator, an element of
    arity ``arity``.  Subclasses fix the arity: 1 for :class:`MapSeries`, 2
    for :class:`CoproductSeries`.
    """

    arity: int

    def __init__(self, env: Envelope, order: int, tables: list[dict[int, El]]):
        self.env = env
        self.order = order
        if len(tables) != order + 1:
            raise ValueError("need one table per order")
        self.tables = tables
        self._ext: dict[Mon, list[El]] = {}
        self._truncations: dict[int, AlgebraMapSeries] = {}

    def gen_series(self, i: int) -> ElSeries:
        return ElSeries(self.env, self.arity, [t.get(i, El()) for t in self.tables])

    def ext_mon(self, m: Mon) -> list[El]:
        cached = self._ext.get(m)
        if cached is not None:
            return cached
        if not m:
            result = ElSeries.unit(self.env, self.arity, self.order).coeffs
        else:
            head = self.gen_series(m[0])
            tail = ElSeries(self.env, self.arity, self.ext_mon(m[1:]))
            result = head.mul(tail).coeffs
        self._ext[m] = result
        return result

    def apply(self, el: El) -> ElSeries:
        """Map a plain element to its image series."""
        out = [El() for _ in range(self.order + 1)]
        for (m,), c in el.data.items():
            for k, img in enumerate(self.ext_mon(m)):
                if img:
                    out[k] = out[k] + c * img
        return ElSeries(self.env, self.arity, out)

    def apply_series(self, s: ElSeries) -> ElSeries:
        """Map an arity-1 series, truncated at its order."""
        out = [El() for _ in range(s.order + 1)]
        for b, coeff in enumerate(s.coeffs):
            if not coeff:
                continue
            for (m,), c in coeff.data.items():
                ext = self.ext_mon(m)
                for a in range(s.order + 1 - b):
                    if ext[a]:
                        out[a + b] = out[a + b] + c * ext[a]
        return ElSeries(self.env, self.arity, out)

    def apply_leg(self, s: ElSeries, leg: int) -> ElSeries:
        """Map one leg of a series: the image key is spliced in place of the leg."""
        out = [El() for _ in range(s.order + 1)]
        for b, coeff in enumerate(s.coeffs):
            for key, c in coeff.data.items():
                ext = self.ext_mon(key[leg])
                for a in range(s.order + 1 - b):
                    img = ext[a]
                    if img:
                        for ikey, d in img.data.items():
                            out[a + b].add_term(key[:leg] + ikey + key[leg + 1:], c * d)
        return ElSeries(s.alg, s.arity + self.arity - 1, out)

    def truncated(self, order: int):
        """The series modulo h^(order+1): ``self`` at its own order, otherwise
        made once per order, so the truncation's ``ext_mon`` cache is shared
        by every later caller."""
        if order == self.order:
            return self
        cut = self._truncations.get(order)
        if cut is None:
            cut = self._truncations[order] = type(self)(
                self.env, order, [dict(t) for t in self.tables[: order + 1]])
        return cut


class MapSeries(AlgebraMapSeries):
    """Series of algebra endomorphisms of U(a) with the undeformed product.

    The order-0 table must be the multiplicative extension of an invertible
    space map (usually the identity or a group automorphism).
    """

    arity = 1

    @classmethod
    def identity(cls, env: Envelope, order: int) -> "MapSeries":
        t0 = {i: El.term(((i,),)) for i in range(env.dim)}
        return cls(env, order, [t0] + [{} for _ in range(order)])

    @classmethod
    def from_linear(cls, env: Envelope, order: int, linmap: LinearMap) -> "MapSeries":
        t0 = {}
        for j in range(env.dim):
            el = El()
            for i, c in linmap.column(j).items():
                el.add_term(((i,),), c)
            t0[j] = el
        return cls(env, order, [t0] + [{} for _ in range(order)])

    def apply_all_legs(self, s: ElSeries) -> ElSeries:
        out = s
        for leg in range(s.arity):
            out = self.apply_leg(out, leg)
        return out

    def compose(self, other: "MapSeries") -> "MapSeries":
        """self ∘ other."""
        tables: list[dict[int, El]] = [{} for _ in range(self.order + 1)]
        for i in range(self.env.dim):
            image = self.apply_series(other.gen_series(i))
            for k, el in enumerate(image.coeffs):
                if el:
                    tables[k][i] = el
        return MapSeries(self.env, self.order, tables)

    def order0_matrix(self) -> LinearMap:
        env = self.env
        n = env.dim
        space = env.lie.space
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            el = self.tables[0].get(j, El())
            for (m,), c in el.data.items():
                if len(m) != 1:
                    raise InternalCheckError("order-0 table is not a space map")
                rows[m[0]][j] = c
        return LinearMap(space, space, rows)

    def inverse(self) -> "MapSeries":
        env = self.env
        n = env.dim
        try:
            minv = self.order0_matrix().inverse()
        except ValueError:
            raise InternalCheckError("order-0 table is not invertible") from None
        tables: list[dict[int, El]] = [{} for _ in range(self.order + 1)]
        for j in range(n):
            el = El()
            for i, c in minv.column(j).items():
                el.add_term(((i,),), c)
            tables[0][j] = el
        inv = MapSeries(env, self.order, tables)
        for k in range(1, self.order + 1):
            rhs = []
            for j in range(n):
                acc = El()
                for b in range(1, k + 1):
                    src = self.tables[b].get(j)
                    if src:
                        img = inv.apply(src)
                        if img.coeffs[k - b]:
                            acc = acc + img.coeffs[k - b]
                rhs.append(-acc)
            for i in range(n):
                el = El()
                for j in range(n):
                    c = minv.rows[j][i]
                    if c and rhs[j]:
                        el = el + c * rhs[j]
                if el:
                    inv.tables[k][i] = el
            inv._ext.clear()
        return inv

    def is_identity(self) -> bool:
        if any(self.tables[k] for k in range(1, self.order + 1)):
            return False
        for i in range(self.env.dim):
            if self.tables[0].get(i, El()) != El.term(((i,),)):
                return False
        return True


class CoproductSeries(AlgebraMapSeries):
    """Deformed coproduct given per order on generators and extended as an
    algebra map for the undeformed product."""

    arity = 2

    @classmethod
    def undeformed(cls, env: Envelope, order: int) -> "CoproductSeries":
        t0 = {}
        for i in range(env.dim):
            t0[i] = El({(((i,)), ONE): 1, (ONE, (i,)): 1})
        return cls(env, order, [t0] + [{} for _ in range(order)])

    def pushforward(self, linmap: LinearMap) -> "CoproductSeries":
        """Transport along an invertible space map: x ↦ (θ⊗θ) Δ(θ^{-1} x)."""
        env = self.env
        inv = linmap.inverse()
        tables: list[dict[int, El]] = [{} for _ in range(self.order + 1)]
        for i in range(env.dim):
            acc = [El() for _ in range(self.order + 1)]
            for j, c in inv.column(i).items():
                for k in range(self.order + 1):
                    el = self.tables[k].get(j)
                    if el:
                        acc[k] = acc[k] + c * env.apply_linear(linmap, el)
            for k, el in enumerate(acc):
                if el:
                    tables[k][i] = el
        return CoproductSeries(env, self.order, tables)
