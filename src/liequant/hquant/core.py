"""Series-valued elements, algebra-map series and coproduct series over U(a).

Coefficients are exact rationals.  Series arithmetic is always truncated at
the series order, so in the order-k coefficient of a product an order-k
coefficient of one factor only meets order-0 coefficients of the others.  The
solvers' columns in :mod:`liequant.hquant.unknowns` rely on this: they are
derivatives, computed in first-order vector forward mode on
:class:`DualSeries` and :class:`DualMap`, which the plain series classes
accept as operands.  A tangent carries a bundle of directions, one per
unknown: each of its keys ends in a tag, the unknown's index, after its legs.
Products, tensor products and leg maps keep the tag last, and since no
tangent ever meets another one, the terms of each tag are the derivative in
that tag's direction.
"""

from __future__ import annotations

from ..envelope import Envelope, Mon, ONE
from ..errors import InternalCheckError
from ..sparse import El
from ..tensors import LinearMap, q


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
        if isinstance(other, DualSeries):
            return NotImplemented
        self._check(other)
        return ElSeries(self.alg, self.arity, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "ElSeries":
        return ElSeries(self.alg, self.arity, [-a for a in self.coeffs])

    def scale(self, factor) -> "ElSeries":
        return ElSeries(self.alg, self.arity, [factor * a for a in self.coeffs])

    __rmul__ = scale

    def mul(self, other: "ElSeries") -> "ElSeries":
        if isinstance(other, DualSeries):
            return other.lift(self).mul(other)
        self._check(other)
        return ElSeries(self.alg, self.arity,
                        [product_coeff(self.alg, self.arity, self.coeffs, other.coeffs, k)
                         for k in range(self.order + 1)])

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
        if isinstance(other, DualSeries):
            return other.lift(self).tensor(other)
        self._check_order_only(other)
        n = self.order
        out = []
        for k in range(n + 1):
            acc = El()
            for a in range(k + 1):
                _add_tensor(acc, self.coeffs[a], other.coeffs[k - a])
            out.append(acc)
        return ElSeries(self.alg, self.arity + other.arity, out)

    def _check_order_only(self, other: "ElSeries"):
        if self.order != other.order:
            raise ValueError("series order mismatch")

    def truncated(self, order: int) -> "ElSeries":
        return ElSeries(self.alg, self.arity, self.coeffs[: order + 1])


def product_coeff(alg, arity: int, a: list[El], b: list[El], k: int) -> El:
    """The order-k coefficient of the product of two coefficient lists,
    ``sum a[i]·b[k-i]``.  The sum starts from the first product and adds the
    others in place: each ``k_mul`` result is a new element."""
    acc = None
    for i in range(k + 1):
        ca, cb = a[i], b[k - i]
        if ca and cb:
            term = alg.k_mul(ca, cb, arity)
            if acc is None:
                acc = term
            else:
                for key, c in term.data.items():
                    acc.add_term(key, c)
    return El() if acc is None else acc


def _add_tensor(out: El, a: El, b: El, legs: int | None = None) -> El:
    """Add ``a ⊗ b`` (legs concatenated) into ``out``.  With ``legs``, ``a``
    is a tangent whose keys carry a tag past their ``legs`` legs, and the tag
    goes after the legs of ``b``."""
    for ka, va in a.data.items():
        head, tag = (ka, ()) if legs is None else (ka[:legs], ka[legs:])
        for kb, vb in b.data.items():
            out.add_term(head + kb + tag, va * vb)
    return out


def _splice(out: El, el: El, leg: int, image, legs: int | None = None) -> El:
    """Add leg ``leg`` of ``el`` mapped by ``image`` (a monomial's image
    element, or None for zero), spliced in place of the leg, into ``out``.
    With ``legs``, the images are tangents whose keys carry a tag past their
    ``legs`` legs, and the tag goes after the legs of ``el``."""
    for key, c in el.data.items():
        img = image(key[leg])
        if img:
            head, tail = key[:leg], key[leg + 1:]
            for ikey, d in img.data.items():
                if legs is None:
                    out.add_term(head + ikey + tail, c * d)
                else:
                    out.add_term(head + ikey[:legs] + tail + ikey[legs:], c * d)
    return out


def _plus(a: El | None, b: El | None, own: bool = False) -> El | None:
    """Sum of two tangents, None standing for zero.  With ``own``, ``a`` is an
    element the caller has just made and no one else holds, and ``b`` is
    added into it in place."""
    if a is None or b is None:
        return b if a is None else a
    if not own:
        return a + b
    for key, c in b.data.items():
        a.add_term(key, c)
    return a


class DualSeries:
    """A series in first-order vector forward mode: its order-0 ``value`` and
    its ``tangent`` (None when zero), which holds one derivative per unknown:
    the terms whose keys end in an unknown's tag are the derivative with
    respect to that unknown's unit element, with the tag dropped.

    It reads as a series of order 1, ``s[0]`` the value and ``s[1]`` the
    tangent, so a defect that reads its order-n coefficient returns its
    derivative when evaluated on duals at n = 1.  A product computes only
    ``a0·b' + a'·b0``.  The value is made on first use, so a term whose
    tangent is zero costs nothing unless a product with a tangent needs its
    value.  A plain series mixed in is a constant: only its order-0
    coefficient counts.  ``order0`` is the solve's memo of order-0 maps, which
    the dual maps made from this series share.
    """

    __slots__ = ("alg", "arity", "tangent", "order0", "_value", "_make")

    order = 1

    def __init__(self, alg, arity: int, value: El | None = None, tangent: El | None = None,
                 order0: dict | None = None, make=None):
        self.alg = alg
        self.arity = arity
        self.tangent = tangent or None
        self.order0 = order0
        self._value = value
        self._make = make

    @property
    def value(self) -> El:
        if self._value is None:
            self._value, self._make = self._make(), None
        return self._value

    def _derived(self, arity: int, tangent: El | None, make) -> "DualSeries":
        return DualSeries(self.alg, arity, None, tangent, self.order0, make)

    def lift(self, other) -> "DualSeries":
        """``other`` as a dual: itself, or a plain series as the constant of
        its order-0 coefficient."""
        if isinstance(other, DualSeries):
            return other
        return DualSeries(other.alg, other.arity, other.coeffs[0], None, self.order0)

    def __getitem__(self, k: int) -> El:
        return self.value if k == 0 else self.tangent or El()

    @property
    def coeffs(self) -> list[El]:
        return [self[0], self[1]]

    def __iter__(self):
        return iter(self.coeffs)

    def is_zero(self) -> bool:
        """True when the derivative vanishes (only the derivative is read)."""
        return self.tangent is None

    def __add__(self, other) -> "DualSeries":
        if not isinstance(other, (ElSeries, DualSeries)):
            return NotImplemented
        other = self.lift(other)
        return self._derived(self.arity, _plus(self.tangent, other.tangent),
                             lambda: self.value + other.value)

    def __neg__(self) -> "DualSeries":
        return self._derived(self.arity, -self.tangent if self.tangent else None,
                             lambda: -self.value)

    def __sub__(self, other) -> "DualSeries":
        if not isinstance(other, (ElSeries, DualSeries)):
            return NotImplemented
        return self + -self.lift(other)

    def __rsub__(self, other) -> "DualSeries":
        return self.lift(other) + -self

    def scale(self, factor) -> "DualSeries":
        return self._derived(self.arity, self.tangent.scale(factor) if self.tangent else None,
                             lambda: self.value.scale(factor))

    __rmul__ = scale

    def mul(self, other) -> "DualSeries":
        other = self.lift(other)
        if other.arity != self.arity:
            raise ValueError("series shape mismatch")
        unit = self.alg.unit(self.arity).data

        def times(a: El, b: El) -> El:
            # order-0 values are mostly units (F_0, J_0, v_0, w_0 and their products)
            if a.data == unit:
                return b
            return a if b.data == unit else self.alg.k_mul(a, b, self.arity)

        tangent = times(self.value, other.tangent) if other.tangent else None
        if self.tangent:
            # the first product is a new element unless the value is the unit
            # and times() returned other.tangent (a tagged tangent is never
            # the unit, so times() never returns self.value here)
            tangent = _plus(tangent, times(self.tangent, other.value),
                            tangent is not other.tangent)
        return self._derived(self.arity, tangent, lambda: times(self.value, other.value))

    def inverse(self) -> "DualSeries":
        # the value is the unit, so the tangent of the inverse is -tangent
        if self.value != self.alg.unit(self.arity):
            raise InternalCheckError("series inverse needs unit leading coefficient")
        return DualSeries(self.alg, self.arity, self.value,
                          -self.tangent if self.tangent else None, self.order0)

    def tensor(self, other) -> "DualSeries":
        other = self.lift(other)
        tangent = (_add_tensor(El(), self.tangent, other.value, self.arity)
                   if self.tangent else None)
        if other.tangent:
            tangent = _add_tensor(tangent or El(), self.value, other.tangent)
        return self._derived(self.arity + other.arity, tangent,
                             lambda: _add_tensor(El(), self.value, other.value))

    def map_leg(self, leg: int, image, dimage, arity: int) -> "DualSeries":
        """Leg ``leg`` mapped by an algebra map into ``arity`` legs, given the
        order-0 image ``image(m)`` of a monomial and, for a map that carries
        the unknown, its tangent ``dimage(m)`` (otherwise ``dimage`` is None)."""
        tangent = _splice(El(), self.tangent, leg, image) if self.tangent else El()
        if dimage is not None:
            _splice(tangent, self.value, leg, dimage, arity)
        return self._derived(self.arity + arity - 1, tangent,
                             lambda: _splice(El(), self.value, leg, image))


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
        # a truncation reads the extensions of the series it was cut from
        self._root: AlgebraMapSeries | None = None

    @classmethod
    def from_images(cls, env: Envelope, order: int, images: list) -> "AlgebraMapSeries":
        """The series whose i-th generator maps to the series ``images[i]``."""
        tables: list[dict[int, El]] = [{} for _ in range(order + 1)]
        for i, image in enumerate(images):
            for k, el in enumerate(image.coeffs):
                if el:
                    tables[k][i] = el
        return cls(env, order, tables)

    def gen_series(self, i: int) -> ElSeries:
        return ElSeries(self.env, self.arity, [t.get(i, El()) for t in self.tables])

    def ext_mon(self, m: Mon, upto: int | None = None) -> list[El]:
        """The image of a monomial, per order: all orders, or with ``upto``
        at least the orders up to ``upto``.

        Each monomial has one list, extended in place: a deeper request
        appends the orders it adds to the list a shallower one made, and its
        tail's list is extended the same way.  A truncation keeps the first
        orders of the list of the series it was cut from."""
        if self._root is not None:
            ext = self._ext.get(m)
            if ext is None:
                ext = self._ext[m] = self._root.ext_mon(m, self.order)[: self.order + 1]
            return ext
        upto = self.order if upto is None else min(upto, self.order)
        ext = self._ext.setdefault(m, [])
        if len(ext) > upto:
            return ext
        if not m:
            ext[:] = ElSeries.unit(self.env, self.arity, self.order).coeffs
            return ext
        head = [t.get(m[0], El()) for t in self.tables]
        tail = self.ext_mon(m[1:], upto)
        for k in range(len(ext), upto + 1):
            # cached images feed every later product: keep them under the scalar rule
            el = product_coeff(self.env, self.arity, head, tail, k)
            ext.append(El({key: q(c) for key, c in el.data.items()}))
        return ext

    def apply_leg(self, s: ElSeries, leg: int) -> ElSeries:
        """Map one leg of a series: the image key is spliced in place of the leg."""
        if isinstance(s, DualSeries):
            base = self.truncated(0)
            return s.map_leg(leg, lambda m: base.ext_mon(m)[0], None, self.arity)
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

    def apply_all_legs(self, s: ElSeries) -> ElSeries:
        for leg in range(s.arity):
            s = self.apply_leg(s, leg)
        return s

    def truncated(self, order: int):
        """The series modulo h^(order+1): ``self`` at its own order, otherwise
        made once per order, so the truncation's ``ext_mon`` cache is shared
        by every later caller.  A truncation's extensions are the first
        orders of this series' own (see ``ext_mon``)."""
        if order == self.order:
            return self
        cut = self._truncations.get(order)
        if cut is None:
            cut = self._truncations[order] = type(self)(
                self.env, order, [dict(t) for t in self.tables[: order + 1]])
            cut._root = self._root or self
        return cut


class DualMap:
    """An algebra-map series (a coproduct, an intertwiner or a transport map)
    in first-order vector forward mode: one :class:`DualSeries` per
    generator, extended multiplicatively like :class:`AlgebraMapSeries`.

    The order-0 extension of a monomial comes from one order-0 map per
    generator table, of type ``kind``, kept in the solve's ``order0`` memo,
    so every evaluation of the solve shares it.  The tangents of extensions
    are kept for this map, that is for one evaluation.
    """

    order = 1

    def __init__(self, kind: type, env: Envelope, gens: list[DualSeries], order0: dict):
        self.kind = kind
        self.env = env
        self.arity = kind.arity
        self.gens = gens
        self.order0 = order0
        self._map0 = None
        self._dext: dict[Mon, El | None] = {}

    def gen_series(self, i: int) -> DualSeries:
        return self.gens[i]

    def truncated(self, order: int) -> "DualMap":
        return self

    def ext0(self, m: Mon) -> El:
        """The order-0 image of a monomial."""
        if self._map0 is None:
            table = {i: g.value for i, g in enumerate(self.gens) if g.value}
            key = (self.kind, tuple((i, tuple(sorted(el.data.items())))
                                    for i, el in table.items()))
            self._map0 = self.order0.get(key)
            if self._map0 is None:
                self._map0 = self.order0[key] = self.kind(self.env, 0, [table])
        return self._map0.ext_mon(m)[0]

    def dext(self, m: Mon) -> El | None:
        """The tangent of a monomial's image: d(x·rest) = dx·rest + x·d(rest)."""
        if m in self._dext:
            return self._dext[m]
        out = None
        if m:
            head, rest = self.gens[m[0]], m[1:]
            if head.tangent:
                out = self.env.k_mul(head.tangent, self.ext0(rest), self.arity)
            drest = self.dext(rest)
            if drest:
                out = _plus(out, self.env.k_mul(head.value, drest, self.arity), True)
        self._dext[m] = out = out or None
        return out

    def ext_mon(self, m: Mon) -> DualSeries:
        return DualSeries(self.env, self.arity, self.ext0(m), self.dext(m), self.order0)

    def apply_leg(self, s, leg: int) -> DualSeries:
        if not isinstance(s, DualSeries):
            s = DualSeries(s.alg, s.arity, s.coeffs[0], None, self.order0)
        return s.map_leg(leg, self.ext0, self.dext, self.arity)

    apply_all_legs = AlgebraMapSeries.apply_all_legs


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

    def compose(self, other: "MapSeries") -> "MapSeries":
        """self ∘ other."""
        return MapSeries.from_images(self.env, self.order, [self.apply_leg(other.gen_series(i), 0)
                                                            for i in range(self.env.dim)])

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
                        img = inv.apply_leg(ElSeries.constant(env, 1, k - b, src), 0)[k - b]
                        if img:
                            acc = acc + img
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
        env, order = self.env, self.order
        theta = MapSeries.from_linear(env, order, linmap)
        inv = linmap.inverse()
        images = []
        for i in range(env.dim):
            acc = ElSeries.constant(env, 2, order, El())
            for j, c in inv.column(i).items():
                acc = acc + c * self.gen_series(j)
            images.append(theta.apply_all_legs(acc))
        return CoproductSeries.from_images(env, order, images)
