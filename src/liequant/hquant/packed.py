"""Packed int keys and the graded-product kernel over legs ``(mon, g)``.

A term of the graded structure has legs ``(mon, g)``, a basis element of
U(a) ⋊ Γ each.  The kernel gives each leg an int code on first use, and a key
``(order, legs..., tag)`` is one int: the order in the low bits (as many as
the structure's order needs), then one field of ``_LEG_BITS`` bits per leg,
then the tag, which is unbounded.  A key is made by adding field-shifted
codes, so no tuple is built per multiply-add; ``PackedKernel._series`` is the
one place where keys become legs again.  A code that would not fit its field
raises ``InternalCheckError`` instead of running into the next field.

Terms are flat tuples ``(order, legs, coeff)`` sorted by order, ``legs`` the
packed legs of the term.  ``_add_product`` adds the product of two term
lists into an accumulator ``{key: coeff}`` modulo h^{n+1}, reading each
product of two legs (a slot entry) from a table keyed by the packed code of
the pair, together with the order the entry reaches; ``_add_coproduct``
does the same for the image of one leg under a leg map.  A term of order
``o`` reads what it meets only to order ``n - o``.
"""

from __future__ import annotations

from ..errors import InternalCheckError
from ..sparse import El
from ..tensors import q, qdiv

# Width of one leg field of a packed key: a leg code must stay below 2**_LEG_BITS.
_LEG_BITS = 20
_LEG_MASK = (1 << _LEG_BITS) - 1


def _scaled_table(read, factor=1):
    """A table ``{code: (depth, terms)}`` and its ``fill(code, upto)``, which
    makes or deepens the entry of ``code`` to order ``upto`` and returns it.

    ``read(code, upto)`` returns flat terms ``(order, legs, coeff)`` at least
    to order ``upto``, one list per code that it only appends to, sorted by
    order.  With ``factor`` 1 an entry holds that list itself; otherwise a
    copy with every coefficient times ``factor``, as deep as it was read: a
    deeper read appends the terms its source gained since.  The kernels look
    entries up inline and call ``fill`` only when one is missing or shallow.
    """
    table: dict = {}

    def fill(code, upto: int):
        source = read(code, upto)
        if factor != 1:
            entry = table.get(code)
            terms = [] if entry is None else entry[1]
            terms += [(o, legs, q(factor * c)) for o, legs, c in source[len(terms):]]
            source = terms
        entry = table[code] = (upto, source)
        return entry
    return table, fill


def _arity(series: list[El]) -> int:
    """The number of legs of a series' keys (0 for a zero series)."""
    return next((len(key) for el in series for key in el.data), 0)


class PackedKernel:
    """Leg codes, packed keys and the product and leg-map kernels of a graded
    structure of order ``order``; the structure supplies the slot entries
    and leg images through the tables it passes to the kernels."""

    def __init__(self, order: int):
        self.order = order
        # the order in the low bits, then the leg fields
        self._ob = order.bit_length()
        self._codes: dict = {}
        self._leg_list: list = []

    def _key(self, leg) -> int:
        """The packed key of the leg ``(mon, g)`` in the first leg field; its
        code is made on first use.  A leg at field ``i`` is this key shifted
        by ``i * _LEG_BITS``."""
        key = self._codes.get(leg)
        if key is None:
            code = len(self._leg_list)
            if code > _LEG_MASK:
                raise InternalCheckError(f"more than {_LEG_MASK + 1} legs for the packed keys")
            key = self._codes[leg] = code << self._ob
            self._leg_list.append(leg)
        return key

    def _leg_of(self, key: int):
        """The leg of a packed key in the first leg field."""
        return self._leg_list[key >> self._ob]

    def _pair(self, code: int) -> tuple:
        """The leg pair of a slot entry's code ``key1 + (key2 << _LEG_BITS)``."""
        return (self._leg_list[(code >> self._ob) & _LEG_MASK],
                self._leg_list[code >> (self._ob + _LEG_BITS)])

    def _pack(self, legs: tuple) -> int:
        """The packed keys of a tuple of legs, one field each."""
        packed = 0
        for i, leg in enumerate(legs):
            packed += self._key(leg) << (i * _LEG_BITS)
        return packed

    def _flat(self, series: list[El]) -> list[tuple]:
        """Flat terms ``(order, legs, coeff)`` of a series, sorted by order,
        with its keys' legs packed."""
        if len(series) - 1 > self.order:
            raise InternalCheckError("a series deeper than the structure overflows the order field")
        return [(o, self._pack(legs), q(c)) for o, el in enumerate(series)
                for legs, c in el.data.items()]

    def _series(self, acc: dict, n: int, k: int, scale=1, tags: list | None = None) -> list[El]:
        """An accumulator ``{key: coeff}`` of packed keys with ``k`` legs,
        divided by ``scale``, as a series whose keys are the legs.  The tags
        are dropped, or with ``tags`` the tuple ``tags[tag]`` follows the
        legs.  This is the one place where packed keys are decoded."""
        out = [El() for _ in range(n + 1)]
        legs, ob = self._leg_list, self._ob
        order_mask = (1 << ob) - 1
        shifts = [ob + i * _LEG_BITS for i in range(k)]
        tag_shift = ob + k * _LEG_BITS
        for at, c in acc.items():
            if c:
                key = tuple(legs[(at >> shift) & _LEG_MASK] for shift in shifts)
                if tags is not None:
                    key += tags[at >> tag_shift]
                out[at & order_mask].data[key] = q(c) if scale == 1 else qdiv(c, scale)
        return out

    def _left(self, terms: list[tuple], k: int) -> list[tuple]:
        """The left operand of ``_add_product`` from flat terms: as they are
        for ``k = 1``, with the two legs split into ``(order, leg1, leg2,
        coeff)``, each in the first field, for ``k = 2``."""
        if k == 1:
            return terms
        first = _LEG_MASK << self._ob
        return [(o, legs & first, (legs >> _LEG_BITS) & first, c) for o, legs, c in terms]

    def _right(self, terms: list[tuple], k: int) -> list[tuple]:
        """The right operand of ``_add_product`` from flat terms ``(order,
        legs, coeff, tag)``, ``tag`` already in its field, keeping their
        order: the terms ``(order, leg << _LEG_BITS, coeff, tag)`` for
        ``k = 1`` and ``(order, leg1 << _LEG_BITS, leg2 << _LEG_BITS, coeff,
        tag)`` for ``k = 2``, so that adding a leg of the left operand gives
        the code of the slot entry the two legs meet in."""
        if k == 1:
            return [(o, legs << _LEG_BITS, c, tag) for o, legs, c, tag in terms]
        first = _LEG_MASK << self._ob
        return [(o, (legs & first) << _LEG_BITS, legs & (first << _LEG_BITS), c, tag)
                for o, legs, c, tag in terms]

    def _add_product(self, acc: dict, a: list[tuple], b: list[tuple], n: int, k: int,
                     table: dict, fill):
        """Add ``a b`` modulo h^{n+1} into ``acc = {key: coeff}`` (packed keys).

        ``a`` and ``b`` come from ``_left`` and ``_right``, for keys of ``k``
        legs (``k`` is 1 or 2), both sorted by order; the slot entries of each
        pair of terms are looked up inline, and the first term of a leg in
        ``b`` asks for the deepest entry that leg needs.  The tag of each
        ``b`` term goes into the keys of its products, so one accumulator can
        hold the products of ``a`` with several right factors.  ``table``
        holds the slot entries ``(depth, terms)`` by pair code, and
        ``fill(code, upto)`` makes or deepens one (see ``_scaled_table``).
        """
        get = acc.get
        if k == 1:
            for oa, la, ca in a:
                for ob, lb, cb, tag in b:
                    rest = n - oa - ob
                    if rest < 0:
                        break
                    entry = table.get(la + lb)
                    if entry is None or entry[0] < rest:
                        entry = fill(la + lb, rest)
                    base = ca * cb
                    head = oa + ob + tag
                    for o, legs, c in entry[1]:
                        if o > rest:
                            break
                        at = head + o + legs
                        acc[at] = get(at, 0) + base * c
            return
        lb = _LEG_BITS
        for oa, a1, a2, ca in a:
            for ob, b1, b2, cb, tag in b:
                rest = n - oa - ob
                if rest < 0:
                    break
                entry = table.get(a1 + b1)
                if entry is None or entry[0] < rest:
                    entry = fill(a1 + b1, rest)
                first = entry[1]
                entry = table.get(a2 + b2)
                if entry is None or entry[0] < rest:
                    entry = fill(a2 + b2, rest)
                second = entry[1]
                base = ca * cb
                head = oa + ob + tag
                for o1, legs1, c1 in first:
                    if o1 > rest:
                        break
                    product = base * c1
                    head1 = head + o1 + legs1
                    rest1 = rest - o1
                    for o2, legs2, c2 in second:
                        if o2 > rest1:
                            break
                        at = head1 + o2 + (legs2 << lb)
                        acc[at] = get(at, 0) + product * c2

    def _add_coproduct(self, acc: dict, a, n: int, leg: int, table: dict, fill,
                       arity: int = 2):
        """Add the image of leg ``leg`` of the terms ``a``, pairs ``(key,
        coeff)`` of packed keys, modulo h^{n+1}, into ``acc``: the leg is
        replaced by the ``arity`` legs of its image, and the legs and tag
        above it move up.  ``table`` holds each leg's image ``(depth,
        terms)`` by its key in the first field, flat terms sorted by order,
        and ``fill(key, upto)`` makes or deepens one: images under the
        coproduct, or under another leg map such as the comparison witness.
        A term of order ``oa`` asks for its image only to order ``n - oa``,
        all that the sum modulo h^{n+1} reads of it."""
        ob = self._ob
        low = ob + leg * _LEG_BITS
        below = (1 << low) - 1
        shift = leg * _LEG_BITS
        up = (arity - 1) * _LEG_BITS
        get = acc.get
        for key, c in a:
            rest = n - (key & ((1 << ob) - 1))
            lk = ((key >> low) & _LEG_MASK) << ob
            head = (key & below) + ((key >> (low + _LEG_BITS)) << (low + _LEG_BITS + up))
            entry = table.get(lk)
            if entry is None or entry[0] < rest:
                entry = fill(lk, rest)
            for o, legs, d in entry[1]:
                if o > rest:
                    break
                at = head + o + (legs << shift)
                acc[at] = get(at, 0) + c * d
