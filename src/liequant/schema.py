"""JSON interchange: parsing, validation and serialization.

Rationals travel as strings ("p" or "p/q"); structure constants are sparse
with i < j keys ("i,j"); antisymmetry is reconstructed.  Monomials serialize
as dot-joined indices with "e" for the empty monomial; tensor-power keys
join their legs with "|".
"""

from __future__ import annotations

from dataclasses import dataclass

from .envelope import Mon, ONE
from .errors import SchemaError
from .groups import FiniteGroup, GammaLieBialgebra, GroupAction
from .lie import LieAlgebra, LieBialgebra, QuasitriangularData
from .sparse import El
from .tensors import BasedSpace, LinearMap, Scalar, Tensor, q, qstr


def pointer(base: str, *keys) -> str:
    """The JSON pointer ``base`` extended by document keys, each escaped as
    RFC 6901 asks: ``~`` as ``~0``, then ``/`` as ``~1``."""
    return base + "".join("/" + str(key).replace("~", "~0").replace("/", "~1") for key in keys)


def _rat(value, where: str) -> Scalar:
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError("rationals must be strings or integers", where)
    try:
        return q(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {value!r}: {exc}", where) from None


def non_negative_int(value, name: str, where: str) -> int:
    """A document's non-negative integer (an int or a decimal string)."""
    number = None
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            number = int(value)
        except ValueError:
            pass
    if number is None:
        raise SchemaError(f"{name} must be an integer, not {value!r}", where)
    if number < 0:
        raise SchemaError(f"{name} must be non-negative, not {number}", where)
    return number


def _table(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError("must be a JSON object", where)
    return value


def _optional_table(value, where: str) -> dict:
    """A table that may be absent or ``null`` (read as empty); any other
    non-object value is refused."""
    return {} if value is None else _table(value, where)


def _by_element(value, labels: tuple[str, ...], where: str) -> dict:
    """An optional table keyed by group element labels; unknown labels are refused."""
    table = _optional_table(value, where)
    for label in table:
        if label not in labels:
            raise SchemaError(f"unknown group element {label!r}", pointer(where, label))
    return table


def canonical_int(text: str) -> int | None:
    """The index ``text`` spells as ``str(i)``, else None: one spelling per index."""
    try:
        i = int(text)
    except ValueError:
        return None
    return i if str(i) == text else None


def _index(text: str, what: str, bound: int, where: str) -> int:
    i = canonical_int(text)
    if i is None:
        raise SchemaError(f"bad {what} {text!r}", where)
    if not 0 <= i < bound:
        raise SchemaError(f"{what} {i} out of range", where)
    return i


def _pair_key(key: str, bound: int, where: str, strict_order: bool = True) -> tuple[int, int]:
    pair = [canonical_int(part) for part in key.split(",")]
    if len(pair) != 2 or None in pair:
        raise SchemaError(f"bad index pair {key!r}", where)
    i, j = pair
    if not (0 <= i < bound and 0 <= j < bound):
        raise SchemaError(f"index pair {key!r} out of range 0..{bound - 1}", where)
    if strict_order and not i < j:
        raise SchemaError(f"index pair {key!r} must satisfy i < j", where)
    return i, j


@dataclass
class ParsedInput:
    document: dict
    bialgebra: LieBialgebra
    quasitriangular: QuasitriangularData | None
    gamma: GammaLieBialgebra | None
    options: dict

    @property
    def space(self) -> BasedSpace:
        return self.bialgebra.space


def parse_document(doc: dict) -> ParsedInput:
    if not isinstance(doc, dict):
        raise SchemaError("input document must be a JSON object", "/")
    dim = non_negative_int(doc.get("dimension"), "dimension", "/dimension")
    if dim < 1:
        raise SchemaError("dimension must be at least 1", "/dimension")
    basis = doc.get("basis")
    if basis is None:
        basis = [f"x{i}" for i in range(dim)]
    if not isinstance(basis, list) or any(
            isinstance(b, bool) or not isinstance(b, (int, str)) for b in basis):
        raise SchemaError("'basis' must list string or integer labels", "/basis")
    labels = tuple(str(b) for b in basis)
    if len(labels) != dim or len(set(labels)) != dim:
        raise SchemaError("'basis' must list dimension distinct labels", "/basis")
    space = BasedSpace(str(doc.get("name", "a")), labels)

    if "bracket" not in doc:
        raise SchemaError("missing 'bracket' table", "/bracket")
    brackets = {}
    for key, entry in _table(doc["bracket"], "/bracket").items():
        where = pointer("/bracket", key)
        i, j = _pair_key(key, dim, where)
        if not isinstance(entry, dict):
            raise SchemaError("bracket entry must map target index to rational", where)
        vec = {}
        for target, value in entry.items():
            k = _index(target, "target index", dim, pointer(where, target))
            vec[k] = _rat(value, pointer(where, target))
        brackets[(i, j)] = vec
    lie = LieAlgebra(space, brackets)

    cobrackets = {}
    for gen, entry in _optional_table(doc.get("cobracket"), "/cobracket").items():
        where = pointer("/cobracket", gen)
        g = _index(gen, "generator index", dim, where)
        table = {}
        for key, value in _table(entry, where).items():
            j, k = _pair_key(key, dim, pointer(where, key))
            table[(j, k)] = _rat(value, pointer(where, key))
        cobrackets[g] = table

    qt = None
    if doc.get("r") is not None:
        r = Tensor.zero((space, space))
        for key, value in _table(doc["r"], "/r").items():
            i, j = _pair_key(key, dim, pointer("/r", key), strict_order=False)
            v = _rat(value, pointer("/r", key))
            if v:
                r.data[(i, j)] = v
        qt = QuasitriangularData(lie, r)

    if "cobracket" in doc or qt is None:
        bialg = LieBialgebra(lie, cobrackets)
    else:
        # r given without a cobracket table: use its coboundary
        from .lie import coboundary_cobracket
        bialg = LieBialgebra(lie, cobracket_tensors=coboundary_cobracket(lie, qt.r))

    gamma = None
    if doc.get("group") is not None:
        gdoc = doc["group"]
        try:
            labels = tuple(str(x) for x in gdoc["elements"])
            table = tuple(tuple(int(v) for v in row) for row in gdoc["table"])
        except (KeyError, TypeError, ValueError):
            raise SchemaError("group needs 'elements' and 'table'", "/group") from None
        group = FiniteGroup(labels, table)
        action_doc = _by_element(doc.get("action"), labels, "/action")
        maps = []
        for label in labels:
            if label in action_doc:
                where = pointer("/action", label)
                rows = action_doc[label]
                if not isinstance(rows, list) or len(rows) != dim or any(
                        not isinstance(r, list) or len(r) != dim for r in rows):
                    raise SchemaError(f"action matrix for {label!r} must be {dim}x{dim}", where)
                theta = LinearMap(space, space, [[_rat(v, where) for v in row] for row in rows])
                try:
                    theta.inverse()
                except ValueError:
                    raise SchemaError(f"action matrix for {label!r} is singular",
                                      where) from None
                maps.append(theta)
            else:
                maps.append(LinearMap.identity(space))
        action = GroupAction(group, maps)
        twists_doc = _by_element(doc.get("twists"), labels, "/twists")
        twists = []
        for label in labels:
            t = Tensor.zero((space, space))
            where = pointer("/twists", label)
            for key, value in _optional_table(twists_doc.get(label), where).items():
                i, j = _pair_key(key, dim, pointer(where, key))
                v = _rat(value, pointer(where, key))
                if v:
                    t.data[(i, j)] = v
                    t.data[(j, i)] = -v
            twists.append(t)
        gamma = GammaLieBialgebra(bialg, action, twists)
    else:
        for name in ("action", "twists"):
            _by_element(doc.get(name), (), f"/{name}")  # no group: every label is unknown

    options = dict(_optional_table(doc.get("options"), "/options"))
    return ParsedInput(document=doc, bialgebra=bialg, quasitriangular=qt,
                       gamma=gamma, options=options)


def to_document(bialg: LieBialgebra, r: Tensor | None = None,
                gamma: GammaLieBialgebra | None = None, name: str = "a",
                options: dict | None = None) -> dict:
    space = bialg.space
    doc: dict = {
        "name": name,
        "dimension": space.dim,
        "basis": list(space.labels),
        "bracket": {},
        "cobracket": {},
    }
    for i in range(space.dim):
        for j in range(i + 1, space.dim):
            vec = bialg.lie.bracket_basis(i, j)
            if vec:
                doc["bracket"][f"{i},{j}"] = {str(k): qstr(v) for k, v in sorted(vec.items())}
    for i in range(space.dim):
        entry = {}
        for (j, k), v in bialg.cobracket_basis(i).items_sorted():
            if j < k:
                entry[f"{j},{k}"] = qstr(v)
        if entry:
            doc["cobracket"][str(i)] = entry
    if r is not None:
        doc["r"] = {f"{i},{j}": qstr(v) for (i, j), v in r.items_sorted()}
    if gamma is not None:
        grp = gamma.group
        doc["group"] = {"elements": list(grp.labels),
                        "table": [list(row) for row in grp.table]}
        doc["action"] = {}
        for g in grp.elements():
            theta = gamma.action.theta(g)
            if not theta.is_identity():
                doc["action"][grp.labels[g]] = [[qstr(v) for v in row] for row in theta.rows]
        doc["twists"] = {}
        for g in grp.elements():
            entry = {}
            for (i, j), v in gamma.f(g).items_sorted():
                if i < j:
                    entry[f"{i},{j}"] = qstr(v)
            if entry:
                doc["twists"][grp.labels[g]] = entry
    if options:
        doc["options"] = dict(options)
    return doc


# -- element / series serialization -------------------------------------------


def mon_str(m: Mon) -> str:
    # "e" marks the empty monomial; a bare digit string would collide with
    # the length-one monomial of that index
    return "e" if not m else ".".join(str(i) for i in m)


def parse_mon(s: str, where: str) -> Mon:
    if s == "e":
        return ONE
    m = tuple(canonical_int(p) for p in s.split("."))
    if None in m:
        raise SchemaError(f"bad monomial {s!r}", where)
    return m


def el_to_json(el: El) -> dict:
    return {"|".join(mon_str(leg) for leg in key): qstr(coeff)
            for key, coeff in el.items_sorted()}


def el_from_json(data: dict, arity: int, where: str = "") -> El:
    el = El()
    for key, value in data.items():
        parts = key.split("|")
        if len(parts) != arity:
            raise SchemaError(f"key {key!r} has wrong arity", where)
        el.add_term(tuple(parse_mon(part, where) for part in parts), _rat(value, where))
    return el


def series_to_json(coeffs) -> list[dict]:
    return [el_to_json(c) for c in coeffs]


def series_from_json(data: list, arity: int, where: str = "") -> list[El]:
    return [el_from_json(entry, arity, where) for entry in data]
