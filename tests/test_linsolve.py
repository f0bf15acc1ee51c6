"""Deterministic sparse rational elimination."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liequant.linsolve import Certificate, LinSystem, Solution, lin_solve, verify_certificate

Q = Fraction


def dense(matrix, rhs) -> LinSystem:
    """A small dense system as a sparse ``LinSystem``."""
    system = LinSystem(nvars=len(matrix[0]))
    for row, b in zip(matrix, rhs):
        system.add_row(dict(enumerate(row)), b)
    return system


def test_identity_system():
    result = lin_solve(dense([[1, 0], [0, 1]], [Q(3), Q(-7, 2)]))
    assert isinstance(result, Solution)
    assert result.values == [Q(3), Q(-7, 2)]


def test_all_int_systems_stay_exact():
    # ``/`` on two ints gives a float: 2x = 1 must solve to 1/2, not 0.5
    half = LinSystem(nvars=1)
    half.add_row({0: 2}, 1)
    result = lin_solve(half)
    assert result.values == [Q(1, 2)]
    assert type(result.values[0]) is Fraction
    # an integral solution is a plain int
    two = LinSystem(nvars=1)
    two.add_row({0: 2}, 4)
    result = lin_solve(two)
    assert result.values == [2]
    assert type(result.values[0]) is int


def test_free_variable_pinned_to_zero():
    # 0·x = 0: the lone variable never acquires a pivot
    sys = LinSystem(nvars=1)
    sys.add_row({}, Q(0))
    result = lin_solve(sys)
    assert isinstance(result, Solution)
    assert result.values == [Q(0)]
    assert result.pivot_columns == []


def test_unique_solution():
    result = lin_solve(dense([[1, 1], [1, -1]], [Q(1), Q(1)]))
    assert isinstance(result, Solution)
    assert result.values == [Q(1), Q(0)]


def test_underdetermined_gauge_pinning():
    # x + y = 1 with y free: column order pins y = 0
    result = lin_solve(dense([[1, 1]], [Q(1)]))
    assert isinstance(result, Solution)
    assert result.values == [Q(1), Q(0)]
    assert result.pivot_columns == [0]


def test_inconsistent_system_certificate():
    sys = LinSystem(nvars=2)
    sys.add_row({0: Q(1), 1: Q(1)}, Q(1))
    sys.add_row({0: Q(2), 1: Q(2)}, Q(3))
    result = lin_solve(sys)
    assert isinstance(result, Certificate)
    assert verify_certificate(sys, result)


def test_certificate_on_larger_system():
    sys = LinSystem(nvars=3)
    sys.add_row({0: Q(1), 1: Q(2)}, Q(1))
    sys.add_row({1: Q(1), 2: Q(-1)}, Q(2))
    sys.add_row({0: Q(1), 1: Q(4), 2: Q(-2)}, Q(6))   # row1 + 2*row2 would give 5
    result = lin_solve(sys)
    assert isinstance(result, Certificate)
    assert verify_certificate(sys, result)


def test_determinism_bit_identical():
    sys = LinSystem(nvars=4)
    rows = [({0: Q(2), 2: Q(1)}, Q(1)),
            ({1: Q(1), 3: Q(5)}, Q(0)),
            ({0: Q(2), 1: Q(1), 2: Q(1), 3: Q(5)}, Q(1)),
            ({2: Q(7)}, Q(7))]
    for row, rhs in rows:
        sys.add_row(dict(row), rhs)
    first = lin_solve(sys)
    second = lin_solve(sys)
    assert isinstance(first, Solution)
    assert first.values == second.values
    assert first.pivot_columns == second.pivot_columns


def test_rank_deficient_consistent():
    result = lin_solve(dense([[1, 2], [2, 4]], [Q(3), Q(6)]))
    assert isinstance(result, Solution)
    assert result.values == [Q(3), Q(0)]


def rational_elimination(system: LinSystem):
    """Reference elimination on Fractions that updates every row's combination
    at every step (the pivot rule of ``lin_solve``): ``(rows, rhs, comb,
    pivot_of_col)``."""
    rows = [dict(r) for r in system.rows]
    rhs = list(system.rhs)
    comb = [{i: 1} for i in range(len(rows))]
    pivot_of_col = {}
    for col in range(system.nvars):
        cands = [rid for rid, row in enumerate(rows)
                 if col in row and rid not in pivot_of_col.values()]
        if not cands:
            continue
        piv = min(cands, key=lambda rid: (len(rows[rid]), rid))
        pivot_of_col[col] = piv
        for rid in cands:
            if rid == piv:
                continue
            factor = Fraction(rows[rid][col]) / rows[piv][col]
            for c, v in rows[piv].items():
                acc = rows[rid].get(c, 0) - factor * v
                if acc:
                    rows[rid][c] = acc
                else:
                    rows[rid].pop(c, None)
            rhs[rid] -= factor * rhs[piv]
            for orig, cv in comb[piv].items():
                acc = comb[rid].get(orig, 0) - factor * cv
                if acc:
                    comb[rid][orig] = acc
                else:
                    comb[rid].pop(orig, None)
    return rows, rhs, comb, pivot_of_col


def eager_certificate(system: LinSystem):
    """``(combination, residual)`` of the first row the reference elimination
    reduces to ``0 = residual != 0``, or None."""
    rows, rhs, comb, pivot_of_col = rational_elimination(system)
    for rid, row in enumerate(rows):
        if rid not in pivot_of_col.values() and not row and rhs[rid]:
            return comb[rid], rhs[rid]
    return None


def rational_solution(system: LinSystem):
    """``(values, pivot_columns)`` of the reference elimination, free
    variables pinned to zero."""
    rows, rhs, _, pivot_of_col = rational_elimination(system)
    values = [Fraction(0)] * system.nvars
    for col in sorted(pivot_of_col, reverse=True):
        row = rows[pivot_of_col[col]]
        acc = rhs[pivot_of_col[col]] - sum(v * values[c] for c, v in row.items() if c != col)
        values[col] = Fraction(acc) / row[col]
    return values, sorted(pivot_of_col)


# integers and true fractions
ENTRY = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(2, 4)))


@st.composite
def inconsistent_systems(draw):
    """A small random system with one row made inconsistent: a combination
    of other rows with its right-hand side moved off."""
    nvars = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(st.lists(ENTRY, min_size=nvars, max_size=nvars), ENTRY),
                         min_size=1, max_size=6))
    weights = draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
    combined = [sum(w * row[c] for w, (row, _) in zip(weights, rows)) for c in range(nvars)]
    shift = draw(ENTRY.filter(bool))
    rows.append((combined, sum(w * b for w, (_, b) in zip(weights, rows)) + shift))
    order = draw(st.permutations(range(len(rows))))
    system = LinSystem(nvars=nvars)
    for i in order:
        system.add_row(dict(enumerate(rows[i][0])), rows[i][1])
    return system


@settings(max_examples=200, deadline=None)
@given(inconsistent_systems())
def test_lazy_certificate_equals_eager_elimination(system):
    result = lin_solve(system)
    assert isinstance(result, Certificate)
    combination, residual = eager_certificate(system)
    assert result.residual == residual
    assert result.combination == combination
    assert verify_certificate(system, result)


@st.composite
def consistent_systems(draw):
    """A small random system ``A x = A x0``, with some rows repeated as
    combinations of others so that it is rank deficient."""
    nvars = draw(st.integers(1, 6))
    x0 = draw(st.lists(ENTRY, min_size=nvars, max_size=nvars))
    rows = draw(st.lists(st.lists(ENTRY, min_size=nvars, max_size=nvars), min_size=1,
                         max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        weights = draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(w * row[c] for w, row in zip(weights, rows)) for c in range(nvars)])
    system = LinSystem(nvars=nvars)
    for row in rows:
        system.add_row(dict(enumerate(row)), sum(v * x for v, x in zip(row, x0)))
    return system


@settings(max_examples=200, deadline=None)
@given(consistent_systems())
def test_solution_equals_rational_elimination(system):
    result = lin_solve(system)
    assert isinstance(result, Solution)
    values, pivot_columns = rational_solution(system)
    assert result.values == values
    assert result.pivot_columns == pivot_columns
    assert all(type(v) is int or v.denominator > 1 for v in result.values)
