"""Deterministic sparse rational elimination."""

from fractions import Fraction

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
