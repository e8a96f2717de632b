"""Exact linear solving over expression matrices."""

import random
from fractions import Fraction

import pytest

from twistcheck.expr import Chart, Expr
from twistcheck.linsolve import LinearSolveError, solve


def test_constant_system_matches_fractions():
    ch = Chart("R1", ("x",))
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randrange(2, 5)
        a_num = [[Fraction(rng.randrange(-5, 6)) for _ in range(n)] for _ in range(n)]
        x_num = [Fraction(rng.randrange(-4, 5)) for _ in range(n)]
        b_num = [sum(a_num[i][j] * x_num[j] for j in range(n)) for i in range(n)]
        a = [[Expr.const(ch, v) for v in row] for row in a_num]
        b = [[Expr.const(ch, v)] for v in b_num]
        try:
            sol = solve(a, b, ch)
        except LinearSolveError:
            continue  # singular random draw
        for got, want in zip(sol.values, x_num):
            assert got[0].equals(Expr.const(ch, want))


def test_symbolic_system():
    ch = Chart("R1", ("x",))
    x = Expr.coord(ch, "x")
    one = Expr.one(ch)
    # [[1, x], [0, 1]] (u, v)^T = (x, 1) -> v = 1, u = 0
    sol = solve([[one, x], [Expr.zero(ch), one]], [[x], [one]], ch)
    assert sol.values[0][0].is_symbolic_zero
    assert sol.values[1][0].equals(one)


def test_pivot_assumptions_recorded():
    ch = Chart("R1", ("x",))
    x = Expr.coord(ch, "x")
    sol = solve([[x]], [[x * x]], ch)
    assert sol.values[0][0].equals(x)
    assert sol.assumptions  # nonvanishing pivot was assumed


def test_singular_system_rejected():
    ch = Chart("R1", ("x",))
    one = Expr.one(ch)
    two = Expr.const(ch, 2)
    with pytest.raises(LinearSolveError):
        solve([[one, one], [two, two]], [[one], [one]], ch)


def test_a_constant_pivot_in_another_column_needs_no_assumption():
    # det [[x, 1], [x + 1, 1]] = -1: pivoting on the constants leaves the
    # constant pivot 1, where the first column alone would assume x != 0
    ch = Chart("R1", ("x",))
    x = Expr.coord(ch, "x")
    one = Expr.one(ch)
    sol = solve([[x, one], [x + one, one]], [[one], [x]], ch)
    # x u + v = 1 and (x + 1) u + v = x: u = x - 1, v = 1 - x^2 + x
    assert sol.values[0][0].equals(x - one)
    assert sol.values[1][0].equals(one - x * x + x)
    assert sol.assumptions == []


def test_a_unit_pivot_needs_no_assumption():
    ch = Chart("R2", ("x", "y"))
    unit = Expr.exp(Expr.coord(ch, "x") - Expr.coord(ch, "y")) * 3
    sol = solve([[unit]], [[Expr.one(ch)]], ch)
    assert (sol.values[0][0] * unit).equals(Expr.one(ch))
    assert sol.assumptions == []


def test_pivots_prefer_constants_then_columns_then_rows():
    # both columns hold a constant: the first column's 2 comes first; after
    # its elimination the second column's tie between 1 - x^2/2 and 1 - x/2
    # goes to the lower row
    ch = Chart("R1", ("x",))
    x = Expr.coord(ch, "x")
    one, two = Expr.one(ch), Expr.const(ch, 2)
    sol = solve([[x, one], [two, x], [one, one]], [[x + one], [two + x], [two]], ch)
    assert sol.values[0][0].equals(one) and sol.values[1][0].equals(one)
    assert sol.assumptions == ["pivot nonvanishing: -1/2*x^2 + 1"]


def test_underdetermined_and_inconsistent_systems_raise():
    ch = Chart("R1", ("x",))
    x = Expr.coord(ch, "x")
    one = Expr.one(ch)
    with pytest.raises(LinearSolveError, match="underdetermined"):
        solve([[one, x]], [[one]], ch)
    with pytest.raises(LinearSolveError, match="underdetermined"):
        solve([[one, x], [x, x * x]], [[one], [x]], ch)
    with pytest.raises(LinearSolveError, match="inconsistent"):
        solve([[one], [x]], [[one], [one]], ch)


def test_a_pivot_that_is_a_unit_multiple_of_a_noted_one_is_not_noted_again():
    # diag(x + 1, -3 e^y (x + 1), (x + 1)^2): the second pivot is c e^L times
    # the first and vanishes where it does; the third is not a unit multiple
    ch = Chart("R2", ("x", "y"))
    x, y = Expr.coord(ch, "x"), Expr.coord(ch, "y")
    zero = Expr.zero(ch)
    p = x + Expr.one(ch)
    pivots = [p, Expr.exp(y) * p * -3, p * p]
    a = [[v if i == j else zero for j, v in enumerate(pivots)] for i in range(3)]
    sol = solve(a, [[v] for v in pivots], ch)
    assert all(v[0].equals(Expr.one(ch)) for v in sol.values)
    assert sol.assumptions == ["pivot nonvanishing: x + 1", f"pivot nonvanishing: {p * p}"]
