"""Exact linear solving over expression matrices."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from twistcheck import linsolve
from twistcheck.expr import Chart, Expr
from twistcheck.linsolve import LinearSolveError, solve
from twistcheck.scenario import _resolve, load

DATA = Path(__file__).parent / "data"


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
    assert sol.assumptions == ["pivot nonzero where x != 0"]


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


def test_a_unit_pivot_is_taken_like_a_constant():
    # [[x, e^y], [e^y, 0]] has no constant entry and no unit common to every
    # entry; the unit e^y of the first column comes before x, and the second
    # pivot e^y is a unit again, so no domain is stated
    ch = Chart("R2", ("x", "y"))
    x, ey = Expr.coord(ch, "x"), Expr.exp(Expr.coord(ch, "y"))
    zero, one = Expr.zero(ch), Expr.one(ch)
    sol = solve([[x, ey], [ey, zero]], [[one], [one]], ch)
    assert (sol.values[0][0] * ey).equals(one)
    assert (sol.values[1][0] * ey * ey).equals(ey - x)
    assert sol.assumptions == []


def test_the_conformal_pair_chart_states_no_pivot_domain():
    # every pivot of the pair system of (e^L theta, e^L omega) is a unit,
    # and the Pfaffian of its Omega vanishes nowhere
    sc = load(str(DATA / "conformal-r3.json"))
    notes = _resolve(sc, "pair", "pair").contact.solution.notes
    assert not [n for n in notes if "pivot nonzero where" in n]


def test_pivots_prefer_constants_then_columns_then_rows():
    # both columns hold a constant: the first column's 2 comes first; after
    # its elimination the second column's tie between 1 - x^2/2 and 1 - x/2
    # goes to the lower row
    ch = Chart("R1", ("x",))
    x = Expr.coord(ch, "x")
    one, two = Expr.one(ch), Expr.const(ch, 2)
    sol = solve([[x, one], [two, x], [one, one]], [[x + one], [two + x], [two]], ch)
    assert sol.values[0][0].equals(one) and sol.values[1][0].equals(one)
    assert sol.assumptions == ["pivot nonzero where x^2 - 2 != 0"]


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
    # the first and has the same condition x + 1 != 0; the third is not a
    # unit multiple and keeps its own
    ch = Chart("R2", ("x", "y"))
    x, y = Expr.coord(ch, "x"), Expr.coord(ch, "y")
    zero = Expr.zero(ch)
    p = x + Expr.one(ch)
    pivots = [p, Expr.exp(y) * p * -3, p * p]
    a = [[v if i == j else zero for j, v in enumerate(pivots)] for i in range(3)]
    sol = solve(a, [[v] for v in pivots], ch)
    assert all(v[0].equals(Expr.one(ch)) for v in sol.values)
    assert sol.assumptions == ["pivot nonzero where x + 1 != 0",
                               "pivot nonzero where x^2 + 2*x + 1 != 0"]


def random_poly(rng, chart, terms=3, degree=2):
    coords = [Expr.coord(chart, c) for c in chart.coords]
    out = Expr.zero(chart)
    for _ in range(terms):
        t = Expr.const(chart, Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
        for _ in range(rng.randrange(degree + 1)):
            t = t * rng.choice(coords)
        out = out + t
    return out


def random_exponent(rng, chart):
    """An affine L with rational coefficients and a nonzero x coefficient."""
    out = Expr.const(chart, Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)))
    for c in chart.coords:
        k = Fraction(rng.randrange(1, 4) * rng.choice((-1, 1)) if c == "x" else rng.randrange(-3, 4),
                     rng.randrange(1, 8))
        out = out + Expr.coord(chart, c) * k
    return out


def test_a_common_unit_is_divided_out_of_the_system():
    # e^L A0 X = B has the solution of A0 X = B times e^-L, printed alike,
    # and the pivot notes of A0
    ch = Chart("R2", ("x", "y"))
    rng = random.Random(26)
    solved = 0
    for _ in range(12):
        n = rng.randrange(2, 4)
        a0 = [[random_poly(rng, ch) if rng.random() < 0.8 else Expr.zero(ch) for _ in range(n)]
              for _ in range(n)]
        b = [[random_poly(rng, ch, terms=2) for _ in range(2)] for _ in range(n)]
        try:
            sol0 = solve(a0, b, ch)
        except LinearSolveError:
            continue  # singular random draw
        solved += 1
        el = random_exponent(rng, ch)
        unit, inverse = Expr.exp(el), Expr.exp(-el)
        sol = solve([[unit * e for e in row] for row in a0], b, ch)
        assert [[str(v) for v in col] for col in sol.values] == \
            [[str(v * inverse) for v in col] for col in sol0.values]
        assert sol.assumptions == sol0.assumptions
        for i in range(n):
            for t in range(2):
                lhs = sum((unit * a0[i][j] * sol.values[j][t] for j in range(n)), Expr.zero(ch))
                assert lhs.equals(b[i][t])
    assert solved >= 8


def test_systems_without_one_common_unit_are_eliminated_as_given(monkeypatch):
    seen = []
    original = linsolve._eliminate

    def spy(a, b, chart):
        seen.append(a)
        return original(a, b, chart)

    monkeypatch.setattr(linsolve, "_eliminate", spy)
    ch = Chart("R2", ("x", "y"))
    x, y = Expr.coord(ch, "x"), Expr.coord(ch, "y")
    one, zero = Expr.one(ch), Expr.zero(ch)
    b = [[one], [x]]
    systems = [
        [[Expr.exp(x), zero], [y * Expr.exp(x), Expr.exp(y)]],  # two exp parts
        [[Expr.exp(x) / (x + one), zero], [zero, Expr.exp(x)]],  # a denominator
        [[x, one], [one, y]],  # exp-free: L = 0
    ]
    for a in systems:
        solve(a, b, ch)
        assert seen.pop() is a
    # one common part: the eliminated matrix is exp-free
    unit = Expr.exp(x - y * Fraction(2, 7))
    solve([[unit * x, unit], [unit, unit * y]], b, ch)
    assert all(not any(k[1]) for row in seen.pop() for e in row for k in e.num)


def test_unit_pivots_are_not_taken_apart(monkeypatch):
    calls = []
    original = linsolve.nonzero_conditions

    def counting(e):
        calls.append(e)
        return original(e)

    monkeypatch.setattr(linsolve, "nonzero_conditions", counting)
    ch = Chart("R2", ("x", "y"))
    x, y = Expr.coord(ch, "x"), Expr.coord(ch, "y")
    zero, one = Expr.zero(ch), Expr.one(ch)
    # unit pivots 3 e^x, -e^y / 2 and 2, then a constant one
    diag = [Expr.exp(x) * 3, Expr.exp(y) * Fraction(-1, 2), Expr.const(ch, 2)]
    a = [[v if i == j else zero for j, v in enumerate(diag)] for i in range(3)]
    assert solve(a, [[one]] * 3, ch).assumptions == []
    assert solve([[one, x], [one, one]], [[one], [one]], ch).assumptions == [
        "pivot nonzero where x - 1 != 0"]
    # only the non-unit pivot 1 - x was taken apart
    assert [str(e) for e in calls] == ["-x + 1"]
