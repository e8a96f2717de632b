"""Exact linear solving over expression matrices."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from twistcheck import linsolve
from twistcheck.contact import TwistedContact
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
        for got, want in zip(sol, x_num):
            assert got[0].equals(Expr.const(ch, want))


def record_pivots(monkeypatch) -> list[Expr]:
    """The pivot that each later elimination takes, in order."""
    picked = []
    original = linsolve._pick_pivot

    def spy(rows, r, cols):
        found = original(rows, r, cols)
        if found is not None:
            picked.append(rows[found[0]][found[1]])
        return found

    monkeypatch.setattr(linsolve, "_pick_pivot", spy)
    return picked


def test_symbolic_system():
    ch = Chart("R2", ("x", "y"))
    x, y = Expr.coord(ch, "x"), Expr.coord(ch, "y")
    zero, one = Expr.zero(ch), Expr.one(ch)
    # [[1, x], [0, 1]] (u, v)^T = (x, 1) -> v = 1, u = 0
    sol = solve([[one, x], [zero, one]], [[x], [one]], ch)
    assert sol[0][0].is_symbolic_zero
    assert sol[1][0].equals(one)
    assert solve([[x]], [[x * x]], ch)[0][0].equals(x)
    # [[1, x], [1, 1]] (u, v)^T = (1, 1) -> u = 1, v = 0
    sol = solve([[one, x], [one, one]], [[one], [one]], ch)
    assert sol[0][0].equals(one) and sol[1][0].is_symbolic_zero
    # diagonal systems whose solution is 1: unit pivots 3 e^x, -e^y / 2 and
    # 2, and x + 1 with its unit and its square multiples
    p = x + one
    for diag in ([Expr.exp(x) * 3, Expr.exp(y) * Fraction(-1, 2), Expr.const(ch, 2)],
                 [p, Expr.exp(y) * p * -3, p * p]):
        a = [[v if i == j else zero for j, v in enumerate(diag)] for i in range(3)]
        assert all(v[0].equals(one) for v in solve(a, [[v] for v in diag], ch))


def test_singular_system_rejected():
    ch = Chart("R1", ("x",))
    one = Expr.one(ch)
    two = Expr.const(ch, 2)
    with pytest.raises(LinearSolveError):
        solve([[one, one], [two, two]], [[one], [one]], ch)


def test_a_constant_pivot_in_another_column_needs_no_assumption(monkeypatch):
    # det [[x, 1], [x + 1, 1]] = -1: pivoting on the constants leaves the
    # constant pivot 1, where the first column alone would divide by x
    ch = Chart("R1", ("x",))
    x = Expr.coord(ch, "x")
    one = Expr.one(ch)
    pivots = record_pivots(monkeypatch)
    sol = solve([[x, one], [x + one, one]], [[one], [x]], ch)
    # x u + v = 1 and (x + 1) u + v = x: u = x - 1, v = 1 - x^2 + x
    assert sol[0][0].equals(x - one)
    assert sol[1][0].equals(one - x * x + x)
    assert [str(p) for p in pivots] == ["1", "1"]


def test_a_unit_pivot_needs_no_assumption(monkeypatch):
    ch = Chart("R2", ("x", "y"))
    unit = Expr.exp(Expr.coord(ch, "x") - Expr.coord(ch, "y")) * 3
    pivots = record_pivots(monkeypatch)
    sol = solve([[unit]], [[Expr.one(ch)]], ch)
    assert (sol[0][0] * unit).equals(Expr.one(ch))
    # the common unit is divided out before elimination
    assert [str(p) for p in pivots] == ["3"]


def test_a_unit_pivot_is_taken_like_a_constant(monkeypatch):
    # [[x, e^y], [e^y, 0]] has no constant entry and no unit common to every
    # entry; the unit e^y of the first column comes before x, and the second
    # pivot e^y is a unit again
    ch = Chart("R2", ("x", "y"))
    x, ey = Expr.coord(ch, "x"), Expr.exp(Expr.coord(ch, "y"))
    zero, one = Expr.zero(ch), Expr.one(ch)
    pivots = record_pivots(monkeypatch)
    sol = solve([[x, ey], [ey, zero]], [[one], [one]], ch)
    assert (sol[0][0] * ey).equals(one)
    assert (sol[1][0] * ey * ey).equals(ey - x)
    assert [str(p) for p in pivots] == ["exp(y)"] * 2


def test_the_conformal_pair_chart_states_no_pivot_domain(monkeypatch):
    # every pivot of the pair system of (e^L theta, e^L omega) is a unit,
    # and E and Lambda have no denominator
    sc = load(str(DATA / "conformal-r3.json"))
    g = _resolve(sc, "pair", "pair")
    pivots = record_pivots(monkeypatch)
    solution = TwistedContact(g.total, g.theta, g.omega).solution
    assert pivots and all(linsolve._is_unit(p) for p in pivots)
    assert solution.domain == []


def test_pivots_prefer_constants_then_columns_then_rows(monkeypatch):
    # both columns hold a constant: the first column's 2 comes first; after
    # its elimination the second column's tie between 1 - x^2/2 and 1 - x/2
    # goes to the lower row
    ch = Chart("R1", ("x",))
    x = Expr.coord(ch, "x")
    one, two = Expr.one(ch), Expr.const(ch, 2)
    pivots = record_pivots(monkeypatch)
    sol = solve([[x, one], [two, x], [one, one]], [[x + one], [two + x], [two]], ch)
    assert sol[0][0].equals(one) and sol[1][0].equals(one)
    assert [str(p) for p in pivots] == ["2", "-1/2*x^2 + 1"]


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


def test_a_common_unit_is_divided_out_of_the_system(monkeypatch):
    # e^L A0 X = B has the solution of A0 X = B times e^-L, printed alike,
    # and the pivots of A0
    ch = Chart("R2", ("x", "y"))
    rng = random.Random(26)
    pivots = record_pivots(monkeypatch)
    solved = 0
    for _ in range(12):
        n = rng.randrange(2, 4)
        a0 = [[random_poly(rng, ch) if rng.random() < 0.8 else Expr.zero(ch) for _ in range(n)]
              for _ in range(n)]
        b = [[random_poly(rng, ch, terms=2) for _ in range(2)] for _ in range(n)]
        pivots.clear()
        try:
            sol0 = solve(a0, b, ch)
        except LinearSolveError:
            continue  # singular random draw
        solved += 1
        pivots0 = [str(p) for p in pivots]
        pivots.clear()
        el = random_exponent(rng, ch)
        unit, inverse = Expr.exp(el), Expr.exp(-el)
        sol = solve([[unit * e for e in row] for row in a0], b, ch)
        assert [[str(v) for v in col] for col in sol] == \
            [[str(v * inverse) for v in col] for col in sol0]
        assert [str(p) for p in pivots] == pivots0
        for i in range(n):
            for t in range(2):
                lhs = sum((unit * a0[i][j] * sol[j][t] for j in range(n)), Expr.zero(ch))
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

