"""A-paths: exact anchor residuals and cocycle integrals, with sympy as the
oracle for both."""

import random
from fractions import Fraction

import pytest
import sympy

from twistcheck.expr import Chart, Expr, ExprError, parse
from twistcheck.tensor import Form, MultiVec
from twistcheck.jacobi import TwistedJacobi
from twistcheck.apath import anchor_residual, cocycle_integral, path_from_exprs

T = Chart("T", ("t",))
TT = Expr.coord(T, "t")
ZERO = Expr.zero(T)
ONE = Expr.one(T)
ST = sympy.Symbol("t")


def vertical_structure():
    ch = Chart("R3", ("x", "y", "z"))
    return TwistedJacobi(ch, MultiVec.zero(ch, 2), MultiVec.d_dx(ch, "z"),
                         Form.zero(ch, 2))


def line_path(j=None, zeta_z=ONE, f=ONE):
    j = j or vertical_structure()
    return path_from_exprs(j, [ZERO, ZERO, TT], [ZERO, ZERO, zeta_z], f)


def to_sympy(e: Expr):
    """An Expr on T as a sympy expression in ST, term by term."""
    def poly(p):
        return sum((sympy.Rational(str(c)) * ST ** m * sympy.exp(sympy.Rational(str(a0))
                                                                 + sympy.Rational(str(a)) * ST)
                    for ((m,), (a0, a)), c in p.items()), sympy.Integer(0))
    return poly(e.num) / poly(e.den)


def failing_terms(report):
    return {item.name: item.verdict.assumptions for item in report.items if not item.passed}


def test_validation():
    j = vertical_structure()
    with pytest.raises(ExprError):
        path_from_exprs(j, [ZERO, TT], [ZERO, ZERO, ONE], ONE)  # too few gamma
    with pytest.raises(ExprError):
        path_from_exprs(j, [ZERO, ZERO, TT], [ZERO, ONE], ONE)  # too few zeta
    other = Chart("S", ("t",))
    with pytest.raises(ExprError):
        path_from_exprs(j, [ZERO, ZERO, Expr.coord(other, "t")], [ZERO, ZERO, ONE], ONE)
    plane = Chart("P", ("s", "t"))
    with pytest.raises(ExprError):
        path_from_exprs(j, *([Expr.zero(plane)] * 3,) * 2, Expr.one(plane))


def test_constant_zero_path_is_trivial():
    c = path_from_exprs(vertical_structure(), [ZERO] * 3, [ZERO] * 3, ZERO)
    assert anchor_residual(c).passed
    assert cocycle_integral(c).is_symbolic_zero


def test_anchor_residual_exact_match():
    # anchor image f E = d/dz equals the velocity of gamma(t) = (0,0,t)
    report = anchor_residual(line_path())
    assert [(item.name, item.verdict.kind) for item in report.items] == [
        (f"anchor residual d/d{x}", "SymbolicZero") for x in "xyz"]


def test_anchor_residual_detects_mismatch():
    report = anchor_residual(line_path(f=Expr.const(T, 2)))
    assert failing_terms(report) == {"anchor residual d/dz": ["leading term: -1"]}
    assert report.record("anchor_residual")["max_residual"] == pytest.approx(1.0)


def test_cocycle_integral_closed_forms():
    assert cocycle_integral(line_path()).equals(-ONE)
    assert cocycle_integral(line_path(zeta_z=TT)).equals(Expr.const(T, Fraction(-1, 2)))
    # -<zeta, E> = t e^{2t}, whose integral is e^2/4 + 1/4
    tilted = line_path(zeta_z=-TT * Expr.exp(2 * TT))
    assert cocycle_integral(tilted).equals(parse("exp(2)/4 + 1/4", T))
    # pairing with (-E, 0) ignores the scalar slot
    assert cocycle_integral(line_path(zeta_z=ZERO, f=TT ** 2)).is_symbolic_zero


def test_anchor_negative_control_persists():
    # a path off the anchor fails on the exact leading term of each wrong
    # component: f = 2 doubles f E = d/dz, and a covector dy along gamma =
    # (0, 0, t) meets Lambda = d/dx ^ d/dy - y d/dy ^ d/dz at y = 0, giving
    # Lambda#dy = -d/dx
    ch = Chart("R3", ("x", "y", "z"))
    std = TwistedJacobi(ch, MultiVec(ch, 2, {(0, 1): Expr.one(ch),
                                             (1, 2): -Expr.coord(ch, "y")}),
                        MultiVec.d_dx(ch, "z"), Form.zero(ch, 2))
    assert anchor_residual(line_path(std)).passed
    doubled = anchor_residual(line_path(std, f=Expr.const(T, 2)))
    assert failing_terms(doubled) == {"anchor residual d/dz": ["leading term: -1"]}
    sideways = path_from_exprs(std, [ZERO, ZERO, TT], [ZERO, TT, ONE], ONE)
    assert failing_terms(anchor_residual(sideways)) == {
        "anchor residual d/dx": ["leading term: t"]}


def test_an_integrand_with_a_denominator_is_a_precondition_error():
    ch = Chart("R3", ("x", "y", "z"))
    x = Expr.coord(ch, "x")
    j = TwistedJacobi(ch, MultiVec.zero(ch, 2),
                      MultiVec(ch, 1, {(2,): Expr.one(ch) / (x + 1)}), Form.zero(ch, 2))
    c = path_from_exprs(j, [TT, ZERO, ZERO], [ZERO, ZERO, ONE], ONE)
    with pytest.raises(ExprError, match="has a denominator"):
        cocycle_integral(c)


RATES = (0, Fraction(1, 2), Fraction(-1, 2), 2, -2)


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("a", RATES, ids=str)
def test_exact_integral_matches_sympy(m, a):
    rng = random.Random(f"{m}:{a}")
    a0 = rng.choice((0, 1, Fraction(-3, 2)))
    coef = Fraction(rng.randint(1, 5), rng.choice((1, 3))) * rng.choice((1, -1))
    term = Expr.const(T, coef) * TT ** m * Expr.exp(Expr.const(T, a0) + TT * a)
    got = cocycle_integral(line_path(zeta_z=-term))
    want = sympy.integrate(to_sympy(term), (ST, 0, 1))
    assert sympy.simplify(to_sympy(got) - want) == 0, (str(term), str(got), want)


def test_exact_integral_of_sums_matches_sympy():
    rng = random.Random(7)
    for _ in range(5):
        integrand = ZERO
        for _ in range(3):
            m, a = rng.randrange(5), rng.choice(RATES)
            integrand += Expr.const(T, rng.randint(-3, 3)) * TT ** m * Expr.exp(TT * a)
        got = cocycle_integral(line_path(zeta_z=-integrand))
        want = sympy.integrate(to_sympy(integrand), (ST, 0, 1))
        assert sympy.simplify(to_sympy(got) - want) == 0, (str(integrand), str(got))


def random_poly(rng: random.Random) -> Expr:
    return sum((Expr.const(T, rng.randint(-2, 2)) * TT ** k for k in range(3)), ZERO)


def test_anchor_residual_matches_sympy_on_the_twisted_structure(twisted_jacobi):
    """gamma' - (Lambda#zeta + f E)(gamma) for Lambda = (d/dx ^ d/dy -
    y d/dy ^ d/dz) / (x + 1) and E = d/dz, computed in sympy by diff and
    subs, against each item's exact residual."""
    j = twisted_jacobi
    x, y, z = sympy.symbols("x y z")
    lam = {(0, 1): 1 / (1 + x), (1, 2): -y / (1 + x)}
    rng = random.Random(3)
    on_anchor = ([ZERO, ZERO, TT], [ZERO, ZERO, ONE], ONE)
    assert anchor_residual(path_from_exprs(j, *on_anchor)).passed
    paths = [on_anchor]
    for _ in range(5):
        gamma = [random_poly(rng) + TT, random_poly(rng), random_poly(rng)]
        paths.append((gamma, [random_poly(rng) for _ in range(3)], random_poly(rng)))
    for gamma, zeta, f in paths:
        report = anchor_residual(path_from_exprs(j, gamma, zeta, f))
        sg, sz, sf = [to_sympy(g) for g in gamma], [to_sympy(v) for v in zeta], to_sympy(f)
        at = dict(zip((x, y, z), sg))
        want = [sympy.diff(g, ST) for g in sg]
        want[2] -= sf
        for (a, b), comp in lam.items():
            v = comp.subs(at)
            want[b] -= sz[a] * v
            want[a] += sz[b] * v
        for item, w in zip(report.items, want):
            residual = item.verdict.residual
            got = 0 if residual is None else to_sympy(residual)
            assert sympy.cancel(got - w) == 0, (item.name, got, w)
            assert item.passed == (sympy.cancel(w) == 0)
