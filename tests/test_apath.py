"""A-paths: anchor residuals and cocycle integrals."""

import pytest

from twistcheck.expr import Chart, Expr, ExprError
from twistcheck.tensor import Form, MultiVec
from twistcheck.jacobi import TwistedJacobi
from twistcheck.apath import anchor_residual, cocycle_integral, path_from_exprs

T = Chart("T", ("t",))
TT = Expr.coord(T, "t")
ZERO = Expr.zero(T)
ONE = Expr.one(T)


def vertical_structure():
    ch = Chart("R3", ("x", "y", "z"))
    return TwistedJacobi(ch, MultiVec.zero(ch, 2), MultiVec.d_dx(ch, "z"),
                         Form.zero(ch, 2))


def line_path(j=None, n=64, zeta_z=ONE, f=ONE):
    j = j or vertical_structure()
    return path_from_exprs(j, [ZERO, ZERO, TT], [ZERO, ZERO, zeta_z], f, n)


def test_validation():
    j = vertical_structure()
    with pytest.raises(ExprError):
        line_path(j, n=7)  # odd
    with pytest.raises(ExprError):
        line_path(j, n=6)  # too few
    with pytest.raises(ExprError):
        path_from_exprs(j, [ZERO, ZERO, TT + TT], [ZERO, ZERO, ONE], ONE, 64)  # out of box


def test_constant_zero_path_is_trivial():
    j = vertical_structure()
    c = path_from_exprs(j, [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO], ZERO, 16)
    assert anchor_residual(c) == 0.0
    assert cocycle_integral(c) == 0.0


def test_anchor_residual_exact_match():
    # anchor image f E = d/dz equals the velocity of gamma(t) = (0,0,t)
    assert anchor_residual(line_path()) < 1e-12


def test_anchor_residual_detects_mismatch():
    c = line_path(f=Expr.const(T, 2))
    assert abs(anchor_residual(c) - 1.0) < 1e-12


def test_cocycle_integral_closed_forms():
    assert abs(cocycle_integral(line_path()) + 1.0) < 1e-8
    assert abs(cocycle_integral(line_path(zeta_z=TT)) + 0.5) < 1e-10
    # pairing with (-E, 0) ignores the scalar slot
    j = vertical_structure()
    c = path_from_exprs(j, [ZERO, ZERO, TT], [ZERO, ZERO, ZERO], TT ** 2, 16)
    assert cocycle_integral(c) == 0.0


def test_simpson_convergence_order():
    j = vertical_structure()

    def err(n):
        c = path_from_exprs(j, [ZERO, ZERO, TT], [ZERO, ZERO, TT ** 4], ONE, n)
        return abs(cocycle_integral(c) + 0.2)

    e16, e32 = err(16), err(32)
    assert e32 > 0
    assert e16 / e32 >= 8.0


def test_anchor_negative_control_persists():
    # f = 2 violates the anchor equation at every resolution
    for n in (16, 64, 256):
        c = line_path(f=Expr.const(T, 2), n=n)
        assert anchor_residual(c) > 0.9
