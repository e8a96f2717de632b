"""Twisted contact structures: volume, Reeb field, bivector, poissonization."""

from fractions import Fraction

import pytest

from twistcheck import contact
from twistcheck.expr import Chart, Expr, ExprError
from twistcheck.report import tensor_zero_verdict
from twistcheck.tensor import Form, MultiVec, ext_d, interior, sharp1, wedge
from twistcheck.jacobi import poissonize
from twistcheck.contact import (
    SYMPLECTIC_INVERSE_SIGN,
    TwistedContact,
    check_contact,
    contact_poissonization_check,
    jacobi_from_contact,
)


def expected_bivector(chart, twisted: bool):
    y = Expr.coord(chart, "y")
    scale = (
        Expr.one(chart) / (Expr.one(chart) + Expr.coord(chart, "x"))
        if twisted
        else Expr.one(chart)
    )
    return MultiVec(chart, 2, {(0, 1): scale, (1, 2): -y * scale})


def test_odd_dimension_required():
    ch = Chart("R2", ("x", "y"))
    with pytest.raises(ExprError):
        TwistedContact(ch, Form.d_coord(ch, "x"), Form.zero(ch, 2))


def test_volume_check_passes(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        report = check_contact(c)
        assert report.passed
        assert report.assumptions  # volume coefficient recorded


def test_degenerate_theta_fails(r3):
    c = TwistedContact(r3, Form.d_coord(r3, "z"), Form.zero(r3, 2))
    report = check_contact(c)
    assert not report.passed
    (item,) = report.items
    assert item.verdict.kind == "NonZero"
    assert item.verdict.assumptions == ["volume is identically zero"]


def test_reeb_field(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        e = c.solution.e
        assert tensor_zero_verdict(e - MultiVec.d_dx(c.chart, "z")).kind == "SymbolicZero"


def test_bivector_matches_elimination_oracle(std_contact, twisted_contact):
    for c, twisted in ((std_contact, False), (twisted_contact, True)):
        lam = c.solution.lam
        want = expected_bivector(c.chart, twisted)
        assert tensor_zero_verdict(lam - want).kind == "SymbolicZero"


def test_jacobi_from_contact_verifies(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        j, report = jacobi_from_contact(c)
        assert report.passed, report.summary()


def test_contact_poissonization(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        report = contact_poissonization_check(c)
        assert report.passed, report.summary()
        # the detected inverse-sign convention is recorded
        assert any("sign" in a.lower() for a in report.assumptions) or report.notes


def test_symplectic_inverse_sign():
    # canonical case theta = dz: poissonize its Jacobi structure and contract
    # the homogeneous bivector into Omega~ = d(e^s dz)
    ch = Chart("canonical", ("z",))
    c0 = TwistedContact(ch, Form.basis(ch, 0), Form.zero(ch, 2))
    j, _ = jacobi_from_contact(c0)
    h = poissonize(j)
    big = h.chart
    es = Expr.exp(Expr.coord(big, big.coords[-1]))
    omega_big = ext_d(Form(big, 1, {(0,): es}))
    for b in range(big.dim):
        zeta = Form.basis(big, b)
        contracted = interior(sharp1(h.lam, zeta), omega_big)
        assert (contracted - zeta.scale(SYMPLECTIC_INVERSE_SIGN)).is_symbolic_zero
    assert SYMPLECTIC_INVERSE_SIGN == -1


def test_reeb_and_bivector_solved_once(twisted_contact):
    solution = twisted_contact.solution
    assert twisted_contact.solution is solution
    assert twisted_contact.jacobi.e is solution.e and twisted_contact.jacobi.lam is solution.lam


def test_one_elimination_per_structure(monkeypatch, twisted_contact):
    calls = []
    original = contact.solve

    def counting(a, b, chart):
        calls.append(len(a))
        return original(a, b, chart)

    monkeypatch.setattr(contact, "solve", counting)
    domain = twisted_contact.solution.domain
    jacobi_from_contact(twisted_contact)
    # one bordered (N + 1) x (N + 1) system for E and Lambda together, whose
    # denominators state the volume's factor x + 1 once
    assert calls == [4]
    assert domain == ["x + 1 != 0"]


def test_symplectic_part_built_once(twisted_contact):
    sym = twisted_contact.symplectic_part
    assert twisted_contact.symplectic_part is sym
    assert (sym - (ext_d(twisted_contact.theta) + twisted_contact.omega)).is_symbolic_zero


def conformal_parts(r3):
    """L, theta0 = dz - y dx and omega0 = 3/4 dx^dy of the conformal structure
    (e^L theta0, e^L omega0), L with a y term and rational coefficients."""
    x, y, z = (Expr.coord(r3, c) for c in r3.coords)
    el = x * Fraction(-3, 5) + y * Fraction(2, 7) + z * Fraction(1, 2)
    theta0 = Form.d_coord(r3, "z") - Form.d_coord(r3, "x").scale(y)
    omega0 = wedge(Form.d_coord(r3, "x"), Form.d_coord(r3, "y")).scale(Fraction(3, 4))
    return el, theta0, omega0


def conformal_contact(r3) -> TwistedContact:
    el, theta0, omega0 = conformal_parts(r3)
    unit = Expr.exp(el)
    return TwistedContact(r3, theta0.scale(unit), omega0.scale(unit))


def test_a_conformal_structure_states_no_false_pivot_domain(r3):
    # its volume 7/4 e^(2L) vanishes nowhere, and E and Lambda are polynomial
    # times e^-L: nothing may restrict the domain
    c = conformal_contact(r3)
    _, report = jacobi_from_contact(c)
    assert report.passed, report.summary()
    assert c.solution.domain == [] and report.notes == [], report.notes
    # d(e^L theta0) + e^L omega0 = e^L (d theta0 + omega0 + dL ^ theta0): the
    # unit-free system is that of (theta0, omega0 + dL ^ theta0), and E and
    # Lambda are its solution times e^-L
    el, theta0, omega0 = conformal_parts(r3)
    c0 = TwistedContact(r3, theta0, omega0 + wedge(ext_d(Form.scalar(el)), theta0))
    inverse = Expr.exp(-el)
    assert c.solution.e.equals(c0.solution.e.scale(inverse))
    assert c.solution.lam.equals(c0.solution.lam.scale(inverse))


def test_certification_catches_a_wrong_unit_shift_or_a_stray_unit_on_e(monkeypatch, r3):
    el, _, _ = conformal_parts(r3)
    original = contact.solve

    def mutated(change):
        def solve(a, b, chart):
            return [[change(v, t, j) for t, v in enumerate(col)]
                    for j, col in enumerate(original(a, b, chart))]
        return solve

    y_index = r3.index("y")
    mutants = [
        # a wrong shift sign: the solution times e^L where e^-L belongs
        (lambda v, t, j: v * Expr.exp(el * 2), r"Reeb identity i\(E\)theta"),
        # a stray unit: E, the first right-hand side's solution, times e^x
        (lambda v, t, j: v * Expr.exp(Expr.coord(r3, "x")) if t == 0 else v,
         r"Reeb identity i\(E\)theta"),
        # E + d/dy, which theta does not see but sigma does
        (lambda v, t, j: v + Expr.one(r3) if t == 0 and j == y_index else v,
         r"Reeb identity i\(E\)\(d theta"),
    ]
    for change, message in mutants:
        monkeypatch.setattr(contact, "solve", mutated(change))
        with pytest.raises(ExprError, match=message):
            conformal_contact(r3).solution
    monkeypatch.setattr(contact, "solve", original)
    assert conformal_contact(r3).solution.domain == []
