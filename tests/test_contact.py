"""Twisted contact structures: volume, Reeb field, bivector, poissonization."""

import pytest

from twistcheck import contact
from twistcheck.expr import Chart, Expr, ExprError
from twistcheck.report import tensor_zero_verdict
from twistcheck.tensor import Form, MultiVec, ext_d, interior, sharp1
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
    notes = twisted_contact.solution.notes
    jacobi_from_contact(twisted_contact)
    # one bordered (N + 1) x (N + 1) system for E and Lambda together, and
    # one assumption list, whose pivots are the volume's factor x + 1 only,
    # noted once although -x - 1 is a pivot too
    assert calls == [4]
    assert notes == ["pivot nonzero where x + 1 != 0"]


def test_symplectic_part_built_once(twisted_contact):
    sym = twisted_contact.symplectic_part
    assert twisted_contact.symplectic_part is sym
    assert (sym - (ext_d(twisted_contact.theta) + twisted_contact.omega)).is_symbolic_zero
