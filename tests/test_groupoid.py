"""Pair groupoid models: axioms, multiplicativity, properties, suspension."""

import json
import sys
from importlib import resources

import pytest

from twistcheck import contact, groupoid, jacobi, scenario, tensor

from twistcheck.expr import Expr, ExprError
from twistcheck.report import tensor_zero_verdict
from twistcheck.tensor import Form, MultiVec, pullback
from twistcheck.contact import TwistedContact, check_contact, contact_bivector, reeb
from twistcheck.groupoid import (
    GroupoidModel,
    SuspendedModel,
    base_coincidence_check,
    check_algebroid_morphism,
    check_axioms,
    check_multiplicativity,
    check_properties,
    induced_base_structure,
    pair_groupoid,
    strip_suspension,
    suspend,
)


def build(contact):
    """The pair groupoid, with its axioms and total contact volume checked."""
    model = pair_groupoid(contact)
    for report in (check_axioms(model), check_contact(model.contact())):
        assert report.passed, report.summary()
    return model


def test_construction_and_axioms(std_contact):
    g = build(std_contact)
    assert g.total.dim == 7
    assert g.composable.dim == 11
    report = check_axioms(g)
    assert report.passed, report.summary()


def test_structural_identities(std_contact):
    g = build(std_contact)
    # eps-pullback of theta vanishes and r inverts under iota
    assert tensor_zero_verdict(pullback(g.eps, g.theta)).kind == "SymbolicZero"
    assert (g.iota.pull_scalar(g.r) + g.r).is_symbolic_zero


def test_multiplicativity_symbolic(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        report = check_multiplicativity(build(c))
        assert report.passed, report.summary()
        assert all(item.verdict.kind == "SymbolicZero" for item in report.items)


def test_properties(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        report = check_properties(build(c))
        assert report.passed, report.summary()


def test_reeb_block_form(std_contact):
    g = build(std_contact)
    j, _ = g.derived_structure()
    want = MultiVec.d_dx(g.total, "z2")
    assert tensor_zero_verdict(j.e - want).kind == "SymbolicZero"


def test_bivector_dt_column_is_forced(std_contact):
    # the bivector cannot be block-diagonal: its dt column carries
    # e^r E_right - E_left (here -e^t dz1 - dz2 wedged with dt)
    g = build(std_contact)
    j, _ = g.derived_structure()
    t_index = g.total.index("t")
    z1 = g.total.index("z1")
    z2 = g.total.index("z2")
    er = Expr.exp(Expr.coord(g.total, "t"))
    assert j.lam.component(z1, t_index).equals(-er)
    assert j.lam.component(z2, t_index).equals(-Expr.one(g.total))


def test_induced_base_recovers_input(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        g = build(c)
        j0, report = induced_base_structure(g)
        assert report.passed, report.summary()
        lam_ref, _ = contact_bivector(c)
        e_ref, _ = reeb(c)
        assert tensor_zero_verdict(j0.lam - lam_ref).kind == "SymbolicZero"
        assert tensor_zero_verdict(j0.e - e_ref).kind == "SymbolicZero"
        assert tensor_zero_verdict(j0.omega - c.omega).kind == "SymbolicZero"


def test_algebroid_morphism(std_contact):
    report = check_algebroid_morphism(build(std_contact))
    assert report.passed, report.summary()


def test_suspension(std_contact):
    g = build(std_contact)
    sm, report = suspend(g)
    assert report.passed, report.summary()
    assert sm.total.dim == 8
    assert sm.total.coords[-1] == "s"


def darboux_pair(k: int) -> scenario.Scenario:
    """The pair groupoid of theta = dz - sum y_i dx_i on R^(2k+1) with the
    twist omega = (1/3) x2 dx1^dy1, checked for its suspension only."""
    xs = [f"x{i}" for i in range(1, k + 1)]
    ys = [f"y{i}" for i in range(1, k + 1)]
    theta = {"dz": "1", **{f"d{x}": f"-{y}" for x, y in zip(xs, ys)}}
    return scenario.loads(json.dumps({
        "charts": {"M": xs + ys + ["z"]},
        "structures": {"c": {"type": "contact", "chart": "M", "theta": theta,
                             "omega": {"dx1^dy1": "1/3*x2"}},
                       "pair": {"type": "pair_groupoid", "base": "c"}},
        "checks": [{"check": "suspension", "target": "pair"}],
    }))


@pytest.mark.parametrize("k", [3, 5, 9])
def test_suspension_of_large_darboux_bases_is_nondegenerate(k):
    # the Pfaffian of Omega is exp(.) times a polynomial, tiny at some sample
    # points; a float determinant against an absolute 1e-9 called it
    # degenerate (1.2e-10 at 7 dims, 2.0e-14 at 11), and so did the scale
    # 1 + max |term| at 19 dims, where value and terms are near 1e-10
    (outcome,) = scenario.run(darboux_pair(k))
    assert outcome.passed, outcome.lines
    assert any("Pfaffian of Omega nonvanishing" in a for a in outcome.assumptions)


def test_a_degenerate_suspended_form_fails_nondegeneracy(std_contact):
    sm = build(std_contact).suspension()
    s = sm.total.dim - 1
    flat = Form(sm.total, 2, {k: v for k, v in sm.omega_big.comps.items() if s not in k})
    degenerate = SuspendedModel(
        model=sm.model, total=sm.total, base=sm.base, composable=sm.composable,
        alpha=sm.alpha, beta=sm.beta, iota=sm.iota, eps=sm.eps, pr1=sm.pr1, pr2=sm.pr2,
        m=sm.m, omega_big=flat, omega0=sm.omega0, z_total=sm.z_total, z_base=sm.z_base,
        s_name=sm.s_name)
    report = groupoid.check_suspension(degenerate)
    (item,) = [i for i in report.items if i.name == "nondegeneracy of Omega at samples"]
    assert not item.passed
    assert item.verdict.assumptions == ["Pfaffian of Omega is identically zero"]


def test_strip_suspension_round_trip(std_contact):
    g = build(std_contact)
    sm, _ = suspend(g)
    g2 = strip_suspension(sm)
    assert tensor_zero_verdict(g2.theta - g.theta).kind == "SymbolicZero"
    assert tensor_zero_verdict(g2.omega - g.omega).kind == "SymbolicZero"
    report = check_multiplicativity(g2)
    assert report.passed, report.summary()


def test_base_coincidence(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        report = base_coincidence_check(build(c))
        assert report.passed, report.summary()


def test_quadratic_cocycle_fails_multiplicativity(std_contact):
    g = build(std_contact)
    t = Expr.coord(g.total, "t")
    bad = GroupoidModel(
        base=g.base, total=g.total, composable=g.composable,
        alpha=g.alpha, beta=g.beta, iota=g.iota, eps=g.eps,
        pr1=g.pr1, pr2=g.pr2, m=g.m,
        r=t * t, theta=g.theta, omega0=g.omega0, omega=g.omega,
    )
    report = check_multiplicativity(bad)
    assert not report.passed
    failing = [item for item in report.items if not item.passed]
    assert failing and failing[0].verdict.witness is not None
    assert any("skipped" in n for n in report.notes)


def test_reserved_base_coordinates_rejected():
    from twistcheck.expr import Chart

    ch = Chart("bad", ("x", "t", "z"))
    # dz - t dx is a contact form, so only the coordinate name is at fault
    theta = Form.d_coord(ch, "z") - Form.d_coord(ch, "x").scale(Expr.coord(ch, "t"))
    contact_base = TwistedContact(ch, theta, Form.zero(ch, 2))
    assert check_contact(contact_base).passed
    with pytest.raises(ExprError, match="reserved"):
        pair_groupoid(contact_base)


def record_calls(monkeypatch, module, name) -> list:
    """The argument tuples of every call to ``module.name``, made through any
    twistcheck module that imported the function."""
    original = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "twistcheck" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return calls


def test_scenario_builds_each_derived_object_once(monkeypatch):
    calls = {name: record_calls(monkeypatch, module, name) for module, name in (
        (groupoid, "check_suspension"),
        (groupoid, "check_axioms"),
        (contact, "check_contact"),
        (jacobi, "check_twisted_jacobi"),
        (tensor, "pushforward_projection"),
    )}
    path = resources.files("twistcheck") / "scenarios" / "std-r3.json"
    outcomes = scenario.run(scenario.load(str(path)))
    assert all(o.passed for o in outcomes)
    # the suspension and groupoid_axioms checks; nothing else re-checks
    assert len(calls["check_suspension"]) == 1
    assert len(calls["check_axioms"]) == 1
    # building the pair groupoid no longer checks the 7-dim total chart
    assert [c for c in calls["check_contact"] if c[0].chart.dim == 7] == []
    # twisted_jacobi, jacobi_from_contact, poissonization(std-contact),
    # induced_base and the base_coincidence gate
    assert len([c for c in calls["check_twisted_jacobi"] if c[0].chart.name == "R3"]) == 5
    # the induced base (2), base_coincidence (1), the morphism's anchors (4)
    assert len(calls["pushforward_projection"]) == 7
