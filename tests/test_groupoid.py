"""Pair groupoid models: axioms, multiplicativity, properties, suspension."""

import json
import sys
from importlib import resources

import pytest

from twistcheck import contact, groupoid, jacobi, scenario, tensor

from twistcheck.expr import Expr, ExprError
from twistcheck.report import tensor_zero_verdict
from twistcheck.tensor import Form, MultiVec, SmoothMap, pullback
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
    for report in (check_axioms(model), check_contact(model.contact)):
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
    j = g.jacobi
    want = MultiVec.d_dx(g.total, "z2")
    assert tensor_zero_verdict(j.e - want).kind == "SymbolicZero"


def test_bivector_dt_column_is_forced(std_contact):
    # the bivector cannot be block-diagonal: its dt column carries
    # e^r E_right - E_left (here -e^t dz1 - dz2 wedged with dt)
    g = build(std_contact)
    j = g.jacobi
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
    sm = build(std_contact).suspension
    s = sm.total.dim - 1
    flat = Form(sm.total, 2, {k: v for k, v in sm.omega_big.comps.items() if s not in k})
    degenerate = SuspendedModel(
        model=sm.model, total=sm.total, base=sm.base, composable=sm.composable,
        alpha=sm.alpha, beta=sm.beta, iota=sm.iota, eps=sm.eps, pr1=sm.pr1, pr2=sm.pr2,
        m=sm.m, omega_big=flat, omega0=sm.omega0, z_total=sm.z_total, z_base=sm.z_base)
    report = groupoid.check_suspension(degenerate)
    (item,) = [i for i in report.items if i.name == "nondegeneracy of Omega"]
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


def sheared(g: GroupoidModel) -> GroupoidModel:
    """The pair groupoid conjugated by the total-chart shear psi: x2 -> x2 + x1,
    so that its source map x2 - x1, y2, z2 is no coordinate projection."""
    total = g.total
    coords = [Expr.coord(total, c) for c in total.coords]
    x1, x2 = total.index("x1"), total.index("x2")

    def shear(sign):
        comps = list(coords)
        comps[x2] = coords[x2] + sign * coords[x1]
        return SmoothMap(total, total, tuple(comps))

    psi, psi_inv = shear(1), shear(-1)
    eps = psi.compose(g.eps)
    iota = psi.compose(g.iota.compose(psi_inv))
    return GroupoidModel(
        base=g.base, total=total, composable=g.composable,
        alpha=SmoothMap(total, g.base, g.alpha.compose(psi_inv).components,
                        section=eps.components),
        beta=g.beta.compose(psi_inv),
        iota=SmoothMap(total, total, iota.components, section=iota.components),
        eps=eps, pr1=psi.compose(g.pr1), pr2=psi.compose(g.pr2), m=psi.compose(g.m),
        r=psi_inv.pull_scalar(g.r), theta=pullback(psi_inv, g.theta), omega0=g.omega0,
        unit_left=g.unit_left.compose(psi_inv), unit_right=g.unit_right.compose(psi_inv),
        inv_left=g.inv_left.compose(psi_inv), inv_right=g.inv_right.compose(psi_inv),
        assoc_left=g.assoc_left, assoc_right=g.assoc_right,
    )


def test_a_sheared_pair_groupoid_passes_every_groupoid_check(std_contact, twisted_contact):
    # the base structure is pushed down a source map that mixes coordinates
    checks = (
        check_axioms, check_multiplicativity, check_properties,
        lambda g: induced_base_structure(g)[1], lambda g: suspend(g)[1],
        base_coincidence_check, check_algebroid_morphism,
    )
    for c in (std_contact, twisted_contact):
        g = sheared(build(c))
        assert g.alpha.moves is None
        reports = [check(g) for check in checks]
        for report in reports:
            assert report.passed, report.summary()
        assert [len(r.items) for r in reports] == [12, 3, 20, 2, 7, 10, 11]
        # conjugation does not change what the groupoid integrates
        j0, ref = g.induced_base, contact.contact_jacobi(c)
        assert (j0.lam - ref.lam).is_symbolic_zero and (j0.e - ref.e).is_symbolic_zero


def test_a_map_builds_its_retraction_once(monkeypatch, std_contact):
    # sigma o phi of the sheared source map is not the identity, so each
    # pushforward tests basicness against it; it is built by the first
    g = sheared(build(std_contact))
    j = g.jacobi
    pulled = []
    pull_scalar = SmoothMap.pull_scalar
    monkeypatch.setattr(SmoothMap, "pull_scalar",
                        lambda phi, f: pulled.append(phi) or pull_scalar(phi, f))
    lam0, e0 = tensor.pushforward(g.alpha, j.lam), tensor.pushforward(g.alpha, j.e)
    assert g.alpha.retraction is not None
    assert [phi for phi in pulled if phi is g.alpha] == [g.alpha] * g.total.dim
    ref = contact.contact_jacobi(std_contact)
    assert (lam0 - ref.lam).is_symbolic_zero and (e0 - ref.e).is_symbolic_zero


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
        (tensor, "pushforward"),
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
    # and the inversion in the groupoid properties (3)
    assert len(calls["pushforward"]) == 10


# a twisted Darboux base on R5 through every base and groupoid check
R5_PAIR = {
    "charts": {"R5": ["x1", "y1", "x2", "y2", "z"]},
    "structures": {
        "base": {"type": "contact", "chart": "R5",
                 "theta": {"dz": "1", "dx1": "-y1", "dx2": "-y2"},
                 "omega": {"dx1^dy1": "(1/3)*x2", "dx2^dy2": "(-1/4)"}},
        "pair": {"type": "pair_groupoid", "base": "base"},
    },
    "checks": [{"check": k, "target": "base"}
               for k in ("contact", "jacobi_from_contact", "poissonization")]
    + [{"check": k, "target": "pair"}
       for k in ("groupoid_axioms", "multiplicativity", "groupoid_properties", "induced_base",
                 "suspension", "base_coincidence", "algebroid_morphism")],
}


@pytest.mark.parametrize("name, solves, verifies", [
    # the contact base and the pair's total contact structure are solved;
    # the base's Jacobi structure, the document's Jacobi structure (none in
    # R5) and the induced base structure are verified
    ("std-r3", 2, 3), ("twisted-r3", 2, 3), ("pair-r5", 2, 2),
])
def test_each_structure_is_solved_once_and_verified_once(monkeypatch, name, solves, verifies):
    solved = record_calls(monkeypatch, contact, "_solve")
    verified = record_calls(monkeypatch, jacobi, "_identity_residuals")
    pfaffians = record_calls(monkeypatch, tensor, "pfaffian")
    if name == "pair-r5":
        sc = scenario.loads(json.dumps(R5_PAIR))
    else:
        sc = scenario.load(str(resources.files("twistcheck") / "scenarios" / f"{name}.json"))
    assert all(o.passed for o in scenario.run(sc))
    # by content: the pair groupoid solves its base as the document's own
    # structure, not as a copy of it
    keys = [(c.chart, str(c.theta), str(c.omega)) for (c,) in solved]
    assert len(keys) == len(set(keys)) == solves
    # the base's contact volume, a bordered Pfaffian, serves both the
    # pair-groupoid build and the contact check
    volumes = [(str(sym), str(theta)) for sym, theta in (c for c in pfaffians if len(c) == 2)]
    assert len(volumes) == len(set(volumes)) == 1
    # by object: every check of one Jacobi structure reads one computation
    # of its identity residuals
    assert len({id(j) for (j,) in verified}) == len(verified) == verifies


def test_properties_build_one_hamiltonian_field_per_base_coordinate(monkeypatch, std_contact):
    g = pair_groupoid(std_contact)
    fields = record_calls(monkeypatch, jacobi, "hamiltonian")
    report = check_properties(g)
    assert report.passed, report.summary()
    n = g.base.dim
    assert len([item for item in report.items if item.name.startswith("(viii)")]) == n * n
    # X_{alpha* x} for each base coordinate x, then X_{-e^{-r}} of (vi)
    assert len(fields) == n + 1


def test_the_algebroid_check_lifts_each_leibniz_section_once(monkeypatch, twisted_jacobi):
    chart = twisted_jacobi.chart
    u = Expr.coord(chart, chart.coords[0])  # the check's Leibniz factor
    sections = [(Form.d_coord(chart, c), Expr.zero(chart)) for c in chart.coords]
    sections.append((Form.zero(chart, 1), Expr.one(chart)))
    lifted = record_calls(monkeypatch, jacobi, "section_lift")
    assert jacobi.check_algebroid(twisted_jacobi, sections).passed

    def same(a, b):
        return (a[0] - b[0]).is_symbolic_zero and (a[1] - b[1]).is_symbolic_zero

    # u s_k enters the Leibniz item of every i < k
    for k, (zeta, f) in enumerate(sections[1:], 1):
        assert sum(same(a, (zeta.scale(u), u * f)) for _, a in lifted) == 1, k


def test_maps_that_move_coordinates_pull_back_by_relabelling(monkeypatch):
    path = resources.files("twistcheck") / "scenarios" / "std-r3.json"
    g = scenario._resolve(scenario.load(str(path)), "pair", "structures")
    sm = g.suspension
    relabelling = {name: getattr(g, name) for name in (
        "alpha", "beta", "iota", "eps", "pr1", "pr2",
        "unit_left", "unit_right", "inv_left", "inv_right")}
    general = {"m": g.m, "assoc_left": g.assoc_left, "assoc_right": g.assoc_right,
               "suspended beta": sm.beta, "suspended iota": sm.iota,
               "suspended pr1": sm.pr1}
    for name, phi in relabelling.items():
        assert phi.moves is not None, name
    for name, phi in general.items():
        assert phi.moves is None, name
    # the suspended maps move every coordinate but the last, s - r
    for phi in (sm.beta, sm.iota, sm.pr1):
        general_at = [i for i, c in enumerate(phi.components) if c.as_move() is None]
        assert general_at == [phi.target.dim - 1]

    def form(chart):
        first, last = (Expr.coord(chart, c) for c in (chart.coords[0], chart.coords[-1]))
        return Form(chart, 2, {(0, chart.dim - 1): first * first + 1,
                               (1, 2): Expr.exp(last) / (first + 2)})

    extended = record_calls(monkeypatch, tensor, "_extend")
    for name, phi in {**relabelling, **general}.items():
        a = form(phi.target)
        calls = len(extended)
        got = pullback(phi, a)
        assert len(extended) == calls + (name in general), name
        want = tensor._extend(a, lambda j: tensor.differential(phi.components[j]), Form,
                              phi.source, phi.pull_scalar)
        assert got.equals(want), name
