"""Pair groupoid models: axioms, multiplicativity, properties, suspension."""

import json
import random
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from twistcheck import contact, groupoid, jacobi, linsolve, scenario, tensor

from twistcheck.expr import Chart, Expr, ExprError, denominator_conditions
from twistcheck.report import render, tensor_zero_verdict
from twistcheck.tensor import Form, MultiVec, SmoothMap, pullback, wedge
from twistcheck.contact import TwistedContact, check_contact
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
        assert report.passed, render(report.record(report.title))
    return model


def test_construction_and_axioms(std_contact):
    g = build(std_contact)
    assert g.total.dim == 7
    assert g.composable.dim == 11
    report = check_axioms(g)
    assert report.passed, render(report.record(report.title))


def test_structural_identities(std_contact):
    g = build(std_contact)
    # eps-pullback of theta vanishes and r inverts under iota
    assert tensor_zero_verdict(pullback(g.eps, g.theta)).kind == "SymbolicZero"
    assert (g.iota.pull_scalar(g.r) + g.r).is_symbolic_zero


def test_multiplicativity_symbolic(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        report = check_multiplicativity(build(c))
        assert report.passed, render(report.record(report.title))
        assert all(item.verdict.kind == "SymbolicZero" for item in report.items)


def test_properties(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        report = check_properties(build(c))
        assert report.passed, render(report.record(report.title))


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
        assert report.passed, render(report.record(report.title))
        lam_ref, e_ref = c.solution.lam, c.solution.e
        assert tensor_zero_verdict(j0.lam - lam_ref).kind == "SymbolicZero"
        assert tensor_zero_verdict(j0.e - e_ref).kind == "SymbolicZero"
        assert tensor_zero_verdict(j0.omega - c.omega).kind == "SymbolicZero"


def test_algebroid_morphism(std_contact):
    report = check_algebroid_morphism(build(std_contact))
    assert report.passed, render(report.record(report.title))


def test_suspension(std_contact):
    g = build(std_contact)
    sm, report = suspend(g)
    assert report.passed, render(report.record(report.title))
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
    assert outcome.passed, render(outcome.record)
    assert any(a.startswith("Pfaffian of Omega nonzero where ") for a in outcome.assumptions)


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
    assert report.passed, render(report.record(report.title))


def test_base_coincidence(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        report = base_coincidence_check(build(c))
        assert report.passed, render(report.record(report.title))


def seeded_darboux(seed: int, k: int) -> TwistedContact:
    """theta = dz - sum y_i dx_i on R^(2k+1) with a seeded twist sum_i c_i m_i
    dx_i^dy_i, each m_i a coordinate, so that pivots state domains."""
    rng = random.Random(seed)
    names = [f"{a}{i}" for a in "xy" for i in range(1, k + 1)] + ["z"]
    chart = Chart(f"R{2 * k + 1}", tuple(names))
    theta = Form.d_coord(chart, "z")
    omega = Form.zero(chart, 2)
    for i in range(1, k + 1):
        dx, dy = Form.d_coord(chart, f"x{i}"), Form.d_coord(chart, f"y{i}")
        theta = theta - dx.scale(Expr.coord(chart, f"y{i}"))
        c = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 5), rng.randrange(1, 6))
        omega = omega + wedge(dx, dy).scale(Expr.coord(chart, rng.choice(names)) * c)
    return TwistedContact(chart, theta, omega)


def polar_bases() -> dict[str, TwistedContact]:
    """theta = dz - y1 dx1 - y2 dx2 on R5 with twists whose E and Lambda have
    poles: on x1 = 0 and z = 0, where the volume is -2 x1^3 z, and on the
    zeros of the volume -4 x1 x2 y2 + 4 y1 - 2.  Eliminations on these bases
    and their pair charts take pivots that are no denominator factor: y2 on
    the first base, y21 on its pair chart, and on the second pair chart the
    product of the two factors' polynomials."""
    chart = Chart("R5", ("x1", "x2", "y1", "y2", "z"))
    x1, x2, y1, y2, z = (Expr.coord(chart, c) for c in chart.coords)
    d = {c: Form.d_coord(chart, c) for c in chart.coords}
    theta = d["z"] - d["x1"].scale(y1) - d["x2"].scale(y2)
    one = Expr.one(chart)
    monomial = (wedge(d["x1"], d["y1"]).scale(x1 * x1 * z - one)
                + wedge(d["x2"], d["y2"]).scale(x1 - one) + wedge(d["x1"], d["x2"]).scale(y2))
    product = wedge(d["x1"], d["y2"]).scale(x1 * x2) + wedge(d["y1"], d["z"]).scale(one * 2)
    return {"r5-monomial-poles": TwistedContact(chart, theta, monomial),
            "r5-polynomial-poles": TwistedContact(chart, theta, product)}


# the pair domains of the polar bases: each factor's conditions, once
POLAR_DOMAINS = {
    "r5-monomial-poles": ["x11 != 0", "x12 != 0", "z1 != 0", "z2 != 0"],
    "r5-polynomial-poles": ["x11*x21*y21 - y11 + 1/2 != 0", "x12*x22*y22 - y12 + 1/2 != 0"],
}


def oracle_bases():
    conformal = scenario.load(str(Path(__file__).parent / "data" / "conformal-r3.json"))
    r3 = Chart("R3", ("x", "y", "z"))
    y = Expr.coord(r3, "y")
    theta = Form.d_coord(r3, "z") - Form.d_coord(r3, "x").scale(y)
    twist = wedge(Form.d_coord(r3, "x"), Form.d_coord(r3, "y"))
    return {
        "std": TwistedContact(r3, theta, Form.zero(r3, 2)),
        "twisted": TwistedContact(r3, theta, twist.scale(Expr.coord(r3, "x"))),
        "conformal": scenario._resolve(conformal, "conformal", "structures"),
        "r5-seed-1": seeded_darboux(1, 2),
        "r5-seed-2": seeded_darboux(2, 2),
        "r7-seed-7": seeded_darboux(7, 3),
        **polar_bases(),
    }


def piped_back_pair(c0: TwistedContact) -> GroupoidModel:
    """The pair groupoid of c0 read back from `derive ... pair_groupoid` on a
    document that declares c0."""
    charts: dict = {}
    base = scenario.render_structure(c0, charts)
    doc = {"charts": {n: list(ch.coords) for n, ch in charts.items()},
           "structures": {"base": base}}
    derived = scenario.derive(scenario.loads(json.dumps(doc)), "base", "pair_groupoid")
    return scenario._resolve(scenario.loads(json.dumps(derived)), "base.pair_groupoid",
                             "structures")


@pytest.mark.parametrize("name", list(oracle_bases()))
def test_the_proposed_pair_solution_equals_an_elimination(monkeypatch, name):
    c0 = oracle_bases()[name]
    g = pair_groupoid(c0)
    eliminated = record_calls(monkeypatch, linsolve, "solve")
    proposed = g.contact.solution
    # with contact0 only the base is eliminated
    assert [len(a) for a, _, _ in eliminated] == [c0.chart.dim + 1]
    fresh = TwistedContact(g.total, g.theta, g.omega)
    assert fresh.proposal is None
    oracle = fresh.solution
    assert [len(a) for a, _, _ in eliminated] == [c0.chart.dim + 1, g.total.dim + 1]
    for got, want in ((proposed.e, oracle.e), (proposed.lam, oracle.lam)):
        assert got.comps.keys() == want.comps.keys()
        assert all(a.equals(b) for a, b in zip(got.comps.values(), want.comps.values()))
    # the domain is read off E and Lambda, whatever produced them: the base's
    # restated on each factor
    piped = piped_back_pair(c0)
    assert piped.contact0 is None
    assert piped.contact.solution.domain == oracle.domain == proposed.domain
    base = [*c0.solution.e.comps.values(), *c0.solution.lam.comps.values()]
    assert proposed.domain == denominator_conditions(
        v.subst(g.total, groupoid._factor_images(g, k)) for k in "12" for v in base)
    assert proposed.domain == POLAR_DOMAINS.get(name, proposed.domain)


@pytest.mark.parametrize("mutation", [
    "sign of the dt column", "sign of e^t Lambda0(1)", "sign of the exponent of e^t"])
def test_a_proposal_with_one_flipped_sign_fails_certification(mutation):
    c0 = seeded_darboux(1, 2)
    g = pair_groupoid(c0)
    e, images = groupoid._pair_proposal(g)
    n0, t = c0.chart.dim, g.total.dim - 1
    flip = Expr.exp(-Expr.coord(g.total, "t") * 2)  # e^t -> e^-t

    def mutated(i, j, v):
        """The component (i, j), i < j, of Lambda after the mutation."""
        if mutation == "sign of the dt column" and j == t:
            return -v
        if mutation == "sign of e^t Lambda0(1)" and j < n0:
            return -v
        if mutation == "sign of the exponent of e^t" and i < n0 and (j < n0 or j == t):
            return v * flip
        return v

    comps = {(i, j): v for i, x in enumerate(images) for (j,), v in x.comps.items() if i < j}
    flipped = {k: mutated(*k, v) for k, v in comps.items()}
    assert any(not v.equals(comps[k]) for k, v in flipped.items())
    images = list(MultiVec(g.total, 2, flipped).sharp_images)
    proposal = TwistedContact(g.total, g.theta, g.omega, lambda: (e, images))
    with pytest.raises(ExprError, match="after assembly"):
        proposal.solution


def test_a_piped_back_pair_groupoid_is_eliminated(monkeypatch):
    path = resources.files("twistcheck") / "scenarios" / "twisted-r3.json"
    doc = scenario.derive(scenario.load(str(path)), "twisted-contact", "pair_groupoid")
    g = scenario._resolve(scenario.loads(json.dumps(doc)), "twisted-contact.pair_groupoid",
                          "structures")
    assert g.contact0 is None and g.contact.proposal is None
    eliminated = record_calls(monkeypatch, linsolve, "solve")
    proposed = pair_groupoid(oracle_bases()["twisted"]).contact.solution
    assert [len(a) for a, _, _ in eliminated] == [4]
    solution = g.contact.solution
    assert [len(a) for a, _, _ in eliminated] == [4, g.total.dim + 1]
    assert solution.domain == proposed.domain == ["x1 + 1 != 0", "x2 + 1 != 0"]


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
            assert report.passed, render(report.record(report.title))
        assert [len(r.items) for r in reports] == [12, 3, 20, 2, 7, 10, 11]
        # conjugation does not change what the groupoid integrates
        j0, ref = g.induced_base, c.jacobi
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
    ref = std_contact.jacobi
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
    assert failing[-1].verdict.assumptions == ["r = t^2 is not affine"]


def test_additive_nonaffine_cocycle_fails_multiplicativity(std_contact):
    # r = t + x1^2 - x2^2 is additive, so only the form checks can fail, and
    # they need e^{-r}, which is not in the ring; an explicit omega keeps the
    # model from building it
    g = build(std_contact)
    c = {name: Expr.coord(g.total, name) for name in ("t", "x1", "x2")}
    bad = GroupoidModel(
        base=g.base, total=g.total, composable=g.composable,
        alpha=g.alpha, beta=g.beta, iota=g.iota, eps=g.eps,
        pr1=g.pr1, pr2=g.pr2, m=g.m,
        r=c["t"] + c["x1"] ** 2 - c["x2"] ** 2, theta=g.theta, omega0=g.omega0,
        omega=g.omega,
    )
    report = check_multiplicativity(bad)
    assert not report.passed
    assert [(item.name, item.passed) for item in report.items] == [
        ("r additivity r(gh) = r(g) + r(h)", True),
        ("e^{-r} representable for the form checks", False)]
    assert report.items[1].verdict.assumptions == [f"r = {bad.r} is not affine"]


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


@pytest.mark.parametrize("name, verifies", [
    # the contact base's Jacobi structure, which is also the induced base
    # structure, and the document's Jacobi structure (none in R5)
    ("std-r3", 2), ("twisted-r3", 2), ("pair-r5", 1),
])
def test_each_structure_is_solved_once_and_verified_once(monkeypatch, name, verifies):
    solved = record_calls(monkeypatch, contact, "_solve")
    eliminated = record_calls(monkeypatch, linsolve, "solve")
    verified = record_calls(monkeypatch, jacobi, "_identity_residuals")
    poissonized = record_calls(monkeypatch, jacobi, "poissonize")
    pfaffians = record_calls(monkeypatch, tensor, "pfaffian")
    if name == "pair-r5":
        sc = scenario.loads(json.dumps(R5_PAIR))
    else:
        sc = scenario.load(str(resources.files("twistcheck") / "scenarios" / f"{name}.json"))
    assert all(o.passed for o in scenario.run(sc))
    # the contact base is the only structure solved, as the document's own
    # structure; the pair chart's E and Lambda are proposed from it
    ((c,),) = solved
    assert c is sc.structures["pair"].contact0
    assert [len(a) for a, _, _ in eliminated] == [c.chart.dim + 1]
    # the base's contact volume, a bordered Pfaffian, serves both the
    # pair-groupoid build and the contact check
    volumes = [(str(sym), str(theta)) for sym, theta in (c for c in pfaffians if len(c) == 2)]
    assert len(volumes) == len(set(volumes)) == 1
    # by object: every check of one Jacobi structure reads one computation
    # of its identity residuals, and every check of one structure's
    # poissonization reads one poissonization
    assert len({id(j) for (j,) in verified}) == len(verified) == verifies
    assert len({id(j) for (j,) in poissonized}) == len(poissonized)


def test_properties_build_one_hamiltonian_field_per_base_coordinate(monkeypatch, std_contact):
    g = pair_groupoid(std_contact)
    fields = record_calls(monkeypatch, jacobi, "hamiltonian")
    report = check_properties(g)
    assert report.passed, render(report.record(report.title))
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
