"""Acceptance suite: ten criteria, one pass/fail line each.

Each criterion prints "[PASS] criterion N: ..." when its assertions hold;
a failing assertion marks the criterion failed with the offending detail.
"""

import random
import time
from fractions import Fraction

from twistcheck.expr import Chart, Expr, sample_points
from twistcheck.report import tensor_zero_verdict
from twistcheck.tensor import (
    Form,
    MultiVec,
    differential,
    ext_d,
    increasing_indices,
    interior,
    lie,
    schouten,
    wedge,
)
from twistcheck.jacobi import (
    HomTwistedPoisson,
    TwistedJacobi,
    check_algebroid,
    check_homogeneous,
    check_twisted_jacobi,
    jacobi_anomaly,
    poissonize,
    project_along_E,
    project_homogeneous,
)
from twistcheck.contact import (
    TwistedContact,
    check_contact,
    jacobi_from_contact,
)
from twistcheck.groupoid import (
    GroupoidModel,
    base_coincidence_check,
    check_axioms,
    check_multiplicativity,
    check_properties,
    pair_groupoid,
    suspend,
)
from twistcheck.apath import anchor_residual, cocycle_integral, path_from_exprs
from conftest import jacobi_of

R3 = Chart("R3", ("x", "y", "z"))


def contact_structure(twisted: bool) -> TwistedContact:
    y = Expr.coord(R3, "y")
    theta = Form.d_coord(R3, "z") - Form.d_coord(R3, "x").scale(y)
    omega = (
        wedge(Form.d_coord(R3, "x"), Form.d_coord(R3, "y")).scale(Expr.coord(R3, "x"))
        if twisted
        else Form.zero(R3, 2)
    )
    return TwistedContact(R3, theta, omega)


def rand_poly(rng, chart=R3):
    coords = [Expr.coord(chart, c) for c in chart.coords]
    e = Expr.const(chart, Fraction(rng.randrange(-3, 4)))
    for _ in range(rng.randrange(1, 4)):
        term = Expr.const(chart, Fraction(rng.randrange(-3, 4)))
        for _ in range(rng.randrange(0, 3)):
            term = term * rng.choice(coords)
        e = e + term
    return e


def rand_form(rng, degree):
    return Form(R3, degree,
                {idx: rand_poly(rng) for idx in increasing_indices(3, degree)})


def rand_vec(rng, degree):
    return MultiVec(R3, degree,
                    {idx: rand_poly(rng) for idx in increasing_indices(3, degree)})


def sym_zero(t) -> bool:
    return tensor_zero_verdict(t).kind == "SymbolicZero"


def passed(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_calculus_core():
    start = time.perf_counter()
    rng = random.Random(101)
    runs = 0
    for _ in range(17):
        a = rand_form(rng, 1)
        assert sym_zero(ext_d(ext_d(a))), "d(d(form)) must vanish"
        runs += 1
        x = rand_vec(rng, 1)
        b = rand_form(rng, 2)
        cartan = lie(x, b) - interior(x, ext_d(b)) - ext_d(interior(x, b))
        assert sym_zero(cartan), "Cartan formula must hold"
        runs += 1
        y = rand_vec(rng, 1)
        p = rand_vec(rng, 2)
        jac = (
            schouten(x, schouten(y, p))
            - schouten(y, schouten(x, p))
            - schouten(schouten(x, y), p)
        )
        assert sym_zero(jac), "graded Jacobi (1,1,2) must hold"
        runs += 1
    elapsed = time.perf_counter() - start
    assert runs >= 50
    assert elapsed < 30.0, f"calculus core took {elapsed:.1f}s"
    passed(1, f"{runs} randomized identities symbolic-zero in {elapsed:.1f}s")


def test_criterion_2_contact_pipeline():
    start = time.perf_counter()
    for twisted in (False, True):
        c = contact_structure(twisted)
        e, lam = c.solution.e, c.solution.lam
        assert sym_zero(e - MultiVec.d_dx(R3, "z")), "Reeb field must be d/dz"
        want = jacobi_of(R3, twisted).lam
        assert sym_zero(lam - want), "bivector must match the elimination oracle"
        j, report = jacobi_from_contact(c)
        assert report.passed, report.summary()
        assert check_twisted_jacobi(j).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"contact pipeline took {elapsed:.1f}s"
    passed(2, f"Reeb/bivector oracles and Jacobi identities in {elapsed:.1f}s")


def test_criterion_3_bracket_anomaly():
    j = jacobi_of(R3, twisted=True)
    coords = tuple(Expr.coord(R3, c) for c in R3.coords)
    rng = random.Random(103)
    triples = [coords] + [tuple(rand_poly(rng) for _ in range(3)) for _ in range(10)]
    for f, g, h in triples:
        lhs, rhs = jacobi_anomaly(j, f, g, h)
        verdict = tensor_zero_verdict(lhs - rhs)
        assert verdict.passed, f"anomaly residual NonZero for {f}, {g}, {h}"
    passed(3, "cyclic bracket sum equals the twist term on 11 triples")


def test_criterion_4_algebroid_suite():
    x = Expr.coord(R3, "x")
    sections = [(Form.d_coord(R3, c), Expr.zero(R3)) for c in R3.coords]
    sections.append((Form.zero(R3, 1), Expr.one(R3)))
    sections.append((Form.d_coord(R3, "y").scale(x), Expr.zero(R3)))
    for twisted in (False, True):
        j = jacobi_of(R3, twisted)
        report = check_algebroid(j, sections)
        assert report.passed, report.summary()
        assert all(item.verdict.kind == "SymbolicZero" for item in report.items), (
            "algebroid residuals must be symbolic zeros"
        )
    passed(4, "bracket axioms and cocycle checks symbolic on both structures")


def test_criterion_5_poissonization_round_trip():
    for twisted in (False, True):
        j = jacobi_of(R3, twisted)
        h = poissonize(j)
        report = check_homogeneous(h)
        assert report.passed, report.summary()
        assert all(item.verdict.kind == "SymbolicZero" for item in report.items)
        back, proj_report = project_homogeneous(h, value=0)
        assert proj_report.passed, proj_report.summary()
        assert back.chart.coords == j.chart.coords
        for got, want in ((back.lam, j.lam), (back.e, j.e), (back.omega, j.omega)):
            keys = set(got.comps) | set(want.comps)
            for k in keys:
                assert got.component(*k).rechart(want.chart).equals(want.component(*k)), (
                    f"round trip must return the input exactly at {k}"
                )
    passed(5, "homogeneous checks symbolic and slice projection exact")


def test_criterion_6_projection_along_e():
    j = jacobi_of(R3, twisted=True)
    out = project_along_E(j, value=0)
    named = {item.name: item for item in out.report.items}
    assert named["induced twisted Poisson identity"].verdict.kind == "SymbolicZero"
    assert named["homothety defect identity"].verdict.kind == "SymbolicZero"
    passed(6, "projected twisted Poisson identity and homothety defect symbolic")


def test_criterion_7_pair_groupoid():
    start = time.perf_counter()
    for twisted in (False, True):
        c = contact_structure(twisted)
        g = pair_groupoid(c)
        for build_report in (check_axioms(g), check_contact(g.contact)):
            assert build_report.passed, build_report.summary()
        mult = check_multiplicativity(g)
        assert mult.passed, mult.summary()
        props = check_properties(g)
        assert props.passed, props.summary()
        names = [item.name for item in props.items]
        for needle in ("(i) r additivity", "(ii)", "(iii) eps", "(v)", "(viii)",
                       "Reeb block form", "bivector block form"):
            assert any(needle in n for n in names), f"missing property item {needle}"
        # volume nonvanishing at 25 samples
        vol = g.contact.volume.component(*range(g.total.dim))
        for pt in sample_points(g.total):
            assert abs(vol.eval(pt)) > 1e-6, "volume must be bounded away from zero"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"groupoid suite took {elapsed:.1f}s"
    passed(7, f"7-dim groupoid residuals and block formulas in {elapsed:.1f}s")


def test_criterion_8_suspension():
    for twisted in (False, True):
        g = pair_groupoid(contact_structure(twisted))
        sm, report = suspend(g)
        named = {item.name: item for item in report.items}
        assert named["nondegeneracy of Omega"].passed
        assert named[
            "exactness defect d(Omega) = alpha* d(omega0) - beta* d(omega0)"
        ].verdict.kind == "SymbolicZero"
        assert named[
            "symplectic multiplicativity m*Omega = pr1*Omega + pr2*Omega"
        ].verdict.kind == "SymbolicZero"
        assert named["homogeneity L_Z(Omega) = Omega"].verdict.kind == "SymbolicZero"
        coincide = base_coincidence_check(g)
        assert coincide.passed, coincide.summary()
    passed(8, "suspension identities symbolic and base structures coincide")


def test_criterion_9_apaths():
    ch = R3
    j = TwistedJacobi(ch, MultiVec.zero(ch, 2), MultiVec.d_dx(ch, "z"),
                      Form.zero(ch, 2))
    T = Chart("T", ("t",))
    t = Expr.coord(T, "t")
    zero, one = Expr.zero(T), Expr.one(T)
    c1 = path_from_exprs(j, [zero, zero, t], [zero, zero, one], one)
    assert cocycle_integral(c1).equals(-one)
    c2 = path_from_exprs(j, [zero, zero, t], [zero, zero, t], one)
    assert cocycle_integral(c2).equals(Expr.const(T, Fraction(-1, 2)))
    c3 = path_from_exprs(j, [zero, zero, t], [zero, zero, t ** 4], one)
    assert cocycle_integral(c3).equals(Expr.const(T, Fraction(-1, 5)))
    assert anchor_residual(c1).passed
    assert not anchor_residual(path_from_exprs(j, [zero, zero, t], [zero, zero, one],
                                               one + one)).passed
    passed(9, "exact closed-form integrals and anchor residuals")


def test_criterion_10_negative_controls():
    # degenerate contact form
    flat = TwistedContact(R3, Form.d_coord(R3, "z"), Form.zero(R3, 2))
    report = check_contact(flat)
    assert not report.passed
    assert any(item.verdict.kind == "NonZero" for item in report.items)

    # quadratic cocycle breaks r-multiplicativity with a witness
    g = pair_groupoid(contact_structure(False))
    tcoord = Expr.coord(g.total, "t")
    bad = GroupoidModel(
        base=g.base, total=g.total, composable=g.composable,
        alpha=g.alpha, beta=g.beta, iota=g.iota, eps=g.eps,
        pr1=g.pr1, pr2=g.pr2, m=g.m,
        r=tcoord * tcoord, theta=g.theta, omega0=g.omega0, omega=g.omega,
    )
    mult = check_multiplicativity(bad)
    assert not mult.passed
    failing = [item for item in mult.items if not item.passed]
    assert failing and failing[0].verdict.witness is not None

    # omega = ds^dx with Z = d/ds is not homogeneous
    ch = Chart("R2s", ("x", "s"))
    lam = MultiVec(ch, 2, {(0, 1): Expr.exp(-Expr.coord(ch, "s"))})
    omega = wedge(Form.d_coord(ch, "s"), Form.d_coord(ch, "x"))
    h = HomTwistedPoisson(ch, lam, omega, MultiVec.d_dx(ch, "s"))
    hom = check_homogeneous(h)
    assert not hom.passed
    bad_items = [item for item in hom.items if not item.passed]
    assert bad_items and all(item.verdict.kind == "NonZero" for item in bad_items)
    assert any(
        item.verdict.witness is not None or item.verdict.assumptions
        for item in bad_items
    )
    passed(10, "all three negative controls fail with reported witnesses")
