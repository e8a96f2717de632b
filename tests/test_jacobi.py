"""Twisted Jacobi structures: identities, brackets, algebroid, projections."""

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from twistcheck import jacobi as jacobi_mod, scenario, tensor as tensor_mod
from twistcheck.contact import TwistedContact
from twistcheck.expr import Chart, Expr, ExprError
from twistcheck.report import tensor_zero_verdict
from twistcheck.tensor import (
    Form,
    MultiVec,
    differential,
    ext_d,
    interior,
    lie,
    sharp1,
    wedge,
)
from twistcheck.jacobi import (
    TwistedJacobi,
    TwistedPoisson,
    algebroid_anchor,
    algebroid_bracket,
    bracket,
    check_algebroid,
    check_homogeneous,
    check_twisted_jacobi,
    conformal,
    cotangent_twisted_symplectic,
    hamiltonian,
    jacobi_anomaly,
    poissonize,
    project_along_E,
    project_homogeneous,
)
from conftest import jacobi_of
from test_groupoid import record_calls

DATA = Path(__file__).parent / "data"


def test_corpus_structures_verify(std_jacobi, twisted_jacobi):
    for j in (std_jacobi, twisted_jacobi):
        report = check_twisted_jacobi(j)
        assert report.passed
        assert all(item.verdict.kind == "SymbolicZero" for item in report.items)


def test_broken_structure_fails(r3):
    x = Expr.coord(r3, "x")
    lam = MultiVec(r3, 2, {(0, 1): Expr.one(r3)})
    e = MultiVec.d_dx(r3, "z")
    omega = wedge(Form.d_coord(r3, "x"), Form.d_coord(r3, "y")).scale(x)
    report = check_twisted_jacobi(TwistedJacobi(r3, lam, e, omega))
    assert not report.passed


@pytest.mark.parametrize("eps, lead", [("1", "-y"), ("1/1000", "-1/1000*y"),
                                       ("1/1000000000000", "-1/1000000000000*y")])
def test_tilted_reeb_field_fails_exactly(eps, lead):
    # E = d/dz + eps d/dx keeps [E, Lambda] = 0 but leaves eps d/dx ^ Lambda
    # = -eps y d/dx^d/dy^d/dz in the trivector identity; at eps = 1e-12 every
    # sample value is below 1e-9, so sampling alone would pass it
    sc = scenario.loads(json.dumps({
        "charts": {"R3": ["x", "y", "z"]},
        "structures": {"j": {"type": "jacobi", "chart": "R3",
                             "lam": {"d/dx^d/dy": "1", "d/dy^d/dz": "-y"},
                             "e": {"d/dz": "1", "d/dx": eps}, "omega": {}}},
        "checks": [{"check": "twisted_jacobi", "target": "j"}],
    }))
    (outcome,) = scenario.run(sc)
    assert not outcome.passed and outcome.verdict == "NonZero"
    assert outcome.assumptions == [f"leading term: {lead}"]


def test_bracket_and_hamiltonian(std_jacobi):
    r3 = std_jacobi.chart
    x, y, z = (Expr.coord(r3, c) for c in r3.coords)
    # {f,g} = Lambda(df,dg) + f E(g) - g E(f)
    assert bracket(std_jacobi, x, y).equals(Expr.one(r3))
    assert bracket(std_jacobi, x, z).equals(x)  # fE(g) term
    xf = hamiltonian(std_jacobi, Expr.one(r3))
    assert tensor_zero_verdict(xf - std_jacobi.e).kind == "SymbolicZero"


def test_anomaly_identity(std_jacobi, twisted_jacobi):
    r3 = twisted_jacobi.chart
    rng = random.Random(21)
    coords = [Expr.coord(r3, c) for c in r3.coords]

    def rand_poly():
        # a constant plus 1-3 nonconstant terms, each a nonzero coefficient
        # times 1-2 coordinates, so no slot of a triple is constant
        e = Expr.const(r3, Fraction(rng.randrange(-2, 3)))
        for _ in range(rng.randrange(1, 4)):
            term = Expr.const(r3, Fraction(rng.choice((-2, -1, 1, 2))))
            for _ in range(rng.randrange(1, 3)):
                term = term * rng.choice(coords)
            e = e + term
        return e

    triples = [tuple(coords)] + [tuple(rand_poly() for _ in range(3)) for _ in range(3)]
    for f, g, h in triples:
        assert not any(u.constant_value() is not None for u in (f, g, h))
        for j in (std_jacobi, twisted_jacobi):
            lhs, rhs = jacobi_anomaly(j, f, g, h)
            assert tensor_zero_verdict(lhs - rhs).passed, (f, g, h)
            # every triple has a nonzero twist term on the twisted structure,
            # so a twist term that always returned 0 fails on each of them
            assert rhs.is_symbolic_zero == (j is std_jacobi), (f, g, h)
    # the twist term of (x, y, z) is x/(x + 1)^2, and so is that of each
    # cyclic order, which puts z, the one coordinate with E(u) != 0, into
    # each h-slot of the twist term
    x, one = coords[0], Expr.one(r3)
    for shift in range(3):
        _, rhs = jacobi_anomaly(twisted_jacobi, *coords[shift:], *coords[:shift])
        assert rhs.equals(x / ((x + one) * (x + one))), shift


def test_algebroid_axioms(std_jacobi, twisted_jacobi):
    for j in (std_jacobi, twisted_jacobi):
        chart = j.chart
        x = Expr.coord(chart, "x")
        sections = [(Form.d_coord(chart, c), Expr.zero(chart)) for c in chart.coords]
        sections.append((Form.zero(chart, 1), Expr.one(chart)))
        sections.append((Form.d_coord(chart, "y").scale(x), Expr.zero(chart)))
        report = check_algebroid(j, sections)
        assert report.passed, report.summary()


def test_algebroid_brackets_given_sections_once(std_jacobi, monkeypatch):
    from twistcheck import jacobi as jacobi_mod

    chart = std_jacobi.chart
    sections = [(Form.d_coord(chart, c), Expr.zero(chart)) for c in chart.coords]
    sections.append((Form.zero(chart, 1), Expr.one(chart)))
    calls = []
    bracket_of = jacobi_mod.algebroid_bracket
    monkeypatch.setattr(jacobi_mod, "algebroid_bracket",
                        lambda *args: calls.append(args) or bracket_of(*args))
    report = check_algebroid(std_jacobi, sections)
    assert report.passed, report.summary()
    # 4 sections: the 12 ordered pairs once each, one Leibniz bracket per
    # unordered pair (6) and one outer bracket per Jacobi term (3 * 4)
    assert len(calls) == 12 + 6 + 12


def test_algebroid_sharps_each_basis_covector_once(std_jacobi, monkeypatch):
    from twistcheck import tensor as tensor_mod

    chart = std_jacobi.chart
    sections = [(Form.d_coord(chart, c), Expr.zero(chart)) for c in chart.coords]
    sections.append((Form.zero(chart, 1), Expr.one(chart)))
    calls = []
    images_of = tensor_mod.MultiVec.sharp_images.func
    counting = functools.cached_property(lambda lam: calls.append(id(lam)) or images_of(lam))
    counting.__set_name__(tensor_mod.MultiVec, "sharp_images")
    monkeypatch.setattr(tensor_mod.MultiVec, "sharp_images", counting)
    report = check_algebroid(std_jacobi, sections)
    assert report.passed, report.summary()
    # the sharp images sharp(dx_j) are built once per bivector object, not
    # once per section lift
    assert calls == [id(std_jacobi.lam)]


def test_algebroid_section_verdict_keeps_both_parts(std_jacobi, monkeypatch):
    from twistcheck import jacobi as jacobi_mod

    chart = std_jacobi.chart
    y = Expr.coord(chart, "y")
    # every bracket is this section, so [a,b] + [b,a] is twice it: zero in
    # the form part, and in the function part exactly nonzero but far below
    # 1e-9 at every sample point
    func = Expr.const(chart, Fraction(1, 10**11)) / (y + 3)
    monkeypatch.setattr(jacobi_mod, "algebroid_bracket",
                        lambda *args: (Form.zero(chart, 1), func))
    sections = [(Form.d_coord(chart, c), Expr.zero(chart)) for c in ("x", "y")]
    verdict = next(item.verdict for item in check_algebroid(std_jacobi, sections).items
                   if item.name == "antisymmetry [0,1]")
    assert verdict.kind == "NonZero"
    # 2e-11/(y + 3) in canonical form, whose denominator has constant term 1
    assert verdict.assumptions == ["leading term: (1/150000000000)/(1/3*y + 1)"]


def test_exact_pair_relation(twisted_jacobi):
    from twistcheck.jacobi import _base_bracket, section_lift

    chart = twisted_jacobi.chart
    x, y = Expr.coord(chart, "x"), Expr.coord(chart, "y")
    f = x * y + Expr.one(chart)
    g = y ** 2 - x
    pair_f = (differential(f), f)
    pair_g = (differential(g), g)
    fg = bracket(twisted_jacobi, f, g)
    # the untwisted part maps exact pairs to exact pairs
    base = _base_bracket(pair_f, pair_g, section_lift(twisted_jacobi, pair_f),
                         section_lift(twisted_jacobi, pair_g))
    assert tensor_zero_verdict(base[0] - differential(fg)).passed
    assert (base[1] - fg).is_symbolic_zero
    # the twisted bracket adds the omega correction in the scalar slot
    got = algebroid_bracket(twisted_jacobi, pair_f, pair_g)
    corr = twisted_jacobi.omega.apply(
        [hamiltonian(twisted_jacobi, f), hamiltonian(twisted_jacobi, g)]
    )
    assert (got[1] - fg - corr).is_symbolic_zero


def lie_form_bracket(j, a, b):
    """The twisted section bracket in Lie-derivative form, with the twist
    correction read off (Lambda, E)^#(zeta, f) = (Lambda^# zeta + f E,
    -zeta(E)) of each section, computed here with sharp1:
    L(Lambda^# zeta) eta - L(Lambda^# eta) zeta - d Lambda(zeta, eta)
    + f L_E eta - g L_E zeta - i(E)(zeta ^ eta), plus the twist terms."""
    (zeta, f), (eta, g) = a, b
    lam, e = j.lam, j.e
    xz, xe = sharp1(lam, zeta), sharp1(lam, eta)
    lam_ze = lam.apply([zeta, eta])
    first = (
        lie(xz, eta) - lie(xe, zeta) - differential(lam_ze)
        + lie(e, eta).scale(f) - lie(e, zeta).scale(g)
        - interior(e, wedge(zeta, eta))
    )
    second = -lam_ze + xz.of(g) - xe.of(f) + f * e.of(g) - g * e.of(f)
    x1, h1 = xz + e.scale(f), -zeta.apply([e])
    x2, h2 = xe + e.scale(g), -eta.apply([e])
    domega = ext_d(j.omega)
    corr = (
        interior(x2, interior(x1, domega))
        + interior(x2, j.omega).scale(h1)
        - interior(x1, j.omega).scale(h2)
    )
    return first + corr, second + j.omega.apply([x1, x2])


def random_scalar(rng, chart):
    """A polynomial, a quotient by x + 2 or y + 2, or a polynomial times an
    exponential, with small rational coefficients."""
    coords = [Expr.coord(chart, c) for c in chart.coords]

    def poly():
        e = Expr.const(chart, Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
        for _ in range(rng.randrange(1, 3)):
            term = Expr.const(chart, Fraction(rng.randrange(-2, 3)))
            for _ in range(rng.randrange(1, 3)):
                term = term * rng.choice(coords)
            e = e + term
        return e

    kind = rng.choice(("poly", "quotient", "exp"))
    if kind == "quotient":
        return poly() / (rng.choice(coords[:2]) + Expr.const(chart, 2))
    if kind == "exp":
        half = Expr.const(chart, Fraction(rng.choice((-1, 1)), 2))
        return poly() * Expr.exp(half * rng.choice(coords))
    return poly()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("twisted", [False, True])
def test_koszul_bracket_matches_lie_derivative_form(r3, seed, twisted):
    j = jacobi_of(r3, twisted)
    rng = random.Random(seed)

    def section():
        zeta = Form(r3, 1, {(i,): random_scalar(rng, r3) for i in range(3) if rng.random() < 0.8})
        return zeta, random_scalar(rng, r3)

    for _ in range(2):
        a, b = section(), section()
        got = algebroid_bracket(j, a, b)
        want = lie_form_bracket(j, a, b)
        assert (got[0] - want[0]).is_symbolic_zero
        assert (got[1] - want[1]).is_symbolic_zero


def test_algebroid_check_fails_on_a_non_jacobi_triple(r3):
    # the E-tilt E = d/dz + d/dx of the standard structure breaks the
    # trivector identity, so the section bracket is no Lie algebroid bracket
    j = jacobi_of(r3, twisted=False)
    tilted = TwistedJacobi(r3, j.lam, j.e + MultiVec.d_dx(r3, "x"), j.omega)
    assert not check_twisted_jacobi(tilted).passed
    sections = [(Form.d_coord(r3, c), Expr.zero(r3)) for c in r3.coords]
    sections.append((Form.zero(r3, 1), Expr.one(r3)))
    report = check_algebroid(tilted, sections)
    failed = [item.name for item in report.items if not item.verdict.passed]
    assert failed and not report.passed
    assert all(item.verdict.kind in ("SymbolicZero", "NonZero") for item in report.items)


def test_algebroid_checks_lift_each_section_once(std_contact, std_jacobi, monkeypatch):
    from twistcheck import groupoid as groupoid_mod
    from twistcheck import jacobi as jacobi_mod
    from twistcheck.groupoid import check_algebroid_morphism, pair_groupoid

    lifted, bracketed = [], []
    lift_of, bracket_of = jacobi_mod.section_lift, jacobi_mod.algebroid_bracket

    def counting_lift(j, a):
        lifted.append(a)
        return lift_of(j, a)

    def recording_bracket(j, a, b, *lifts):
        bracketed.extend((a, b))
        return bracket_of(j, a, b, *lifts)

    for mod in (jacobi_mod, groupoid_mod):
        monkeypatch.setattr(mod, "section_lift", counting_lift)
        monkeypatch.setattr(mod, "algebroid_bracket", recording_bracket)

    chart = std_jacobi.chart
    sections = [(Form.d_coord(chart, c), Expr.zero(chart)) for c in chart.coords]
    sections.append((Form.zero(chart, 1), Expr.one(chart)))
    assert check_algebroid(std_jacobi, sections).passed
    # every section that enters a bracket, given, Leibniz-scaled or itself a
    # bracket, is lifted exactly once per check
    assert len({id(s) for s in lifted}) == len(lifted)
    assert {id(s) for s in bracketed} <= {id(s) for s in lifted}
    assert [sum(s is t for t in lifted) for s in sections] == [1] * len(sections)

    lifted.clear()
    bracketed.clear()
    model = pair_groupoid(std_contact)
    assert check_algebroid_morphism(model).passed
    # the base sections only: one lift each, shared by the anchor and the
    # brackets
    assert len(lifted) == model.base.dim + 1
    assert len({id(s) for s in lifted}) == len(lifted)
    assert {id(s) for s in bracketed} <= {id(s) for s in lifted}


def test_anchor_is_hamiltonian_on_exact_sections(std_jacobi):
    chart = std_jacobi.chart
    z = Expr.coord(chart, "z")
    f = z ** 2
    got = algebroid_anchor(std_jacobi, (differential(f), f))
    assert tensor_zero_verdict(got - hamiltonian(std_jacobi, f)).passed


def test_conformal_preserves_class(twisted_jacobi):
    chart = twisted_jacobi.chart
    a = Expr.exp(Expr.coord(chart, "z"))
    report = check_twisted_jacobi(conformal(twisted_jacobi, a))
    assert report.passed


def test_poissonization_is_homogeneous(std_jacobi, twisted_jacobi):
    for j in (std_jacobi, twisted_jacobi):
        h = poissonize(j)
        report = check_homogeneous(h)
        assert report.passed
        assert all(item.verdict.kind == "SymbolicZero" for item in report.items)


def same_components(got, want):
    """Componentwise equality across charts that share coordinate names."""
    keys = set(k for k, v in got.comps.items() if not v.is_symbolic_zero)
    keys |= set(k for k, v in want.comps.items() if not v.is_symbolic_zero)
    for k in keys:
        if not got.component(*k).rechart(want.chart).equals(want.component(*k)):
            return False
    return True


def test_poissonization_round_trip_exact(twisted_jacobi):
    h = poissonize(twisted_jacobi)
    back, report = project_homogeneous(h, value=0)
    assert report.passed, report.summary()
    assert back.chart.coords == twisted_jacobi.chart.coords
    assert same_components(back.lam, twisted_jacobi.lam)
    assert same_components(back.e, twisted_jacobi.e)
    assert same_components(back.omega, twisted_jacobi.omega)


def test_projection_along_e(twisted_jacobi):
    out = project_along_E(twisted_jacobi, value=0)
    assert out.report.passed, out.report.summary()
    # the projected twist is exact with d(omega0) = 0 on the 2-dim base, so
    # the homogeneity condition omega0 = i(Z0)d(omega0) genuinely fails
    assert out.homogeneous.kind == "NonZero"
    assert out.poisson.chart.dim == 2


def test_projection_requires_invariance(r3):
    # [E, Lambda] != 0 -> projection undefined
    x = Expr.coord(r3, "x")
    z = Expr.coord(r3, "z")
    lam = MultiVec(r3, 2, {(0, 1): z})
    j = TwistedJacobi(r3, lam, MultiVec.d_dx(r3, "z"), Form.zero(r3, 2))
    with pytest.raises(ExprError):
        project_along_E(j)


def test_cotangent_model(r3):
    x = Expr.coord(r3, "x")
    lam = MultiVec(r3, 2, {(0, 1): Expr.one(r3)})
    phi = Form(r3, 3, {(0, 1, 2): x})
    model = cotangent_twisted_symplectic(TwistedPoisson(r3, lam, phi))
    assert model.report.passed, model.report.summary()
    assert model.chart.dim == 6
    assert model.chart.coords[3:] == ("p_x", "p_y", "p_z")


@pytest.mark.parametrize("seed", range(3))
def test_cotangent_twist_matches_index_sum(seed):
    r4 = Chart("R4", ("x", "y", "z", "w"))
    coords = [Expr.coord(r4, c) for c in r4.coords]
    rng = random.Random(60 + seed)

    def rand_comp():
        e = Expr.const(r4, rng.randrange(-2, 3))
        for _ in range(2):
            e = e + rng.choice(coords) * rng.randrange(-2, 3)
        return e

    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    lam = MultiVec(r4, 2, {idx: rand_comp() / (coords[0] + 3) for idx in pairs})
    # an exact, hence closed, twist
    phi = ext_d(Form(r4, 2, {idx: rand_comp() * rand_comp() for idx in pairs}))
    model = cotangent_twisted_symplectic(TwistedPoisson(r4, lam, phi))
    big = model.chart
    # omega_{kl} = sum_{i,j} p_i lambda^{ij} phi_{jkl}
    want = Form(big, 2, {
        (k, l): sum((Expr.coord(big, "p_" + r4.coords[i]) * lam.component(i, j).rechart(big)
                     * phi.component(j, k, l).rechart(big)
                     for i in range(4) for j in range(4)), Expr.zero(big))
        for k, l in pairs})
    assert model.omega.equals(want)


def test_homogeneous_negative_control():
    # omega = ds^dx with Z = d/ds violates i(Z)omega = 0 and L_Z omega = omega
    ch = Chart("R2s", ("x", "s"))
    from twistcheck.jacobi import HomTwistedPoisson

    lam = MultiVec(ch, 2, {(0, 1): Expr.exp(-Expr.coord(ch, "s"))})
    omega = wedge(Form.d_coord(ch, "s"), Form.d_coord(ch, "x"))
    h = HomTwistedPoisson(ch, lam, omega, MultiVec.d_dx(ch, "s"))
    report = check_homogeneous(h)
    assert not report.passed
    failing = [item for item in report.items if not item.passed]
    assert failing and any(item.verdict.kind == "NonZero" for item in failing)


# ---------------------------------------------------------------------------
# the zero test on numerators: Lambda = L/d, E = e/d


def random_twist_coeff(rng, chart, coords):
    """A nonzero polynomial without constant term in ``coords``."""
    out = Expr.zero(chart)
    while out.is_symbolic_zero:
        for _ in range(rng.randint(1, 2)):
            term = Expr.const(chart, Fraction(rng.choice((-1, 1)) * rng.randint(1, 4),
                                              rng.randint(2, 9)))
            for _ in range(rng.randint(1, 2)):
                term = term * Expr.coord(chart, rng.choice(coords))
            out = out + term
    return out


def contact_induced_over_one_denominator(dim, seed, tilt):
    """The Jacobi structure of a Darboux contact form dz - sum y_i dx_i with
    a random polynomial twist carrying p (sum_i dx_i^dy_i), p without
    constant term, so that Lambda is a quotient over the volume factor
    1 + p; odd seeds let p depend on z, so that d omega != 0, and on R3
    random dx^dz and dy^dz terms put quotients into E too.  ``tilt`` adds
    d/dx_1 to E, which breaks the identities."""
    rng = random.Random(seed)
    n = dim // 2
    names = (("x", "y", "z") if dim == 3
             else tuple(f"{a}{i + 1}" for i in range(n) for a in "xy") + ("z",))
    chart = Chart(f"R{dim}", names)
    dxs = [Form.basis(chart, i) for i in range(dim)]
    coords = names if seed % 2 else names[:-1]
    theta = dxs[-1]
    planes = Form.zero(chart, 2)
    for i in range(n):
        theta = theta - dxs[2 * i].scale(Expr.coord(chart, names[2 * i + 1]))
        planes = planes + wedge(dxs[2 * i], dxs[2 * i + 1])
    omega = planes.scale(random_twist_coeff(rng, chart, coords))
    if dim == 3:
        for a, b in ((0, 2), (1, 2)):
            if rng.random() < 0.5:
                omega = omega + wedge(dxs[a], dxs[b]).scale(
                    random_twist_coeff(rng, chart, coords))
    j = TwistedContact(chart, theta, omega).jacobi
    if tilt:
        j = TwistedJacobi(chart, j.lam, j.e + MultiVec.basis(chart, 0), j.omega)
    return j


CLEARED_CASES = [(3, seed, tilt) for seed in range(8) for tilt in (False, True)] + [
    (5, seed, tilt) for seed in range(3) for tilt in (False, True)]


@pytest.mark.parametrize("dim, seed, tilt", CLEARED_CASES)
def test_cleared_residuals_are_d_cubed_times_the_quotient_residuals(dim, seed, tilt):
    j = contact_induced_over_one_denominator(dim, seed, tilt)
    shared = jacobi_mod._numerators(j)
    assert shared is not None
    d, lam, e = shared
    assert d.has_denominator is False and not lam.is_symbolic_zero
    # the numerators are read off exactly: Lambda = L/d and E = e/d
    for got, want in ((lam, j.lam), (e, j.e)):
        assert set(got.comps) == set(want.comps)
        assert all((c / d).equals(want.comps[k]) for k, c in got.comps.items())
    lam_dd = sharp1(lam, differential(d))
    cleared = (jacobi_mod._cleared_trivector(d, lam, e, j.omega, lam_dd),
               jacobi_mod._cleared_bivector(d, lam, e, j.omega, lam_dd))
    d3 = d * d * d
    for res, clr in zip(jacobi_mod._quotient_residuals(j), cleared):
        assert clr.is_symbolic_zero == res.is_symbolic_zero
        assert not any(c.has_denominator for c in clr.comps.values())
        for idx in set(res.comps) | set(clr.comps):
            assert (d3 * res.component(*idx)).equals(clr.component(*idx)), idx
    assert check_twisted_jacobi(j).passed is not tilt


def test_cleared_oracle_cases_reach_every_d_term():
    # each d-term of the cleared identities is nonzero on some case, so a
    # wrong sign of any of them breaks the equality above
    seen = {"d omega": False, "L#dd ^ L": False, "e(d) L": False, "L#dd ^ e": False}
    for dim, seed, tilt in CLEARED_CASES:
        j = contact_induced_over_one_denominator(dim, seed, tilt)
        d, lam, e = jacobi_mod._numerators(j)
        lam_dd = sharp1(lam, differential(d))
        seen["d omega"] |= not ext_d(j.omega).is_symbolic_zero
        seen["L#dd ^ L"] |= not wedge(lam_dd, lam).is_symbolic_zero
        seen["e(d) L"] |= not e.of(d).is_symbolic_zero
        seen["L#dd ^ e"] |= not wedge(lam_dd, e).is_symbolic_zero
    assert all(seen.values()), seen


def test_quotient_formula_reports_the_failure_of_a_shared_denominator():
    # Lambda over x + 1 with E polynomial takes the zero test on numerators;
    # its nonzero residuals are reported as quotients, as the quotient
    # formula gives them (dividing the cleared trivector back by d^3 would
    # print the leading term (-x)/(x^3 + ...) instead)
    sc = scenario.load(str(DATA / "tilted-quotient-r3.json"))
    assert jacobi_mod._numerators(scenario._resolve(sc, "tilted", "test")) is not None
    (outcome,) = scenario.run(sc)
    assert not outcome.passed and outcome.verdict == "NonZero"
    assert outcome.assumptions == [
        "leading term: (-x*y)/(x^3 + 3*x^2 + 3*x + 1)",
        "leading term: (-1)/(x^2 + 2*x + 1)",
    ]


def has_quotient(*tensors) -> bool:
    return any(c.has_denominator for t in tensors for c in t.comps.values())


def test_contact_identities_bracket_numerators_only(monkeypatch):
    calls = record_calls(monkeypatch, tensor_mod, "schouten")
    sc = scenario.loads(json.dumps({
        "charts": {"R3": ["x", "y", "z"]},
        "structures": {"c": {"type": "contact", "chart": "R3",
                             "theta": {"dz": "1", "dx": "-y"},
                             "omega": {"dx^dy": "(1/4)*x*z + (-1/6)*y"}}},
        "checks": [{"check": "contact", "target": "c"},
                   {"check": "jacobi_from_contact", "target": "c"}],
    }))
    assert all(o.passed for o in scenario.run(sc))
    assert calls and not any(has_quotient(p, q) for p, q in calls)


def test_mixed_denominators_keep_the_quotient_formula(monkeypatch):
    # the Darboux R5 base of the pair benchmark: Lambda has components over
    # 1 + x2/3 and polynomial ones, so no denominator is shared
    calls = record_calls(monkeypatch, tensor_mod, "schouten")
    sc = scenario.loads(json.dumps({
        "charts": {"R5": ["x1", "y1", "x2", "y2", "z"]},
        "structures": {"base": {"type": "contact", "chart": "R5",
                                "theta": {"dz": "1", "dx1": "-y1", "dx2": "-y2"},
                                "omega": {"dx1^dy1": "(1/3)*x2", "dx2^dy2": "(-1/4)"}}},
        "checks": [{"check": "jacobi_from_contact", "target": "base"}],
    }))
    assert all(o.passed for o in scenario.run(sc))
    assert any(has_quotient(p, q) for p, q in calls)
