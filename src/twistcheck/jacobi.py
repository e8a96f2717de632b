"""Twisted Jacobi structures on charts.

A structure is a triple (Lambda, E, omega): a bivector field, a vector
field and a 2-form twist.  The module verifies the defining identities,
exposes the function bracket with its twisted Jacobi anomaly, the induced
Lie algebroid on pair sections (1-form, function), conformal changes,
the homogeneous Poisson counterpart on chart x R and its two projection
constructions, and the cotangent construction for exact twisted Poisson
structures.

A derived object is a cached property of the object it comes from: a
TwistedJacobi keeps the residual tensors of its two identities, from which
every check builds its own report and verdicts, so a witness search of one
check never touches another's.  The algebroid check lifts each section it
brackets once.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from .expr import (
    Chart,
    Expr,
    ExprError,
    is_zero,
)
from .rational import div
from .report import CheckReport, nonvanishing_verdict, tensor_zero_verdict
from .tensor import (
    Form,
    MultiVec,
    SmoothMap,
    differential,
    ext_d,
    interior,
    lie,
    pfaffian,
    pullback,
    pushforward,
    schouten,
    sharp,
    sharp1,
    sharp_tensor,
    wedge,
)

__all__ = [
    "TwistedJacobi",
    "TwistedPoisson",
    "HomTwistedPoisson",
    "Section",
    "NonStraightenedField",
    "check_twisted_jacobi",
    "bracket",
    "jacobi_anomaly",
    "hamiltonian",
    "algebroid_bracket",
    "algebroid_anchor",
    "SectionLift",
    "section_lift",
    "check_algebroid",
    "conformal",
    "poissonize",
    "poissonized_chart",
    "check_homogeneous",
    "project_homogeneous",
    "project_along_E",
    "cotangent_twisted_symplectic",
]

# A pair section of T*M x R: a 1-form together with a function.
Section = tuple[Form, Expr]


class NonStraightenedField(ExprError):
    pass


class TwistedJacobi:
    def __init__(self, chart: Chart, lam: MultiVec, e: MultiVec, omega: Form):
        if lam.degree != 2 or e.degree != 1 or omega.degree != 2:
            raise ExprError("twisted Jacobi data must be (bivector, vector, 2-form)")
        if not (lam.chart == e.chart == omega.chart == chart):
            raise ExprError("twisted Jacobi parts must share the chart")
        self.chart = chart
        self.lam = lam
        self.e = e
        self.omega = omega

    @functools.cached_property
    def residuals(self) -> tuple[MultiVec, MultiVec]:
        """The trivector and bivector residuals of the twisted Jacobi identities."""
        return _identity_residuals(self)


class TwistedPoisson:
    def __init__(self, chart: Chart, lam: MultiVec, phi: Form):
        if lam.degree != 2 or phi.degree != 3:
            raise ExprError("twisted Poisson data must be (bivector, 3-form)")
        if not ext_d(phi).is_symbolic_zero:
            raise ExprError("the twist 3-form must be closed")
        self.chart = chart
        self.lam = lam
        self.phi = phi


class HomTwistedPoisson:
    def __init__(self, chart: Chart, lam: MultiVec, omega: Form, z: MultiVec):
        if lam.degree != 2 or omega.degree != 2 or z.degree != 1:
            raise ExprError("homogeneous data must be (bivector, 2-form, vector)")
        self.chart = chart
        self.lam = lam
        self.omega = omega
        self.z = z


def _identity_residuals(j: TwistedJacobi) -> tuple[MultiVec, MultiVec]:
    lam, e, omega = j.lam, j.e, j.omega
    half = Expr.const(j.chart, div(1, 2))
    domega = ext_d(omega)
    res1 = (
        schouten(lam, lam).scale(half)
        + wedge(e, lam)
        - sharp(lam, domega)
        - wedge(sharp(lam, omega), e)
    )
    res2 = (
        schouten(e, lam)
        - sharp_tensor(lam, domega, e)
        + wedge(sharp_tensor(lam, omega, e), e)
    )
    return res1, res2


def check_twisted_jacobi(j: TwistedJacobi) -> CheckReport:
    """Verify the two compatibility identities of a twisted Jacobi triple;
    the report and its verdicts are new on every call."""
    res1, res2 = j.residuals
    report = CheckReport(f"twisted Jacobi identities on {j.chart.name}")
    report.add("trivector identity", tensor_zero_verdict(res1))
    report.add("bivector identity", tensor_zero_verdict(res2))
    return report


def bracket(j: TwistedJacobi, f: Expr, g: Expr) -> Expr:
    """{f,g} = Lambda(df,dg) + f E(g) - g E(f)."""
    return j.lam.apply([differential(f), differential(g)]) + f * j.e.of(g) - g * j.e.of(f)


def jacobi_anomaly(j: TwistedJacobi, f: Expr, g: Expr, h: Expr) -> tuple[Expr, Expr]:
    """Cyclic bracket sum and its predicted twist term, as (lhs, rhs).  The
    twist term is read off the lifts (rho_u, h_u) of the sections (du, u):

        rhs = -[d omega(rho_f, rho_g, rho_h) + h_f omega(rho_g, rho_h)
                - h_g omega(rho_f, rho_h) + h_h omega(rho_f, rho_g)]."""
    lhs = (
        bracket(j, f, bracket(j, g, h))
        + bracket(j, g, bracket(j, h, f))
        + bracket(j, h, bracket(j, f, g))
    )
    lf, lg, lh = (section_lift(j, (differential(u), u)) for u in (f, g, h))
    rhs = -(
        lf.i_domega.apply([lg.anchor, lh.anchor])
        + lf.h * lg.i_omega.apply([lh.anchor])
        - lg.h * lf.i_omega.apply([lh.anchor])
        + lh.h * lf.i_omega.apply([lg.anchor])
    )
    return lhs, rhs


def hamiltonian(j: TwistedJacobi, f: Expr) -> MultiVec:
    """X_f = Lambda^#(df) + f E, the anchor of the section (df, f)."""
    return algebroid_anchor(j, (differential(f), f))


def algebroid_anchor(j: TwistedJacobi, a: Section) -> MultiVec:
    """(Lambda, E)^# (zeta, f) = Lambda^# zeta + f E on its vector part."""
    zeta, f = a
    return sharp1(j.lam, zeta) + j.e.scale(f)


class SectionLift:
    """What the bracket needs of one section (zeta, f), computed once:
    Lambda^# zeta, the two parts of (Lambda, E)^#(zeta, f), the anchor
    rho = Lambda^# zeta + f E and h = -<zeta, E>, then L_E zeta, and
    the contractions i(rho)omega and i(rho)d(omega) of the twist."""

    def __init__(self, sharp: MultiVec, anchor: MultiVec, h: Expr, lie_e: Form,
                 i_omega: Form, i_domega: Form):
        self.sharp = sharp
        self.anchor = anchor
        self.h = h
        self.lie_e = lie_e
        self.i_omega = i_omega
        self.i_domega = i_domega


def section_lift(j: TwistedJacobi, a: Section) -> SectionLift:
    zeta, f = a
    # through the bivector's sharp_images
    xz = sharp(j.lam, zeta)
    rho = xz + j.e.scale(f)
    return SectionLift(xz, rho, -zeta.apply([j.e]), lie(j.e, zeta),
                       interior(rho, j.omega), interior(rho, ext_d(j.omega)))


def _base_bracket(a: Section, b: Section, la: SectionLift, lb: SectionLift) -> Section:
    """Untwisted bracket on pair sections extending (df,f),(dg,g) -> (d{f,g},{f,g}),
    in Koszul form:

        (i(Lambda^# zeta) d eta - i(Lambda^# eta) d zeta + d Lambda(zeta, eta)
         + f L_E eta - g L_E zeta - i(E)(zeta ^ eta),
         -Lambda(zeta, eta) + rho(a) g - rho(b) f)

    which is L(Lambda^# zeta) eta - L(Lambda^# eta) zeta - d Lambda(zeta, eta)
    + ... by Cartan's formula and i(Lambda^# zeta) eta = Lambda(zeta, eta)."""
    (zeta, f), (eta, g) = a, b
    lam_ze = eta.apply([la.sharp])
    first = (
        interior(la.sharp, ext_d(eta))
        - interior(lb.sharp, ext_d(zeta))
        + differential(lam_ze)
        + lb.lie_e.scale(f)
        - la.lie_e.scale(g)
        # i(E)(zeta ^ eta) = <zeta, E> eta - <eta, E> zeta
        + eta.scale(la.h)
        - zeta.scale(lb.h)
    )
    second = -lam_ze + la.anchor.of(g) - lb.anchor.of(f)
    return first, second


def algebroid_bracket(j: TwistedJacobi, a: Section, b: Section,
                      la: Optional[SectionLift] = None,
                      lb: Optional[SectionLift] = None) -> Section:
    """Twisted bracket on pair sections: the base bracket in Koszul form plus
    the twist correction (domega, omega)((Lambda,E)^# a, (Lambda,E)^# b, .),

        (i(rho_b) i(rho_a) d omega + h_a i(rho_b) omega - h_b i(rho_a) omega,
         omega(rho_a, rho_b)),

    read off the sections' lifts (see section_lift); a caller that brackets
    one section many times passes its lift in la / lb."""
    la = la or section_lift(j, a)
    lb = lb or section_lift(j, b)
    first, second = _base_bracket(a, b, la, lb)
    corr_form = (
        interior(lb.anchor, la.i_domega)
        + lb.i_omega.scale(la.h)
        - la.i_omega.scale(lb.h)
    )
    corr_func = la.i_omega.apply([lb.anchor])
    return first + corr_form, second + corr_func


def check_algebroid(j: TwistedJacobi, sections: Sequence[Section]) -> CheckReport:
    """Lie-algebroid axioms for the twisted section bracket on ``sections``,
    each residual decided exactly by ``is_zero``."""
    report = CheckReport(f"section-bracket algebroid on {j.chart.name}")
    u = Expr.coord(j.chart, j.chart.coords[0])  # the Leibniz factor
    # a key is the index of a given section or the index pair (i, k) of the
    # bracket [s_i, s_k]; each keyed section is bracketed and lifted once, so
    # the Jacobi triples reuse the brackets of the pair loop and every lift
    brackets: dict[tuple[int, int], Section] = {}
    lifts: dict[object, SectionLift] = {}
    # the Leibniz section u s_k with its lift, by k, built once for every i < k
    scaled: dict[int, tuple[Section, SectionLift]] = {}

    def section(key) -> Section:
        if isinstance(key, int):
            return sections[key]
        if key not in brackets:
            brackets[key] = br(*key)
        return brackets[key]

    def lift(key) -> SectionLift:
        if key not in lifts:
            lifts[key] = section_lift(j, section(key))
        return lifts[key]

    def br(p, q) -> Section:
        return algebroid_bracket(j, section(p), section(q), lift(p), lift(q))

    def leibniz(k) -> tuple[Section, SectionLift]:
        if k not in scaled:
            b = sections[k]
            ub = (b[0].scale(u), u * b[1])
            scaled[k] = ub, section_lift(j, ub)
        return scaled[k]

    for i, a in enumerate(sections):
        for k, b in enumerate(sections):
            if k <= i:
                continue
            # antisymmetry
            ab = section((i, k))
            ba = section((k, i))
            report.add(f"antisymmetry [{i},{k}]",
                       tensor_zero_verdict(ab[0] + ba[0], ab[1] + ba[1]))
            # anchor is a bracket homomorphism
            rho_a, rho_b = lift(i).anchor, lift(k).anchor
            res = lift((i, k)).anchor - schouten(rho_a, rho_b)
            report.add(f"anchor homomorphism [{i},{k}]", tensor_zero_verdict(res))
            # Leibniz: {a, u b} = u {a,b} + (rho(a)u) b
            ub, lub = leibniz(k)
            lhs = algebroid_bracket(j, a, ub, lift(i), lub)
            du = rho_a.of(u)
            rhs = (ab[0].scale(u) + b[0].scale(du), u * ab[1] + du * b[1])
            report.add(f"Leibniz [{i},{k}] factor 0",
                       tensor_zero_verdict(lhs[0] - rhs[0], lhs[1] - rhs[1]))
            # 1-cocycle identity for (-E, 0): <[a,b], (-E,0)> = h([a,b])
            rhs_c = rho_a.of(lift(k).h) - rho_b.of(lift(i).h)
            report.add(f"cocycle [{i},{k}]", is_zero(lift((i, k)).h - rhs_c))
            for m in range(k + 1, len(sections)):
                t1 = br(i, (k, m))
                t2 = br(k, (m, i))
                t3 = br(m, (i, k))
                report.add(f"Jacobi identity [{i},{k},{m}]",
                           tensor_zero_verdict(t1[0] + t2[0] + t3[0], t1[1] + t2[1] + t3[1]))
    return report


def conformal(j: TwistedJacobi, a: Expr) -> TwistedJacobi:
    """The structure conformally rescaled by a nonvanishing function a."""
    lam2 = j.lam.scale(a)
    e2 = hamiltonian(j, a)
    omega2 = j.omega.scale(Expr.one(j.chart) / a)
    return TwistedJacobi(j.chart, lam2, e2, omega2)


def poissonized_chart(chart: Chart) -> Chart:
    """chart x R with a fresh last coordinate s: the poissonization's chart."""
    name = "s"
    while name in chart.coords:
        name += "_"
    return chart.extend(name, name=f"{chart.name}x{name}")


def poissonize(j: TwistedJacobi) -> HomTwistedPoisson:
    """Homogeneous twisted Poisson structure on chart x R:
    Lambda~ = e^{-s}(Lambda + d/ds ^ E), omega~ = e^s omega, Z = d/ds."""
    big = poissonized_chart(j.chart)
    s = big.coords[-1]
    es = Expr.exp(Expr.coord(big, s))
    inv = Expr.one(big) / es
    lam = j.lam.map_components(lambda c: c.rechart(big), big)
    e = j.e.map_components(lambda c: c.rechart(big), big)
    omega = j.omega.map_components(lambda c: c.rechart(big), big)
    ds = MultiVec.d_dx(big, s)
    lam_t = (lam + wedge(ds, e)).scale(inv)
    return HomTwistedPoisson(big, lam_t, omega.scale(es), ds)


def check_homogeneous(h: HomTwistedPoisson) -> CheckReport:
    """Twisted Poisson identity plus homogeneity of (Lambda, omega) under Z."""
    half = Expr.const(h.chart, div(1, 2))
    domega = ext_d(h.omega)
    report = CheckReport(f"homogeneous twisted Poisson on {h.chart.name}")
    report.add(
        "twisted Poisson identity",
        tensor_zero_verdict(schouten(h.lam, h.lam).scale(half) - sharp(h.lam, domega)),
    )
    report.add("degree -1 homogeneity of the bivector",
               tensor_zero_verdict(lie(h.z, h.lam) + h.lam))
    report.add("twist recovery i(Z)d(omega) = omega",
               tensor_zero_verdict(interior(h.z, domega) - h.omega))
    report.add("twist homogeneity L_Z(omega) = omega",
               tensor_zero_verdict(lie(h.z, h.omega) - h.omega))
    report.add("radial contraction i(Z)omega = 0",
               tensor_zero_verdict(interior(h.z, h.omega)))
    return report


def _straightened_projection(chart: Chart, coord: str, value) -> SmoothMap:
    """Projection dropping one coordinate, with the affine slice as section."""
    kept = [c for c in chart.coords if c != coord]
    base = Chart(f"{chart.name}/{coord}", tuple(kept))
    comps = tuple(Expr.coord(chart, c) for c in kept)
    section = tuple(
        Expr.coord(base, c) if c != coord else Expr.const(base, value)
        for c in chart.coords
    )
    return SmoothMap(chart, base, comps, section)


def _slice_inclusion(phi: SmoothMap) -> SmoothMap:
    """The slice embedding base -> source determined by a projection's section."""
    return SmoothMap(phi.target, phi.source, phi.section)


def _require_coordinate_field(v: MultiVec, what: str) -> str:
    """The coordinate c with v = d/dc, else NonStraightenedField."""
    if len(v.comps) != 1:
        raise NonStraightenedField(f"{what} is not a coordinate field")
    ((i,), comp), = v.comps.items()
    if comp.constant_value() != 1:
        raise NonStraightenedField(f"{what} is not a coordinate field")
    return v.chart.coords[i]


def project_homogeneous(
    h: HomTwistedPoisson,
    value=0,
    a: Optional[Expr] = None,
) -> tuple[TwistedJacobi, CheckReport]:
    """Induced twisted Jacobi structure on a slice transverse to Z.

    Z must be a coordinate field d/dc; the conformal factor a defaults to
    e^{c - value} and must satisfy a|slice = 1 and Z(a) = a.
    """
    coord = _require_coordinate_field(h.z, "the homothety field")
    if a is None:
        a = Expr.exp(Expr.coord(h.chart, coord) - Expr.const(h.chart, value))
    phi = _straightened_projection(h.chart, coord, value)
    base = phi.target
    report = CheckReport(f"homogeneous projection onto {base.name}")
    report.add("Z(a) = a", tensor_zero_verdict(h.z.of(a) - a))
    a_on_slice = a.subst(base, list(phi.section))
    report.add("a = 1 on the slice",
               tensor_zero_verdict(a_on_slice - Expr.one(base)))
    lam0 = pushforward(phi, h.lam.scale(a))
    e0 = pushforward(phi, sharp1(h.lam, differential(a)))
    scaled = h.omega.scale(Expr.one(h.chart) / a)
    for idx, comp in scaled.comps.items():
        if comp.depends_on(coord):
            raise ExprError(
                f"twist component {idx} still depends on {coord!r} after rescaling"
            )
    omega0 = pullback(_slice_inclusion(phi), scaled)
    j0 = TwistedJacobi(base, lam0, e0, omega0)
    report.merge(check_twisted_jacobi(j0))
    # conformal-projection property: {a f0~, a g0~} = a * pullback of {f0,g0}
    probes = _probe_functions(base)
    for t, f0 in enumerate(probes):
        g0 = probes[(t + 1) % len(probes)]
        fh = a * phi.pull_scalar(f0)
        gh = a * phi.pull_scalar(g0)
        lhs = h.lam.apply([differential(fh), differential(gh)])
        rhs = a * phi.pull_scalar(bracket(j0, f0, g0))
        report.add(f"conformal bracket compatibility {t}",
                   tensor_zero_verdict(lhs - rhs))
    return j0, report


def _probe_functions(chart: Chart) -> list[Expr]:
    coords = [Expr.coord(chart, c) for c in chart.coords]
    probes = list(coords)
    if len(coords) >= 2:
        probes.append(coords[0] * coords[1] + Expr.one(chart))
    return probes


class ProjectionAlongE:
    def __init__(self, poisson: TwistedPoisson, omega0: Form, z0: MultiVec,
                 homogeneous: object, report: CheckReport):
        self.poisson = poisson
        self.omega0 = omega0
        self.z0 = z0
        self.homogeneous = homogeneous  # Verdict for omega0 = i(Z0) d(omega0)
        self.report = report


def project_along_E(j: TwistedJacobi, value=0) -> ProjectionAlongE:
    """Exact twisted Poisson structure on the space of E-orbits.

    E must be a coordinate field d/dc and omega must not depend on c.
    Returns the projected bivector, the slice twist, the induced vector
    field Z0 = Lambda^#(dc) projected, and a homogeneity verdict.
    """
    coord = _require_coordinate_field(j.e, "E")
    report = CheckReport(f"projection along E on {j.chart.name}")
    report.add("[E, Lambda] = 0",
               tensor_zero_verdict(schouten(j.e, j.lam)))
    if not report.passed:
        raise ExprError("Lambda is not invariant along E; projection undefined")
    for idx, comp in j.omega.comps.items():
        if comp.depends_on(coord):
            raise ExprError(f"twist component {idx} depends on {coord!r}")
    phi = _straightened_projection(j.chart, coord, value)
    base = phi.target
    lam0 = pushforward(phi, j.lam)
    omega0 = pullback(_slice_inclusion(phi), j.omega)
    eta = differential(Expr.coord(j.chart, coord))
    z0 = pushforward(phi, sharp1(j.lam, eta))
    phi0 = ext_d(omega0)
    half = Expr.const(base, div(1, 2))
    report.add(
        "induced twisted Poisson identity",
        tensor_zero_verdict(schouten(lam0, lam0).scale(half) - sharp(lam0, phi0)),
    )
    # L_{Z0} Lambda0 = -Lambda0 - Lambda0^#( i(Z0)d(omega0) - omega0 )
    residual = (
        lie(z0, lam0)
        + lam0
        + sharp(lam0, interior(z0, phi0) - omega0)
    )
    report.add("homothety defect identity", tensor_zero_verdict(residual))
    hom = tensor_zero_verdict(omega0 - interior(z0, phi0))
    poisson = TwistedPoisson(base, lam0, phi0)
    return ProjectionAlongE(poisson, omega0, z0, hom, report)


class CotangentModel:
    def __init__(self, chart: Chart, theta: Form, omega: Form, z: MultiVec,
                 report: CheckReport):
        self.chart = chart
        self.theta = theta
        self.omega = omega
        self.z = z
        self.report = report


def cotangent_twisted_symplectic(p: TwistedPoisson) -> CotangentModel:
    """Canonical 1-form, induced twist and Liouville field on the cotangent chart.

    omega = i(Lambda^# theta) phi, i.e. omega_{kl} = sum_{i,j} p_i lambda^{ij}
    phi_{jkl}, and the pair (d theta + omega, omega) is checked to be
    homogeneous for Z = sum p_i d/dp_i and nondegenerate.
    """
    base = p.chart
    n = base.dim
    big = Chart(f"T*{base.name}", base.coords + tuple(f"p_{c}" for c in base.coords))
    pvars = [Expr.coord(big, f"p_{c}") for c in base.coords]
    theta = Form(big, 1, {(i,): pvars[i] for i in range(n)})
    lam_big, phi_big = (t.map_components(lambda e: e.rechart(big), big) for t in (p.lam, p.phi))
    omega = interior(sharp1(lam_big, theta), phi_big)
    z = MultiVec(big, 1, {(n + i,): pvars[i] for i in range(n)})
    big_sym = ext_d(theta) + omega
    report = CheckReport(f"cotangent construction over {base.name}")
    report.add("closed twist on the base", tensor_zero_verdict(ext_d(p.phi)))
    report.add("homogeneity L_Z(d theta + omega) = d theta + omega",
               tensor_zero_verdict(lie(z, big_sym) - big_sym))
    report.add("twist recovery i(Z)d(omega) = omega",
               tensor_zero_verdict(interior(z, ext_d(omega)) - omega))
    report.add("nondegeneracy of d theta + omega", nonvanishing_verdict(
        pfaffian(big_sym), "Pfaffian of d theta + omega"))
    return CotangentModel(big, theta, omega, z, report)
