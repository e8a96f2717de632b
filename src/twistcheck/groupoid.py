"""Groupoid models on product charts with a multiplicative contact pair.

The constructible family is the pair groupoid of a contact base: the total
chart is base x base x R with source = second factor, target = first
factor, r = the R coordinate, and theta = alpha* theta0 - e^{-r} beta*
theta0.  Hand-written models (arbitrary structural maps given as coordinate
expressions) go through the same checks, which lets negative controls and
the de-suspension direction be expressed.  A model builds each derived
object (Reeb field and bivector, induced base structure, suspension) once,
on first use; the check functions only check.  A pair groupoid keeps the
contact structure it was built from as its base_contact(), so the base is
solved once and its Jacobi structure built once for the document that
declares it and for every check of the model; and the induced base
structure is one object, whose identity residuals its checks share.
"""

from __future__ import annotations

import functools
from typing import Optional

from .expr import (
    NONZERO,
    SYMBOLIC_ZERO,
    Chart,
    Expr,
    ExprError,
    Verdict,
    is_zero,
)
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
    pushforward_diffeo,
    pushforward_projection,
    schouten,
    sharp1,
    wedge,
)
from .jacobi import (
    TwistedJacobi,
    algebroid_anchor,
    algebroid_bracket,
    check_twisted_jacobi,
    hamiltonian,
    poissonize,
    section_lift,
)
from .contact import (
    TwistedContact,
    check_contact,
    contact_bivector,
    contact_jacobi,
    inverse_relation_residuals,
    symplectization,
)

__all__ = [
    "GroupoidModel",
    "SuspendedModel",
    "pair_groupoid",
    "check_axioms",
    "check_multiplicativity",
    "check_properties",
    "induced_base_structure",
    "check_algebroid_morphism",
    "suspend",
    "strip_suspension",
    "base_coincidence_check",
]


def _once(method):
    """Keep a GroupoidModel method's result in the model's cache."""

    @functools.wraps(method)
    def cached(self):
        if method.__name__ not in self._cache:
            self._cache[method.__name__] = method(self)
        return self._cache[method.__name__]

    return cached


class GroupoidModel:
    def __init__(
        self,
        base: Chart,
        total: Chart,
        composable: Chart,
        alpha: SmoothMap,
        beta: SmoothMap,
        iota: SmoothMap,
        eps: SmoothMap,
        pr1: SmoothMap,
        pr2: SmoothMap,
        m: SmoothMap,
        r: Expr,
        theta: Form,
        omega0: Form,
        omega: Optional[Form] = None,
        contact0: Optional[TwistedContact] = None,
        # optional law embeddings for unit/inverse/associativity checks
        unit_left: Optional[SmoothMap] = None,
        unit_right: Optional[SmoothMap] = None,
        inv_left: Optional[SmoothMap] = None,
        inv_right: Optional[SmoothMap] = None,
        assoc_left: Optional[SmoothMap] = None,
        assoc_right: Optional[SmoothMap] = None,
    ):
        self.base = base
        self.total = total
        self.composable = composable
        self.alpha = alpha
        self.beta = beta
        self.iota = iota
        self.eps = eps
        self.pr1 = pr1
        self.pr2 = pr2
        self.m = m
        self.r = r
        self.theta = theta
        self.omega0 = omega0
        if omega is None:
            emr = Expr.exp(-r)  # requires an affine cocycle r
            omega = pullback(alpha, omega0) - pullback(beta, omega0).scale(emr)
        self.omega = omega
        self.contact0 = contact0  # the contact base (theta0, omega0), if known
        self.unit_left = unit_left
        self.unit_right = unit_right
        self.inv_left = inv_left
        self.inv_right = inv_right
        self.assoc_left = assoc_left
        self.assoc_right = assoc_right
        # derived objects by method name, each built on first use (see _once)
        self._cache: dict = {}

    @_once
    def contact(self) -> TwistedContact:
        """The contact pair (theta, omega) on the total chart."""
        return TwistedContact(self.total, self.theta, self.omega)

    @_once
    def derived_structure(self) -> tuple[TwistedJacobi, list[str]]:
        """Reeb field and bivector of (theta, omega), with the solver's notes."""
        c = self.contact()
        return contact_jacobi(c), contact_bivector(c)[1]

    def base_contact(self) -> Optional[TwistedContact]:
        """The contact base (theta0, omega0), the very structure a pair
        groupoid was built from; None for a hand-written model."""
        return self.contact0

    @_once
    def induced_base(self) -> TwistedJacobi:
        """The derived structure pushed to the base along the source map."""
        j, _ = self.derived_structure()
        return TwistedJacobi(self.base, pushforward_projection(self.alpha, j.lam),
                             pushforward_projection(self.alpha, j.e), self.omega0)

    @_once
    def suspension(self) -> "SuspendedModel":
        """The homogeneous exact twisted symplectic groupoid on total x R."""
        return _suspended(self)


def _map_equal_verdict(f: SmoothMap, g: SmoothMap) -> Verdict:
    if f.source != g.source or f.target != g.target:
        return Verdict(NONZERO, assumptions=["maps have different charts"])
    for a, b in zip(f.components, g.components):
        v = is_zero(a - b)
        if not v.passed:
            return v
    return Verdict(SYMBOLIC_ZERO)


def check_axioms(g: GroupoidModel) -> CheckReport:
    """Structural groupoid identities as symbolic substitution checks."""
    report = CheckReport(f"groupoid axioms on {g.total.name}")
    ident_base = SmoothMap.identity(g.base)
    ident_total = SmoothMap.identity(g.total)
    report.add("alpha after eps = id", _map_equal_verdict(g.alpha.compose(g.eps), ident_base))
    report.add("beta after eps = id", _map_equal_verdict(g.beta.compose(g.eps), ident_base))
    report.add("alpha after m = alpha after pr2",
               _map_equal_verdict(g.alpha.compose(g.m), g.alpha.compose(g.pr2)))
    report.add("beta after m = beta after pr1",
               _map_equal_verdict(g.beta.compose(g.m), g.beta.compose(g.pr1)))
    report.add("iota involutive", _map_equal_verdict(g.iota.compose(g.iota), ident_total))
    report.add("alpha after iota = beta", _map_equal_verdict(g.alpha.compose(g.iota), g.beta))
    report.add("beta after iota = alpha", _map_equal_verdict(g.beta.compose(g.iota), g.alpha))
    if g.unit_left is not None and g.unit_right is not None:
        report.add("left unit law", _map_equal_verdict(g.m.compose(g.unit_left), ident_total))
        report.add("right unit law", _map_equal_verdict(g.m.compose(g.unit_right), ident_total))
    else:
        report.note("unit-law embeddings not supplied; unit laws skipped")
    if g.inv_left is not None and g.inv_right is not None:
        report.add("left inverse law",
                   _map_equal_verdict(g.m.compose(g.inv_left), g.eps.compose(g.alpha)))
        report.add("right inverse law",
                   _map_equal_verdict(g.m.compose(g.inv_right), g.eps.compose(g.beta)))
    else:
        report.note("inverse-law embeddings not supplied; inverse laws skipped")
    if g.assoc_left is not None and g.assoc_right is not None:
        report.add("associativity",
                   _map_equal_verdict(g.m.compose(g.assoc_left), g.m.compose(g.assoc_right)))
    else:
        report.note("triple-chart embeddings not supplied; associativity skipped")
    return report


# ---------------------------------------------------------------------------
# pair groupoid construction


def _suffixed(base: Chart, suffix: str) -> list[str]:
    return [c + suffix for c in base.coords]


def _embed(t, total: Chart, offset: int, images: list[Expr]):
    """A base form or multivector on one factor block of the total chart."""
    out = {}
    for idx, v in t.comps.items():
        out[tuple(i + offset for i in idx)] = v.subst(total, images)
    return type(t)(total, t.degree, out)


def pair_groupoid(c0: TwistedContact) -> GroupoidModel:
    """The pair groupoid base x base x R of a contact base; raises ExprError
    when the base fails its volume check."""
    if not check_contact(c0).passed:
        raise ExprError("the base contact structure failed its volume check")
    base = c0.chart
    n0 = base.dim
    for reserved in ("t", "t1", "t2", "t3", "s"):
        if reserved in base.coords:
            raise ExprError(f"base coordinate name {reserved!r} is reserved")
    total = Chart(f"Pair({base.name})", tuple(_suffixed(base, "1") + _suffixed(base, "2") + ["t"]))
    comp = Chart(
        f"Pair2({base.name})",
        tuple(_suffixed(base, "1") + _suffixed(base, "2") + _suffixed(base, "3") + ["t1", "t2"]),
    )

    def tc(chart, names):
        return tuple(Expr.coord(chart, c) for c in names)

    f1_t = tc(total, _suffixed(base, "1"))
    f2_t = tc(total, _suffixed(base, "2"))
    t = Expr.coord(total, "t")
    zero_t = Expr.zero(total)
    alpha = SmoothMap(total, base, f2_t,
                      section=tuple(Expr.coord(base, c) for c in base.coords) * 2
                      + (Expr.zero(base),))
    beta = SmoothMap(total, base, f1_t, section=alpha.section)
    iota_comps = f2_t + f1_t + (-t,)
    iota = SmoothMap(total, total, iota_comps, section=iota_comps)
    eps = SmoothMap(base, total, alpha.section)
    f1_c = tc(comp, _suffixed(base, "1"))
    f2_c = tc(comp, _suffixed(base, "2"))
    f3_c = tc(comp, _suffixed(base, "3"))
    t1 = Expr.coord(comp, "t1")
    t2 = Expr.coord(comp, "t2")
    pr1 = SmoothMap(comp, total, f1_c + f2_c + (t1,))
    pr2 = SmoothMap(comp, total, f2_c + f3_c + (t2,))
    m = SmoothMap(comp, total, f1_c + f3_c + (t1 + t2,))
    unit_left = SmoothMap(total, comp, f1_t + f1_t + f2_t + (zero_t, t))
    unit_right = SmoothMap(total, comp, f1_t + f2_t + f2_t + (t, zero_t))
    inv_left = SmoothMap(total, comp, f2_t + f1_t + f2_t + (-t, t))
    inv_right = SmoothMap(total, comp, f1_t + f2_t + f1_t + (t, -t))
    triple = Chart(
        f"Pair3({base.name})",
        tuple(
            _suffixed(base, "1") + _suffixed(base, "2") + _suffixed(base, "3")
            + _suffixed(base, "4") + ["t1", "t2", "t3"]
        ),
    )
    g1 = tc(triple, _suffixed(base, "1"))
    g2 = tc(triple, _suffixed(base, "2"))
    g3 = tc(triple, _suffixed(base, "3"))
    g4 = tc(triple, _suffixed(base, "4"))
    u1, u2, u3 = (Expr.coord(triple, c) for c in ("t1", "t2", "t3"))
    assoc_left = SmoothMap(triple, comp, g1 + g3 + g4 + (u1 + u2, u3))
    assoc_right = SmoothMap(triple, comp, g1 + g2 + g4 + (u1, u2 + u3))

    r = t
    emr = Expr.exp(-t)
    images1 = list(f1_t)
    images2 = list(f2_t)
    theta = _embed(c0.theta, total, n0, images2) - _embed(
        c0.theta, total, 0, images1
    ).scale(emr)
    return GroupoidModel(
        base=base, total=total, composable=comp,
        alpha=alpha, beta=beta, iota=iota, eps=eps,
        pr1=pr1, pr2=pr2, m=m,
        r=r, theta=theta, omega0=c0.omega, contact0=c0,
        unit_left=unit_left, unit_right=unit_right,
        inv_left=inv_left, inv_right=inv_right,
        assoc_left=assoc_left, assoc_right=assoc_right,
    )


def check_multiplicativity(g: GroupoidModel) -> CheckReport:
    """Cocycle additivity of r and multiplicativity of theta and omega."""
    report = CheckReport(f"multiplicativity on {g.composable.name}")
    r_res = g.m.pull_scalar(g.r) - g.pr1.pull_scalar(g.r) - g.pr2.pull_scalar(g.r)
    report.add("r additivity r(gh) = r(g) + r(h)",
               tensor_zero_verdict(r_res))
    try:
        emr2 = Expr.exp(-g.pr2.pull_scalar(g.r))
    except ExprError:
        report.note("e^{-r} is not representable for this r; form checks skipped")
        return report
    theta_res = (
        pullback(g.m, g.theta)
        - pullback(g.pr1, g.theta).scale(emr2)
        - pullback(g.pr2, g.theta)
    )
    report.add("contact-form multiplicativity", tensor_zero_verdict(theta_res))
    omega_res = (
        pullback(g.m, g.omega)
        - pullback(g.pr1, g.omega).scale(emr2)
        - pullback(g.pr2, g.omega)
    )
    report.add("twist multiplicativity", tensor_zero_verdict(omega_res))
    return report


def _block_fields(g: GroupoidModel):
    """(E0, Lambda0) of the base and their factor-block embeddings."""
    c0 = g.base_contact()
    if c0 is None:
        return None
    j0 = contact_jacobi(c0)
    n0 = g.base.dim
    images1 = [Expr.coord(g.total, c + "1") for c in g.base.coords]
    images2 = [Expr.coord(g.total, c + "2") for c in g.base.coords]
    e_left = _embed(j0.e, g.total, n0, images2)
    e0_f1 = _embed(j0.e, g.total, 0, images1)
    lam0_f1 = _embed(j0.lam, g.total, 0, images1)
    lam0_f2 = _embed(j0.lam, g.total, n0, images2)
    return e_left, e0_f1, lam0_f1, lam0_f2


def check_properties(g: GroupoidModel) -> CheckReport:
    """Structural properties of an r-multiplicative contact groupoid."""
    j, notes = g.derived_structure()
    lam, e_total = j.lam, j.e
    report = CheckReport(f"contact groupoid properties on {g.total.name}")
    for n in notes:
        report.note(n)
    er = Expr.exp(g.r)
    emr = Expr.exp(-g.r)
    # (i) the cocycle equations of r
    r_res = g.m.pull_scalar(g.r) - g.pr1.pull_scalar(g.r) - g.pr2.pull_scalar(g.r)
    report.add("(i) r additivity", tensor_zero_verdict(r_res))
    report.add("(i) r after eps = 0",
               tensor_zero_verdict(g.eps.pull_scalar(g.r)))
    report.add("(i) r after iota = -r",
               tensor_zero_verdict(g.iota.pull_scalar(g.r) + g.r))
    # (ii) inversion of the contact form
    report.add("(ii) iota* theta = -e^r theta",
               tensor_zero_verdict(pullback(g.iota, g.theta) + g.theta.scale(er)))
    # (iii) units are Legendrian
    report.add("(iii) eps* theta = 0",
               tensor_zero_verdict(pullback(g.eps, g.theta)))
    dim_v = Verdict("SymbolicZero" if g.total.dim == 2 * g.base.dim + 1 else NONZERO)
    if dim_v.kind == NONZERO:
        dim_v.assumptions.append("dim total != 2 dim base + 1")
    report.add("(iii) unit dimension n", dim_v)
    # (iv) the Reeb field preserves r
    report.add("(iv) E(r) = 0", tensor_zero_verdict(e_total.of(g.r)))
    # right-invariant Reeb model via the inversion map
    e_right = -pushforward_diffeo(g.iota, e_total)
    # (v) the hamiltonian equation of r
    report.add(
        "(v) Lambda#(dr) = E_left - e^r E_right",
        tensor_zero_verdict(sharp1(lam, differential(g.r)) - e_total + e_right.scale(er)),
    )
    # (vi) inversion behaviour of the bivector, twist and Reeb field
    report.add(
        "(vi) iota_*(-e^{-r} Lambda) = Lambda",
        tensor_zero_verdict(pushforward_diffeo(g.iota, lam.scale(-emr)) - lam),
    )
    report.add(
        "(vi) iota* omega = -e^r omega",
        tensor_zero_verdict(pullback(g.iota, g.omega) + g.omega.scale(er)),
    )
    x_conf = hamiltonian(j, -emr)
    report.add(
        "(vi) iota_* X_{-e^{-r}} = E",
        tensor_zero_verdict(pushforward_diffeo(g.iota, x_conf) - e_total),
    )
    # (viii) source and rescaled target pullbacks commute under the bracket
    # {f, h} = X_f(h) - h E(f), with X_f and E(f) built once per f = alpha* x
    # and h = e^{-r} beta* x once per coordinate x
    hs = [emr * g.beta.pull_scalar(Expr.coord(g.base, c)) for c in g.base.coords]
    for c0 in g.base.coords:
        f = g.alpha.pull_scalar(Expr.coord(g.base, c0))
        x_f, e_f = hamiltonian(j, f), e_total.of(f)
        for c1, h in zip(g.base.coords, hs):
            report.add(f"(viii) {{alpha*{c0}, e^-r beta*{c1}}} = 0",
                       tensor_zero_verdict(x_f.of(h) - h * e_f))
    # block comparison against the base structure, when available
    blocks = _block_fields(g)
    if blocks is not None:
        e_left_b, e0_f1, lam0_f1, lam0_f2 = blocks
        report.add("Reeb block form E = 0 + E0 + 0",
                   tensor_zero_verdict(e_total - e_left_b))
        report.add("right-invariant Reeb block form E_right = -(E0 + 0 + 0)",
                   tensor_zero_verdict(e_right + e0_f1))
        dt = MultiVec.d_dx(g.total, g.total.coords[-1])
        lam_block = (
            lam0_f2
            - lam0_f1.scale(er)
            + wedge(e_right.scale(er) - e_total, dt)
        )
        report.add("bivector block form (factor blocks plus forced dt column)",
                   tensor_zero_verdict(lam - lam_block))
    return report


def induced_base_structure(g: GroupoidModel) -> tuple[TwistedJacobi, CheckReport]:
    """Twisted Jacobi structure on the base induced through the source map."""
    j0 = g.induced_base()
    _, notes = g.derived_structure()
    report = CheckReport(f"induced base structure on {g.base.name}")
    for n in notes:
        report.note(n)
    report.merge(check_twisted_jacobi(j0))
    c0 = g.base_contact()
    if c0 is not None:
        ref = contact_jacobi(c0)
        report.add("base bivector matches the contact base",
                   tensor_zero_verdict(j0.lam - ref.lam))
        report.add("base Reeb field matches the contact base",
                   tensor_zero_verdict(j0.e - ref.e))
    return j0, report


def check_algebroid_morphism(g: GroupoidModel) -> CheckReport:
    """The section-to-invariant-field map J(zeta0,f0) = Lambda#(alpha* zeta0)
    + (alpha* f0) E is a bracket and anchor morphism with trivial kernel."""
    j, _ = g.derived_structure()
    j0 = g.induced_base()
    report = CheckReport(f"algebroid morphism over {g.base.name}")

    def invariant(sec):
        zeta0, f0 = sec
        return algebroid_anchor(j, (pullback(g.alpha, zeta0), g.alpha.pull_scalar(f0)))

    sections = [(Form.d_coord(g.base, c), Expr.zero(g.base)) for c in g.base.coords]
    sections.append((Form.zero(g.base, 1), Expr.one(g.base)))
    # each section is lifted to the base algebroid once, for its anchor
    # and for every bracket it enters
    lifts = [section_lift(j0, sec) for sec in sections]
    invariants = [invariant(sec) for sec in sections]
    for i, a in enumerate(sections):
        for k, b in enumerate(sections):
            if k <= i:
                continue
            ab = algebroid_bracket(j0, a, b, lifts[i], lifts[k])
            res = invariant(ab) - schouten(invariants[i], invariants[k])
            report.add(f"bracket morphism [{i},{k}]", tensor_zero_verdict(res))
        anchored = pushforward_projection(g.alpha, invariants[i])
        report.add(f"anchor compatibility [{i}]",
                   tensor_zero_verdict(anchored - lifts[i].anchor))

    # kernel triviality: the invariant fields are independent where their
    # wedge is nonzero
    report.add("kernel triviality (full rank)", nonvanishing_verdict(
        functools.reduce(wedge, invariants), "wedge of the lifts"))
    return report


# ---------------------------------------------------------------------------
# suspension


class SuspendedModel:
    def __init__(
        self,
        model: GroupoidModel,
        total: Chart,
        base: Chart,
        composable: Chart,
        alpha: SmoothMap,
        beta: SmoothMap,
        iota: SmoothMap,
        eps: SmoothMap,
        pr1: SmoothMap,
        pr2: SmoothMap,
        m: SmoothMap,
        omega_big: Form,  # exact twisted symplectic form on the suspended total
        omega0: Form,  # suspended base twist
        z_total: MultiVec,
        z_base: MultiVec,
        s_name: str,
    ):
        self.model = model
        self.total = total
        self.base = base
        self.composable = composable
        self.alpha = alpha
        self.beta = beta
        self.iota = iota
        self.eps = eps
        self.pr1 = pr1
        self.pr2 = pr2
        self.m = m
        self.omega_big = omega_big
        self.omega0 = omega0
        self.z_total = z_total
        self.z_base = z_base
        self.s_name = s_name


def _fresh_s(*charts: Chart) -> str:
    name = "s"
    while any(name in ch.coords for ch in charts):
        name += "_"
    return name


def _suspended(g: GroupoidModel) -> SuspendedModel:
    s = _fresh_s(g.total, g.base, g.composable)
    big = g.total.extend(s, name=f"{g.total.name}x{s}")
    big_base = g.base.extend(s, name=f"{g.base.name}x{s}")
    big_comp = g.composable.extend(s, name=f"{g.composable.name}x{s}")
    s_total = Expr.coord(big, s)
    s_comp = Expr.coord(big_comp, s)
    es_base = Expr.exp(Expr.coord(big_base, s))

    def up(m0: SmoothMap, src: Chart, tgt: Chart, s_comp_expr: Expr,
           section: Optional[tuple[Expr, ...]] = None) -> SmoothMap:
        comps = tuple(c.rechart(src) for c in m0.components) + (s_comp_expr,)
        return SmoothMap(src, tgt, comps, section)

    r_big = g.r.rechart(big)
    eps = up(g.eps, big_base, big, Expr.coord(big_base, s))
    # the suspended unit is a section of the suspended source map
    alpha = up(g.alpha, big, big_base, s_total, section=eps.components)
    beta = up(g.beta, big, big_base, s_total - r_big)
    iota_comps = tuple(c.rechart(big) for c in g.iota.components) + (s_total - r_big,)
    iota = SmoothMap(big, big, iota_comps, section=iota_comps)
    r_pr2 = g.pr2.pull_scalar(g.r).rechart(big_comp)
    pr1 = up(g.pr1, big_comp, big, s_comp - r_pr2)
    pr2 = up(g.pr2, big_comp, big, s_comp)
    m = up(g.m, big_comp, big, s_comp)
    incl0 = SmoothMap(big_base, g.base, tuple(Expr.coord(big_base, c) for c in g.base.coords))
    return SuspendedModel(
        model=g, total=big, base=big_base, composable=big_comp,
        alpha=alpha, beta=beta, iota=iota, eps=eps, pr1=pr1, pr2=pr2, m=m,
        omega_big=symplectization(g.theta, g.omega, big),
        omega0=pullback(incl0, g.omega0).scale(es_base),
        z_total=MultiVec.d_dx(big, s), z_base=MultiVec.d_dx(big_base, s),
        s_name=s,
    )


def suspend(g: GroupoidModel) -> tuple[SuspendedModel, CheckReport]:
    """Suspension to a homogeneous exact twisted symplectic groupoid on
    total x R, with the R-translation acting through the cocycle r."""
    sm = g.suspension()
    return sm, check_suspension(sm)


def check_suspension(sm: SuspendedModel) -> CheckReport:
    report = CheckReport(f"suspension checks on {sm.total.name}")
    d_omega0 = ext_d(sm.omega0)
    report.add(
        "exactness defect d(Omega) = alpha* d(omega0) - beta* d(omega0)",
        tensor_zero_verdict(
            ext_d(sm.omega_big) - pullback(sm.alpha, d_omega0) + pullback(sm.beta, d_omega0)),
    )
    report.add(
        "symplectic multiplicativity m*Omega = pr1*Omega + pr2*Omega",
        tensor_zero_verdict(
            pullback(sm.m, sm.omega_big)
            - pullback(sm.pr1, sm.omega_big)
            - pullback(sm.pr2, sm.omega_big)),
    )
    report.add("homogeneity L_Z(Omega) = Omega",
               tensor_zero_verdict(lie(sm.z_total, sm.omega_big) - sm.omega_big))
    report.add("base twist recovery i(Z0)d(omega0) = omega0",
               tensor_zero_verdict(interior(sm.z_base, d_omega0) - sm.omega0))
    # the R-translation field is multiplicative: its pushforwards along the
    # structural maps are the R-translation downstairs (Jacobian columns)
    for name, mp in (("alpha", sm.alpha), ("beta", sm.beta)):
        res = Expr.zero(sm.total)
        for u, comp in enumerate(mp.components):
            want = Expr.one(sm.total) if mp.target.coords[u] == sm.s_name else Expr.zero(sm.total)
            res = res + (comp.diff(sm.s_name) - want) ** 2
        report.add(f"translation field is {name}-related to the base translation",
                   tensor_zero_verdict(res))
    report.add("nondegeneracy of Omega", nonvanishing_verdict(
        pfaffian(sm.omega_big), "Pfaffian of Omega"))
    return report


def strip_suspension(sm: SuspendedModel) -> GroupoidModel:
    """Recover the contact pair (theta, omega) from a suspended model:
    theta = e^{-s} i(d/ds)Omega and omega = e^{-s}Omega - ds^theta - d theta,
    both restricted to the zero slice."""
    g = sm.model
    s = sm.s_name
    es = Expr.exp(Expr.coord(sm.total, s))
    theta_big = interior(sm.z_total, sm.omega_big).scale(Expr.one(sm.total) / es)
    ds = Form.d_coord(sm.total, s)
    omega_rest = (
        sm.omega_big.scale(Expr.one(sm.total) / es)
        - wedge(ds, theta_big)
        - ext_d(theta_big)
    )
    slice_map = SmoothMap(
        g.total, sm.total,
        tuple(Expr.coord(g.total, c) for c in g.total.coords) + (Expr.zero(g.total),),
    )
    theta = pullback(slice_map, theta_big)
    omega = pullback(slice_map, omega_rest)
    return GroupoidModel(
        base=g.base, total=g.total, composable=g.composable,
        alpha=g.alpha, beta=g.beta, iota=g.iota, eps=g.eps,
        pr1=g.pr1, pr2=g.pr2, m=g.m,
        r=g.r, theta=theta, omega0=g.omega0, omega=omega, contact0=g.contact0,
    )


def base_coincidence_check(g: GroupoidModel) -> CheckReport:
    """The poissonization of the induced base structure coincides with the
    homogeneous structure that the suspended symplectic form induces on the
    suspended base through the source map."""
    report = CheckReport(f"base coincidence on {g.base.name}")
    j0, rep0 = induced_base_structure(g)
    if not rep0.passed:
        report.merge(rep0)
        return report
    h0 = poissonize(j0)
    j, _ = g.derived_structure()
    h = poissonize(j)  # homogeneous bivector on total x s
    sm = g.suspension()
    # certify that the poissonized bivector inverts the suspended form
    if h.chart != sm.total:
        report.add("chart alignment", Verdict(NONZERO, assumptions=[
            "suspension and poissonization use different chart extensions"]))
        return report
    for coord, residual in inverse_relation_residuals(h.lam, sm.omega_big):
        report.add(f"poissonized bivector inverts Omega on d{coord}",
                   tensor_zero_verdict(residual))
    lam_pushed = pushforward_projection(sm.alpha, h.lam)
    if h0.chart != sm.base:
        report.add("base chart alignment", Verdict(NONZERO, assumptions=[
            "base extensions disagree"]))
        return report
    report.add("induced homogeneous bivectors coincide",
               tensor_zero_verdict(lam_pushed - h0.lam))
    report.add("suspended base twists coincide",
               tensor_zero_verdict(sm.omega0 - h0.omega))
    return report
