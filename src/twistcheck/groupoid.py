"""Groupoid models on product charts with a multiplicative contact pair.

The constructible family is the pair groupoid of a contact base: the total
chart is base x base x R with source = second factor, target = first
factor, r = the R coordinate, and theta = alpha* theta0 - e^{-r} beta*
theta0.  Hand-written models (arbitrary structural maps given as coordinate
expressions) go through the same checks, which lets negative controls and
the de-suspension direction be expressed.

A model and its suspension share one core, Groupoid: the base, total and
composable-pair charts, the structure maps alpha (source), beta (target),
iota (inverse), eps (unit), pr1, pr2 and m (multiplication) on composable
pairs, and the optional embeddings that the unit, inverse and
associativity laws compose with m.  Its constructor is the only
declaration of these fields; GroupoidModel adds the contact pair and the
cocycle r, SuspendedModel the suspended form, and strip_suspension hands
the whole core on to the model it recovers.

A derived object is a cached property of the object it comes from: a
model keeps its contact pair, the jacobi structure that pair induces, the
block embeddings of its base's E0 and Lambda0, the induced_base structure
and the suspension; the check functions only check.  A pair groupoid keeps
the contact structure it was built from as contact0, so the base is solved
once per document, and the pair chart is not solved at all: its E and
Lambda are proposed in block form from the base's and certified
(_pair_proposal), and its induced base is contact0's own structure when the
pushforwards equal it term for term.  A model without contact0, such as a
hand-written groupoid document, eliminates on its total chart.
"""

from __future__ import annotations

import functools
from typing import Optional

from .expr import (
    NONZERO,
    Chart,
    Expr,
    ExprError,
    Verdict,
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
    pushforward,
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
    poissonized_chart,
    section_lift,
)
from .contact import (
    Candidate,
    TwistedContact,
    check_contact,
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


class Groupoid:
    """The charts, structure maps and law embeddings of a groupoid, taken by
    keyword; ``core`` holds them by name, to build a model on the same core."""

    def __init__(self, *, base: Chart, total: Chart, composable: Chart,
                 alpha: SmoothMap, beta: SmoothMap, iota: SmoothMap, eps: SmoothMap,
                 pr1: SmoothMap, pr2: SmoothMap, m: SmoothMap,
                 unit_left: Optional[SmoothMap] = None, unit_right: Optional[SmoothMap] = None,
                 inv_left: Optional[SmoothMap] = None, inv_right: Optional[SmoothMap] = None,
                 assoc_left: Optional[SmoothMap] = None, assoc_right: Optional[SmoothMap] = None):
        core = dict(locals())
        del core["self"]
        self.core = core
        vars(self).update(core)


class GroupoidModel(Groupoid):
    """A groupoid with a multiplicative contact pair (theta, omega) and the
    cocycle r; omega defaults to alpha* omega0 - e^{-r} beta* omega0."""

    def __init__(self, *, r: Expr, theta: Form, omega0: Form, omega: Optional[Form] = None,
                 contact0: Optional[TwistedContact] = None, **core):
        super().__init__(**core)
        self.r = r
        self.theta = theta
        self.omega0 = omega0
        if omega is None:
            emr = Expr.exp(-r)  # requires an affine cocycle r
            omega = pullback(self.alpha, omega0) - pullback(self.beta, omega0).scale(emr)
        self.omega = omega
        self.contact0 = contact0  # the contact base (theta0, omega0), if known

    @functools.cached_property
    def contact(self) -> TwistedContact:
        """The contact pair (theta, omega) on the total chart; with a contact
        base, E and Lambda are proposed from it rather than eliminated."""
        proposal = None if self.contact0 is None else functools.partial(_pair_proposal, self)
        return TwistedContact(self.total, self.theta, self.omega, proposal)

    @functools.cached_property
    def jacobi(self) -> TwistedJacobi:
        """The Reeb field and bivector of (theta, omega)."""
        return self.contact.jacobi

    @functools.cached_property
    def _block_fields(self) -> Optional[tuple[MultiVec, MultiVec, MultiVec, MultiVec]]:
        """E0 on the second factor, E0 on the first, Lambda0 on the first and
        Lambda0 on the second, embedded on the total chart; None without a
        contact base."""
        if self.contact0 is None:
            return None
        j0 = self.contact0.jacobi
        n0 = self.base.dim
        images1, images2 = _factor_images(self, "1"), _factor_images(self, "2")
        return (_embed(j0.e, self.total, n0, images2), _embed(j0.e, self.total, 0, images1),
                _embed(j0.lam, self.total, 0, images1), _embed(j0.lam, self.total, n0, images2))

    @functools.cached_property
    def _pushed(self) -> tuple[MultiVec, MultiVec]:
        """Lambda and E pushed to the base along the source map."""
        return pushforward(self.alpha, self.jacobi.lam), pushforward(self.alpha, self.jacobi.e)

    @functools.cached_property
    def induced_base(self) -> TwistedJacobi:
        """The derived structure pushed to the base along the source map:
        the contact base's own structure, with its cached residuals and
        poissonization, when the pushforwards equal it term for term."""
        lam, e = self._pushed
        if self.contact0 is not None:
            ref = self.contact0.jacobi
            if all(map(_same_terms, (lam, e, self.omega0), (ref.lam, ref.e, ref.omega))):
                return ref
        return TwistedJacobi(self.base, lam, e, self.omega0)

    @functools.cached_property
    def suspension(self) -> SuspendedModel:
        """The homogeneous exact twisted symplectic groupoid on total x R."""
        return _suspended(self)


def _same_terms(a, b) -> bool:
    """Whether two tensors store the same components with the same terms,
    key by key and term by term, in the same order."""
    def terms(t):
        return (t.chart, t.degree,
                [(k, list(v.num.items()), list(v.den.items())) for k, v in t.comps.items()])
    return a is b or terms(a) == terms(b)


def _map_equal_verdict(f: SmoothMap, g: SmoothMap) -> Verdict:
    if f.source != g.source or f.target != g.target:
        return Verdict(NONZERO, assumptions=["maps have different charts"])
    return tensor_zero_verdict(*(a - b for a, b in zip(f.components, g.components)))


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


def _factor_images(g: GroupoidModel, suffix: str) -> list[Expr]:
    """The base coordinates as coordinates of one factor of the total chart."""
    return [Expr.coord(g.total, c + suffix) for c in g.base.coords]


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

    theta = pullback(alpha, c0.theta) - pullback(beta, c0.theta).scale(Expr.exp(-t))
    return GroupoidModel(
        base=base, total=total, composable=comp,
        alpha=alpha, beta=beta, iota=iota, eps=eps,
        pr1=pr1, pr2=pr2, m=m,
        r=t, theta=theta, omega0=c0.omega, contact0=c0,
        unit_left=unit_left, unit_right=unit_right,
        inv_left=inv_left, inv_right=inv_right,
        assoc_left=assoc_left, assoc_right=assoc_right,
    )


def _pair_proposal(g: GroupoidModel) -> Candidate:
    """E and Lambda of a pair groupoid in block form from its base's.

    On base x base x R with coordinates (x1, x2, t), theta = theta0(2) -
    e^-t theta0(1) and omega = omega0(2) - e^-t omega0(1), so sigma = d theta
    + omega = sigma0(2) - e^-t sigma0(1) + e^-t dt ^ theta0(1), where (k)
    puts a base tensor on factor k.  The proposal is

        E = E0(2),   Lambda = Lambda0(2) - e^t Lambda0(1) - (e^t E0(1) + E0(2)) ^ d/dt,

    with (A ^ B)^# zeta = zeta(A) B - zeta(B) A, and the base identities
    i(E0)theta0 = 1, i(E0)sigma0 = 0, Lambda0^#(theta0) = 0 and
    i(Lambda0^# dx)sigma0 = -(dx - E0^x theta0) give each certified identity:
    - i(E)theta = theta0(E0) = 1 and i(E)sigma = (i(E0)sigma0)(2) = 0;
    - dx on factor 2: Lambda^# dx = (Lambda0^# dx)(2) - E0^x d/dt, whose
      sigma0(2) part gives -(dx - E0^x theta0)(2) and whose dt ^ theta0(1)
      part gives -e^-t E0^x theta0(1); the sum is -(dx - E^x theta);
    - dx on factor 1: Lambda^# dx = -e^t (Lambda0^# dx + E0^x d/dt)(1); its
      -e^-t sigma0(1) part gives -(dx - E0^x theta0)(1), its dt ^ theta0(1)
      part -E0^x theta0(1), as theta0(Lambda0^# dx) = 0; the sum is -dx,
      and E has no factor-1 component;
    - dt: Lambda^# dt = e^t E0(1) + E0(2), which only dt ^ theta0(1) sees,
      giving -dt, and E^t = 0;
    - Lambda^#(theta) = Lambda^#(theta0(2)) - e^-t Lambda^#(theta0(1)) =
      -d/dt - e^-t (-e^t d/dt) = 0.
    A wrong sign fails one of them at certification."""
    e_left, e0_f1, lam0_f1, lam0_f2 = g._block_fields
    et = Expr.exp(g.r)
    dt = MultiVec.d_dx(g.total, g.total.coords[-1])
    lam = lam0_f2 - lam0_f1.scale(et) - wedge(e0_f1.scale(et) + e_left, dt)
    return e_left, list(lam.sharp_images)


def check_multiplicativity(g: GroupoidModel) -> CheckReport:
    """Cocycle additivity of r and multiplicativity of theta and omega."""
    report = CheckReport(f"multiplicativity on {g.composable.name}")
    r_res = g.m.pull_scalar(g.r) - g.pr1.pull_scalar(g.r) - g.pr2.pull_scalar(g.r)
    report.add("r additivity r(gh) = r(g) + r(h)",
               tensor_zero_verdict(r_res))
    try:
        emr2 = Expr.exp(-g.pr2.pull_scalar(g.r))
    except ExprError:
        report.add("e^{-r} representable for the form checks",
                   Verdict(NONZERO, assumptions=[f"r = {g.r} is not affine"]))
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


def check_properties(g: GroupoidModel) -> CheckReport:
    """Structural properties of an r-multiplicative contact groupoid."""
    j = g.jacobi
    lam, e_total = j.lam, j.e
    report = CheckReport(f"contact groupoid properties on {g.total.name}")
    report.note_domain("E and Lambda", g.contact.solution.domain)
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
    e_right = -pushforward(g.iota, e_total)
    # (v) the hamiltonian equation of r
    report.add(
        "(v) Lambda#(dr) = E_left - e^r E_right",
        tensor_zero_verdict(sharp1(lam, differential(g.r)) - e_total + e_right.scale(er)),
    )
    # (vi) inversion behaviour of the bivector, twist and Reeb field
    report.add(
        "(vi) iota_*(-e^{-r} Lambda) = Lambda",
        tensor_zero_verdict(pushforward(g.iota, lam.scale(-emr)) - lam),
    )
    report.add(
        "(vi) iota* omega = -e^r omega",
        tensor_zero_verdict(pullback(g.iota, g.omega) + g.omega.scale(er)),
    )
    x_conf = hamiltonian(j, -emr)
    report.add(
        "(vi) iota_* X_{-e^{-r}} = E",
        tensor_zero_verdict(pushforward(g.iota, x_conf) - e_total),
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
    blocks = g._block_fields
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
    j0 = g.induced_base
    report = CheckReport(f"induced base structure on {g.base.name}")
    report.note_domain("E and Lambda", g.contact.solution.domain)
    report.merge(check_twisted_jacobi(j0))
    if g.contact0 is not None:
        # the pushforwards themselves: j0 may be the reference
        ref = g.contact0.jacobi
        lam, e = g._pushed
        report.add("base bivector matches the contact base",
                   tensor_zero_verdict(lam - ref.lam))
        report.add("base Reeb field matches the contact base",
                   tensor_zero_verdict(e - ref.e))
    return j0, report


def check_algebroid_morphism(g: GroupoidModel) -> CheckReport:
    """The section-to-invariant-field map J(zeta0,f0) = Lambda#(alpha* zeta0)
    + (alpha* f0) E is a bracket and anchor morphism with trivial kernel."""
    j, j0 = g.jacobi, g.induced_base
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
        anchored = pushforward(g.alpha, invariants[i])
        report.add(f"anchor compatibility [{i}]",
                   tensor_zero_verdict(anchored - lifts[i].anchor))

    # kernel triviality: the invariant fields are independent where their
    # wedge is nonzero
    report.add("kernel triviality (full rank)", nonvanishing_verdict(
        functools.reduce(wedge, invariants), "wedge of the lifts"))
    return report


# ---------------------------------------------------------------------------
# suspension


class SuspendedModel(Groupoid):
    """The suspension of ``model``: omega_big is the exact twisted symplectic
    form on the suspended total chart and omega0 the suspended base twist."""

    def __init__(self, *, model: GroupoidModel, omega_big: Form, omega0: Form,
                 z_total: MultiVec, z_base: MultiVec, **core):
        super().__init__(**core)
        self.model = model
        self.omega_big = omega_big
        self.omega0 = omega0
        self.z_total = z_total
        self.z_base = z_base


def _suspended(g: GroupoidModel) -> SuspendedModel:
    # the charts of the poissonizations, so the suspended and the
    # poissonized structures live on one chart
    charts = [poissonized_chart(ch) for ch in (g.total, g.base, g.composable)]
    big, big_base, big_comp = charts
    s_total, s_base, s_comp = (Expr.coord(ch, ch.coords[-1]) for ch in charts)
    es_base = Expr.exp(s_base)

    def up(m0: SmoothMap, src: Chart, tgt: Chart, s_comp_expr: Expr,
           section: Optional[tuple[Expr, ...]] = None) -> SmoothMap:
        comps = tuple(c.rechart(src) for c in m0.components) + (s_comp_expr,)
        return SmoothMap(src, tgt, comps, section)

    r_big = g.r.rechart(big)
    eps = up(g.eps, big_base, big, s_base)
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
        z_total=MultiVec.basis(big, big.dim - 1),
        z_base=MultiVec.basis(big_base, big_base.dim - 1),
    )


def suspend(g: GroupoidModel) -> tuple[SuspendedModel, CheckReport]:
    """Suspension to a homogeneous exact twisted symplectic groupoid on
    total x R, with the R-translation acting through the cocycle r."""
    return g.suspension, check_suspension(g.suspension)


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
    s = sm.total.coords[-1]
    for name, mp in (("alpha", sm.alpha), ("beta", sm.beta)):
        *rest, last = (comp.diff(s) for comp in mp.components)
        report.add(f"translation field is {name}-related to the base translation",
                   tensor_zero_verdict(*rest, last - Expr.one(sm.total)))
    report.add("nondegeneracy of Omega", nonvanishing_verdict(
        pfaffian(sm.omega_big), "Pfaffian of Omega"))
    return report


def strip_suspension(sm: SuspendedModel) -> GroupoidModel:
    """Recover the contact pair (theta, omega) from a suspended model:
    theta = e^{-s} i(d/ds)Omega and omega = e^{-s}Omega - ds^theta - d theta,
    both restricted to the zero slice."""
    g = sm.model
    s = sm.total.coords[-1]
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
        **g.core, r=g.r, theta=theta, omega0=g.omega0, omega=omega, contact0=g.contact0,
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
    h0 = j0.poissonization
    h = g.jacobi.poissonization  # homogeneous bivector on total x s
    sm = g.suspension
    # certify that the poissonized bivector inverts the suspended form
    for coord, residual in inverse_relation_residuals(h.lam, sm.omega_big):
        report.add(f"poissonized bivector inverts Omega on d{coord}",
                   tensor_zero_verdict(residual))
    lam_pushed = pushforward(sm.alpha, h.lam)
    report.add("induced homogeneous bivectors coincide",
               tensor_zero_verdict(lam_pushed - h0.lam))
    report.add("suspended base twists coincide",
               tensor_zero_verdict(sm.omega0 - h0.omega))
    return report
