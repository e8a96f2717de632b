"""Twisted contact structures on odd-dimensional charts.

A structure is a contact 1-form theta together with a 2-form twist omega,
subject to the volume condition theta ^ (d theta + omega)^n != 0.  The
module solves symbolically for the Reeb field and the associated bivector,
assembles the induced twisted Jacobi structure, and checks that the
homogeneous Poisson bivector on chart x R inverts the exact twisted
symplectic form d(e^s theta) + e^s omega.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .expr import Chart, Expr, ExprError
from .linsolve import LinearSolveError, solve
from .report import CheckReport, nonvanishing_verdict, tensor_zero_verdict
from .tensor import (
    Form,
    MultiVec,
    ext_d,
    interior,
    lie,
    pfaffian,
    pullback,
    sharp1,
    wedge,
    SmoothMap,
)
from .jacobi import TwistedJacobi, check_twisted_jacobi, poissonize

__all__ = [
    "TwistedContact",
    "check_contact",
    "reeb",
    "contact_bivector",
    "contact_jacobi",
    "jacobi_from_contact",
    "symplectization",
    "inverse_relation_residuals",
    "contact_poissonization_check",
    "SYMPLECTIC_INVERSE_SIGN",
]

# sigma with i(Lambda~^# zeta)Omega~ = sigma * zeta, for the poissonized
# bivector Lambda~ and the exact twisted symplectic form Omega~ =
# d(e^s theta) + e^s omega; the canonical case theta = dz fixes it (see
# test_symplectic_inverse_sign).
SYMPLECTIC_INVERSE_SIGN = -1


@dataclass
class TwistedContact:
    chart: Chart
    theta: Form
    omega: Form
    # symplectic_part(), reeb() and contact_bivector() results, built once
    # per structure
    _symplectic: Optional[Form] = field(default=None, init=False, repr=False, compare=False)
    _reeb: Optional[tuple[MultiVec, list[str]]] = field(
        default=None, init=False, repr=False, compare=False)
    _bivector: Optional[tuple[MultiVec, list[str]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.chart.dim % 2 == 0:
            raise ExprError("a contact chart must be odd-dimensional")
        if self.theta.degree != 1 or self.omega.degree != 2:
            raise ExprError("contact data must be (1-form, 2-form)")
        if self.theta.chart != self.chart or self.omega.chart != self.chart:
            raise ExprError("contact parts must live on the chart")

    @property
    def half_rank(self) -> int:
        return self.chart.dim // 2

    def symplectic_part(self) -> Form:
        """d theta + omega (built once per structure)."""
        if self._symplectic is None:
            self._symplectic = ext_d(self.theta) + self.omega
        return self._symplectic

    def volume(self) -> Form:
        top = self.theta
        sym = self.symplectic_part()
        for _ in range(self.half_rank):
            top = wedge(top, sym)
        return top


def check_contact(
    c: TwistedContact,
    samples: Optional[Sequence[Sequence[float]]] = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Nonvanishing of the contact volume theta ^ (d theta + omega)^n."""
    report = CheckReport(f"contact volume on {c.chart.name}")
    coeff = c.volume().component(*range(c.chart.dim))
    report.add("volume nonvanishing", nonvanishing_verdict(coeff, samples, tol, "volume"))
    return report


def reeb(c: TwistedContact) -> tuple[MultiVec, list[str]]:
    """Solve i(E)theta = 1, i(E)(d theta + omega) = 0 for the Reeb field
    (once per structure; the assumption list is the caller's own copy)."""
    if c._reeb is None:
        c._reeb = _solve_reeb(c)
    e, assumptions = c._reeb
    return e, list(assumptions)


def contact_bivector(c: TwistedContact) -> tuple[MultiVec, list[str]]:
    """Solve Lambda^#(theta) = 0, i(Lambda^# zeta)(d theta + omega) =
    -(zeta - <zeta,E> theta) per basis covector and assemble the bivector
    (once per structure; the assumption list is the caller's own copy)."""
    if c._bivector is None:
        c._bivector = _solve_bivector(c)
    lam, assumptions = c._bivector
    return lam, list(assumptions)


def _solve_reeb(c: TwistedContact) -> tuple[MultiVec, list[str]]:
    chart = c.chart
    n = chart.dim
    sym = c.symplectic_part()
    rows = [[c.theta.component(i) for i in range(n)]]
    rhs = [[Expr.one(chart)]]
    for col in range(n):
        # coefficient of dx_col in i(E)(d theta + omega): sum_j E^j sym_{j,col}
        rows.append([sym.component(j, col) for j in range(n)])
        rhs.append([Expr.zero(chart)])
    try:
        sol = solve(rows, rhs, chart)
    except LinearSolveError as err:
        raise ExprError(f"Reeb system is singular: {err}") from None
    e = MultiVec(chart, 1, {(j,): sol.values[j][0] for j in range(n)})
    return e, sol.assumptions


def _solve_bivector(c: TwistedContact) -> tuple[MultiVec, list[str]]:
    chart = c.chart
    n = chart.dim
    sym = c.symplectic_part()
    e, assumptions = reeb(c)
    # unknowns X_b = Lambda^#(dx_b), one column per basis covector b;
    # constraints: theta(X_b) = 0 and
    # sum_j X_b^j sym_{j,col} = -(delta_{b,col} - E^b theta_col)
    rows = [[c.theta.component(i) for i in range(n)]]
    rhs = [[Expr.zero(chart)] * n]
    for col in range(n):
        rows.append([sym.component(j, col) for j in range(n)])
        rhs.append([
            -((Expr.one(chart) if col == b else Expr.zero(chart))
              - e.component(b) * c.theta.component(col))
            for b in range(n)
        ])
    try:
        sol = solve(rows, rhs, chart)
    except LinearSolveError as err:
        raise ExprError(f"bivector system inconsistent: {err}") from None
    for a in sol.assumptions:
        if a not in assumptions:
            assumptions.append(a)
    # images[b] is the column X_b; Lambda^{ij} = <dx_j, Lambda^#(dx_i)> = images[i][j]
    images = list(zip(*sol.values))
    lam = MultiVec(chart, 2, {
        (i, j): images[i][j] for i in range(n) for j in range(i + 1, n)
    })
    # re-verify both defining identities and antisymmetry of the images
    for i in range(n):
        for j in range(n):
            if not (images[i][j] + images[j][i]).is_symbolic_zero:
                raise ExprError("bivector images are not antisymmetric")
    if not sharp1(lam, c.theta).is_symbolic_zero:
        raise ExprError("Lambda^#(theta) != 0 after assembly")
    for b in range(n):
        x = MultiVec(chart, 1, {(j,): images[b][j] for j in range(n)})
        residual = (
            interior(x, sym)
            + Form.basis(chart, b)
            - c.theta.scale(e.component(b))
        )
        if not residual.is_symbolic_zero:
            raise ExprError("bivector defining identity fails after assembly")
    return lam, assumptions


def contact_jacobi(c: TwistedContact) -> TwistedJacobi:
    """Induced twisted Jacobi structure (Lambda, E, omega), unchecked."""
    return TwistedJacobi(c.chart, contact_bivector(c)[0], reeb(c)[0], c.omega)


def jacobi_from_contact(
    c: TwistedContact,
    samples: Optional[Sequence[Sequence[float]]] = None,
    tol: float = 1e-9,
) -> tuple[TwistedJacobi, CheckReport]:
    """Induced twisted Jacobi structure (Lambda, E, omega) with verification."""
    j = contact_jacobi(c)
    report = CheckReport(f"induced Jacobi structure on {c.chart.name}")
    for a in reeb(c)[1] + contact_bivector(c)[1]:
        if a not in report.notes:
            report.note(a)
    report.merge(check_twisted_jacobi(j, samples, tol))
    return j, report


def symplectization(theta: Form, omega: Form, big: Chart) -> Form:
    """The exact twisted symplectic form d(e^s theta) + e^s omega on
    big = chart x R, where s is the last coordinate of big."""
    chart = theta.chart
    es = Expr.exp(Expr.coord(big, big.coords[-1]))
    incl = SmoothMap(big, chart, tuple(Expr.coord(big, x) for x in chart.coords))
    return ext_d(pullback(incl, theta).scale(es)) + pullback(incl, omega).scale(es)


def inverse_relation_residuals(lam: MultiVec, big_sym: Form) -> list[tuple[str, Form]]:
    """(x, i(Lambda^# dx)Omega - sigma dx) for each coordinate x of Omega's
    chart; all vanish when the bivector inverts Omega."""
    basis = [Form.basis(big_sym.chart, b) for b in range(big_sym.chart.dim)]
    return [(x, interior(sharp1(lam, dx), big_sym) - dx.scale(SYMPLECTIC_INVERSE_SIGN))
            for x, dx in zip(big_sym.chart.coords, basis)]


def contact_poissonization_check(
    c: TwistedContact,
    samples: Optional[Sequence[Sequence[float]]] = None,
    tol: float = 1e-9,
) -> CheckReport:
    """The homogeneous bivector on chart x R inverts d(e^s theta) + e^s omega."""
    # the samples live on chart x R, so the base identities draw their own
    j, report = jacobi_from_contact(c, None, tol)
    h = poissonize(j)
    big_sym = symplectization(c.theta, c.omega, h.chart)
    report.note("symplectic inverse convention: "
                f"i(Lambda^# zeta)Omega = {SYMPLECTIC_INVERSE_SIGN:+d} zeta")
    for coord, residual in inverse_relation_residuals(h.lam, big_sym):
        report.add(f"inverse relation on basis covector {coord}",
                   tensor_zero_verdict(residual, samples, tol))
    report.add("bivector homogeneity L_Z(Lambda~) = -Lambda~",
               tensor_zero_verdict(lie(h.z, h.lam) + h.lam, samples, tol))
    report.add("nondegeneracy of the twisted symplectic form", nonvanishing_verdict(
        pfaffian(big_sym), samples, tol, "Pfaffian of the twisted symplectic form"))
    return report

