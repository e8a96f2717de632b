"""Twisted contact structures on odd-dimensional charts.

A structure is a contact 1-form theta together with a 2-form twist omega,
subject to the volume condition theta ^ (d theta + omega)^n != 0, whose
coefficient is n! times the Pfaffian of the bordered matrix [[0, theta],
[-theta^T, d theta + omega]].  The Reeb field E and the bivector Lambda are
that matrix's inverse, up to sign (Lichnerowicz).  A structure may come with
a proposal for them (a pair groupoid proposes its base's in block form);
otherwise the module finds both with one exact elimination of the bordered
system.  Either way one certification step re-verifies the defining
identities of E and Lambda against theta and d theta + omega, as identities
of the canonical form, so they hold wherever E and Lambda are defined.  The
solution's domain is therefore "every denominator factor of E and Lambda is
nonzero" (``expr.denominator_conditions``), the same whatever elimination or
proposal produced them.  The module
assembles the induced twisted Jacobi structure, and checks that the
homogeneous Poisson bivector on chart x R inverts the exact twisted
symplectic form d(e^s theta) + e^s omega.

A derived object is a cached property of the object it comes from: a
TwistedContact keeps its symplectic_part d theta + omega, its volume, its
solution (E, Lambda and their domain) and its jacobi structure, so every
check of one structure shares one solve and one TwistedJacobi.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

from .expr import Chart, Expr, ExprError, denominator_conditions
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
    SmoothMap,
)
from .jacobi import TwistedJacobi, check_twisted_jacobi

__all__ = [
    "TwistedContact",
    "check_contact",
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


class ContactSolution:
    """Certified E and Lambda, i(E)theta = 1, i(E)(d theta + omega) = 0,
    Lambda^#(theta) = 0 and i(Lambda^# zeta)(d theta + omega) = -(zeta -
    <zeta,E> theta), and ``domain``, where both are defined."""

    def __init__(self, e: MultiVec, lam: MultiVec):
        self.e = e
        self.lam = lam
        self.domain = denominator_conditions([*e.comps.values(), *lam.comps.values()])


# A candidate (E, images) for certification: images[b] = Lambda^#(dx_b).
Candidate = tuple[MultiVec, list[MultiVec]]


class TwistedContact:
    def __init__(self, chart: Chart, theta: Form, omega: Form,
                 proposal: Optional[Callable[[], Candidate]] = None):
        if chart.dim % 2 == 0:
            raise ExprError("a contact chart must be odd-dimensional")
        if theta.degree != 1 or omega.degree != 2:
            raise ExprError("contact data must be (1-form, 2-form)")
        if theta.chart != chart or omega.chart != chart:
            raise ExprError("contact parts must live on the chart")
        self.chart = chart
        self.theta = theta
        self.omega = omega
        self.proposal = proposal  # builds a candidate E and Lambda, if given

    @property
    def half_rank(self) -> int:
        return self.chart.dim // 2

    @functools.cached_property
    def symplectic_part(self) -> Form:
        """d theta + omega."""
        return ext_d(self.theta) + self.omega

    @functools.cached_property
    def volume(self) -> Form:
        """theta ^ (d theta + omega)^n, whose coefficient is n! times the
        Pfaffian of the bordered matrix [[0, theta], [-theta^T, d theta +
        omega]]."""
        coeff = pfaffian(self.symplectic_part, self.theta) * math.factorial(self.half_rank)
        return Form._trusted(self.chart, self.chart.dim, {tuple(range(self.chart.dim)): coeff})

    @functools.cached_property
    def solution(self) -> ContactSolution:
        """The Reeb field E and the bivector Lambda, proposed or eliminated,
        then certified."""
        return _certified(self, *(_solve(self) if self.proposal is None else self.proposal()))

    @functools.cached_property
    def jacobi(self) -> TwistedJacobi:
        """The induced twisted Jacobi structure (Lambda, E, omega), unchecked."""
        return TwistedJacobi(self.chart, self.solution.lam, self.solution.e, self.omega)


def check_contact(c: TwistedContact) -> CheckReport:
    """Nonvanishing of the contact volume theta ^ (d theta + omega)^n."""
    report = CheckReport(f"contact volume on {c.chart.name}")
    coeff = c.volume.component(*range(c.chart.dim))
    report.add("volume nonvanishing", nonvanishing_verdict(coeff, "volume"))
    return report


def _solve(c: TwistedContact) -> Candidate:
    """E and Lambda from one bordered system in the unknowns (X, mu):

        theta(X) = a,   sum_j X^j sigma_{j,col} + mu theta_col = r_col,

    sigma = d theta + omega.  The right-hand side (a, r) = (1, 0) gives
    (E, 0) and (0, -dx_b) gives (Lambda^# dx_b, -E^b), all N + 1 of them in
    one elimination.  Up to the sign of its first row and the order of the
    unknowns the matrix is the transposed bordered [[0, theta], [-theta^T,
    sigma]], nonsingular exactly where theta ^ sigma^n != 0.  The result is
    a candidate: ``solve`` drops a unit factor e^L common to every entry, as
    in a conformal structure (e^L theta, e^L omega), and puts e^-L back into
    the solution, and nothing of that is trusted before _certified."""
    chart = c.chart
    n = chart.dim
    sym = c.symplectic_part
    zero, one = Expr.zero(chart), Expr.one(chart)
    rows = [[zero] * (n + 1) for _ in range(n + 1)]
    for (i,), t in c.theta.comps.items():
        rows[0][i] = rows[1 + i][n] = t
    for (i, j), s in sym.comps.items():
        rows[1 + j][i] = s
        rows[1 + i][j] = -s
    rhs = [[one] + [zero] * n] + [[zero] + [-one if b == col else zero for b in range(n)]
                                  for col in range(n)]
    try:
        sol = solve(rows, rhs, chart)
    except LinearSolveError as err:
        raise ExprError(f"contact system is singular: {err}") from None
    e = MultiVec._trusted(chart, 1, {(j,): sol[j][0] for j in range(n)})
    images = [MultiVec._trusted(chart, 1, {(j,): sol[j][1 + b] for j in range(n)})
              for b in range(n)]
    return e, images


def _certified(c: TwistedContact, e: MultiVec, images: list[MultiVec]) -> ContactSolution:
    """The solution of a candidate E and images[b] = Lambda^#(dx_b), once
    certified against c's own theta and sigma = d theta + omega, whatever
    produced them: E must satisfy i(E)theta = 1 and i(E)sigma = 0, the
    images must be antisymmetric, and Lambda^#(theta) = 0 and
    i(Lambda^# dx_b)sigma = -(dx_b - E^b theta) must hold.  These fix E and
    Lambda wherever the volume is nonzero; a failure raises ExprError."""
    chart = c.chart
    sym = c.symplectic_part
    # Lambda^{ij} = <dx_j, Lambda^#(dx_i)>, the images' upper triangle
    lam = MultiVec._trusted(chart, 2, {
        (i, j): v for i, x in enumerate(images) for (j,), v in x.comps.items() if i < j
    })
    if not (interior(e, c.theta).as_scalar() - Expr.one(chart)).is_symbolic_zero:
        raise ExprError("Reeb identity i(E)theta = 1 fails after assembly")
    if not interior(e, sym).is_symbolic_zero:
        raise ExprError("Reeb identity i(E)(d theta + omega) = 0 fails after assembly")
    for i, x in enumerate(images):
        for (j,), v in x.comps.items():
            if not (v + images[j].component(i)).is_symbolic_zero:
                raise ExprError("bivector images are not antisymmetric")
    if not sharp1(lam, c.theta).is_symbolic_zero:
        raise ExprError("Lambda^#(theta) != 0 after assembly")
    for b, x in enumerate(images):
        residual = (
            interior(x, sym)
            + Form.basis(chart, b)
            - c.theta.scale(e.component(b))
        )
        if not residual.is_symbolic_zero:
            raise ExprError("bivector defining identity fails after assembly")
    return ContactSolution(e, lam)


def jacobi_from_contact(c: TwistedContact) -> tuple[TwistedJacobi, CheckReport]:
    """Induced twisted Jacobi structure (Lambda, E, omega) with verification."""
    report = CheckReport(f"induced Jacobi structure on {c.chart.name}")
    report.merge(check_twisted_jacobi(c.jacobi))
    return c.jacobi, report


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


def contact_poissonization_check(c: TwistedContact) -> CheckReport:
    """The homogeneous bivector on chart x R inverts d(e^s theta) + e^s omega."""
    j, report = jacobi_from_contact(c)
    h = j.poissonization
    big_sym = symplectization(c.theta, c.omega, h.chart)
    report.note("symplectic inverse convention: "
                f"i(Lambda^# zeta)Omega = {SYMPLECTIC_INVERSE_SIGN:+d} zeta")
    for coord, residual in inverse_relation_residuals(h.lam, big_sym):
        report.add(f"inverse relation on basis covector {coord}",
                   tensor_zero_verdict(residual))
    report.add("bivector homogeneity L_Z(Lambda~) = -Lambda~",
               tensor_zero_verdict(lie(h.z, h.lam) + h.lam))
    report.add("nondegeneracy of the twisted symplectic form", nonvanishing_verdict(
        pfaffian(big_sym), "Pfaffian of the twisted symplectic form"))
    return report

