"""Twisted contact structures on odd-dimensional charts.

A structure is a contact 1-form theta together with a 2-form twist omega,
subject to the volume condition theta ^ (d theta + omega)^n != 0.  The
module solves symbolically for the Reeb field and the associated bivector,
assembles the induced twisted Jacobi structure, and checks that the
homogeneous Poisson bivector on chart x R inverts the exact twisted
symplectic form d(e^s theta) + e^s omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import (
    NONZERO,
    SAMPLED_ZERO,
    Chart,
    EvalError,
    Expr,
    ExprError,
    Verdict,
    sample_points,
)
from .linsolve import LinearSolveError, solve
from .report import CheckReport, tensor_zero_verdict
from .tensor import (
    Form,
    MultiVec,
    ext_d,
    interior,
    lie,
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
    "jacobi_from_contact",
    "contact_poissonization_check",
    "splitting_rank_check",
]


@dataclass
class TwistedContact:
    chart: Chart
    theta: Form
    omega: Form

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
        return ext_d(self.theta) + self.omega

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
    vol = c.volume()
    coeff = vol.component(*range(c.chart.dim))
    report = CheckReport(f"contact volume on {c.chart.name}")
    verdict = Verdict(SAMPLED_ZERO)
    if coeff.is_symbolic_zero:
        report.add("volume nonvanishing", _fail("volume is identically zero"))
        return report
    pts = list(samples) if samples is not None else sample_points(c.chart)
    minimum = None
    tested = 0
    for pt in pts:
        try:
            v = coeff.eval(pt)
        except EvalError:
            verdict.skipped.append(tuple(pt))
            continue
        tested += 1
        if minimum is None or abs(v) < abs(minimum):
            minimum = v
        if abs(v) <= tol:
            report.add("volume nonvanishing",
                       Verdict(NONZERO, witness=tuple(pt), value=v,
                               assumptions=["volume vanishes at a sample point"]))
            return report
    if tested == 0:
        report.add("volume nonvanishing", _fail("all sample points skipped"))
        return report
    verdict.assumptions.append(f"volume coefficient nonvanishing: {coeff}")
    verdict.assumptions.append(f"minimum |volume| over samples: {abs(minimum):.6g}")
    if coeff.has_denominator or _has_exp_factor(coeff):
        verdict.assumptions.append(
            "coefficient splits as exp factor (never zero) times rational part"
        )
    report.add("volume nonvanishing", verdict)
    return report


def _fail(reason: str) -> Verdict:
    return Verdict(NONZERO, assumptions=[reason])


def _has_exp_factor(e: Expr) -> bool:
    return any(any(k[1]) for k in e.num) or any(any(k[1]) for k in e.den)


def reeb(c: TwistedContact) -> tuple[MultiVec, list[str]]:
    """Solve i(E)theta = 1, i(E)(d theta + omega) = 0 for the Reeb field."""
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
    e = MultiVec(chart, 1, {(j,): sol.values[j] for j in range(n)})
    return e, sol.assumptions


def contact_bivector(c: TwistedContact) -> tuple[MultiVec, list[str]]:
    """Solve Lambda^#(theta) = 0, i(Lambda^# zeta)(d theta + omega) =
    -(zeta - <zeta,E> theta) per basis covector and assemble the bivector."""
    chart = c.chart
    n = chart.dim
    sym = c.symplectic_part()
    e, assumptions = reeb(c)
    images: list[list[Expr]] = []
    for b in range(n):
        # unknown X = Lambda^#(dx_b); constraints: theta(X)=0 and
        # sum_j X^j sym_{j,col} = -(delta_{b,col} - E^b theta_col)
        rows = [[c.theta.component(i) for i in range(n)]]
        rhs = [[Expr.zero(chart)]]
        for col in range(n):
            rows.append([sym.component(j, col) for j in range(n)])
            target = -(
                (Expr.one(chart) if col == b else Expr.zero(chart))
                - e.component(b) * c.theta.component(col)
            )
            rhs.append([target])
        try:
            sol = solve(rows, rhs, chart)
        except LinearSolveError as err:
            raise ExprError(f"bivector system inconsistent for basis {b}: {err}") from None
        for a in sol.assumptions:
            if a not in assumptions:
                assumptions.append(a)
        images.append(sol.values)
    # Lambda^{ij} = <dx_j, Lambda^#(dx_i)> = images[i][j]
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


def jacobi_from_contact(c: TwistedContact) -> tuple[TwistedJacobi, CheckReport]:
    """Induced twisted Jacobi structure (Lambda, E, omega) with verification."""
    e, a1 = reeb(c)
    lam, a2 = contact_bivector(c)
    j = TwistedJacobi(c.chart, lam, e, c.omega)
    report = CheckReport(f"induced Jacobi structure on {c.chart.name}")
    for a in a1 + a2:
        if a not in report.notes:
            report.note(a)
    report.merge(check_twisted_jacobi(j))
    return j, report


def _detect_inverse_sign() -> int:
    """Empirical sign sigma with i(Lambda~^# zeta)Omega~ = sigma * zeta,
    detected on the canonical case theta = dz run through the same
    poissonization pipeline (Omega~ = d(e^s dz))."""
    ch = Chart("canonical", ("z",))
    c0 = TwistedContact(ch, Form.basis(ch, 0), Form.zero(ch, 2))
    j, _ = jacobi_from_contact(c0)
    h = poissonize(j)
    big = h.chart
    es = Expr.exp(Expr.coord(big, big.coords[-1]))
    omega_big = ext_d(Form(big, 1, {(0,): es}))
    zeta = Form.basis(big, 0)
    contracted = interior(sharp1(h.lam, zeta), omega_big)
    if (contracted + zeta).is_symbolic_zero:
        return -1
    if (contracted - zeta).is_symbolic_zero:
        return 1
    raise ExprError("could not detect the symplectic inverse sign convention")


def contact_poissonization_check(
    c: TwistedContact,
    samples: Optional[Sequence[Sequence[float]]] = None,
    tol: float = 1e-9,
) -> CheckReport:
    """The homogeneous bivector on chart x R inverts d(e^s theta) + e^s omega."""
    j, report = jacobi_from_contact(c)
    h = poissonize(j)
    big = h.chart
    s_name = big.coords[-1]
    es = Expr.exp(Expr.coord(big, s_name))
    incl = SmoothMap(
        big, c.chart, tuple(Expr.coord(big, x) for x in c.chart.coords)
    )
    theta_big = pullback(incl, c.theta)
    omega_big = pullback(incl, c.omega)
    big_sym = ext_d(theta_big.scale(es)) + omega_big.scale(es)
    sigma = _detect_inverse_sign()
    report.note(f"symplectic inverse convention: i(Lambda^# zeta)Omega = {sigma:+d} zeta")
    for b in range(big.dim):
        zeta = Form.basis(big, b)
        residual = interior(sharp1(h.lam, zeta), big_sym) - zeta.scale(sigma)
        report.add(f"inverse relation on basis covector {big.coords[b]}",
                   tensor_zero_verdict(residual, samples, tol))
    report.add("bivector homogeneity L_Z(Lambda~) = -Lambda~",
               tensor_zero_verdict(lie(h.z, h.lam) + h.lam, samples, tol))
    # nondegeneracy of the twisted symplectic form at sample points
    pts = list(samples) if samples is not None else sample_points(big)
    m = big.dim
    verdict = Verdict(SAMPLED_ZERO)
    tested = 0
    for pt in pts:
        try:
            mat = np.zeros((m, m))
            for a in range(m):
                for b in range(a + 1, m):
                    v = big_sym.component(a, b).eval(pt)
                    mat[a, b] = v
                    mat[b, a] = -v
            det = float(np.linalg.det(mat))
        except EvalError:
            verdict.skipped.append(tuple(pt))
            continue
        tested += 1
        if abs(det) < 1e-9:
            verdict = Verdict(NONZERO, witness=tuple(pt), value=det,
                              assumptions=["twisted symplectic form degenerates"])
            break
    if tested == 0 and verdict.kind == SAMPLED_ZERO:
        verdict = _fail("all sample points skipped")
    report.add("nondegeneracy of the twisted symplectic form", verdict)
    return report


def splitting_rank_check(
    c: TwistedContact,
    samples: Optional[Sequence[Sequence[float]]] = None,
    tol: float = 1e-8,
) -> CheckReport:
    """Numeric rank 2n of (d theta + omega) and theta(E) = 1 at samples."""
    e, _ = reeb(c)
    sym = c.symplectic_part()
    n = c.chart.dim
    report = CheckReport(f"splitting rank on {c.chart.name}")
    pairing = interior(e, c.theta).as_scalar() - Expr.one(c.chart)
    report.add("theta(E) = 1", tensor_zero_verdict(pairing, samples, tol))
    pts = list(samples) if samples is not None else sample_points(c.chart)
    verdict = Verdict(SAMPLED_ZERO)
    tested = 0
    for pt in pts:
        try:
            mat = np.zeros((n, n))
            for a in range(n):
                for b in range(a + 1, n):
                    v = sym.component(a, b).eval(pt)
                    mat[a, b] = v
                    mat[b, a] = -v
            rank = int(np.linalg.matrix_rank(mat, tol=tol))
        except EvalError:
            verdict.skipped.append(tuple(pt))
            continue
        tested += 1
        if rank != n - 1:
            verdict = Verdict(NONZERO, witness=tuple(pt), value=float(rank),
                              assumptions=[f"rank {rank}, expected {n - 1}"])
            break
    if tested == 0 and verdict.kind == SAMPLED_ZERO:
        verdict = _fail("all sample points skipped")
    report.add("horizontal rank 2n", verdict)
    return report
