"""The contact Jacobi pair (E, Lambda) against the inverse of the bordered
matrix, written in Pfaffian minors (Lichnerowicz).

On a (2n+1)-dimensional chart let sigma = d theta + omega and M the
antisymmetric (2n+2) x (2n+2) matrix with the border first:

    M = [[0, theta], [-theta^T, sigma]],   indices 0 (border), 1, ..., 2n+1.

For w = (0, E), the Reeb conditions theta(E) = 1 and i(E)sigma = 0 read
w^T M = -e_0^T, so E^k = -(M^-1)_{0,k}; for w = (-E^b, Lambda^# dx_b) the
bivector's conditions read w^T M = -e_b^T, so Lambda^{bk} = -(M^-1)_{b,k}.
The inverse of an antisymmetric matrix in Pfaffian minors is, for k < l,

    (M^-1)_{k,l} = (-1)^(k+l) Pf(M without k, l) / Pf(M)

([[0, a], [-a, 0]]^-1 has -1/a above the diagonal), so with 0-based chart
indices i < j

    E^i         = (-1)^i       Pf(sigma without i)   / Pf(M),
    Lambda^{ij} = (-1)^(i+j+1) Pf(M without i+1, j+1) / Pf(M).

The Pfaffians here are a dense expansion along the first row, written for
this test; and theta ^ sigma^n, whose coefficient ``volume`` takes from
Pf(M), is checked against the wedge power itself.
"""

import math
import random
from fractions import Fraction

import pytest

from twistcheck.contact import TwistedContact, contact_bivector, reeb
from twistcheck.expr import Chart, Expr, parse
from twistcheck.groupoid import pair_groupoid
from twistcheck.tensor import Form, wedge


class Bordered:
    """Pfaffian minors of M, memoized over index sets."""

    def __init__(self, c: TwistedContact):
        self.chart = c.chart
        self.theta = c.theta
        self.sigma = c.symplectic_part
        self.memo = {(): Expr.one(c.chart)}

    def entry(self, k: int, l: int) -> Expr:
        # k < l; index 0 is the border
        if k == 0:
            return self.theta.component(l - 1)
        return self.sigma.component(k - 1, l - 1)

    def pf(self, idx: tuple) -> Expr:
        out = self.memo.get(idx)
        if out is None:
            out = Expr.zero(self.chart)
            if len(idx) % 2 == 0:
                first, rest = idx[0], idx[1:]
                for p, l in enumerate(rest):
                    a = self.entry(first, l)
                    if a.is_symbolic_zero:
                        continue
                    term = a * self.pf(rest[:p] + rest[p + 1:])
                    out = out - term if p % 2 else out + term
            self.memo[idx] = out
        return out

    def without(self, *drop: int) -> Expr:
        return self.pf(tuple(k for k in range(self.chart.dim + 1) if k not in drop))


def assert_pair_matches_oracle(c: TwistedContact) -> None:
    m = Bordered(c)
    n = c.chart.dim
    pf_m = m.without()
    assert not pf_m.is_symbolic_zero
    e, _ = reeb(c)
    lam, _ = contact_bivector(c)
    for i in range(n):
        want = m.without(0, i + 1) / pf_m
        want = -want if i % 2 else want
        assert e.component(i).equals(want), (c.chart.name, i)
        for j in range(i + 1, n):
            want = m.without(i + 1, j + 1) / pf_m
            want = want if (i + j) % 2 else -want
            assert lam.component(i, j).equals(want), (c.chart.name, i, j)


def wedge_power_volume(c: TwistedContact) -> Expr:
    top = c.theta
    for _ in range(c.half_rank):
        top = wedge(top, c.symplectic_part)
    return top.component(*range(c.chart.dim))


def contact(chart: Chart, theta: dict, omega: dict) -> TwistedContact:
    def form(degree, comps):
        return Form(chart, degree, {
            tuple(chart.index(x) for x in key): parse(text, chart)
            for key, text in comps.items()})

    return TwistedContact(chart, form(1, theta), form(2, omega))


R3 = Chart("R3", ("x", "y", "z"))
STD_THETA = {("z",): "1", ("x",): "-y"}


def darboux(k: int) -> TwistedContact:
    """theta = dz - sum y_i dx_i on R^(2k+1), omega = (1/3) x2 dx1^dy1 +
    (1/5) dx2^dy2."""
    xs = [f"x{i}" for i in range(1, k + 1)]
    ys = [f"y{i}" for i in range(1, k + 1)]
    chart = Chart(f"R{2 * k + 1}", tuple(xs + ys + ["z"]))
    theta = {("z",): "1", **{(x,): f"-{y}" for x, y in zip(xs, ys)}}
    return contact(chart, theta, {("x1", "y1"): "1/3*x2", ("x2", "y2"): "1/5"})


def small_poly(rng: random.Random) -> str:
    """A polynomial of degree <= 2 in x, y, z bounded by 1/2 on [-1, 1]^3,
    like the twists of the batch workload's poly-twist family."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.choice((-1, 1)), rng.choice((6, 8, 12)))
        mon = "*".join(rng.choices("xyz", k=rng.randint(0, 2))) or "1"
        terms.append(f"({c})*{mon}")
    return " + ".join(terms)


def poly_twist(rng: random.Random) -> TwistedContact:
    return contact(R3, STD_THETA, {("x", "y"): small_poly(rng)})


def conformal(rng: random.Random) -> TwistedContact:
    """(e^L theta, c e^L dx^dy) for an affine L and a constant c."""
    a, b, d = (Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(3))
    el = f"exp(({a})*x + ({b})*y + ({d})*z)"
    c = Fraction(rng.choice((-1, 1)), rng.randint(2, 5))
    return contact(R3, {("z",): el, ("x",): f"-y*{el}"}, {("x", "y"): f"({c})*{el}"})


def test_oracle_on_the_bundled_bases(std_contact, twisted_contact):
    for c in (std_contact, twisted_contact):
        assert_pair_matches_oracle(c)


def test_oracle_on_the_batch_families():
    rng = random.Random(14)
    for _ in range(6):
        assert_pair_matches_oracle(poly_twist(rng))
        assert_pair_matches_oracle(conformal(rng))


@pytest.mark.parametrize("k", [2, 3])
def test_oracle_on_darboux_bases_and_their_pair_charts(k):
    base = darboux(k)
    assert_pair_matches_oracle(base)
    assert_pair_matches_oracle(pair_groupoid(base).contact)


def test_volume_is_the_wedge_power(std_contact, twisted_contact):
    rng = random.Random(5)
    cases = [std_contact, twisted_contact, poly_twist(rng), conformal(rng), darboux(2),
             pair_groupoid(std_contact).contact]
    for c in cases:
        got = c.volume
        assert list(got.comps) in ([tuple(range(c.chart.dim))], [])
        assert got.component(*range(c.chart.dim)).equals(wedge_power_volume(c)), c.chart.name
        m = Bordered(c)
        assert got.component(*range(c.chart.dim)).equals(
            m.without() * math.factorial(c.half_rank))
