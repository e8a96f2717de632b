"""The exact scalars of the open conditions against sympy.

Nondegeneracy of a 2-form is Pf(Omega) != 0, checked against the determinant
(Pf(A)^2 = det A) and against the wedge power (Omega^n = n! Pf(Omega) vol).
Independence of vector fields is X_1 ^ ... ^ X_k != 0, checked against the
rank.  Entries are random polynomials in x0 and x1 with rational
coefficients (two variables keep sympy's determinants of size 8, and of
sparse forms of size 12 and 14, under a second), built twice: as ``Expr``
and in sympy's polynomial ring QQ[x0, ..., x(n-1)], where sympy's
determinant (Bareiss) and rank (over the fraction field) are exact.
"""

import functools
import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from twistcheck.expr import Chart, Expr
from twistcheck.tensor import Form, MultiVec, pfaffian, wedge


class Side:
    """A chart and the matching sympy polynomial ring."""

    def __init__(self, n: int):
        names = tuple(f"x{i}" for i in range(n))
        self.chart = Chart(f"R{n}", names)
        self.ring, *self.gens = sympy.ring(",".join(names), sympy.QQ)
        self.coords = [Expr.coord(self.chart, c) for c in names]

    def random_poly(self, rng: random.Random) -> tuple[Expr, object]:
        e, p = Expr.zero(self.chart), self.ring(0)
        for _ in range(rng.randint(1, 2)):
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
            term_e = Expr.const(self.chart, c)
            term_p = self.ring(sympy.Rational(c.numerator, c.denominator))
            for i in rng.choices(range(min(2, len(self.gens))), k=rng.randint(0, 2)):
                term_e = term_e * self.coords[i]
                term_p = term_p * self.gens[i]
            e, p = e + term_e, p + term_p
        return e, p

    def to_ring(self, e: Expr):
        assert not e.has_denominator
        out = self.ring(0)
        for (mon, exps), c in e.num.items():
            assert not any(exps)
            term = self.ring(sympy.Rational(c.numerator, c.denominator))
            for g, k in zip(self.gens, mon):
                term = term * g ** k
            out += term
        return out


def random_two_form(side: Side, rng: random.Random, density: float):
    """A 2-form and its antisymmetric matrix over the ring."""
    n = len(side.gens)
    comps, mat = {}, [[side.ring(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                e, p = side.random_poly(rng)
                comps[(i, j)] = e
                mat[i][j], mat[j][i] = p, -p
    return Form(side.chart, 2, comps), DomainMatrix(mat, (n, n), side.ring.to_domain())


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("density", [0.35, 1.0])
def test_pfaffian_squared_is_the_determinant(n, density):
    side = Side(n)
    rng = random.Random(f"pf-det:{n}:{density}")
    for _ in range(2):
        form, mat = random_two_form(side, rng, density)
        pf = pfaffian(form)
        assert side.to_ring(pf) ** 2 == mat.det()
        if n % 2:
            assert pf.is_symbolic_zero


@pytest.mark.parametrize("n, density", [(12, 0.35), (14, 0.3)])
def test_sparse_pfaffians_of_larger_forms_square_to_the_determinant(n, density):
    # index sets of up to 14 bits, and a Pfaffian of a few dozen terms
    side = Side(n)
    form, mat = random_two_form(side, random.Random(f"pf-sparse:{n}"), density)
    pf = pfaffian(form)
    assert not pf.is_symbolic_zero
    assert side.to_ring(pf) ** 2 == mat.det()


def test_bordered_pfaffian_squares_to_the_bordered_determinant():
    # the border theta takes bit 0, ahead of the 13 coordinates: Pf of
    # [[0, theta], [-theta^T, Omega]] squared is its determinant
    n = 13
    side = Side(n)
    rng = random.Random("pf-bordered:13")
    form, mat = random_two_form(side, rng, 0.3)
    border, row = {}, [side.ring(0)] * n
    for i in range(n):
        if rng.random() < 0.5:
            border[(i,)], row[i] = side.random_poly(rng)
    pf = pfaffian(form, Form(side.chart, 1, border))
    inner = mat.to_list()
    bordered = [[side.ring(0)] + row] + [[-row[i]] + inner[i] for i in range(n)]
    det = DomainMatrix(bordered, (n + 1, n + 1), side.ring.to_domain()).det()
    assert not pf.is_symbolic_zero
    assert side.to_ring(pf) ** 2 == det


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pfaffian_times_factorial_is_the_top_wedge_power(n):
    side = Side(n)
    rng = random.Random(f"pf-wedge:{n}")
    for density in (0.35, 1.0):
        form, _ = random_two_form(side, rng, density)
        top = form
        for _ in range(n // 2 - 1):
            top = wedge(top, form)
        assert (pfaffian(form) * math.factorial(n // 2)).equals(top.component(*range(n)))


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_lift_wedge_is_nonzero_exactly_at_full_rank(n):
    side = Side(n)
    rng = random.Random(f"lift-rank:{n}")
    field = side.ring.to_domain().get_field()
    for trial in range(8):
        k = rng.randint(1, n)
        cols = []
        for _ in range(k):
            comps = {}
            for i in range(n):
                if rng.random() < 0.6:
                    comps[(i,)] = side.random_poly(rng)
            cols.append(comps)
        if trial % 2 and k > 1:
            # the last field is a polynomial combination of the first ones
            f, g = side.random_poly(rng), side.random_poly(rng)
            last = {}
            for (i,), (e, p) in cols[0].items():
                last[(i,)] = (f[0] * e, f[1] * p)
            for (i,), (e, p) in cols[1 % (k - 1)].items():
                old_e, old_p = last.get((i,), (Expr.zero(side.chart), side.ring(0)))
                last[(i,)] = (old_e + g[0] * e, old_p + g[1] * p)
            cols[-1] = last
        fields = [MultiVec(side.chart, 1, {i: e for i, (e, _) in c.items()}) for c in cols]
        top = functools.reduce(wedge, fields)
        mat = DomainMatrix([[field.convert(c[(i,)][1]) if (i,) in c else field.zero
                             for c in cols] for i in range(n)], (n, k), field)
        assert top.is_symbolic_zero == (mat.rank() < k), (n, trial)
