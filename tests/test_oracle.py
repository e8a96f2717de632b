"""The expression ring against an independent oracle, sympy's rational
function fields.

Random poly-exp quotients on R2 with mixed ``int`` and ``Fraction``
coefficients are built twice: as ``Expr`` and in the field
QQ(x, y, t, X, Y), where ``t = e^(1/Q)``, ``X = e^(x/Q)`` and ``Y = e^(y/Q)``,
so that ``exp(c + a*x + b*y) = t^(Qc) X^(Qa) Y^(Qb)``.  These five are
algebraically independent, so two poly-exp quotients are equal iff their
field images are.  Each operation (``+``, ``-``, ``*``, ``/``, ``diff``,
``subst``) is done on both sides and the results are compared exactly;
sympy keeps its field elements in lowest terms, so equality there is ``==``.
"""

from fractions import Fraction

import sympy
from hypothesis import assume, given, settings, strategies as st

from twistcheck.expr import Chart, Expr
from twistcheck.rational import Rational

CH = Chart("R2", ("x", "y"))
K, FX, FY, FT, FEX, FEY = sympy.field("x y t X Y", sympy.QQ)
Q = 2  # every exp argument coefficient is a multiple of 1/Q

rationals = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from((2, 3))),
)
halves = st.sampled_from((0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 2)))
# a term: coefficient, monomial exponents, affine exp argument (c, a, b)
terms = st.tuples(rationals, st.tuples(st.integers(0, 2), st.integers(0, 2)),
                  st.tuples(halves, halves, halves))
polys = st.lists(terms, min_size=1, max_size=3)
quotients = st.tuples(polys, st.lists(terms, min_size=0, max_size=2))


def field_term(c, mon, exps):
    c = Fraction(c)
    powers = [Q * Fraction(q) for q in exps]
    assert all(p.denominator == 1 for p in powers), exps
    unit = FT ** int(powers[0]) * FEX ** int(powers[1]) * FEY ** int(powers[2])
    return K(sympy.Rational(c.numerator, c.denominator)) * FX ** mon[0] * FY ** mon[1] * unit


def build(poly) -> tuple[Expr, object]:
    x, y = Expr.coord(CH, "x"), Expr.coord(CH, "y")
    e, f = Expr.zero(CH), K(0)
    for c, (mx, my), (e0, ex, ey) in poly:
        e = e + Expr.const(CH, c) * x ** mx * y ** my * Expr.exp(e0 + ex * x + ey * y)
        f = f + field_term(c, (mx, my), (e0, ex, ey))
    return e, f


def build_quotient(q) -> tuple[Expr, object]:
    """numerator / (2 + denominator terms)."""
    num, fnum = build(q[0])
    den, fden = build(q[1]) if q[1] else (Expr.zero(CH), K(0))
    assume(not (den + 2).is_symbolic_zero)
    return num / (den + 2), fnum / (fden + 2)


def to_field(e: Expr):
    def poly(p):
        return sum((field_term(c, m, exps) for (m, exps), c in p.items()), K(0))

    return poly(e.num) / poly(e.den)


def field_dx(f):
    """d/dx on the field: x and X = e^(x/Q) both depend on x."""
    return f.diff(FX) + FEX / Q * f.diff(FEX)


def field_subst(f, images):
    """f with the generators (x, y, t, X, Y) replaced by field elements."""
    def poly(p):
        out = K(0)
        for mon, c in p.terms():
            term = K(c)
            for g, k in zip(images, mon):
                if k:
                    term *= g ** k
            out += term
        return out

    return poly(f.numer) / poly(f.denom)


def exact_types(e: Expr) -> bool:
    cs = [c for p in (e.num, e.den) for c in p.values()]
    return all(type(c) is int or (type(c) is Rational and c.denominator > 1) for c in cs)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(quotients, quotients, st.integers(-2, 2), st.integers(-2, 2))
def test_ring_matches_sympy(qa, qb, s, k):
    a, fa = build_quotient(qa)
    b, fb = build_quotient(qb)
    x, y = Expr.coord(CH, "x"), Expr.coord(CH, "y")
    # x -> s*y + k and y -> x + 1 keep exp arguments affine
    images = [FY * s + k, FX + 1, FT, FEY ** s * FT ** k, FEX * FT]
    results = {
        "normal form": (a, fa),
        "+": (a + b, fa + fb),
        "-": (a - b, fa - fb),
        "*": (a * b, fa * fb),
        "diff": (a.diff("x"), field_dx(fa)),
        "subst": (a.subst(CH, [y * s + k, x + 1]), field_subst(fa, images)),
    }
    if not b.is_symbolic_zero:
        results["/"] = (a / b, fa / fb)
    for name, (e, want) in results.items():
        assert exact_types(e), name
        assert to_field(e) == want, (name, str(e))
