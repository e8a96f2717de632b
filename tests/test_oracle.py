"""The expression ring against an independent oracle, sympy's rational
function fields.

Random poly-exp quotients on R2 with mixed ``int`` and ``Fraction``
coefficients are built twice: as ``Expr`` and in the field
QQ(x, y, t, X, Y), where ``t = e^(1/Q)``, ``X = e^(x/Q)`` and ``Y = e^(y/Q)``,
so that ``exp(c + a*x + b*y) = t^(Qc) X^(Qa) Y^(Qb)``.  These five are
algebraically independent, so two poly-exp quotients are equal iff their
field images are.  A third coordinate ``w`` with ``W = e^(w/Q)``, and a finer
``t`` for rational scales, serve the maps that only move coordinates.  Each
operation (``+``, ``-``, ``*``, ``/``, ``diff``, ``subst``, ``rechart``) is
done on both sides and the results are compared exactly;
sympy keeps its field elements in lowest terms, so equality there is ``==``.
The zero test is checked against the same images: ``is_zero`` passes exactly
when the image is zero, and never by sampling.

The Schouten self-bracket of polynomial bivectors is checked against the
coordinate formula, with the sign pinned by the Jacobiator,
(1/2)[L,L](df,dg,dh) = {f,{g,h}} + cyclic for {f,g} = L(df,dg).  The two
residuals of ``check_twisted_jacobi`` are checked the same way, component by
component, for random R3 structures with quotient and exp components.
"""

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, assume, example, given, settings, strategies as st

from twistcheck import jacobi as jacobi_mod
from twistcheck.expr import Chart, Expr, ExprError, is_zero, numerator_content, parse
from twistcheck.jacobi import TwistedJacobi, check_twisted_jacobi
from twistcheck.rational import Rational
from twistcheck.report import nonvanishing_verdict
from twistcheck.tensor import Form, MultiVec, SmoothMap, _extend, differential, pullback, schouten

CH = Chart("R2", ("x", "y"))
K, FX, FY, FT, FEX, FEY, FW, FEW = sympy.field("x y t X Y w W", sympy.QQ)
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


def field_term(c, mon, exps, q=Q, gens=((FX, FEX), (FY, FEY))):
    """c x^mon exp(exps) in K, with ``gens`` the (coordinate, e^(coordinate/q))
    generators of the chart's coordinates and t = e^(1/q)."""
    c = Fraction(c)
    powers = [q * Fraction(e) for e in exps]
    assert all(p.denominator == 1 for p in powers), exps
    out = K(sympy.Rational(c.numerator, c.denominator)) * FT ** int(powers[0])
    for (g, eg), k, p in zip(gens, mon, powers[1:]):
        out *= g ** k * eg ** int(p)
    return out


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


def field_poly(p, *chart):
    return sum((field_term(c, m, exps, *chart) for (m, exps), c in p.items()), K(0))


def to_field(e: Expr, *chart):
    """e in K; ``chart`` is (q, gens) of ``field_term`` for a chart other than CH."""
    return field_poly(e.num, *chart) / field_poly(e.den, *chart)


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


def assert_exact_verdict(e: Expr, image) -> None:
    v = is_zero(e)
    assert v.kind != "SampledZero" and v.passed == (image == 0), (str(e), str(v))


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
        assert_exact_verdict(e, want)


# a source term whose exp argument is e0 + h*(x + y), and the field of
# such quotients, QQ(x, y, t, W) with W = e^((x + y)/Q)
diagonal_terms = st.tuples(rationals, st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           st.tuples(halves, halves))
diagonal_quotients = st.tuples(st.lists(diagonal_terms, min_size=1, max_size=3),
                               st.lists(diagonal_terms, max_size=2))
K2, GX, GY, GT, GW = sympy.field("x y t W", sympy.QQ)


def build_diagonal(q) -> tuple[Expr, object]:
    """numerator / (2 + denominator terms), as Expr and in K2."""
    def side(poly):
        e, _ = build([(c, mon, (e0, h, h)) for c, mon, (e0, h) in poly])
        f = K2(0)
        for c, (mx, my), (e0, h) in poly:
            c = Fraction(c)
            f += (K2(sympy.Rational(c.numerator, c.denominator)) * GX ** mx * GY ** my
                  * GT ** int(Q * Fraction(e0)) * GW ** int(Q * Fraction(h)))
        return e, f

    (num, fnum), (den, fden) = side(q[0]), side(q[1])
    assume(not (den + 2).is_symbolic_zero)
    return num / (den + 2), fnum / (fden + 2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagonal_quotients, quotients, st.integers(-2, 2), st.integers(-2, 2))
def test_subst_of_quotient_images_matches_sympy(qa, qr, s, k):
    # x -> s*y + k + r and y -> x + 1 - r for a random quotient r: every
    # image is a quotient, and x + y -> s*y + x + k + 1 is affine only after
    # r cancels, so every exp argument of the source stays affine
    a, fa = build_diagonal(qa)
    r, fr = build_quotient(qr)
    x, y = Expr.coord(CH, "x"), Expr.coord(CH, "y")
    images = [FY * s + k + fr, FX + 1 - fr, FT, FT ** (k + 1) * FEY ** s * FEX]
    want = field_subst(fa, images)
    got = a.subst(CH, [y * s + k + r, x + 1 - r])
    assert exact_types(got)
    assert to_field(got) == want, (str(a), str(r), str(got))
    assert_exact_verdict(got, want)


def test_subst_rejects_a_denominator_that_vanishes_identically():
    x, y = Expr.coord(CH, "x"), Expr.coord(CH, "y")
    r = Expr.exp(y / 2) / (x + 2)
    a = Expr.exp(x + y) / (x - y)
    with pytest.raises(ExprError, match="denominator vanish identically"):
        a.subst(CH, [y + r, y + r])
    # the same quotient image is fine where the denominator survives
    got = a.subst(CH, [y + r, x - r])
    fr = FEY / (FX + 2)
    assert to_field(got) == field_subst(GW ** 2 / (GX - GY), [FY + fr, FX - fr, FT, FEX * FEY])


# maps that only move coordinates, from CH to the chart (y, w, x): x_i goes
# to c x_k or to a constant; on the target the field reads t = e^(1/MQ),
# finer than e^(1/Q), so that a scale or constant with denominator 2 or 3
# keeps every exp exponent integral
WIDE = Chart("W", ("y", "w", "x"))
WIDE_GENS = ((FY, FEY), (FW, FEW), (FX, FEX))
MQ = 6 * Q
moves = st.one_of(
    st.tuples(st.integers(0, 2), st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))),
    st.tuples(st.none(), st.sampled_from((0, 0, 1, -1, Fraction(1, 3), Fraction(-3, 2)))),
)


def move_image(move):
    """The image on WIDE, and the field images of the source coordinate and
    of its exp generator e^(x_i/Q) = e^(c x_k/Q), read with t = e^(1/MQ)."""
    k, c = move
    if k is None:
        return Expr.const(WIDE, c), K(sympy.Rational(c)), FT ** int(MQ // Q * c)
    g, eg = WIDE_GENS[k]
    return (Expr.const(WIDE, c) * Expr.coord(WIDE, WIDE.coords[k]),
            K(sympy.Rational(c)) * g, eg ** int(MQ // Q * c))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(quotients, moves, moves)
def test_relabelling_subst_and_rechart_match_sympy(qa, mx, my):
    a, fa = build_quotient(qa)
    assert to_field(a.rechart(WIDE), Q, WIDE_GENS) == fa
    (ex, fx, fex), (ey, fy, fey) = (move_image(m) for m in (mx, my))
    assert ex.as_move() == mx and ey.as_move() == my
    try:
        want = field_subst(fa, [fx, fy, FT ** (MQ // Q), fex, fey])
    except ZeroDivisionError:
        with pytest.raises(ExprError, match="denominator vanish identically"):
            a.subst(WIDE, [ex, ey])
        return
    got = a.subst(WIDE, [ex, ey])
    assert exact_types(got)
    assert to_field(got, MQ, WIDE_GENS) == want, (str(a), mx, my, str(got))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.lists(quotients, min_size=2, max_size=2), moves, moves)
# dx ^ dy goes to -(1/2) dy ^ dx, and to zero on the diagonal
@example(2, [([(1, (1, 0), (0, 1, 0))], [])] * 2, (2, Fraction(1, 2)), (0, 1))
@example(2, [([(1, (1, 0), (0, 1, 0))], [])] * 2, (1, 2), (1, -1))
def test_relabelling_pullback_matches_the_wedge_of_differentials(degree, qs, mx, my):
    # a form on CH pulled back to (y, w, x) by x -> image, y -> image
    parts = [build_quotient(q)[0] for q in qs]
    comps = dict(zip(itertools.combinations(range(2), degree), parts))
    a = Form(CH, degree, comps)
    phi = SmoothMap(WIDE, CH, tuple(move_image(m)[0] for m in (mx, my)))
    assert phi.moves == (mx, my)
    try:
        want = _extend(a, lambda j: differential(phi.components[j]), Form, WIDE,
                       phi.pull_scalar)
    except ExprError:
        with pytest.raises(ExprError, match="denominator vanish identically"):
            pullback(phi, a)
        return
    got = pullback(phi, a)
    assert list(got.comps) == list(want.comps)
    for key, v in want.comps.items():
        assert str(got.comps[key]) == str(v), key


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(quotients, min_size=2, max_size=3))
def test_sums_in_two_orders_differ_by_an_exact_zero(qs):
    parts = [build_quotient(q) for q in qs]
    forward = sum((e for e, _ in parts), Expr.zero(CH))
    backward = sum((e for e, _ in reversed(parts)), Expr.zero(CH))
    assert_exact_verdict(forward - backward, K(0))
    assert is_zero(forward - backward).kind == "SymbolicZero"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(quotients, polys, polys)
def test_nested_denominator_sums_match_sympy(qa, nb, qq):
    # a = n_a / D and b = n_b / (D q): the sum is taken over D q, so its
    # denominator has no more terms than the larger input's
    a, fa = build_quotient(qa)
    num_b, fnum_b = build(nb)
    q, fq = build(qq)
    assume(not (q + 3).is_symbolic_zero)
    d, fd = build(qa[1]) if qa[1] else (Expr.zero(CH), K(0))
    b, fb = num_b / ((d + 2) * (q + 3)), fnum_b / ((fd + 2) * (fq + 3))
    # nested as normal forms: the smaller denominator divides the larger
    assume(a.has_denominator and b.has_denominator)
    assume(not (Expr(CH, b.den) / Expr(CH, a.den)).has_denominator)
    for s in (a + b, b + a, a - b):
        assert exact_types(s)
        assert len(s.den) <= max(len(a.den), len(b.den)), (str(a), str(b), str(s))
    assert to_field(a + b) == fa + fb and to_field(b + a) == fa + fb
    assert to_field(a - b) == fa - fb


@settings(max_examples=25, deadline=None, derandomize=True)
@given(quotients)
def test_a_tiny_nonzero_quotient_is_nonzero(q):
    # 1e-12 times an O(1) quotient: below tolerance wherever it is sampled,
    # but its canonical numerator is not empty
    a, fa = build_quotient(q)
    assume(fa != 0)
    tiny = Expr.const(CH, Fraction(1, 10**12)) * a
    assert_exact_verdict(tiny, fa)
    v = is_zero(tiny)
    assert v.kind == "NonZero" and v.assumptions[0].startswith("leading term: ")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(quotients)
def test_the_stated_domain_factors_the_numerator(q):
    # the numerator of a nonzero quotient is u * x^m * p, u a unit c * e^L;
    # the open-condition verdict states p (unless it is 1) and x^m
    a, fa = build_quotient(q)
    assume(fa != 0)
    unit, m, p = numerator_content(a)
    fu = to_field(unit)
    assert len(fu.numer.terms()) == len(fu.denom.terms()) == 1
    assert not any(any(mon[:2]) for mon, _ in (*fu.numer.terms(), *fu.denom.terms()))
    assert fu * FX ** m[0] * FY ** m[1] * to_field(p) == field_poly(a.num)
    # p keeps no monomial content
    for i in range(2):
        assert min(mon[i] for mon, _ in to_field(p).numer.terms()) == 0
    v = nonvanishing_verdict(a, "t")
    assert v.kind == "SymbolicZero"
    (domain,) = v.assumptions
    conditions = domain.removeprefix("t nonzero where ").split(", ")
    coords = [f"{x} != 0" for x, k in zip(CH.coords, m) if k]
    if len(a.num) == 1 and not any(m):
        assert domain == "t vanishes nowhere"
    elif len(p.num) == 1:
        assert conditions == coords
    else:
        stated, *rest = conditions
        assert rest == coords and stated.endswith(" != 0")
        # the stated p, read back, times u x^m is the numerator
        fp = to_field(parse(stated.removesuffix(" != 0"), CH))
        assert fu * FX ** m[0] * FY ** m[1] * fp == field_poly(a.num)


def poly_terms(dim: int):
    return st.lists(st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(0, 2)] * dim)),
                    max_size=3)


def to_sympy(e: Expr, syms):
    def poly(p):
        out = sympy.Integer(0)
        for (mon, exps), c in p.items():
            assert not any(exps)
            out += sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
                *(s ** k for s, k in zip(syms, mon)))
        return out

    return poly(e.num) / poly(e.den)


@pytest.mark.parametrize("coords", [("x", "y", "z"), ("x", "y", "z", "w")])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_schouten_self_bracket_matches_sympy(coords, data):
    chart, syms, n = Chart(f"R{len(coords)}", coords), sympy.symbols(coords), len(coords)
    xs = [Expr.coord(chart, c) for c in coords]
    comps, lam = {}, sympy.zeros(n, n)
    for i, j in itertools.combinations(range(n), 2):
        e, f = Expr.zero(chart), sympy.Integer(0)
        for c, mon in data.draw(poly_terms(n)):
            e = e + Expr.const(chart, c) * math.prod((x ** k for x, k in zip(xs, mon)),
                                                      start=Expr.one(chart))
            f += c * sympy.Mul(*(s ** k for s, k in zip(syms, mon)))
        comps[(i, j)], lam[i, j], lam[j, i] = e, f, -f
    got = schouten(MultiVec(chart, 2, comps), MultiVec(chart, 2, comps))
    for i, j, k in itertools.combinations(range(n), 3):
        want = 2 * sum(lam[i, l] * sympy.diff(lam[j, k], syms[l])
                       + lam[j, l] * sympy.diff(lam[k, i], syms[l])
                       + lam[k, l] * sympy.diff(lam[i, j], syms[l]) for l in range(n))
        have = to_sympy(got.comps.get((i, j, k), Expr.zero(chart)), syms)
        assert sympy.expand(have - want) == 0, (i, j, k)


# ---------------------------------------------------------------------------
# the twisted Jacobi identities on R3
#
# check_twisted_jacobi verifies that two tensors vanish,
#
#     res1 = (1/2)[L, L] + E ^ L - L#(d omega) - (L# omega) ^ E,
#     res2 = [E, L] + L#(i(E) d omega) + (L# i(E) omega) ^ E,
#
# with (L# z)^{a_1..a_k} = sum z_{j_1..j_k} L^{j_1 a_1} ... L^{j_k a_k}.  The
# oracle writes both out in coordinates, from the drawn data rather than from
# the Exprs built of it.  Its values are n / D^k with n in the polynomial ring
# QQ[x, y, z, t, X, Y, Z], X = e^(x/Q) as above, and D the structure's one
# denominator: sympy's field would take a gcd at every step, which is far too
# slow here.  Exp arguments have nonnegative coefficients, so every input
# image is a polynomial.

R3 = Chart("R3", ("x", "y", "z"))
P3, *G3 = sympy.ring("x y z t X Y Z", sympy.QQ)
XS3, ES3 = G3[:3], G3[4:]

terms3 = st.tuples(rationals, st.tuples(*[st.integers(0, 1)] * 3),
                   st.tuples(*[st.sampled_from((0, 0, 1, Fraction(1, 2)))] * 4))


def poly3(ts) -> tuple[Expr, object]:
    """A sum of terms c x^m e^(e0 + a.x), as an Expr and as its image in P3."""
    e, f = Expr.zero(R3), P3(0)
    for c, mon, (e0, *a) in ts:
        exponent = sum((Expr.coord(R3, x) * ai for x, ai in zip(R3.coords, a)),
                       Expr.const(R3, e0))
        e = e + Expr.const(R3, c) * math.prod(
            (Expr.coord(R3, x) ** m for x, m in zip(R3.coords, mon)), start=Expr.exp(exponent))
        c = Fraction(c)
        f = f + P3.from_dict({mon + tuple(int(Q * q) for q in (e0, *a)):
                              sympy.QQ(c.numerator, c.denominator)})
    return e, f


def ring3(e: Expr):
    """Numerator and denominator of an Expr in P3, both times the monomial in
    t, X, Y, Z that clears negative powers."""
    def keyed(p):
        return {mon + tuple(int(Q * a) for a in exps): Fraction(c) for (mon, exps), c in p.items()}

    num, den = keyed(e.num), keyed(e.den)
    low = [min(0, *(k[i] for k in [*num, *den])) for i in range(7)]

    def poly(terms):
        return P3.from_dict({
            tuple(k - m for k, m in zip(key, low)): sympy.QQ(c.numerator, c.denominator)
            for key, c in terms.items()})

    return poly(num), poly(den)


class OverD:
    """n / D^k for one fixed polynomial D."""

    def __init__(self, n, k: int, d):
        self.n, self.k, self.d = n, k, d

    def lifted(self, k: int):
        return self.n * self.d ** (k - self.k)

    def __add__(self, other):
        k = max(self.k, other.k)
        return OverD(self.lifted(k) + other.lifted(k), k, self.d)

    def __neg__(self):
        return OverD(-self.n, self.k, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return OverD(self.n * other.n, self.k + other.k, self.d)

    def diff(self, i: int):
        """d/dx_i, which acts on x_i and on X_i = e^(x_i/Q)."""
        def dp(p):
            return p.diff(XS3[i]) + ES3[i] * p.diff(ES3[i]) * sympy.QQ(1, Q)

        if self.k == 0:
            return OverD(dp(self.n), 0, self.d)
        return OverD(dp(self.n) * self.d - self.n * dp(self.d) * self.k, self.k + 1, self.d)


def twisted_jacobi_oracle(L, E, W, zero):
    """res1 and res2 by their coordinate formulas, keyed like the tensors,
    from the antisymmetric arrays L, W and the list E of OverD values."""
    n = range(3)
    dW = {(a, b, c): W[b][c].diff(a) + W[c][a].diff(b) + W[a][b].diff(c)
          for a in n for b in n for c in n}

    def total(values):
        return sum(values, zero)

    def lam_sharp(z, *idx):  # (L# z)^{idx} for z given on index tuples
        return total(z(*js) * math.prod((L[jr][ar] for jr, ar in zip(js, idx)), start=one)
                     for js in itertools.product(n, repeat=len(idx)))

    one = OverD(P3(1), 0, zero.d)
    B = [[lam_sharp(lambda p, q: W[p][q], a, b) for b in n] for a in n]
    C = [lam_sharp(lambda p: total(E[l] * W[l][p] for l in n), a) for a in n]
    a, b, c = 0, 1, 2
    half_ll = total(L[a][l] * L[b][c].diff(l) + L[b][l] * L[c][a].diff(l)
                    + L[c][l] * L[a][b].diff(l) for l in n)
    res1 = (half_ll + E[a] * L[b][c] + E[b] * L[c][a] + E[c] * L[a][b]
            - lam_sharp(lambda p, q, r: dW[p, q, r], a, b, c)
            - (B[a][b] * E[c] + B[b][c] * E[a] + B[c][a] * E[b]))
    res2 = {}
    for a, b in itertools.combinations(n, 2):
        lie = total(E[l] * L[a][b].diff(l) - L[l][b] * E[a].diff(l) - L[a][l] * E[b].diff(l)
                    for l in n)
        i_dw = lam_sharp(lambda p, q: total(E[l] * dW[l, p, q] for l in n), a, b)
        res2[(a, b)] = lie + i_dw + C[a] * E[b] - C[b] * E[a]
    return {(0, 1, 2): res1}, res2


def assert_residuals_match_oracle(lam, e, omega, d):
    """check_twisted_jacobi on the structure whose components are (Expr,
    OverD) pairs, keyed like the tensors: every component of both tested
    tensors, and each verdict, against the oracle.  Returns the report."""
    zero = OverD(P3(0), 0, d)
    L = [[zero] * 3 for _ in range(3)]
    W = [[zero] * 3 for _ in range(3)]
    for arr, comps in ((L, lam), (W, omega)):
        for (a, b), (_, v) in comps.items():
            arr[a][b], arr[b][a] = v, -v
    E = [e[(a,)][1] if (a,) in e else zero for a in range(3)]
    j = TwistedJacobi(R3, *(cls(R3, deg, {k: v[0] for k, v in comps.items()}) for cls, deg, comps
                            in ((MultiVec, 2, lam), (MultiVec, 1, e), (Form, 2, omega))))
    got, original = [], jacobi_mod.tensor_zero_verdict

    def recording(t):
        got.append(t)
        return original(t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jacobi_mod, "tensor_zero_verdict", recording)
        report = check_twisted_jacobi(j)
    assert [t.degree for t in got] == [3, 2]
    for tensor, expected, item in zip(got, twisted_jacobi_oracle(L, E, W, zero), report.items):
        assert set(tensor.comps) <= set(expected), tensor.comps
        for idx, value in expected.items():
            num, den = ring3(tensor.comps.get(idx, Expr.zero(R3)))
            assert num * d ** value.k == value.n * den, (item.name, idx)
        assert item.passed == all(not v.n for v in expected.values()), item.record()
        assert item.verdict.kind in ("SymbolicZero", "NonZero")
    return report


# no shrink phase: every shrink step reruns the check and the oracle on
# quotients, so shrinking a failure here takes minutes; the unshrunk
# example is reported at once
@settings(max_examples=25, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(terms3, st.lists(st.tuples(st.lists(terms3, max_size=2), st.booleans()),
                        min_size=9, max_size=9))
def test_twisted_jacobi_residuals_match_sympy(den_term, parts):
    # each component is a poly-exp sum, over the denominator 2 + den_term or not
    d_expr, d = poly3([den_term])
    d_expr, d = d_expr + 2, d + 2
    assume(not d_expr.is_symbolic_zero)
    comps = []
    for ts, over in parts:
        e, f = poly3(ts)
        comps.append((e / d_expr, OverD(f, 1, d)) if over else (e, OverD(f, 0, d)))
    keys2 = [(0, 1), (0, 2), (1, 2)]
    assert_residuals_match_oracle(dict(zip(keys2, comps[:3])),
                                  dict(zip([(0,), (1,), (2,)], comps[3:6])),
                                  dict(zip(keys2, comps[6:])), d)


def test_the_bundled_twisted_jacobi_structure_passes_and_a_changed_twist_fails():
    # twisted-r3's twisted Jacobi structure: L = (d/dx ^ d/dy - y d/dy ^ d/dz)/(x + 1),
    # E = d/dz, omega = x dx ^ dy
    (x, xp), (y, yp) = poly3([(1, (1, 0, 0), (0,) * 4)]), poly3([(1, (0, 1, 0), (0,) * 4)])
    d = xp + 1
    lam = {(0, 1): (1 / (x + 1), OverD(P3(1), 1, d)), (1, 2): (-y / (x + 1), OverD(-yp, 1, d))}
    e = {(2,): (Expr.one(R3), OverD(P3(1), 0, d))}
    assert assert_residuals_match_oracle(lam, e, {(0, 1): (x, OverD(xp, 0, d))}, d).passed
    # d omega = 0 on R3 either way, but (L# omega) ^ E no longer balances E ^ L
    report = assert_residuals_match_oracle(lam, e, {(0, 1): (x * 2, OverD(xp * 2, 0, d))}, d)
    assert not report.passed
    assert [i.verdict.kind for i in report.items] == ["NonZero", "SymbolicZero"]
