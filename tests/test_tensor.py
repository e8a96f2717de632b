"""Exterior calculus, Schouten bracket, sharp maps and chart maps."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistcheck import tensor
from twistcheck.expr import Chart, Expr, ExprError, _poly_diff
from twistcheck.report import tensor_zero_verdict
from twistcheck.tensor import (
    _sort_index,
    Form,
    MultiVec,
    ProjectabilityFailure,
    SmoothMap,
    differential,
    ext_d,
    increasing_indices,
    interior,
    lie,
    pullback,
    pushforward,
    schouten,
    sharp,
    sharp1,
    sharp_tensor,
    wedge,
)

R3 = Chart("R3", ("x", "y", "z"))
X, Y, Z = (Expr.coord(R3, c) for c in R3.coords)


def rand_poly(rng, chart=R3, deg=2):
    e = Expr.const(chart, Fraction(rng.randrange(-3, 4)))
    basis = [Expr.coord(chart, c) for c in chart.coords]
    for _ in range(deg):
        term = Expr.const(chart, Fraction(rng.randrange(-3, 4)))
        for _ in range(rng.randrange(0, 3)):
            term = term * rng.choice(basis)
        e = e + term
    return e


def rand_form(rng, degree, chart=R3):
    return Form(chart, degree,
                {idx: rand_poly(rng, chart) for idx in increasing_indices(chart.dim, degree)})


def rand_vec(rng, degree, chart=R3):
    return MultiVec(chart, degree,
                    {idx: rand_poly(rng, chart) for idx in increasing_indices(chart.dim, degree)})


def is_sym_zero(t):
    return tensor_zero_verdict(t).kind == "SymbolicZero"


def test_component_antisymmetry():
    w = wedge(Form.d_coord(R3, "x"), Form.d_coord(R3, "y"))
    assert w.component(0, 1).equals(Expr.one(R3))
    assert w.component(1, 0).equals(-Expr.one(R3))
    assert w.component(0, 0).is_symbolic_zero
    assert w.component(0, 2).is_symbolic_zero


def test_d_squared_zero():
    rng = random.Random(11)
    for _ in range(5):
        assert is_sym_zero(ext_d(ext_d(rand_form(rng, 1))))
        f = rand_poly(rng)
        assert is_sym_zero(ext_d(differential(f)))


def test_ext_d_is_cached_per_form():
    rng = random.Random(14)
    a = rand_form(rng, 1)
    da = ext_d(a)
    assert ext_d(a) is da
    fresh = ext_d(Form(R3, 1, dict(a.comps)))
    assert fresh is not da and is_sym_zero(fresh - da)
    # a sum, a scale and a component map are new forms: their differentials
    # are computed anew, not read from a's cache
    two = Expr.const(R3, 2)
    for b, want in ((a + a, da.scale(two)),
                    (a.scale(X), wedge(differential(X), a) + da.scale(X)),
                    (a.map_components(lambda c: c * X), wedge(differential(X), a) + da.scale(X))):
        assert b is not a and ext_d(b) is not da
        assert is_sym_zero(ext_d(b) - want)


def test_wedge_graded_commutativity_and_leibniz():
    rng = random.Random(12)
    a, b = rand_form(rng, 1), rand_form(rng, 1)
    assert is_sym_zero(wedge(a, b) + wedge(b, a))
    c = rand_form(rng, 2)
    # d(a^c) = da^c - a^dc for deg(a)=1
    assert is_sym_zero(ext_d(wedge(a, c)) - wedge(ext_d(a), c) + wedge(a, ext_d(c)))


def test_degree_above_dim_is_zero():
    four = wedge(wedge(Form.d_coord(R3, "x"), Form.d_coord(R3, "y")),
                 wedge(Form.d_coord(R3, "z"), Form.d_coord(R3, "x")))
    assert four.degree == 4 and is_sym_zero(four)
    top = rand_form(random.Random(1), 3)
    assert is_sym_zero(ext_d(top))


def test_tensors_store_nonzero_components_only():
    rng = random.Random(21)
    a, b = rand_form(rng, 1), rand_form(rng, 2)
    v, p = rand_vec(rng, 1), rand_vec(rng, 2)
    dx, dy = Form.d_coord(R3, "x"), Form.d_coord(R3, "y")
    poisson = MultiVec(R3, 2, {(0, 1): Expr.one(R3)})
    src = Chart("S", ("u", "v"))
    u, w = (Expr.coord(src, c) for c in src.coords)
    results = [
        wedge(a, b), wedge(a, a), ext_d(b), ext_d(differential(X * Y)),
        interior(v, b), interior(MultiVec.d_dx(R3, "z"), wedge(dx, dy)),
        lie(v, b), lie(v, p), lie(MultiVec.d_dx(R3, "z"), poisson),
        schouten(v, p), schouten(p, p), schouten(poisson, poisson),
        pullback(SmoothMap(src, R3, (u * w, u + w, w ** 2)), b),
        pullback(SmoothMap(src, R3, (u, u, w)), wedge(dx, dy)),
    ]
    for t in results:
        assert not any(c.is_symbolic_zero for c in t.comps.values())
    # the cases built to vanish store nothing at all
    for t in (results[1], results[3], results[5], results[8], results[11], results[13]):
        assert t.comps == {}


def test_zero_and_absent_components():
    assert Form.zero(R3, 2).comps == {}
    assert MultiVec.zero(R3, 1).component(1).is_symbolic_zero
    w = Form.basis(R3, 0, 1)
    assert w.component(0, 2).is_symbolic_zero
    assert w.component(2, 0).is_symbolic_zero
    assert Form(R3, 0, {(): Expr.zero(R3)}).as_scalar().is_symbolic_zero


@pytest.mark.parametrize("idx", [(0, 3), (-1, 2), (1, 0), (1, 1), (0,), (0, 1, 2)])
def test_invalid_multi_index_rejected(idx):
    for value in (X, Expr.zero(R3)):
        with pytest.raises(ExprError):
            Form(R3, 2, {idx: value})


def test_interior_contracts_first_slot():
    v = MultiVec.d_dx(R3, "x")
    w = wedge(Form.d_coord(R3, "x"), Form.d_coord(R3, "y"))
    assert is_sym_zero(interior(v, w) - Form.d_coord(R3, "y"))


def test_cartan_formula():
    rng = random.Random(13)
    for degree in (1, 2):
        x = rand_vec(rng, 1)
        a = rand_form(rng, degree)
        lhs = lie(x, a)
        rhs = interior(x, ext_d(a)) + ext_d(interior(x, a))
        assert is_sym_zero(lhs - rhs)


def test_lie_on_vector_is_commutator():
    rng = random.Random(14)
    x, y = rand_vec(rng, 1), rand_vec(rng, 1)
    f = rand_poly(rng)
    # [X, Y](f) = X(Y(f)) - Y(X(f))
    br = lie(x, y)
    assert br.of(f).equals(x.of(y.of(f)) - y.of(x.of(f)))


def test_schouten_graded_antisymmetry_and_jacobi():
    rng = random.Random(15)
    x, y = rand_vec(rng, 1), rand_vec(rng, 1)
    p = rand_vec(rng, 2)
    # [X, P] = -(-1)^{(1-1)(2-1)}[P, X] = -[P, X]
    assert is_sym_zero(schouten(x, p) + schouten(p, x))
    # graded Jacobi for degrees (1, 1, 2)
    j = (
        schouten(x, schouten(y, p))
        - schouten(y, schouten(x, p))
        - schouten(schouten(x, y), p)
    )
    assert is_sym_zero(j)


def test_schouten_self_bracket_of_nonintegrable_bivector():
    # Lambda = (dx + y dz) ^ dy has a nonzero self-bracket: the Jacobiator of
    # its bracket is the constant -1, which forces [L, L] = -2 dx^dy^dz.
    lam = MultiVec(R3, 2, {(0, 1): Expr.one(R3), (1, 2): -Y})
    expected = MultiVec(R3, 3, {(0, 1, 2): Expr.const(R3, -2)})
    assert is_sym_zero(schouten(lam, lam) - expected)


def test_schouten_pins_jacobiator():
    rng = random.Random(16)
    lam = rand_vec(rng, 2)
    f, g, h = (rand_poly(rng) for _ in range(3))

    def br(a, b):
        return sharp1(lam, differential(a)).of(b)

    jacobiator = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
    half_bracket = schouten(lam, lam).scale(Expr.const(R3, Fraction(1, 2)))
    applied = half_bracket.apply([differential(f), differential(g), differential(h)])
    assert jacobiator.equals(applied)


R4 = Chart("R4", ("x", "y", "z", "w"))


def rand_r4_vec(rng, degree):
    """Sparse random multivector on R4 whose components mix polynomials, an
    exp factor and a quotient."""
    coords = [Expr.coord(R4, c) for c in R4.coords]
    den = Expr.one(R4) / (coords[0] + Expr.const(R4, 2))
    vec = MultiVec.zero(R4, degree)
    while vec.is_symbolic_zero:
        comps = {}
        for idx in increasing_indices(R4.dim, degree):
            if rng.random() < 0.3:
                continue
            e = rand_poly(rng, R4)
            kind = rng.randrange(3)
            if kind == 1:
                e = e * Expr.exp(rng.choice(coords))
            elif kind == 2:
                e = e * den
            comps[idx] = e
        vec = MultiVec(R4, degree, comps)
    return vec


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("q", range(4))
def test_schouten_degree_grid(p, q):
    rng = random.Random(100 + 4 * p + q)
    a, b = rand_r4_vec(rng, p), rand_r4_vec(rng, q)
    ab = schouten(a, b)
    assert ab.degree == max(p + q - 1, 0)
    # graded antisymmetry [P,Q] = -(-1)^{(p-1)(q-1)} [Q,P]
    assert ab.equals(schouten(b, a).scale(-((-1) ** ((p - 1) * (q - 1)))))
    # a vector field brackets as the Lie derivative, a function as -i(df);
    # lie is schouten on multivectors, so the reference is ref_lie's Leibniz
    x = rand_r4_vec(rng, 1)
    assert schouten(x, b).equals(ref_lie(x, b))
    f = rand_r4_vec(rng, 0)
    want = (MultiVec.zero(R4, 0) if q == 0
            else -interior_multivec(differential(f.as_scalar()), b))
    assert schouten(f, b).equals(want)
    # graded Leibniz in the second slot
    for r in range(3):
        if p + q < 1 or p + r < 1:
            continue
        c = rand_r4_vec(rng, r)
        lhs = schouten(a, wedge(b, c))
        rhs = wedge(ab, c) + wedge(b, schouten(a, c)).scale((-1) ** ((p - 1) * q))
        assert lhs.equals(rhs), (p, q, r)


def interior_multivec(alpha, t):
    """i(alpha)T: a 1-form contracted into a multivector's first slot."""
    out = MultiVec.zero(t.chart, t.degree - 1)
    for (i,), ai in alpha.comps.items():
        for idx, c in t.comps.items():
            if i in idx:
                pos = idx.index(i)
                rest = idx[:pos] + idx[pos + 1:]
                term = MultiVec(t.chart, t.degree - 1, {rest: ai * c})
                out = out + (term if pos % 2 == 0 else -term)
    return out


def det_eval(t, args):
    """t(a_1, ..., a_k) by the determinant convention: the sum over stored
    I of t_I * sum over permutations s of sgn(s) * prod_r a_r^{I[s(r)]}."""
    total = Expr.zero(t.chart)
    for idx, c in t.comps.items():
        for perm in itertools.permutations(range(len(idx))):
            term = c
            for r, s in enumerate(perm):
                term = term * args[r].component(idx[s])
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            total = total + (-term if inversions % 2 else term)
    return total


def sharp_ref(lam, zeta):
    """<eta, sharp(zeta)> = Lambda(zeta, eta) on every basis covector eta."""
    return MultiVec(lam.chart, 1, {(j,): det_eval(lam, [zeta, Form.basis(lam.chart, j)])
                                   for j in range(lam.chart.dim)})


@pytest.mark.parametrize("p", range(4))
def test_evaluation_and_sharp_degree_grid(p):
    rng = random.Random(200 + p)
    z = Form(R4, p, rand_r4_vec(rng, p).comps)
    big_p = rand_r4_vec(rng, p)
    lam = rand_r4_vec(rng, 2)
    x = rand_r4_vec(rng, 1)
    vecs = [rand_r4_vec(rng, 1) for _ in range(p)]
    covecs = [Form(R4, 1, rand_r4_vec(rng, 1).comps) for _ in range(p)]
    assert z.apply(vecs).equals(det_eval(z, vecs))
    assert big_p.apply(covecs).equals(det_eval(big_p, covecs))
    zeta = Form(R4, 1, rand_r4_vec(rng, 1).comps)
    assert sharp1(lam, zeta).equals(sharp_ref(lam, zeta))
    # sharp(Lambda, z)^I = (-1)^p z(sharp dx_{i_1}, ..., sharp dx_{i_p})
    images = [sharp_ref(lam, Form.basis(R4, i)) for i in range(R4.dim)]
    sign = (-1) ** p
    s = sharp(lam, z)
    assert s.degree == p
    for idx in increasing_indices(R4.dim, p):
        want = det_eval(z, [images[i] for i in idx])
        assert s.component(*idx).equals(want if sign == 1 else -want), idx
    if p == 0:
        return
    # sharp_tensor(Lambda, z, X)^I = (-1)^p z(sharp dx_{i_1}, ..., sharp dx_{i_{p-1}}, X)
    r = sharp_tensor(lam, z, x)
    assert r.degree == p - 1
    for idx in increasing_indices(R4.dim, p - 1):
        want = det_eval(z, [images[i] for i in idx] + [x])
        assert r.component(*idx).equals(want if sign == 1 else -want), idx


def test_sharp_of_differential():
    lam = MultiVec(R3, 2, {(0, 1): Expr.one(R3)})
    v = sharp1(lam, differential(X))
    assert is_sym_zero(v - MultiVec.d_dx(R3, "y"))
    assert is_sym_zero(sharp1(lam, differential(Z)))


def test_pullback_functorial_and_commutes_with_d():
    src = Chart("S", ("u", "v"))
    u, v = (Expr.coord(src, c) for c in src.coords)
    phi = SmoothMap(src, R3, (u * v, u + v, v ** 2))
    rng = random.Random(17)
    a = rand_form(rng, 1)
    assert is_sym_zero(pullback(phi, ext_d(a)) - ext_d(pullback(phi, a)))
    mid = Chart("M", ("p", "q", "r"))
    p, q, r = (Expr.coord(mid, c) for c in mid.coords)
    psi = SmoothMap(mid, R3, (p + q, q, r * p))
    chi = SmoothMap(src, mid, (u, v, u * v))
    comp = psi.compose(chi)
    b = rand_form(rng, 2)
    assert is_sym_zero(pullback(comp, b) - pullback(chi, pullback(psi, b)))


def test_pushforward_along_a_projection_and_failure():
    big = Chart("B", ("x", "y", "t"))
    small = Chart("S", ("x", "y"))
    xs = [Expr.coord(big, c) for c in ("x", "y")]
    section = (Expr.coord(small, "x"), Expr.coord(small, "y"), Expr.zero(small))
    proj = SmoothMap(big, small, tuple(xs), section=section)
    t = Expr.coord(big, "t")
    good = MultiVec(big, 2, {(0, 1): Expr.coord(big, "x"), (0, 2): t})
    pushed = pushforward(proj, good)
    assert pushed.chart == small
    assert pushed.component(0, 1).equals(Expr.coord(small, "x"))
    bad = MultiVec(big, 2, {(0, 1): t})
    with pytest.raises(ProjectabilityFailure):
        pushforward(proj, bad)


def test_pushforward_along_reordered_coordinates():
    # the target coordinates (u, v, r) are the source's (w, y, z), out of order
    small = Chart("S", ("u", "v", "r"))
    u, v, r = (Expr.coord(small, c) for c in small.coords)
    kept = (3, 1, 2)
    proj = SmoothMap(R4, small, tuple(Expr.coord(R4, R4.coords[i]) for i in kept),
                     section=(Expr.zero(small), v, r, u))
    rng = random.Random(41)
    for degree in range(4):
        p = rand_tensor(rng, MultiVec, R4, degree, dropped=("x",))
        want = MultiVec(small, degree, {
            tidx: p.component(*(kept[t] for t in tidx)).subst(small, list(proj.section))
            for tidx in increasing_indices(small.dim, degree)})
        assert pushforward(proj, p).equals(want), degree
    # d/dy ^ d/dw is d/dv ^ d/du = -d/du ^ d/dv
    yw = MultiVec.basis(R4, 1, 3)
    assert pushforward(proj, yw).equals(-MultiVec.basis(small, 0, 1))


def test_pushforward_triangular_map_and_submersion():
    x, y, z, w = (Expr.coord(R4, c) for c in R4.coords)
    yi = y - x * x
    zi = z - x * yi
    phi = SmoothMap(R4, R4, (x, y + x * x, z + x * y, w + y * z),
                    section=(x, yi, zi, w - yi * zi))
    # a submersion R4 -> R3 that is no coordinate projection, with the
    # section w = 1; the fields d/dx - w d/dz, d/dy, d/dz map to the target
    # basis and K = d/dw - 2w d/dy - x d/dz spans its kernel
    a, b, c = (Expr.coord(R3, n) for n in R3.coords)
    one = Expr.one(R3)
    sub = SmoothMap(R4, R3, (x, y + w * w, z + x * w), section=(a, b - one, c - a, one))
    lifts = [MultiVec(R4, 1, {(0,): Expr.one(R4), (2,): -w}),
             MultiVec.basis(R4, 1), MultiVec.basis(R4, 2)]
    kernel = MultiVec(R4, 1, {(3,): Expr.one(R4), (1,): -2 * w, (2,): -x})
    rng, rng_sub = random.Random(43), random.Random(44)
    factors = [Expr.one(R4), Expr.exp(x), Expr.one(R4) / (x + 2)]
    for degree in range(4):
        p = MultiVec(R4, degree, {idx: rand_poly(rng, R4) * rng.choice(factors)
                                  for idx in increasing_indices(R4.dim, degree)})
        # functions of the target, pulled back, on the lifted basis, plus a
        # vertical part with any components
        q = MultiVec.zero(R4, degree)
        for tidx in increasing_indices(R3.dim, degree):
            term = MultiVec.scalar(rand_poly(rng_sub, R3).subst(R4, list(sub.components)))
            for t in tidx:
                term = wedge(term, lifts[t])
            q = q + term
        if degree:
            q = q + wedge(kernel, rand_tensor(rng_sub, MultiVec, R4, degree - 1))
        # P evaluated on the pulled-back target basis, moved by the section
        for f, t in ((phi, p), (sub, q)):
            pulled = [differential(comp) for comp in f.components]
            want = MultiVec(f.target, degree, {
                tidx: det_eval(t, [pulled[s] for s in tidx]).subst(f.target, list(f.section))
                for tidx in increasing_indices(f.target.dim, degree)})
            assert pushforward(f, t).equals(want), (f.target.name, degree)
    # a component that varies along the fibres is not basic
    with pytest.raises(ProjectabilityFailure):
        pushforward(sub, lifts[1].scale(w))


def test_pushforward_roundtrip():
    flip_comps = (Y, X, -Z)
    flip = SmoothMap(R3, R3, flip_comps, section=flip_comps)
    v = MultiVec(R3, 1, {(0,): X * Y, (2,): Expr.one(R3)})
    w = pushforward(flip, v)
    back = pushforward(flip, w)
    assert is_sym_zero(back - v)
    with pytest.raises(ExprError):
        # the declared inverse of a squashed coordinate cannot validate
        SmoothMap(R3, R3, (X, Y, Expr.zero(R3)), section=(X, Y, Expr.zero(R3)))


def test_pushforward_along_a_bad_section_raises():
    x, y = (Expr.coord(R2, c) for c in R2.coords)
    shear = SmoothMap(R2, R2, (x + y * y, y), section=(x - y * y, y))
    p = MultiVec(R2, 2, {(0, 1): x * y})
    assert pushforward(shear, p).equals(MultiVec(R2, 2, {(0, 1): (x - y * y) * y}))
    # a section set after construction, which is no left inverse: x y is
    # not basic along the map, whose fibres the section does not retract to
    bad = SmoothMap(R2, R2, (x + y * y, y))
    bad.section = (x, y)
    with pytest.raises(ProjectabilityFailure):
        pushforward(bad, p)


def test_smooth_map_section_validated():
    small = Chart("S", ("x", "y"))
    big = Chart("B", ("x", "y", "t"))
    with pytest.raises(ExprError):
        SmoothMap(
            big, small,
            (Expr.coord(big, "x"), Expr.coord(big, "y")),
            section=(Expr.coord(small, "y"), Expr.coord(small, "x"), Expr.zero(small)),
        )


def rand_component(rng, chart, dropped=()):
    """Zero, a polynomial, an exp term or a quotient, free of `dropped` coordinates."""
    basis = [Expr.coord(chart, c) for c in chart.coords if c not in dropped]
    kind = rng.randrange(5)
    if kind == 0:
        return Expr.zero(chart)
    e = Expr.const(chart, Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 2))))
    for _ in range(rng.randrange(1, 3)):
        e = e + rng.choice(basis) * rng.randrange(-2, 3)
    if kind == 3:
        e = e * Expr.exp(rng.choice(basis) * rng.randrange(-1, 2))
    if kind == 4:
        e = e / (rng.choice(basis) + rng.randrange(1, 3))
    return e


def rand_tensor(rng, cls, chart, degree, dropped=()):
    return cls(chart, degree, {idx: rand_component(rng, chart, dropped)
                               for idx in increasing_indices(chart.dim, degree)})


def assert_normal_storage(t):
    """Strictly increasing in-range indices of the right length, stored in
    increasing order, and no zero component."""
    keys = list(t.comps)
    assert keys == sorted(keys)
    for idx, c in t.comps.items():
        assert len(idx) == t.degree
        assert all(0 <= i < t.chart.dim for i in idx)
        assert all(a < b for a, b in zip(idx, idx[1:]))
        assert c.chart == t.chart and not c.is_symbolic_zero


R2 = Chart("R2", ("u", "v"))


@pytest.mark.parametrize("seed", range(12))
def test_trusted_outputs_are_in_normal_storage(seed):
    rng = random.Random(seed)
    p, q = rng.randrange(3), rng.randrange(1, 3)
    a, b = rand_tensor(rng, Form, R3, p), rand_tensor(rng, Form, R3, q)
    pv, qv = rand_tensor(rng, MultiVec, R3, p), rand_tensor(rng, MultiVec, R3, q)
    x = rand_tensor(rng, MultiVec, R3, 1)
    lam = rand_tensor(rng, MultiVec, R3, 2)
    f = rand_component(rng, R3)
    results = [
        b + rand_tensor(rng, Form, R3, q), a + a, b + (-b), -b, pv.scale(0), b.scale(f),
        b.scale(Fraction(1, 2)), wedge(a, b), wedge(b, b), ext_d(a), ext_d(b),
        interior(x, b), lie(x, a), lie(x, qv), schouten(pv, qv), schouten(x, x),
        sharp(lam, a), sharp(lam, b), sharp1(lam, rand_tensor(rng, Form, R3, 1)),
        sharp_tensor(lam, b, x),
    ]
    # a coordinate projection R3 -> R2 and a diffeomorphism of R2
    proj = SmoothMap(R3, R2, (X, Y), section=(*(Expr.coord(R2, c) for c in R2.coords),
                                             Expr.zero(R2)))
    results.append(pushforward(proj, rand_tensor(rng, MultiVec, R3, q, ("z",))))
    u, v = (Expr.coord(R2, c) for c in R2.coords)
    shear = SmoothMap(R2, R2, (u + v, v), section=(u - v, v))
    results.append(pushforward(shear, rand_tensor(rng, MultiVec, R2, q)))
    for t in results:
        assert_normal_storage(t)


def brute_sort_index(idx):
    """Sorted index and the sign of the sorting permutation by counting
    inversions; None when an index repeats."""
    if len(set(idx)) != len(idx):
        return None
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return tuple(sorted(idx)), (-1) ** inversions


def test_sort_index_matches_a_brute_force_sort():
    # every index of length 0 to 4 over five coordinates, repeats included:
    # the closed forms up to three indices and the general path beyond
    for n in range(5):
        for idx in itertools.product(range(5), repeat=n):
            assert _sort_index(idx) == brute_sort_index(idx), idx
            assert _sort_index(list(idx)) == brute_sort_index(idx), idx


def sparse_r_tensor(rng, cls, chart, degree):
    """About half the index sets, each component free of all but two
    coordinates, so that images and partial wedges are sparse."""
    comps = {}
    for idx in increasing_indices(chart.dim, degree):
        if rng.random() < 0.5:
            comps[idx] = rand_component(rng, chart, rng.sample(chart.coords, chart.dim - 2))
    return cls(chart, degree, comps)


def chain_extend(t, images, out_cls, chart, coeff=None):
    """The extension as a sum of wedge chains, one ``wedge`` per factor."""
    out = out_cls.zero(chart, t.degree)
    for idx, c in t.comps.items():
        term = out_cls.scalar(c if coeff is None else coeff(c))
        for j in idx:
            term = wedge(term, images(j))
        out = out + term
    return out


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.sampled_from([R3, R4]), st.integers(0, 3), st.integers(1, 3))
def test_every_operation_keeps_normal_storage(seed, chart, p, q):
    rng = random.Random(seed)
    p, q = min(p, chart.dim), min(q, chart.dim)
    a, b = sparse_r_tensor(rng, Form, chart, p), sparse_r_tensor(rng, Form, chart, q)
    b2 = sparse_r_tensor(rng, Form, chart, q)
    pv, qv = sparse_r_tensor(rng, MultiVec, chart, p), sparse_r_tensor(rng, MultiVec, chart, q)
    x = sparse_r_tensor(rng, MultiVec, chart, 1)
    lam = sparse_r_tensor(rng, MultiVec, chart, 2)
    f = rand_component(rng, chart)
    coords = [Expr.coord(chart, c) for c in chart.coords]
    # affine, as an exp argument must stay affine under the pullback
    general = SmoothMap(chart, chart, tuple(
        c + coords[(i + 1) % chart.dim] * rng.randrange(-2, 3) + rng.randrange(-1, 2)
        for i, c in enumerate(coords)))
    moves = SmoothMap(chart, chart, tuple(coords[k] * rng.choice((1, -2))
                                          for k in rng.sample(range(chart.dim), chart.dim)))
    results = [
        b + b2, b - b2, b - b, a - b2 if p == q else -a, -b, b.scale(0), b.scale(f),
        b.scale(Fraction(-1, 2)), b.map_components(lambda c: c * f - c),
        b.map_components(lambda c: c if len(c.num) > 1 else c - c), wedge(a, b), wedge(pv, qv), interior(x, b), ext_d(a),
        lie(x, a), lie(x, qv), schouten(pv, qv), schouten(lam, lam),
        sharp1(lam, sparse_r_tensor(rng, Form, chart, 1)), sharp(lam, a), sharp(lam, b),
        sharp_tensor(lam, b, x), pullback(general, a), pullback(general, b),
        pullback(moves, b),
    ]
    for t in results + list(lam.sharp_images):
        assert_normal_storage(t)
    # a bivector's rows are its sharp images of the coordinate differentials
    for j, row in enumerate(lam.sharp_images):
        want = sharp1(lam, Form.basis(chart, j))
        assert {k: str(v) for k, v in row.comps.items()} == \
            {k: str(v) for k, v in want.comps.items()}
    # the extension sums each chain as the chain of wedge calls does, so
    # every component prints alike, not only equals
    for got, want in (
        (sharp(lam, b), chain_extend(b, lam.sharp_images.__getitem__, MultiVec, chart)),
        (pullback(general, b),
         chain_extend(b, lambda j: differential(general.components[j]), Form, chart,
                      general.pull_scalar)),
    ):
        assert {k: str(v) for k, v in got.comps.items()} == \
            {k: str(v) for k, v in want.comps.items()}


def test_a_three_fold_extension_sums_in_the_order_of_a_wedge_chain():
    # d(phi^0) lacks dx, so the first partial product d(phi^0) ^ d(phi^1)
    # is built with its keys out of order: (0,1), (1,2), (0,2).  Summed in
    # that order, 1/(x+1)^2 - 1/(x+2)^2 - 1/(x+1)^2 keeps the factor
    # (x+1)^2; in key order the first two terms cancel before the third
    one = Expr.one(R3)
    phi = SmoothMap(R3, R3, (Y + Z, one / (X + 1) + Z, one / (X + 2) + Y + Z))
    got = pullback(phi, Form.basis(R3, 0, 1, 2))
    want = chain_extend(Form.basis(R3, 0, 1, 2),
                        lambda j: differential(phi.components[j]), Form, R3, phi.pull_scalar)
    assert {k: str(v) for k, v in got.comps.items()} == \
        {k: str(v) for k, v in want.comps.items()} == {(0, 1, 2): "(-1/4)/(1/4*x^2 + x + 1)"}


def test_basis_rejects_an_unsorted_or_out_of_range_index():
    for cls in (Form, MultiVec):
        for bad in ((1, 0), (0, 0), (3,), (-1,), (0, 1, 2, 3)):
            with pytest.raises(ExprError):
                cls.basis(R3, *bad)
    assert {k: str(v) for k, v in Form.basis(R3, 0, 2).comps.items()} == {(0, 2): "1"}


# ---------------------------------------------------------------------------
# the support-driven derivative operations against references that loop over
# every coordinate


R5 = Chart("R5", ("x", "y", "z", "u", "w"))


def full_diff(e, i):
    """d e / dx_i by the quotient rule on the stored polynomials, without
    consulting the support."""
    ch = e.chart
    return Expr(ch, _poly_diff(e.num, i), e.den) - e * Expr(ch, _poly_diff(e.den, i), e.den)


def ref_differential(f):
    return Form(f.chart, 1, {(i,): full_diff(f, i) for i in range(f.chart.dim)})


def ref_ext_d(a):
    out = Form.zero(a.chart, a.degree + 1)
    for idx, c in a.comps.items():
        out = out + wedge(ref_differential(c), Form.basis(a.chart, *idx))
    return out


def ref_of(x, f):
    return sum((x.component(i) * full_diff(f, i) for i in range(f.chart.dim)),
               Expr.zero(f.chart))


def ref_lie(x, p):
    """L_X of a multivector by Leibniz over d/dx_I, with
    [X, d/dx_j] = -sum_m d_j(X^m) d/dx_m."""
    ch = p.chart
    out = MultiVec.zero(ch, p.degree)
    for idx, c in p.comps.items():
        out = out + MultiVec(ch, p.degree, {idx: ref_of(x, c)})
        for t, j in enumerate(idx):
            factors = [MultiVec.basis(ch, i) for i in idx]
            factors[t] = MultiVec(ch, 1, {(m,): -full_diff(x.component(m), j)
                                          for m in range(ch.dim)})
            term = MultiVec.scalar(c)
            for f in factors:
                term = wedge(term, f)
            out = out + term
    return out


def ref_schouten(p, q):
    """The odd-coordinate formula of `schouten`, summed over every i."""
    ch = p.chart

    def d_xi(t, i):  # right derivative by xi_i
        return MultiVec(ch, t.degree - 1, {
            idx[:idx.index(i)] + idx[idx.index(i) + 1:]:
                c if (len(idx) - 1 - idx.index(i)) % 2 == 0 else -c
            for idx, c in t.comps.items() if i in idx})

    def d_x(t, i):
        return MultiVec(ch, t.degree, {idx: full_diff(c, i) for idx, c in t.comps.items()})

    flip = (-1) ** ((p.degree - 1) * (q.degree - 1))
    out = MultiVec.zero(ch, max(p.degree + q.degree - 1, 0))
    for i in range(ch.dim):
        if p.degree:
            out = out + wedge(d_xi(p, i), d_x(q, i))
        if q.degree:
            out = out - wedge(d_xi(q, i), d_x(p, i)).scale(flip)
    return out


def sparse_tensor(rng, cls, degree, chart=R5):
    """Components that each involve at most two coordinates, with exp
    factors and quotients."""
    comps = {}
    for idx in increasing_indices(chart.dim, degree):
        if rng.random() < 0.5:
            dropped = rng.sample(chart.coords, chart.dim - 2)
            comps[idx] = rand_component(rng, chart, dropped)
    return cls(chart, degree, comps)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(0, 2))
def test_derivative_operations_match_full_coordinate_loops(seed, p, q):
    rng = random.Random(seed)
    f = rand_component(rng, R5, rng.sample(R5.coords, 3))
    a = sparse_tensor(rng, Form, p)
    x = sparse_tensor(rng, MultiVec, 1)
    pv, qv = sparse_tensor(rng, MultiVec, p), sparse_tensor(rng, MultiVec, q)
    assert differential(f).equals(ref_differential(f))
    assert ext_d(a).equals(ref_ext_d(a))
    assert x.of(f).equals(ref_of(x, f))
    assert lie(x, pv).equals(ref_lie(x, pv))
    assert schouten(pv, qv).equals(ref_schouten(pv, qv))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("degree", [2, 3])
def test_schouten_self_bracket_matches_the_two_pass_formula(seed, degree):
    # [P,P] runs one pass: doubled for a bivector, zero for a trivector
    rng = random.Random(300 + seed)
    p = MultiVec.zero(R5, degree)
    while p.is_symbolic_zero:
        p = sparse_tensor(rng, MultiVec, degree)
    pp = schouten(p, p)
    assert pp.degree == 2 * degree - 1
    assert pp.equals(ref_schouten(p, p))
    # an equal copy is another object, so it takes both passes
    assert pp.equals(schouten(p, MultiVec(R5, degree, dict(p.comps))))
    if degree == 3:
        assert pp.is_symbolic_zero


def test_ext_d_and_differential_differentiate_only_over_the_support(monkeypatch):
    big = Chart("R21", tuple(f"x{i}" for i in range(21)))
    rng = random.Random(5)
    comps = {}
    for idx in rng.sample(increasing_indices(big.dim, 2), 12):
        comps[idx] = rand_component(rng, big, rng.sample(big.coords, big.dim - 2))
    a = Form(big, 2, comps)
    f = rand_component(rng, big, big.coords[3:])
    calls = []
    original = Expr.diff

    def counting(e, coord):
        calls.append((e, big.index(coord)))
        return original(e, coord)

    monkeypatch.setattr(Expr, "diff", counting)
    df, da = differential(f), ext_d(a)
    assert sorted(i for _, i in calls[:len(f.support)]) == list(f.support)
    assert all(i in e.support for e, i in calls)
    want = len(f.support) + sum(len(set(c.support) - set(idx)) for idx, c in a.comps.items())
    assert len(calls) == want < big.dim * (1 + len(a.comps))
    monkeypatch.undo()
    assert df.equals(ref_differential(f)) and da.equals(ref_ext_d(a))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("chart", [R3, R4, R5], ids=["R3", "R4", "R5"])
def test_sharp_of_a_top_form_on_an_odd_chart_is_zero_without_a_wedge_chain(
        monkeypatch, seed, chart):
    # the wedge of all N sharp images is det(Lambda) d/dx_1 ^ ... ^ d/dx_N,
    # and an antisymmetric matrix of odd size has determinant 0; of even
    # size, Pf(Lambda)^2
    rng = random.Random(seed)
    coords = [Expr.coord(chart, c) for c in chart.coords]
    comps = {}
    for k, idx in enumerate(increasing_indices(chart.dim, 2)):
        c = rand_poly(rng, chart, deg=2) + rng.choice(coords)
        # a polynomial, an exp term or a quotient, in turn
        comps[idx] = (c, c * Expr.exp(rng.choice(coords) * rng.choice((-1, 2))),
                      c / (rng.choice(coords) + rng.randrange(1, 3)))[k % 3]
    lam = MultiVec(chart, 2, comps)
    top = Form(chart, chart.dim, {tuple(range(chart.dim)): rand_poly(rng, chart) + coords[0]})
    chain = chain_extend(top, lam.sharp_images.__getitem__, MultiVec, chart)
    if chart.dim % 2 == 0:
        assert not chain.is_symbolic_zero and sharp(lam, top).equals(chain)
        return
    assert chain.is_symbolic_zero
    monkeypatch.setattr(tensor, "_extend", None)  # no chain is built
    got = sharp(lam, top)
    assert got.is_symbolic_zero and (got.chart, got.degree) == (chart, chart.dim)
