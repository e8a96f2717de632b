"""The one open-condition helper: "this exact tensor does not vanish",
certified exactly when it vanishes identically and otherwise at sample points,
where its value must clear tol times its largest term."""

from twistcheck.expr import Chart, Expr, parse, sample_points
from twistcheck.report import nonvanishing_verdict
from twistcheck.tensor import Form, MultiVec, pfaffian, wedge

R1 = Chart("R1", ("x",))
R2 = Chart("R2", ("x", "y"))
R4 = Chart("R4", ("x", "y", "u", "v"))


def test_open_condition_passes_and_records_skipped_points():
    # 1/x cannot be evaluated at 0, so that point is skipped; a single term
    # is its own largest term, so its scaled value is 1 wherever it is nonzero
    v = nonvanishing_verdict(parse("1/x", R1), [(1.0,), (0.0,), (2.0,)], 1e-9, "1/x")
    assert v.kind == "SampledZero" and v.skipped == [(0.0,)]
    assert v.assumptions == ["1/x nonvanishing: (1)/(x)",
                             "minimum scaled |1/x| over samples: 1"]


def test_open_condition_fails_at_first_witness():
    t = parse("x^2 + 2*x", R1)
    v = nonvanishing_verdict(t, [(1.0,), (-2.0,), (-3.0,)], 1e-9, "t")
    assert v.kind == "NonZero"
    assert v.witness == (-2.0,) and v.value == 0.0
    assert v.assumptions == ["t vanishes at a sample point"]


def test_open_condition_fails_when_every_point_is_skipped():
    v = nonvanishing_verdict(parse("1/x", R1), [(0.0,), (0.0,)], 1e-9, "1/x")
    assert v.kind == "NonZero"
    assert v.assumptions == ["all sample points skipped"] and len(v.skipped) == 2


def test_open_condition_draws_the_chart_points_without_samples():
    v = nonvanishing_verdict(parse("x + 2", R2), None, 1e-9, "t")
    assert v.kind == "SampledZero"
    least = min((pt[0] + 2.0) / 2.0 for pt in sample_points(R2))
    assert v.assumptions[1] == f"minimum scaled |t| over samples: {least:.6g}"


def test_the_scale_rule_ignores_unit_factors():
    # c * e^L multiplies the value and every term alike; the bare rule
    # 1 + max |term| failed such a Pfaffian at 19 dims, where it is ~1e-10
    pts = sample_points(R2)
    t = parse("x + 2", R2)
    unit = parse("exp(-30*x - 20*y)/100000", R2)
    v, w = (nonvanishing_verdict(e, pts, 1e-9, "t") for e in (t, t * unit))
    assert w.passed and w.assumptions[1] == v.assumptions[1]


def test_non_finite_entries_fail_the_open_conditions():
    # the one entry overflows at the only sample point, so nothing is tested
    form = Form(R2, 2, {(0, 1): parse("exp(1000*x)", R2)})
    v = nonvanishing_verdict(pfaffian(form), [(0.9, 0.0)], 1e-9, "Pf")
    assert v.kind == "NonZero" and v.assumptions == ["all sample points skipped"]
    assert v.skipped == [(0.9, 0.0)]


def test_identically_zero_fails_exactly():
    for t in (Expr.zero(R2), Form.zero(R2, 2), MultiVec.zero(R2, 1)):
        v = nonvanishing_verdict(t, [(0.5, 0.5)], 1e-9, "t")
        assert v.kind == "NonZero" and v.witness is None
        assert v.assumptions == ["t is identically zero"]


def test_the_tolerance_scales_with_the_largest_term():
    # at x = 1 the value 1e-6 is the difference of terms of size 1e6, so a
    # tolerance of 1e-9 relative to them cannot tell it from rounding
    t = parse("1000000*x - 1000000 + 1/1000000", R1)
    assert not nonvanishing_verdict(t, [(1.0,)], 1e-9, "t").passed
    assert nonvanishing_verdict(t, [(1.0,)], 1e-13, "t").passed
    # the same value alone passes
    assert nonvanishing_verdict(parse("1/1000000", R1), [(1.0,)], 1e-9, "t").passed


def test_a_degenerate_pfaffian_fails():
    dx, dy, du = (Form.basis(R4, i) for i in range(3))
    degenerate = wedge(dx, dy) + wedge(dx, du).scale(Expr.coord(R4, "v"))
    assert pfaffian(degenerate).is_symbolic_zero
    v = nonvanishing_verdict(pfaffian(degenerate), None, 1e-9, "Pf")
    assert not v.passed and v.assumptions == ["Pf is identically zero"]


def test_dependent_fields_fail_the_wedge():
    x = Expr.coord(R2, "x")
    dx, dy = MultiVec.basis(R2, 0), MultiVec.basis(R2, 1)
    # identically dependent: X ^ X and X ^ fX
    for top in (wedge(dx + dy, dx + dy), wedge(dx, dx.scale(x))):
        assert not nonvanishing_verdict(top, [(0.5, 0.5)], 1e-9, "X^Y").passed
    # dependent on the line x = 0 only: that sample point is the witness
    v = nonvanishing_verdict(wedge(dx, dy.scale(x)), [(0.5, 0.5), (0.0, 0.3)], 1e-9, "X^Y")
    assert v.kind == "NonZero" and v.witness == (0.0, 0.3) and v.value == 0.0
