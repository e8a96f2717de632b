"""The sampled open-condition helper and the 2-form matrix at a point."""

import numpy as np

from twistcheck.expr import Chart, EvalError, Expr, sample_points
from twistcheck.report import sampled_open_condition, two_form_matrix
from twistcheck.tensor import Form

R1 = Chart("R1", ("x",))
R2 = Chart("R2", ("x", "y"))


def test_two_form_matrix_is_antisymmetric():
    x = Expr.coord(R2, "x")
    form = Form(R2, 2, {(0, 1): x + Expr.one(R2)})
    mat = two_form_matrix(form, (0.5, -1.0))
    assert np.array_equal(mat, np.array([[0.0, 1.5], [-1.5, 0.0]]))


def test_open_condition_passes_and_records_skipped_points():
    def value(pt):
        if pt[0] == 0.0:
            raise EvalError("singular")
        return pt[0]

    v = sampled_open_condition(R1, [(1.0,), (0.0,), (2.0,)], value, lambda u: u > 0,
                               lambda u: ["negative"])
    assert v.kind == "SampledZero" and v.skipped == [(0.0,)]


def test_open_condition_fails_at_first_witness():
    v = sampled_open_condition(R1, [(1.0,), (-2.0,), (-3.0,)], lambda pt: pt[0],
                               lambda u: u > 0, lambda u: [f"value {u:g}"])
    assert v.kind == "NonZero"
    assert v.witness == (-2.0,) and v.value == -2.0 and v.assumptions == ["value -2"]


def test_open_condition_fails_when_every_point_is_skipped():
    def value(pt):
        raise EvalError("singular")

    v = sampled_open_condition(R1, [(1.0,), (2.0,)], value, lambda u: True, lambda u: [])
    assert v.kind == "NonZero"
    assert v.assumptions == ["all sample points skipped"] and len(v.skipped) == 2


def test_open_condition_draws_the_chart_points_without_samples():
    seen = []

    def value(pt):
        seen.append(tuple(pt))
        return 1.0

    v = sampled_open_condition(R2, None, value, lambda u: True, lambda u: [])
    assert v.kind == "SampledZero"
    assert seen == [tuple(pt) for pt in sample_points(R2)]
