"""The float determinant and rank of the open conditions against numpy.linalg.

numpy is not a runtime dependency of twistcheck; it is the independent
reference here only, the way sympy is for the expression ring.
"""

import pytest

from twistcheck.report import det, rank

np = pytest.importorskip("numpy")

TOL = 1e-8  # the rank tolerance of the algebroid-morphism kernel check


def hadamard(a):
    """The product of the row norms: a bound on |det a| and the scale of its
    rounding error when det a is small."""
    return float(np.prod(np.linalg.norm(a, axis=1)))


def with_singular_values(rng, n, sigma):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(sigma) @ q2


@pytest.mark.parametrize("n", [2, 4, 6, 12, 16, 24])
def test_det_matches_numpy(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        a = rng.standard_normal((n, n))
        antisym = a - a.T  # the shape of every matrix the open conditions build
        for m in (a, antisym):
            ref = np.linalg.det(m)
            assert det(m.tolist()) == pytest.approx(ref, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("n", [2, 4, 6, 12, 16, 24])
def test_det_matches_numpy_on_singular_and_ill_conditioned_input(n):
    rng = np.random.default_rng(100 + n)
    cases = []
    for _ in range(10):
        low = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
        dup = rng.standard_normal((n, n))
        dup[-1] = dup[0]
        graded = with_singular_values(rng, n, np.logspace(0, -12, n))
        cases += [low, dup, graded, graded * 1e3]
    for m in cases:
        ref = np.linalg.det(m)
        assert abs(det(m.tolist()) - ref) <= 1e-9 * max(abs(ref), hadamard(m))
    # an exactly zero column leaves no pivot
    z = rng.standard_normal((n, n))
    z[:, n // 2] = 0.0
    assert det(z.tolist()) == 0.0 == np.linalg.det(z)


def test_rank_matches_numpy_matrix_rank():
    # matrices of known rank plus noise whose singular values land on both
    # sides of the tolerance: m x k noise of scale s has singular values
    # near s * (sqrt(m) +- sqrt(k)), from below 1e-8 to above it at 3e-9
    rng = np.random.default_rng(0)
    for noise in (1e-12, 1e-9, 3e-9, 1e-7, 1e-3):
        above = below = 0
        for _ in range(240):
            m, k = int(rng.integers(1, 17)), int(rng.integers(1, 9))
            r = int(rng.integers(0, min(m, k) + 1))
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, k))
            a += noise * rng.standard_normal((m, k))
            ref = int(np.linalg.matrix_rank(a, tol=TOL))
            assert rank(a.tolist(), TOL) == ref, (noise, m, k, r)
            above += ref > r
            below += ref == r < min(m, k)
        if noise == 3e-9:
            assert above and below


def test_rank_resolves_singular_values_next_to_the_tolerance():
    rng = np.random.default_rng(1)
    for sigma_min in (0.9e-8, 1.1e-8, 0.99e-8, 1.01e-8):
        for n in (2, 6, 8):
            a = with_singular_values(rng, n, np.r_[np.ones(n - 1), sigma_min])
            tall = np.vstack([a, np.zeros((3, n))])
            for m in (a, tall, tall.T):
                assert rank(m.tolist(), TOL) == np.linalg.matrix_rank(m, tol=TOL)
