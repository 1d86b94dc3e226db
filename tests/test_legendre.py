import json
import tracemalloc

import numpy as np
import pytest

from malab.errors import DegeneracyError, ExtrapolationError
from malab.grids import GridFunction, box_grid, check_convex, sample_oracle
from malab.legendre import (LegendrePair, _conjugate_1d, conjugate_brute,
                            conjugate_factorized, involution_residual, legendre_grid,
                            legendre_point)
from malab.oracles import DualLog, ExpSolution, Quadratic


def test_legendre_point_examples():
    q = Quadratic.unit(2)  # self-dual
    xi, u = legendre_point(q, np.array([1.0, 0.0]))
    assert np.allclose(xi, [1.0, 0.0]) and u == pytest.approx(0.5)

    sq = Quadratic.unit(2, 2.0)  # f = |x|^2, conjugate |xi|^2/4
    x = np.array([0.7, -0.3])
    xi, u = legendre_point(sq, x)
    assert np.allclose(xi, 2 * x)
    assert u == pytest.approx(np.sum(xi**2) / 4.0)

    xi, u = legendre_point(ExpSolution(2), np.zeros(2))
    assert np.allclose(xi, [1.0, 0.0]) and u == pytest.approx(-1.0)


def test_factorized_equals_brute(rng):
    A = np.array([[2.0, 0.6], [0.6, 1.1]])
    g = box_grid([-1, -1], [1, 1], 21)
    fu = sample_oracle(Quadratic(A), g)
    dg = box_grid([-1.2, -1.2], [1.2, 1.2], 19)
    fast = conjugate_factorized(fu, dg)
    slow = conjugate_brute(fu, dg)
    assert np.nanmax(np.abs(fast.values - slow.values)) < 1e-12


def test_factorized_equals_brute_in_3d():
    fu = sample_oracle(ExpSolution(3), box_grid([-1, -1, -1], [1, 1, 1], 9))
    dg = box_grid([0.5, -1.5, -1.5], [2.5, 1.5, 1.5], 8)
    fast = conjugate_factorized(fu, dg)
    slow = conjugate_brute(fu, dg)
    assert np.max(np.abs(fast.values - slow.values)) < 1e-12


def dense_conjugate_1d(xs, vals, xis):
    """The full (lines, M, N) score max the monotone-argmax pass must equal."""
    return (xis[:, None] * xs[None, :] - vals[:, None, :]).max(-1)


def test_conjugate_1d_equals_dense_max_on_nonconvex_lines_with_holes(rng):
    for _ in range(200):
        n, m, lines = rng.integers(1, 40), rng.integers(1, 40), rng.integers(1, 6)
        xs = np.sort(rng.uniform(-2, 2, n))
        xis = np.sort(rng.uniform(-3, 3, m))
        vals = rng.normal(size=(lines, n)) * rng.uniform(0.0, 3.0)
        vals[rng.random((lines, n)) < 0.3] = np.inf
        assert np.array_equal(_conjugate_1d(xs, vals, xis),
                              dense_conjugate_1d(xs, vals, xis))


def test_conjugate_1d_missing_line_and_degenerate_sizes(rng):
    xs, xis = np.linspace(-1, 1, 7), np.linspace(-2, 2, 5)
    vals = np.vstack([np.full(7, np.inf), xs**2])
    out = _conjugate_1d(xs, vals, xis)
    assert np.all(out[0] == -np.inf)
    assert np.array_equal(out, dense_conjugate_1d(xs, vals, xis))
    for n, m in ((1, 1), (1, 6), (6, 1), (3, 11), (11, 3)):
        xs, xis = np.sort(rng.normal(size=n)), np.sort(rng.normal(size=m))
        vals = rng.normal(size=(4, n))
        out = _conjugate_1d(xs, vals, xis)
        assert out.shape == (4, m)
        assert np.array_equal(out, dense_conjugate_1d(xs, vals, xis))


def test_conjugate_1d_exact_ties(rng):
    # xis holds 0.5, the slope of the first line, where every sample ties
    xs, xis = np.linspace(-1, 1, 33), np.linspace(-1, 1, 17)
    lines = [0.5 * xs, np.full_like(xs, 2.0), np.abs(xs), 0.5 * xs**2,
             0.5 * xs**2 + 1e-17 * rng.normal(size=xs.size)]
    vals = np.vstack(lines + [line[::-1] for line in lines])
    assert np.array_equal(_conjugate_1d(xs, vals, xis), dense_conjugate_1d(xs, vals, xis))


def test_involution_residual_memory_at_257():
    fu = sample_oracle(ExpSolution(2), box_grid([-1, -1], [1, 1], 257))
    tracemalloc.start()
    try:
        involution_residual(fu)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 20.0


def test_conjugate_of_sampled_quadratic():
    g = box_grid([-1, -1], [1, 1], 41)
    fu = sample_oracle(Quadratic.unit(2), g)
    dg = box_grid([-0.9, -0.9], [0.9, 0.9], 41)
    u = legendre_grid(fu, dg)
    exact = 0.5 * np.sum(dg.points() ** 2, axis=-1)
    h = g.spacing[0]
    assert np.nanmax(np.abs(u.values - exact)) <= h


def test_linear_field_clips():
    g = box_grid([-1, -1], [1, 1], 21)
    pts = g.points()
    lin = GridFunction(g, 0.3 * pts[..., 0] + 0.1 * pts[..., 1])
    dg = box_grid([-0.5, -0.5], [0.5, 0.5], 9)
    with pytest.raises(ExtrapolationError) as err:
        legendre_grid(lin, dg)
    assert err.value.details["clipped_count"] > 0
    # the payload the CLI writes on stderr is JSON, numpy integers included
    assert json.loads(json.dumps(err.value.to_json()))["details"]["clipped_count"] > 0


@pytest.mark.parametrize("field", [lambda x: 0.3 * x[..., 0] - 0.2 * x[..., 1],
                                   lambda x: 0.5 * x[..., 0] ** 2], ids=["linear", "half_square"])
def test_involution_of_degenerate_gradient_set_rejected(field):
    # a point and a segment of gradients: no dual grid with an interior fits
    g = box_grid([-1, -1], [1, 1], 17)
    with pytest.raises(DegeneracyError):
        involution_residual(GridFunction(g, field(g.points())))


def test_nonconvex_input_rejected():
    from malab.errors import ConvexityError

    g = box_grid([-1, -1], [1, 1], 21)
    pts = g.points()
    saddle = GridFunction(g, 0.5 * (pts[..., 0] ** 2 - pts[..., 1] ** 2))
    with pytest.raises(ConvexityError):
        legendre_grid(saddle, box_grid([-0.5, -0.5], [0.5, 0.5], 9))
    with pytest.raises(ConvexityError):
        involution_residual(saddle)


def test_involution_residuals():
    g = box_grid([-1, -1], [1, 1], 41)
    h = g.spacing[0]
    for oracle, bound in ((Quadratic.unit(2), 2 * h),
                          (Quadratic.unit(2, 2.0), 2 * h),
                          (ExpSolution(2), 5 * h)):
        fu = sample_oracle(oracle, g)
        assert involution_residual(fu) <= bound


def test_involution_matches_brute_double_conjugation():
    g = box_grid([-1, -1], [1, 1], 15)
    fu = sample_oracle(ExpSolution(2), g)
    from malab.legendre import _shrunk_dual_grid, gradient_hull, points_in_hull

    dual_grid = _shrunk_dual_grid(fu)
    fstar = conjugate_brute(fu, dual_grid)
    back = conjugate_brute(fstar, g)
    hull2 = gradient_hull(fstar)
    pts = g.points().reshape(-1, 2)
    from malab.grids import INTERIOR

    valid = (g.mask == INTERIOR).reshape(-1) & points_in_hull(hull2, pts)
    brute = np.abs(back.values.reshape(-1) - fu.values.reshape(-1))[valid].max()
    assert involution_residual(fu) == pytest.approx(brute, rel=1e-12)


def test_duallog_conjugate_matches_exp_half():
    dl = DualLog(2)
    gd = box_grid([0.5, -1], [2, 1], (61, 41))
    fud = sample_oracle(dl, gd)
    dgd = box_grid([np.log(0.5) + 0.15, -0.9], [np.log(2.0) - 0.15, 0.9], 41)
    con = legendre_grid(fud, dgd)
    exact = ExpSolution(2, quad_coeff=0.5).value(dgd.points())
    assert np.nanmax(np.abs(con.values - exact)) <= 5 * gd.spacing[0]


def test_discrete_conjugate_is_convex():
    g = box_grid([-1, -1], [1, 1], 41)
    fu = sample_oracle(ExpSolution(2), g)
    dg = box_grid([0.45, -1.7], [2.3, 1.7], 41)
    u = legendre_grid(fu, dg)
    rep = check_convex(u)
    assert rep.min_eigenvalue >= -1e-8


def test_young_identity_and_gradient_inversion(rng):
    pairs = [LegendrePair(ExpSolution(2), ExpSolution(2).dual_oracle()),
             LegendrePair(Quadratic.unit(2, 2.0), Quadratic.unit(2, 2.0).dual_oracle())]
    for pair in pairs:
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            assert abs(pair.young_defect(x)) <= 1e-8
            assert pair.gradient_roundtrip_defect(x) <= 1e-8


def test_discrete_young_identity():
    """Young identity at paired points of the discrete conjugate: pairing
    each dual node with the exact primal partner, the defect is O(h^2)."""
    ex = ExpSolution(2)
    dual = ex.dual_oracle()
    g = box_grid([-1, -1], [1, 1], 41)
    h = g.spacing[0]
    fu = sample_oracle(ex, g)
    dg = box_grid([0.45, -1.7], [2.3, 1.7], 41)
    u = legendre_grid(fu, dg)
    worst = 0.0
    for dnode in ((20, 20), (10, 30), (30, 10), (5, 5)):
        xi = dg.point(dnode)
        x = dual.gradient(xi)  # exact primal partner of this dual node
        young = u.value(dnode) + float(ex.value(x)) - x @ xi
        worst = max(worst, abs(young))
    assert worst <= 4.0 * h**2
