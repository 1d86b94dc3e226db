import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import malab.legendre
from malab.domains import Ball
from malab.errors import ConvexityError, DegeneracyError, ExtrapolationError
from malab.grids import INTERIOR, Grid, GridFunction, box_grid, check_convex, sample_oracle
from malab.legendre import (LegendrePair, _conjugate_1d, conjugate_factorized, gradient_hull,
                            involution_residual, legendre_grid, points_in_hull)
from malab.oracles import DualLog, ExpSolution, Quadratic


def conjugate_brute(field, dual_grid):
    """O(N^2) reference conjugate over all sampled nodes."""
    grid = field.grid
    pts = grid.points().reshape(-1, grid.dim)
    vals = field.values.reshape(-1)
    keep = np.isfinite(vals)
    pts, vals = pts[keep], vals[keep]
    dual_pts = dual_grid.points().reshape(-1, dual_grid.dim)
    out = (dual_pts @ pts.T - vals[None, :]).max(axis=1)
    return GridFunction(dual_grid, out.reshape(dual_grid.shape))


def legendre_point(oracle, x):
    """Pointwise transform: (xi, u) with xi = grad f(x), u = <x, xi> - f(x)."""
    xi = oracle.gradient(x)
    return xi, float(x @ xi - oracle.value(x))


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
    """The full (lines, M, N) score max each per-axis pass must equal."""
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


def test_conjugate_1d_near_affine_lines(rng):
    """Lines within 1e-17..1e-13 of a common slope, by a faint bend or by
    noise, with dual nodes on and around that slope: the scores of many hull
    vertices tie within rounding."""
    for draw in range(300):
        xs = np.linspace(-1, 1, 65) if draw % 2 else np.sort(rng.uniform(-1, 1, 65))
        slope, scale = rng.uniform(-1, 1), 10.0 ** rng.uniform(-17, -13)
        xis = np.sort(np.r_[np.linspace(-1, 1, 17), slope, slope + 1e-15 * rng.normal(size=6)])
        bend = (xs - rng.uniform(-1, 1, (10, 1))) ** 2
        noise = rng.normal(size=(10, xs.size))
        vals = slope * xs + rng.uniform(-1, 1, (20, 1)) + scale * np.vstack([bend, noise])
        assert np.array_equal(_conjugate_1d(xs, vals, xis), dense_conjugate_1d(xs, vals, xis))


def test_conjugate_1d_cascade_and_concave_lines():
    # each line a convex chain whose last sample lies far below: pruning
    # takes one sweep per sample
    n = 64
    xs, xis = np.linspace(0, 1, n), np.linspace(-200, 50, 97)
    cascade = np.tile(0.5 * xs**2, (n, 1))
    cascade[:, -1] -= 100.0 + np.arange(n)
    concave = np.vstack([-xs**2, np.sqrt(xs + 0.1), -np.exp(xs)])
    for vals in (cascade, concave, np.vstack([cascade, concave])):
        assert np.array_equal(_conjugate_1d(xs, vals, xis), dense_conjugate_1d(xs, vals, xis))


def test_conjugate_1d_all_lines_missing():
    xs, xis = np.linspace(-1, 1, 9), np.linspace(-2, 2, 5)
    out = _conjugate_1d(xs, np.full((3, 9), np.inf), xis)
    assert out.shape == (3, 5) and np.all(out == -np.inf)


def test_involution_passes_equal_dense_max_on_ball(monkeypatch):
    """Every per-axis pass of the involution on the unit ball at 129, where
    the dual nodes fall within rounding of hull slopes, equals the full max."""
    passes = []

    def checked(xs, vals, xis):
        out = _conjugate_1d(xs, vals, xis)
        passes.append(np.array_equal(out, dense_conjugate_1d(xs, vals, xis)))
        return out

    monkeypatch.setattr(malab.legendre, "_conjugate_1d", checked)
    involution_residual(sample_oracle(ExpSolution(2), Grid.build(Ball(np.zeros(2), 1.0), 129)))
    assert passes == [True] * 4


def test_involution_residual_memory_at_257():
    fu = sample_oracle(ExpSolution(2), box_grid([-1, -1], [1, 1], 257))
    tracemalloc.start()
    try:
        involution_residual(fu)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 20.0


def _cloud(pts):
    """A stand-in field whose interior FD gradients are the rows of pts."""
    return SimpleNamespace(gradient_field=lambda: pts,
                           grid=SimpleNamespace(mask=np.full(len(pts), INTERIOR)))


def _bowed_cube(n, k=21, sag=1e-10):
    """Rows of k^(n-1) points on each face of [-1, 1]^n, each face bowed outward by
    up to sag: all are hull vertices, outside the small hull by less than the
    drop margin, so a candidate filter that drops near-facet points loses them."""
    t = np.linspace(-1.0, 1.0, k)
    face = np.stack(np.meshgrid(*[t] * (n - 1), indexing="ij"), -1).reshape(-1, n - 1)
    bulge = 1.0 + sag * np.prod(1.0 - face**2, axis=1)
    return np.concatenate([np.insert(face, a, s * bulge, axis=1)
                           for a in range(n) for s in (-1.0, 1.0)])


def _hull_cloud(kind, n, rng):
    """(points, field) of one drawn cloud; field is a sampled potential for the
    FD-gradient images and a stand-in for the others."""
    if kind in ("box", "ball"):
        oracle = ExpSolution(n) if rng.random() < 0.5 else Quadratic.unit(n, rng.uniform(0.5, 2))
        c = rng.uniform(-0.1, 0.1, n)
        res = 33 if n == 2 else 13
        fu = sample_oracle(oracle, box_grid(c - 1, c + 1, res) if kind == "box"
                           else Grid.build(Ball(c, 1.0), res))
        g = fu.gradient_field()[fu.grid.mask == INTERIOR]
        return g[np.isfinite(g).all(axis=1)], fu
    pts = {"random": lambda: rng.normal(size=(300, n)),
           "rows": lambda: np.indices((9,) * n).reshape(n, -1).T * rng.uniform(0.1, 3.0),
           "duplicates": lambda: np.repeat(rng.normal(size=(100, n)), 3, axis=0),
           "scaled": lambda: rng.normal(size=(300, n)) * 10.0 ** rng.choice([-6, 6]),
           "bowed": lambda: np.r_[_bowed_cube(n), rng.uniform(-1, 1, (200, n))]}[kind]()
    return rng.permutation(pts), None


@pytest.mark.parametrize("kind", ["random", "box", "ball", "rows", "duplicates", "scaled",
                                  "bowed"])
@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=5)
@given(seed=st.integers(0, 2**32 - 1))
def test_candidate_hull_equals_full_qhull(kind, n, seed):
    """Qhull on the hull candidates gives the hull of all gradients: the same
    vertex points and bounds, and the same points_in_hull masks on a lattice over
    every facet, jittered along its normal by up to twice the membership tolerance
    (times the cloud's size above 1: in 3-D the two runs order a facet's vertices
    differently, so their planes agree to rounding, not bit for bit)."""
    rng = np.random.default_rng(seed)
    pts, field = _hull_cloud(kind, n, rng)
    full, hull = ConvexHull(pts), gradient_hull(field or _cloud(pts))
    assert len(hull.points) <= len(pts)
    assert ({tuple(p) for p in hull.points[hull.vertices]}
            == {tuple(p) for p in full.points[full.vertices]})
    assert np.array_equal(hull.min_bound, full.min_bound)
    assert np.array_equal(hull.max_bound, full.max_bound)
    corners = full.points[full.simplices]                      # (F, n, n)
    weights = np.r_[np.full((1, n), 1.0 / n), 0.5 / n + 0.5 * np.eye(n)]
    on_facets = np.einsum("wk,fkd->fwd", weights, corners)
    jitter = rng.uniform(-2e-9, 2e-9, on_facets.shape[:2] + (1,)) * max(1.0, np.abs(pts).max())
    probe = (on_facets + jitter * full.equations[:, None, :-1]).reshape(-1, n)
    assert np.array_equal(points_in_hull(hull, probe), points_in_hull(full, probe))


@pytest.mark.parametrize("pts", [np.tile([0.3, -0.2], (50, 1)),
                                 np.outer(np.linspace(-1, 1, 50), [1.0, 2.0]),
                                 np.c_[np.random.default_rng(0).normal(size=(50, 2)),
                                       np.zeros(50)] @ [[1, 0, 1], [0, 1, 2], [0, 0, 1.0]]],
                         ids=["point", "segment", "coplanar-3d"])
def test_gradient_hull_of_degenerate_sets_raises(pts):
    with pytest.raises(DegeneracyError):
        gradient_hull(_cloud(pts))


def test_gradient_hull_sends_few_points_to_qhull(monkeypatch):
    """On ExpSolution(2) at 257^2 Qhull sees at most 2% of the interior gradients."""
    sizes = []
    monkeypatch.setattr(malab.legendre, "ConvexHull",
                        lambda pts: sizes.append(len(pts)) or ConvexHull(pts))
    fu = sample_oracle(ExpSolution(2), box_grid([-1, -1], [1, 1], 257))
    hull = gradient_hull(fu)
    interior = fu.gradient_field()[fu.grid.mask == INTERIOR]
    assert np.array_equal(hull.max_bound, interior.max(axis=0))
    assert 0 < max(sizes) <= 0.02 * len(interior)


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
    g = box_grid([-1, -1], [1, 1], 21)
    pts = g.points()
    saddle = GridFunction(g, 0.5 * (pts[..., 0] ** 2 - pts[..., 1] ** 2))
    with pytest.raises(ConvexityError):
        legendre_grid(saddle, box_grid([-0.5, -0.5], [0.5, 0.5], 9))
    with pytest.raises(ConvexityError):
        involution_residual(saddle)


@pytest.mark.parametrize("lam_min, passes", [(-0.5e-8, True), (-2e-8, False)])
def test_convexity_gate_boundary(lam_min, passes, monkeypatch):
    """The gate admits FD Hessian eigenvalues down to -1e-8. On a sampled
    quadratic with eigenvalues 1 and lam_min, one batched Cholesky decides a
    pass and check_convex runs only to report a failure, with its details."""
    g = box_grid([-1, -1], [1, 1], 21)
    x = g.points()
    fu = GridFunction(g, 0.5 * (x[..., 0] ** 2 + lam_min * x[..., 1] ** 2))
    reports = []
    monkeypatch.setattr(malab.legendre, "check_convex",
                        lambda f: reports.append(check_convex(f)) or reports[-1])
    dual = box_grid([-0.5, -1e-9], [0.5, 1e-9], 5)  # inside the thin gradient hull
    if passes:
        assert np.isfinite(legendre_grid(fu, dual).values).all()
        assert reports == []
        return
    with pytest.raises(ConvexityError) as err:
        legendre_grid(fu, dual)
    rep = check_convex(fu)
    assert rep.min_eigenvalue < -1e-8
    assert err.value.details == {"min_eigenvalue": rep.min_eigenvalue,
                                 "worst_node": list(rep.worst_node)}
    assert reports == [rep]


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
            xi = pair.primal.gradient(x)
            assert np.abs(pair.dual.gradient(xi) - x).max() <= 1e-8


@given(n=st.sampled_from([2, 3]), dual=st.booleans(), q=st.floats(0.05, 20.0),
       x=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
def test_young_identity_and_gradient_inversion_drawn(n, dual, q, x):
    """u(grad f(x)) + f(x) = <x, grad f(x)> and grad u(grad f(x)) = x on
    drawn ExpSolution/DualLog pairs, from either side, in 2-D and 3-D."""
    f = DualLog(n, quad_coeff=q) if dual else ExpSolution(n, quad_coeff=q)
    pair = LegendrePair(f, f.dual_oracle())
    x = np.array(x[:n])
    if dual:
        x[0] = np.exp(x[0])  # DualLog lives on {x1 > 0}
    xi = f.gradient(x)
    size = 1.0 + abs(f.value(x)) + abs(x @ xi)
    assert abs(pair.young_defect(x)) <= 1e-12 * size
    assert np.allclose(pair.dual.gradient(xi), x, rtol=1e-12, atol=1e-12)


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
