import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import splu

from malab.domains import AffineMap, Ball, Box
from malab.errors import ConvergenceError, ConvexityError
from malab.grids import Grid, INTERIOR, GridFunction, sample_oracle
from malab.oracles import (DUAL, PRIMAL, AffineImageOracle, DriftCoefficients, DualLog,
                           ExpSolution, Quadratic)
import malab.solver
from malab.geometry import cholesky
from malab.solver import (_LU_OPTIONS, LEAF, SolverConfig, _dissection_order, _Jacobian,
                          _log_residual, newton_solve, residual_field)

from conftest import last_pivot

BOX = Box([1, -1], [2, 1])
DL = DualLog(2)


def duallog_trace(p):
    return float(DL.value(p))


def nodal_error(u, oracle):
    g = u.grid
    return float(np.nanmax(np.abs(u.values - oracle.value(g.points()))[g.mask == INTERIOR]))


def rotated_duallog(degrees=30.0):
    """DualLog composed with a rotation R: w(y) = u(R^T y) solves the dual
    equation with drift R d. Its leading truncation errors do not cancel."""
    th = np.radians(degrees)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rot = AffineImageOracle(DL, AffineMap(R, np.zeros(2)))
    return rot, rot.drift()


# the four solve-ball drifts of seed 1, as (d0, d)
BALL_DRIFTS = (
    (0.07545046369632594, (0.6356561314866042, 0.2619733622535199)),
    (0.2248118314520105, (-0.40656785837920073, 0.9826069365868477)),
    (-0.07509080086363083, (-1.328545831100513, -0.5506877010937093)),
    (-0.225, (0.6936137211617256, -1.6745316526767071)),
)


def ball_solve(grid, k):
    d0, d = BALL_DRIFTS[k]
    q = Quadratic.unit(2)
    return newton_solve(grid, DriftCoefficients(d0, np.array(d)), lambda p: float(q.value(p)))


def spd_stack(rng, n, m=200):
    """Random SPD matrices with condition numbers up to about 1e3, followed
    by semidefinite, indefinite and NaN rows."""
    A = rng.standard_normal((m, n, n))
    Q = np.linalg.qr(A)[0]
    w = 10.0 ** rng.uniform(-1.5, 1.5, (m, n))
    spd = np.einsum("mij,mj,mkj->mik", Q, w, Q)
    spd = 0.5 * (spd + spd.transpose(0, 2, 1))
    v = np.arange(1.0, n + 1.0)
    semidefinite = [np.outer(v, v), np.diag(np.r_[1.0, np.zeros(n - 1)]), np.zeros((n, n))]
    indefinite = [np.diag(np.r_[-np.ones(n - 1), 2.0]), 2.0 * np.ones((n, n)) - np.eye(n),
                  last_pivot(n)]
    with_nan = [np.eye(n), np.eye(n)]
    with_nan[0][0, 0] = np.nan
    with_nan[1][n - 1, 0] = with_nan[1][0, n - 1] = np.nan
    return np.concatenate([spd, semidefinite, indefinite, with_nan]), m


class TestCholesky:
    """The batched SPD kernel against LAPACK, in two and three dimensions."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_against_lapack(self, n, rng):
        H, m = spd_stack(rng, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            piv, Hi = cholesky(H, inverse=True)
            assert np.array_equal(cholesky(H), piv, equal_nan=True)
        pd = (piv > 0).all(axis=1)
        finite = np.isfinite(H).all(axis=(1, 2))
        want = np.zeros(len(H), dtype=bool)
        want[finite] = np.linalg.eigvalsh(H[finite])[:, 0] > 0
        assert np.array_equal(pd, want)
        assert pd[:m].all() and not pd[m:].any()
        sign, logdet = np.linalg.slogdet(H[:m])
        assert (sign == 1).all()
        np.testing.assert_allclose(np.log(piv[:m]).sum(axis=1), logdet, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(piv[:m].prod(axis=1), np.exp(logdet), rtol=1e-12)
        inv = np.linalg.inv(H[:m])
        err = np.linalg.norm(Hi[:m] - inv, axis=(1, 2)) / np.linalg.norm(inv, axis=(1, 2))
        assert err.max() <= 1e-12
        assert np.isnan(Hi[m:]).all(axis=(1, 2)).all()


class TestResidualField:
    def test_duallog_samples_small_residual(self):
        worst = {}
        for res in (17, 33):
            g = Grid.build(BOX, (res, 2 * res - 1))
            fu = sample_oracle(DL, g)
            r = residual_field(fu, DL.drift(), "dual")
            worst[res] = np.nanmax(np.abs(r.values))
        h = 1.0 / 16
        assert worst[17] <= 4.0 * h**2
        assert worst[33] < worst[17]

    def test_quadratic_residual_exact(self):
        g = Grid.build(Box([-1, -1], [1, 1]), 17)
        fu = sample_oracle(Quadratic.unit(2), g)
        r = residual_field(fu, DriftCoefficients.zero(2))
        assert np.nanmax(np.abs(r.values)) < 1e-13
        assert np.array_equal(np.isfinite(r.values), g.mask == INTERIOR)

    def test_expsolution_primal_residual(self):
        ex = ExpSolution(2)
        g = Grid.build(Box([-1, -1], [1, 1]), 33)
        fu = sample_oracle(ex, g)
        r = residual_field(fu, ex.drift(), "primal")
        assert np.nanmax(np.abs(r.values)) <= 1.0 * g.spacing[0] ** 2

    def test_nonconvex_rejected(self):
        g = Grid.build(Box([-1, -1], [1, 1]), 17)
        pts = g.points()
        saddle = GridFunction(g, 0.5 * (pts[..., 0] ** 2 - pts[..., 1] ** 2))
        with pytest.raises(ConvexityError):
            residual_field(saddle, DriftCoefficients.zero(2), "dual")


class TestManufactured:
    def test_duallog_convergence_order(self):
        errs = {}
        for res in (17, 33, 65):
            g = Grid.build(BOX, (res, 2 * res - 1))
            u, rep = newton_solve(g, DL.drift(), duallog_trace,
                                  SolverConfig(residual_tol=1e-11))
            exact = DL.value(g.points())
            errs[res] = np.nanmax(np.abs(u.values - exact)[g.mask == INTERIOR])
            assert rep.final_residual <= 1e-11
        order1 = np.log2(errs[17] / errs[33])
        order2 = np.log2(errs[33] / errs[65])
        assert errs[65] <= 4.0 * (1.0 / 64) ** 2
        assert min(order1, order2) >= 1.8

    def test_quadratic_on_ball_fd_exact(self):
        ball = Ball(np.zeros(2), 1.0)
        g = Grid.build(ball, 65)
        q = Quadratic.unit(2)
        u, rep = newton_solve(g, DriftCoefficients.zero(2),
                              lambda p: float(q.value(p)))
        err = np.nanmax(np.abs(u.values - q.value(g.points()))[g.mask == INTERIOR])
        assert err <= 1e-8

    def test_ball_against_radial_ode(self):
        """Dirichlet data 1 on the unit circle, drift 0: compare the center
        value of the 2-D solve with a high-resolution radial shooting oracle.
        Collar values are taken from the radial profile at each node radius."""
        n = 2

        def rhs(r, y):
            u, v = y
            return [v, (r / max(v, 1e-30)) ** (n - 1)]

        eps = 1e-8
        sol = solve_ivp(rhs, (eps, 1.0), [0.0, eps], rtol=1e-12, atol=1e-14,
                        dense_output=True)
        u_of_r = lambda r: float(sol.sol(max(r, eps))[0])
        shift = 1.0 - u_of_r(1.0)  # enforce u(1) = 1
        oracle_center = u_of_r(eps) + shift

        ball = Ball(np.zeros(2), 1.0)
        g = Grid.build(ball, 129)
        u, rep = newton_solve(g, DriftCoefficients.zero(2),
                              lambda p: u_of_r(np.linalg.norm(p)) + shift)
        center = u.value(g.nearest_node([0.0, 0.0]))
        assert center == pytest.approx(oracle_center, abs=1e-3)
        # radial solution of the unit equation is the explicit paraboloid
        assert oracle_center == pytest.approx(0.5, abs=1e-6)

    def test_report_history_strictly_decreasing(self):
        g = Grid.build(BOX, (17, 33))
        u, rep = newton_solve(g, DL.drift(), duallog_trace)
        hist = rep.residual_history
        assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))
        assert rep.min_hessian_eigenvalue > 0
        assert rep.iterations == len(hist) - 1


class TestHarmonicLiftStart:
    """The lifted start carries the boundary data into the interior, so the
    number of continuation legs does not grow as the grid is refined."""

    @pytest.mark.parametrize("res", [17, 33, 65])
    def test_duallog_box_needs_no_continuation(self, res):
        g = Grid.build(BOX, (res, 2 * res - 1))
        u, rep = newton_solve(g, DL.drift(), duallog_trace,
                              SolverConfig(residual_tol=1e-11))
        assert rep.continuation_steps == 0
        assert rep.total_iterations == rep.iterations
        assert rep.final_residual <= 1e-11
        assert nodal_error(u, DL) <= 4.0 * g.spacing.max() ** 2

    def test_rotated_duallog_legs_bounded_and_error_falls(self):
        """A solve that takes more than one leg reports the Newton iterations
        of all its legs, and at least one halved step in t."""
        rot, drift = rotated_duallog()
        errs, steps = [], []
        for res in (17, 33, 65):
            g = Grid.build(BOX, (res, 2 * res - 1))
            u, rep = newton_solve(g, drift, lambda p: float(rot.value(p)),
                                  SolverConfig(residual_tol=1e-11))
            assert rep.continuation_steps + 1 <= 3
            assert rep.final_residual <= 1e-11
            assert rep.iterations == len(rep.residual_history) - 1
            if rep.continuation_steps:
                assert rep.total_iterations > rep.iterations
                assert rep.rejected_steps >= 1
            steps.append(rep.continuation_steps)
            errs.append(nodal_error(u, rot))
        assert steps[-1] >= 1  # the multi-leg report checks above ran
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 4.0 * (1.0 / 64) ** 2

    def test_rotated_duallog_order(self):
        """Without cancelling truncation errors the observed order is
        pre-asymptotic at coarse grids (1.72 from 33 to 65) and reaches 1.8
        from 65 to 129."""
        rot, drift = rotated_duallog()
        errs = []
        for res in (33, 65, 129):
            g = Grid.build(BOX, (res, 2 * res - 1))
            u, rep = newton_solve(g, drift, lambda p: float(rot.value(p)),
                                  SolverConfig(residual_tol=1e-11))
            assert rep.continuation_steps + 1 <= 3
            assert rep.final_residual <= 1e-11
            errs.append(nodal_error(u, rot))
        assert errs[0] > errs[1] > errs[2]
        assert np.log2(errs[1] / errs[2]) >= 1.8

    @pytest.mark.parametrize("res", [33, 65])
    def test_primal_expsolution(self, res):
        ex = ExpSolution(2)
        box = Box([-1, -1], [1, 1])
        g = Grid.build(box, res)
        u, rep = newton_solve(g, ex.drift(), lambda p: float(ex.value(p)),
                              SolverConfig(residual_tol=1e-11), side="primal")
        assert rep.final_residual <= 1e-11
        assert nodal_error(u, ex) <= 4.0 * g.spacing.max() ** 2


class TestJacobian:
    @pytest.mark.parametrize("side, n", [("dual", 2), ("primal", 2), ("dual", 3)],
                             ids=["dual", "primal", "dual-3d"])
    def test_matches_residual_difference(self, side, n, rng):
        """J @ delta equals the centered difference of the log residual along
        a random interior direction delta: a wrong drift sign or mixed weight
        in the Jacobian shows here, and in 3-D a wrong Cholesky factor of a
        Hessian with off-diagonal entries in every row."""
        g = Grid.build(Ball(np.zeros(n), 1.0), 33 if n == 2 else 15)
        x = g.points()
        u = 0.5 * (x**2).sum(axis=-1) + 0.25 * x[..., 0] * x[..., 1] + 0.1 * np.exp(x[..., 0])
        if n == 3:  # FD Hessians with off-diagonal entries 0.25, 0.15 and 0.1
            u += 0.15 * x[..., 0] * x[..., 2] + 0.1 * x[..., 1] * x[..., 2]
        angle = np.pi / 8 + np.pi
        d = 1.4375 * np.array([np.cos(angle), np.sin(angle), 0.5])[:n]
        drift = DriftCoefficients(-0.075, d)
        interior = g.mask == INTERIOR
        delta = rng.standard_normal(int(interior.sum()))

        def residual(t):
            v = u.copy()
            v[interior] += t * delta
            return _log_residual(g, v, drift, side)[0]

        eps = 1e-7
        fd = (residual(eps) - residual(-eps)) / (2 * eps)
        jac = _Jacobian(g)  # J comes in dissection order: compare in node order
        J = jac.assemble(_log_residual(g, u, drift, side)[1], drift, side)
        assert np.linalg.norm((J @ delta[jac.order])[jac.rank] - fd) <= 1e-6 * np.linalg.norm(fd)


def drifted_jacobian(g, d0, d):
    """A dual-side Jacobian on g, at a convex potential whose FD Hessians
    have off-diagonal entries, and its _Jacobian."""
    x = g.points()
    u = 0.5 * (x**2).sum(axis=-1) + 0.25 * x[..., 0] * x[..., 1] + 0.1 * np.exp(x[..., 0])
    if g.dim == 3:
        u += 0.15 * x[..., 0] * x[..., 2] + 0.1 * x[..., 1] * x[..., 2]
    jac = _Jacobian(g)
    H = g.stencil.hessian(g.stencil.pad(u), interior=True)
    return jac.assemble(H, DriftCoefficients(d0, np.array(d)), DUAL), jac


def lu_fill(J, order):
    lu = splu(J, permc_spec=order, **_LU_OPTIONS)
    return lu.L.nnz + lu.U.nnz


def recursive_dissection(idx, nodes, lo, hi):
    """Reference for `_dissection_order`, one call per box: split [lo, hi] at
    the middle index of its longest side; the halves, then the separator."""
    a = np.argmax(hi - lo)
    if len(idx) == 0 or hi[a] - lo[a] + 1 < LEAF:
        return list(idx)
    mid, c = lo[a] + (hi[a] - lo[a] + 1) // 2, nodes[idx, a]
    first_hi, second_lo = hi.copy(), lo.copy()
    first_hi[a], second_lo[a] = mid - 1, mid + 1
    return (recursive_dissection(idx[c < mid], nodes, lo, first_hi)
            + recursive_dissection(idx[c > mid], nodes, second_lo, hi) + list(idx[c == mid]))


class TestFactor:
    """The nested dissection order is pinned by counts, the LU fill and the
    zero blocks between separated halves, not by a time."""

    def test_jacobian_is_laid_out_in_dissection_order(self):
        """Rows and columns follow the dissection order: in node order each
        entry links stencil neighbours, a second assembly gives the same
        matrix, and `solve` takes and returns node order."""
        g = Grid.build(Ball(np.zeros(2), 1.0), 33)
        J, jac = drifted_jacobian(g, *BALL_DRIFTS[3])
        assert J.has_canonical_format
        assert np.array_equal(np.sort(jac.order), np.arange(jac.size))
        assert np.array_equal(jac.order[jac.rank], np.arange(jac.size))
        assert abs(J - drifted_jacobian(g, *BALL_DRIFTS[3])[0]).max() == 0.0
        in_nodes = J[jac.rank][:, jac.rank].tocoo()
        nodes = g.interior_nodes()
        assert np.abs(nodes[in_nodes.row] - nodes[in_nodes.col]).max() == 1
        b = np.cos(np.arange(jac.size))
        assert np.linalg.norm(in_nodes @ jac.solve(J, b) - b) <= 1e-12 * np.linalg.norm(b)

    def test_fill_of_a_drifted_ball_jacobian(self):
        """On a ball Jacobian at 97 with the strongest benchmark drift, the
        dissection order stores at most 0.7x the factors of SuperLU's default
        ordering of the node-order matrix, and still solves to rounding."""
        angle = np.pi / 8 + 3 * np.pi / 2
        g = Grid.build(Ball(np.zeros(2), 1.0), 97)
        J, jac = drifted_jacobian(g, -0.225, 1.8125 * np.array([np.cos(angle), np.sin(angle)]))
        assert abs(J - J.T).max() > 1.0  # the drift makes J nonsymmetric
        lu = splu(J, permc_spec="NATURAL", **_LU_OPTIONS)
        default = splu(J[jac.rank][:, jac.rank].tocsc())
        assert lu.L.nnz + lu.U.nnz <= 0.7 * (default.L.nnz + default.U.nnz)
        b = J @ np.cos(np.arange(jac.size))
        assert np.linalg.norm(J @ lu.solve(b) - b) <= 1e-10 * np.linalg.norm(b)

    def test_fill_of_a_3d_jacobian(self):
        """In 3-D the separators are planes: at 15^3 the dissection order
        stores at most 0.75x the factors of minimum degree on A + A^T."""
        J, _ = drifted_jacobian(Grid.build(Box([-1] * 3, [1] * 3), 15), 0.1, (0.8, -0.5, 0.3))
        assert lu_fill(J, "NATURAL") <= 0.75 * lu_fill(J, "MMD_AT_PLUS_A")

    @pytest.mark.parametrize("domain, res", [(Ball(np.zeros(2), 1.0), 33), (BOX, (33, 65)),
                                             (Ball(np.zeros(3), 1.0), 15)],
                             ids=["ball", "box", "ball-3d"])
    def test_order_matches_recursive_reference(self, domain, res):
        nodes = Grid.build(domain, res).interior_nodes()
        ref = recursive_dissection(np.arange(len(nodes)), nodes, nodes.min(axis=0),
                                   nodes.max(axis=0))
        assert np.array_equal(_dissection_order(nodes), ref)

    @pytest.mark.parametrize("domain, res", [(Ball(np.zeros(2), 1.0), 33),
                                             (Box([-1] * 3, [1] * 3), 15)], ids=["2d", "3d"])
    def test_top_level_separator(self, domain, res):
        """The first split halves the nodes' bounding box across its longest
        side: the order lists one half, the other, then the separator, and J
        has no entry between the halves, while the separator reaches both."""
        g = Grid.build(domain, res)
        J, jac = drifted_jacobian(g, 0.1, (0.8, -0.5, 0.3)[:g.dim])
        nodes = g.interior_nodes()
        lo, hi = nodes.min(axis=0), nodes.max(axis=0)
        a = np.argmax(hi - lo)
        half = np.sign(nodes[jac.order, a] - (lo[a] + (hi[a] - lo[a] + 1) // 2))  # 0: separator
        k1, k2 = (half == -1).sum(), (half != 0).sum()
        assert np.array_equal(half, np.repeat([-1, 1, 0], [k1, k2 - k1, half.size - k2]))
        assert J[:k1, k1:k2].nnz == J[k1:k2, :k1].nnz == 0
        assert J[:k1, k2:].nnz > 0 and J[k1:k2, k2:].nnz > 0


class TestOrderOncePerSolve:
    """Each solve orders its unknowns once, by nested dissection, before any
    factorization: every LU, the lift's Laplace matrix first, is taken in
    its natural order. Pinned by counts."""

    @pytest.fixture
    def orders(self, monkeypatch):
        seen = []

        def recording(A, permc_spec=None, **kw):
            seen.append(permc_spec)
            return splu(A, permc_spec=permc_spec, **kw)

        monkeypatch.setattr(malab.solver, "splu", recording)
        return seen

    @pytest.mark.parametrize("k, counts", [(0, (7, 5)), (1, (8, 5)), (2, (10, 13)),
                                           (3, (14, 18))])
    def test_ball_drifts(self, k, counts, orders):
        u, rep = ball_solve(Grid.build(Ball(np.zeros(2), 1.0), 65), k)
        assert (rep.total_iterations, rep.rejected_steps) == counts
        assert orders == ["NATURAL"] * (rep.total_iterations + 1)  # the lift's LU, then J

    def test_rotated_duallog_legs(self, orders):
        rot, drift = rotated_duallog()
        g = Grid.build(BOX, (33, 65))
        u, rep = newton_solve(g, drift, lambda p: float(rot.value(p)),
                              SolverConfig(residual_tol=1e-11))
        assert (rep.continuation_steps, rep.total_iterations, rep.rejected_steps) == (1, 10, 2)
        assert orders == ["NATURAL"] * (rep.total_iterations + 1)

    def test_same_inputs_same_bytes(self):
        """No order outlives its solve: a rerun on the same grid object and a
        run on a fresh grid give the same bytes."""
        ball = Ball(np.zeros(2), 1.0)
        g = Grid.build(ball, 65)
        runs = [ball_solve(g, 2), ball_solve(g, 2), ball_solve(Grid.build(ball, 65), 2)]
        for u, rep in runs[1:]:
            assert np.array_equal(u.values, runs[0][0].values, equal_nan=True)
            assert rep.to_json() == runs[0][1].to_json()


class TestProperties:
    def test_comparison_principle(self, rng):
        ball = Ball(np.zeros(2), 1.0)
        g = Grid.build(ball, 33)
        q = Quadratic.unit(2)
        drift = DriftCoefficients(0.1, np.array([0.5, -0.3]))
        for _ in range(10):
            gap = float(rng.uniform(0.05, 1.0))
            hi = lambda p: float(q.value(p)) + gap
            lo = lambda p: float(q.value(p))
            u_hi, _ = newton_solve(g, drift, hi)
            u_lo, _ = newton_solve(g, drift, lo)
            both = np.isfinite(u_hi.values)
            assert np.all(u_hi.values[both] >= u_lo.values[both] - 1e-8)

    def test_affine_covariance_quarter_turn(self):
        """Rotating coordinates by 90 degrees with transported drift and
        boundary reproduces the solution up to node relabeling."""
        S = np.array([[0.0, -1.0], [1.0, 0.0]])  # unimodular
        box2 = Box([-1, 1], [1, 2])               # S maps BOX onto box2
        g1 = Grid.build(BOX, (17, 33))
        g2 = Grid.build(box2, (33, 17))
        drift1 = DL.drift()
        drift2 = DriftCoefficients(drift1.d0, S @ drift1.d)
        u1, _ = newton_solve(g1, drift1, duallog_trace)
        u2, _ = newton_solve(g2, drift2, lambda p: duallog_trace(S.T @ p))
        # u2(S xi) == u1(xi): node (i,j) of g1 maps to node (32-j, i) of g2
        v1 = u1.values
        v2 = np.flip(u2.values, axis=0).T
        assert np.nanmax(np.abs(v1 - v2)) <= 1e-9

    @pytest.mark.parametrize("side", [DUAL, PRIMAL])
    @pytest.mark.parametrize("law", ["scale", "tangent_shift"])
    def test_wrapper_covariance(self, law, side):
        """Solving with the drift and data of u/3, or of u minus its tangent
        plane at an interior node, gives the same map of the base solve to
        rounding, along the same Newton path: the wrapper's drift law and the
        discrete scheme agree exactly."""
        u, box = ((DL, Box([0.6, -0.5], [1.6, 0.5])) if side == DUAL
                  else (ExpSolution(2), Box([-1, -1], [1, 1])))
        g = Grid.build(box, 33)
        base, base_rep = newton_solve(g, u.drift(), lambda q: float(u.value(q)), side=side)
        x, p = g.points(), g.point((10, 20))
        if law == "scale":
            w, want = AffineImageOracle(u, scale=3.0), base.values / 3.0
        else:
            w = AffineImageOracle(u, p=p)
            want = base.values - float(u.value(p)) - (x - p) @ u.gradient(p)
        image, rep = newton_solve(g, w.drift(), lambda q: float(w.value(q)), side=side)
        assert np.nanmax(np.abs(image.values - want)) <= 1e-12 * np.nanmax(np.abs(want))
        assert ((rep.total_iterations, rep.rejected_steps)
                == (base_rep.total_iterations, base_rep.rejected_steps))

    @pytest.mark.parametrize("law, n", [("reflection", 2), ("dilation", 2),
                                        ("reflection", 3), ("dilation", 3)],
                             ids=["reflection", "dilation", "reflection-3d", "dilation-3d"])
    def test_reflection_and_dilation(self, law, n):
        """x1 -> -x1 with d1 -> -d1 on the unit ball, and u_2(xi) = 4 u(xi/2)
        on the ball of radius 2 with drift d/2: both maps fix the data
        |xi|^2/2, and the dual solves agree node for node to rounding, along
        the same Newton path; at 65^2 and at 15^3."""
        res = 65 if n == 2 else 15
        drift = DriftCoefficients(0.1, np.array([0.8, -0.5, 0.3][:n]))
        data = lambda q: 0.5 * float(q @ q)
        base, base_rep = newton_solve(Grid.build(Ball(np.zeros(n), 1.0), res), drift, data)
        if law == "reflection":
            radius, want = 1.0, np.flip(base.values, axis=0)
            d = drift.d * np.r_[-1.0, np.ones(n - 1)]
        else:
            radius, d, want = 2.0, drift.d / 2.0, 4.0 * base.values
        g = Grid.build(Ball(np.zeros(n), radius), res)
        image, rep = newton_solve(g, DriftCoefficients(drift.d0, d), data)
        assert np.array_equal(np.isnan(image.values), np.isnan(want))
        assert np.nanmax(np.abs(image.values - want)) <= 1e-12 * np.nanmax(np.abs(want))
        assert ((rep.total_iterations, rep.rejected_steps)
                == (base_rep.total_iterations, base_rep.rejected_steps))

    def test_iteration_cap_raises(self):
        g = Grid.build(BOX, (17, 33))
        with pytest.raises(ConvergenceError):
            newton_solve(g, DL.drift(), duallog_trace,
                         SolverConfig(max_newton_iters=2))

    def test_under_resolved_grid_rejected(self):
        from malab.errors import DomainError

        g = Grid.build(BOX, (9, 33))  # only 5 interior nodes across
        with pytest.raises(DomainError):
            newton_solve(g, DL.drift(), duallog_trace)

    def test_three_dimensional_solve(self):
        box = Box([1, -1, -1], [2, 1, 1])
        dl3 = DualLog(3)
        g = Grid.build(box, (15, 15, 15))
        u, rep = newton_solve(g, dl3.drift(), lambda p: float(dl3.value(p)))
        exact = dl3.value(g.points())
        err = np.nanmax(np.abs(u.values - exact)[g.mask == INTERIOR])
        assert err <= 1e-8  # 1.05e-9 here
        assert rep.final_residual <= 1e-10
        assert (rep.total_iterations, rep.rejected_steps) == (4, 0)

    def test_three_dimensional_rotated_solve(self):
        """DualLog(3) turned 20 degrees in the (x1, x3) and then the (x1, x2)
        plane: every FD Hessian has off-diagonal entries in every row."""
        c, s = np.cos(np.radians(20.0)), np.sin(np.radians(20.0))
        R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]) @ np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])
        dl3 = DualLog(3)
        rot = AffineImageOracle(dl3, AffineMap(R, np.zeros(3)))
        g = Grid.build(Box([2.1, -0.5, -0.5], [3.1, 0.5, 0.5]), 15)  # 1.5 < s1 < 3.1
        u, rep = newton_solve(g, rot.drift(), lambda p: float(rot.value(p)))
        H = u.hessian_field()[g.mask == INTERIOR]
        assert np.abs(H[:, [0, 0, 1], [1, 2, 2]]).min() >= 1e-2
        # 1.2e-6 here; a Cholesky factor without its mixed L_21 term gives 3.2e-4
        assert nodal_error(u, rot) <= 1e-5
        assert rep.final_residual <= 1e-10
        assert (rep.total_iterations, rep.rejected_steps) == (4, 0)
