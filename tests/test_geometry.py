import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import malab.blowup
import malab.checks
import malab.geometry
import malab.legendre
from malab.domains import Ball, Box
from malab.errors import DegeneracyError
from malab.geometry import (calabi_laplacian, geometry_sample, grid_invariants,
                            grid_xx_hessian_logrho, invariants, rho_value_rule,
                            structure_residuals)
from malab.grids import Grid, GridFunction, INTERIOR, sample_oracle
from malab.oracles import (DriftCoefficients, DualLog, ExpSolution,
                           FieldOracle, Quadratic)
from malab.solver import newton_solve

from conftest import last_pivot


class TestExpSolutionOrigin:
    """Hand-derived tensor values at the origin of exp(x1) + x2^2, n = 2."""

    s = geometry_sample(ExpSolution(2), np.zeros(2))

    def test_metric(self):
        assert np.abs(self.s.G - np.diag([1.0, 2.0])).max() < 1e-14
        assert np.abs(self.s.Ginv @ self.s.G - np.eye(2)).max() < 1e-10

    def test_rho(self):
        assert self.s.rho == pytest.approx(2.0 ** -0.25, abs=1e-14)

    def test_connection_and_cubic(self):
        assert self.s.Gamma[0, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert self.s.A[0, 0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert np.abs(self.s.B).max() == 0.0

    def test_pick_invariant(self):
        assert self.s.J == pytest.approx(0.125, abs=1e-14)

    def test_phi(self):
        assert self.s.Phi == pytest.approx(1.0 / 16.0, abs=1e-14)
        assert self.s.phi_recomputed() == pytest.approx(self.s.Phi, abs=1e-10)

    def test_curvatures_vanish(self):
        assert np.abs(self.s.Ricci).max() <= 1e-8
        assert np.abs(self.s.KahlerRicci).max() <= 1e-8
        assert abs(self.s.KahlerScalar) <= 1e-8

    def test_conormal(self):
        assert np.allclose(self.s.conormal, [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_phi_closed_form(n, rng):
    ex = ExpSolution(n)
    pts = rng.uniform(-1, 1, size=(50, n))
    for x in pts:
        s = geometry_sample(ex, x)
        want = np.exp(-x[0]) / (n + 2) ** 2
        assert abs(s.Phi - want) <= 1e-10 * want


def test_phi_on_axis_profile():
    ex = ExpSolution(2)
    for x1 in (-0.8, 0.0, 1.2):
        s = geometry_sample(ex, np.array([x1, 0.0]))
        assert s.Phi == pytest.approx(np.exp(-x1) / 16.0, rel=1e-12)


def test_quadratic_is_flat(rng):
    q = Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]), b=[0.3, -0.1])
    for _ in range(5):
        s = geometry_sample(q, rng.uniform(-1, 1, 2))
        assert s.Phi <= 1e-14 and s.J <= 1e-14
        assert np.abs(s.Ricci).max() <= 1e-14
        assert np.abs(s.grad_rho).max() <= 1e-14


def test_phi_vanishes_iff_grad_rho_does(rng):
    ex = ExpSolution(3)
    for _ in range(10):
        s = geometry_sample(ex, rng.uniform(-1, 1, 3))
        assert (s.Phi <= 1e-12) == (np.abs(s.grad_rho).max() <= 1e-12)


def test_legendre_covariance_of_phi(rng):
    """Phi computed on the primal side at x equals Phi on the dual side at
    grad f(x); both express the same graph invariant."""
    ex = ExpSolution(2)
    dual = ex.dual_oracle()
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        xi = ex.gradient(x)
        phi_primal = geometry_sample(ex, x, side="primal").Phi
        phi_dual = geometry_sample(dual, xi, side="dual").Phi
        assert phi_dual == pytest.approx(phi_primal, rel=1e-8)


def test_degenerate_hessian_raises():
    class Flat(FieldOracle):
        n = 2
        side = "primal"

        def value(self, x):
            return x[..., 0] ** 4 + x[..., 1] ** 2

        def gradient(self, x):
            g = np.zeros_like(x)
            g[..., 0] = 4 * x[..., 0] ** 3
            g[..., 1] = 2 * x[..., 1]
            return g

        def hessian(self, x):
            H = np.zeros(x.shape[:-1] + (2, 2))
            H[..., 0, 0] = 12 * x[..., 0] ** 2
            H[..., 1, 1] = 2.0
            return H

        def third(self, x):
            T = np.zeros(x.shape[:-1] + (2, 2, 2))
            T[..., 0, 0, 0] = 24 * x[..., 0]
            return T

    with pytest.raises(DegeneracyError):
        geometry_sample(Flat(), np.zeros(2))


class TestCalabiLaplacian:
    def test_annihilates_constants(self):
        val = calabi_laplacian(ExpSolution(2), lambda x: 3.25, np.array([0.2, -0.4]))
        assert abs(val) <= 1e-10

    def test_laplacian_of_potential_quadratic(self):
        q = Quadratic.unit(2)
        assert calabi_laplacian(q, q.value, np.array([0.3, 0.1])) == pytest.approx(2.0)

    def test_laplacian_of_dual_value_quadratic(self):
        # u = f for the self-dual quadratic; metric Laplacian equals n
        q = Quadratic.unit(3, side="dual")
        got = calabi_laplacian(q, q.value, np.array([0.1, -0.2, 0.4]))
        assert got == pytest.approx(3.0)

    def test_rho_identity_expsolution(self, rng):
        ex = ExpSolution(2)
        rho_r = rho_value_rule(ex, "primal")
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            lap = calabi_laplacian(ex, rho_r, x)
            s = geometry_sample(ex, x)
            assert lap - 3.0 * s.Phi * s.rho == pytest.approx(0.0, abs=1e-6)


class TestStructure:
    def test_quadratic_structure_zero(self):
        sr = structure_residuals(Quadratic.unit(3), np.array([0.2, 0.1, -0.3]))
        assert max(sr.gauss, sr.codazzi, sr.ricci_consistency) <= 1e-10

    def test_expsolution_structure(self):
        sr = structure_residuals(ExpSolution(2), np.zeros(2))
        assert sr.gauss <= 1e-5
        assert sr.codazzi <= 1e-5
        assert sr.ricci_consistency <= 1e-5

    def test_random_cubic_structure(self, rng):
        """SPD quadratic plus a small cubic keeps the structure equations
        within FD tolerance (probes the sign conventions hard)."""

        class Cubic(FieldOracle):
            n = 2
            side = "primal"
            eps = 1e-2

            def value(self, x):
                return (0.5 * np.sum(x**2, axis=-1)
                        + self.eps * (x[..., 0] ** 3 + x[..., 0] * x[..., 1] ** 2))

            def gradient(self, x):
                g = x.copy()
                g[..., 0] += self.eps * (3 * x[..., 0] ** 2 + x[..., 1] ** 2)
                g[..., 1] += self.eps * 2 * x[..., 0] * x[..., 1]
                return g

            def hessian(self, x):
                H = np.zeros(x.shape[:-1] + (2, 2))
                H[..., 0, 0] = 1 + 6 * self.eps * x[..., 0]
                H[..., 0, 1] = H[..., 1, 0] = 2 * self.eps * x[..., 1]
                H[..., 1, 1] = 1 + 2 * self.eps * x[..., 0]
                return H

            def third(self, x):
                T = np.zeros(x.shape[:-1] + (2, 2, 2))
                T[..., 0, 0, 0] = 6 * self.eps
                T[..., 0, 1, 1] = T[..., 1, 0, 1] = T[..., 1, 1, 0] = 2 * self.eps
                return T

        c = Cubic()
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 2)
            sr = structure_residuals(c, x)
            assert sr.gauss <= 1e-4
            assert sr.codazzi <= 1e-4
            assert sr.ricci_consistency <= 1e-4

    def test_planted_hessian_error_shows_in_gauss(self):
        """The structure equation differences the oracle's gradient, so a
        Hessian 1% off the gradient's derivative cannot pass."""

        class OffHessian(Quadratic):
            def hessian(self, x):
                return 1.01 * super().hessian(x)

        sr = structure_residuals(OffHessian(np.eye(3)), np.array([0.2, 0.1, -0.3]))
        assert sr.gauss > 1e-3


class TestGridGeometry:
    def test_grid_sample_matches_oracle(self):
        ex = ExpSolution(2)
        g = Grid.build(Box([-1, -1], [1, 1]), 65)
        fu = sample_oracle(ex, g)
        node = g.nearest_node([0.0, 0.0])
        s_grid = geometry_sample(fu, node, side="primal")
        s_oracle = geometry_sample(ex, np.zeros(2))
        h2 = g.spacing[0] ** 2
        assert np.abs(s_grid.G - s_oracle.G).max() <= h2
        assert abs(s_grid.Phi - s_oracle.Phi) <= h2
        assert abs(s_grid.rho - s_oracle.rho) <= h2
        assert abs(s_grid.J - s_oracle.J) <= h2
        # grad rho is rho times the FD gradient of the log rho field: 0.0044 h^2
        # off here
        assert np.abs(s_grid.grad_rho - s_oracle.grad_rho).max() <= 0.01 * h2

    def test_grid_sample_reads_the_invariant_row(self):
        """One Phi per node: a grid sample's rho, grad rho and Phi are the
        node's row of grid_invariants, bit for bit, on either side."""
        g = Grid.build(Box([-1, -1], [1, 1]), 65)
        fu = sample_oracle(ExpSolution(2), g)
        node = g.nearest_node([0.0, 0.0])
        for side in ("primal", "dual"):
            s = geometry_sample(fu, node, side)
            inv = grid_invariants(fu, side)
            assert s.Phi == inv["Phi"][node]
            assert s.rho == inv["rho"][node]
            assert np.array_equal(s.grad_rho, inv["rho"][node] * inv["grad_logrho"][node])

    def test_grid_entry_points_default_to_the_dual_side(self):
        """Without a side, geometry_sample and phi_inequality_check read a
        GridFunction on the dual side, as the solver writes it."""
        g = Grid.build(Ball(np.zeros(2), 1.0), 33)
        q = Quadratic.unit(2)
        drift = DriftCoefficients(0.1, np.array([0.9, 0.5]))
        u, _ = newton_solve(g, drift, lambda p: float(q.value(p)))
        node = g.nearest_node([0.1, -0.2])
        s = geometry_sample(u, node)
        assert s.side == "dual"
        assert s.to_json() == geometry_sample(u, node, "dual").to_json()
        rep = malab.checks.phi_inequality_check(u, drift=drift)
        want = malab.checks.phi_inequality_check(u, side="dual", drift=drift)
        assert rep.to_json() == want.to_json()
        assert np.array_equal(rep.residuals["residual"], want.residuals["residual"])

    def test_kahler_ricci_small_for_sampled_solution(self):
        ex = ExpSolution(2)
        g = Grid.build(Box([-1, -1], [1, 1]), 65)
        fu = sample_oracle(ex, g)
        KR = (fu.n + 2.0) * grid_xx_hessian_logrho(fu, "primal")
        worst = np.nanmax(np.abs(KR))
        assert worst <= 10.0 * g.spacing[0] ** 2

    def test_kahler_ricci_small_for_solver_output(self):
        """Dual-side grid route: the flat-direction curvature of a solve
        stays within 10*tol + C h^2 at interior probe nodes."""
        ball = Ball(np.zeros(2), 1.0)
        g = Grid.build(ball, 65)
        q = Quadratic.unit(2)
        drift = DriftCoefficients(0.2, np.array([0.8, -0.4]))
        u, rep = newton_solve(g, drift, lambda p: float(q.value(p)))
        KR = (u.n + 2.0) * grid_xx_hessian_logrho(u, "dual")
        pts = g.points()
        deep = np.linalg.norm(pts, axis=-1) <= 0.6
        worst = np.nanmax(np.abs(KR[deep]))
        assert worst <= 10 * 1e-10 + 5.0 * g.spacing[0] ** 2

    def test_grid_phi_matches_closed_form(self):
        ex = ExpSolution(2)
        g = Grid.build(Box([-1, -1], [1, 1]), 65)
        fu = sample_oracle(ex, g)
        phi = grid_invariants(fu, "primal")["Phi"]
        pts = g.points()
        want = np.exp(-pts[..., 0]) / 16.0
        good = np.isfinite(phi)
        assert np.abs(phi[good] - want[good]).max() <= 2.0 * g.spacing[0] ** 2

    def test_grid_calabi_laplacian(self):
        q = Quadratic.unit(2)
        g = Grid.build(Box([-1, -1], [1, 1]), 33)
        fu = sample_oracle(q, g)
        assert calabi_laplacian(fu, fu.values, (16, 16)) \
            == pytest.approx(2.0, abs=1e-10)
        assert calabi_laplacian(fu, np.full(g.shape, 5.0), (16, 16)) \
            == pytest.approx(0.0, abs=1e-12)
        ex = ExpSolution(2)
        fe = sample_oracle(ex, g)
        # metric Laplacian of the potential: n + (n+2)/(2 rho) <grad rho, grad f>
        s = geometry_sample(ex, np.zeros(2))
        want = 2.0 + 2.0 / s.rho * float(
            np.einsum("ij,i,j->", s.Ginv, s.grad_rho, ex.gradient(np.zeros(2))))
        got = calabi_laplacian(fe, fe.values, (16, 16))
        assert got == pytest.approx(want, abs=5 * g.spacing[0] ** 2)

    def test_float_tuple_snaps_like_an_array(self):
        ex = ExpSolution(2)
        g = Grid.build(Box([-1, -1], [1, 1]), 33)
        fu = sample_oracle(ex, g)
        by_tuple = geometry_sample(fu, (0.5, 0.25))
        by_array = geometry_sample(fu, np.array([0.5, 0.25]))
        assert by_tuple.to_json() == by_array.to_json()
        assert calabi_laplacian(fu, fu.values, (0.5, 0.25)) \
            == calabi_laplacian(fu, fu.values, np.array([0.5, 0.25]))

    def test_concave_field_has_no_invariants(self):
        """-|x|^2/2 has det D^2 = 1 > 0 but is not convex: log rho, Phi and
        the flat-direction curvature are NaN, not finite."""
        g = Grid.build(Box([-1, -1], [1, 1]), 17)
        pts = g.points()
        fu = GridFunction(g, -0.5 * np.sum(pts**2, axis=-1))
        inner = g.mask == INTERIOR
        for side in ("primal", "dual"):
            assert np.isnan(grid_invariants(fu, side)["logrho"][inner]).all()
            assert np.isnan(grid_invariants(fu, side)["Phi"][inner]).all()
            assert np.isnan(grid_xx_hessian_logrho(fu, side)[inner]).all()


class TestInvariantKernel:
    ORACLES = [Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]), b=[0.3, -0.1]),
               ExpSolution(2), DualLog(2)]

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
    def test_batch_equals_geometry_sample(self, oracle, side, rng):
        pts = np.c_[rng.uniform(0.5, 2.0, 8), rng.uniform(-1.0, 1.0, 8)]
        inv = invariants(oracle.hessian(pts), oracle.third(pts), side)
        for k, x in enumerate(pts):
            s = geometry_sample(oracle, x, side)
            assert inv["rho"][k] == s.rho
            assert np.array_equal(inv["rho"][k] * inv["grad_logrho"][k], s.grad_rho)
            assert inv["Phi"][k] == s.Phi
        if isinstance(oracle, Quadratic):
            assert np.all(inv["Phi"] == 0.0)

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("oracle", ORACLES + [DualLog(3, name="duallog3")],
                             ids=lambda o: o.name)
    def test_invalid_rows_are_nan(self, oracle, side):
        n = oracle.n
        pts = np.c_[[0.6, 0.8, 1.2, 1.7, 1.1, 0.9],
                    np.outer([0.2, -0.4, 0.6, 0.8, -0.1, 0.3], np.ones(n - 1))]
        H, T = oracle.hessian(pts), oracle.third(pts)
        H[1] = -np.eye(n)               # not positive definite (det > 0 in 2-D)
        H[2] = 0.0                      # singular
        T[3, 0, 0, 0] = np.nan          # non-finite third derivatives
        H[4] = last_pivot(n)            # leading minors positive up to the last
        H[5, 0, n - 1] = H[5, n - 1, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv = invariants(H, T, side)
        bad = np.array([False, True, True, True, True, True])
        for key, value in inv.items():
            rows = value.reshape(len(pts), -1)
            assert np.isnan(rows[bad]).all(), key
            assert np.isfinite(rows[~bad]).all(), key

    def test_no_other_hessian_linear_algebra(self):
        """geometry, checks, blowup and legendre take positive definiteness,
        log det and inverses only from the kernel: none of them calls a
        linalg inv, slogdet, eigvalsh, eigh or cholesky (norm is fine)."""
        banned = {"inv", "slogdet", "eigvalsh", "eigh", "cholesky"}
        for mod in (malab.geometry, malab.checks, malab.blowup, malab.legendre):
            found = []
            for node in ast.walk(ast.parse(Path(mod.__file__).read_text())):
                if isinstance(node, ast.Call):
                    *owner, name = ast.unparse(node.func).split(".")
                    if "linalg" in owner and name in banned:
                        found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
                elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                    found += [f"line {node.lineno}: import {a.name}"
                              for a in node.names if a.name in banned]
            assert not found, (mod.__name__, found)


def _einsum_cholesky(H):
    """cholesky(H, inverse=True) as einsum contractions over (m, n, n) stacks:
    the formulation the entry-major kernel must reproduce bit for bit."""
    n = H.shape[-1]
    L, piv = np.zeros(H.shape), np.empty(H.shape[:-1])
    for i in range(n):
        for j in range(i):
            L[:, i, j] = (H[:, i, j] - (L[:, i, :j] * L[:, j, :j]).sum(axis=1)) / L[:, j, j]
        piv[:, i] = H[:, i, i] - (L[:, i, :i] * L[:, i, :i]).sum(axis=1)
        L[:, i, i] = np.sqrt(np.where(piv[:, i] > 0.0, piv[:, i], np.nan))
    X = np.zeros(H.shape)
    for i in range(n):
        X[:, i, :i] = -np.einsum("mk,mkj->mj", L[:, i, :i], X[:, :i, :i]) / L[:, i, i, None]
        X[:, i, i] = 1.0 / L[:, i, i]
    return piv, np.einsum("mki,mkj->mij", X, X)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cholesky_equals_einsum_reference_bit_for_bit(n):
    """Random SPD stacks with diagonal rows (signed-zero couplings), NaN rows
    and rows that are not positive definite: the pivots and the inverse equal
    the einsum formulation's, zero signs included, and the inverse is exactly
    symmetric."""
    rng = np.random.default_rng(n)
    A = rng.normal(size=(300, n, n))
    H = A @ A.swapaxes(-1, -2) + 0.1 * np.eye(n)
    H[:30] = np.eye(n) * rng.uniform(0.5, 2.0, (30, 1, n))
    H[:10, ~np.eye(n, dtype=bool)] = -0.0
    H[30:40] *= -1.0                        # negative definite
    H[40:50] = last_pivot(n)                # only the last pivot is negative
    H[50:60, 1, 1] = np.nan
    H[60:70, n - 1] = H[60:70, :, n - 1] = 0.0  # singular: last row and column zero
    piv, Hi = malab.geometry.cholesky(H, inverse=True)
    want_piv, want_Hi = _einsum_cholesky(H)
    for got, want in ((piv, want_piv), (Hi, want_Hi)):
        assert np.array_equal(got, want, equal_nan=True)
        num = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))
    assert np.isnan(Hi[30:70]).all() and np.isfinite(Hi[np.r_[0:30, 70:300]]).all()
    assert np.array_equal(Hi, Hi.swapaxes(-1, -2), equal_nan=True)
    assert np.array_equal(piv, malab.geometry.cholesky(H), equal_nan=True)


def test_no_batched_einsum_over_four_or_more_operands():
    """np.einsum without a contraction path runs one generic loop over every
    index at once; over a batch axis and four or more operands that is an
    order of magnitude slower than contracting pairwise. No module of malab
    does it."""
    found = []
    for path in sorted(Path(malab.geometry.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("einsum"):
                spec = node.args[0]
                batched = not isinstance(spec, ast.Constant) or "..." in spec.value
                if batched and len(node.args) >= 5:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found
