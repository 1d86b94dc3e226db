import ast
import copy
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import malab.blowup
import malab.checks
import malab.geometry
import malab.grids
import malab.legendre
import malab.solver
from malab.domains import Ball, Box
from malab.errors import DegeneracyError, DomainError
from malab.geometry import (calabi_laplacian, geometry_sample, grid_invariants,
                            grid_xx_hessian_logrho, invariants, pde_residual,
                            structure_residuals, xx_hessian_logrho)
from malab.grids import Grid, GridFunction, INTERIOR, sample_oracle
from malab.oracles import (AffineImageOracle, DriftCoefficients, DualLog, ExpSolution,
                           FieldOracle, Quadratic)
from malab.solver import newton_solve, residual_field

from conftest import fd_derivative, last_pivot


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
        s = self.s
        phi = np.einsum("ij,i,j->", s.Ginv, s.grad_rho, s.grad_rho) / s.rho**2
        assert phi == pytest.approx(s.Phi, abs=1e-10)

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
        phi_primal = geometry_sample(ex, x).Phi
        phi_dual = geometry_sample(dual, xi).Phi
        assert phi_dual == pytest.approx(phi_primal, rel=1e-8)


@given(n=st.sampled_from([2, 3]), kind=st.sampled_from(["primal", "dual", "exp", "log"]),
       C=st.floats(0.01, 100.0),
       x=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_u_over_c_scaling_law(n, kind, C, x):
    """For w = u/C on either side: log det shifts by -n ln C, rho scales by
    C^(n/(n+2)) on the primal side and C^(-n/(n+2)) on the dual side,
    grad log rho is unchanged and Phi scales by C; w solves the equation with
    drift (d, d0 - n ln C) on the primal side and (C d, d0 + n ln C) on the
    dual side."""
    u = {"primal": Quadratic(np.diag(np.arange(1.0, n + 1)) + 0.2, b=np.full(n, 0.3)),
         "dual": Quadratic(np.diag(np.arange(1.0, n + 1)) + 0.2, side="dual"),
         "exp": ExpSolution(n), "log": DualLog(n)}[kind]
    x = np.array(x[:n])
    x[0] += 1.5 if kind == "log" else 0.0  # DualLog lives on x1 > 0
    w = AffineImageOracle(u, scale=C)
    a = invariants(u.hessian(x), u.third(x), u.side)
    b = invariants(w.hessian(x), w.third(x), w.side)
    primal = u.side == "primal"
    assert b["logdet"] == pytest.approx(a["logdet"] - n * np.log(C), rel=1e-12)
    assert b["rho"] == pytest.approx(a["rho"] * C ** ((1 if primal else -1) * n / (n + 2.0)),
                                     rel=1e-12)
    assert b["grad_logrho"] == pytest.approx(a["grad_logrho"], rel=1e-12)
    assert b["Phi"] == pytest.approx(C * a["Phi"], rel=1e-12)
    d = u.drift()
    drift = (DriftCoefficients(d.d0 - n * np.log(C), d.d) if primal
             else DriftCoefficients(d.d0 + n * np.log(C), C * d.d))
    assert abs(float(pde_residual(w, x, drift))) <= 1e-12 * (1.0 + abs(n * np.log(C)))


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
        class Constant(FieldOracle):
            n = 2

            def value(self, x):
                return np.full(np.shape(x)[:-1], 3.25)

            def gradient(self, x):
                return np.zeros(np.shape(x))

            def hessian(self, x):
                return np.zeros(np.shape(x) + (2,))

        assert calabi_laplacian(ExpSolution(2), Constant(), np.array([0.2, -0.4])) == 0.0

    def test_laplacian_of_potential_quadratic(self):
        q = Quadratic.unit(2)
        assert calabi_laplacian(q, q, np.array([0.3, 0.1])) == pytest.approx(2.0)

    def test_laplacian_of_dual_value_quadratic(self):
        # u = f for the self-dual quadratic; metric Laplacian equals n
        q = Quadratic.unit(3, side="dual")
        got = calabi_laplacian(q, q, np.array([0.1, -0.2, 0.4]))
        assert got == pytest.approx(3.0)

    def test_rho_identity_expsolution(self, rng):
        """The primal value identity Lap f = n + (n+2)/(2 rho) <grad rho, grad f>_G
        of the potential itself, at single points and for a batch, against the
        geometry sample's rho and grad rho."""
        ex = ExpSolution(2)
        xs = rng.uniform(-1, 1, (5, 2))
        batch = calabi_laplacian(ex, ex, xs)
        for x, lap in zip(xs, batch):
            s = geometry_sample(ex, x)
            want = 2.0 + 2.0 / s.rho * np.einsum("ij,i,j->", s.Ginv, s.grad_rho, ex.gradient(x))
            for got in (lap, calabi_laplacian(ex, ex, x)):
                assert got == pytest.approx(want, abs=1e-13)


class TestStructure:
    def test_quadratic_structure_zero(self):
        sr = structure_residuals(Quadratic.unit(3), np.array([0.2, 0.1, -0.3]))
        assert max(sr.codazzi, sr.ricci_consistency) <= 1e-10

    def test_expsolution_structure(self):
        sr = structure_residuals(ExpSolution(2), np.zeros(2))
        assert sr.codazzi <= 1e-12
        assert sr.ricci_consistency <= 1e-12

    def test_random_cubic_structure(self, rng):
        """SPD quadratic plus a small cubic keeps the structure equations
        within rounding (probes the sign conventions hard)."""

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

            def fourth(self, x):
                return np.zeros(x.shape[:-1] + (2, 2, 2, 2))

        c = Cubic()
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 2)
            sr = structure_residuals(c, x)
            assert sr.codazzi <= 1e-12
            assert sr.ricci_consistency <= 1e-12


class TestGridGeometry:
    def test_grid_sample_matches_oracle(self):
        ex = ExpSolution(2)
        g = Grid.build(Box([-1, -1], [1, 1]), 65)
        fu = sample_oracle(ex, g)
        node = g.nearest_node([0.0, 0.0])
        s_grid = geometry_sample(fu, node)
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
        for fu, x in ((sample_oracle(ExpSolution(2), Grid.build(Box([-1, -1], [1, 1]), 65)),
                       [0.0, 0.0]),
                      (sample_oracle(DualLog(2), Grid.build(Box([1, -1], [2, 1]), (33, 65))),
                       [1.5, 0.0])):
            node = fu.grid.nearest_node(x)
            s = geometry_sample(fu, node)
            inv = grid_invariants(fu)
            assert s.side == fu.side
            assert s.Phi == inv["Phi"][node]
            assert s.rho == inv["rho"][node]
            assert np.array_equal(s.grad_rho, inv["rho"][node] * inv["grad_logrho"][node])

    def test_grid_entry_points_read_the_grid_side(self):
        """A solve on either side returns a GridFunction of that side, and
        every entry point reads it there: the PDE gate passes, the geometry
        sample and the invariant fields are the kernel's on that side, and
        naming the other side raises."""
        ex = ExpSolution(2)
        for potential, lo, hi in ((ex, [-1, -1], [1, 1]), (ex.dual_oracle(), [1, -1], [2, 1])):
            side = potential.side
            g = Grid.build(Box(lo, hi), 33)
            drift = potential.drift()
            u, _ = newton_solve(g, drift, lambda p: float(potential.value(p)), side=side)
            assert u.side == side
            assert np.nanmax(np.abs(residual_field(u, drift).values)) <= 1e-10
            node = g.nearest_node(0.5 * (np.array(lo) + np.array(hi)))
            kernel = invariants(u.hessian_field(), None, side)
            assert geometry_sample(u, node).side == side
            assert geometry_sample(u, node).rho == kernel["rho"][node]
            assert np.array_equal(grid_invariants(u)["logrho"], kernel["logrho"], equal_nan=True)
            rep = malab.checks.phi_inequality_check(u, drift=drift)
            want = malab.checks.phi_inequality_check(u, side=side, drift=drift)
            assert rep.to_json() == want.to_json()
            other = "dual" if side == "primal" else "primal"
            with pytest.raises(DomainError):
                residual_field(u, drift, other)
            with pytest.raises(DomainError):
                malab.checks.phi_inequality_check(u, side=other, drift=drift)

    def test_kahler_ricci_small_for_sampled_solution(self):
        ex = ExpSolution(2)
        g = Grid.build(Box([-1, -1], [1, 1]), 65)
        fu = sample_oracle(ex, g)
        KR = (fu.n + 2.0) * grid_xx_hessian_logrho(fu)
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
        KR = (u.n + 2.0) * grid_xx_hessian_logrho(u)
        pts = g.points()
        deep = np.linalg.norm(pts, axis=-1) <= 0.6
        worst = np.nanmax(np.abs(KR[deep]))
        assert worst <= 10 * 1e-10 + 5.0 * g.spacing[0] ** 2

    def test_grid_phi_matches_closed_form(self):
        ex = ExpSolution(2)
        g = Grid.build(Box([-1, -1], [1, 1]), 65)
        fu = sample_oracle(ex, g)
        phi = grid_invariants(fu)["Phi"]
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
        inner = g.mask == INTERIOR
        for side in ("primal", "dual"):
            fu = GridFunction(g, -0.5 * np.sum(pts**2, axis=-1), side)
            assert np.isnan(grid_invariants(fu)["logrho"][inner]).all()
            assert np.isnan(grid_invariants(fu)["Phi"][inner]).all()
            assert np.isnan(grid_xx_hessian_logrho(fu)[inner]).all()


class OffSolution(FieldOracle):
    """f = exp(x1) + x2^4/12 + x2^2 + 0.3 x1 x2, convex on [-1, 1]^2 and no
    solution of the drift equation, read as a potential of either side."""

    n = 2

    def __init__(self, side):
        self.side, self.name = side, f"offsolution-{side}"

    def value(self, x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.exp(x1) + x2**4 / 12.0 + x2**2 + 0.3 * x1 * x2

    def gradient(self, x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([np.exp(x1) + 0.3 * x2, x2**3 / 3.0 + 2.0 * x2 + 0.3 * x1], axis=-1)

    def hessian(self, x):
        H = np.full(x.shape[:-1] + (2, 2), 0.3)
        H[..., 0, 0], H[..., 1, 1] = np.exp(x[..., 0]), x[..., 1] ** 2 + 2.0
        return H

    def third(self, x):
        T = np.zeros(x.shape[:-1] + (2, 2, 2))
        T[..., 0, 0, 0], T[..., 1, 1, 1] = np.exp(x[..., 0]), 2.0 * x[..., 1]
        return T

    def fourth(self, x):
        Q = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
        Q[..., 0, 0, 0, 0], Q[..., 1, 1, 1, 1] = np.exp(x[..., 0]), 2.0
        return Q


def directional_xx_hessian_logrho(oracle, x):
    """The x-Hessian of log rho by centered differences along the directions
    d/dx_j: the axes on the primal side, and on the dual side the columns of
    (D^2 u)^{-1}, along which G^{-1} grad log rho (the x-gradient) is
    differenced. An independent route to the chain rule and to the fourth
    derivatives: it reads the oracle's exact derivatives up to third order only."""
    side = oracle.side

    def x_gradient(y):
        inv = invariants(oracle.hessian(y), oracle.third(y), side)
        return inv["grad_logrho"] if side == "primal" else (
            inv["Ginv"] @ inv["grad_logrho"][..., None])[..., 0]

    directions = None if side == "primal" else invariants(oracle.hessian(x), None, side)["Ginv"]
    D = fd_derivative(x_gradient, x, directions)
    return 0.5 * (D + np.swapaxes(D, -1, -2))


class TestXXHessianOffSolution:
    """The x-Hessian of log rho where it is far from zero, so a wrong factor
    in the chain rule shows."""

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_oracle_matches_directional_route(self, side, rng):
        f = OffSolution(side)
        x = rng.uniform(-0.9, 0.9, size=(40, 2))
        got = xx_hessian_logrho(f, x)
        assert np.abs(got).max() >= 0.1
        assert np.abs(got - directional_xx_hessian_logrho(f, x)).max() <= 1e-9

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_grid_converges_to_oracle_at_second_order(self, side):
        f = OffSolution(side)
        errors = []
        for res in (33, 65, 129):
            g = Grid.build(Box([-1, -1], [1, 1]), res)
            deep = np.abs(g.points()).max(axis=-1) <= 0.5
            got = grid_xx_hessian_logrho(sample_oracle(f, g))[deep]
            errors.append(np.abs(got - xx_hessian_logrho(f, g.points()[deep])).max())
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert errors[0] <= 1e-3 and orders.min() >= 1.8, (errors, orders)

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_grid_builds_third_field_on_dual_side_only(self, side, monkeypatch):
        """_xx_chain reads T on the dual side only: a primal GridFunction's
        x-Hessian of log rho computes no FD third field."""
        calls = []
        third = malab.grids.third_field
        monkeypatch.setattr(malab.grids, "third_field", lambda *a: calls.append(1) or third(*a))
        g = Grid.build(Box([-1, -1], [1, 1]), 17)
        grid_xx_hessian_logrho(sample_oracle(OffSolution(side), g))
        assert len(calls) == (side == "dual")


class TestInvariantKernel:
    ORACLES = [Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]), b=[0.3, -0.1]),
               ExpSolution(2), DualLog(2)]

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("oracle", ORACLES, ids=lambda o: o.name)
    def test_batch_equals_geometry_sample(self, oracle, side, rng):
        oracle = copy.copy(oracle)
        oracle.side = side  # the same closed form, as a potential on `side`
        pts = np.c_[rng.uniform(0.5, 2.0, 8), rng.uniform(-1.0, 1.0, 8)]
        inv = invariants(oracle.hessian(pts), oracle.third(pts), side)
        for k, x in enumerate(pts):
            s = geometry_sample(oracle, x)
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

    def test_solver_calls_no_eigvalsh(self):
        """The solver's Hessian eigenvalue reports come from grids.check_convex;
        its one eigh, of the fitted quadratic form in _quadratic_init, is not
        a Hessian stack."""
        tree = ast.parse(Path(malab.solver.__file__).read_text())
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and ast.unparse(node.func).split(".")[-1] == "eigvalsh"]
        assert not found


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


@pytest.mark.parametrize("m", [0, 257])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cholesky_pivots_entry_major(n, m):
    """The pivots are an (m, n) view of an entry-major (n, m) array, and their
    axis-1 sum, prod, all and log-sum equal those of a C-ordered copy bit for
    bit, NaN rows and an empty batch included."""
    rng = np.random.default_rng(n)
    A = rng.normal(size=(m, n, n))
    H = A @ A.swapaxes(-1, -2) + 0.1 * np.eye(n)
    H[5:9, n - 1, n - 1] = np.nan
    H[9:12] *= -1.0
    for piv in (malab.geometry.cholesky(H), malab.geometry.cholesky(H, inverse=True)[0]):
        assert piv.shape == (m, n) and piv.T.flags.c_contiguous and piv.base is not None
        node_major = np.ascontiguousarray(piv)
        for reduce in (np.sum, np.prod, np.all, lambda p, axis: np.log(p).sum(axis=axis)):
            with np.errstate(invalid="ignore"):
                got, want = reduce(piv, axis=1), reduce(node_major, axis=1)
            assert got.shape == (m,) and got.tobytes() == want.tobytes()


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
