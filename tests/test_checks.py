import numpy as np
import pytest

from malab.checks import (PDE_GATE_TOL, BarrierConstants, choose_shift_constant, gradient_ratio,
                          identity_suite, det_barrier_constant, det_barrier_probe,
                          extract_section, section_functionals, phi_inequality_check,
                          phi_barrier_ladder, section_probes, trace_ray)
from malab.domains import AffineMap, Ball, Box, direction_fan
from malab.errors import (CounterexampleError, DomainError, PreconditionError, WindowError)
from malab.geometry import grid_phi_inequality_fields, invariants
from malab.grids import INTERIOR, Grid, box_grid, sample_oracle
from malab.oracles import (AffineImageOracle, DriftCoefficients, DualLog, ExpSolution,
                           Quadratic, normalize_at)
from malab.solver import newton_solve

WINDOW = (np.array([1e-3, -8.0]), np.array([25.0, 8.0]))


def duallog_normalized():
    return normalize_at(DualLog(2), np.array([1.0, 0.0]))


def trace_ray_loop(u, p, d, C, window=None, rel_tol=1e-8):
    """One ray at a time: the scalar reference for the batched trace_ray."""
    p, d = np.asarray(p, dtype=float), np.asarray(d, dtype=float)
    t_cap = np.inf
    if window is not None:
        for i in range(len(p)):
            if d[i] != 0:
                t_cap = min(t_cap, ((window[1] if d[i] > 0 else window[0])[i] - p[i]) / d[i])

    def below(t):
        x = p + t * d
        return bool(u.contains(x)) and float(u.value(x)) < C

    if not np.isfinite(t_cap):
        t_cap = 1.0
        while below(t_cap):
            t_cap *= 2.0
            if t_cap > 1e12:
                return p + t_cap * d, "window"
    if below(t_cap):
        return p + t_cap * d, "window"
    t_lo, t_hi = 0.0, t_cap
    while (t_hi - t_lo) > 1e-14 * max(1.0, t_cap):
        t_mid = 0.5 * (t_lo + t_hi)
        if below(t_mid):
            t_lo = t_mid
            if abs(float(u.value(p + t_lo * d)) - C) <= rel_tol * max(C, 1e-12):
                return p + t_lo * d, "level"
        else:
            t_hi = t_mid
    near = abs(float(u.value(p + t_lo * d)) - C) <= 1e-6 * max(C, 1e-12)
    return p + t_lo * d, "level" if near else "domain"


class TestIdentitySuite:
    def test_quadratic_all_zero(self, rng):
        rep = identity_suite(Quadratic.unit(2), rng.uniform(-1, 1, (20, 2)))
        assert rep.passed
        for key in ("logrho_flat", "rho_laplacian",
                    "primal_value_laplacian", "dual_value_laplacian"):
            assert abs(rep.stats[key]["max"]) <= 1e-10
            assert abs(rep.stats[key]["min"]) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_expsolution(self, n, rng):
        rep = identity_suite(ExpSolution(n), rng.uniform(-1, 1, (100, n)))
        assert rep.passed

    def test_duallog_dual_side(self, rng):
        dl = DualLog(2)
        pts = np.c_[rng.uniform(0.5, 2, 100), rng.uniform(-1, 1, 100)]
        rep = identity_suite(dl, pts)
        assert rep.passed

    def test_scaling_law_explicit(self, rng):
        dl = DualLog(2)
        pts = np.c_[rng.uniform(0.5, 2, 50), rng.uniform(-1, 1, 50)]
        rep = identity_suite(dl, pts)
        assert rep.stats["phi_scaling_rel"]["max"] <= 1e-8

    def test_gate_rejects_non_solution(self, rng):
        bad = Quadratic.unit(2)
        with pytest.raises(PreconditionError):
            identity_suite(bad, rng.uniform(-1, 1, (5, 2)),
                           drift=DriftCoefficients(1.0, np.zeros(2)))


def relative_residual(rep):
    """max |residual| / Phi^2 of a Phi-inequality report."""
    return np.abs(rep.residuals["residual"] / rep.residuals["phi"] ** 2).max()


class TestPhiInequality:
    def test_expsolution_2_and_5(self, rng):
        for n in (2, 5):
            rep = phi_inequality_check(ExpSolution(n), rng.uniform(-1, 1, (50, n)))
            assert rep.passed
            assert rep.stats["residual"]["min"] >= -1e-4
            assert relative_residual(rep) <= 1e-10

    def test_duallog(self, rng):
        pts = np.c_[rng.uniform(0.5, 2, 50), rng.uniform(-1, 1, 50)]
        rep = phi_inequality_check(DualLog(2), pts)
        assert rep.passed
        assert np.abs(rep.residuals["residual"]).max() <= 1e-6
        assert relative_residual(rep) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("base", ["expsolution", "duallog"])
    def test_equality_on_affine_images(self, base, n, rng):
        """Under a non-orthogonal map, a scale and a tangent shift, H, T and the
        fourth derivatives are dense and the drift has every component; the
        fixture still meets the inequality with equality, to 1e-10 Phi^2."""
        L = np.array([[1.2, 0.3, -0.4], [0.5, 0.9, 0.2], [-0.3, 0.6, 1.1]])[:n, :n]
        u = ExpSolution(n) if base == "expsolution" else DualLog(n)
        x = rng.uniform(-0.5, 0.5, (40, n)) + (1.5 if base == "duallog" else 0.0) * np.eye(n)[0]
        T = AffineMap(L, np.linspace(-0.3, 0.2, n))
        w = AffineImageOracle(u, T, scale=0.6, p=x[0])
        rep = phi_inequality_check(w, T.apply(x))
        assert rep.passed and rep.stats["skipped_zero_phi"] == 0
        assert relative_residual(rep) <= 1e-10

    def test_quadratic_vacuous(self, rng):
        rep = phi_inequality_check(Quadratic.unit(2), rng.uniform(-1, 1, (10, 2)))
        assert rep.passed
        assert rep.stats["skipped_zero_phi"] == 10

    # on the fixtures the inequality holds with equality, so the residual
    # itself is small, not only its negative part (test_duallog asserts the
    # same on the dual side)
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_equality_on_expsolution(self, n, rng):
        rep = phi_inequality_check(ExpSolution(n), rng.uniform(-1, 1, (50, n)))
        assert np.abs(rep.residuals["residual"]).max() <= 1e-6
        assert relative_residual(rep) <= 1e-10

    def test_grid_equality_residual_falls_under_refinement(self):
        worst = []
        for res in (33, 65):
            fu = sample_oracle(ExpSolution(2), box_grid([-1, -1], [1, 1], res))
            r, _ = grid_phi_inequality_fields(fu)
            live = np.isfinite(r) & (fu.grid.mask == INTERIOR)
            worst.append(np.abs(r[live]).max())
        assert worst[1] * 2.5 <= worst[0]

    def test_gate_tol_applies_to_oracles(self, rng):
        dl = DualLog(2)
        pts = np.c_[rng.uniform(0.5, 2, 10), rng.uniform(-1, 1, 10)]
        below = DriftCoefficients(dl.drift().d0 + 0.1 * PDE_GATE_TOL, dl.drift().d)
        assert phi_inequality_check(dl, pts, drift=below).passed
        above = DriftCoefficients(dl.drift().d0 + 10.0 * PDE_GATE_TOL, dl.drift().d)
        with pytest.raises(PreconditionError):
            phi_inequality_check(dl, pts, drift=above)

    def test_other_side_raises(self, rng):
        """An oracle is checked on its own side; naming the other one raises."""
        pts = rng.uniform(-1, 1, (5, 2))
        assert phi_inequality_check(ExpSolution(2), pts, side="primal").passed
        with pytest.raises(DomainError):
            phi_inequality_check(ExpSolution(2), pts, side="dual")

    def test_solver_output_grid_route(self):
        ball = Ball(np.zeros(2), 1.0)
        g = Grid.build(ball, 65)
        q = Quadratic.unit(2)
        drift = DriftCoefficients(0.1, np.array([0.9, 0.5]))
        u, _ = newton_solve(g, drift, q.value)
        pred = lambda pts: np.linalg.norm(pts, axis=-1) <= 0.6
        rep = phi_inequality_check(u, side="dual", drift=drift, probe_predicate=pred)
        assert rep.passed
        assert rep.stats["residual"]["count"] > 200


class TestSectionMachinery:
    def test_trace_ray_kinds(self):
        u = duallog_normalized()
        (x,), (kind,) = trace_ray(u, [1, 0], np.array([[-1.0, 0.0]]), 0.3, WINDOW)
        assert kind == "level"
        assert u.value(x) == pytest.approx(0.3, abs=1e-6)
        _, (kind,) = trace_ray(u, [1, 0], np.array([[-1.0, 0.0]]), 10.0, WINDOW)
        assert kind == "window"

    @pytest.mark.parametrize("u, C, window, expected", [
        (duallog_normalized(), 0.3, WINDOW, {"level"}),
        (duallog_normalized(), 10.0, WINDOW, {"level", "window"}),
        (duallog_normalized(), 10.0, None, {"level", "domain"}),     # doubling
        (DualLog(2), 0.5, None, {"level", "domain"}),   # u -> 0 as s1 -> 0
        (Quadratic.unit(2), 1e30, None, {"window"}),    # doubling past 1e12
    ])
    def test_batched_trace_ray_matches_single_rays(self, u, C, window, expected):
        """All rays bisected together give, bit for bit, what one ray at a
        time gives: through the batched code and through the scalar loop."""
        dirs = direction_fan(2, 32)
        pts, kinds = trace_ray(u, [1, 0], dirs, C, window)
        assert set(kinds) == expected
        rows = [trace_ray(u, [1, 0], d[None], C, window) for d in dirs]
        loop = [trace_ray_loop(u, [1, 0], d, C, window) for d in dirs]
        for single in ([(x[0], kind[0]) for x, kind in rows], loop):
            assert np.array_equal(pts, np.array([x for x, _ in single]))
            assert np.array_equal(kinds, [kind for _, kind in single])

    def test_section_probes_compact_level(self):
        """The lattice is the unit ball's box in normalized coordinates; mapped
        back, its probes below the level fill the section and nothing more."""
        u = duallog_normalized()
        sec = extract_section(u, [1, 0], 0.3, WINDOW)
        assert len(sec.clipped_ends) == 0
        y = section_probes(sec, 101, WINDOW)
        assert 1000 < len(y) <= 101**2 and np.abs(y).max() == 1.0
        assert np.array_equal(y, section_probes(sec, 101))   # the window cuts nothing
        pts = sec.map.apply_inverse(y)
        pts = pts[u.value(pts) < 0.3]
        assert pts[:, 0].min() > 0.3 and pts[:, 0].max() < 1.9
        assert np.ptp(pts, axis=0) == pytest.approx(np.ptp(sec.support_points, axis=0), rel=0.05)

    def test_window_error_when_strict(self):
        u = duallog_normalized()
        with pytest.raises(WindowError):
            extract_section(u, [1, 0], 2.0, WINDOW, allow_clipped=False)
        # allowed, the clipped rays end on the window edge s1 = 1e-3, below the level
        sec = extract_section(u, [1, 0], 2.0, WINDOW, allow_clipped=True)
        ends = sec.clipped_ends
        assert len(ends) > 0 and (u.value(ends) < 2.0).all()
        assert np.abs(ends[:, 0] - 1e-3).max() <= 1e-12
        x = sec.map.apply_inverse(section_probes(sec, 101, WINDOW))
        assert (x[:, 0] >= 1e-3).all()

    def test_requires_normalized_potential(self):
        with pytest.raises(PreconditionError):
            extract_section(DualLog(2), [1, 0], 0.3, WINDOW)


class TestSectionFunctionals:
    def test_quadratic_phi_zero(self):
        q = Quadratic.unit(2)
        rep = section_functionals(q, np.zeros(2), 1.0,
                                (np.array([-3.0, -3.0]), np.array([3.0, 3.0])))
        assert rep.sup_phi_barrier == 0.0
        assert rep.sup_weighted_phi == 0.0

    def test_duallog_interior_supremum(self):
        u = duallog_normalized()
        rep = section_functionals(u, [1, 0], 1.0, WINDOW, probes_per_axis=201,
                                allow_clipped=True)
        assert np.isfinite([rep.sup_phi_barrier, rep.sup_weighted_phi, rep.sup_weighted_barrier,
                            rep.sup_weighted_trace, rep.sup_gradient_ratio]).all()
        # the barrier kills the section boundary: argmax sits well inside
        assert rep.level_fraction_at_argmax < 0.5
        assert rep.params.d > 1.0

    def test_functional_stability_under_refinement(self):
        """All four suprema move by <= 1% once the probe grid passes 101
        points per axis."""
        u = duallog_normalized()
        sups = {k: [] for k in ("sup_phi_barrier", "sup_weighted_phi", "sup_weighted_barrier", "sup_weighted_trace")}
        for ppa in (101, 151, 201):
            rep = section_functionals(u, [1, 0], 0.5, WINDOW, probes_per_axis=ppa)
            for k in sups:
                sups[k].append(getattr(rep, k))
        for k, vals in sups.items():
            spread = (max(vals) - min(vals)) / max(vals)
            assert spread <= 0.01, (k, vals)

    def test_gradient_ratio_sup_reaches_the_level(self):
        """The gradient ratio carries no barrier and peaks on the level set,
        where the normalized lattice has no probe: the traced ray ends carry
        its sup, so epsilon keeps H below 1/30 there too, at any density."""
        u = duallog_normalized()
        x = extract_section(u, [1, 0], 0.5, WINDOW).support_points
        g = u.gradient(x)
        f = np.einsum("ki,ki->k", x, g) - u.value(x)
        for ppa in (101, 201):
            rep = section_functionals(u, [1, 0], 0.5, WINDOW, probes_per_axis=ppa)
            on_level = gradient_ratio(g, f, rep.params.d).max()
            assert rep.sup_gradient_ratio >= on_level
            assert rep.params.epsilon * on_level < 1.0 / 30.0

    def test_epsilon_keeps_H_small(self):
        u = duallog_normalized()
        rep = section_functionals(u, [1, 0], 0.5, WINDOW)
        # H = eps * ratio <= eps * sup(ratio) < 1/30 by construction
        assert rep.params.epsilon * rep.sup_gradient_ratio < 1.0 / 30.0

    def test_shift_constant_bound(self, rng):
        uv = rng.uniform(0, 3, 100)
        fv = rng.uniform(-1, 5, 100)
        d = choose_shift_constant(uv, fv)
        assert np.all(np.abs(uv + fv) <= d + fv)

    def test_proof_functional_scales(self):
        pf = BarrierConstants.defaults(5, 1.0, d=2.0, epsilon=1e-3)
        assert pf.alpha == pytest.approx((7.0 * 2.0) / 2.0 + 1.0)
        assert pf.m_phi == pytest.approx(32.0)
        assert pf.m_weighted == pytest.approx(224.0)
        assert pf.m_trace == pytest.approx(256.0)
        assert pf.h(0.5) == pytest.approx(224.0 / 0.25)


class TestBarrierLadder:
    def test_ladder_reports_observed_values(self):
        u = duallog_normalized()
        rep = phi_barrier_ladder(u, [1, 0], [1.0, 2.0, 4.0, 8.0], WINDOW,
                          probes_per_axis=201)
        assert len(rep.sups) == 4
        assert rep.observed_b == pytest.approx(rep.sups[0])
        assert all(np.isfinite(rep.sups))
        # the half-space boundary cuts every rung, so the estimate does not apply
        assert all(c > 0 for c in rep.clipped)
        assert not rep.passed

    def test_quadratic_ladder_passes(self):
        window = (np.array([-8.0, -8.0]), np.array([8.0, 8.0]))
        rep = phi_barrier_ladder(Quadratic.unit(2), [0, 0], [1.0, 2.0, 4.0, 8.0],
                                 window, probes_per_axis=81)
        assert rep.clipped == [0, 0, 0, 0]
        assert max(rep.sups) <= 1e-14
        assert rep.passed

    def test_compact_ladder_sups_nondecreasing(self):
        # sections of the dual-log fixture at (16,0) stay inside s1 > 2.9 up to C = 8
        u = normalize_at(DualLog(2), np.array([16.0, 0.0]))
        window = (np.array([1e-3, -8.0]), np.array([64.0, 8.0]))
        rep = phi_barrier_ladder(u, [16, 0], [1.0, 2.0, 4.0, 8.0], window,
                                 probes_per_axis=201)
        assert rep.clipped == [0, 0, 0, 0]
        assert all(s1 >= 0.99 * s0 for s0, s1 in zip(rep.sups, rep.sups[1:]))
        # nested sections keep sup_8 >= sup_1 > 2 b/8: not flat, so not passed
        assert not rep.passed

    @pytest.mark.parametrize("base, p, C, window", [
        (ExpSolution(2), [0.0, 0.0], 1.0, ([-50.0, -50.0], [50.0, 50.0])),
        (DualLog(2), [16.0, 0.0], 4.0, ([1e-3, -8.0], [64.0, 8.0])),
    ], ids=["expsolution", "duallog"])
    def test_ladder_reads_the_normalized_lattice(self, base, p, C, window):
        """On a compact rung the ladder's sup is the blow-up's: with
        w = (u/C) o T^{-1}, Phi_w = C Phi_u and 1 - w = (C - u)/C, so it is
        (1/C) max exp(-8(n-1)/(1-w)) Phi_w over section_probes of the section."""
        u = normalize_at(base, np.array(p))
        window = (np.array(window[0]), np.array(window[1]))
        rep = phi_barrier_ladder(u, p, [C], window, probes_per_axis=201)
        assert rep.clipped == [0]
        sec = extract_section(u, p, C, window)
        w = sec.normalized_potential
        y = section_probes(sec, 201, window)
        wv = w.value(y)
        y, wv = y[wv < 1.0], wv[wv < 1.0]
        phi_w = invariants(w.hessian(y), w.third(y), w.side)["Phi"]
        want = float((np.exp(-8.0 * (w.n - 1.0) / (1.0 - wv)) * phi_w).max()) / C
        assert rep.sups[0] == pytest.approx(want, rel=1e-9)

    def test_duallog_self_similarity(self):
        """DualLog normalized at (16, 0) is 16 u_1(s1/16, s2/4), with u_1 the
        one normalized at (1, 0), so the ladder invariant C sup at C equals
        u_1's at C/16. Every rung is compact; the two sections' ray fans are
        not images of each other, so the normalized lattices agree only to
        probe resolution."""
        levels = [1.0, 2.0, 4.0, 8.0]
        big = phi_barrier_ladder(normalize_at(DualLog(2), np.array([16.0, 0.0])), [16, 0],
                                 levels, (np.array([1e-3, -8.0]), np.array([64.0, 8.0])),
                                 probes_per_axis=201)
        small = phi_barrier_ladder(duallog_normalized(), [1, 0], [C / 16.0 for C in levels],
                                   (np.array([1e-4, -2.0]), np.array([4.0, 2.0])),
                                   probes_per_axis=201)
        assert big.clipped == small.clipped == [0, 0, 0, 0]
        for C, s_big, s_small in zip(levels, big.sups, small.sups):
            assert C * s_big == pytest.approx(C / 16.0 * s_small, rel=1e-3)


class TestDetBarrier:
    def test_d5_spot_value(self):
        assert det_barrier_constant(2, 2.0, 1.0) == pytest.approx(4.756828460010884, abs=1e-12)
        assert det_barrier_constant(2, 2.0, 1.0) == pytest.approx(2.0 ** 2.25, abs=1e-12)

    def test_quadratic_trivial(self):
        pt, val, d5 = det_barrier_probe(Quadratic.unit(2), 1.0, 2.0)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert d5 > 2.0 ** (3.0 / 4.0)

    def test_expsolution(self):
        ex = ExpSolution(2)
        Rp = float(np.exp(1) + 1) + 0.01
        pt, val, d5 = det_barrier_probe(ex, 1.0, Rp)
        # minimum of (2 e^{x1})^{1/4} over the ball sits at x1 = -1
        assert val == pytest.approx((2 * np.exp(-1.0)) ** 0.25, rel=1e-3)
        assert val < d5

    @pytest.mark.parametrize("n", [2, 3])
    def test_catalog_fixtures(self, n):
        for oracle in (Quadratic.unit(n), Quadratic.unit(n, 2.0), ExpSolution(n)):
            Rp = float(np.abs(oracle.value(np.ones(n)))) + np.e + 1
            pt, val, d5 = det_barrier_probe(oracle, 1.0, Rp)
            assert val < d5

    def test_rprime_violation(self):
        with pytest.raises(PreconditionError):
            det_barrier_probe(ExpSolution(2), 1.0, 0.5)

    def test_grid_variant(self):
        from malab.grids import sample_oracle

        g = Grid.build(Ball(np.zeros(2), 1.0), 65)
        fu = sample_oracle(ExpSolution(2), g)
        pt, val, d5 = det_barrier_probe(fu, 1.0, float(np.e) + 1.1)
        assert val < d5
        # grid minimum of (2 e^{x1})^{1/4} sits at the smallest reachable x1
        assert pt[0] < -0.8

    def test_grid_ball_without_interior_nodes(self):
        """A ball that holds in-domain nodes but no interior node fails its
        precondition, not with an argmin of an empty sequence."""
        fu = sample_oracle(Quadratic.unit(2), Grid.build(Box([0, 0], [1, 1]), 33))
        with pytest.raises(PreconditionError):
            det_barrier_probe(fu, 0.05, 10.0)


def test_counterexample_error_path():
    """Valid convex inputs can never beat the barrier constant, so the error
    branch is exercised with an intentionally inconsistent stub whose values
    are small but whose reported Hessian is enormous."""
    from malab.oracles import FieldOracle

    class Inconsistent(FieldOracle):
        n = 2
        side = "primal"

        def value(self, x):
            return 0.0 * np.asarray(x)[..., 0]

        def hessian(self, x):
            x = np.asarray(x)
            H = np.zeros(x.shape[:-1] + (2, 2))
            H[..., 0, 0] = H[..., 1, 1] = 1e6
            return H

    with pytest.raises(CounterexampleError):
        det_barrier_probe(Inconsistent(), 1.0, 2.0)
