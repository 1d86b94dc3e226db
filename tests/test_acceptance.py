"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 10 checks the barrier-functional ladder. After normalization
u >= 0, so the sections {u < C} are nested and the barrier weight does not
fall as C grows: the ladder suprema are non-decreasing in C for every
convex potential. The estimate sup <= b/C holds only on sections compactly
contained in the domain; on a clipped rung the sup is bounded by the probe
window, not by the functional. The ladder passes when every rung is
compact and every sup stays within 2 b/C, which across levels {1,2,4,8}
means zero sups. The quadratic is flat and passes; the dual-log ladder at
(1,0) is clipped at every rung by its half-space boundary and fails.
"""

import time

import numpy as np
import pytest

from malab.blowup import run_blowup
from malab.checks import (identity_suite, det_barrier_constant, det_barrier_probe,
                          phi_inequality_check, phi_barrier_ladder)
from malab.domains import Ball, Box, centered_mvee, direction_fan, normalize_domain
from malab.geometry import geometry_sample, pde_residual, structure_residuals
from malab.grids import Grid, INTERIOR, sample_oracle
from malab.legendre import LegendrePair, involution_residual
from malab.oracles import DriftCoefficients, DualLog, ExpSolution, Quadratic, normalize_at
from malab.solver import SolverConfig, newton_solve

from conftest import random_polytope

BOX = Box([1, -1], [2, 1])
DL = DualLog(2)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_manufactured_solve():
    """DualLog Dirichlet solve: error <= C h^2, observed order >= 1.8,
    h = 1/64 run within 60 s."""
    errs, runtimes = {}, {}
    for res in (17, 33, 65):
        g = Grid.build(BOX, (res, 2 * res - 1))
        t0 = time.time()
        u, rep = newton_solve(g, DL.drift(), DL.value, SolverConfig(residual_tol=1e-11))
        runtimes[res] = time.time() - t0
        exact = DL.value(g.points())
        errs[res] = float(np.nanmax(np.abs(u.values - exact)[g.mask == INTERIOR]))
    orders = [np.log2(errs[17] / errs[33]), np.log2(errs[33] / errs[65])]
    bound_ok = all(errs[res] <= 4.0 * (1.0 / (res - 1) * 1.0) ** 2 for res in errs)
    ok = bound_ok and min(orders) >= 1.8 and runtimes[65] <= 60.0
    assert report(1, ok, f"errors={ {r: f'{e:.2e}' for r, e in errs.items()} } "
                         f"orders={[f'{o:.2f}' for o in orders]} "
                         f"t(1/64)={runtimes[65]:.1f}s")


def test_criterion_02_fixture_pde_gate():
    """ExpSolution solves the primal equation to 1e-12 for n in {2,3,5}."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (2, 3, 5):
        ex = ExpSolution(n)
        r = pde_residual(ex, rng.uniform(-1, 1, (200, n)), ex.drift())
        worst = max(worst, float(np.abs(r).max()))
    ok = worst <= 1e-12
    assert report(2, ok, f"max residual {worst:.2e} (tol 1e-12, n in {{2,3,5}})")


def test_criterion_03_identity_suite():
    """Solution identities on both analytic fixtures, 100 probes each."""
    rng = np.random.default_rng(3)
    rep_ex = identity_suite(ExpSolution(2), rng.uniform(-1, 1, (100, 2)))
    pts = np.c_[rng.uniform(0.5, 2, 100), rng.uniform(-1, 1, 100)]
    rep_dl = identity_suite(DL, pts)
    worst = max(max(abs(rep.stats[k]["min"]), abs(rep.stats[k]["max"]))
                for rep in (rep_ex, rep_dl)
                for k in ("logrho_flat", "rho_laplacian",
                          "primal_value_laplacian", "dual_value_laplacian"))
    ok = rep_ex.passed and rep_dl.passed and worst <= 1e-6
    assert report(3, ok, f"max identity residual {worst:.2e} (tol 1e-6)")


def test_criterion_04_phi_inequality():
    """Differential inequality: analytic fixtures (n in {2,5}) and five
    randomized solves on the unit ball at h = 1/64, probed on nodes with
    |xi| <= 0.6 where the FD chains are converged. The fixtures meet it with
    equality, and their derivatives are exact, so their residual stays within
    1e-10 Phi^2."""
    rng = np.random.default_rng(4)
    margins, rels = [], []

    def analytic(rep):
        margins.append(rep.stats["margin"]["min"])
        rels.append(np.abs(rep.residuals["residual"] / rep.residuals["phi"] ** 2).max())

    for n in (2, 5):
        analytic(phi_inequality_check(ExpSolution(n), rng.uniform(-1, 1, (50, n))))
        pts = np.c_[rng.uniform(0.5, 2, 50), rng.uniform(-1, 1, (50, n - 1))]
        analytic(phi_inequality_check(DualLog(n), pts))

    ball = Ball(np.zeros(2), 1.0)
    g = Grid.build(ball, 129)
    q = Quadratic.unit(2)
    pred = lambda pts: np.linalg.norm(pts, axis=-1) <= 0.6
    for _ in range(5):
        d = rng.uniform(-1.0, 1.0, 2)
        d *= rng.uniform(0.5, 2.0) / np.linalg.norm(d)
        drift = DriftCoefficients(float(rng.uniform(-0.3, 0.3)), d)
        u, _ = newton_solve(g, drift, q.value)
        rep = phi_inequality_check(u, side="dual", drift=drift, probe_predicate=pred)
        margins.append(rep.stats["margin"]["min"])
    ok = min(margins) >= 0.0 and max(rels) <= 1e-10
    assert report(4, ok, f"min margin {min(margins):.2e} over analytic + 5 solves, "
                         f"analytic |residual|/Phi^2 {max(rels):.2e}")


def test_criterion_05_phi_closed_form():
    """Phi of ExpSolution equals exp(-x1)/(n+2)^2 to 1e-10 relative;
    quadratics have Phi <= 1e-14."""
    rng = np.random.default_rng(5)
    worst_rel = 0.0
    for n in (2, 3, 5):
        ex = ExpSolution(n)
        for x in rng.uniform(-1, 1, (50, n)):
            phi = geometry_sample(ex, x).Phi
            want = np.exp(-x[0]) / (n + 2) ** 2
            worst_rel = max(worst_rel, abs(phi - want) / want)
    worst_quad = max(geometry_sample(Quadratic.unit(2), x).Phi
                     for x in rng.uniform(-1, 1, (20, 2)))
    ok = worst_rel <= 1e-10 and worst_quad <= 1e-14
    assert report(5, ok, f"rel err {worst_rel:.2e}, quadratic Phi {worst_quad:.2e}")


def test_criterion_06_geometry_cross_checks():
    """Tensor values at the ExpSolution origin (n=2) and structure defects."""
    s = geometry_sample(ExpSolution(2), np.zeros(2))
    checks = {
        "G": np.abs(s.G - np.diag([1.0, 2.0])).max(),
        "rho": abs(s.rho - 2.0 ** -0.25),
        "Gamma111": abs(s.Gamma[0, 0, 0] - 0.5),
        "A111": abs(s.A[0, 0, 0] + 0.5),
        "J": abs(s.J - 0.125),
        "KahlerRicci": np.abs(s.KahlerRicci).max(),
        "Ricci": np.abs(s.Ricci).max(),
    }
    sr = structure_residuals(ExpSolution(2), np.zeros(2))
    ok = max(checks.values()) <= 1e-8 and max(sr.codazzi, sr.ricci_consistency) <= 1e-5
    assert report(6, ok, f"worst tensor defect {max(checks.values()):.2e}, "
                         f"structure {max(sr.codazzi, sr.ricci_consistency):.2e}")


def test_criterion_07_normalization():
    """Sandwich bounds for 50 random polytopes (n=2) with 1e-6 slack;
    the square maps to the circle of radius sqrt(2)."""
    rng = np.random.default_rng(7)
    inner_req = 2.0 ** -1.5 * (1 - 1e-6)
    worst_out, worst_in = 0.0, np.inf
    dirs = direction_fan(2, 256)
    for _ in range(50):
        P = random_polytope(rng)
        v = normalize_domain(P, tol=1e-10).apply(P.vertices())
        worst_out = max(worst_out, np.linalg.norm(v, axis=1).max())
        worst_in = min(worst_in, (dirs @ v.T).max(axis=1).min())
    e = centered_mvee(Box([-1, -1], [1, 1]), tol=1e-9)
    radius_defect = abs(e.semi_axes()[0] - np.sqrt(2.0))
    ok = worst_out <= 1 + 1e-6 and worst_in >= inner_req and radius_defect <= 1e-6
    assert report(7, ok, f"outer {worst_out - 1:.1e}, inner slack "
                         f"{worst_in - inner_req:.3f}, circle defect {radius_defect:.1e}")


def test_criterion_08_scaling_law():
    """Phi scaling along the blow-up ladder; quadratic ladder stays flat."""
    u = normalize_at(DL, np.array([1.0, 0.0]))
    rep = run_blowup(u, [1, 0], [0.1, 0.2, 0.3], probes_per_axis=121)
    worst_rel = max(r.scaling_rel_error for r in rep.records)
    repq = run_blowup(Quadratic.unit(2), np.zeros(2), [1, 2, 4, 8],
                      probes_per_axis=81)
    worst_phi = max(r.sup_phi_half for r in repq.records)
    ok = worst_rel <= 1e-6 and worst_phi <= 1e-10
    assert report(8, ok, f"scaling rel err {worst_rel:.2e}, quadratic sup Phi "
                         f"{worst_phi:.2e}")


def test_criterion_09_det_barrier():
    """Determinant barrier probe on every catalog fixture with valid
    (R', delta), and the closed-form spot value of d5."""
    spot = det_barrier_constant(2, 2.0, 1.0)
    spot_ok = abs(spot - 2.0 ** 2.25) <= 1e-12
    results = []
    for n in (2, 3):
        for oracle in (Quadratic.unit(n), Quadratic.unit(n, 2.0), ExpSolution(n)):
            delta = 1.0
            Rp = float(np.abs(oracle.value(np.ones(n)))) + float(np.e) + 1.0
            pt, val, d5 = det_barrier_probe(oracle, delta, Rp)
            results.append(val < d5)
    ok = spot_ok and all(results)
    assert report(9, ok, f"d5(2,2,1)={spot:.6f} (want 4.756828...), "
                         f"{sum(results)}/{len(results)} fixtures beat the barrier")


def test_criterion_10_phi_barrier_ladder_decay():
    """Barrier-functional ladder over levels {1,2,4,8}, b fixed from the
    first level.

    Where the estimate's hypothesis holds at every height (the quadratic at
    0, sections compact in [-8,8]^2) every sup is zero and the ladder
    passes; in a window that cuts its sections the same zero ladder fails.
    On the dual-log fixture at (1,0) every rung is clipped by the
    half-space boundary, where Phi = 1/(16 s1) is unbounded, so the ladder
    fails; its sups are non-decreasing, as nested sections force, and the
    first is at least the functional's value exp(-8)/16 at p.
    """
    levels = [1.0, 2.0, 4.0, 8.0]
    quad = Quadratic.unit(2)
    repq = phi_barrier_ladder(quad, [0, 0], levels,
                              (np.array([-8.0, -8.0]), np.array([8.0, 8.0])),
                              probes_per_axis=201)
    quad_ok = (repq.passed and all(c == 0 for c in repq.clipped)
               and max(repq.sups) <= 1e-14)
    repc = phi_barrier_ladder(quad, [0, 0], levels,
                              (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                              probes_per_axis=51)
    clip_ok = (all(c > 0 for c in repc.clipped) and repc.within_factor_two
               and not repc.passed)

    u = normalize_at(DL, np.array([1.0, 0.0]))
    window = (np.array([1e-3, -8.0]), np.array([25.0, 8.0]))
    rep = phi_barrier_ladder(u, [1, 0], levels, window, probes_per_axis=201)
    # 1%: the probe-resolution spread of section_functionals' sups
    nondecreasing = all(s1 >= 0.99 * s0 for s0, s1 in zip(rep.sups, rep.sups[1:]))
    at_p = np.exp(-8.0) / 16.0
    dual_ok = (all(c > 0 for c in rep.clipped) and not rep.passed
               and nondecreasing and rep.sups[0] >= at_p)
    detail = (f"quadratic sups={[f'{s:.1e}' for s in repq.sups]} "
              f"passed={repq.passed}, clipped quadratic passed={repc.passed}; "
              f"duallog sups={[f'{s:.3e}' for s in rep.sups]} "
              f"clipped={rep.clipped} passed={rep.passed} "
              f"nondecreasing={nondecreasing} sup_1/(e^-8/16)={rep.sups[0] / at_p:.3f}")
    assert report(10, quad_ok and clip_ok and dual_ok, detail)


def test_criterion_11_legendre_round_trip():
    """Involution residual <= 5h, Young identity <= 1e-8, and solver
    monotonicity under ordered boundary data on 10 random pairs."""
    g = Grid.build(Box([-1, -1], [1, 1]), 41)
    h = g.spacing[0]
    inv = max(involution_residual(sample_oracle(Quadratic.unit(2), g)),
              involution_residual(sample_oracle(Quadratic.unit(2, 2.0), g)),
              involution_residual(sample_oracle(ExpSolution(2), g)))

    rng = np.random.default_rng(11)
    young = 0.0
    for oracle in (ExpSolution(2), Quadratic.unit(2, 2.0)):
        pair = LegendrePair(oracle, oracle.dual_oracle())
        for _ in range(25):
            young = max(young, abs(pair.young_defect(rng.uniform(-1, 1, 2))))

    ball = Ball(np.zeros(2), 1.0)
    gb = Grid.build(ball, 33)
    q = Quadratic.unit(2)
    drift = DriftCoefficients(0.0, np.array([0.7, -0.2]))
    mono_ok = True
    for _ in range(10):
        gap = float(rng.uniform(0.05, 1.0))
        u_hi, _ = newton_solve(gb, drift, lambda p: q.value(p) + gap)
        u_lo, _ = newton_solve(gb, drift, q.value)
        both = np.isfinite(u_hi.values)
        mono_ok &= bool(np.all(u_hi.values[both] >= u_lo.values[both] - 1e-8))

    ok = inv <= 5 * h and young <= 1e-8 and mono_ok
    assert report(11, ok, f"involution {inv:.2e} (5h={5*h:.2e}), "
                          f"young {young:.2e}, monotone={mono_ok}")
