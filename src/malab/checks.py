"""Numerical verification harness: pointwise identities satisfied by
solutions of the drift Monge-Ampere equation, the gradient-of-Phi
differential inequality, the barrier-weighted supremum functionals, and the
determinant lower-bound probe.

Every check first gates its input through the PDE residual, then reports
per-probe residuals with named tolerances; nothing is asserted here beyond
precondition gates (callers and tests decide what a report means).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .domains import direction_fan
from .errors import CounterexampleError, PreconditionError, WindowError
from .geometry import (ScalarRule, calabi_laplacian, fd_step, grad_logrho_rule,
                       grid_invariants, grid_phi_inequality_fields, invariants,
                       metric_laplacian, phi_inequality_residual, phi_rule,
                       rho_value_rule, xx_hessian_logrho)
from .grids import GridFunction, INTERIOR, atomic_write, csv_text
from .oracles import DUAL, PRIMAL, ScaledOracle, pde_residual
from .solver import residual_field
from .stencils import fd_gradient, fd_hessian

PDE_GATE_TOL = 1e-8
# rays traced from the base point to locate a section boundary, by dimension
SECTION_RAYS = defaultdict(lambda: 512, {2: 128})


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    name: str
    passed: bool
    tolerances: dict
    stats: dict
    points: np.ndarray = field(default=None, repr=False)
    residuals: dict = field(default_factory=dict, repr=False)

    def to_json(self):
        return {"name": self.name, "passed": bool(self.passed),
                "tolerances": self.tolerances, "stats": self.stats}

    def write_csv(self, path):
        keys = sorted(self.residuals)
        rows = len(self.residuals[keys[0]]) if keys else 0
        pts = self.points if self.points is not None else np.empty((rows, 0))
        table = np.column_stack([pts] + [self.residuals[k] for k in keys])
        header = [f"x{i+1}" for i in range(pts.shape[1])] + keys
        atomic_write(path, csv_text(header, table))


def _stats(arrs):
    out = {}
    for k, v in arrs.items():
        v = np.asarray(v, dtype=float)
        good = np.isfinite(v)
        if not good.any():
            out[k] = {"count": 0}
            continue
        out[k] = {"count": int(good.sum()),
                  "min": float(np.nanmin(v)), "max": float(np.nanmax(v)),
                  "argmin": int(np.nanargmin(v)), "argmax": int(np.nanargmax(v))}
    return out


def _gate(potential, probes, drift, side, tol):
    if drift is None:
        drift = potential.drift(side)
    if drift is None:
        raise PreconditionError("no drift constants available for the PDE gate")
    r = pde_residual(potential, probes, drift, side)
    worst = float(np.abs(r).max())
    if worst > tol:
        raise PreconditionError("potential fails the PDE residual gate",
                                worst=worst, tol=tol)
    return drift


# ---------------------------------------------------------------------------
# identity suite


def identity_suite(potential, probes, side=None, drift=None, scale_factor=4.0):
    """Residuals of the solution identities at analytic probes.

    logrho_flat             the x-Hessian of log rho vanishes;
    rho_laplacian           Lap rho = (n+4)/2 |grad rho|^2 / rho;
    primal_value_laplacian  Lap f = n + (n+2)/(2 rho) <grad rho, grad f>;
    dual_value_laplacian    Lap u = n - (n+2)/(2 rho) <grad rho, grad u>;
    phi_scaling_rel         Phi of (potential/scale) = scale * Phi pointwise.

    Only logrho_flat, rho_laplacian and the PDE gate test the equation;
    the other three columns hold for every convex potential.
    """
    side = side or potential.side
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    _gate(potential, probes, drift, side, PDE_GATE_TOL)
    n = potential.n

    H, T = potential.hessian(probes), potential.third(probes)
    inv = invariants(H, T, side)
    Hi, glr, rho, phi = inv["Ginv"], inv["grad_logrho"], inv["rho"], inv["Phi"]
    scaled = ScaledOracle(potential, scale_factor)
    phi_new = invariants(scaled.hessian(probes), scaled.third(probes), side)["Phi"]
    rho_r = rho_value_rule(potential, side)
    glr_r = grad_logrho_rule(potential, side)
    rho_rule = ScalarRule(rho_r, gradient=lambda y: rho_r(y)[..., None] * glr_r(y))

    # the scalars f and u on the evaluation side: the potential itself, and
    # its partner with gradient x @ H and Hessian H + x . T
    own = (potential.gradient(probes), H)
    other = (np.einsum("...k,...ki->...i", probes, H),
             H + np.einsum("...k,...kij->...ij", probes, T))
    (f_grad, f_hess), (u_grad, u_hess) = (own, other) if side == PRIMAL else (other, own)
    half = (n + 2.0) / 2.0
    inner_f = half * np.einsum("...ij,...i,...j->...", Hi, glr, f_grad)
    inner_u = half * np.einsum("...ij,...i,...j->...", Hi, glr, u_grad)
    want = scale_factor * phi
    res = {
        "logrho_flat": np.abs(xx_hessian_logrho(potential, probes, side)).max(axis=(-2, -1)),
        "rho_laplacian": (calabi_laplacian(potential, rho_rule, probes, side)
                          - (n + 4.0) / 2.0 * phi * rho),
        "primal_value_laplacian": metric_laplacian(Hi, glr, f_grad, f_hess, side) - (n + inner_f),
        "dual_value_laplacian": metric_laplacian(Hi, glr, u_grad, u_hess, side) - (n - inner_u),
        "phi_scaling_rel": np.where(want != 0, np.abs(phi_new - want)
                                    / np.maximum(np.abs(want), 1e-300), np.abs(phi_new)),
    }
    tols = {"logrho_flat": 1e-6, "rho_laplacian": 1e-6,
            "primal_value_laplacian": 1e-6, "dual_value_laplacian": 1e-6,
            "phi_scaling_rel": 1e-8}
    passed = all(np.abs(res[k]).max() <= tols[k] for k in tols)
    return CheckReport("identity_suite", passed, tols, _stats(res),
                       points=probes, residuals=res)


# ---------------------------------------------------------------------------
# the differential inequality for Phi


def phi_inequality_check(potential, probes=None, side=None, drift=None,
                         tol_scale=1e-4, phi_floor=1e-10,
                         gate_tol=PDE_GATE_TOL, probe_predicate=None):
    """Pointwise residual of

        Lap Phi >= n/(n-1) |grad Phi|^2/Phi
                   + (n^2-3n-10)/(2(n-1)) <grad Phi, grad log rho>
                   + (n+2)^2/(n-1) Phi^2

    Probes where Phi <= phi_floor are skipped (the zero branch is vacuous).
    For grid potentials the probes are interior nodes (optionally filtered
    by probe_predicate on node coordinates); FD chains near the prescribed
    collar are not trustworthy, so callers usually keep a margin.
    """
    if isinstance(potential, GridFunction):
        return _phi_inequality_grid(potential, side, drift, tol_scale,
                                    phi_floor, gate_tol, probe_predicate)
    side = side or potential.side
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    _gate(potential, probes, drift, side, gate_tol)

    phi_r = phi_rule(potential, side)
    inv = invariants(potential.hessian(probes), potential.third(probes), side)
    live = inv["Phi"] > phi_floor
    x = probes[live]
    hstep = fd_step(potential, x)
    residuals = phi_inequality_residual(inv["Ginv"][live], inv["grad_logrho"][live],
                                        inv["Phi"][live], fd_gradient(phi_r, x, hstep),
                                        fd_hessian(phi_r, x, hstep), side)
    return _phi_inequality_report("phi_inequality", x, residuals,
                                  inv["Phi"][live], int((~live).sum()), tol_scale)


def _phi_inequality_grid(fu, side, drift, tol_scale, phi_floor, gate_tol,
                         probe_predicate=None):
    side = side or DUAL
    if drift is None:
        raise PreconditionError("grid potentials need explicit drift constants")
    r = residual_field(fu, drift, side)
    worst = float(np.nanmax(np.abs(r.values)))
    if worst > gate_tol:
        raise PreconditionError("grid potential fails the PDE residual gate",
                                worst=worst, tol=gate_tol)
    res_f, phi_f = grid_phi_inequality_fields(fu, side)
    valid = np.isfinite(res_f) & np.isfinite(phi_f) & (fu.grid.mask == INTERIOR)
    if probe_predicate is not None:
        valid &= probe_predicate(fu.grid.points())
    live = valid & (phi_f > phi_floor)
    return _phi_inequality_report("phi_inequality_grid", fu.grid.points()[live],
                                  res_f[live], phi_f[live],
                                  int((valid & ~live).sum()), tol_scale)


def _phi_inequality_report(name, points, residuals, phis, skipped, tol_scale):
    margins = residuals + tol_scale * np.maximum(1.0, phis**2)
    passed = bool(len(margins) == 0 or margins.min() >= 0.0)
    arrs = {"residual": residuals, "phi": phis, "margin": margins}
    stats = _stats(arrs)
    stats["skipped_zero_phi"] = skipped
    return CheckReport(name, passed, {"tol_scale": tol_scale}, stats,
                       points=points, residuals=arrs)


# ---------------------------------------------------------------------------
# barrier functionals over sublevel sections


@dataclass(frozen=True)
class BarrierConstants:
    """Barrier constants used by the supremum functionals over a section of
    height C: a level height, the three barrier scales, the exponent alpha,
    the shift constant d > 1, and the smallness scale epsilon for H."""

    n: int
    C: float
    alpha: float
    m_phi: float
    m_weighted: float
    m_trace: float
    d: float
    epsilon: float

    @staticmethod
    def defaults(n, C, d, epsilon):
        return BarrierConstants(
            n=n, C=C,
            alpha=(n + 2.0) * (n - 3.0) / 2.0 + (n - 1.0) / 4.0,
            m_phi=8.0 * (n - 1.0) * C,
            m_weighted=32.0 * (n + 2.0) * C,
            m_trace=64.0 * (n - 1.0) * C,
            d=d, epsilon=epsilon)

    def h(self, u):
        return self.m_weighted / (self.C - u) ** 2

    def hprime(self, u):
        return 2.0 * self.m_weighted / (self.C - u) ** 3

    def hdoubleprime(self, u):
        return 6.0 * self.m_weighted / (self.C - u) ** 4

    def to_json(self):
        return {"n": self.n, "C": self.C, "alpha": self.alpha,
                "m_phi": self.m_phi, "m_weighted": self.m_weighted,
                "m_trace": self.m_trace, "d": self.d, "epsilon": self.epsilon}


def require_normalized(u, p):
    """p as an array, after checking that u has value 0 and zero gradient
    there (apply normalize_at first)."""
    p = np.asarray(p, dtype=float)
    if abs(float(u.value(p))) > 1e-9 or np.abs(u.gradient(p)).max() > 1e-9:
        raise PreconditionError(
            "potential is not normalized at p (apply normalize_at first)",
            value=float(u.value(p)), grad=np.abs(u.gradient(p)).max())
    return p


def trace_ray(u, p, directions, C, window=None, rel_tol=1e-8):
    """Walk rays from p until the potential reaches level C.

    `directions` is a batch (k, n); all rays bisect together, and a ray
    leaves the active set at the step where it is decided. Returns
    (points, kinds): kind is 'level' when u hits C on the ray, 'window' when
    the ray leaves the window box with u still below C, and 'domain' when it
    leaves the oracle's domain below C. One direction (n,) gives
    (point, kind).
    """
    p = np.asarray(p, dtype=float)
    D = np.asarray(directions, dtype=float)
    if D.ndim == 1:
        x, kind = trace_ray(u, p, D[None, :], C, window, rel_tol)
        return x[0], str(kind[0])

    def below(t, rows):
        """Whether u < C at p + t d on the given rays, and u there (NaN
        outside the domain)."""
        x = p + t[:, None] * D[rows]
        inside = u.contains(x)
        v = np.full(len(rows), np.nan)
        v[inside] = u.value(x[inside])
        return inside & (v < C), v

    kinds = np.full(len(D), "", dtype="<U6")
    t_cap = np.full(len(D), np.inf)
    if window is not None:
        bound = np.where(D > 0, np.asarray(window[1], float), np.asarray(window[0], float))
        t_cap = np.divide(bound - p, D, out=np.full(D.shape, np.inf), where=D != 0).min(axis=1)
    rows = np.flatnonzero(~np.isfinite(t_cap))
    t_cap[rows] = 1.0
    while len(rows):                        # double the unbounded rays
        rows = rows[below(t_cap[rows], rows)[0]]
        t_cap[rows] *= 2.0
        far = t_cap[rows] > 1e12
        kinds[rows[far]] = "window"
        rows = rows[~far]

    rows = np.flatnonzero(kinds == "")    # still below C at the cap: clipped
    kinds[rows[below(t_cap[rows], rows)[0]]] = "window"
    t_lo, t_hi = np.zeros(len(D)), t_cap.copy()
    width = 1e-14 * np.maximum(1.0, t_cap)
    rows = np.flatnonzero(kinds == "")
    # bisect; a ray ends at its first lower end within rel_tol of the level
    while len(rows := rows[t_hi[rows] - t_lo[rows] > width[rows]]):
        t_mid = 0.5 * (t_lo[rows] + t_hi[rows])
        hit, v = below(t_mid, rows)
        t_lo[rows[hit]] = t_mid[hit]
        t_hi[rows[~hit]] = t_mid[~hit]
        level = hit & (np.abs(v - C) <= rel_tol * max(C, 1e-12))
        kinds[rows[level]] = "level"
        rows = rows[~level]

    rows = np.flatnonzero(kinds == "")
    near = np.abs(u.value(p + t_lo[rows, None] * D[rows]) - C) <= 1e-6 * max(C, 1e-12)
    kinds[rows] = np.where(near, "level", "domain")
    t = np.where(kinds == "window", t_cap, t_lo)
    return p + t[:, None] * D, kinds


def section_probes(u, p, C, window, probes_per_axis=201, allow_clipped=False):
    """Dense probe set of the sublevel section {u < C}.

    Rays from p locate the section boundary by bisection; rays that leave
    the window or the oracle domain before the level mark the section as
    clipped (an error unless allow_clipped). Returns (points, clipped_rays).
    """
    p = require_normalized(u, p)
    n = u.n
    hits, kinds = trace_ray(u, p, direction_fan(n, SECTION_RAYS[n]), C, window)
    clipped = int((kinds != "level").sum())
    if clipped and not allow_clipped:
        raise WindowError("section is not compactly contained in the window",
                          clipped_rays=clipped, rays=len(hits))
    lo_w, hi_w = np.asarray(window[0], float), np.asarray(window[1], float)
    lo = np.maximum(hits.min(axis=0), lo_w)
    hi = np.minimum(hits.max(axis=0), hi_w)
    axes = [np.linspace(lo[i], hi[i], probes_per_axis) for i in range(n)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    pts = pts[u.contains(pts)]
    vals = u.value(pts)
    return pts[vals < C], clipped


def choose_shift_constant(u_vals, f_vals):
    """Smallest power-of-two d > 1 with |u + f| <= d + f on the probes."""
    d = 2.0
    for _ in range(60):
        if np.all(d + f_vals > 0) and np.all(np.abs(u_vals + f_vals) <= d + f_vals):
            return d
        d *= 2.0
    raise PreconditionError("no shift constant d satisfies the pointwise bound")


def gradient_ratio(grads, f_vals, d):
    """|grad u|^2 / (d + f)^2 at each probe."""
    return np.einsum("ki,ki->k", grads, grads) / (d + f_vals) ** 2


def choose_epsilon(ratio_peak):
    """Smallness scale that keeps the exponent epsilon * gradient_ratio
    below 1/30."""
    return (1.0 / 30.0) / ratio_peak * (1.0 - 1e-12) if ratio_peak > 0 else 1.0


def barrier_functionals(params, u_vals, grads, f_vals, rho, phi, trace):
    """Integrands of the barrier functionals over the section
    {u < params.C}, at probes with values u_vals, gradients grads, Legendre
    values f_vals = <x, grad u> - u, invariants rho and Phi, and Hessian
    traces. Returns a dict of arrays: phi_barrier, weighted_phi,
    weighted_barrier, weighted_trace and gradient_ratio."""
    n, C, d, a = params.n, params.C, params.d, params.alpha
    ratio = gradient_ratio(grads, f_vals, d)
    pw = (d + f_vals) ** (2.0 * n * a / (n + 2.0))
    return {
        "phi_barrier": np.exp(-params.m_phi / (C - u_vals)) * phi,
        "weighted_phi": np.exp(-params.m_weighted / (C - u_vals)) * rho**a * phi / pw,
        "weighted_barrier": np.exp(-params.m_weighted / (C - u_vals)
                                   + params.epsilon * ratio)
        * (params.h(u_vals) + 2.0 * a) * rho**a / pw,
        "weighted_trace": np.exp(-params.m_trace / (C - u_vals)) * rho**a * trace
        / (pw * (d + f_vals) ** 2),
        "gradient_ratio": ratio,
    }


@dataclass
class SectionFunctionalReport:
    params: BarrierConstants
    sup_phi_barrier: float
    sup_weighted_phi: float
    sup_weighted_barrier: float
    sup_weighted_trace: float
    sup_gradient_ratio: float
    argmax_phi_barrier: np.ndarray
    level_fraction_at_argmax: float
    probe_count: int
    clipped_rays: int

    def to_json(self):
        return {
            "params": self.params.to_json(),
            "sup_phi_barrier": self.sup_phi_barrier, "sup_weighted_phi": self.sup_weighted_phi,
            "sup_weighted_barrier": self.sup_weighted_barrier, "sup_weighted_trace": self.sup_weighted_trace,
            "sup_gradient_ratio": self.sup_gradient_ratio,
            "argmax_phi_barrier": self.argmax_phi_barrier.tolist(),
            "level_fraction_at_argmax": self.level_fraction_at_argmax,
            "probe_count": self.probe_count, "clipped_rays": self.clipped_rays,
        }


def section_functionals(u, p, C, window, probes_per_axis=201,
                        allow_clipped=False, shift_d=None, epsilon=None):
    """Suprema of the barrier functionals over a dense probe set of {u < C}.

    The potential must be normalized at p. The shift constant d is found by
    doubling search so |u+f| <= d+f holds on the probes, and epsilon is set
    so the auxiliary exponent H stays below 1/30.
    """
    pts, clipped = section_probes(u, p, C, window, probes_per_axis,
                                  allow_clipped=allow_clipped)
    n = u.n
    uv = u.value(pts)
    grads = u.gradient(pts)                    # x = grad u
    fv = np.einsum("ki,ki->k", pts, grads) - uv
    H = u.hessian(pts)
    inv = invariants(H, u.third(pts), u.side)

    d = shift_d if shift_d is not None else choose_shift_constant(uv, fv)
    if epsilon is None:
        epsilon = choose_epsilon(float(gradient_ratio(grads, fv, d).max()))
    params = BarrierConstants.defaults(n, C, d, epsilon)
    w = barrier_functionals(params, uv, grads, fv, inv["rho"], inv["Phi"],
                            np.einsum("kii->k", H))

    k = int(np.argmax(w["phi_barrier"]))
    return SectionFunctionalReport(
        params=params,
        sup_phi_barrier=float(w["phi_barrier"].max()),
        sup_weighted_phi=float(w["weighted_phi"].max()),
        sup_weighted_barrier=float(w["weighted_barrier"].max()),
        sup_weighted_trace=float(w["weighted_trace"].max()),
        sup_gradient_ratio=float(w["gradient_ratio"].max()),
        argmax_phi_barrier=pts[k], level_fraction_at_argmax=float(uv[k] / C),
        probe_count=int(len(pts)), clipped_rays=int(clipped))


@dataclass
class LadderReport:
    levels: list
    sups: list
    observed_b: float
    decreasing: bool
    within_factor_two: bool
    clipped: list

    @property
    def passed(self):
        """Every rung compact in the window, and every sup within 2 b/C."""
        return all(c == 0 for c in self.clipped) and self.within_factor_two

    def to_json(self):
        return {"levels": list(self.levels), "sups": list(self.sups),
                "observed_b": self.observed_b, "decreasing": self.decreasing,
                "within_factor_two": self.within_factor_two,
                "clipped": list(self.clipped)}


def phi_barrier_ladder(u, p, levels, window, probes_per_axis=201,
                       allow_clipped=True):
    """sup of the barrier-weighted Phi functional across a ladder of section
    heights, with the bound constant b calibrated from the first level.

    The potential is normalized at p, so u >= 0: the weight
    exp(-8(n-1)C/(C-u)) does not decrease as C grows, and the sections
    {u < C} are nested. The sups are therefore non-decreasing in C for any
    convex potential, up to probe resolution; `decreasing` is reported for
    information only. The estimate sup <= b/C holds on sections compactly
    contained in the domain. A clipped rung (a ray that leaves the window
    or the domain before reaching the level) is not such a section, and its
    sup is bounded by the window, not by the functional's sup over the
    section. `passed` asks that every rung be compact and every sup stay
    within 2 b/C. With nested sections, a ladder spanning more than a
    factor 2 in C passes only if its sups are zero: the flatness the
    estimate forces on a potential whose sections are compact at every
    height.
    """
    sups, clipped = [], []
    for C in levels:
        rep = section_functionals(u, p, C, window, probes_per_axis,
                                  allow_clipped=allow_clipped)
        sups.append(rep.sup_phi_barrier)
        clipped.append(rep.clipped_rays)
    b = levels[0] * sups[0]
    decreasing = all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
    within = all(s <= 2.0 * b / C for s, C in zip(sups, levels))
    return LadderReport(list(levels), sups, float(b), decreasing, within, clipped)


# ---------------------------------------------------------------------------
# determinant lower-bound probe


def det_barrier_constant(n, Rprime, delta):
    return (4.0 * Rprime / delta**2) ** (n / (n + 2.0)) * 2.0 ** ((n + 1.0) / (n + 2.0))


def det_barrier_probe(f, delta, Rprime, coarse=None, rounds=6):
    """Search the ball B_delta(0) for a point with det(D^2 f)^{1/(n+2)}
    below the closed-form barrier constant d5, by coarse-to-fine descent.

    Verifies |f| <= Rprime on the ball first; raises CounterexampleError if
    the search cannot beat d5 (the theory forbids that on valid inputs).
    """
    if isinstance(f, GridFunction):
        return _det_barrier_grid(f, delta, Rprime)
    n = f.n
    d5 = det_barrier_constant(n, Rprime, delta)
    coarse = coarse or (21 if n <= 3 else 7)

    def lattice(center, radius, per_axis):
        axes = [np.linspace(center[i] - radius, center[i] + radius, per_axis)
                for i in range(n)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        return pts[np.sum(pts**2, axis=-1) <= delta**2]

    pts = lattice(np.zeros(n), delta, coarse)
    if not np.all(f.contains(pts)):
        raise PreconditionError("ball escapes the oracle domain")
    worst = float(np.abs(f.value(pts)).max())
    if worst > Rprime:
        raise PreconditionError("|f| exceeds the stated bound on the ball",
                                worst=worst, Rprime=Rprime)

    def invrho(points):
        logdet = invariants(f.hessian(points), None, PRIMAL)["logdet"]
        if not np.all(np.isfinite(logdet)):
            raise PreconditionError("Hessian not positive definite on the ball")
        return np.exp(logdet / (n + 2.0))

    best_pts = pts
    radius = delta
    center, best_val = np.zeros(n), float(invrho(np.zeros(n)[None, :])[0])
    for _ in range(rounds):
        v = invrho(best_pts)
        k = int(np.argmin(v))
        center, best_val = best_pts[k], float(v[k])
        radius *= 0.35
        cand = lattice(center, radius, coarse)
        if len(cand) == 0:
            break
        best_pts = np.vstack([cand, center[None, :]])
    if best_val >= d5:
        raise CounterexampleError("no point beats the determinant barrier",
                                  best=best_val, d5=d5)
    return center, best_val, d5


def _det_barrier_grid(fu, delta, Rprime):
    """Grid variant: descend on interior nodes of the ball."""
    n = fu.n
    d5 = det_barrier_constant(n, Rprime, delta)
    grid = fu.grid
    pts = grid.points()
    in_ball = np.linalg.norm(pts, axis=-1) <= delta
    live = in_ball & (grid.mask != 0)
    if not live.any():
        raise PreconditionError("grid does not cover the ball")
    if float(np.abs(fu.values[live]).max()) > Rprime:
        raise PreconditionError("|f| exceeds the stated bound on the ball")
    logdet = grid_invariants(fu, PRIMAL)["logdet"]
    live = in_ball & (grid.mask == INTERIOR) & np.isfinite(logdet)
    vals = np.exp(logdet[live] / (n + 2.0))
    nodes = pts[live]
    k = int(np.argmin(vals))
    if vals[k] >= d5:
        raise CounterexampleError("no node beats the determinant barrier",
                                  best=float(vals[k]), d5=d5)
    return nodes[k], float(vals[k]), d5
