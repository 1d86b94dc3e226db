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

from .domains import Polytope, direction_fan, normalize_domain
from .errors import (CounterexampleError, DomainError, PreconditionError, Report,
                     UnboundedSectionError, WindowError)
from .geometry import (grid_invariants, grid_phi_inequality_fields, invariants, logrho_hessian,
                       metric_laplacian, pde_residual, phi_inequality_residual,
                       xx_hessian_logrho)
from .grids import GridFunction, INTERIOR, atomic_write, csv_text
from .oracles import PRIMAL, AffineImageOracle
from .solver import residual_field

PDE_GATE_TOL = 1e-8
PHI_TOL_SCALE = 1e-4   # a Phi-inequality margin may fall this far below 0, times max(1, Phi^2)
PHI_FLOOR = 1e-10      # probes with Phi at most this are on the vacuous zero branch
DET_BARRIER_ROUNDS = 6  # coarse-to-fine descent rounds of det_barrier_probe
SCALE_FACTOR = 4.0     # the rescaling u -> u/SCALE_FACTOR of the phi_scaling_rel column
PHI_BARRIER = 8.0      # the Phi barrier's exponent is -PHI_BARRIER (n-1) C/(C-u)
# rays traced from the base point to locate a section boundary, by dimension
SECTION_RAYS = defaultdict(lambda: 512, {2: 128})


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport(Report):
    name: str
    passed: bool
    tolerances: dict
    stats: dict
    points: np.ndarray = field(default=None, repr=False)
    residuals: dict = field(default_factory=dict, repr=False)

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
        count = int(np.isfinite(v).sum())
        out[k] = {"count": count, "min": float(np.nanmin(v)),
                  "max": float(np.nanmax(v))} if count else {"count": 0}
    return out


def _gate(potential, probes, drift):
    """The drift constants, after checking that the PDE residual stays within
    PDE_GATE_TOL at the probes, or at every interior node of a GridFunction.
    An oracle without explicit drift constants gates with its own."""
    on_grid = isinstance(potential, GridFunction)
    if drift is None and not on_grid:
        drift = potential.drift()
    if drift is None:
        raise PreconditionError("no drift constants available for the PDE gate")
    r = (residual_field(potential, drift).values if on_grid
         else pde_residual(potential, probes, drift))
    worst = float(np.nanmax(np.abs(r)))
    if worst > PDE_GATE_TOL:
        raise PreconditionError("potential fails the PDE residual gate",
                                worst=worst, tol=PDE_GATE_TOL)
    return drift


# ---------------------------------------------------------------------------
# identity suite


def identity_suite(potential, probes, drift=None):
    """Residuals of the solution identities at analytic probes, on the
    potential's side.

    logrho_flat             the x-Hessian of log rho vanishes;
    rho_laplacian           Lap rho = (n+4)/2 |grad rho|^2 / rho;
    primal_value_laplacian  Lap f = n + (n+2)/(2 rho) <grad rho, grad f>;
    dual_value_laplacian    Lap u = n - (n+2)/(2 rho) <grad rho, grad u>;
    phi_scaling_rel         Phi of (potential/SCALE_FACTOR) = SCALE_FACTOR * Phi
                            pointwise.

    Only logrho_flat, rho_laplacian and the PDE gate test the equation;
    the other three columns hold for every convex potential.
    """
    side, n = potential.side, potential.n
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    _gate(potential, probes, drift)

    H, T = potential.hessian(probes), potential.third(probes)
    inv = invariants(H, T, side)
    Hi, glr, gld = inv["Ginv"], inv["grad_logrho"], inv["grad_logdet"]
    rho, phi = inv["rho"], inv["Phi"]
    scaled = AffineImageOracle(potential, scale=SCALE_FACTOR)
    phi_new = invariants(scaled.hessian(probes), scaled.third(probes), side)["Phi"]
    # D^2 rho = rho (D^2 log rho + grad log rho grad log rho^T)
    rho_hess = rho[..., None, None] * (logrho_hessian(Hi, T, potential.fourth(probes), side)
                                       + glr[..., :, None] * glr[..., None, :])

    # the scalars f and u on the evaluation side: the potential itself, and
    # its partner with gradient x @ H and Hessian H + x . T
    own = (potential.gradient(probes), H)
    other = (np.einsum("...k,...ki->...i", probes, H),
             H + np.einsum("...k,...kij->...ij", probes, T))
    (f_grad, f_hess), (u_grad, u_hess) = (own, other) if side == PRIMAL else (other, own)
    half = (n + 2.0) / 2.0
    inner_f = half * np.einsum("...ij,...i,...j->...", Hi, glr, f_grad)
    inner_u = half * np.einsum("...ij,...i,...j->...", Hi, glr, u_grad)
    want = SCALE_FACTOR * phi
    res = {
        "logrho_flat": np.abs(xx_hessian_logrho(potential, probes)).max(axis=(-2, -1)),
        "rho_laplacian": (metric_laplacian(Hi, gld, rho[..., None] * glr, rho_hess)
                          - (n + 4.0) / 2.0 * phi * rho),
        "primal_value_laplacian": metric_laplacian(Hi, gld, f_grad, f_hess) - (n + inner_f),
        "dual_value_laplacian": metric_laplacian(Hi, gld, u_grad, u_hess) - (n - inner_u),
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
                         probe_predicate=None):
    """Pointwise residual of

        Lap Phi >= n/(n-1) |grad Phi|^2/Phi
                   + (n^2-3n-10)/(2(n-1)) <grad Phi, grad log rho>
                   + (n+2)^2/(n-1) Phi^2

    on the potential's side; `side`, if given, must be that side.
    Probes where Phi <= PHI_FLOOR are skipped (the zero branch is vacuous).
    At analytic probes, Phi and grad log rho are the kernel's, and grad Phi
    and D^2 Phi are exact, those of Phi on the gated drift. For grid
    potentials the probes are interior nodes (optionally filtered by
    probe_predicate on node coordinates); FD chains near the prescribed
    collar are not trustworthy, so callers usually keep a margin.
    """
    if side not in (None, potential.side):
        raise DomainError("a potential is read on its own side", side=side, own=potential.side)
    on_grid = isinstance(potential, GridFunction)
    drift = _gate(potential, probes, drift)
    if on_grid:
        res, phi = grid_phi_inequality_fields(potential)
        pts = potential.grid.points()
        valid = np.isfinite(res) & np.isfinite(phi) & (potential.grid.mask == INTERIOR)
        if probe_predicate is not None:
            valid &= probe_predicate(pts)
        live = valid & (phi > PHI_FLOOR)
        return _phi_inequality_report("phi_inequality_grid", pts[live], res[live], phi[live],
                                      int((valid & ~live).sum()))
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    T = potential.third(probes)
    inv = invariants(potential.hessian(probes), T, potential.side)
    live = inv["Phi"] > PHI_FLOOR
    inv = {k: v[live] for k, v in inv.items()}
    x = probes[live]
    residuals = phi_inequality_residual(inv, *_phi_eq_derivatives(
        inv["Ginv"], T[live], potential.fourth(x), drift.d, potential.side))
    return _phi_inequality_report("phi_inequality", x, residuals,
                                  inv["Phi"], int((~live).sum()))


def _phi_eq_derivatives(Ginv, T, Q, d, side):
    """Gradient and Hessian of Phi where the drift equation holds, from H^{-1},
    T and Q: there Phi = d.H^{-1}d/(n+2)^2 on the primal side, whose derivatives
    bring in d(H^{-1}) = -H^{-1} T H^{-1}, and d.H d/(n+2)^2 on the dual side."""
    c = (Ginv.shape[-1] + 2.0) ** 2
    if side != PRIMAL:
        return (np.einsum("...abk,a,b->...k", T, d, d) / c,
                np.einsum("...abkl,a,b->...kl", Q, d, d) / c)
    v = Ginv @ d
    W = np.einsum("...abk,...b->...ak", T, v)  # (T_k v)_a
    return (-np.einsum("...ak,...a->...k", W, v) / c,
            (2.0 * np.einsum("...ak,...ab,...bl->...kl", W, Ginv, W)
             - np.einsum("...abkl,...a,...b->...kl", Q, v, v)) / c)


def _phi_inequality_report(name, points, residuals, phis, skipped):
    margins = residuals + PHI_TOL_SCALE * np.maximum(1.0, phis**2)
    passed = bool(len(margins) == 0 or margins.min() >= 0.0)
    arrs = {"residual": residuals, "phi": phis, "margin": margins}
    stats = {**_stats(arrs), "skipped_zero_phi": skipped}
    return CheckReport(name, passed, {"tol_scale": PHI_TOL_SCALE}, stats,
                       points=points, residuals=arrs)


# ---------------------------------------------------------------------------
# barrier functionals over sublevel sections


@dataclass(frozen=True)
class BarrierConstants(Report):
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
            m_phi=PHI_BARRIER * (n - 1.0) * C,
            m_weighted=32.0 * (n + 2.0) * C,
            m_trace=64.0 * (n - 1.0) * C,
            d=d, epsilon=epsilon)

    @staticmethod
    def fit(n, C, samples):
        """The constants over one or several section samples: the smallest
        power-of-two d > 1 with |u + f| <= d + f on every probe, and the
        epsilon that keeps epsilon * gradient_ratio below 1/30 there."""
        d = max(choose_shift_constant(s["u"], s["f"]) for s in samples)
        peak = max(float(gradient_ratio(s["grad"], s["f"], d).max()) for s in samples)
        return BarrierConstants.defaults(n, C, d, choose_epsilon(peak))

    def h(self, u):
        return self.m_weighted / (self.C - u) ** 2


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
    leaves the oracle's domain below C.
    """
    p = np.asarray(p, dtype=float)
    D = np.asarray(directions, dtype=float)

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


@dataclass
class SectionData(Report):
    p: np.ndarray
    C: float
    support_points: np.ndarray
    map: object                 # AffineMap sending the section MVEE to B(0,1)
    normalized_potential: object = field(repr=False)
    level_defect: float         # worst |u - C| on the level rays: at most 1e-6 C (trace_ray)
    clipped_ends: np.ndarray    # ends of the rays that leave the window or domain below C


def extract_section(u, p, C, window=None, allow_clipped=False):
    """Boundary of {u < C} by ray bisection, plus its John normalization.

    A ray that leaves the window box or the oracle's domain below the level
    clips the section and ends there (clipped_ends): WindowError with a
    window, UnboundedSectionError without, unless allow_clipped.
    """
    p = require_normalized(u, p)
    dirs = direction_fan(u.n, SECTION_RAYS[u.n])
    pts, kinds = trace_ray(u, p, dirs, C, window, rel_tol=1e-9)
    level = kinds == "level"
    if not (allow_clipped or level.all()):
        raise (WindowError if window is not None else UnboundedSectionError)(
            "section ray leaves the window or the domain before the level",
            clipped_rays=int((~level).sum()), rays=len(pts), level=C)
    T = normalize_domain(Polytope(pts))
    w = AffineImageOracle(u, T, scale=C, name=f"{u.name}_section_{C:g}")
    return SectionData(p=p, C=float(C), support_points=pts, map=T, normalized_potential=w,
                       level_defect=float(np.abs(u.value(pts[level]) - C).max(initial=0.0)),
                       clipped_ends=pts[~level])


def section_probes(section, probes_per_axis, window=None):
    """The section's probe lattice in normalized coordinates y = T x: the
    unit ball's box [-1, 1]^n, where the normalized potential is finite and,
    given a window box, T^{-1} y lies in the window."""
    w = section.normalized_potential
    axes = [np.linspace(-1.0, 1.0, probes_per_axis)] * w.n
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, w.n)
    keep = w.contains(pts)
    if window is not None:
        x = section.map.apply_inverse(pts)
        keep &= np.all((x >= window[0]) & (x <= window[1]), axis=1)
    return pts[keep]


def _section_points(u, p, C, window, probes_per_axis, allow_clipped):
    """Probes of {u < C}: its section's lattice mapped back to u's coordinates
    and every ray end as traced (a sup without a barrier, such as the gradient
    ratio's, sits on the level), as (points, values, clipped_rays)."""
    section = extract_section(u, p, C, window, allow_clipped)
    x = np.vstack([section.map.apply_inverse(section_probes(section, probes_per_axis, window)),
                   section.support_points])
    vals = u.value(x)
    return x[vals < C], vals[vals < C], len(section.clipped_ends)


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


def section_sample(u, pts, vals):
    """What the barrier functionals read at probes pts of a section of u,
    whose values vals are known: a dict of the points, u, grad, the Legendre
    values f = <x, grad u> - u, rho, phi and the Hessian traces."""
    grads = u.gradient(pts)                    # x = grad u
    H = u.hessian(pts)
    inv = invariants(H, u.third(pts), u.side)
    return {"points": pts, "u": vals, "grad": grads,
            "f": np.einsum("ki,ki->k", pts, grads) - vals,
            "rho": inv["rho"], "phi": inv["Phi"], "trace": np.einsum("kii->k", H)}


def phi_barrier(n, C, u_vals, phi):
    """The Phi-barrier functional exp(-8(n-1)C/(C-u)) Phi on {u < C}."""
    return np.exp(-PHI_BARRIER * (n - 1.0) * C / (C - u_vals)) * phi


def barrier_functionals(params, sample):
    """Integrands of the barrier functionals over the section
    {u < params.C}, at the probes of a section_sample. Returns a dict of
    arrays: phi_barrier, weighted_phi, weighted_barrier, weighted_trace and
    gradient_ratio."""
    n, C, d, a = params.n, params.C, params.d, params.alpha
    u_vals, f_vals, rho, phi = sample["u"], sample["f"], sample["rho"], sample["phi"]
    ratio = gradient_ratio(sample["grad"], f_vals, d)
    pw = (d + f_vals) ** (2.0 * n * a / (n + 2.0))
    return {
        "phi_barrier": phi_barrier(n, C, u_vals, phi),
        "weighted_phi": np.exp(-params.m_weighted / (C - u_vals)) * rho**a * phi / pw,
        "weighted_barrier": np.exp(-params.m_weighted / (C - u_vals)
                                   + params.epsilon * ratio)
        * (params.h(u_vals) + 2.0 * a) * rho**a / pw,
        "weighted_trace": np.exp(-params.m_trace / (C - u_vals)) * rho**a * sample["trace"]
        / (pw * (d + f_vals) ** 2),
        "gradient_ratio": ratio,
    }


@dataclass
class SectionFunctionalReport(Report):
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


def section_functionals(u, p, C, window, probes_per_axis=201, allow_clipped=False):
    """Suprema of the barrier functionals over the probes of {u < C}.

    The potential must be normalized at p. The constants are fitted to the
    probes (BarrierConstants.fit): d so |u+f| <= d+f holds, and epsilon so
    the auxiliary exponent H stays below 1/30.
    """
    pts, uv, clipped = _section_points(u, p, C, window, probes_per_axis, allow_clipped)
    sample = section_sample(u, pts, uv)
    params = BarrierConstants.fit(u.n, C, [sample])
    w = barrier_functionals(params, sample)

    k = int(np.argmax(w["phi_barrier"]))
    return SectionFunctionalReport(
        params=params, **{f"sup_{name}": float(v.max()) for name, v in w.items()},
        argmax_phi_barrier=pts[k], level_fraction_at_argmax=float(uv[k] / C),
        probe_count=int(len(pts)), clipped_rays=clipped)


@dataclass
class LadderReport(Report):
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


def phi_barrier_ladder(u, p, levels, window, probes_per_axis=201,
                       allow_clipped=True):
    """sup of the barrier-weighted Phi functional across a ladder of section
    heights, probed as section_functionals does, with the bound constant b
    calibrated from the first level.

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
        pts, uv, clipped_rays = _section_points(u, p, C, window, probes_per_axis, allow_clipped)
        phi = invariants(u.hessian(pts), u.third(pts), u.side)["Phi"]
        sups.append(float(phi_barrier(u.n, C, uv, phi).max()))
        clipped.append(clipped_rays)
    b = levels[0] * sups[0]
    decreasing = all(sups[i + 1] < sups[i] for i in range(len(sups) - 1))
    within = all(s <= 2.0 * b / C for s, C in zip(sups, levels))
    return LadderReport(list(levels), sups, float(b), decreasing, within, clipped)


# ---------------------------------------------------------------------------
# determinant lower-bound probe


def det_barrier_constant(n, Rprime, delta):
    return (4.0 * Rprime / delta**2) ** (n / (n + 2.0)) * 2.0 ** ((n + 1.0) / (n + 2.0))


def det_barrier_probe(f, delta, Rprime):
    """Search the ball B_delta(0) for a point with det(D^2 f)^{1/(n+2)}
    below the closed-form barrier constant d5, by coarse-to-fine descent.

    Verifies |f| <= Rprime on the ball first; raises CounterexampleError if
    the search cannot beat d5 (the theory forbids that on valid inputs).
    """
    if isinstance(f, GridFunction):
        return _det_barrier_grid(f, delta, Rprime)
    n = f.n
    d5 = det_barrier_constant(n, Rprime, delta)
    per_axis = 21 if n <= 3 else 7

    def lattice(center, radius):
        axes = [np.linspace(center[i] - radius, center[i] + radius, per_axis)
                for i in range(n)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        return pts[np.sum(pts**2, axis=-1) <= delta**2]

    pts = lattice(np.zeros(n), delta)
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
    for _ in range(DET_BARRIER_ROUNDS):
        v = invrho(best_pts)
        k = int(np.argmin(v))
        center, best_val = best_pts[k], float(v[k])
        radius *= 0.35
        cand = lattice(center, radius)
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
    logdet = grid_invariants(fu)["logdet"]
    live = in_ball & (grid.mask == INTERIOR) & np.isfinite(logdet)
    if not live.any():
        raise PreconditionError("no interior node of the ball has a positive definite Hessian")
    vals = np.exp(logdet[live] / (n + 2.0))
    nodes = pts[live]
    k = int(np.argmin(vals))
    if vals[k] >= d5:
        raise CounterexampleError("no node beats the determinant barrier",
                                  best=float(vals[k]), d5=d5)
    return nodes[k], float(vals[k]), d5
