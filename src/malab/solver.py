"""Damped Newton solver for the Dirichlet problem of the drift Monge-Ampere
equation on masked grids.

The residual is kept in log form, r = log det D^2 u + d.grad u + d0 on the
dual side (r = log det D^2 f - d.x - d0 on the primal side), so the Newton
linearization trace((D^2 u)^{-1} D^2 .) + d.grad(.) is elliptic as long as
iterates stay convex. Convexity is enforced by step rejection: a trial step
must keep every interior FD Hessian positive definite and reduce the max
residual, else it is halved down to a hard floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, ConvexityError, DomainError
from .grids import BOUNDARY, INTERIOR, GridFunction
from .oracles import DUAL, PRIMAL, DriftCoefficients

__all__ = ["DriftCoefficients", "SolverConfig", "SolverReport",
           "residual_field", "newton_solve"]


@dataclass(frozen=True)
class SolverConfig:
    max_newton_iters: int = 50
    residual_tol: float = 1e-10
    damping_factor: float = 0.5
    min_step: float = 2.0**-20
    init: str = "quadratic"  # or "given"
    det_floor: float = 1e-14

    def __post_init__(self):
        if self.residual_tol <= 0 or not (0.0 < self.damping_factor < 1.0):
            raise DomainError("bad solver configuration")


@dataclass
class SolverReport:
    iterations: int
    final_residual: float
    residual_history: list
    min_hessian_eigenvalue: float
    converged: bool = True
    continuation_steps: int = 0  # legs after the first
    total_iterations: int = 0    # Newton iterations (Jacobian LUs) over all legs
    rejected_steps: int = 0      # damping halvings plus halved continuation steps

    def to_json(self):
        return {
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "residual_history": list(self.residual_history),
            "min_hessian_eigenvalue": self.min_hessian_eigenvalue,
            "converged": self.converged,
            "continuation_steps": self.continuation_steps,
            "total_iterations": self.total_iterations,
            "rejected_steps": self.rejected_steps,
        }


class _Stencil:
    """Precomputed gather indices for vectorized interior-node FD."""

    def __init__(self, grid):
        self.grid = grid
        n = grid.dim
        shape = grid.shape
        mask_flat = grid.mask.reshape(-1)
        self.interior_flat = np.flatnonzero(mask_flat == INTERIOR)
        self.M = len(self.interior_flat)
        self.unknown_of_flat = -np.ones(mask_flat.size, dtype=np.int64)
        self.unknown_of_flat[self.interior_flat] = np.arange(self.M)
        strides = np.array([int(np.prod(shape[i + 1:])) for i in range(n)], dtype=np.int64)
        self.strides = strides
        self.n = n
        self.offsets = {}
        for i in range(n):
            self.offsets[(i, 1)] = self.interior_flat + strides[i]
            self.offsets[(i, -1)] = self.interior_flat - strides[i]
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        key = (i, j, si, sj)
                        self.offsets[key] = self.interior_flat + si * strides[i] + sj * strides[j]
        pts = grid.points().reshape(-1, n)
        self.xy = pts[self.interior_flat]

    def gradient(self, values):
        v = values.reshape(-1)
        h = self.grid.spacing
        g = np.empty((self.M, self.n))
        for i in range(self.n):
            g[:, i] = (v[self.offsets[(i, 1)]] - v[self.offsets[(i, -1)]]) / (2.0 * h[i])
        return g

    def hessian(self, values):
        v = values.reshape(-1)
        h = self.grid.spacing
        c = v[self.interior_flat]
        H = np.empty((self.M, self.n, self.n))
        for i in range(self.n):
            H[:, i, i] = (v[self.offsets[(i, 1)]] - 2.0 * c + v[self.offsets[(i, -1)]]) / h[i] ** 2
        for i in range(self.n):
            for j in range(i + 1, self.n):
                d = (v[self.offsets[(i, j, 1, 1)]] - v[self.offsets[(i, j, 1, -1)]]
                     - v[self.offsets[(i, j, -1, 1)]] + v[self.offsets[(i, j, -1, -1)]]) \
                    / (4.0 * h[i] * h[j])
                H[:, i, j] = d
                H[:, j, i] = d
        return H


def _log_residual(stencil, values, drift, side, det_floor):
    """(residual vector, Hessian stack, min det) or None when convexity fails."""
    H = stencil.hessian(values)
    eigs = np.linalg.eigvalsh(H)
    det = np.prod(eigs, axis=-1)
    if eigs[:, 0].min() <= 0.0 or det.min() < det_floor:
        return None, H, float(det.min())
    logdet = np.log(det)
    if side == DUAL:
        g = stencil.gradient(values)
        r = logdet + g @ drift.d + drift.d0
    else:
        r = logdet - stencil.xy @ drift.d - drift.d0
    return r, H, float(det.min())


def residual_field(u, drift, side=DUAL):
    """Pointwise PDE residual of a GridFunction on its interior nodes."""
    st = _Stencil(u.grid)
    r, H, mindet = _log_residual(st, u.values, drift, side, det_floor=0.0)
    if r is None:
        eigs = np.linalg.eigvalsh(H)
        bad = int(np.argmin(eigs[:, 0]))
        node = np.unravel_index(st.interior_flat[bad], u.grid.shape)
        raise ConvexityError("non-convex FD Hessian in residual",
                             node=[int(k) for k in node], min_det=mindet)
    out = np.full(u.grid.shape, np.nan)
    out.reshape(-1)[st.interior_flat] = r
    # keep container type without triggering the finite-value check
    res = GridFunction.__new__(GridFunction)
    res.grid = u.grid
    res.values = out
    res.values.setflags(write=False)
    res._cache = {}
    return res


def _quadratic_init(grid, bnodes, bvals):
    """Least-squares convex paraboloid through the boundary data."""
    n = grid.dim
    pts = np.array([grid.point(tuple(b)) for b in bnodes])
    cols = [np.ones(len(pts))]
    cols += [pts[:, i] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for i, j in pairs:
        cols.append(pts[:, i] * pts[:, j] * (1.0 if i == j else 2.0))
    Adesign = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(Adesign, bvals, rcond=None)
    c0, lin = coef[0], coef[1:n + 1]
    Q = np.zeros((n, n))
    for k, (i, j) in enumerate(pairs):
        Q[i, j] = Q[j, i] = coef[n + 1 + k]
    w, V = np.linalg.eigh(Q)
    floor = max(1e-2, 1e-2 * w.max()) if w.max() > 0 else 1e-2
    Q = (V * np.maximum(w, floor)) @ V.T
    pts_all = grid.points()
    return (np.einsum("...i,ij,...j->...", pts_all, Q, pts_all)
            + pts_all @ lin + c0)


def _assemble_jacobian(stencil, H, drift, side):
    """Sparse linearization trace(H^{-1} D^2 .) (+ drift gradient on the dual side)."""
    Hi = np.linalg.inv(H)
    h = stencil.grid.spacing
    M, n = stencil.M, stencil.n
    rows, cols, vals = [], [], []
    unk = stencil.unknown_of_flat
    rng = np.arange(M)

    def add(col_flat, coef):
        cu = unk[col_flat]
        keep = cu >= 0
        rows.append(rng[keep])
        cols.append(cu[keep])
        vals.append(coef[keep])

    diag = np.zeros(M)
    for i in range(n):
        a = Hi[:, i, i] / h[i] ** 2
        drift_i = (drift.d[i] / (2.0 * h[i])) if side == DUAL else 0.0
        add(stencil.offsets[(i, 1)], a + drift_i)
        add(stencil.offsets[(i, -1)], a - drift_i)
        diag -= 2.0 * a
    for i in range(n):
        for j in range(i + 1, n):
            a = 2.0 * Hi[:, i, j] / (4.0 * h[i] * h[j])
            add(stencil.offsets[(i, j, 1, 1)], a)
            add(stencil.offsets[(i, j, -1, -1)], a)
            add(stencil.offsets[(i, j, 1, -1)], -a)
            add(stencil.offsets[(i, j, -1, 1)], -a)
    rows.append(rng)
    cols.append(rng)
    vals.append(diag)
    J = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(M, M)).tocsc()
    return J


def _factor(J):
    """Sparse LU of a Newton Jacobian or the lift's Laplace matrix. Their
    stencils give a symmetric pattern with a large diagonal, so the columns
    are ordered by minimum degree on A + A^T in SuperLU's symmetric mode;
    the pivot threshold keeps partial pivoting, since the dual-side drift
    term makes J nonsymmetric."""
    return splu(J, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                options=dict(SymmetricMode=True))


def _harmonic_lift(st, collar_idx, collar_vals):
    """Discrete harmonic extension of collar data: the 5-point Laplacian
    vanishes at every interior node, and the collar holds the data."""
    lift = np.zeros(st.grid.shape)
    lift[collar_idx] = collar_vals
    eye = np.broadcast_to(np.eye(st.n), (st.M, st.n, st.n))
    laplace = _assemble_jacobian(st, eye, DriftCoefficients.zero(st.n), PRIMAL)
    laplace.eliminate_zeros()  # mixed-stencil entries of an identity Hessian
    residual = np.trace(st.hessian(lift), axis1=1, axis2=2)
    lift.reshape(-1)[st.interior_flat] = _factor(laplace).solve(-residual)
    return lift


class _InitialNotConvex(Exception):
    pass


def _newton_core(st, grid, values, drift, side, config):
    """Damped Newton at fixed boundary values from the start iterate `values`.
    Returns (values, residual history, final residual, damping halvings)."""
    r, H, mindet = _log_residual(st, values, drift, side, config.det_floor)
    if r is None:
        raise _InitialNotConvex(mindet)
    rnorm = float(np.abs(r).max())
    history = [rnorm]
    halvings = 0
    it = 0
    while rnorm > config.residual_tol and it < config.max_newton_iters:
        J = _assemble_jacobian(st, H, drift, side)
        delta = _factor(J).solve(-r)
        lam = 1.0
        accepted = False
        while lam >= config.min_step:
            trial = values.copy()
            trial.reshape(-1)[st.interior_flat] += lam * delta
            r_try, H_try, mindet = _log_residual(st, trial, drift, side, config.det_floor)
            if r_try is not None:
                r_try_norm = float(np.abs(r_try).max())
                if r_try_norm < rnorm:
                    values, r, H, rnorm = trial, r_try, H_try, r_try_norm
                    accepted = True
                    break
            lam *= config.damping_factor
            halvings += 1
        if not accepted:
            if mindet < config.det_floor:
                raise ConvexityError("Newton step lost Hessian positivity at the damping floor",
                                     residual=rnorm, history=history)
            raise ConvergenceError("damping floor reached without residual decrease",
                                   residual=rnorm, history=history)
        history.append(rnorm)
        it += 1
    if rnorm > config.residual_tol:
        raise ConvergenceError("Newton iteration cap reached",
                               residual=rnorm, history=history)
    return values, history, rnorm, halvings


def newton_solve(domain, grid, drift, boundary, config=None, side=DUAL, initial=None):
    """Solve the Dirichlet problem on the grid's interior nodes.

    boundary: callable(point) -> value, or an array aligned with
    grid.boundary_nodes() order. Returns (GridFunction, SolverReport).

    The start is the least-squares convex paraboloid plus `lift`, the discrete
    harmonic extension of its mismatch with the data (one Laplace solve).
    Newton legs run over t in (0, 1], each from the last converged iterate
    plus (t_try - t) * lift; the first tries t = 1, and the step in t halves
    only when a leg's start is not convex. The lift moves the interior with
    the collar, so the legs do not grow in number with resolution. With
    init="given", a start that is not convex raises ConvexityError.
    """
    config = config or SolverConfig()
    interior = grid.interior_nodes()
    extent = interior.max(axis=0) - interior.min(axis=0) + 1
    if extent.min() < 9:
        raise DomainError("grid does not resolve the domain "
                          "(need >= 9 interior nodes per axis)",
                          interior_extent=[int(v) for v in extent])
    st = _Stencil(grid)
    bnodes = grid.boundary_nodes()
    bidx = tuple(np.array([b[i] for b in bnodes]) for i in range(grid.dim))
    if callable(boundary):
        bvals = np.array([float(boundary(grid.point(tuple(b)))) for b in bnodes])
    else:
        bvals = np.asarray(boundary, dtype=float)
        if bvals.shape != (len(bnodes),):
            raise DomainError("boundary array does not match boundary node count",
                              expected=int(len(bnodes)))

    if config.init == "given":
        if initial is None:
            raise DomainError("init='given' requires an initial GridFunction")
        values = initial.values.copy()
    else:
        values = _quadratic_init(grid, bnodes, bvals)
    values[grid.mask == 0] = np.nan
    fit_trace = values[bidx].copy()
    delta_data = bvals - fit_trace
    # a given start keeps its interior; the paraboloid gets the lifted mismatch
    lift = 0.0 if config.init == "given" else _harmonic_lift(st, bidx, delta_data)

    loose = replace(config, residual_tol=max(config.residual_tol, 1e-9))
    t, dt = 0.0, 1.0
    legs = total_iterations = rejected_steps = 0
    while t < 1.0:
        t_try = min(1.0, t + dt)
        start = values + (t_try - t) * lift
        start[bidx] = bvals if t_try >= 1.0 else fit_trace + t_try * delta_data
        leg_cfg = config if t_try >= 1.0 else loose
        try:
            values, history, rnorm, halvings = _newton_core(st, grid, start, drift, side, leg_cfg)
        except _InitialNotConvex as fail:
            if config.init == "given":
                raise ConvexityError("given initial iterate is not convex",
                                     min_det=float(fail.args[0])) from None
            dt *= 0.5
            rejected_steps += 1
            if dt < config.min_step:
                raise ConvexityError("continuation cannot keep the iterate convex",
                                     t_reached=t) from None
            continue
        t = t_try
        dt *= 2.0
        legs += 1
        total_iterations += len(history) - 1
        rejected_steps += halvings

    out = GridFunction(grid, np.where(grid.mask == 0, 0.0, values))
    min_eig = float(np.linalg.eigvalsh(st.hessian(values))[:, 0].min())
    report = SolverReport(iterations=len(history) - 1, final_residual=rnorm,
                          residual_history=history, min_hessian_eigenvalue=min_eig,
                          continuation_steps=legs - 1, total_iterations=total_iterations,
                          rejected_steps=rejected_steps)
    return out, report
