"""Damped Newton solver for the Dirichlet problem of the drift Monge-Ampere
equation on masked grids.

The residual is kept in log form, r = log det D^2 u + d.grad u + d0 on the
dual side (r = log det D^2 f - d.x - d0 on the primal side), so the Newton
linearization trace((D^2 u)^{-1} D^2 .) + d.grad(.) is elliptic as long as
iterates stay convex. The residual applies the one difference table,
`stencils.TABLE`, at interior nodes, and the Jacobian walks the same arms.
Convexity is enforced by step rejection: a trial step must keep every
interior FD Hessian positive definite and reduce the max residual, else it
is halved down to a hard floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, ConvexityError, DomainError
from .grids import INTERIOR, GridFunction
from .oracles import DUAL, PRIMAL, DriftCoefficients
from .stencils import difference

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


def _log_residual(grid, values, drift, side, det_floor):
    """(residual vector, Hessian stack, min det) or None when convexity fails."""
    st = grid.stencil
    padded = st.pad(values)
    H = st.hessian(padded, interior=True)
    eigs = np.linalg.eigvalsh(H)
    det = np.prod(eigs, axis=-1)
    if eigs[:, 0].min() <= 0.0 or det.min() < det_floor:
        return None, H, float(det.min())
    logdet = np.log(det)
    if side == DUAL:
        r = logdet + st.gradient(padded, interior=True) @ drift.d + drift.d0
    else:
        r = logdet - grid.interior_points @ drift.d - drift.d0
    return r, H, float(det.min())


def residual_field(u, drift, side=DUAL):
    """Pointwise PDE residual of a GridFunction on its interior nodes."""
    grid = u.grid
    r, H, mindet = _log_residual(grid, u.values, drift, side, det_floor=0.0)
    if r is None:
        bad = int(np.argmin(np.linalg.eigvalsh(H)[:, 0]))
        raise ConvexityError("non-convex FD Hessian in residual",
                             node=grid.interior_nodes()[bad].tolist(), min_det=mindet)
    out = np.full(grid.shape, np.nan)
    out[grid.mask == INTERIOR] = r
    return GridFunction.on_interior(grid, out)


def _quadratic_init(grid, bidx, bvals):
    """Least-squares convex paraboloid through the boundary data."""
    n = grid.dim
    pts_all = grid.points()
    pts = pts_all[bidx]
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
    return (np.einsum("...i,ij,...j->...", pts_all, Q, pts_all)
            + pts_all @ lin + c0)


def _assemble_jacobian(grid, H, drift, side):
    """Sparse linearization trace(H^{-1} D^2 .) (+ drift gradient on the dual
    side): the arms of d_ij weighted by Hi_ij (twice off the diagonal) and,
    on the dual side, the arms of d_i weighted by d_i."""
    st = grid.stencil
    n = grid.dim
    Hi = np.linalg.inv(H)
    weights = {}  # node offset -> weight per interior row, summed in table order
    terms = [((i, j), Hi[:, i, j] * (1.0 if i == j else 2.0))
             for i in range(n) for j in range(i, n)]
    if side == DUAL:
        terms += [((i,), drift.d[i]) for i in range(n)]
    for axes, a in terms:
        arms, den = difference(axes, n)
        a = a / den(grid.spacing)
        for o, c in arms:
            weights[o] = weights[o] + c * a if o in weights else c * a
    M = len(H)
    unknown = np.full(grid.shape, -1)
    unknown[grid.mask == INTERIOR] = np.arange(M)
    unknown = st.pad(unknown, -1)
    rows, cols, vals = [], [], []
    for o, w in sorted(weights.items(), reverse=True):  # rows come out sorted in each column
        col = st.arm(unknown, o, interior=True)
        keep = col >= 0
        rows.append(np.flatnonzero(keep))
        cols.append(col[keep])
        vals.append(np.broadcast_to(w, (M,))[keep])
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(M, M)).tocsc()


def _factor(J):
    """Sparse LU of a Newton Jacobian or the lift's Laplace matrix. Their
    stencils give a symmetric pattern with a large diagonal, so the columns
    are ordered by minimum degree on A + A^T in SuperLU's symmetric mode;
    the pivot threshold keeps partial pivoting, since the dual-side drift
    term makes J nonsymmetric."""
    return splu(J, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                options=dict(SymmetricMode=True))


def _harmonic_lift(grid, collar_idx, collar_vals):
    """Discrete harmonic extension of collar data: the 5-point Laplacian
    vanishes at every interior node, and the collar holds the data."""
    n = grid.dim
    lift = np.zeros(grid.shape)
    lift[collar_idx] = collar_vals
    H = grid.stencil.hessian(grid.stencil.pad(lift), interior=True)
    laplace = _assemble_jacobian(grid, np.broadcast_to(np.eye(n), H.shape),
                                 DriftCoefficients.zero(n), PRIMAL)
    laplace.eliminate_zeros()  # mixed-stencil entries of an identity Hessian
    lift[grid.mask == INTERIOR] = _factor(laplace).solve(-np.trace(H, axis1=1, axis2=2))
    return lift


class _InitialNotConvex(Exception):
    pass


def _newton_core(grid, values, drift, side, config):
    """Damped Newton at fixed boundary values from the start iterate `values`.
    Returns (values, residual history, final residual, damping halvings)."""
    r, H, mindet = _log_residual(grid, values, drift, side, config.det_floor)
    if r is None:
        raise _InitialNotConvex(mindet)
    rnorm = float(np.abs(r).max())
    history = [rnorm]
    halvings = 0
    it = 0
    while rnorm > config.residual_tol and it < config.max_newton_iters:
        J = _assemble_jacobian(grid, H, drift, side)
        delta = _factor(J).solve(-r)
        lam = 1.0
        accepted = False
        while lam >= config.min_step:
            trial = values.copy()
            trial[grid.mask == INTERIOR] += lam * delta
            r_try, H_try, mindet = _log_residual(grid, trial, drift, side, config.det_floor)
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
    bidx = tuple(grid.boundary_nodes().T)
    if callable(boundary):
        bvals = np.array([float(boundary(p)) for p in grid.points()[bidx]])
    else:
        bvals = np.asarray(boundary, dtype=float)
        if bvals.shape != bidx[0].shape:
            raise DomainError("boundary array does not match boundary node count",
                              expected=int(len(bidx[0])))

    if config.init == "given":
        if initial is None:
            raise DomainError("init='given' requires an initial GridFunction")
        values = initial.values.copy()
    else:
        values = _quadratic_init(grid, bidx, bvals)
    values[grid.mask == 0] = np.nan
    fit_trace = values[bidx].copy()
    delta_data = bvals - fit_trace
    # a given start keeps its interior; the paraboloid gets the lifted mismatch
    lift = 0.0 if config.init == "given" else _harmonic_lift(grid, bidx, delta_data)

    loose = replace(config, residual_tol=max(config.residual_tol, 1e-9))
    t, dt = 0.0, 1.0
    legs = total_iterations = rejected_steps = 0
    while t < 1.0:
        t_try = min(1.0, t + dt)
        start = values + (t_try - t) * lift
        start[bidx] = bvals if t_try >= 1.0 else fit_trace + t_try * delta_data
        leg_cfg = config if t_try >= 1.0 else loose
        try:
            values, history, rnorm, halvings = _newton_core(grid, start, drift, side, leg_cfg)
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
    H = grid.stencil.hessian(grid.stencil.pad(values), interior=True)
    min_eig = float(np.linalg.eigvalsh(H)[:, 0].min())
    report = SolverReport(iterations=len(history) - 1, final_residual=rnorm,
                          residual_history=history, min_hessian_eigenvalue=min_eig,
                          continuation_steps=legs - 1, total_iterations=total_iterations,
                          rejected_steps=rejected_steps)
    return out, report
