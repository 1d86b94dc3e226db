"""Damped Newton solver for the Dirichlet problem of the drift Monge-Ampere
equation on masked grids.

The residual is kept in log form, r = log det D^2 u + d.grad u + d0 on the
dual side (r = log det D^2 f - d.x - d0 on the primal side), so the Newton
linearization trace((D^2 u)^{-1} D^2 .) + d.grad(.) is elliptic as long as
iterates stay convex. The residual applies the one difference table,
`stencils.TABLE`, at interior nodes, and the Jacobian walks the same arms. Its
drift terms are `DriftCoefficients.residual`, which analytic oracles use too
(`geometry.pde_residual`). The batched Cholesky kernel `geometry.cholesky`
gives each Newton iterate's interior FD Hessians their positive definiteness
test and log det, and the Jacobian its inverse; a line-search trial asks for
no inverse. `residual_field` reads log det from the cached
`geometry.grid_invariants`, and `grids.check_convex` reports eigenvalues. Each
solve orders its unknowns once, by nested dissection of the grid, and lays out
the Jacobian's sparsity structure once in that order. Convexity is enforced by
step rejection: a trial step must keep every interior FD Hessian positive
definite and reduce the max residual, else it is halved down to a hard floor.
A full step's LU is kept for chord steps while each cuts the max residual by
CHORD (a Shamanskii method; Kelley, SIAM 1995), then the Jacobian is refactored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ConvexityError, DomainError, Report
from .geometry import cholesky, grid_invariants
from .grids import INTERIOR, GridFunction, check_convex
from .oracles import DUAL, PRIMAL, DriftCoefficients
from .stencils import difference

__all__ = ["DriftCoefficients", "SolverConfig", "SolverReport",
           "residual_field", "newton_solve"]

splu = None  # scipy's sparse LU, bound on the first solve; the tracer and tests patch it
DET_FLOOR = 1e-14  # smallest FD Hessian determinant a Newton iterate may reach
DAMPING = 0.5  # a rejected trial step is scaled by this
CHORD = 0.25  # a chord step is kept when it cuts the max residual by this factor
MIN_STEP = 2.0**-20  # smallest Newton step and continuation step before giving up
LEAF = 4  # nested dissection leaves a box whose longest side has fewer nodes
# symmetric mode for the symmetric stencil pattern; pivoting for the drift term
_LU_OPTIONS = dict(diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))


@dataclass(frozen=True)
class SolverConfig:
    max_newton_iters: int = 50  # Jacobian factorizations per leg; chord steps are free
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise DomainError("bad solver configuration")


@dataclass
class SolverReport(Report):
    iterations: int
    final_residual: float
    residual_history: list
    min_hessian_eigenvalue: float
    converged: bool = True
    continuation_steps: int = 0  # legs after the first
    total_iterations: int = 0    # accepted Newton and chord steps over all legs
    rejected_steps: int = 0      # damping halvings plus halved continuation steps
    factorizations: int = 0      # SuperLU factorizations, the lift's Laplace LU included


def _log_residual(grid, values, drift, side):
    """(residual vector, Hessian stack); no residual if a det is below DET_FLOOR."""
    st = grid.stencil
    padded = st.pad(values)
    H = st.hessian(padded, interior=True)
    piv = cholesky(H)
    if np.where((piv > 0.0).all(axis=1), piv.prod(axis=1), 0.0).min() < DET_FLOOR:
        return None, H
    y = st.gradient(padded, interior=True) if side == DUAL else grid.interior_points
    return drift.residual(np.log(piv).sum(axis=1), y, side), H


def residual_field(u, drift, side=None):
    """Pointwise PDE residual of a GridFunction on its interior nodes, on its side
    (`side`, if given, must be that side), from its cached grid_invariants."""
    if side not in (None, u.side):
        raise DomainError("a potential is read on its own side", side=side, own=u.side)
    grid, interior = u.grid, u.grid.mask == INTERIOR
    logdet = grid_invariants(u)["logdet"][interior]
    if not np.isfinite(logdet).all():
        rep = check_convex(u)
        raise ConvexityError("non-convex FD Hessian in residual", node=list(rep.worst_node),
                             min_eigenvalue=rep.min_eigenvalue)
    y = u.gradient_field()[interior] if u.side == DUAL else grid.interior_points
    out = np.full(grid.shape, np.nan)
    out[interior] = drift.residual(logdet, y, u.side)
    return GridFunction.on_interior(grid, out)


def _quadratic_init(grid, bidx, bvals):
    """Least-squares convex paraboloid through the boundary data."""
    n, (i, j) = grid.dim, np.triu_indices(grid.dim)  # Q's upper triangle, row by row
    pts_all = grid.points()
    pts = pts_all[bidx]
    Adesign = np.c_[np.ones(len(pts)), pts, pts[:, i] * pts[:, j] * np.where(i == j, 1.0, 2.0)]
    coef, *_ = np.linalg.lstsq(Adesign, bvals, rcond=None)
    c0, lin = coef[0], coef[1:n + 1]
    Q = np.zeros((n, n))
    Q[i, j] = Q[j, i] = coef[n + 1:]
    w, V = np.linalg.eigh(Q)
    floor = max(1e-2, 1e-2 * w.max()) if w.max() > 0 else 1e-2
    Q = (V * np.maximum(w, floor)) @ V.T
    return (np.einsum("...i,ij,...j->...", pts_all, Q, pts_all)
            + pts_all @ lin + c0)


def _dissection_order(nodes):
    """Nested dissection order of grid nodes (George, SIAM J. Numer. Anal. 10,
    1973): box b splits at the middle of its longest side into boxes 2b, 2b + 1
    and the one-node-thick separator that every +-1-node arm between them
    crosses. A pass splits a level; node keys append 0 | 1 | 2 in that order."""
    key, live = np.zeros(len(nodes), dtype=np.int64), np.arange(len(nodes))
    box, lo, hi = np.zeros_like(live), nodes.min(axis=0)[None], nodes.max(axis=0)[None]
    while len(live):
        b = np.arange(len(lo))
        axis = (hi - lo).argmax(axis=1)
        side = hi[b, axis] - lo[b, axis] + 1
        mid = lo[b, axis] + side // 2
        c = nodes[live, axis[box]] - mid[box]
        key *= 3
        key[live] += np.where((side >= LEAF)[box], np.where(c == 0, 2, c > 0), 0)
        lo, hi = lo.repeat(2, axis=0), hi.repeat(2, axis=0)
        hi[2 * b, axis], lo[2 * b + 1, axis] = mid - 1, mid + 1
        keep = (side >= LEAF)[box] & (c != 0)
        live, box = live[keep], (2 * box + (c > 0))[keep]
    return np.argsort(key, kind="stable")


class _Jacobian:
    """The Newton Jacobians of one solve, rows and columns in the dissection
    order of the interior nodes (`order`; `rank` is its inverse), so SuperLU
    factors each as it comes. Each arm of d_ij and d_i links an interior row
    to the interior column it reaches, no (row, col) pair twice, so the CSC
    structure and the (arm, node) weight of each entry are laid out once."""

    def __init__(self, grid):
        global splu  # scipy.sparse loads here; a splu patched before then stays
        import scipy.sparse as sp, scipy.sparse.linalg
        splu = splu or scipy.sparse.linalg.splu
        st, n = grid.stencil, grid.dim
        self.grid, self.order = grid, _dissection_order(grid.interior_nodes())
        self.size, self.rank = len(self.order), np.argsort(self.order)
        unknown = np.full(grid.shape, -1)
        unknown[grid.mask == INTERIOR] = self.rank
        unknown = st.pad(unknown, -1)
        self.arms = {o: k for k, o in enumerate(sorted({  # node offset -> arm number
            o for i in range(n) for j in range(i, n)
            for axes in ((i, j), (i,)) for o, _ in difference(axes, n)[0]}))}
        cols = np.stack([st.arm(unknown, o, interior=True) for o in self.arms])
        fill = np.flatnonzero(cols >= 0)  # flat (arm, node) of each entry
        S = sp.csc_matrix((fill + 1, (self.rank[fill % self.size], cols.ravel()[fill])),
                          shape=(self.size,) * 2)
        self.indices, self.indptr, self.fill = S.indices, S.indptr, S.data - 1

    def assemble(self, H, drift, side):
        """Sparse linearization trace(H^{-1} D^2 .) (+ drift gradient on the
        dual side): the arms of d_ij weighted by Hi_ij (twice off the
        diagonal) and, on the dual side, the arms of d_i weighted by d_i."""
        import scipy.sparse as sp
        n, Hi = self.grid.dim, cholesky(H, inverse=True)[1]
        terms = [((i, j), Hi[:, i, j] * (1.0 if i == j else 2.0))
                 for i in range(n) for j in range(i, n)]
        if side == DUAL:
            terms += [((i,), drift.d[i]) for i in range(n)]
        weights = np.zeros((len(self.arms), self.size))
        for axes, a in terms:
            arms, den = difference(axes, n)
            a = a / den(self.grid.spacing)
            for o, c in arms:
                weights[self.arms[o]] += c * a
        return sp.csc_matrix((weights.ravel()[self.fill], self.indices, self.indptr),
                             shape=(self.size,) * 2)

    def factor(self, J):
        """SuperLU factor of an assembled Jacobian, in its given order."""
        return splu(J, permc_spec="NATURAL", **_LU_OPTIONS)

    def apply(self, lu, rhs):
        """x with J x = rhs for the factor `lu` of J, x and rhs in node order."""
        return lu.solve(rhs[self.order])[self.rank]


def _harmonic_lift(jacobian, collar_idx, collar_vals):
    """Discrete harmonic extension of collar data: the 5-point Laplacian
    vanishes at every interior node, and the collar holds the data."""
    grid, n = jacobian.grid, jacobian.grid.dim
    lift = np.zeros(grid.shape)
    lift[collar_idx] = collar_vals
    H = grid.stencil.hessian(grid.stencil.pad(lift), interior=True)
    laplace = jacobian.assemble(np.broadcast_to(np.eye(n), H.shape),
                                DriftCoefficients.zero(n), PRIMAL).copy()
    laplace.eliminate_zeros()  # mixed-stencil entries of an identity Hessian
    lift[grid.mask == INTERIOR] = jacobian.apply(jacobian.factor(laplace),
                                                 -np.trace(H, axis1=1, axis2=2))
    return lift


def _try_step(grid, values, step, drift, side):
    """(iterate + step, its residual, Hessians, max residual: inf below DET_FLOOR)."""
    trial = values.copy()
    trial[grid.mask == INTERIOR] += step
    r, H = _log_residual(grid, trial, drift, side)
    return trial, r, H, np.inf if r is None else float(np.abs(r).max())


def _newton_core(jacobian, values, drift, side, config):
    """Damped Newton, with chord steps on a full step's factor, at fixed boundary
    values from the start iterate `values`. Returns (values, residual history,
    final residual, halvings, factorizations), or None for a non-convex start."""
    grid = jacobian.grid
    r, H = _log_residual(grid, values, drift, side)
    if r is None:
        return None
    rnorm = float(np.abs(r).max())
    history = [rnorm]
    halvings = factorizations = 0
    lu = None  # the factor of the last step, kept only if that step was full
    while rnorm > config.residual_tol:
        if lu is not None:  # a chord step
            trial, r_try, H_try, norm = _try_step(grid, values, jacobian.apply(lu, -r),
                                                  drift, side)
            if norm <= CHORD * rnorm:
                values, r, H, rnorm = trial, r_try, H_try, norm
                history.append(rnorm)
                continue
            lu = None  # dropped before the next factor, so one is alive at a time
        if factorizations == config.max_newton_iters:
            break
        lu = jacobian.factor(jacobian.assemble(H, drift, side))
        factorizations += 1
        delta, lam = jacobian.apply(lu, -r), 1.0
        while lam >= MIN_STEP:
            trial, r_try, H_try, norm = _try_step(grid, values, lam * delta, drift, side)
            if norm < rnorm:
                values, r, H, rnorm = trial, r_try, H_try, norm
                break
            lam *= DAMPING
            halvings += 1
        else:  # no trial step was accepted
            if r_try is None:  # the last trial fell below DET_FLOOR
                raise ConvexityError("Newton step lost Hessian positivity at the damping floor",
                                     residual=rnorm, history=history)
            raise ConvergenceError("damping floor reached without residual decrease",
                                   residual=rnorm, history=history)
        lu = lu if lam == 1.0 else None  # a damped step's factor is not reused
        history.append(rnorm)
    if rnorm > config.residual_tol:
        raise ConvergenceError("Newton factorization cap reached",
                               residual=rnorm, history=history)
    return values, history, rnorm, halvings, factorizations


def newton_solve(grid, drift, boundary, config=None, side=DUAL):
    """Solve the Dirichlet problem on the grid's interior nodes.

    boundary: callable((m, n) points) -> m values, called once on all the
    boundary nodes. Returns (GridFunction, SolverReport).

    The start is the least-squares convex paraboloid plus `lift`, the discrete
    harmonic extension of its mismatch with the data (one Laplace solve).
    Newton legs run over t in (0, 1], each from the last converged iterate
    plus (t_try - t) * lift; the first tries t = 1, and the step in t halves
    only when a leg's start is not convex. The lift moves the interior with
    the collar, so the legs do not grow in number with resolution.
    """
    config = config or SolverConfig()
    interior = grid.interior_nodes()
    extent = interior.max(axis=0) - interior.min(axis=0) + 1
    if extent.min() < 9:
        raise DomainError("grid does not resolve the domain "
                          "(need >= 9 interior nodes per axis)",
                          interior_extent=[int(v) for v in extent])
    bidx = tuple(grid.boundary_nodes().T)
    bvals = np.asarray(boundary(grid.points()[bidx]), dtype=float)

    values = _quadratic_init(grid, bidx, bvals)
    values[grid.mask == 0] = np.nan
    fit_trace = values[bidx].copy()
    delta_data = bvals - fit_trace
    jac = _Jacobian(grid)
    lift = _harmonic_lift(jac, bidx, delta_data)

    loose = replace(config, residual_tol=max(config.residual_tol, 1e-9))
    t, dt = 0.0, 1.0
    legs = total_iterations = rejected_steps = 0
    factorizations = 1  # the lift's
    while t < 1.0:
        t_try = min(1.0, t + dt)
        start = values + (t_try - t) * lift
        start[bidx] = bvals if t_try >= 1.0 else fit_trace + t_try * delta_data
        leg_cfg = config if t_try >= 1.0 else loose
        solved = _newton_core(jac, start, drift, side, leg_cfg)
        if solved is None:
            dt *= 0.5
            rejected_steps += 1
            if dt < MIN_STEP:
                raise ConvexityError("continuation cannot keep the iterate convex", t_reached=t)
            continue
        values, history, rnorm, halvings, leg_factorizations = solved
        t = t_try
        dt *= 2.0
        legs += 1
        total_iterations += len(history) - 1
        rejected_steps += halvings
        factorizations += leg_factorizations

    out = GridFunction(grid, np.where(grid.mask == 0, 0.0, values), side)
    report = SolverReport(iterations=len(history) - 1, final_residual=rnorm,
                          residual_history=history,
                          min_hessian_eigenvalue=check_convex(out).min_eigenvalue,
                          continuation_steps=legs - 1, total_iterations=total_iterations,
                          rejected_steps=rejected_steps, factorizations=factorizations)
    return out, report
