"""Analytic and discrete Legendre (convex-conjugate) transforms.

The discrete conjugate runs dimension by dimension (one 1-D conjugation per
axis), which equals the full max over the sampled lattice. Each 1-D pass is
an exact monotone-argmax search (Lucet, Numer. Algorithms 16, 1997) over N
samples onto M dual nodes: O(lines (M + N) log M) work and O(lines (M + N))
memory, evaluating the full max's own scores only where its argmax can be.
Dual evaluations outside the sampled gradient hull are reported, never
extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import ConvexityError, DegeneracyError, ExtrapolationError
from .geometry import cholesky
from .grids import INTERIOR, OUTSIDE, GridFunction, box_grid, check_convex
from .oracles import DUAL, PRIMAL

_HULL_TOL = 1e-9


@dataclass(frozen=True)
class LegendrePair:
    """A primal/dual potential pair with its pairing map xi = grad f(x)."""

    primal: object
    dual: object

    def young_defect(self, x):
        """u(grad f(x)) + f(x) - <x, grad f(x)>, zero for a true pair."""
        x = np.asarray(x, dtype=float)
        xi = self.primal.gradient(x)
        return float(self.dual.value(xi) + self.primal.value(x) - x @ xi)


def _conjugate_1d(xs, vals, xis):
    """1-D discrete conjugate max_j [xis_i xs_j - vals_j] of every line.

    vals has shape (lines, len(xs)); +inf marks missing samples, whose
    scores are -inf. xs and xis are increasing and xi x has increasing
    differences, so each line's leftmost argmax is nondecreasing in i. The
    end rows are solved over the whole line, then each level solves the
    midpoints between known rows over [arg[left], arg[right]] as one flat
    pass over all (line, row) windows. The scores are the full max's own
    floats; only a near-tie within rounding of xi x could sit outside a
    window, and then by no more than that rounding.
    """
    lines, n = vals.shape
    m = len(xis)
    flat_vals, flat_xs = vals.ravel(), np.tile(xs, lines)
    line_start = np.arange(lines)[:, None] * n
    out = np.empty((lines, m))
    arg = np.empty((lines, m), dtype=np.intp)

    def solve(rows, lo, hi):
        # every window [lo, hi] of one level, laid end to end
        counts = (hi - lo + 1).ravel()
        starts = np.cumsum(counts) - counts
        flat = np.arange(starts[-1] + counts[-1]) + np.repeat(
            (line_start + lo).ravel() - starts, counts)
        xi = np.repeat(np.tile(xis[rows], lines), counts)
        score = xi * flat_xs[flat] - flat_vals[flat]
        best = np.maximum.reduceat(score, starts)
        at_best = np.where(score == np.repeat(best, counts), flat, flat_vals.size)
        out[:, rows] = best.reshape(lo.shape)
        arg[:, rows] = np.minimum.reduceat(at_best, starts).reshape(lo.shape) - line_start

    known = np.unique([0, m - 1])
    first = np.zeros((lines, len(known)), dtype=np.intp)
    solve(known, first, first + n - 1)
    while True:
        left, right = known[:-1], known[1:]
        gap = right - left > 1
        if not gap.any():
            return out
        left, right = left[gap], right[gap]
        mids = (left + right) // 2
        solve(mids, arg[:, left], arg[:, right])
        known = np.union1d(known, mids)


def conjugate_factorized(field, dual_grid):
    """Per-axis factorized discrete conjugate (equals the brute-force max).

    With g_a = max_{x_a} [xi_a x_a - w_{a-1}] and w_a = -g_a, the recursion
    w_0 = f, ..., w_n = -f* holds, so the conjugate is -w_n, on the other side.
    """
    grid = field.grid
    n = grid.dim
    work = np.where(np.isfinite(field.values), field.values, np.inf)
    for a in range(n):
        moved = np.moveaxis(work, a, -1)
        lines = moved.reshape(-1, moved.shape[-1])
        conj = _conjugate_1d(grid.coords[a], lines, dual_grid.coords[a])
        conj = conj.reshape(moved.shape[:-1] + (len(dual_grid.coords[a]),))
        work = np.moveaxis(-conj, -1, a)
    return GridFunction(dual_grid, -work, DUAL if field.side == PRIMAL else PRIMAL)


def gradient_hull(field):
    """Convex hull of the FD gradients at interior nodes.

    Raises DegeneracyError when the gradient set has empty interior (a
    linear field collapses it to a point, x1^2/2 to a segment).
    """
    grads = field.gradient_field()[field.grid.mask == INTERIOR]
    grads = grads[np.all(np.isfinite(grads), axis=1)]
    if len(grads) < 1:
        raise DegeneracyError("no interior gradients available for a hull")
    try:
        return ConvexHull(grads)
    except QhullError:
        raise DegeneracyError("interior gradients span a set with empty interior") from None


def points_in_hull(hull, pts):
    pts = np.asarray(pts, dtype=float)
    A, b = hull.equations[:, :-1], hull.equations[:, -1]
    return (pts @ A.T + b[None, :]).max(axis=1) <= _HULL_TOL


def _require_weakly_convex(field, what):
    # eigenvalues >= -1e-8 at every finite interior node iff H + 1e-8 I has a
    # Cholesky factor there; check_convex runs only to report a failure
    H = field.hessian_field()[field.grid.mask == INTERIOR]
    H = H[np.isfinite(H).all(axis=(1, 2))]
    if len(H) and (cholesky(H + 1e-8 * np.eye(field.grid.dim)) > 0.0).all():
        return
    rep = check_convex(field)
    if rep.min_eigenvalue < -1e-8:
        raise ConvexityError(f"{what} needs a convex input field",
                             min_eigenvalue=rep.min_eigenvalue,
                             worst_node=list(rep.worst_node))


def legendre_grid(field, dual_grid):
    """Discrete conjugate of a sampled convex potential onto a dual grid.

    Raises when dual nodes fall outside the sampled gradient hull: the
    conjugate of a window-restricted function is only valid there.
    """
    _require_weakly_convex(field, "legendre_grid")
    dual_pts = dual_grid.points().reshape(-1, dual_grid.dim)
    live = dual_grid.mask.reshape(-1) != OUTSIDE
    try:
        ok = points_in_hull(gradient_hull(field), dual_pts)
    except DegeneracyError:  # a hull with empty interior holds no dual grid
        ok = np.zeros(len(dual_pts), dtype=bool)
    clipped = np.flatnonzero(live & ~ok)
    if len(clipped):
        nodes = [list(np.unravel_index(int(k), dual_grid.shape)) for k in clipped[:32]]
        raise ExtrapolationError("dual nodes outside the sampled gradient hull",
                                 clipped_count=int(len(clipped)), first_nodes=nodes)
    return conjugate_factorized(field, dual_grid)


def _shrunk_dual_grid(field):
    """Box grid of the field's resolution over the gradient hull's bounding
    box, shrunk by one node spacing on every side."""
    resolution = field.grid.shape
    hull = gradient_hull(field)
    verts = hull.points[hull.vertices]
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    pad = (hi - lo) / (np.asarray(resolution) - 1)
    return box_grid(lo + pad, hi - pad, resolution)


def involution_residual(field):
    """sup |(f*)* - f| over interior nodes where both conjugations are valid,
    through a dual grid of the field's own resolution."""
    _require_weakly_convex(field, "involution_residual")
    grid = field.grid
    dual_grid = _shrunk_dual_grid(field)
    fstar = conjugate_factorized(field, dual_grid)
    back = conjugate_factorized(fstar, grid)
    hull2 = gradient_hull(fstar)
    pts = grid.points().reshape(-1, grid.dim)
    interior = (grid.mask == INTERIOR).reshape(-1)
    valid = interior & points_in_hull(hull2, pts)
    diff = np.abs(back.values.reshape(-1) - field.values.reshape(-1))[valid]
    return float(np.nanmax(diff))
