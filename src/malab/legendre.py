"""Analytic and discrete Legendre (convex-conjugate) transforms.

The discrete conjugate runs dimension by dimension (one 1-D conjugation per
axis), which equals the full max over the sampled lattice. Each 1-D pass is
Lucet's linear-time Legendre transform (Numer. Algorithms 16, 1997) of N
samples onto M dual nodes: O(lines N) pruning sweeps to a lower hull (1-6 on
smooth samples, N at worst), then one merge of its slopes with the nodes,
giving the full max's own floats. Dual evaluations outside the sampled
gradient hull are reported, never extrapolated; Qhull builds that hull from
a few percent of the gradients, the candidates an Akl-Toussaint filter keeps.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import ConvexityError, DegeneracyError, ExtrapolationError
from .geometry import cholesky
from .grids import INTERIOR, OUTSIDE, GridFunction, all_finite, box_grid, check_convex, rows_where
from .oracles import DUAL, PRIMAL

_HULL_TOL = 1e-9
_DROP_MARGIN = 1e-9  # times max|p|; a facet score rounds by ~1e-15 max|p|


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
    scores are -inf. xs and xis are increasing. Sweeps drop each sample
    whose slope to its left neighbour is not below the one to its right,
    leaving the lower hull, its slopes increasing in floats. One searchsorted
    of them gives each dual node its vertex, whose score is the full max's
    float when xi is t = T / min(diff(xs)) inside both adjacent slopes: all
    other samples then trail by T, 2^-40 of the scores' size. Nearer nodes
    are rescored out to the first vertex past those within T of theirs.
    """
    (lines, n), m = vals.shape, len(xis)
    live = np.isfinite(vals).any(axis=1)
    if not live.all():  # a line without samples conjugates to -inf
        out = np.full((lines, m), -np.inf)
        out[live] = _conjugate_1d(xs, vals[live], xis) if live.any() else -np.inf
        return out
    flat_vals, flat_xs = vals.ravel(), np.tile(xs, lines)
    pts = np.flatnonzero(np.isfinite(flat_vals))  # live samples, line by line
    lid, hx, hv = pts // n, flat_xs[pts], flat_vals[pts]
    while True:
        same = lid[:-1] == lid[1:]
        slope = np.divide(np.diff(hv), np.diff(hx), out=np.full(len(pts) - 1, np.inf), where=same)
        drop = (slope[:-1] >= slope[1:]) & same[:-1] & same[1:]
        if not drop.any():
            break
        keep = np.r_[True, ~drop, True]
        pts, lid, hx, hv = pts[keep], lid[keep], hx[keep], hv[keep]
    # a line's last vertex takes the nodes up to m, by its slope +inf
    counts = np.diff(np.searchsorted(xis, np.r_[slope, np.inf]) + lid * m, prepend=0)
    q, xi = np.repeat(np.arange(len(pts)), counts), np.tile(xis, lines)
    score = xi * hx[q] - hv[q]
    T = 2.0**-40 * (np.abs(xis).max() * np.abs(xs).max() + np.abs(hv).max())  # near-tie width
    t = T / np.diff(xs).min(initial=np.inf)
    lo, hi = np.r_[-np.inf, np.where(same, slope + t, -np.inf)], np.r_[slope - t, np.inf]
    k = np.flatnonzero((xi < lo[q]) | (xi > hi[q]))
    if len(k):
        xk, s0, v = xi[k, None], score[k, None], np.repeat(q[k, None], 2, axis=1)
        while True:  # out to the first vertex on each side past those within T
            w = np.clip(v + [-1, 1], 0, len(pts) - 1)
            inline = (w != v) & (lid[w] == lid[v])
            ok = inline & (xk * hx[w] - hv[w] >= s0 - T)
            if not ok.any():
                break
            v = np.where(ok, w, v)
        first, last = pts[np.where(inline, w, v)].T
        cnt = last - first + 1
        starts = np.cumsum(cnt) - cnt
        flat = np.arange(starts[-1] + cnt[-1]) + np.repeat(first - starts, cnt)
        near = np.repeat(xi[k], cnt) * flat_xs[flat] - flat_vals[flat]
        score[k] = np.maximum.reduceat(near, starts)
    return score.reshape(lines, m)


def conjugate_factorized(field, dual_grid):
    """Per-axis factorized discrete conjugate (equals the brute-force max).

    With g_a = max_{x_a} [xi_a x_a - w_{a-1}] and w_a = -g_a, the recursion
    w_0 = f, ..., w_n = -f* holds, so the conjugate is -w_n, on the other side.
    """
    grid = field.grid
    work = np.where(np.isfinite(field.values), field.values, np.inf)
    for a in range(grid.dim):
        moved = np.moveaxis(work, a, -1)
        lines = moved.reshape(-1, moved.shape[-1])
        conj = _conjugate_1d(grid.coords[a], lines, dual_grid.coords[a])
        conj = conj.reshape(moved.shape[:-1] + (len(dual_grid.coords[a]),))
        work = np.moveaxis(-conj, -1, a)
    return GridFunction(dual_grid, -work, DUAL if field.side == PRIMAL else PRIMAL)


def gradient_hull(field):
    """Convex hull of the finite FD gradients at interior nodes, by Qhull on hull
    candidates (Akl-Toussaint, Inf. Process. Lett. 7, 1978): the gradients extreme
    along {-1, 0, 1}^n \\ {0} span a small hull; those inside it by more than
    _DROP_MARGIN max|p|, far above the rounding of their scores, are dropped.
    hull.points holds the candidates, the axis extremes among them (same bounds).
    Raises DegeneracyError when the gradient set has empty interior (a
    linear field collapses it to a point, x1^2/2 to a segment).
    """
    grads = field.gradient_field()
    grads = rows_where(grads, (field.grid.mask == INTERIOR) & all_finite(grads, 1))
    if len(grads) < 1:
        raise DegeneracyError("no interior gradients available for a hull")
    n = grads.shape[1]
    dirs = np.indices((3,) * n).reshape(n, -1).T - 1  # {-1, 0, 1}^n
    extremes = np.unique((dirs[dirs.any(axis=1)] @ grads.T).argmax(axis=1))
    with suppress(QhullError):  # a degenerate small hull: Qhull decides on all gradients
        small = ConvexHull(grads[extremes])
        grads = rows_where(grads, ~points_in_hull(small, grads, -_DROP_MARGIN * abs(grads).max()))
    try:
        return ConvexHull(grads)
    except QhullError:
        raise DegeneracyError("interior gradients span a set with empty interior") from None


def points_in_hull(hull, pts, tol=_HULL_TOL):
    """Points whose every facet score against the hull is <= tol, scored
    facet-major: (F, N) scores, offset in place, reduced over their long axis."""
    score = hull.equations[:, :-1] @ np.asarray(pts, dtype=float).T
    score += hull.equations[:, -1:]
    return score.max(axis=0) <= tol


def _require_weakly_convex(field, what):
    # eigenvalues >= -1e-8 at every finite interior node iff H + 1e-8 I has a
    # Cholesky factor there; check_convex runs only to report a failure
    H = field.hessian_field()
    H = rows_where(H, (field.grid.mask == INTERIOR) & all_finite(H, 2))
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
    hull = gradient_hull(field)
    lo, hi = hull.min_bound, hull.max_bound
    pad = (hi - lo) / (np.asarray(field.grid.shape) - 1)
    return box_grid(lo + pad, hi - pad, field.grid.shape)


def involution_residual(field):
    """sup |(f*)* - f| over interior nodes where both conjugations are valid,
    through a dual grid of the field's own resolution."""
    _require_weakly_convex(field, "involution_residual")
    grid = field.grid
    dual_grid = _shrunk_dual_grid(field)
    fstar = conjugate_factorized(field, dual_grid)
    back = conjugate_factorized(fstar, grid)
    pts = grid.points().reshape(-1, grid.dim)
    interior = (grid.mask == INTERIOR).reshape(-1)
    valid = interior & points_in_hull(gradient_hull(fstar), pts)
    diff = np.abs(back.values.reshape(-1) - field.values.reshape(-1))[valid]
    return float(np.nanmax(diff))
