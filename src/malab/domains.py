"""Bounded convex domains, centered minimum-volume ellipsoids, and the
affine normalization that sends the ellipsoid to the unit ball.

Supported domains are balls and polytopes, a polytope being the convex hull
of its points and a box the polytope of its corners; `halfspace_polytope`
validates halfspace input (configs, sidecars). The centered MVEE of a
polytope comes from a primal-dual interior-point iteration over the n(n+1)/2
entries of its shape matrix (Sun & Freund 2004; Mehrotra 1992); a ball is its
own. Support points take batched directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import ConvergenceError, DomainError, Report

_CONTAIN_TOL = 1e-12
MAX_AXIS_RATIO = 1e6
MVEE_MAX_STEPS = 50  # primal-dual iterations of one MVEE
CHECK_DIRECTIONS = 1024  # support directions that check a normalized image


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise DomainError("ball radius must be positive", radius=self.radius)

    @property
    def dim(self):
        return len(self.center)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum((x - self.center) ** 2, axis=-1)
        return r2 <= self.radius**2 * (1.0 + _CONTAIN_TOL) + _CONTAIN_TOL

    def support_point(self, direction):
        d = np.asarray(direction, dtype=float)
        return self.center + self.radius * d / np.linalg.norm(d, axis=-1, keepdims=True)

    def centroid(self):
        return self.center.copy()

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def to_json(self):
        return {"kind": "ball", "center": self.center.tolist(), "radius": self.radius}


class Polytope:
    """Convex hull of a point cloud; its faces are the unit-normal halfspaces
    {x : normals[k].x <= offsets[k]}, each listed once. A face within 1e-12 of
    a given `faces` row (normal, -offset) is listed as that row, in row order."""

    def __init__(self, points, faces=None):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] < 2:
            raise DomainError("polytopes need at least two dimensions")
        try:
            self.hull = ConvexHull(pts)
        except QhullError:
            raise DomainError("polytope has empty interior") from None
        # Qhull lists a face once per simplex of its triangulation
        eq = self.hull.equations
        eq = eq[np.sort(np.unique(eq.round(12), axis=0, return_index=True)[1])]
        if faces is not None:
            near = np.abs(faces[:, None] - eq).max(axis=2) <= 1e-12
            hit = near.any(axis=0)
            eq = np.r_[faces[np.unique(near.argmax(axis=0)[hit])], eq[~hit]]
        self.normals, self.offsets = eq[:, :-1], -eq[:, -1]
        self._bound = self.offsets + _CONTAIN_TOL * (np.abs(self.offsets) + 1.0)

    @property
    def dim(self):
        return self.hull.ndim

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.ones(x.shape[:-1], dtype=bool)
        for a, b in zip(self.normals, self._bound):
            inside &= x @ a <= b
        return inside

    def vertices(self):
        return self.hull.points[self.hull.vertices]

    def support_point(self, direction):
        v = self.vertices()
        return v[np.argmax(np.asarray(direction, dtype=float) @ v.T, axis=-1)]

    def centroid(self):
        """Exact centroid: the hull's facet simplices fanned from the vertex
        mean, in one batched determinant (in 2-D, the shoelace sum)."""
        p = self.vertices().mean(axis=0)
        fan = self.hull.points[self.hull.simplices] - p
        vol = np.abs(np.linalg.det(fan))
        return p + (vol @ fan.sum(axis=1)) / ((self.dim + 1) * vol.sum())

    def bounding_box(self):
        return self.hull.min_bound.copy(), self.hull.max_bound.copy()

    def to_json(self):
        return {"kind": "polytope", "normals": self.normals.tolist(),
                "offsets": self.offsets.tolist()}


class Box(Polytope):
    """The axis-aligned box [lo, hi], the hull of its 2^n corners."""

    def __init__(self, lo, hi):
        self.lo, self.hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise DomainError("box bounds must be equal-length vectors")
        if not np.all(self.lo < self.hi):
            raise DomainError("box has empty interior", lo=self.lo.tolist(), hi=self.hi.tolist())
        super().__init__(list(itertools.product(*zip(self.lo, self.hi))))

    def centroid(self):
        return 0.5 * (self.lo + self.hi)

    def to_json(self):
        return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


def halfspace_polytope(normals, offsets):
    """The polytope {x : normals[k].x <= offsets[k]}, checked to be bounded
    with nonempty interior, as the hull of its vertices."""
    from scipy.optimize import linprog  # imported here: only polytope JSON needs it
    N, b = np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float)
    if N.ndim != 2 or len(b) != len(N):
        raise DomainError("polytope needs matching normals and offsets")
    if N.shape[1] < 2:
        raise DomainError("polytopes need at least two dimensions", n=int(N.shape[1]))
    norms = np.linalg.norm(N, axis=1)
    if np.any(norms <= 0):
        raise DomainError("zero normal in polytope")
    faces, N, b = np.c_[N, -b], N / norms[:, None], b / norms
    n = N.shape[1]
    # Chebyshev center: max t s.t. N x + t <= b
    res = linprog(c=np.r_[np.zeros(n), -1.0], A_ub=np.c_[N, np.ones(len(b))], b_ub=b,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if res.status == 3:
        raise DomainError("polytope is unbounded")
    if not res.success or res.x[-1] <= 1e-12:
        raise DomainError("polytope has empty interior")
    # bounded iff 0 lies strictly inside the convex hull of the normals;
    # normals that are not full-dimensional leave a direction unbounded
    try:
        inside = ConvexHull(N).equations[:, -1].max() < -1e-12
    except QhullError:
        inside = False
    if not inside:
        raise DomainError("polytope is unbounded")
    return Polytope(HalfspaceIntersection(np.c_[N, -b], res.x[:n]).intersections, faces)


def domain_from_json(obj):
    kind = obj.get("kind")
    if kind == "box":
        return Box(obj["lo"], obj["hi"])
    if kind == "ball":
        return Ball(np.asarray(obj["center"]), float(obj["radius"]))
    if kind == "polytope":
        return halfspace_polytope(obj["normals"], obj["offsets"])
    raise DomainError("unknown domain kind", kind=kind)


# ---------------------------------------------------------------------------
# ellipsoids and affine maps


@dataclass(frozen=True)
class Ellipsoid(Report):
    """{x : (x-c)^T M (x-c) <= 1} with M symmetric positive definite."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        c, M = np.asarray(self.center, dtype=float), np.asarray(self.shape, dtype=float)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape", 0.5 * (M + M.T))
        asym = np.abs(M - M.T).max()
        if asym > 1e-12 * (1.0 + np.abs(M).max()):
            raise DomainError("ellipsoid shape matrix is not symmetric", asym=asym)
        if np.linalg.eigvalsh(self.shape).min() <= 0:
            raise DomainError("ellipsoid shape matrix is not positive definite")

    @property
    def dim(self):
        return len(self.center)

    def quadratic(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return np.einsum("...i,ij,...j->...", d, self.shape, d)

    def semi_axes(self):
        """Semi-axis lengths, largest first."""
        return np.sort(1.0 / np.sqrt(np.linalg.eigvalsh(self.shape)))[::-1]


@dataclass(frozen=True)
class AffineMap(Report):
    """x -> linear @ x + offset, with a cached exact inverse."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.linear, dtype=float)
        t = np.asarray(self.offset, dtype=float)
        object.__setattr__(self, "linear", A)
        object.__setattr__(self, "offset", t)
        if np.linalg.det(A) == 0:
            raise DomainError("affine map is singular")
        object.__setattr__(self, "inv_linear", np.linalg.inv(A))

    def apply(self, x):
        return np.asarray(x, dtype=float) @ self.linear.T + self.offset

    def apply_inverse(self, y):
        return (np.asarray(y, dtype=float) - self.offset) @ self.inv_linear.T


# ---------------------------------------------------------------------------
# support sampling


def direction_fan(n, count):
    """Deterministic spread of unit directions: uniform angles (n=2),
    Fibonacci sphere (n=3), Gaussian directions of a fixed seed otherwise."""
    if n == 2:
        th = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if n == 3:
        k = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / count)
        golden = np.pi * (1.0 + 5.0**0.5)
        th = golden * k
        return np.stack([np.cos(th) * np.sin(phi), np.sin(th) * np.sin(phi), np.cos(phi)], axis=1)
    rng = np.random.default_rng(0)
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# centered MVEE


def centered_mvee(domain, tol=1e-9):
    """Minimum-volume ellipsoid containing `domain`, centered at its centroid.

    With the center c fixed, the shape of a box or polytope solves
    min -log det M s.t. q_i^T M q_i <= 1 over the vertices q_i - c, a convex
    problem in the n(n+1)/2 entries of M (Boyd & Vandenberghe, Convex
    Optimization, 2004, sec. 8.4.1; Sun & Freund, Oper. Res. 52, 2004).
    In whitened coordinates, Mehrotra's primal-dual predictor-corrector
    (SIAM J. Optim. 2, 1992) carries x, the slacks s of A x <= 1 and their
    multipliers lam from the uniform-weight ellipsoid (dual feasible) until
    the duality gap lam^T s is at most `tol` and the dual residual is at
    rounding level: `tol` bounds -log det M above its minimum, and one near
    rounding (below about 1e-13) may raise ConvergenceError. The result is
    rescaled to contain every vertex exactly. A ball is its own centered MVEE.
    """
    if not (0.0 < tol <= 1e-3):
        raise DomainError("tol must lie in (0, 1e-3]", tol=tol)
    c = domain.centroid()
    if isinstance(domain, Ball):
        return Ellipsoid(c, np.eye(domain.dim) / domain.radius**2)
    q = domain.vertices() - c
    m, n = q.shape
    w, Q = np.linalg.eigh(q.T @ q / m)
    if w[0] <= 0.0:
        raise DomainError("domain too flat for normalization")
    S = (Q / np.sqrt(w)) @ Q.T
    q = q @ S
    # unknowns x: the upper triangle of M = x @ E; constraint rows A x = q^T M q
    r, k = np.triu_indices(n)
    E = np.zeros((len(r), n * n))
    E[np.arange(len(r)), r * n + k] = E[np.arange(len(r)), k * n + r] = 1.0
    A = q[:, r] * q[:, k] * np.where(r == k, 1.0, 2.0)

    x = np.where(r == k, 0.5 / np.einsum("ij,ij->i", q, q).max(), 0.0)
    s = 1.0 - A @ x
    lam = np.full(m, 1.0 / (m * x[0]))  # sum lam_i q_i q_i^T = M^-1: dual feasible
    last = np.inf
    try:
        for _ in range(MVEE_MAX_STEPS):
            W = np.linalg.inv((x @ E).reshape(n, n))
            g = E @ W.ravel()
            rd, rp, gap = A.T @ lam - g, A @ x + s - 1.0, lam @ s
            # the dual residual is at rounding level once it is below 1e-10 of
            # grad log det M or stops shrinking
            res = np.abs(rd).max()
            if gap <= tol and (res <= 1e-10 * np.abs(g).max() or res >= last):
                break
            last = res
            WW = (W[:, None, :, None] * W[:, None]).reshape(n * n, -1)  # kron(W, W)
            K = E @ WW @ E.T + (A.T * (lam / s)) @ A

            def newton(rc):  # KKT step with complementarity residual rc; its longest step
                dx = np.linalg.solve(K, A.T @ ((rc - lam * rp) / s) - rd)
                ds = -rp - A @ dx
                dl = -(rc + lam * ds) / s
                return dx, ds, dl, 1.0 / max(1.0, (-ds / s).max(), (-dl / lam).max())

            dx, ds, dl, a = newton(lam * s)  # predictor (affine scaling), then corrector
            sigma = ((s + a * ds) @ (lam + a * dl) / gap) ** 3
            dx, ds, dl, a = newton(lam * s + ds * dl - sigma * gap / m)
            a *= 0.99  # fraction to the boundary
            while np.linalg.eigvalsh(((x + a * dx) @ E).reshape(n, n))[0] <= 0.0:
                a *= 0.5
            x, s, lam = x + a * dx, s + a * ds, lam + a * dl
        else:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:  # out of steps, or K singular: a tol below rounding
        raise ConvergenceError("centered MVEE did not converge", gap=lam @ s, tol=tol) from None

    # rescale for exact containment of the vertices
    M = S @ (x @ E).reshape(n, n) @ S / (A @ x).max()
    ratio = np.sqrt(np.linalg.cond(M))  # of the longest to the shortest semi-axis
    if ratio > MAX_AXIS_RATIO:
        raise DomainError("domain too flat for normalization", axis_ratio=float(ratio))
    return Ellipsoid(c, M)


def normalize_domain(domain, tol=1e-9):
    """Affine map T sending the centered MVEE to the unit ball.

    The image satisfies B(0, n^{-3/2}) within T(domain) within B(0,1); both
    inclusions are verified on a fan of support directions d. The support
    point of T(domain) along d is T of the domain's along A^T d, A = T.linear.
    """
    ell = centered_mvee(domain, tol=tol)
    w, Q = np.linalg.eigh(ell.shape)
    W = (Q * np.sqrt(w)) @ Q.T  # the symmetric square root of the shape
    T = AffineMap(W, -W @ ell.center)
    n = domain.dim
    dirs = direction_fan(n, CHECK_DIRECTIONS)
    far = T.apply(domain.support_point(dirs @ T.linear))
    sup = np.einsum("ki,ki->k", far, dirs)
    outer = np.linalg.norm(far, axis=-1)
    slack = 1e-6
    if outer.max() > 1.0 + slack:
        raise DomainError("normalized image escapes the unit ball",
                          worst=float(outer.max()))
    inner = n ** (-1.5) * (1.0 - slack)
    if sup.min() < inner:
        raise DomainError("normalized image misses the inner ball",
                          worst=float(sup.min()), required=inner)
    return T
