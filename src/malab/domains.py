"""Bounded convex domains, centered minimum-volume ellipsoids, and the
affine normalization that sends the ellipsoid to the unit ball.

Supported domains are boxes, balls and halfspace polytopes. The centered
MVEE of a box or polytope follows a log-barrier Newton path over the
n(n+1)/2 entries of its shape matrix (Boyd & Vandenberghe, sec. 8.4.1; Sun &
Freund 2004); a ball is its own. Support points take batched directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from .errors import ConvergenceError, DomainError, Report

_CONTAIN_TOL = 1e-12
MAX_AXIS_RATIO = 1e6
BARRIER_FACTOR = 1000.0  # growth of t between centerings of the MVEE path
CENTERED = 1e-6  # squared Newton decrement that ends a centering
FULL_STEP = 1.0 / 16.0  # squared decrement below which Newton steps are full
MVEE_MAX_STEPS = 500  # Newton steps over the whole MVEE path
MAX_BARRIER_T = 1e14  # the Newton matrix's condition grows like t
CHECK_DIRECTIONS = 1024  # support directions that check a normalized image


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise DomainError("box bounds must be equal-length vectors")
        if not np.all(self.lo < self.hi):
            raise DomainError("box has empty interior", lo=self.lo.tolist(), hi=self.hi.tolist())

    @property
    def dim(self):
        return len(self.lo)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        tol = _CONTAIN_TOL * (np.maximum(np.abs(self.lo), np.abs(self.hi)) + 1.0)
        return np.all((x >= self.lo - tol) & (x <= self.hi + tol), axis=-1)

    def support_point(self, direction):
        d = np.asarray(direction, dtype=float)
        return np.where(d >= 0.0, self.hi, self.lo)

    def vertices(self):
        n = self.dim
        corners = np.array(np.meshgrid(*[(self.lo[i], self.hi[i]) for i in range(n)], indexing="ij"))
        return corners.reshape(n, -1).T

    def centroid(self):
        return 0.5 * (self.lo + self.hi)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def to_json(self):
        return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


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


@dataclass(frozen=True)
class Polytope:
    """Intersection of halfspaces {x : normals[k].x <= offsets[k]}."""

    normals: np.ndarray
    offsets: np.ndarray
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        N = np.asarray(self.normals, dtype=float)
        b = np.asarray(self.offsets, dtype=float)
        if N.ndim != 2 or len(b) != len(N):
            raise DomainError("polytope needs matching normals and offsets")
        if N.shape[1] < 2:
            raise DomainError("polytopes need at least two dimensions", n=int(N.shape[1]))
        norms = np.linalg.norm(N, axis=1)
        if np.any(norms <= 0):
            raise DomainError("zero normal in polytope")
        object.__setattr__(self, "normals", N / norms[:, None])
        object.__setattr__(self, "offsets", b / norms)
        self._check_interior_and_bounded()

    @property
    def dim(self):
        return self.normals.shape[1]

    def _check_interior_and_bounded(self):
        n = self.dim
        # Chebyshev center: max t s.t. N x + t <= b
        res = linprog(
            c=np.r_[np.zeros(n), -1.0],
            A_ub=np.c_[self.normals, np.ones(len(self.offsets))],
            b_ub=self.offsets,
            bounds=[(None, None)] * n + [(0, None)],
            method="highs",
        )
        if res.status == 3:
            raise DomainError("polytope is unbounded")
        if not res.success or res.x[-1] <= 1e-12:
            raise DomainError("polytope has empty interior")
        self._cache["interior_point"] = res.x[:n]
        # bounded iff 0 lies strictly inside the convex hull of the normals;
        # normals that are not full-dimensional leave a direction unbounded
        try:
            inside = ConvexHull(self.normals).equations[:, -1].max() < -1e-12
        except QhullError:
            inside = False
        if not inside:
            raise DomainError("polytope is unbounded")

    def interior_point(self):
        return self._cache["interior_point"].copy()

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        slack = x @ self.normals.T - self.offsets
        return np.all(slack <= _CONTAIN_TOL * (np.abs(self.offsets) + 1.0), axis=-1)

    def vertices(self):
        if "vertices" not in self._cache:
            hs = np.c_[self.normals, -self.offsets]
            inter = HalfspaceIntersection(hs, self.interior_point())
            v = np.unique(np.round(inter.intersections, 12), axis=0)
            self._cache["vertices"] = v
        return self._cache["vertices"].copy()

    def support_point(self, direction):
        v = self.vertices()
        return v[np.argmax(np.asarray(direction, dtype=float) @ v.T, axis=-1)]

    def centroid(self):
        """Exact centroid: the hull's facet simplices fanned from an interior
        point, in one batched determinant (in 2-D, the shoelace sum)."""
        v = self.vertices()
        p = self.interior_point()
        fan = v[ConvexHull(v).simplices] - p
        vol = np.abs(np.linalg.det(fan))
        return p + (vol @ fan.sum(axis=1)) / ((self.dim + 1) * vol.sum())

    def bounding_box(self):
        v = self.vertices()
        return v.min(axis=0), v.max(axis=0)

    def to_json(self):
        return {"kind": "polytope", "normals": self.normals.tolist(),
                "offsets": self.offsets.tolist()}


ConvexDomain = Box | Ball | Polytope


def domain_from_json(obj):
    kind = obj.get("kind")
    if kind == "box":
        return Box(np.asarray(obj["lo"]), np.asarray(obj["hi"]))
    if kind == "ball":
        return Ball(np.asarray(obj["center"]), float(obj["radius"]))
    if kind == "polytope":
        return Polytope(np.asarray(obj["normals"]), np.asarray(obj["offsets"]))
    raise DomainError("unknown domain kind", kind=kind)


# ---------------------------------------------------------------------------
# ellipsoids and affine maps


@dataclass(frozen=True)
class Ellipsoid(Report):
    """{x : (x-c)^T M (x-c) <= 1} with M symmetric positive definite."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        M = np.asarray(self.shape, dtype=float)
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
        det = np.linalg.det(A)
        if abs(det) <= 0:
            raise DomainError("affine map is singular")
        object.__setattr__(self, "_inv_linear", np.linalg.inv(A))

    @property
    def dim(self):
        return len(self.offset)

    @property
    def inv_linear(self):
        return self._inv_linear

    def apply(self, x):
        return np.asarray(x, dtype=float) @ self.linear.T + self.offset

    def apply_inverse(self, y):
        return (np.asarray(y, dtype=float) - self.offset) @ self._inv_linear.T

    def roundtrip_defect(self):
        n = self.dim
        return np.abs(self.linear @ self._inv_linear - np.eye(n)).max()


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
    Newton steps follow its log-barrier path, in coordinates that whiten the
    vertices, from the uniform-weight ellipsoid until the duality gap m/t is
    at most `tol` (a `tol` below m / MAX_BARRIER_T raises ConvergenceError);
    the result is rescaled to contain every vertex exactly. A ball is its
    own centered MVEE.
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

    def barrier(x):
        lam = np.linalg.eigvalsh((x @ E).reshape(n, n))
        s = 1.0 - A @ x
        if lam[0] <= 0.0 or s.min() <= 0.0:
            return np.inf
        return -t * np.log(lam).sum() - np.log(s).sum()

    x = np.where(r == k, 0.5 / np.einsum("ij,ij->i", q, q).max(), 0.0)
    t, last = 1.0, np.inf
    for _ in range(MVEE_MAX_STEPS):
        W = np.linalg.inv((x @ E).reshape(n, n))
        d = 1.0 / (1.0 - A @ x)
        g = -t * (E @ W.ravel()) + A.T @ d
        WW = (W[:, None, :, None] * W[:, None]).reshape(n * n, -1)  # kron(W, W)
        H = t * E @ WW @ E.T + (A.T * d**2) @ A
        dx = -np.linalg.solve(H, g)
        dec2 = -g @ dx
        # centered, or a full step no longer shrinks dec2 (rounding floor)
        if dec2 < CENTERED or dec2 >= last:
            if m / t <= tol:
                break
            t, last = min(BARRIER_FACTOR * t, MAX_BARRIER_T), np.inf
            continue
        if dec2 < FULL_STEP:
            step, last = 1.0, dec2
        else:
            # keep a hundredth of every slack (slacks at rounding level make
            # barrier values meaningless), then backtrack (Armijo)
            step = 0.99 / max(0.99, (d * (A @ dx)).max())
            f0 = barrier(x)
            while barrier(x + step * dx) > f0 - 0.25 * step * dec2:
                step *= 0.5
        x = x + step * dx
    else:
        raise ConvergenceError("centered MVEE did not converge", gap=m / t, tol=tol)

    # rescale for exact containment of the vertices
    M = S @ (x @ E).reshape(n, n) @ S / (A @ x).max()
    ell = Ellipsoid(c, M)
    axes = ell.semi_axes()
    if axes[0] / axes[-1] > MAX_AXIS_RATIO:
        raise DomainError("domain too flat for normalization",
                          axis_ratio=float(axes[0] / axes[-1]))
    return ell


def sqrtm_spd(M):
    w, Q = np.linalg.eigh(M)
    return (Q * np.sqrt(w)) @ Q.T


def normalize_domain(domain, tol=1e-9):
    """Affine map T sending the centered MVEE to the unit ball.

    The image satisfies B(0, n^{-3/2}) within T(domain) within B(0,1); both
    inclusions are verified on a fan of support directions d. The support
    point of T(domain) along d is T of the domain's along A^T d, A = T.linear.
    """
    ell = centered_mvee(domain, tol=tol)
    W = sqrtm_spd(ell.shape)
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
