"""Closed-form convex potentials with exact derivatives up to third order.

The catalog carries the fixtures used throughout the test harness:

* ``Quadratic``        f = 1/2 x^T A x + b.x + c            (primal and dual)
* ``ExpSolution``      f = exp(x1) + q * sum_{i>=2} x_i^2   (primal side)
* ``DualLog``          u = s1 ln s1 - s1 + q * sum_{i>=2} s_i^2 on {s1 > 0}
                       (dual side; Legendre partner of an ExpSolution)

Each fixture publishes the drift constants of the Monge-Ampere equation it
solves: det D^2 f = exp(d.x + d0) on the primal side, and
det D^2 u = exp(-d.grad(u) - d0) on the dual side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Report

PRIMAL = "primal"
DUAL = "dual"


@dataclass(frozen=True)
class DriftCoefficients(Report):
    """Constants (d0, d1..dn) of the exponential-drift Monge-Ampere equation."""

    d0: float
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))
        if not np.all(np.isfinite(self.d)) or not np.isfinite(self.d0):
            raise DomainError("drift coefficients must be finite")

    @staticmethod
    def from_json(obj):
        return DriftCoefficients(float(obj["d0"]), np.asarray(obj["d"], dtype=float))

    @staticmethod
    def zero(n):
        return DriftCoefficients(0.0, np.zeros(n))


class FieldOracle:
    """Analytic convex potential; value/gradient/hessian/third are exact.

    Point arguments broadcast: `x` may be shaped (..., n).
    """

    n: int
    side: str = PRIMAL
    name: str = "oracle"

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def hessian(self, x):
        raise NotImplementedError

    def third(self, x):
        raise NotImplementedError

    def contains(self, x):
        """Whether x lies in the oracle's stated open domain."""
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1], dtype=bool)

    def dual_oracle(self):
        """Closed-form Legendre partner, if one is known."""
        return None

    def drift(self, side=None):
        """Drift constants for the PDE this oracle solves on `side`, or None."""
        return None

    def domain_note(self):
        return "all of R^n"


class Quadratic(FieldOracle):
    """f(x) = 1/2 x^T A x + b.x + c with A symmetric positive definite."""

    def __init__(self, A, b=None, c=0.0, side=PRIMAL, name="quadratic"):
        A = np.asarray(A, dtype=float)
        self.n = A.shape[0]
        self.A = 0.5 * (A + A.T)
        if np.linalg.eigvalsh(self.A).min() <= 0:
            raise DomainError("quadratic matrix must be positive definite")
        self.b = np.zeros(self.n) if b is None else np.asarray(b, dtype=float)
        self.c = float(c)
        self.side = side
        self.name = name

    @staticmethod
    def unit(n, scale=1.0, side=PRIMAL, name="quadratic"):
        return Quadratic(scale * np.eye(n), side=side, name=name)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, self.A, x) + x @ self.b + self.c

    def gradient(self, x):
        return np.asarray(x, dtype=float) @ self.A.T + self.b

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.A, x.shape[:-1] + (self.n, self.n)).copy()

    def third(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.n,) * 3)

    def dual_oracle(self):
        Ai = np.linalg.inv(self.A)
        # conjugate of 1/2 x A x + b x + c is 1/2 (y-b) A^-1 (y-b) - c
        return Quadratic(Ai, -Ai @ self.b,
                         0.5 * self.b @ Ai @ self.b - self.c,
                         side=DUAL if self.side == PRIMAL else PRIMAL,
                         name=self.name + "_dual")

    def drift(self, side=None):
        side = side or self.side
        logdet = float(np.linalg.slogdet(self.A)[1])
        if side == PRIMAL:
            return DriftCoefficients(logdet, np.zeros(self.n))
        return DriftCoefficients(-logdet, np.zeros(self.n))


class ExpSolution(FieldOracle):
    """f(x) = exp(x1) + q sum_{i>=2} x_i^2; solves the primal equation with
    d = (1,0,...,0) and d0 = (n-1) ln(2q)."""

    side = PRIMAL

    def __init__(self, n, quad_coeff=1.0, name="expsolution"):
        if n < 2:
            raise DomainError("need n >= 2")
        self.n = n
        self.q = float(quad_coeff)
        self.name = name

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(x[..., 0]) + self.q * np.sum(x[..., 1:] ** 2, axis=-1)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        g = 2.0 * self.q * x.copy()
        g[..., 0] = np.exp(x[..., 0])
        return g

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        H = np.zeros(x.shape[:-1] + (self.n, self.n))
        idx = np.arange(1, self.n)
        H[..., idx, idx] = 2.0 * self.q
        H[..., 0, 0] = np.exp(x[..., 0])
        return H

    def third(self, x):
        x = np.asarray(x, dtype=float)
        T = np.zeros(x.shape[:-1] + (self.n,) * 3)
        T[..., 0, 0, 0] = np.exp(x[..., 0])
        return T

    def dual_oracle(self):
        return DualLog(self.n, quad_coeff=1.0 / (4.0 * self.q), name=self.name + "_dual")

    def drift(self, side=None):
        side = side or PRIMAL
        d = np.zeros(self.n)
        d[0] = 1.0
        d0 = (self.n - 1) * np.log(2.0 * self.q)
        if side == PRIMAL:
            return DriftCoefficients(d0, d)
        return None


class DualLog(FieldOracle):
    """u(s) = s1 ln s1 - s1 + q sum_{i>=2} s_i^2 on {s1 > 0}; solves the dual
    equation with d = (1,0,...,0) and d0 = -(n-1) ln(2q)."""

    side = DUAL

    def __init__(self, n, quad_coeff=0.5, name="duallog"):
        if n < 2:
            raise DomainError("need n >= 2")
        self.n = n
        self.q = float(quad_coeff)
        self.name = name

    def value(self, x):
        x = np.asarray(x, dtype=float)
        s1 = x[..., 0]
        return s1 * np.log(s1) - s1 + self.q * np.sum(x[..., 1:] ** 2, axis=-1)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        g = 2.0 * self.q * x.copy()
        g[..., 0] = np.log(x[..., 0])
        return g

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        H = np.zeros(x.shape[:-1] + (self.n, self.n))
        idx = np.arange(1, self.n)
        H[..., idx, idx] = 2.0 * self.q
        H[..., 0, 0] = 1.0 / x[..., 0]
        return H

    def third(self, x):
        x = np.asarray(x, dtype=float)
        T = np.zeros(x.shape[:-1] + (self.n,) * 3)
        T[..., 0, 0, 0] = -1.0 / x[..., 0] ** 2
        return T

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] > 0.0

    def dual_oracle(self):
        return ExpSolution(self.n, quad_coeff=1.0 / (4.0 * self.q), name=self.name + "_dual")

    def drift(self, side=None):
        side = side or DUAL
        d = np.zeros(self.n)
        d[0] = 1.0
        if side == DUAL:
            return DriftCoefficients(-(self.n - 1) * np.log(2.0 * self.q), d)
        return None

    def domain_note(self):
        return "half-space {x1 > 0}"


# ---------------------------------------------------------------------------
# wrappers


class TangentShiftedOracle(FieldOracle):
    """base - [base(p) + grad base(p).(x - p)]: zero minimum at p.

    Keeps the Hessian and third derivatives of the base potential, so it
    solves the same equation up to a shifted d0 on the dual side.
    """

    def __init__(self, base, p):
        self.base = base
        self.n = base.n
        self.side = base.side
        self.p = np.asarray(p, dtype=float)
        self.name = base.name + "_shifted"
        self._v0 = float(base.value(self.p))
        self._g0 = base.gradient(self.p)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.base.value(x) - self._v0 - (x - self.p) @ self._g0

    def gradient(self, x):
        return self.base.gradient(x) - self._g0

    def hessian(self, x):
        return self.base.hessian(x)

    def third(self, x):
        return self.base.third(x)

    def contains(self, x):
        return self.base.contains(x)

    def drift(self, side=None):
        base = self.base.drift(side)
        if base is None:
            return None
        side = side or self.side
        if side == DUAL:
            # det D^2 u unchanged; grad u shifted by -g0
            return DriftCoefficients(base.d0 + float(base.d @ self._g0), base.d)
        return base

    def domain_note(self):
        return self.base.domain_note()


def normalize_at(oracle, p):
    """Apply the standard reduction: subtract the tangent plane at p so the
    potential has minimum value 0 there."""
    return TangentShiftedOracle(oracle, p)


class AffineImageOracle(FieldOracle):
    """w(y) = base(T^{-1} y) / scale for an invertible AffineMap T.

    This realizes the rescaled, John-normalized potentials of the blow-up
    construction with exact chain-rule derivatives.
    """

    def __init__(self, base, affine_map, scale=1.0, name=None):
        self.base = base
        self.map = affine_map
        self.scale = float(scale)
        self.n = base.n
        self.side = base.side
        self.name = name or (base.name + "_affine")
        self._B = affine_map.inv_linear  # x = B (y - t)

    def _pull(self, y):
        return self.map.apply_inverse(y)

    def value(self, y):
        return self.base.value(self._pull(y)) / self.scale

    def gradient(self, y):
        g = self.base.gradient(self._pull(y))
        return g @ self._B / self.scale

    def hessian(self, y):
        H = self.base.hessian(self._pull(y))
        return np.einsum("ia,...ab,bj->...ij", self._B.T, H, self._B) / self.scale

    def third(self, y):
        T = self.base.third(self._pull(y))
        return np.einsum("...abc,ai,bj,ck->...ijk", T, self._B, self._B, self._B) / self.scale

    def contains(self, y):
        return self.base.contains(self._pull(y))

    def domain_note(self):
        return "affine image of " + self.base.domain_note()


# ---------------------------------------------------------------------------
# catalog and exact PDE residuals


def catalog(n):
    """Named fixtures at dimension n."""
    return {
        "quadratic": Quadratic.unit(n, 1.0, name="quadratic"),
        "sqnorm": Quadratic.unit(n, 2.0, name="sqnorm"),
        "expsolution": ExpSolution(n),
        "duallog": DualLog(n),
    }


def pde_residual(oracle, points, drift, side):
    """Exact residual of the drift Monge-Ampere equation at analytic points.

    primal: log det D^2 f - d.x - d0
    dual:   log det D^2 u + d.grad(u) + d0
    """
    points = np.asarray(points, dtype=float)
    H = oracle.hessian(points)
    sign, logdet = np.linalg.slogdet(H)
    if np.any(sign <= 0):
        raise DomainError("non-convex point in PDE residual probe")
    if side == PRIMAL:
        return logdet - points @ drift.d - drift.d0
    g = oracle.gradient(points)
    return logdet + g @ drift.d + drift.d0
