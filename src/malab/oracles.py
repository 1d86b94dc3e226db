"""Closed-form convex potentials with exact derivatives up to fourth order.

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

from .domains import AffineMap
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

    def residual(self, logdet, y, side):
        """The equation's residual from log det of the Hessians and y, the
        points x on the primal side (log det - d.x - d0) and the gradients
        grad u on the dual side (log det + d.grad u + d0)."""
        if y.shape[-1] != len(self.d):
            raise DomainError("drift needs one coefficient per axis", d=len(self.d), n=y.shape[-1])
        if side == DUAL:
            return logdet + y @ self.d + self.d0
        return logdet - y @ self.d - self.d0


class FieldOracle:
    """Analytic convex potential; value/gradient/hessian/third/fourth are exact.

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

    def fourth(self, x):
        raise NotImplementedError

    def contains(self, x):
        """Whether x lies in the oracle's stated open domain."""
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1], dtype=bool)

    def dual_oracle(self):
        """Closed-form Legendre partner, if one is known."""
        return None

    def drift(self):
        """Drift constants for the PDE this oracle solves on its side, or None."""
        return None

    def domain_note(self):
        return "all of R^n"


def _axis_tensor(x, n, order, entry):
    """The derivative tensor (..., n, ..., n) of `order` axes at points x whose
    one nonzero entry, at index (0, ..., 0), is `entry`."""
    out = np.zeros(np.shape(x)[:-1] + (n,) * order)
    out[(...,) + (0,) * order] = entry
    return out


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
        return _axis_tensor(x, self.n, 3, 0.0)

    def fourth(self, x):
        return _axis_tensor(x, self.n, 4, 0.0)

    def dual_oracle(self):
        Ai = np.linalg.inv(self.A)
        # conjugate of 1/2 x A x + b x + c is 1/2 (y-b) A^-1 (y-b) - c
        return Quadratic(Ai, -Ai @ self.b,
                         0.5 * self.b @ Ai @ self.b - self.c,
                         side=DUAL if self.side == PRIMAL else PRIMAL,
                         name=self.name + "_dual")

    def drift(self):
        logdet = float(np.linalg.slogdet(self.A)[1])
        return DriftCoefficients(logdet if self.side == PRIMAL else -logdet, np.zeros(self.n))


class ExpSolution(FieldOracle):
    """f(x) = exp(x1) + q sum_{i>=2} x_i^2; solves the primal equation with
    d = (1,0,...,0) and d0 = (n-1) ln(2q)."""

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
        return _axis_tensor(x, self.n, 3, np.exp(np.asarray(x, dtype=float)[..., 0]))

    def fourth(self, x):
        return _axis_tensor(x, self.n, 4, np.exp(np.asarray(x, dtype=float)[..., 0]))

    def dual_oracle(self):
        return DualLog(self.n, quad_coeff=1.0 / (4.0 * self.q), name=self.name + "_dual")

    def drift(self):
        d = np.zeros(self.n)
        d[0] = 1.0
        return DriftCoefficients((self.n - 1) * np.log(2.0 * self.q), d)


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
        return _axis_tensor(x, self.n, 3, -1.0 / np.asarray(x, dtype=float)[..., 0] ** 2)

    def fourth(self, x):
        return _axis_tensor(x, self.n, 4, 2.0 / np.asarray(x, dtype=float)[..., 0] ** 3)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] > 0.0

    def dual_oracle(self):
        return ExpSolution(self.n, quad_coeff=1.0 / (4.0 * self.q), name=self.name + "_dual")

    def drift(self):
        d = np.zeros(self.n)
        d[0] = 1.0
        return DriftCoefficients(-(self.n - 1) * np.log(2.0 * self.q), d)

    def domain_note(self):
        return "half-space {x1 > 0}"


# ---------------------------------------------------------------------------
# wrappers


def _pull_back(S, B, order):
    """S_{a..c} B_ai .. B_ck, summed over the `order` trailing axes of S: one
    (P n^(order-1), n) @ (n, n) product per axis, whose result axis is then
    rotated to the front of the trailing block."""
    for _ in range(order):
        S = np.moveaxis((S.reshape(-1, len(B)) @ B).reshape(S.shape), -1, -order)
    return S


class AffineImageOracle(FieldOracle):
    """w(y) = [base(x) - base(p) - grad base(p).(x - p)] / scale at x = T^{-1} y:
    the tangent shift at p, the rescaling u -> u/scale and the blow-up's
    John-normalized sections in one wrapper, with exact chain-rule derivatives
    (see _pull_back). No map T skips the pull-back; no p subtracts nothing."""

    def __init__(self, base, affine_map=None, scale=1.0, p=None, name=None):
        self.base = base
        self.map = affine_map
        self.scale = float(scale)
        self.p = None if p is None else np.asarray(p, dtype=float)
        self.n = base.n
        self.side = base.side
        self.name = name or (base.name + "_affine")
        if p is not None:
            self._v0 = float(base.value(self.p))
            self._g0 = base.gradient(self.p)

    def _x(self, y):
        return np.asarray(y, dtype=float) if self.map is None else self.map.apply_inverse(y)

    def _image(self, S, order):
        if self.map is not None:
            S = _pull_back(S, self.map.inv_linear, order)  # x = B (y - t)
        return S if self.scale == 1.0 else S / self.scale  # no copy for a bare shift

    def value(self, y):
        x = self._x(y)
        v = self.base.value(x)
        return self._image(v if self.p is None else v - self._v0 - (x - self.p) @ self._g0, 0)

    def gradient(self, y):
        g = self.base.gradient(self._x(y))
        return self._image(g if self.p is None else g - self._g0, 1)

    def hessian(self, y):
        return self._image(self.base.hessian(self._x(y)), 2)

    def third(self, y):
        return self._image(self.base.third(self._x(y)), 3)

    def fourth(self, y):
        return self._image(self.base.fourth(self._x(y)), 4)

    def contains(self, y):
        return self.base.contains(self._x(y))

    def drift(self):
        """The base drift carried through x = B (y - t), A = B^{-1}, and the
        scale s: (B^T d, d0 - d.B t - 2 ln|det A| - n ln s) on the primal side,
        (s A d, d0 + d.grad base(p) + 2 ln|det A| + n ln s) on the dual side."""
        base = self.base.drift()
        if base is None or self.scale <= 0:
            return None
        T = self.map or AffineMap(np.eye(self.n), np.zeros(self.n))
        log_jac = 2.0 * np.linalg.slogdet(T.linear)[1] + self.n * np.log(self.scale)
        if self.side == PRIMAL:
            d0 = base.d0 - float(base.d @ T.inv_linear @ T.offset) - log_jac
            return DriftCoefficients(d0, T.inv_linear.T @ base.d)
        shift = 0.0 if self.p is None else float(base.d @ self._g0)
        return DriftCoefficients(base.d0 + shift + log_jac, self.scale * (T.linear @ base.d))

    def domain_note(self):
        return ("" if self.map is None else "affine image of ") + self.base.domain_note()


def normalize_at(oracle, p):
    """Apply the standard reduction: subtract the tangent plane at p so the
    potential has minimum value 0 there."""
    return AffineImageOracle(oracle, p=p, name=oracle.name + "_shifted")


# ---------------------------------------------------------------------------
# catalog


def catalog(n):
    """Named fixtures at dimension n."""
    return {
        "quadratic": Quadratic.unit(n, 1.0, name="quadratic"),
        "sqnorm": Quadratic.unit(n, 2.0, name="sqnorm"),
        "expsolution": ExpSolution(n),
        "duallog": DualLog(n),
    }

