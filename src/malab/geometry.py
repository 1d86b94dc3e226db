"""Tensor geometry of convex graphs under the Hessian (Calabi) metric.

From a potential's derivatives this module evaluates the metric and its
inverse, the Levi-Civita connection Gamma^k_ij = 1/2 sum_l G^{kl} d3_ijl,
the cubic form A_ijk = -1/2 d3_ijk (with vanishing Weingarten tensor), the
relative Pick invariant, the Ricci tensor built from the cubic form, the
normalized determinant power rho, the invariant Phi = |grad log rho|^2_G,
and the metric Laplacian

    Lap = sum G^{ij} d_i d_j - 1/2 sum G^{ij} (log det D^2)_j d_i.

Here rho = det(D^2 f)^{-1/(n+2)} for a primal potential f(x) and
det(D^2 u)^{+1/(n+2)} for a dual potential u(xi), the same scalar on the
graph expressed in gradient coordinates. The drift term, (n+2)/(2 rho)
sum G^{ij} rho_j d_i on the primal side and its negative on the dual side,
is the log det term above on both, so Lap needs no side.

Quantities that need fourth derivatives (the flat-direction curvature,
second derivatives of rho or Phi) are obtained by centered differencing of
the exact third-order rules, with one Richardson level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError, Report, StencilError
from .grids import GridFunction, gradient_field, hessian_field
from .oracles import PRIMAL
from .stencils import fd_directional, fd_gradient, fd_hessian

DEFAULT_FD_SCALE = 1e-3  # outer FD step = scale * local length unit


def rho_sign(side):
    return -1.0 if side == PRIMAL else 1.0


def metric_laplacian(Ginv, gld, grad, hess):
    """G^ij s_ij - 1/2 G^ij (log det)_j s_i for a scalar s with gradients
    `grad` and Hessians `hess`, given grad log det `gld`, broadcast over the
    leading axes; the one metric-Laplacian contraction for oracles and grids."""
    return (np.einsum("...ij,...ij->...", Ginv, hess)
            - 0.5 * np.einsum("...ij,...j,...i->...", Ginv, gld, grad))


def phi_inequality_residual(inv, gphi, hphi):
    """Lap Phi minus the right-hand side of the gradient-of-Phi inequality

        n/(n-1) |grad Phi|^2/Phi + (n^2-3n-10)/(2(n-1)) <grad Phi, grad log rho>
        + (n+2)^2/(n-1) Phi^2,

    from the invariants `inv` (Ginv, grad_logrho, grad_logdet, Phi) and the
    gradients and Hessians of Phi, broadcast over the leading axes."""
    Ginv, glr, phi = inv["Ginv"], inv["grad_logrho"], inv["Phi"]
    n = np.shape(Ginv)[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = (n / (n - 1.0) * np.einsum("...ij,...i,...j->...", Ginv, gphi, gphi) / phi
               + (n * n - 3.0 * n - 10.0) / (2.0 * (n - 1.0))
               * np.einsum("...ij,...i,...j->...", Ginv, gphi, glr)
               + (n + 2.0) ** 2 / (n - 1.0) * phi**2)
    return metric_laplacian(Ginv, inv["grad_logdet"], gphi, hphi) - rhs


# ---------------------------------------------------------------------------
# the invariant kernel: rho, grad log rho and Phi from (H, T)


def _dot(a, b):
    """sum_k a[k] * b[k] over the first axis, added in order of k; 0.0 if empty."""
    s = a[0] * b[0] if len(a) else 0.0
    for k in range(1, len(a)):
        s += a[k] * b[k]
    return s


def cholesky(H, inverse=False):
    """Batched Cholesky H = L L^T of symmetric (m, n, n), vectorized over m with L
    held entry-major (n, n, m). Returns the pivots L_ii^2 (m, n), all > 0 exactly
    when H is positive definite, with product det H; with `inverse`, also H^{-1} =
    L^{-T} L^{-1}. From its first pivot that is not > 0, a matrix's pivots and
    inverse are NaN."""
    n = H.shape[-1]
    A = np.moveaxis(H, 0, -1)
    L, piv = np.zeros(A.shape), np.empty(H.shape[:-1])
    for i in range(n):
        for j in range(i):
            L[i, j] = (A[i, j] - _dot(L[i, :j], L[j, :j])) / L[j, j]
        piv[:, i] = A[i, i] - _dot(L[i, :i], L[i, :i])
        L[i, i] = np.sqrt(np.where(piv[:, i] > 0.0, piv[:, i], np.nan))
    if not inverse:
        return piv
    X = np.zeros(A.shape)  # L^{-1}, row by row by forward substitution
    for i in range(n):
        X[i, :i] = -_dot(L[i, :i, None], X[:i, :i]) / L[i, i]
        X[i, i] = 1.0 / L[i, i]
    Hi = _dot(X[:, :, None], X[:, None])  # X^T X: exactly symmetric, as x y = y x
    return piv, np.ascontiguousarray(np.moveaxis(Hi, -1, 0))  # (m, n, n) in C order, as H


def invariants(H, T, side):
    """Pointwise invariants from Hessians H (..., n, n) and third derivatives
    T (..., n, n, n), broadcast over the leading axes.

    Returns a dict of
        logdet       log det H
        logrho       log rho = rho_sign(side)/(n+2) * logdet
        rho          exp(logrho)
        Ginv         H^{-1}, the inverse metric
        grad_logdet  tr(H^{-1} T_i)                         (None if T is None)
        grad_logrho  rho_sign(side)/(n+2) * grad_logdet     (None if T is None)
        Phi          |grad log rho|^2_G                     (None if T is None)
    A row whose H (or T) is not finite, or whose H is not positive definite,
    is NaN in every output. grid_invariants passes T = None and fills the
    last three from the FD gradients of the log det and log rho fields.
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[-1]
    lead = H.shape[:-2]
    flat = H.reshape(-1, n, n)
    ok = np.all(np.isfinite(flat), axis=(1, 2))
    if T is not None:
        ok &= np.all(np.isfinite(T), axis=(-3, -2, -1)).reshape(-1)
    piv, Ginv = cholesky(np.where(ok[:, None, None], flat, np.nan), inverse=True)
    ok &= (piv > 0.0).all(axis=1)
    logdet = np.log(np.where(ok[:, None], piv, np.nan)).sum(axis=1)
    s = rho_sign(side) / (n + 2.0)
    logrho = s * logdet.reshape(lead)
    out = {"logdet": logdet.reshape(lead), "logrho": logrho, "rho": np.exp(logrho),
           "Ginv": Ginv.reshape(H.shape), "grad_logdet": None, "grad_logrho": None,
           "Phi": None}
    if T is not None:
        out["grad_logdet"] = np.einsum("...ab,...abi->...i", out["Ginv"], T)
        g = out["grad_logrho"] = s * out["grad_logdet"]
        out["Phi"] = np.einsum("...ij,...i,...j->...", out["Ginv"], g, g)
    return out


def _spd_invariants(H, T, side, x):
    """invariants(H, T, side), or DegeneracyError at the probes x unless every
    row is finite with H positive definite."""
    inv = invariants(H, T, side)
    if not np.isfinite(inv["logdet"]).all():
        raise DegeneracyError("Hessian not positive definite at probe",
                              point=np.asarray(x).tolist())
    return inv


def pde_residual(oracle, points, drift, side):
    """Exact residual of the drift Monge-Ampere equation at analytic points:
    DriftCoefficients.residual of the log det of the oracle's Hessians, or
    DomainError where one of them is not positive definite."""
    points = np.asarray(points, dtype=float)
    logdet = invariants(oracle.hessian(points), None, side)["logdet"]
    if not np.isfinite(logdet).all():
        raise DomainError("non-convex point in PDE residual probe")
    return drift.residual(logdet, points if side == PRIMAL else oracle.gradient(points), side)


def grad_logrho_rule(oracle, side):
    return lambda x: invariants(oracle.hessian(x), oracle.third(x), side)["grad_logrho"]


def phi_rule(oracle, side):
    return lambda x: invariants(oracle.hessian(x), oracle.third(x), side)["Phi"]


def rho_value_rule(oracle, side):
    return lambda x: invariants(oracle.hessian(x), None, side)["rho"]


def fd_step(x):
    """The outer FD step of each point x (..., n)."""
    return DEFAULT_FD_SCALE * np.maximum(1.0, np.abs(np.asarray(x)).max(axis=-1))


# ---------------------------------------------------------------------------
# the x-Hessian of log rho (fourth-order content; drives the flat-direction
# curvature and identity (a))


def xx_hessian_logrho(oracle, x, side=None):
    """Second derivatives of log rho with respect to the primal coordinates,
    at points x (..., n).

    On the dual side d/dx_j is the directional derivative along the columns
    of (D^2 u)^{-1}; centered differencing along those straight lines agrees
    with the true chained derivative to O(h^2).
    """
    side = side or oracle.side
    x = np.asarray(x, dtype=float)
    h = fd_step(x)
    if side == PRIMAL:
        D = fd_directional(grad_logrho_rule(oracle, side), x, np.eye(oracle.n), h)
    else:
        def s_of(xi):
            inv = invariants(oracle.hessian(xi), oracle.third(xi), side)
            return (inv["Ginv"] @ inv["grad_logrho"][..., None])[..., 0]

        # the columns of (D^2 u)^{-1}; the kernel's inverse is exactly symmetric
        D = fd_directional(s_of, x, invariants(oracle.hessian(x), None, side)["Ginv"], h)
    return 0.5 * (D + np.swapaxes(D, -1, -2))  # D[..., j, :] is along direction j


# ---------------------------------------------------------------------------
# geometry sample


@dataclass
class GeometrySample(Report):
    x: np.ndarray
    side: str
    G: np.ndarray
    Ginv: np.ndarray
    Gamma: np.ndarray
    A: np.ndarray
    B: np.ndarray
    J: float
    Ricci: np.ndarray
    KahlerRicci: np.ndarray
    KahlerScalar: float
    rho: float
    grad_rho: np.ndarray
    Phi: float
    conormal: np.ndarray

    def phi_recomputed(self):
        return float(np.einsum("ij,i,j->", self.Ginv, self.grad_rho, self.grad_rho)
                     / self.rho**2)


def _node(grid, x):
    """A tuple of integers is a node index; any other point snaps to the
    nearest node."""
    if isinstance(x, tuple) and all(isinstance(k, (int, np.integer)) for k in x):
        return x
    return grid.nearest_node(x)


def _connection(Hi, T):
    """The Levi-Civita connection Gamma^k_ij = 1/2 G^kl d3_ijl and the Ricci
    tensor contracted from the cubic form A = -1/2 d3."""
    A = -0.5 * T
    return (0.5 * np.einsum("kl,ijl->kij", Hi, T),
            np.einsum("mh,lj,iml,hjk->ik", Hi, Hi, A, A)
            - np.einsum("mh,lj,imk,hlj->ik", Hi, Hi, A, A))


def geometry_sample(potential, x, side=None):
    """All pointwise tensors at x (oracle) or at the node nearest x (grid).
    On a grid, rho, grad rho and Phi are the node's row of grid_invariants;
    the connection, cubic form, J and Ricci read the FD third field."""
    n = potential.n
    side = side or potential.side
    on_grid = isinstance(potential, GridFunction)
    if on_grid:  # the Hessian raises StencilError off the interior
        at = _node(potential.grid, x)
        x = potential.grid.point(at)
        H, T = potential.hessian(at), potential.third(at)
        inv = {k: v[at] for k, v in grid_invariants(potential, side).items()}
        if not np.isfinite(inv["logdet"]):
            raise DegeneracyError("Hessian not positive definite at probe", point=x.tolist())
        if not np.isfinite(inv["Phi"]):
            raise StencilError("stencil for grad log rho does not fit", node=list(map(int, at)))
    else:
        x = at = np.asarray(x, dtype=float)
        H, T = potential.hessian(at), potential.third(at)
        inv = _spd_invariants(H, T, side, x)
    Hi = inv["Ginv"]
    Gamma, ricci = _connection(Hi, T)
    KR = (n + 2.0) * (grid_xx_hessian_logrho(potential, side)[at] if on_grid
                      else xx_hessian_logrho(potential, x, side))
    # scalar: -1/2 sum f^{ij} d_i d_j logdet f; f^{ij} at the graph point is
    # Ginv on the primal side and the dual Hessian itself on the dual side
    fij = Hi if side == PRIMAL else H
    rho = float(inv["rho"])
    return GeometrySample(
        x=x, side=side, G=H, Ginv=Hi, Gamma=Gamma, A=-0.5 * T, B=np.zeros((n, n)),
        J=float(np.einsum("il,jm,kn,ijk,lmn->", Hi, Hi, Hi, T, T) / (4.0 * n * (n - 1))),
        Ricci=ricci,
        KahlerRicci=KR, KahlerScalar=0.5 * float(np.einsum("ij,ij->", fij, KR)),
        rho=rho, grad_rho=rho * inv["grad_logrho"], Phi=float(inv["Phi"]),
        conormal=np.r_[-potential.gradient(at), 1.0],
    )


# ---------------------------------------------------------------------------
# metric Laplacian


def calabi_laplacian(potential, field, x):
    """Metric Laplacian of a scalar field.

    For an analytic potential, x is a point or a batch of points (..., n)
    and the field, a callable on points, is differenced with one Richardson
    level.
    For a grid potential, x snaps to the nearest node and the field
    (callable on points, or node array) is chained through grid differences.
    """
    if isinstance(potential, GridFunction):
        grid = potential.grid
        node = _node(grid, x)
        values = field if isinstance(field, np.ndarray) else field(grid.points())
        inv = grid_invariants(potential, potential.side)
        out = metric_laplacian(inv["Ginv"], inv["grad_logdet"], gradient_field(values, grid),
                               hessian_field(values, grid))[node]
        if not np.isfinite(out):
            raise StencilError("laplacian stencil does not fit at the node",
                               node=[int(k) for k in node])
        return float(out)
    x = np.asarray(x, dtype=float)
    inv = _spd_invariants(potential.hessian(x), potential.third(x), potential.side, x)
    hstep = fd_step(x)
    lap = metric_laplacian(inv["Ginv"], inv["grad_logdet"],
                           fd_gradient(field, x, hstep), fd_hessian(field, x, hstep))
    return float(lap) if x.ndim == 1 else lap


# ---------------------------------------------------------------------------
# structure-equation self-checks


@dataclass(frozen=True)
class StructureResiduals(Report):
    gauss: float
    codazzi: float
    ricci_consistency: float


def structure_residuals(potential, x):
    """Numerical defects of the graph structure equation, the symmetry of the
    covariant-derivative cubic form, and Ricci-from-connection vs the cubic
    contraction. The potential is treated as the graph function over its own
    coordinates, differenced with the fixed step DEFAULT_FD_SCALE."""
    h = DEFAULT_FD_SCALE
    x = np.asarray(x, dtype=float)
    n = potential.n
    H, T = potential.hessian(x), potential.third(x)
    Hi = _spd_invariants(H, T, potential.side, x)["Ginv"]
    Gamma, ricci_cubic = _connection(Hi, T)
    A = -0.5 * T

    # graph structure equation dd y = Gamma.dy + A^.dy + H Y, with the second
    # derivatives of the graph taken by differencing the gradient; the raised
    # cubic form G^kl A_ijl is -Gamma^k_ij, so the two connection terms cancel
    Y = np.r_[np.zeros(n), 1.0]
    ddy = np.zeros((n, n, n + 1))
    ddy[..., n] = fd_directional(potential.gradient, x, np.eye(n), h)
    resid = ddy - np.einsum("ij,a->ija", H, Y)
    gauss = float(np.abs(resid).max())

    # covariant derivative of the cubic form, antisymmetry in last two slots
    dA = -0.5 * fd_directional(potential.third, x, np.eye(n), h)  # [l, i, j, k]
    A_cov = (dA
             - np.einsum("mli,mjk->lijk", Gamma, A)
             - np.einsum("mlj,imk->lijk", Gamma, A)
             - np.einsum("mlk,ijm->lijk", Gamma, A))
    codazzi = float(np.abs(A_cov - A_cov.transpose(3, 1, 2, 0)).max())

    # Ricci from the connection vs the cubic-form contraction
    def gamma(y):
        return _connection(invariants(potential.hessian(y), None, potential.side)["Ginv"],
                           potential.third(y))[0]

    dG = fd_directional(gamma, x, np.eye(n), h)  # d_l Gamma^k_ij at [l, k, i, j]
    ricci_gamma = (np.einsum("mmvs->sv", dG) - np.einsum("vmms->sv", dG)
                   + np.einsum("mml,lvs->sv", Gamma, Gamma)
                   - np.einsum("mvl,lms->sv", Gamma, Gamma))
    ricci = float(np.abs(ricci_gamma - ricci_cubic).max())
    return StructureResiduals(gauss, codazzi, ricci)


# ---------------------------------------------------------------------------
# whole-grid chains (NaN marks nodes whose stencils do not fit)


def grid_invariants(fu, side):
    """The invariant kernel over the grid Hessian field, cached per side. No
    third derivatives: grad_logdet and grad_logrho are the FD gradients of the
    log det and log rho fields, and Phi is the G-norm of the latter."""
    def build():
        inv = invariants(fu.hessian_field(), None, side)
        inv["grad_logdet"] = gradient_field(inv["logdet"], fu.grid)
        g = inv["grad_logrho"] = gradient_field(inv["logrho"], fu.grid)
        inv["Phi"] = np.einsum("...ij,...i,...j->...", inv["Ginv"], g, g)
        return inv

    return fu.field(("invariants", side), build)


def grid_phi_inequality_fields(fu, side):
    """(residual field, Phi field) of the gradient-of-Phi differential
    inequality, by FD chains."""
    inv = grid_invariants(fu, side)
    phi = inv["Phi"]
    return phi_inequality_residual(inv, gradient_field(phi, fu.grid),
                                   hessian_field(phi, fu.grid)), phi


def grid_xx_hessian_logrho(fu, side):
    """Second x-derivatives of log rho on the grid.

    Primal side: straight FD Hessian of the log rho field. Dual side: chain
    through x = grad u, using only node fields.
    """
    key = ("xxlogrho", side)

    def build():
        inv = grid_invariants(fu, side)
        ddphi = hessian_field(inv["logrho"], fu.grid)   # phi_ab
        if side == PRIMAL:
            return ddphi
        Hi, dphi = inv["Ginv"], inv["grad_logrho"]      # phi_a
        T = fu.third_field()                            # u_pqc
        term1 = np.einsum("...ia,...jb,...ab->...ij", Hi, Hi, ddphi)
        v = np.einsum("...qa,...a->...q", Hi, dphi)      # x-gradient of log rho
        out = term1 - Hi @ np.einsum("...pqc,...q->...pc", T, v) @ Hi
        return 0.5 * (out + out.transpose(*range(out.ndim - 2), -1, -2))

    return fu.field(key, build)
