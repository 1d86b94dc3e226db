"""Tensor geometry of convex graphs under the Hessian (Calabi) metric.

From a potential's derivatives this module evaluates the metric and its
inverse, the Levi-Civita connection Gamma^k_ij = 1/2 sum_l G^{kl} d3_ijl,
the cubic form A_ijk = -1/2 d3_ijk (with vanishing Weingarten tensor), the
relative Pick invariant, the Ricci tensor built from the cubic form, the
normalized determinant power rho, the invariant Phi = |grad log rho|^2_G,
and the metric Laplacian

    Lap = sum G^{ij} d_i d_j + side * (n+2)/(2 rho) sum G^{ij} rho_j d_i,

with side = +1 for a primal potential f(x) (rho = det(D^2 f)^{-1/(n+2)})
and side = -1 for a dual potential u(xi) (rho = det(D^2 u)^{+1/(n+2)}; this
is the same scalar on the graph expressed in gradient coordinates).

Quantities that need fourth derivatives (the flat-direction curvature,
second derivatives of rho or Phi) are obtained by centered differencing of
the exact third-order rules, with one Richardson level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, Report, StencilError
from .grids import GridFunction, INTERIOR, gradient_field, hessian_field
from .oracles import PRIMAL
from .stencils import fd_directional, fd_gradient, fd_hessian

DEFAULT_FD_SCALE = 1e-3  # outer FD step = scale * local length unit


def rho_sign(side):
    return -1.0 if side == PRIMAL else 1.0


def lap_drift_sign(side):
    """The sign of the metric Laplacian's drift term: + primal, - dual."""
    return 1.0 if side == PRIMAL else -1.0


def metric_laplacian(Ginv, glr, grad, hess, side):
    """G^ij s_ij + lap_drift_sign(side) (n+2)/2 G^ij (log rho)_j s_i for a
    scalar s with gradients `grad` and Hessians `hess`, broadcast over the
    leading axes; the one metric-Laplacian contraction for oracles and
    grids."""
    n = np.shape(Ginv)[-1]
    drift = lap_drift_sign(side) * (n + 2.0) / 2.0
    return (np.einsum("...ij,...ij->...", Ginv, hess)
            + drift * np.einsum("...ij,...j,...i->...", Ginv, glr, grad))


def phi_inequality_residual(Ginv, glr, phi, gphi, hphi, side):
    """Lap Phi minus the right-hand side of the gradient-of-Phi inequality

        n/(n-1) |grad Phi|^2/Phi + (n^2-3n-10)/(2(n-1)) <grad Phi, grad log rho>
        + (n+2)^2/(n-1) Phi^2,

    from Phi, its gradients and Hessians, broadcast over the leading axes."""
    n = np.shape(Ginv)[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = (n / (n - 1.0) * np.einsum("...ij,...i,...j->...", Ginv, gphi, gphi) / phi
               + (n * n - 3.0 * n - 10.0) / (2.0 * (n - 1.0))
               * np.einsum("...ij,...i,...j->...", Ginv, gphi, glr)
               + (n + 2.0) ** 2 / (n - 1.0) * phi**2)
    return metric_laplacian(Ginv, glr, gphi, hphi, side) - rhs


def _require_spd(H, x):
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise DegeneracyError("Hessian not positive definite at probe",
                              point=np.asarray(x).tolist()) from None


# ---------------------------------------------------------------------------
# the invariant kernel: rho, grad log rho and Phi from (H, T)


def invariants(H, T, side):
    """Pointwise invariants from Hessians H (..., n, n) and third derivatives
    T (..., n, n, n), broadcast over the leading axes.

    Returns a dict of
        logdet       log det H
        logrho       log rho = rho_sign(side)/(n+2) * logdet
        rho          exp(logrho)
        Ginv         H^{-1}, the inverse metric
        grad_logrho  rho_sign(side)/(n+2) * tr(H^{-1} T_i)   (None if T is None)
        Phi          |grad log rho|^2_G                     (None if T is None)
    A row whose H (or T) is not finite, or whose H is not positive definite,
    is NaN in every output. Grid callers pass T = None and difference the
    log rho field instead.
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[-1]
    lead = H.shape[:-2]
    flat = H.reshape(-1, n, n)
    ok = np.all(np.isfinite(flat), axis=(1, 2))
    if T is not None:
        ok &= np.all(np.isfinite(T), axis=(-3, -2, -1)).reshape(-1)
    ok[ok] = np.linalg.eigvalsh(flat[ok])[:, 0] > 0
    good = flat[ok]
    logdet = np.full(len(flat), np.nan)
    Ginv = np.full_like(flat, np.nan)
    logdet[ok] = np.linalg.slogdet(good)[1]
    Ginv[ok] = np.linalg.inv(good)
    s = rho_sign(side) / (n + 2.0)
    logrho = s * logdet.reshape(lead)
    out = {"logdet": logdet.reshape(lead), "logrho": logrho, "rho": np.exp(logrho),
           "Ginv": Ginv.reshape(H.shape), "grad_logrho": None, "Phi": None}
    if T is not None:
        g = s * np.einsum("...ab,...abi->...i", out["Ginv"], T)
        out["grad_logrho"] = g
        out["Phi"] = np.einsum("...ij,...i,...j->...", out["Ginv"], g, g)
    return out


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
    glr = grad_logrho_rule(oracle, side)
    if side == PRIMAL:
        D = fd_directional(glr, x, np.eye(oracle.n), h)
    else:
        def s_of(xi):
            return (np.linalg.inv(oracle.hessian(xi)) @ glr(xi)[..., None])[..., 0]

        basis = np.swapaxes(np.linalg.inv(oracle.hessian(x)), -1, -2)
        D = fd_directional(s_of, x, basis, h)
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
    """All pointwise tensors at x (oracle) or at the node nearest x (grid)."""
    n = potential.n
    on_grid = isinstance(potential, GridFunction)
    if on_grid:
        side = side or PRIMAL
        grid = potential.grid
        at = _node(grid, x)
        if grid.mask[at] != INTERIOR:
            raise StencilError("geometry sample needs an interior node",
                               node=[int(k) for k in at])
        x = grid.point(at)
    else:
        side = side or potential.side
        x = at = np.asarray(x, dtype=float)
    H = potential.hessian(at)
    _require_spd(H, x)
    T = potential.third(at)
    inv = invariants(H, T, side)
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


def calabi_laplacian(potential, field, x, side=None):
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
        out = grid_laplacian_of(potential, side or PRIMAL, values)[node]
        if not np.isfinite(out):
            raise StencilError("laplacian stencil does not fit at the node",
                               node=[int(k) for k in node])
        return float(out)
    side = side or potential.side
    x = np.asarray(x, dtype=float)
    H = potential.hessian(x)
    _require_spd(H, x)
    inv = invariants(H, potential.third(x), side)
    hstep = fd_step(x)
    lap = metric_laplacian(inv["Ginv"], inv["grad_logrho"],
                           fd_gradient(field, x, hstep), fd_hessian(field, x, hstep), side)
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
    H = potential.hessian(x)
    _require_spd(H, x)
    T = potential.third(x)
    Hi = np.linalg.inv(H)
    Gamma, ricci_cubic = _connection(Hi, T)
    A = -0.5 * T
    A_up = -Gamma  # G^kl A_ijl

    # graph structure equation: dd y - Gamma.dy = A.dy + H Y, with the
    # second derivatives of the graph taken by differencing the gradient
    grad = potential.gradient(x)
    y_k = np.c_[np.eye(n), grad].reshape(n, n + 1)          # tangent vectors
    Y = np.r_[np.zeros(n), 1.0]
    ddy = np.zeros((n, n, n + 1))
    ddy[..., n] = fd_directional(potential.gradient, x, np.eye(n), h)
    resid = (ddy - np.einsum("kij,ka->ija", Gamma, y_k)
             - np.einsum("kij,ka->ija", A_up, y_k)
             - np.einsum("ij,a->ija", H, Y))
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
        return _connection(np.linalg.inv(potential.hessian(y)), potential.third(y))[0]

    dG = fd_directional(gamma, x, np.eye(n), h)  # d_l Gamma^k_ij at [l, k, i, j]
    ricci_gamma = (np.einsum("mmvs->sv", dG) - np.einsum("vmms->sv", dG)
                   + np.einsum("mml,lvs->sv", Gamma, Gamma)
                   - np.einsum("mvl,lms->sv", Gamma, Gamma))
    ricci = float(np.abs(ricci_gamma - ricci_cubic).max())
    return StructureResiduals(gauss, codazzi, ricci)


# ---------------------------------------------------------------------------
# whole-grid chains (NaN marks nodes whose stencils do not fit)


def grid_invariants(fu, side):
    """The invariant kernel over the grid Hessian field (no third
    derivatives: grad log rho is the FD gradient of the log rho field)."""
    return fu.field(("invariants", side),
                    lambda: invariants(fu.hessian_field(), None, side))


def grid_grad_logrho(fu, side):
    return fu.field(("grad_logrho", side), lambda: gradient_field(
        grid_invariants(fu, side)["logrho"], fu.grid))


def grid_phi(fu, side):
    def build():
        Hi = grid_invariants(fu, side)["Ginv"]
        g = grid_grad_logrho(fu, side)
        return np.einsum("...ij,...i,...j->...", Hi, g, g)

    return fu.field(("phi", side), build)


def grid_laplacian_of(fu, side, values):
    """Metric Laplacian of a node field, by FD chains at grid spacing."""
    return metric_laplacian(grid_invariants(fu, side)["Ginv"], grid_grad_logrho(fu, side),
                            gradient_field(values, fu.grid), hessian_field(values, fu.grid),
                            side)


def grid_phi_inequality_fields(fu, side):
    """(residual field, Phi field) of the gradient-of-Phi differential
    inequality, by FD chains."""
    phi = grid_phi(fu, side)
    return phi_inequality_residual(grid_invariants(fu, side)["Ginv"], grid_grad_logrho(fu, side),
                                   phi, gradient_field(phi, fu.grid),
                                   hessian_field(phi, fu.grid), side), phi


def grid_xx_hessian_logrho(fu, side):
    """Second x-derivatives of log rho on the grid.

    Primal side: straight FD Hessian of the log rho field. Dual side: chain
    through x = grad u, using only node fields.
    """
    key = ("xxlogrho", side)

    def build():
        phi_f = grid_invariants(fu, side)["logrho"]
        if side == PRIMAL:
            return hessian_field(phi_f, fu.grid)
        Hi = grid_invariants(fu, side)["Ginv"]
        dphi = gradient_field(phi_f, fu.grid)   # phi_a
        ddphi = hessian_field(phi_f, fu.grid)   # phi_ab
        T = fu.third_field()                    # u_pqc
        term1 = np.einsum("...ia,...jb,...ab->...ij", Hi, Hi, ddphi)
        term2 = np.einsum("...ip,...qa,...a,...pqc,...cj->...ij", Hi, Hi, dphi, T, Hi)
        out = term1 - term2
        return 0.5 * (out + out.transpose(*range(out.ndim - 2), -1, -2))

    return fu.field(key, build)


def grid_kahler_ricci(fu, side):
    return (fu.n + 2.0) * grid_xx_hessian_logrho(fu, side)
