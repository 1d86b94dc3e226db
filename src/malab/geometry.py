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

One chain turns grad log det (tr(H^{-1} T_i) of an oracle, the FD gradient of
a grid's log det field) into grad log rho and Phi, and one chain rule turns
the Hessian of log rho in a potential's own coordinates into its x-Hessian.
Oracles get that Hessian in closed form from their exact derivatives up to
fourth order (logrho_hessian); nothing here differences a callable. The batched
Cholesky kernel stores its pivots entry-major: numpy reduces a short trailing
axis row by row, and over contiguous rows ~20x faster, to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError, Report, StencilError
from .grids import GridFunction, all_finite, gradient_field, hessian_field
from .oracles import PRIMAL


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
    inverse are NaN. The pivots are an (m, n) view of an entry-major (n, m) array, whose
    axis-1 reductions run over contiguous rows, ~20x faster, to the same bits."""
    n = H.shape[-1]
    A = np.moveaxis(H, 0, -1)
    L, piv = np.zeros(A.shape), np.empty(A.shape[1:])
    for i in range(n):
        for j in range(i):
            L[i, j] = (A[i, j] - _dot(L[i, :j], L[j, :j])) / L[j, j]
        piv[i] = A[i, i] - _dot(L[i, :i], L[i, :i])
        L[i, i] = np.sqrt(np.where(piv[i] > 0.0, piv[i], np.nan))
    if not inverse:
        return piv.T
    X = np.zeros(A.shape)  # L^{-1}, row by row by forward substitution
    for i in range(n):
        X[i, :i] = -_dot(L[i, :i, None], X[:i, :i]) / L[i, i]
        X[i, i] = 1.0 / L[i, i]
    Hi = _dot(X[:, :, None], X[:, None])  # X^T X: exactly symmetric, as x y = y x
    return piv.T, np.ascontiguousarray(np.moveaxis(Hi, -1, 0))  # (m, n, n) in C order, as H


def invariants(H, T, side):
    """Pointwise invariants from Hessians H (..., n, n) and third derivatives
    T (..., n, n, n), broadcast over the leading axes.

    Returns a dict of
        logdet       log det H
        logrho       log rho = logdet/(n+2), negated on the primal side
        rho          exp(logrho)
        Ginv         H^{-1}, the inverse metric
        grad_logdet  tr(H^{-1} T_i)                         (None if T is None)
        grad_logrho  grad_logdet/(n+2), negated likewise    (None if T is None)
        Phi          |grad log rho|^2_G                     (None if T is None)
    A row whose H (or T) is not finite, or whose H is not positive definite,
    is NaN in every output.
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[-1]
    lead = H.shape[:-2]
    flat = H.reshape(-1, n, n)
    ok = all_finite(flat, 2)
    if T is not None:
        ok &= all_finite(T, 3).reshape(-1)
    piv, Ginv = cholesky(np.where(ok[:, None, None], flat, np.nan), inverse=True)
    ok &= (piv > 0.0).all(axis=1)
    logdet = np.log(np.where(ok[:, None], piv, np.nan)).sum(axis=1)
    logrho = _exponent(side, n) * logdet.reshape(lead)
    out = {"logdet": logdet.reshape(lead), "logrho": logrho, "rho": np.exp(logrho),
           "Ginv": Ginv.reshape(H.shape), "grad_logdet": None, "grad_logrho": None,
           "Phi": None}
    return out if T is None else _grad_chain(
        out, np.einsum("...ab,...abi->...i", out["Ginv"], T), side)


def _exponent(side, n):
    """s with rho = det^s: -1/(n+2) on the primal side, +1/(n+2) on the dual."""
    return (-1.0 if side == PRIMAL else 1.0) / (n + 2.0)


def _grad_chain(inv, gld, side):
    """The invariants `inv` completed from grad log det `gld`: grad_logrho = s gld
    and Phi = |grad_logrho|^2_G; the one place where grad log det enters."""
    g = inv["grad_logrho"] = _exponent(side, gld.shape[-1]) * gld
    inv.update(grad_logdet=gld, Phi=np.einsum("...ij,...i,...j->...", inv["Ginv"], g, g))
    return inv


def _spd_invariants(H, T, side, x):
    """invariants(H, T, side), or DegeneracyError at the probes x unless every
    row is finite with H positive definite."""
    inv = invariants(H, T, side)
    if not np.isfinite(inv["logdet"]).all():
        raise DegeneracyError("Hessian not positive definite at probe",
                              point=np.asarray(x).tolist())
    return inv


def pde_residual(oracle, points, drift):
    """Exact residual of the drift Monge-Ampere equation on the oracle's side
    at analytic points: DriftCoefficients.residual of the log det of its
    Hessians, or DomainError where one of them is not positive definite."""
    points = np.asarray(points, dtype=float)
    side = oracle.side
    logdet = invariants(oracle.hessian(points), None, side)["logdet"]
    if not np.isfinite(logdet).all():
        raise DomainError("non-convex point in PDE residual probe")
    return drift.residual(logdet, points if side == PRIMAL else oracle.gradient(points), side)


def phi_rule(oracle, side):
    return lambda x: invariants(oracle.hessian(x), oracle.third(x), side)["Phi"]


# ---------------------------------------------------------------------------
# the Hessian of log rho (fourth-order content; drives the flat-direction
# curvature and identity (a))


def logrho_hessian(Ginv, T, Q, side):
    """The Hessian of log rho in the potential's own coordinates from H^{-1}, the
    third derivatives T and the fourth derivatives Q, broadcast over the leading
    axes: s times that of log det, tr(H^{-1} Q_kl) - tr(H^{-1} T_k H^{-1} T_l)."""
    M = np.einsum("...ab,...bck->...ack", Ginv, T)  # H^{-1} T_k
    return _exponent(side, Ginv.shape[-1]) * (np.einsum("...ab,...abkl->...kl", Ginv, Q)
                                              - np.einsum("...ack,...cal->...kl", M, M))


def xx_hessian_logrho(oracle, x):
    """Second derivatives of log rho with respect to the primal coordinates, at
    points x (..., n) of the oracle's side: _xx_chain over the exact H and T and
    the exact Hessian of log rho in the oracle's own coordinates."""
    side, x = oracle.side, np.asarray(x, dtype=float)
    T = oracle.third(x)
    inv = invariants(oracle.hessian(x), T, side)
    return _xx_chain(inv, T, logrho_hessian(inv["Ginv"], T, oracle.fourth(x), side), side)


def _xx_chain(inv, T, ddphi, side):
    """The x-Hessian of log rho from the invariants `inv`, third derivatives T and
    the Hessian `ddphi` of log rho in the potential's own coordinates. On the dual
    side d/dx_i = G^ia d/dxi_a, whose G^ia brings in T."""
    if side == PRIMAL:
        out = ddphi
    else:
        Hi = inv["Ginv"]
        v = np.einsum("...qa,...a->...q", Hi, inv["grad_logrho"])  # x-gradient of log rho
        out = (np.einsum("...ia,...jb,...ab->...ij", Hi, Hi, ddphi)
               - Hi @ np.einsum("...pqc,...q->...pc", T, v) @ Hi)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


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


def geometry_sample(potential, x):
    """All pointwise tensors at x (oracle) or at the node nearest x (grid), on
    the potential's side. On a grid, rho, grad rho and Phi are the node's row
    of grid_invariants; the connection, cubic form, J and Ricci read the FD
    third field."""
    n, side = potential.n, potential.side
    on_grid = isinstance(potential, GridFunction)
    if on_grid:  # the Hessian raises StencilError off the interior
        at = _node(potential.grid, x)
        x = potential.grid.point(at)
        H, T = potential.hessian(at), potential.third(at)
        inv = {k: v[at] for k, v in grid_invariants(potential).items()}
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
    KR = (n + 2.0) * (grid_xx_hessian_logrho(potential)[at] if on_grid
                      else xx_hessian_logrho(potential, x))
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
    and the field, a FieldOracle, gives its exact gradient and Hessian.
    For a grid potential, x snaps to the nearest node and the field
    (FieldOracle or node array) is chained through grid differences.
    """
    if isinstance(potential, GridFunction):
        grid = potential.grid
        node = _node(grid, x)
        values = field if isinstance(field, np.ndarray) else field.value(grid.points())
        inv = grid_invariants(potential)
        out = metric_laplacian(inv["Ginv"], inv["grad_logdet"], gradient_field(values, grid),
                               hessian_field(values, grid))[node]
        if not np.isfinite(out):
            raise StencilError("laplacian stencil does not fit at the node",
                               node=[int(k) for k in node])
        return float(out)
    x = np.asarray(x, dtype=float)
    inv = _spd_invariants(potential.hessian(x), potential.third(x), potential.side, x)
    lap = metric_laplacian(inv["Ginv"], inv["grad_logdet"], field.gradient(x), field.hessian(x))
    return float(lap) if x.ndim == 1 else lap


# ---------------------------------------------------------------------------
# structure-equation self-checks


@dataclass(frozen=True)
class StructureResiduals(Report):
    codazzi: float
    ricci_consistency: float


def structure_residuals(potential, x):
    """Numerical defects of the symmetry of the covariant-derivative cubic form
    and of Ricci-from-connection vs the cubic contraction at one point x, from
    the potential's exact derivatives up to fourth order in its own coordinates."""
    x = np.asarray(x, dtype=float)
    H, T, Q = potential.hessian(x), potential.third(x), potential.fourth(x)
    Hi = _spd_invariants(H, T, potential.side, x)["Ginv"]
    Gamma, ricci_cubic = _connection(Hi, T)
    A = -0.5 * T

    # covariant derivative of the cubic form, antisymmetry in last two slots
    dA = -0.5 * np.moveaxis(Q, -1, 0)  # d_l A_ijk at [l, i, j, k]
    A_cov = (dA
             - np.einsum("mli,mjk->lijk", Gamma, A)
             - np.einsum("mlj,imk->lijk", Gamma, A)
             - np.einsum("mlk,ijm->lijk", Gamma, A))
    codazzi = float(np.abs(A_cov - A_cov.transpose(3, 1, 2, 0)).max())

    # Ricci from the connection vs the cubic-form contraction; d_l G^{-1} is
    # -G^{-1} T_l G^{-1}
    dHi = -np.einsum("ka,abl,bm->lkm", Hi, T, Hi)
    dG = 0.5 * (np.einsum("lkm,ijm->lkij", dHi, T)
                + np.einsum("km,ijml->lkij", Hi, Q))  # d_l Gamma^k_ij at [l, k, i, j]
    ricci_gamma = (np.einsum("mmvs->sv", dG) - np.einsum("vmms->sv", dG)
                   + np.einsum("mml,lvs->sv", Gamma, Gamma)
                   - np.einsum("mvl,lms->sv", Gamma, Gamma))
    ricci = float(np.abs(ricci_gamma - ricci_cubic).max())
    return StructureResiduals(codazzi, ricci)


# ---------------------------------------------------------------------------
# whole-grid chains (NaN marks nodes whose stencils do not fit)


def grid_invariants(fu):
    """The invariant kernel over the grid Hessian field on the grid's side,
    cached. No third derivatives: grad_logdet is the FD gradient of the log
    det field, and _grad_chain takes grad_logrho and Phi from it."""
    def build():
        inv = invariants(fu.hessian_field(), None, fu.side)
        return _grad_chain(inv, gradient_field(inv["logdet"], fu.grid), fu.side)

    return fu.field("invariants", build)


def grid_phi_inequality_fields(fu):
    """(residual field, Phi field) of the gradient-of-Phi differential
    inequality, by FD chains."""
    inv = grid_invariants(fu)
    phi = inv["Phi"]
    return phi_inequality_residual(inv, gradient_field(phi, fu.grid),
                                   hessian_field(phi, fu.grid)), phi


def grid_xx_hessian_logrho(fu):
    """Second x-derivatives of log rho on the grid: _xx_chain over the node
    fields, with the FD Hessian of the log rho field and (dual side) the FD third field."""
    inv = grid_invariants(fu)
    T = None if fu.side == PRIMAL else fu.third_field()
    return fu.field("xxlogrho", lambda: _xx_chain(
        inv, T, hessian_field(inv["logrho"], fu.grid), fu.side))
