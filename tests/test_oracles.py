import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from malab.checks import identity_suite
from malab.domains import AffineMap
from malab.errors import DomainError, PreconditionError
from malab.geometry import pde_residual
from malab.oracles import (DUAL, PRIMAL, AffineImageOracle, DriftCoefficients, DualLog,
                           ExpSolution, Quadratic, catalog, normalize_at)

from conftest import fd_derivative


@pytest.mark.parametrize("n", [2, 3, 5])
def test_expsolution_drift_constants(n):
    ex = ExpSolution(n)
    d = ex.drift()
    assert d.d[0] == 1.0 and np.all(d.d[1:] == 0.0)
    assert d.d0 == pytest.approx((n - 1) * np.log(2.0))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_expsolution_pde_gate(n, rng):
    ex = ExpSolution(n)
    pts = rng.uniform(-1, 1, size=(100, n))
    r = pde_residual(ex, pts, ex.drift())
    assert np.abs(r).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_duallog_pde_gate(n, rng):
    dl = DualLog(n)
    pts = np.c_[rng.uniform(0.2, 3.0, 100), rng.uniform(-1, 1, (100, n - 1))]
    r = pde_residual(dl, pts, dl.drift())
    assert np.abs(r).max() <= 1e-12
    assert dl.drift().d0 == pytest.approx(0.0)


def test_concave_potential_fails_pde_residual():
    """-|x|^2/2 in 2-D has det D^2 = +1 but is not convex: the residual
    refuses it rather than reading 0."""
    concave = AffineImageOracle(Quadratic.unit(2), scale=-1.0)
    with pytest.raises(DomainError):
        pde_residual(concave, np.zeros((3, 2)), DriftCoefficients.zero(2))


def test_quadratic_drift_both_sides():
    A = np.diag([2.0, 0.5])
    assert Quadratic(A, side=PRIMAL).drift().d0 == pytest.approx(0.0)
    assert Quadratic(A, side=DUAL).drift().d0 == pytest.approx(0.0)
    assert Quadratic(2.0 * np.eye(2), side=PRIMAL).drift().d0 == pytest.approx(np.log(4.0))
    assert Quadratic(2.0 * np.eye(2), side=DUAL).drift().d0 == pytest.approx(-np.log(4.0))


def fd_defects(oracle, x):
    """For each derivative from the gradient up to the fourth, its largest
    distance from the centred difference of the order below, relative to
    max(1, its largest entry)."""
    orders = (oracle.value, oracle.gradient, oracle.hessian, oracle.third, oracle.fourth)
    return [np.abs(fd_derivative(lower, x) - upper(x)).max() / max(1.0, np.abs(upper(x)).max())
            for lower, upper in zip(orders, orders[1:])]


def test_derivatives_match_fd(rng):
    """Every exact derivative, up to the fourth, is the derivative of the order
    below: on each fixture, and on an affine image with a map, a scale and a
    tangent shift, whose pulled-back tensors are dense."""
    L = np.array([[1.2, 0.3, -0.4], [0.5, 0.9, 0.2], [-0.3, 0.6, 1.1]])
    image = AffineImageOracle(DualLog(3), AffineMap(L, np.array([-1.5, 0.2, 0.1])),
                              scale=1.7, p=np.array([1.1, -0.2, 0.3]))
    for oracle, box in ((ExpSolution(3), (-1, 1)), (DualLog(3), (0.5, 2.0)),
                        (Quadratic(np.array([[2.0, 0.3, 0], [0.3, 1.0, 0.1],
                                             [0, 0.1, 1.5]])), (-1, 1)),
                        (image, (-0.3, 0.3))):
        for x in rng.uniform(box[0], box[1], (5, 3)):
            assert oracle.contains(x)
            assert max(fd_defects(oracle, x)) <= 1e-8, (oracle.name, fd_defects(oracle, x))


def test_planted_hessian_error_fails_fd_consistency():
    """A Hessian 1% off the gradient's derivative cannot pass the check above."""

    class OffHessian(Quadratic):
        def hessian(self, x):
            return 1.01 * super().hessian(x)

    assert fd_defects(OffHessian(np.eye(3)), np.array([0.2, 0.1, -0.3]))[1] > 1e-3


def test_dual_pairs_young_identity(rng):
    for oracle, lo, hi in ((ExpSolution(2), np.array([-1, -1]), np.array([1, 1])),
                           (Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]),
                                      b=[0.1, -0.2], c=0.3),
                            np.array([-1, -1]), np.array([1, 1]))):
        dual = oracle.dual_oracle()
        for _ in range(20):
            x = rng.uniform(lo, hi)
            xi = oracle.gradient(x)
            young = float(dual.value(xi) + oracle.value(x) - x @ xi)
            assert abs(young) < 1e-10
            assert np.abs(dual.gradient(xi) - x).max() < 1e-8


def test_duallog_dual_is_exp_type():
    dl = DualLog(2)             # quadratic coefficient 1/2
    f = dl.dual_oracle()        # should be exp(x1) + x2^2/2
    x = np.array([0.3, -0.7])
    assert f.value(x) == pytest.approx(np.exp(0.3) + 0.5 * 0.49)


def test_normalize_at_shifts_minimum():
    dl = DualLog(2)
    p = np.array([1.0, 0.0])
    u = normalize_at(dl, p)
    assert u.value(p) == pytest.approx(0.0, abs=1e-14)
    assert np.abs(u.gradient(p)).max() < 1e-14
    # shifted potential still solves the dual equation with adjusted d0
    assert u.side == DUAL
    pts = np.c_[np.linspace(0.5, 2, 9), np.zeros(9)]
    assert np.abs(pde_residual(u, pts, u.drift())).max() < 1e-12
    # and the minimum is global on a probe set
    assert (u.value(pts) >= -1e-12).all()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["quadratic", "sqnorm", "expsolution", "duallog"])
@given(entries=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
       offset=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       scale=st.floats(0.05, 20.0), seed=st.integers(0, 2**16))
def test_affine_image_drift(name, n, entries, offset, scale, seed):
    """The image of a fixture under an invertible affine map, a scale and the
    tangent shift at a point solves the equation with the drift it publishes,
    and moving that drift's d0 by 1% (of max(1, |d0|)) fails the identity
    suite's PDE gate. The scale alone gives (d, d0 - n ln C) on the primal
    side and (C d, d0 + n ln C) on the dual side, exactly."""
    L = np.reshape(entries[:n * n], (n, n))
    # log det of a pulled-back Hessian loses about cond(L)^2 ulps
    assume(abs(np.linalg.det(L)) >= 0.3 and np.linalg.cond(L) < 20.0)
    u = catalog(n)[name]
    xs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(21, n))
    xs[:, 0] += 1.5 if u.side == DUAL else 0.0  # DualLog lives on x1 > 0
    T = AffineMap(L, np.array(offset[:n]))
    w = AffineImageOracle(u, T, scale=scale, p=xs[0])
    probes, drift = T.apply(xs[1:]), w.drift()
    assert np.abs(pde_residual(w, probes, drift)).max() <= 1e-12
    moved = DriftCoefficients(drift.d0 + 0.01 * max(1.0, abs(drift.d0)), drift.d)
    with pytest.raises(PreconditionError, match="PDE residual gate"):
        identity_suite(w, probes, moved)

    d, scaled = u.drift(), AffineImageOracle(u, scale=scale).drift()
    if u.side == DUAL:
        assert scaled.d0 == d.d0 + n * np.log(scale) and np.array_equal(scaled.d, scale * d.d)
    else:
        assert scaled.d0 == d.d0 - n * np.log(scale) and np.array_equal(scaled.d, d.d)


def test_affine_image_drift_needs_a_base_drift_and_positive_scale():
    class NoDrift(Quadratic):
        def drift(self):
            return None

    assert AffineImageOracle(Quadratic.unit(2), scale=-1.0).drift() is None
    assert AffineImageOracle(NoDrift(np.eye(2)), scale=2.0).drift() is None


def test_catalog_contents():
    fx = catalog(3)
    assert set(fx) == {"quadratic", "sqnorm", "expsolution", "duallog"}
    assert fx["sqnorm"].value(np.array([1.0, 2.0, 0.0])) == pytest.approx(5.0)


def test_drift_validation():
    with pytest.raises(Exception):
        DriftCoefficients(np.nan, np.zeros(2))


def _chain_rule_reference(base, maps, scales, y):
    """Derivatives of base(x) / prod(scales) at one point y, by index loops:
    x = B (y - t) for the composite inverse of `maps` (innermost first), and
    each derivative of order k is sum over a..c of base's k-th derivative
    times B_ai .. B_ck."""
    B, t = np.eye(base.n), np.zeros(base.n)
    for m in maps:                     # x = B (y - t) = m1^{-1}(m2^{-1}(... y))
        t = m.offset + m.linear @ t
        B = B @ m.inv_linear
    x, s, n = B @ (y - t), np.prod(scales), base.n
    tensors = (base.gradient(x), base.hessian(x), base.third(x))
    out = []
    for k, S in enumerate(tensors, start=1):
        R = np.zeros((n,) * k)
        for idx in itertools.product(range(n), repeat=k):
            for src in itertools.product(range(n), repeat=k):
                R[idx] += S[src] * np.prod([B[a, i] for a, i in zip(src, idx)])
        out.append(R / s)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_affine_pullback_matches_index_loops(n):
    """Nested images under non-orthogonal maps, so that the pulled-back
    Hessian and third derivatives are dense: gradient, hessian and third of
    AffineImageOracle equal the explicit chain rule, for single points and
    for a batch."""
    L1 = np.array([[1.2, 0.3, -0.4], [0.5, 0.9, 0.2], [-0.3, 0.6, 1.1]])[:n, :n]
    L2 = np.array([[0.7, -0.5, 0.2], [0.4, 1.3, -0.3], [0.1, 0.5, 0.9]])[:n, :n]
    maps = [AffineMap(L1, np.full(n, 0.2)), AffineMap(L2, np.linspace(-0.3, 0.1, n))]
    scales = (1.7, 0.6)
    rng = np.random.default_rng(7)
    w = ExpSolution(n)
    for m, s in zip(maps, scales):
        w = AffineImageOracle(w, m, scale=s)
    ys = rng.uniform(-0.5, 0.5, size=(4, n))
    batch = (w.gradient(ys), w.hessian(ys), w.third(ys))
    for p, y in enumerate(ys):
        want = _chain_rule_reference(ExpSolution(n), maps, scales, y)
        assert np.abs(want[2]).min() > 1e-6 * np.abs(want[2]).max()    # dense
        for got, got_batch, ref in zip((w.gradient(y), w.hessian(y), w.third(y)), batch, want):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.abs(got_batch[p] - ref).max() <= 1e-13 * np.abs(ref).max()
