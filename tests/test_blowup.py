import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from malab.blowup import extract_section, run_blowup
from malab.domains import AffineMap
from malab.errors import PreconditionError, UnboundedSectionError
from malab.geometry import geometry_sample, phi_rule
from malab.oracles import AffineImageOracle, DualLog, ExpSolution, Quadratic, normalize_at


def duallog_normalized():
    return normalize_at(DualLog(2), np.array([1.0, 0.0]))


class TestExtractSection:
    def test_quadratic_ball_section(self):
        q = Quadratic.unit(2)
        sec = extract_section(q, np.zeros(2), 2.0)
        radii = np.linalg.norm(sec.support_points, axis=1)
        assert radii.min() == pytest.approx(2.0, abs=1e-7)
        assert radii.max() == pytest.approx(2.0, abs=1e-7)
        assert np.abs(sec.map.linear - 0.5 * np.eye(2)).max() <= 1e-6
        assert sec.level_defect <= 1e-6 * 2.0

    def test_anisotropic_quadratic_section(self):
        q = Quadratic(np.diag([2.0, 8.0]))  # u = xi1^2 + 4 xi2^2
        sec = extract_section(q, np.zeros(2), 1.0)
        spans = sec.support_points.max(axis=0)
        assert spans[0] == pytest.approx(1.0, abs=1e-7)
        assert spans[1] == pytest.approx(0.5, abs=1e-7)

    def test_duallog_compact_and_unbounded(self):
        u = duallog_normalized()
        sec = extract_section(u, [1, 0], 0.3)
        assert sec.support_points[:, 0].min() > 0.0
        with pytest.raises(UnboundedSectionError):
            extract_section(u, [1, 0], 10.0)

    def test_requires_minimum_at_p(self):
        with pytest.raises(PreconditionError):
            extract_section(DualLog(2), [1, 0], 0.3)


class TestRunBlowup:
    def test_quadratic_fixed_point(self):
        q = Quadratic.unit(2)
        rep = run_blowup(q, np.zeros(2), [1, 2, 4, 8], probes_per_axis=81)
        assert len(rep.records) == 4
        for r in rep.records:
            assert r.sup_phi_half <= 1e-10
            assert r.scaling_rel_error <= 1e-10

    def test_random_spd_quadratic_shape_stabilizes(self, rng):
        A = rng.normal(size=(2, 2))
        A = A @ A.T + 0.5 * np.eye(2)
        q = Quadratic(A)
        rep = run_blowup(q, np.zeros(2), [1, 2, 4, 8], probes_per_axis=61)
        assert all(r.sup_phi_half <= 1e-10 for r in rep.records)
        # the normalization of the C-section of 1/2 xi A xi satisfies
        # 2C T_k A^{-1} T_k^T = I: the rescaled shapes converge to a fixed ball
        for r in rep.records:
            s = 2.0 * r.C * (r.map.linear @ np.linalg.inv(A) @ r.map.linear.T)
            assert np.abs(s - np.eye(2)).max() <= 1e-6

    def test_duallog_scaling_law(self):
        u = duallog_normalized()
        rep = run_blowup(u, [1, 0], [0.1, 0.2, 0.3], probes_per_axis=121)
        assert rep.phi_base == pytest.approx(1.0 / 16.0, rel=1e-12)
        for r in rep.records:
            assert r.scaling_rel_error <= 1e-6
            assert r.phi_at_base_expected == pytest.approx(r.C / 16.0, rel=1e-12)

    def test_normal_map_coverage(self):
        u = duallog_normalized()
        rep = run_blowup(u, [1, 0], [0.2], probes_per_axis=121)
        r = rep.records[0]
        assert r.normal_map_covered == r.normal_map_directions
        assert r.normal_map_radius == pytest.approx(
            1.0 / (4.0 * r.half_section_radius))

    def test_gradient_ratio_bounded_along_ladder(self):
        u = duallog_normalized()
        rep = run_blowup(u, [1, 0], [0.1, 0.2, 0.3, 0.4], probes_per_axis=101)
        ratios = [r.sup_gradient_ratio for r in rep.records]
        assert all(np.isfinite(ratios))
        assert max(ratios) <= 4.0 * min(ratios) + 1.0


@given(n=st.sampled_from([2, 3]), dual=st.booleans(),
       entries=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
       shift=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       x=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_phi_affine_invariance(n, dual, entries, shift, x):
    """Phi is a scalar: Phi_w(T x) = Phi_u(x) for w = u o T^{-1} and any
    invertible affine T, on the primal (ExpSolution) and the dual (DualLog)
    side, in two and three dimensions."""
    A = np.reshape(entries[:n * n], (n, n))
    assume(abs(np.linalg.det(A)) >= 0.3)
    T = AffineMap(A, np.array(shift[:n]))
    u = DualLog(n) if dual else ExpSolution(n)
    x = np.array(x[:n])
    x[0] += 1.5 if dual else 0.0  # DualLog lives on x1 > 0
    w = AffineImageOracle(u, T, scale=1.0)
    a, b = float(phi_rule(u, u.side)(x)), float(phi_rule(w, w.side)(T.apply(x)))
    assert b == pytest.approx(a, rel=1e-10)
