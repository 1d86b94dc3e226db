import numpy as np
import pytest
from scipy.spatial import ConvexHull

from malab.domains import (AffineMap, Ball, Box, Ellipsoid, Polytope,
                           box_as_polytope, centered_mvee, domain_from_json,
                           direction_fan, normalize_domain)
from malab.errors import DomainError

from conftest import random_polytope


def mvee_axes_oracle(corner, steps=4001):
    """Fixed-center MVEE of a symmetric box [-a0,a0]x[-b0,b0] by direct
    search: minimize a*b subject to the corner constraint a0^2/a^2 +
    b0^2/b^2 <= 1."""
    a0, b0 = corner
    best = (np.inf, None)
    for a in np.linspace(a0 * 1.0001, a0 * 3.0, steps):
        # smallest admissible b for this a
        s = 1.0 - a0**2 / a**2
        if s <= 0:
            continue
        b = b0 / np.sqrt(s)
        if a * b < best[0]:
            best = (a * b, (a, b))
    return np.sort(np.array(best[1]))[::-1]


class TestMVEE:
    def test_ball_is_its_own_mvee(self):
        e = centered_mvee(Ball(np.array([0.3, -0.2]), 2.0))
        assert np.allclose(e.center, [0.3, -0.2])
        assert np.allclose(e.shape, np.eye(2) / 4.0)

    def test_square_circumcircle(self):
        e = centered_mvee(Box([-1, -1], [1, 1]), tol=1e-9)
        assert np.allclose(e.center, 0.0)
        assert np.abs(e.shape - 0.5 * np.eye(2)).max() < 1e-9
        assert abs(e.semi_axes()[0] - np.sqrt(2)) < 1e-9

    def test_rectangle_against_search_oracle(self):
        e = centered_mvee(Box([-2, -1], [2, 1]), tol=1e-9)
        want = mvee_axes_oracle((2.0, 1.0))
        assert np.allclose(e.semi_axes(), want, rtol=2e-4)
        assert np.allclose(e.semi_axes(), [2 * np.sqrt(2), np.sqrt(2)], rtol=1e-8)

    def test_containment_invariant(self, rng):
        for _ in range(10):
            P = random_polytope(rng)
            e = centered_mvee(P, tol=1e-9)
            q = e.quadratic(P.vertices())
            assert q.max() <= 1.0 + 1e-6

    def test_affine_equivariance(self, rng):
        for _ in range(5):
            P = random_polytope(rng)
            e = centered_mvee(P, tol=1e-11)
            S = rng.normal(size=(2, 2))
            while abs(np.linalg.det(S)) < 0.3:
                S = rng.normal(size=(2, 2))
            t = rng.normal(size=2)
            T = AffineMap(S, t)
            NB = P.normals @ T.inv_linear
            imgP = Polytope(NB, P.offsets + NB @ t)
            e2 = centered_mvee(imgP, tol=1e-11)
            # shape transforms by congruence with S^{-1}
            Si = np.linalg.inv(S)
            want = Si.T @ e.shape @ Si
            assert np.allclose(e2.center, T.apply(e.center), atol=1e-6)
            assert np.abs(e2.shape - want).max() <= 1e-6 * np.abs(want).max()

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            centered_mvee(Ball(np.zeros(2), 1.0), tol=1e-2)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(DomainError):
            centered_mvee(Box([-1, -1e-8], [1, 1e-8]))


class TestNormalize:
    def test_ball_normalization_is_exact(self):
        T, img = normalize_domain(Ball(np.array([1.0, 2.0]), 3.0))
        assert isinstance(img, Ball)
        assert np.allclose(img.center, 0.0) and np.isclose(img.radius, 1.0)
        assert np.allclose(T.apply([1.0, 2.0]), 0.0)

    def test_square_map(self):
        T, img = normalize_domain(Box([-1, -1], [1, 1]), tol=1e-9)
        assert np.abs(T.linear - np.eye(2) / np.sqrt(2)).max() < 1e-8
        # image contains the inner ball of radius 2^{-3/2}
        dirs = direction_fan(2, 64)
        sup = np.array([img.support_point(d) @ d for d in dirs])
        assert sup.min() >= 2.0 ** (-1.5) * (1 - 1e-9)

    def test_thin_box_anisotropy(self):
        T, img = normalize_domain(Box([-10, -0.1], [10, 0.1]), tol=1e-9)
        sv = np.linalg.svd(T.linear, compute_uv=False)
        assert abs(sv[0] / sv[-1] - 100.0) < 1e-3

    def test_sandwich_on_random_polytopes(self, rng):
        for _ in range(20):
            P = random_polytope(rng)
            T, img = normalize_domain(P, tol=1e-10)
            verts = img.vertices()
            assert np.linalg.norm(verts, axis=1).max() <= 1.0 + 1e-6
            dirs = direction_fan(2, 256)
            sup = np.array([img.support_point(d) @ d for d in dirs])
            assert sup.min() >= 2.0 ** (-1.5) * (1 - 1e-6)

    def test_sandwich_3d(self, rng):
        for _ in range(3):
            P = random_polytope(rng, n=3, max_halfspaces=10)
            T, img = normalize_domain(P, tol=1e-9)
            dirs = direction_fan(3, 512)
            sup = np.array([img.support_point(d) @ d for d in dirs])
            assert np.array([np.linalg.norm(img.support_point(d)) for d in dirs]).max() \
                <= 1.0 + 1e-6
            assert sup.min() >= 3.0 ** (-1.5) * (1 - 1e-6)


class TestSupportPoints:
    def test_batched_directions_match_single_calls(self, rng):
        hull = ConvexHull(rng.normal(size=(20, 2)))
        domains = (Box([-1, -2], [3, 1]), Ball(np.array([0.3, -0.2]), 2.0),
                   Polytope(hull.equations[:, :-1], -hull.equations[:, -1]))
        dirs = direction_fan(2, 64)
        for dom in domains:
            single = np.array([dom.support_point(d) for d in dirs])
            assert np.array_equal(dom.support_point(dirs), single)


class TestDomainTypes:
    def test_box_validation(self):
        with pytest.raises(DomainError):
            Box([0, 0], [1, 0])

    def test_ball_validation(self):
        with pytest.raises(DomainError):
            Ball(np.zeros(2), -1.0)

    def test_polytope_unbounded_rejected(self):
        with pytest.raises(DomainError):
            Polytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_polytope_strip_rejected(self):
        # {|x1| <= 1, x2 <= 1}: finite inradius, unbounded below in x2
        with pytest.raises(DomainError, match="unbounded"):
            Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0, 1.0]))

    def test_polytope_in_one_dimension_rejected(self):
        with pytest.raises(DomainError):
            Polytope(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))

    def test_polytope_empty_rejected(self):
        with pytest.raises(DomainError):
            Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                     np.array([-1.0, -1.0, 1.0, 1.0]))

    def test_polytope_centroid_matches_box(self):
        B = Box([0, -1], [2, 1])
        P = box_as_polytope(B)
        assert np.allclose(P.centroid(), [1.0, 0.0], atol=1e-12)

    def test_centroid_3d_simplex(self):
        # simplex with vertices 0, e1, e2, e3: centroid = (1/4, 1/4, 1/4)
        normals = np.vstack([-np.eye(3), np.ones(3) / np.sqrt(3)])
        offsets = np.r_[0.0, 0.0, 0.0, 1.0 / np.sqrt(3)]
        P = Polytope(normals, offsets)
        assert np.allclose(P.centroid(), 0.25, atol=1e-12)

    def test_json_round_trip(self, rng):
        for dom in (Box([-1, 0], [2, 3]), Ball(np.array([1.0, -1.0]), 0.5),
                    random_polytope(rng)):
            back = domain_from_json(dom.to_json())
            assert type(back) is type(dom)
            pts = rng.uniform(-3, 3, size=(100, 2))
            assert np.array_equal(dom.contains(pts), back.contains(pts))


class TestEllipsoidAffine:
    def test_ellipsoid_requires_spd(self):
        with pytest.raises(DomainError):
            Ellipsoid(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_affine_roundtrip(self, rng):
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        T = AffineMap(A, rng.normal(size=3))
        assert T.roundtrip_defect() < 1e-10
        x = rng.normal(size=3)
        assert np.allclose(T.apply_inverse(T.apply(x)), x, atol=1e-10)

    def test_singular_map_rejected(self):
        with pytest.raises(DomainError):
            AffineMap(np.zeros((2, 2)), np.zeros(2))
