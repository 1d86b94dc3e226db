import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

import malab.domains as domains
from malab.domains import (AffineMap, Ball, Box, Ellipsoid, Polytope, centered_mvee,
                           domain_from_json, direction_fan, halfspace_polytope,
                           normalize_domain)
from malab.errors import DomainError

from conftest import random_hull, random_polytope


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


def centroid_fan_loop(P):
    """Polytope centroid by a per-triangle (n=2) or per-tetrahedron (n=3)
    loop over the fan from the vertex mean: the reference that
    `Polytope.centroid`'s batched determinant replaced."""
    v = P.vertices()
    p = v.mean(axis=0)
    if P.dim == 2:
        v = v[np.argsort(np.arctan2(v[:, 1] - p[1], v[:, 0] - p[0]))]
        tot, acc = 0.0, np.zeros(2)
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            da, db = a - p, b - p
            area = 0.5 * abs(da[0] * db[1] - da[1] * db[0])
            tot += area
            acc += area * (a + b + p) / 3.0
        return acc / tot
    tot, acc = 0.0, np.zeros(3)
    for simplex in ConvexHull(v).simplices:
        a, b, c = v[simplex]
        vol = abs(np.linalg.det(np.stack([a - p, b - p, c - p]))) / 6.0
        tot += vol
        acc += vol * (a + b + c + p) / 4.0
    return acc / tot


def affine_image(P, S, t):
    """The polytope {S x + t : x in P}."""
    NB = P.normals @ np.linalg.inv(S)
    return halfspace_polytope(NB, P.offsets + NB @ t)


def image_support(T, domain, count):
    """Support function of T(domain) on a fan of `count` directions: the
    largest projection of the mapped vertices."""
    dirs = direction_fan(domain.dim, count)
    return (dirs @ T.apply(domain.vertices()).T).max(axis=1)


def assert_equivariant(P, S, t, tol):
    """MVEE(S P + t) is S MVEE(P) + t: center S c + t, shape S^-T M S^-1."""
    e = centered_mvee(P, tol=1e-11)
    e2 = centered_mvee(affine_image(P, S, t), tol=1e-11)
    Si = np.linalg.inv(S)
    want = Si.T @ e.shape @ Si
    scale = 1.0 + np.abs(S @ e.center + t).max()
    assert np.abs(e2.center - (S @ e.center + t)).max() <= tol * scale
    assert np.abs(e2.shape - want).max() <= tol * np.abs(want).max()


def john_defect(q, M):
    """Relative defect of John's conditions for {q^T M q <= 1} around the
    vertices q: nonnegative least-squares multipliers lam on the contact
    vertices (q^T M q >= 1 - 1e-6) should give M^-1 = sum lam_i q_i q_i^T and,
    by its trace against M, sum lam = n. Returns the larger relative miss."""
    n = len(M)
    contact = q[np.einsum("ki,ij,kj->k", q, M, q) >= 1.0 - 1e-6]
    r, k = np.triu_indices(n)
    Mi = np.linalg.inv(M)[r, k]
    lam, miss = nnls((contact[:, r] * contact[:, k]).T, Mi)
    return max(miss / np.linalg.norm(Mi), abs(lam.sum() - n) / n)


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
        for n in (2, 3):
            for _ in range(5):
                P = random_polytope(rng, n=n)
                S = rng.normal(size=(n, n))
                while abs(np.linalg.det(S)) < 0.3:
                    S = rng.normal(size=(n, n))
                assert_equivariant(P, S, rng.normal(size=n), 1e-8)

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
           entries=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
           shift=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    def test_affine_equivariance_property(self, seed, n, entries, shift):
        S = np.reshape(entries[:n * n], (n, n))
        assume(np.linalg.cond(S) < 100.0)
        P = random_polytope(np.random.default_rng(seed), n=n)
        assert_equivariant(P, S, np.array(shift[:n]), 1e-8)

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]), hull=st.booleans())
    def test_john_conditions(self, seed, n, hull):
        """The MVEE is optimal: it contains every vertex and touches one, and
        its contact vertices satisfy John's conditions. The same check fails
        on the shape moved by 1e-3 and rescaled to touch a vertex again."""
        rng = np.random.default_rng(seed)
        P = random_hull(rng, n=n) if hull else random_polytope(rng, n=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            e = centered_mvee(P, tol=1e-11)
        q = P.vertices() - e.center
        assert abs(e.quadratic(P.vertices()).max() - 1.0) <= 1e-12
        assert john_defect(q, e.shape) <= 1e-6
        tilt = np.diag(np.r_[1.0, np.zeros(n - 2), -1.0])
        moved = e.shape + 1e-3 * np.abs(e.shape).max() * tilt
        moved /= np.einsum("ki,ij,kj->k", q, moved, q).max()
        assert john_defect(q, moved) > 1e-6

    def test_box_3d_closed_form(self):
        # centered MVEE of a box with half-widths a_i: diag(1 / (3 a_i^2))
        lo, hi = np.array([-1.0, -0.5, 0.2]), np.array([3.0, 0.5, 0.7])
        e = centered_mvee(Box(lo, hi))
        want = np.diag(1.0 / (3.0 * (0.5 * (hi - lo)) ** 2))
        assert np.array_equal(e.center, 0.5 * (lo + hi))
        assert np.abs(e.shape - want).max() <= 1e-10 * np.abs(want).max()

    def test_regular_polygon_image(self, rng):
        # the near-ellipse case: a regular 128-gon inscribed in the unit
        # circle, mapped by S, has the image of that circle as its MVEE
        k = 128
        mid = 2.0 * np.pi * (np.arange(k) + 0.5) / k
        polygon = halfspace_polytope(np.stack([np.cos(mid), np.sin(mid)], axis=1),
                                     np.full(k, np.cos(np.pi / k)))
        S = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        e = centered_mvee(affine_image(polygon, S, np.zeros(2)))
        Si = np.linalg.inv(S)
        want = Si.T @ Si
        assert np.abs(e.center).max() <= 1e-12
        assert np.abs(e.shape - want).max() <= 1e-10 * np.abs(want).max()

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            centered_mvee(Ball(np.zeros(2), 1.0), tol=1e-2)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(DomainError):
            centered_mvee(Box([-1, -1e-8], [1, 1e-8]))
        # rotated and thinner: the vertex covariance is numerically singular
        c, s = np.cos(0.5), np.sin(0.5)
        normals = np.vstack([np.eye(2), -np.eye(2)]) @ np.array([[c, s], [-s, c]])
        with pytest.raises(DomainError):
            centered_mvee(halfspace_polytope(normals, np.array([1.0, 1e-11, 1.0, 1e-11])))


class TestNormalize:
    def test_ball_normalization_is_exact(self):
        T = normalize_domain(Ball(np.array([1.0, 2.0]), 3.0))
        assert np.abs(T.linear - np.eye(2) / 3.0).max() <= 1e-15
        assert np.allclose(T.apply([1.0, 2.0]), 0.0)

    def test_square_map(self):
        B = Box([-1, -1], [1, 1])
        T = normalize_domain(B, tol=1e-9)
        assert np.abs(T.linear - np.eye(2) / np.sqrt(2)).max() < 1e-8
        # image contains the inner ball of radius 2^{-3/2}
        assert image_support(T, B, 64).min() >= 2.0 ** (-1.5) * (1 - 1e-9)

    def test_thin_box_anisotropy(self):
        T = normalize_domain(Box([-10, -0.1], [10, 0.1]), tol=1e-9)
        sv = np.linalg.svd(T.linear, compute_uv=False)
        assert abs(sv[0] / sv[-1] - 100.0) < 1e-3

    def test_sandwich_on_random_polytopes(self, rng):
        for _ in range(20):
            P = random_polytope(rng)
            T = normalize_domain(P, tol=1e-10)
            assert np.linalg.norm(T.apply(P.vertices()), axis=1).max() <= 1.0 + 1e-6
            assert image_support(T, P, 256).min() >= 2.0 ** (-1.5) * (1 - 1e-6)

    def test_sandwich_3d(self, rng):
        for _ in range(3):
            P = random_polytope(rng, n=3, max_halfspaces=10)
            T = normalize_domain(P, tol=1e-9)
            assert np.linalg.norm(T.apply(P.vertices()), axis=1).max() <= 1.0 + 1e-6
            assert image_support(T, P, 512).min() >= 3.0 ** (-1.5) * (1 - 1e-6)

    def test_sandwich_on_random_hulls(self, rng):
        # B(0, n^-3/2) in T(P) in B(0, 1), with the outer sphere touched:
        # the inner ball from the facet offsets of the image's hull
        for n in (2, 3):
            for _ in range(30):
                P = random_hull(rng, n)
                v = normalize_domain(P).apply(P.vertices())
                assert abs(np.linalg.norm(v, axis=1).max() - 1.0) <= 1e-9
                assert -ConvexHull(v).equations[:, -1].max() >= n ** (-1.5)

    @pytest.mark.parametrize("factor, message", [(4.0, "escapes the unit ball"),
                                                 (1.0 / 16.0, "misses the inner ball")])
    def test_sandwich_check_can_fail(self, monkeypatch, rng, factor, message):
        # the MVEE shape times 4 makes the image twice too large; times 1/16,
        # four times too small
        mvee = domains.centered_mvee

        def scaled(domain, tol=1e-9):
            ell = mvee(domain, tol=tol)
            return Ellipsoid(ell.center, factor * ell.shape)

        monkeypatch.setattr(domains, "centered_mvee", scaled)
        for domain in (Box([-10, -0.1], [10, 0.1]), random_hull(rng, 3)):
            with pytest.raises(DomainError, match=message):
                normalize_domain(domain)


class TestSupportPoints:
    def test_batched_directions_match_single_calls(self, rng):
        domains = (Box([-1, -2], [3, 1]), Ball(np.array([0.3, -0.2]), 2.0),
                   Polytope(rng.normal(size=(20, 2))))
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
            halfspace_polytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_polytope_strip_rejected(self):
        # {|x1| <= 1, x2 <= 1}: finite inradius, unbounded below in x2
        with pytest.raises(DomainError, match="unbounded"):
            halfspace_polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                               np.array([1.0, 1.0, 1.0]))

    def test_polytope_in_one_dimension_rejected(self):
        with pytest.raises(DomainError):
            halfspace_polytope(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))

    def test_polytope_empty_rejected(self):
        with pytest.raises(DomainError):
            halfspace_polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                               np.array([-1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("points", [
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[0.0], [1.0], [2.0]],
    ], ids=["collinear", "too_few_points", "one_dimension"])
    def test_flat_point_cloud_rejected(self, points):
        with pytest.raises(DomainError):
            Polytope(points)

    def test_one_dimensional_box_rejected(self):
        with pytest.raises(DomainError, match="at least two dimensions"):
            Box([0.0], [1.0])

    def test_box_is_the_hull_of_its_corners(self):
        """A box keeps only its constructor, its midpoint centroid and its
        JSON; everything else is the polytope's."""
        assert not {"contains", "support_point", "vertices", "bounding_box",
                    "dim"} & set(vars(Box))
        B = Box([-1.0, 0.5], [2.0, 3.0])
        assert isinstance(B, Polytope) and B.dim == 2 and len(B.vertices()) == 4
        lo, hi = B.bounding_box()
        assert np.array_equal(lo, B.lo) and np.array_equal(hi, B.hi)
        assert np.array_equal(B.support_point(np.array([[1.0, -1.0], [-1.0, 1.0]])),
                              [[2.0, 0.5], [-1.0, 3.0]])

    @pytest.mark.parametrize("lo, hi", [([0, 0, 0], [1, 1, 1]),
                                        ([-1.0, -0.5, 0.2], [3.0, 0.5, 0.7])],
                             ids=["unit_cube", "box"])
    def test_3d_box_lists_each_face_once(self, lo, hi):
        """Qhull triangulates each square face into two simplices; the
        polytope keeps one row per face."""
        corners = Box(lo, hi).vertices()
        assert len(ConvexHull(corners).equations) == 12
        for P in (Box(lo, hi), Polytope(corners),
                  halfspace_polytope(np.vstack([np.eye(3), -np.eye(3)]),
                                     np.r_[hi, -np.asarray(lo, float)])):
            assert len(P.normals) == len(P.offsets) == 6
            assert np.array_equal(np.sort(np.abs(P.normals).argmax(axis=1)), [0, 0, 1, 1, 2, 2])

    def test_2d_hull_keeps_every_facet_row(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(4, 60)), 2))
            eq = ConvexHull(pts).equations
            P = Polytope(pts)
            assert np.array_equal(P.normals, eq[:, :-1])
            assert np.array_equal(P.offsets, -eq[:, -1])

    def test_polytope_centroid_matches_box(self):
        P = halfspace_polytope(np.vstack([np.eye(2), -np.eye(2)]), np.array([2.0, 1.0, 0.0, 1.0]))
        assert np.allclose(P.centroid(), [1.0, 0.0], atol=1e-12)

    def test_centroid_matches_fan_loop(self, rng):
        for n in (2, 3):
            for _ in range(20):
                P = random_polytope(rng, n=n)
                want = centroid_fan_loop(P)
                assert np.abs(P.centroid() - want).max() <= 1e-12 * np.abs(want).max()

    def test_centroid_3d_simplex(self):
        # simplex with vertices 0, e1, e2, e3: centroid = (1/4, 1/4, 1/4)
        normals = np.vstack([-np.eye(3), np.ones(3) / np.sqrt(3)])
        offsets = np.r_[0.0, 0.0, 0.0, 1.0 / np.sqrt(3)]
        P = halfspace_polytope(normals, offsets)
        assert np.allclose(P.centroid(), 0.25, atol=1e-12)

    def test_json_round_trip(self, rng):
        for dom in (Box([-1, 0], [2, 3]), Ball(np.array([1.0, -1.0]), 0.5),
                    random_polytope(rng)):
            back = domain_from_json(dom.to_json())
            assert type(back) is type(dom)
            assert back.to_json() == dom.to_json()
            pts = rng.uniform(-3, 3, size=(100, 2))
            assert np.array_equal(dom.contains(pts), back.contains(pts))

    def test_polytope_json_round_trip_is_byte_identical(self):
        """A halfspace polytope read back from its JSON writes the same bytes:
        each input row within 1e-12 of a hull face is kept as given, in order,
        not recomputed from the hull's vertices."""
        th = np.pi / 3 * np.arange(6) + 0.2
        hexagon = halfspace_polytope(np.stack([np.cos(th), np.sin(th)], axis=1),
                                     np.array([1.0, 0.8, 1.2, 1.0, 0.9, 1.1]))
        for P in (random_polytope(np.random.default_rng(0)), hexagon):
            text = json.dumps(P.to_json())
            assert json.dumps(domain_from_json(json.loads(text)).to_json()) == text


class TestEllipsoidAffine:
    def test_ellipsoid_requires_spd(self):
        with pytest.raises(DomainError):
            Ellipsoid(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_affine_roundtrip(self, rng):
        A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        T = AffineMap(A, rng.normal(size=3))
        assert np.abs(T.linear @ T.inv_linear - np.eye(3)).max() < 1e-10
        x = rng.normal(size=3)
        assert np.allclose(T.apply_inverse(T.apply(x)), x, atol=1e-10)

    def test_singular_map_rejected(self):
        with pytest.raises(DomainError):
            AffineMap(np.zeros((2, 2)), np.zeros(2))
