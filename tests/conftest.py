import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and machine, with no
# per-example deadline (a loaded CI runner must not turn slowness into a
# failure) and a bounded example count
settings.register_profile("malab", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("malab")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_polytope(rng, n=2, max_halfspaces=12):
    """Bounded random polytope: random direction normals around a box core."""
    from malab.domains import halfspace_polytope

    m = int(rng.integers(n + 1, max_halfspaces + 1))
    normals = rng.normal(size=(m, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(0.4, 2.5, size=m)
    # cap every axis so the polytope is guaranteed bounded
    normals = np.vstack([normals, np.eye(n), -np.eye(n)])
    offsets = np.r_[offsets, rng.uniform(1.0, 3.0, 2 * n)]
    return halfspace_polytope(normals, offsets)


def random_hull(rng, n=2, max_points=40):
    """Polytope of the convex hull of a random Gaussian point cloud."""
    from malab.domains import Polytope

    return Polytope(rng.normal(size=(int(rng.integers(n + 2, max_points + 1)), n)))


def last_pivot(n):
    """A symmetric n x n matrix whose leading minors are positive up to the
    last one: only the last Cholesky pivot is negative."""
    H = np.eye(n) + 0.5 * (1.0 - np.eye(n))
    H[-1, -1] = -0.5
    return H


def fd_derivative(fn, x, directions=None, h=1e-3):
    """Centred first differences of fn at points x (..., n) along each row of
    `directions` ((k, n), or per point (..., k, n); the axes by default), with
    one Richardson level; the k differences form the last axis. The reference
    against which tests check exact derivatives."""
    x = np.asarray(x, dtype=float)
    dirs = np.eye(x.shape[-1]) if directions is None else np.asarray(directions, dtype=float)

    def level(s):
        return np.stack([(fn(x + s * dirs[..., j, :]) - fn(x - s * dirs[..., j, :])) / (2.0 * s)
                         for j in range(dirs.shape[-2])], axis=-1)

    return (4.0 * level(h / 2.0) - level(h)) / 3.0
