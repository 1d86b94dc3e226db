"""The one table of centered finite differences, applied by gather on grid
node arrays and by point evaluation on callables.

`TABLE` holds every difference the package takes: d_i, d_ii, the mixed d_ij
and the width-5 pure d_iii. Each is a list of arms, an integer node offset
with an integer coefficient, over a spacing denominator. `GridStencil` applies
the arms to node arrays of one grid shape; `central` evaluates a callable at
x + h * offset, and `fd_directional`, `fd_gradient` and `fd_hessian` build on
it; they take a batch of points (..., n) with per-point steps (...). All
differences are second order; one Richardson level lifts the callable ones
to fourth order on smooth inputs.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

REACH = 2  # the widest arm (pure d_iii) reaches two nodes along its axis

# kind -> (arms as (steps along i, steps along j, coefficient), denominator
# from the steps h_i, h_j)
TABLE = {
    "i": (((1, 0, 1), (-1, 0, -1)), lambda hi, hj: 2.0 * hi),
    "ii": (((1, 0, 1), (0, 0, -2), (-1, 0, 1)), lambda hi, hj: hi * hj),
    "ij": (((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)), lambda hi, hj: 4.0 * hi * hj),
    "iii": (((-2, 0, -1), (-1, 0, 2), (1, 0, -2), (2, 0, 1)), lambda hi, hj: 2.0 * hi ** 3),
}


@functools.lru_cache(maxsize=None)
def difference(axes, n):
    """Arms and denominator of the centered difference along `axes` in n
    dimensions: (i,) is d_i, (i, i) d_ii, (i, j) d_ij and (i, i, i) d_iii.
    Returns ((offset tuple, coefficient), ...) and den(h) for per-axis
    steps h."""
    i, j = axes[0], axes[-1]
    kind = ("i", "ii" if i == j else "ij", "iii")[len(axes) - 1]
    steps, den = TABLE[kind]
    e = np.eye(n, dtype=int)
    arms = tuple((tuple((a * e[i] + b * e[j]).tolist()), c) for a, b, c in steps)
    return arms, lambda h: den(h[i], h[j])


class GridStencil:
    """The table applied to node arrays of one grid shape.

    Values are copied into an array padded by REACH nodes of fill (NaN for
    fields), so an arm that leaves the grid reads the fill, and chained
    differences keep their own validity. An arm reads the padded copy at its
    offset from every node (a view) or from the interior nodes (a gather
    through one cached flat index per arm).
    """

    def __init__(self, shape, spacing, interior=None):
        self.shape = tuple(shape)
        self.n = len(self.shape)
        self.spacing = spacing
        self._interior = None if interior is None else np.argwhere(interior) + REACH
        self._index = {}

    def pad(self, values, fill=np.nan):
        """Copy of node values inside a border of REACH nodes of `fill`."""
        out = np.full([s + 2 * REACH for s in self.shape], fill, dtype=values.dtype)
        out[(slice(REACH, -REACH),) * self.n] = values
        return out

    def arm(self, padded, offset, interior=False):
        if not interior:
            return padded[tuple(slice(REACH + o, REACH + o + s)
                                for o, s in zip(offset, self.shape))]
        if offset not in self._index:
            self._index[offset] = np.ravel_multi_index((self._interior + offset).T, padded.shape)
        return padded.reshape(-1)[self._index[offset]]

    def diff(self, padded, axes, interior=False):
        """The difference along `axes` of padded values, at every node or at
        the interior nodes; the arms are summed in table order."""
        arms, den = difference(axes, self.n)
        return functools.reduce(operator.add, (c * self.arm(padded, o, interior)
                                               for o, c in arms)) / den(self.spacing)

    def gradient(self, padded, interior=False):
        return np.stack([self.diff(padded, (i,), interior) for i in range(self.n)], axis=-1)

    def hessian(self, padded, interior=False):
        nodes = (len(self._interior),) if interior else self.shape
        H = np.empty(nodes + (self.n, self.n))
        for i in range(self.n):
            for j in range(i, self.n):
                H[..., i, j] = H[..., j, i] = self.diff(padded, (i, j), interior)
        return H


def central(fn, x, axes, h, basis=None):
    """The difference along `axes` of a callable at points x (..., n): the
    arms evaluated at x + h * offset @ basis, with per-point steps h (...)
    and bases (..., k, n) (the coordinate axes by default). Each arm is one
    call of fn on the whole batch."""
    x = np.asarray(x, dtype=float)
    basis = np.eye(x.shape[-1]) if basis is None else basis
    h = np.asarray(h, dtype=float)
    k = np.shape(basis)[-2]
    arms, den = difference(axes, k)
    total = functools.reduce(operator.add, (c * fn(x + h[..., None] * (np.asarray(o) @ basis))
                                            for o, c in arms))
    d = den((h,) * k)  # per point; broadcast over the value axes of fn
    return total / np.reshape(d, d.shape + (1,) * (np.ndim(total) - d.ndim))


def richardson(coarse, fine):
    """Combine D(h) and D(h/2) of an O(h^2) formula into an O(h^4) value."""
    return (4.0 * fine - coarse) / 3.0


def fd_directional(fn, x, directions, h):
    """Centered first differences of a scalar- or array-valued callable at
    points x (..., n) along each row of `directions` (k, n), or of a
    per-point basis (..., k, n); the k differences are stacked on the axis
    after the point axes. One Richardson level."""
    x = np.asarray(x, dtype=float)

    def level(step):
        return np.stack([central(fn, x, (0,), step, directions[..., j:j + 1, :])
                         for j in range(np.shape(directions)[-2])], axis=x.ndim - 1)

    return richardson(level(h), level(h / 2.0))


def fd_gradient(fn, x, h):
    return fd_directional(fn, x, np.eye(np.shape(x)[-1]), h)


def fd_hessian(fn, x, h):
    """Hessians (..., n, n) of a scalar callable at points x (..., n), with
    one Richardson level."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    out = np.empty(x.shape[:-1] + (n, n))
    for i in range(n):
        for j in range(i, n):
            out[..., i, j] = out[..., j, i] = richardson(central(fn, x, (i, j), h),
                                                         central(fn, x, (i, j), h / 2.0))
    return out
