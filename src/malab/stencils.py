"""The one table of centered finite differences, applied by gather to grid
node arrays only.

`TABLE` holds every difference the package takes: d_i, d_ii and the mixed
d_ij. Each is a list of arms, an integer node offset with an integer
coefficient, over a spacing denominator. Third derivatives on a grid are
first differences of the Hessian field's components (`grids.third_field`),
so they need no entry of their own. `GridStencil` applies the arms to node
arrays of one grid shape. All differences are second order. Closed-form
oracles are never differenced: they carry exact derivatives up to fourth order.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

REACH = 2  # d_i of d_ii, the widest chain, reaches two nodes along its axis

# kind -> (arms as (steps along i, steps along j, coefficient), denominator
# from the steps h_i, h_j)
TABLE = {
    "i": (((1, 0, 1), (-1, 0, -1)), lambda hi, hj: 2.0 * hi),
    "ii": (((1, 0, 1), (0, 0, -2), (-1, 0, 1)), lambda hi, hj: hi * hj),
    "ij": (((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)), lambda hi, hj: 4.0 * hi * hj),
}


@functools.lru_cache(maxsize=None)
def difference(axes, n):
    """Arms and denominator of the centered difference along `axes` in n
    dimensions: (i,) is d_i, (i, i) d_ii and (i, j) d_ij.
    Returns ((offset tuple, coefficient), ...) and den(h) for per-axis
    steps h."""
    i, j = axes[0], axes[-1]
    kind = "i" if len(axes) == 1 else "ii" if i == j else "ij"
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

