"""Masked rectangular grids and finite-difference derivative fields.

Nodes are classified outside / boundary / interior against a convex domain.
Interior nodes keep a full two-node margin of in-domain neighbors, so every
arm of the one difference table, `stencils.TABLE`, and the first difference
of a Hessian component (a third derivative) fit without one-sided formulas;
boundary nodes carry prescribed values and are never differentiated.

Derivative fields apply that table through the grid's `GridStencil` on whole
arrays, with NaN standing for "unavailable", which lets chained differences
track their own validity.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .domains import Box, domain_from_json
from .errors import DomainError, Report, StencilError
from .oracles import DUAL, PRIMAL
from .stencils import REACH, GridStencil

OUTSIDE, BOUNDARY, INTERIOR = 0, 1, 2
MASK_MARGIN = REACH  # in-domain neighbors required around an interior node


@dataclass(frozen=True)
class Grid:
    lo: np.ndarray
    hi: np.ndarray
    shape: tuple
    spacing: np.ndarray
    mask: np.ndarray
    domain: object
    coords: tuple

    @staticmethod
    def build(domain, resolution):
        """Grid over the domain's bounding box with `resolution` nodes per axis."""
        lo, hi = domain.bounding_box()
        n = len(lo)
        if np.isscalar(resolution):
            resolution = (int(resolution),) * n
        shape = tuple(int(r) for r in resolution)
        if len(shape) != n:
            raise DomainError("resolution needs one entry per axis", shape=shape, dim=n)
        if any(r < 2 * MASK_MARGIN + 1 for r in shape):
            raise DomainError("resolution too small for the stencil margin", shape=shape)
        coords = tuple(np.linspace(lo[i], hi[i], shape[i]) for i in range(n))
        spacing = np.array([(hi[i] - lo[i]) / (shape[i] - 1) for i in range(n)])
        pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
        inside = domain.contains(pts.reshape(-1, n)).reshape(shape)
        erode = GridStencil(shape, spacing)
        padded = erode.pad(inside, False)
        interior = inside.copy()
        for off in itertools.product(range(-MASK_MARGIN, MASK_MARGIN + 1), repeat=n):
            interior &= erode.arm(padded, off)
        mask = np.where(interior, INTERIOR, np.where(inside, BOUNDARY, OUTSIDE)).astype(np.int8)
        if not interior.any():
            raise DomainError("grid resolves no interior nodes", shape=shape)
        return Grid(np.asarray(lo, float), np.asarray(hi, float), shape, spacing, mask,
                    domain, coords)

    @cached_property
    def stencil(self):
        """The difference table applied to this grid's node arrays."""
        return GridStencil(self.shape, self.spacing, self.mask == INTERIOR)

    @property
    def dim(self):
        return len(self.shape)

    def points(self):
        return np.stack(np.meshgrid(*self.coords, indexing="ij"), axis=-1)

    def point(self, node):
        return np.array([self.coords[i][node[i]] for i in range(self.dim)])

    @cached_property
    def interior_points(self):
        return self.points()[self.mask == INTERIOR]

    def interior_nodes(self):
        return np.argwhere(self.mask == INTERIOR)

    def boundary_nodes(self):
        return np.argwhere(self.mask == BOUNDARY)

    def nearest_node(self, x):
        x = np.asarray(x, dtype=float)
        return tuple(int(np.clip(round((x[i] - self.lo[i]) / self.spacing[i]), 0,
                                 self.shape[i] - 1)) for i in range(self.dim))

    def meta_json(self):
        return {
            "bounds": {"lo": self.lo.tolist(), "hi": self.hi.tolist()},
            "resolution": list(self.shape),
            "spacing": self.spacing.tolist(),
            "mask_margin": MASK_MARGIN,
            "domain": self.domain.to_json(),
        }


def gradient_field(values, grid):
    return grid.stencil.gradient(grid.stencil.pad(values))


def hessian_field(values, grid):
    return grid.stencil.hessian(grid.stencil.pad(values))


def third_field(values, grid):
    """Fully symmetric third-derivative tensor field: for i <= j <= k, a first
    difference of a Hessian component along the axis the triple holds once
    (d_k d_ii, d_i d_kk, d_i d_jk), so on a uniform grid these are the width-5
    pure difference and the narrow composed mixed ones, all O(h^2)."""
    st = grid.stencil
    H = st.hessian(st.pad(values))
    T = np.empty(H.shape + (grid.dim,))
    for i, j, k in itertools.combinations_with_replacement(range(grid.dim), 3):
        a, b, c = (i, j, k) if i == j else (j, k, i)
        d = st.diff(st.pad(H[..., a, b]), (c,))
        for p in set(itertools.permutations((i, j, k))):
            T[(...,) + p] = d
    return T


class GridFunction:
    """Samples of a potential on its `side` over a masked grid; NaN at outside
    nodes. Immutable after construction; derivative fields are cached lazily."""

    def __init__(self, grid, values, side=DUAL):
        if side not in (PRIMAL, DUAL):
            raise DomainError("a grid potential's side is 'primal' or 'dual'", side=side)
        self.side = side
        self._setup(grid, values, grid.mask != OUTSIDE, "in-domain")

    @classmethod
    def on_interior(cls, grid, values):
        """A field defined on interior nodes only, such as a PDE residual:
        finite there, NaN on boundary and outside nodes; it has no side."""
        fu = cls.__new__(cls)
        fu._setup(grid, values, grid.mask == INTERIOR, "interior")
        return fu

    def _setup(self, grid, values, live, where):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise DomainError("values shape does not match grid", shape=values.shape)
        bad = ~np.isfinite(values) & live
        if bad.any():
            node = tuple(int(v) for v in np.argwhere(bad)[0])
            raise DomainError(f"non-finite value on an {where} node", node=node)
        self.grid = grid
        self.values = np.where(live, values, np.nan)
        self.values.setflags(write=False)
        self._cache = {}

    @property
    def n(self):
        return self.grid.dim

    def field(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def _interior_only(self, arr):
        arr[self.grid.mask != INTERIOR] = np.nan  # boundary nodes are never differentiated
        return arr

    def gradient_field(self):
        return self.field("grad", lambda: self._interior_only(
            gradient_field(self.values, self.grid)))

    def hessian_field(self):
        return self.field("hess", lambda: self._interior_only(
            hessian_field(self.values, self.grid)))

    def third_field(self):
        return self.field("third", lambda: self._interior_only(
            third_field(self.values, self.grid)))

    def _take(self, arr, node, what):
        node = tuple(node)
        if self.grid.mask[node] != INTERIOR:
            raise StencilError(f"{what} needs an interior node", node=[int(i) for i in node])
        out = arr[node]
        if not np.all(np.isfinite(out)):
            raise StencilError(f"stencil for {what} does not fit", node=[int(i) for i in node])
        return out

    def gradient(self, node):
        return self._take(self.gradient_field(), node, "gradient")

    def hessian(self, node):
        return self._take(self.hessian_field(), node, "hessian")

    def third(self, node):
        return self._take(self.third_field(), node, "third derivative")

    def value(self, node):
        return float(self.values[tuple(node)])


def sample_oracle(oracle, grid):
    """GridFunction with the oracle's exact values at in-domain nodes."""
    pts = grid.points()
    inside_dom = grid.mask != OUTSIDE
    ok = oracle.contains(pts.reshape(-1, grid.dim)).reshape(grid.shape)
    bad = inside_dom & ~ok
    if bad.any():
        node = tuple(int(v) for v in np.argwhere(bad)[0])
        raise DomainError("grid node escapes the oracle domain",
                          node=list(node), point=grid.point(node).tolist())
    vals = np.full(grid.shape, np.nan)
    vals[inside_dom] = oracle.value(pts[inside_dom])
    return GridFunction(grid, vals, oracle.side)


def all_finite(a, axes):
    """np.isfinite(a).all() over the last `axes` axes, ANDed entry by entry:
    numpy reduces a short trailing axis one row at a time, 5-20x slower."""
    fin = np.isfinite(a)
    ok = np.ones(fin.shape[:fin.ndim - axes], dtype=bool)
    for k in np.ndindex(fin.shape[fin.ndim - axes:]):
        ok &= fin[(...,) + k]
    return ok


def rows_where(a, keep):
    """a[keep] for a mask `keep` of a's leading axes, by np.compress, which copies
    whole rows: boolean indexing copies a short row item by item, 5-8x slower."""
    return np.compress(keep.ravel(), a.reshape((keep.size,) + a.shape[keep.ndim:]), axis=0)


@dataclass(frozen=True)
class ConvexityReport(Report):
    min_eigenvalue: float
    worst_node: tuple
    convex: bool
    checked_nodes: int


def check_convex(fu):
    """Minimum FD-Hessian eigenvalue over interior nodes (reports, never throws)."""
    H = fu.hessian_field()
    interior = fu.grid.mask == INTERIOR
    flat = H[interior]
    good = all_finite(flat, 2)
    eigs = np.full(len(flat), np.nan)
    if good.any():
        eigs[good] = np.linalg.eigvalsh(flat[good]).min(axis=-1)
    k = int(np.nanargmin(eigs))
    worst = tuple(int(v) for v in np.argwhere(interior)[k])
    mn = float(eigs[k])
    return ConvexityReport(mn, worst, mn > 0.0, int(good.sum()))


# ---------------------------------------------------------------------------
# CSV + sidecar JSON round trip


def atomic_write(path, text):
    """Write `text` verbatim to `path` through a uniquely named temp file in
    the target directory, renamed over `path` once complete: a reader sees the
    old file or the whole new one, and concurrent runs into one directory
    never share a temp file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # mkstemp's 0600 -> open()'s mode
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def csv_text(header, table, eol="\r\n"):
    """CSV text of a header and a float table, each value to 17 significant
    digits."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * table.shape[1]) + eol
    return ",".join(header) + eol + (row * len(table)) % tuple(table.ravel().tolist())


def write_gridfunction(fu, csv_path, meta_path):
    """In-domain nodes as CSV rows `x1,...,xn,value`, and the grid metadata and
    the potential's side as sidecar JSON; each file is written atomically."""
    grid = fu.grid
    live = grid.mask != OUTSIDE
    nodes = np.nonzero(live)
    # the bytes of csv_text, with each axis's coordinates formatted once
    cols = [np.array(["%.17g" % c for c in grid.coords[i]], dtype=object)[nodes[i]]
            for i in range(grid.dim)]
    table = np.column_stack(cols + [np.array(fu.values[live].tolist(), dtype=object)])
    header = ",".join([f"x{i+1}" for i in range(grid.dim)] + ["value"]) + "\r\n"
    row = ",".join(["%s"] * grid.dim + ["%.17g"]) + "\r\n"
    atomic_write(csv_path, header + (row * len(table)) % tuple(table.ravel().tolist()))
    meta = {**grid.meta_json(), "side": fu.side}
    atomic_write(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_gridfunction(csv_path, meta_path):
    with open(meta_path) as fh:
        meta = json.load(fh)
    domain = domain_from_json(meta["domain"])
    grid = Grid.build(domain, tuple(meta["resolution"]))
    layout = lambda m: np.hstack([m["bounds"]["lo"], m["bounds"]["hi"], m["spacing"],
                                  m["mask_margin"]])
    got, want = layout(meta), layout(grid.meta_json())
    if got.shape != want.shape or np.abs(got - want).max() > 1e-9:
        raise DomainError("sidecar bounds, spacing or mask margin do not match the grid")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != grid.dim + 1:
        raise DomainError("CSV rows must hold a grid point and a value",
                          columns=int(data.shape[1]))
    pts = data[:, :-1]
    # snap every row to its nearest node; a non-finite point snaps anywhere
    # and then fails the finiteness check
    idx = np.clip(np.nan_to_num(np.rint((pts - grid.lo) / grid.spacing)),
                  0, np.array(grid.shape) - 1).astype(np.intp)
    nodes = np.column_stack([grid.coords[i][idx[:, i]] for i in range(grid.dim)])
    # row maxima taken column by column, as in all_finite
    err, size = (reduce(np.maximum, a.T) for a in (np.abs(nodes - pts), np.abs(pts)))
    on_grid = (err <= 1e-9 * (1 + size)) & np.isfinite(size)
    if not on_grid.all():
        raise DomainError("CSV point is not a grid node",
                          point=pts[np.argmin(on_grid)].tolist())
    flat = np.ravel_multi_index(tuple(idx.T), grid.shape)
    bad = grid.mask.ravel()[flat] == OUTSIDE
    bad[np.setdiff1d(np.arange(len(flat)), np.unique(flat, return_index=True)[1])] = True
    if bad.any():  # a node's second row, or a row at an outside node
        raise DomainError("CSV row repeats a node or lies outside the domain",
                          point=pts[np.argmax(bad)].tolist())
    vals = np.full(grid.shape, np.nan)
    vals.ravel()[flat] = data[:, -1]
    return GridFunction(grid, vals, meta.get("side"))


def box_grid(lo, hi, resolution):
    """Convenience: grid over a plain box domain."""
    return Grid.build(Box(lo, hi), resolution)
