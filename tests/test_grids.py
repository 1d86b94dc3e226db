import errno
import itertools
import json
import os

import numpy as np
import pytest

from malab.domains import AffineMap, Ball, Box, domain_from_json, halfspace_polytope
from malab.errors import DomainError, StencilError
from malab.grids import (BOUNDARY, INTERIOR, MASK_MARGIN, OUTSIDE, Grid, GridFunction, box_grid,
                         check_convex, read_gridfunction, sample_oracle, third_field,
                         write_gridfunction)
from malab.oracles import AffineImageOracle, DualLog, ExpSolution, Quadratic


def test_grid_spacing_consistency():
    g = box_grid([-1, 0], [1, 4], (21, 11))
    assert np.allclose(g.spacing, [0.1, 0.4], rtol=1e-12)
    assert g.shape == (21, 11)


def box_mask_reference(lo, hi, resolution):
    """A box grid's mask from the explicit test lo - tol <= x <= hi + tol and
    an erosion by the full (2 MASK_MARGIN + 1)^n neighborhood."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    axes = [np.linspace(lo[i], hi[i], r) for i, r in enumerate(resolution)]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    tol = 1e-12 * (np.maximum(np.abs(lo), np.abs(hi)) + 1.0)
    inside = np.all((x >= lo - tol) & (x <= hi + tol), axis=-1)
    m = MASK_MARGIN
    padded = np.pad(inside, m, constant_values=False)
    interior = inside.copy()
    for off in itertools.product(range(-m, m + 1), repeat=len(lo)):
        interior &= padded[tuple(slice(m + o, m + o + r) for o, r in zip(off, resolution))]
    return np.where(interior, INTERIOR, np.where(inside, BOUNDARY, OUTSIDE))


@pytest.mark.parametrize("lo, hi, resolution", [
    ([1, -1], [2, 1], (33, 65)), ([-1, -1], [1, 1], (33, 33)), ([-1, -1], [1, 1], (257, 257)),
    ([1, -1, -1], [2, 1, 1], (15, 15, 15)), ([2.1, -0.5, -0.5], [3.1, 0.5, 0.5], (15, 15, 15)),
])
def test_box_mask_matches_explicit_bounds(lo, hi, resolution):
    g = Grid.build(Box(lo, hi), resolution)
    assert np.array_equal(g.lo, lo) and np.array_equal(g.hi, hi)
    assert np.array_equal(g.mask, box_mask_reference(lo, hi, resolution))


@pytest.mark.parametrize("resolution", [(33,), (33, 33, 33)], ids=["short", "long"])
def test_resolution_needs_one_entry_per_axis(resolution):
    with pytest.raises(DomainError, match="one entry per axis"):
        Grid.build(Box([-1, -1], [1, 1]), resolution)


def test_mask_margin_on_ball():
    g = Grid.build(Ball(np.zeros(2), 1.0), 33)
    interior = np.argwhere(g.mask == INTERIOR)
    # every interior node keeps its full two-node cube in the domain
    for node in interior[:: max(1, len(interior) // 50)]:
        for off in ((2, 0), (-2, 0), (0, 2), (0, -2), (2, 2), (-2, -2)):
            nb = tuple(node + np.array(off))
            assert g.mask[nb] != 0


def test_sample_oracle_values():
    g = box_grid([-1, -1], [1, 1], 5)
    fu = sample_oracle(Quadratic.unit(2), g)
    assert fu.value((0, 0)) == pytest.approx(1.0)  # corner of [-1,1]^2
    fu = sample_oracle(ExpSolution(2), g)
    assert fu.value((2, 2)) == pytest.approx(1.0)  # e^0 + 0
    gd = box_grid([0.5, -1], [2, 1], (7, 5))
    fu = sample_oracle(DualLog(2), gd)
    node = gd.nearest_node([1.0, 0.0])
    assert fu.value(node) == pytest.approx(-1.0)


def test_sample_oracle_domain_violation():
    g = box_grid([-0.5, -1], [2, 1], (7, 5))  # crosses x1 = 0
    with pytest.raises(DomainError):
        sample_oracle(DualLog(2), g)


def test_quadratic_hessian_exact():
    g = box_grid([-1, -1], [1, 1], 17)
    A = np.array([[2.0, 0.7], [0.7, 1.5]])
    fu = sample_oracle(Quadratic(A), g)
    for node in ((8, 8), (5, 10), (2, 2)):
        assert np.abs(fu.hessian(node) - A).max() < 1e-10
        assert np.abs(fu.third(node)).max() < 1e-8


def test_linear_field_gradient_exact():
    g = box_grid([-1, -1], [1, 1], 9)
    pts = g.points()
    vals = 3.0 * pts[..., 0] - 2.0 * pts[..., 1] + 1.0
    fu = GridFunction(g, vals)
    assert np.allclose(fu.gradient((4, 4)), [3.0, -2.0], atol=1e-12)
    assert np.abs(fu.hessian((4, 4))).max() < 1e-12


def test_third_derivative_example():
    # f111 of exp(x1) at the origin with h = 1e-2
    g = box_grid([-0.05, -0.05], [0.05, 0.05], 11)
    fu = sample_oracle(ExpSolution(2), g)
    T = fu.third((5, 5))
    assert T[0, 0, 0] == pytest.approx(1.0, abs=1e-3)


def test_derivative_tensors_symmetric(rng):
    g = box_grid([-1, -1, -1], [1, 1, 1], 11)
    pts = g.points()
    vals = np.exp(0.3 * pts[..., 0] + 0.2 * pts[..., 1]) + pts[..., 2] ** 2 \
        + 0.1 * pts[..., 0] * pts[..., 1] * pts[..., 2]
    fu = GridFunction(g, vals)
    node = (5, 5, 5)
    H = fu.hessian(node)
    T = fu.third(node)
    assert np.abs(H - H.T).max() == 0.0
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.abs(T - np.transpose(T, perm)).max() == 0.0


def third_field_composed(values, grid):
    """The composed third field, kept as a reference: the width-5 pure
    difference (-1, 2, -2, 1) / (2 h^3) at offsets -2, -1, 1, 2 along the
    axis, and the mixed components as centered second differences of first
    differences, or first differences of first differences of first ones."""
    st, n = grid.stencil, grid.dim
    T = np.empty(values.shape + (n, n, n))
    padded = st.pad(values)
    firsts = [st.pad(st.diff(padded, (k,))) for k in range(n)]
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        if i == j == k:
            e = np.eye(n, dtype=int)[i]
            d = sum(c * st.arm(padded, tuple((a * e).tolist()))
                    for a, c in ((-2, -1), (-1, 2), (1, -2), (2, 1))) / (2.0 * grid.spacing[i] ** 3)
        elif i == j:
            d = st.diff(firsts[k], (i, i))
        elif j == k:
            d = st.diff(firsts[i], (j, j))
        else:
            d = st.diff(st.pad(st.diff(firsts[k], (j,))), (i,))
        for p in set(itertools.permutations((i, j, k))):
            T[(...,) + p] = d
    return T


def rotated(base, *angles):
    """base under a rotation by angles in the (0, 1), (1, 2), ... planes, so
    that every mixed third derivative is non-zero."""
    n = base.n
    R = np.eye(n)
    for p, t in enumerate(angles):
        G = np.eye(n)
        G[p:p + 2, p:p + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        R = G @ R
    return AffineImageOracle(base, AffineMap(R, np.zeros(n)))


@pytest.mark.parametrize("domain,oracle", [
    (Box([-1, -1], [1, 1]), ExpSolution(2)),
    (Ball(np.zeros(3), 1.0), ExpSolution(3)),
    (Ball(np.zeros(2), 1.0), Quadratic(np.array([[2.0, 0.7], [0.7, 1.5]]))),
    (Box([-1, -1], [1, 1]), rotated(ExpSolution(2), 0.6)),
    (Ball(np.zeros(3), 1.0), rotated(ExpSolution(3), 0.6, -0.4)),
], ids=["box2", "ball3", "ball2-quadratic", "box2-rotated", "ball3-rotated"])
def test_third_field_matches_composed_stencils(domain, oracle):
    """d_k of the Hessian field is the composed operator: on interior nodes
    the same NaN pattern and the same values up to rounding. The rotated
    fixtures have non-zero mixed third derivatives, where a first difference
    taken along an axis d_ij already differenced would read a wider stencil."""
    g = Grid.build(domain, 17)
    values = sample_oracle(oracle, g).values
    inner = g.mask == INTERIOR
    got, want = third_field(values, g)[inner], third_field_composed(values, g)[inner]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = np.isfinite(want)
    assert ok.any()
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * np.maximum(1.0, np.abs(want[ok])))


def test_stencil_node_sets_agree(rng):
    """The interior gather and the whole-grid view read the same arms, so the
    interior rows of the whole-grid fields match to the bit; an arm that
    leaves the grid reads the NaN fill."""
    g = Grid.build(Ball(np.zeros(3), 1.0), 15)
    st, inside = g.stencil, g.mask == INTERIOR
    v = st.pad(rng.standard_normal(g.shape))
    assert np.array_equal(st.gradient(v, interior=True), st.gradient(v)[inside])
    assert np.array_equal(st.hessian(v, interior=True), st.hessian(v)[inside])
    H = st.hessian(v)
    assert np.isnan(H[0, 7, 7, 0, 0]) and np.isfinite(H[0, 7, 7, 1, 1])


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("oracle,x0", [
    (ExpSolution(2), np.array([0.25, -0.125])),
    (DualLog(2), np.array([1.25, 0.375])),
])
def test_fd_consistency_order(oracle, x0, order):
    """Observed order >= 1.8 under h -> h/2 for every non-polynomial catalog
    fixture and derivative order."""
    exact = {1: oracle.gradient(x0), 2: oracle.hessian(x0),
             3: oracle.third(x0)}[order]
    errs = []
    for m in (8, 16):
        h = 1.0 / m
        g = box_grid(x0 - 4 * h, x0 + 4 * h, 9)
        fu = sample_oracle(oracle, g)
        got = {1: fu.gradient, 2: fu.hessian, 3: fu.third}[order]((4, 4))
        errs.append(np.abs(got - exact).max())
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_differentiate_rejects_boundary_node():
    g = box_grid([-1, -1], [1, 1], 9)
    fu = sample_oracle(Quadratic.unit(2), g)
    with pytest.raises(StencilError):
        fu.hessian((0, 4))
    with pytest.raises(StencilError):
        fu.third((1, 4))


def test_check_convex_examples():
    g = box_grid([-1, -1], [1, 1], 33)
    rep = check_convex(sample_oracle(Quadratic.unit(2), g))
    assert rep.convex and rep.min_eigenvalue == pytest.approx(1.0, abs=1e-10)

    pts = g.points()
    saddle = GridFunction(g, 0.5 * (pts[..., 0] ** 2 - pts[..., 1] ** 2))
    rep = check_convex(saddle)
    assert not rep.convex
    assert rep.min_eigenvalue == pytest.approx(-1.0, abs=1e-10)

    # smallest Hessian eigenvalue of exp(x1)+x2^2 on the window is e^{x1} at
    # the leftmost interior column x1 = -1 + 2h, up to the centered-stencil
    # bias e^{x1} h^2/12
    fu = sample_oracle(ExpSolution(2), g)
    rep = check_convex(fu)
    h = g.spacing[0]
    assert rep.convex
    assert rep.min_eigenvalue == pytest.approx(
        np.exp(-1 + 2 * h) * (1 + h**2 / 12), rel=1e-6)


def test_gridfunction_rejects_nonfinite():
    g = box_grid([-1, -1], [1, 1], 9)
    vals = np.zeros(g.shape)
    vals[4, 4] = np.inf
    with pytest.raises(DomainError):
        GridFunction(g, vals)


def test_csv_round_trip(tmp_path):
    g = Grid.build(Ball(np.zeros(2), 1.0), 17)
    fu = sample_oracle(Quadratic.unit(2), g)
    csv = tmp_path / "f.csv"
    meta = tmp_path / "f.meta.json"
    write_gridfunction(fu, csv, meta)
    back = read_gridfunction(csv, meta)
    assert back.grid.shape == g.shape
    both = np.isfinite(fu.values)
    assert np.array_equal(both, np.isfinite(back.values))
    assert np.allclose(fu.values[both], back.values[both], rtol=0, atol=0)


def test_csv_round_trip_bit_identical(tmp_path, rng):
    """Random values over sixteen decades read back bit for bit; outside
    nodes read back as NaN."""
    g = Grid.build(Ball(np.zeros(2), 1.0), 97)
    fu = GridFunction(g, rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-8, 8, g.shape))
    csv, meta = tmp_path / "f.csv", tmp_path / "f.meta.json"
    write_gridfunction(fu, csv, meta)
    back = read_gridfunction(csv, meta)
    assert np.array_equal(back.values, fu.values, equal_nan=True)
    assert np.array_equal(np.isnan(back.values), g.mask == OUTSIDE)


def test_csv_bytes_match_row_by_row_golden(tmp_path, rng):
    g = Grid.build(Ball(np.zeros(2), 1.0), 17)
    fu = GridFunction(g, rng.standard_normal(g.shape))
    write_gridfunction(fu, tmp_path / "f.csv", tmp_path / "f.meta.json")
    rows = ["x1,x2,value"]
    for node in np.argwhere(g.mask != OUTSIDE):
        node = tuple(node)
        rows.append(",".join(f"{v:.17g}" for v in [*g.point(node), fu.values[node]]))
    assert (tmp_path / "f.csv").read_bytes() == ("\r\n".join(rows) + "\r\n").encode()
    meta = json.dumps({**g.meta_json(), "side": "dual"}, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "f.meta.json").read_bytes() == meta.encode()


def test_csv_off_grid_point_rejected(tmp_path):
    g = Grid.build(Ball(np.zeros(2), 1.0), 17)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.meta.json"
    write_gridfunction(sample_oracle(Quadratic.unit(2), g), csv, meta)
    lines = csv.read_bytes().split(b"\r\n")
    x1, rest = lines[5].split(b",", 1)
    lines[5] = b"%.17g," % (float(x1) + g.spacing[0] / 3) + rest
    csv.write_bytes(b"\r\n".join(lines))
    with pytest.raises(DomainError, match="not a grid node"):
        read_gridfunction(csv, meta)


@pytest.mark.parametrize("x1", [b"inf", b"nan"])
def test_csv_non_finite_point_rejected(tmp_path, x1):
    """A row whose x1 is not finite raises: an infinite one snaps to the last
    node, and its infinite distance is no more than 1e-9 of its size."""
    g = Grid.build(Box([-1, -1], [1, 1]), 5)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.meta.json"
    write_gridfunction(sample_oracle(Quadratic.unit(2), g), csv, meta)
    lines = csv.read_bytes().split(b"\r\n")
    lines[-2] = x1 + b"," + lines[-2].split(b",", 1)[1]
    csv.write_bytes(b"\r\n".join(lines))
    with pytest.raises(DomainError, match="not a grid node"):
        read_gridfunction(csv, meta)


def _planted_row(tmp_path, node):
    """A written ball grid function plus one CSV row of value 123.0 at `node`."""
    g = Grid.build(Ball(np.zeros(2), 1.0), 17)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.meta.json"
    write_gridfunction(sample_oracle(ExpSolution(2), g), csv, meta)
    row = ",".join("%.17g" % v for v in [*g.point(node), 123.0])
    csv.write_bytes(csv.read_bytes() + row.encode() + b"\r\n")
    return g, csv, meta


def test_csv_repeated_node_rejected(tmp_path):
    """A node listed twice raises; the last row does not silently win."""
    g, csv, meta = _planted_row(tmp_path, (8, 8))
    with pytest.raises(DomainError, match="repeats a node"):
        read_gridfunction(csv, meta)


def test_csv_outside_node_rejected(tmp_path):
    """A row at an outside node raises instead of being dropped."""
    g, csv, meta = _planted_row(tmp_path, (0, 0))
    assert g.mask[0, 0] == OUTSIDE
    with pytest.raises(DomainError, match="outside the domain"):
        read_gridfunction(csv, meta)


@pytest.mark.parametrize("side", [None, "both"], ids=["missing", "unknown"])
def test_sidecar_side_is_required(tmp_path, side):
    """The sidecar names the potential's side; a read gives it back, and a
    sidecar without a known side raises."""
    g = Grid.build(Ball(np.zeros(2), 1.0), 17)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.meta.json"
    write_gridfunction(sample_oracle(ExpSolution(2), g), csv, meta)
    assert read_gridfunction(csv, meta).side == "primal"
    payload = json.loads(meta.read_text())
    if side is None:
        del payload["side"]
    else:
        payload["side"] = side
    meta.write_text(json.dumps(payload))
    with pytest.raises(DomainError):
        read_gridfunction(csv, meta)


@pytest.mark.parametrize("key, value", [("hi", [5.0, 5.0]), ("spacing", [9.0, 9.0]),
                                        ("mask_margin", 7)])
def test_sidecar_layout_must_match_grid(tmp_path, key, value):
    """Bounds, spacing and mask margin in the sidecar describe the grid that
    its domain and resolution rebuild; an edited one raises."""
    g = Grid.build(Ball(np.zeros(2), 1.0), 17)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.meta.json"
    write_gridfunction(sample_oracle(ExpSolution(2), g), csv, meta)
    payload = json.loads(meta.read_text())
    if key == "hi":
        payload["bounds"]["hi"] = value
    else:
        payload[key] = value
    meta.write_text(json.dumps(payload))
    with pytest.raises(DomainError, match="do not match the grid"):
        read_gridfunction(csv, meta)


@pytest.mark.parametrize("resolution", [[17], [17, 17, 17]], ids=["short", "long"])
def test_sidecar_resolution_length_must_match_domain(tmp_path, resolution):
    g = Grid.build(Ball(np.zeros(2), 1.0), 17)
    csv, meta = tmp_path / "f.csv", tmp_path / "f.meta.json"
    write_gridfunction(sample_oracle(ExpSolution(2), g), csv, meta)
    payload = json.loads(meta.read_text())
    payload["resolution"] = resolution
    meta.write_text(json.dumps(payload))
    with pytest.raises(DomainError, match="one entry per axis"):
        read_gridfunction(csv, meta)


def test_csv_round_trip_on_polytope(tmp_path, rng):
    """A grid on a hexagon reads back with the same mask and values; the
    sidecar's hull facets rebuild the same bounding box."""
    th = np.pi / 3 * np.arange(6) + 0.2
    hexagon = halfspace_polytope(np.stack([np.cos(th), np.sin(th)], axis=1),
                                 np.array([1.0, 0.8, 1.2, 1.0, 0.9, 1.1]))
    g = Grid.build(hexagon, 33)
    fu = GridFunction(g, rng.standard_normal(g.shape))
    csv, meta = tmp_path / "f.csv", tmp_path / "f.meta.json"
    write_gridfunction(fu, csv, meta)
    back = read_gridfunction(csv, meta)
    assert np.array_equal(back.grid.mask, g.mask)
    assert np.array_equal(back.values, fu.values, equal_nan=True)
    lo, hi = domain_from_json(json.loads(meta.read_text())["domain"]).bounding_box()
    assert np.abs(np.r_[lo - g.lo, hi - g.hi]).max() <= 1e-12


class _DiskFullAfterHalf:
    """File wrapper whose write stores half the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_write_failing_part_way_leaves_no_partial_file(tmp_path, monkeypatch):
    """A write that fails after storing half its text leaves no solution.csv
    and no temp file; a solution already there keeps its bytes."""
    g = Grid.build(Ball(np.zeros(2), 1.0), 17)
    fu = sample_oracle(Quadratic.unit(2), g)
    csv, meta = tmp_path / "solution.csv", tmp_path / "solution.meta.json"
    fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *a, **k: _DiskFullAfterHalf(fdopen(*a, **k)))
    with pytest.raises(OSError):
        write_gridfunction(fu, csv, meta)
    assert os.listdir(tmp_path) == []

    monkeypatch.undo()
    write_gridfunction(fu, csv, meta)
    before = csv.read_bytes()
    monkeypatch.setattr(os, "fdopen", lambda *a, **k: _DiskFullAfterHalf(fdopen(*a, **k)))
    with pytest.raises(OSError):
        write_gridfunction(GridFunction(g, 2.0 * fu.values), csv, meta)
    assert csv.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["solution.csv", "solution.meta.json"]
