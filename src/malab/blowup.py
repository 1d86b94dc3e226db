"""Desk-scale blow-up sequences: section extraction, John normalization,
potential rescaling, and tracking of the invariant Phi and the barrier
functionals along a ladder of section heights.

For a convex potential u with minimum 0 at p, each ladder entry C_k yields
the section {u < C_k}, its centered-MVEE normalization T_k, and the
normalized potential w_k = (u/C_k) o T_k^{-1} with w_k = 1 on the image
boundary. The invariant Phi satisfies Phi_{w_k}(T_k p) = C_k Phi_u(p)
exactly, which is the quantity the ladder reports and tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .checks import (SECTION_RAYS, BarrierConstants, barrier_functionals,
                     require_normalized, section_sample, trace_ray)
from .domains import Polytope, direction_fan, normalize_domain
from .errors import PreconditionError, Report, UnboundedSectionError
from .geometry import phi_rule
from .oracles import AffineImageOracle

NORMAL_DIRECTIONS = 64   # directions of the normal-mapping coverage check
COVERAGE_MARGIN = 1e-3   # a covered direction's probe sits this far below 1/2


@dataclass
class SectionData(Report):
    p: np.ndarray
    C: float
    support_points: np.ndarray
    map: object                 # AffineMap sending the section MVEE to B(0,1)
    normalized_potential: object = field(repr=False)
    level_defect: float


def extract_section(u, p, C):
    """Boundary of {u < C} by ray bisection, plus its John normalization.

    Raises UnboundedSectionError when a ray leaves the oracle's domain
    before reaching the level.
    """
    p = require_normalized(u, p)
    dirs = direction_fan(u.n, SECTION_RAYS[u.n])
    pts, kinds = trace_ray(u, p, dirs, C, window=None, rel_tol=1e-9)
    if (kinds != "level").any():
        raise UnboundedSectionError(
            "section ray leaves the domain before the level",
            direction=dirs[np.argmax(kinds != "level")].tolist(), level=C)
    defect = float(np.abs(u.value(pts) - C).max())
    if defect > 1e-6 * max(C, 1e-12):
        raise PreconditionError("section boundary located too coarsely",
                                defect=defect)
    hull = ConvexHull(pts)
    poly = Polytope(hull.equations[:, :-1], -hull.equations[:, -1])
    T = normalize_domain(poly)
    w = AffineImageOracle(u, T, scale=C, name=f"{u.name}_section_{C:g}")
    return SectionData(p=p, C=float(C), support_points=pts, map=T,
                       normalized_potential=w, level_defect=defect)


@dataclass
class BlowupRecord(Report):
    C: float
    map: object
    phi_at_base: float
    phi_at_base_expected: float
    scaling_rel_error: float
    sup_phi_half: float
    sup_rho_half: float
    sup_rho_alpha_phi_half: float
    sup_rho_alpha_trace_half: float
    sup_weighted_phi: float
    sup_weighted_barrier: float
    sup_weighted_trace: float
    sup_gradient_ratio: float
    half_section_radius: float
    normal_map_radius: float
    normal_map_covered: int
    normal_map_directions: int
    # (points, values) of the normalized potential on the probe lattice, for
    # `blowup --set dump_fields=true`; not serialized
    probes: tuple = field(default=None, repr=False)


@dataclass
class BlowupReport(Report):
    base_point: np.ndarray
    phi_base: float
    params: BarrierConstants
    records: list = field(default_factory=list)


def _normalized_probes(w, probes_per_axis):
    """Probes of the unit-ball bounding box with w finite, as (pts, values)."""
    n = w.n
    axes = [np.linspace(-1.0, 1.0, probes_per_axis)] * n
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    keep = w.contains(pts)
    pts = pts[keep]
    vals = w.value(pts)
    return pts, vals


def _normal_map_coverage(pts, vals):
    """Check the gradient image of {w < 1/2} covers the sphere of radius
    1/(2R), where {w < 1/2} sits inside the ball of radius R/2 about 0."""
    half = vals < 0.5
    hpts, hvals = pts[half], vals[half]
    circ = float(np.linalg.norm(hpts, axis=1).max())
    R = 2.0 * circ
    r = 1.0 / (2.0 * R)
    dirs = direction_fan(pts.shape[1], NORMAL_DIRECTIONS)
    # the probe minimizing w - <x, r th> for each direction th (rows)
    k = np.argmin(hvals - (r * dirs) @ hpts.T, axis=1)
    return r, int((hvals[k] < 0.5 - COVERAGE_MARGIN).sum()), len(dirs), circ


def run_blowup(u, p, ladder, probes_per_axis=161):
    """Blow-up ladder: per level, the normalized potential's invariant Phi at
    the image of the base point (with the exact C_k * Phi(p) scaling law),
    suprema of the barrier functionals over the half-section, and the
    normal-mapping ball coverage."""
    p = require_normalized(u, p)
    n = u.n
    ladder = sorted(float(C) for C in ladder)
    phi_base = float(phi_rule(u, u.side)(np.asarray(p, dtype=float)))

    sections = [extract_section(u, p, C) for C in ladder]
    lattices = [_normalized_probes(sec.normalized_potential, probes_per_axis)
                for sec in sections]
    samples = [section_sample(sec.normalized_potential, pts[vals < 1.0], vals[vals < 1.0])
               for sec, (pts, vals) in zip(sections, lattices)]
    params = BarrierConstants.fit(n, 1.0, samples)

    report = BlowupReport(base_point=np.asarray(p, float), phi_base=phi_base,
                          params=params)
    a = params.alpha
    for sec, sample, lattice in zip(sections, samples, lattices):
        w = sec.normalized_potential
        q = sec.map.apply(p)
        phi_at_base = float(phi_rule(w, w.side)(q))
        expected = sec.C * phi_base
        rel = abs(phi_at_base - expected) / max(abs(expected), 1e-300) \
            if expected else abs(phi_at_base)

        rho, phis, trace = sample["rho"], sample["phi"], sample["trace"]
        weights = barrier_functionals(params, sample)
        half = sample["u"] < 0.5

        r_nm, covered, ndirs, circ = _normal_map_coverage(sample["points"], sample["u"])
        report.records.append(BlowupRecord(
            C=sec.C, map=sec.map,
            phi_at_base=phi_at_base, phi_at_base_expected=expected,
            scaling_rel_error=float(rel),
            sup_phi_half=float(phis[half].max()),
            sup_rho_half=float(rho[half].max()),
            sup_rho_alpha_phi_half=float((rho**a * phis)[half].max()),
            sup_rho_alpha_trace_half=float((rho**a * trace)[half].max()),
            sup_weighted_phi=float(weights["weighted_phi"][half].max()),
            sup_weighted_barrier=float(weights["weighted_barrier"][half].max()),
            sup_weighted_trace=float(weights["weighted_trace"][half].max()),
            sup_gradient_ratio=float(weights["gradient_ratio"].max()),
            half_section_radius=circ, normal_map_radius=r_nm,
            normal_map_covered=covered, normal_map_directions=ndirs,
            probes=lattice))
    return report
