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

from .checks import (BarrierConstants, barrier_functionals, extract_section,
                     require_normalized, section_probes, section_sample)
from .domains import direction_fan
from .errors import Report
from .geometry import phi_rule

NORMAL_DIRECTIONS = 64   # directions of the normal-mapping coverage check
COVERAGE_MARGIN = 1e-3   # a covered direction's probe sits this far below 1/2


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
    ladder = sorted(float(C) for C in ladder)
    phi_base = float(phi_rule(u, u.side)(p))

    sections = [extract_section(u, p, C) for C in ladder]
    probes = [section_probes(sec, probes_per_axis) for sec in sections]
    lattices = [(y, sec.normalized_potential.value(y)) for sec, y in zip(sections, probes)]
    samples = [section_sample(sec.normalized_potential, pts[vals < 1.0], vals[vals < 1.0])
               for sec, (pts, vals) in zip(sections, lattices)]
    params = BarrierConstants.fit(u.n, 1.0, samples)

    report = BlowupReport(base_point=p, phi_base=phi_base, params=params)
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
