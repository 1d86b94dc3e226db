"""malab: a desk-scale numerical laboratory for Monge-Ampere equations with
exponential drift and the Hessian-metric geometry of convex graphs."""

from .domains import (AffineMap, Ball, Box, Ellipsoid, Polytope,
                      centered_mvee, halfspace_polytope, normalize_domain)
from .grids import Grid, GridFunction, check_convex, sample_oracle
from .legendre import LegendrePair, involution_residual, legendre_grid
from .oracles import (DriftCoefficients, DualLog, ExpSolution, FieldOracle,
                      Quadratic, catalog, normalize_at)
from .solver import SolverConfig, SolverReport, newton_solve, residual_field
from .geometry import (GeometrySample, calabi_laplacian, geometry_sample,
                       pde_residual, structure_residuals)
from .checks import (BarrierConstants, CheckReport, SectionData, det_barrier_probe,
                     extract_section, identity_suite, phi_barrier_ladder,
                     phi_inequality_check, section_functionals)
from .blowup import BlowupReport, run_blowup

__version__ = "0.1.0"
