"""malab: a desk-scale numerical laboratory for Monge-Ampere equations with
exponential drift and the Hessian-metric geometry of convex graphs."""

from .domains import (AffineMap, Ball, Box, ConvexDomain, Ellipsoid, Polytope,
                      centered_mvee, normalize_domain)
from .grids import Grid, GridFunction, check_convex, sample_oracle
from .legendre import (LegendrePair, involution_residual, legendre_grid,
                       legendre_point)
from .oracles import (DriftCoefficients, DualLog, ExpSolution, FieldOracle,
                      Quadratic, catalog, normalize_at, pde_residual)
from .solver import SolverConfig, SolverReport, newton_solve, residual_field
from .geometry import (GeometrySample, calabi_laplacian, geometry_sample,
                       structure_residuals)
from .checks import (BarrierConstants, CheckReport, det_barrier_probe,
                     identity_suite, phi_barrier_ladder, phi_inequality_check,
                     section_functionals)
from .blowup import BlowupReport, SectionData, extract_section, run_blowup

__version__ = "0.1.0"
