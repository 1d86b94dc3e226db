import numpy as np
import pytest

from malab.geometry import fd_step, grad_logrho_rule, phi_rule
from malab.oracles import DualLog, ExpSolution
from malab.stencils import fd_directional, fd_gradient, fd_hessian

RULES = {
    "expsolution3": (ExpSolution(3), lambda rng: rng.uniform(-1, 1, (7, 3))),
    "duallog2": (DualLog(2), lambda rng: np.c_[rng.uniform(0.5, 2, 7), rng.uniform(-1, 1, 7)]),
}


@pytest.mark.parametrize("use_richardson", [True, False])
@pytest.mark.parametrize("name", sorted(RULES))
def test_batch_equals_stacked_single_points(name, use_richardson, rng):
    """A batch of points with per-row steps and per-row bases gives, to the
    bit, the single-point results stacked."""
    oracle, draw = RULES[name]
    x = draw(rng)
    h = fd_step(oracle, x) * rng.uniform(0.5, 2.0, len(x))
    basis = np.linalg.inv(oracle.hessian(x))
    phi, glr = phi_rule(oracle, oracle.side), grad_logrho_rule(oracle, oracle.side)
    cases = [
        (fd_gradient(phi, x, h, use_richardson),
         [fd_gradient(phi, xk, hk, use_richardson) for xk, hk in zip(x, h)]),
        (fd_hessian(phi, x, h, use_richardson),
         [fd_hessian(phi, xk, hk, use_richardson) for xk, hk in zip(x, h)]),
        (fd_directional(glr, x, basis, h, use_richardson),
         [fd_directional(glr, xk, bk, hk, use_richardson) for xk, bk, hk in zip(x, basis, h)]),
    ]
    for batch, single in cases:
        assert batch.shape == (len(x),) + single[0].shape
        assert np.array_equal(batch, np.stack(single))
