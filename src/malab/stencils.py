"""Centered finite differences on callables, with optional Richardson step.

These operate on scalar functions of a point (analytic rules); the grid-array
variants live in `grids`. All stencils are second-order; one Richardson level
lifts them to fourth order on smooth inputs.
"""

from __future__ import annotations

import numpy as np


def _unit(n, i, h):
    e = np.zeros(n)
    e[i] = h
    return e


def central_first(fn, x, i, h):
    e = _unit(len(x), i, h)
    return (fn(x + e) - fn(x - e)) / (2.0 * h)


def central_second(fn, x, i, j, h):
    n = len(x)
    if i == j:
        e = _unit(n, i, h)
        return (fn(x + e) - 2.0 * fn(x) + fn(x - e)) / (h * h)
    ei, ej = _unit(n, i, h), _unit(n, j, h)
    return (fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)) / (4.0 * h * h)


def richardson(coarse, fine):
    """Combine D(h) and D(h/2) of an O(h^2) formula into an O(h^4) value."""
    return (4.0 * fine - coarse) / 3.0


def fd_gradient(fn, x, h, use_richardson=True):
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        d = central_first(fn, x, i, h)
        if use_richardson:
            d = richardson(d, central_first(fn, x, i, h / 2.0))
        out[i] = d
    return out


def fd_hessian(fn, x, h, use_richardson=True):
    n = len(x)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            d = central_second(fn, x, i, j, h)
            if use_richardson:
                d = richardson(d, central_second(fn, x, i, j, h / 2.0))
            out[i, j] = out[j, i] = d
    return out
