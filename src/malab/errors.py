"""Exception hierarchy shared by all malab modules, and the one rule that
turns reports and error payloads into JSON.

Every error carries a payload that `jsonable` makes JSON-serializable, so
the CLI can emit it verbatim on stderr.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def jsonable(value):
    """The JSON form of a value: an object's own `to_json()`; arrays, numpy
    scalars and tuples as lists and Python scalars; lists and dicts item by
    item."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value


class Report:
    """A dataclass whose JSON form is its fields; fields declared
    `repr=False` are working data and are not serialized."""

    def to_json(self):
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self) if f.repr}


class MalabError(Exception):
    """Base class; `details` become JSON through `jsonable`."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json(self):
        return {
            "error": type(self).__name__,
            "message": self.message,
            "details": jsonable(self.details),
        }


class DomainError(MalabError):
    """Domain empty, unbounded or otherwise unusable."""


class ConvergenceError(MalabError):
    """An iteration cap was hit; details carry the final gap / history."""


class StencilError(MalabError):
    """A finite-difference stencil does not fit at the requested node."""


class ConvexityError(MalabError):
    """A Hessian that must be positive definite is not."""


class DegeneracyError(MalabError):
    """A pointwise quantity is singular (non-PD Hessian at a probe)."""


class ExtrapolationError(MalabError):
    """Dual nodes fall outside the sampled gradient hull."""


class WindowError(MalabError):
    """A sublevel section is not compactly contained in the window."""


class UnboundedSectionError(MalabError):
    """A level-set ray leaves the potential's domain before the level."""


class PreconditionError(MalabError):
    """An operation's stated precondition failed its gate check."""


class CounterexampleError(MalabError):
    """A probe violated a bound the theory guarantees on valid inputs."""


class UsageError(MalabError):
    """Bad configuration or command line; maps to exit code 2."""
