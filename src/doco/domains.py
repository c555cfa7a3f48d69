"""Feasible sets, Euclidean projection, and closed-form leader steps and hindsight decisions.

Every decision update in this package reduces to one identity: the minimizer
of ``<u, w> + (1/eta) ||w||^2`` over a convex set W is the Euclidean
projection of ``-(eta/2) u`` onto W, and the strongly convex variant with
quadratic anchor terms completes the square into the same shape.  Only
axis-aligned boxes and origin-centered balls are supported, which keeps both
projections closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "ConfigError",
    "Box",
    "Ball",
    "FeasibleSet",
    "as_decision",
    "project",
    "ftrl_linear_step",
    "ftrl_strongly_convex_step",
    "Quadratic",
    "Hindsight",
    "best_in_hindsight",
]


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending parameter."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):  # pickles through a process pool with both arguments
        return type(self), (self.field, self.message)


def _require_positive_int(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int, else a ConfigError naming ``name``: it must be an
    integer (not a bool) of at least ``minimum``."""
    if value is None:
        raise ConfigError(name, "required")
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(name, f"must be >= {minimum}, got {value}")
    return int(value)


def as_decision(x, d: int | None = None, field: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 vector, optionally of dimension d."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ConfigError(field, f"expected a 1-D vector, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ConfigError(field, f"dimension mismatch: expected {d}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ConfigError(field, "coordinates must be finite")
    return v


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {w : lo <= w <= hi}, required to contain the origin."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_decision(self.lo, field="lo")
        hi = as_decision(self.hi, d=lo.shape[0], field="hi")
        if np.any(lo > 0.0) or np.any(hi < 0.0):
            raise ConfigError("set", "box must contain the origin (lo <= 0 <= hi)")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self) -> int:
        return self.lo.shape[0]

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Project each row of x, shape (..., d)."""
        return np.clip(x, self.lo, self.hi)

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


@dataclass(frozen=True)
class Ball:
    """Origin-centered Euclidean ball {w : ||w|| <= radius} in dimension d."""

    radius: float
    d: int

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ConfigError("set", f"ball radius must be positive, got {self.radius}")
        _require_positive_int("set", self.d)

    def diameter(self) -> float:
        return 2.0 * self.radius

    def project(self, x: np.ndarray) -> np.ndarray:
        """Project each row of x, shape (..., d): rows inside stay, rows outside
        scale by radius / norm.  A row's squared norm is ``x.dot(x)``, which is
        also what ``np.linalg.norm`` computes; for stacked rows the self-matmul
        gives the same bits, where ``np.linalg.norm(x, axis=-1)`` or ``einsum``
        sum in another order."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            nrm = math.sqrt(x.dot(x))
            return x if nrm <= self.radius else (self.radius / nrm) * x
        nrm = np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])
        return (self.radius / np.maximum(nrm, self.radius))[..., None] * x

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        """Whether every row of x, shape (..., d), has norm at most radius + tol."""
        return all(np.linalg.norm(row) <= self.radius + tol for row in np.reshape(x, (-1, np.shape(x)[-1])))


FeasibleSet = Union[Box, Ball]


def project(feasible: FeasibleSet, x) -> np.ndarray:
    """Euclidean projection of x onto the set (unique closest point)."""
    v = as_decision(x, d=feasible.d, field="x")
    return feasible.project(v)


def ftrl_linear_step(feasible: FeasibleSet, u_cum, eta: float) -> np.ndarray:
    """argmin_{w in W} <u_cum, w> + (1/eta) ||w||^2  =  project(-(eta/2) u_cum)."""
    if not (np.isfinite(eta) and eta > 0):
        raise ConfigError("eta", f"must be positive, got {eta}")
    u = as_decision(u_cum, d=feasible.d, field="u_cum")
    return feasible.project(-(eta / 2.0) * u)


def ftrl_strongly_convex_step(
    feasible: FeasibleSet,
    s_cum,
    weighted_anchor_sum,
    mu: float,
    weight_total: float,
) -> np.ndarray:
    """Minimize <s_cum, w> + (mu/2) sum_k a_k ||w - anchor_k||^2 over W.

    ``weighted_anchor_sum`` is sum_k a_k anchor_k and ``weight_total`` is
    sum_k a_k; completing the square gives the unconstrained minimizer
    (mu * weighted_anchor_sum - s_cum) / (mu * weight_total), and because the
    quadratic is isotropic its projection is the constrained minimizer.
    """
    if not (np.isfinite(mu) and mu > 0):
        raise ConfigError("mu", f"must be positive, got {mu}")
    if not (np.isfinite(weight_total) and weight_total > 0):
        raise ConfigError("weight_total", f"must be positive, got {weight_total}")
    s = as_decision(s_cum, d=feasible.d, field="s_cum")
    a = as_decision(weighted_anchor_sum, d=feasible.d, field="weighted_anchor_sum")
    return feasible.project((mu * a - s) / (mu * weight_total))


class Quadratic(NamedTuple):
    """A summed loss (curvature/2) ||w - center||^2 + const, curvature > 0.

    Its minimizer over W is the projection of ``center``, by the identity in
    the module docstring; ``const`` only enters the minimum's value.
    """

    center: np.ndarray
    curvature: float
    const: float


class Hindsight(NamedTuple):
    point: np.ndarray
    value: float


def best_in_hindsight(feasible: FeasibleSet, loss) -> Hindsight:
    """Best fixed decision for summed losses, in closed form.

    ``loss`` is either the summed linear coefficient vector or a
    :class:`Quadratic`.
    """
    if isinstance(loss, Quadratic):
        w = feasible.project(loss.center)
        gap = w - loss.center
        return Hindsight(w, 0.5 * loss.curvature * float(gap @ gap) + loss.const)
    u = as_decision(loss, d=feasible.d, field="loss")
    if isinstance(feasible, Box):
        # Minimize <u, w>: pick lo where u > 0, hi where u < 0; ties take lo.
        w = np.where(u < 0.0, feasible.hi, feasible.lo)
        return Hindsight(w, float(u @ w))
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0:
        return Hindsight(np.zeros(feasible.d), 0.0)
    w = -(feasible.radius / nrm) * u
    return Hindsight(w, -feasible.radius * nrm)
