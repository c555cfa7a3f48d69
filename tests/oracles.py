"""A projected-subgradient solver: an oracle for the closed-form hindsight decisions.

It knows a loss only through value and subgradient calls, so it shares no
arithmetic with ``doco.domains.best_in_hindsight``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class BlackBoxLoss:
    """Convex loss given by value/subgradient oracles; mu > 0 marks strong convexity."""

    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray], np.ndarray]
    mu: float = 0.0


def minimize_convex(
    feasible,
    loss: BlackBoxLoss,
    tol: float = 1e-6,
    max_iter: int = 50_000,
) -> tuple[np.ndarray, float]:
    """Projected subgradient descent on a black-box convex loss.

    Uses the 2/(mu (k+1)) schedule when the loss is strongly convex and a
    D/(||g|| sqrt(k)) schedule otherwise, tracking the best iterate.  Stops
    early once the best value stagnates below ``tol / 10`` per sweep.  The
    returned value is approximate: the target objective gap is ``tol``.
    """
    x = feasible.project(np.zeros(feasible.d))
    best_x, best_v = x, float(loss.value(x))
    diam = feasible.diameter()
    check, last_best = 200, best_v
    for k in range(1, max_iter + 1):
        g = np.asarray(loss.subgrad(x), dtype=np.float64)
        if loss.mu > 0:
            step = 2.0 / (loss.mu * (k + 1))
        else:
            gn = float(np.linalg.norm(g))
            if gn == 0.0:
                break
            step = diam / (gn * np.sqrt(k))
        x = feasible.project(x - step * g)
        v = float(loss.value(x))
        if v < best_v:
            best_x, best_v = x, v
        if k % check == 0:
            if last_best - best_v < tol / 10.0:
                break
            last_best = best_v
    return best_x, best_v
