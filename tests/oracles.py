"""Independent oracles for closed forms in the package.

``minimize_convex`` is a projected-subgradient solver for the closed-form
hindsight decisions.  It knows a loss only through value and subgradient
calls, so it shares no arithmetic with ``doco.domains.best_in_hindsight``.

``per_row_csv`` is a trace's CSV text written a row at a time, the
reference for the column-wise ``to_csv``.

``lad_regularized_optimum`` is a per-coordinate candidate search for the
ridge-regularized least-absolute-deviation optimum.  It scores every point
where the minimizer can sit, so it shares no arithmetic with the median
formula ``doco.environments.LadProblem`` uses.

``dftcl_round`` is one Dftcl round taken a transfer at a time through the
engine's sender banks, the reference for the engine's span hop.
``randk_keep_by_argpartition`` and ``signs_by_integers`` are the randk
keep-mask and sign draws written the direct way, the references for the
faster draws that give the same bytes.
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


def lad_regularized_optimum(shards, lo, hi, mu: float) -> tuple[np.ndarray, float]:
    """Minimizer x and value f over the box [lo, hi] of
    mean_j ||x - a_j||_1 + (mu/2)||x - c||^2, for the points a_j of the
    (n, samples, d) ``shards``, mu > 0 and c the box midpoint.

    The search runs one coordinate at a time.  In each coordinate the
    objective's derivative is piecewise linear and increasing, so the
    minimizer is a stationary point inside one of the sorted-data gaps, a
    data point, or a box edge.  Every such candidate is scored, 256 at a
    time, and the first of the lowest is returned.
    """
    a = shards.reshape(-1, shards.shape[-1])
    N, d = a.shape
    center = (lo + hi) / 2.0
    x = np.empty(d)
    for j in range(d):
        vals, c, lo_j, hi_j = np.sort(a[:, j]), float(center[j]), float(lo[j]), float(hi[j])
        candidates = [lo_j, hi_j]
        candidates.extend(float(v) for v in vals)
        for k in range(N + 1):
            z = c - (2.0 * k - N) / (N * mu)
            left = vals[k - 1] if k > 0 else -np.inf
            right = vals[k] if k < N else np.inf
            if left <= z <= right:
                candidates.append(float(z))
        cand = np.clip(np.array(candidates), lo_j, hi_j)
        phi = np.empty(cand.shape[0])
        for start in range(0, cand.shape[0], 256):
            rows = cand[start : start + 256]
            phi[start : start + 256] = np.abs(rows[:, None] - vals[None, :]).mean(axis=1) + 0.5 * mu * (rows - c) ** 2
        x[j] = cand[int(np.argmin(phi))]
    return x, float(np.abs(x - shards).sum(axis=2).mean()) + 0.5 * mu * float(((x - center) ** 2).sum())


def per_row_csv(trace) -> str:
    """The CSV text of a ``doco.harness`` trace, one f-string per row: the
    round as an int, each real as the repr of its float, and each bit count
    taken to float and written as an int when it is integral."""

    def real(x) -> str:
        return repr(float(x))

    def count(x) -> str:
        v = float(x)
        return str(int(v)) if v.is_integer() else repr(v)

    lines = [trace.header()]
    for i in range(trace.t.shape[0]):
        row = (
            f"{int(trace.t[i])},{real(trace.cum_loss[i])},{real(trace.comparator[i])},"
            f"{real(trace.regret[i])},{count(trace.bits_up[i])},{count(trace.bits_down[i])}"
        )
        if trace.subopt is not None:
            row += f",{real(trace.subopt[i])}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def dftcl_round(eng, grads: np.ndarray):
    """Advance the Dftcl engine ``eng`` one round, a transfer at a time: the
    learners send e + g through ``eng._up.send`` and keep ``e += g - v``,
    the server sends e_hat + vbar through ``eng._down.send`` and keeps
    ``e_hat += vbar - s``, and the decision is the leader step on s_sum.
    Returns (decision played, v, s)."""
    w_played = eng.decision
    eng.t += 1
    v, bits = eng._up.send(eng.e + grads)
    eng.e += grads - v
    eng.bits_up += bits[-1]
    eng.msgs_up += eng.n
    vbar = np.add.reduce(v, -2) / eng.n
    s, bits = eng._down.send((eng.e_hat + vbar)[..., None, :])
    s = s[..., 0, :]
    eng.e_hat += vbar - s
    eng.bits_down += bits[-1]
    eng.msgs_down += 1
    eng.s_sum += s
    if eng.mu is None:
        eng.decision = eng.feasible.project(-(eng.eta / 2.0) * eng.s_sum)
    else:
        eng.anchor_sum += w_played
        eng.decision = eng.feasible.project((eng.mu * eng.anchor_sum - eng.s_sum) / (eng.mu * float(eng.t)))
    return w_played, v, s


def randk_keep_by_argpartition(U: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k entries ``argpartition`` puts first along the last axis of U."""
    mask = np.zeros(U.shape, dtype=bool)
    np.put_along_axis(mask, np.argpartition(U, k, axis=-1)[..., :k], True, axis=-1)
    return mask


def signs_by_integers(rng: np.random.Generator, shape: tuple, scale: float) -> np.ndarray:
    """Coordinates uniform on {-scale, +scale}: (2 * integers(0, 2) - 1) * scale."""
    return (2.0 * rng.integers(0, 2, size=shape, dtype=np.int32) - 1.0) * scale
