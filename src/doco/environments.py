"""Loss oracles: online adversaries, hard communication-limited sequences, and
a stochastic least-absolute-deviation problem.

Online environments expose per-round, per-learner subgradients ``grads(t, w)``
(t is 1-based), batched mean-loss evaluation along a decision path, and a
description of the summed loss for computing the best fixed decision in
hindsight.  All randomness is frozen at construction from ``seed``, so an
environment is a deterministic function of (seed, round, learner).

The two "lower bound" environments keep each learner's loss constant on
intervals of length ceil(1/delta) and redraw it at interval boundaries; with a
probabilistic-failure compressor of success rate delta this forces any
synchronized algorithm to act on stale information for an interval at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import BlackBoxLoss, Box, ConfigError, FeasibleSet

__all__ = [
    "make_linear_adversary",
    "make_sc_quadratic_adversary",
    "make_convex_lower_bound_env",
    "make_sc_lower_bound_env",
    "make_lad_problem",
    "LinearAdversary",
    "QuadraticAdversary",
    "IntervalLinearEnv",
    "IntervalQuadraticEnv",
    "LadProblem",
    "interval_boundaries",
]


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise ConfigError(name, f"must be positive, got {value}")


class LinearAdversary:
    """f_i^t(w) = <g_i^t, w> with coordinates of g_i^t uniform on {-G/sqrt(d), +G/sqrt(d)}.

    Every gradient has norm exactly G; gradients are decision-independent.
    """

    mu = 0.0

    def __init__(self, n: int, d: int, T: int, G: float, seed: int):
        _check_positive(n=n, d=d, T=T, G=G)
        self.n, self.d, self.T, self.G = n, d, T, float(G)
        self.feasible = None
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(T, n, d)).astype(np.float64) * 2.0 - 1.0
        self._g = signs * (G / math.sqrt(d))
        self._gbar = self._g.mean(axis=1)

    def grads(self, t: int, w: np.ndarray) -> np.ndarray:
        return self._g[t - 1]

    def mean_loss_path(self, W: np.ndarray) -> np.ndarray:
        return np.einsum("td,td->t", self._gbar, W)

    def mean_loss_curve(self, w: np.ndarray) -> np.ndarray:
        return self._gbar @ w

    def hindsight(self):
        return self._gbar.sum(axis=0)


class QuadraticAdversary:
    """f_i^t(w) = (mu/2) ||w - b_i^t||^2 with b_i^t uniform in the feasible box.

    Gradients are mu (w - b_i^t); with box diameter D and b, w both in the box
    the gradient norm is at most mu * D, which must not exceed G.  The bound is
    enforced at construction rather than by clipping, preserving curvature.
    """

    def __init__(self, n: int, d: int, T: int, mu: float, G: float, D: float, seed: int):
        _check_positive(n=n, d=d, T=T, mu=mu, G=G, D=D)
        if mu * D > G + 1e-12:
            raise ConfigError("mu", f"mu*D = {mu * D} exceeds the gradient bound G = {G}")
        half = D / (2.0 * math.sqrt(d))
        self.n, self.d, self.T = n, d, T
        self.mu, self.G, self.D = float(mu), float(G), float(D)
        self.feasible = Box(-half * np.ones(d), half * np.ones(d))
        rng = np.random.default_rng(seed)
        self._b = rng.uniform(-half, half, size=(T, n, d))
        self._bbar = self._b.mean(axis=1)
        self._bsq = (self._b**2).sum(axis=2).mean(axis=1)

    def grads(self, t: int, w: np.ndarray) -> np.ndarray:
        return self.mu * (w - self._b[t - 1])

    def mean_loss_path(self, W: np.ndarray) -> np.ndarray:
        wsq = (W**2).sum(axis=1)
        cross = np.einsum("td,td->t", self._bbar, W)
        return 0.5 * self.mu * (wsq - 2.0 * cross + self._bsq)

    def mean_loss_curve(self, w: np.ndarray) -> np.ndarray:
        wsq = float(w @ w)
        return 0.5 * self.mu * (wsq - 2.0 * (self._bbar @ w) + self._bsq)

    def hindsight(self) -> BlackBoxLoss:
        T, mu = self.T, self.mu
        bmean = self._bbar.mean(axis=0)
        const = float(self._bsq.sum())

        def value(w):
            return 0.5 * mu * (T * float(w @ w) - 2.0 * T * float(bmean @ w) + const)

        def subgrad(w):
            return mu * T * (w - bmean)

        return BlackBoxLoss(value, subgrad, mu=mu * T)


def interval_boundaries(T: int, delta: float) -> np.ndarray:
    """Round -> interval index for the frozen-loss schedule.

    Intervals have length K = ceil(1/delta); the final interval absorbs the
    remaining Z = floor((T-1)/K) tail so that every round is covered.
    """
    K = math.ceil(1.0 / delta)
    Z = (T - 1) // K
    idx = np.minimum(np.arange(T) // K, Z)
    return idx.astype(np.int64)


class IntervalLinearEnv:
    """Half the learners see zero loss; the rest see <z_i, w> frozen per interval.

    The coordinates of z_i are +-G/sqrt(d) with probability 1/2, redrawn once
    per interval; the feasible set is the box [-D/(2 sqrt(d)), D/(2 sqrt(d))]^d.
    """

    mu = 0.0

    def __init__(self, n: int, d: int, T: int, G: float, D: float, delta: float, seed: int):
        _check_positive(n=n, d=d, T=T, G=G, D=D)
        if not (0.0 < delta <= 1.0):
            raise ConfigError("delta", f"must be in (0, 1], got {delta}")
        if T < (1.0 - delta) / delta:
            raise ConfigError("T", f"must be at least (1-delta)/delta = {(1 - delta) / delta:.3f}")
        half = D / (2.0 * math.sqrt(d))
        self.n, self.d, self.T = n, d, T
        self.G, self.D, self.delta = float(G), float(D), float(delta)
        self.m = n // 2
        self.feasible = Box(-half * np.ones(d), half * np.ones(d))
        self._idx = interval_boundaries(T, delta)
        rng = np.random.default_rng(seed)
        n_intervals = int(self._idx[-1]) + 1
        signs = rng.integers(0, 2, size=(n_intervals, d)).astype(np.float64) * 2.0 - 1.0
        self._z = signs * (G / math.sqrt(d))
        self._frac = (n - self.m) / n

    def grads(self, t: int, w: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, self.d))
        out[self.m :] = self._z[self._idx[t - 1]]
        return out

    def _zbar_rows(self) -> np.ndarray:
        return self._frac * self._z[self._idx]

    def mean_loss_path(self, W: np.ndarray) -> np.ndarray:
        return np.einsum("td,td->t", self._zbar_rows(), W)

    def mean_loss_curve(self, w: np.ndarray) -> np.ndarray:
        return self._zbar_rows() @ w

    def hindsight(self):
        lengths = np.bincount(self._idx).astype(np.float64)
        return self._frac * (lengths[:, None] * self._z).sum(axis=0)


class IntervalQuadraticEnv:
    """Strongly convex frozen-interval sequence on the box [0, D/sqrt(d)]^d.

    Learners 1..m see (mu/2)||w||^2; the rest see (mu/2)||w - (D/sqrt(d)) z_i||^2
    where z_i is the all-ones vector with probability p and zero otherwise,
    redrawn once per interval.  Gradient norms are at most mu * D.
    """

    def __init__(
        self,
        n: int,
        d: int,
        T: int,
        mu: float,
        D: float,
        delta: float,
        p: float,
        seed: int,
    ):
        _check_positive(n=n, d=d, T=T, mu=mu, D=D)
        if not (0.0 <= p <= 1.0):
            raise ConfigError("p", f"must be in [0, 1], got {p}")
        if not (0.0 < delta <= 1.0):
            raise ConfigError("delta", f"must be in (0, 1], got {delta}")
        if T < (16.0 + delta) / delta:
            raise ConfigError("T", f"must be at least (16+delta)/delta = {(16 + delta) / delta:.3f}")
        side = D / math.sqrt(d)
        self.n, self.d, self.T = n, d, T
        self.mu, self.D, self.delta, self.p = float(mu), float(D), float(delta), float(p)
        self.G = float(mu * D)
        self.m = n // 2
        self.feasible = Box(np.zeros(d), side * np.ones(d))
        self._idx = interval_boundaries(T, delta)
        rng = np.random.default_rng(seed)
        n_intervals = int(self._idx[-1]) + 1
        ones = (rng.random(n_intervals) < p).astype(np.float64)
        # anchors[i] has one row per learner: zero rows, then side * z_i rows.
        self._anchors = np.zeros((n_intervals, n, d))
        self._anchors[:, self.m :, :] = (side * ones)[:, None, None]

    def grads(self, t: int, w: np.ndarray) -> np.ndarray:
        return self.mu * (w - self._anchors[self._idx[t - 1]])

    def _per_round_terms(self) -> tuple[np.ndarray, np.ndarray]:
        abar = self._anchors.mean(axis=1)[self._idx]
        asq = (self._anchors**2).sum(axis=2).mean(axis=1)[self._idx]
        return abar, asq

    def mean_loss_path(self, W: np.ndarray) -> np.ndarray:
        abar, asq = self._per_round_terms()
        wsq = (W**2).sum(axis=1)
        return 0.5 * self.mu * (wsq - 2.0 * np.einsum("td,td->t", abar, W) + asq)

    def mean_loss_curve(self, w: np.ndarray) -> np.ndarray:
        abar, asq = self._per_round_terms()
        return 0.5 * self.mu * (float(w @ w) - 2.0 * (abar @ w) + asq)

    def hindsight(self) -> BlackBoxLoss:
        abar, asq = self._per_round_terms()
        T, mu = self.T, self.mu
        amean = abar.mean(axis=0)
        const = float(asq.sum())

        def value(w):
            return 0.5 * mu * (T * float(w @ w) - 2.0 * T * float(amean @ w) + const)

        def subgrad(w):
            return mu * T * (w - amean)

        return BlackBoxLoss(value, subgrad, mu=mu * T)


class LadProblem:
    """Least absolute deviation over sharded data, optionally ridge-regularized.

    Learner i holds samples a_{i,1..s} drawn uniformly in the feasible box and
    suffers f_i(x) = mean_j ||x - a_{i,j}||_1 (+ (mu/2)||x - c||^2 when mu > 0,
    with c the box midpoint).  The stochastic oracle returns the subgradient
    sign(x - a) at one uniformly drawn sample, which is unbiased for f_i.  The
    global optimum is exact: the coordinate-wise median of all n*s points
    clipped to the box, or the per-coordinate root of the piecewise-linear
    derivative in the regularized case.
    """

    def __init__(
        self,
        n: int,
        d: int,
        samples_per_learner: int,
        feasible: FeasibleSet,
        seed: int,
        mu: float = 0.0,
    ):
        _check_positive(n=n, d=d, samples_per_learner=samples_per_learner)
        self._check_domain(d, feasible, mu)
        rng = np.random.default_rng(seed)
        self._set_data(rng.uniform(feasible.lo, feasible.hi, size=(n, samples_per_learner, d)), feasible, mu)

    @classmethod
    def from_data(cls, data, feasible: FeasibleSet, mu: float = 0.0) -> "LadProblem":
        """Build a problem around given shards, shape (n, samples, d)."""
        a = np.asarray(data, dtype=np.float64)
        if a.ndim != 3:
            raise ConfigError("data", f"expected (n, samples, d) shards, got shape {a.shape}")
        n, samples, d = a.shape
        _check_positive(n=n, d=d, samples_per_learner=samples)
        cls._check_domain(d, feasible, mu)
        problem = cls.__new__(cls)
        problem._set_data(a, feasible, mu)
        return problem

    @staticmethod
    def _check_domain(d: int, feasible: FeasibleSet, mu: float) -> None:
        if not isinstance(feasible, Box):
            raise ConfigError("set", "least-absolute-deviation data needs a box domain")
        if feasible.d != d:
            raise ConfigError("set", f"dimension mismatch: box is {feasible.d}-d, expected {d}")
        if mu < 0:
            raise ConfigError("mu", f"must be >= 0, got {mu}")

    def _set_data(self, a: np.ndarray, feasible: Box, mu: float) -> None:
        """Hold the shards ``a``, shape (n, samples, d), and solve for the exact optimum."""
        self.n, self.samples, self.d = a.shape
        self.feasible = feasible
        self.mu = float(mu)
        self.center = (feasible.lo + feasible.hi) / 2.0
        self._a = a
        self.G = math.sqrt(self.d) + self.mu * (feasible.diameter() / 2.0)
        self._optimum = self._solve_exact()

    # -- oracles ---------------------------------------------------------

    def stochastic_grads(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One sign(x - a) subgradient per learner at a uniformly drawn sample."""
        j = rng.integers(self.samples, size=self.n)
        picked = self._a[np.arange(self.n), j]
        g = np.sign(x - picked)
        if self.mu > 0:
            g = g + self.mu * (x - self.center)
        return g

    def full_subgrad(self, i: int, x: np.ndarray) -> np.ndarray:
        """Exact (full-shard) subgradient of f_i at x."""
        g = np.sign(x - self._a[i]).mean(axis=0)
        if self.mu > 0:
            g = g + self.mu * (x - self.center)
        return g

    def value(self, x: np.ndarray) -> float:
        v = float(np.abs(x - self._a).sum(axis=2).mean())
        if self.mu > 0:
            v += 0.5 * self.mu * float(((x - self.center) ** 2).sum())
        return v

    def value_path(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        flat = self._a.reshape(-1, self.d)
        for start in range(0, X.shape[0], 256):
            chunk = X[start : start + 256]
            out[start : start + 256] = (
                np.abs(chunk[:, None, :] - flat[None, :, :]).sum(axis=2).mean(axis=1)
            )
        if self.mu > 0:
            out += 0.5 * self.mu * ((X - self.center) ** 2).sum(axis=1)
        return out

    def blackbox(self) -> BlackBoxLoss:
        """Full-batch oracle view of f, for solver cross-checks."""

        def subgrad(x):
            g = np.sign(x[None, None, :] - self._a).mean(axis=(0, 1))
            if self.mu > 0:
                g = g + self.mu * (x - self.center)
            return g

        return BlackBoxLoss(self.value, subgrad, mu=self.mu)

    # -- exact optimum ----------------------------------------------------

    def optimum(self) -> tuple[np.ndarray, float]:
        return self._optimum

    def _solve_exact(self) -> tuple[np.ndarray, float]:
        flat = self._a.reshape(-1, self.d)
        if self.mu == 0.0:
            x = np.clip(np.median(flat, axis=0), self.feasible.lo, self.feasible.hi)
            return x, self.value(x)
        x = np.empty(self.d)
        N = flat.shape[0]
        for j in range(self.d):
            x[j] = self._solve_coordinate(
                np.sort(flat[:, j]),
                N,
                float(self.center[j]),
                float(self.feasible.lo[j]),
                float(self.feasible.hi[j]),
            )
        return x, self.value(x)

    def _solve_coordinate(self, vals, N, c, lo, hi) -> float:
        # phi(x) = mean |x - a| + (mu/2)(x - c)^2; its derivative is piecewise
        # linear and increasing, so the minimizer is either a stationary point
        # inside one of the sorted-data gaps, a data point, or a box edge.
        candidates = [lo, hi]
        candidates.extend(float(v) for v in vals)
        for k in range(N + 1):
            x = c - (2.0 * k - N) / (N * self.mu)
            left = vals[k - 1] if k > 0 else -np.inf
            right = vals[k] if k < N else np.inf
            if left <= x <= right:
                candidates.append(float(x))
        cand = np.clip(np.array(candidates), lo, hi)
        phi = np.abs(cand[:, None] - vals[None, :]).mean(axis=1) + 0.5 * self.mu * (cand - c) ** 2
        return float(cand[int(np.argmin(phi))])


def make_linear_adversary(n: int, d: int, T: int, G: float, seed: int) -> LinearAdversary:
    return LinearAdversary(n, d, T, G, seed)


def make_sc_quadratic_adversary(
    n: int, d: int, T: int, mu: float, G: float, D: float, seed: int
) -> QuadraticAdversary:
    return QuadraticAdversary(n, d, T, mu, G, D, seed)


def make_convex_lower_bound_env(
    n: int, d: int, T: int, G: float, D: float, delta: float, seed: int
) -> IntervalLinearEnv:
    return IntervalLinearEnv(n, d, T, G, D, delta, seed)


def make_sc_lower_bound_env(
    n: int, d: int, T: int, mu: float, D: float, delta: float, p: float, seed: int
) -> IntervalQuadraticEnv:
    return IntervalQuadraticEnv(n, d, T, mu, D, delta, p, seed)


def make_lad_problem(
    n: int,
    d: int,
    samples_per_learner: int,
    feasible: FeasibleSet,
    seed: int,
    mu: float = 0.0,
) -> LadProblem:
    return LadProblem(n, d, samples_per_learner, feasible, seed, mu=mu)
