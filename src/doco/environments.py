"""Loss oracles: online adversaries, hard communication-limited sequences, and
a stochastic least-absolute-deviation problem.

Online environments expose per-round, per-learner subgradients ``grads(t, w)``
(t is 1-based), batched mean-loss evaluation along a decision path, and a
description of the summed loss for computing the best fixed decision in
hindsight.  Rounds are drawn in chunks of 256, in order, from one stream
seeded by ``seed``; asking for a chunk behind the stream's position re-seeds
it and redraws.  The numbers are those one draw of every round would give, so
an environment is a deterministic function of (seed, round, learner) in any
access order, and it holds one chunk of rounds instead of all T (the strongly
convex interval sequence also keeps its one coin per interval).  A chunk's
gradients are one read-only (rounds, n, d) table and one rule that turns a
table row and the decision into gradients.

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


_CHUNK = 256  # rounds an online environment draws and serves at a time


def _chunks(T: int):
    """(chunk, first round, stop) of the chunks of rounds 0..T-1, 0-based and in order."""
    return ((a // _CHUNK, a, min(a + _CHUNK, T)) for a in range(0, T, _CHUNK))


def _signs(rng: np.random.Generator, shape: tuple, scale: float) -> np.ndarray:
    """Coordinates uniform on {-scale, +scale}: (2 * integers(0, 2) - 1) * scale, in place.

    int32 output takes the same 32-bit draws, and gives the same values, as
    the default int64.
    """
    signs = rng.integers(0, 2, size=shape, dtype=np.int32).astype(np.float64)
    signs *= 2.0
    signs -= 1.0
    signs *= scale
    return signs


class _Rows:
    """Rows of a table drawn in order from one seeded stream, holding only the last rows served.

    ``draw(rng, k)`` draws the next k rows.  A request that starts before the
    held rows re-seeds the stream and redraws from row 0, so in any access
    order the rows are those one draw of the whole table gives.  ``draw``
    does not refer to the environment that holds the rows: that would put the
    environment, and its chunk tables, in a reference cycle that only the
    cycle collector frees.
    """

    def __init__(self, seed: int, draw):
        self.seed, self.draw = seed, draw
        self.rng, self.start, self.held = None, 0, None  # held: rows start, start + 1, ...

    def rows(self, i: int, j: int) -> np.ndarray:
        if self.rng is None or i < self.start:
            self.rng = np.random.default_rng(self.seed)
            self.start, self.held = 0, self.draw(self.rng, 0)
        stop = self.start + len(self.held)
        if j > stop:
            for k in range(stop, i, _CHUNK):  # skipped rows, a chunk at a time
                self.draw(self.rng, min(_CHUNK, i - k))
            new = self.draw(self.rng, j - max(i, stop))
            self.held = np.concatenate([self.held[i - self.start :], new]) if i < stop else new
            self.start = i
        return self.held[i - self.start : j - self.start]


class _ColumnSum:
    """``.sum(axis=0)`` of rows that arrive a chunk at a time, bit for bit.

    (rows, d) chunks are carried as ``np.add.reduce`` over the running sum
    stacked on the new rows.  numpy sums a 1-D array (or one column)
    pairwise, which no carry reproduces, so such rows are kept and summed at
    the end: they are per-round scalars.
    """

    def __init__(self):
        self.total, self.kept = None, []

    def add(self, rows: np.ndarray) -> None:
        if rows.ndim == 1 or rows.shape[1] == 1:
            self.kept.append(rows)
        elif len(rows):
            self.total = np.add.reduce(rows if self.total is None else np.vstack([self.total[None], rows]), axis=0)

    def result(self) -> np.ndarray:
        return np.concatenate(self.kept).sum(axis=0) if self.kept else self.total


class _Hindsight:
    """An environment's hindsight description, folded over its chunks in round order."""

    def __init__(self, env):
        self.env, self.sums = env, None

    def add(self, c: int) -> None:
        terms = self.env._hind_terms(c)
        self.sums = self.sums or [_ColumnSum() for _ in terms]
        for total, rows in zip(self.sums, terms):
            total.add(rows)

    def result(self):
        return self.env._hind_result(*(total.result() for total in self.sums))


class _Online:
    """Base of the online environments: rounds are served a chunk of
    ``_CHUNK`` at a time, and ``_load(a, b)`` sets up rounds a+1..b.

    ``_load`` sets ``_table``, the chunk's gradient data as one (n, d) row
    per round, which ``_hold`` makes read-only.  ``_gradient(rows, w)`` turns
    rows and decisions into gradients, with any leading axes: a (n, d) row at
    a (d,) decision, or a lockstep batch's (R, n, d) rows at its (R, d)
    decisions.  A run reads a chunk's table, mean-loss rows,
    comparator rows and hindsight terms (``_loss_rows``, ``_curve_rows``,
    ``_hind_terms``); the public methods are the same calls over every chunk.
    """

    _held = -1  # the chunk set up by the last _load

    def _hold(self, c: int) -> None:
        if c != self._held:
            a = c * _CHUNK
            self._load(a, min(a + _CHUNK, self.T))
            self._table.flags.writeable = False
            self._held = c

    def grads(self, t: int, w: np.ndarray) -> np.ndarray:
        c, i = divmod(t - 1, _CHUNK)
        if c != self._held:
            self._hold(c)
        return self._gradient(self._table[i], w)

    def mean_loss_path(self, W: np.ndarray) -> np.ndarray:
        return np.concatenate([self._loss_rows(c, W[a:b]) for c, a, b in _chunks(self.T)])

    def mean_loss_curve(self, w: np.ndarray) -> np.ndarray:
        return np.concatenate([self._curve_rows(c, w) for c, _, _ in _chunks(self.T)])

    def hindsight(self):
        fold = _Hindsight(self)
        for c, _, _ in _chunks(self.T):
            fold.add(c)
        return fold.result()


class _LinearLosses(_Online):
    """Mean loss <gbar_t, w>: a chunk holds its mean-gradient rows ``_gbar``,
    and the hindsight description is their sum."""

    mu = 0.0

    @staticmethod
    def _gradient(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        return rows

    def _loss_rows(self, c: int, W: np.ndarray) -> np.ndarray:
        self._hold(c)
        return np.einsum("td,td->t", self._gbar, W)

    def _curve_rows(self, c: int, w: np.ndarray) -> np.ndarray:
        self._hold(c)
        return self._gbar @ w

    def _hind_terms(self, c: int) -> tuple:
        self._hold(c)
        return (self._gbar,)

    def _hind_result(self, gbar_sum: np.ndarray) -> np.ndarray:
        return gbar_sum


class _QuadraticLosses(_Online):
    """Mean loss (mu/2)(||w||^2 - 2<cbar_t, w> + csq_t): a chunk holds the rows
    ``_cbar`` (mean anchor) and ``_csq`` (mean squared anchor norm); its
    table rows are the anchors."""

    def _gradient(self, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.mu * (w[..., None, :] - rows)

    def _loss_rows(self, c: int, W: np.ndarray) -> np.ndarray:
        self._hold(c)
        wsq = (W**2).sum(axis=1)
        return 0.5 * self.mu * (wsq - 2.0 * np.einsum("td,td->t", self._cbar, W) + self._csq)

    def _curve_rows(self, c: int, w: np.ndarray) -> np.ndarray:
        self._hold(c)
        return 0.5 * self.mu * (float(w @ w) - 2.0 * (self._cbar @ w) + self._csq)

    def _hind_terms(self, c: int) -> tuple:
        self._hold(c)
        return self._cbar, self._csq

    def _hind_result(self, cbar_sum: np.ndarray, csq_sum) -> BlackBoxLoss:
        T, mu = self.T, self.mu
        cmean = cbar_sum / T
        const = float(csq_sum)

        def value(w):
            return 0.5 * mu * (T * float(w @ w) - 2.0 * T * float(cmean @ w) + const)

        def subgrad(w):
            return mu * T * (w - cmean)

        return BlackBoxLoss(value, subgrad, mu=mu * T)


class LinearAdversary(_LinearLosses):
    """f_i^t(w) = <g_i^t, w> with coordinates of g_i^t uniform on {-G/sqrt(d), +G/sqrt(d)}.

    Every gradient has norm exactly G; gradients are decision-independent.
    """

    def __init__(self, n: int, d: int, T: int, G: float, seed: int):
        _check_positive(n=n, d=d, T=T, G=G)
        self.n, self.d, self.T, self.G = n, d, T, float(G)
        self.feasible = None
        scale = G / math.sqrt(d)
        self._rows = _Rows(seed, lambda rng, k: _signs(rng, (k, n, d), scale))

    def _load(self, a: int, b: int) -> None:
        self._table = self._rows.rows(a, b)
        self._gbar = self._table.mean(axis=1)


class QuadraticAdversary(_QuadraticLosses):
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
        self._rows = _Rows(seed, lambda rng, k: rng.uniform(-half, half, size=(k, n, d)))

    def _load(self, a: int, b: int) -> None:
        self._table = self._rows.rows(a, b)
        self._cbar = self._table.mean(axis=1)
        self._csq = (self._table**2).sum(axis=2).mean(axis=1)


def interval_boundaries(T: int, delta: float) -> np.ndarray:
    """Round -> interval index for the frozen-loss schedule.

    Intervals have length K = ceil(1/delta); the final interval absorbs the
    remaining Z = floor((T-1)/K) tail so that every round is covered.
    """
    K = math.ceil(1.0 / delta)
    return _interval_index(0, T, K, (T - 1) // K)


def _interval_index(a: int, b: int, K: int, Z: int) -> np.ndarray:
    """Interval index of the 0-based rounds a..b-1: intervals of K rounds, the last (Z) absorbing the tail."""
    return np.minimum(np.arange(a, b, dtype=np.int64) // K, Z)


class IntervalLinearEnv(_LinearLosses):
    """Half the learners see zero loss; the rest see <z_i, w> frozen per interval.

    The coordinates of z_i are +-G/sqrt(d) with probability 1/2, redrawn once
    per interval; the feasible set is the box [-D/(2 sqrt(d)), D/(2 sqrt(d))]^d.
    """

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
        self._K = math.ceil(1.0 / delta)
        self._Z = (T - 1) // self._K
        scale = G / math.sqrt(d)
        self._rows = _Rows(seed, lambda rng, k: _signs(rng, (k, d), scale))  # one row z_i per interval
        self._frac = (n - self.m) / n

    def _load(self, a: int, b: int) -> None:
        idx = _interval_index(a, b, self._K, self._Z)
        self._lo = int(idx[0])
        self._z = self._rows.rows(self._lo, int(idx[-1]) + 1)
        zr = self._z[idx - self._lo]
        self._gbar = self._frac * zr
        self._table = np.zeros((b - a, self.n, self.d))
        self._table[:, self.m :] = zr[:, None, :]

    def _hind_terms(self, c: int) -> tuple:
        # Each interval's term, length * z_i, joins the sum in the chunk where the interval starts.
        self._hold(c)
        a = c * _CHUNK
        first = min((a - 1) // self._K, self._Z) + 1 if a else 0
        ks = np.arange(first, self._lo + len(self._z))
        lengths = np.where(ks == self._Z, self.T - self._Z * self._K, self._K).astype(np.float64)
        return (lengths[:, None] * self._z[first - self._lo :],)

    def _hind_result(self, total: np.ndarray) -> np.ndarray:
        return self._frac * total


class IntervalQuadraticEnv(_QuadraticLosses):
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
        self._side = D / math.sqrt(d)
        self.n, self.d, self.T = n, d, T
        self.mu, self.D, self.delta, self.p = float(mu), float(D), float(delta), float(p)
        self.G = float(mu * D)
        self.m = n // 2
        self.feasible = Box(np.zeros(d), self._side * np.ones(d))
        self._K = math.ceil(1.0 / delta)
        self._Z = (T - 1) // self._K
        rng = np.random.default_rng(seed)
        self._ones = (rng.random(self._Z + 1) < p).astype(np.float64)  # z_i = 1 per interval

    def _load(self, a: int, b: int) -> None:
        idx = _interval_index(a, b, self._K, self._Z)
        lo, hi = int(idx[0]), int(idx[-1]) + 1
        # anchors[i] has one row per learner: zero rows, then side * z_i rows.
        anchors = np.zeros((hi - lo, self.n, self.d))
        anchors[:, self.m :, :] = (self._side * self._ones[lo:hi])[:, None, None]
        local = idx - lo
        self._table = anchors[local]
        self._cbar = anchors.mean(axis=1)[local]
        self._csq = (anchors**2).sum(axis=2).mean(axis=1)[local]


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
