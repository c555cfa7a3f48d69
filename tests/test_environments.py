import math

import numpy as np
import pytest

from doco.domains import Ball, Box, ConfigError, best_in_hindsight, minimize_convex
from doco.environments import (
    LadProblem,
    interval_boundaries,
    make_convex_lower_bound_env,
    make_lad_problem,
    make_linear_adversary,
    make_sc_lower_bound_env,
    make_sc_quadratic_adversary,
)


# ---------------------------------------------------------------------------
# Linear adversary
# ---------------------------------------------------------------------------


def test_linear_one_dim_gradients_are_signs():
    env = make_linear_adversary(3, 1, 50, 1.0, seed=0)
    for t in range(1, 51):
        g = env.grads(t, np.zeros(1))
        assert set(np.abs(g).ravel()) == {1.0}


def test_linear_same_seed_identical():
    a = make_linear_adversary(2, 4, 20, 1.0, seed=9)
    b = make_linear_adversary(2, 4, 20, 1.0, seed=9)
    for t in (1, 7, 20):
        np.testing.assert_array_equal(a.grads(t, np.zeros(4)), b.grads(t, np.zeros(4)))


def test_linear_gradient_norms_exact():
    env = make_linear_adversary(4, 4, 100, 1.0, seed=1)
    for t in range(1, 101):
        g = env.grads(t, np.zeros(4))
        np.testing.assert_allclose(np.linalg.norm(g, axis=1), np.ones(4))
        assert np.linalg.norm(g.mean(axis=0)) <= 1.0 + 1e-12


def test_linear_losses_and_hindsight_consistent():
    env = make_linear_adversary(3, 2, 10, 2.0, seed=4)
    W = np.random.default_rng(0).normal(size=(10, 2))
    path = env.mean_loss_path(W)
    manual = [float(env.grads(t, W[t - 1]).mean(axis=0) @ W[t - 1]) for t in range(1, 11)]
    np.testing.assert_allclose(path, manual)
    u = env.hindsight()
    manual_u = sum(env.grads(t, np.zeros(2)).mean(axis=0) for t in range(1, 11))
    np.testing.assert_allclose(u, manual_u)


# ---------------------------------------------------------------------------
# Quadratic adversary
# ---------------------------------------------------------------------------


def test_quadratic_gradient_definition():
    env = make_sc_quadratic_adversary(2, 1, 10, 1.0, 1.0, 1.0, seed=0)
    b = env._rows.rows(0, 1)[0]  # round 1's anchors, one row per learner
    np.testing.assert_allclose(env.grads(1, b[0])[0], [0.0])  # zero at the anchor
    g = env.grads(1, np.zeros(1))
    np.testing.assert_allclose(g, 1.0 * (np.zeros(1) - b))


def test_quadratic_rejects_unbounded_gradients():
    with pytest.raises(ConfigError, match="mu"):
        make_sc_quadratic_adversary(2, 4, 10, mu=1.0, G=1.0, D=2.0, seed=0)


def test_quadratic_gradient_bound_holds_all_rounds():
    env = make_sc_quadratic_adversary(4, 4, 200, mu=1.0, G=1.0, D=1.0, seed=3)
    rng = np.random.default_rng(1)
    for t in range(1, 201):
        w = env.feasible.project(rng.normal(size=4))
        g = env.grads(t, w)
        assert np.linalg.norm(g, axis=1).max() <= env.G + 1e-12
        assert np.linalg.norm(g.mean(axis=0)) <= env.G + 1e-12


def test_quadratic_round_average_minimizer_is_projected_mean():
    env = make_sc_quadratic_adversary(3, 2, 6, mu=1.0, G=1.0, D=1.0, seed=5)
    # Independent oracle: dense grid over the box on the summed mean loss,
    # evaluated round by round from the loss definition.
    pts = np.stack(
        np.meshgrid(
            np.linspace(env.feasible.lo[0], env.feasible.hi[0], 201),
            np.linspace(env.feasible.lo[1], env.feasible.hi[1], 201),
            indexing="ij",
        ),
        axis=-1,
    ).reshape(-1, 2)
    totals = np.zeros(pts.shape[0])
    for t in range(1, 7):
        diffs = pts[:, None, :] - env._rows.rows(t - 1, t)[0][None, :, :]
        totals += 0.5 * env.mu * (diffs**2).sum(axis=2).mean(axis=1)
    grid_best = pts[int(np.argmin(totals))]
    expected = env.feasible.project(env._rows.rows(0, 6).mean(axis=(0, 1)))
    np.testing.assert_allclose(grid_best, expected, atol=1e-2)
    # Hindsight black-box agrees with the grid values and descent finds the mean.
    bb = env.hindsight()
    assert bb.value(grid_best) == pytest.approx(totals.min(), rel=1e-10)
    point, _ = minimize_convex(env.feasible, bb, tol=1e-9)
    np.testing.assert_allclose(point, expected, atol=1e-6)


def test_quadratic_blackbox_matches_direct_sum():
    env = make_sc_quadratic_adversary(2, 3, 12, mu=0.5, G=1.0, D=1.5, seed=8)
    bb = env.hindsight()
    w = env.feasible.project(np.array([0.1, -0.05, 0.2]))
    direct = float(env.mean_loss_curve(w).sum())
    assert bb.value(w) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# Frozen-interval environments
# ---------------------------------------------------------------------------


def test_interval_structure_delta_one():
    idx = interval_boundaries(10, 1.0)
    np.testing.assert_array_equal(idx, np.arange(10))


def test_interval_tail_absorbed():
    idx = interval_boundaries(11, 0.25)  # K = 4, Z = floor(10/4) = 2
    assert idx.max() == 2
    np.testing.assert_array_equal(np.bincount(idx), [4, 4, 3])


def test_convex_lower_split_and_freeze():
    env = make_convex_lower_bound_env(2, 3, 64, 1.0, 2.0, 0.25, seed=0)
    assert env.m == 1
    g = env.grads(1, np.zeros(3))
    np.testing.assert_array_equal(g[0], np.zeros(3))
    assert np.abs(g[1]).min() > 0
    # Frozen within an interval (K = 4 here), redrawn only at boundaries.
    w = np.zeros(3)
    for t in (1, 2, 3):
        np.testing.assert_array_equal(env.grads(t, w), env.grads(t + 1, w))
    changed = any(
        not np.array_equal(env.grads(4 * i, w), env.grads(4 * i + 1, w)) for i in range(1, 15)
    )
    assert changed


def test_convex_lower_precondition_and_box():
    with pytest.raises(ConfigError, match="T"):
        make_convex_lower_bound_env(2, 2, 10, 1.0, 2.0, delta=1 / 32, seed=0)
    env = make_convex_lower_bound_env(2, 4, 256, 1.0, 2.0, 0.25, seed=0)
    assert isinstance(env.feasible, Box)
    np.testing.assert_allclose(env.feasible.hi, 2.0 / (2 * math.sqrt(4)))
    assert env.feasible.diameter() == pytest.approx(2.0)


def test_convex_lower_gradient_bound():
    env = make_convex_lower_bound_env(5, 4, 128, 1.0, 2.0, 0.25, seed=2)
    for t in range(1, 129):
        g = env.grads(t, np.zeros(4))
        assert np.linalg.norm(g, axis=1).max() <= env.G + 1e-12
        assert np.linalg.norm(g.mean(axis=0)) <= env.G + 1e-12


def test_convex_lower_expected_loss_of_fixed_point_is_zero():
    # Each interval's coefficient vector is symmetric, so any fixed decision
    # has expected loss 0; Monte Carlo over 10^4 fresh draws.
    w = np.array([0.1, -0.2, 0.05, 0.15])
    vals = []
    for s in range(10_000):
        env = make_convex_lower_bound_env(2, 4, 4, 1.0, 2.0, 1.0, seed=s)
        vals.append(float(env.mean_loss_curve(w)[0]))
    vals = np.asarray(vals)
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) <= 3 * stderr


def test_sc_lower_p0_comparator_is_origin():
    env = make_sc_lower_bound_env(4, 3, 128, mu=1.0, D=2.0, delta=0.5, p=0.0, seed=0)
    hind = best_in_hindsight(env.feasible, env.hindsight())
    np.testing.assert_allclose(hind.point, np.zeros(3), atol=1e-9)


def test_sc_lower_p1_minimizer_closed_form():
    n, d, D, mu = 4, 4, 2.0, 1.0
    env = make_sc_lower_bound_env(n, d, 256, mu=mu, D=D, delta=0.25, p=1.0, seed=1)
    m = env.m
    expected = ((n - m) / n) * (D / math.sqrt(d)) * np.ones(d)
    hind = best_in_hindsight(env.feasible, env.hindsight())
    np.testing.assert_allclose(hind.point, expected, atol=1e-6)


def test_sc_lower_loss_expansion():
    n, d = 2, 2
    env = make_sc_lower_bound_env(n, d, 256, mu=1.0, D=2.0, delta=0.25, p=1.0, seed=3)
    w = env.feasible.project(np.array([0.3, 0.9]))
    env._hold(0)  # the chunk of rounds 1..256; round 1 lies in interval 0
    anchors = env._table[0]
    manual = 0.5 * np.mean([((w - a) ** 2).sum() for a in anchors])
    assert env.mean_loss_curve(w)[0] == pytest.approx(manual)


def test_sc_lower_gradient_bound():
    env = make_sc_lower_bound_env(4, 4, 256, mu=2.0, D=1.5, delta=0.5, p=0.5, seed=4)
    assert env.G == pytest.approx(3.0)  # mu * D
    rng = np.random.default_rng(0)
    for t in range(1, 257):
        w = env.feasible.project(rng.normal(size=4))
        g = env.grads(t, w)
        assert np.linalg.norm(g, axis=1).max() <= env.G + 1e-12
        assert np.linalg.norm(g.mean(axis=0)) <= env.G + 1e-12


def test_sc_lower_validation():
    with pytest.raises(ConfigError, match="p"):
        make_sc_lower_bound_env(2, 2, 256, mu=1.0, D=1.0, delta=0.5, p=1.5, seed=0)
    with pytest.raises(ConfigError, match="T"):
        make_sc_lower_bound_env(2, 2, 16, mu=1.0, D=1.0, delta=0.25, p=0.5, seed=0)


# ---------------------------------------------------------------------------
# Least absolute deviation problem
# ---------------------------------------------------------------------------


def test_lad_median_example():
    data = np.array([0.0, 0.4, 1.0]).reshape(3, 1, 1)
    problem = LadProblem.from_data(data, Box(np.zeros(1), np.ones(1)))
    x_star, f_star = problem.optimum()
    assert x_star[0] == pytest.approx(0.4)
    assert f_star == pytest.approx(1.0 / 3.0)


def test_lad_identical_data_optimum_zero():
    data = np.full((4, 3, 2), 0.25)
    problem = LadProblem.from_data(data, Box(np.zeros(2), np.ones(2)))
    x_star, f_star = problem.optimum()
    np.testing.assert_allclose(x_star, 0.25)
    assert f_star == 0.0


def test_lad_from_data_builds_from_the_given_shards_only(monkeypatch):
    data = np.random.default_rng(8).uniform(0.0, 1.0, size=(3, 5, 2))
    box = Box(np.zeros(2), np.ones(2))
    for mu in (0.0, 0.4):
        # Reference: a drawn problem whose shards are then replaced.
        ref = LadProblem(3, 2, 5, box, seed=0, mu=mu)
        ref._a = data
        ref._optimum = ref._solve_exact()
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", lambda *a, **k: pytest.fail("from_data drew a dataset"))
            problem = LadProblem.from_data(data, box, mu=mu)
        (x, f), (x_ref, f_ref) = problem.optimum(), ref.optimum()
        assert x.tobytes() == x_ref.tobytes() and f == f_ref
        assert problem.G == ref.G and (problem.n, problem.samples, problem.d) == (3, 5, 2)
        probe = np.array([0.3, 0.9])
        assert problem.value(probe) == ref.value(probe)
    with pytest.raises(ConfigError, match="set"):
        LadProblem.from_data(data, Box(np.zeros(3), np.ones(3)))


def test_lad_subgradient_above_all_data():
    problem = make_lad_problem(2, 4, 8, Box(np.zeros(4), np.ones(4)), seed=0)
    x = 2.0 * np.ones(4)  # outside the data range; sign is +1 everywhere
    g = problem.full_subgrad(0, np.clip(x, 0, 1) + 1e-9)
    np.testing.assert_allclose(g, np.ones(4))
    assert np.linalg.norm(g) == pytest.approx(math.sqrt(4))
    assert problem.G == pytest.approx(math.sqrt(4))


def test_lad_stochastic_oracle_unbiased():
    problem = make_lad_problem(2, 3, 16, Box(np.zeros(3), np.ones(3)), seed=5)
    x = np.array([0.9, 0.05, 0.5])  # away from any coordinate median
    rng = np.random.default_rng(0)
    draws = np.stack([problem.stochastic_grads(x, rng) for _ in range(10_000)])
    for i in range(2):
        mean = draws[:, i, :].mean(axis=0)
        stderr = draws[:, i, :].std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        full = problem.full_subgrad(i, x)
        assert np.all(np.abs(mean - full) <= 3 * stderr + 1e-12)


def test_lad_oracle_norm_bound():
    problem = make_lad_problem(3, 5, 4, Box(np.zeros(5), np.ones(5)), seed=2, mu=0.5)
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.uniform(0, 1, 5)
        g = problem.stochastic_grads(x, rng)
        assert np.linalg.norm(g, axis=1).max() <= problem.G + 1e-12


def test_lad_regularized_optimum_matches_grid_and_descent():
    data = np.array([[0.1], [0.2], [0.8], [0.9]]).reshape(4, 1, 1)
    box = Box(np.zeros(1), np.ones(1))
    problem = LadProblem.from_data(data, box, mu=0.5)
    x_star, f_star = problem.optimum()
    # Independent oracle: dense 1-d scan.
    xs = np.linspace(0, 1, 200_001)
    vals = np.abs(xs[:, None] - data.ravel()[None, :]).mean(axis=1) + 0.25 * (xs - 0.5) ** 2
    assert f_star <= vals.min() + 1e-9
    assert abs(x_star[0] - xs[int(np.argmin(vals))]) <= 1e-4
    # Projected subgradient descent agrees to its documented tolerance scale.
    _, v = minimize_convex(box, problem.blackbox(), tol=1e-6, max_iter=40_000)
    assert v >= f_star - 1e-12
    assert v - f_star <= 1e-4


def test_lad_regularized_optimum_random_instances():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n, s, d = 2, 5, 2
        data = rng.uniform(0, 1, size=(n, s, d))
        problem = LadProblem.from_data(data, Box(np.zeros(d), np.ones(d)), mu=0.7)
        x_star, f_star = problem.optimum()
        # Fine per-coordinate scan around the reported optimum.
        for j in range(d):
            grid = np.clip(x_star[j] + np.linspace(-0.05, 0.05, 2001), 0, 1)
            probe = np.repeat(x_star[None, :], grid.shape[0], axis=0)
            probe[:, j] = grid
            vals = problem.value_path(probe)
            assert f_star <= vals.min() + 1e-10


def test_lad_value_path_matches_value():
    problem = make_lad_problem(2, 3, 4, Box(np.zeros(3), np.ones(3)), seed=9, mu=0.25)
    X = np.random.default_rng(2).uniform(0, 1, size=(7, 3))
    path = problem.value_path(X)
    direct = np.array([problem.value(x) for x in X])
    np.testing.assert_allclose(path, direct, rtol=1e-12)


# ---------------------------------------------------------------------------
# Chunked rounds against full-table oracles
# ---------------------------------------------------------------------------
#
# The oracles are plain copies of the full-table constructors the streaming
# environments replaced: every round drawn at construction in one call.  The
# streamed environments must give the same numbers bit for bit, in any order.


class FullLinear:
    def __init__(self, n, d, T, G, seed):
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(T, n, d)).astype(np.float64) * 2.0 - 1.0
        self._g = signs * (G / math.sqrt(d))
        self._gbar = self._g.mean(axis=1)

    def grads(self, t, w):
        return self._g[t - 1]

    def mean_loss_path(self, W):
        return np.einsum("td,td->t", self._gbar, W)

    def mean_loss_curve(self, w):
        return self._gbar @ w

    def hindsight(self):
        return self._gbar.sum(axis=0)


class FullQuadratic:
    def __init__(self, n, d, T, mu, G, D, seed):
        half = D / (2.0 * math.sqrt(d))
        self.T, self.mu = T, float(mu)
        rng = np.random.default_rng(seed)
        self._b = rng.uniform(-half, half, size=(T, n, d))
        self._bbar = self._b.mean(axis=1)
        self._bsq = (self._b**2).sum(axis=2).mean(axis=1)

    def grads(self, t, w):
        return self.mu * (w - self._b[t - 1])

    def mean_loss_path(self, W):
        wsq = (W**2).sum(axis=1)
        cross = np.einsum("td,td->t", self._bbar, W)
        return 0.5 * self.mu * (wsq - 2.0 * cross + self._bsq)

    def mean_loss_curve(self, w):
        wsq = float(w @ w)
        return 0.5 * self.mu * (wsq - 2.0 * (self._bbar @ w) + self._bsq)

    def hindsight(self):
        T, mu = self.T, self.mu
        bmean = self._bbar.mean(axis=0)
        const = float(self._bsq.sum())

        def value(w):
            return 0.5 * mu * (T * float(w @ w) - 2.0 * T * float(bmean @ w) + const)

        def subgrad(w):
            return mu * T * (w - bmean)

        return value, subgrad, mu * T


class FullIntervalLinear:
    def __init__(self, n, d, T, G, D, delta, seed):
        self.n, self.d, self.m = n, d, n // 2
        self._idx = interval_boundaries(T, delta)
        rng = np.random.default_rng(seed)
        n_intervals = int(self._idx[-1]) + 1
        signs = rng.integers(0, 2, size=(n_intervals, d)).astype(np.float64) * 2.0 - 1.0
        self._z = signs * (G / math.sqrt(d))
        self._frac = (n - self.m) / n

    def grads(self, t, w):
        out = np.zeros((self.n, self.d))
        out[self.m :] = self._z[self._idx[t - 1]]
        return out

    def _zbar_rows(self):
        return self._frac * self._z[self._idx]

    def mean_loss_path(self, W):
        return np.einsum("td,td->t", self._zbar_rows(), W)

    def mean_loss_curve(self, w):
        return self._zbar_rows() @ w

    def hindsight(self):
        lengths = np.bincount(self._idx).astype(np.float64)
        return self._frac * (lengths[:, None] * self._z).sum(axis=0)


class FullIntervalQuadratic:
    def __init__(self, n, d, T, mu, D, delta, p, seed):
        side = D / math.sqrt(d)
        self.T, self.mu, self.m = T, float(mu), n // 2
        self._idx = interval_boundaries(T, delta)
        rng = np.random.default_rng(seed)
        n_intervals = int(self._idx[-1]) + 1
        ones = (rng.random(n_intervals) < p).astype(np.float64)
        self._anchors = np.zeros((n_intervals, n, d))
        self._anchors[:, self.m :, :] = (side * ones)[:, None, None]

    def grads(self, t, w):
        return self.mu * (w - self._anchors[self._idx[t - 1]])

    def _per_round_terms(self):
        abar = self._anchors.mean(axis=1)[self._idx]
        asq = (self._anchors**2).sum(axis=2).mean(axis=1)[self._idx]
        return abar, asq

    def mean_loss_path(self, W):
        abar, asq = self._per_round_terms()
        wsq = (W**2).sum(axis=1)
        return 0.5 * self.mu * (wsq - 2.0 * np.einsum("td,td->t", abar, W) + asq)

    def mean_loss_curve(self, w):
        abar, asq = self._per_round_terms()
        return 0.5 * self.mu * (float(w @ w) - 2.0 * (abar @ w) + asq)

    def hindsight(self):
        abar, asq = self._per_round_terms()
        T, mu = self.T, self.mu
        amean = abar.mean(axis=0)
        const = float(asq.sum())

        def value(w):
            return 0.5 * mu * (T * float(w @ w) - 2.0 * T * float(amean @ w) + const)

        def subgrad(w):
            return mu * T * (w - amean)

        return value, subgrad, mu * T


def _pair(kind, n, d, T, seed):
    """(streamed environment, full-table oracle) built from the same arguments."""
    if kind == "linear":
        args = (n, d, T, 1.5, seed)
        return make_linear_adversary(*args), FullLinear(*args)
    if kind == "sc_quadratic":
        args = (n, d, T, 0.5, 1.0, 1.5, seed)
        return make_sc_quadratic_adversary(*args), FullQuadratic(*args)
    if kind == "convex_lower":
        delta = 1.0 if T < 8 else 1 / 3 if T < 700 else 1 / 300
        args = (n, d, T, 1.0, 2.0, delta, seed)
        return make_convex_lower_bound_env(*args), FullIntervalLinear(*args)
    delta = 1.0 if T < 64 else 1 / 5 if T < 700 else 1 / 40
    args = (n, d, T, 0.7, 1.5, delta, 0.4, seed)
    return make_sc_lower_bound_env(*args), FullIntervalQuadratic(*args)


ENV_KINDS = ("linear", "sc_quadratic", "convex_lower", "sc_lower")
# T below one chunk, exactly one, a multiple, and not a multiple of the
# 256-round chunk; d = 1 exercises numpy's pairwise sum of one column.
CHUNK_SHAPES = [(3, 1, 20), (2, 3, 256), (4, 5, 300), (3, 1, 777), (8, 16, 1024), (2, 4, 1000)]


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ENV_KINDS)
@pytest.mark.parametrize("n,d,T", CHUNK_SHAPES)
def test_streamed_environment_matches_full_table(kind, n, d, T):
    for seed in (0, 11):
        env, full = _pair(kind, n, d, T, seed)
        rng = np.random.default_rng(seed + 100)
        W = rng.uniform(-0.3, 0.3, size=(T, d))
        w = rng.uniform(-0.3, 0.3, size=d)
        # Public calls interleaved, each rewinding the stream of the others.
        assert _same(env.mean_loss_path(W), full.mean_loss_path(W))
        for t in (1, T, (T + 1) // 2):
            assert _same(env.grads(t, W[t - 1]), full.grads(t, W[t - 1]))
        assert _same(env.mean_loss_curve(w), full.mean_loss_curve(w))
        hind, want = env.hindsight(), full.hindsight()
        if isinstance(want, tuple):
            value, subgrad, mu = want
            assert hind.mu == mu
            for probe in (w, W[0], np.zeros(d)):
                assert hind.value(probe) == value(probe)
                assert _same(hind.subgrad(probe), subgrad(probe))
        else:
            assert _same(hind, want)
        assert _same(env.mean_loss_path(W), full.mean_loss_path(W))


@pytest.mark.parametrize("kind", ENV_KINDS)
def test_held_gradient_tables_are_read_only(kind):
    # The linear environments hand out table rows as views: a caller writing
    # into one gets an error instead of changing a later round's gradients.
    env, full = _pair(kind, 3, 4, 300, seed=2)
    w = np.full(4, 0.1)
    for t in (1, 300):
        g = env.grads(t, w)
        assert not env._table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            env._table[0, 0, 0] = 7.0
        if kind in ("linear", "convex_lower"):
            with pytest.raises(ValueError, match="read-only"):
                g[...] = 7.0
        assert _same(env.grads(t, w), full.grads(t, w))


@pytest.mark.parametrize("kind", ENV_KINDS)
def test_streamed_grads_in_any_order(kind):
    T = 700
    env, full = _pair(kind, 3, 4, T, seed=5)
    w = np.full(4, 0.1)
    shuffled = np.random.default_rng(3).permutation(np.arange(1, T + 1))
    for order in (range(1, T + 1), range(T, 0, -1), shuffled, [1, 600, 2, 599, 300, 300, T, 1]):
        for t in order:
            assert _same(env.grads(int(t), w), full.grads(int(t), w))
