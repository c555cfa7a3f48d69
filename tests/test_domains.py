import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doco.algorithms import Dftcl, Dftfcl, O2b
from doco.compressors import RandK, contraction_stat, fcc, nominal_delta
from doco.domains import (
    Ball,
    Box,
    ConfigError,
    Quadratic,
    best_in_hindsight,
    ftrl_linear_step,
    ftrl_strongly_convex_step,
    project,
)
from oracles import BlackBoxLoss, minimize_convex


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def grid_argmin(objective, feasible, points=41, stages=3):
    """Dense grid search with convexity-justified refinement around the best point.

    ``objective`` maps an (m, d) batch to (m,) values.  Independent of any
    closed-form solver: it only evaluates the objective.
    """
    if isinstance(feasible, Box):
        lo, hi = feasible.lo.copy(), feasible.hi.copy()
    else:
        lo = -feasible.radius * np.ones(feasible.d)
        hi = feasible.radius * np.ones(feasible.d)
    best = None
    for _ in range(stages):
        axes = [np.linspace(lo[j], hi[j], points) for j in range(len(lo))]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        if isinstance(feasible, Ball):
            pts = pts[np.linalg.norm(pts, axis=1) <= feasible.radius + 1e-12]
        if pts.shape[0] == 0:
            pts = feasible.project((lo + hi) / 2.0)[None, :]
        vals = objective(pts)
        best = pts[int(np.argmin(vals))]
        span = (hi - lo) / (points - 1)
        lo, hi = best - 2 * span, best + 2 * span
        if isinstance(feasible, Box):
            lo = np.maximum(lo, feasible.lo)
            hi = np.minimum(hi, feasible.hi)
    return best


def box_corner_argmin(u, box):
    """Enumerate all 2^d corners of a box for the linear objective <u, w>."""
    d = box.d
    best_w, best_v = None, np.inf
    for mask in range(2**d):
        w = np.array([box.hi[j] if (mask >> j) & 1 else box.lo[j] for j in range(d)])
        v = float(u @ w)
        if v < best_v - 1e-15:
            best_w, best_v = w, v
    return best_w, best_v


def linear_obj(u, eta):
    return lambda pts: pts @ u + (pts**2).sum(axis=1) / eta


def sc_obj(s, anchors, weights, mu):
    def f(pts):
        out = pts @ s
        for a, al in zip(anchors, weights):
            out = out + 0.5 * mu * al * ((pts - a) ** 2).sum(axis=1)
        return out

    return f


# ---------------------------------------------------------------------------
# Feasible sets and projection
# ---------------------------------------------------------------------------


def test_project_box_clips_coordinates():
    box = Box(np.zeros(2), np.ones(2))
    np.testing.assert_allclose(project(box, [2.0, -1.0]), [1.0, 0.0])


def test_project_ball_scales_radially():
    ball = Ball(1.0, 2)
    np.testing.assert_allclose(project(ball, [3.0, 4.0]), [0.6, 0.8])


def test_project_interior_point_fixed():
    box = Box(np.zeros(2), np.ones(2))
    np.testing.assert_allclose(project(box, [0.3, 0.7]), [0.3, 0.7])


def test_project_dimension_mismatch():
    with pytest.raises(ConfigError, match="dimension mismatch"):
        project(Ball(1.0, 3), [1.0, 2.0])


def test_ball_contains_checks_each_row():
    # A stack of rows is inside when every row is, as project leaves it.
    ball = Ball(1.0, 2)
    rows = np.array([[0.8, 0.0], [0.0, -0.8]])
    assert ball.contains(rows, tol=0.0) and ball.project(rows).tobytes() == rows.tobytes()
    assert ball.contains(rows[None], tol=0.0)
    assert not ball.contains([[0.8, 0.0], [1.2, 0.0]])
    assert ball.contains([0.6, 0.8], tol=0.0) and not ball.contains([0.6, 0.81], tol=0.0)


def test_box_must_contain_origin():
    with pytest.raises(ConfigError, match="origin"):
        Box(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ConfigError):
        Ball(-1.0, 2)


def test_diameters():
    assert Box(-np.ones(4), np.ones(4)).diameter() == pytest.approx(4.0)
    assert Ball(3.0, 7).diameter() == 6.0


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 5),
    use_ball=st.booleans(),
)
def test_projection_nonexpansive_and_feasible(data, d, use_ball):
    coords = st.floats(-10, 10, allow_nan=False)
    if use_ball:
        feasible = Ball(data.draw(st.floats(0.1, 5.0)), d)
    else:
        lo = np.array(data.draw(st.lists(st.floats(-5, 0), min_size=d, max_size=d)))
        hi = np.array(data.draw(st.lists(st.floats(0, 5), min_size=d, max_size=d)))
        feasible = Box(lo, hi)
    x = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
    y = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
    px, py = project(feasible, x), project(feasible, y)
    assert feasible.contains(px, tol=1e-12)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 33),
    R=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    use_ball=st.booleans(),
)
def test_projection_is_row_wise_bit_for_bit(d, R, seed, use_ball):
    # A stack of rows projects as each row does alone, to the last bit, and a
    # lone row projects as the norm-scaled row np.linalg.norm gives.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(R, d)) * rng.choice([0.0, 0.01, 0.3, 1.0, 3.0, 1e3], size=(R, 1))
    if use_ball:
        feasible = Ball(float(rng.uniform(0.1, 3.0)), d)
    else:
        feasible = Box(-rng.uniform(0.0, 2.0, d), rng.uniform(0.0, 2.0, d))
    P = feasible.project(X)
    assert P.shape == (R, d) and feasible.contains(P, tol=1e-12)
    assert feasible.project(X[None]).tobytes() == P.tobytes()
    for r in range(R):
        assert feasible.project(X[r]).tobytes() == P[r].tobytes()
        if use_ball:
            nrm = float(np.linalg.norm(X[r]))
            alone = X[r] if nrm <= feasible.radius else (feasible.radius / nrm) * X[r]
        else:
            alone = np.minimum(np.maximum(X[r], feasible.lo), feasible.hi)
        np.testing.assert_array_equal(P[r], alone)
        assert feasible.contains(P[r], tol=1e-12)


# ---------------------------------------------------------------------------
# Leader steps
# ---------------------------------------------------------------------------


def test_linear_step_box_example():
    box = Box(-np.ones(2), np.ones(2))
    got = ftrl_linear_step(box, [4.0, -1.0], 1.0)
    oracle = grid_argmin(linear_obj(np.array([4.0, -1.0]), 1.0), box)
    np.testing.assert_allclose(got, [-1.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(got, oracle, atol=1e-3)


def test_linear_step_zero_sum_is_origin():
    for feasible in (Box(-np.ones(3), np.ones(3)), Ball(2.0, 3)):
        np.testing.assert_allclose(ftrl_linear_step(feasible, np.zeros(3), 0.7), np.zeros(3))


def test_linear_step_interior_ball_example():
    ball = Ball(10.0, 2)
    got = ftrl_linear_step(ball, [4.0, -1.0], 1.0)
    oracle = grid_argmin(linear_obj(np.array([4.0, -1.0]), 1.0), ball)
    np.testing.assert_allclose(got, [-2.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(got, oracle, atol=1e-3)


def test_linear_step_rejects_bad_eta():
    with pytest.raises(ConfigError, match="eta"):
        ftrl_linear_step(Ball(1.0, 2), np.ones(2), 0.0)
    with pytest.raises(ConfigError, match="eta"):
        ftrl_linear_step(Ball(1.0, 2), np.ones(2), -1.0)


def test_linear_step_matches_grid_search_randomized():
    rng = np.random.default_rng(42)
    for trial in range(200):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            feasible = Ball(float(rng.uniform(0.2, 3.0)), d)
        else:
            feasible = Box(-rng.uniform(0.2, 3.0, d), rng.uniform(0.2, 3.0, d))
        u = rng.normal(size=d) * rng.uniform(0.5, 4.0)
        eta = float(rng.uniform(0.1, 4.0))
        w = ftrl_linear_step(feasible, u, eta)
        obj = linear_obj(u, eta)
        oracle = grid_argmin(obj, feasible)
        gap = float(obj(w[None, :])[0] - obj(oracle[None, :])[0])
        assert gap <= 1e-4, f"trial {trial}: objective gap {gap}"
        assert feasible.contains(w, tol=1e-9)


def test_sc_step_box_example():
    box = Box(np.zeros(1), np.ones(1))
    got = ftrl_strongly_convex_step(box, [0.5], [0.0], mu=1.0, weight_total=1.0)
    oracle = grid_argmin(sc_obj(np.array([0.5]), [np.zeros(1)], [1.0], 1.0), box)
    np.testing.assert_allclose(got, [0.0], atol=1e-12)
    np.testing.assert_allclose(got, oracle, atol=1e-3)


def test_sc_step_cancellation():
    ball = Ball(5.0, 3)
    anchors = np.array([[0.1, 0.2, -0.3], [0.5, -0.1, 0.0]])
    weighted_sum = anchors.sum(axis=0)
    mu = 2.0
    s_cum = mu * weighted_sum
    got = ftrl_strongly_convex_step(ball, s_cum, weighted_sum, mu=mu, weight_total=2.0)
    np.testing.assert_allclose(got, np.zeros(3), atol=1e-15)


def test_sc_step_two_anchor_example():
    box = Box(np.zeros(1), np.ones(1))
    got = ftrl_strongly_convex_step(box, [0.0], [1.0], mu=2.0, weight_total=2.0)
    oracle = grid_argmin(sc_obj(np.zeros(1), [np.full(1, 0.5), np.full(1, 0.5)], [1.0, 1.0], 2.0), box)
    np.testing.assert_allclose(got, [0.5], atol=1e-12)
    np.testing.assert_allclose(got, oracle, atol=1e-3)


def test_sc_step_rejects_bad_parameters():
    with pytest.raises(ConfigError, match="mu"):
        ftrl_strongly_convex_step(Ball(1.0, 1), [0.0], [0.0], mu=0.0, weight_total=1.0)
    with pytest.raises(ConfigError, match="weight_total"):
        ftrl_strongly_convex_step(Ball(1.0, 1), [0.0], [0.0], mu=1.0, weight_total=0.0)


def test_sc_step_matches_grid_search_randomized():
    rng = np.random.default_rng(7)
    for trial in range(200):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            feasible = Ball(float(rng.uniform(0.2, 3.0)), d)
        else:
            feasible = Box(-rng.uniform(0.2, 3.0, d), rng.uniform(0.2, 3.0, d))
        m = int(rng.integers(1, 4))
        anchors = [rng.normal(size=d) for _ in range(m)]
        weights = rng.uniform(0.5, 2.0, m)
        mu = float(rng.uniform(0.2, 3.0))
        s = rng.normal(size=d)
        w = ftrl_strongly_convex_step(
            feasible,
            s,
            sum(a * al for a, al in zip(anchors, weights)),
            mu=mu,
            weight_total=float(weights.sum()),
        )
        obj = sc_obj(s, anchors, weights, mu)
        oracle = grid_argmin(obj, feasible)
        gap = float(obj(w[None, :])[0] - obj(oracle[None, :])[0])
        assert gap <= 1e-4, f"trial {trial}: objective gap {gap}"


# ---------------------------------------------------------------------------
# Best decision in hindsight
# ---------------------------------------------------------------------------


def test_hindsight_box_matches_corner_enumeration():
    box = Box(-np.ones(2), np.ones(2))
    u = np.array([2.0, -3.0])
    got = best_in_hindsight(box, u)
    corner_w, corner_v = box_corner_argmin(u, box)
    np.testing.assert_allclose(got.point, [-1.0, 1.0])
    assert got.value == pytest.approx(-5.0)
    np.testing.assert_allclose(got.point, corner_w)
    assert got.value == pytest.approx(corner_v)


def test_hindsight_box_randomized_corner_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        box = Box(-rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d))
        u = rng.normal(size=d)
        got = best_in_hindsight(box, u)
        _, corner_v = box_corner_argmin(u, box)
        assert got.value == pytest.approx(corner_v, abs=1e-12)


def test_hindsight_zero_coefficients_tie_break_to_lo():
    box = Box(np.array([-1.0, 0.0]), np.array([2.0, 3.0]))
    got = best_in_hindsight(box, np.zeros(2))
    np.testing.assert_allclose(got.point, box.lo)
    assert got.value == 0.0


def test_hindsight_ball_example():
    got = best_in_hindsight(Ball(2.0, 2), np.array([3.0, 4.0]))
    np.testing.assert_allclose(got.point, [-1.2, -1.6])
    assert got.value == pytest.approx(-10.0)
    # Cauchy-Schwarz extremum, confirmed on the circle.
    theta = np.linspace(0, 2 * np.pi, 20001)
    circle = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert got.value <= (circle @ np.array([3.0, 4.0])).min() + 1e-6


def test_hindsight_ball_zero_vector():
    got = best_in_hindsight(Ball(2.0, 3), np.zeros(3))
    np.testing.assert_allclose(got.point, np.zeros(3))
    assert got.value == 0.0


def _quadratic_oracle(feasible, loss: Quadratic):
    """The subgradient solver's minimum of ``loss``, through value and subgradient calls only."""

    def value(w):
        return 0.5 * loss.curvature * float(((w - loss.center) ** 2).sum()) + loss.const

    return minimize_convex(feasible, BlackBoxLoss(value, lambda w: loss.curvature * (w - loss.center), loss.curvature))


@pytest.mark.parametrize(
    "feasible,center,expected",
    [
        (Box(-np.ones(2), np.ones(2)), [2.0, 0.25], [1.0, 0.25]),  # the box binds in one coordinate
        (Box(np.zeros(3), np.ones(3)), [-0.5, 1.5, 0.3], [0.0, 1.0, 0.3]),
        (Ball(1.0, 2), [3.0, 4.0], [0.6, 0.8]),  # outside the ball: scaled onto the sphere
        (Ball(2.0, 2), [0.3, -0.4], [0.3, -0.4]),  # inside: the center itself
    ],
    ids=["box_binds_one", "box_binds_two", "ball_outside", "ball_inside"],
)
def test_hindsight_quadratic_is_the_projected_center(feasible, center, expected):
    loss = Quadratic(np.array(center), 3.0, 0.75)
    got = best_in_hindsight(feasible, loss)
    assert feasible.contains(got.point)
    np.testing.assert_allclose(got.point, expected, rtol=1e-15, atol=1e-15)
    # The solver oracle, and a dense grid over the set, find nothing lower.
    _, value = _quadratic_oracle(feasible, loss)
    assert got.value == pytest.approx(value, rel=1e-12)
    if feasible.d == 2:
        grid = np.stack(np.meshgrid(*[np.linspace(-2.0, 2.0, 401)] * 2, indexing="ij"), axis=-1).reshape(-1, 2)
        inside = grid[np.all(feasible.project(grid) == grid, axis=1)]
        lowest = (0.5 * loss.curvature * ((inside - loss.center) ** 2).sum(axis=1) + loss.const).min()
        assert got.value <= lowest + 1e-12 * abs(lowest)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    ball=st.booleans(),
    scale=st.floats(0.1, 3.0),
    curvature=st.floats(1e-3, 1e3),
    const=st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 1e-3),
    seed=st.integers(0, 2**16),
)
def test_hindsight_quadratic_matches_the_solver_oracle(d, ball, scale, curvature, const, seed):
    rng = np.random.default_rng(seed)
    feasible = Ball(scale, d) if ball else Box(-rng.uniform(0.0, scale, d), rng.uniform(0.0, scale, d))
    loss = Quadratic(rng.uniform(-2.0 * scale, 2.0 * scale, d), curvature, const)
    got = best_in_hindsight(feasible, loss)
    assert feasible.contains(got.point)
    _, value = _quadratic_oracle(feasible, loss)
    assert got.value == pytest.approx(value, rel=1e-12)


def test_minimize_convex_nonsmooth():
    # |w - 0.3| over [-1, 1]: subgradient method without curvature.
    box = Box(-np.ones(1), np.ones(1))
    loss = BlackBoxLoss(
        value=lambda w: float(np.abs(w - 0.3).sum()),
        subgrad=lambda w: np.sign(w - 0.3),
    )
    point, value = minimize_convex(box, loss, tol=1e-6, max_iter=20000)
    assert value <= 1e-3
    assert abs(float(point[0]) - 0.3) <= 1e-3


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: Dftcl(Ball(1.0, 4), 2.0, RandK(2), eta=0.1), "n"),
        (lambda: Dftfcl(Ball(1.0, 4), 2, RandK(2), 2.5, eta=0.1), "L"),
        (lambda: O2b(Ball(1.0, 4), 2, RandK(2), True, eta=0.1), "L"),
        (lambda: fcc(np.ones(4), RandK(2), 2.5, np.random.default_rng(0)), "L"),
        (lambda: contraction_stat(RandK(2), 2, 4, 2.5, np.random.default_rng(0)), "trials"),
        (lambda: contraction_stat(RandK(2), 0, 4, 3, np.random.default_rng(0)), "L"),
        (lambda: nominal_delta(RandK(2), 2.5), "d"),
        (lambda: Ball(1.0, 2.5), "set"),
        (lambda: Ball(1.0, 0), "set"),
    ],
    ids=["dftcl_n", "dftfcl_L", "o2b_L", "fcc_L", "trials", "contraction_L", "nominal_d", "ball_d", "ball_d0"],
)
def test_sizes_must_be_positive_integers(make, field):
    with pytest.raises(ConfigError) as err:
        make()
    assert err.value.field == field
