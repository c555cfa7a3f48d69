import math

import numpy as np
import pytest

from doco.algorithms import Dftcl, Dftfcl, O2b
from doco.compressors import Identity, RandK, RandomGossip, entity_stream
from doco.domains import Ball, Box, ConfigError
from doco.environments import make_linear_adversary, make_sc_quadratic_adversary


def linear_env(n=4, d=8, T=400, G=1.0, seed=5):
    return make_linear_adversary(n, d, T, G, seed)


# ---------------------------------------------------------------------------
# Degeneracy: lossless compression reproduces the uncompressed trajectory
# ---------------------------------------------------------------------------


def test_dftcl_identity_equals_vanilla_ftrl_bitwise():
    n, d, T = 4, 8, 1000
    env = linear_env(n, d, T)
    fs = Ball(1.0, d)
    eta = 2.0 / math.sqrt(T)
    eng = Dftcl(fs, n, Identity(), eta=eta, seed=0)
    gsum = np.zeros(d)
    for t in range(1, T + 1):
        ref = fs.project(-(eta / 2.0) * gsum)
        np.testing.assert_array_equal(eng.decision, ref)
        g = env.grads(t, eng.decision)
        eng.round(g)
        gsum += g.mean(axis=0)
        np.testing.assert_array_equal(eng.e, np.zeros((n, d)))
        np.testing.assert_array_equal(eng.e_hat, np.zeros(d))


def test_dftcl_first_round_zero_gradients():
    eng = Dftcl(Ball(1.0, 3), 2, RandK(1), eta=0.5, seed=1)
    eng.round(np.zeros((2, 3)))
    np.testing.assert_array_equal(eng.decision, np.zeros(3))


def test_dftcl_strongly_convex_matches_direct_recurrence():
    n, d, T = 3, 4, 200
    env = make_sc_quadratic_adversary(n, d, T, mu=1.0, G=1.0, D=1.0, seed=2)
    fs = env.feasible
    eng = Dftcl(fs, n, RandK(2), mu=1.0, seed=3)
    s_sum = np.zeros(d)
    w_hist = []
    for t in range(1, T + 1):
        w = eng.decision
        w_hist.append(w)
        info = eng.round(env.grads(t, w), collect=True)
        s_sum += info.s
        # Direct argmin of <sum s, w> + (mu/2) sum_k ||w - w^k||^2.
        ref = fs.project((1.0 * np.sum(w_hist, axis=0) - s_sum) / (1.0 * t))
        np.testing.assert_allclose(eng.decision, ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Error feedback bookkeeping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [RandK(3), RandomGossip(0.5)])
def test_dftcl_error_memories_telescope(spec):
    n, d, T = 3, 8, 300
    env = linear_env(n, d, T)
    eng = Dftcl(Ball(1.0, d), n, spec, eta=0.1, seed=7)
    g_sum = np.zeros((n, d))
    v_sum = np.zeros((n, d))
    vbar_sum = np.zeros(d)
    s_sum = np.zeros(d)
    for t in range(1, T + 1):
        g = env.grads(t, eng.decision)
        info = eng.round(g, collect=True)
        g_sum += g
        v_sum += info.v
        vbar_sum += info.v.mean(axis=0)
        s_sum += info.s
        np.testing.assert_allclose(eng.e, g_sum - v_sum, atol=1e-9)
        np.testing.assert_allclose(eng.e_hat, vbar_sum - s_sum, atol=1e-9)


def test_dftcl_gossip_error_feedback_hand_trace():
    # One learner, one dimension, unidirectional (server lossless).  Force a
    # failed transmission then a success: the success carries e + g exactly.

    class _Script:
        """Serves block draws: the scripted values first, then padding."""

        def __init__(self, values):
            self.values = list(values)

        def random(self, size):
            out = np.full(size, 0.5)
            out.flat[: len(self.values)] = self.values
            self.values = []
            return out

    eng = Dftcl(Ball(10.0, 1), 1, RandomGossip(0.5), eta=1.0, unidirectional=True, seed=0)
    eng._up.rngs = [_Script([0.9, 0.1])]  # fail, then succeed
    g1, g2 = np.array([[0.7]]), np.array([[-0.2]])
    info1 = eng.round(g1, collect=True)
    np.testing.assert_allclose(info1.v, [[0.0]])
    np.testing.assert_allclose(eng.e, [[0.7]])  # e^2 = g^1
    np.testing.assert_allclose(eng.decision, [0.0])  # nothing arrived yet
    info2 = eng.round(g2, collect=True)
    np.testing.assert_allclose(info2.v, [[0.5]])  # e^2 + g^2 transmitted whole
    np.testing.assert_allclose(eng.e, [[0.0]])
    np.testing.assert_allclose(eng.s_sum, [0.5])


def test_dftcl_bits_follow_cost_model():
    n, d, T = 4, 16, 50
    env = linear_env(n, d, T)
    eng = Dftcl(Ball(1.0, d), n, RandK(4), eta=0.1, seed=0)
    for t in range(1, T + 1):
        eng.round(env.grads(t, eng.decision))
    per_msg = 4 * (64 + 4)
    assert eng.bits_up == T * n * per_msg
    assert eng.bits_down == T * per_msg
    assert eng.msgs_up == T * n
    assert eng.msgs_down == T


def test_dftcl_unidirectional_server_memory_stays_zero():
    n, d, T = 4, 8, 200
    env = linear_env(n, d, T)
    eng = Dftcl(Ball(1.0, d), n, RandK(2), eta=0.1, unidirectional=True, seed=4)
    for t in range(1, T + 1):
        eng.round(env.grads(t, eng.decision))
        np.testing.assert_array_equal(eng.e_hat, np.zeros(d))
    assert eng.bits_down == T * 64 * d  # lossless broadcast cost


def test_unidirectional_regret_sits_between_lossless_and_bidirectional():
    # Fixed strongly convex losses with an off-center optimum: compression
    # bias and noise both pull the decision away from the target, so with one
    # shared learning rate each extra compressed hop adds regret, per seed.
    from doco.environments import make_sc_lower_bound_env

    n, d, T = 4, 8, 4096
    mu, D = 1.0, 1.0
    env = make_sc_lower_bound_env(n, d, T, mu, D, delta=0.25, p=1.0, seed=7)
    fs = env.feasible
    eta = D / (mu * D * math.sqrt(T))
    finals = {}
    for label, spec, uni in [
        ("identity", Identity(), False),
        ("uni", RandK(2), True),  # delta = 1/4 on d = 8
        ("bi", RandK(2), False),
    ]:
        eng = Dftcl(fs, n, spec, eta=eta, unidirectional=uni, seed=3)
        W = np.empty((T, d))
        for t in range(1, T + 1):
            W[t - 1] = eng.decision
            eng.round(env.grads(t, eng.decision))
        finals[label] = float(env.mean_loss_path(W).sum())
    assert finals["identity"] <= finals["uni"] <= finals["bi"]


# ---------------------------------------------------------------------------
# Blocked variant
# ---------------------------------------------------------------------------


def test_dftfcl_warmup_blocks_play_origin():
    n, d, L = 2, 4, 3
    env = linear_env(n, d, 64)
    eng = Dftfcl(Ball(1.0, d), n, RandK(2), L, eta=0.5, seed=0)
    for t in range(1, 3 * L + 1):  # blocks 1..3 all play the initial decision
        np.testing.assert_array_equal(eng.decision, np.zeros(d))
        eng.round(env.grads(t, eng.decision))
    assert eng.block == 4
    assert np.any(eng.decision != 0)  # first informed decision


def test_dftfcl_l1_identity_equals_two_step_delayed_ftrl():
    n, d, T = 4, 8, 1000
    env = linear_env(n, d, T)
    fs = Ball(1.0, d)
    eta = 2.0 / math.sqrt(T)
    eng = Dftfcl(fs, n, Identity(), 1, eta=eta, seed=0)
    gbar_hist = []
    for t in range(1, T + 1):
        if t - 1 >= 3:
            ref = fs.project(-(eta / 2.0) * np.sum(gbar_hist[: t - 3], axis=0))
        else:
            ref = np.zeros(d)
        np.testing.assert_array_equal(eng.decision, ref)
        g = env.grads(t, eng.decision)
        eng.round(g)
        gbar_hist.append(g.mean(axis=0))


def test_dftfcl_pipeline_holds_exactly_the_lagged_broadcasts():
    # With a lossless compressor the cumulative broadcast after block b >= 3
    # equals the mean gradient total of blocks 1..b-2 exactly.
    n, d, L = 3, 4, 2
    T = 20 * L
    env = linear_env(n, d, T)
    eng = Dftfcl(Ball(1.0, d), n, Identity(), L, eta=0.3, seed=1)
    block_sums = []
    acc = np.zeros(d)
    for t in range(1, T + 1):
        g = env.grads(t, eng.decision)
        acc += g.mean(axis=0)
        eng.round(g)
        if t % L == 0:
            block_sums.append(acc.copy())
            acc = np.zeros(d)
            b = len(block_sums)
            if b >= 3:
                np.testing.assert_allclose(eng.s_sum, np.sum(block_sums[: b - 2], axis=0), atol=1e-12)


def test_dftfcl_error_memories_telescope_blockwise():
    n, d, L = 3, 6, 4
    B = 30
    env = linear_env(n, d, B * L)
    eng = Dftfcl(Ball(1.0, d), n, RandK(2), L, eta=0.2, seed=9)
    z_sum = np.zeros((n, d))
    v_sum = np.zeros((n, d))
    vbar_done = []
    s_sum = np.zeros(d)
    z_acc = np.zeros((n, d))
    for t in range(1, B * L + 1):
        g = env.grads(t, eng.decision)
        z_acc += g
        info = eng.round(g, collect=True)
        if t % L == 0:
            b = t // L
            if info.v is not None:  # completed uplink of block b-1
                v_sum += info.v
                vbar_done.append(info.v.mean(axis=0))
            if info.s is not None:  # completed downlink of block b-2
                s_sum += info.s
            # e^b telescopes over completed blocks 1..b-1.
            np.testing.assert_allclose(eng.e, (z_sum + 0) - v_sum, atol=1e-9)
            z_sum += z_acc
            z_acc = np.zeros((n, d))
            if len(vbar_done) >= 2:
                # e_hat^{b-1} telescopes over blocks the server has broadcast.
                consumed = np.sum(vbar_done[:-1], axis=0)
                np.testing.assert_allclose(eng.e_hat, consumed - s_sum, atol=1e-9)


def test_dftfcl_one_message_per_learner_per_round():
    n, d, L = 4, 8, 3
    B = 12
    env = linear_env(n, d, B * L)
    eng = Dftfcl(Ball(1.0, d), n, RandK(2), L, eta=0.1, seed=2)
    for t in range(1, B * L + 1):
        up_before, down_before = eng.msgs_up, eng.msgs_down
        eng.round(env.grads(t, eng.decision))
        block = (t - 1) // L + 1
        assert eng.msgs_up - up_before == (n if block >= 2 else 0)
        assert eng.msgs_down - down_before == (1 if block >= 3 else 0)
    per_msg = 2 * (64 + 3)
    assert eng.bits_up == eng.msgs_up * per_msg
    assert eng.bits_down == eng.msgs_down * per_msg


def test_dftfcl_strongly_convex_anchors_every_block():
    n, d, L = 2, 3, 2
    B = 40
    env = make_sc_quadratic_adversary(n, d, B * L, mu=0.5, G=1.0, D=1.0, seed=6)
    fs = env.feasible
    eng = Dftfcl(fs, n, RandK(1), L, mu=0.5, seed=8)
    s_sum = np.zeros(d)
    block_decisions = []
    for t in range(1, B * L + 1):
        if (t - 1) % L == 0:
            block_decisions.append(eng.decision)
        info = eng.round(env.grads(t, eng.decision), collect=True)
        if info.s is not None:
            s_sum += info.s
        if t % L == 0 and t // L >= 3:
            b = t // L
            mu_eff = 0.5 * L
            ref = fs.project((mu_eff * np.sum(block_decisions, axis=0) - s_sum) / (mu_eff * b))
            np.testing.assert_allclose(eng.decision, ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Online-to-batch driver
# ---------------------------------------------------------------------------


class _StubProblem:
    """Deterministic stochastic oracle: fixed per-update gradients."""

    def __init__(self, grads):
        self.grads = np.asarray(grads, dtype=np.float64)
        self.calls = 0
        self.queried_at = []

    def stochastic_grads(self, x, rng):
        g = self.grads[self.calls]
        self.calls += 1
        self.queried_at.append(np.array(x))
        return g


def test_o2b_first_iterate_is_origin():
    fs = Box(np.zeros(3), np.ones(3))
    stub = _StubProblem(np.ones((4, 2, 3)))
    eng = O2b(fs, 2, Identity(), 1, weights="uniform", eta=0.5, seed=0)
    info = eng.step(stub, np.random.default_rng(0))
    np.testing.assert_array_equal(info.x, np.zeros(3))
    stub2 = _StubProblem(np.ones((4, 2, 3)))
    eng2 = O2b(fs, 2, Identity(), 1, weights="linear", mu=1.0, seed=0)
    info2 = eng2.step(stub2, np.random.default_rng(0))
    np.testing.assert_array_equal(info2.x, np.zeros(3))


def test_o2b_uniform_iterate_is_running_mean():
    fs = Ball(2.0, 2)
    K = 10
    stub = _StubProblem(np.random.default_rng(3).normal(size=(K, 3, 2)))
    eng = O2b(fs, 3, Identity(), 1, weights="uniform", eta=0.7, seed=1)
    rng = np.random.default_rng(0)
    played = []
    for t in range(1, K + 1):
        played.append(eng.decision)
        info = eng.step(stub, rng)
        np.testing.assert_allclose(info.x, np.mean(played, axis=0), atol=1e-12)


def test_o2b_linear_weight_arithmetic():
    # x^2 = (1*w^1 + 2*w^2) / 3; with w^1 = 0 and w^2 = (1,) this is 2/3.
    assert (1 * 0.0 + 2 * 1.0) / 3.0 == pytest.approx(2.0 / 3.0)
    fs = Box(-2 * np.ones(1), 2 * np.ones(1))
    K = 6
    stub = _StubProblem(np.random.default_rng(5).normal(size=(K, 2, 1)))
    eng = O2b(fs, 2, Identity(), 1, weights="linear", mu=1.0, seed=2)
    rng = np.random.default_rng(0)
    weighted, total = np.zeros(1), 0.0
    for t in range(1, K + 1):
        w_before = eng.decision
        info = eng.step(stub, rng)
        weighted += t * w_before
        total += t
        np.testing.assert_allclose(info.x, weighted / total, atol=1e-12)


def test_o2b_uniform_identity_equals_averaged_ftrl_reference():
    # Independent reference: run the average-iterate loop with exact FTRL
    # steps on the same deterministic gradient stream.
    fs = Box(-np.ones(3), np.ones(3))
    n, K = 2, 40
    grads = np.random.default_rng(8).normal(size=(K, n, 3))
    eta = 0.4
    eng = O2b(fs, n, Identity(), 1, weights="uniform", eta=eta, seed=3)
    stub = _StubProblem(grads)
    rng = np.random.default_rng(0)
    xs = []
    for _ in range(K):
        xs.append(eng.step(stub, rng).x)
    # Reference loop.
    w = np.zeros(3)
    ws = []
    gsum = np.zeros(3)
    ref_xs = []
    for t in range(K):
        ws.append(w)
        ref_xs.append(np.mean(ws, axis=0))
        gsum += grads[t].mean(axis=0)
        w = fs.project(-(eta / 2.0) * gsum)
    np.testing.assert_allclose(np.stack(xs), np.stack(ref_xs), atol=1e-12)
    # The stub was queried at exactly the averaged iterates.
    np.testing.assert_allclose(np.stack(stub.queried_at), np.stack(ref_xs), atol=1e-12)


def test_o2b_strongly_convex_update_matches_direct_formula():
    fs = Box(np.zeros(2), np.ones(2))
    n, K, mu = 2, 15, 0.8
    grads = np.random.default_rng(10).normal(size=(K, n, 2))
    eng = O2b(fs, n, RandK(1), 2, weights="linear", mu=mu, seed=5)
    stub = _StubProblem(grads)
    rng = np.random.default_rng(0)
    s_sum = np.zeros(2)
    anchor = np.zeros(2)
    total = 0.0
    for t in range(1, K + 1):
        s_before = eng.s_sum.copy()
        info = eng.step(stub, rng)
        s_sum += eng.s_sum - s_before
        anchor += t * info.x
        total += t
        ref = fs.project((mu * anchor - s_sum) / (mu * total))
        np.testing.assert_allclose(eng.decision, ref, atol=1e-12)


def test_o2b_error_feedback_matches_independent_reimplementation():
    # Same named streams, independently coded recursion: learner memories
    # accumulate alpha_t g - (residual compression output), the server memory
    # accumulates the aggregate minus its own broadcasts.
    from doco.compressors import fcc

    fs = Box(np.zeros(3), np.ones(3))
    n, L, K, mu = 2, 3, 25, 1.0
    spec = RandK(1)
    grads = np.random.default_rng(12).normal(size=(K, n, 3))
    eng = O2b(fs, n, spec, L, weights="linear", mu=mu, seed=7)
    stub = _StubProblem(grads)
    rng = np.random.default_rng(0)

    ref_rngs = [entity_stream(7, 1, i) for i in range(n)]
    ref_server = entity_stream(7, 2, 0)
    e = np.zeros((n, 3))
    e_hat = np.zeros(3)
    s_sum = np.zeros(3)
    for t in range(1, K + 1):
        info = eng.step(stub, rng)
        v = np.empty((n, 3))
        for i in range(n):
            target = e[i] + t * grads[t - 1, i]
            v[i], _ = fcc(target, spec, L, ref_rngs[i])
            e[i] = target - v[i]
        s, _ = fcc(e_hat + v.mean(axis=0), spec, L, ref_server)
        e_hat += v.mean(axis=0) - s
        s_sum += s
        np.testing.assert_allclose(eng.e, e, atol=1e-9)
        np.testing.assert_allclose(eng.e_hat, e_hat, atol=1e-9)
        np.testing.assert_allclose(eng.s_sum, s_sum, atol=1e-9)


def test_o2b_bits_count_l_rounds_per_update():
    fs = Box(np.zeros(4), np.ones(4))
    n, L, K = 3, 5, 7
    eng = O2b(fs, n, RandK(2), L, weights="uniform", eta=0.3, seed=6)
    stub = _StubProblem(np.random.default_rng(1).normal(size=(K, n, 4)))
    rng = np.random.default_rng(0)
    for _ in range(K):
        eng.step(stub, rng)
    per_msg = 2 * (64 + 2)
    assert eng.msgs_up == K * n * L
    assert eng.msgs_down == K * L
    assert eng.bits_up == K * n * L * per_msg
    assert eng.bits_down == K * L * per_msg


# ---------------------------------------------------------------------------
# Shared sanity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [Identity(), RandK(2), RandomGossip(0.3)])
def test_decisions_always_feasible(spec):
    n, d, T = 3, 6, 200
    env = linear_env(n, d, T, G=2.0)
    for fs in (Ball(0.5, d), Box(-0.25 * np.ones(d), 0.5 * np.ones(d))):
        eng = Dftcl(fs, n, spec, eta=1.0, seed=3)
        blocked = Dftfcl(fs, n, spec, 3, eta=1.0, seed=3)
        for t in range(1, T + 1):
            eng.round(env.grads(t, eng.decision))
            blocked.round(env.grads(t, blocked.decision))
            assert fs.contains(eng.decision, tol=1e-12)
            assert fs.contains(blocked.decision, tol=1e-12)


def test_engine_parameter_validation():
    fs = Ball(1.0, 4)
    with pytest.raises(ConfigError):
        Dftcl(fs, 2, Identity())  # neither eta nor mu
    with pytest.raises(ConfigError):
        Dftcl(fs, 2, Identity(), eta=0.1, mu=0.1)  # both
    with pytest.raises(ConfigError, match="L"):
        Dftfcl(fs, 2, Identity(), 0, eta=0.1)
    with pytest.raises(ConfigError, match="weights"):
        O2b(fs, 2, Identity(), 1, weights="quadratic", eta=0.1)
    with pytest.raises(ConfigError, match="mu"):
        O2b(fs, 2, Identity(), 1, weights="linear", eta=0.1)
    with pytest.raises(ConfigError, match="exceeds dimension"):
        Dftcl(fs, 2, RandK(9), eta=0.1)
    with pytest.raises(ConfigError, match="exceeds dimension"):
        Dftfcl(fs, 2, RandK(9), 2, eta=0.1)
    with pytest.raises(ConfigError, match="exceeds dimension"):
        O2b(fs, 2, RandK(9), 2, eta=0.1)
