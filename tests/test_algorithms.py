import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from doco.algorithms import Dftcl, Dftfcl, O2b
from doco.compressors import Identity, RandK, RandomGossip, ScaledSign, entity_stream
from doco.domains import Ball, Box, ConfigError
from doco.environments import make_linear_adversary, make_sc_quadratic_adversary
from oracles import dftcl_round


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
        info = eng.round(env.grads(t, w))
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
        info = eng.round(g)
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
    info1 = eng.round(g1)
    np.testing.assert_allclose(info1.v, [[0.0]])
    np.testing.assert_allclose(eng.e, [[0.7]])  # e^2 = g^1
    np.testing.assert_allclose(eng.decision, [0.0])  # nothing arrived yet
    info2 = eng.round(g2)
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
        info = eng.round(g)
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
        info = eng.round(env.grads(t, eng.decision))
        if info.s is not None:
            s_sum += info.s
        if t % L == 0 and t // L >= 3:
            b = t // L
            mu_eff = 0.5 * L
            ref = fs.project((mu_eff * np.sum(block_decisions, axis=0) - s_sum) / (mu_eff * b))
            np.testing.assert_allclose(eng.decision, ref, atol=1e-12)


@pytest.mark.parametrize("n,d,L", [(1, 1, 16), (1, 1, 3), (3, 2, 4)])
def test_dftfcl_block_sums_add_in_round_order(n, d, L):
    # A span's block sums carry the held sum into the first block and start
    # every later one from +0.0, adding one round at a time: the bits of
    # _z_acc += g.  At one coordinate per round numpy's reduce sums 8 or
    # more rounds pairwise, and a sum of -0.0 rows without the +0.0 start
    # is -0.0.
    rng = np.random.default_rng(L)
    eng = Dftfcl(Ball(1.0, d), n, Identity(), L, eta=0.1)
    for k0 in range(L):
        rows = rng.standard_normal((4 * L + 1, n, d)) * 10.0 ** rng.integers(-12, 12, (4 * L + 1, n, d))
        rows[rng.random(rows.shape) < 0.2] = -0.0
        rows[2 * L - k0 : 3 * L - k0] = -0.0  # the span's third block
        eng.t, eng._z_acc = k0, rng.standard_normal((n, d))
        want, z, k = [], eng._z_acc.copy(), k0
        for g in rows:
            z += g
            k += 1
            if k == L:
                want.append(z)
                z, k = np.zeros((n, d)), 0
        if k:
            want.append(z)
        got = eng._block_sums(rows)
        assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


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
# Every engine x every compressor: memories, bits and counters
# ---------------------------------------------------------------------------


class _Recorder:
    """Wraps a sender bank and keeps every (R, bits, senders) transfer it
    sends, ``bits`` its bits after each call.

    The last ``streaming`` transfers are not delivered yet: Dftfcl sends a
    transfer at the block boundary where its payload is fixed, and it counts
    as delivered at the end of the block that streams it."""

    def __init__(self, bank, streaming=0):
        self.bank, self.sends, self.streaming = bank, [], streaming

    def send(self, X):
        R, bits = self.bank.send(X)
        self.sends.append((R.copy(), np.array(bits), X.shape[-2]))
        return R, bits

    def delivered(self, held_back=0):
        """The delivered transfers, less the last ``held_back`` of them."""
        return self.sends[: max(0, len(self.sends) - self.streaming - held_back)]

    def total(self, held_back=0):
        """Sum of what the delivered transfers (less ``held_back``) delivered, per sender."""
        return sum((R for R, *_ in self.delivered(held_back)), np.zeros(self.bank._shape + (self.bank.d,)))

    def bits(self):
        return sum((b[-1] for _, b, _ in self.delivered()), np.zeros(self.bank._shape[:-1], dtype=np.int64))

    def msgs(self):
        return sum(senders for _, _, senders in self.delivered()) * self.bank.rounds

    def streamed(self, t, L, first):
        """Dftfcl's bits after round t, for a side whose transfers stream from
        block ``first`` + 1 on, one call a round."""
        i, j = divmod(t - 1, L)
        i -= first  # the transfer streaming in round t, if i >= 0
        done = sum((b[-1] for _, b, _ in self.sends[: max(i, 0)]), np.zeros(self.bank._shape[:-1], dtype=np.int64))
        return done + (self.sends[i][1][j + 1] if i >= 0 else 0)


ENGINE_SPECS = [Identity(), RandK(2), ScaledSign(), RandomGossip(0.4)]
_DFTCL_STATE = ("decision", "e", "e_hat", "s_sum", "bits_up", "bits_down", "msgs_up", "msgs_down", "t")


@pytest.mark.parametrize("lockstep", [False, True], ids=["single", "lockstep"])
@pytest.mark.parametrize("algo", ["dftcl", "dftfcl", "o2b"])
@settings(max_examples=25, deadline=None)
@given(
    spec=st.sampled_from(ENGINE_SPECS),
    n=st.integers(1, 4),
    d=st.integers(2, 6),
    L=st.integers(1, 5),
    steps=st.integers(1, 40),
    cuts=st.lists(st.integers(1, 39), max_size=8),
)
@example(spec=RandK(2), n=3, d=5, L=3, steps=20, cuts=[1, 2, 7, 12])
@example(spec=RandomGossip(0.4), n=2, d=3, L=4, steps=23, cuts=[5, 6, 13])
@example(spec=ScaledSign(), n=2, d=3, L=2, steps=3, cuts=[1])
def test_engine_memories_telescope_and_counters_are_exact(algo, spec, n, d, L, steps, lockstep, cuts):
    # Each engine's memories telescope over the transfers its banks sent, and
    # its counters are exactly what those transfers cost, for any number of
    # steps (Dftfcl: inside the warm-up and between block ends too).  Dftcl's
    # round leaves every state array as the reference round
    # (oracles.dftcl_round) does.  Dftfcl played through advance, cut into
    # spans anywhere, counts after each round the bits its transfers have
    # spent by then.
    fs, seed = Ball(1.0, d), (4, 5) if lockstep else 4
    grads = np.random.default_rng(3).normal(size=(steps,) + (2,) * lockstep + (n, d))
    build = {
        "dftcl": lambda: Dftcl(fs, n, spec, eta=0.3, seed=seed),
        "dftfcl": lambda: Dftfcl(fs, n, spec, L, eta=0.3, seed=seed),
        "o2b": lambda: O2b(fs, n, spec, L, weights="uniform", eta=0.3, seed=seed),
    }[algo]
    eng = build()
    if algo == "dftcl":
        engine = build()
    elif algo == "o2b":
        stub = _StubProblem(grads)
    streaming = 1 if algo == "dftfcl" else 0  # the transfer the next block streams
    up, down = eng._up, eng._down = _Recorder(eng._up, streaming), _Recorder(eng._down, streaming)
    for t in range(1, steps + 1):
        if algo == "o2b":
            eng.step(stub, np.random.default_rng(0))
        elif algo == "dftcl":
            dftcl_round(eng, grads[t - 1])
            engine.round(grads[t - 1])
            for name in _DFTCL_STATE:
                assert np.asarray(getattr(engine, name)).tobytes() == np.asarray(getattr(eng, name)).tobytes(), name
        else:
            eng.round(grads[t - 1])
        if algo == "dftfcl":
            if t % L:
                continue
            # At the end of block b the learners have streamed blocks 1..b-1
            # and the server has broadcast what they had streamed by block b-1.
            fed = grads[: t - L].sum(axis=0)
            consumed = up.total(held_back=1).mean(axis=-2)
        else:  # every step is one completed transfer (uniform weights: alpha = 1)
            fed = grads[:t].sum(axis=0)
            consumed = up.total().mean(axis=-2)
        np.testing.assert_allclose(eng.e, fed - up.total(), atol=1e-9)
        np.testing.assert_allclose(eng.e_hat, consumed - down.total()[..., 0, :], atol=1e-9)
        np.testing.assert_allclose(eng.s_sum, down.total()[..., 0, :], atol=1e-9)

    rounds = {"dftcl": 1, "dftfcl": 1, "o2b": L}[algo]
    skipped = {"dftcl": (0, 0), "dftfcl": (L, 2 * L), "o2b": (0, 0)}[algo]  # dftfcl's warm-up rounds
    assert eng.msgs_up == n * rounds * max(steps - skipped[0], 0)
    assert eng.msgs_down == rounds * max(steps - skipped[1], 0)
    whole = algo != "dftfcl" or steps % L == 0  # no transfer is part-streamed
    if whole:
        assert (eng.msgs_up, eng.msgs_down) == (up.msgs(), down.msgs())
    if algo == "dftfcl":  # the transfers streaming at the end are counted up to this round
        want = up.streamed(steps, L, 1), down.streamed(steps, L, 2)
    else:
        want = up.bits(), down.bits()
    assert np.array_equal(eng.bits_up, want[0]) and np.array_equal(eng.bits_down, want[1])
    assert all(type(c) is int for c in (eng.msgs_up, eng.msgs_down))
    assert all(type(c) is (np.ndarray if lockstep else int) for c in (eng.bits_up, eng.bits_down))
    if whole:
        for bits, msgs in ((eng.bits_up, eng.msgs_up), (eng.bits_down, eng.msgs_down)):
            bits = np.asarray(bits)
            if isinstance(spec, RandomGossip):
                # Delivered messages cost 64 d bits and failed ones one flag bit.
                delivered, rest = np.divmod(bits - msgs, 64 * d - 1)
                assert np.all(rest == 0) and np.all((0 <= delivered) & (delivered <= msgs))
                if msgs >= 40:
                    assert np.all((0 < delivered) & (delivered < msgs))
            else:
                per_msg = {Identity: 64 * d, RandK: 2 * (64 + math.ceil(math.log2(d))), ScaledSign: d + 64}[type(spec)]
                assert np.all(bits == msgs * per_msg)

    if algo != "dftfcl":
        return
    spanned = build()
    up, down = spanned._up, spanned._down = _Recorder(spanned._up, 1), _Recorder(spanned._down, 1)
    bounds = sorted({0, steps, *(c for c in cuts if c < steps)})
    for a, b in zip(bounds, bounds[1:]):
        _, bits_up, bits_down = spanned.advance(grads[a:b])
        for t in range(a + 1, b + 1):
            assert np.array_equal(bits_up[t - a - 1], up.streamed(t, L, 1)), t
            assert np.array_equal(bits_down[t - a - 1], down.streamed(t, L, 2)), t
    for name in _DFTCL_STATE + ("anchor_sum", "_z_acc", "block"):
        assert np.asarray(getattr(spanned, name)).tobytes() == np.asarray(getattr(eng, name)).tobytes(), name


@pytest.mark.parametrize("seed", [4, (4, 5)], ids=["single", "lockstep"])
@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=["identity", "randk", "sign", "gossip"])
@pytest.mark.parametrize("algo", ["dftcl", "dftfcl"])
def test_writing_into_returned_messages_changes_no_later_round(algo, spec, seed):
    # round() returns the messages it sent without copying them, so the
    # engine must hold no reference to them.
    n, d, L, T = 3, 5, 3, 30
    grads = np.random.default_rng(5).normal(size=(T,) + np.shape(seed)[:1] + (n, d))
    if algo == "dftcl":
        clean, written_into = (Dftcl(Ball(1.0, d), n, spec, eta=0.3, seed=seed) for _ in range(2))
    else:
        clean, written_into = (Dftfcl(Ball(1.0, d), n, spec, L, eta=0.3, seed=seed) for _ in range(2))
    messages = 0
    for g in grads:
        clean.round(g)
        info = written_into.round(g)
        for msg in (info.v, info.s):
            if msg is not None:
                msg[...] = np.nan
                messages += 1
        for name in ("decision", "e", "e_hat", "s_sum", "bits_up", "bits_down"):
            assert np.asarray(getattr(written_into, name)).tobytes() == np.asarray(getattr(clean, name)).tobytes()
    # Dftcl sends both messages every round; Dftfcl completes an uplink from
    # block 2 and a downlink from block 3 on.
    assert messages == (2 * T if algo == "dftcl" else 2 * (T // L) - 3)


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


@pytest.mark.parametrize("lockstep", [False, True], ids=["single", "lockstep"])
@pytest.mark.parametrize("algo", ["dftcl", "dftfcl", "o2b"])
def test_engines_reject_gradient_rows_of_the_wrong_shape(algo, lockstep):
    # One row for every learner, a learner or coordinate short, or in
    # lockstep one replication's rows: refused before anything is sent, so
    # the engine then plays as one that never saw them.
    n, d, L = 3, 4, 2
    lead, seed = ((2,), (1, 2)) if lockstep else ((), 1)
    build = {
        "dftcl": lambda: Dftcl(Ball(1.0, d), n, RandK(2), eta=0.3, seed=seed),
        "dftfcl": lambda: Dftfcl(Ball(1.0, d), n, RandK(2), L, eta=0.3, seed=seed),
        "o2b": lambda: O2b(Ball(1.0, d), n, RandK(2), L, eta=0.3, seed=seed),
    }[algo]
    eng, clean = build(), build()
    bad = [np.ones(d), np.ones(lead + (n - 1, d)), np.ones(lead + (n, d + 1)), np.ones((n, d) if lockstep else (2, n, d))]
    for g in bad:
        if algo == "o2b":
            with pytest.raises(ConfigError, match=r"^grads: must be shape"):
                eng.step(_StubProblem([g]), None)
            continue
        with pytest.raises(ConfigError, match=r"^grads: must be shape"):
            eng.round(g)
        with pytest.raises(ConfigError, match=r"^grads: must be k rows of shape"):
            eng.advance(g[None])
    if algo != "o2b":
        with pytest.raises(ConfigError, match=r"^grads: must be k rows of shape"):
            eng.advance(np.ones(lead + (n, d)))  # one round's rows, not a span of them
    else:  # the public step's failed queries moved only t and the iterate average
        eng.t, eng._x_weighted, eng._alpha_total = clean.t, clean._x_weighted.copy(), clean._alpha_total
    for g in np.random.default_rng(0).normal(size=(4,) + lead + (n, d)):
        if algo == "o2b":
            eng.step(_StubProblem([g]), None)
            clean.step(_StubProblem([g]), None)
        else:
            eng.round(g)
            clean.round(g)
    for name in ("decision", "e", "e_hat", "s_sum", "bits_up", "bits_down", "msgs_up", "msgs_down", "t"):
        assert np.asarray(getattr(eng, name)).tobytes() == np.asarray(getattr(clean, name)).tobytes(), name


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("key", ["eta", "mu"])
@pytest.mark.parametrize("algo", ["dftcl", "dftfcl", "o2b"])
def test_engines_reject_a_step_parameter_that_is_not_positive_and_finite(algo, key, value):
    # An infinite eta or mu would play nan decisions from round 1 on.
    fs = Ball(1.0, 4)
    build = {
        "dftcl": lambda **kw: Dftcl(fs, 2, RandK(2), **kw),
        "dftfcl": lambda **kw: Dftfcl(fs, 2, RandK(2), 2, **kw),
        "o2b": lambda **kw: O2b(fs, 2, RandK(2), 2, weights="uniform" if key == "eta" else "linear", **kw),
    }[algo]
    with pytest.raises(ConfigError, match=f"^{key}: must be positive and finite"):
        build(**{key: value})


# ---------------------------------------------------------------------------
# Replications in lockstep: a batch of engines is R single-seed engines
# ---------------------------------------------------------------------------


class _Oracle:
    """Stochastic oracle of fixed base gradients plus half the query point, so
    the gradients depend on the path; ``r`` picks one replication's rows."""

    def __init__(self, base, r=None):
        self.base, self.r, self.calls = base, r, 0

    def stochastic_grads(self, x, rng):
        g = self.base[self.calls] if self.r is None else self.base[self.calls, self.r]
        self.calls += 1
        return g + 0.5 * x[..., None, :]


def _lockstep_engine(kind, fs, n, spec, seed):
    L = 3
    return {
        "dftcl": lambda: Dftcl(fs, n, spec, eta=0.3, seed=seed),
        "dftcl_unidirectional": lambda: Dftcl(fs, n, spec, eta=0.3, unidirectional=True, seed=seed),
        "dftcl_mu": lambda: Dftcl(fs, n, spec, mu=0.7, seed=seed),
        "dftfcl": lambda: Dftfcl(fs, n, spec, L, eta=0.3, seed=seed),
        "o2b": lambda: O2b(fs, n, spec, L, weights="uniform", eta=0.3, seed=seed),
        "o2b_linear": lambda: O2b(fs, n, spec, L, weights="linear", mu=0.7, seed=seed),
    }[kind]()


@pytest.mark.parametrize("set_kind", ["box", "ball"])
@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=["identity", "randk", "sign", "gossip"])
@pytest.mark.parametrize(
    "kind", ["dftcl", "dftcl_unidirectional", "dftcl_mu", "dftfcl", "o2b", "o2b_linear"]
)
def test_lockstep_batch_equals_single_seed_engines(kind, spec, set_kind):
    n, d, R = 3, 5, 3
    steps = 90 if kind.startswith("o2b") else 270  # every stream refills its chunk of draws
    fs = Ball(0.8, d) if set_kind == "ball" else Box(-0.6 * np.ones(d), 0.4 * np.ones(d))
    seeds = (11, 12, 13)
    batch = _lockstep_engine(kind, fs, n, spec, seeds)
    singles = [_lockstep_engine(kind, fs, n, spec, s) for s in seeds]
    assert len(batch._up.rngs) == R * n and batch.decision.shape == (R, d)
    base = np.random.default_rng(7).normal(size=(steps, R, n, d))
    oracles = [_Oracle(base)] + [_Oracle(base, r) for r in range(R)]
    for t in range(steps):
        for r, eng in [(None, batch)] + list(enumerate(singles)):
            if kind.startswith("o2b"):
                eng.step(oracles[0 if r is None else r + 1], None)
            else:
                g = base[t] if r is None else base[t, r]
                eng.round(g + 0.5 * eng.decision[..., None, :])
        for r, eng in enumerate(singles):
            for name in ("decision", "e", "e_hat", "s_sum", "anchor_sum"):
                assert getattr(batch, name)[r].tobytes() == getattr(eng, name).tobytes(), (t, r, name)
            assert (batch.bits_up[r], batch.bits_down[r]) == (eng.bits_up, eng.bits_down)
            assert (batch.msgs_up, batch.msgs_down) == (eng.msgs_up, eng.msgs_down)
    for eng in singles:  # the single-seed engines keep their plain layout
        assert eng.decision.shape == (d,) and eng.e.shape == (n, d) and eng.e_hat.shape == (d,)
        assert all(type(c) is int for c in (eng.bits_up, eng.bits_down, eng.msgs_up, eng.msgs_down))
