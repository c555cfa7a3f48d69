import math
import time
import tracemalloc
from concurrent.futures import wait
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import doco.harness as harness
from doco.compressors import Identity, RandK, derive_seed
from doco.domains import Ball, Box, ConfigError
from doco.environments import LadProblem, LinearAdversary, make_linear_adversary
from doco.harness import (
    MeanTrace,
    RegretTrace,
    RunConfig,
    fit_rate,
    monte_carlo,
    parse_set,
    run,
    verify_lemma,
)
from oracles import BlackBoxLoss, dftcl_round, minimize_convex, per_row_csv


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


def test_missing_horizon_names_the_field():
    with pytest.raises(ConfigError, match="^T"):
        run(RunConfig(T=None))
    with pytest.raises(ConfigError, match="^T"):
        run(RunConfig(T=0))


@pytest.mark.parametrize(
    "bad,field",
    [
        (dict(T=100, algo="sgd"), "algo"),
        (dict(T=100, env="mnist"), "env"),
        (dict(T=100, compressor="topk:2"), "compressor"),
        (dict(T=100, eta=-0.5), "eta"),
        (dict(T=100, algo="dftcl", L=4), "L"),
        (dict(T=100, algo="dftfcl", unidirectional=True), "unidirectional"),
        (dict(T=100, algo="dftcl", weights="linear"), "weights"),
        (dict(T=100, mu=1.0), "mu"),
        (dict(T=100, env="sc_quadratic"), "mu"),
        (dict(T=100, env="lad"), "env"),
        (dict(T=100, algo="o2b"), "env"),
        (dict(T=100, env="sc_lower", mu=1.0, G=2.0), "G"),
        (dict(T=2, algo="o2b", env="lad", compressor="randk:1", d=4, L=4), "T"),
        (dict(T=64, algo="o2b", env="lad", compressor="randk:1", d=4, L=4, weights="linear"), "mu"),
        (dict(T=64, algo="o2b", env="lad", compressor="randk:1", d=4, L=4, weights="linear", mu=0.1, eta=0.1), "eta"),
        (dict(T=100, feasible="ball:1", d=4, D=3.0), "D"),
        (dict(T=100, feasible="cube:1"), "set"),
        (dict(T=100, feasible="box:a:1"), "set"),
        (dict(T=100, feasible="box:1:2"), "set"),
        (dict(T=100, feasible=Ball(1.0, 3), d=4), "set"),
        (dict(T=100, env="convex_lower", feasible="ball:1"), "set"),
        (dict(T=100, compressor=42), "compressor"),
        (dict(T=100, compressor=object()), "compressor"),
        (dict(T=100, seed=1.5), "seed"),
        (dict(T=100, seed=True), "seed"),
        (dict(T=100, samples=5), "samples"),
        (dict(T=100, env="convex_lower", samples=5), "samples"),
    ],
)
def test_config_errors_name_offending_field(bad, field):
    with pytest.raises(ConfigError) as err:
        run(RunConfig(**bad))
    assert err.value.field == field


def test_non_uniform_box_has_no_label():
    with pytest.raises(ConfigError, match="^set: only uniform boxes"):
        harness.set_label(Box(-np.ones(2), np.array([1.0, 2.0])))


def test_parse_set():
    box = parse_set("box:-1:2", 3)
    np.testing.assert_array_equal(box.lo, -np.ones(3))
    np.testing.assert_array_equal(box.hi, 2 * np.ones(3))
    ball = parse_set("ball:1.5", 2)
    assert ball.radius == 1.5 and ball.d == 2
    for text in ("box:-1.0:2.0", "ball:1.5"):
        assert harness.set_label(parse_set(text, 3)) == text


# ---------------------------------------------------------------------------
# run()
# ---------------------------------------------------------------------------


def test_run_deterministic_traces():
    cfg = RunConfig(T=200, n=3, d=4, compressor="randk:2", seed=9)
    a, b = run(cfg), run(cfg)
    np.testing.assert_array_equal(a.regret, b.regret)
    np.testing.assert_array_equal(a.bits_up, b.bits_up)
    c = run(replace(cfg, seed=10))
    assert not np.array_equal(a.regret, c.regret)


def test_run_zero_losses_zero_regret():
    # Zero out every chunk the adversary draws: cumulative loss, comparator,
    # and regret all collapse to exactly zero under a lossless compressor.
    plan = harness._resolve(RunConfig(T=64, n=2, d=3, compressor="identity", seed=0))
    plan.env._rows.draw = lambda rng, k: np.zeros((k, 2, 3))
    trace = harness._run_online([plan], keep_decisions=False)[0]
    np.testing.assert_array_equal(trace.cum_loss, np.zeros(64))
    np.testing.assert_array_equal(trace.regret, np.zeros(64))


def test_regret_recomputed_by_independent_second_pass():
    cfg = RunConfig(T=300, n=4, d=6, compressor="randk:2", seed=5, G=1.0, D=2.0)
    trace = run(cfg, keep_decisions=True)
    # Rebuild the adversary exactly as the harness derives it and replay the
    # stored decisions against the loss definitions, round by round.
    env = make_linear_adversary(4, 6, 300, 1.0, derive_seed(5, harness._ENV))
    hind = trace.comparator_point
    cum = 0.0
    comp = 0.0
    for t in range(1, 301):
        g = env.grads(t, trace.decisions[t - 1]).mean(axis=0)
        cum += float(g @ trace.decisions[t - 1])
        comp += float(g @ hind)
        assert trace.regret[t - 1] == pytest.approx(cum - comp, abs=1e-7)


def test_regret_recomputation_o2b_surrogates():
    cfg = RunConfig(
        algo="o2b", env="lad", T=64, n=2, d=3, compressor="randk:1", L=2, seed=4
    )
    trace = run(cfg, keep_decisions=True)
    # Surrogate regret telescopes: cum - comparator at the last row matches
    # recomputation from stored iterates/decisions via the problem oracle.
    assert trace.subopt is not None
    assert trace.t[-1] == 64
    assert np.all(np.diff(trace.t) == 2)


def test_dftfcl_tail_rounds_replay_last_decision():
    cfg = RunConfig(algo="dftfcl", T=103, n=2, d=4, compressor="randk:2", L=10, seed=1)
    trace = run(cfg, keep_decisions=True)
    np.testing.assert_array_equal(trace.decisions[100], trace.decisions[102])
    assert trace.bits_up[-1] == trace.bits_up[99]  # no tail communication


def test_bits_columns_are_cumulative_message_costs():
    cfg = RunConfig(T=50, n=3, d=16, compressor="randk:4", seed=2)
    trace = run(cfg)
    per_msg = 4 * (64 + 4)
    np.testing.assert_array_equal(trace.bits_up, per_msg * 3 * np.arange(1, 51))
    np.testing.assert_array_equal(trace.bits_down, per_msg * np.arange(1, 51))


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(T=64, n=2, d=3, env="sc_quadratic", mu=0.5, G=1.0, D=1.0, seed=0),
        RunConfig(T=300, n=4, d=3, env="sc_lower", compressor="gossip:0.25", mu=0.5, seed=1),
    ],
    ids=["sc_quadratic", "sc_lower"],
)
def test_curved_online_comparator_is_exact(cfg):
    # The solver oracle sees the summed loss only through the environment's
    # per-round losses and gradients.
    trace = run(cfg)
    env = harness._resolve(cfg).env
    loss = BlackBoxLoss(
        lambda w: float(env.mean_loss_curve(w).sum()),
        lambda w: sum(env.grads(t, w).mean(axis=0) for t in range(1, cfg.T + 1)),
        mu=cfg.mu * cfg.T,
    )
    _, value = minimize_convex(env.feasible, loss)
    assert env.feasible.contains(trace.comparator_point, tol=0.0)
    assert trace.comparator_value == pytest.approx(value, rel=1e-12)
    assert trace.comparator[-1] == pytest.approx(value, rel=1e-12)
    if cfg.env == "sc_quadratic":  # anchors uniform in the box: the minimizer is their mean
        expected = env._rows.rows(0, cfg.T).mean(axis=(0, 1))
        np.testing.assert_allclose(trace.comparator_point, expected, rtol=1e-12, atol=1e-15)


def test_o2b_linear_weights_comparator_is_exact(monkeypatch):
    # At mu = 0.1 the surrogate's unconstrained minimizer leaves the box in
    # coordinate 2, so the comparator is a projection that binds.  The oracle
    # sums the surrogate losses alpha_t (<gbar_t, w> + (mu/2) ||w - x_t||^2)
    # from the paths the driver recorded.
    cfg = RunConfig("o2b", "lad", 256, 3, 4, "randk:2", weights="linear", mu=0.1, samples=16, seed=0)
    paths, trace_of = [], harness._o2b_trace

    def recording(plan, X, Wp, gbar, *rest):
        paths.append((plan.feasible, X, gbar))
        return trace_of(plan, X, Wp, gbar, *rest)

    monkeypatch.setattr(harness, "_o2b_trace", recording)
    trace = run(cfg)
    (box, X, gbar), mu = paths[0], cfg.mu
    alphas = np.arange(1, X.shape[0] + 1, dtype=np.float64)

    def value(w):
        return float((alphas * (gbar @ w + 0.5 * mu * ((w - X) ** 2).sum(axis=1))).sum())

    def subgrad(w):
        return (alphas[:, None] * (gbar + mu * (w - X))).sum(axis=0)

    _, oracle = minimize_convex(box, BlackBoxLoss(value, subgrad, mu=mu * alphas.sum()))
    point = trace.comparator_point
    assert box.contains(point, tol=0.0)
    assert point[2] == 0.0 and abs(subgrad(point)[2]) > 1.0  # binding: the gradient points out of the box
    assert trace.comparator_value == pytest.approx(oracle, rel=1e-12)
    assert value(point) == pytest.approx(oracle, rel=1e-12)
    assert trace.comparator[-1] == pytest.approx(oracle, rel=1e-12)


def test_geometric_rows_match_the_dense_trace_and_a_full_pass():
    # Above 2^16 rounds the trace keeps ~4k rows, so most chunks keep none.
    # With eta fixed, the first 2^16 rounds replay a dense run exactly; the
    # comparator column is checked against the public full-length calls.
    cfg = RunConfig(T=70_000, n=2, d=2, eta=0.01, seed=3)
    sparse, dense = run(cfg), run(replace(cfg, T=2**16))
    assert sparse.t.shape[0] < 5000 and sparse.t[-1] == 70_000
    head = sparse.t <= 2**16
    for field in ("cum_loss", "bits_up", "bits_down"):
        got, want = getattr(sparse, field)[head], getattr(dense, field)[sparse.t[head] - 1]
        assert got.tobytes() == want.tobytes()
    env = make_linear_adversary(2, 2, 70_000, 1.0, derive_seed(3, harness._ENV))
    point = harness.best_in_hindsight(Ball(1.0, 2), env.hindsight()).point
    assert point.tobytes() == sparse.comparator_point.tobytes()
    curve = np.cumsum(env.mean_loss_curve(point))[sparse.t - 1]
    assert curve.tobytes() == sparse.comparator.tobytes()
    assert (sparse.cum_loss - curve).tobytes() == sparse.regret.tobytes()


def test_trace_sampling_dense_and_geometric():
    assert harness._sample_rounds(100).shape[0] == 100
    big = harness._sample_rounds(2**18)
    assert big.shape[0] < 5000
    assert big[0] == 1 and big[-1] == 2**18
    assert np.all(np.diff(big) > 0)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_single_rep_equals_run_at_derived_seed():
    cfg = RunConfig(T=100, n=2, d=4, compressor="randk:2", seed=3)
    mean = monte_carlo(cfg, reps=1)
    single = run(replace(cfg, seed=derive_seed(3, harness._REP, 0)))
    np.testing.assert_array_equal(mean.regret, single.regret)
    np.testing.assert_array_equal(mean.regret_stderr, np.zeros_like(single.regret))


def test_monte_carlo_mean_of_constant_traces(monkeypatch):
    cfg = RunConfig(T=10, seed=0)
    fixed = run(cfg)
    monkeypatch.setattr(harness, "_run_batch", lambda config, seeds, keep_decisions=False: [fixed] * len(seeds))
    mean = monte_carlo(cfg, reps=5)
    np.testing.assert_allclose(mean.regret, fixed.regret, rtol=1e-15)
    np.testing.assert_allclose(mean.regret_stderr, np.zeros_like(fixed.regret), atol=1e-15)


def test_monte_carlo_stderr_shrinks_like_sqrt_reps():
    cfg = RunConfig(T=128, n=2, d=4, compressor="gossip:0.5", seed=0)
    se_small = monte_carlo(cfg, reps=100).final_regret_stderr
    se_big = monte_carlo(cfg, reps=400).final_regret_stderr
    ratio = se_small / se_big
    assert 1.3 <= ratio <= 3.0


def test_monte_carlo_seeds_never_collide():
    seeds = [derive_seed(0, harness._REP, r) for r in range(1000)]
    assert len(set(seeds)) == 1000


def test_monte_carlo_workers_match_sequential():
    cfg = RunConfig(T=64, n=2, d=4, compressor="randk:2", seed=1)
    seq = monte_carlo(cfg, reps=4, workers=1)
    par = monte_carlo(cfg, reps=4, workers=2)
    np.testing.assert_array_equal(seq.regret, par.regret)


def _mean_of_runs(cfg, reps):
    """The Monte Carlo mean assembled from one ``run`` per replication seed."""
    traces = [run(replace(cfg, seed=derive_seed(cfg.seed, harness._REP, r))) for r in range(reps)]
    regret = np.stack([tr.regret for tr in traces])
    subopt = None if traces[0].subopt is None else np.stack([tr.subopt for tr in traces])
    return MeanTrace(
        t=traces[0].t,
        cum_loss=np.stack([tr.cum_loss for tr in traces]).mean(axis=0),
        comparator=np.stack([tr.comparator for tr in traces]).mean(axis=0),
        regret=regret.mean(axis=0),
        regret_stderr=harness._stderr(regret),
        bits_up=np.stack([tr.bits_up for tr in traces]).mean(axis=0),
        bits_down=np.stack([tr.bits_down for tr in traces]).mean(axis=0),
        subopt=None if subopt is None else subopt.mean(axis=0),
        subopt_stderr=None if subopt is None else harness._stderr(subopt),
        reps=reps,
    )


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(algo="dftcl", T=300, n=3, d=5, compressor="gossip:0.3", seed=4),
        RunConfig(algo="dftfcl", env="sc_quadratic", T=301, n=3, d=5, mu=0.5, compressor="randk:2", seed=4),
        RunConfig(algo="o2b", env="lad", T=300, n=3, d=5, samples=8, compressor="gossip:0.5", seed=4),
        RunConfig(algo="dftcl", env="convex_lower", T=300, n=3, d=5, compressor="gossip:0.3", seed=4),
        RunConfig(algo="dftfcl", env="sc_lower", T=301, n=3, d=5, mu=0.5, compressor="gossip:0.25", seed=4),
    ],
    ids=["dftcl", "dftfcl", "o2b", "dftcl_convex_lower", "dftfcl_sc_lower"],
)
@pytest.mark.parametrize("reps,workers", [(5, 2), (17, 1)])
def test_monte_carlo_bytes_equal_mean_of_single_runs(cfg, reps, workers, tmp_path):
    # (5, 2) splits unevenly, 3 + 2; (17, 1) needs more than one batch, 9 + 8.
    # dftfcl's blocks of L = 3 leave one tail round that replays the last decision.
    mean, ref = tmp_path / "mean.csv", tmp_path / "ref.csv"
    monte_carlo(cfg, reps=reps, workers=workers).to_csv(mean)
    _mean_of_runs(cfg, reps).to_csv(ref)
    assert mean.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize(
    "env_kw",
    [{}, {"env": "sc_quadratic", "mu": 0.5}, {"env": "convex_lower"}, {"env": "sc_lower", "mu": 0.5}],
    ids=["linear", "sc_quadratic", "convex_lower", "sc_lower"],
)
@pytest.mark.parametrize("seeds", [(7,), (7, 8, 9)])
def test_driver_gradients_equal_public_grads_in_backward_order(monkeypatch, env_kw, seeds):
    # The driver reads each chunk's held (for a batch, stacked) tables; the
    # public grads(t, w) of fresh environments, asked from round T back to
    # round 1, must give the same gradients at the decisions played.  The
    # driver advances the engine a span of rounds at a time.
    cfg = RunConfig(algo="dftcl", T=300, n=3, d=5, compressor="gossip:0.5", seed=4, **env_kw)
    seen = []
    advance = harness.Dftcl.advance

    def spy(self, rows, out=None):
        played = advance(self, rows, out)
        for w, grads in zip(played[0], rows, strict=True):
            seen.append((w.reshape(-1, cfg.d).copy(), grads.reshape(-1, cfg.n, cfg.d).copy()))
        return played

    monkeypatch.setattr(harness.Dftcl, "advance", spy)
    harness._run_batch(cfg, seeds)
    assert len(seen) == cfg.T
    for r, seed in enumerate(seeds):
        env = harness._resolve(replace(cfg, seed=seed)).env
        for t in range(cfg.T, 0, -1):
            w, g = seen[t - 1]
            assert env.grads(t, w[r]).tobytes() == g[r].tobytes()


def test_monte_carlo_one_row_trace_bytes_equal_mean_of_single_runs(tmp_path):
    # At T = 1 every column stacks into one column, which numpy sums pairwise,
    # so 50 replications in batches of 12, 13, 12 and 13 need the rows, not running sums.
    cfg = RunConfig(env="sc_quadratic", T=1, n=3, d=5, mu=0.4, compressor="gossip:0.5", seed=0)
    mean, ref = tmp_path / "mean.csv", tmp_path / "ref.csv"
    monte_carlo(cfg, reps=50, workers=1).to_csv(mean)
    _mean_of_runs(cfg, 50).to_csv(ref)
    assert mean.read_bytes() == ref.read_bytes()


@st.composite
def _lockstep_case(draw):
    """A config any algorithm and environment resolve, its T a multiple of
    neither the 256-round chunk nor the block size L, and R replication seeds."""
    algo = draw(st.sampled_from(harness.ALGOS))
    env = "lad" if algo == "o2b" else draw(st.sampled_from(["linear", "sc_quadratic", "convex_lower", "sc_lower"]))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    compressor = draw(st.sampled_from(["identity", "sign", f"randk:{draw(st.integers(1, d))}", "gossip:0.5"]))
    L = None if algo == "dftcl" else draw(st.integers(2, 4))
    T = draw(st.integers(100, 600).filter(lambda T: T % 256 and T % (L or 256)))
    mu = 0.5 if env in ("sc_quadratic", "sc_lower") else None
    seeds = tuple(draw(st.lists(st.integers(0, 2**32), min_size=2, max_size=4, unique=True)))
    return RunConfig(algo, env, T, n, d, compressor, L=L, mu=mu), seeds


@settings(max_examples=25, deadline=None)
@given(case=_lockstep_case())
def test_lockstep_batch_traces_equal_single_runs(case, tmp_path_factory):
    cfg, seeds = case
    batch, single = tmp_path_factory.getbasetemp() / "batch.csv", tmp_path_factory.getbasetemp() / "single.csv"
    for seed, trace in zip(seeds, harness._run_batch(cfg, seeds), strict=True):
        ref = run(replace(cfg, seed=seed))
        trace.to_csv(batch)
        ref.to_csv(single)
        assert batch.read_bytes() == single.read_bytes()
        assert trace.comparator_point.tobytes() == ref.comparator_point.tobytes()


@st.composite
def _span_case(draw, algo):
    """A config of ``algo``, its T a multiple of neither the 256-round chunk
    nor L, R replication seeds, cut points that split the rounds into spans,
    and the share of gradient rows to turn into -0.0."""
    env = draw(st.sampled_from(["linear", "convex_lower", "sc_quadratic"]))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    compressor = draw(st.sampled_from(["identity", f"randk:{draw(st.integers(1, d))}", "gossip:0.5", "sign"]))
    L = None if algo == "dftcl" else draw(st.sampled_from([1, 2, 3, 4, 5]))
    T = draw(st.integers(20, 600).filter(lambda T: T % 256 and (L in (None, 1) or T % L)))
    cfg = RunConfig(
        algo, env, T, n, d, compressor, L=L, mu=0.5 if env == "sc_quadratic" else None,
        unidirectional=algo == "dftcl" and draw(st.booleans()),
    )  # fmt: skip
    seeds = tuple(draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=4, unique=True)))
    cuts = sorted(set(draw(st.lists(st.integers(1, T - 1), min_size=1, max_size=12))))
    return cfg, seeds, cuts, draw(st.sampled_from([0.0, 0.5, 1.0]))


_ENGINE_STATE = ("decision", "e", "e_hat", "s_sum", "anchor_sum", "bits_up", "bits_down", "msgs_up", "msgs_down", "t")


@pytest.mark.parametrize("step", ["eta", "mu"])
@pytest.mark.parametrize("algo", ["dftcl", "dftfcl"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_engine_spans_equal_round_by_round(algo, step, data):
    # advance over any split of the rounds plays the decisions, counts the
    # bits and leaves every state array as round after round does: Dftcl's
    # reference round (oracles.dftcl_round), Dftfcl's round.  Rows that
    # depend on the decision come in the spans the driver gives them: one
    # round (Dftcl) or up to the block's end (Dftfcl).  A one-round span
    # goes through round every other time.  Whole learner rows of -0.0 pin
    # the signs of zero sums.
    cfg, seeds, cuts, zero_share = data.draw(_span_case(algo))
    plans = [harness._resolve(replace(cfg, seed=s, eta=0.05 if step == "eta" else None)) for s in seeds]
    if step == "mu":
        plans = [replace(p, eta=None, mu_step=0.5) for p in plans]
    stepped, spanned = harness._engine(plans), harness._engine(plans)
    env, T = plans[0].env, cfg.T
    table = np.empty((T, len(seeds), cfg.n, cfg.d))
    for c, a, b in harness.envs._chunks(T):
        for r, p in enumerate(plans):
            p.env._hold(c)
            table[a:b, r] = p.env._table
    table = table if len(seeds) > 1 else table[:, 0]
    zeros = np.random.default_rng(T).random(table.shape[:-1] + (1,)) < zero_share

    def grads(t, k, decision):  # rounds t+1..t+k at the decision
        return np.where(zeros[t : t + k], -0.0, env._gradient(table[t : t + k], decision))

    names = _ENGINE_STATE + (("_z_acc", "block") if algo == "dftfcl" else ())
    W, up, down, states = [], [], [], {}
    for t in range(T):
        W.append(stepped.decision)
        if algo == "dftcl":
            dftcl_round(stepped, grads(t, 1, stepped.decision)[0])
        else:
            stepped.round(grads(t, 1, stepped.decision)[0])
        up.append(np.array(stepped.bits_up))  # in lockstep, arrays the engine adds to in place
        down.append(np.array(stepped.bits_down))
        states[t + 1] = [np.asarray(getattr(stepped, name)).tobytes() for name in names]
    bounds = [0, *cuts, T]
    for a, b in zip(bounds, bounds[1:]):
        t = a
        while t < b:
            k = b - t if env._ignores_decision else min(spanned.L - spanned.t % spanned.L, b - t)
            if k == 1 and t % 2:
                played = (spanned.round(grads(t, 1, spanned.decision)[0]).w_played[None],)
                played += (np.asarray(spanned.bits_up)[None], np.asarray(spanned.bits_down)[None])
            else:
                played = spanned.advance(grads(t, k, spanned.decision))
            played, bits_up, bits_down = played
            for j in range(k):
                assert played[j].tobytes() == W[t + j].tobytes(), ("decision", t + j)
                assert bits_up[j].tobytes() == up[t + j].tobytes()
                assert bits_down[j].tobytes() == down[t + j].tobytes()
            t += k
            got = [np.asarray(getattr(spanned, name)).tobytes() for name in names]
            assert got == states[t], (t, [name for name, x, y in zip(names, got, states[t]) if x != y])


@pytest.mark.parametrize("S", [1, 5, harness._CSV_BLOCK + 3])
@pytest.mark.parametrize("kind", ["run", "mean"])
@pytest.mark.parametrize("subopt", [False, True])
def test_csv_writer_bytes_equal_the_row_writer(S, kind, subopt, tmp_path):
    # Signed zeros, subnormals, huge and tiny reals; integer bit counts above
    # 2^53 (a run's, which go through float64) and non-integral mean counts.
    rng = np.random.default_rng(S)
    special = [-0.0, 0.0, 5e-324, -1e-310, 1e300, -1.5, 0.1, 2.0**53 + 2.0]

    def reals():
        x = rng.standard_normal(S) * 10.0 ** rng.integers(-300, 300, S)
        pick = rng.random(S) < 0.5
        x[pick] = rng.choice(special, pick.sum())
        return x

    def counts():
        if kind == "run":
            return rng.choice(np.array([0, 1, 2**53 - 1, 2**53 + 1, 2**62 + 7, 123456789], dtype=np.int64), S)
        return np.where(rng.random(S) < 0.5, rng.integers(0, 2**40, S) / 3.0, rng.choice([2.0**53 + 2.0, 1e20, 7.0, -0.0], S))

    common = dict(
        t=3 * np.arange(1, S + 1), cum_loss=reals(), comparator=reals(), regret=reals(),
        bits_up=counts(), bits_down=counts(), subopt=reals() if subopt else None,
    )  # fmt: skip
    if kind == "run":
        trace = RegretTrace(**common, comparator_point=np.zeros(2), comparator_value=0.0)
    else:
        trace = MeanTrace(**common, regret_stderr=reals(), subopt_stderr=None, reps=3)
    trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == per_row_csv(trace).encode()


@pytest.mark.parametrize("S", [1, 5])
def test_mean_fold_sums_integer_bit_columns_exactly(S):
    # The bit columns are int64 and are carried as integer sums; the means
    # equal those of a float64 sum of all the rows at once (exact below 2^53).
    rng = np.random.default_rng(S)
    bits = rng.integers(0, 2**44, size=(17, S))
    fold = harness._MeanFold(17)
    for batch in np.array_split(np.arange(17), [5, 11]):
        fold.add([
            RegretTrace(
                t=np.arange(1, S + 1), cum_loss=bits[r] / 3.0, comparator=np.zeros(S), regret=np.zeros(S),
                bits_up=bits[r], bits_down=bits[r][::-1].copy(), subopt=None, comparator_point=np.zeros(2),
                comparator_value=0.0,
            )
            for r in batch
        ])  # fmt: skip
    mean = fold.result()
    for got, rows in ((mean.bits_up, bits), (mean.bits_down, bits[:, ::-1])):
        assert got.dtype == np.float64
        assert got.tobytes() == (np.add.reduce(rows, axis=0, dtype=np.float64) / 17).tobytes()
        assert got.tobytes() == (rows.sum(axis=0) / 17).tobytes()
    assert mean.cum_loss.tobytes() == ((bits / 3.0).sum(axis=0) / 17).tobytes()


class _NanFrom37(LinearAdversary):
    """The linear adversary, but every gradient table row from round 37 on is NaN."""

    def _load(self, a, b):
        super()._load(a, b)
        self._table = np.where((np.arange(a + 1, b + 1) >= 37)[:, None, None], np.nan, self._table)


def _nan_gradients(monkeypatch):
    monkeypatch.setattr(harness.envs, "make_linear_adversary", lambda *args: _NanFrom37(*args))
    return RunConfig(T=300, n=2, d=3, compressor="identity", seed=1)


def test_run_rejects_non_finite_decisions(monkeypatch):
    cfg = _nan_gradients(monkeypatch)
    # Round 37's NaN gradient reaches the decision played in round 38.
    with pytest.raises(ConfigError, match=r"not finite from round 38 on") as err:
        run(cfg)
    assert err.value.field == "decision"


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_rejects_non_finite_decisions(monkeypatch, workers):
    cfg = _nan_gradients(monkeypatch)
    first_seed = derive_seed(cfg.seed, harness._REP, 0)
    with pytest.raises(ConfigError, match=rf"not finite from round 38 on \(seed {first_seed}\)") as err:
        monte_carlo(cfg, reps=3, workers=workers)
    assert err.value.field == "decision"


@pytest.fixture
def pool_futures(monkeypatch):
    """The futures of every task submitted to a pool ``harness`` starts.  A
    test whose pool fails waits on them, so that a task still running when
    the error is raised finishes there, not during a later test."""
    futures = []

    class Recording(harness.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            futures.append(super().submit(*args, **kwargs))
            return futures[-1]

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    return futures


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_monte_carlo_many_raises_the_first_failed_configs_error(monkeypatch, pool_futures, workers):
    # Configs 0 and 2 fail in their first chunk.  The pool runs the largest
    # tasks first, so at two workers config 0 starts only once config 2 has
    # failed; config 0's error is still the one raised, as it is in process.
    failing = _nan_gradients(monkeypatch)
    configs = [
        replace(failing, T=64, seed=5),
        RunConfig(env="convex_lower", T=4096, n=2, d=3, seed=6),
        replace(failing, T=600, seed=7),
    ]
    first_seed = derive_seed(5, harness._REP, 0)
    with pytest.raises(ConfigError, match=rf"not finite from round 38 on \(seed {first_seed}\)$") as err:
        harness._monte_carlo_many(configs, reps=2, workers=workers)
    assert err.value.field == "decision"
    assert not wait(pool_futures, timeout=30).not_done


class _SlowToTheEnd(LinearAdversary):
    """The linear adversary, but every chunk takes 0.1 s to load, and loading
    the last one touches ``marker``."""

    marker = None

    def _load(self, a, b):
        time.sleep(0.1)
        if b == self.T:
            self.marker.touch()
        super()._load(a, b)


def test_pooled_failure_is_raised_before_later_tasks_finish(monkeypatch, pool_futures, tmp_path):
    # The failing config has the larger T, so it is submitted first, and it
    # fails in its first chunk; the other loads its last chunk after 0.3 s.
    # The error must not wait for it.
    failing, ok = RunConfig(T=2048, n=2, d=3, seed=1), RunConfig(T=1024, n=2, d=3, seed=2)
    marker = tmp_path / "last_chunk"
    monkeypatch.setattr(_SlowToTheEnd, "marker", marker)
    monkeypatch.setattr(
        harness.envs, "make_linear_adversary", lambda *args: (_NanFrom37 if args[2] == failing.T else _SlowToTheEnd)(*args)
    )
    with pytest.raises(ConfigError, match=r"not finite from round 38 on") as err:
        harness._monte_carlo_many([failing, ok], reps=1, workers=2)
    assert err.value.field == "decision"
    assert not marker.exists()
    # The running task finishes here, not during a later test.
    assert not wait(pool_futures, timeout=30).not_done
    assert marker.exists()


def test_o2b_rejects_non_finite_gradients(monkeypatch):
    class NanFrom5(LadProblem):
        """The lad problem, but every sample picked from update 5 on is NaN."""

        calls = 0

        def _picks(self, rng, k):
            rows = super()._picks(rng, k)
            updates = self.calls + 1 + np.arange(k)
            self.calls += k
            return np.where((updates >= 5)[:, None, None], np.nan, rows)

    monkeypatch.setattr(harness.envs, "make_lad_problem", lambda *args, **kw: NanFrom5(*args, **kw))
    cfg = RunConfig(algo="o2b", env="lad", T=64, n=2, d=3, samples=8, compressor="identity", L=2, seed=1)
    with pytest.raises(ConfigError, match=r"not finite from update 5 on") as err:
        run(cfg)
    assert err.value.field == "gradient"


def test_run_rejects_non_finite_losses():
    # Finite decisions, but the loss overflows: (mu/2)||w - b||^2 at mu = 1e200
    # on a box of diameter 1e100.
    cfg = RunConfig(env="sc_quadratic", T=200, n=2, d=4, mu=1e200, G=1e300, D=1e100)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConfigError, match=r"not finite from round 1 on \(seed 0\)") as err:
            run(cfg)
    assert err.value.field == "cum_loss"


@pytest.mark.parametrize(
    "field,loss,curve",
    [("cum_loss", np.nan, None), ("comparator", None, np.inf), ("regret", 1e308, -1e308)],
)
def test_loss_columns_are_checked_round_by_round(monkeypatch, field, loss, curve):
    # One bad value at round 300, in the second chunk of rounds.  The regret
    # case keeps both running sums finite while their difference overflows.
    def spike(rows, c, value):
        rows = rows.copy()
        if value is not None:
            rows[c * harness.envs._CHUNK + 1 + np.arange(len(rows)) == 300] = value
        return rows

    class Spiked(LinearAdversary):
        def _loss_rows(self, c, W):
            return spike(super()._loss_rows(c, W), c, loss)

        def _curve_rows(self, c, w):
            return spike(super()._curve_rows(c, w), c, curve)

    monkeypatch.setattr(harness.envs, "make_linear_adversary", lambda *args: Spiked(*args))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConfigError, match=r"not finite from round 300 on \(seed 4\)") as err:
            run(RunConfig(T=600, n=2, d=3, seed=4))
    assert err.value.field == field


@pytest.mark.parametrize(
    "kw",
    [
        dict(env="linear"),
        dict(env="sc_quadratic", mu=1.0, D=1.0),
        dict(env="convex_lower"),
        dict(algo="o2b", env="lad", compressor="randk:2", L=2),
    ],
)
def test_env_p_is_rejected_where_it_does_not_apply(kw):
    cfg = RunConfig(T=64, n=2, d=4, env_p=0.9, **kw)
    with pytest.raises(ConfigError) as err:
        run(cfg)
    assert err.value.field == "env_p"
    run(replace(cfg, env_p=0.5))  # the default is accepted


def test_env_p_drives_sc_lower():
    cfg = RunConfig(env="sc_lower", T=64, n=4, d=2, mu=1.0, compressor="randk:1")
    assert run(replace(cfg, env_p=0.0)).final_regret != run(replace(cfg, env_p=1.0)).final_regret


def _peak_beyond_traces(call) -> int:
    """Traced peak bytes of ``call()`` minus the bytes of the arrays in the traces it returns."""
    tracemalloc.start()
    try:
        traces = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = {id(a): a for tr in traces for a in vars(tr).values() if isinstance(a, np.ndarray)}
    return peak - sum(a.nbytes for a in arrays.values())


def test_run_memory_does_not_grow_with_T():
    # Everything a run holds beyond its sampled rows is a chunk of rounds.
    def peak(T):
        cfg = RunConfig(T=T, n=2, d=4, compressor="randk:2", seed=1)
        return _peak_beyond_traces(lambda: [run(cfg)])

    peak(2**10)  # warms numpy's and the interpreter's caches
    assert peak(2**16) <= 1.3 * peak(2**14)


def test_lockstep_batch_memory_per_replication_does_not_grow_with_T():
    # monte_carlo's lockstep batch: four replications, each with its own environment.
    def peak(T):
        cfg = RunConfig(algo="dftfcl", T=T, n=2, d=4, compressor="randk:2")
        return _peak_beyond_traces(lambda: harness._run_batch(cfg, (11, 12, 13, 14)))

    peak(2**8)  # warms numpy's and the interpreter's caches
    assert peak(2**14) <= 1.3 * peak(2**12)


def test_monte_carlo_holds_one_row_per_replication(monkeypatch):
    # Beyond the batch in flight, monte_carlo keeps a running sum per mean
    # column and one regret row per replication, which the stderr needs.
    S = 2**14
    t = np.arange(1, S + 1)

    def batch(config, seeds, keep_decisions=False):
        def trace(seed):
            col = lambda: np.full(S, float(seed % 97))  # noqa: E731
            bits = lambda: np.full(S, seed % 5, dtype=np.int64)  # noqa: E731
            return RegretTrace(
                t=t, cum_loss=col(), comparator=col(), regret=col(), bits_up=bits(), bits_down=bits(),
                subopt=None, comparator_point=np.zeros(2), comparator_value=0.0,
            )  # fmt: skip

        return [trace(s) for s in seeds]

    monkeypatch.setattr(harness, "_run_batch", batch)

    def peak(reps):
        tracemalloc.start()
        try:
            monte_carlo(RunConfig(T=S, n=2, d=2), reps=reps, workers=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # warms numpy's and the interpreter's caches
    # 32 and 64 replications both run in full batches of 16.
    per_replication = (peak(64) - peak(32)) / 32
    assert per_replication <= 1.25 * S * 8


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


def test_fit_rate_exact_lines():
    exponent, r2 = fit_rate([1, 2, 4, 8], [1, 2, 4, 8])
    assert exponent == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)
    exponent, r2 = fit_rate([4, 16, 64], [2, 4, 8])
    assert exponent == pytest.approx(0.5)
    assert r2 == pytest.approx(1.0)


def test_fit_rate_noisy_sqrt():
    rng = np.random.default_rng(0)
    xs = np.array([4.0, 16.0, 64.0, 256.0, 1024.0])
    ys = 3.0 * np.sqrt(xs) * (1.0 + 0.01 * rng.normal(size=xs.shape))
    exponent, r2 = fit_rate(xs, ys)
    assert 0.45 <= exponent <= 0.55
    assert r2 > 0.99


def test_fit_rate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_rate([1, 2], [1, 2])
    with pytest.raises(ValueError):
        fit_rate([1, 2, 0], [1, 2, 3])
    with pytest.raises(ValueError):
        fit_rate([1, 2, 3], [1, -2, 3])
    for xs, ys in (([1, 2, 4], [1, math.nan, 3]), ([1, 2, math.inf], [1, 2, 3]), ([1, 2, 4], [1, 2, math.inf])):
        with pytest.raises(ValueError, match="finite"):
            fit_rate(xs, ys)


# ---------------------------------------------------------------------------
# Verification drivers
# ---------------------------------------------------------------------------


def test_verify_unknown_lemma():
    with pytest.raises(ConfigError, match="lemma"):
        verify_lemma("no_such_check")


def test_verify_fcc_with_identity_is_exactly_zero():
    report = verify_lemma("fcc_contraction", spec=Identity())
    assert report.ok
    assert all(row.measured == 0.0 for row in report.rows)


def test_verify_dftcl_errors_lossless_degenerate():
    report = harness.verify_errors("dftcl_errors", seeds=2, spec=Identity())
    assert report.ok
    assert all(row.measured == 0.0 and row.bound == 0.0 for row in report.rows)


@pytest.mark.parametrize("seeds", [0, -3])
@pytest.mark.parametrize("check", ["dftcl_errors", "dftfcl_errors", "o2b_errors"], ids=lambda c: f"verify_{c}")
def test_energy_checks_reject_non_positive_seed_counts(check, seeds):
    with pytest.raises(ConfigError, match="^seeds: must be >= 1"):
        harness.verify_errors(check, seeds=seeds)


@pytest.mark.parametrize("check", ["dftcl_errors", "o2b_errors"], ids=lambda c: f"verify_{c}")
def test_energy_checks_run_the_batches_monte_carlo_runs(check, monkeypatch):
    calls = []
    run_batch = harness._run_batch

    def recording(config, seeds, *args, **kwargs):
        calls.append((config, seeds))
        return run_batch(config, seeds, *args, **kwargs)

    monkeypatch.setattr(harness, "_run_batch", recording)
    harness.verify_errors(check, seeds=17)
    checked = calls[:]
    calls.clear()
    harness.monte_carlo(checked[0][0], reps=17, workers=1)
    assert len(calls) == 2  # 17 replications make two lockstep batches
    assert checked == calls


def test_verify_rows_carry_plain_floats_and_bools():
    reports = [
        *(harness.verify_errors(check, seeds=1) for check in harness._ENERGY_CHECKS),
        harness.verify_fcc_contraction(trials=50),
    ]
    for report in reports:
        for row in report.rows:
            assert type(row.measured) is float and type(row.bound) is float
            assert type(row.margin) is float and type(row.ok) is bool
