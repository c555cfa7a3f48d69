import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import doco.harness as harness
from doco.compressors import Identity, RandK, derive_seed
from doco.domains import Ball, Box, ConfigError
from doco.environments import LadProblem, LinearAdversary, make_linear_adversary, make_sc_quadratic_adversary
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
        (dict(T=100, feasible="ball:1", d=4, D=3.0), "D"),
        (dict(T=100, feasible="cube:1"), "set"),
        (dict(T=100, env="convex_lower", feasible="ball:1"), "set"),
        (dict(T=100, compressor=42), "compressor"),
        (dict(T=100, compressor=object()), "compressor"),
    ],
)
def test_config_errors_name_offending_field(bad, field):
    with pytest.raises(ConfigError) as err:
        run(RunConfig(**bad))
    assert err.value.field == field


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


def test_comparator_flags():
    convex = run(RunConfig(T=64, n=2, d=3, seed=0))
    assert not convex.approx_comparator
    curved = run(RunConfig(T=64, n=2, d=3, env="sc_quadratic", mu=0.5, G=1.0, D=1.0, seed=0))
    assert curved.approx_comparator
    # The descent comparator agrees with the closed-form projected mean.
    env = make_sc_quadratic_adversary(2, 3, 64, 0.5, 1.0, 1.0, derive_seed(0, harness._ENV))
    expected = env.feasible.project(env._rows.rows(0, 64).mean(axis=(0, 1)))
    np.testing.assert_allclose(curved.comparator_point, expected, atol=1e-6)


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
    # round 1, must give the same gradients at the decisions played.
    cfg = RunConfig(algo="dftcl", T=300, n=3, d=5, compressor="gossip:0.5", seed=4, **env_kw)
    seen = []
    round_ = harness.Dftcl.round

    def spy(self, grads, collect=False):
        seen.append((self.decision.reshape(-1, cfg.d).copy(), grads.reshape(-1, cfg.n, cfg.d).copy()))
        return round_(self, grads, collect)

    monkeypatch.setattr(harness.Dftcl, "round", spy)
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


def test_o2b_rejects_non_finite_gradients(monkeypatch):
    class NanFrom5(LadProblem):
        calls = 0

        def stochastic_grads(self, x, rng):
            self.calls += 1
            return super().stochastic_grads(x, rng) * (np.nan if self.calls >= 5 else 1.0)

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
                subopt=None, approx_comparator=False, comparator_point=np.zeros(2), comparator_value=0.0,
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
    report = harness.verify_dftcl_errors(seeds=2, spec=Identity())
    assert report.ok
    assert all(row.measured == 0.0 and row.bound == 0.0 for row in report.rows)


@pytest.mark.parametrize("seeds", [0, -3])
@pytest.mark.parametrize(
    "check", [harness.verify_dftcl_errors, harness.verify_dftfcl_errors, harness.verify_o2b_errors]
)
def test_energy_checks_reject_non_positive_seed_counts(check, seeds):
    with pytest.raises(ConfigError, match="^seeds: must be >= 1"):
        check(seeds=seeds)


@pytest.mark.parametrize("check", [harness.verify_dftcl_errors, harness.verify_o2b_errors])
def test_energy_checks_run_the_batches_monte_carlo_runs(check, monkeypatch):
    calls = []
    run_batch = harness._run_batch

    def recording(config, seeds, *args, **kwargs):
        calls.append((config, seeds))
        return run_batch(config, seeds, *args, **kwargs)

    monkeypatch.setattr(harness, "_run_batch", recording)
    check(seeds=17)
    checked = calls[:]
    calls.clear()
    harness.monte_carlo(checked[0][0], reps=17, workers=1)
    assert len(calls) == 2  # 17 replications make two lockstep batches
    assert checked == calls


def test_verify_rows_carry_plain_floats_and_bools():
    reports = [
        harness.verify_dftcl_errors(seeds=1),
        harness.verify_dftfcl_errors(seeds=1),
        harness.verify_o2b_errors(seeds=1),
        harness.verify_fcc_contraction(trials=50),
    ]
    for report in reports:
        for row in report.rows:
            assert type(row.measured) is float and type(row.bound) is float
            assert type(row.margin) is float and type(row.ok) is bool
