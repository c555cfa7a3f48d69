"""Replay a configuration through the public engine loop, timing every call.

The loop is the one the README describes: build the environment, then call
``eng.round(env.grads(t, eng.decision))`` (or ``eng.step(problem, rng)`` for
o2b) round after round.  Step sizes and L follow the defaults documented in
``doco.harness``.  Because the replay re-derives what ``doco.run`` does from
public pieces, :func:`cross_check` compares its decisions and bit counters
with ``run(cfg, keep_decisions=True)``; any difference raises
:class:`ReplayMismatch`, and the traced run then reports no per-layer numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from doco import Dftcl, Dftfcl, O2b, RunConfig
from doco.compressors import entity_stream, nominal_delta, parse_compressor

from workloads import build_env

# Stream tag doco's harness hashes with the seed for the o2b oracle stream.
ORACLE_TAG = 5


class ReplayMismatch(AssertionError):
    """The public-loop replay disagrees with ``doco.run``."""


@dataclass
class Replay:
    """Per-call timings (seconds) and final state of one replayed run."""

    cfg: RunConfig
    rounds_per_call: int  # communication rounds per engine call (o2b: L)
    call_s: np.ndarray  # eng.round / eng.step, one entry per call
    env_s: np.ndarray  # env.grads / problem.stochastic_grads, one entry per call
    decisions: np.ndarray  # decision played each round (o2b: each update)
    iterates: np.ndarray | None  # o2b: the queried averages x^t
    bits_up: np.ndarray
    bits_down: np.ndarray
    msgs_up: int
    msgs_down: int


class _TimedOracle:
    """Proxy problem: forwards ``stochastic_grads`` and keeps its duration."""

    def __init__(self, problem):
        self._problem = problem
        self.last_s = 0.0

    def stochastic_grads(self, x, rng):
        t0 = perf_counter()
        g = self._problem.stochastic_grads(x, rng)
        self.last_s = perf_counter() - t0
        return g


def replay(cfg: RunConfig) -> Replay:
    spec = parse_compressor(cfg.compressor) if isinstance(cfg.compressor, str) else cfg.compressor
    delta = nominal_delta(spec, cfg.d)
    env, feasible, G = build_env(cfg)
    D = feasible.diameter()
    if cfg.algo == "o2b":
        return _replay_o2b(cfg, spec, env, feasible, G, D)

    T = cfg.T
    if cfg.algo == "dftcl":
        eng = Dftcl(feasible, cfg.n, spec, eta=delta * D / (G * math.sqrt(T)), seed=cfg.seed)
        rounds = T
    else:
        L = cfg.L or math.ceil(1.0 / delta)
        eng = Dftfcl(feasible, cfg.n, spec, L, eta=D / (G * math.sqrt(L * T)), seed=cfg.seed)
        rounds = (T // L) * L
    W = np.empty((T, cfg.d))
    bits_up = np.empty(T, dtype=np.int64)
    bits_down = np.empty(T, dtype=np.int64)
    call_s = np.empty(rounds)
    env_s = np.empty(rounds)
    for t in range(1, rounds + 1):
        w = eng.decision
        W[t - 1] = w
        a = perf_counter()
        g = env.grads(t, w)
        b = perf_counter()
        eng.round(g)
        c = perf_counter()
        env_s[t - 1] = b - a
        call_s[t - 1] = c - b
        bits_up[t - 1] = eng.bits_up
        bits_down[t - 1] = eng.bits_down
    W[rounds:] = eng.decision  # tail rounds past the last block replay the last decision
    bits_up[rounds:] = eng.bits_up
    bits_down[rounds:] = eng.bits_down
    return Replay(cfg, 1, call_s, env_s, W, None, bits_up, bits_down, eng.msgs_up, eng.msgs_down)


def _replay_o2b(cfg, spec, problem, feasible, G, D) -> Replay:
    L = cfg.L or math.ceil(1.0 / nominal_delta(spec, cfg.d))
    K = cfg.T // L
    if cfg.weights == "uniform":
        eng = O2b(feasible, cfg.n, spec, L, weights="uniform", eta=D / (G * math.sqrt(K)), seed=cfg.seed)
    else:
        eng = O2b(feasible, cfg.n, spec, L, weights="linear", mu=cfg.mu, seed=cfg.seed)
    oracle = _TimedOracle(problem)
    rng = entity_stream(cfg.seed, ORACLE_TAG)
    X = np.empty((K, cfg.d))
    Wp = np.empty((K, cfg.d))
    bits_up = np.empty(K, dtype=np.int64)
    bits_down = np.empty(K, dtype=np.int64)
    call_s = np.empty(K)
    env_s = np.empty(K)
    for t in range(1, K + 1):
        a = perf_counter()
        info = eng.step(oracle, rng)
        call_s[t - 1] = perf_counter() - a
        env_s[t - 1] = oracle.last_s
        X[t - 1] = info.x
        Wp[t - 1] = info.w_played
        bits_up[t - 1] = eng.bits_up
        bits_down[t - 1] = eng.bits_down
    return Replay(cfg, L, call_s, env_s, Wp, X, bits_up, bits_down, eng.msgs_up, eng.msgs_down)


def cross_check(rep: Replay, trace) -> None:
    """Raise ReplayMismatch unless ``trace`` (from run(cfg, keep_decisions=True)) matches the replay."""
    rows = trace.t // rep.rounds_per_call - 1
    pairs = [
        ("decisions", trace.decisions, rep.decisions[rows]),
        ("bits_up", trace.bits_up, rep.bits_up[rows]),
        ("bits_down", trace.bits_down, rep.bits_down[rows]),
    ]
    if rep.iterates is not None:
        pairs.append(("iterates", trace.iterates, rep.iterates[rows]))
    for field, got, want in pairs:
        if got is None or got.shape != want.shape or not np.array_equal(got, want):
            raise ReplayMismatch(f"replay of {rep.cfg} disagrees with doco.run on {field}")
