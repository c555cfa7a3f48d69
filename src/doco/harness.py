"""Run configuration, full-run drivers, Monte Carlo replication, and rate fits.

A :class:`RunConfig` names the algorithm, environment, compressor, and scale
parameters of one experiment.  :func:`run` executes it deterministically for a
given seed and returns a :class:`RegretTrace`; :func:`monte_carlo` averages
replications over hash-derived seeds, advancing them in lockstep batches that
produce the same bytes as one run per seed; :func:`fit_rate` extracts log-log slope
and fit quality for scaling studies.  The ``verify_*`` drivers measure the
compression-loop contraction, and the error-memory energies of a fixed
:class:`RunConfig` over the replications ``monte_carlo`` makes of it, against
their closed-form caps and report pass/fail with margins.

Step-size defaults are the worst-case-tuned values: delta*D/(G sqrt(T)) for
the bidirectionally compressed per-round algorithm (sqrt(delta)*D/(G sqrt(T))
in its unidirectional mode), D/(G sqrt(L*T)) for the blocked algorithm with
block size L = ceil(1/delta), and D/(G sqrt(K)) for the online-to-batch
driver with K = T/L updates.  All are overridable.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .algorithms import Dftcl, Dftfcl, O2b
from .compressors import (
    CompressorSpec,
    contraction_stat,
    derive_seed,
    entity_stream,
    nominal_delta,
    parse_compressor,
    RandK,
)
from .domains import (
    Ball,
    BlackBoxLoss,
    Box,
    ConfigError,
    FeasibleSet,
    best_in_hindsight,
)
from . import environments as envs

__all__ = [
    "RunConfig",
    "RegretTrace",
    "MeanTrace",
    "run",
    "monte_carlo",
    "fit_rate",
    "parse_set",
    "set_label",
    "VerifyRow",
    "VerifyReport",
    "verify_lemma",
    "VERIFY_IDS",
]

_ENV, _REP, _ORACLE = 3, 4, 5

ALGOS = ("dftcl", "dftfcl", "o2b")


@dataclass(frozen=True)
class _EnvKind:
    """How :func:`_resolve` builds one environment from a config.

    ``factory`` names an ``envs.make_*`` builder.  It is looked up on the
    module at each call, so a builder wrapped there (the benchmark's tracer
    wraps some) is the one called.  ``args`` names its positional arguments
    among the values ``_resolve`` works out.  A config value an environment
    is not given is rejected (mu, env_p) or derived by it (G).
    """

    factory: str
    args: tuple[str, ...]
    curved: bool  # mu is the environment's curvature, so required (lad's mu is an optional regularizer)
    default_set: Callable[[int, float], FeasibleSet] | None  # (d, D) -> the set if none is given; None: own box


# The lad problem checks itself that its set is a box.
_ENVS = {
    "linear": _EnvKind("make_linear_adversary", ("n", "d", "T", "G", "seed"), False, lambda d, D: Ball(D / 2.0, d)),
    "sc_quadratic": _EnvKind("make_sc_quadratic_adversary", ("n", "d", "T", "mu", "G", "D", "seed"), True, None),
    "convex_lower": _EnvKind("make_convex_lower_bound_env", ("n", "d", "T", "G", "D", "delta", "seed"), False, None),
    "sc_lower": _EnvKind("make_sc_lower_bound_env", ("n", "d", "T", "mu", "D", "delta", "env_p", "seed"), True, None),
    "lad": _EnvKind(
        "make_lad_problem", ("n", "d", "samples", "feasible", "seed", "mu"), False, lambda d, D: Box(np.zeros(d), np.ones(d))
    ),
}
ENVS = tuple(_ENVS)


def parse_set(text: str, d: int) -> FeasibleSet:
    """Parse ``box:lo:hi`` (scalar bounds replicated to d) or ``ball:r``."""
    parts = text.strip().split(":")
    try:
        if parts[0] == "box" and len(parts) == 3:
            lo, hi = float(parts[1]), float(parts[2])
            return Box(lo * np.ones(d), hi * np.ones(d))
        if parts[0] == "ball" and len(parts) == 2:
            return Ball(float(parts[1]), d)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("set", f"bad number in {text!r}") from exc
    raise ConfigError("set", f"unknown set {text!r} (expected box:lo:hi or ball:r)")


def set_label(feasible: FeasibleSet) -> str:
    if isinstance(feasible, Ball):
        return f"ball:{feasible.radius!r}"
    lo, hi = float(feasible.lo[0]), float(feasible.hi[0])
    if np.all(feasible.lo == lo) and np.all(feasible.hi == hi):
        return f"box:{lo!r}:{hi!r}"
    raise ConfigError("set", "only uniform boxes have a flag representation")


def _flag(default, help: str):
    """A :class:`RunConfig` field, which is also a ``doco`` flag and config-file
    key (``feasible`` as ``set``) with this help text."""
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class RunConfig:
    """One experiment: algorithm, environment, compressor, and scales.

    Exactly one of the step parameters selects the update mode: ``eta`` for
    the learning-rate (convex) step, ``mu`` alone for the strongly convex
    step.  Environments with curvature (``sc_quadratic``, ``sc_lower``, and
    regularized ``lad``) take ``mu`` as their curvature; supplying ``eta`` as
    well runs the convex-mode update on that environment.
    """

    algo: str = _flag("dftcl", f"algorithm id: {' | '.join(ALGOS)}")
    env: str = _flag("linear", f"environment: {' | '.join(ENVS)}")
    T: int | None = _flag(None, "rounds (o2b: total communication rounds)")
    n: int = _flag(2, "learner count")
    d: int = _flag(4, "ambient dimension")
    compressor: Union[str, CompressorSpec] = _flag("identity", "identity | randk:k | sign | gossip:p")
    L: int | None = _flag(None, "block size / compression rounds (default ceil(1/delta))")
    eta: float | None = _flag(None, "learning rate (convex-mode step)")
    mu: float | None = _flag(None, "strong-convexity parameter")
    G: float | None = _flag(None, "gradient-norm bound")
    D: float | None = _flag(None, "domain diameter (when no --set is given)")
    feasible: Union[str, FeasibleSet, None] = _flag(None, "box:lo:hi | ball:r")
    weights: str = _flag("uniform", "o2b weighting scheme: uniform | linear")
    unidirectional: bool = _flag(False, "server sends uncompressed")
    env_p: float = _flag(0.5, "Bernoulli parameter of the sc_lower shift (sc_lower only)")
    samples: int = _flag(32, "data points per learner (lad)")
    seed: int = _flag(0, "global seed; all randomness derives from it")
    reps: int = _flag(1, "Monte Carlo replications")
    workers: int = _flag(1, "parallel workers for replications")


@dataclass
class _Plan:
    cfg: RunConfig
    spec: CompressorSpec
    delta: float
    feasible: FeasibleSet
    G: float
    D: float
    eta: float | None
    mu_step: float | None
    L: int | None
    K: int | None
    env: object


def _require_positive_int(name: str, value, minimum: int = 1) -> int:
    if value is None:
        raise ConfigError(name, "required")
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(name, f"must be >= {minimum}, got {value}")
    return int(value)


def _resolve(cfg: RunConfig) -> _Plan:
    if cfg.algo not in ALGOS:
        raise ConfigError("algo", f"must be one of {ALGOS}, got {cfg.algo!r}")
    if cfg.env not in ENVS:
        raise ConfigError("env", f"must be one of {ENVS}, got {cfg.env!r}")
    if (cfg.algo == "o2b") != (cfg.env == "lad"):
        raise ConfigError("env", "the o2b driver pairs with the lad environment (and only it)")
    T = _require_positive_int("T", cfg.T)
    n = _require_positive_int("n", cfg.n)
    d = _require_positive_int("d", cfg.d)
    if cfg.seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {cfg.seed}")
    _require_positive_int("reps", cfg.reps)
    _require_positive_int("workers", cfg.workers)
    kind = _ENVS[cfg.env]
    if cfg.env_p != RunConfig.env_p and "env_p" not in kind.args:
        raise ConfigError("env_p", f"only the sc_lower environment takes a Bernoulli parameter, got {cfg.env_p}")
    spec = parse_compressor(cfg.compressor) if isinstance(cfg.compressor, str) else cfg.compressor
    delta = nominal_delta(spec, d)
    if cfg.unidirectional and cfg.algo != "dftcl":
        raise ConfigError("unidirectional", "only the per-round bidirectional algorithm has this mode")
    if cfg.weights not in ("uniform", "linear"):
        raise ConfigError("weights", f"must be 'uniform' or 'linear', got {cfg.weights!r}")
    if cfg.weights != "uniform" and cfg.algo != "o2b":
        raise ConfigError("weights", "only the o2b driver takes a weighting scheme")
    for name, value in (("G", cfg.G), ("D", cfg.D), ("eta", cfg.eta), ("mu", cfg.mu)):
        if value is not None and not value > 0:
            raise ConfigError(name, f"must be positive, got {value}")

    user_set = cfg.feasible
    if isinstance(user_set, str):
        user_set = parse_set(user_set, d)
    if user_set is not None and user_set.d != d:
        raise ConfigError("set", f"dimension mismatch: set is {user_set.d}-d, d = {d}")

    # L and the update count.
    L = cfg.L
    if cfg.algo == "dftcl":
        if L is not None:
            raise ConfigError("L", "the per-round algorithm sends one message per round; L does not apply")
        K = None
    else:
        L = math.ceil(1.0 / delta) if L is None else _require_positive_int("L", L)
        K = T // L if cfg.algo == "o2b" else None
        if cfg.algo == "o2b" and K < 1:
            raise ConfigError("T", f"must cover at least one update: T >= L = {L}")

    if kind.curved and cfg.mu is None:
        raise ConfigError("mu", f"required: curvature of the {cfg.env} environment")
    if "mu" not in kind.args and cfg.mu is not None:
        raise ConfigError("mu", f"{cfg.env} losses have no curvature; use eta")
    if "G" not in kind.args and cfg.G is not None:
        raise ConfigError("G", f"derived by the {cfg.env} environment")
    if kind.default_set is None:
        if user_set is not None:
            raise ConfigError("set", f"the {cfg.env} environment builds its own box from D")
        feasible, D = None, cfg.D or 2.0
    else:
        feasible = user_set if user_set is not None else kind.default_set(d, cfg.D or 2.0)
        D = feasible.diameter()
        if cfg.D is not None and abs(D - cfg.D) > 1e-9:
            raise ConfigError("D", f"inconsistent with the set diameter {D}")
    G = cfg.G or 1.0
    values = dict(
        n=n, d=d, T=T, mu=cfg.mu or 0.0, G=G, D=D, delta=delta, env_p=cfg.env_p, feasible=feasible,
        samples=_require_positive_int("samples", cfg.samples), seed=derive_seed(cfg.seed, _ENV),
    )  # fmt: skip
    env = getattr(envs, kind.factory)(*(values[name] for name in kind.args))
    if feasible is None:
        feasible = env.feasible
    if "G" not in kind.args:
        G = env.G
    eta, mu_step = _step_params(cfg, delta, D, G, T, L, K, curvature=cfg.mu if kind.curved else None)
    return _Plan(cfg, spec, delta, feasible, G, D, eta, mu_step, L, K, env)


def _step_params(cfg, delta, D, G, T, L, K, curvature):
    """Pick (eta, mu_step): eta selects the convex-mode update, mu the strongly convex one."""
    if cfg.weights == "linear":  # o2b on lad: the weighting scheme sets the step rule
        if cfg.mu is None:
            raise ConfigError("mu", "linear weights need a strongly convex problem (mu > 0)")
        if cfg.eta is not None:
            raise ConfigError("eta", "linear weights take the strongly convex step; eta does not apply")
        return None, cfg.mu
    if cfg.eta is not None:
        return cfg.eta, None
    if curvature is not None:
        return None, curvature
    if cfg.algo == "dftcl":
        scale = math.sqrt(delta) if cfg.unidirectional else delta
        return scale * D / (G * math.sqrt(T)), None
    if cfg.algo == "dftfcl":
        return D / (G * math.sqrt(L * T)), None
    return D / (G * math.sqrt(K)), None


def _sample_rounds(T: int) -> np.ndarray:
    """Dense up to 2^16 rounds, geometric (about 4k points) above."""
    if T <= 65536:
        return np.arange(1, T + 1, dtype=np.int64)
    head = np.arange(1, 1025, dtype=np.int64)
    tail = np.round(np.geomspace(1024, T, 3072)).astype(np.int64)
    return np.unique(np.concatenate([head, tail, [T]]))


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_count(x) -> str:
    v = float(x)
    return str(int(v)) if v.is_integer() else repr(v)


@dataclass(kw_only=True)
class _Trace:
    """The sampled columns a trace writes to CSV, one row per sampled round."""

    t: np.ndarray
    cum_loss: np.ndarray
    comparator: np.ndarray
    regret: np.ndarray
    bits_up: np.ndarray
    bits_down: np.ndarray
    subopt: np.ndarray | None

    @property
    def final_regret(self) -> float:
        return float(self.regret[-1])

    def header(self) -> str:
        base = "t,cum_loss,comparator,regret,bits_up,bits_down"
        return base + (",subopt" if self.subopt is not None else "")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.header() + "\n")
            for i in range(self.t.shape[0]):
                row = (
                    f"{int(self.t[i])},{_fmt(self.cum_loss[i])},{_fmt(self.comparator[i])},"
                    f"{_fmt(self.regret[i])},{_fmt_count(self.bits_up[i])},{_fmt_count(self.bits_down[i])}"
                )
                if self.subopt is not None:
                    row += f",{_fmt(self.subopt[i])}"
                fh.write(row + "\n")


@dataclass(kw_only=True)
class RegretTrace(_Trace):
    """Sampled per-round trace of one run.

    ``regret`` is cumulative average loss minus the cumulative loss of the
    final best-in-hindsight decision; for online-to-batch runs the rows are
    per update, ``t`` counts communication rounds, and ``subopt`` holds
    f(x^t) - f*.
    """

    approx_comparator: bool
    comparator_point: np.ndarray
    comparator_value: float
    decisions: np.ndarray | None = None
    iterates: np.ndarray | None = None


@dataclass(kw_only=True)
class MeanTrace(_Trace):
    """Pointwise mean of replicated traces plus standard errors for the key columns."""

    regret_stderr: np.ndarray
    subopt_stderr: np.ndarray | None
    reps: int

    @property
    def final_regret_stderr(self) -> float:
        return float(self.regret_stderr[-1])


def run(config: RunConfig, keep_decisions: bool = False) -> RegretTrace:
    """Execute one deterministic run and assemble its regret trace."""
    return _run_batch(config, (config.seed,), keep_decisions)[0]


_BATCH = 16  # most replications one engine advances in lockstep; each holds its own environment
_CHECK_ROUNDS = 256  # o2b updates between finiteness checks; online runs check each environment chunk


def _run_batch(config: RunConfig, seeds: tuple, keep_decisions: bool = False, probe=None) -> list[RegretTrace]:
    """Run one replication of ``config`` per seed, advanced in lockstep by one engine.

    Trace r is byte for byte the trace of a run at ``seeds[r]``: replication
    r keeps its own environment and streams.  A batch of one runs the engine
    without the replication axis.  ``probe(plans, eng, step, steps)``, if given,
    returns the step function the driver plays its ``steps`` rounds with; a
    probed batch stops after those rounds and returns no traces.
    """
    plans = [_resolve(replace(config, seed=s)) for s in seeds]
    if config.algo == "o2b":
        return _run_o2b(plans, keep_decisions, probe)
    return _run_online(plans, keep_decisions, probe)


class _Lockstep:
    """Per-replication lad problems seen as one: row r of every argument and
    of every result belongs to replication r."""

    def __init__(self, members: list):
        self.members = members

    def stochastic_grads(self, X: np.ndarray, rngs: list) -> np.ndarray:
        return np.array([p.stochastic_grads(x, rng) for p, x, rng in zip(self.members, X, rngs)])


def _engine(plans: list[_Plan]):
    """Build the engine of a batch, one replication per plan.

    One plan gives an engine at that plan's int seed; several give one engine
    at the tuple of their seeds, advancing in lockstep.
    """
    plan, R = plans[0], len(plans)
    cfg = plan.cfg
    seeds = tuple(p.cfg.seed for p in plans)
    common = dict(eta=plan.eta, mu=plan.mu_step, seed=seeds if R > 1 else seeds[0])
    if cfg.algo == "o2b":
        return O2b(plan.feasible, cfg.n, plan.spec, plan.L, weights=cfg.weights, **common)
    if cfg.algo == "dftcl":
        return Dftcl(plan.feasible, cfg.n, plan.spec, unidirectional=cfg.unidirectional, **common)
    return Dftfcl(plan.feasible, cfg.n, plan.spec, plan.L, **common)


def _check_finite(field: str, rows: np.ndarray, rounds, plans: list[_Plan], step: str = "round") -> None:
    """Raise ConfigError naming the first round (o2b: update) whose recorded
    value is not finite; ``rows``, shape (steps, R) or (steps, R, d), holds
    the steps listed in ``rounds``."""
    ok = np.isfinite(rows)
    if ok.ndim == 3:
        ok = ok.all(axis=-1)
    if not ok.all():
        t, r = np.argwhere(~ok)[0]
        raise ConfigError(field, f"not finite from {step} {rounds[t]} on (seed {plans[r].cfg.seed})")


def _carry_cumsum(last, rows: np.ndarray) -> np.ndarray:
    """Column cumsum of a chunk of (rounds, R) rows continuing from the previous
    chunk's last row ``last`` (None for the first chunk): the full cumsum's bits."""
    if last is None:
        return np.cumsum(rows, axis=0)
    return np.cumsum(np.vstack([last[None], rows]), axis=0)[1:]


def _kept(rounds: np.ndarray, a: int, b: int) -> tuple[slice, np.ndarray]:
    """The sampled rows in rounds a+1..b: their slice of ``rounds`` and their offsets in the chunk."""
    sel = slice(*np.searchsorted(rounds, [a + 1, b + 1]))
    return sel, rounds[sel] - 1 - a


def _run_online(plans: list[_Plan], keep_decisions: bool, probe=None) -> list[RegretTrace]:
    """Play the rounds a chunk of the environments at a time, then take a
    second pass over the re-drawn chunks for the comparator's losses.

    Per chunk the first pass plays the rounds off the environments' gradient
    tables (a batch's stacked into one), records decisions and bit counts,
    folds each replication's mean losses into its cumulative loss and its
    hindsight sum, and checks the decisions and cumulative losses; the
    second pass checks the comparator and the regret.  Only the sampled rows
    are kept.
    """
    plan, R = plans[0], len(plans)
    T, d = plan.env.T, plan.env.d
    members = [p.env for p in plans]
    eng = _engine(plans)
    gradient = plan.env._gradient

    def step(t: int):  # the loop below binds ``table``: the chunk's rows, from round a + 1 on
        return eng.round(gradient(table[t - 1 - a], eng.decision))

    engine_rounds = T if plan.cfg.algo == "dftcl" else (T // plan.L) * plan.L
    if probe is not None:
        step = probe(plans, eng, step, engine_rounds)
    rounds = _sample_rounds(T)
    S = len(rounds)
    cum, comp, regret = np.empty((R, S)), np.empty((R, S)), np.empty((R, S))
    bits_up, bits_down = np.empty((R, S), dtype=np.int64), np.empty((R, S), dtype=np.int64)
    decisions = np.empty((R, S, d)) if keep_decisions else None
    folds = [envs._Hindsight(env) for env in members]
    # One buffer for every chunk's stacked tables: a fresh stack per chunk raised
    # the peak RSS of a process running R=8, n=8, d=16 batches by ~4 MB.
    stacked = None if R == 1 else np.empty((envs._CHUNK, R, plan.env.n, d))
    last = None
    for c, a, b in envs._chunks(T):
        for env in members:
            env._hold(c)
        table = plan.env._table if R == 1 else np.stack([env._table for env in members], axis=1, out=stacked[: b - a])
        W = np.empty((b - a, R, d))
        bu, bd = np.empty((b - a, R), dtype=np.int64), np.empty((b - a, R), dtype=np.int64)
        live = min(max(engine_rounds - a, 0), b - a)
        for i in range(live):
            W[i] = eng.decision
            step(a + i + 1)
            bu[i] = eng.bits_up
            bd[i] = eng.bits_down
        # Tail rounds past the last full block replay the last decision, silently.
        W[live:] = eng.decision
        bu[live:] = eng.bits_up
        bd[live:] = eng.bits_down
        _check_finite("decision", W, range(a + 1, b + 1), plans)
        if probe is not None:
            continue
        losses = np.empty((b - a, R))
        for r, env in enumerate(members):
            losses[:, r] = env._loss_rows(c, np.ascontiguousarray(W[:, r]))
            folds[r].add(c)
        chunk_cum = _carry_cumsum(last, losses)
        _check_finite("cum_loss", chunk_cum, range(a + 1, b + 1), plans)
        last = chunk_cum[-1]
        sel, at = _kept(rounds, a, b)
        cum[:, sel], bits_up[:, sel], bits_down[:, sel] = chunk_cum[at].T, bu[at].T, bd[at].T
        if keep_decisions:
            decisions[:, sel] = W[at].transpose(1, 0, 2)

    if probe is not None:
        return []
    hinds = [best_in_hindsight(p.feasible, fold.result()) for p, fold in zip(plans, folds)]
    last = None
    for c, a, b in envs._chunks(T):
        rows = np.empty((b - a, R))
        for r, (env, h) in enumerate(zip(members, hinds)):
            rows[:, r] = env._curve_rows(c, h.point)
        chunk_comp = _carry_cumsum(last, rows)
        _check_finite("comparator", chunk_comp, range(a + 1, b + 1), plans)
        last = chunk_comp[-1]
        sel, at = _kept(rounds, a, b)
        comp[:, sel] = chunk_comp[at].T
        regret[:, sel] = cum[:, sel] - comp[:, sel]
        _check_finite("regret", regret[:, sel].T, rounds[sel], plans)
    return [
        RegretTrace(
            t=rounds,
            cum_loss=cum[r],
            comparator=comp[r],
            regret=regret[r],
            bits_up=bits_up[r],
            bits_down=bits_down[r],
            subopt=None,
            approx_comparator=h.approx,
            comparator_point=h.point,
            comparator_value=h.value,
            decisions=decisions[r] if keep_decisions else None,
        )
        for r, h in enumerate(hinds)
    ]


def _run_o2b(plans: list[_Plan], keep_decisions: bool, probe=None) -> list[RegretTrace]:
    plan, R = plans[0], len(plans)
    K, d = plan.K, plan.env.d
    eng = _engine(plans)
    rngs = [entity_stream(p.cfg.seed, _ORACLE) for p in plans]
    problem, rng = (plan.env, rngs[0]) if R == 1 else (_Lockstep([p.env for p in plans]), rngs)

    def step(t: int):
        return eng.step(problem, rng)

    if probe is not None:
        step = probe(plans, eng, step, K)
    X = np.empty((K, R, d))
    Wp = np.empty((K, R, d))
    gbar = np.empty((K, R, d))
    bits_up = np.empty((K, R), dtype=np.int64)
    bits_down = np.empty((K, R), dtype=np.int64)
    for start in range(0, K, _CHECK_ROUNDS):
        stop = min(start + _CHECK_ROUNDS, K)
        for t in range(start + 1, stop + 1):
            info = step(t)
            X[t - 1] = info.x
            Wp[t - 1] = info.w_played
            gbar[t - 1] = info.gbar
            bits_up[t - 1] = eng.bits_up
            bits_down[t - 1] = eng.bits_down
        for field, rows in (("gradient", gbar), ("decision", Wp), ("iterate", X)):
            _check_finite(field, rows[start:stop], range(start + 1, stop + 1), plans, "update")
    if probe is not None:
        return []
    return [
        _o2b_trace(plan, *(np.ascontiguousarray(a[:, r]) for a in (X, Wp, gbar, bits_up, bits_down)), keep_decisions)
        for r, plan in enumerate(plans)
    ]


def _o2b_trace(plan: _Plan, X, Wp, gbar, bits_up, bits_down, keep_decisions: bool) -> RegretTrace:
    """One o2b replication's surrogate regret and suboptimality from its per-update paths."""
    cfg, problem, K = plan.cfg, plan.env, plan.K
    alphas = np.arange(1, K + 1, dtype=np.float64) if cfg.weights == "linear" else np.ones(K)
    losses = alphas * np.einsum("td,td->t", gbar, Wp)
    if cfg.weights == "linear":
        losses += 0.5 * plan.mu_step * alphas * ((Wp - X) ** 2).sum(axis=1)
    cum = np.cumsum(losses)

    if cfg.weights == "uniform":
        hind = best_in_hindsight(plan.feasible, (alphas[:, None] * gbar).sum(axis=0))
        comp_rows = alphas * (gbar @ hind.point)
    else:
        mu = plan.mu_step
        U = (alphas[:, None] * gbar).sum(axis=0)
        A = float(alphas.sum())
        Sx = (alphas[:, None] * X).sum(axis=0)
        Sxx = float((alphas * (X**2).sum(axis=1)).sum())

        def value(w):
            return float(U @ w) + 0.5 * mu * (A * float(w @ w) - 2.0 * float(Sx @ w) + Sxx)

        def subgrad(w):
            return U + mu * (A * w - Sx)

        hind = best_in_hindsight(plan.feasible, BlackBoxLoss(value, subgrad, mu=mu * A))
        comp_rows = alphas * (gbar @ hind.point) + 0.5 * mu * alphas * ((hind.point - X) ** 2).sum(axis=1)
    comp_curve = np.cumsum(comp_rows)

    _, fstar = problem.optimum()
    subopt = problem.value_path(X) - fstar
    idx = _sample_rounds(K) - 1
    return RegretTrace(
        t=(idx + 1) * plan.L,
        cum_loss=cum[idx],
        comparator=comp_curve[idx],
        regret=(cum - comp_curve)[idx],
        bits_up=bits_up[idx],
        bits_down=bits_down[idx],
        subopt=subopt[idx],
        approx_comparator=hind.approx,
        comparator_point=hind.point,
        comparator_value=hind.value,
        decisions=Wp[idx] if keep_decisions else None,
        iterates=X[idx] if keep_decisions else None,
    )


def monte_carlo(config: RunConfig, reps: int | None = None, workers: int | None = None) -> MeanTrace:
    """Average ``reps`` replications; replication r runs at seed hash(seed, r).

    Each batch of :func:`_batches` advances in lockstep (see
    :func:`_run_batch`).  The bytes depend on neither ``workers`` nor the split.
    """
    reps = config.reps if reps is None else reps
    workers = config.workers if workers is None else workers
    return _monte_carlo_many([config], reps, workers)[0]


def _monte_carlo_many(configs: list[RunConfig], reps: int, workers: int) -> list[MeanTrace]:
    """:func:`monte_carlo` of every config, sharing one pool of ``workers`` processes.

    Every config is resolved before any replication runs.  Each config's
    replications split into :func:`_batches` for ceil(workers / len(configs))
    workers, so one config gets exactly ``monte_carlo``'s split.  The (config,
    batch) tasks go to one pool, the largest T x batch first, or run in
    process at one worker or one task.  They are gathered in config and
    replication order, so the bytes, and the error raised when tasks fail,
    do not depend on ``workers``.  In process, each batch is folded into its
    config's mean as it finishes.
    """
    reps = _require_positive_int("reps", reps)
    workers = _require_positive_int("workers", workers)
    for cfg in configs:
        _resolve(cfg)
    share = math.ceil(workers / len(configs))
    tasks = [(i, batch) for i, cfg in enumerate(configs) for batch in _batches(cfg.seed, reps, share)]
    if workers == 1 or len(tasks) == 1:
        results = (_run_batch(configs[i], batch) for i, batch in tasks)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            largest_first = sorted(range(len(tasks)), key=lambda k: -configs[tasks[k][0]].T * len(tasks[k][1]))
            futures = {k: pool.submit(_run_batch, configs[tasks[k][0]], tasks[k][1]) for k in largest_first}
            try:
                results = [futures[k].result() for k in range(len(tasks))]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    # Pooled results are folded once the pool has closed: folding while the
    # pool's result thread was still unpickling batches left the parent's heap
    # larger (online_long benchmark, 24 jobs on 2 vCPUs: median peak RSS
    # 50 -> 54 MB over six runs).
    folds = [_MeanFold(reps) for _ in configs]
    for (i, _), traces in zip(tasks, results):
        folds[i].add(traces)
    return [fold.result() for fold in folds]


def _carry_sum(acc, rows: list[np.ndarray]) -> np.ndarray:
    """Carry the axis-0 sum of (S,) rows that arrive a batch at a time; the
    final ``np.add.reduce(acc, axis=0, dtype=np.float64)`` has the bits of that
    sum over all the rows at once.  numpy sums a one-column stack pairwise, so
    at S = 1 the rows themselves are carried."""
    stack = np.vstack(rows if acc is None else [acc, *rows])
    if stack.shape[1] == 1:
        return stack
    return np.add.reduce(stack, axis=0, keepdims=True, dtype=np.float64)


class _MeanFold:
    """One config's :class:`MeanTrace`, folded from its batches of traces in
    replication order.  The mean columns are carried as running sums; only
    the regret (and subopt) rows, which the standard errors need, are kept."""

    _SUMMED = ("cum_loss", "comparator", "bits_up", "bits_down")

    def __init__(self, reps: int):
        self.reps, self.seen = reps, 0
        self.sums = dict.fromkeys(self._SUMMED)

    def add(self, traces: list[RegretTrace]) -> None:
        if self.seen == 0:
            first = traces[0]
            self.t = first.t
            self.regret = np.empty((self.reps, first.t.shape[0]))
            self.subopt = None if first.subopt is None else np.empty_like(self.regret)
        for name in self._SUMMED:
            self.sums[name] = _carry_sum(self.sums[name], [getattr(tr, name) for tr in traces])
        for tr in traces:
            self.regret[self.seen] = tr.regret
            if self.subopt is not None:
                self.subopt[self.seen] = tr.subopt
            self.seen += 1

    def result(self) -> MeanTrace:
        means = {name: np.add.reduce(acc, axis=0, dtype=np.float64) / self.reps for name, acc in self.sums.items()}
        regret = self.regret.mean(axis=0)  # before _stderr overwrites the rows
        out = MeanTrace(
            t=self.t, regret=regret, regret_stderr=_stderr(self.regret), subopt=None, subopt_stderr=None, reps=self.reps, **means
        )
        if self.subopt is not None:
            out.subopt = self.subopt.mean(axis=0)
            out.subopt_stderr = _stderr(self.subopt)
        return out


def _batches(seed: int, reps: int, workers: int) -> list[tuple]:
    """The seeds of replications 0..reps-1, hash(seed, r), split into contiguous
    batches of near-equal size, at least one per worker and at most ``_BATCH``
    replications each."""
    if seed < 0:
        raise ConfigError("seed", f"must be >= 0, got {seed}")
    seeds = [derive_seed(seed, _REP, r) for r in range(reps)]
    nb = min(reps, max(workers, math.ceil(reps / _BATCH)))
    return [tuple(seeds[i * reps // nb : (i + 1) * reps // nb]) for i in range(nb)]


def _stderr(rows: np.ndarray) -> np.ndarray:
    """Standard errors of the column means of ``rows``: the bits of
    ``rows.std(axis=0, ddof=1) / sqrt(n)``, computed in place, so ``rows`` is
    overwritten."""
    n = rows.shape[0]
    if n < 2:
        return np.zeros(rows.shape[1])
    rows -= np.add.reduce(rows, axis=0) / n
    rows *= rows
    return np.sqrt(np.add.reduce(rows, axis=0) / (n - 1)) / math.sqrt(n)


def fit_rate(xs, ys) -> tuple[float, float]:
    """Ordinary least squares slope of log y on log x, with R^2."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("xs and ys must be 1-D and the same length")
    if x.shape[0] < 3:
        raise ValueError(f"need at least 3 points, got {x.shape[0]}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs strictly positive xs and ys")
    lx, ly = np.log(x), np.log(y)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ coef
    ss_res = float(resid @ resid)
    centered = ly - ly.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(coef[0]), float(r2)


# ---------------------------------------------------------------------------
# Bound verification drivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRow:
    label: str
    measured: float
    bound: float
    margin: float
    ok: bool


@dataclass(frozen=True)
class VerifyReport:
    lemma: str
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_fcc_contraction(
    seed: int = 0, trials: int = 5000, d: int = 64, spec: CompressorSpec | None = None
) -> VerifyReport:
    """Measured L-round residual error vs the (1 - delta)^L decay (default RandK d=64 k=8)."""
    spec = RandK(8) if spec is None else spec
    delta = nominal_delta(spec, d)
    rng = entity_stream(seed, _ENV)
    rows = []
    for L in (1, 2, 4, 8, 16):
        mean, stderr = contraction_stat(spec, L, d, trials, rng)
        bound = (1.0 - delta) ** L
        limit = bound + 3.0 * stderr
        rows.append(VerifyRow(f"L={L}", mean, bound, limit - mean, mean <= limit))
    return VerifyReport("fcc_contraction", tuple(rows))


def _error_energies(config: RunConfig, reps: int):
    """Replication-mean squared norms of the mean learner memory and of the
    server memory after every round (o2b: update) the run driver plays, over
    the replications of ``monte_carlo(config, reps)`` in the same lockstep
    batches.  The driver does not step a blocked run's tail rounds past its
    last full block, which change neither memory.  Returns the last batch's
    first plan with the two energy paths.
    """
    reps = _require_positive_int("seeds", reps)
    paths = []  # per replication: the (2, steps) energies after each step
    plan = None

    def probe(plans, eng, step, steps):
        nonlocal plan
        plan = plans[0]
        energies = np.empty((len(plans), 2, steps))
        paths.extend(energies)

        def probed(t):
            info = step(t)
            for i, m in enumerate((eng._learner_mean(eng.e), eng.e_hat)):
                energies[:, i, t - 1] = np.matmul(m[..., None, :], m[..., :, None])[..., 0, 0]
            return info

        return probed

    for batch in _batches(config.seed, reps, 1):
        _run_batch(config, batch, probe=probe)
    # Summed replication by replication, so the means do not depend on the split.
    e_sq, ehat_sq = sum(paths) / reps
    return plan, e_sq, ehat_sq


def _energy_report(config: RunConfig, reps: int) -> VerifyReport:
    """The ``<algo>_errors`` check: each energy's peak against its closed-form cap.
    The residual-compression caps grow with the norm cap g of one transfer's
    gradient sum: L*G for a block of L rounds, G for an o2b update (alpha_t = 1)."""
    plan, e_sq, ehat_sq = _error_energies(config, reps)
    delta, G = plan.delta, plan.G
    if config.algo == "dftcl":
        caps = 4.0 * (1.0 - delta) * G**2 / delta**2, 160.0 * (1.0 - delta) * G**2 / delta**4
    else:
        g = plan.L * G if config.algo == "dftfcl" else G
        caps = 4.0 * math.e**2 * g**2, 120.0 * math.e**2 * g**2
    step = "b" if config.algo == "dftfcl" else "t"
    rows = []
    for name, energy, bound in zip(("e", "e_hat"), (e_sq, ehat_sq), caps):
        peak = float(energy.max())
        rows.append(VerifyRow(f"max_{step} mean ||{name}||^2", peak, bound, bound - peak, peak <= bound))
    return VerifyReport(f"{config.algo}_errors", tuple(rows))


def verify_dftcl_errors(
    seed: int = 0, seeds: int = 50, spec: CompressorSpec | None = None
) -> VerifyReport:
    """Error-memory energies of the per-round algorithm vs their closed-form caps."""
    spec = "randk:4" if spec is None else spec
    return _energy_report(RunConfig("dftcl", "linear", 2000, 8, 16, spec, seed=seed), seeds)


def verify_dftfcl_errors(
    seed: int = 0, seeds: int = 50, spec: CompressorSpec | None = None, L: int | None = None
) -> VerifyReport:
    """Block-algorithm error energies vs the residual-compression caps (L = ceil(1/delta))."""
    spec = "randk:4" if spec is None else spec
    return _energy_report(RunConfig("dftfcl", "linear", 2000, 8, 16, spec, L=L, seed=seed), seeds)


def verify_o2b_errors(seed: int = 0, seeds: int = 20) -> VerifyReport:
    """Online-to-batch error energies (uniform weights, RandK(2)) vs the residual-compression caps."""
    return _energy_report(RunConfig("o2b", "lad", 1024, 4, 8, "randk:2", L=4, seed=seed), seeds)


_CHECKS = {
    "fcc_contraction": verify_fcc_contraction,
    "dftcl_errors": verify_dftcl_errors,
    "dftfcl_errors": verify_dftfcl_errors,
    "o2b_errors": verify_o2b_errors,
}
VERIFY_IDS = tuple(_CHECKS)


def verify_lemma(lemma_id: str, seed: int = 0, spec: CompressorSpec | None = None) -> VerifyReport:
    if lemma_id not in _CHECKS:
        raise ConfigError("lemma", f"unknown id {lemma_id!r}; expected one of {VERIFY_IDS}")
    if spec is None:
        return _CHECKS[lemma_id](seed)
    if lemma_id == "o2b_errors":
        raise ConfigError("compressor", "the o2b_errors check runs randk:2 only; it takes no override")
    return _CHECKS[lemma_id](seed, spec=spec)
