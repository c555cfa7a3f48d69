"""The benchmark's three workloads, their sizes, and the checks on their outputs.

Each workload is a closed loop of calls into doco's public API: the next call
starts when the previous one returns.  The workload seed is the only input;
doco receives it as ``RunConfig.seed`` (or ``--seed``) and derives every
stream from it, so one seed always gives the same inputs and the same bytes.

Why these three (see also README.md in this directory):

* ``online_long`` - ``monte_carlo`` of ``dftcl`` and ``dftfcl`` on ``linear``
  (n=8, d=16, ``randk:4``) with the process pool: few replications at a long
  T.  Nearly all time is the round loop: the randk compressor bank, the ball
  FTRL step and engine bookkeeping.  Its pre-generated T x n x d gradient
  arrays are what drives memory.
* ``o2b_lad`` - plain ``run`` (no pool) of ``o2b`` on ``lad`` (n=4, d=8,
  samples=32, ``randk:2``, L=4) with uniform weights and with linear weights
  (mu=0.5).  The compressor layer runs as an L-round residual loop with
  small n, and it carries the costs no other workload has: the stochastic
  oracle, ``value_path``, the black-box hindsight solve and the
  ``RegretTrace`` writer.
* ``sweep_short`` - ``doco.cli.main(["sweep", ...])`` in process: ``dftcl``
  on ``convex_lower`` with ``gossip`` over a 3 x 3 delta x T grid of short
  horizons and many replications.  Many short ``monte_carlo`` calls stress
  per-call and per-replication costs (pool start-up, stream seeding, the
  environment build), the gossip path, the interval environment, box FTRL
  and the CLI.  It never touches randk or the residual loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from doco import RunConfig, cli, monte_carlo, run
from doco.compressors import derive_seed, nominal_delta, parse_compressor
from doco.domains import Ball, Box
from doco.environments import make_convex_lower_bound_env, make_lad_problem, make_linear_adversary

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

# Stream tag doco's harness hashes with the seed to seed an environment.  The
# replay cross-check fails loudly if it ever drifts from the harness.
ENV_TAG = 3

WORKERS = 2  # pool width of the timed runs; the reference machine has 2 cores

# Job sizes.  "full" is what the timed runs measure; "tiny" is the self-test.
SIZES = {
    "full": {
        "online_long": {"T": 2**14, "reps": 2},
        "o2b_lad": {"K": 1024},
        "sweep_short": {"T_grid": (256, 512, 1024), "reps": 8},
    },
    "tiny": {
        "online_long": {"T": 256, "reps": 2},
        "o2b_lad": {"K": 32},
        "sweep_short": {"T_grid": (32, 64, 128), "reps": 2},
    },
}

DELTA_GRID = (0.25, 0.125, 0.0625)


def no_span(name: str, **attrs):
    """The span factory of an untraced pass: records nothing."""
    return contextlib.nullcontext()


def config_label(cfg: RunConfig) -> str:
    if cfg.algo == "o2b":
        return f"o2b_lad_{cfg.weights}"
    return f"{cfg.algo}_{cfg.env}"


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def online_configs(seed: int, size: dict) -> list[RunConfig]:
    return [
        RunConfig(algo=algo, env="linear", T=size["T"], n=8, d=16, compressor="randk:4", seed=seed)
        for algo in ("dftcl", "dftfcl")
    ]


def o2b_configs(seed: int, size: dict) -> list[RunConfig]:
    common = dict(algo="o2b", env="lad", T=size["K"] * 4, n=4, d=8, samples=32, compressor="randk:2", L=4, seed=seed)
    return [RunConfig(weights="uniform", **common), RunConfig(weights="linear", mu=0.5, **common)]


def sweep_configs(seed: int, size: dict) -> list[RunConfig]:
    """The grid points the sweep runs, as the CLI builds them."""
    return [
        RunConfig(algo="dftcl", env="convex_lower", T=T, n=8, d=16, compressor=f"gossip:{delta!r}", seed=seed)
        for delta in DELTA_GRID
        for T in size["T_grid"]
    ]


def build_env(cfg: RunConfig):
    """Build ``cfg``'s environment through the public constructors.

    Returns (environment, feasible set, G) exactly as ``doco.run`` resolves
    them for the configurations this benchmark uses (default G, D and set).
    """
    spec = parse_compressor(cfg.compressor) if isinstance(cfg.compressor, str) else cfg.compressor
    seed = derive_seed(cfg.seed, ENV_TAG)
    if cfg.env == "linear":
        return make_linear_adversary(cfg.n, cfg.d, cfg.T, 1.0, seed), Ball(1.0, cfg.d), 1.0
    if cfg.env == "convex_lower":
        env = make_convex_lower_bound_env(cfg.n, cfg.d, cfg.T, 1.0, 2.0, nominal_delta(spec, cfg.d), seed)
        return env, env.feasible, 1.0
    if cfg.env == "lad":
        box = Box(np.zeros(cfg.d), np.ones(cfg.d))
        problem = make_lad_problem(cfg.n, cfg.d, cfg.samples, box, seed, mu=cfg.mu or 0.0)
        return problem, box, problem.G
    raise ValueError(f"no public constructor mapped for env {cfg.env!r}")


# ---------------------------------------------------------------------------
# Jobs: one timed unit of each workload.  ``span`` opens a tracing span; an
# untraced pass passes ``no_span``.
# ---------------------------------------------------------------------------


def online_job(seed: int, size: dict, workers: int, out: Path, span=no_span) -> None:
    for cfg in online_configs(seed, size):
        label = config_label(cfg)
        with span("harness.monte_carlo", config=label):
            mean = monte_carlo(cfg, reps=size["reps"], workers=workers)
        with span("harness.to_csv", config=label):
            mean.to_csv(out / f"{cfg.algo}.csv")


def o2b_job(seed: int, size: dict, workers: int, out: Path, span=no_span) -> None:
    for cfg in o2b_configs(seed, size):
        label = config_label(cfg)
        with span("harness.run", config=label):
            trace = run(cfg)
        with span("harness.to_csv", config=label):
            trace.to_csv(out / f"{cfg.weights}.csv")


def sweep_argv(seed: int, size: dict, workers: int, path: Path) -> list[str]:
    return [
        "sweep", "--algo", "dftcl", "--env", "convex_lower", "--n", "8", "--d", "16",
        "--compressor", "gossip:0.25",
        "--delta-grid", ",".join(repr(dl) for dl in DELTA_GRID),
        "--T-grid", ",".join(str(T) for T in size["T_grid"]),
        "--reps", str(size["reps"]), "--workers", str(workers), "--seed", str(seed), "--out", str(path),
    ]  # fmt: skip


def sweep_job(seed: int, size: dict, workers: int, out: Path, span=no_span) -> None:
    with span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sweep_argv(seed, size, workers, out / "sweep.csv"))
    if code != 0:
        raise RuntimeError(f"doco sweep exited with {code}")


# ---------------------------------------------------------------------------
# Output checks.  Every file must parse, hold only finite numbers, have the
# expected shape, and agree exactly with the declared bit-cost model (64-bit
# reals, ceil(log2 d) bits per index).  The sweep's fitted exponents must be
# finite with the signs the theory gives (regret grows in T, falls in delta).
# ---------------------------------------------------------------------------

_TRACE_HEADER = "t,cum_loss,comparator,regret,bits_up,bits_down"
_SWEEP_HEADER = "delta,T,final_regret_mean,final_regret_stderr,t_exponent,t_r2,delta_exponent,delta_r2"


def _randk_bits(k: int, d: int) -> int:
    return k * (64 + math.ceil(math.log2(d)))


def _expect_online(algo: str, size: dict):
    T, n, msg = size["T"], 8, _randk_bits(4, 16)
    t = np.arange(1, T + 1)
    if algo == "dftcl":
        up, down = n * msg * t, msg * t
    else:  # dftfcl, L = 4: block 1 is silent, the server starts in block 3
        L = 4
        up, down = n * msg * np.maximum(t - L, 0), msg * np.maximum(t - 2 * L, 0)
    return _TRACE_HEADER, t, up, down


def _expect_o2b(size: dict):
    K, n, L, msg = size["K"], 4, 4, _randk_bits(2, 8)
    u = np.arange(1, K + 1)
    return _TRACE_HEADER + ",subopt", u * L, n * L * msg * u, L * msg * u


def check_file(workload: str, name: str, path: Path, size: dict) -> str | None:
    """Return None when the output is correct, else the reason it is not."""
    text = path.read_text()
    header = text.split("\n", 1)[0]
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(data)):
        return "non-finite value"
    if workload == "sweep_short":
        if header != _SWEEP_HEADER:
            return f"header {header!r}"
        grid = [(dl, T) for dl in DELTA_GRID for T in size["T_grid"]]
        if data.shape != (len(grid), 8) or [tuple(r) for r in data[:, :2]] != grid:
            return "grid rows do not match the requested grid"
        if np.any(data[:, 2] <= 0) or np.any(data[:, 3] <= 0):
            return "final regret or its stderr is not positive"
        if not (np.all((0 < data[:, 4]) & (data[:, 4] < 1.5)) and np.all((-1.5 < data[:, 6]) & (data[:, 6] < 0))):
            return "fitted exponents out of range"
        return None
    if workload == "online_long":
        want_header, t, up, down = _expect_online(name.removesuffix(".csv"), size)
    else:
        want_header, t, up, down = _expect_o2b(size)
    if header != want_header:
        return f"header {header!r}"
    if data.shape[0] != t.shape[0]:
        return f"{data.shape[0]} rows, expected {t.shape[0]}"
    if not (np.array_equal(data[:, 0], t) and np.array_equal(data[:, 4], up) and np.array_equal(data[:, 5], down)):
        return "t or bit columns disagree with the bit-cost model"
    if workload == "o2b_lad" and np.any(data[:, 6] < -1e-9):
        return "suboptimality below the exact optimum"
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden(size_name: str, seed: int) -> dict | None:
    """Recorded hashes {"<workload>/<file>": sha256} for this size and seed, if any."""
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    return table.get(size_name, {}).get(str(seed))


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int, dict], list[RunConfig]]
    job: Callable[..., None]
    outputs: tuple[str, ...]

    def rounds(self, size: dict) -> int:
        """Sum of T x reps over one job's calls (for o2b, T counts communication rounds)."""
        return sum(cfg.T for cfg in self.configs(0, size)) * size.get("reps", 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("online_long", online_configs, online_job, ("dftcl.csv", "dftfcl.csv")),
        Workload("o2b_lad", o2b_configs, o2b_job, ("uniform.csv", "linear.csv")),
        Workload("sweep_short", sweep_configs, sweep_job, ("sweep.csv",)),
    )
}


def execute(workload: Workload, seed: int, size_name: str, workers: int, out: Path, span=no_span):
    """Run one job into ``out`` and check what it wrote.

    Returns (wall seconds, {"<workload>/<file>": sha256 or None}, {same key:
    failure reason}).  An exception from doco fails every output of the job.
    """
    size = SIZES[size_name][workload.name]
    out.mkdir(parents=True, exist_ok=True)
    for name in workload.outputs:
        (out / name).unlink(missing_ok=True)
    crash = None
    t0 = perf_counter()
    try:
        workload.job(seed, size, workers, out, span)
    except Exception:  # a failing call is counted against the run, not fatal to it
        crash = traceback.format_exc()
    wall = perf_counter() - t0
    hashes, failures = {}, {}
    for name in workload.outputs:
        key = f"{workload.name}/{name}"
        hashes[key] = None
        if crash is not None:
            failures[key] = crash.strip().splitlines()[-1]
            continue
        try:
            hashes[key] = sha256(out / name)
            reason = check_file(workload.name, name, out / name, size)
        except (OSError, ValueError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failures[key] = reason
    if crash is not None:
        print(crash, file=sys.stderr)
    return wall, hashes, failures
