"""The traced run: per-layer metrics for doco's six modules.

Layers are the package modules: ``compressors``, ``domains``,
``environments``, ``algorithms``, ``harness`` and ``cli``.  Nothing under
``src/`` is changed; spans are recorded here, around calls into each module's
public functions, by temporarily wrapping those functions (see ``_targets``)
while a traced pass runs.  The traced run does, in order:

1. per workload, one untraced pass with 2 workers (the reference bytes),
   then untraced and traced passes with 1 worker, alternating.  Every pass
   must write the same bytes (a trace never depends on ``workers``).  The
   traced passes' spans give the harness and cli metrics, and traced over
   untraced wall time gives the tracing overhead;
2. a public-loop replay of every configuration, each cross-checked against
   ``run(cfg, keep_decisions=True)``, which runs traced;
3. micro-timings of the public leader steps and compressors at the
   workloads' shapes, and of the fixed cost of a ``monte_carlo`` call.

End-to-end metrics never come from here.  Which end-to-end metric each layer
metric should move, and on which workload, is listed in README.md.
"""

from __future__ import annotations

import functools
import json
import math
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import doco.cli
import doco.environments as envs
import doco.harness
from doco import RunConfig, monte_carlo, run
from doco.compressors import RandK, RandomGossip, compress, fcc
from doco.domains import Ball, Box, ftrl_linear_step, ftrl_strongly_convex_step

from replay import cross_check, replay
from workloads import SIZES, WORKERS, WORKLOADS, build_env, config_label, execute, golden, no_span

# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans with parent links; written out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(len(self.spans), name, self._open[-1] if self._open else None, perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(attrs_of(*args, **kwargs) if attrs_of else {})):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def instrument(self, targets):
        """Wrap each (owner, attribute, span name, attrs_of) for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, attrs_of in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, attrs_of))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def children(self, i: int) -> list[Span]:
        return [s for s in self.spans if s.parent == i]

    def within(self, i: int) -> list[Span]:
        """Every span nested (at any depth) inside span i."""
        inside, frontier = [], [i]
        while frontier:
            kids = self.children(frontier.pop())
            inside.extend(kids)
            frontier.extend(c.id for c in kids)
        return inside

    def self_time(self, i: int) -> float:
        return self.spans[i].duration - sum(c.duration for c in self.children(i))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def _cfg_attrs(cfg, *args, **kwargs):
    return {"config": config_label(cfg), "T": cfg.T}


def _targets():
    """Public functions wrapped while tracing: (owner, attribute, span name, attrs_of)."""
    loss_path = [
        (cls, attr, "environments.loss_path", None)
        for cls in (envs.LinearAdversary, envs.IntervalLinearEnv)
        for attr in ("mean_loss_path", "mean_loss_curve")
    ]
    return [
        # monte_carlo as the CLI sees it, and run as monte_carlo's replications call it
        (doco.cli, "monte_carlo", "harness.monte_carlo", _cfg_attrs),
        (doco.harness, "run", "harness.run", _cfg_attrs),
        (envs, "make_linear_adversary", "environments.build", lambda *a, **k: {"env": "linear"}),
        (envs, "make_convex_lower_bound_env", "environments.build", lambda *a, **k: {"env": "convex_lower"}),
        (envs, "make_lad_problem", "environments.build", lambda *a, **k: {"env": "lad"}),
        (doco.harness, "best_in_hindsight", "domains.best_in_hindsight", None),
        *loss_path,
        (envs.LadProblem, "value_path", "environments.value_path", None),
    ]


TRACE_PAIRS = 2  # untraced/traced pass pairs per workload, at 1 worker

_POST = ("environments.loss_path", "domains.best_in_hindsight", "environments.value_path")


# ---------------------------------------------------------------------------
# Micro-timings of public calls at the workloads' shapes
# ---------------------------------------------------------------------------


def per_call_us(fn, budget_s: float = 0.2, block: int = 200) -> float:
    """Median over blocks of the mean time per call, in microseconds."""
    means = []
    stop = perf_counter() + budget_s
    while len(means) < 10 or perf_counter() < stop:
        t0 = perf_counter()
        for _ in range(block):
            fn()
        means.append((perf_counter() - t0) / block)
    return median(means) * 1e6


def _micro(seed: int) -> dict:
    data = np.random.default_rng(seed)
    x16, x8 = data.standard_normal(16), data.standard_normal(8)
    rng = np.random.default_rng(seed + 1)
    ball = Ball(1.0, 16)
    box16 = Box(-0.25 * np.ones(16), 0.25 * np.ones(16))
    box8 = Box(np.zeros(8), np.ones(8))
    randk4, randk2, gossip = RandK(4), RandK(2), RandomGossip(0.25)
    return {
        "compressors.compress_us.randk4_d16": per_call_us(lambda: compress(randk4, x16, rng)),
        "compressors.compress_us.gossip_d16": per_call_us(lambda: compress(gossip, x16, rng)),
        "compressors.fcc_us.randk2_d8_L4": per_call_us(lambda: fcc(x8, randk2, 4, rng)),
        "domains.ftrl_step_us.ball": per_call_us(lambda: ftrl_linear_step(ball, x16, 0.01)),
        "domains.ftrl_step_us.box": per_call_us(lambda: ftrl_linear_step(box16, x16, 0.01)),
        "domains.ftrl_sc_step_us.box": per_call_us(lambda: ftrl_strongly_convex_step(box8, x8, x8, 0.5, 3.0)),
    }


def _mc_fixed_s(seed: int, repeats: int = 5) -> float:
    """Fixed cost of a monte_carlo call: 2 replications on 2 workers minus one run, at trivial size."""
    cfg = RunConfig(algo="dftcl", env="linear", T=64, n=8, d=16, compressor="randk:4", seed=seed)
    diffs = []
    for _ in range(repeats):
        t0 = perf_counter()
        monte_carlo(cfg, reps=2, workers=WORKERS)
        t1 = perf_counter()
        run(cfg)
        diffs.append((t1 - t0) - (perf_counter() - t1))
    return median(diffs)


def _build_peak_mb(cfg: RunConfig) -> float:
    tracemalloc.start()
    try:
        build_env(cfg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


@dataclass
class TracedResult:
    metrics: dict
    attempted: int
    failures: dict
    baseline_lines: list


def traced_run(seed: int, size_name: str, out_root: Path) -> TracedResult:
    """Run every workload untraced and traced, replay every config, and derive per-layer metrics.

    Raises replay.ReplayMismatch when the public-loop replay disagrees with doco.run.
    """
    tr = Tracer()
    walls: dict = {}  # (workload, pass) -> [seconds]
    outputs: list = []  # (workload, pass, {key: sha256})
    failures: dict = {}
    roots: dict = {}  # workload -> [root span id of each traced pass]

    def do_pass(w, tag, workers, span=no_span):
        wall, hashes, fail = execute(w, seed, size_name, workers, out_root / tag / w.name, span)
        walls.setdefault((w.name, tag), []).append(wall)
        outputs.append((w.name, tag, hashes))
        failures.update({f"{tag}#{len(outputs) - 1}:{k}": v for k, v in fail.items()})

    # Traced and untraced passes alternate, so a slow spell on the machine hits both.
    for w in WORKLOADS.values():
        do_pass(w, "untraced_w2", WORKERS)
        for _ in range(TRACE_PAIRS):
            do_pass(w, "untraced_w1", 1)
            with tr.instrument(_targets()), tr.span("workload", workload=w.name) as root:
                do_pass(w, "traced_w1", 1, tr.span)
            roots.setdefault(w.name, []).append(root.id)

    # Bytes must not depend on workers or tracing, and must match the recorded hashes.
    gold = golden(size_name, seed) or {}
    reference = {key: h for wname, tag, hashes in outputs if tag == "untraced_w2" for key, h in hashes.items()}
    for i, (wname, tag, hashes) in enumerate(outputs):
        for key, h in hashes.items():
            if h != reference[key]:
                failures.setdefault(f"{tag}#{i}:{key}", "bytes differ from the 2-worker untraced pass")
            elif key in gold and h != gold[key]:
                failures.setdefault(f"{tag}#{i}:{key}", "sha256 differs from golden.json")
    attempted = sum(len(hashes) for _, _, hashes in outputs)

    # Replay every configuration through the public loop; run the same config traced.
    replays, run_spans = {}, {}
    for w in WORKLOADS.values():
        for cfg in w.configs(seed, SIZES[size_name][w.name]):
            label = config_label(cfg)
            rep = replay(cfg)
            with tr.instrument(_targets()), tr.span("harness.run", config=label, T=cfg.T) as s:
                trace = run(cfg, keep_decisions=True)
            cross_check(rep, trace)
            replays.setdefault(label, []).append(rep)
            run_spans.setdefault(label, []).append(s.id)

    m = _micro(seed)
    m["harness.mc_fixed_s"] = _mc_fixed_s(seed)
    online_cfg = WORKLOADS["online_long"].configs(seed, SIZES[size_name]["online_long"])[0]
    m["environments.build_peak_mb.linear"] = _build_peak_mb(online_cfg)

    # algorithms and environments, from the replays
    def us(x, q=50):
        return float(np.percentile(np.concatenate(x), q)) * 1e6

    for algo in ("dftcl", "dftfcl"):
        calls = [r.call_s for r in replays[f"{algo}_linear"]]
        m[f"algorithms.round_us.{algo}"] = us(calls)
        m[f"algorithms.round_us_p99.{algo}"] = us(calls, 99)
    sweep_reps = replays["dftcl_convex_lower"]
    o2b_reps = replays["o2b_lad_uniform"] + replays["o2b_lad_linear"]
    m["algorithms.round_us.dftcl_convex_lower"] = us([r.call_s for r in sweep_reps])
    m["algorithms.step_us.o2b"] = us([r.call_s for r in o2b_reps])
    m["algorithms.step_self_us.o2b"] = us([r.call_s - r.env_s for r in o2b_reps])
    m["environments.grads_us.linear"] = us([r.env_s for r in replays["dftcl_linear"] + replays["dftfcl_linear"]])
    m["environments.grads_us.convex_lower"] = us([r.env_s for r in sweep_reps])
    m["environments.oracle_us.lad"] = us([r.env_s for r in o2b_reps])

    # compressors: exact counters read off the engines
    every = [r for reps in replays.values() for r in reps]
    m["compressors.msgs"] = sum(r.msgs_up + r.msgs_down for r in every)
    m["compressors.bits_up"] = sum(int(r.bits_up[-1]) for r in every)
    m["compressors.bits_down"] = sum(int(r.bits_down[-1]) for r in every)
    msgs = sum(r.msgs_up + r.msgs_down for r in sweep_reps)
    bits = sum(int(r.bits_up[-1] + r.bits_down[-1]) for r in sweep_reps)
    delivered, rest = divmod(bits - msgs, 64 * 16 - 1)  # a delivered message costs 64*d bits, a failed one 1
    if rest:
        failures["gossip bit count"] = f"{bits} bits over {msgs} messages fit no delivered/failed split"
    m["compressors.gossip_delivered_frac"] = delivered / msgs

    # environments, domains and harness, from the spans
    def spans(name, **attrs):
        return [s for s in tr.spans if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]

    for env in ("linear", "convex_lower", "lad"):
        m[f"environments.build_s.{env}"] = median(s.duration for s in spans("environments.build", env=env))
    m["environments.value_path_s.lad"] = median(s.duration for s in spans("environments.value_path"))
    online_runs = [s for s in spans("harness.run") if s.attrs["config"] in ("dftcl_linear", "dftfcl_linear")]
    m["environments.loss_path_s"] = median(
        sum(c.duration for c in tr.children(s.id) if c.name == "environments.loss_path") for s in online_runs
    )
    m["domains.hindsight_s.o2b_lad_linear"] = median(
        c.duration for i in run_spans["o2b_lad_linear"] for c in tr.children(i) if c.name == "domains.best_in_hindsight"
    )
    for label, idx in run_spans.items():
        m[f"harness.run_s.{label}"] = sum(tr.spans[i].duration for i in idx)
        m[f"harness.post_s.{label}"] = sum(c.duration for i in idx for c in tr.children(i) if c.name in _POST)

    def per_root(wname, name):
        """Median over the workload's traced passes of the summed duration of spans called ``name``."""
        return median(sum(s.duration for s in tr.within(r) if s.name == name) for r in roots[wname])

    for wname in ("online_long", "sweep_short"):
        m[f"harness.parallel_eff.{wname}"] = per_root(wname, "harness.run") / (WORKERS * walls[wname, "untraced_w2"][0])
    for wname in ("online_long", "o2b_lad"):
        m[f"harness.csv_write_s.{wname}"] = per_root(wname, "harness.to_csv")
    for w in WORKLOADS.values():
        m[f"harness.csv_bytes.{w.name}"] = sum(
            (out_root / "untraced_w2" / w.name / name).stat().st_size for name in w.outputs
        )
        traced, untraced = median(walls[w.name, "traced_w1"]), median(walls[w.name, "untraced_w1"])
        m[f"trace.overhead_frac.{w.name}"] = traced / untraced - 1
    mains = [s for r in roots["sweep_short"] for s in tr.within(r) if s.name == "cli.main"]
    m["cli.main_s"] = median(s.duration for s in mains)
    m["cli.self_s"] = median(tr.self_time(s.id) for s in mains)
    m["failed_frac"] = len(failures) / attempted

    tr.dump(out_root / "spans.json")
    baseline = []
    units = {"dftcl_linear": "round", "dftfcl_linear": "round", "o2b_lad_uniform": "update", "o2b_lad_linear": "update"}
    for label, unit in units.items():
        (rep,) = replays[label]
        calls = rep.call_s.shape[0]
        baseline.append(
            f"{label}: run {m[f'harness.run_s.{label}'] / calls * 1e6:.1f} us/{unit} inclusive, "
            f"replay median {np.median(rep.call_s) * 1e6:.1f} us/{unit} ({calls} {unit}s)"
        )
    return TracedResult(m, attempted, failures, baseline)
