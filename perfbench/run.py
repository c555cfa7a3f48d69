#!/usr/bin/env python3
"""doco benchmark: end-to-end timed runs, a traced per-layer run, and a self-test.

Run from the root of a repository checkout; doco is imported from ./src and
every output goes under ./.bench_out/.

    python3 perfbench/run.py --workload online_long --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload online_long --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-golden

``--trace 0`` repeats one workload's job (at 2 pool workers) until
``--seconds`` have passed, checks every file it writes, and reports the
end-to-end metrics BENCHMARK.json declares: median job wall time, rounds per
second, set-up time (median of fresh-process probes), and peak RSS.
``--trace 1`` is the separate traced run: it covers all three workloads and
reports the declared per-layer metrics (see layers.py).  Its work is fixed,
so ``--workload`` only labels its report and ``--seconds`` is not used.
``--selftest`` runs every workload, the traced run and the hash checks at
tiny sizes for the recorded seeds.  ``--record-golden`` rewrites golden.json;
do that only when a change to trace bytes is intended.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

MIN_ITERS = 3  # a timed run repeats its job at least this often, whatever --seconds says
SETUP_REPEATS = 7
GOLDEN_SEEDS = (0, 1)  # the default workload seed and one held-out seed


def load_doco():
    """Put ./src first on the path and import doco from there, or stop."""
    if not (SRC / "doco" / "__init__.py").is_file() or not SPEC.is_file():
        raise SystemExit(f"error: run from a doco checkout; {SRC / 'doco'} or {SPEC} is missing")
    sys.path.insert(0, str(SRC))
    import doco

    if Path(doco.__file__).resolve().parent != (SRC / "doco").resolve():
        raise SystemExit(f"error: imported doco from {doco.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def machine_facts() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "doco").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "doco_commit": _git_commit(),
        "doco_src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Timed (untraced) run of one workload
# ---------------------------------------------------------------------------


def setup_seconds(workload: str, seed: int, size_name: str, repeats: int) -> list[float]:
    """Fresh-process ``import doco`` plus the workload's environment constructors, ``repeats`` times."""
    times = []
    for _ in range(repeats):
        res = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed), size_name],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )  # fmt: skip
        probe = json.loads(res.stdout.strip().splitlines()[-1])
        times.append(probe["import_s"] + probe["build_s"])
    return times


def timed_run(name: str, seed: int, seconds: float, size_name: str = "full", setup_repeats: int = SETUP_REPEATS):
    from workloads import SIZES, WORKERS, WORKLOADS, execute, golden

    w = WORKLOADS[name]
    out = OUT / "timed" / name
    gold = golden(size_name, seed)
    walls, failures, attempted, reference = [], {}, 0, None
    start = perf_counter()
    while len(walls) < MIN_ITERS or perf_counter() - start < seconds:
        wall, hashes, fail = execute(w, seed, size_name, WORKERS, out)
        walls.append(wall)
        attempted += len(hashes)
        reference = reference or hashes
        for key, h in hashes.items():
            if key in fail:
                continue
            if h != reference[key]:
                fail[key] = "bytes differ between repeats of the same seed"
            elif gold is not None and h != gold.get(key):
                fail[key] = "sha256 differs from golden.json"
        failures.update({f"iteration {len(walls)}: {k}": v for k, v in fail.items()})
    # Peak RSS before the set-up probes, so only the job's own processes count.
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    setups = setup_seconds(name, seed, size_name, setup_repeats)
    wall_s = median(walls)
    metrics = {
        "wall_s": wall_s,
        "rounds_per_s": w.rounds(SIZES[size_name][name]) / wall_s,
        "setup_s": median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }
    detail = {"walls_s": walls, "setups_s": setups, "golden_checked": gold is not None}
    return metrics, attempted, failures, detail


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def declared_units(kind: str) -> dict:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(report: dict, units: dict, metrics: dict, attempted: int, failures: dict) -> None:
    """Print the human-readable report, save it, and end with the one-line JSON result."""
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    report.update(metrics=metrics, attempted=attempted, failures=failures)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report_{report['workload']}_trace{report['trace']}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"machine: {json.dumps(report['machine'])}")
    print(f"load average (1 min): before {report['load_before']:.2f}, after {report['load_after']:.2f}")
    for line in report.get("lines", []):
        print(line)
    for key, reason in failures.items():
        print(f"FAILED {key}: {reason}")
    for name in units:
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    print(f"outputs: {attempted} attempted, {len(failures)} failed; report in {path.relative_to(ROOT)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


def record_golden() -> int:
    from workloads import GOLDEN, SIZES, WORKERS, WORKLOADS, execute

    table: dict = {}
    for size_name in SIZES:
        for seed in GOLDEN_SEEDS:
            hashes = table.setdefault(size_name, {}).setdefault(str(seed), {})
            for w in WORKLOADS.values():
                _, h, fail = execute(w, seed, size_name, WORKERS, OUT / "golden" / w.name)
                if fail:
                    raise SystemExit(f"error: cannot record golden hashes: {fail}")
                hashes.update(h)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def selftest() -> int:
    from layers import traced_run
    from workloads import WORKLOADS

    start = perf_counter()
    problems = []
    for seed in GOLDEN_SEEDS:
        for name in WORKLOADS:
            _, attempted, failures, detail = timed_run(name, seed, 0, "tiny", setup_repeats=1)
            if not detail["golden_checked"]:
                failures["golden"] = "no recorded hashes for this seed"
            problems += [f"seed {seed} {name} {k}: {v}" for k, v in failures.items()]
            print(f"seed {seed} {name}: {attempted} outputs, {len(failures)} failed")
        res = traced_run(seed, "tiny", OUT / "selftest")
        problems += [f"seed {seed} traced {k}: {v}" for k, v in res.failures.items()]
        print(f"seed {seed} traced run: {res.attempted} outputs, {len(res.failures)} failed, replay cross-check passed")
    for p in problems:
        print(f"FAILED {p}")
    print(f"self-test {'PASSED' if not problems else 'FAILED'} in {perf_counter() - start:.1f} s")
    return 0 if not problems else 1


def main(argv=None) -> int:
    load_doco()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default="online_long")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; doco receives it as its seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long a timed run repeats its job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced per-layer run")
    parser.add_argument("--selftest", action="store_true", help="tiny-size check of every part of the benchmark")
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.selftest:
        return selftest()
    if args.record_golden:
        return record_golden()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "load_before": os.getloadavg()[0],
    }
    if args.trace:
        from layers import traced_run
        from replay import ReplayMismatch

        try:
            res = traced_run(args.seed, "full", OUT / "traced")
        except ReplayMismatch as exc:
            print(f"error: replay cross-check failed, no per-layer numbers reported: {exc}", file=sys.stderr)
            return 1
        report["load_after"] = os.getloadavg()[0]
        report["lines"] = ["us per round / update in the units of the ROADMAP baseline table:"] + res.baseline_lines
        emit(report, declared_units("per_layer"), res.metrics, res.attempted, res.failures)
    else:
        metrics, attempted, failures, detail = timed_run(args.workload, args.seed, args.seconds)
        report["load_after"] = os.getloadavg()[0]
        walls = sorted(detail["walls_s"])
        report["lines"] = [
            f"job wall times: n={len(walls)}, min {walls[0]:.3f} s, median {median(walls):.3f} s, max {walls[-1]:.3f} s"
        ]
        report.update(detail)
        emit(report, declared_units("end_to_end"), metrics, attempted, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
