"""Command-line front end: run experiments, sweep grids, verify bounds, fit rates.

Commands
--------
run     one configuration -> per-round CSV trace (averaged over --reps if > 1)
sweep   delta x T grid -> one CSV row per grid point with exponent fits
verify  measured statistic vs closed-form bound for one of the known checks
fit     log-log slope + R^2 for explicit value lists or CSV columns

All randomness flows from --seed; identical configuration and seed give
byte-identical output files.  Exit codes: 0 success, 1 verification failure,
2 configuration error.  Flags mirror the config-file keys one to one, and a
flag given on the command line overrides the file.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .compressors import nominal_delta, parse_compressor
from .domains import ConfigError
from .harness import (
    VERIFY_IDS,
    RunConfig,
    _monte_carlo_many,
    fit_rate,
    monte_carlo,
    verify_lemma,
)

__all__ = ["main", "cmd_run", "cmd_sweep", "cmd_verify", "cmd_fit", "parse_config_file", "config_to_text"]

# Config-file keys; every RunConfig flag round-trips through this representation.
_RUN_KEYS = {
    "algo": str,
    "env": str,
    "T": int,
    "n": int,
    "d": int,
    "compressor": str,
    "L": int,
    "eta": float,
    "mu": float,
    "G": float,
    "D": float,
    "set": str,
    "weights": str,
    "unidirectional": bool,
    "env_p": float,
    "samples": int,
    "seed": int,
    "reps": int,
    "workers": int,
}
_EXTRA_KEYS = {
    "out": str,
    "T_grid": "int_list",
    "delta_grid": "float_list",
}
_KNOWN_KEYS = {**_RUN_KEYS, **_EXTRA_KEYS}


def _convert(key: str, raw: str):
    kind = _KNOWN_KEYS[key]
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "int_list":
            return [int(v) for v in raw.split(",") if v.strip()]
        if kind == "float_list":
            return [float(v) for v in raw.split(",") if v.strip()]
        return raw
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse value {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """Plain-text ``key = value`` configuration; unknown keys are rejected."""
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError("config", f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in _KNOWN_KEYS:
                raise ConfigError(key, f"unknown configuration key ({path}:{lineno})")
            values[key] = _convert(key, raw.strip())
    return values


def config_to_text(values: dict) -> str:
    """Serialize a flag dictionary back to the config-file representation."""
    lines = []
    for key in _KNOWN_KEYS:
        if key not in values or values[key] is None:
            continue
        v = values[key]
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, (list, tuple)):
            v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


def _config_from_values(values: dict) -> RunConfig:
    kwargs = {}
    for key in _RUN_KEYS:
        if key in values and values[key] is not None:
            kwargs["feasible" if key == "set" else key] = values[key]
    return RunConfig(**kwargs)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file; flags override its keys")
    p.add_argument("--algo", choices=["dftcl", "dftfcl", "o2b"], help="algorithm id")
    p.add_argument("--env", choices=["linear", "sc_quadratic", "convex_lower", "sc_lower", "lad"])
    p.add_argument("--T", type=int, help="rounds (o2b: total communication rounds)")
    p.add_argument("--n", type=int, help="learner count")
    p.add_argument("--d", type=int, help="ambient dimension")
    p.add_argument("--compressor", help="identity | randk:k | sign | gossip:p")
    p.add_argument("--L", type=int, help="block size / compression rounds (default ceil(1/delta))")
    p.add_argument("--eta", type=float, help="learning rate (convex-mode step)")
    p.add_argument("--mu", type=float, help="strong-convexity parameter")
    p.add_argument("--G", type=float, help="gradient-norm bound")
    p.add_argument("--D", type=float, help="domain diameter (when no --set is given)")
    p.add_argument("--set", dest="set", help="box:lo:hi | ball:r")
    p.add_argument("--weights", choices=["uniform", "linear"], help="o2b weighting scheme")
    p.add_argument("--unidirectional", action="store_true", default=None, help="server sends uncompressed")
    p.add_argument("--env-p", dest="env_p", type=float, help="Bernoulli parameter of the sc_lower shift (sc_lower only)")
    p.add_argument("--samples", type=int, help="data points per learner (lad)")
    p.add_argument("--seed", type=int, help="global seed; all randomness derives from it")
    p.add_argument("--reps", type=int, help="Monte Carlo replications")
    p.add_argument("--workers", type=int, help="parallel workers for replications")


def _gather(args: argparse.Namespace, extra: tuple = ()) -> dict:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in list(_RUN_KEYS) + list(extra):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def cmd_run(args: argparse.Namespace) -> int:
    values = _gather(args, extra=("out",))
    out = values.pop("out", None)
    if out is None:
        raise ConfigError("out", "required: path for the CSV trace")
    values.pop("T_grid", None)
    values.pop("delta_grid", None)
    config = _config_from_values(values)
    # Replications (even a single one) run at hash-derived seeds, so run and
    # sweep rows agree point for point under the same configuration.
    trace = monte_carlo(config)
    trace.to_csv(out)
    print(f"wrote {out} ({trace.t.shape[0]} rows)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    values = _gather(args, extra=("out", "T_grid", "delta_grid"))
    out = values.pop("out", None)
    if out is None:
        raise ConfigError("out", "required: path for the sweep CSV")
    T_grid = values.pop("T_grid", None) or ([values["T"]] if values.get("T") else None)
    if not T_grid:
        raise ConfigError("T_grid", "required: list of horizons (or a single T)")
    base = _config_from_values(values)
    base_spec = parse_compressor(base.compressor) if isinstance(base.compressor, str) else base.compressor
    delta_grid = values.pop("delta_grid", None)
    if delta_grid:
        specs = [(float(dl), base_spec.at_delta(float(dl), base.d)) for dl in delta_grid]
    else:
        specs = [(nominal_delta(base_spec, base.d), base_spec)]

    # Deltas repeat as the compressors they resolve to: near-equal deltas can
    # round to one randk spec, and would give the same rows twice.
    for name, grid in (("T_grid", T_grid), ("delta_grid", [spec.label() for _, spec in specs])):
        repeated = sorted({v for v in grid if grid.count(v) > 1})
        if repeated:
            raise ConfigError(name, f"repeated grid values {repeated}")
    points = [(delta, spec, int(T)) for delta, spec in specs for T in T_grid]
    means = _monte_carlo_many([replace(base, compressor=spec, T=T) for _, spec, T in points], base.reps, base.workers)
    results = {(delta, T): (mean.final_regret, mean.final_regret_stderr) for (delta, _, T), mean in zip(points, means)}

    t_fit: dict = {}
    for delta, _ in specs:
        finals = [results[(delta, int(T))][0] for T in T_grid]
        t_fit[delta] = fit_rate(T_grid, finals) if len(T_grid) >= 3 and min(finals) > 0 else (math.nan, math.nan)
    d_fit: dict = {}
    deltas = [dl for dl, _ in specs]
    for T in T_grid:
        finals = [results[(dl, int(T))][0] for dl in deltas]
        d_fit[int(T)] = fit_rate(deltas, finals) if len(deltas) >= 3 and min(finals) > 0 else (math.nan, math.nan)

    with open(out, "w", newline="") as fh:
        fh.write("delta,T,final_regret_mean,final_regret_stderr,t_exponent,t_r2,delta_exponent,delta_r2\n")
        for delta, _ in specs:
            for T in T_grid:
                m, se = results[(delta, int(T))]
                te, tr2 = t_fit[delta]
                de, dr2 = d_fit[int(T)]
                fh.write(
                    f"{delta!r},{int(T)},{m!r},{se!r},{te!r},{tr2!r},{de!r},{dr2!r}\n"
                )
    print(f"wrote {out} ({len(results)} grid points)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = parse_compressor(args.compressor) if args.compressor else None
    report = verify_lemma(args.lemma, seed=args.seed if args.seed is not None else 0, spec=spec)
    for row in report.rows:
        status = "PASS" if row.ok else "FAIL"
        print(
            f"{report.lemma} {row.label}: measured={row.measured:.6g} "
            f"bound={row.bound:.6g} margin={row.margin:.6g} {status}"
        )
    print(f"{report.lemma}: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def cmd_fit(args: argparse.Namespace) -> int:
    if args.csv:
        if not (args.x and args.y):
            raise ConfigError("fit", "--csv needs --x and --y column names")
        data = np.genfromtxt(args.csv, delimiter=",", names=True)
        xs = np.atleast_1d(data[args.x])
        ys = np.atleast_1d(data[args.y])
    elif args.xs and args.ys:
        xs = [float(v) for v in args.xs.split(",")]
        ys = [float(v) for v in args.ys.split(",")]
    else:
        raise ConfigError("fit", "provide --xs and --ys, or --csv with --x and --y")
    try:
        exponent, r2 = fit_rate(xs, ys)
    except ValueError as exc:
        raise ConfigError("fit", str(exc)) from exc
    print(f"exponent={exponent!r} r2={r2!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doco",
        description="Distributed online convex optimization with compressed communication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its CSV trace")
    _add_run_flags(p_run)
    p_run.add_argument("--out", help="output CSV path")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep delta and T grids; write summary CSV")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.add_argument("--T-grid", dest="T_grid", help="comma list of horizons", type=lambda s: [int(v) for v in s.split(",")])
    p_sweep.add_argument(
        "--delta-grid", dest="delta_grid", help="comma list of contraction factors", type=lambda s: [float(v) for v in s.split(",")]
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="check a measured statistic against its bound")
    p_verify.add_argument("lemma", choices=list(VERIFY_IDS))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--compressor", help="override the check's default compressor")
    p_verify.set_defaults(func=cmd_verify)

    p_fit = sub.add_parser("fit", help="log-log rate fit")
    p_fit.add_argument("--xs", help="comma list of x values")
    p_fit.add_argument("--ys", help="comma list of y values")
    p_fit.add_argument("--csv", help="CSV file with named columns")
    p_fit.add_argument("--x", help="x column name")
    p_fit.add_argument("--y", help="y column name")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error - {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
