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
flag given on the command line overrides the file.  Each run key is a
:class:`RunConfig` field, which declares its type and help text; a flag's
value is parsed as the file's is, so a bad value is a configuration error
naming its key from either.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, field, fields, replace

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


@dataclass
class _CommandKeys:
    """The config keys of ``run`` (``out``) and ``sweep`` (all three) beyond RunConfig's."""

    out: str | None = field(default=None, metadata={"help": "output CSV path"})
    T_grid: list[int] | None = field(default=None, metadata={"help": "comma list of horizons"})
    delta_grid: list[float] | None = field(default=None, metadata={"help": "comma list of contraction factors"})


def _keys(cls) -> dict:
    """Config key -> (field name, type, help) of each field of ``cls``.  The key
    is the field's name (``set`` for RunConfig's ``feasible``), and its type the
    first member of the field's annotation (``int | None`` is int)."""
    hints = typing.get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        kind = hints[f.name]
        if typing.get_origin(kind) in (typing.Union, types.UnionType):
            kind = typing.get_args(kind)[0]
        keys["set" if f.name == "feasible" else f.name] = (f.name, kind, f.metadata["help"])
    return keys


# Every key round-trips through the config-file representation.
_RUN_KEYS = _keys(RunConfig)
_KNOWN_KEYS = {**_RUN_KEYS, **_keys(_CommandKeys)}


def _convert(key: str, raw: str):
    """Parse a flag's or a config file's text for ``key``; lists are comma-separated."""
    kind = _KNOWN_KEYS[key][1]
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        if typing.get_origin(kind) is list:
            return [typing.get_args(kind)[0](v) for v in raw.split(",")]
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse value {raw!r}") from exc


def _read_lines(key: str, path: str) -> list[str]:
    """The lines of the text file at ``path``, given as ``key``; a file that
    cannot be read (or is not text) is a configuration error naming ``key``."""
    try:
        with open(path) as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(key, f"cannot read {path!r}: {getattr(exc, 'strerror', None) or exc}") from exc


def parse_config_file(path: str) -> dict:
    """Plain-text ``key = value`` configuration; unknown keys are rejected."""
    values: dict = {}
    for lineno, line in enumerate(_read_lines("config", path), start=1):
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
    return RunConfig(**{_RUN_KEYS[key][0]: v for key, v in values.items() if key in _RUN_KEYS})


def _add_flags(p: argparse.ArgumentParser, keys) -> None:
    """One flag per config key, ``--`` + the key with ``-`` for ``_``; a bool key's
    flag takes no value.  Values stay text until :func:`_gather` parses them."""
    for key in keys:
        kind, help = _KNOWN_KEYS[key][1:]
        if kind is bool:
            p.add_argument("--" + key.replace("_", "-"), action="store_const", const="true", help=help)
        else:
            p.add_argument("--" + key.replace("_", "-"), help=help)


def _gather(args: argparse.Namespace) -> dict:
    """The config file's values, overridden by the flags given."""
    values = parse_config_file(args.config) if args.config else {}
    for key, raw in vars(args).items():
        if key in _KNOWN_KEYS and raw is not None:
            values[key] = _convert(key, raw)
    return values


def _pop_out(values: dict, what: str) -> str:
    """The ``out`` path, taken from ``values``: a file path in a directory that
    exists, checked before any round runs."""
    out = values.pop("out", None)
    if out is None:
        raise ConfigError("out", f"required: path for the {what}")
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError("out", f"not a file path in an existing directory: {out!r}")
    return out


def cmd_run(args: argparse.Namespace) -> int:
    values = _gather(args)
    out = _pop_out(values, "CSV trace")
    config = _config_from_values(values)
    # Replications (even a single one) run at hash-derived seeds, so run and
    # sweep rows agree point for point under the same configuration.
    trace = monte_carlo(config)
    trace.to_csv(out)
    print(f"wrote {out} ({trace.t.shape[0]} rows)")
    return 0


def _fit(xs: list, finals: list) -> tuple[float, float]:
    """:func:`fit_rate` of one grid line's final regrets; (nan, nan) below three
    points or when a final regret is not positive."""
    return fit_rate(xs, finals) if len(xs) >= 3 and min(finals) > 0 else (math.nan, math.nan)


def cmd_sweep(args: argparse.Namespace) -> int:
    values = _gather(args)
    out = _pop_out(values, "sweep CSV")
    T_grid = values.pop("T_grid", None) or ([values["T"]] if values.get("T") else None)
    if not T_grid:
        raise ConfigError("T_grid", "required: list of horizons (or a single T)")
    base = _config_from_values(values)
    base_spec = parse_compressor(base.compressor) if isinstance(base.compressor, str) else base.compressor
    delta_grid = values.get("delta_grid")
    if delta_grid:
        specs = [(dl, base_spec.at_delta(dl, base.d)) for dl in delta_grid]
    else:
        specs = [(nominal_delta(base_spec, base.d), base_spec)]

    # Deltas repeat as the compressors they resolve to: near-equal deltas can
    # round to one randk spec, and would give the same rows twice.
    for name, grid in (("T_grid", T_grid), ("delta_grid", [spec.label() for _, spec in specs])):
        repeated = sorted({v for v in grid if grid.count(v) > 1})
        if repeated:
            raise ConfigError(name, f"repeated grid values {repeated}")
    points = [(delta, spec, T) for delta, spec in specs for T in T_grid]
    means = _monte_carlo_many([replace(base, compressor=spec, T=T) for _, spec, T in points], base.reps, base.workers)
    results = {(delta, T): (mean.final_regret, mean.final_regret_stderr) for (delta, _, T), mean in zip(points, means)}

    deltas = [dl for dl, _ in specs]
    t_fit = {dl: _fit(T_grid, [results[(dl, T)][0] for T in T_grid]) for dl in deltas}
    d_fit = {T: _fit(deltas, [results[(dl, T)][0] for dl in deltas]) for T in T_grid}

    with open(out, "w", newline="") as fh:
        fh.write("delta,T,final_regret_mean,final_regret_stderr,t_exponent,t_r2,delta_exponent,delta_r2\n")
        for delta in deltas:
            for T in T_grid:
                m, se = results[(delta, T)]
                te, tr2 = t_fit[delta]
                de, dr2 = d_fit[T]
                fh.write(f"{delta!r},{T},{m!r},{se!r},{te!r},{tr2!r},{de!r},{dr2!r}\n")
    print(f"wrote {out} ({len(results)} grid points)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = parse_compressor(args.compressor) if args.compressor else None
    report = verify_lemma(args.lemma, seed=args.seed, spec=spec)
    for row in report.rows:
        status = "PASS" if row.ok else "FAIL"
        print(
            f"{report.lemma} {row.label}: measured={row.measured:.6g} "
            f"bound={row.bound:.6g} margin={row.margin:.6g} {status}"
        )
    print(f"{report.lemma}: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def _numbers(key: str, text: str) -> list[float]:
    """The comma-separated numbers of ``text``, given as ``key``."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse value {text!r}") from exc


def cmd_fit(args: argparse.Namespace) -> int:
    if args.csv:
        if not (args.x and args.y):
            raise ConfigError("fit", "--csv needs --x and --y column names")
        lines = _read_lines("csv", args.csv)
        if not any(line.strip() for line in lines):
            raise ConfigError("csv", f"{args.csv!r} is empty")
        try:
            data = np.genfromtxt(lines, delimiter=",", names=True)
        except ValueError as exc:  # e.g. a row with more fields than the header
            raise ConfigError("csv", f"cannot parse {args.csv!r}: {' '.join(str(exc).split())}") from exc
        for key in ("x", "y"):
            if getattr(args, key) not in (data.dtype.names or ()):
                raise ConfigError(key, f"no column {getattr(args, key)!r} in {args.csv!r}")
        xs = np.atleast_1d(data[args.x])
        ys = np.atleast_1d(data[args.y])
    elif args.xs and args.ys:
        xs, ys = (_numbers(key, getattr(args, key)) for key in ("xs", "ys"))
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

    for name, func, help, extra in (
        ("run", cmd_run, "run one experiment and write its CSV trace", ["out"]),
        ("sweep", cmd_sweep, "sweep delta and T grids; write summary CSV", ["out", "T_grid", "delta_grid"]),
    ):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="config file; flags override its keys")
        _add_flags(p, list(_RUN_KEYS) + extra)
        p.set_defaults(func=func)

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
