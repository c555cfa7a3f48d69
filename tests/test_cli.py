import argparse
import dataclasses
import typing

import numpy as np
import pytest

import doco.environments as envs
import doco.harness as harness
from doco.cli import _gather, build_parser, config_to_text, main, parse_config_file
from doco.compressors import derive_seed
from doco.domains import ConfigError
from doco.harness import RunConfig


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_smoke_writes_one_row_per_round(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["run", "--T", "100", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,cum_loss,comparator,regret,bits_up,bits_down"
    assert len(lines) == 101
    assert lines[1].startswith("1,")
    assert lines[-1].startswith("100,")


def test_run_missing_horizon_names_key(tmp_path, capsys):
    rc = main(["run", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "T" in err and "required" in err


@pytest.mark.parametrize(
    "command", [["run", "--T", "100", "--out", "x.csv"], ["verify", "o2b_errors"], ["verify", "fcc_contraction"]]
)
def test_negative_seed_exits_two(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--seed", "-1"]) == 2
    assert "seed: must be >= 0" in capsys.readouterr().err


def test_run_non_finite_decisions_exit_two(tmp_path, monkeypatch, capsys):
    class NanGradients(envs.LinearAdversary):
        def _load(self, a, b):
            super()._load(a, b)
            self._table = np.where((np.arange(a + 1, b + 1) >= 37)[:, None, None], np.nan, self._table)

    monkeypatch.setattr(envs, "make_linear_adversary", lambda *args: NanGradients(*args))
    out = tmp_path / "x.csv"
    args = ["run", "--T", "300", "--n", "2", "--d", "3", "--reps", "3", "--workers", "2", "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "decision" in err and "round 38" in err
    assert not out.exists()


def test_run_non_finite_losses_exit_two(tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["run", "--env", "sc_quadratic", "--T", "200", "--n", "2", "--d", "4"]
    args += ["--mu", "1e200", "--G", "1e300", "--D", "1e100", "--out", str(out)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == 2
    err = capsys.readouterr().err
    assert "cum_loss" in err and "round 1 on" in err
    assert not out.exists()


@pytest.mark.parametrize("env", ["linear", "convex_lower"])
def test_env_p_outside_sc_lower_exits_two(env, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", "--env", env, "--T", "64", "--env-p", "0.9", "--out", str(out)]) == 2
    assert "env_p" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,key",
    [
        (["--algo", "o2b", "--env", "lad", "--L", "2", "--mu", "inf"], "mu"),
        (["--G", "inf"], "G"),
        (["--eta", "inf"], "eta"),
        (["--eta", "nan"], "eta"),
        (["--env", "convex_lower", "--D", "inf"], "D"),
        (["--env", "sc_lower", "--mu", "1", "--env-p", "2"], "env_p"),
        (["--env", "sc_lower", "--mu", "1", "--env-p", "nan"], "env_p"),
    ],
)
def test_non_finite_scale_or_bad_env_p_names_its_key(flags, key, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", "--T", "64", "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith(f"configuration error - {key}: ")
    assert not out.exists()


def test_run_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--T", "64", "--n", "3", "--d", "8", "--compressor", "randk:2", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)
    c = tmp_path / "c.csv"
    assert main(args[:-2] + ["--seed", "8", "--out", str(c)]) == 0
    assert read(a) != read(c)


def test_run_o2b_has_subopt_column(tmp_path):
    out = tmp_path / "o2b.csv"
    rc = main(
        ["run", "--algo", "o2b", "--env", "lad", "--T", "32", "--n", "2", "--d", "4",
         "--compressor", "randk:1", "--L", "2", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith(",subopt")
    assert len(lines) == 1 + 16  # K = T / L rows


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("T = 32\nfrobnicate = 1\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "frobnicate" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("T = 32\nseed = 1\ncompressor = randk:2\nd = 8\nn = 2\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "1", "--out", str(b)]) == 0
    assert read(a) == read(b)


# ---------------------------------------------------------------------------
# Config-file round trip
# ---------------------------------------------------------------------------


COMMAND_VALUES = {"out": "trace.csv", "T_grid": [1024, 2048], "delta_grid": [1.0, 0.25]}


def run_config_values() -> dict:
    """A value for every RunConfig field, under its config key, of the first
    member of the field's annotation, and none of them the default."""
    samples = {str: "randk:4", int: 7, float: 0.015625, bool: True}
    hints = typing.get_type_hints(RunConfig)
    values = {}
    for f in dataclasses.fields(RunConfig):
        kind = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
        values["set" if f.name == "feasible" else f.name] = samples[kind]
        assert samples[kind] != f.default
    return values


def test_every_flag_round_trips_through_config_text(tmp_path):
    values = {**run_config_values(), **COMMAND_VALUES}
    assert len(values) == len(dataclasses.fields(RunConfig)) + 3 and "mu" in values
    path = tmp_path / "round.cfg"
    path.write_text(config_to_text(values))
    parsed = parse_config_file(str(path))
    assert parsed == values


def test_every_run_config_field_has_a_flag_a_config_key_and_help(tmp_path):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {f.name: f.metadata.get("help") for f in dataclasses.fields(RunConfig)}
    for command in ("run", "sweep"):
        parser = subparsers.choices[command]
        actions = {opt: action for action in parser._actions for opt in action.option_strings}
        for key, value in run_config_values().items():
            flag = "--" + key.replace("_", "-")
            assert actions[flag].help and actions[flag].help == helps["feasible" if key == "set" else key]
            # The flag and the config-file line give the same value.
            text = config_to_text({key: value}).partition(" = ")[2].strip()
            args = parser.parse_args([flag] if isinstance(value, bool) else [flag, text])
            assert _gather(args) == {key: value}
            path = tmp_path / "one.cfg"
            path.write_text(f"{key} = {text}\n")
            assert parse_config_file(str(path)) == {key: value}


@pytest.mark.parametrize(
    "key,raw",
    [("eta", "fast"), ("T", "abc"), ("seed", "1.5"), ("env_p", "high"), ("T_grid", "256,,512"), ("delta_grid", "0.5,x")],
)
def test_bad_value_is_one_configuration_error_from_flag_and_file(key, raw, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--" + key.replace("_", "-"), raw, "--out", str(out)]) == 2
    from_flag = capsys.readouterr().err
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {raw}\n")
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == from_flag == f"configuration error - {key}: cannot parse value {raw!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,key",
    [
        (["--algo", "sgd"], "algo"),
        (["--env", "ring"], "env"),
        (["--algo", "o2b", "--env", "lad", "--weights", "cubic"], "weights"),
    ],
)
def test_unknown_choice_is_a_configuration_error(flags, key, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", "--T", "32", "--L", "2", "--compressor", "randk:1", "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith(f"configuration error - {key}: ")
    assert not out.exists()


def test_config_parse_errors():
    with pytest.raises(ConfigError, match="eta"):
        from doco.cli import _convert

        _convert("eta", "fast")


def test_config_file_bools_comments_and_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment-only line\nunidirectional = false  # trailing comment\n")
    assert parse_config_file(str(path)) == {"unidirectional": False}
    for text, key in (("unidirectional = maybe\n", "unidirectional"), ("T 100\n", "config")):
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            parse_config_file(str(path))
        assert err.value.field == key


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_single_point_matches_run(tmp_path):
    run_out = tmp_path / "run.csv"
    sweep_out = tmp_path / "sweep.csv"
    base = ["--T", "128", "--n", "2", "--d", "8", "--compressor", "randk:8", "--seed", "5"]
    assert main(["run"] + base + ["--out", str(run_out)]) == 0
    assert main(["sweep"] + base + ["--T-grid", "128", "--delta-grid", "1.0", "--out", str(sweep_out)]) == 0
    final_regret = float(run_out.read_text().splitlines()[-1].split(",")[3])
    row = sweep_out.read_text().splitlines()[1].split(",")
    assert row[0] == "1.0" and row[1] == "128"
    assert float(row[2]) == pytest.approx(final_regret, rel=1e-12)
    # Single-point grids cannot support exponent fits.
    assert row[4] == "nan" and row[6] == "nan"


def test_sweep_delta_grid_runs_randk_family(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--T", "64", "--n", "2", "--d", "8", "--compressor", "randk:2",
         "--delta-grid", "1.0,0.25", "--T-grid", "64,128", "--seed", "0", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("delta,T,final_regret_mean")
    assert len(lines) == 1 + 4


def test_sweep_rejects_unrepresentable_delta(tmp_path, capsys):
    for delta in ("0.3", "0.01", "1.5", "nan", "inf"):
        rc = main(
            ["sweep", "--T", "64", "--d", "8", "--compressor", "randk:2",
             "--delta-grid", delta, "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2
        assert "delta_grid" in capsys.readouterr().err


def test_sweep_exponent_fits_present_with_three_point_grid(tmp_path):
    out = tmp_path / "sweep3.csv"
    rc = main(
        ["sweep", "--n", "2", "--d", "8", "--compressor", "randk:2", "--seed", "1",
         "--T-grid", "64,128,256", "--out", str(out)]
    )
    assert rc == 0
    row = out.read_text().splitlines()[1].split(",")
    exponent = float(row[4])
    assert np.isfinite(exponent)


SWEEP_BASE = ["sweep", "--n", "2", "--d", "3", "--compressor", "identity", "--seed", "1"]


@pytest.mark.parametrize(
    "grid,field",
    [
        (["--T-grid", "256,256,512"], "T_grid"),
        (["--T", "64", "--delta-grid", "1.0,0.5,1.0"], "delta_grid"),
        # Both near-equal deltas resolve to randk:2 at d = 4.
        (["--env", "convex_lower", "--T", "64", "--delta-grid", "0.5,0.5000000001,1.0"], "delta_grid"),
    ],
)
def test_sweep_rejects_repeated_grid_values(grid, field, tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["sweep", "--n", "2", "--d", "4", "--compressor", "randk:2", "--out", str(out)] + grid
    assert main(args) == 2
    err = capsys.readouterr().err
    assert field in err and "repeated" in err
    assert not out.exists()


def test_sweep_resolves_every_grid_point_before_running_any(tmp_path, monkeypatch, capsys):
    calls = []
    run_batch = harness._run_batch
    monkeypatch.setattr(harness, "_run_batch", lambda *a, **k: calls.append(a) or run_batch(*a, **k))
    out = tmp_path / "x.csv"
    assert main(SWEEP_BASE + ["--T-grid", "256,512,0", "--out", str(out)]) == 2
    assert "T: must be >= 1" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_sweep_rejects_unknown_weights_before_running_any(tmp_path, monkeypatch, capsys):
    calls = []
    run_batch = harness._run_batch
    monkeypatch.setattr(harness, "_run_batch", lambda *a, **k: calls.append(a) or run_batch(*a, **k))
    out = tmp_path / "x.csv"
    args = SWEEP_BASE + ["--algo", "o2b", "--env", "lad", "--weights", "cubic", "--L", "2"]
    assert main(args + ["--T-grid", "64,128,256", "--workers", "2", "--out", str(out)]) == 2
    assert "weights: must be 'uniform' or 'linear'" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_sweep_task_errors_exit_two_with_one_message_at_any_worker_count(tmp_path, monkeypatch, capsys):
    # Every grid point fails, from round T/2 on; each worker count reports the
    # first grid point's first replication, as the in-process sweep meets it.
    class NanGradients(envs.LinearAdversary):
        def _load(self, a, b):
            super()._load(a, b)
            self._table = np.where((np.arange(a + 1, b + 1) >= self.T // 2)[:, None, None], np.nan, self._table)

    monkeypatch.setattr(envs, "make_linear_adversary", lambda *args: NanGradients(*args))
    out = tmp_path / "x.csv"
    errors = []
    for workers in ("1", "2", "3"):
        args = SWEEP_BASE + ["--T-grid", "64,128,256", "--reps", "3", "--workers", workers, "--out", str(out)]
        assert main(args) == 2
        errors.append(capsys.readouterr().err)
    seed = derive_seed(1, harness._REP, 0)
    assert errors[0] == f"configuration error - decision: not finite from round 33 on (seed {seed})\n"
    assert errors[1] == errors[0] and errors[2] == errors[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_identity_contraction_passes(capsys):
    rc = main(["verify", "fcc_contraction", "--compressor", "identity"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus_lemma"])
    assert exc.value.code == 2


def test_verify_o2b_errors_rejects_a_compressor_override(capsys):
    # The o2b check runs its own randk:2; an override must not be dropped silently.
    rc = main(["verify", "o2b_errors", "--compressor", "sign"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "compressor" in captured.err


def test_every_energy_check_row_resolves_and_is_a_verify_choice():
    for lemma_id, (config, reps) in harness._ENERGY_CHECKS.items():
        harness._resolve(config)
        assert reps >= 1
        assert harness.verify_errors(lemma_id, seeds=1).lemma == lemma_id
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    lemma = next(a for a in subparsers.choices["verify"]._actions if a.dest == "lemma")
    assert tuple(lemma.choices) == harness.VERIFY_IDS == ("fcc_contraction", *harness._ENERGY_CHECKS)


def test_verify_failure_exits_one(monkeypatch, capsys):
    import doco.cli as cli
    from doco.harness import VerifyReport, VerifyRow

    failing = VerifyReport("fcc_contraction", (VerifyRow("L=1", 2.0, 1.0, -1.0, False),))
    monkeypatch.setattr(cli, "verify_lemma", lambda *a, **k: failing)
    rc = main(["verify", "fcc_contraction"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_from_lists(capsys):
    rc = main(["fit", "--xs", "4,16,64", "--ys", "2,4,8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exponent=0.5" in out


def test_fit_from_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("T,regret\n4,2\n16,4\n64,8\n")
    rc = main(["fit", "--csv", str(path), "--x", "T", "--y", "regret"])
    assert rc == 0
    assert "exponent=0.5" in capsys.readouterr().out


@pytest.mark.parametrize("xs,ys", [("1,2,4", "1,nan,3"), ("1,2,inf", "1,2,3")])
def test_fit_non_finite_values_exit_two(xs, ys, capfd):
    assert main(["fit", "--xs", xs, "--ys", ys]) == 2
    out, err = capfd.readouterr()
    assert out == ""  # no fit, and no LAPACK chatter
    assert err == "configuration error - fit: xs and ys must be finite\n"


@pytest.mark.parametrize(
    "command,key",
    [
        (["fit", "--csv", "data.csv", "--x", "T", "--y", "zz"], "y"),
        (["fit", "--csv", "data.csv", "--x", "zz", "--y", "regret"], "x"),
        (["fit", "--csv", "missing.csv", "--x", "T", "--y", "regret"], "csv"),
        (["run", "--config", "missing.cfg", "--T", "8", "--out", "x.csv"], "config"),
        (["run", "--config", "binary.cfg", "--T", "8", "--out", "x.csv"], "config"),
        (["run", "--T", "8", "--out", "missing/x.csv"], "out"),
        (["run", "--T", "8", "--out", "."], "out"),
        (["sweep", "--T-grid", "8,16", "--out", "missing/x.csv"], "out"),
        (["run", "--T", "8"], "out"),
        (["sweep", "--out", "x.csv"], "T_grid"),
        (["fit", "--csv", "data.csv"], "fit"),
        (["fit", "--csv", "data.csv", "--x", "T"], "fit"),
        (["fit"], "fit"),
        (["fit", "--xs", "1,2,3"], "fit"),
    ],
)
def test_input_file_errors_name_their_key(command, key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("T,regret\n4,2\n16,4\n64,8\n")
    (tmp_path / "binary.cfg").write_bytes(b"\x9b\xff T = 8\n")
    calls = []
    monkeypatch.setattr(harness, "_run_batch", lambda *a, **k: calls.append(a))
    assert main(command) == 2
    assert capsys.readouterr().err.startswith(f"configuration error - {key}: ")
    assert calls == []  # raised before any round runs


@pytest.mark.parametrize(
    "text,reason",
    [
        ("", "'bad.csv' is empty"),
        ("\n  \n", "'bad.csv' is empty"),
        ("T,regret\n4,2\n16,4,5\n64,8\n", "cannot parse 'bad.csv': Some errors were detected ! Line #3 (got 3 columns instead of 2)"),
    ],
    ids=["empty", "blank", "ragged"],
)
def test_fit_unparsable_csv_exits_two_naming_csv(text, reason, tmp_path, monkeypatch, capfd):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text(text)
    assert main(["fit", "--csv", "bad.csv", "--x", "T", "--y", "regret"]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"configuration error - csv: {reason}\n"  # one line: no traceback, no numpy warning


@pytest.mark.parametrize("xs,ys,key", [("1,a,3", "1,2,3", "xs"), ("1,2,3", "1,,3", "ys")])
def test_fit_non_number_exits_two_naming_its_key(xs, ys, key, capfd):
    assert main(["fit", "--xs", xs, "--ys", ys]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"configuration error - {key}: cannot parse value {xs if key == 'xs' else ys!r}\n"


def test_fit_bad_input_is_config_error(capsys):
    rc = main(["fit", "--xs", "1,2", "--ys", "3,4"])
    assert rc == 2
