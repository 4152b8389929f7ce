"""End-to-end command checks on small fixtures: artifacts, determinism,
resume, schema validation, and exit codes."""

import contextlib
import dataclasses
import io
import json
import re
import struct
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcast import model, training
from freqcast import data as data_module
from freqcast.anomaly import reconstruction_windows
from freqcast.cli import (
    SCHEMAS,
    _train_spec,
    _write_scores_csv,
    main,
    read_config_file,
    validate_config,
)
from freqcast.data import (
    DatasetProfile,
    SplitRule,
    chrono_split,
    load_csv,
    split_windows,
    standardize,
    synth_anomaly,
    write_labels_csv,
    write_series_csv,
)
from freqcast.errors import TrainingDivergedError
from freqcast.model import (
    ModelConfig,
    Supervision,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from freqcast.training import TrainSpec, evaluate, read_grid_csv, run_combination

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture()
def sine_csv(tmp_path):
    rng = np.random.default_rng(0)
    t = np.arange(260)
    values = np.stack(
        [np.sin(2 * np.pi * t / 24), np.cos(2 * np.pi * t / 24)], axis=1
    ) + rng.normal(0, 0.05, (260, 2))
    path = tmp_path / "sine.csv"
    write_series_csv(path, values, ["a", "b"])
    return path


def write_config(tmp_path, name, **keys):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def run_dirs(out_root):
    return sorted(p for p in out_root.iterdir() if p.is_dir())


def test_train_writes_artifacts(tmp_path, sine_csv):
    cfg = write_config(
        tmp_path, "train.cfg",
        data=sine_csv, period=24, timestamp_column="false",
        input_len=32, horizon=8, harmonic=1,
        max_epochs=2, seeds="0,1",
    )
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert (run_dir / "model.ckpt").exists()
    assert (run_dir / "history.csv").exists()
    assert len(metrics["per_seed"]) == 2
    for entry in metrics["per_seed"]:
        assert np.isfinite(entry["test_mse"]) and np.isfinite(entry["val_mae"])
    seeds_mse = [e["test_mse"] for e in metrics["per_seed"]]
    assert np.isclose(metrics["mean"]["test_mse"], np.mean(seeds_mse))
    assert np.isclose(metrics["std"]["test_mse"], np.std(seeds_mse))

    model_cfg, _ = load_checkpoint(run_dir / "model.ckpt")
    assert model_cfg.input_len == 32 and model_cfg.output_len == 40


def test_train_deterministic_across_runs(tmp_path, sine_csv):
    cfg = write_config(
        tmp_path, "train.cfg",
        data=sine_csv, period=24, timestamp_column="false",
        input_len=32, horizon=8, max_epochs=2, seeds="3",
    )
    # a copy that starts with a UTF-8 byte order mark, as some editors write it
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    out = tmp_path / "runs"
    for path in (cfg, cfg, bom):
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    first, *rest = run_dirs(out)
    for other in rest:
        assert (first / "metrics.json").read_text() == (other / "metrics.json").read_text()
        assert (first / "model.ckpt").read_bytes() == (other / "model.ckpt").read_bytes()


def test_train_val_metrics_are_the_restored_layers(tmp_path, sine_csv):
    cfg = write_config(
        tmp_path, "train.cfg",
        data=sine_csv, period=24, timestamp_column="false",
        input_len=32, horizon=8, harmonic=1, max_epochs=6, seeds="0",
    )
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    (entry,) = json.loads((run_dir / "metrics.json").read_text())["per_seed"]

    model_cfg, layer = load_checkpoint(run_dir / "model.ckpt")
    frame = load_csv(sine_csv, False)
    profile = DatasetProfile("custom", 24, SplitRule.RATIO_70_10_20)
    frame_std, _ = standardize(frame, chrono_split(frame, profile)[0])
    _, val_w, test_w = split_windows(frame_std, profile, 32, 8, model_cfg.supervision)
    assert (entry["val_mse"], entry["val_mae"]) == evaluate(model_cfg, layer, val_w, 8)
    assert (entry["test_mse"], entry["test_mae"]) == evaluate(model_cfg, layer, test_w, 8)


def test_harmonic_none_keeps_every_input_bin(tmp_path, sine_csv):
    cfg = write_config(tmp_path, "train.cfg", data=sine_csv, period=24,
                       timestamp_column="false", input_len=32, horizon=8,
                       harmonic="none", max_epochs=1, seeds="0")
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    echo = json.loads((run_dir / "metrics.json").read_text())["config"]
    assert (echo["harmonic"], echo["n_in"]) == (0, 16)
    assert load_checkpoint(run_dir / "model.ckpt")[0].n_in == 16


def test_relative_data_path_is_found_through_freqcast_data(tmp_path, sine_csv, monkeypatch):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    cfg = write_config(tmp_path, "train.cfg", data=sine_csv.name, period=24,
                       timestamp_column="false", input_len=32, horizon=8,
                       max_epochs=1, seeds="0")
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "runs")]
    assert main(argv) == 3  # not found from this working directory
    monkeypatch.setenv("FREQCAST_DATA", str(sine_csv.parent))
    assert main(argv) == 0
    (run_dir,) = run_dirs(tmp_path / "runs")
    assert json.loads((run_dir / "metrics.json").read_text())["config"]["data"] == "sine.csv"


def test_train_rejects_unknown_key(tmp_path, sine_csv, capsys):
    cfg = write_config(tmp_path, "bad.cfg", data=sine_csv, input_len=32,
                       horizon=8, period=24, lookback="banana")
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_train_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.cfg", input_len=32, horizon=8)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "required" in capsys.readouterr().err


REQUIRED_KEYS = {
    "train": {"data": "x.csv", "input_len": "16", "horizon": "8"},
    "grid": {"data": "x.csv", "horizon": "8", "harmonics": "1"},
    "eval": {"data": "x.csv", "checkpoint": "m.ckpt"},
    "detect": {"data": "x.csv", "train_rows": "100"},
}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, keys in REQUIRED_KEYS.items() for key in keys
])
def test_missing_required_key_is_named(tmp_path, capsys, command, key):
    validate_config(command, REQUIRED_KEYS[command])  # nothing else is required
    cfg = write_config(tmp_path, "bad.cfg",
                       **{k: v for k, v in REQUIRED_KEYS[command].items() if k != key})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert f"missing required key '{key}' for {command}" in err
    assert len(err.strip().splitlines()) == 1


HELP_OPTIONS = {
    "train": [],
    "grid": ["--resume RESUME"],
    "eval": ["--checkpoint CHECKPOINT"],
    "detect": ["--checkpoint CHECKPOINT", "--train-first", "--dump-scores"],
    "synth": [],
}


@pytest.mark.parametrize("command", HELP_OPTIONS)
def test_help_lists_each_commands_options(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    listed = re.findall(r"^ {2}(?:-h, )?(--\S+(?: [A-Z=]+)?)", out[out.index("options:"):],
                        re.MULTILINE)
    assert listed == ["--help", "--config CONFIG", "--out OUT", "--seed SEED",
                      "--set KEY=VALUE", *HELP_OPTIONS[command]]


def _bad_value_argv(tmp_path, command):
    """A run of `command` whose data, labels and checkpoint files do not exist."""
    missing = tmp_path / "missing.csv"
    keys, flags = {
        "train": ({"period": 24, "input_len": 16, "horizon": 8}, []),
        "grid": ({"period": 24, "horizon": 8, "harmonics": 1}, []),
        "eval": ({"period": 24, "checkpoint": tmp_path / "missing.ckpt"}, []),
        "detect": ({"labels": missing, "train_rows": 100}, ["--train-first"]),
        "detect-checkpoint": ({"labels": missing, "train_rows": 100},
                              ["--checkpoint", str(tmp_path / "missing.ckpt")]),
    }[command]
    cfg = write_config(tmp_path, "c.cfg", data=missing, **keys)
    return [command.split("-")[0], "--config", str(cfg), "--out", str(tmp_path / "r"), *flags]


@pytest.mark.parametrize("key, value, message", [
    ("learning_rate", "0", "learning_rate must be > 0"),
    ("learning_rate", "nan", "learning_rate must be finite"),
    ("learning_rate", "inf", "learning_rate must be finite"),
    ("batch_size", "0", "batch_size must be >= 1"),
    ("max_epochs", "0", "max_epochs must be >= 1"),
    ("patience", "0", "patience must be >= 1"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
@pytest.mark.parametrize("command", ["train", "grid", "detect", "detect-checkpoint"])
def test_bad_training_value_exits_2_before_any_file_is_read(tmp_path, capsys, command,
                                                            key, value, message):
    override = [key, value] if key.startswith("--") else ["--set", f"{key}={value}"]
    argv = _bad_value_argv(tmp_path, command) + override
    assert main(argv) == 2  # 3 if a missing file were opened first
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not [p for p in (tmp_path / "r").rglob("*") if p.is_file()]  # no config.json


@pytest.mark.parametrize("overrides, message", [
    (["period=0"], "key 'period': period must be >= 1, got 0"),
    (["period=-1"], "key 'period': period must be >= 1, got -1"),
    (["profile=etth2", "period=0"], "key 'period': period must be >= 1, got 0"),
    (["profile=etth2", "period=-1"], "key 'period': period must be >= 1, got -1"),
    (["profile=nope"], "unknown profile 'nope'"),
])
@pytest.mark.parametrize("command", ["train", "grid", "eval"])
def test_bad_period_or_profile_exits_2_before_any_file_is_read(tmp_path, capsys, command,
                                                               overrides, message):
    argv = _bad_value_argv(tmp_path, command)
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2  # 3 if a missing file were opened first
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not list((tmp_path / "r").rglob("*"))  # no config.json, no run directory


@pytest.mark.parametrize("window, factor, message", [
    (6, 2, "input_len must be even and >= 2, got 3"),
    (8, 0, "factor must be >= 1, got 0"),
    (8, 3, "factor 3 does not divide window 8"),
    (0, 4, "input_len must be even and >= 2, got 0"),
])
def test_impossible_window_factor_exits_2_before_any_file_is_read(tmp_path, capsys, window,
                                                                  factor, message):
    argv = _bad_value_argv(tmp_path, "detect") + ["--set", f"window={window}",
                                                  "--set", f"factor={factor}"]
    assert main(argv) == 2  # 3 if a missing file were opened first
    err = capsys.readouterr().err
    assert f"window {window}, factor {factor}: {message}" in err
    assert len(err.strip().splitlines()) == 1
    assert not list((tmp_path / "r").rglob("*"))


@pytest.mark.parametrize("command, override, code", [
    ("synth", "channels=0", 2),
    ("train", "learning_rate=0", 2),
    ("train", "max_epochs=1", 3),  # the data file does not exist
])
def test_failed_run_leaves_no_directory(tmp_path, command, override, code):
    out = tmp_path / "r"
    argv = ["synth", "--out", str(out)] if command == "synth" \
        else _bad_value_argv(tmp_path, command)
    assert main(argv + ["--set", override]) == code
    assert out.is_dir() and not list(out.iterdir())  # its run directory was made, then removed


@pytest.mark.parametrize("override, message", [
    (["--set", "length=99"], "need at least 100 timesteps, got 99"),
    (["--set", "channels=0"], "channels must be >= 1, got 0"),
    (["--set", "rate=-0.1"], "rate must lie in [0, 1], got -0.1"),
    (["--set", "rate=1.5"], "rate must lie in [0, 1], got 1.5"),
    (["--set", "rate=nan"], "rate must lie in [0, 1], got nan"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_bad_synth_value_exits_2_without_writing(tmp_path, capsys, override, message):
    out = tmp_path / "r"
    assert main(["synth", "--out", str(out), *override]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize("command, keys, message", [
    ("train", {"input_len": 16, "horizon": 0}, "horizon must be >= 1, got 0"),
    ("grid", {"look_backs": "16,32", "harmonics": 1, "horizon": 0},
     "horizon must be >= 1, got 0"),
    ("train", {"input_len": 15, "horizon": 8},
     "look-back 15, horizon 8: input_len must be even and >= 2, got 15"),
    ("train", {"input_len": 16, "horizon": 7},
     "look-back 16, horizon 7: output_len must be even and >= input_len, got 23"),
    ("grid", {"look_backs": "16,15", "harmonics": 1, "horizon": 8},
     "look-back 15, horizon 8: input_len must be even and >= 2, got 15"),
], ids=["train-horizon-0", "grid-horizon-0", "train-odd-input_len", "train-odd-horizon",
        "grid-odd-look-back"])
def test_bad_geometry_exits_2_before_reading_data(tmp_path, sine_csv, capsys, monkeypatch,
                                                  command, keys, message):
    def fail(*args, **kwargs):
        raise AssertionError("read the data or trained with a bad geometry")

    monkeypatch.setattr("freqcast.training.train", fail)
    monkeypatch.setattr("freqcast.data.load_csv", fail)
    cfg = write_config(tmp_path, "c.cfg", data=sine_csv, period=24,
                       timestamp_column="false", seeds="0", **keys)
    out = tmp_path / "r"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not list(out.rglob("*"))  # no grid.csv, no model.ckpt, no run directory


def test_missing_dataset_is_runtime_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "t.cfg", data=tmp_path / "nope.csv",
                       period=24, input_len=32, horizon=8,
                       timestamp_column="false", max_epochs=1, seeds="0")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3


def test_diverging_training_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(0)
    values = np.cumsum(rng.normal(size=(120, 1)), axis=0)
    path = tmp_path / "walk.csv"
    write_series_csv(path, values, ["x"])
    # an absurd learning rate overflows the parameters after one step
    cfg = write_config(
        tmp_path, "t.cfg",
        data=path, period=24, timestamp_column="false",
        input_len=16, horizon=4, max_epochs=2, seeds="0", learning_rate=1e160,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 3
    assert "non-finite loss" in capsys.readouterr().err


def test_grid_runs_and_resumes(tmp_path, sine_csv):
    cfg = write_config(
        tmp_path, "grid.cfg",
        data=sine_csv, period=24, timestamp_column="false",
        horizon=8, look_backs="16,32", harmonics="1,2",
        supervisions="backcast+forecast", max_epochs=2, seeds="0",
    )
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    rows = read_grid_csv(run_dir / "grid.csv")
    assert len(rows) == 4
    selected = json.loads((run_dir / "selected.json").read_text())
    brute = min(rows, key=lambda r: (r.val_mse, r.complex_entries, r.look_back))
    assert selected["look_back"] == brute.look_back
    assert selected["harmonic"] == brute.harmonic

    # drop two rows and resume: only the missing combinations rerun
    kept = rows[:2]
    (run_dir / "grid.csv").write_text(
        "look_back,harmonic,supervision,val_mse,test_mse,complex_entries,epochs_ran\n"
        + "".join(
            f"{r.look_back},{r.harmonic},{r.supervision},{r.val_mse},"
            f"{r.test_mse},{r.complex_entries},{r.epochs_ran}\n"
            for r in kept
        )
    )
    assert main(["grid", "--config", str(cfg), "--resume", str(run_dir)]) == 0
    resumed = read_grid_csv(run_dir / "grid.csv")
    assert len(resumed) == 4
    assert {(r.look_back, r.harmonic) for r in resumed} \
        == {(r.look_back, r.harmonic) for r in rows}


def test_resumed_grid_selects_the_same_bytes_as_a_fresh_one(tmp_path, sine_csv):
    cfg = write_config(
        tmp_path, "grid.cfg",
        data=sine_csv, period=24, timestamp_column="false",
        horizon=8, look_backs="16,32", harmonics="1,2",
        supervisions="backcast+forecast", max_epochs=2, seeds="0",
    )
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    fresh = (run_dir / "selected.json").read_bytes()
    grid = run_dir / "grid.csv"
    rows = read_grid_csv(grid)
    selected = json.loads(fresh)
    drop = next(i for i, r in enumerate(rows)
                if (r.look_back, r.harmonic) != (selected["look_back"], selected["harmonic"]))
    lines = grid.read_text().splitlines(keepends=True)
    grid.write_text("".join(lines[: drop + 1] + lines[drop + 2 :]))
    (run_dir / "selected.json").unlink()

    assert main(["grid", "--config", str(cfg), "--resume", str(run_dir)]) == 0
    assert (run_dir / "selected.json").read_bytes() == fresh
    assert set(read_grid_csv(grid)) == set(rows)


def test_eval_checkpoint(tmp_path, sine_csv):
    cfg = write_config(
        tmp_path, "train.cfg",
        data=sine_csv, period=24, timestamp_column="false",
        input_len=32, horizon=8, max_epochs=2, seeds="0",
    )
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    (train_dir,) = run_dirs(out)

    eval_cfg = write_config(
        tmp_path, "eval.cfg",
        data=sine_csv, period=24, timestamp_column="false",
    )
    out2 = tmp_path / "eval_runs"
    assert main(["eval", "--config", str(eval_cfg), "--out", str(out2),
                 "--checkpoint", str(train_dir / "model.ckpt")]) == 0
    (eval_dir,) = run_dirs(out2)
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    train_metrics = json.loads((train_dir / "metrics.json").read_text())
    assert np.isclose(metrics["test_mse"], train_metrics["per_seed"][0]["test_mse"])


def test_grid_row_is_the_mean_of_train_seeds(tmp_path, sine_csv):
    keys = dict(data=sine_csv, period=24, timestamp_column="false", horizon=8,
                max_epochs=4, patience=2, learning_rate=0.01)
    cfg = write_config(tmp_path, "train.cfg", input_len=16, harmonic=1,
                       supervision="forecast", seeds="0,1,2", **keys)
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    metrics = json.loads((run_dir / "metrics.json").read_text())

    frame = load_csv(sine_csv, False)
    profile = DatasetProfile("custom", 24, SplitRule.RATIO_70_10_20)
    frame_std, _ = standardize(frame, chrono_split(frame, profile)[0])
    spec = TrainSpec(learning_rate=0.01, max_epochs=4, patience=2,
                     seeds_for_reporting=(0, 1, 2))
    row = run_combination(frame_std, profile, 8, 16, 1, Supervision.FORECAST_ONLY, spec)
    assert row.val_mse == metrics["mean"]["val_mse"]
    assert row.test_mse == metrics["mean"]["test_mse"]
    assert row.epochs_ran == np.mean([p["epochs"] for p in metrics["per_seed"]])


@pytest.mark.parametrize("command, keys", [
    ("train", {"data": "x.csv", "input_len": "16", "horizon": "8"}),
    ("grid", {"data": "x.csv", "horizon": "8", "harmonics": "1"}),
])
def test_unset_training_keys_give_the_default_train_spec(command, keys):
    cfg = validate_config(command, keys)
    spec, default = _train_spec(cfg, cfg["seeds"]), TrainSpec()
    for field in dataclasses.fields(TrainSpec):
        assert getattr(spec, field.name) == getattr(default, field.name), field.name


SHIPPED_CONFIG_COMMAND = [("_grid.cfg", "grid"), ("_h96.cfg", "train"),
                          ("synth_detect.cfg", "detect")]


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_validates(path):
    (command,) = [c for suffix, c in SHIPPED_CONFIG_COMMAND if path.name.endswith(suffix)]
    validate_config(command, read_config_file(path))


def test_synth_outputs(tmp_path):
    out = tmp_path / "runs"
    assert main(["synth", "--out", str(out), "--seed", "5"]) == 0
    (run_dir,) = run_dirs(out)
    frame = load_csv(run_dir / "synth_values.csv")
    labels = (run_dir / "synth_labels.csv").read_text().splitlines()
    assert frame.length == 4000
    assert len(labels) == 4000

    out2 = tmp_path / "runs2"
    assert main(["synth", "--out", str(out2), "--seed", "5"]) == 0
    (run_dir2,) = run_dirs(out2)
    assert (run_dir / "synth_values.csv").read_text() \
        == (run_dir2 / "synth_values.csv").read_text()


def test_detect_rejects_bad_window_factor(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.cfg", data="whatever.csv", train_rows=100,
                       window=200, factor=3, train_first="true",
                       labels="whatever_labels.csv")
    assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "does not divide" in capsys.readouterr().err


def test_detect_needs_model_source(tmp_path, sine_csv, capsys):
    cfg = write_config(tmp_path, "d.cfg", data=sine_csv, train_rows=100,
                       labels="x.csv")
    assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "checkpoint" in capsys.readouterr().err


def _assert_scores_csv_is_savetxt(tmp_path, start, scores, labels):
    # the bytes np.savetxt wrote for scores.csv
    table = np.column_stack([np.arange(start, start + len(scores)), scores, labels])
    np.savetxt(tmp_path / "want.csv", table, fmt="%d,%.10g,%d",
               header="timestep,score,label", comments="")
    _write_scores_csv(tmp_path / "scores.csv", start, scores, labels)
    assert (tmp_path / "scores.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_scores_csv_text_matches_savetxt(tmp_path):
    rng = np.random.default_rng(8)
    scores = np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200),
                             [0.0, -0.0, 1.0, 123456789012.0, 5e-324]])
    labels = rng.random(len(scores)) < 0.3
    _assert_scores_csv_is_savetxt(tmp_path, 4000, scores, labels)


@pytest.mark.parametrize("rows", [0] + [data_module._BLOCK_CELLS // 3 + k for k in (-1, 0, 1)])
def test_scores_csv_at_block_edges(tmp_path, rows):
    # no rows, and one block of rows, one more and one fewer
    rng = np.random.default_rng(rows)
    scores = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
    _assert_scores_csv_is_savetxt(tmp_path, 17, scores, rng.random(rows) < 0.3)


def test_detect_end_to_end(tmp_path):
    out_synth = tmp_path / "synth"
    assert main(["synth", "--out", str(out_synth), "--seed", "1",
                 "--set", "length=1200"]) == 0
    (synth_dir,) = run_dirs(out_synth)

    cfg = write_config(
        tmp_path, "detect.cfg",
        data=synth_dir / "synth_values.csv",
        labels=synth_dir / "synth_labels.csv",
        train_rows=750, window=120, factor=4,
        max_epochs=8, seed=0,
    )
    out = tmp_path / "runs"
    assert main(["detect", "--config", str(cfg), "--out", str(out),
                 "--train-first", "--dump-scores"]) == 0
    (run_dir,) = run_dirs(out)
    report = json.loads((run_dir / "report.json").read_text())
    for key in ("threshold", "precision", "recall", "f1", "accuracy",
                "window", "factor", "params", "adjusted"):
        assert key in report
    assert 0.0 <= report["f1"] <= 1.0
    assert report["window"] == 120 and report["factor"] == 4
    scores = (run_dir / "scores.csv").read_text().splitlines()
    assert scores[0] == "timestep,score,label"
    assert len(scores) == 1 + (1200 - 750)
    assert (run_dir / "model.ckpt").exists()

    # detecting again from the saved checkpoint reproduces the report
    out2 = tmp_path / "runs2"
    assert main(["detect", "--config", str(cfg), "--out", str(out2),
                 "--checkpoint", str(run_dir / "model.ckpt")]) == 0
    (run_dir2,) = run_dirs(out2)
    report2 = json.loads((run_dir2 / "report.json").read_text())
    assert report2["f1"] == report["f1"]
    assert report2["threshold"] == report["threshold"]


def test_commands_do_not_mutate_inputs(tmp_path, sine_csv):
    before = sine_csv.read_bytes()
    cfg = write_config(
        tmp_path, "train.cfg",
        data=sine_csv, period=24, timestamp_column="false",
        input_len=32, horizon=8, max_epochs=1, seeds="0",
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert sine_csv.read_bytes() == before


@pytest.fixture()
def synth_stream(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--seed", "2",
                 "--set", "length=600"]) == 0
    (synth_dir,) = run_dirs(out)
    return synth_dir / "synth_values.csv", synth_dir / "synth_labels.csv"


def test_detect_deterministic_across_runs(tmp_path, synth_stream):
    values, labels = synth_stream
    cfg = write_config(tmp_path, "d.cfg", data=values, labels=labels, train_rows=375,
                       window=80, factor=4, max_epochs=3, seed=1)
    out = tmp_path / "runs"
    argv = ["detect", "--config", str(cfg), "--out", str(out), "--train-first",
            "--dump-scores"]
    assert main(argv) == 0
    assert main(argv) == 0
    first, second = run_dirs(out)
    for name in ("report.json", "scores.csv", "model.ckpt"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_commands_in_one_process_repeat_bytes(tmp_path, sine_csv, synth_stream):
    # the model's per-thread scratch buffers outlive a command; a train run
    # after a detect run of other shapes must write the same bytes as before it
    train_cfg = write_config(tmp_path, "t.cfg", data=sine_csv, period=24,
                             timestamp_column="false", input_len=32, horizon=8,
                             harmonic=2, max_epochs=2, seeds="0")
    values, labels = synth_stream
    detect_cfg = write_config(tmp_path, "d.cfg", data=values, labels=labels,
                              train_rows=375, window=80, factor=4, max_epochs=2, seed=1)
    train = ["train", "--config", str(train_cfg), "--out"]
    assert main([*train, str(tmp_path / "first")]) == 0
    assert main(["detect", "--config", str(detect_cfg), "--out", str(tmp_path / "detect"),
                 "--train-first"]) == 0
    assert main([*train, str(tmp_path / "second")]) == 0
    (first,), (second,) = run_dirs(tmp_path / "first"), run_dirs(tmp_path / "second")
    for name in ("metrics.json", "model.ckpt"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def _split_and_serial_runs(tmp_path, monkeypatch, argv):
    """The run directories of argv with every batch halved, on the worker, then on the caller."""
    threads = set()
    scaled_bins = model._scaled_bins
    monkeypatch.setattr(model, "_scaled_bins", lambda x3, cfg: threads.add(
        threading.current_thread()) or scaled_bins(x3, cfg))
    monkeypatch.setattr(model, "_splits", lambda cfg, windows: windows >= 2)
    runs = []
    for worker in (True, False):
        monkeypatch.setattr(model, "_cpu_idle", lambda: worker)
        out = tmp_path / f"worker-{worker}"
        assert main([*argv, "--out", str(out)]) == 0
        runs += run_dirs(out)
        assert (threads != {threading.main_thread()}) is worker
        threads.clear()
    return runs


@pytest.mark.parametrize("supervision", ["backcast+forecast", "forecast"])
def test_split_train_writes_the_serial_bytes(tmp_path, sine_csv, monkeypatch, supervision):
    cfg = write_config(tmp_path, "t.cfg", data=sine_csv, period=24, timestamp_column="false",
                       input_len=32, horizon=8, harmonic=2, supervision=supervision,
                       max_epochs=3, seeds="0,1")
    split, serial = _split_and_serial_runs(tmp_path, monkeypatch,
                                           ["train", "--config", str(cfg)])
    for name in ("metrics.json", "model.ckpt", "history.csv"):
        assert (split / name).read_bytes() == (serial / name).read_bytes(), name


def test_split_detect_writes_the_serial_bytes(tmp_path, synth_stream, monkeypatch):
    values, labels = synth_stream
    cfg = write_config(tmp_path, "d.cfg", data=values, labels=labels, train_rows=375,
                       window=80, factor=4, max_epochs=3, seed=1)
    split, serial = _split_and_serial_runs(
        tmp_path, monkeypatch,
        ["detect", "--config", str(cfg), "--train-first", "--dump-scores"])
    for name in ("report.json", "scores.csv", "model.ckpt"):
        assert (split / name).read_bytes() == (serial / name).read_bytes(), name


def _recon_checkpoint(tmp_path, window, factor, channels):
    cfg = ModelConfig.for_reconstruction(window, factor, channels)
    path = tmp_path / f"recon-{window}-{factor}-{channels}.ckpt"
    save_checkpoint(path, cfg, init_params(cfg, 0))
    return path


@pytest.mark.parametrize("keys, code", [
    ({}, 0),                               # unset: taken from the checkpoint
    ({"window": 80}, 0),                   # set and agreeing
    ({"window": 200, "factor": 4}, 2),     # set explicitly, disagreeing
    ({"factor": 2}, 2),
])
def test_detect_window_factor_from_checkpoint(tmp_path, synth_stream, capsys, keys, code):
    values, labels = synth_stream
    ckpt = _recon_checkpoint(tmp_path, 80, 4, 1)
    cfg = write_config(tmp_path, "d.cfg", data=values, labels=labels,
                       train_rows=375, **keys)
    out = tmp_path / "runs"
    assert main(["detect", "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(ckpt)]) == code
    if code == 0:
        (run_dir,) = run_dirs(out)
        report = json.loads((run_dir / "report.json").read_text())
        assert (report["window"], report["factor"]) == (80, 4)
    else:
        assert "disagrees with the checkpoint" in capsys.readouterr().err


def test_detect_forecast_checkpoint_exits_2_before_reading_data(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    cfg = write_config(tmp_path, "d.cfg", data=missing, labels=missing, train_rows=100)
    # 32 -> 64 rows has the geometry of a factor-2 reconstruction, but not its model
    for horizon, window, factor in ((8, 40, 1), (32, 64, 2)):
        model_cfg = ModelConfig.for_forecast(32, horizon, 24, 1, 1)
        ckpt = tmp_path / f"forecast-{horizon}.ckpt"
        save_checkpoint(ckpt, model_cfg, init_params(model_cfg, 0))
        out = tmp_path / f"r{horizon}"
        assert main(["detect", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 2  # 3 if a missing file were opened first
        err = capsys.readouterr().err
        assert f"window {window}, factor {factor} disagrees with the checkpoint {ckpt}" in err
        assert len(err.strip().splitlines()) == 1
        assert not list(out.rglob("*"))


@pytest.mark.parametrize("train_rows, code, message", [
    (39, 2, "train_rows 39 must be at least window 40"),  # no whole window to fit
    (40, 0, None),  # one training window
    (41, 0, None),
    (220, 0, None),  # the 40 scored rows are one window
    (221, 2, "the 39 rows after train_rows 221 are fewer than window 40"),
])
def test_detect_rows_shorter_than_a_window_exit_2_before_training(
        tmp_path, sine_csv, capsys, monkeypatch, train_rows, code, message):
    trained = []
    fit = training.exact_fit
    monkeypatch.setattr(training, "exact_fit",
                        lambda *args, **kwargs: trained.append(1) or fit(*args, **kwargs))
    labels = np.zeros(260, dtype=int)
    labels[240:245] = 1  # inside every scored range above
    write_labels_csv(tmp_path / "late.csv", labels)
    argv = _detect_argv(tmp_path, sine_csv, "--train-first", labels=tmp_path / "late.csv")
    assert main(argv + ["--set", f"train_rows={train_rows}"]) == code
    assert bool(trained) == (code == 0)
    if message is not None:
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1
        assert not list((tmp_path / "r").rglob("*"))


def test_detect_checkpoint_channel_mismatch(tmp_path, synth_stream, capsys):
    values, labels = synth_stream
    ckpt = _recon_checkpoint(tmp_path, 80, 4, 3)
    cfg = write_config(tmp_path, "d.cfg", data=values, labels=labels, train_rows=375)
    assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--checkpoint", str(ckpt)]) == 2
    assert "3 channels, dataset has 1" in capsys.readouterr().err


def test_non_finite_checkpoint_exits_3_without_report(tmp_path, synth_stream, capsys):
    values, labels = synth_stream
    cfg = ModelConfig.for_reconstruction(80, 4, 1)
    layer = init_params(cfg, 0)
    layer.weight[0, 0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, cfg, layer)
    config = write_config(tmp_path, "d.cfg", data=values, labels=labels, train_rows=375)
    out = tmp_path / "runs"
    capsys.readouterr()
    assert main(["detect", "--config", str(config), "--out", str(out),
                 "--checkpoint", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert "not all finite" in err and len(err.strip().splitlines()) == 1
    assert not list(out.rglob("report.json"))


def _grid_cfg(tmp_path, sine_csv, **keys):
    return write_config(
        tmp_path, "grid.cfg",
        data=sine_csv, period=24, timestamp_column="false",
        horizon=8, look_backs="16", harmonics="1,2",
        supervisions="backcast+forecast", max_epochs=1, seeds="0", **keys,
    )


def test_grid_resume_refuses_changed_config(tmp_path, sine_csv, capsys):
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(_grid_cfg(tmp_path, sine_csv)),
                 "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    before = (run_dir / "grid.csv").read_bytes()
    changed = _grid_cfg(tmp_path, sine_csv, patience=3)
    assert main(["grid", "--config", str(changed), "--resume", str(run_dir)]) == 2
    assert "patience" in capsys.readouterr().err
    assert (run_dir / "grid.csv").read_bytes() == before
    # a changed sweep is not a changed config: the new cell is added
    wider = _grid_cfg(tmp_path, sine_csv).read_text().replace("harmonics = 1,2",
                                                               "harmonics = 1,2,3")
    (tmp_path / "grid.cfg").write_text(wider)
    assert main(["grid", "--config", str(tmp_path / "grid.cfg"),
                 "--resume", str(run_dir)]) == 0
    assert len(read_grid_csv(run_dir / "grid.csv")) == 3


def test_grid_resume_drops_torn_final_row(tmp_path, sine_csv):
    cfg = _grid_cfg(tmp_path, sine_csv)
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    grid = run_dir / "grid.csv"
    full = grid.read_bytes()
    grid.write_bytes(full[: full.rindex(b"\n", 0, -1) + 12])  # tear the last row
    assert main(["grid", "--config", str(cfg), "--resume", str(run_dir)]) == 0
    assert grid.read_bytes() == full


def test_interrupted_grid_keeps_every_finished_cell(tmp_path, sine_csv, monkeypatch):
    run_cell = training.run_combination

    def second_cell_diverges(*args):
        if args[4] == 2:  # harmonic
            raise TrainingDivergedError("non-finite loss in the second cell")
        return run_cell(*args)

    monkeypatch.setattr(training, "run_combination", second_cell_diverges)
    cfg = _grid_cfg(tmp_path, sine_csv)
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 3
    (run_dir,) = run_dirs(out)
    (first,) = read_grid_csv(run_dir / "grid.csv")
    assert first.harmonic == 1
    assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "grid.csv"]

    monkeypatch.undo()
    assert main(["grid", "--config", str(cfg), "--resume", str(run_dir)]) == 0
    assert [r.harmonic for r in read_grid_csv(run_dir / "grid.csv")] == [1, 2]
    assert read_grid_csv(run_dir / "grid.csv")[0] == first
    assert sorted(p.name for p in run_dir.iterdir()) \
        == ["config.json", "grid.csv", "selected.json"]


@pytest.mark.parametrize("override, message", [
    ("look_backs=16,176", "look-back 176: the train split has 182 rows, fewer than one "
                          "184-row window"),
    ("horizon=26", "look-back 16: the val split has 41 rows, fewer than one 42-row window"),
    ("data=missing.csv", "No such file or directory: 'missing.csv'"),
], ids=["look_backs=16,176", "horizon=26", "data=missing.csv"])
def test_grid_refuses_an_unwindowable_look_back_before_any_cell(tmp_path, sine_csv, capsys,
                                                                monkeypatch, override, message):
    cells = []
    run_cell = training.run_combination
    monkeypatch.setattr(training, "run_combination",
                        lambda *args: cells.append(args) or run_cell(*args))
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(_grid_cfg(tmp_path, sine_csv)), "--out", str(out),
                 "--set", override]) == 3
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not cells and not list(out.rglob("*"))  # no config.json, no run directory


@pytest.mark.parametrize("command", ["train", "eval", "grid"])
def test_train_eval_and_grid_refuse_a_short_split_alike(tmp_path, capsys, command):
    t = np.arange(200)
    data = tmp_path / "short.csv"
    write_series_csv(data, np.stack([np.sin(np.pi * t / 2), np.cos(np.pi * t / 2)], axis=1),
                     ["a", "b"])
    keys = {"train": {"input_len": 40, "horizon": 30, "max_epochs": 1, "seeds": "0"},
            "grid": {"look_backs": 40, "horizon": 30, "harmonics": 1, "max_epochs": 1,
                     "seeds": "0"}}.get(command, {})
    cfg = write_config(tmp_path, "c.cfg", data=data, timestamp_column="false", period=4, **keys)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "r")]
    if command == "eval":
        model_cfg = ModelConfig.for_forecast(40, 30, 4, 1, 2, Supervision.BACKCAST_AND_FORECAST)
        save_checkpoint(tmp_path / "m.ckpt", model_cfg, init_params(model_cfg, 0))
        argv += ["--checkpoint", str(tmp_path / "m.ckpt")]
    capsys.readouterr()
    assert main(argv) == 3
    # the val split's 20 rows reach back 39 rows into the train split
    assert capsys.readouterr().err == ("error: look-back 40: the val split has 59 rows, "
                                       "fewer than one 70-row window\n")
    assert not list((tmp_path / "r").rglob("*"))


def test_train_refuses_overflowing_test_metrics_without_a_run_directory(tmp_path, capsys):
    t = np.arange(400)
    values = np.sin(2 * np.pi * t / 24)[:, None]
    values[330:] *= 1e300  # test rows far outside the train scale
    data = tmp_path / "huge.csv"
    write_series_csv(data, values, ["a"])
    cfg = write_config(tmp_path, "t.cfg", data=data, timestamp_column="false", period=24,
                       input_len=48, horizon=24, max_epochs=1, seeds="0")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the test MSE overflows
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "metrics.json would hold a non-finite number" in err
    assert len(err.strip().splitlines()) == 1
    assert not list((tmp_path / "r").rglob("*"))  # no model.ckpt or history.csv either


def test_grid_resume_refuses_a_changed_config_before_reading_data(tmp_path, sine_csv, capsys):
    argv = _resume_finished_grid(tmp_path, sine_csv)
    run_dir = Path(argv[-1])
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    # 3 if the missing data file were opened first
    assert main(argv + ["--set", f"data={tmp_path / 'missing.csv'}", "--set", "patience=3"]) == 2
    err = capsys.readouterr().err
    assert "--resume config differs" in err and "patience" in err
    assert len(err.strip().splitlines()) == 1
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_no_command_leaves_a_tmp_file(tmp_path, sine_csv):
    out = tmp_path / "runs"
    train_cfg = write_config(tmp_path, "t.cfg", data=sine_csv, period=24,
                             timestamp_column="false", input_len=16, horizon=8,
                             max_epochs=1, seeds="0")
    assert main(["train", "--config", str(train_cfg), "--out", str(out / "train")]) == 0
    (train_dir,) = run_dirs(out / "train")
    eval_cfg = write_config(tmp_path, "e.cfg", data=sine_csv, period=24,
                            timestamp_column="false")
    assert main(["eval", "--config", str(eval_cfg), "--out", str(out / "eval"),
                 "--checkpoint", str(train_dir / "model.ckpt")]) == 0

    grid_cfg = _grid_cfg(tmp_path, sine_csv)
    assert main(["grid", "--config", str(grid_cfg), "--out", str(out / "grid")]) == 0
    (grid_dir,) = run_dirs(out / "grid")
    grid = grid_dir / "grid.csv"
    grid.write_text("".join(grid.read_text().splitlines(keepends=True)[:-1]))
    assert main(["grid", "--config", str(grid_cfg), "--resume", str(grid_dir)]) == 0
    assert len(read_grid_csv(grid)) == 2

    assert main(["synth", "--out", str(out / "synth"), "--set", "length=600"]) == 0
    (synth_dir,) = run_dirs(out / "synth")
    detect_cfg = write_config(tmp_path, "d.cfg", data=synth_dir / "synth_values.csv",
                              labels=synth_dir / "synth_labels.csv", train_rows=375,
                              window=40, factor=4, max_epochs=1)
    assert main(["detect", "--config", str(detect_cfg), "--out", str(out / "detect"),
                 "--train-first", "--dump-scores"]) == 0

    # one run directory per command, holding its run files and no .tmp
    files = {run_dir.parent.name: sorted(p.name for p in run_dir.iterdir())
             for run_dir in out.glob("*/*")}
    assert files == {
        "train": ["history.csv", "metrics.json", "model.ckpt"],
        "eval": ["metrics.json"],
        "grid": ["config.json", "grid.csv", "selected.json"],
        "synth": ["synth_labels.csv", "synth_meta.json", "synth_values.csv"],
        "detect": ["model.ckpt", "report.json", "scores.csv"],
    }


def _resume_finished_grid(tmp_path, sine_csv, replace=None):
    """argv resuming a finished grid run; `replace` maps a file name in its run
    directory to the bytes it is overwritten with."""
    cfg = _grid_cfg(tmp_path, sine_csv)
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    for name, content in (replace or {}).items():
        (run_dir / name).write_bytes(content)
    return ["grid", "--config", str(cfg), "--resume", str(run_dir)]


def _torn_middle_grid(tmp_path, sine_csv):
    argv = _resume_finished_grid(tmp_path, sine_csv)
    grid = Path(argv[-1]) / "grid.csv"
    lines = grid.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:12] + "\r\n"
    grid.write_text("".join(lines))
    return argv


def _grid_cell_edited(cell, value):
    """`_resume_finished_grid` with cell `cell` of grid.csv's first row set to `value`."""
    def make_argv(tmp_path, sine_csv):
        argv = _resume_finished_grid(tmp_path, sine_csv)
        grid = Path(argv[-1]) / "grid.csv"
        lines = grid.read_text().splitlines(keepends=True)
        cells = lines[1].rstrip("\r\n").split(",")
        cells[cell] = value
        lines[1] = ",".join(cells) + "\r\n"
        grid.write_text("".join(lines))
        return argv
    return make_argv


def _empty_seed_list(tmp_path, sine_csv):
    cfg = write_config(tmp_path, "t.cfg", data=sine_csv, period=24,
                       timestamp_column="false", input_len=32, horizon=8, seeds=",")
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "r")]


def _truncated_checkpoint(tmp_path, sine_csv):
    ckpt = tmp_path / "short.ckpt"
    ckpt.write_bytes(_recon_checkpoint(tmp_path, 80, 4, 2).read_bytes()[:40])
    cfg = write_config(tmp_path, "e.cfg", data=sine_csv, period=24,
                       timestamp_column="false")
    return ["eval", "--config", str(cfg), "--out", str(tmp_path / "r"),
            "--checkpoint", str(ckpt)]


def _eval_argv(tmp_path, data, channels, **keys):
    model_cfg = ModelConfig.for_forecast(32, 8, 24, 1, channels,
                                         Supervision.BACKCAST_AND_FORECAST)
    ckpt = tmp_path / f"forecast-{channels}.ckpt"
    save_checkpoint(ckpt, model_cfg, init_params(model_cfg, 0))
    cfg = write_config(tmp_path, "e.cfg", data=data, timestamp_column="false", **keys)
    return ["eval", "--config", str(cfg), "--out", str(tmp_path / "r"),
            "--checkpoint", str(ckpt)]


def _short_csv(tmp_path, sine_csv):
    """40 rows: far fewer than the ETTh2 split needs."""
    path = tmp_path / "short.csv"
    write_series_csv(path, load_csv(sine_csv, False).values[:40], ["a", "b"])
    return path


def _eval_other_channels(tmp_path, sine_csv):
    return _eval_argv(tmp_path, sine_csv, 3, period=24)


def _eval_other_channels_short_series(tmp_path, sine_csv):
    # the channel check comes before the split this series is too short for
    return _eval_argv(tmp_path, _short_csv(tmp_path, sine_csv), 3, profile="etth2")


def _eval_short_series(tmp_path, sine_csv):
    return _eval_argv(tmp_path, _short_csv(tmp_path, sine_csv), 2, profile="etth2")


def _detect_argv(tmp_path, data, *flags, **keys):
    """A detect run on `data` that succeeds unless `flags` and `keys` conflict."""
    labels = np.zeros(260, dtype=int)
    labels[200:210] = 1
    write_labels_csv(tmp_path / "labels.csv", labels)
    cfg = write_config(tmp_path, "d.cfg", data=data, train_rows=150, window=40,
                       factor=4, max_epochs=2, **keys)
    return ["detect", "--config", str(cfg), "--out", str(tmp_path / "r"), *flags]


def _detect_checkpoint_and_train_first(tmp_path, sine_csv):
    ckpt = _recon_checkpoint(tmp_path, 40, 4, 2)
    return _detect_argv(tmp_path, sine_csv, "--checkpoint", str(ckpt), "--train-first",
                        labels=tmp_path / "labels.csv")


def _detect_labels_and_label_column(tmp_path, sine_csv):
    frame = load_csv(sine_csv, False)
    flags = np.zeros((260, 1))
    flags[200:210] = 1.0
    labeled = tmp_path / "labeled.csv"
    write_series_csv(labeled, np.hstack([frame.values, flags]), ["a", "b", "label"])
    return _detect_argv(tmp_path, labeled, "--train-first",
                        labels=tmp_path / "labels.csv", label_column="label")


UNDECODABLE = b"a,b\n1,\xff\n"


def _config_not_utf8(tmp_path, sine_csv):
    cfg = tmp_path / "undecodable.cfg"
    cfg.write_bytes(b"data = x.csv\n" + UNDECODABLE)
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "r")]


def _data_not_utf8(tmp_path, sine_csv):
    data = tmp_path / "undecodable.csv"
    data.write_bytes(UNDECODABLE)
    cfg = write_config(tmp_path, "t.cfg", data=data, period=24,
                       timestamp_column="false", input_len=32, horizon=8)
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "r")]


def _labels_not_utf8(tmp_path, sine_csv):
    labels = tmp_path / "undecodable_labels.csv"
    labels.write_bytes(b"0\n1\n\xff\n")
    return _detect_argv(tmp_path, sine_csv, "--train-first", labels=labels)


def _grid_csv_not_utf8(tmp_path, sine_csv):
    return _resume_finished_grid(tmp_path, sine_csv, {"grid.csv": UNDECODABLE})


def _config_json_not_utf8(tmp_path, sine_csv):
    return _resume_finished_grid(tmp_path, sine_csv, {"config.json": b"\xff"})


def _config_json_not_json(tmp_path, sine_csv):
    return _resume_finished_grid(tmp_path, sine_csv, {"config.json": b'{"horizon": 8'})


def _config_json_not_object(tmp_path, sine_csv):
    return _resume_finished_grid(tmp_path, sine_csv, {"config.json": b"[]"})


def _grid_csv_other_header(tmp_path, sine_csv):
    return _resume_finished_grid(tmp_path, sine_csv, {"grid.csv": b"a,b\n"})


def _resume_missing_directory(tmp_path, sine_csv):
    return ["grid", "--config", str(_grid_cfg(tmp_path, sine_csv)),
            "--resume", str(tmp_path / "nowhere")]


def _config_line_without_equals(tmp_path, sine_csv):
    cfg = tmp_path / "bare.cfg"
    cfg.write_text(f"data = {sine_csv}\njust words\n")
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "r")]


def _edited_checkpoint(tmp_path, sine_csv, edit):
    """eval of a forecast checkpoint whose bytes `edit` rewrote."""
    argv = _eval_argv(tmp_path, sine_csv, 2, period=24)
    ckpt = Path(argv[-1])
    ckpt.write_bytes(edit(ckpt.read_bytes()))
    return argv


def _checkpoint_unknown_supervision(tmp_path, sine_csv):
    # header integer 5 (bytes 48-56) is the supervision code
    return _edited_checkpoint(tmp_path, sine_csv,
                              lambda raw: raw[:48] + struct.pack("<q", 7) + raw[56:])


def _checkpoint_other_layer_dims(tmp_path, sine_csv):
    # header integer 6 (bytes 56-64) is n_in
    return _edited_checkpoint(tmp_path, sine_csv,
                              lambda raw: raw[:56] + struct.pack("<q", 99) + raw[64:])


def _checkpoint_extra_bytes(tmp_path, sine_csv):
    return _edited_checkpoint(tmp_path, sine_csv, lambda raw: raw + bytes(16))


def _checkpoint_odd_input_len(tmp_path, sine_csv):
    # header integer 0 (bytes 8-16) is input_len
    return _edited_checkpoint(tmp_path, sine_csv,
                              lambda raw: raw[:8] + struct.pack("<q", 3) + raw[16:])


def _checkpoint_negative_channels(tmp_path, sine_csv):
    # header integer 4 (bytes 40-48) is channels
    return _edited_checkpoint(tmp_path, sine_csv,
                              lambda raw: raw[:40] + struct.pack("<q", -1) + raw[48:])


OVERLONG = "1" * 140000  # longer than the CSV reader's default field limit, 131072


def _data_with(text):
    """A train run on a data file holding `text`."""
    def make_argv(tmp_path, sine_csv):
        data = tmp_path / "long.csv"
        data.write_text(text)
        cfg = write_config(tmp_path, "t.cfg", data=data, period=24,
                           timestamp_column="false", input_len=32, horizon=8)
        return ["train", "--config", str(cfg), "--out", str(tmp_path / "r")]
    return make_argv


def _grid_csv_overlong_cell(tmp_path, sine_csv):
    header = "look_back,harmonic,supervision,val_mse,test_mse,complex_entries,epochs_ran\n"
    return _resume_finished_grid(tmp_path, sine_csv,
                                 {"grid.csv": (header + OVERLONG + "\n").encode()})


def _nul_in_path(command, key):
    """A `command` run whose config file sets the path `key` to a name holding a NUL byte."""
    def make_argv(tmp_path, sine_csv):
        argv = _bad_value_argv(tmp_path, command)
        cfg = Path(argv[2])
        lines = [f"{key} = a\0b.csv" if line.startswith(f"{key} =") else line
                 for line in cfg.read_text().splitlines()]
        cfg.write_text("\n".join(lines) + "\n")
        return argv
    return make_argv


def _label_column_holding_2(tmp_path, sine_csv):
    flags = np.zeros((260, 1))
    flags[200] = 2.0
    labeled = tmp_path / "labeled.csv"
    write_series_csv(labeled, np.hstack([load_csv(sine_csv, False).values, flags]),
                     ["a", "b", "label"])
    return _detect_argv(tmp_path, labeled, "--train-first", label_column="label")


def _detect_no_scored_positive(tmp_path, sine_csv):
    labels = np.zeros(260, dtype=int)
    labels[:150:50] = 1  # rows 0, 50 and 100, all before train_rows 150
    write_labels_csv(tmp_path / "early.csv", labels)
    return _detect_argv(tmp_path, sine_csv, "--train-first", labels=tmp_path / "early.csv")


def _detect_other_channels(train_rows):
    """A 1-channel checkpoint on the 2-channel series, scoring from `train_rows`."""
    def make_argv(tmp_path, sine_csv):
        ckpt = _recon_checkpoint(tmp_path, 40, 4, 1)
        return _detect_argv(tmp_path, sine_csv, "--checkpoint", str(ckpt), "--set",
                            f"train_rows={train_rows}", labels=tmp_path / "labels.csv")
    return make_argv


def _eval_overflowing_forecasts(tmp_path, sine_csv):
    model_cfg = ModelConfig.for_forecast(32, 8, 24, 1, 2, Supervision.BACKCAST_AND_FORECAST)
    layer = init_params(model_cfg, 0)
    layer.weight[...] *= 1e300  # finite weights whose forecasts' squares overflow
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(ckpt, model_cfg, layer)
    cfg = write_config(tmp_path, "e.cfg", data=sine_csv, timestamp_column="false", period=24)
    return ["eval", "--config", str(cfg), "--out", str(tmp_path / "r"), "--checkpoint", str(ckpt)]


def _train_run(tmp_path, sine_csv):
    cfg = write_config(tmp_path, "t.cfg", data=sine_csv, period=24,
                       timestamp_column="false", input_len=32, horizon=8)
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "r")]


def _train_without_period(tmp_path, sine_csv):
    cfg = write_config(tmp_path, "t.cfg", data=sine_csv, timestamp_column="false",
                       input_len=32, horizon=8)
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "r")]


def _detect_run(tmp_path, sine_csv):
    return _detect_argv(tmp_path, sine_csv, "--train-first", labels=tmp_path / "labels.csv")


def _missing_data(command):
    """`_bad_value_argv(command)`: a run whose data files do not exist."""
    return lambda tmp_path, sine_csv: _bad_value_argv(tmp_path, command)


def _config_key_set_twice(tmp_path, sine_csv):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(f"data = {tmp_path / 'missing.csv'}\nperiod = 24\ninput_len = 16\n"
                   "horizon = 8\nhorizon = 4\n")
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "r")]


def _plus(make_argv, *extra):
    """`make_argv` with the `extra` arguments appended."""
    return lambda tmp_path, sine_csv: make_argv(tmp_path, sine_csv) + list(extra)


@pytest.mark.parametrize("make_argv, code, message", [
    (_config_not_utf8, 2, "undecodable.cfg: 'utf-8' codec can't decode byte 0xff"),
    (_data_not_utf8, 3, "undecodable.csv: not UTF-8 text (invalid start byte)"),
    (_labels_not_utf8, 3, "undecodable_labels.csv: not UTF-8 text (invalid start byte)"),
    (_grid_csv_not_utf8, 3, "grid.csv: not UTF-8 text (invalid start byte)"),
    (_config_json_not_utf8, 2, "config.json: 'utf-8' codec can't decode byte 0xff"),
    (_config_json_not_json, 2, "config.json: Expecting ',' delimiter"),
    (_config_json_not_object, 2, "config.json: not a JSON object"),
    (_torn_middle_grid, 3, "row 2 is not a 7-cell grid row"),
    pytest.param(_grid_cell_edited(2, "bogus"), 3, "row 2 has supervision 'bogus', not one",
                 id="grid.csv supervision=bogus"),
    pytest.param(_grid_cell_edited(3, "nan"), 3, "row 2 has a non-finite MSE",
                 id="grid.csv val_mse=nan"),
    pytest.param(_grid_cell_edited(4, "inf"), 3, "row 2 has a non-finite MSE",
                 id="grid.csv test_mse=inf"),
    (_empty_seed_list, 2, "key 'seeds': expected a comma-separated list"),
    (_truncated_checkpoint, 3, "truncated"),
    (_eval_other_channels, 2, "trained on 3 channels, dataset has 2"),
    (_eval_other_channels_short_series, 2, "trained on 3 channels, dataset has 2"),
    (_eval_short_series, 3, "split needs 14400 rows, series has 40"),
    (_detect_checkpoint_and_train_first, 2, "'checkpoint' and 'train_first', got both"),
    (_detect_labels_and_label_column, 2, "'labels' and 'label_column', got both"),
    (_grid_csv_other_header, 3, "grid.csv: header ['a', 'b'] is not ['look_back',"),
    (_resume_missing_directory, 2, "nowhere does not exist"),
    (_config_line_without_equals, 2, "bare.cfg:2: expected 'key = value', got 'just words'"),
    (_checkpoint_unknown_supervision, 3, "forecast-2.ckpt: unknown supervision code 7"),
    (_checkpoint_other_layer_dims, 3, "forecast-2.ckpt: stored layer dims 99x"),
    (_checkpoint_extra_bytes, 3, "forecast-2.ckpt: expected "),
    (_checkpoint_odd_input_len, 3,
     "forecast-2.ckpt: stored config refused: input_len must be even and >= 2, got 3"),
    (_checkpoint_negative_channels, 3,
     "forecast-2.ckpt: stored config refused: channels must be >= 1, got -1"),
    pytest.param(_data_with(f"a,b\n1,{OVERLONG}\n2,3\n"), 3,
                 "long.csv: line 2: field larger than field limit", id="overlong data cell"),
    pytest.param(_data_with(f"a,{OVERLONG}\n1,2\n"), 3,
                 "long.csv: line 1: field larger than field limit", id="overlong header"),
    (_grid_csv_overlong_cell, 3, "grid.csv: line 2: field larger than field limit"),
    pytest.param(_nul_in_path("train", "data"), 2,
                 "key 'data': a path cannot hold a NUL byte", id="NUL in data"),
    pytest.param(_nul_in_path("detect", "labels"), 2,
                 "key 'labels': a path cannot hold a NUL byte", id="NUL in labels"),
    pytest.param(_nul_in_path("eval", "checkpoint"), 2,
                 "key 'checkpoint': a path cannot hold a NUL byte", id="NUL in checkpoint"),
    # 10^17 rows fail at allocation on any 64-bit host, so nothing is committed
    pytest.param(lambda tmp_path, sine_csv: ["synth", "--out", str(tmp_path / "r"), "--set",
                                             "length=100000000000000000"], 3,
                 "error: out of memory (Unable to allocate", id="synth length=10^17"),
    # shapes NumPy refuses outright, found by test_commands_keep_their_exit_contract
    pytest.param(lambda tmp_path, sine_csv: ["synth", "--out", str(tmp_path / "r"), "--set",
                                             "length=100", "--set", f"channels={2**63}"], 2,
                 f"100 x {2**63} values exceed the largest array", id="synth channels=2^63"),
    pytest.param(lambda tmp_path, sine_csv: ["synth", "--out", str(tmp_path / "r"), "--set",
                                             f"length={2**63}"], 2,
                 f"{2**63} x 1 values exceed the largest array", id="synth length=2^63"),
    (_label_column_holding_2, 3, "column 'label' contains values other than 0/1"),
    # refused before the fit, so no model.ckpt is left behind
    (_detect_no_scored_positive, 3, "the 110 scored rows after train_rows 150 hold no positive"),
    # a checkpoint's channels are checked before detect's range and label rules
    pytest.param(_detect_other_channels(215), 2, "checkpoint was trained on 1 channels, "
                 "dataset has 2", id="detect other channels, no scored positive"),
    pytest.param(_detect_other_channels(230), 2, "checkpoint was trained on 1 channels, "
                 "dataset has 2", id="detect other channels, tail under a window"),
    # Infinity is not JSON, so no metrics.json is written
    (_eval_overflowing_forecasts, 3, "metrics.json would hold a non-finite number"),
    (_train_without_period, 2, "either 'profile' or 'period' must be set"),
    pytest.param(_plus(_train_run, "--set", "max_epochs=x"), 2,
                 "key 'max_epochs': expected an integer, got 'x'", id="max_epochs=x"),
    pytest.param(_plus(_train_run, "--set", "learning_rate=abc"), 2,
                 "key 'learning_rate': expected a number, got 'abc'", id="learning_rate=abc"),
    pytest.param(_plus(_train_run, "--set", "harmonic=-1"), 2,
                 "key 'harmonic': harmonic must be >= 0 or 'none', got '-1'", id="harmonic=-1"),
    pytest.param(_plus(_train_run, "--set", "supervision=both"), 2,
                 "key 'supervision': supervision must be one of: forecast, "
                 "backcast+forecast; got 'both'", id="supervision=both"),
    pytest.param(_plus(_train_run, "--set", "nokey"), 2,
                 "--set expects KEY=VALUE, got 'nokey'", id="--set nokey"),
    pytest.param(_plus(_detect_run, "--set", "dump_scores=maybe"), 2,
                 "key 'dump_scores': expected true/false, got 'maybe'", id="dump_scores=maybe"),
    pytest.param(_plus(_detect_run, "--set", "train_rows=260"), 2,
                 "train_rows 260 outside the 260-row series", id="train_rows=260"),
    # a repeated value or key exits before the (missing) data file is opened
    (_config_key_set_twice, 2, "twice.cfg:5: key 'horizon' is already set on line 4"),
    pytest.param(_plus(_missing_data("grid"), "--set", "look_backs=16,16"), 2,
                 "key 'look_backs': '16' repeats an earlier value in '16,16'",
                 id="look_backs=16,16"),
    pytest.param(_plus(_missing_data("grid"), "--set", "harmonics=none,0"), 2,
                 "key 'harmonics': '0' repeats an earlier value in 'none,0'",
                 id="harmonics=none,0"),
    pytest.param(_plus(_missing_data("grid"), "--set", "supervisions=forecast, forecast"), 2,
                 "key 'supervisions': 'forecast' repeats an earlier value",
                 id="supervisions=forecast,forecast"),
    # a value the checkpoint's int64 fields cannot hold exits before the data file is opened
    pytest.param(_plus(_missing_data("train"), "--set", f"harmonic={2**63}"), 2,
                 f"harmonic must be < 2^63, got {2**63}", id="harmonic=2^63"),
    pytest.param(_plus(_missing_data("train"), "--set", f"period={2**63}"), 2,
                 f"period must be < 2^63, got {2**63}", id="period=2^63"),
    pytest.param(_plus(_missing_data("grid"), "--set", f"harmonics=1,{2**63}"), 2,
                 f"harmonic must be < 2^63, got {2**63}", id="grid harmonics=1,2^63"),
    pytest.param(_plus(_missing_data("grid"), "--set", f"period={2**63}"), 2,
                 f"period must be < 2^63, got {2**63}", id="grid period=2^63"),
    pytest.param(_plus(_missing_data("train"), "--seed", "0,0"), 2,
                 "key 'seeds': '0' repeats an earlier value in '0,0'", id="--seed 0,0"),
    pytest.param(_plus(_missing_data("train"), "--set", "horizon=8", "--set", " horizon =4"), 2,
                 "--set horizon is given twice: '8', then '4'", id="--set horizon twice"),
    pytest.param(_plus(_missing_data("detect"), "--set", "window=40", "--set", "window=40"), 2,
                 "--set window is given twice: '40', then '40'", id="--set window twice"),
    pytest.param(_plus(_missing_data("train"), "--seed", "0", "--seed", "1"), 2,
                 "--seed is given 2 times; give one list, e.g. --seed 0,1", id="--seed twice"),
    pytest.param(_plus(_missing_data("detect"), "--seed", "3", "--seed", "3"), 2,
                 "--seed is given 2 times", id="detect --seed twice"),
])
def test_malformed_inputs_exit_cleanly(tmp_path, sine_csv, capsys, make_argv, code, message):
    argv = make_argv(tmp_path, sine_csv)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert not list((tmp_path / "r").rglob("*"))  # a failed run leaves no run directory


def test_detect_label_column_matches_labels_file(tmp_path, sine_csv):
    assert main(_detect_argv(tmp_path, sine_csv, "--train-first",
                             labels=tmp_path / "labels.csv")) == 0
    labeled = tmp_path / "labeled.csv"
    labels = np.loadtxt(tmp_path / "labels.csv")[:, None]
    write_series_csv(labeled, np.hstack([load_csv(sine_csv, False).values, labels]),
                     ["a", "b", "label"])
    assert main(_detect_argv(tmp_path, labeled, "--train-first", label_column="label")) == 0
    from_file, from_column = run_dirs(tmp_path / "r")
    assert (from_file / "report.json").read_bytes() \
        == (from_column / "report.json").read_bytes()


def test_detect_drops_a_leading_bom_of_data_and_labels(tmp_path, sine_csv):
    # a BOM-prefixed labels file, and a BOM-prefixed CSV whose first column is
    # the labels, give the report of the plain labels file
    argv = _detect_argv(tmp_path, sine_csv, "--train-first", labels=tmp_path / "labels.csv")
    assert main(argv) == 0
    labels = tmp_path / "labels.csv"
    bom_labels = tmp_path / "bom_labels.csv"
    bom_labels.write_bytes(b"\xef\xbb\xbf" + labels.read_bytes())
    assert main(_detect_argv(tmp_path, sine_csv, "--train-first", labels=bom_labels)) == 0
    labeled = tmp_path / "labeled.csv"
    write_series_csv(labeled, np.hstack([np.loadtxt(labels)[:, None],
                                         load_csv(sine_csv, False).values]),
                     ["label", "a", "b"])
    labeled.write_bytes(b"\xef\xbb\xbf" + labeled.read_bytes())
    assert main(_detect_argv(tmp_path, labeled, "--train-first", label_column="label")) == 0
    reports = {(run_dir / "report.json").read_bytes() for run_dir in run_dirs(tmp_path / "r")}
    assert len(run_dirs(tmp_path / "r")) == 3 and len(reports) == 1


# --- detect's exact fit ------------------------------------------------------------

def test_detect_fits_exactly(tmp_path, synth_stream, monkeypatch):
    counts = {name: [] for name in ("train", "exact_fit")}
    for name, calls in counts.items():
        real = getattr(training, name)
        monkeypatch.setattr(training, name, lambda *args, real=real, calls=calls, **kwargs:
                            calls.append(1) or real(*args, **kwargs))
    values, labels = synth_stream
    cfg = write_config(tmp_path, "d.cfg", data=values, labels=labels, train_rows=375,
                       window=80, factor=4, max_epochs=3, seed=1)
    assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--train-first"]) == 0
    assert (len(counts["train"]), len(counts["exact_fit"])) == (0, 1)
    (run_dir,) = run_dirs(tmp_path / "r")
    model_cfg, layer = load_checkpoint(run_dir / "model.ckpt")  # refuses non-finite weights
    frame = load_csv(values, False)
    values = standardize(frame, (0, 375))[0].values
    want = training.exact_fit(model_cfg, reconstruction_windows(values[:375], 80, 4))
    assert np.array_equal(layer.weight, want.weight) and np.array_equal(layer.bias, want.bias)
    assert 0.0 < json.loads((run_dir / "report.json").read_text())["f1"] <= 1.0


CONTRACT_ROWS = 300


@pytest.fixture(scope="module")
def contract_stream(tmp_path_factory):
    """A CONTRACT_ROWS-row synth stream and a window-40, factor-4 checkpoint."""
    root = tmp_path_factory.mktemp("contract")
    series, _ = synth_anomaly(CONTRACT_ROWS, 1, 0.05, 4)
    write_series_csv(root / "stream.csv", series.values)
    return root / "stream.csv", _recon_checkpoint(root, 40, 4, 1)


@pytest.mark.parametrize("train_first", [True, False], ids=["train-first", "checkpoint"])
@settings(max_examples=30, deadline=None)
@given(train_rows=st.integers(-2, CONTRACT_ROWS + 2),
       window=st.none() | st.sampled_from([40, 80]) | st.integers(-2, 160),
       factor=st.none() | st.sampled_from([4]) | st.integers(-1, 9),
       positives=st.lists(st.integers(0, CONTRACT_ROWS - 1), max_size=6))
def test_detect_keeps_its_exit_contract_over_its_range_keys(
        contract_stream, train_first, train_rows, window, factor, positives):
    stream, ckpt = contract_stream
    labels = np.zeros(CONTRACT_ROWS, dtype=int)
    labels[positives] = 1
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_labels_csv(tmp / "labels.csv", labels)
        given = {k: v for k, v in (("window", window), ("factor", factor)) if v is not None}
        cfg = write_config(tmp, "d.cfg", data=stream, labels=tmp / "labels.csv",
                           train_rows=train_rows, **given)
        out = tmp / "runs"
        flags = ["--train-first"] if train_first else ["--checkpoint", str(ckpt)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["detect", "--config", str(cfg), "--out", str(out), *flags])
        assert code in (0, 2, 3)
        if code:
            assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()
            assert not list(out.rglob("*"))  # no run directory
        else:
            (run_dir,) = out.iterdir()
            written = ["model.ckpt", "report.json"] if train_first else ["report.json"]
            assert sorted(p.name for p in run_dir.iterdir()) == written


def test_detect_fits_a_constant_channel(tmp_path, synth_stream):
    values, labels = synth_stream
    series = load_csv(values, False).values
    stream = tmp_path / "stream.csv"
    write_series_csv(stream, np.hstack([series, np.full_like(series, 3.0)]), ["x", "flat"])
    cfg = write_config(tmp_path, "d.cfg", data=stream, labels=labels, train_rows=375,
                       window=80, factor=4)
    assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--train-first"]) == 0
    (run_dir,) = run_dirs(tmp_path / "r")
    _, layer = load_checkpoint(run_dir / "model.ckpt")  # refuses non-finite weights
    assert np.abs(layer.weight).max() > 0.0


def test_detect_of_a_stream_scaled_near_1e300_writes_the_unscaled_report(
        tmp_path, synth_stream, capsys):
    values, labels = synth_stream
    series = load_csv(values, False).values
    scaled = tmp_path / "scaled.csv"
    # 2^997 is about 1.3e300; 17 digits write each scaled value exactly
    np.savetxt(scaled, np.ldexp(series, 997), fmt="%.17g", header="x", comments="")
    reports = []
    for data in (values, scaled):
        cfg = write_config(tmp_path, "d.cfg", data=data, labels=labels, train_rows=375,
                           window=80, factor=4)
        out = tmp_path / f"r-{data.stem}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["detect", "--config", str(cfg), "--out", str(out),
                         "--train-first"]) == 0
        assert not caught and capsys.readouterr().err == ""
        (run_dir,) = run_dirs(out)
        reports.append((run_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["f1"] > 0.0


def test_readme_synth_then_detect_commands_run(tmp_path, monkeypatch):
    # README: freqcast synth, then detect on configs/synth_detect.cfg, with
    # FREQCAST_DATA at the synth run directory
    assert main(["synth", "--out", str(tmp_path / "synth"), "--seed", "0"]) == 0
    (synth_dir,) = run_dirs(tmp_path / "synth")
    monkeypatch.setenv("FREQCAST_DATA", str(synth_dir))
    monkeypatch.chdir(tmp_path)  # the config's relative paths resolve through FREQCAST_DATA
    assert main(["detect", "--config", str(CONFIG_DIR / "synth_detect.cfg"),
                 "--out", str(tmp_path / "runs"), "--train-first", "--dump-scores"]) == 0
    (run_dir,) = run_dirs(tmp_path / "runs")
    report = json.loads((run_dir / "report.json").read_text())
    assert set(report) == {"threshold", "precision", "recall", "f1", "accuracy", "adjusted",
                           "window", "factor", "params", "threshold_source"}
    assert (report["window"], report["factor"]) == (200, 4) and 0.0 < report["f1"] <= 1.0
    assert (run_dir / "scores.csv").exists() and (run_dir / "model.ckpt").exists()


def test_unknown_key_is_named_by_repr(tmp_path, sine_csv, capsys):
    cfg = write_config(tmp_path, "t.cfg", data=sine_csv, period=24, input_len=32, horizon=8)
    cfg.write_text(cfg.read_text() + "in\x01put_len = 4\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "unknown key(s) for train: 'in\\x01put_len'" in err and "\x01" not in err


# --- the exit contract of train, grid, eval and synth ------------------------------

PROMISED = {
    "train": ["history.csv", "metrics.json", "model.ckpt"],
    "grid": ["config.json", "grid.csv", "selected.json"],
    "eval": ["metrics.json"],
    "synth": ["synth_labels.csv", "synth_meta.json", "synth_values.csv"],
}
# what any key may be set to: wrong types, out-of-range, huge and tiny numbers,
# list syntax, NUL and control characters
ODD_VALUES = ["", "x", "-1", "0", "1.5", "true", "none", "nan", "inf", "1e300", "1e-300",
              "5e-324", str(2**63), str(10**17), "16,16", ",", "forecast", "a\0b", "\x01\x7f"]


def _odd(draw):
    """Whether to spoil one part of a run's input: one time in four, so that
    about a third of the runs get clean input."""
    return draw(st.integers(0, 3)) == 0


def _contract_keys(draw, command):
    """A config of `command` that runs in a fraction of a second on CONTRACT_ROWS rows."""
    if command == "synth":
        return {"length": draw(st.integers(100, 400)), "channels": draw(st.integers(1, 3)),
                "rate": draw(st.sampled_from(["0", "0.05", "1"])), "seed": draw(st.integers(0, 9))}
    keys = {"data": "data.csv", "timestamp_column": "false", "period": 24}
    if command == "eval":
        return {**keys, "checkpoint": "model.ckpt"}
    keys.update(horizon=draw(st.sampled_from([4, 8])), max_epochs=draw(st.integers(1, 2)),
                batch_size=draw(st.sampled_from([16, 64])),
                learning_rate=draw(st.sampled_from(["5e-4", "0.05"])))
    supervisions = [s.value for s in Supervision]
    if command == "train":
        keys.update(input_len=draw(st.sampled_from([16, 32])),
                    seeds=draw(st.sampled_from(["0", "0,1"])),
                    harmonic=draw(st.sampled_from(["0", "1", "none"])),
                    supervision=draw(st.sampled_from(supervisions)))
    else:
        keys.update(look_backs=draw(st.sampled_from(["16", "32", "16,32"])), seeds="0",
                    harmonics=draw(st.sampled_from(["1", "none", "1,none"])),
                    supervisions=draw(st.sampled_from([*supervisions, ",".join(supervisions)])))
    return keys


@st.composite
def _contract_config(draw, command, tmp):
    """The bytes of a config file of `command`, its paths under `tmp`: valid, or
    with keys set to odd values, left out or unknown, or with a corrupt line."""
    keys = {k: str(v) for k, v in _contract_keys(draw, command).items()}
    for key in ("data", "checkpoint"):
        if key in keys:
            keys[key] = str(tmp / keys[key])
    if _odd(draw):
        keys_or_unknown = st.sampled_from(sorted(SCHEMAS[command]) + ["bogus"])
        for key in draw(st.lists(keys_or_unknown, min_size=1, max_size=2)):
            value = draw(st.sampled_from([None, *ODD_VALUES]))
            if key == "max_epochs" and (value is None or value.isdigit()):
                continue  # 50 epochs by default, or 10^17, would take minutes
            if value is None:
                keys.pop(key, None)
            else:
                keys[key] = value
    lines = [f"{k} = {v}".encode() for k, v in keys.items()]
    if _odd(draw):
        corrupt = draw(st.sampled_from([b"\xff = 1", b"no equals sign", b"\0", lines[0]]))
        lines.insert(draw(st.integers(0, len(lines))), corrupt)
    head = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return head + b"\n".join(lines) + b"\n"


@st.composite
def _contract_data(draw):
    """The bytes of a data CSV of CONTRACT_ROWS rows at some scale, or of 0 to 2
    rows, or with a corrupt line; and its channel count."""
    rows = draw(st.integers(0, 2)) if _odd(draw) else CONTRACT_ROWS
    channels = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e300, 1e-300, 5e-324]))
    t = np.arange(rows)[:, None]
    values = scale * (np.sin(2 * np.pi * t / 24 + np.arange(channels))
                      + 0.1 * np.cos(2 * np.pi * t / 7))
    lines = [",".join(f"c{i}" for i in range(channels)).encode()]
    lines += [",".join(map(repr, row)).encode() for row in values.tolist()]
    if _odd(draw):
        line = draw(st.integers(0, len(lines) - 1))
        corrupt = draw(st.sampled_from([b",1", b"\0", b"\xff", b"\n", b"x,", b"nan,", b"\x01"]))
        lines[line] = lines[line] + corrupt if line % 2 else corrupt + lines[line]
    head = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return head + b"\n".join(lines) + b"\n", channels


@st.composite
def _contract_checkpoint(draw, channels):
    """The bytes of an eval checkpoint: a forecast model of the data's `channels`,
    maybe with huge weights; or of other channels, truncated, or not a checkpoint."""
    odd = _odd(draw)
    cfg = ModelConfig.for_forecast(
        draw(st.sampled_from([16, 32])), draw(st.sampled_from([4, 8])), 24,
        draw(st.integers(0, 2)), draw(st.sampled_from([1, 3])) if odd else channels,
        draw(st.sampled_from(list(Supervision))))
    layer = init_params(cfg, 0)
    layer.weight *= draw(st.sampled_from([1.0, 1e300]))
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(Path(tmp) / "m.ckpt", cfg, layer)
        raw = (Path(tmp) / "m.ckpt").read_bytes()
    edit = draw(st.sampled_from([None, "truncate", "garbage"])) if odd else None
    if edit == "truncate":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    elif edit == "garbage":
        raw = draw(st.binary(max_size=80))
    return raw


@pytest.mark.parametrize("command", ["train", "grid", "eval", "synth"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_commands_keep_their_exit_contract(command, data):
    # exit 0, 2 or 3; a nonzero exit prints one stderr line and leaves no run
    # directory, and exit 0 writes every file the command promises
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv_bytes, channels = data.draw(_contract_data())
        (tmp / "data.csv").write_bytes(csv_bytes)
        if command == "eval":
            (tmp / "model.ckpt").write_bytes(data.draw(_contract_checkpoint(channels)))
        (tmp / "run.cfg").write_bytes(data.draw(_contract_config(command, tmp)))
        out = tmp / "runs"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(tmp / "run.cfg"), "--out", str(out)])
        assert code in (0, 2, 3)
        if code:
            assert len(err.getvalue().splitlines()) == 1 and "Traceback" not in err.getvalue()
            assert not out.exists() or not list(out.rglob("*"))  # no run directory
        else:
            (run_dir,) = out.iterdir()
            assert sorted(p.name for p in run_dir.iterdir()) == PROMISED[command]
