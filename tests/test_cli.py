"""End-to-end command checks on small fixtures: artifacts, determinism,
resume, schema validation, and exit codes."""

import json

import numpy as np
import pytest

from freqcast.cli import main
from freqcast.data import load_csv, write_series_csv
from freqcast.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from freqcast.training import read_grid_csv


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
    out = tmp_path / "runs"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    first, second = run_dirs(out)
    assert (first / "metrics.json").read_text() == (second / "metrics.json").read_text()
    assert (first / "model.ckpt").read_bytes() == (second / "model.ckpt").read_bytes()


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


def test_detect_checkpoint_channel_mismatch(tmp_path, synth_stream, capsys):
    values, labels = synth_stream
    ckpt = _recon_checkpoint(tmp_path, 80, 4, 3)
    cfg = write_config(tmp_path, "d.cfg", data=values, labels=labels, train_rows=375)
    assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--checkpoint", str(ckpt)]) == 2
    assert "3 channels, dataset has 1" in capsys.readouterr().err


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


def _torn_middle_grid(tmp_path, sine_csv):
    cfg = _grid_cfg(tmp_path, sine_csv)
    out = tmp_path / "runs"
    assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
    (run_dir,) = run_dirs(out)
    lines = (run_dir / "grid.csv").read_text().splitlines(keepends=True)
    lines[1] = lines[1][:12] + "\r\n"
    (run_dir / "grid.csv").write_text("".join(lines))
    return ["grid", "--config", str(cfg), "--resume", str(run_dir)]


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


@pytest.mark.parametrize("make_argv, code, message", [
    (_torn_middle_grid, 3, "row 2 is not a 7-cell grid row"),
    (_empty_seed_list, 2, "key 'seeds': expected a comma-separated list"),
    (_truncated_checkpoint, 3, "truncated"),
])
def test_malformed_inputs_exit_cleanly(tmp_path, sine_csv, capsys, make_argv, code, message):
    argv = make_argv(tmp_path, sine_csv)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
