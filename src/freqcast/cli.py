"""Command-line entry points: train, grid, eval, detect, synth.

Runs are configured by a flat ``key = value`` text file plus ``--set``
overrides; every key is validated against the command schema before any work
starts and unknown keys are rejected. Each run writes into a fresh
timestamped directory under ``--out`` (never overwritten; ``grid --resume``
reuses an existing directory, refuses a config that differs from the run's
``config.json``, and skips finished combinations). Relative
dataset paths are resolved against $FREQCAST_DATA when set.

Exit codes: 0 success, 2 config error, 3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import anomaly as ad
from . import data as dat
from . import model as mdl
from . import training as trn
from .errors import ConfigError, FreqcastError

DATA_ROOT_ENV = "FREQCAST_DATA"
DETECT_WINDOW_FACTOR = {"window": 200, "factor": 4}
# grid keys that vary inside one run; every other key must match on --resume
GRID_SWEPT = ("look_backs", "harmonics", "supervisions")


# --- config schema ----------------------------------------------------------

def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _float(text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected true/false, got {text!r}")


def _str(text):
    return text


def _list_of(parse):
    def parse_list(text):
        items = [parse(part) for part in text.split(",") if part.strip()]
        if not items:
            raise ConfigError(f"expected a comma-separated list, got {text!r}")
        return items
    return parse_list


def _harmonic(text):
    if text.strip().lower() == "none":
        return 0
    value = _int(text)
    if value < 0:
        raise ConfigError(f"harmonic must be >= 0 or 'none', got {text!r}")
    return value


def _supervision(text):
    try:
        return mdl.Supervision(text.strip())
    except ValueError:
        choices = ", ".join(s.value for s in mdl.Supervision)
        raise ConfigError(f"supervision must be one of: {choices}; got {text!r}") from None


_TRAIN_COMMON = {
    "learning_rate": (_float, 5e-4),
    "batch_size": (_int, 64),
    "max_epochs": (_int, 50),
    "patience": (_int, 5),
}

_DATASET_COMMON = {
    "data": (_str, None),
    "profile": (_str, None),
    "period": (_int, None),
    "timestamp_column": (_bool, True),
}

SCHEMAS = {
    "train": {
        **_DATASET_COMMON,
        **_TRAIN_COMMON,
        "input_len": (_int, None),
        "horizon": (_int, None),
        "harmonic": (_harmonic, 0),
        "supervision": (_supervision, mdl.Supervision.BACKCAST_AND_FORECAST),
        "seeds": (_list_of(_int), [0, 1, 2, 3, 4]),
    },
    "grid": {
        **_DATASET_COMMON,
        **_TRAIN_COMMON,
        "horizon": (_int, None),
        "look_backs": (_list_of(_int), [90, 180, 360, 720]),
        "harmonics": (_list_of(_harmonic), None),
        "supervisions": (_list_of(_supervision), list(mdl.Supervision)),
        "seeds": (_list_of(_int), [0, 1, 2, 3, 4]),
    },
    "eval": {
        **_DATASET_COMMON,
        "checkpoint": (_str, None),
    },
    "detect": {
        "data": (_str, None),
        "labels": (_str, None),
        "label_column": (_str, None),
        "timestamp_column": (_bool, False),
        "train_rows": (_int, None),
        # unset: taken from the checkpoint, else DETECT_WINDOW_FACTOR
        "window": (_int, None),
        "factor": (_int, None),
        "checkpoint": (_str, None),
        "train_first": (_bool, False),
        "dump_scores": (_bool, False),
        "seed": (_int, 0),
        **_TRAIN_COMMON,
    },
    "synth": {
        "length": (_int, 4000),
        "channels": (_int, 1),
        "rate": (_float, 0.05),
        "seed": (_int, 0),
    },
}

_REQUIRED = {
    "train": ("data", "input_len", "horizon"),
    "grid": ("data", "horizon", "harmonics"),
    "eval": ("data", "checkpoint"),
    "detect": ("data", "train_rows"),
    "synth": (),
}


def read_config_file(path) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def validate_config(command: str, raw: dict[str, str]) -> dict:
    schema = SCHEMAS[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) for {command}: {', '.join(unknown)}")
    cfg = {}
    for key, (parse, default) in schema.items():
        if key in raw:
            try:
                cfg[key] = parse(raw[key])
            except ConfigError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
        else:
            cfg[key] = default
    for key in _REQUIRED[command]:
        if cfg.get(key) is None:
            raise ConfigError(f"missing required key {key!r} for {command}")
    return cfg


def resolve_data_path(path_text: str) -> Path:
    path = Path(path_text)
    if not path.is_absolute() and not path.exists():
        root = os.environ.get(DATA_ROOT_ENV)
        if root and (Path(root) / path).exists():
            return Path(root) / path
    return path


def dataset_profile(cfg: dict) -> dat.DatasetProfile:
    name = cfg.get("profile")
    if name:
        try:
            profile = dat.PROFILES[name.lower()]
        except KeyError:
            raise ConfigError(
                f"unknown profile {name!r}; known: {', '.join(sorted(dat.PROFILES))}"
            ) from None
        if cfg.get("period"):
            profile = dat.DatasetProfile(profile.name, cfg["period"], profile.split_rule)
        return profile
    if not cfg.get("period"):
        raise ConfigError("either 'profile' or 'period' must be set")
    return dat.DatasetProfile("custom", cfg["period"], dat.SplitRule.RATIO_70_10_20)


# --- run directories and atomic writes --------------------------------------

def make_run_dir(out_root, command: str) -> Path:
    root = Path(out_root)
    root.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = root / f"{command}-{stamp}"
    counter = 2
    while candidate.exists():
        candidate = root / f"{command}-{stamp}-{counter}"
        counter += 1
    candidate.mkdir()
    return candidate


def write_json(path: Path, payload) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _write_atomic(path: Path, writer) -> None:
    tmp = path.with_name(path.name + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def _train_spec(cfg: dict, seeds) -> trn.TrainSpec:
    return trn.TrainSpec(
        learning_rate=cfg["learning_rate"],
        batch_size=cfg["batch_size"],
        max_epochs=cfg["max_epochs"],
        patience=cfg["patience"],
        seed=seeds[0],
        seeds_for_reporting=tuple(seeds),
    )


def _summary(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


# --- commands ----------------------------------------------------------------

def cmd_train(cfg: dict, run_dir: Path) -> None:
    profile = dataset_profile(cfg)
    frame = dat.load_csv(resolve_data_path(cfg["data"]), cfg["timestamp_column"])
    train_range, _, _ = dat.chrono_split(frame, profile)
    frame_std, _ = dat.standardize(frame, train_range)

    model_cfg = mdl.ModelConfig.for_forecast(
        cfg["input_len"], cfg["horizon"], profile.period, cfg["harmonic"],
        frame.channels, cfg["supervision"],
    )
    train_w, val_w, test_w = dat.split_windows(
        frame_std, profile, cfg["input_len"], cfg["horizon"], cfg["supervision"]
    )
    spec = _train_spec(cfg, cfg["seeds"])

    per_seed = []
    best = None
    for seed in cfg["seeds"]:
        layer = mdl.init_params(model_cfg, seed)
        trained, history = trn.train(
            model_cfg, layer, train_w, val_w,
            dataclasses.replace(spec, seed=seed),
            eval_steps=cfg["horizon"],
        )
        val_mse, val_mae = trn.evaluate(model_cfg, trained, val_w, cfg["horizon"])
        test_mse, test_mae = trn.evaluate(model_cfg, trained, test_w, cfg["horizon"])
        per_seed.append({
            "seed": seed,
            "val_mse": val_mse, "val_mae": val_mae,
            "test_mse": test_mse, "test_mae": test_mae,
            "epochs": len(history),
        })
        if best is None or val_mse < best[0]:
            best = (val_mse, trained, history)

    _write_atomic(run_dir / "model.ckpt",
                  lambda p: mdl.save_checkpoint(p, model_cfg, best[1]))
    _write_atomic(run_dir / "history.csv",
                  lambda p: trn.write_history_csv(p, best[2]))
    metrics = {
        "config": _config_echo(cfg, model_cfg),
        "per_seed": per_seed,
        "mean": {k: _summary([p[k] for p in per_seed])[0]
                 for k in ("val_mse", "val_mae", "test_mse", "test_mae")},
        "std": {k: _summary([p[k] for p in per_seed])[1]
                for k in ("val_mse", "val_mae", "test_mse", "test_mae")},
    }
    write_json(run_dir / "metrics.json", metrics)
    print(f"run dir: {run_dir}")
    print(f"mean test MSE: {metrics['mean']['test_mse']:.6f}")


def _config_echo(cfg: dict, model_cfg: mdl.ModelConfig) -> dict:
    return {
        "data": str(cfg["data"]),
        "input_len": model_cfg.input_len,
        "output_len": model_cfg.output_len,
        "period": model_cfg.period,
        "harmonic": model_cfg.harmonic,
        "channels": model_cfg.channels,
        "supervision": model_cfg.supervision.value,
        "n_in": model_cfg.n_in,
        "n_out": model_cfg.n_out,
        "complex_entries": mdl.param_count(model_cfg)[0],
    }


def _pin_grid_config(cfg: dict, run_dir: Path, resume: bool) -> None:
    """Write the run's fixed keys to config.json; on resume, refuse a change."""
    pinned = {k: v for k, v in cfg.items() if k not in GRID_SWEPT}
    path = run_dir / "config.json"
    if resume and path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        current = json.loads(json.dumps(pinned))
        changed = sorted(k for k in stored.keys() | current.keys()
                         if stored.get(k) != current.get(k))
        if changed:
            raise ConfigError(
                f"--resume config differs from {path} in: "
                + ", ".join(f"{k} ({stored.get(k)!r} -> {current.get(k)!r})"
                            for k in changed)
            )
    else:
        write_json(path, pinned)


def cmd_grid(cfg: dict, run_dir: Path, resume: bool) -> None:
    _pin_grid_config(cfg, run_dir, resume)
    profile = dataset_profile(cfg)
    frame = dat.load_csv(resolve_data_path(cfg["data"]), cfg["timestamp_column"])
    train_range, _, _ = dat.chrono_split(frame, profile)
    frame_std, _ = dat.standardize(frame, train_range)
    spec = _train_spec(cfg, cfg["seeds"])

    grid_path = run_dir / "grid.csv"
    done_rows = []
    if resume and grid_path.exists():
        done_rows = trn.read_grid_csv(grid_path)
        # rewrite the log so a dropped torn row cannot prefix the next append
        _write_atomic(grid_path, lambda p: trn.write_grid_csv(p, done_rows))
    done = {(r.look_back, r.harmonic, r.supervision) for r in done_rows}

    def on_row(row):
        trn.append_grid_csv(grid_path, [row])
        print(f"  L={row.look_back} n={row.harmonic} {row.supervision}: "
              f"val {row.val_mse:.6f} test {row.test_mse:.6f}")

    result = trn.grid_search(
        frame_std, profile, cfg["horizon"], cfg["look_backs"], cfg["harmonics"],
        cfg["supervisions"], spec, skip=done, on_row=on_row,
    )
    all_rows = done_rows + result.rows
    selected = trn.select_best(all_rows)
    write_json(run_dir / "selected.json", {
        "look_back": selected.look_back,
        "harmonic": selected.harmonic,
        "supervision": selected.supervision,
        "val_mse": selected.val_mse,
        "test_mse": selected.test_mse,
        "complex_entries": selected.complex_entries,
    })
    print(f"run dir: {run_dir}")
    print(f"selected: L={selected.look_back} n={selected.harmonic} "
          f"{selected.supervision} (val MSE {selected.val_mse:.6f})")


def _check_channels(model_cfg: mdl.ModelConfig, frame: dat.SeriesFrame) -> None:
    if frame.channels != model_cfg.channels:
        raise ConfigError(
            f"checkpoint was trained on {model_cfg.channels} channels, "
            f"dataset has {frame.channels}"
        )


def cmd_eval(cfg: dict, run_dir: Path) -> None:
    model_cfg, layer = mdl.load_checkpoint(resolve_data_path(cfg["checkpoint"]))
    profile = dataset_profile(cfg)
    frame = dat.load_csv(resolve_data_path(cfg["data"]), cfg["timestamp_column"])
    _check_channels(model_cfg, frame)
    train_range, _, _ = dat.chrono_split(frame, profile)
    frame_std, _ = dat.standardize(frame, train_range)
    _, val_w, test_w = dat.split_windows(
        frame_std, profile, model_cfg.input_len, model_cfg.horizon, model_cfg.supervision
    )
    val_mse, val_mae = trn.evaluate(model_cfg, layer, val_w, model_cfg.horizon)
    test_mse, test_mae = trn.evaluate(model_cfg, layer, test_w, model_cfg.horizon)
    write_json(run_dir / "metrics.json", {
        "config": _config_echo({"data": cfg["data"]}, model_cfg),
        "val_mse": val_mse, "val_mae": val_mae,
        "test_mse": test_mse, "test_mae": test_mae,
    })
    print(f"run dir: {run_dir}")
    print(f"test MSE: {test_mse:.6f}  test MAE: {test_mae:.6f}")


def cmd_detect(cfg: dict, run_dir: Path) -> None:
    if not cfg["checkpoint"] and not cfg["train_first"]:
        raise ConfigError("detect needs either 'checkpoint' or 'train_first = true'")
    model_cfg = layer = None
    shape = DETECT_WINDOW_FACTOR
    if cfg["checkpoint"]:
        model_cfg, layer = mdl.load_checkpoint(resolve_data_path(cfg["checkpoint"]))
        shape = {"window": model_cfg.output_len,
                 "factor": model_cfg.output_len // model_cfg.input_len}
        for key, value in shape.items():
            if cfg[key] is not None and cfg[key] != value:
                raise ConfigError(
                    f"config {key} {cfg[key]} disagrees with the checkpoint's {value}"
                )
    window, factor = (shape[k] if cfg[k] is None else cfg[k] for k in ("window", "factor"))
    if window < 1 or factor < 1:
        raise ConfigError(f"window and factor must be >= 1, got {window}/{factor}")
    if window % factor != 0:
        raise ConfigError(f"factor {factor} does not divide window {window}")

    frame = dat.load_csv(resolve_data_path(cfg["data"]), cfg["timestamp_column"])
    if cfg["label_column"]:
        frame, labels = dat.split_label_column(frame, cfg["label_column"])
    elif cfg["labels"]:
        labels = dat.load_labels(resolve_data_path(cfg["labels"]), frame.length)
    else:
        raise ConfigError("detect needs 'labels' (file) or 'label_column'")

    split = cfg["train_rows"]
    if not 0 < split < frame.length:
        raise ConfigError(f"train_rows {split} outside the {frame.length}-row series")
    frame_std, _ = dat.standardize(frame, (0, split))
    values = frame_std.values

    if model_cfg is not None:
        _check_channels(model_cfg, frame)
    else:
        model_cfg = mdl.ModelConfig.for_reconstruction(window, factor, frame.channels)
        windows = ad.reconstruction_windows(values[:split], window, factor)
        n_val = max(1, len(windows) // 5)
        train_w = dat.ArrayWindows(windows.inputs[:-n_val], windows.targets[:-n_val])
        val_w = dat.ArrayWindows(windows.inputs[-n_val:], windows.targets[-n_val:])
        spec = _train_spec(cfg, [cfg["seed"]])
        layer, _ = trn.train(model_cfg, mdl.init_params(model_cfg, cfg["seed"]),
                             train_w, val_w, spec, eval_steps=None)
        _write_atomic(run_dir / "model.ckpt",
                      lambda p: mdl.save_checkpoint(p, model_cfg, layer))

    scores = ad.score_series(model_cfg, layer, values[split:], window, factor)
    threshold, report = ad.select_threshold(scores.scores, labels[split:])
    payload = {
        "threshold": threshold,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "accuracy": report.accuracy,
        "adjusted": report.adjusted,
        "window": window,
        "factor": factor,
        "params": mdl.param_count(model_cfg)[0],
        "threshold_source": "labeled-test",
    }
    write_json(run_dir / "report.json", payload)
    if cfg["dump_scores"]:
        with open(run_dir / "scores.csv", "w", encoding="utf-8") as fh:
            fh.write("timestep,score,label\n")
            for i, (s, l) in enumerate(zip(scores.scores, labels[split:])):
                fh.write(f"{split + i},{s:.10g},{int(l)}\n")
    print(f"run dir: {run_dir}")
    print(f"F1: {report.f1:.4f}  precision: {report.precision:.4f}  "
          f"recall: {report.recall:.4f}")


def cmd_synth(cfg: dict, run_dir: Path) -> None:
    series, split = dat.synth_anomaly(cfg["length"], cfg["channels"], cfg["rate"],
                                      cfg["seed"])
    dat.write_series_csv(run_dir / "synth_values.csv", series.values)
    dat.write_labels_csv(run_dir / "synth_labels.csv", series.labels)
    write_json(run_dir / "synth_meta.json", {
        "length": cfg["length"], "channels": cfg["channels"], "rate": cfg["rate"],
        "seed": cfg["seed"], "train_rows": split,
    })
    print(f"run dir: {run_dir}")
    print(f"wrote {cfg['length']} steps, train split at {split}")


# --- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqcast",
        description="Frequency-interpolation forecasting and anomaly detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train a forecaster and record metrics"),
        ("grid", "grid-search look-back windows and harmonics"),
        ("eval", "evaluate a checkpoint on a dataset"),
        ("detect", "reconstruction-based anomaly detection"),
        ("synth", "generate the synthetic anomaly benchmark"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", default="runs", help="parent directory for run outputs")
        p.add_argument("--seed", help="seed override: N or N,N,...")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key")
        if name == "grid":
            p.add_argument("--resume", help="existing run directory to continue")
        if name == "eval":
            p.add_argument("--checkpoint", help="model checkpoint to evaluate")
        if name == "detect":
            p.add_argument("--checkpoint", help="trained reconstruction checkpoint")
            p.add_argument("--train-first", action="store_true",
                           help="train the reconstruction model before detecting")
            p.add_argument("--dump-scores", action="store_true",
                           help="write per-timestep scores.csv")
    return parser


def _gather_raw(args) -> dict[str, str]:
    raw = read_config_file(args.config) if args.config else {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    if args.seed is not None:
        raw["seeds" if args.command in ("train", "grid") else "seed"] = args.seed
    if getattr(args, "checkpoint", None):
        raw["checkpoint"] = args.checkpoint
    if getattr(args, "train_first", False):
        raw["train_first"] = "true"
    if getattr(args, "dump_scores", False):
        raw["dump_scores"] = "true"
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = validate_config(args.command, _gather_raw(args))
        if args.command == "grid" and getattr(args, "resume", None):
            run_dir = Path(args.resume)
            if not run_dir.is_dir():
                raise ConfigError(f"--resume directory {run_dir} does not exist")
            cmd_grid(cfg, run_dir, resume=True)
        elif args.command == "grid":
            cmd_grid(cfg, make_run_dir(args.out, "grid"), resume=False)
        elif args.command == "train":
            cmd_train(cfg, make_run_dir(args.out, "train"))
        elif args.command == "eval":
            cmd_eval(cfg, make_run_dir(args.out, "eval"))
        elif args.command == "detect":
            cmd_detect(cfg, make_run_dir(args.out, "detect"))
        else:
            cmd_synth(cfg, make_run_dir(args.out, "synth"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FreqcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
