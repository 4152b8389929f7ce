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
import itertools
import json
from collections import namedtuple
from dataclasses import asdict
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import anomaly as ad
from . import data as dat
from . import model as mdl
from . import training as trn
from .errors import ConfigError, FreqcastError, InvalidArgumentError, InvalidLengthError

DATA_ROOT_ENV = "FREQCAST_DATA"
DETECT_WINDOW_FACTOR = {"window": 200, "factor": 4}
# grid keys that vary inside one run; every other key must match on --resume
GRID_SWEPT = ("look_backs", "harmonics", "supervisions")
REQUIRED = object()  # schema default of a key that every config must set


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


def _list_of(parse):
    def parse_list(text):
        parts = [part for part in text.split(",") if part.strip()]
        items = [parse(part) for part in parts]
        if not items:
            raise ConfigError(f"expected a comma-separated list, got {text!r}")
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ConfigError(f"{parts[i].strip()!r} repeats an earlier value in {text!r}")
        return items
    return parse_list


def _harmonic(text):
    if text.strip().lower() == "none":
        return 0
    value = _int(text)
    if value < 0:
        raise ConfigError(f"harmonic must be >= 0 or 'none', got {text!r}")
    return value


def _path(text):
    if "\0" in text:
        raise ConfigError(f"a path cannot hold a NUL byte, got {text!r}")
    return text


def _supervision(text):
    try:
        return mdl.Supervision(text.strip())
    except ValueError:
        choices = ", ".join(s.value for s in mdl.Supervision)
        raise ConfigError(f"supervision must be one of: {choices}; got {text!r}") from None


_SPEC_DEFAULTS = trn.TrainSpec()
_TRAIN_COMMON = {
    "learning_rate": (_float, _SPEC_DEFAULTS.learning_rate),
    "batch_size": (_int, _SPEC_DEFAULTS.batch_size),
    "max_epochs": (_int, _SPEC_DEFAULTS.max_epochs),
    "patience": (_int, _SPEC_DEFAULTS.patience),
}
_SEEDS = (_list_of(_int), list(_SPEC_DEFAULTS.seeds_for_reporting))

_DATASET_COMMON = {
    "data": (_path, REQUIRED),
    "profile": (str, None),
    "period": (_int, None),
    "timestamp_column": (_bool, True),
}

SCHEMAS = {
    "train": {
        **_DATASET_COMMON,
        **_TRAIN_COMMON,
        "input_len": (_int, REQUIRED),
        "horizon": (_int, REQUIRED),
        "harmonic": (_harmonic, 0),
        "supervision": (_supervision, mdl.Supervision.BACKCAST_AND_FORECAST),
        "seeds": _SEEDS,
    },
    "grid": {
        **_DATASET_COMMON,
        **_TRAIN_COMMON,
        "horizon": (_int, REQUIRED),
        "look_backs": (_list_of(_int), [90, 180, 360, 720]),
        "harmonics": (_list_of(_harmonic), REQUIRED),
        "supervisions": (_list_of(_supervision), list(mdl.Supervision)),
        "seeds": _SEEDS,
    },
    "eval": {
        **_DATASET_COMMON,
        "checkpoint": (_path, REQUIRED),
    },
    "detect": {
        "data": (_path, REQUIRED),
        "labels": (_path, None),
        "label_column": (str, None),
        "timestamp_column": (_bool, False),
        "train_rows": (_int, REQUIRED),
        # unset: taken from the checkpoint, else DETECT_WINDOW_FACTOR
        "window": (_int, None),
        "factor": (_int, None),
        "checkpoint": (_path, None),
        "train_first": (_bool, False),
        "dump_scores": (_bool, False),
        # checked as for train, so older configs keep running; the exact fit
        # of --train-first reads none of them
        "seed": (_int, _SPEC_DEFAULTS.seed),
        **_TRAIN_COMMON,
    },
    "synth": {
        "length": (_int, 4000),
        "channels": (_int, 1),
        "rate": (_float, 0.05),
        "seed": (_int, 0),
    },
}

def read_config_file(path) -> dict[str, str]:
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        # utf-8-sig drops a leading BOM, which would otherwise start the first key
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line "
                              f"{first_line[key]}")
        raw[key], first_line[key] = value.strip(), lineno
    return raw


def validate_config(command: str, raw: dict[str, str]) -> dict:
    schema = SCHEMAS[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) for {command}: {', '.join(map(repr, unknown))}")
    cfg = {}
    for key, (parse, default) in schema.items():
        if key in raw:
            try:
                cfg[key] = parse(raw[key])
            except ConfigError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from None
        else:
            cfg[key] = default
    for key, value in cfg.items():
        if value is REQUIRED:
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
    name, period = cfg["profile"], cfg["period"]
    if name:
        try:
            profile = dat.PROFILES[name.lower()]
        except KeyError:
            raise ConfigError(
                f"unknown profile {name!r}; known: {', '.join(sorted(dat.PROFILES))}"
            ) from None
        if period is None:
            return profile
        name, rule = profile.name, profile.split_rule
    elif period is None:
        raise ConfigError("either 'profile' or 'period' must be set")
    else:
        name, rule = "custom", dat.SplitRule.RATIO_70_10_20
    try:
        return dat.DatasetProfile(name, period, rule)
    except InvalidArgumentError as exc:
        raise ConfigError(f"key 'period': {exc}") from None


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


def _write_atomic(path: Path, writer) -> None:
    """writer(tmp) fills a .tmp sibling, which then replaces `path` in one step."""
    tmp = path.with_name(path.name + ".tmp")
    writer(tmp)
    os.replace(tmp, path)


def write_json(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, lambda p: p.write_text(text, encoding="utf-8"))


def _train_spec(cfg: dict, seeds) -> trn.TrainSpec:
    """The config's training keys; a value TrainSpec rejects is a config error."""
    try:
        return trn.TrainSpec(**{key: cfg[key] for key in _TRAIN_COMMON},
                             seed=seeds[0], seeds_for_reporting=tuple(seeds))
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from None


# --- commands ----------------------------------------------------------------

def _check_forecast_cells(horizon: int, period: int, look_backs, harmonics,
                          supervisions) -> None:
    """Refuse, before any file is read, a cell whose geometry the model rejects."""
    for look_back, harmonic, supervision in itertools.product(look_backs, harmonics,
                                                              supervisions):
        try:
            mdl.ModelConfig.for_forecast(look_back, horizon, period, harmonic, 1, supervision)
        except (InvalidArgumentError, InvalidLengthError) as exc:
            raise ConfigError(f"look-back {look_back}, horizon {horizon}: {exc}") from None


def _check_look_backs(frame, profile: dat.DatasetProfile, horizon: int, look_backs) -> None:
    """Refuse, before any cell trains, a look-back whose window some split cannot hold."""
    splits = zip(("train", "val", "test"), dat.chrono_split(frame, profile))
    for (name, split), look_back in itertools.product(splits, look_backs):
        lo, hi = dat.lookback_extended(split, look_back)  # the train split starts at row 0
        if hi - lo < look_back + horizon:
            raise InvalidLengthError(f"look-back {look_back}: the {name} split has {hi - lo} "
                                     f"rows, fewer than one {look_back + horizon}-row window")


def _standardized_frame(cfg: dict, profile: dat.DatasetProfile,
                        model_cfg: mdl.ModelConfig | None):
    """The config's data, standardized by its train split under `profile`.

    A checkpoint's `model_cfg` (None when training) is checked against the
    frame before the split, so a mismatch is a config error even on a series
    too short to split.
    """
    frame = dat.load_csv(resolve_data_path(cfg["data"]), cfg["timestamp_column"])
    if model_cfg is not None:
        _check_channels(model_cfg, frame)
    train_range, _, _ = dat.chrono_split(frame, profile)
    return dat.standardize(frame, train_range)[0]


def cmd_train(cfg: dict, run_dir: Path) -> None:
    spec = _train_spec(cfg, cfg["seeds"])
    profile = dataset_profile(cfg)
    _check_forecast_cells(cfg["horizon"], profile.period, [cfg["input_len"]],
                          [cfg["harmonic"]], [cfg["supervision"]])
    frame = _standardized_frame(cfg, profile, None)
    model_cfg, runs = trn.train_seeds(
        frame, profile, cfg["horizon"], cfg["input_len"], cfg["harmonic"],
        cfg["supervision"], spec,
    )
    per_seed = [record for record, _, _ in runs]
    _, best, history = min(runs, key=lambda run: run[0]["val_mse"])  # first on ties

    _write_atomic(run_dir / "model.ckpt",
                  lambda p: mdl.save_checkpoint(p, model_cfg, best))
    _write_atomic(run_dir / "history.csv",
                  lambda p: trn.write_history_csv(p, history))
    keys = ("val_mse", "val_mae", "test_mse", "test_mae")
    metrics = {
        "config": _config_echo(cfg, model_cfg),
        "per_seed": per_seed,
        "mean": {k: float(np.mean([p[k] for p in per_seed])) for k in keys},
        "std": {k: float(np.std([p[k] for p in per_seed])) for k in keys},
    }
    write_json(run_dir / "metrics.json", metrics)
    print(f"run dir: {run_dir}")
    print(f"mean test MSE: {metrics['mean']['test_mse']:.6f}")


def _config_echo(cfg: dict, model_cfg: mdl.ModelConfig) -> dict:
    return {**asdict(model_cfg), "supervision": model_cfg.supervision.value,
            "data": str(cfg["data"]), "complex_entries": mdl.param_count(model_cfg)[0]}


def _grid_config_to_pin(cfg: dict, run_dir: Path) -> dict | None:
    """The run's fixed keys, for a run directory without config.json; None
    when config.json holds them already. A config.json that differs is refused."""
    pinned = {k: v for k, v in cfg.items() if k not in GRID_SWEPT}
    path = run_dir / "config.json"
    if path.exists():
        try:
            stored = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"cannot read {path}: {exc}") from None
        if not isinstance(stored, dict):
            raise ConfigError(f"cannot read {path}: not a JSON object")
        current = json.loads(json.dumps(pinned))
        changed = sorted(k for k in stored.keys() | current.keys()
                         if stored.get(k) != current.get(k))
        if changed:
            raise ConfigError(
                f"--resume config differs from {path} in: "
                + ", ".join(f"{k} ({stored.get(k)!r} -> {current.get(k)!r})"
                            for k in changed)
            )
        return None
    return pinned


def cmd_grid(cfg: dict, run_dir: Path) -> None:
    """Sweep the grid into run_dir; rows already in its grid.csv (--resume) are kept."""
    spec = _train_spec(cfg, cfg["seeds"])
    profile = dataset_profile(cfg)
    _check_forecast_cells(cfg["horizon"], profile.period, cfg["look_backs"],
                          cfg["harmonics"], cfg["supervisions"])
    pinned = _grid_config_to_pin(cfg, run_dir)  # before any data is read
    frame = _standardized_frame(cfg, profile, None)
    _check_look_backs(frame, profile, cfg["horizon"], cfg["look_backs"])
    if pinned is not None:  # a run that fails before its first cell leaves no directory
        write_json(run_dir / "config.json", pinned)
    grid_path = run_dir / "grid.csv"
    done = trn.read_grid_csv(grid_path) if grid_path.exists() else []

    def on_row(rows):
        _write_atomic(grid_path, lambda p: trn.write_grid_csv(p, rows))
        row = rows[-1]
        print(f"  L={row.look_back} n={row.harmonic} {row.supervision}: "
              f"val {row.val_mse:.6f} test {row.test_mse:.6f}")

    selected = trn.grid_search(
        frame, profile, cfg["horizon"], cfg["look_backs"], cfg["harmonics"],
        cfg["supervisions"], spec, done=done, on_row=on_row,
    ).selected
    write_json(run_dir / "selected.json",
               {k: v for k, v in asdict(selected).items() if k != "epochs_ran"})
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
    profile = dataset_profile(cfg)
    model_cfg, layer = mdl.load_checkpoint(resolve_data_path(cfg["checkpoint"]))
    frame = _standardized_frame(cfg, profile, model_cfg)
    _, val_w, test_w = dat.split_windows(
        frame, profile, model_cfg.input_len, model_cfg.horizon, model_cfg.supervision
    )
    val_mse, val_mae = trn.evaluate(model_cfg, layer, val_w, model_cfg.horizon)
    test_mse, test_mae = trn.evaluate(model_cfg, layer, test_w, model_cfg.horizon)
    write_json(run_dir / "metrics.json", {
        "config": _config_echo(cfg, model_cfg),
        "val_mse": val_mse, "val_mae": val_mae,
        "test_mse": test_mse, "test_mae": test_mae,
    })
    print(f"run dir: {run_dir}")
    print(f"test MSE: {test_mse:.6f}  test MAE: {test_mae:.6f}")


def _exactly_one(cfg: dict, first: str, second: str) -> None:
    """Refuse an either/or pair of detect keys unless exactly one is set."""
    given = [key for key in (first, second) if cfg[key]]
    if len(given) != 1:
        raise ConfigError(f"detect needs exactly one of '{first}' and '{second}', "
                          f"got {'both' if given else 'neither'}")


def _write_scores_csv(path: Path, start: int, scores, labels) -> None:
    """scores.csv: a header, then one "timestep,score,label" line per scored row from `start`."""
    rows = np.column_stack([np.arange(start, start + len(scores)), scores, labels])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestep,score,label\n")
        dat._write_rows(fh, "%d,%.10g,%d\n", rows)


def cmd_detect(cfg: dict, run_dir: Path) -> None:
    _exactly_one(cfg, "checkpoint", "train_first")
    _exactly_one(cfg, "labels", "label_column")
    _train_spec(cfg, [cfg["seed"]])  # refuses a bad training key, unused or not
    model_cfg = layer = None
    shape = DETECT_WINDOW_FACTOR
    if cfg["checkpoint"]:
        model_cfg, layer = mdl.load_checkpoint(resolve_data_path(cfg["checkpoint"]))
        shape = {"window": model_cfg.output_len,
                 "factor": model_cfg.output_len // model_cfg.input_len}
    window, factor = (shape[k] if cfg[k] is None else cfg[k] for k in ("window", "factor"))
    try:
        wanted = mdl.ModelConfig.for_reconstruction(
            window, factor, 1 if model_cfg is None else model_cfg.channels)
    except (InvalidArgumentError, InvalidLengthError) as exc:
        raise ConfigError(f"window {window}, factor {factor}: {exc}") from None
    if model_cfg is not None and model_cfg != wanted:
        raise ConfigError(f"window {window}, factor {factor} disagrees with the checkpoint "
                          f"{cfg['checkpoint']} ({model_cfg.input_len} -> "
                          f"{model_cfg.output_len} rows)")

    frame = dat.load_csv(resolve_data_path(cfg["data"]), cfg["timestamp_column"])
    if cfg["label_column"]:
        frame, labels = dat.split_label_column(frame, cfg["label_column"])
    else:
        labels = dat.load_labels(resolve_data_path(cfg["labels"]), frame.length)

    split = cfg["train_rows"]
    if not 0 < split < frame.length:
        raise ConfigError(f"train_rows {split} outside the {frame.length}-row series")
    if cfg["train_first"] and split < window:
        raise ConfigError(f"train_rows {split} must be at least window {window} to train")
    if frame.length - split < window:
        raise ConfigError(f"the {frame.length - split} rows after train_rows {split} "
                          f"are fewer than window {window}")
    if not labels[split:].any():
        raise InvalidArgumentError(f"the {frame.length - split} scored rows after train_rows "
                                   f"{split} hold no positive label to select a threshold on")
    frame_std, _ = dat.standardize(frame, (0, split))
    values = frame_std.values

    if model_cfg is not None:
        _check_channels(model_cfg, frame)
    else:
        model_cfg = mdl.ModelConfig.for_reconstruction(window, factor, frame.channels)
        layer = trn.exact_fit(model_cfg, ad.reconstruction_windows(values[:split], window, factor))
        _write_atomic(run_dir / "model.ckpt",
                      lambda p: mdl.save_checkpoint(p, model_cfg, layer))

    scores = ad.score_series(model_cfg, layer, values[split:], window, factor)
    _, report = ad.select_threshold(scores.scores, labels[split:])
    write_json(run_dir / "report.json", {
        **asdict(report), "window": window, "factor": factor,
        "params": mdl.param_count(model_cfg)[0], "threshold_source": "labeled-test",
    })
    if cfg["dump_scores"]:
        _write_atomic(run_dir / "scores.csv",
                      lambda p: _write_scores_csv(p, split, scores.scores, labels[split:]))
    print(f"run dir: {run_dir}")
    print(f"F1: {report.f1:.4f}  precision: {report.precision:.4f}  "
          f"recall: {report.recall:.4f}")


def cmd_synth(cfg: dict, run_dir: Path) -> None:
    try:
        series, split = dat.synth_anomaly(cfg["length"], cfg["channels"], cfg["rate"],
                                          cfg["seed"])
    except (InvalidArgumentError, InvalidLengthError) as exc:
        raise ConfigError(str(exc)) from None
    _write_atomic(run_dir / "synth_values.csv",
                  lambda p: dat.write_series_csv(p, series.values))
    _write_atomic(run_dir / "synth_labels.csv",
                  lambda p: dat.write_labels_csv(p, series.labels))
    write_json(run_dir / "synth_meta.json", {**cfg, "train_rows": split})
    print(f"run dir: {run_dir}")
    print(f"wrote {cfg['length']} steps, train split at {split}")


# --- entry point --------------------------------------------------------------

# `flags` maps the config keys that also have a --flag to the flag's help; the
# flag of a true/false key takes no value and sets it to true
Command = namedtuple("Command", "help run flags")

COMMANDS = {
    "train": Command("train a forecaster and record metrics", cmd_train, {}),
    "grid": Command("grid-search look-back windows and harmonics", cmd_grid, {}),
    "eval": Command("evaluate a checkpoint on a dataset", cmd_eval,
                    {"checkpoint": "model checkpoint to evaluate"}),
    "detect": Command("reconstruction-based anomaly detection", cmd_detect, {
        "checkpoint": "trained reconstruction checkpoint",
        "train_first": "train the reconstruction model before detecting",
        "dump_scores": "write per-timestep scores.csv",
    }),
    "synth": Command("generate the synthetic anomaly benchmark", cmd_synth, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqcast",
        description="Frequency-interpolation forecasting and anomaly detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", default="runs", help="parent directory for run outputs")
        p.add_argument("--seed", action="append", default=[],
                       help="seed override: N or N,N,...")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key")
        if name == "grid":
            p.add_argument("--resume", help="existing run directory to continue")
        for key, help_text in command.flags.items():
            action = "store_true" if SCHEMAS[name][key][0] is _bool else "store"
            p.add_argument("--" + key.replace("_", "-"), action=action, help=help_text)
    return parser


def _gather_raw(args) -> dict[str, str]:
    raw = read_config_file(args.config) if args.config else {}
    overrides: dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in overrides:
            raise ConfigError(f"--set {key} is given twice: {overrides[key]!r}, then "
                              f"{value.strip()!r}")
        overrides[key] = value.strip()
    raw.update(overrides)  # --set overrides the config file
    if len(args.seed) > 1:
        raise ConfigError(f"--seed is given {len(args.seed)} times; give one list, "
                          f"e.g. --seed {','.join(args.seed)}")
    if args.seed:
        raw["seeds" if "seeds" in SCHEMAS[args.command] else "seed"] = args.seed[0]
    for key in COMMANDS[args.command].flags:
        value = getattr(args, key)
        if value:
            raw[key] = "true" if value is True else value
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    made = None  # the run directory this invocation created
    try:
        cfg = validate_config(args.command, _gather_raw(args))
        if getattr(args, "resume", None):  # grid only
            run_dir = Path(args.resume)
            if not run_dir.is_dir():
                raise ConfigError(f"--resume directory {run_dir} does not exist")
        else:
            run_dir = made = make_run_dir(args.out, args.command)
        COMMANDS[args.command].run(cfg, run_dir)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FreqcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 3
    finally:
        if made is not None and not any(made.iterdir()):
            made.rmdir()  # a run that wrote nothing leaves no directory


if __name__ == "__main__":
    sys.exit(main())
