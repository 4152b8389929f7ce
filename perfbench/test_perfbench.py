"""Self-test of the benchmark harness at tiny shapes (--smoke), so that it keeps
working as the program changes. Runs in about ten seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from reference import CheckFailed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# a layer each workload must enter, so a wrapper that silently stops
# matching its caller shows up as a zero here
ENTERED = {
    "train-L720": ("model.model_backward.calls", "data.split_windows.s"),
    "detect-stream": ("anomaly.point_adjust.calls", "anomaly.reconstruction_windows.bytes",
                      "model.model_forward.rows", "model.checkpoint_io.s"),
}


def bench(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(ENTERED) == set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stderr
        assert result["attempted"] >= 2
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[group]}
        values = {name: m["value"] for name, m in result["metrics"].items()}
        if trace:
            for name in ("cli.self_s", "data.load_csv.cells", *ENTERED[workload]):
                assert values[name] > 0, name
        else:
            assert all(v > 0 for v in values.values()), values


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("train-L720", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _run_cli(inputs, command, *flags):
    from freqcast.cli import main

    out = inputs / "out"
    assert main([command, "--config", str(inputs / "run.cfg"), *flags, "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    return run_dir


@pytest.mark.parametrize("workload, output, key", [
    ("train-L720", "metrics.json", ("per_seed", 0, "test_mse")),
    ("detect-stream", "report.json", ("f1",)),
])
def test_checks_reject_a_wrong_result(tmp_path, monkeypatch, workload, output, key):
    w = WORKLOADS[workload]
    w.setup(tmp_path, 0, True)
    monkeypatch.chdir(tmp_path)
    run_dir = _run_cli(tmp_path, w.command, *w.flags)
    assert w.check(tmp_path, run_dir, True) > 0

    payload = json.loads((run_dir / output).read_text())
    target = payload
    for part in key[:-1]:
        target = target[part]
    target[key[-1]] *= 1.001
    (run_dir / output).write_text(json.dumps(payload))
    with pytest.raises(CheckFailed):
        w.check(tmp_path, run_dir, True)
