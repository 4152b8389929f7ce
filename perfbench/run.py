"""Closed-loop benchmark of the freqcast CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a freqcast checkout. One client runs one CLI invocation
at a time, each in a fresh process with one BLAS thread, in rounds that fit
in S seconds, after one untimed warm-up invocation. Each round also
generates the inputs again, to time set-up. Every invocation must exit 0
and write outputs byte-identical to the warm-up's, which are checked against
the oracles in `reference.py`.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced invocations
(see `trace_cli.py`) and reports the per-layer metrics. Inputs are generated
from --seed under .perfbench_work/ and removed afterwards. --smoke uses tiny
shapes, for the harness's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"
# set before NumPy is imported, here and in every invocation
os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})

SETUP_REPEATS = 5
MIN_ROUNDS = 1
DEADLINE_S = 170.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _digest(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0" + (directory / name).read_bytes())
    return h.hexdigest()


def set_up(workload, seed: int, directory: Path, smoke: bool):
    """Generate the inputs into a fresh directory; (seconds, digest of the files)."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    start = time.perf_counter()
    workload.setup(directory, seed, smoke)
    seconds = time.perf_counter() - start
    return seconds, _digest(directory, sorted(p.name for p in directory.iterdir()))


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    run_dir: Path | None
    stderr: str


def invoke(argv, cwd: Path, out_root: Path, deadline: float) -> Invocation:
    """Run one CLI process to completion, killing it at the deadline."""
    out_root.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("FREQCAST_DATA", None)
    with open(out_root / "stdout.txt", "wb") as out, \
            open(out_root / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    runs = [p for p in out_root.iterdir() if p.is_dir()]
    return Invocation(wall_s, usage.ru_maxrss / 1024.0, proc.returncode,
                      runs[0] if len(runs) == 1 else None,
                      (out_root / "stderr.txt").read_text(errors="replace")[-2000:])


# per-layer metrics computed from several spans; every other name is
# "<span name>.<s | self_s | calls | counter>"
DERIVED = ("training.epochs", "training.useful_epoch_ratio", "trace.overhead_s")


def layer_values(trace, names) -> dict[str, float]:
    """Per-layer metrics of one traced invocation; 0 for a layer it never entered."""
    spans = trace["spans"]
    stats = defaultdict(float)
    covered = [0.0] * len(spans)
    for name, parent, start, end, counters in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (name, _, start, end, counters), child in zip(spans, covered):
        stats[f"{name}.s"] += end - start
        stats[f"{name}.self_s"] += end - start - child
        stats[f"{name}.calls"] += 1
        for key, value in (counters or {}).items():
            stats[f"{name}.{key}"] += value
    epochs = stats["training.train.epochs"]
    stats["training.epochs"] = epochs
    stats["training.useful_epoch_ratio"] = stats["training.train.best_epoch"] / epochs if epochs else 0.0
    for name in names:
        if name not in DERIVED and name.rsplit(".", 1)[0] not in trace["wrapped"]:
            raise KeyError(f"per-layer metric {name} names no traced span")
    return {name: stats[name] for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "freqcast" / "cli.py").is_file():
        print(f"no freqcast sources under {SRC}; run from a freqcast checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    from workloads import WORKLOADS  # imports freqcast, so only once SRC is known

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        return run(args, spec, workload, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Client:
    """The closed-loop client of one run: what it attempted, failed, timed and traced.

    The first good invocation's outputs are checked against the oracle; every
    later invocation must write byte-identical outputs.
    """

    def __init__(self, workload, inputs: Path, work: Path, deadline: float,
                 layer_names, smoke: bool):
        self.workload, self.inputs, self.work, self.smoke = workload, inputs, work, smoke
        self.deadline, self.layer_names = deadline, layer_names
        self.reference = None  # (digest, passed, quality loss)
        self.attempted = self.failed = 0
        self.timed = {False: [], True: []}
        self.layers = []

    def invoke(self, traced: bool, warm_up: bool = False) -> None:
        out = self.work / f"run{self.attempted}"
        prefix = [str(BENCH_DIR / "trace_cli.py"), str(out / "spans.json")] if traced \
            else ["-m", "freqcast.cli"]
        args = [self.workload.command, "--config", "run.cfg", *self.workload.flags]
        inv = invoke([sys.executable, *prefix, *args, "--out", str(out)],
                     self.inputs, out, self.deadline)
        self.attempted += 1
        ok = self._passed(inv)
        self.failed += not ok
        print(json.dumps({"invocation": self.attempted, "traced": traced, "warm_up": warm_up,
                          "ok": ok, "wall_s": inv.wall_s, "peak_rss_mb": inv.peak_rss_mb}))
        if ok and not warm_up:
            self.timed[traced].append(inv)
            if traced:
                trace = json.loads((out / "spans.json").read_text(encoding="utf-8"))
                self.layers.append(layer_values(trace, self.layer_names))
        shutil.rmtree(out, ignore_errors=True)

    def _passed(self, inv: Invocation) -> bool:
        if inv.exit_code != 0 or inv.run_dir is None:
            print(f"invocation failed with exit code {inv.exit_code}: {inv.stderr}",
                  file=sys.stderr)
            return False
        names = self.workload.outputs
        if not all((inv.run_dir / n).is_file() for n in names):
            print(f"missing outputs in {inv.run_dir}", file=sys.stderr)
            return False
        digest = _digest(inv.run_dir, names)
        if self.reference is None:
            from reference import CheckFailed

            try:
                quality = self.workload.check(self.inputs, inv.run_dir, self.smoke)
                self.reference = (digest, True, quality)
            except (CheckFailed, KeyError, ValueError, OSError) as exc:
                print(f"output check failed: {exc!r}", file=sys.stderr)
                self.reference = (digest, False, None)
        elif digest != self.reference[0]:
            print(f"outputs differ from the first invocation: {names}", file=sys.stderr)
            return False
        return self.reference[1]


def run(args, spec, workload, work: Path, deadline: float) -> int:
    print(json.dumps({"env": environment(), "workload": workload.name, "seed": args.seed,
                      "smoke": args.smoke}))
    inputs = work / "inputs"
    setup_times, digests = [], set()

    def repeat_setup(directory: Path) -> None:
        seconds, digest = set_up(workload, args.seed, directory, args.smoke)
        setup_times.append(seconds)
        digests.add(digest)

    repeat_setup(inputs)
    layer_names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
    client = Client(workload, inputs, work, deadline, layer_names, args.smoke)

    # the warm-up is checked but not timed: it pays one-time costs such as
    # cold file caches that the timed invocations do not
    client.invoke(traced=False, warm_up=True)
    # A round is one set-up repeat and one invocation (two with --trace 1),
    # so set-up is timed across the whole run, like the invocations. The
    # host's speed drifts over tens of seconds; a burst of set-ups at the start
    # would sample only one moment of it. No round starts that would be
    # expected to end after --seconds.
    round_s = []
    start = time.perf_counter()
    while len(round_s) < MIN_ROUNDS or \
            time.perf_counter() - start + statistics.median(round_s) < args.seconds:
        if time.monotonic() > deadline:
            break
        began = time.perf_counter()
        repeat_setup(work / "repeat")
        for traced in ((False, True) if args.trace else (False,)):
            client.invoke(traced)
        round_s.append(time.perf_counter() - began)
    while len(setup_times) < SETUP_REPEATS:
        repeat_setup(work / "repeat")
    setup_s = statistics.median(setup_times)
    inputs_repeat = len(digests) == 1

    untraced, traced = client.timed[False], client.timed[True]
    if args.trace:
        if not (client.layers and untraced):
            print("no traced and untraced pair of invocations succeeded", file=sys.stderr)
            return 3
        values = {name: statistics.median(r[name] for r in client.layers)
                  for name in layer_names}
        values["trace.overhead_s"] = (statistics.median(i.wall_s for i in traced)
                                      - statistics.median(i.wall_s for i in untraced))
        wanted = spec["per_layer"]
    else:
        if not untraced:
            print("no invocation succeeded", file=sys.stderr)
            return 3
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(i.wall_s for i in untraced),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in untraced),
            "success_rate": (client.attempted - client.failed) / client.attempted,
            "quality_loss": client.reference[2],
        }
        wanted = spec["end_to_end"]
    print(json.dumps({
        "correct": client.failed == 0 and inputs_repeat,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
