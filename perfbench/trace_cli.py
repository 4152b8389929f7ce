"""Run the freqcast CLI with a span around each public call into a layer.

Usage: python perfbench/trace_cli.py SPANS_JSON <freqcast arguments>

Functions are wrapped where their callers look them up (for example
`freqcast.training.model_backward`, which `train` calls by that name), so the
program itself is unchanged. Spans (name, start, end, parent, counters) stay
in memory and are written to SPANS_JSON, with the names of every wrapped
layer, when the command returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    """Nested spans of one process; a span's parent is the span open around it."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, counters]
        self.wrapped = set()
        self._open = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a traced call; count(args, result) gives counters."""
        fn = getattr(owner, attr)
        self.wrapped.add(name)
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        setattr(owner, attr, traced)


def _instance_rows(x) -> int:
    """Rows of the model's channel-major layout: windows x channels."""
    return x.shape[0] * x.shape[2] if x.ndim == 3 else x.shape[1]


def _best_epoch(history) -> int:
    return 1 + min(range(len(history)), key=lambda i: history[i].val_mse)


def install(tracer: Tracer) -> None:
    from freqcast import anomaly, cli, data, model, training

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(data, "load_csv", "data.load_csv",
                lambda a, frame: {"cells": frame.values.size})
    tracer.wrap(data, "split_windows", "data.split_windows")
    for cls in (data.WindowSet, data.ArrayWindows):
        tracer.wrap(cls, "batch", "data.window_batch",
                    lambda a, xt: {"bytes": xt[0].nbytes + xt[1].nbytes})
    tracer.wrap(training, "model_backward", "model.model_backward",
                lambda a, r: {"rows": _instance_rows(a[0])})
    for owner in (training, anomaly):
        tracer.wrap(owner, "model_forward", "model.model_forward",
                    lambda a, r: {"rows": _instance_rows(a[0])})
    tracer.wrap(model, "save_checkpoint", "model.checkpoint_io")
    tracer.wrap(model, "load_checkpoint", "model.checkpoint_io")
    tracer.wrap(training, "train", "training.train",
                lambda a, r: {"epochs": len(r[1]), "best_epoch": _best_epoch(r[1])})
    tracer.wrap(training, "adam_step", "training.adam_step")
    tracer.wrap(training, "evaluate", "training.evaluate",
                lambda a, r: {"windows": len(a[2])})
    tracer.wrap(anomaly, "reconstruction_windows", "anomaly.reconstruction_windows",
                lambda a, w: {"bytes": w.inputs.nbytes + w.targets.nbytes})
    tracer.wrap(anomaly, "score_series", "anomaly.score_series")
    tracer.wrap(anomaly, "select_threshold", "anomaly.select_threshold")
    tracer.wrap(anomaly, "point_adjust", "anomaly.point_adjust")
    tracer.wrap(anomaly, "prf1", "anomaly.prf1")


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from freqcast import cli

    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wrapped": sorted(tracer.wrapped), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
