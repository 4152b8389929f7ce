"""Seeded input generators for the benchmark workloads.

The real ETTh2 CSV is not bundled, so the benchmark writes a series of the
same shape and character: hourly rows with a timestamp column, daily and
weekly cycles, slow drift and noise. Amplitudes and levels are
fixed per channel, and the seed draws phases and noise, so every seed gives
a series of the same difficulty. The same seed gives byte-identical files.
"""

from __future__ import annotations

import io

import numpy as np

ETT_COLUMNS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")


def _timestamps(rows: int) -> list[str]:
    hours = np.arange(rows).astype("timedelta64[h]") + np.datetime64("2016-07-01T00", "h")
    return [f"{str(h).replace('T', ' ')}:00:00" for h in hours]


def _seasonal(rng, rows: int, channels: int, amplitudes) -> np.ndarray:
    """Daily, weekly and ~quarterly sinusoids with seeded phases."""
    t = np.arange(rows)[:, None]
    out = np.zeros((rows, channels))
    for period, amp in zip((24, 168, 2190), amplitudes):
        out += amp * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi, channels))
    return out


def ett_like(rows: int, seed: int, channels: int = len(ETT_COLUMNS)) -> np.ndarray:
    """ETT-shaped load series: cycles, slow drift and AR(1) noise."""
    shape = np.random.default_rng(12345)
    levels = shape.uniform(-5.0, 30.0, channels)
    amplitudes = (shape.uniform(1.0, 2.0, channels), shape.uniform(0.3, 0.8, channels),
                  shape.uniform(1.0, 3.0, channels))
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, 0.4, (rows, channels))
    noise = np.empty_like(eps)
    noise[0] = eps[0]
    for i in range(1, rows):
        noise[i] = 0.6 * noise[i - 1] + eps[i]
    return levels + _seasonal(rng, rows, channels, amplitudes) + noise


def write_timestamped_csv(path, values: np.ndarray, names, decimals: int) -> None:
    """Header `date,<names>`, then one `YYYY-MM-DD HH:MM:SS,v,...` row per step."""
    buf = io.StringIO()
    np.savetxt(buf, values, fmt=f"%.{decimals}f", delimiter=",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for stamp, line in zip(_timestamps(values.shape[0]), buf.getvalue().splitlines()):
            fh.write(f"{stamp},{line}\n")
