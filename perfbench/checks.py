"""Output checks for the benchmark's commands.

Each check returns a list of problems (empty when the output is right).  The
checks compare against quantities the program's public API defines, so they
do not pin its known defects:

* ``integral_optimal`` (fig1/fig4) and fig2's ``N_numeric`` must equal the
  sum of positive increments of the public ``kappa_abs``/``|chi|`` on the same
  grid, because the optimal pairs evolve with trace distance |f(t)|;
* ``integral_random_max`` must not exceed ``integral_optimal`` and must reach
  at least the backflow of random pair 0, recomputed through the public
  ``trace_distance_trajectory``;
* all seed-independent columns and measure values must match
  ``reference.json`` (written by ``make_reference.py`` from the program as
  first benchmarked) within ``REL``/``ABS``, loose enough for reordered
  floating-point sums;
* the divisibility measure on the Lorentz window is grid-dependent (a known
  defect), so only its contract is checked: a non-negative value, or ``inf``
  with the time of the zero inside the window.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

REL = 1e-9
ABS = 1e-12


def close(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= ABS + REL * np.maximum(np.abs(a), np.abs(b))


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, np.array([[float(x) for x in row] for row in reader])


def increment_prefix(values: np.ndarray) -> np.ndarray:
    """prefix[i] = sum of positive increments of values[0..i]."""
    return np.concatenate([[0.0], np.cumsum(np.clip(np.diff(values), 0.0, None))])


def _compare(name: str, got, want) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    bad = ~close(got, want)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{name}: {int(bad.sum())} value(s) differ, first {float(got.flat[i])!r} vs {float(want.flat[i])!r}"]
    return []


def sweep_figure(figure: str, text: str, grid_times, abs_f, pair0_values, reference) -> list[str]:
    """fig1/fig4 table: columns (control time, integral_optimal, integral_random_max)."""
    header, rows = parse_csv(text)
    ref = reference[figure]
    if header != ref["header"]:
        return [f"{figure}: header {header}, expected {ref['header']}"]
    if rows.ndim != 2 or rows.shape[0] != len(ref["t"]):
        return [f"{figure}: {rows.shape[0] if rows.ndim == 2 else 0} rows, expected {len(ref['t'])}"]
    t, optimal, random_max = rows.T
    problems = _compare(f"{figure} {header[0]}", t, ref["t"])
    problems += _compare(f"{figure} integral_optimal vs reference", optimal, ref["integral_optimal"])
    n = grid_times.size
    cuts = np.rint(t / grid_times[-1] * (n - 1)).astype(int)
    if np.any(cuts < 1) or np.any(cuts >= n) or not np.all(close(grid_times[cuts], t)):
        return problems + [f"{figure}: control times are not points of the {n}-point grid"]
    problems += _compare(
        f"{figure} integral_optimal vs increments of |f|", optimal, increment_prefix(abs_f)[cuts]
    )
    tol = ABS + REL * np.abs(optimal)
    if np.any(random_max > optimal + tol):
        problems.append(f"{figure}: integral_random_max exceeds integral_optimal")
    floor = increment_prefix(pair0_values)[cuts]
    if np.any(random_max < floor - (ABS + REL * np.abs(floor))):
        problems.append(f"{figure}: integral_random_max is below the backflow of random pair 0")
    return problems


def fig2_table(text: str, numeric_expected: np.ndarray, reference) -> list[str]:
    header, rows = parse_csv(text)
    ref = reference["fig2"]
    if header != ref["header"]:
        return [f"fig2: header {header}, expected {ref['header']}"]
    problems = _compare("fig2 vs reference", rows, ref["rows"])
    if rows.shape == np.shape(ref["rows"]):
        problems += _compare("fig2 N_numeric vs increments of kappa_abs", rows[:, 3], numeric_expected)
    return problems


def reference_table(name: str, text: str, reference) -> list[str]:
    header, rows = parse_csv(text)
    ref = reference[name]
    if header != ref["header"]:
        return [f"{name}: header {header}, expected {ref['header']}"]
    return _compare(f"{name} vs reference", rows, ref["rows"])


def measure_value(stdout: str) -> float:
    text = stdout.strip().splitlines()[0]
    return math.inf if text == "inf" else float(text)


def measure_reference(label: str, stdout: str, reference) -> list[str]:
    value = measure_value(stdout)
    return _compare(f"measure {label}", value, reference["measure"][label])


def measure_contract(label: str, stdout: str, stderr: str, window) -> list[str]:
    """Non-negative finite value, or inf with the zero's time in the window."""
    value = measure_value(stdout)
    if math.isinf(value):
        marker = "divergent at t="
        if marker not in stderr:
            return [f"measure {label}: inf without a divergence time"]
        t = float(stderr.split(marker, 1)[1].split()[0])
        if not window[0] <= t <= window[1]:
            return [f"measure {label}: divergence time {t} outside {window}"]
        return []
    if not value >= 0.0:
        return [f"measure {label}: value {value} is negative or NaN"]
    return []
