"""Host-speed calibration for the benchmark's untraced timings.

The host the benchmark was written on changes speed by up to 1.7x in phases
that last from seconds to minutes, longer than one run.  Medians within a run
cannot remove that, so untraced runs time a fixed slice of work between
commands, and scale each command's time by the mean of the slices just
before and after it, against ``REFERENCE_S``:

    reference-speed seconds = measured seconds * REFERENCE_S / slice seconds

The slice depends only on numpy and this file, never on the program, so a
change to the program moves the scaled times exactly as it moves the raw
ones.  Its work mirrors the program's: a (12, 4001, 4, 4) complex stack
filled by broadcasting and eigen-solved in one call, as in the pair kernel,
then a pure-Python loop, as in the per-grid-point measures.  On the VM below
(2-core x86, Intel Xeon, numpy 2.4.6 with OpenBLAS 0.3.31) this scaling
halved the spread of single fig1 and fig4 timings (interquartile range over
median: 0.19-0.22 raw, 0.11-0.13 scaled).  ``REFERENCE_S`` is a round figure
near the slice's time there; a run's median slice ranged from 0.16 to 0.28 s.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.22
_PAIRS = 12
_GRID = 4001
_LOOP = 800_000

_rng = np.random.default_rng(20091111)
_D = _rng.standard_normal((_PAIRS, 4, 4)) + 1j * _rng.standard_normal((_PAIRS, 4, 4))
_D = _D + np.conj(np.swapaxes(_D, -1, -2))
_K = (np.exp(1j * np.linspace(0.0, 20.0, _GRID)) * np.linspace(1.0, 0.2, _GRID))[None, :, None, None]


def slice_seconds() -> float:
    """Run the fixed slice of work once and return its wall time."""
    start = time.perf_counter()
    ev = np.empty((_PAIRS, _GRID, 4, 4), dtype=complex)
    ev[:, :, :2, :2] = _D[:, None, :2, :2]
    ev[:, :, 2:, 2:] = _D[:, None, 2:, 2:]
    ev[:, :, :2, 2:] = _K * _D[:, None, :2, 2:]
    ev[:, :, 2:, :2] = np.conj(_K) * _D[:, None, 2:, :2]
    w = np.linalg.eigvalsh(ev.reshape(-1, 4, 4)).reshape(_PAIRS, _GRID, 4)
    d = 0.5 * np.abs(w).sum(axis=2)
    np.cumsum(np.clip(np.diff(d, axis=1), 0.0, None), axis=1)
    x = 0
    for i in range(_LOOP):
        x += i * i
    return time.perf_counter() - start
