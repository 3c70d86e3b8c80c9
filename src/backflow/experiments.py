"""Figure-data runners: deterministic CSV reproduction of the model sweeps.

Each runner resolves its configuration from built-in defaults, an optional
JSON config file and CLI overrides (flag > config > default), computes a
rectangular table of finite values, and writes CSV plus an adjacent
``<out>.meta.json`` recording the resolved configuration, seed and library
version.

Determinism: every random pair derives from its own seed stream (base seed +
pair index), row order follows grid order, and worker fan-out only splits the
pair loop, so serial and parallel runs emit identical bytes.
"""

from __future__ import annotations

import json
import math
import multiprocessing
from pathlib import Path

import numpy as np

from . import __version__
from .channels import AmplitudeDampingChannel, ChannelFamily, DephasingChannel, apply_amplitude_damping, apply_dephasing
from .decoherence import DephasingSpec, LorentzSpec, analytic_blp_dephasing, chi, kappa_complex, transition_thetas
from .measures import _optimal_candidates, _pair_backflows, blp_search, sample_random_pair
from .rsp import bell_diagonal, correlation_matrix, rsp_fidelity

__all__ = [
    "FIGURES",
    "default_config",
    "resolve_config",
    "rsp_fidelity_after",
    "run_figure",
    "write_csv",
    "write_metadata",
]

# Bell-diagonal resource presets used by the fidelity figures.
_STATE_A = (1.0, -1.0, 1.0)
_STATE_B = (-0.5, 0.4, 0.8)

_SHARED_DEFAULTS = {
    "seed": 42,
    "workers": 1,
    "omega1": 0.0,
    "delta_omega": 10.0,
    "sigma": 1.0,
    "gamma0": 1.0,
}

_FIGURE_DEFAULTS = {
    # Backflow integrals (optimal vs best random pair) vs dephasing control time.
    "fig1": {
        "theta": math.pi / 4,
        "pairs": 10000,
        "grid": 4001,
        "rows": 25,
        "tauc_start": None,  # default 1.2 pi / dw
        "tauc_stop": None,  # default 3.6 pi / dw
        "out": "fig1.csv",
    },
    # Closed-form vs numeric backflow over the (tau_c, theta) plane.
    "fig2": {
        "pairs": 0,
        "grid": 4001,
        "theta_count": 17,
        "tauc_count": 5,
        "alpha_count": 2,
        "phase_count": 2,
        "out": "fig2.csv",
    },
    # Backflow measure vs RSP fidelity across the non-Markovian theta window.
    "fig3a": {"theta_count": 25, "out": "fig3a.csv"},
    "fig3b": {"theta_count": 25, "out": "fig3b.csv"},
    # Backflow integrals vs amplitude-damping control time.
    "fig4": {
        "width_ratio": 0.1,
        "pairs": 10000,
        "grid": 4001,
        "rows": 25,
        "tc_start": None,  # default 0.1 * (2 pi / eps)
        "tc_stop": None,  # default 2.5 * (2 pi / eps)
        "out": "fig4.csv",
    },
    # Backflow measure and fidelity vs the width ratio at the revival time.
    "fig5": {
        "ratio_count": 20,
        "ratio_min": 1e-3,
        "ratio_max": 2.0 - 1e-3,
        "out": "fig5.csv",
    },
}

FIGURES = tuple(_FIGURE_DEFAULTS)

_KNOWN_KEYS = set(_SHARED_DEFAULTS).union(*_FIGURE_DEFAULTS.values())


def default_config(figure: str) -> dict:
    if figure not in _FIGURE_DEFAULTS:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    cfg = dict(_SHARED_DEFAULTS)
    cfg.update(_FIGURE_DEFAULTS[figure])
    return cfg


def resolve_config(figure: str, config_path: str | None = None, overrides: dict | None = None) -> dict:
    """Merge defaults, config-file values and CLI overrides (highest wins).

    The config file is JSON: flat keys apply to every figure, and an optional
    nested section named after the figure overrides the flat keys.  A key
    that no figure knows, flat or in any section, is rejected by name.
    """
    cfg = default_config(figure)
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        nested = {k: v for k, v in loaded.items() if k in _FIGURE_DEFAULTS}
        flat = {k: v for k, v in loaded.items() if k not in _FIGURE_DEFAULTS}
        for section in (flat, *nested.values()):
            unknown = sorted(set(section) - _KNOWN_KEYS)
            if unknown:
                raise ValueError(f"unknown option {unknown[0]!r} in config file {config_path}")
        _apply_known(cfg, flat)
        if figure in nested:
            _apply_known(cfg, nested[figure])
    for key, value in (overrides or {}).items():
        if value is not None:
            if key not in cfg:
                raise ValueError(f"unknown option {key!r} for {figure}")
            cfg[key] = value
    return cfg


def _apply_known(cfg: dict, values: dict) -> None:
    # Keys belonging to other figures are ignored so one config file can
    # drive every runner.
    for key, value in values.items():
        if key in cfg:
            cfg[key] = value


def _require(cfg: dict, minima: dict) -> None:
    for key, lo in minima.items():
        if int(cfg[key]) < lo:
            raise ValueError(f"{key}={cfg[key]} must be at least {lo}")


def _dephasing_family(cfg: dict, theta: float | None = None) -> DephasingChannel:
    spec = DephasingSpec(
        theta=cfg["theta"] if theta is None else theta,
        omega1=cfg["omega1"],
        omega2=cfg["omega1"] + cfg["delta_omega"],
        sigma=cfg["sigma"],
    )
    return DephasingChannel(spec)


def _lorentz_family(cfg: dict) -> AmplitudeDampingChannel:
    return AmplitudeDampingChannel(
        LorentzSpec(gamma0=cfg["gamma0"], width=cfg["width_ratio"] * cfg["gamma0"])
    )


def _random_chunk_rowmax(args) -> np.ndarray:
    family, times, cuts, seed, lo, hi = args
    deltas = np.stack([sample_random_pair(seed, i).difference() for i in range(lo, hi)])
    return _pair_backflows(family, deltas, times, cuts).max(axis=0)


def _random_rowmax(
    family: ChannelFamily,
    times: np.ndarray,
    cuts: np.ndarray,
    seed: int,
    n_pairs: int,
    workers: int,
) -> np.ndarray:
    """Row-wise maximum backflow over seeded random pairs.

    The pair loop is split into fixed chunks; the max over pairs is
    associative, so the result does not depend on the worker count.
    """
    chunk = 250
    tasks = [
        (family, times, cuts, seed, lo, min(lo + chunk, n_pairs))
        for lo in range(0, n_pairs, chunk)
    ]
    if workers > 1 and len(tasks) > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            results = pool.map(_random_chunk_rowmax, tasks)
    else:
        results = [_random_chunk_rowmax(t) for t in tasks]
    return np.maximum.reduce(results)


def _integral_sweep(
    family: ChannelFamily,
    window_end: float,
    grid: int,
    row_fractions: np.ndarray,
    n_pairs: int,
    seed: int,
    workers: int,
):
    """Shared machinery of the two pair-search figures.

    One master grid spans [0, window_end]; each row's control time is a grid
    point (index = fraction * (grid-1)), and the per-row integrals are prefix
    sums of positive trace-distance increments, so every control time shares
    the same trajectory samples.
    """
    times = np.linspace(0.0, window_end, grid)
    cuts = np.round(row_fractions * (grid - 1)).astype(int)
    if cuts[0] < 1:
        raise ValueError("row positions must be at least one grid step into the window")
    optimal_deltas = np.stack([p.difference() for p in _optimal_candidates(11, 16)])
    optimal = _pair_backflows(family, optimal_deltas, times, cuts).max(axis=0)
    random_max = _random_rowmax(family, times, cuts, seed, n_pairs, workers)
    return times[cuts], optimal, random_max


def run_fig1(cfg: dict):
    """Backflow integrals vs dephasing control time tau_c.

    By default the ``rows`` control times run from 1.2 pi/dw to 3.6 pi/dw
    (grid-exact positions on a master grid over [0, 4 pi/dw]), so every
    default row sits past the first revival onset and carries strictly
    positive backflow for the optimal pairs.  ``tauc_start``/``tauc_stop``
    override the range; row times snap to the master grid.
    """
    _require(cfg, {"rows": 1, "grid": 2, "pairs": 0, "workers": 1})
    family = _dephasing_family(cfg)
    dw = cfg["delta_omega"]
    rows = int(cfg["rows"])
    start = cfg["tauc_start"] if cfg["tauc_start"] is not None else 1.2 * math.pi / dw
    stop = cfg["tauc_stop"] if cfg["tauc_stop"] is not None else 3.6 * math.pi / dw
    if not 0.0 < start <= stop:
        raise ValueError(f"need 0 < tauc_start <= tauc_stop, got ({start}, {stop})")
    window_end = stop / 0.9  # keep headroom past the last row
    fractions = np.linspace(start / window_end, 0.9, rows)
    tau_c, optimal, random_max = _integral_sweep(
        family, window_end, int(cfg["grid"]), fractions,
        int(cfg["pairs"]), int(cfg["seed"]), int(cfg["workers"]),
    )
    header = ["tau_c", "integral_optimal", "integral_random_max"]
    return header, list(zip(tau_c, optimal, random_max))


def run_fig4(cfg: dict):
    """Backflow integrals vs amplitude-damping control time t_c.

    By default the ``rows`` control times run from 0.1 to 2.5 times the
    revival time 2 pi/eps (grid-exact positions); early default rows precede
    the first zero of chi and carry zero backflow.  ``tc_start``/``tc_stop``
    override the range; row times snap to the master grid.
    """
    _require(cfg, {"rows": 1, "grid": 2, "pairs": 0, "workers": 1})
    family = _lorentz_family(cfg)
    revival = 2.0 * math.pi / family.spec.epsilon
    rows = int(cfg["rows"])
    start = cfg["tc_start"] if cfg["tc_start"] is not None else 0.1 * revival
    stop = cfg["tc_stop"] if cfg["tc_stop"] is not None else 2.5 * revival
    if not 0.0 < start <= stop:
        raise ValueError(f"need 0 < tc_start <= tc_stop, got ({start}, {stop})")
    fractions = np.linspace(start / stop, 1.0, rows)
    t_c, optimal, random_max = _integral_sweep(
        family, stop, int(cfg["grid"]), fractions,
        int(cfg["pairs"]), int(cfg["seed"]), int(cfg["workers"]),
    )
    header = ["t_c", "integral_optimal", "integral_random_max"]
    return header, list(zip(t_c, optimal, random_max))


def run_fig2(cfg: dict):
    """Closed-form and numeric backflow over the (tau_c, theta) plane.

    The numeric column comes from the optimal-pair search on the same window;
    all optimal-pair candidates share one exact trajectory, so the default
    candidate grid is kept small (configurable via alpha_count/phase_count).
    """
    _require(cfg, {"theta_count": 1, "tauc_count": 1, "grid": 2, "pairs": 0})
    dw = cfg["delta_omega"]
    sigma = cfg["sigma"]
    tauc_grid = np.linspace(1.2 * math.pi / dw, 2.0 * math.pi / dw, int(cfg["tauc_count"]))
    theta_grid = np.linspace(0.0, math.pi / 2, int(cfg["theta_count"]))
    header = ["tau_c", "theta", "N_analytic", "N_numeric", "theta1", "theta2"]
    rows = []
    for tau_c in tauc_grid:
        theta1, theta2 = transition_thetas(dw, sigma, tau_c)
        for theta in theta_grid:
            family = _dephasing_family(cfg, theta=float(theta))
            analytic = analytic_blp_dephasing(family.spec, float(tau_c))
            numeric = blp_search(
                family,
                (0.0, float(tau_c)),
                n_pairs=int(cfg["pairs"]),
                grid_size=int(cfg["grid"]),
                seed=int(cfg["seed"]),
                alpha_count=int(cfg["alpha_count"]),
                phase_count=int(cfg["phase_count"]),
            ).value
            rows.append((tau_c, theta, analytic, numeric, theta1, theta2))
    return header, rows


def rsp_fidelity_after(c, apply, value) -> float:
    """RSP fidelity of the Bell-diagonal state with triple ``c`` after the
    channel ``apply(rho, value)`` (``apply_dephasing`` or
    ``apply_amplitude_damping``)."""
    return rsp_fidelity(correlation_matrix(apply(bell_diagonal(c), value)))


def run_fig3(cfg: dict, variant: str):
    """Backflow measure and RSP fidelities across the transition window.

    ``variant`` selects the control time: 'a' uses tau_c = 3 pi / (2 dw)
    (fidelity falls while the measure rises), 'b' uses tau_c = 2 pi / dw
    (fidelity independent of theta).  The measure column is the closed form,
    which is exactly zero at the window edges theta1, theta2.
    """
    _require(cfg, {"theta_count": 1})
    dw = cfg["delta_omega"]
    sigma = cfg["sigma"]
    tau_c = 1.5 * math.pi / dw if variant == "a" else 2.0 * math.pi / dw
    theta1, theta2 = transition_thetas(dw, sigma, tau_c)
    theta_grid = np.linspace(theta1, theta2, int(cfg["theta_count"]))
    header = ["theta", "N", "F1", "F2"]
    rows = []
    for theta in theta_grid:
        spec = DephasingSpec(float(theta), cfg["omega1"], cfg["omega1"] + dw, sigma)
        n_value = analytic_blp_dephasing(spec, tau_c)
        kappa = kappa_complex(spec, tau_c)
        rows.append(
            (theta, n_value, rsp_fidelity_after(_STATE_A, apply_dephasing, kappa),
             rsp_fidelity_after(_STATE_B, apply_dephasing, kappa))
        )
    return header, rows


def run_fig5(cfg: dict):
    """Backflow measure and RSP fidelities vs the width ratio Gamma/gamma0.

    The control time is the revival time 2 pi / eps; the measure column is
    the closed form exp(-pi Gamma / eps) and the fidelities are computed by
    damping both resource presets to that time.  The ratio grid stays inside
    (0, 2): eps vanishes at ratio 2 and the dynamics is trivial at 0.
    """
    _require(cfg, {"ratio_count": 1})
    gamma0 = cfg["gamma0"]
    ratios = np.linspace(float(cfg["ratio_min"]), float(cfg["ratio_max"]), int(cfg["ratio_count"]))
    if ratios[0] <= 0.0 or ratios[-1] >= 2.0:
        raise ValueError("ratio grid must stay strictly inside (0, 2)")
    header = ["ratio", "N", "F1", "F2"]
    rows = []
    for ratio in ratios:
        spec = LorentzSpec(gamma0=gamma0, width=float(ratio) * gamma0)
        t_c = 2.0 * math.pi / spec.epsilon
        n_value = math.exp(-math.pi * spec.width / spec.epsilon)
        chi_tc = chi(spec, t_c)
        f1 = rsp_fidelity_after(_STATE_A, apply_amplitude_damping, chi_tc)
        f2 = rsp_fidelity_after(_STATE_B, apply_amplitude_damping, chi_tc)
        rows.append((ratio, n_value, f1, f2))
    return header, rows


_RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3a": lambda cfg: run_fig3(cfg, "a"),
    "fig3b": lambda cfg: run_fig3(cfg, "b"),
    "fig4": run_fig4,
    "fig5": run_fig5,
}


def run_figure(figure: str, cfg: dict):
    header, rows = _RUNNERS[figure](cfg)
    for row in rows:
        if not all(math.isfinite(float(x)) for x in row):
            raise ValueError(f"non-finite value in {figure} row {row}")
    return header, rows


def write_csv(path: str | Path, header, rows) -> None:
    """Comma-separated values, '.' decimal, 17 significant digits, LF endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_metadata(path: str | Path, figure: str, cfg: dict) -> Path:
    meta_path = Path(str(path) + ".meta.json")
    payload = {"figure": figure, "config": cfg, "version": __version__, "seed": cfg.get("seed")}
    meta_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n")
    return meta_path
