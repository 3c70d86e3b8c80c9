"""Figure-data runners: deterministic CSV reproduction of the model sweeps.

Each runner resolves its configuration from built-in defaults, an optional
JSON config file and CLI overrides (flag > config > default), computes a
rectangular table of finite values, and writes CSV plus an adjacent
``<out>.meta.json`` recording the resolved configuration, seed and library
version.  The same module holds one entry per scalar command (``kappa``,
``chi``, ``transition``, ``fidelity``, ``measure``): its keys with their
defaults (``command_keys``), its handler, its help and its non-finite
message, so every flag and every command's evaluation come from it
(``run_command``).

Determinism: random pair k is row k % 256 of block k // 256, a block b
being the stream ``default_rng(SeedSequence(seed, spawn_key=(b,)))``
(``measures._random_kets``); row order follows grid order.  Every
pair search (fig1, fig4 and fig2) goes through ``measures._backflows``.
``workers`` caps its processes, the parent included; its fan-out only splits
the pairs into contiguous shares at block edges, one per process (no more
than the CPUs available, and none for fewer than
``measures._PAIRS_PER_PROCESS`` pairs), folded in pair order, so serial and
parallel runs emit identical bytes.

The fidelity figures read |f| alone: after either channel, a Bell-diagonal
state's RSP fidelity is half the sum of the two smallest (c_j t_j)^2, with
Pauli-axis factors t = (r, r, 1) for dephasing and (r, r, r^2) for damping
at r = |f| (``_preset_fidelities``).
"""

from __future__ import annotations

import cmath
import json
import math
import os
import stat
from pathlib import Path

import numpy as np

from . import __version__
from .channels import AmplitudeDampingChannel, DephasingChannel, _require_contraction
from .decoherence import DephasingSpec, LorentzSpec, chi, kappa_abs, transition_thetas
from .decoherence import _closed_forms, _kappa_abs, _kappa_abs_factors, _rising_columns, _weights_over_thetas
from .measures import _MEASURES, _backflows, _require, _require_resolved, _window_magnitude, _window_times
from .rsp import _bell_triple
# Not called here: perfbench/tracer.py wraps them at these names.
from .decoherence import analytic_blp_dephasing, kappa_complex  # noqa: F401
from .measures import sample_random_pair  # noqa: F401
from .rsp import bell_diagonal, correlation_matrix, rsp_fidelity  # noqa: F401

__all__ = [
    "FIGURES",
    "command_keys",
    "default_config",
    "figure_keys",
    "resolve_config",
    "run_command",
    "run_figure",
    "write_csv",
    "write_metadata",
]

# Bell-diagonal resource presets used by the fidelity figures.
_PRESETS = ((1.0, -1.0, 1.0), (-0.5, 0.4, 0.8))

# Keys every figure's config (and so its .meta.json) carries, then the keys of
# each physics family.
_SHARED_DEFAULTS = {"seed": 42, "workers": 1}

_FAMILY_DEFAULTS = {
    "dephasing": {"omega1": 0.0, "delta_omega": 10.0, "sigma": 1.0},
    "lorentz": {"gamma0": 1.0},
}

# Each figure names its family, the shared keys its runner reads, and its own
# keys.
_FIGURE_DEFAULTS = {
    # Backflow integrals (optimal vs best random pair) vs dephasing control time.
    "fig1": ("dephasing", ("seed", "workers"), {
        "theta": math.pi / 4,
        "pairs": 10000,
        "grid": 4001,
        "rows": 25,
        "tauc_start": None,  # default 1.2 pi / dw
        "tauc_stop": None,  # default 3.6 pi / dw
        "out": "fig1.csv",
    }),
    # Closed-form vs numeric backflow over the (tau_c, theta) plane.
    "fig2": ("dephasing", ("seed",), {
        "pairs": 0,
        "grid": 4001,
        "theta_count": 17,
        "tauc_count": 5,
        "out": "fig2.csv",
    }),
    # Backflow measure vs RSP fidelity across the non-Markovian theta window.
    "fig3a": ("dephasing", (), {"theta_count": 25, "out": "fig3a.csv"}),
    "fig3b": ("dephasing", (), {"theta_count": 25, "out": "fig3b.csv"}),
    # Backflow integrals vs amplitude-damping control time.
    "fig4": ("lorentz", ("seed", "workers"), {
        "width_ratio": 0.1,
        "pairs": 10000,
        "grid": 4001,
        "rows": 25,
        "tc_start": None,  # default 0.1 * (2 pi / eps)
        "tc_stop": None,  # default 2.5 * (2 pi / eps)
        "out": "fig4.csv",
    }),
    # Backflow measure and fidelity vs the width ratio at the revival time.
    "fig5": ("lorentz", (), {
        "ratio_count": 20,
        "ratio_min": 1e-3,
        "ratio_max": 2.0 - 1e-3,
        "out": "fig5.csv",
    }),
}

FIGURES = tuple(_FIGURE_DEFAULTS)


def _value_type(default) -> type:
    # An optional bound (default None) takes a float.
    return float if default is None else type(default)


def figure_keys(figure: str) -> dict:
    """The keys ``figure`` takes, each with the type of its value."""
    family, shared, own = _FIGURE_DEFAULTS[figure]
    keys = {**{key: _SHARED_DEFAULTS[key] for key in shared}, **_FAMILY_DEFAULTS[family], **own}
    return {key: _value_type(d) for key, d in keys.items()}


def command_keys(command: str) -> dict:
    """The keys ``command`` takes: a figure's as ``figure_keys`` types them
    (``resolve_config`` supplies their values), a scalar command's as its
    ``_COMMANDS`` entry gives them (a type, a tuple of choices or a default)."""
    return figure_keys(command) if command in _FIGURE_DEFAULTS else dict(_COMMANDS[command][0])


def default_config(figure: str) -> dict:
    """Every shared and family key, then the figure's own keys."""
    if figure not in _FIGURE_DEFAULTS:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    tables = (_SHARED_DEFAULTS, *_FAMILY_DEFAULTS.values(), _FIGURE_DEFAULTS[figure][2])
    return {key: value for table in tables for key, value in table.items()}


_KEY_DEFAULTS = {key: value for figure in FIGURES for key, value in default_config(figure).items()}
# Per value type: the JSON types it accepts and its name in an error.
_ACCEPTS = {
    int: (int, "an integer"), float: ((int, float), "a number"), complex: (complex, "a number"), str: (str, "a string"),
}


def _check(key: str, value, where: str, known) -> None:
    # The check of each value's type and finiteness, for every command: a
    # config file's values, a figure's flags and the scalar commands' flags.
    # Size minima are checked where they are read, by the runners and by
    # ``measures`` (``_require``).  Values are stored as given, so
    # each must already have its key's type: an int key takes no float or
    # bool, a float key also takes an int but no NaN or infinity (Python's
    # json parses both), and only a key whose default is None takes null.  A
    # key that no figure reads arrives parsed (by argparse, or fidelity's
    # kappa as a complex number), so its value's type is its own.
    if key not in known:
        raise ValueError(f"unknown option {key!r} {where}")
    default = _KEY_DEFAULTS.get(key, value)
    accepted, name = _ACCEPTS[_value_type(default)]
    if isinstance(value, bool) or not (isinstance(value, accepted) or (value is None and default is None)):
        name += " or null" if default is None else ""
        raise ValueError(f"{key}={json.dumps(value, default=str)} {where} must be {name}")
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise ValueError(f"{key}={value} {where} must be a finite number")


def resolve_config(figure: str, config_path: str | None = None, overrides: dict | None = None) -> dict:
    """Merge defaults, config-file values and CLI overrides (highest wins).

    The config file is JSON: flat keys apply to every figure, and an optional
    nested section named after the figure overrides the flat keys.  A key
    that no figure knows, flat or in any section, is rejected by name, and
    so is a value of the wrong type for its key; keys belonging to other
    figures are otherwise ignored, so one config file can drive every runner.
    """
    cfg = default_config(figure)
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        nested = {k: v for k, v in loaded.items() if k in _FIGURE_DEFAULTS}
        flat = {k: v for k, v in loaded.items() if k not in _FIGURE_DEFAULTS}
        for name, section in nested.items():
            if not isinstance(section, dict):
                raise ValueError(f"section {name!r} in config file {config_path} must be a JSON object")
        for section in (flat, *nested.values()):
            for key in sorted(section):
                _check(key, section[key], f"in config file {config_path}", _KEY_DEFAULTS)
        for section in (flat, nested.get(figure, {})):
            cfg.update((k, v) for k, v in section.items() if k in cfg)
    for key, value in (overrides or {}).items():
        if value is not None:
            _check(key, value, f"for {figure}", cfg)
            cfg[key] = value
    return cfg


def _dephasing_spec(cfg: dict, theta) -> DephasingSpec:
    # Every command reads |kappa| alone, which depends on delta_omega, sigma
    # and theta but not on omega1.  So omega1 is 0 and omega2 is delta_omega
    # itself: omega1 + delta_omega would round delta_omega (10 to 16 at
    # omega1 = 1e17).
    return DephasingSpec(float(theta), 0.0, cfg["delta_omega"], cfg["sigma"])


def _derived(value: float, formula: str, **inputs) -> float:
    """``value``, formed by ``formula`` from ``inputs``, once it is a positive
    finite number; else the keys it came from are named, so that a value
    that overflowed, underflowed or came out negative is not passed on."""
    if not 0.0 < value < math.inf:
        given = " and ".join(f"{key}={v}" for key, v in inputs.items())
        raise ValueError(f"{formula} = {value} is not a positive finite number (from {given})")
    return value


def _control_time(cfg: dict, multiple: float) -> float:
    """The control time ``multiple`` pi/delta_omega (``_derived``); at
    delta_omega = 0, where the division raises, its IEEE-754 value."""
    dw = cfg["delta_omega"]
    value = multiple * math.pi / dw if dw else math.copysign(math.inf, dw)
    return _derived(value, f"{multiple} pi/delta_omega", delta_omega=dw)


def _lorentz_spec(gamma0: float, ratio: float, ratio_key: str) -> LorentzSpec:
    """The Lorentzian spec of width ``ratio`` * ``gamma0``; a width that is
    not a positive finite number names ``ratio_key`` and gamma0."""
    width = _derived(ratio * gamma0, f"{ratio_key}*gamma0", **{ratio_key: ratio}, gamma0=gamma0)
    return LorentzSpec(gamma0=gamma0, width=width)


def _lorentz_family(cfg: dict) -> AmplitudeDampingChannel:
    # eps = 0 at ratio 2 and the dynamics has no revival beyond it, so the
    # revival time 2 pi/eps that places fig4's rows exists only inside (0, 2).
    if not 0.0 < cfg["width_ratio"] < 2.0:
        raise ValueError(f"width_ratio={cfg['width_ratio']} must lie strictly inside (0, 2)")
    return AmplitudeDampingChannel(_lorentz_spec(cfg["gamma0"], cfg["width_ratio"], "width_ratio"))


def _control_time_rows(cfg: dict, time: str, last: float, family_of, default, multiples) -> list:
    """The rows of a pair-search figure against control time, fig1
    (``time`` 'tauc', dephasing) or fig4 ('tc', damping): each of the
    ``rows`` control times with the optimal pairs' backflow integral and the
    largest over the ``pairs`` seeded random pairs.

    The sizes are checked first, so that a bad size is named before a bad
    family key, then the family ``family_of()`` is built.
    ``<time>_start`` and ``<time>_stop`` default to ``default(family, m)``
    at their multiples m in ``multiples``.  One master grid spans [0,
    stop/last] (``last`` < 1 keeps headroom past the last row); the rows lie
    evenly from start to the fraction ``last`` of it, each at its nearest
    grid point (index = fraction * (grid-1)), and each row's integral is a
    prefix sum of positive trace-distance increments up to that point, so
    every row comes from one pass over the window.  The grid and |f| on it
    come from ``measures._window_magnitude``, after the row positions are
    checked, so a figure refuses, and names, the non-finite |f| or the grid
    too coarse for |f| that ``measure`` refuses.  The optimal pairs'
    integrals are the sum of positive increments of |f| itself, and the
    random pairs are searched in chunks of whole 256-pair blocks, up to
    ``measures._CHUNK_POINTS`` (pair, kept sample) points each, by at most
    ``workers`` processes, the parent included, each on a share of the
    blocks (``measures._backflows``).
    """
    _require(cfg, {"rows": 1, "grid": 2, "pairs": 1, "workers": 1})
    family = family_of()
    start_key, stop_key = f"{time}_start", f"{time}_stop"
    start, stop = (default(family, m) if cfg[key] is None else cfg[key]
                   for key, m in zip((start_key, stop_key), multiples))
    if not 0.0 < start <= stop:
        raise ValueError(f"need 0 < {start_key} <= {stop_key}, got ({start}, {stop})")
    window_end = _derived(stop / last, f"{stop_key}/{last}", **{stop_key: stop})
    grid = cfg["grid"]
    cuts = np.round(np.linspace(start / window_end, last, cfg["rows"]) * (grid - 1)).astype(int)
    if cuts[0] < 1:
        raise ValueError(f"{start_key}={start} must be at least one grid step into the window: at grid={grid} "
                         f"the step is {window_end / (grid - 1):.6g}")
    times, absf = _window_magnitude(family, (0.0, window_end), grid)
    optimal, random_max, _ = _backflows(family, [absf], cfg["pairs"], cfg["seed"], cfg["workers"], cuts)
    return list(zip(times[cuts], optimal, random_max))


def run_fig1(cfg: dict):
    """Backflow integrals vs dephasing control time tau_c.

    By default the ``rows`` control times run from 1.2 pi/dw to 3.6 pi/dw
    (grid-exact positions on a master grid over [0, 4 pi/dw]), so every
    default row sits past the first revival onset and carries strictly
    positive backflow for the optimal pairs.  ``tauc_start``/``tauc_stop``
    override the range; row times snap to the master grid.

    ``integral_optimal`` sums the positive increments of |kappa| itself, the
    optimal pairs' trace distance (see ``_control_time_rows``).
    """
    rows = _control_time_rows(cfg, "tauc", 0.9, lambda: DephasingChannel(_dephasing_spec(cfg, cfg["theta"])),
                              lambda family, m: _control_time(cfg, m), (1.2, 3.6))
    return ["tau_c", "integral_optimal", "integral_random_max"], rows


def run_fig4(cfg: dict):
    """Backflow integrals vs amplitude-damping control time t_c.

    By default the ``rows`` control times run from 0.1 to 2.5 times the
    revival time 2 pi/eps (grid-exact positions); early default rows precede
    the first zero of chi and carry zero backflow.  ``tc_start``/``tc_stop``
    override the range; row times snap to the master grid.

    ``integral_optimal`` sums the positive increments of |chi| itself, the
    optimal pairs' trace distance (see ``_control_time_rows``).
    """
    rows = _control_time_rows(cfg, "tc", 1.0, lambda: _lorentz_family(cfg),
                              lambda family, m: m * (2.0 * math.pi / family.spec.epsilon), (0.1, 2.5))
    return ["t_c", "integral_optimal", "integral_random_max"], rows


def run_fig2(cfg: dict):
    """Closed-form and numeric backflow over the (tau_c, theta) plane.

    The numeric column is ``blp_search(...).value`` on the window
    [0, tau_c] for each row, bit for bit, computed for all windows in one
    pass.  The windows' grids are one (tauc_count, grid) stack from
    ``measures._window_times``, each row the ``blp_search`` grid, and a grid
    whose largest step is not below half the period of |kappa| is refused as
    ``blp_search`` refuses it (``measures._require_resolved``).  On the
    stack the envelope and cos^2(dw tau/2) are formed once (``kappa_abs``'s
    closed form; no complex kappa), and |kappa| only on the grid columns
    where one of the two rises (``decoherence._rising_columns``), for every
    theta in one block, which is split into one view per control time:
    across any other step each rounded operation of the closed form is
    monotone in a factor that does not rise, so |kappa| does not rise at any
    angle and that step adds nothing.  Each row's value is the optimal
    pairs' backflow over its window, raised to the largest backflow of the
    ``pairs`` seeded random pairs, all windows in one search
    (``measures._backflows``).  No witness is built.  The closed-form column
    and |kappa(tau_c)| come from ``decoherence._closed_forms``.  Every
    control time's transition angles are found before any |kappa|, so a
    control time outside their equation is named first.
    """
    _require(cfg, {"theta_count": 1, "tauc_count": 1, "grid": 2, "pairs": 0})
    dw, grid = cfg["delta_omega"], cfg["grid"]
    tauc_grid = np.linspace(_control_time(cfg, 1.2), _control_time(cfg, 2.0), cfg["tauc_count"])
    theta_grid = np.linspace(0.0, math.pi / 2, cfg["theta_count"])
    spec = _dephasing_spec(cfg, theta_grid[0])
    family = DephasingChannel(spec)
    transitions = [transition_thetas(dw, cfg["sigma"], tau_c) for tau_c in tauc_grid]
    times = _window_times((0.0, tauc_grid), grid)
    _require_resolved(family, times)
    envelope, osc = _kappa_abs_factors(spec, times)
    columns = _rising_columns(envelope, osc)
    c, s = _weights_over_thetas(theta_grid)[..., None]
    block = _kappa_abs(envelope.take(columns), osc.take(columns), c, s)
    windows = np.split(block, np.searchsorted(columns, grid * np.arange(1, tauc_grid.size)), axis=1)
    optimal, random_max, _ = _backflows(family, windows, cfg["pairs"], cfg["seed"])
    numeric = np.maximum(optimal, random_max).reshape(tauc_grid.size, -1)
    closed = _closed_forms(spec, theta_grid, tauc_grid)[1]
    rows = []
    for tau_c, (theta1, theta2), ns, values in zip(tauc_grid, transitions, closed.T, numeric):
        rows += [(tau_c, theta, n, value, theta1, theta2) for theta, n, value in zip(theta_grid, ns, values)]
    return ["tau_c", "theta", "N_analytic", "N_numeric", "theta1", "theta2"], rows


# Each family's Pauli-axis factors (t_x, t_y, t_z) as functions of r = |f|:
# the channel takes a Bell-diagonal state's correlation matrix diag(c) to
# diag(c t).  Damping also adds a local Bloch vector, which no fidelity reads.
_AXIS_FACTORS = {
    DephasingChannel: lambda r: (r, r, 1.0),
    AmplitudeDampingChannel: lambda r: (r, r, r * r),
}


def _preset_fidelities(family: type, r, presets=_PRESETS) -> np.ndarray:
    """RSP fidelities of the Bell-diagonal states with the triples ``presets``
    after ``family`` at |f| = ``r`` (a scalar or an array), shape
    np.shape(r) + (len(presets),); each value equals the one taken alone, bit
    for bit.

    The triples are checked as ``bell_diagonal`` checks them and r as
    ``apply_dephasing``/``apply_amplitude_damping`` check f, with their
    messages.  The fidelity is half the sum of the two smallest eigenvalues
    of C^T C (Dakic et al., Nat. Phys. 8, 666 (2012)), and C^T C is
    diag((c_j t_j)^2) (``_AXIS_FACTORS``), so it depends on |f| alone: no
    state, phase or spectrum is formed.
    """
    c = np.array([_bell_triple(triple) for triple in presets])
    _require_contraction(family, r)
    t = np.stack(np.broadcast_arrays(*_AXIS_FACTORS[family](np.asarray(r, dtype=float))), axis=-1)
    squares = np.sort((c * t[..., None, :]) ** 2, axis=-1)
    return 0.5 * (squares[..., 0] + squares[..., 1])


def run_fig3(cfg: dict, variant: str):
    """Backflow measure and RSP fidelities across the transition window.

    ``variant`` selects the control time: 'a' uses tau_c = 3 pi / (2 dw)
    (fidelity falls while the measure rises), 'b' uses tau_c = 2 pi / dw
    (fidelity independent of theta).  The measure column is the closed form,
    which is exactly zero at the window edges theta1, theta2.
    """
    _require(cfg, {"theta_count": 1})
    tau_c = _control_time(cfg, 1.5 if variant == "a" else 2.0)
    theta1, theta2 = transition_thetas(cfg["delta_omega"], cfg["sigma"], tau_c)
    theta_grid = np.linspace(theta1, theta2, cfg["theta_count"])
    at_tau_c, measure = (a[:, 0] for a in _closed_forms(_dephasing_spec(cfg, theta_grid[0]), theta_grid, [tau_c]))
    fidelities = _preset_fidelities(DephasingChannel, at_tau_c)
    rows = zip(theta_grid, measure, *fidelities.T)
    return ["theta", "N", "F1", "F2"], list(rows)


def run_fig5(cfg: dict):
    """Backflow measure and RSP fidelities vs the width ratio Gamma/gamma0.

    The control time is the revival time 2 pi / eps; the measure column is
    the closed form exp(-pi Gamma / eps) and the fidelities are computed by
    damping both resource presets to that time.  The ratio grid stays inside
    (0, 2): eps vanishes at ratio 2 and the dynamics is trivial at 0.
    """
    _require(cfg, {"ratio_count": 1})
    gamma0 = cfg["gamma0"]
    ratios = np.linspace(cfg["ratio_min"], cfg["ratio_max"], cfg["ratio_count"])
    if ratios.min() <= 0.0 or ratios.max() >= 2.0:
        raise ValueError("ratio grid must stay strictly inside (0, 2)")
    specs = [_lorentz_spec(gamma0, float(ratio), "ratio") for ratio in ratios]
    n_values = [math.exp(-math.pi * spec.width / spec.epsilon) for spec in specs]
    chi_tc = [chi(spec, 2.0 * math.pi / spec.epsilon) for spec in specs]
    fidelities = _preset_fidelities(AmplitudeDampingChannel, np.abs(chi_tc))
    return ["ratio", "N", "F1", "F2"], list(zip(ratios, n_values, *fidelities.T))


_RUNNERS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3a": lambda cfg: run_fig3(cfg, "a"),
    "fig3b": lambda cfg: run_fig3(cfg, "b"),
    "fig4": run_fig4,
    "fig5": run_fig5,
}


def _non_finite_row(rows):
    """The first of ``rows`` that holds a non-finite value, or None: the one
    check of what a command prints or writes."""
    finite = np.isfinite(np.array(rows, dtype=float)).all(axis=-1)
    return None if finite.all() else rows[np.argmin(finite)]


def run_figure(figure: str, cfg: dict):
    """The figure's header and rows, once every value is finite; else the
    first row holding a non-finite value is named."""
    header, rows = _RUNNERS[figure](cfg)
    bad = _non_finite_row(rows)
    if bad is not None:
        raise ValueError(f"non-finite value in {figure} row {bad}")
    return header, rows


# Each scalar command's handler takes the command's values and returns the
# values it prints, and the time of a divergence (``measure`` alone), whose
# value is then the one allowed infinity.

def _run_fidelity(values: dict):
    try:
        c = tuple(float(x) for x in values["c"].split(","))
    except ValueError:
        c = ()
    if len(c) != 3:
        raise ValueError(f"--c expects three comma-separated numbers, e.g. 1,-1,1, got {values['c']!r}")
    try:
        kappa = complex(values["kappa"])
    except ValueError:
        raise ValueError(f"--kappa expects a real or complex number, got {values['kappa']!r}") from None
    _check("kappa", kappa, "for fidelity", command_keys("fidelity"))
    return (_preset_fidelities(DephasingChannel, abs(kappa), (c,))[0],), None


def _run_measure(values: dict):
    if values["family"] == "dephasing":
        family = DephasingChannel(_dephasing_spec(values, values["theta"]))
    else:
        family = AmplitudeDampingChannel(LorentzSpec(gamma0=values["gamma0"], width=values["width"]))
    measure = _MEASURES[values["measure"]]
    report = measure(family, (values["t0"], values["t1"]), values["grid"], values["pairs"], values["seed"])
    return (report.value,), report.singularity


# The scalar commands, which take no config file.  Each entry holds the
# command's keys (a type marks a required key of that type, a tuple a
# required choice among its strings, and any other value is the key's
# default; family keys and the seed default as they do for the figures),
# its handler, its one-line help and the line that names a non-finite
# value it would print.
_DEPHASING = _FAMILY_DEFAULTS["dephasing"]
_COMMANDS = {
    "kappa": ({"theta": float, "delta_omega": float, "sigma": float, "tau": float, "omega1": _DEPHASING["omega1"]},
              lambda v: ((kappa_abs(_dephasing_spec(v, v["theta"]), v["tau"]),), None),
              "print |kappa(tau)| for a dephasing spec", "|kappa| is not finite at tau={tau}"),
    "chi": ({"gamma0": float, "width": float, "t": float},
            lambda v: ((chi(LorentzSpec(gamma0=v["gamma0"], width=v["width"]), v["t"]),), None),
            "print chi(t) for a Lorentzian spec", "chi is not finite at t={t}"),
    "transition": ({"delta_omega": float, "sigma": float, "tauc": float},
                   lambda v: (transition_thetas(v["delta_omega"], v["sigma"], v["tauc"]), None),
                   "print the two transition angles theta1 theta2",
                   "the transition angles are not finite at tauc={tauc}"),
    # Parsed by the handler: a Bell-diagonal triple and a complex literal.
    "fidelity": ({"c": str, "kappa": str}, _run_fidelity, "RSP fidelity of a dephased Bell-diagonal state",
                 "the fidelity is not finite at kappa={kappa}"),
    "measure": ({"measure": tuple(_MEASURES), "family": tuple(_FAMILY_DEFAULTS), "theta": math.pi / 4,
                 **{key: _DEPHASING[key] for key in ("delta_omega", "sigma", "omega1")}, **_FAMILY_DEFAULTS["lorentz"],
                 "width": 0.1, "t0": 0.0, "t1": float, "grid": 4001, "pairs": 0, "seed": _SHARED_DEFAULTS["seed"]},
                _run_measure, "evaluate one backflow measure on a window", "the measure is not finite at t1={t1}"),
}


def run_command(command: str, values: dict):
    """The values the scalar ``command`` prints and the time of a divergence
    (or None), once each of its keys' ``values`` passes ``_check`` and each
    printed value is finite; a divergent measure's value is the one allowed
    infinity.  Under ``np.errstate`` no numpy warning is raised: a non-finite
    value is named instead."""
    keys, handler, _, non_finite = _COMMANDS[command]
    for key in keys:
        _check(key, values[key], f"for {command}", keys)
    with np.errstate(over="ignore", invalid="ignore"):
        printed, divergence = handler(values)
    if divergence is None and _non_finite_row([printed]) is not None:
        raise ValueError(non_finite.format(**values))
    return printed, divergence


# O_BINARY (Windows only) keeps "\n" from becoming "\r\n".
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write_text(path: str | Path, text: str) -> None:
    # Written over in place, then cut to length: on ext4 mounted with
    # discard, opening an existing file with O_TRUNC costs ~10x the rewrite.
    # ftruncate fails on /dev/null, so only a regular file is cut.  A crash
    # mid-write leaves a damaged file, as a truncating write would.
    data = memoryview(text.encode())
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def write_csv(path: str | Path, header, rows) -> None:
    """Comma-separated values, '.' decimal, 17 significant digits, LF endings.

    An existing file at ``path`` is written over in place and cut to the new
    length, not truncated first; a non-regular target such as ``os.devnull``
    is written and left uncut.
    """
    line = ",".join(["%.17g"] * len(header))
    lines = [",".join(header), *(line % tuple(row) for row in rows)]
    _write_text(path, "\n".join(lines) + "\n")


def write_metadata(path: str | Path, figure: str, cfg: dict) -> Path:
    """``<path>.meta.json``, written as ``write_csv`` writes; returns its path."""
    meta_path = Path(str(path) + ".meta.json")
    payload = {"figure": figure, "config": cfg, "version": __version__, "seed": cfg.get("seed")}
    _write_text(meta_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return meta_path
