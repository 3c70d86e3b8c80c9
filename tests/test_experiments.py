import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import backflow
from backflow import AmplitudeDampingChannel, DephasingChannel, DephasingSpec, LorentzSpec
from backflow import analytic_blp_dephasing, blp_search, transition_thetas
from backflow import apply_amplitude_damping, apply_dephasing, bell_diagonal, chi, kappa_abs
from backflow import correlation_matrix, divisibility_measure, optimal_pair, rsp_fidelity, trace_distance_trajectory
from backflow import channels, cli, decoherence, experiments, measures
from backflow.experiments import (
    FIGURES,
    _preset_fidelities,
    command_keys,
    default_config,
    figure_keys,
    resolve_config,
    run_figure,
    write_csv,
    write_metadata,
)
from backflow.measures import _CHUNK_POINTS, _kept_samples, _random_differences
from oracles import optimal_candidate_stack, overdamped_chi_log, pair_backflows, stack_backflows

TINY_FIG1 = {"pairs": 40, "grid": 801, "rows": 8}
TINY_FIG4 = {"pairs": 40, "grid": 801, "rows": 10}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "backflow", *args], capture_output=True, text=True
    )


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


class TestConfigResolution:
    def test_defaults_exist_for_every_figure(self):
        for fig in ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5"):
            cfg = default_config(fig)
            assert cfg["seed"] == 42
            assert "out" in cfg

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 7, "fig1": {"pairs": 11}}))
        cfg = resolve_config("fig1", str(cfg_file), {"pairs": 5})
        assert cfg["seed"] == 7  # from config (flat key)
        assert cfg["pairs"] == 5  # flag wins over the nested section
        cfg = resolve_config("fig1", str(cfg_file), {})
        assert cfg["pairs"] == 11  # nested section wins over default

    def test_unknown_override_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown option"):
            resolve_config("fig1", None, {"bogus": 1})
        cfg_file = tmp_path / "cfg.json"
        for loaded in ({"sigmaa": 2}, {"fig5": {"sigmaa": 2}}, {"fig1": {"sigmaa": 2}}):
            cfg_file.write_text(json.dumps(loaded))
            with pytest.raises(ValueError, match="unknown option 'sigmaa'"):
                resolve_config("fig5", str(cfg_file))
        # A key another figure knows still passes.
        cfg_file.write_text(json.dumps({"theta": 0.5, "fig1": {"rows": 3}}))
        assert resolve_config("fig5", str(cfg_file)) == default_config("fig5")

    def test_non_object_section_is_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        for loaded in ({"fig3a": 3}, {"fig1": [1]}, {"fig5": None}):
            cfg_file.write_text(json.dumps(loaded))
            section = next(iter(loaded))
            with pytest.raises(ValueError, match=f"section '{section}' in config file {cfg_file}"):
                resolve_config("fig3a", str(cfg_file))

    def test_degenerate_counts_are_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            run_figure("fig1", resolve_config("fig1", None, {"rows": 0}))
        with pytest.raises(ValueError, match="pairs"):
            run_figure("fig4", resolve_config("fig4", None, {"pairs": -1}))
        with pytest.raises(ValueError, match="theta_count"):
            run_figure("fig3a", resolve_config("fig3a", None, {"theta_count": 0}))
        with pytest.raises(ValueError, match="ratio_count"):
            run_figure("fig5", resolve_config("fig5", None, {"ratio_count": 0}))
        for figure in ("fig1", "fig4"):
            with pytest.raises(ValueError, match="pairs=0 must be at least 1"):
                run_figure(figure, resolve_config(figure, None, {"pairs": 0}))
        with pytest.raises(ValueError, match="pairs=-1 must be at least 0"):
            run_figure("fig2", resolve_config("fig2", None, {"pairs": -1}))

    def test_values_are_checked_against_the_type_of_their_default(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        where = re.escape(f" in config file {cfg_file} must be ")
        # Every section is checked, also one that the running figure ignores.
        for loaded, key in (({"fig2": {"pairs": 2.0}}, "pairs"), ({"tc_stop": "1"}, "tc_stop"),
                            ({"out": None}, "out"), ({"sigma": False}, "sigma")):
            cfg_file.write_text(json.dumps(loaded))
            with pytest.raises(ValueError, match=f"^{key}=.*{where}"):
                resolve_config("fig1", str(cfg_file))
        # Values are stored as given: an int for a float key stays an int.
        cfg_file.write_text(json.dumps({"sigma": 1, "tauc_start": None, "fig4": {"tc_stop": 30}}))
        cfg = resolve_config("fig1", str(cfg_file))
        assert type(cfg["sigma"]) is int and cfg["tauc_start"] is None
        assert resolve_config("fig4", str(cfg_file))["tc_stop"] == 30
        # Overrides passed to the API are checked the same way.
        with pytest.raises(ValueError, match=r"^grid=401.5 for fig1 must be an integer$"):
            resolve_config("fig1", None, {"grid": 401.5})


# Each figure's option strings before the parser was derived from the config
# table, minus fig3a/fig3b --theta (they have no theta key), minus --seed
# and --workers where the runner reads neither (fig2 reads only the seed) and
# minus fig2's --alpha-count/--phase-count (it has no candidate grid).
FIGURE_FLAGS = {
    "fig1": ["--config", "--delta-omega", "--dw", "--grid", "--omega1", "--out", "--pairs", "--rows",
             "--seed", "--sigma", "--tauc-start", "--tauc-stop", "--theta", "--workers"],
    "fig2": ["--config", "--delta-omega", "--dw", "--grid", "--omega1", "--out", "--pairs", "--seed",
             "--sigma", "--tauc-count", "--theta-count"],
    "fig3a": ["--config", "--delta-omega", "--dw", "--omega1", "--out", "--sigma", "--theta-count"],
    "fig3b": ["--config", "--delta-omega", "--dw", "--omega1", "--out", "--sigma", "--theta-count"],
    "fig4": ["--config", "--gamma0", "--grid", "--out", "--pairs", "--ratio", "--rows", "--seed",
             "--tc-start", "--tc-stop", "--workers"],
    "fig5": ["--config", "--gamma0", "--out", "--ratio-count", "--ratio-max", "--ratio-min"],
}

# The other commands' flags before they were built from the config table, in
# parser order: per flag, its option strings, whether it is required, its
# choices and its default.  Then each command's one-line help.  Unlike the
# figures, these commands accept abbreviated flags.
COMMAND_FLAGS = {
    "kappa": [
        (("--theta",), True, None, None),
        (("--dw", "--delta-omega"), True, None, None),
        (("--sigma",), True, None, None),
        (("--tau",), True, None, None),
        (("--omega1",), False, None, 0.0),
    ],
    "chi": [(("--gamma0",), True, None, None), (("--width",), True, None, None), (("--t",), True, None, None)],
    "transition": [
        (("--dw", "--delta-omega"), True, None, None),
        (("--sigma",), True, None, None),
        (("--tauc",), True, None, None),
    ],
    "fidelity": [(("--c",), True, None, None), (("--kappa",), True, None, None)],
    "measure": [
        (("--measure",), True, ("blp", "divisibility", "entanglement", "mutual-info"), None),
        (("--family",), True, ("dephasing", "lorentz"), None),
        (("--theta",), False, None, 0.7853981633974483),
        (("--dw", "--delta-omega"), False, None, 10.0),
        (("--sigma",), False, None, 1.0),
        (("--omega1",), False, None, 0.0),
        (("--gamma0",), False, None, 1.0),
        (("--width",), False, None, 0.1),
        (("--t0",), False, None, 0.0),
        (("--t1",), True, None, None),
        (("--grid",), False, None, 4001),
        (("--pairs",), False, None, 0),
        (("--seed",), False, None, 42),
    ],
}
COMMAND_HELP = {
    "kappa": "print |kappa(tau)| for a dephasing spec",
    "chi": "print chi(t) for a Lorentzian spec",
    "transition": "print the two transition angles theta1 theta2",
    "fidelity": "RSP fidelity of a dephased Bell-diagonal state",
    "measure": "evaluate one backflow measure on a window",
}

# Small runs of every figure, for tests that execute the runners.
TINY = {
    "fig1": {"pairs": 3, "grid": 101, "rows": 2},
    "fig2": {"grid": 101, "tauc_count": 2, "theta_count": 3},
    "fig3a": {"theta_count": 3},
    "fig3b": {"theta_count": 3},
    "fig4": {"pairs": 3, "grid": 101, "rows": 2},
    "fig5": {"ratio_count": 3},
}

FIGURE_KEYS = [(figure, key) for figure in FIGURES for key in figure_keys(figure)]
ABSENT = object()


def subparsers() -> argparse._SubParsersAction:
    """The subcommands of the parser that ``cli.main`` builds once per process."""
    return next(a for a in cli._parsers()[0]._actions if isinstance(a, argparse._SubParsersAction))


def figure_parsers() -> dict:
    return {figure: subparsers().choices[figure] for figure in FIGURES}


def key_actions(parser) -> list:
    return [a for a in parser._actions if a.dest not in ("help", "config")]


def config_values(kind: type):
    if kind is int:
        return st.integers(-10**6, 10**6)
    if kind is float:
        return st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)
    return st.text("abcxyz0189._/", min_size=1, max_size=12)


class ReadKeys(dict):
    """A config that records which keys the runner reads."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestConfigTable:
    def test_figure_option_strings_are_pinned(self):
        for figure, parser in figure_parsers().items():
            flags = sorted(s for a in parser._actions for s in a.option_strings if a.dest != "help")
            assert flags == FIGURE_FLAGS[figure], figure

    def test_command_flags_are_pinned(self):
        sub = subparsers()
        assert list(sub.choices) == [*FIGURES, *COMMAND_FLAGS]
        assert {c.dest: c.help for c in sub._choices_actions if c.dest in COMMAND_HELP} == COMMAND_HELP
        for command, pinned in COMMAND_FLAGS.items():
            parser = sub.choices[command]
            flags = [(tuple(a.option_strings), a.required, tuple(a.choices) if a.choices else None, a.default)
                     for a in parser._actions if a.dest != "help"]
            assert flags == pinned, command
            # 0 and 0.0 compare equal: the defaults' types are pinned too.
            assert [type(f[3]) for f in flags] == [type(f[3]) for f in pinned], command
            assert parser.allow_abbrev, command
        assert not any(sub.choices[figure].allow_abbrev for figure in FIGURES)

    def test_every_key_a_runner_reads_has_exactly_one_action(self):
        for figure, parser in figure_parsers().items():
            cfg = ReadKeys(resolve_config(figure, None, TINY[figure]))
            run_figure(figure, cfg)
            dests = Counter(a.dest for a in key_actions(parser))
            assert cfg.read and all(dests[key] == 1 for key in cfg.read), (figure, cfg.read)
            # ... and every action is read by the runner, except --out, which
            # the CLI reads to write the table, and the dephasing figures'
            # --omega1, which is only checked: |kappa| does not depend on it.
            assert set(dests) - {"out", "omega1"} == cfg.read, figure
            # The actions are the table's keys, each typed by its default.
            assert dests == dict.fromkeys(figure_keys(figure), 1), figure
            assert {a.dest: a.type for a in key_actions(parser)} == figure_keys(figure)
            assert set(figure_keys(figure)) <= set(default_config(figure))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_flag_beats_section_beats_flat_config_beats_default(self, data):
        figure, key = data.draw(st.sampled_from(FIGURE_KEYS))
        default = default_config(figure)[key]
        values = config_values(figure_keys(figure)[key])
        layer = values | st.none() if default is None else values
        flat = data.draw(st.just(ABSENT) | layer)
        section = data.draw(st.just(ABSENT) | layer)
        flag = data.draw(st.just(ABSENT) | values)
        actions = [a for a in key_actions(figure_parsers()[figure]) if a.dest == key]
        option = data.draw(st.sampled_from(actions[0].option_strings))
        loaded = {} if flat is ABSENT else {key: flat}
        if section is not ABSENT:
            loaded[figure] = {key: section}
        with tempfile.TemporaryDirectory() as tmp:
            cfg_file = Path(tmp) / "c.json"
            cfg_file.write_text(json.dumps(loaded))
            argv = [figure, "--config", str(cfg_file)] + ([] if flag is ABSENT else [f"{option}={flag}"])
            args = cli._parsers()[0].parse_args(argv)
            cfg = resolve_config(figure, args.config, cli._figure_overrides(args))
        expected = next(v for v in (flag, section, flat, default) if v is not ABSENT)
        assert cfg[key] == expected and (expected is None) == (cfg[key] is None)
        assert {k: v for k, v in cfg.items() if k != key} == {
            k: v for k, v in default_config(figure).items() if k != key
        }

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_command_parser_gives_what_the_top_level_parser_gives(self, data):
        # main parses a command's flags with that command's own parser: its
        # Namespace, or its exit code and message, must be the top-level
        # parser's, for any flags of the table's keys, mistyped values and
        # missing required flags included.
        command = data.draw(st.sampled_from([*FIGURES, *COMMAND_FLAGS]))
        argv = [command]
        actions = [a for a in subparsers().choices[command]._actions if a.dest != "help"]
        for action in data.draw(st.lists(st.sampled_from(actions), unique=True)):
            if action.choices:
                values = st.sampled_from(action.choices)
            else:
                values = config_values(action.type or str)
            value = str(data.draw(values | config_values(str)))
            option = data.draw(st.sampled_from(action.option_strings))
            argv += data.draw(st.sampled_from([[f"{option}={value}"], [option, value]]))
        argv = cli._attach_dash_values(argv)
        outcomes = []
        for parse in (cli._parse_args, cli._parsers()[0].parse_args):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    outcomes.append(parse(list(argv)))
                except SystemExit as exc:
                    outcomes.append((exc.code, err.getvalue()))
        assert outcomes[0] == outcomes[1], argv


class TestBenchmarkHarness:
    ROOT = Path(__file__).resolve().parents[1]

    def load(self, name: str, monkeypatch):
        # The harness's modules are loaded by path; run.py also puts perfbench/
        # on sys.path, which is restored afterwards.
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", self.ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    def test_tracer_targets_resolve(self, monkeypatch):
        targets = self.load("tracer", monkeypatch).TARGETS
        assert targets
        missing = [(m, a) for m, a, *_ in targets if not hasattr(importlib.import_module(m), a)]
        assert missing == []

    def test_benchmark_commands_parse(self, monkeypatch, tmp_path):
        run = self.load("run", monkeypatch)
        parser = cli.build_parser()
        for workload in run.WORKLOADS:
            for command in run.commands(workload, 1, tmp_path):
                parser.parse_args(list(command.argv))

    def test_sweep_figures_pass_the_benchmark_checks(self, monkeypatch, tmp_path):
        # The benchmark's gate for fig1/fig4 at its grid and rows, with the
        # inputs the benchmark builds for it; a few pairs keep it quick.
        checks = self.load("checks", monkeypatch)
        run = self.load("run", monkeypatch)
        reference = json.loads((self.ROOT / "perfbench" / "reference.json").read_text())
        expected = run.Expected(backflow, 5, reference)
        for figure in ("fig1", "fig4"):
            out = tmp_path / f"{figure}.csv"
            argv = [figure, "--seed", "5", "--pairs", "3", "--grid", str(run.GRID), "--rows", str(run.ROWS),
                    "--out", str(out)]
            assert cli.main(argv) == 0
            times = expected.grids[figure][0]
            assert checks.sweep_figure(figure, out.read_text(), times, expected.abs_f[figure],
                                       expected.pair0(figure), reference) == []

    def test_window_commands_pass_the_benchmark_checks(self, monkeypatch, tmp_path):
        # The benchmark's gates for fig2, fig3a/fig3b/fig5 and the six
        # measures, on its own command lines, run through cli.main.
        run = self.load("run", monkeypatch)
        reference = json.loads((self.ROOT / "perfbench" / "reference.json").read_text())
        expected = run.Expected(backflow, 5, reference)
        commands = run.window_commands(5, tmp_path)
        assert [c.label for c in commands] == ["fig2", "fig3a", "fig3b", "fig5", *(
            f"{m}.{f}" for m in run.MEASURES for f in ("dephasing", "lorentz"))]
        for command in commands:
            rc, _, stdout, stderr = run.run_command(cli.main, command, None)
            assert expected.check(command, rc, stdout, stderr) == [], command.label


def _sweep_config(case, start_fraction, grid, rows, pairs, seed):
    figure, overrides = case
    stop_key = "tauc_stop" if figure == "fig1" else "tc_stop"
    if start_fraction is None:  # both bounds at their defaults
        del overrides[stop_key]
    else:
        overrides[stop_key.replace("stop", "start")] = start_fraction * overrides[stop_key]
    overrides.update(grid=grid, rows=rows, pairs=pairs, seed=seed)
    return figure, resolve_config(figure, None, overrides)


def _sweeps(cases):
    return st.builds(
        _sweep_config,
        cases,
        st.floats(0.05, 1.0) | st.none(),
        st.integers(101, 2001),
        st.integers(1, 30),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
    )


# fig1 over any theta and fig4 over any width ratio, with their row ranges,
# grids, row counts, pair counts and seeds.
_FIG1_CASES = st.tuples(st.floats(0.0, math.pi / 2), st.floats(0.05, 2.0)).map(
    lambda c: ("fig1", {"theta": c[0], "tauc_stop": c[1]}))
_FIG4_CASES = st.tuples(st.floats(0.01, 1.9), st.floats(1.0, 80.0)).map(
    lambda c: ("fig4", {"width_ratio": c[0], "tc_stop": c[1]}))
_SWEEPS = _sweeps(st.one_of(_FIG1_CASES, _FIG4_CASES))


class TestOptimalColumn:
    """Every pair search's optimal column is the increment sum of |f| at the
    kept points; it must agree with evolving the 352 optimal candidates, and
    fig1/fig4's random column must equal the per-chunk ``pair_backflows``
    path."""

    @staticmethod
    def recorded_sweep(figure, cfg):
        """The figure's table, and the family, window end, grid, row cuts,
        pair count and seed of its one pair search."""
        grids, searches = [], []
        magnitude, backflows = experiments._window_magnitude, experiments._backflows

        def recording_magnitude(family, window, grid):
            grids.append((family, window[1], grid))
            return magnitude(family, window, grid)

        def recording_backflows(family, windows, n_pairs, seed, workers, cuts):
            searches.append((cuts, n_pairs, seed))
            return backflows(family, windows, n_pairs, seed, workers, cuts)

        with mock.patch.object(experiments, "_window_magnitude", recording_magnitude), \
                mock.patch.object(experiments, "_backflows", recording_backflows):
            table = np.array(run_figure(figure, cfg)[1])
        (grid,), (search,) = grids, searches
        return table, (*grid, *search)

    @staticmethod
    def candidate_sweep(family, window_end, grid, cuts, n_pairs, seed):
        times = np.linspace(0.0, window_end, grid)
        optimal = pair_backflows(family, optimal_candidate_stack(), times, cuts).max(axis=0)
        random_max = np.maximum.reduce([
            pair_backflows(family, _random_differences(seed, lo, min(lo + 256, n_pairs)), times, cuts).max(axis=0)
            for lo in range(0, n_pairs, 256)
        ])
        return optimal, random_max

    @settings(max_examples=25, deadline=None)
    @given(_SWEEPS)
    def test_equals_the_candidate_path(self, sweep):
        table, search = self.recorded_sweep(*sweep)
        optimal, random_max = self.candidate_sweep(*search)
        _, window_end, grid, cuts, *_ = search
        assert table[:, 0].tobytes() == np.linspace(0.0, window_end, grid)[cuts].tobytes()
        assert np.all(np.abs(table[:, 1] - optimal) <= 4e-15)
        assert table[:, 2].tobytes() == random_max.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        st.one_of(
            st.floats(0.0, math.pi / 2).map(lambda theta: DephasingChannel(DephasingSpec(theta))),
            st.floats(0.01, 1.9).map(lambda ratio: AmplitudeDampingChannel(LorentzSpec(1.0, ratio))),
        ),
        st.floats(0.0, 0.8),
        st.floats(0.05, 60.0),
        st.integers(2, 2001),
    )
    @example(AmplitudeDampingChannel(LorentzSpec(1.0, 0.01)), 0.785, 44.5403, 4001)
    def test_blp_search_equals_the_candidate_path(self, family, start_fraction, t1, grid):
        # A grid whose step is not below half the period of |f| is refused.
        # A damping window that starts inside a rise of |chi| can give more
        # to an x-z Bloch pair off the equator than to the candidates, so
        # there the value is at least theirs; from t = 0 it is theirs.
        times = np.linspace(start_fraction * t1, t1, grid)
        if (times[-1] - times[0]) / (grid - 1) >= measures._HALF_PERIODS[type(family)](family.spec):
            with pytest.raises(ValueError, match=f"^grid={grid} is too coarse"):
                blp_search(family, (times[0], t1), 0, grid, 1)
            return
        expected = pair_backflows(family, optimal_candidate_stack(), times).max()
        value = blp_search(family, (times[0], t1), 0, grid, 1).value
        if isinstance(family, AmplitudeDampingChannel) and times[0] > 0.0:
            assert value >= expected - 4e-15
        else:
            assert abs(value - expected) <= 4e-15

    @settings(max_examples=40, deadline=None)
    @given(_SWEEPS)
    def test_random_rows_never_exceed_the_optimal_rows(self, sweep):
        # The paper's optimality of the zeta/eta pairs on every fig1/fig4 row
        # cut; a trace norm that reads high would break it.
        figure, cfg = sweep
        table = np.array(run_figure(figure, cfg)[1])
        assert np.all(table[:, 2] <= table[:, 1] * (1.0 + 1e-12) + 1e-14)

    @settings(max_examples=40, deadline=None)
    @given(_sweeps(_FIG1_CASES))
    def test_each_random_pair_stays_within_its_dephasing_bound(self, sweep):
        # Dephasing moves only the off-diagonal block B of a pair's
        # difference on the noisy qubit, scaled by kappa, so each prefix
        # backflow is at most |B|_1 times the increment sum of |kappa|
        # (reverse triangle inequality; |B|_1 <= 1).
        table, (family, window_end, grid, cuts, n_pairs, seed) = self.recorded_sweep(*sweep)
        optimal = table[:, 1]
        times = np.linspace(0.0, window_end, grid)
        deltas = _random_differences(seed, 0, n_pairs)
        backflows = pair_backflows(family, deltas, times, cuts)
        bound = np.linalg.svd(deltas[:, :2, 2:], compute_uv=False).sum(axis=-1)
        assert np.all(bound <= 1.0 + 1e-12)
        assert np.all(backflows <= bound[:, None] * optimal * (1.0 + 1e-12) + 1e-14)

    def test_window_columns_equal_the_candidate_path(self):
        # fig2's rows at its defaults, then windows of both families of
        # different lengths through the multi-window reduction.
        cfg = resolve_config("fig2")
        table = np.array(run_figure("fig2", cfg)[1])
        families, windows = [], []
        for tau_c, theta in table[:, :2]:
            spec = DephasingSpec(float(theta), cfg["omega1"], cfg["omega1"] + cfg["delta_omega"], cfg["sigma"])
            families.append(DephasingChannel(spec))
            windows.append(np.linspace(0.0, tau_c, cfg["grid"]))
        for ratio, t1, grid in ((0.1, 30.0, 4001), (0.5, 12.0, 801), (1.9, 5.0, 2)):
            families.append(AmplitudeDampingChannel(LorentzSpec(1.0, ratio)))
            windows.append(np.linspace(0.0, t1, grid))
        expected = np.array([pair_backflows(family, optimal_candidate_stack(), times).max()
                             for family, times in zip(families, windows)])
        f, reduce = _kept_samples([family.magnitude(times) for family, times in zip(families, windows)])
        assert np.all(np.abs(table[:, 3] - expected[:len(table)]) <= 4e-15)
        assert np.all(np.abs(reduce(np.abs(f)) - expected) <= 4e-15)


class TestFig1:
    def test_ordering_and_zero_rows(self):
        cfg = resolve_config("fig1", None, TINY_FIG1)
        header, rows = run_figure("fig1", cfg)
        assert header == ["tau_c", "integral_optimal", "integral_random_max"]
        arr = np.array(rows)
        assert np.all(arr[:, 2] <= arr[:, 1] + 1e-12)
        assert np.all(arr[:, 1] > 0.0)  # default rows start past the revival onset

    def test_worker_fanout_is_deterministic(self, tmp_path):
        outputs = []
        for workers in (1, 3):
            cfg = resolve_config("fig1", None, {**TINY_FIG1, "workers": workers})
            header, rows = run_figure("fig1", cfg)
            path = tmp_path / f"w{workers}.csv"
            write_csv(path, header, rows)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_fan_out_starts_processes_only_where_they_pay(self, tmp_path, monkeypatch):
        # 400 pairs are one chunk, but shares split at block edges: two
        # blocks, of 256 and 144 pairs.  At fewer than _PAIRS_PER_PROCESS
        # pairs per process no worker count starts a process; with the
        # constant at 1, two workers start one child (given two CPUs) and
        # eight start at most one per CPU and block, the parent included.
        # The fake context records each process and runs it in this one.
        fork = RecordingFork(monkeypatch, start_processes=False)
        cpus = len(os.sched_getaffinity(0))
        outputs, started = [], []
        for per_process in (measures._PAIRS_PER_PROCESS, 1):
            monkeypatch.setattr(measures, "_PAIRS_PER_PROCESS", per_process)
            for workers in (1, 2, 8):
                fork.shares.clear()
                cfg = resolve_config("fig1", None, {**TINY_FIG1, "pairs": 400, "workers": workers})
                path = tmp_path / f"w{workers}_{per_process}.csv"
                write_csv(path, *run_figure("fig1", cfg))
                outputs.append(path.read_bytes())
                started.append(list(fork.shares))
        assert started[:4] == [[], [], [], []]
        assert started[4] == [(256, 400)][: min(2, cpus) - 1]
        assert len(started[5]) <= min(cpus, 2) - 1
        assert len(set(outputs)) == 1

    def test_full_revival_row_value(self):
        # Ending the sweep at 2 pi / dw puts the coherence zero on the master
        # grid; the optimal integral at that row is the full rise from zero
        # to the sampled peak.
        cfg = resolve_config(
            "fig1",
            None,
            {
                "pairs": 10,
                "grid": 801,
                "rows": 9,
                "tauc_start": 1.2 * math.pi / 10,
                "tauc_stop": 2 * math.pi / 10,
            },
        )
        _, rows = run_figure("fig1", cfg)
        arr = np.array(rows)
        assert arr[-1, 0] == pytest.approx(2 * math.pi / 10, abs=1e-12)
        assert arr[-1, 1] == pytest.approx(0.8271098596647776, abs=1e-4)

    def test_rows_before_first_minimum_have_no_backflow(self):
        cfg = resolve_config(
            "fig1",
            None,
            {
                "pairs": 15,
                "grid": 801,
                "rows": 5,
                "tauc_start": 0.3 * math.pi / 10,
                "tauc_stop": 0.9 * math.pi / 10,
            },
        )
        _, rows = run_figure("fig1", cfg)
        arr = np.array(rows)
        assert np.max(arr[:, 1:3]) == 0.0


class TestFig2:
    def test_columns_and_transition_structure(self):
        cfg = resolve_config("fig2", None, {"theta_count": 9, "tauc_count": 3, "grid": 801})
        header, rows = run_figure("fig2", cfg)
        assert header == ["tau_c", "theta", "N_analytic", "N_numeric", "theta1", "theta2"]
        arr = np.array(rows)
        assert np.all(arr[:, 2] >= 0.0)
        assert np.all(arr[:, 3] >= 0.0)
        # Below the first transition angle the closed form is exactly zero.
        below = arr[arr[:, 1] < arr[:, 4] - 1e-9]
        assert below.size and np.all(below[:, 2] == 0.0)
        # Both angles are constant per control time and complementary.
        for tau_c in np.unique(arr[:, 0]):
            sub = arr[arr[:, 0] == tau_c]
            assert np.ptp(sub[:, 4]) == 0.0
            assert sub[0, 4] + sub[0, 5] == pytest.approx(math.pi / 2, abs=1e-9)
        # The closed form tracks the sampled integrals to the known offset.
        assert np.max(np.abs(arr[:, 2] - arr[:, 3])) <= 2e-2
        # Balanced weights at the full-revival control time.
        target = arr[
            (np.abs(arr[:, 0] - 2 * math.pi / 10) < 1e-12)
            & (np.abs(arr[:, 1] - math.pi / 4) < 1e-12)
        ]
        assert target.shape[0] == 1
        assert target[0, 2] == pytest.approx(math.exp(-0.5 * (2 * math.pi / 10) ** 2), abs=1e-12)


def fig2_rows_by_search(cfg):
    """The fig2 table as one blp_search per (tau_c, theta) row."""
    dw, sigma = cfg["delta_omega"], cfg["sigma"]
    rows = []
    for tau_c in np.linspace(1.2 * math.pi / dw, 2.0 * math.pi / dw, cfg["tauc_count"]):
        theta1, theta2 = transition_thetas(dw, sigma, tau_c)
        for theta in np.linspace(0.0, math.pi / 2, cfg["theta_count"]):
            spec = DephasingSpec(float(theta), cfg["omega1"], cfg["omega1"] + dw, sigma)
            numeric = blp_search(
                DephasingChannel(spec), (0.0, float(tau_c)), n_pairs=cfg["pairs"],
                grid_size=cfg["grid"], seed=cfg["seed"],
            ).value
            rows.append((tau_c, theta, analytic_blp_dephasing(spec, float(tau_c)), numeric, theta1, theta2))
    return rows


class TestFig2OnePass:
    """run_fig2 evaluates all windows in one kernel pass; its rows must equal
    the per-row searches bit for bit."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"pairs": 3},
        {"pairs": 40, "seed": 3},
        {"tauc_count": 2, "theta_count": 4},
    ])
    def test_rows_equal_per_row_searches(self, overrides):
        cfg = resolve_config("fig2", None, {"grid": 401, **overrides})
        _, rows = run_figure("fig2", cfg)
        assert np.array(rows).tobytes() == np.array(fig2_rows_by_search(cfg)).tobytes()

    def test_rows_equal_per_row_searches_over_several_pair_chunks(self, monkeypatch):
        cfg = resolve_config("fig2", None, {"grid": 401, "pairs": 8, "tauc_count": 2, "theta_count": 5})
        expected = np.array(fig2_rows_by_search(cfg))
        chunks = []
        trace_distances = measures._trace_distances

        def counting(family, deltas, f):
            chunks.append(deltas.shape[0])
            return trace_distances(family, deltas, f)

        # Three pairs per chunk: the 8 random pairs span 3; the optimal
        # column evolves no pair.
        monkeypatch.setattr(measures, "_trace_distances", counting)
        kept = sum(np.count_nonzero(measures._turning_mask(w)) for w in self._windows(cfg))
        monkeypatch.setattr(measures, "_CHUNK_POINTS", kept * 3)
        _, rows = run_figure("fig2", cfg)
        assert chunks == [3, 3, 2]
        assert np.array(rows).tobytes() == expected.tobytes()

    # About a quarter of the drawn grids are 2 or 3, too coarse for the
    # longest window: 55 examples bring ~40 to the comparison.
    @settings(max_examples=55, deadline=None)
    @given(st.floats(1e-3, 3.0), st.floats(1.0, 40.0), st.floats(-5.0, 5.0),
           st.integers(1, 20), st.integers(1, 6), st.integers(2, 1001))
    def test_each_window_is_the_magnitude_of_its_row(self, sigma_over_dw, dw, omega1, theta_count, tauc_count, grid):
        # fig2 forms |kappa| only on the columns where it can rise; the kept
        # samples it searches, and each row's number of them, are those of
        # kappa_abs of each row's (tau_c, theta) on its full grid, bit for bit.
        # omega1 is drawn but not read: every spec has omega2 = dw exactly.
        sigma = sigma_over_dw * dw
        cfg = resolve_config("fig2", None, {"sigma": sigma, "delta_omega": dw, "omega1": omega1,
                                            "theta_count": theta_count, "tauc_count": tauc_count, "grid": grid})
        calls = []
        search = measures._random_search

        def recording(family, f, reduce, *args):
            calls.append((f, reduce))
            return search(family, f, reduce, *args)

        longest = np.linspace(1.2 * math.pi / dw, 2.0 * math.pi / dw, tauc_count)[-1]
        family = DephasingChannel(DephasingSpec(0.0, 0.0, dw, sigma))
        if longest / (grid - 1) >= measures._HALF_PERIODS[DephasingChannel](family.spec):
            # The longest window's step is not below pi/dw: refused as blp_search refuses it.
            for run in (lambda: run_figure("fig2", cfg), lambda: blp_search(family, (0.0, longest), 0, grid, 0)):
                with pytest.raises(ValueError, match=f"^grid={grid} is too coarse"):
                    run()
            return
        with mock.patch.object(measures, "_random_search", recording):
            rows = run_figure("fig2", cfg)[1]
        assert len(calls) == 1 and len(rows) == theta_count * tauc_count
        f, reduce = calls[0]
        windows = [DephasingChannel(DephasingSpec(float(theta), 0.0, dw, sigma)).magnitude(
            np.linspace(0.0, tau_c, grid)) for tau_c, theta, *_ in rows]
        want_f, want_reduce = _kept_samples(windows)
        assert f.tobytes() == want_f.tobytes()
        assert reduce.keywords["sizes"].tolist() == want_reduce.keywords["sizes"].tolist()
        assert reduce(f).tobytes() == want_reduce(want_f).tobytes()

    def test_a_default_run_forms_kappa_at_under_half_the_plane(self, monkeypatch):
        # The full plane is 5 control times x 17 angles x 4001 grid points.
        formed = []
        kappa_abs_ = experiments._kappa_abs

        def counting(*args):
            value = kappa_abs_(*args)
            formed.append(value.size)
            return value

        monkeypatch.setattr(experiments, "_kappa_abs", counting)
        run_figure("fig2", resolve_config("fig2", None, {}))
        assert 0 < sum(formed) <= (5 * 17 * 4001) // 2

    def test_a_default_run_forms_the_angle_free_factors_twice(self, monkeypatch):
        # Once on the stack of every window's grid, once at every tau_c
        # (decoherence._closed_forms).
        shapes = []
        factors = decoherence._kappa_abs_factors

        def counting(spec, t):
            shapes.append(np.shape(t))
            return factors(spec, t)

        for module in (experiments, decoherence):
            monkeypatch.setattr(module, "_kappa_abs_factors", counting)
        run_figure("fig2", resolve_config("fig2", None, {}))
        assert shapes == [(5, 4001), (5,)]

    @staticmethod
    def _windows(cfg):
        dw = cfg["delta_omega"]
        for tau_c in np.linspace(1.2 * math.pi / dw, 2.0 * math.pi / dw, cfg["tauc_count"]):
            times = np.linspace(0.0, float(tau_c), cfg["grid"])
            for theta in np.linspace(0.0, math.pi / 2, cfg["theta_count"]):
                spec = DephasingSpec(float(theta), cfg["omega1"], cfg["omega1"] + dw, cfg["sigma"])
                yield DephasingChannel(spec).magnitude(times)


class TestRandomSearch:
    """Every pair search draws, evolves and reduces one chunk of random pairs
    at a time: as many whole blocks of the pair streams as fit in
    ``_CHUNK_POINTS`` (pair, sample) points, each chunk starting at a block
    edge, or a shorter chunk where one block does not fit; with the same
    values as one stack of them."""

    @staticmethod
    def recording(monkeypatch):
        """Lists of the pairs [lo, hi) of each draw, and of each search's
        arguments, result and draws."""
        draws, searches = [], []
        draw, search = measures._random_differences, measures._random_search

        def drawing(seed, lo, hi):
            draws.append((lo, hi))
            return draw(seed, lo, hi)

        def searching(*args, **kwargs):
            first = len(draws)
            result = search(*args, **kwargs)
            searches.append((args, result, draws[first:]))
            return result

        monkeypatch.setattr(measures, "_random_differences", drawing)
        monkeypatch.setattr(measures, "_random_search", searching)
        return draws, searches

    def test_no_search_holds_more_than_one_chunk_of_pairs(self, monkeypatch):
        # The Lorentz search runs once at the default budget (one chunk) and
        # once at a budget of 600 of its pairs (two chunks, of 512 and 488).
        draws, searches = self.recording(monkeypatch)
        lorentz = AmplitudeDampingChannel(LorentzSpec(1.0, 0.1))
        window = [lorentz.magnitude(np.linspace(0.0, 30.0, 401))]
        small = 600 * _kept_samples(window)[0].size
        blp_search(lorentz, (0.0, 30.0), 1000, 401, 5)
        with mock.patch.object(measures, "_CHUNK_POINTS", small):
            blp_search(lorentz, (0.0, 30.0), 1000, 401, 5)
        cfg = resolve_config("fig2", None, {"pairs": 600, "grid": 401})
        run_figure("fig2", cfg)
        assert [drawn for *_, drawn in searches] == [[(0, 1000)], [(0, 512), (512, 1000)], [(0, 600)]]
        for (args, (best, first_k), drawn), samples, budget in zip(
                searches, [window, window, list(TestFig2OnePass._windows(cfg))],
                [_CHUNK_POINTS, small, _CHUNK_POINTS], strict=True):
            family, f, _, seed, n_pairs, _ = args
            assert all(lo % 256 == 0 and (hi - lo) * f.size <= budget for lo, hi in drawn)
            # The draws cover each pair once, in pair order.
            assert [lo for lo, _ in drawn] == [0] + [hi for _, hi in drawn[:-1]] and drawn[-1][1] == n_pairs
            one_stack = stack_backflows(family, _random_differences(seed, 0, n_pairs), samples)
            assert best.tobytes() == one_stack.max(axis=0).tobytes()
            assert first_k.tolist() == one_stack.argmax(axis=0).tolist()

    @pytest.mark.parametrize("figure, overrides, chunks", [
        ("fig1", {}, [(0, 6912), (6912, 10_000)]),
        ("fig4", {}, [(0, 10_000)]),
        ("fig1", {"grid": 4001, "rows": 25, "pairs": 400}, [(0, 400)]),
        ("fig4", {"grid": 4001, "rows": 25, "pairs": 400}, [(0, 400)]),
    ])
    def test_default_and_benchmark_sized_searches_make_few_chunks(self, monkeypatch, figure, overrides, chunks):
        # Default fig1 keeps 18 samples (6,944 pairs fit, 27 whole blocks of
        # them are a chunk) and default fig4 keeps 12 (10,416 fit); a
        # 400-pair search of either is one chunk.
        draws, _ = self.recording(monkeypatch)
        run_figure(figure, resolve_config(figure, None, overrides))
        assert draws == chunks

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(
            st.floats(0.05, math.pi / 2).map(lambda theta: DephasingChannel(DephasingSpec(theta))),
            st.floats(0.01, 1.9).map(lambda ratio: AmplitudeDampingChannel(LorentzSpec(1.0, ratio))),
        ),
        st.sampled_from(["cuts", "windows"]),
        st.floats(0.3, 1.0),
        st.integers(0, 700),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_any_chunk_budget_gives_the_same_bytes(self, family, shape, fraction, n_pairs, seed, data):
        # fig1/fig4's prefix cuts of one window, or fig2's stack of windows
        # on one grid plus 1-D windows of other lengths.
        t1 = fraction * (4.0 * math.pi / 10.0 if isinstance(family, DephasingChannel) else 30.0)
        grid = data.draw(st.integers(101, 801))
        times = np.linspace(0.0, t1, grid)
        if shape == "cuts":
            cuts = sorted(data.draw(st.lists(st.integers(1, grid - 1), min_size=1, max_size=6)))
            f, reduce = _kept_samples([family.magnitude(times)], cuts)
        else:
            ends = data.draw(st.lists(st.floats(0.2, 1.0), min_size=1, max_size=3))
            stack = family.magnitude(measures._window_times((0.0, t1 * np.array(ends)), grid))
            f, reduce = _kept_samples([stack, family.magnitude(times[: grid // 2])])
        # One pair, under one block, one block, several blocks and a part of
        # one more (rounded down to whole blocks), and the default.
        k = max(f.size, 1)
        budgets = [1, k * data.draw(st.integers(1, 255)), k * 256, k * data.draw(st.integers(257, 900)), 125_000]
        results = []
        for budget in budgets:
            with mock.patch.object(measures, "_CHUNK_POINTS", budget):
                best, first_k = measures._random_search(family, f, reduce, seed, n_pairs)
            results.append((best.tobytes(), first_k.tobytes()))
        assert len(set(results)) == 1

    def test_pair_counts_past_2_to_the_64_are_rejected_before_any_draw(self, monkeypatch):
        def draw(*args):
            raise AssertionError("drew pairs")

        monkeypatch.setattr(measures, "_random_differences", draw)
        with pytest.raises(ValueError, match=r"must lie below 2\*\*64"):
            blp_search(AmplitudeDampingChannel(LorentzSpec(1.0, 0.1)), (0.0, 30.0), 2**64 + 1, 401, 5)
        with pytest.raises(ValueError, match=r"must lie below 2\*\*64"):
            run_figure("fig1", resolve_config("fig1", None, {"pairs": 2**64 + 1}))

    def test_a_negative_seed_is_rejected_where_no_pair_is_drawn(self, monkeypatch):
        # No random pair (blp_search, fig2 at its default), or none evolved
        # (fig1 at theta = 0, where |kappa| never rises).
        def draw(*args):
            raise AssertionError("drew pairs")

        monkeypatch.setattr(measures, "_random_differences", draw)
        with pytest.raises(ValueError, match=r"^seed=-1 must be at least 0$"):
            blp_search(DephasingChannel(DephasingSpec(math.pi / 4)), (0.0, 0.6), 0, 101, -1)
        for figure, overrides in (("fig2", {}), ("fig1", {"theta": 0.0, "pairs": 3})):
            with pytest.raises(ValueError, match=r"^seed=-1 must be at least 0$"):
                run_figure(figure, resolve_config(figure, None, {**overrides, "seed": -1}))


class RecordingFork:
    """Stands in for ``multiprocessing.get_context("fork")`` where the
    fan-out looks it up, and records the pair share [lo, hi) of each process
    requested.  With ``start_processes`` False it starts none: each
    process's target runs in this process when it is started."""

    def __init__(self, monkeypatch, start_processes=True):
        self.fork, self.start_processes, self.shares = multiprocessing.get_context("fork"), start_processes, []
        monkeypatch.setattr(multiprocessing, "get_context", self.get_context)

    def get_context(self, method):
        assert method == "fork"
        return self

    def Pipe(self, duplex):
        return self.fork.Pipe(duplex)

    def Process(self, target, args):
        self.shares.append(tuple(args[1][-2:]))
        if self.start_processes:
            return self.fork.Process(target=target, args=args)
        return mock.Mock(start=lambda: target(*args), exitcode=0)


class TestFanOut:
    """The parent searches the first share of the pairs, and each forked
    child one later share; shares split at block edges.  With _PAIRS_PER_PROCESS at 1 and two CPUs, a
    two-worker search of 300 pairs keeps [0, 256) in the parent and starts
    one real child for [256, 300)."""

    FAMILY = DephasingChannel(DephasingSpec(math.pi / 4))
    WINDOW = np.linspace(0.0, 0.6, 101)

    @classmethod
    def search(cls, monkeypatch, backflows, cuts, workers=2):
        monkeypatch.setattr(measures, "_PAIRS_PER_PROCESS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(measures, "_random_backflows", backflows)
        f, reduce = _kept_samples([cls.FAMILY.magnitude(cls.WINDOW)], cuts)
        return measures._random_search(cls.FAMILY, f, reduce, 9, 300, workers)

    def test_a_tie_across_shares_goes_to_the_earliest_pair(self, monkeypatch):
        # Column 0 ties the parent's pair 10 with the child's pair 260,
        # column 1 has the child's pair 260 strictly larger, and column 2
        # ties pairs 260 and 299 inside the child's share.
        hot = {(10, 0): 1.0, (260, 0): 1.0, (10, 1): 0.5, (260, 1): 1.0, (260, 2): 1.0, (299, 2): 1.0}

        def backflows(family, f, reduce, seed, lo, hi):
            values = np.zeros((hi - lo, 3))
            for (k, column), value in hot.items():
                if lo <= k < hi:
                    values[k - lo, column] = value
            return values

        fork = RecordingFork(monkeypatch)
        results = [self.search(monkeypatch, backflows, [10, 40, 90], workers) for workers in (1, 2)]
        assert fork.shares == [(256, 300)]
        assert multiprocessing.active_children() == []
        for best, first_k in results:
            assert best.tolist() == [1.0, 1.0, 1.0]
            assert first_k.tolist() == [10, 260, 260]

    def test_a_child_exception_is_raised_in_the_parent(self, monkeypatch):
        def backflows(family, f, reduce, seed, lo, hi):
            if lo >= 256:
                raise ZeroDivisionError(f"no pairs from {lo}")
            return np.zeros((hi - lo, 1))

        fork = RecordingFork(monkeypatch)
        with pytest.raises(ZeroDivisionError, match=r"^no pairs from 256$"):
            self.search(monkeypatch, backflows, None)
        assert fork.shares == [(256, 300)]
        assert multiprocessing.active_children() == []

    def test_a_child_that_exits_without_a_result_names_its_pairs(self, monkeypatch):
        def backflows(family, f, reduce, seed, lo, hi):
            if lo >= 256:
                os._exit(3)
            return np.zeros((hi - lo, 1))

        fork = RecordingFork(monkeypatch)
        with pytest.raises(RuntimeError, match=r"random pairs \[256, 300\) exited with code 3 "):
            self.search(monkeypatch, backflows, None)
        assert fork.shares == [(256, 300)]
        assert multiprocessing.active_children() == []

    def test_an_interrupted_parent_stops_every_child(self, monkeypatch):
        # The child would search for a minute; the parent's own share is
        # interrupted at once, and the child is terminated and joined.
        def backflows(family, f, reduce, seed, lo, hi):
            if lo >= 256:
                time.sleep(60.0)
            raise KeyboardInterrupt

        fork = RecordingFork(monkeypatch)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.search(monkeypatch, backflows, None)
        assert time.monotonic() - began < 30.0
        assert fork.shares == [(256, 300)]
        assert multiprocessing.active_children() == []

    def test_processes_are_capped_by_the_cpus_available(self, monkeypatch):
        # --workers 100000 --pairs 100000000 starts one process per CPU,
        # the parent included, each on a contiguous share of whole blocks.
        # The fake context starts none, and no pair is evolved.
        fork = RecordingFork(monkeypatch, start_processes=False)
        monkeypatch.setattr(measures, "_share_best", lambda *task: (np.zeros(1), np.array([task[-2]])))
        f, reduce = _kept_samples([self.FAMILY.magnitude(self.WINDOW)])
        # Where os.sched_getaffinity is missing, os.cpu_count() counts, or 1
        # when it is unknown.
        cases = ((6, "sched_getaffinity", lambda pid: set(range(6))), (3, "cpu_count", lambda: 3),
                 (1, "cpu_count", lambda: None))
        for cpus, name, count in cases:
            fork.shares.clear()
            if name == "cpu_count":
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, name, count)
            best, first_k = measures._random_search(self.FAMILY, f, reduce, 9, 10**8, 100_000)
            bounds = [0] + [lo for lo, _ in fork.shares] + [10**8]
            assert len(fork.shares) == cpus - 1
            assert fork.shares == list(zip(bounds[1:-1], bounds[2:]))
            assert all(lo % 256 == 0 for lo in bounds[:-1])
            assert (best.tolist(), first_k.tolist()) == ([0.0], [0])

    def test_a_one_process_search_imports_no_multiprocessing(self, tmp_path):
        script = (
            "import sys; from backflow import cli\n"
            f"cli.main(['fig1', '--pairs', '400', '--workers', '8', '--out', {str(tmp_path / 'a.csv')!r}])\n"
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(backflow.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestFig3:
    def test_variant_a_orderings(self):
        cfg = resolve_config("fig3a", None, {"theta_count": 15})
        header, rows = run_figure("fig3a", cfg)
        assert header == ["theta", "N", "F1", "F2"]
        arr = np.array(rows)
        theta1, theta2 = transition_thetas(10.0, 1.0, 1.5 * math.pi / 10)
        assert arr[0, 0] == pytest.approx(theta1, abs=1e-12)
        assert arr[-1, 0] == pytest.approx(theta2, abs=1e-12)
        assert arr[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert arr[-1, 1] == pytest.approx(0.0, abs=1e-9)
        half = arr[arr[:, 0] <= math.pi / 4 + 1e-12]
        assert np.all(np.diff(half[:, 1]) >= -1e-12)
        assert np.all(np.diff(half[:, 2]) <= 1e-12)
        assert np.all(np.diff(half[:, 3]) <= 1e-12)

    def test_variant_b_theta_independence(self):
        cfg = resolve_config("fig3b", None, {"theta_count": 15})
        _, rows = run_figure("fig3b", cfg)
        arr = np.array(rows)
        f1 = 0.5 * (1.0 + 1.0) * math.exp(-((2 * math.pi / 10) ** 2))
        f2 = 0.5 * (0.25 + 0.16) * math.exp(-((2 * math.pi / 10) ** 2))
        assert np.max(np.abs(arr[:, 2] - f1)) <= 1e-12
        assert np.max(np.abs(arr[:, 3] - f2)) <= 1e-12


_PRESETS = ((1.0, -1.0, 1.0), (-0.5, 0.4, 0.8))


def state_route_fidelity(c, apply, value) -> float:
    """The RSP fidelity through the public state functions: the Bell-diagonal
    state, the channel's action at the complex kappa or signed chi, its
    correlation matrix and the eigenvalues of C^T C."""
    return rsp_fidelity(correlation_matrix(apply(bell_diagonal(c), value)))


# Bell-diagonal triples: convex combinations of the tetrahedron's vertices,
# with the vertices themselves and the maximally mixed state.
_VERTICES = np.array([(1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, -1.0)])
_TRIPLES = st.sampled_from([tuple(v) for v in _VERTICES] + [(0.0, 0.0, 0.0)]) | st.lists(
    st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0).map(
    lambda w: tuple(np.clip(np.array(w) @ _VERTICES / sum(w), -1.0, 1.0)))
# |f| at 0 and 1 exactly, anywhere in [0, 1], and down to 1e-300.
_MAGNITUDES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | st.floats(1e-300, 1e-3)


class TestStackedFidelityFigures:
    """fig3a, fig3b and fig5 compute every row from the closed form of |f| at
    once; each row must equal, bit for bit, the closed form taken alone, and
    that must equal the state route."""

    @settings(max_examples=300, deadline=None)
    @given(_TRIPLES, _MAGNITUDES, st.floats(0.0, 2 * math.pi), st.booleans())
    def test_closed_form_equals_the_state_route(self, c, r, phase, negative):
        # Any phase of kappa and either sign of chi: the closed form reads |f| alone.
        for family, apply, value in ((DephasingChannel, apply_dephasing, r * complex(math.cos(phase), math.sin(phase))),
                                     (AmplitudeDampingChannel, apply_amplitude_damping, -r if negative else r)):
            closed = _preset_fidelities(family, abs(value), (c,))
            assert closed.shape == (1,)
            assert abs(closed[0] - state_route_fidelity(c, apply, value)) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.floats(1e-3, 3.0), st.floats(1.0, 40.0), st.floats(-5.0, 5.0))
    # A scalar tau_c once squared its envelope's exponent as a numpy scalar
    # power, one ulp off the array's product: fig3b F1 differed at 1e-14.
    @example(theta_count=1, sigma_over_dw=1.9043326620887626, delta_omega=1.0, omega1=0.0)
    def test_fig3_rows_equal_the_per_row_path(self, theta_count, sigma_over_dw, delta_omega, omega1):
        # Past sigma/dw ~ 3.8, u v = exp(5 (pi sigma/dw)**2) overflows at
        # tau_c = 2 pi/dw and fig3b refuses the transition angles.
        sigma = sigma_over_dw * delta_omega
        cfg = {"theta_count": theta_count, "sigma": sigma, "delta_omega": delta_omega, "omega1": omega1}
        for variant, tau_c in (("fig3a", 1.5 * math.pi / delta_omega), ("fig3b", 2.0 * math.pi / delta_omega)):
            rows = run_figure(variant, resolve_config(variant, None, cfg))[1]
            assert len(rows) == theta_count
            for theta, n_value, *fidelities in rows:
                # omega1 is not read: |kappa| depends on delta_omega alone.
                spec = DephasingSpec(float(theta), 0.0, delta_omega, sigma)
                assert n_value == analytic_blp_dephasing(spec, tau_c)
                kappa = kappa_abs(spec, tau_c)
                assert fidelities == _preset_fidelities(DephasingChannel, kappa).tolist()
                # The state route at the same |kappa|: abs(kappa_complex) can be
                # off by ~8e-16 (omega1 = -5, dw = 1), where kappa_abs is exact.
                assert fidelities == pytest.approx([state_route_fidelity(c, apply_dephasing, kappa) for c in _PRESETS],
                                                   rel=0, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.floats(1e-3, 1.999), st.floats(1e-3, 1.999), st.floats(0.01, 100.0))
    def test_fig5_rows_equal_the_per_row_path(self, ratio_count, ratio_min, ratio_max, gamma0):
        # README allows a descending grid (ratio_min > ratio_max).
        cfg = {"ratio_count": ratio_count, "ratio_min": ratio_min, "ratio_max": ratio_max, "gamma0": gamma0}
        rows = run_figure("fig5", resolve_config("fig5", None, cfg))[1]
        expected_ratios = np.linspace(ratio_min, ratio_max, ratio_count)
        assert [row[0] for row in rows] == expected_ratios.tolist()
        for ratio, n_value, *fidelities in rows:
            spec = LorentzSpec(gamma0=gamma0, width=float(ratio) * gamma0)
            chi_tc = chi(spec, 2.0 * math.pi / spec.epsilon)
            assert n_value == math.exp(-math.pi * spec.width / spec.epsilon)
            assert fidelities == _preset_fidelities(AmplitudeDampingChannel, abs(chi_tc)).tolist()
            assert fidelities == pytest.approx(
                [state_route_fidelity(c, apply_amplitude_damping, chi_tc) for c in _PRESETS], rel=0, abs=1e-15)

    def test_the_stacked_contraction_check_gives_the_per_row_message(self):
        rho = bell_diagonal(_PRESETS[0])
        for family, apply, values, bad in (
            (DephasingChannel, apply_dephasing, [0.5, 0.3j, 1.2 + 0.1j, 2.0], 1.2 + 0.1j),
            (AmplitudeDampingChannel, apply_amplitude_damping, [0.5, -1.0, -1.5, 3.0], -1.5),
        ):
            with pytest.raises(ValueError) as per_row:
                apply(rho, bad)
            with pytest.raises(ValueError) as stacked:
                _preset_fidelities(family, np.array(values))
            assert str(stacked.value) == str(per_row.value)
            assert "> 1: not a valid" in str(stacked.value)

    def test_no_eigensolve_and_no_channel_action_per_run(self, monkeypatch, capsys):
        # The fidelity figures, the fidelity command, divisibility and a pure
        # pair's trajectory read |f| alone: no eigvalsh, family.act or
        # kappa_complex.
        pure = optimal_pair(0.3, 1.1, "eta")  # validated (one eigvalsh) before the patches

        def refuse(*args, **kwargs):
            raise AssertionError("a spectrum, a channel action or a complex kappa was formed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for family in (DephasingChannel, AmplitudeDampingChannel):
            monkeypatch.setattr(family, "act", staticmethod(refuse))
        for module in (decoherence, channels, experiments):
            monkeypatch.setattr(module, "kappa_complex", refuse)
        for figure in ("fig3a", "fig3b", "fig5"):
            assert len(run_figure(figure, resolve_config(figure))[1]) in (20, 25)
        assert cli.main(["fidelity", "--c", "-0.5,0.4,0.8", "--kappa", "-0.5+0.1j"]) == 0
        assert capsys.readouterr().err == ""
        dephasing = DephasingChannel(DephasingSpec(math.pi / 8))
        lorentz = AmplitudeDampingChannel(LorentzSpec(1.0, 0.1))
        for family, t1 in ((dephasing, 2 * math.pi / 10), (lorentz, 30.0)):
            assert divisibility_measure(family, (0.0, t1), 4001).value > 0.0
            assert trace_distance_trajectory(family, pure, np.linspace(0.0, t1, 101)).values[0] > 0.0


class TestFig4:
    def test_ordering_and_pre_revival_zeros(self):
        cfg = resolve_config("fig4", None, TINY_FIG4)
        header, rows = run_figure("fig4", cfg)
        assert header == ["t_c", "integral_optimal", "integral_random_max"]
        arr = np.array(rows)
        assert np.all(arr[:, 2] <= arr[:, 1] + 1e-12)
        # Rows before the first zero of chi carry no backflow at all.
        eps = math.sqrt(abs(0.01 - 0.2))
        t_zero = 2.0 * (math.pi - math.atan(eps / 0.1)) / eps
        early = arr[arr[:, 0] < t_zero]
        assert early.size and np.max(early[:, 1:3]) == 0.0

    def test_revival_row_approaches_closed_form(self):
        # The kink of |chi| at its zero is off-grid, so the coarse-grid value
        # sits a few 1e-3 below exp(-pi G / eps) here.
        cfg = resolve_config("fig4", None, {"pairs": 10, "grid": 801})
        _, rows = run_figure("fig4", cfg)
        arr = np.array(rows)
        eps = math.sqrt(abs(0.01 - 0.2))
        t_rev = 2 * math.pi / eps
        row = arr[np.argmin(np.abs(arr[:, 0] - t_rev))]
        assert row[0] == pytest.approx(t_rev, abs=1e-9)
        assert row[1] == pytest.approx(math.exp(-math.pi * 0.1 / eps), abs=5e-3)


class TestFig5:
    def test_monotone_columns_and_revival_value(self):
        cfg = resolve_config("fig5")
        header, rows = run_figure("fig5", cfg)
        assert header == ["ratio", "N", "F1", "F2"]
        arr = np.array(rows)
        assert np.all(np.diff(arr[:, 1]) < 0.0)
        assert np.all(np.diff(arr[:, 2]) < 0.0)
        assert np.all(np.diff(arr[:, 3]) < 0.0)
        assert np.all((arr[:, 1] >= 0) & (arr[:, 2] >= 0) & (arr[:, 2] <= 1))
        assert np.all((arr[:, 3] >= 0) & (arr[:, 3] <= 1))
        cfg = resolve_config(
            "fig5", None, {"ratio_min": 0.1, "ratio_max": 0.5, "ratio_count": 2}
        )
        _, rows = run_figure("fig5", cfg)
        assert rows[0][1] == pytest.approx(0.4863966750707109, abs=1e-12)

    def test_lossless_limit(self):
        cfg = resolve_config(
            "fig5", None, {"ratio_min": 1e-6, "ratio_max": 1e-5, "ratio_count": 2}
        )
        _, rows = run_figure("fig5", cfg)
        assert rows[0][1] > 0.997
        assert rows[0][2] > 0.99  # F1 for (1,-1,1) approaches 1

    def test_rejects_grid_touching_endpoints(self):
        # The smallest and largest ratio are checked, so a descending grid
        # (ratio_min > ratio_max) cannot leave (0, 2) either.
        for bounds in ({"ratio_min": 0.0}, {"ratio_min": 2.5, "ratio_max": 0.5},
                       {"ratio_min": 1.0, "ratio_max": 0.0}, {"ratio_min": 1.5, "ratio_max": 2.0}):
            cfg = resolve_config("fig5", None, bounds)
            with pytest.raises(ValueError, match="inside"):
                run_figure("fig5", cfg)


class TestCsvAndMetadata:
    def test_format_and_rerun_identity(self, tmp_path):
        cfg = resolve_config("fig5", None, {"ratio_count": 5, "out": str(tmp_path / "a.csv")})
        header, rows = run_figure("fig5", cfg)
        write_csv(cfg["out"], header, rows)
        write_metadata(cfg["out"], "fig5", cfg)
        text = (tmp_path / "a.csv").read_text()
        assert "\r" not in text
        assert text.endswith("\n")
        assert text.splitlines()[0] == "ratio,N,F1,F2"
        # 17 significant digits reproduce the doubles exactly.
        value = float(text.splitlines()[1].split(",")[1])
        assert value == rows[0][1]
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["figure"] == "fig5"
        assert meta["seed"] == 42
        assert meta["config"]["ratio_count"] == 5
        assert meta["version"]

        header2, rows2 = run_figure("fig5", cfg)
        write_csv(tmp_path / "b.csv", header2, rows2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_each_value_is_written_as_its_17_digit_format(self, tmp_path):
        # What one format(float(x), ".17g") per value wrote.
        rows = [(0.1 + 0.2, -0.0), (5e-324, 1e300), (np.float64(math.pi), np.float64(-2.5e-17)), (7, 1.0)]
        write_csv(tmp_path / "v.csv", ["a", "b"], rows)
        assert (tmp_path / "v.csv").read_text().splitlines() == [
            "a,b", "0.30000000000000004,-0", "4.9406564584124654e-324,1.0000000000000001e+300",
            "3.1415926535897931,-2.4999999999999999e-17", "7,1",
        ]

    def test_a_non_finite_middle_row_is_named(self, monkeypatch):
        rows = [(np.float64(0.1), 1.0), (np.float64(0.2), np.float64(math.nan)), (np.float64(0.3), math.inf)]
        monkeypatch.setitem(experiments._RUNNERS, "fig5", lambda cfg: (["a", "b"], rows))
        with pytest.raises(ValueError) as raised:
            run_figure("fig5", {})
        assert str(raised.value) == f"non-finite value in fig5 row {rows[1]}"

    def test_a_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        out = tmp_path / "f.csv"
        meta = tmp_path / "f.csv.meta.json"
        for path in (out, meta):
            path.write_bytes(b"x" * 20000 + b"\n")
        write_csv(out, ["a", "b"], [(1.0, 2.0)])
        assert write_metadata(out, "fig5", {"seed": None}) == meta
        assert out.read_bytes() == b"a,b\n1,2\n"
        payload = {"figure": "fig5", "config": {"seed": None}, "version": backflow.__version__, "seed": None}
        assert meta.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_fresh_files_hold_what_write_text_wrote_with_the_mode_open_gives(self, tmp_path, umask):
        cfg = resolve_config("fig5", None, {"ratio_count": 4, "out": str(tmp_path / "new.csv")})
        header, rows = run_figure("fig5", cfg)
        csv_text = "\n".join([",".join(header), *(",".join(format(float(x), ".17g") for x in row) for row in rows)]) + "\n"
        payload = {"figure": "fig5", "config": cfg, "version": backflow.__version__, "seed": 42}
        meta_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        previous = os.umask(umask)
        try:
            write_csv(cfg["out"], header, rows)
            meta = write_metadata(cfg["out"], "fig5", cfg)
            (tmp_path / "old.csv").write_text(csv_text, newline="\n")
            (tmp_path / "old.csv.meta.json").write_text(meta_text, newline="\n")
            with open(tmp_path / "opened", "w"):
                pass
        finally:
            os.umask(previous)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert meta.read_bytes() == (tmp_path / "old.csv.meta.json").read_bytes()
        mode = (tmp_path / "opened").stat().st_mode
        assert (tmp_path / "new.csv").stat().st_mode == meta.stat().st_mode == mode == 0o100666 & ~umask

    def test_a_device_target_is_written_and_left_uncut(self):
        # ftruncate on a character device fails (EINVAL), so only a regular
        # file is cut to length.
        write_csv(os.devnull, ["a"], [(1.0,)] * 3)

    @pytest.mark.parametrize("where", ["a directory", "a missing directory"])
    def test_an_unwritable_out_exits_1_naming_it(self, tmp_path, capsys, where):
        out = tmp_path / "d" if where == "a directory" else tmp_path / "missing" / "f.csv"
        if where == "a directory":
            out.mkdir()
        assert cli.main(["fig5", "--ratio-count", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and repr(str(out)) in line
        assert not Path(str(out) + ".meta.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (["d"] if where == "a directory" else [])

    def test_a_shorter_rerun_through_main_equals_a_fresh_run(self, tmp_path, monkeypatch, capsys):
        # The same relative --out in two directories, so .meta.json records
        # the same path.
        written = []
        for runs in (("20", "3"), ("3",)):
            where = tmp_path / str(len(runs))
            where.mkdir()
            monkeypatch.chdir(where)
            for count in runs:
                assert cli.main(["fig5", "--ratio-count", count, "--out", "f.csv"]) == 0
            written.append(((where / "f.csv").read_bytes(), (where / "f.csv.meta.json").read_bytes()))
        assert capsys.readouterr().err == ""
        assert written[0] == written[1]
        assert written[0][0].count(b"\n") == 4

    def test_a_rewrite_never_opens_with_o_trunc(self, tmp_path, monkeypatch):
        # What makes a rewrite cheap: the open does not truncate the file.
        out = tmp_path / "f.csv"
        for path in (out, tmp_path / "f.csv.meta.json"):
            path.write_bytes(b"x" * 1000)
        opened = []
        real_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((Path(path).name, flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(experiments.os, "open", recording_open)
        write_csv(out, ["a"], [(1.0,)])
        write_metadata(out, "fig5", {})
        assert [name for name, _ in opened] == ["f.csv", "f.csv.meta.json"]
        assert all(flags & os.O_WRONLY and flags & os.O_CREAT for _, flags in opened)
        assert not any(flags & os.O_TRUNC for _, flags in opened)
        assert out.read_bytes() == b"a\n1\n"


class TestCli:
    def test_kappa_near_zero_example(self):
        out = run_cli("kappa", "--theta", "0.7854", "--dw", "10", "--sigma", "1",
                      "--tau", "0.31416")
        assert out.returncode == 0
        assert abs(float(out.stdout)) < 1e-4

    def test_chi_value(self):
        out = run_cli("chi", "--gamma0", "1", "--width", "0.1", "--t", "0")
        assert out.returncode == 0
        assert float(out.stdout) == 1.0

    def test_transition_values(self):
        out = run_cli("transition", "--dw", "10", "--sigma", "1", "--tauc", "0.62832")
        assert out.returncode == 0
        theta1, theta2 = (float(x) for x in out.stdout.split())
        assert theta1 == pytest.approx(0.26540914197793963, abs=1e-4)
        assert theta2 == pytest.approx(math.pi / 2 - theta1, abs=1e-6)

    def test_fidelity_value(self):
        out = run_cli("fidelity", "--c", "1,-1,1", "--kappa", "0.5")
        assert out.returncode == 0
        assert float(out.stdout) == pytest.approx(0.25, abs=1e-12)

    def test_fidelity_accepts_a_negative_triple_in_both_spellings(self):
        for kappa in ("0.5", "-0.5+0.1j"):
            expected = _preset_fidelities(DephasingChannel, abs(complex(kappa)), ((-0.5, 0.4, 0.8),))[0]
            for flags in (("--c", "-0.5,0.4,0.8"), ("--c=-0.5,0.4,0.8",)):
                out = run_cli("fidelity", *flags, "--kappa", kappa)
                assert out.returncode == 0, out.stderr
                assert float(out.stdout) == expected

    def test_negative_exponent_floats_attach_to_their_flag(self, tmp_path):
        kappa = ("kappa", "--theta", "0.3", "--dw", "10", "--sigma", "1")
        separate, joined = run_cli(*kappa, "--tau", "-1e-3"), run_cli(*kappa, "--tau=-1e-3")
        assert separate.returncode == joined.returncode == 0, separate.stderr
        assert separate.stdout == joined.stdout
        out_path = tmp_path / "f.csv"
        written = []
        for flags in (("--omega1", "-1e-3"), ("--omega1=-1e-3",)):
            out = run_cli("fig1", "--pairs", "3", "--grid", "101", "--rows", "2", *flags, "--out", str(out_path))
            assert out.returncode == 0, out.stderr
            written.append((out_path.read_bytes(), (tmp_path / "f.csv.meta.json").read_bytes()))
        assert written[0] == written[1]
        # -inf now reaches the finiteness check instead of argparse.
        out = run_cli("measure", "--measure", "blp", "--family", "dephasing", "--t1", "1", "--t0", "-inf")
        assert out.returncode == 1
        assert out.stderr.splitlines() == ["error: t0=-inf for measure must be a finite number"]

    def test_measure_divergence_prints_inf(self):
        out = run_cli(
            "measure", "--measure", "divisibility", "--family", "dephasing",
            "--theta", "0.7853981633974483", "--t1", "0.6283185307179586",
            "--grid", "4001",
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "inf"
        assert "divergent at" in out.stderr

    def test_measure_blp_matches_api(self):
        out = run_cli(
            "measure", "--measure", "blp", "--family", "lorentz",
            "--gamma0", "1", "--width", "0.1", "--t1", "14.414568",
            "--grid", "2001", "--pairs", "0",
        )
        assert out.returncode == 0
        assert float(out.stdout) == pytest.approx(0.48639, abs=5e-3)

    def test_malformed_flags_exit_nonzero_with_usage(self):
        out = run_cli("kappa", "--theta", "0.1")
        assert out.returncode != 0
        assert "usage" in out.stderr.lower()
        out = run_cli("fidelity", "--c", "1,-1", "--kappa", "0.5")
        assert out.returncode == 1
        assert out.stderr.startswith("error:")

    def test_figure_command_writes_csv_and_metadata(self, tmp_path):
        out_path = tmp_path / "fig5.csv"
        out = run_cli("fig5", "--ratio-count", "4", "--out", str(out_path))
        assert out.returncode == 0
        assert out.stdout.strip() == str(out_path)
        header, arr = read_table(out_path)
        assert header == ["ratio", "N", "F1", "F2"]
        assert arr.shape == (4, 4)
        assert (tmp_path / "fig5.csv.meta.json").exists()

    def test_unknown_config_key_exits_with_one_error_line(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"sigmaa": 2}))
        out = run_cli("fig3a", "--config", str(cfg_file), "--out", str(tmp_path / "f.csv"))
        assert out.returncode == 1
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "'sigmaa'" in lines[0]
        assert not (tmp_path / "f.csv").exists()

    def test_non_object_config_section_exits_with_one_error_line(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"fig3a": 3}))
        out = run_cli("fig3a", "--config", str(cfg_file), "--out", str(tmp_path / "f.csv"))
        assert out.returncode == 1
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "'fig3a'" in lines[0] and str(cfg_file) in lines[0]
        assert not (tmp_path / "f.csv").exists()

    def test_empty_random_column_exits_with_one_error_line(self, tmp_path):
        for figure in ("fig1", "fig4"):
            out = run_cli(figure, "--pairs", "0", "--out", str(tmp_path / "f.csv"))
            assert out.returncode == 1
            lines = out.stderr.splitlines()
            assert len(lines) == 1
            assert lines[0] == "error: pairs=0 must be at least 1"
            assert not (tmp_path / "f.csv").exists()

    def test_degenerate_sizes_exit_with_one_error_line(self, tmp_path):
        out = run_cli("fig2", "--pairs", "-1", "--out", str(tmp_path / "f.csv"))
        assert out.returncode == 1
        assert out.stderr.splitlines() == ["error: pairs=-1 must be at least 0"]
        assert not (tmp_path / "f.csv").exists()
        out = run_cli("measure", "--measure", "blp", "--family", "dephasing",
                      "--t1", "0.6283185307179586", "--pairs", "-1")
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.splitlines() == ["error: pairs=-1 must be at least 0"]
        for measure in ("blp", "divisibility", "entanglement", "mutual-info"):
            out = run_cli("measure", "--measure", measure, "--family", "dephasing",
                          "--t1", "0.6283185307179586", "--grid", "1")
            assert out.returncode == 1
            assert out.stdout == ""
            assert out.stderr.splitlines() == ["error: grid=1 must be at least 2"]

    def test_fig4_rejects_width_ratio_outside_the_revival_regime(self, tmp_path):
        for ratio in ("0", "-0.1", "2.0", "2.5"):
            out = run_cli("fig4", "--ratio", ratio, "--pairs", "3", "--grid", "101", "--rows", "3",
                          "--out", str(tmp_path / "f.csv"))
            assert out.returncode == 1
            lines = out.stderr.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("error: width_ratio=") and "(0, 2)" in lines[0]
            assert not (tmp_path / "f.csv").exists()

    def test_fig2_has_no_candidate_grid_or_theta_flag(self, tmp_path):
        # fig2's optimal column is the increment sum of |kappa|, so it has no
        # candidate grid to size, by flag or by config key.
        sizes = ["--grid", "101", "--tauc-count", "2", "--theta-count", "3"]
        out = run_cli("fig2", *sizes, "--alpha-count", "3", "--out", str(tmp_path / "flags.csv"))
        assert out.returncode == 2
        assert "unrecognized arguments: --alpha-count 3" in out.stderr
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"fig2": {"alpha_count": 3}}))
        out = run_cli("fig2", *sizes, "--config", str(cfg_file), "--out", str(tmp_path / "config.csv"))
        assert out.returncode == 1
        assert out.stderr.splitlines() == [f"error: unknown option 'alpha_count' in config file {cfg_file}"]
        assert not (tmp_path / "flags.csv").exists() and not (tmp_path / "config.csv").exists()
        # fig2 sweeps its own theta grid, so it has no --theta, and --theta is
        # not read as an abbreviation of --theta-count either.
        for value in ("0.3", "3"):
            out = run_cli("fig2", *sizes, "--theta", value, "--out", str(tmp_path / "theta.csv"))
            assert out.returncode == 2
            assert "unrecognized arguments: --theta" in out.stderr
            assert not (tmp_path / "theta.csv").exists()

    def test_fig3_has_no_theta_flag(self, tmp_path):
        # fig3a/fig3b sweep their own theta window, so they have no --theta.
        for figure in ("fig3a", "fig3b"):
            out = run_cli(figure, "--theta", "0.3", "--out", str(tmp_path / "f.csv"))
            assert out.returncode == 2
            assert "unrecognized arguments: --theta" in out.stderr
            assert not (tmp_path / "f.csv").exists()

    def test_seed_and_workers_only_where_the_runner_reads_them(self, tmp_path, capsys):
        for figure, flag in (("fig2", "--workers"), ("fig3a", "--seed"), ("fig3a", "--workers"),
                             ("fig3b", "--seed"), ("fig3b", "--workers"), ("fig5", "--seed"), ("fig5", "--workers")):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([figure, flag, "2", "--out", str(tmp_path / "f.csv")])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
            assert not (tmp_path / "f.csv").exists()
        # Every config still carries both keys, so .meta.json keeps them.
        assert cli.main(["fig5", "--ratio-count", "2", "--out", str(tmp_path / "f.csv")]) == 0
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        assert (meta["seed"], meta["config"]["seed"], meta["config"]["workers"]) == (42, 42, 1)

    def test_non_finite_values_exit_with_one_error_line(self, tmp_path):
        out_path = tmp_path / "f.csv"
        for argv, line in ((("fig3a", "--sigma", "nan"), "error: sigma=nan for fig3a must be a finite number"),
                           (("fig5", "--ratio-min", "nan"), "error: ratio_min=nan for fig5 must be a finite number"),
                           (("fig1", "--sigma", "inf"), "error: sigma=inf for fig1 must be a finite number")):
            out = run_cli(*argv, "--out", str(out_path))
            assert out.returncode == 1
            assert out.stderr.splitlines() == [line]
            assert not out_path.exists()
        # Python's json reads NaN and Infinity in a config file too.
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text('{"fig4": {"tc_stop": -Infinity}}')
        out = run_cli("fig4", "--config", str(cfg_file), "--out", str(out_path))
        assert out.returncode == 1
        assert out.stderr.splitlines() == [f"error: tc_stop=-inf in config file {cfg_file} must be a finite number"]
        assert not out_path.exists()

    @pytest.mark.parametrize("loaded", [
        {"grid": "abc"}, {"grid": 401.7}, {"grid": None}, {"theta": "x"}, {"workers": True}, {"seed": 1.5},
    ])
    def test_mistyped_config_value_exits_with_one_error_line(self, tmp_path, loaded):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps(loaded))
        out = run_cli("fig1", "--config", str(cfg_file), "--out", str(tmp_path / "f.csv"))
        assert out.returncode == 1
        [key] = loaded
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {key}=") and str(cfg_file) in lines[0]
        assert not (tmp_path / "f.csv").exists()

    def test_config_values_of_the_right_type_run_as_given(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        out_path = tmp_path / "f.csv"
        for key, value in (("sigma", 1), ("tauc_start", None)):
            cfg_file.write_text(json.dumps({key: value}))
            out = run_cli("fig1", "--config", str(cfg_file), *"--pairs 3 --grid 101 --rows 2".split(),
                          "--out", str(out_path))
            assert out.returncode == 0, out.stderr
            recorded = json.loads((tmp_path / "f.csv.meta.json").read_text())["config"][key]
            assert recorded == value and type(recorded) is type(value)

    @pytest.mark.parametrize("argv, line", [
        (("fig4", "--gamma0", "1e300"), "error: width=1e+299 and gamma0=1e+300 overflow width**2 - 2*gamma0*width"),
        (("fig5", "--gamma0", "1e300"), "error: width=1e+297 and gamma0=1e+300 overflow width**2 - 2*gamma0*width"),
        (("chi", "--gamma0", "1e300", "--width", "1e300", "--t", "1"),
         "error: width=1e+300 and gamma0=1e+300 overflow width**2 - 2*gamma0*width"),
        (("measure", "--measure", "divisibility", "--family", "lorentz", "--width", "1e200", "--t1", "1"),
         "error: width=1e+200 and gamma0=1.0 overflow width**2 - 2*gamma0*width"),
        (("transition", "--dw", "10", "--sigma", "100", "--tauc", "0.5"),
         "error: sigma=100.0 and tau_c=0.5 overflow the transition-angle equation"),
        (("transition", "--dw", "10", "--sigma", "50", "--tauc", "0.5"),
         "error: sigma=50.0 and tau_c=0.5 overflow the transition-angle equation"),
        (("fig3a", "--sigma", "100"), f"error: sigma=100.0 and tau_c={1.5 * math.pi / 10} overflow the transition-angle equation"),
        # No spec is formed from omega1 + dw, which overflowed here; so a huge
        # dw reaches the values it breaks, and those are named.
        (("kappa", "--theta", "0.3", "--omega1", "1e308", "--dw", "1e308", "--sigma", "1", "--tau", "1e308"),
         "error: |kappa| is not finite at tau=1e+308"),
        (("fig1", "--omega1", "1e308", "--dw", "1e308", "--tauc-stop", "1", "--pairs", "3", "--grid", "101",
          "--rows", "2"),
         f"error: tauc_start={1.2 * math.pi / 1e308} must be at least one grid step into the window: "
         "at grid=101 the step is 0.0111111"),
        (("measure", "--measure", "blp", "--family", "dephasing", "--omega1", "1e308", "--dw", "1e308",
          "--t1", "1", "--grid", "11"),
         "error: grid=11 is too coarse: its step 0.1 is not below 3.14159e-308, half the period of |f|"),
        # Before, these printed nan or 0.
        (("kappa", "--theta", "0.3", "--dw", "10", "--sigma", "1", "--tau", "1e308"),
         "error: |kappa| is not finite at tau=1e+308"),
        *((("measure", "--measure", measure, "--family", "dephasing", "--t1", "1e308", "--grid", "11"),
           f"error: |f| is not finite at t={time}")
          for measure, time in (("blp", "4e+307"), ("entanglement", "4e+307"), ("mutual-info", "4e+307"),
                                ("divisibility", "4e+307"))),
        # (pi sigma / dw)**2 overflows too: fig2 names sigma as fig3a does.
        (("fig2", "--sigma", "1e200"), f"error: sigma=1e+200 and tau_c={1.2 * math.pi / 10} overflow the transition-angle equation"),
        (("fig2", "--dw", "1e-160"), f"error: sigma=1.0 and tau_c={1.2 * math.pi / 1e-160} overflow the transition-angle equation"),
        # Every transition angle is found before the pair search checks the seed.
        (("fig2", "--sigma", "100", "--seed", "-1"),
         f"error: sigma=100.0 and tau_c={1.2 * math.pi / 10} overflow the transition-angle equation"),
    ])
    # A numpy warning, raised here, would be a second line on stderr.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_parameters_are_named(self, argv, line, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(list(argv)) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [line]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("kappa", "--theta", "0.7", "--dw", "0.3", "--sigma", "0.1", "--tau", "7"),
        ("measure", "--measure", "entanglement", "--family", "dephasing", "--dw", "0.3", "--sigma", "0.1",
         "--t1", "40"),
        ("fig1", "--dw", "0.3", "--sigma", "0.1", "--pairs", "3", "--grid", "401", "--rows", "3"),
        ("fig2", "--dw", "0.3", "--sigma", "0.1", "--grid", "401", "--theta-count", "3", "--tauc-count", "2"),
        ("fig3a", "--dw", "0.3", "--sigma", "0.1"),
    ])
    def test_omega1_changes_no_output(self, argv, tmp_path, monkeypatch, capsys):
        # |kappa| depends on dw, sigma and theta, not on omega1; forming
        # omega2 = omega1 + dw would round dw (0.3 to 0.25 at omega1 = 1e15).
        monkeypatch.chdir(tmp_path)
        outputs = []
        for omega1 in ((), ("--omega1", "1e15")):
            assert cli.main([*argv, *omega1]) == 0
            csv = tmp_path / f"{argv[0]}.csv"
            outputs.append((capsys.readouterr(), csv.read_bytes() if csv.exists() else None))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("measure", ["blp", "divisibility", "entanglement", "mutual-info"])
    def test_a_grid_too_coarse_for_the_oscillation_is_named(self, measure, tmp_path, monkeypatch, capsys):
        # At grid 101 the step (0.01) spans ~1600 periods of 2 pi/dw: the
        # sum of positive increments aliased (blp printed 21.98, and 117829
        # at grid 1000001).  Dephasing needs a step below pi/dw, underdamped
        # Lorentz below pi/eps; overdamped and critical windows have no bound.
        dephasing = ("measure", "--measure", measure, "--family", "dephasing", "--dw", "1e6", "--t1", "1")
        self.test_overflowing_parameters_are_named(
            (*dephasing, "--grid", "101"),
            "error: grid=101 is too coarse: its step 0.01 is not below 3.14159e-06, half the period of |f|",
            tmp_path, monkeypatch, capsys)
        lorentz = ("measure", "--measure", measure, "--family", "lorentz", "--width", "0.1", "--t1", "100")
        self.test_overflowing_parameters_are_named(
            (*lorentz, "--grid", "11"),
            "error: grid=11 is too coarse: its step 10 is not below 7.20731, half the period of |f|",
            tmp_path, monkeypatch, capsys)
        # A step of exactly pi/dw samples |kappa| at its extremes only.
        self.test_overflowing_parameters_are_named(
            (*dephasing[:5], "--dw", "1", "--t1", repr(4 * math.pi), "--grid", "5"),
            "error: grid=5 is too coarse: its step 3.14159 is not below 3.14159, half the period of |f|",
            tmp_path, monkeypatch, capsys)
        for argv in ((*dephasing, "--grid", "318400"), (*lorentz, "--grid", "15"),
                     (*lorentz[:5], "--width", "3", "--t1", "100", "--grid", "3"),
                     (*lorentz[:5], "--width", "2", "--t1", "100", "--grid", "3")):
            assert cli.main(list(argv)) == 0
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, line", [
        # Before, fig1 printed 0.90471502618495891 on its last row, where grid
        # 100001 gives 1.5320396175312363.
        (("fig1", "--grid", "101", "--tauc-start", "3", "--tauc-stop", "30", "--pairs", "3", "--rows", "3"),
         "error: grid=101 is too coarse: its step 0.333333 is not below 0.314159, half the period of |f|"),
        # Before, 0.24674339232737252 on every row, against 0.7229502621235252 at grid 40001.
        (("fig4", "--grid", "5", "--tc-start", "20", "--tc-stop", "36", "--pairs", "3", "--rows", "3"),
         "error: grid=5 is too coarse: its step 9 is not below 7.20731, half the period of |f|"),
        # Before, N_numeric 0 on all 85 rows; blp_search refuses each window.
        (("fig2", "--grid", "2"),
         "error: grid=2 is too coarse: its step 0.628319 is not below 0.314159, half the period of |f|"),
        # Before, two numpy RuntimeWarnings and a table of zeros.
        (("fig1", "--tauc-start", "1e308", "--tauc-stop", "1.5e308", "--pairs", "3", "--rows", "2"),
         "error: |f| is not finite at t=3.595833333333333e+307"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_a_figure_refuses_what_measure_refuses(self, argv, line, tmp_path, monkeypatch, capsys):
        # A grid too coarse for |f|, or a non-finite |f|, writes neither a CSV
        # nor a .meta.json.
        self.test_overflowing_parameters_are_named(argv, line, tmp_path, monkeypatch, capsys)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.builds(lambda theta, start, stop, grid, rows: ("fig1", {
            "theta": theta, "tauc_start": start * stop, "tauc_stop": stop, "grid": grid, "rows": rows, "pairs": 2}),
            st.floats(0.0, math.pi / 2), st.floats(0.6, 1.0), st.floats(0.05, 40.0), st.integers(2, 100),
            st.integers(1, 5)),
        st.builds(lambda ratio, start, stop, grid, rows: ("fig4", {
            "width_ratio": ratio, "tc_start": start * stop, "tc_stop": stop, "grid": grid, "rows": rows, "pairs": 2}),
            st.floats(0.01, 1.9), st.floats(0.6, 1.0), st.floats(1.0, 200.0), st.integers(2, 100),
            st.integers(1, 5)),
        st.builds(lambda sigma_over_dw, dw, tauc_count, grid: ("fig2", {
            "sigma": sigma_over_dw * dw, "delta_omega": dw, "tauc_count": tauc_count, "theta_count": 3,
            "grid": grid}),
            st.floats(1e-3, 1.0), st.floats(1.0, 40.0), st.integers(1, 6), st.integers(2, 8)),
    ))
    # A step of exactly pi/dw (grid 3 over the longest window, 2 pi/dw) is refused; grid 4 runs.
    @example(("fig2", {"tauc_count": 5, "theta_count": 3, "grid": 3}))
    @example(("fig2", {"tauc_count": 5, "theta_count": 3, "grid": 4}))
    def test_a_figure_is_refused_exactly_where_its_longest_step_is_too_coarse(self, case):
        # Refused, naming grid and writing nothing, if and only if the step of
        # its longest window is not below half the period of |f|; otherwise
        # it writes its table.
        figure, overrides = case
        cfg = resolve_config(figure, None, overrides)
        if figure == "fig4":
            family = AmplitudeDampingChannel(LorentzSpec(cfg["gamma0"], cfg["width_ratio"] * cfg["gamma0"]))
            longest = cfg["tc_stop"]
        else:
            family = DephasingChannel(DephasingSpec(0.0, cfg["omega1"], cfg["omega1"] + cfg["delta_omega"],
                                                    cfg["sigma"]))
            dw = cfg["delta_omega"]
            longest = (cfg["tauc_stop"] / 0.9 if figure == "fig1"
                       else np.linspace(1.2 * math.pi / dw, 2.0 * math.pi / dw, cfg["tauc_count"])[-1])
        refused = not longest / (cfg["grid"] - 1) < measures._HALF_PERIODS[type(family)](family.spec)
        event(f"{figure} refused" if refused else f"{figure} written")
        with tempfile.TemporaryDirectory() as tmp:
            out, err = io.StringIO(), io.StringIO()
            argv = [figure, *(f"{cli._flags(k)[0]}={v}" for k, v in overrides.items()), "--out", f"{tmp}/f.csv"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if refused:
                assert code == 1 and out.getvalue() == ""
                assert err.getvalue().startswith(f"error: grid={cfg['grid']} is too coarse: ")
                assert len(err.getvalue().splitlines()) == 1 and os.listdir(tmp) == []
            else:
                assert (code, err.getvalue()) == (0, "")
                assert sorted(os.listdir(tmp)) == ["f.csv", "f.csv.meta.json"]

    @pytest.mark.parametrize("argv, line", [
        (("fig4", "--gamma0", "1e-300"), "error: width=1e-301 and gamma0=1e-300 underflow width**2 - 2*gamma0*width"),
        (("fig5", "--gamma0", "1e-300"),
         "error: width=1.0000000000000001e-303 and gamma0=1e-300 underflow width**2 - 2*gamma0*width"),
        (("chi", "--gamma0", "1e-300", "--width", "1e-301", "--t", "1"),
         "error: width=1e-301 and gamma0=1e-300 underflow width**2 - 2*gamma0*width"),
    ])
    def test_underflowing_parameters_are_named(self, argv, line, tmp_path, monkeypatch, capsys):
        self.test_overflowing_parameters_are_named(argv, line, tmp_path, monkeypatch, capsys)

    # A numpy warning, raised here, would be a line on stderr.
    @pytest.mark.filterwarnings("error")
    def test_huge_and_tiny_parameter_ratios_run_without_a_stderr_line(self, tmp_path, capsys):
        # A width far below gamma0 oscillates, and no rate is squared, so
        # gamma0 = 1e160 runs; where sigma t overflows its square the
        # envelope takes its limit 0, so fig1's integrals are 0.
        sizes = ("--pairs", "3", "--grid", "101", "--rows", "2", "--out", str(tmp_path / "f.csv"))
        for argv, printed in ((("chi", "--gamma0", "1", "--width", "4e-13", "--t", "2e6"), 0.62597),
                              (("measure", "--measure", "entanglement", "--family", "lorentz", "--gamma0", "1",
                                "--width", "4e-13", "--t1", "2e7"), 2.786),
                              (("chi", "--gamma0", "1e160", "--width", "1e-200", "--t", "1"), 1.0),
                              (("fig4", "--gamma0", "1e160", "--ratio", "1e-200", *sizes), None),
                              (("fig1", "--sigma", "1e200", *sizes), None)):
            assert cli.main(list(argv)) == 0
            out = capsys.readouterr()
            assert out.err == ""
            if printed is not None:
                assert float(out.out) == pytest.approx(printed, abs=1e-3)
        _, arr = read_table(tmp_path / "f.csv")
        assert arr.shape == (2, 3) and np.all(arr[:, 1:] == 0.0)

    @pytest.mark.parametrize("argv, code, line", [
        ((), 2, "backflow: error: the following arguments are required: command"),
        (("-h",), 0, None),
        (("--help",), 0, None),
        (("fig9",), 2, "backflow: error: argument command: invalid choice: 'fig9' (choose from"),
        (("--", "fig3a"), 2, "backflow: error: argument command: invalid choice: '--' (choose from"),
        (("fig5", "--seed", "3"), 2, "backflow fig5: error: unrecognized arguments: --seed 3"),
    ])
    def test_usage_paths_keep_their_exit_codes_and_messages(self, argv, code, line, capsys):
        # An argv that names no command goes to the top-level parser; a
        # command's own parser names an unrecognized flag.
        with pytest.raises(SystemExit) as exit_info:
            cli.main(list(argv))
        assert exit_info.value.code == code
        out = capsys.readouterr()
        if line is None:
            assert (out.out, out.err) == (cli._parsers()[0].format_help(), "")
        else:
            assert out.out == "" and out.err.splitlines()[-1].startswith(line)

    def test_fig5_rejects_a_descending_grid_leaving_the_domain(self, tmp_path):
        out = run_cli("fig5", "--ratio-min", "2.5", "--ratio-max", "0.5", "--ratio-count", "3",
                      "--out", str(tmp_path / "f.csv"))
        assert out.returncode == 1
        assert out.stderr.splitlines() == ["error: ratio grid must stay strictly inside (0, 2)"]
        assert not (tmp_path / "f.csv").exists()

    def test_negative_seed_exits_with_one_error_line(self, tmp_path):
        sizes = ("--pairs", "3", "--grid", "101", "--rows", "2", "--out", str(tmp_path / "f.csv"))
        for argv, seed in ((("fig1", "--seed", "-1", *sizes), -1),
                           (("fig4", "--seed", "-2", *sizes), -2),
                           (("measure", "--measure", "blp", "--family", "dephasing",
                             "--t1", "0.6283185307179586", "--grid", "101", "--pairs", "3", "--seed", "-1"), -1)):
            out = run_cli(*argv)
            assert out.returncode == 1
            assert out.stdout == ""
            assert out.stderr.splitlines() == [f"error: seed={seed} must be at least 0"]
            assert not (tmp_path / "f.csv").exists()

    # Each flag's error, in the figures' form: the key, its value and the command.
    NON_FINITE_NAMED = {
        "--tau": "tau=nan for kappa", "--t": "t=inf for chi", "--sigma": "sigma=nan for transition",
        "--width": "width=inf for measure", "--kappa": "kappa=(nan+1j) for fidelity", "--dw": "delta_omega=nan for kappa",
    }

    @pytest.mark.parametrize("argv, flag", [
        (("kappa", "--theta", "0.3", "--dw", "10", "--sigma", "1", "--tau", "nan"), "--tau"),
        (("chi", "--gamma0", "1", "--width", "0.1", "--t", "inf"), "--t"),
        (("transition", "--dw", "10", "--sigma", "nan", "--tauc", "0.4"), "--sigma"),
        (("measure", "--measure", "divisibility", "--family", "lorentz", "--width", "inf",
          "--t1", "30", "--grid", "101"), "--width"),
        (("fidelity", "--c", "1,-1,1", "--kappa", "nan+1j"), "--kappa"),
        (("kappa", "--theta", "0.3", "--dw", "nan", "--sigma", "1", "--tau", "0.5"), "--dw"),
    ])
    def test_non_finite_flags_of_the_other_commands_are_named(self, argv, flag):
        out = run_cli(*argv)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.splitlines() == [f"error: {self.NON_FINITE_NAMED[flag]} must be a finite number"]

    def test_no_state_carries_between_main_calls(self, tmp_path, capsys):
        out_path = tmp_path / "f.csv"
        sizes = ["--pairs", "3", "--grid", "101", "--rows", "2", "--out", str(out_path)]

        def recorded_seed():
            return json.loads((tmp_path / "f.csv.meta.json").read_text())["seed"]

        assert cli.main(["fig1", "--seed", "7", *sizes]) == 0
        assert recorded_seed() == 7
        assert cli.main(["fig1", *sizes]) == 0
        assert recorded_seed() == 42
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig1", "--seed", "9", "--theta", *sizes])
        assert exit_info.value.code == 2
        assert cli.main(["fig1", *sizes]) == 0
        assert recorded_seed() == 42
        capsys.readouterr()
        assert cli.main(["chi", "--gamma0", "1", "--width", "0.1", "--t", "0"]) == 0
        assert capsys.readouterr().out == "1\n"
        # main reuses one parser; build_parser still returns a new one.
        assert cli._parsers()[0] is cli._parsers()[0]
        assert cli.build_parser() is not cli.build_parser()

    def test_fidelity_parse_errors_name_the_flag(self):
        for flags, name in ((("--c", "1,a,1", "--kappa", "0.5"), "--c"),
                            (("--c", "1,-1,1", "--kappa", "abc"), "--kappa")):
            out = run_cli("fidelity", *flags)
            assert out.returncode == 1
            lines = out.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error: {name} expects ")

    def test_figure_command_respects_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"fig5": {"ratio_count": 3}}))
        out_path = tmp_path / "f.csv"
        out = run_cli("fig5", "--config", str(cfg_file), "--out", str(out_path))
        assert out.returncode == 0
        _, arr = read_table(out_path)
        assert arr.shape == (3, 4)


# The exit contract's floats: magnitudes log-uniform over 1e-310..1e308, the
# range where the defaults live, and the values that break a formula.
CONTRACT_FLOATS = (st.floats(math.log(1e-310), math.log(1e308)).map(math.exp) | st.floats(0.0, 2.0)
                   | st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e-310, -1.0, math.nan, math.inf, -math.inf]))
# Upper bounds of the integer keys; every other one is at most 4.
CONTRACT_INTS = {"grid": 401, "pairs": 3, "seed": 5, "workers": 2}


@st.composite
def contract_argvs(draw):
    """A command and a value for each of its keys, as ``command_keys`` types
    them, with no --out: the test writes under a temporary directory."""
    command = draw(st.sampled_from([*FIGURES, *experiments._COMMANDS]))
    argv = [command]
    for key, entry in command_keys(command).items():
        kind = str if isinstance(entry, tuple) else entry if isinstance(entry, type) else type(entry)
        required = command not in FIGURES and isinstance(entry, (type, tuple))
        # Integer keys are sizes and seeds: always given, so the sizes stay small.
        if key == "out" or (kind is not int and not required and draw(st.booleans())):
            continue
        if isinstance(entry, tuple):
            value = draw(st.sampled_from(entry))
        elif key == "c":
            value = ",".join(repr(draw(CONTRACT_FLOATS)) for _ in range(3))
        elif key == "kappa" and command == "fidelity":
            value = repr(draw(CONTRACT_FLOATS | st.builds(complex, CONTRACT_FLOATS, CONTRACT_FLOATS)))
        elif kind is int:
            value = draw(st.integers(-1, CONTRACT_INTS.get(key, 4)))
        else:
            value = repr(draw(CONTRACT_FLOATS))
        argv += [cli._flags(key)[0], str(value)]
    return argv


def names(line: str, key: str) -> bool:
    """Whether the error ``line`` names ``key``: as a word, or without its
    underscores (``transition``'s key ``tauc`` is the library's ``tau_c``)."""
    words = set()
    for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", line):
        words |= {word, word.replace("_", "")}
    return key in words or key.replace("_", "") in words


class TestExitContract:
    """Every command exits 0 with finite output (or ``measure``'s divergent
    ``inf``), or exits 1 with exactly one ``error:`` line that names a key of
    the command (or ``t=`` or ``grid``) and writes no file; no numpy warning
    reaches stderr.  An example's ``expect`` pins more: the value printed,
    or the keys the error names."""

    @settings(max_examples=250, deadline=None)
    @given(argv=contract_argvs(), expect=st.none())
    @example(argv=["chi", "--gamma0", "1", "--width", "3", "--t", "1000"],
             expect=math.exp(overdamped_chi_log(1.0, 3.0, 1000.0)))
    @example(argv=["chi", "--gamma0", "1", "--width", "3", "--t", "500"],
             expect=math.exp(overdamped_chi_log(1.0, 3.0, 500.0)))
    @example(argv=["measure", "--measure", "blp", "--family", "lorentz", "--width", "3", "--t1", "1000",
                   "--grid", "11"], expect=0.0)
    @example(argv=["fig1", "--tauc-start", "1e308", "--tauc-stop", "1.7e308", "--pairs", "3", "--rows", "2"],
             expect=("tauc_stop",))
    @example(argv=["fig1", "--dw", "5e-324", "--sigma", "1e-320", "--pairs", "3", "--grid", "401"],
             expect=("delta_omega",))
    @example(argv=["fig3a", "--dw", "0"], expect=("delta_omega",))
    @example(argv=["fig3b", "--dw", "0"], expect=("delta_omega",))
    @example(argv=["fig2", "--dw", "0"], expect=("delta_omega",))
    @example(argv=["fig2", "--dw", "-0.0"], expect=("delta_omega",))
    @example(argv=["fig2", "--dw", "1e-320", "--tauc-count", "2", "--grid", "401"], expect=("delta_omega",))
    @example(argv=["fig4", "--gamma0", "1e-295", "--ratio", "1e-30"], expect=("width_ratio", "gamma0"))
    @example(argv=["fig3a", "--sigma", "1e-44"], expect=("sigma", "delta_omega"))
    @example(argv=["transition", "--dw", "10", "--sigma", "1e-44", "--tauc", "0.4"],
             expect=("sigma", "delta_omega", "tauc"))
    @example(argv=["measure", "--measure", "blp", "--family", "dephasing", "--t1", "0.6", "--pairs", "-1"],
             expect=("pairs",))
    @example(argv=["measure", "--measure", "divisibility", "--family", "dephasing", "--t1", "0.6", "--grid", "1"],
             expect=("grid",))
    @example(argv=["fig1", "--tauc-start", "1e-9", "--tauc-stop", "1", "--grid", "401", "--pairs", "3"],
             expect=("tauc_start", "grid"))
    @example(argv=["fig4", "--tc-start", "1e-9", "--tc-stop", "1", "--grid", "401", "--pairs", "3"],
             expect=("tc_start", "grid"))
    # |kappa| depends on dw, not on omega1; omega1 + dw would round dw to 16.
    @example(argv=["kappa", "--theta", "0.7", "--dw", "10", "--sigma", "1", "--tau", "0.3", "--omega1", "1e17"],
             expect=0.17562282310010688)
    def test_every_command_answers_or_names_its_input(self, argv, expect):
        command = argv[0]
        with tempfile.TemporaryDirectory() as tmp:
            out_path = Path(tmp) / "f.csv"
            if command in FIGURES:
                argv = [*argv, "--out", str(out_path)]
            stdout, stderr = io.StringIO(), io.StringIO()
            # Recorded, not raised: under tier-1's error::RuntimeWarning a
            # warning would become an ordinary error line.
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = cli.main(argv)
            assert [str(w.message) for w in caught] == []
            lines = stderr.getvalue().splitlines()
            if code == 1:
                assert stdout.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), lines
                assert any(names(lines[0], key) for key in [*command_keys(command), "t", "grid"]), lines[0]
                assert all(names(lines[0], key) for key in expect or ()), lines[0]
                assert list(Path(tmp).iterdir()) == []
                assert not isinstance(expect, float)
                return
            assert code == 0 and not isinstance(expect, tuple), lines
            if command in FIGURES:
                assert (stdout.getvalue(), lines) == (f"{out_path}\n", [])
                assert np.isfinite(read_table(out_path)[1]).all()
                assert (Path(tmp) / "f.csv.meta.json").exists()
                return
            values = [float(x) for x in stdout.getvalue().split()]
            if lines:  # the one non-finite output: a divergent measure
                assert (command, values, len(lines)) == ("measure", [math.inf], 1)
                assert lines[0].startswith("divergent at t=") and math.isfinite(float(lines[0][15:]))
            else:
                assert values and np.isfinite(values).all()
            if expect is not None:
                assert values == pytest.approx([expect], rel=1e-12, abs=0.0)


class TestPackage:
    # The top-level names before __all__ was derived from the submodules,
    # less the test-only partial operations, trace distance and quadrature.
    EXPORTS = {
        "__version__", "AmplitudeDampingChannel", "ChannelFamily", "DephasingChannel",
        "DephasingSpec", "LorentzSpec", "MeasureReport", "NoTransitionError", "PAULI_X",
        "PAULI_Y", "PAULI_Z", "PAULIS", "SingularIntermediateMapError",
        "StatePair", "Trajectory", "analytic_blp_dephasing", "apply_amplitude_damping",
        "apply_dephasing", "assert_density_matrix", "bell_diagonal", "blp_integral",
        "blp_search", "chi", "choi_state", "correlation_matrix", "divisibility_measure",
        "entanglement_measure", "hermitian_eigenvalues", "intermediate_choi",
        "kappa_abs", "kappa_complex", "maximally_entangled", "mutual_info_measure",
        "optimal_pair", "rsp_fidelity", "sample_random_pair", "trace_distance_trajectory",
        "trace_norm", "transition_thetas", "von_neumann_entropy",
    }

    def test_top_level_exports(self):
        import backflow

        names = backflow.__all__
        assert len(names) == len(set(names))
        assert set(names) - self.EXPORTS == {"hermitian_part"}
        assert self.EXPORTS <= set(names)
        assert all(hasattr(backflow, name) for name in names)
        assert not hasattr(backflow, "run_figure")
