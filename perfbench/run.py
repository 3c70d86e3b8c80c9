#!/usr/bin/env python3
"""Benchmark of the backflow figure and measure commands.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 60 --trace 0

Every command goes through the public entry point ``backflow.cli.main``,
imported from ``src/`` in this process: a closed loop with one client, the
next command starting when the previous one returns.  A run repeats the
workload's command list ("a pass") for ``--seconds``, checks every output,
and reports per-command medians; an untraced run's last pass stops before
the first command that would overrun.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Its
commands are interleaved with a fixed slice of host-speed calibration work
(see ``calibration.py``), and the bounded times are scaled to a reference
host speed by the slices around each command.  ``--trace 1`` runs an
untraced pass and at least two traced passes and reports the per-layer
metrics; the traced passes wrap public functions at the names their callers
look up (see ``tracer.py``).  Both print a human-readable report, write
``perfbench/out/BENCH_<label>.json`` with the samples and the environment,
and end with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit status is 0 only when every output checked out.

Workloads (the benchmark's ``--seed`` is passed to the program as ``--seed``):

* ``sweep``: ``fig1`` then ``fig4`` at grid 4001, 25 rows and 400 random
  pairs on one worker -- the pair kernel of both channel families (352
  optimal candidates and the random pairs) plus pair sampling, the
  single-threaded baseline -- followed by the window commands: ``fig2``,
  ``fig3a``, ``fig3b``, ``fig5`` and the divisibility, entanglement and
  mutual-information measures on a dephasing window (theta = pi/8,
  (0, 2 pi/dw)) and a Lorentz window (Gamma/gamma0 = 0.1, (0, 30)).  These
  run the pair kernel as 85 small full-window searches without sampling or
  fan-out, next to per-grid-point loops of 4x4 and 16x16 eigensolves and
  the closed forms.
* ``sweep-w2``: ``fig1`` and ``fig4`` as in ``sweep`` with ``--workers 2``,
  the only workload that goes through the fork-pool fan-out, and one that
  bypasses the window commands' layers.  400 pairs make two of the
  program's fixed 250-pair chunks (250 and 150), one per worker, while the
  optimal candidates stay in the parent.  Each run first makes one untimed
  pass of the same commands at one worker -- exactly ``sweep``'s fig1 and
  fig4 -- and every two-worker pass must write the same CSV bytes.

The window commands once formed a third workload.  On a 2-core x86 VM
whose speed swings by up to 1.7x in phases that outlast a run, their
interpreter-bound loops spread by 0.22-0.30 of the median over ten runs,
against 0.09 for the figure sweeps, so they now ride inside ``sweep``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import calibration  # noqa: E402
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("sweep", "sweep-w2")
GRID = 4001
ROWS = 25
PAIRS = 400
# Optimal-pair candidates the program evaluates per trajectory: fig1/fig4 use
# an 11 x 16 (alpha, phase) grid, fig2 its 2 x 2 default; two variants each.
SWEEP_CANDIDATES = 11 * 16 * 2
FIG2_CANDIDATES = 2 * 2 * 2
# The pair kernel's work in fig1 + fig4, timed by pair_points_per_ref_s.
KERNEL_LABELS = ("fig1", "fig4")
PAIR_POINTS = 2 * (SWEEP_CANDIDATES + PAIRS) * GRID
# Fresh interpreters timed for setup_s, half before and half after the passes.
SETUP_SAMPLES = 10
# Untraced runs time a calibration slice before a command when this many
# seconds have passed since the last one, and after the last command.
SLICE_EVERY_S = 2.0
DEPHASING_WINDOW = (0.0, 2.0 * math.pi / 10.0)
LORENTZ_WINDOW = (0.0, 30.0)
MEASURES = ("divisibility", "entanglement", "mutual-info")


@dataclass(frozen=True)
class Command:
    label: str
    metric: str
    argv: tuple
    csv: Path | None = None


def commands(workload: str, seed: int, out_dir: Path, workers: int | None = None) -> list[Command]:
    """The workload's command list, writing its CSV files under ``out_dir``."""
    workers = workers or (2 if workload == "sweep-w2" else 1)
    cmds = [
        Command(fig, f"{fig}_s", (
            fig, "--seed", str(seed), "--workers", str(workers), "--pairs", str(PAIRS),
            "--grid", str(GRID), "--rows", str(ROWS), "--out", str(out_dir / f"{fig}.csv"),
        ), out_dir / f"{fig}.csv")
        for fig in ("fig1", "fig4")
    ]
    if workload == "sweep":
        cmds += window_commands(seed, out_dir)
    return cmds


def window_commands(seed: int, out_dir: Path) -> list[Command]:
    cmds = [
        Command("fig2", "fig2_s", ("fig2", "--seed", str(seed), "--grid", str(GRID),
                                   "--out", str(out_dir / "fig2.csv")), out_dir / "fig2.csv")
    ]
    for fig in ("fig3a", "fig3b", "fig5"):
        cmds.append(Command(fig, "closed_form_s", (fig, "--out", str(out_dir / f"{fig}.csv")),
                            out_dir / f"{fig}.csv"))
    families = {
        "dephasing": ("--family", "dephasing", "--theta", repr(math.pi / 8), "--dw", "10",
                      "--sigma", "1", "--t1", repr(DEPHASING_WINDOW[1])),
        "lorentz": ("--family", "lorentz", "--gamma0", "1", "--width", "0.1",
                    "--t1", repr(LORENTZ_WINDOW[1])),
    }
    for measure in MEASURES:
        for family, flags in families.items():
            cmds.append(Command(
                f"{measure}.{family}", f"measure_{measure.replace('-', '_')}_s",
                ("measure", "--measure", measure, "--grid", str(GRID)) + flags,
            ))
    return cmds


class Expected:
    """Values the checks compare against, built from the public API."""

    def __init__(self, bf, seed: int, reference: dict):
        from backflow.experiments import default_config

        self.reference = reference
        self.seed = seed
        c1 = default_config("fig1")
        dephasing = bf.DephasingSpec(c1["theta"], c1["omega1"], c1["omega1"] + c1["delta_omega"], c1["sigma"])
        c4 = default_config("fig4")
        lorentz = bf.LorentzSpec(gamma0=c4["gamma0"], width=c4["width_ratio"] * c4["gamma0"])
        # Master grids documented by run_fig1 ([0, 4 pi/dw]) and run_fig4
        # ([0, 2.5 revival times]).
        self.grids = {
            "fig1": (np.linspace(0.0, 4.0 * math.pi / c1["delta_omega"], GRID),
                     bf.DephasingChannel(dephasing), lambda t: bf.kappa_abs(dephasing, t)),
            "fig4": (np.linspace(0.0, 2.5 * 2.0 * math.pi / lorentz.epsilon, GRID),
                     bf.AmplitudeDampingChannel(lorentz), lambda t: np.abs(bf.chi(lorentz, t))),
        }
        self.abs_f = {fig: f(times) for fig, (times, _, f) in self.grids.items()}
        self._pair0 = {}
        c2 = default_config("fig2")
        self.fig2_abs_f = []
        for tau_c, theta, *_ in reference["fig2"]["rows"]:
            spec = bf.DephasingSpec(theta, c2["omega1"], c2["omega1"] + c2["delta_omega"], c2["sigma"])
            self.fig2_abs_f.append(bf.kappa_abs(spec, np.linspace(0.0, tau_c, GRID)))
        self.fig2_numeric = np.array([checks.increment_prefix(a)[-1] for a in self.fig2_abs_f])
        self.bf = bf

    def pair0(self, fig: str) -> np.ndarray:
        if fig not in self._pair0:
            times, family, _ = self.grids[fig]
            pair = self.bf.sample_random_pair(self.seed, 0)
            self._pair0[fig] = self.bf.trace_distance_trajectory(family, pair, times).values
        return self._pair0[fig]

    def check(self, cmd: Command, rc, stdout: str, stderr: str) -> list[str]:
        if rc != 0:
            return [f"{cmd.label}: exit status {rc}: {stderr.strip()[-300:]}"]
        ref = self.reference
        if cmd.label in ("fig1", "fig4"):
            times = self.grids[cmd.label][0]
            return checks.sweep_figure(cmd.label, cmd.csv.read_text(), times,
                                       self.abs_f[cmd.label], self.pair0(cmd.label), ref)
        if cmd.label == "fig2":
            return checks.fig2_table(cmd.csv.read_text(), self.fig2_numeric, ref)
        if cmd.csv is not None:
            return checks.reference_table(cmd.label, cmd.csv.read_text(), ref)
        if cmd.label == "divisibility.lorentz":
            return checks.measure_contract(cmd.label, stdout, stderr, LORENTZ_WINDOW)
        return checks.measure_reference(cmd.label, stdout, ref)

    def useful_point_ratio(self, workload: str) -> float:
        """Grid points the increment sum needs over points eigen-solved,
        over every pair trajectory the kernel evaluates in one pass.

        Needed are the first point, the turning points of |f| and the row
        cuts (for a full-window search, the last point); all pairs of one
        figure row set or one search share these.
        """
        groups = []  # (|f| on the grid, needed cut indices, pairs)
        for fig in ("fig1", "fig4"):
            times = self.grids[fig][0]
            cuts = np.rint(np.array(self.reference[fig]["t"]) / times[-1] * (GRID - 1)).astype(int)
            groups.append((self.abs_f[fig], cuts, SWEEP_CANDIDATES + PAIRS))
        if workload == "sweep":
            groups += [(a, [GRID - 1], FIG2_CANDIDATES) for a in self.fig2_abs_f]
        useful = sum(n * len({0, *_turning_points(a), *map(int, cuts)}) for a, cuts, n in groups)
        return useful / (sum(n for _, _, n in groups) * GRID)


def _turning_points(values: np.ndarray) -> list[int]:
    steps = np.diff(values)
    moving = np.flatnonzero(steps)
    signs = np.sign(steps[moving])
    return [int(moving[k + 1]) for k in np.flatnonzero(signs[1:] != signs[:-1])]


def run_command(cli_main, cmd: Command, tracer: Tracer | None):
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            with span:
                rc = cli_main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code
        elapsed = time.perf_counter() - start
    return rc, elapsed, stdout.getvalue(), stderr.getvalue()


@dataclass
class Pass:
    kind: str  # "plain", "traced" or "serial" (sweep-w2 at one worker)
    durations: dict
    per_command: dict  # traced passes: command label -> tracer aggregate
    problems: dict  # command label -> list of failed checks
    csv_bytes: dict
    stdout: dict
    slices: list  # calibration slice seconds (untraced runs)
    slice_before: dict  # command label -> index of the slice run before it
    aggregate: dict | None = None
    counts: dict | None = None

    @property
    def wall(self) -> float:
        return sum(self.durations.values())

    def scaled(self, label: str) -> float:
        """A command's time at the reference host speed, scaled by the
        mean of the calibration slices just before and after it."""
        k = self.slice_before[label]
        return self.durations[label] * calibration.REFERENCE_S / statistics.fmean(self.slices[k:k + 2])



def run_pass(cli_main, cmds, expected: Expected, kind: str, tracer: Tracer | None,
             calibrate: bool = False, deadline: float | None = None,
             previous: Pass | None = None) -> Pass:
    """Run the command list once and check its outputs.  With a deadline,
    stop before a command whose time in ``previous`` would overrun it, so
    the last pass of a run may be partial."""
    durations, per_command, outputs, slices, slice_before = {}, {}, {}, [], {}
    last_slice = -math.inf
    if tracer:
        tracer.reset()
        tracer.install()
    try:
        for cmd in cmds:
            if deadline is not None and time.perf_counter() + previous.durations[cmd.label] > deadline:
                break
            # Short commands share a slice, so slices cost about a
            # twentieth of a pass.
            if calibrate and time.perf_counter() - last_slice >= SLICE_EVERY_S:
                slices.append(calibration.slice_seconds())
                last_slice = time.perf_counter()
            slice_before[cmd.label] = len(slices) - 1
            first = len(tracer.spans) if tracer else 0
            rc, elapsed, out, err = run_command(cli_main, cmd, tracer)
            durations[cmd.label] = elapsed
            outputs[cmd.label] = (rc, out, err)
            if tracer:
                per_command[cmd.label] = tracer.aggregate(first)
        if calibrate and durations:
            slices.append(calibration.slice_seconds())
    finally:
        if tracer:
            tracer.restore()
    ran = [cmd for cmd in cmds if cmd.label in durations]
    problems = {cmd.label: expected.check(cmd, *outputs[cmd.label]) for cmd in ran}
    if tracer and tracer.unrestored():
        problems[cmds[0].label].append(f"tracer left wrapped: {tracer.unrestored()}")
    csv_bytes = {c.label: c.csv.read_bytes() for c in ran if c.csv is not None}
    stdout = {label: out for label, (_, out, _) in outputs.items()}
    p = Pass(kind, durations, per_command, problems, csv_bytes, stdout, slices, slice_before)
    if tracer:
        p.aggregate = tracer.aggregate()
        p.counts = dict(tracer.counts)
    return p


def tracer_self_test() -> list[str]:
    """Hand-computed counts on a tiny input, and restoration of every name.

    An (8, 11, 4, 4) stack stands for 8 pairs on an 11-point grid: one
    eigvalsh call, 88 4x4 matrices.  ``measures.trace_norm`` on one 4x4
    matrix adds a trace_norm span whose child is a second eigvalsh call.
    """
    import backflow.measures as measures

    tracer = Tracer()
    tracer.install()
    try:
        np.linalg.eigvalsh(np.broadcast_to(np.eye(4), (8, 11, 4, 4)))
        measures.trace_norm(np.eye(4) / 4.0)
    finally:
        tracer.restore()
    agg = tracer.aggregate()
    got = {
        "eigvalsh.calls": agg["linalg.eigvalsh"]["calls"],
        "matrices_4": tracer.counts["linalg.eigvalsh.matrices_4"],
        "bytes_in": tracer.counts["linalg.eigvalsh.bytes_in"],
        "trace_norm.calls": agg["linalg.trace_norm"]["calls"],
        "nested": [s[3] for s in tracer.spans] == [-1, -1, 1],
    }
    want = {"eigvalsh.calls": 2, "matrices_4": 89, "bytes_in": 88 * 16 * 8 + 16 * 16,
            "trace_norm.calls": 1, "nested": True}
    problems = [f"tracer self-test {k}: got {got[k]}, expected {v}" for k, v in want.items() if got[k] != v]
    if tracer.unrestored():
        problems.append(f"tracer self-test: names left wrapped: {tracer.unrestored()}")
    return problems


def measure_setup(samples: int) -> list[float]:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    code = ("import sys, backflow.cli as c; c.build_parser(); "
            "sys.exit(0 if c.__file__.startswith(sys.argv[1]) else 3)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", code, str(SRC)]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
    }


def summary(values) -> dict:
    """Median, sample count and the highest percentile with ten samples
    beyond it (the maximum when there are too few samples for one)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = values[min(n - 1, math.ceil(pct / 100 * n) - 1)]
    else:
        out["max"] = values[-1]
    return out


def timing_samples(cmds, passes, setup, slices) -> dict:
    """Samples of every reported timing: one per untraced pass that ran all
    the commands it sums, one per fresh interpreter for ``setup_s`` and one
    per calibration slice."""
    def sums(labels):
        return [sum(p.durations[label] for label in labels)
                for p in passes if all(label in p.durations for label in labels)]

    samples = {"pass_s": sums([c.label for c in cmds])}
    if setup:
        samples["setup_s"] = setup
    if slices:
        samples["calibration_slice_s"] = slices
    for metric in dict.fromkeys(c.metric for c in cmds):
        samples[metric] = sums([c.label for c in cmds if c.metric == metric])
    samples["kernel_s"] = sums(KERNEL_LABELS)
    for label in ("fig3a", "fig5"):
        if any(c.label == label for c in cmds):
            samples[f"{label}_s"] = sums([label])
    return samples


def end_to_end(cmds, passes, samples) -> tuple[dict, dict]:
    """Values and sample counts of the end-to-end metrics.  A pass time is
    the sum over commands of each command's median, so a partial last pass
    still adds samples.  Reference seconds scale each command by the
    calibration slices around it (``Pass.scaled``)."""
    def medians(time_of):
        return {c.label: statistics.median(time_of(p, c.label) for p in passes if c.label in p.durations)
                for c in cmds}

    raw = medians(lambda p, label: p.durations[label])
    ref = medians(Pass.scaled)
    n = {label: sum(label in p.durations for p in passes) for label in raw}
    slices = samples["calibration_slice_s"]
    values = {
        "wall_ref_s": sum(ref.values()),
        "setup_s": statistics.median(samples["setup_s"]),
        "pair_points_per_ref_s": PAIR_POINTS / sum(ref[label] for label in KERNEL_LABELS),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Not bounded: the same without scaling, and the host's slowdown
        # against the reference speed.
        "wall_s": sum(raw.values()),
        "pair_points_per_s": PAIR_POINTS / sum(raw[label] for label in KERNEL_LABELS),
        "host_slowdown": statistics.median(slices) / calibration.REFERENCE_S,
    }
    wall_n = min(n.values())
    kernel_n = min(n[label] for label in KERNEL_LABELS)
    counts = {"wall_ref_s": wall_n, "setup_s": len(samples["setup_s"]), "pair_points_per_ref_s": kernel_n,
              "peak_rss_mb": 1, "wall_s": wall_n, "pair_points_per_s": kernel_n,
              "host_slowdown": len(slices)}
    return values, counts


def reconciliation(samples: dict) -> list[str]:
    """Lines that set the benchmark's numbers beside the ROADMAP baselines."""
    lines = []
    med = {k: statistics.median(v) for k, v in samples.items()}
    if "fig2_s" in med:
        lines.append(f"fig2: {med['fig2_s']:.3f} s in-process (ROADMAP baseline 3.2 s).")
    if "fig3a_s" in med and "setup_s" in med:
        total = med["fig3a_s"] + med["fig5_s"]
        lines.append(
            f"fig3a + fig5: {total:.3f} s in-process; as two fresh processes about "
            f"{total + 2 * med['setup_s']:.3f} s including 2 x setup_s (ROADMAP baseline "
            "0.7 s, mostly process start-up)."
        )
    return lines


def trace_reconciliation(workload: str, traced: list) -> list[str]:
    """ROADMAP baselines beside the traced fig1/fig4 kernel and sampling."""
    def total(p, name, key):
        return sum(p.per_command[fig].get(name, {}).get(key, 0.0) for fig in ("fig1", "fig4"))

    def median(name, key):
        return statistics.median(total(p, name, key) for p in traced)

    per_point = (median("linalg.eigvalsh", "s") + median("experiments.run_figure", "self_s")) / PAIR_POINTS
    lines = [
        f"pair kernel in fig1 + fig4: (eigvalsh.s + run_figure.self_s) / pair-points = "
        f"{per_point * 1e9:.1f} ns, i.e. {per_point * 1000 * 4001:.2f} s for 1000 pairs x 4001 "
        "points (ROADMAP baseline 9.8-12.4 s)"
        + (" -- the random pairs run in pool workers, whose time shows as run_figure self time here."
           if workload == "sweep-w2" else ".")
    ]
    calls = total(traced[0], "measures.sample_random_pair", "calls")
    if calls:
        per = median("measures.sample_random_pair", "s") / calls
        lines.append(f"sampling: {per * 1e6:.1f} us per pair, {per * 10000:.2f} s per 10000 pairs "
                     "(ROADMAP baseline 1.0 s).")
    return lines


PER_LAYER_SPANS = {
    "linalg.eigvalsh": ("calls", "s"),
    "experiments.run_figure": ("s", "self_s"),
    "measures.sample_random_pair": ("calls", "s"),
    "linalg.assert_density_matrix": ("calls", "s"),
    "channels.choi_state": ("calls", "s"),
    "linalg.trace_norm": ("s",),
    "linalg.von_neumann_entropy": ("s",),
    "channels.intermediate_choi": ("calls", "s"),
    "decoherence.eval": ("calls", "s"),
    "decoherence.closed_form": ("calls", "s"),
    "rsp": ("calls", "s"),
    "experiments.resolve_config": ("s",),
    "experiments.write_csv": ("s",),
    "experiments.write_metadata": ("s",),
    "cli.main": ("s",),
}
PER_LAYER_COUNTERS = ("linalg.eigvalsh.matrices_4", "linalg.eigvalsh.matrices_16",
                      "linalg.eigvalsh.bytes_in", "decoherence.eval.points")


def count_signature(p: Pass) -> dict:
    return {f"{name}.calls": a["calls"] for name, a in p.aggregate.items()} | p.counts


def per_layer(workload, traced, plain, serial, expected) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as the
    median over traced passes."""
    first = traced[0]
    out = {}
    for name, keys in PER_LAYER_SPANS.items():
        for key in keys:
            if key == "calls":
                out[f"{name}.calls"] = first.aggregate.get(name, {}).get("calls", 0)
            else:
                out[f"{name}.{key}"] = statistics.median(
                    p.aggregate.get(name, {}).get(key, 0.0) for p in traced
                )
    for key in PER_LAYER_COUNTERS:
        out[key] = first.counts.get(key, 0)
    out["experiments.bytes_written"] = sum(
        v for k, v in first.counts.items() if k.endswith("bytes_written")
    )
    out["measures.useful_point_ratio"] = expected.useful_point_ratio(workload)

    def run_figure_s(passes, fig):
        return statistics.median(p.per_command[fig]["experiments.run_figure"]["s"] for p in passes)

    workers = 2 if workload == "sweep-w2" else 1
    for fig in ("fig1", "fig4"):
        one_worker = run_figure_s(serial or traced, fig)
        out[f"experiments.parallel_efficiency.{fig}"] = one_worker / (workers * run_figure_s(traced, fig))
    out["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                               - statistics.median(p.wall for p in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "backflow" / "cli.py").is_file():
        print(f"error: no backflow sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    begin = time.perf_counter()
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import backflow as bf
    import backflow.cli

    if not Path(bf.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported backflow from {bf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / run_label
    run_dir.mkdir(parents=True, exist_ok=True)
    cmds = commands(args.workload, args.seed, run_dir)
    expected = Expected(bf, args.seed, json.loads((BENCH_DIR / "reference.json").read_text()))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = begin + args.seconds

    problems = []
    setup = []
    calibrate = not args.trace
    if args.trace:
        problems += tracer_self_test()
        # Two traced passes at least, so their counts can be compared.
        kinds = ["plain", "traced", "traced"]
    else:
        measure_setup(1)  # warm the file cache
        start = time.perf_counter()
        setup = measure_setup(SETUP_SAMPLES // 2)
        deadline -= time.perf_counter() - start  # room for the second half
        kinds = ["plain"]

    tracer = Tracer()
    passes: list[Pass] = []
    if args.workload == "sweep-w2":
        # The same commands at one worker (sweep's fig1 and fig4), untimed:
        # every two-worker pass must write the same bytes.  Traced runs use
        # it for parallel_efficiency.
        serial_cmds = commands(args.workload, args.seed, run_dir / "serial", workers=1)
        (run_dir / "serial").mkdir(exist_ok=True)
        passes.append(run_pass(backflow.cli.main, serial_cmds, expected, "serial",
                               tracer if args.trace else None))
    timed = 0
    while True:
        kind = kinds[timed % len(kinds)]
        previous = next((p for p in reversed(passes) if p.kind == kind), None)
        # Untraced runs fill the time to the deadline, command by command.
        # Traced passes always run whole, so their counts compare.
        cut = deadline if calibrate and timed >= len(kinds) else None
        p = run_pass(backflow.cli.main, cmds, expected, kind,
                     tracer if kind == "traced" else None, calibrate, cut, previous)
        if not p.durations:
            break
        passes.append(p)
        timed += 1
        if len(p.durations) < len(cmds):
            break
        if timed >= len(kinds) and time.perf_counter() + (0.0 if calibrate else p.wall) > deadline:
            break

    if not args.trace:
        setup += measure_setup(SETUP_SAMPLES - len(setup))

    # Every pass of a run must write the same bytes as the first.
    first = passes[0]
    for p in passes[1:]:
        for label, data in p.csv_bytes.items():
            if data != first.csv_bytes.get(label):
                origin = "the one-worker pass" if first.kind == "serial" else "the first pass"
                p.problems[label].append(f"{label}: CSV bytes differ from {origin}")

    attempted = sum(len(p.durations) for p in passes)
    failed = sum(1 for p in passes for msgs in p.problems.values() if msgs)
    plain = [p for p in passes if p.kind == "plain"]
    traced = [p for p in passes if p.kind == "traced"]
    serial = [p for p in passes if p.kind == "serial"]
    slices = [x for p in passes for x in p.slices]
    samples = timing_samples(cmds, plain, setup, slices)
    notes = reconciliation(samples)
    if args.trace:
        sigs = [count_signature(p) for p in traced]
        if any(s != sigs[0] for s in sigs[1:]):
            problems.append("per-layer counts differ between traced passes")
        layer = per_layer(args.workload, traced, plain, serial, expected)
        metrics_units = {m["name"]: (layer[m["name"]], m["unit"]) for m in declared["per_layer"]}
        sample_counts = {}
        notes += trace_reconciliation(args.workload, traced)
        (OUT / f"spans_{run_label}.json").write_text(json.dumps(tracer.dump()) + "\n")
    else:
        e2e, sample_counts = end_to_end(cmds, plain, samples)
        metrics_units = {m["name"]: (e2e[m["name"]], m["unit"]) for m in declared["end_to_end"]}
        unbounded = {"wall_s": "s", "pair_points_per_s": "1/s", "host_slowdown": "ratio"}
        extra = {k: (e2e[k], u) for k, u in unbounded.items()}
    report = {k: summary(v) for k, v in samples.items()}
    failed_ops_ratio = failed / attempted

    correct = failed == 0 and not problems
    all_problems = problems + [m for p in passes for msgs in p.problems.values() for m in msgs]
    for msg in all_problems:
        print(f"CHECK FAILED: {msg}")
    for cmd in cmds:
        if cmd.label == "divisibility.lorentz":
            value = checks.measure_value(passes[0].stdout[cmd.label])
            print(f"divisibility on the Lorentz window (0, 30), grid {GRID}: {value!r} "
                  "(grid-dependent: only its contract is checked)")
    partial = sum(len(p.durations) < len(cmds) for p in plain)
    print(f"workload {args.workload}, seed {args.seed}, {len(plain)} untraced ({partial} partial), "
          f"{len(traced)} traced and {len(serial)} one-worker pass(es), "
          f"{attempted} commands, {failed} failed")
    for name, (value, unit) in metrics_units.items():
        n = f"  n={sample_counts[name]}" if name in sample_counts else ""
        print(f"  {name:<40} {value:.6g} {unit}{n}")
    if not args.trace:
        print("  not bounded: the same without host-speed scaling, and the host's slowdown")
        for name, (value, unit) in extra.items():
            print(f"    {name:<38} {value:.6g} {unit}  n={sample_counts[name]}")
    print("  untraced timings: median, sample count, highest percentile the count allows")
    for name, s in report.items():
        tail = next(k for k in s if k not in ("median", "n"))
        print(f"    {name:<38} {s['median']:.6g} s  n={s['n']}  {tail}={s[tail]:.6g} s")
    print(f"  {'failed_ops_ratio':<40} {failed_ops_ratio:.6g} (failed commands / attempted)")
    for line in notes:
        print(f"  note: {line}")

    bench = {
        "label": run_label,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commands": [list(c.argv) for c in cmds],
        "environment": environment() | {"loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_units.items()},
        "metric_samples": sample_counts,
        "calibration_reference_s": calibration.REFERENCE_S,
        "timings": report,
        "failed_ops_ratio": failed_ops_ratio,
        "passes": [{"kind": p.kind, "durations_s": p.durations, "calibration_slices_s": p.slices,
                    "traced": p.per_command} for p in passes],
        "notes": notes,
        "problems": all_problems,
    }
    (OUT / f"BENCH_{run_label}.json").write_text(json.dumps(bench, indent=2) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
