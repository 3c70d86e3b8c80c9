"""Command-line interface: figure-data runners and ad-hoc evaluation commands."""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .channels import AmplitudeDampingChannel, DephasingChannel
from .decoherence import LorentzSpec, chi, kappa_abs, transition_thetas
from .experiments import FIGURES, _check, _dephasing_spec, _non_finite_row, _preset_fidelities, command_keys
from .experiments import resolve_config, run_figure, write_csv, write_metadata
from .measures import blp_search, divisibility_measure, entanglement_measure, mutual_info_measure


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Flags spelled before the config table; every other key is --key-name.
_FLAG_ALIASES = {"delta_omega": ("--dw", "--delta-omega"), "width_ratio": ("--ratio",)}


def _flags(key: str) -> tuple:
    return _FLAG_ALIASES.get(key, ("--" + key.replace("_", "-"),))


def _figure_overrides(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("command", "config")}


def _run_figure_command(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.command, args.config, _figure_overrides(args))
    header, rows = run_figure(args.command, cfg)
    write_csv(cfg["out"], header, rows)
    write_metadata(cfg["out"], args.command, cfg)
    print(cfg["out"])
    return 0


# Each handler below returns the values its command prints, and the time of
# a divergence (``measure`` alone), whose value is then the one allowed
# infinity.


def _run_kappa(args: argparse.Namespace):
    return (kappa_abs(_dephasing_spec(vars(args), args.theta), args.tau),), None


def _run_chi(args: argparse.Namespace):
    return (chi(LorentzSpec(gamma0=args.gamma0, width=args.width), args.t),), None


def _run_transition(args: argparse.Namespace):
    return transition_thetas(args.delta_omega, args.sigma, args.tauc), None


def _run_fidelity(args: argparse.Namespace):
    try:
        c = tuple(float(x) for x in args.c.split(","))
    except ValueError:
        c = ()
    if len(c) != 3:
        raise ValueError(f"--c expects three comma-separated numbers, e.g. 1,-1,1, got {args.c!r}")
    try:
        kappa = complex(args.kappa)
    except ValueError:
        raise ValueError(f"--kappa expects a real or complex number, got {args.kappa!r}") from None
    _check("kappa", kappa, "for fidelity", command_keys("fidelity"))
    return (_preset_fidelities(DephasingChannel, abs(kappa), (c,))[0],), None


def _run_measure(args: argparse.Namespace):
    if args.family == "dephasing":
        family = DephasingChannel(_dephasing_spec(vars(args), args.theta))
    else:
        family = AmplitudeDampingChannel(LorentzSpec(gamma0=args.gamma0, width=args.width))
    window = (args.t0, args.t1)
    if args.measure == "blp":
        report = blp_search(family, window, n_pairs=args.pairs, grid_size=args.grid, seed=args.seed)
    elif args.measure == "divisibility":
        report = divisibility_measure(family, window, args.grid)
    elif args.measure == "entanglement":
        report = entanglement_measure(family, window, args.grid)
    else:
        report = mutual_info_measure(family, window, args.grid)
    return (report.value,), report.singularity


# Each other command's handler, one-line help, and the line that names a
# non-finite value it would print.
_COMMANDS = {
    "kappa": (_run_kappa, "print |kappa(tau)| for a dephasing spec", "|kappa| is not finite at tau={tau}"),
    "chi": (_run_chi, "print chi(t) for a Lorentzian spec", "chi is not finite at t={t}"),
    "transition": (_run_transition, "print the two transition angles theta1 theta2",
                   "the transition angles are not finite at tauc={tauc}"),
    "fidelity": (_run_fidelity, "RSP fidelity of a dephased Bell-diagonal state",
                 "the fidelity is not finite at kappa={kappa}"),
    "measure": (_run_measure, "evaluate one backflow measure on a window", "the measure is not finite at t1={t1}"),
}


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The ``backflow`` parser and its subparsers by command name: one per
    figure and per other command, each with one flag per key of
    ``command_keys``.  A tuple of choices is a required choice, a type is a
    required flag (a figure's value then comes from ``resolve_config``), and
    any other value is the flag's default."""
    parser = argparse.ArgumentParser(
        prog="backflow",
        description="Two-qubit open-system simulations: decoherence, backflow measures, RSP fidelity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*FIGURES, *_COMMANDS):
        figure = name in FIGURES
        # Figure flags are matched in full: with abbreviations, a flag that is
        # gone (such as fig2's --theta) would be taken as a prefix of another
        # (--theta-count).
        summary = f"write the {name} data table as CSV" if figure else _COMMANDS[name][1]
        p = sub.add_parser(name, help=summary, allow_abbrev=not figure)
        if figure:
            p.add_argument("--config", help="JSON config file (flag > config > default)")
        for key, entry in command_keys(name).items():
            if isinstance(entry, tuple):
                p.add_argument(*_flags(key), dest=key, required=True, choices=entry)
            elif isinstance(entry, type):
                p.add_argument(*_flags(key), dest=key, type=entry, required=not figure)
            else:
                p.add_argument(*_flags(key), dest=key, type=type(entry), default=entry)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The ``backflow`` parser (see ``_build_parsers``)."""
    return _build_parsers()[0]


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write ``--tau -1e-3`` as ``--tau=-1e-3`` and ``--c -0.5,0.4,0.8`` as
    ``--c=-0.5,0.4,0.8``.

    argparse takes a separate value that starts with '-' and is not a plain
    number such as -1 or -0.5 for an option, so a negative number in
    exponent notation, -inf, a Bell-diagonal triple with a negative first
    entry, or a complex kappa such as -0.5+0.1j would be refused.
    """
    out: list[str] = []
    for arg in argv:
        option = out[-1] if out else ""
        if (arg.startswith("-") and option.startswith("--") and "=" not in option
                and (option in ("--c", "--kappa") or _is_float(arg))):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


# One parser per process: parse_args keeps no state between calls, and
# building the 11 subparsers costs more than a short command's own work.
_parsers = functools.cache(_build_parsers)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The top-level parser's ``parse_args(argv)``, with a command's flags
    parsed by that command's own parser: the top-level parser would scan and
    convert every argument before handing them over.  It still parses an
    argv that names no command (none, -h, an unknown name, --), for its
    usage and errors.
    An unrecognized flag is named by the command's parser
    ("backflow fig5: error: ...")."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(_attach_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.command in FIGURES:
            return _run_figure_command(args)
        # A figure's values pass the same key check in resolve_config, and
        # its rows the same finite check in run_figure.
        known = command_keys(args.command)
        for key in known:
            _check(key, getattr(args, key), f"for {args.command}", known)
        handler, _, non_finite = _COMMANDS[args.command]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is named below
            values, divergence = handler(args)
        if divergence is None and _non_finite_row([values]) is not None:
            raise ValueError(non_finite.format(**vars(args)))
        print(" ".join(map(_fmt, values)))
        if divergence is not None:
            print(f"divergent at t={_fmt(divergence)}", file=sys.stderr)
        return 0
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
