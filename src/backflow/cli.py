"""Command-line interface: figure-data runners and ad-hoc evaluation commands."""

from __future__ import annotations

import argparse
import functools
import sys

from .experiments import FIGURES, _COMMANDS, command_keys, resolve_config, run_command, run_figure, write_csv
from .experiments import write_metadata


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


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The ``backflow`` parser and its subparsers by command name: one per
    figure and per scalar command (``experiments._COMMANDS``), each with one
    flag per key of ``command_keys``.  A tuple of choices is a required
    choice, a type is a required flag (a figure's value then comes from
    ``resolve_config``), and any other value is the flag's default."""
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
        summary = f"write the {name} data table as CSV" if figure else _COMMANDS[name][2]
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
        values, divergence = run_command(args.command, vars(args))
        print(" ".join(map(_fmt, values)))
        if divergence is not None:
            print(f"divergent at t={_fmt(divergence)}", file=sys.stderr)
        return 0
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
