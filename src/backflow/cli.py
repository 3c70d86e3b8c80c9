"""Command-line interface: figure-data runners and ad-hoc evaluation commands."""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys

from .channels import AmplitudeDampingChannel, DephasingChannel, apply_dephasing
from .decoherence import DephasingSpec, LorentzSpec, chi, kappa_abs, transition_thetas
from .experiments import FIGURES, figure_keys, resolve_config, rsp_fidelity_after, run_figure, write_csv, write_metadata
from .experiments import _FAMILY_DEFAULTS, _SHARED_DEFAULTS
from .measures import blp_search, divisibility_measure, entanglement_measure, mutual_info_measure


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Flags spelled before the config table; every other key is --key-name.
_FLAG_ALIASES = {"delta_omega": ("--dw", "--delta-omega"), "width_ratio": ("--ratio",)}


def _add_figure_parser(sub, name: str) -> None:
    # Flags are matched in full: with abbreviations, a flag that is gone (such
    # as fig2's --theta) would be taken as a prefix of another (--theta-count).
    p = sub.add_parser(name, help=f"write the {name} data table as CSV", allow_abbrev=False)
    p.add_argument("--config", help="JSON config file (flag > config > default)")
    for key, kind in figure_keys(name).items():
        p.add_argument(*_FLAG_ALIASES.get(key, ("--" + key.replace("_", "-"),)), dest=key, type=kind)


def _figure_overrides(args: argparse.Namespace) -> dict:
    skip = {"command", "config"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _dephasing_spec(args: argparse.Namespace, theta: float) -> DephasingSpec:
    return DephasingSpec(theta=theta, omega1=args.omega1, omega2=args.omega1 + args.dw, sigma=args.sigma)


def _run_figure_command(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.command, args.config, _figure_overrides(args))
    header, rows = run_figure(args.command, cfg)
    write_csv(cfg["out"], header, rows)
    write_metadata(cfg["out"], args.command, cfg)
    print(cfg["out"])
    return 0


def _run_kappa(args: argparse.Namespace) -> int:
    spec = _dephasing_spec(args, args.theta)
    print(_fmt(kappa_abs(spec, args.tau)))
    return 0


def _run_chi(args: argparse.Namespace) -> int:
    print(_fmt(chi(LorentzSpec(gamma0=args.gamma0, width=args.width), args.t)))
    return 0


def _run_transition(args: argparse.Namespace) -> int:
    theta1, theta2 = transition_thetas(args.dw, args.sigma, args.tauc)
    print(f"{_fmt(theta1)} {_fmt(theta2)}")
    return 0


def _run_fidelity(args: argparse.Namespace) -> int:
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
    if not cmath.isfinite(kappa):
        raise ValueError("--kappa must be a finite number")
    print(_fmt(rsp_fidelity_after(c, apply_dephasing, kappa)))
    return 0


def _run_measure(args: argparse.Namespace) -> int:
    if args.family == "dephasing":
        family = DephasingChannel(_dephasing_spec(args, args.theta))
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
    print(_fmt(report.value) if report.singularity is None else "inf")
    if report.singularity is not None:
        print(f"divergent at t={_fmt(report.singularity)}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backflow",
        description="Two-qubit open-system simulations: decoherence, backflow measures, RSP fidelity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in FIGURES:
        _add_figure_parser(sub, name)

    p = sub.add_parser("kappa", help="print |kappa(tau)| for a dephasing spec")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--dw", "--delta-omega", dest="dw", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--omega1", type=float, default=0.0)

    p = sub.add_parser("chi", help="print chi(t) for a Lorentzian spec")
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("transition", help="print the two transition angles theta1 theta2")
    p.add_argument("--dw", "--delta-omega", dest="dw", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tauc", type=float, required=True)

    p = sub.add_parser("fidelity", help="RSP fidelity of a dephased Bell-diagonal state")
    p.add_argument("--c", required=True, help="Bell-diagonal triple, e.g. 1,-1,1")
    p.add_argument("--kappa", required=True, help="dephasing factor (real or complex literal)")

    p = sub.add_parser("measure", help="evaluate one backflow measure on a window")
    p.add_argument("--measure", required=True,
                   choices=["blp", "divisibility", "entanglement", "mutual-info"])
    p.add_argument("--family", required=True, choices=["dephasing", "lorentz"])
    p.add_argument("--theta", type=float, default=0.7853981633974483)
    p.add_argument("--dw", "--delta-omega", dest="dw", type=float, default=_FAMILY_DEFAULTS["dephasing"]["delta_omega"])
    p.add_argument("--sigma", type=float, default=_FAMILY_DEFAULTS["dephasing"]["sigma"])
    p.add_argument("--omega1", type=float, default=_FAMILY_DEFAULTS["dephasing"]["omega1"])
    p.add_argument("--gamma0", type=float, default=_FAMILY_DEFAULTS["lorentz"]["gamma0"])
    p.add_argument("--width", type=float, default=0.1)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--grid", type=int, default=4001)
    p.add_argument("--pairs", type=int, default=0)
    p.add_argument("--seed", type=int, default=_SHARED_DEFAULTS["seed"])

    return parser


_COMMANDS = {
    "kappa": _run_kappa,
    "chi": _run_chi,
    "transition": _run_transition,
    "fidelity": _run_fidelity,
    "measure": _run_measure,
}


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


def _require_finite(args: argparse.Namespace) -> None:
    """Reject a non-finite float flag of a non-figure command by name (the
    figure configs are checked by ``resolve_config``)."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{dest} must be a finite number")


# One parser per process: parse_args keeps no state between calls, and
# building the 11 subparsers costs more than a short command's own work.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        if args.command in FIGURES:
            return _run_figure_command(args)
        _require_finite(args)
        return _COMMANDS[args.command](args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
