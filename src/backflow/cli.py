"""Command-line interface: figure-data runners and ad-hoc evaluation commands."""

from __future__ import annotations

import argparse
import sys

from .channels import AmplitudeDampingChannel, DephasingChannel, apply_dephasing
from .decoherence import DephasingSpec, LorentzSpec, chi, kappa_abs, transition_thetas
from .experiments import FIGURES, resolve_config, rsp_fidelity_after, run_figure, write_csv, write_metadata
from .measures import blp_search, divisibility_measure, entanglement_measure, mutual_info_measure


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _add_figure_parser(sub, name: str) -> None:
    p = sub.add_parser(name, help=f"write the {name} data table as CSV")
    p.add_argument("--config", help="JSON config file (flag > config > default)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--workers", type=int)
    if name in ("fig1", "fig2", "fig4"):
        p.add_argument("--pairs", type=int)
        p.add_argument("--grid", type=int)
    if name in ("fig1", "fig2", "fig3a", "fig3b"):
        p.add_argument("--theta", type=float)
        p.add_argument("--dw", "--delta-omega", dest="delta_omega", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--omega1", type=float)
    if name in ("fig2", "fig3a", "fig3b"):
        p.add_argument("--theta-count", dest="theta_count", type=int)
    if name == "fig2":
        p.add_argument("--tauc-count", dest="tauc_count", type=int)
    if name == "fig4":
        p.add_argument("--gamma0", type=float)
        p.add_argument("--ratio", dest="width_ratio", type=float)
        p.add_argument("--rows", type=int)
        p.add_argument("--tc-start", dest="tc_start", type=float)
        p.add_argument("--tc-stop", dest="tc_stop", type=float)
    if name == "fig1":
        p.add_argument("--rows", type=int)
        p.add_argument("--tauc-start", dest="tauc_start", type=float)
        p.add_argument("--tauc-stop", dest="tauc_stop", type=float)
    if name == "fig5":
        p.add_argument("--gamma0", type=float)
        p.add_argument("--ratio-count", dest="ratio_count", type=int)
        p.add_argument("--ratio-min", dest="ratio_min", type=float)
        p.add_argument("--ratio-max", dest="ratio_max", type=float)


def _figure_overrides(args: argparse.Namespace) -> dict:
    skip = {"command", "config"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _dephasing_spec(args: argparse.Namespace, theta: float) -> DephasingSpec:
    omega1 = getattr(args, "omega1", None) or 0.0
    return DephasingSpec(theta=theta, omega1=omega1, omega2=omega1 + args.dw, sigma=args.sigma)


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
    c = tuple(float(x) for x in args.c.split(","))
    if len(c) != 3:
        raise ValueError("--c expects three comma-separated values, e.g. 1,-1,1")
    print(_fmt(rsp_fidelity_after(c, apply_dephasing, complex(args.kappa))))
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
    p.add_argument("--dw", "--delta-omega", dest="dw", type=float, default=10.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--omega1", type=float, default=0.0)
    p.add_argument("--gamma0", type=float, default=1.0)
    p.add_argument("--width", type=float, default=0.1)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--grid", type=int, default=4001)
    p.add_argument("--pairs", type=int, default=0)
    p.add_argument("--seed", type=int, default=42)

    return parser


_COMMANDS = {
    "kappa": _run_kappa,
    "chi": _run_chi,
    "transition": _run_transition,
    "fidelity": _run_fidelity,
    "measure": _run_measure,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in FIGURES:
            return _run_figure_command(args)
        return _COMMANDS[args.command](args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
