"""Command-line front end.

Subcommands: sweep, propagate, zeros, phase, ddp, znt, fit, compare.
An optional key=value config file (--config settings.cfg) supplies
defaults for the chosen subcommand; flags given on the command line win.
The keys it accepts are exactly that subcommand's long options other
than --help, with '_' and '-' interchangeable; other keys are ignored.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import warnings

import numpy as np
from scipy.interpolate import CubicSpline

from .ddp import ddp_probability, phase_integral, zero_points
from .errors import LevelCrossError
from .harness import (
    METHODS,
    SweepConfig,
    compare_methods,
    read_sweep_csv,
    report_to_json,
    run_sweep,
)
from .models import model_from_params
from .propagator import PropagatorSettings, _propagate_traced, propagate
from .znt import fit_parameters, glancing_double_crossing, glancing_tunneling, znt_phase_estimate


def _load_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            entries[key.strip().replace("_", "-")] = value.strip()
    return entries


# takes --config PATH or --config=PATH (the last one wins) out of the command line
_CONFIG_PARSER = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
_CONFIG_PARSER.add_argument("--config")


def _merge_config(
    argv: list[str], config: dict[str, str], subparsers: dict[str, argparse.ArgumentParser]
) -> list[str]:
    # config entries become leading flags so explicit flags override them;
    # a key is accepted exactly when the chosen subcommand has that long flag
    if not config or not argv or argv[0] not in subparsers:
        return argv
    allowed = {
        opt[2:]
        for opt in subparsers[argv[0]]._option_string_actions
        if opt.startswith("--") and opt != "--help"
    }
    flags: list[str] = []
    for key, value in config.items():
        if key in allowed:
            flags.extend((f"--{key}", value))
    return [argv[0], *flags, *argv[1:]]


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        n_values=tuple(int(tok) for tok in args.N.split(",")),
        alpha_min=args.alpha_min,
        alpha_max=args.alpha_max,
        points=args.points,
        spacing=args.spacing,
        methods=tuple(tok.strip() for tok in args.methods.split(",") if tok.strip()),
        settings=PropagatorSettings(args.tail_tol),
        out_path=args.out,
    )
    rows = run_sweep(config)
    failed = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {args.out} ({failed} with failures)")
    return 0


def _cmd_propagate(args: argparse.Namespace) -> int:
    model = model_from_params(
        args.model, N=args.N, alpha=args.alpha, A=args.A, B=args.B, V0=args.V0
    )
    settings = PropagatorSettings(args.tail_tol)
    if args.trace is None:
        result = propagate(model, settings)
    else:  # one solve on the trace window gives both
        result, samples = _propagate_traced(model, settings, args.samples)
    for field in dataclasses.fields(result):
        print(f"{field.name} = {getattr(result, field.name):.17g}")
    if args.trace is not None:
        with open(args.trace, "w", encoding="ascii", newline="") as fh:
            fh.write("t,P1,P2,norm\n")
            for t, p1, p2, norm in samples:
                fh.write(f"{t:.17g},{p1:.17g},{p2:.17g},{norm:.17g}\n")
        print(f"trace written to {args.trace}")
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    zeros = zero_points(args.N, args.alpha)
    print("k,re_tc,im_tc")
    for z in zeros:
        print(f"{z.k},{z.t_c.real:.17g},{z.t_c.imag:.17g}")
    return 0


def _cmd_phase(args: argparse.Namespace) -> int:
    d = phase_integral(args.N, args.alpha, args.k)
    print(f"sigma = {d.real:.17g}")
    print(f"delta = {d.imag:.17g}")
    print(f"eta = {abs(d):.17g}")
    return 0


def _cmd_ddp(args: argparse.Namespace) -> int:
    print(f"P = {ddp_probability(args.N, args.alpha):.17g}")
    return 0


def _cmd_znt(args: argparse.Namespace) -> int:
    if args.branch == "double":
        p = glancing_double_crossing(args.N, args.alpha)
    else:
        p = glancing_tunneling(args.N, args.alpha)
    print(f"P = {p:.17g}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    with open(args.curves, "r", encoding="utf-8") as fh:  # genfromtxt fails on an empty file
        lines = [ln for ln in fh if ln.strip()]
    data = np.genfromtxt(lines, delimiter=",", names=True, ndmin=1) if lines else np.empty(0)
    if len(data) < 2 or not {"t", "E1", "E2"} <= set(data.dtype.names or ()):
        raise ValueError(f"curves file needs columns t,E1,E2 and 2 or more rows; got "
                         f"columns {list(data.dtype.names or ())} and {len(data)} row(s)")
    order = np.argsort(data["t"])
    t = data["t"][order]
    # curves near the float range overflow inside numpy/scipy: the error
    # raised for them is the message, not the RuntimeWarnings on the way
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        e1 = CubicSpline(t, data["E1"][order])
        e2 = CubicSpline(t, data["E2"][order])
        geom, a_sq, b_sq = fit_parameters(e1, e2, (float(t[0]), float(t[-1])))
        estimate = znt_phase_estimate(geom, e1, e2, a_sq, b_sq)
    for field in dataclasses.fields(geom):
        print(f"{field.name} = {getattr(geom, field.name):.17g}")
    print(f"a_sq = {a_sq:.17g}")
    print(f"b_sq = {b_sq:.17g}")
    print(f"sigma_estimate = {estimate.real:.17g}")
    print(f"delta_estimate = {estimate.imag:.17g}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows, _ = read_sweep_csv(args.csv)
    report = compare_methods(rows, threshold=args.threshold)
    text = report_to_json(report)
    if args.report is not None:
        with open(args.report, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        for method, dev in sorted(report.max_abs_deviation.items()):
            shown = "n/a" if dev is None else f"{dev:.6g}"
            print(f"max|P_{method} - P_numeric| = {shown}")
        print(f"report written to {args.report}")
    else:
        print(text, end="")
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name, built once per
    process: parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="levelcross",
        description="Transition probabilities for level-glancing and parabolic two-level models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--tail-tol", type=float, default=PropagatorSettings.tail_tol)
    glancing = argparse.ArgumentParser(add_help=False)
    glancing.add_argument("--N", type=int, required=True)
    glancing.add_argument("--alpha", type=float, required=True)

    sp = sub.add_parser(
        "sweep", parents=[settings], help="evaluate methods over an alpha grid, write CSV"
    )
    sp.add_argument("--N", type=str, required=True, help="even N, comma-separated list allowed")
    sp.add_argument("--alpha-min", type=float, required=True)
    sp.add_argument("--alpha-max", type=float, required=True)
    sp.add_argument("--points", type=int, required=True)
    sp.add_argument("--spacing", choices=("linear", "log"), default="log")
    sp.add_argument("--methods", type=str, default=",".join(METHODS))
    sp.add_argument("--out", type=str, required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser(
        "propagate", parents=[settings], help="integrate the exact dynamics for one model"
    )
    sp.add_argument("--model", choices=("superparabolic", "parabolic"), default="superparabolic")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--A", type=float, default=None)
    sp.add_argument("--B", type=float, default=None)
    sp.add_argument("--V0", type=float, default=None)
    sp.add_argument("--trace", type=str, default=None, help="write population trace CSV here")
    sp.add_argument("--samples", type=int, default=512)
    sp.set_defaults(func=_cmd_propagate)

    sp = sub.add_parser(
        "zeros", parents=[glancing], help="complex zero points of the adiabatic gap"
    )
    sp.set_defaults(func=_cmd_zeros)

    sp = sub.add_parser(
        "phase", parents=[glancing], help="complex gap integral D at the k-th zero point"
    )
    sp.add_argument("--k", type=int, default=1)
    sp.set_defaults(func=_cmd_phase)

    sp = sub.add_parser("ddp", parents=[glancing], help="coherent multi-zero adiabatic probability")
    sp.set_defaults(func=_cmd_ddp)

    sp = sub.add_parser(
        "znt", parents=[glancing], help="Zhu-Nakamura probability, double or tunnel branch"
    )
    sp.add_argument("--branch", choices=("double", "tunnel"), required=True)
    sp.set_defaults(func=_cmd_znt)

    sp = sub.add_parser("fit", help="fit reduced parameters from adiabatic curves CSV (t,E1,E2)")
    sp.add_argument("--curves", type=str, required=True)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("compare", help="method-comparison report from a sweep CSV")
    sp.add_argument("csv", type=str)
    sp.add_argument("--threshold", type=float, default=0.05)
    sp.add_argument("--report", type=str, default=None)
    sp.set_defaults(func=_cmd_compare)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        found, stripped = _CONFIG_PARSER.parse_known_args(raw)
        merged = _merge_config(stripped, _load_config(found.config) if found.config else {}, subparsers)
    except argparse.ArgumentError:
        print("error: --config requires a path", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(merged)
    try:
        return args.func(args)
    except (LevelCrossError, ArithmeticError) as exc:  # ArithmeticError: a range error in the numerics
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large to allocate, refused before any allocation
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
