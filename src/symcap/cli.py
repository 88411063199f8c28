"""Command line entry points.

Each subcommand is a thin wrapper over one library operation:

* ``cj``          pairing capacity of a body
* ``capacity``    Clarke dual minimization estimate
* ``symmetrize``  m-fold loop symmetrization (m = 2: central)
* ``girth``       shortest symmetric boundary curve search
* ``flow``        characteristic integration with CSV export
* ``verify``      batch inequality verification with reports

All randomness flows from ``--seed`` (default 0), so repeated runs are
bit-reproducible.  A subcommand takes only the common flags it reads:
``--seed`` where it draws random numbers, ``--tol`` where it checks margins
and ``--json`` where it prints a result.  Usage errors exit with 2,
numerical or verification failures with 1, success with 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._util import fmt
from .capacity import OptimizerConfig, c_j, clarke_minimize
from .characteristics import export_trajectory, integrate_characteristic
from .errors import InvalidParameter, SpecParseError, SymcapError
from .geometry import body_from_dict
from .girth import check_schaffer_bound, symmetric_girth
from .loops import DiscreteLoop
from .symmetry import symmetrize_mfold
from .verify import PACKAGED_SUITE, read_json, run_verify


def _load_body(path):
    return body_from_dict(read_json(path))


def _load_loop(path):
    return DiscreteLoop.from_dict(read_json(path))


def _emit(args, payload, plain_line):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=float))
    else:
        print(plain_line)


def _cmd_cj(args):
    result = c_j(_load_body(args.body), seed=args.seed)
    _emit(args, result.to_dict(), fmt(result.value))
    return 0


def _cmd_capacity(args):
    config = OptimizerConfig(
        seed=args.seed, restarts=args.restarts, points=args.points
    )
    result = clarke_minimize(_load_body(args.body), config)
    _emit(args, result.to_dict(), fmt(result.value))
    return 0


def _cmd_symmetrize(args):
    loop = _load_loop(args.loop)
    body = _load_body(args.body)
    outcome = symmetrize_mfold(loop, body, args.m)
    if args.out:
        Path(args.out).write_text(
            json.dumps(outcome.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    _emit(
        args,
        outcome.to_dict(),
        f"action {fmt(outcome.post_action)} length {fmt(outcome.post_length)}",
    )
    return 0


def _cmd_girth(args):
    body = _load_body(args.body)
    length, loop = symmetric_girth(body, n_samples=args.samples, rng=args.seed)
    report = check_schaffer_bound(body, loop)
    _emit(
        args,
        report,
        f"length {fmt(length)} bound {fmt(report['bound'])} "
        f"margin {fmt(report['margin'])}",
    )
    return 0 if report["margin"] >= -args.tol else 1


def _cmd_flow(args):
    body = _load_body(args.body)
    try:
        start = np.array([float(v) for v in args.start.split(",")])
    except ValueError:
        raise InvalidParameter("--start must be comma-separated numbers") from None
    if start.shape != (body.dim,):
        raise InvalidParameter(f"--start has {start.size} coordinates, need {body.dim}")
    trajectory = integrate_characteristic(
        body, start, args.tmax, step=args.step
    )
    if args.out:
        export_trajectory(trajectory, args.out)
    payload = {
        "period": trajectory.period,
        "closure_residual": trajectory.closure_residual,
        "boundary_residual": trajectory.boundary_residual(),
        "steps": int(len(trajectory.times) - 1),
    }
    _emit(
        args,
        payload,
        f"period {fmt(trajectory.period)} closure "
        f"{fmt(trajectory.closure_residual)}",
    )
    return 0


def _cmd_verify(args):
    exit_code, records = run_verify(
        args.suite or PACKAGED_SUITE,
        args.out,
        seed=args.seed,
        profile=args.profile,
        tol=args.tol,
        timings=args.timings,
    )
    for rec in records:
        margins = rec.margins()
        worst = fmt(min(margins)) if margins else ""
        print(f"{rec.body_id}: {rec.status} worst_margin {worst}")
    # a path from argv bytes that are not UTF-8 holds lone surrogates
    print(f"reports written to {args.out}".encode(errors="backslashreplace").decode())
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcap",
        description="Capacity and curve-length estimation for convex bodies.",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="base random seed")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-2, help="margin tolerance")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of text"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cj", parents=[seed, as_json], help="pairing capacity c_J")
    p.add_argument("body", help="body JSON file")
    p.set_defaults(func=_cmd_cj)

    p = sub.add_parser(
        "capacity", parents=[seed, as_json], help="Clarke dual capacity estimate"
    )
    p.add_argument("body", help="body JSON file")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--points", type=int, default=256)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("symmetrize", parents=[as_json], help="symmetrize a loop")
    p.add_argument("loop", help="loop JSON file")
    p.add_argument("--body", required=True, help="norm body JSON file")
    p.add_argument("--m", type=int, default=2, help="symmetry order")
    p.add_argument("--out", help="write the outcome JSON here")
    p.set_defaults(func=_cmd_symmetrize)

    p = sub.add_parser(
        "girth", parents=[seed, tol, as_json], help="symmetric girth search"
    )
    p.add_argument("body", help="body JSON file")
    p.add_argument("--samples", type=int, default=4096)
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("flow", parents=[as_json], help="characteristic flow")
    p.add_argument("body", help="body JSON file")
    p.add_argument("--start", required=True, help="comma-separated start point")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3, help="sample spacing")
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("verify", parents=[seed, tol], help="run a verification suite")
    p.add_argument(
        "suite", nargs="?", default=None, help="suite JSON (default: packaged suite)"
    )
    p.add_argument("--out", default="reports", help="output directory")
    p.add_argument(
        "--profile", default="fast", help="optimization profile (fast or full)"
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="include wall times in reports (breaks byte-reproducibility)",
    )
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "seed" in args and args.seed < 0:
            raise InvalidParameter(f"--seed must be non-negative, got {args.seed}")
        if "tol" in args and not math.isfinite(args.tol):
            raise InvalidParameter(f"--tol must be finite, got {args.tol}")
        return args.func(args)
    except (SpecParseError, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out path that cannot be written
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except SymcapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
