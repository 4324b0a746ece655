"""Command-line surface.

Commands: check-order, solve, solve-radial, verify, deform-check, oracle.
Exit codes: 0 ok / 1 mathematical negative / 2 input or file error / 3 numerical
failure. All commands are deterministic under fixed seed and inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import (InputError, MotkitError, NotInConvexOrderError,
                     SolverFailureError)
from . import lp as lp_mod
from .measures import convex_order_check, load_marginal_pair
from .mot1d import (check_exponent, cost, read_coupling_json,
                    write_coupling_json, write_induced_csv, write_maps_csv)
# only `solve` is called here; perfbench/tracing.py's PATCHES rebinds the rest
from .pipeline import common_mass_split, detect_separation, solve, solve_sweep  # noqa: F401
# `sample_lifted` is not called here; perfbench/tracing.py's PATCHES rebinds it
from .radial import lift_summary, load_radial_pair, sample_lifted, solve_radial  # noqa: F401
from .verify import (DETECT_MASS_TOL, check_decreasing, curve_is_constant,
                     curve_is_strictly_decreasing, deformation_curve,
                     detect_forbidden, random_deformation_instance,
                     validate_coupling)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _emit(doc: dict, path: str | None):
    text = json.dumps(doc, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_check_order(args) -> int:
    mu, nu = load_marginal_pair(args.input)
    report = convex_order_check(mu, nu, tol=args.tol)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.in_order else EXIT_NEGATIVE


def cmd_solve(args) -> int:
    mu, nu = load_marginal_pair(args.input)
    try:
        sol = solve(mu, nu, args.p, args.method, args.tol)
    except NotInConvexOrderError as exc:
        if exc.report is None:
            raise
        _emit(exc.report.to_dict(), None)
        return EXIT_NEGATIVE
    full = sol.coupling()
    total_cost = cost(full, args.p)
    if args.out:
        write_coupling_json(args.out, full, total_cost, sol.maps)
    if args.maps_csv and sol.maps is not None:
        write_maps_csv(args.maps_csv, sol.maps)
    print(f"method={sol.route or 'none'} cost={total_cost!r}")
    return EXIT_OK


def cmd_solve_radial(args) -> int:
    dim, mu, nu = load_radial_pair(args.input)
    lifted, c1 = solve_radial(mu, nu, args.p, n=args.n, tol=args.tol)
    cd = lifted.cost_ddim(args.p)
    if abs(cd - c1) > 1e-9 * max(1.0, abs(c1)):
        raise SolverFailureError(f"lifted cost {cd!r} disagrees with base {c1!r}")
    if args.out:
        write_coupling_json(args.out, lifted.base, c1, lifted.maps,
                            extra={"dim": dim, "cost_ddim": cd})
    if args.induced_csv:
        write_induced_csv(args.induced_csv, lifted.base)
    print(f"cost_1d={c1!r} cost_ddim={cd!r}")
    if args.samples:
        print(json.dumps(lift_summary(lifted, args.samples, args.seed), sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    pi, _, maps = read_coupling_json(args.coupling)
    mu, nu = load_marginal_pair(args.marginals)
    rep = validate_coupling(pi, mu, nu)
    forbidden = detect_forbidden(pi, DETECT_MASS_TOL * rep.mass_unit)
    decreasing = None if maps is None else check_decreasing(maps)
    doc = {
        "forbidden": forbidden,
        "residuals": rep.to_dict(),
        "decreasing": decreasing,
    }
    _emit(doc, args.out)
    clean = rep.ok(args.tol) and not forbidden and decreasing is not False
    return EXIT_OK if clean else EXIT_NEGATIVE


def cmd_deform_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    all_ok = True
    first_curve = None
    for _ in range(args.instances):
        inst = random_deformation_instance(rng, args.q)
        curve = deformation_curve(inst, args.grid)
        if first_curve is None:
            first_curve = curve
        ok = curve_is_strictly_decreasing(curve) or curve_is_constant(curve)
        all_ok = all_ok and ok
    if args.out and first_curve is not None:
        from .floattext import text_rows
        with open(args.out, "wb") as fh:
            fh.write(b"t,C\n")
            fh.writelines(text_rows(zip(*first_curve), b"", b",", b"\n"))
    print(f"q={args.q!r} instances={args.instances} monotone={all_ok}")
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def cmd_oracle(args) -> int:
    check_exponent(args.p)
    mu, nu = load_marginal_pair(args.input)
    sol = lp_mod.solve_lp(mu, nu, args.p, sense=args.sense)
    if sol.status == "infeasible":
        print("infeasible")
        return EXIT_NEGATIVE
    if args.out:
        write_coupling_json(args.out, sol.coupling, sol.objective)
    print(f"objective={sol.objective!r}")
    return EXIT_OK


def _at_least(low, convert=float):
    """An argparse type for a finite number >= low (nan fails the test)."""
    def number(text):
        if low <= (value := convert(text)) < np.inf:
            return value
        raise argparse.ArgumentTypeError(f"{text} is not a finite number >= {low}")
    return number


def _sample_count(text):
    """--samples: 0 for none, or at least 2 so the standard error exists."""
    return 0 if int(text) == 0 else _at_least(2, int)(text)


@functools.cache  # built on the first main() call, not at import
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="motkit",
                                 description="martingale transport toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_p=True, with_tol=True):
        if with_tol:
            p.add_argument("--tol", type=_at_least(0.0), default=1e-9)
        p.add_argument("--out", default=None)
        if with_p:
            p.add_argument("--p", type=float, default=1.0)

    p = sub.add_parser("check-order", help="convex-order check of a marginal pair")
    p.add_argument("input")
    common(p, with_p=False)
    p.set_defaults(func=cmd_check_order)

    p = sub.add_parser("solve", help="solve a 1-D martingale transport instance")
    p.add_argument("input")
    p.add_argument("--method", choices=("auto", "sweep", "lp"), default="auto")
    p.add_argument("--maps-csv", default=None)
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-radial", help="solve a radially symmetric instance")
    p.add_argument("input")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--samples", type=_sample_count, default=0)
    p.add_argument("--seed", type=_at_least(0, int), default=0)
    p.add_argument("--induced-csv", default=None)
    common(p)
    p.set_defaults(func=cmd_solve_radial)

    p = sub.add_parser("verify", help="verify a coupling against marginals")
    p.add_argument("--coupling", required=True)
    p.add_argument("--marginals", required=True)
    common(p, with_p=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("deform-check", help="circular deformation monotonicity check")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--seed", type=_at_least(0, int), default=0)
    p.add_argument("--instances", type=_at_least(1, int), default=20)
    p.add_argument("--grid", type=_at_least(2, int), default=101)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_deform_check)

    p = sub.add_parser("oracle", help="direct LP solve (min or max)")
    p.add_argument("input")
    p.add_argument("--sense", choices=("min", "max"), default="min")
    common(p, with_tol=False)
    p.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotInConvexOrderError as exc:
        print(f"not in convex order: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # the readers raise InputError, so this is an output path
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MotkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
