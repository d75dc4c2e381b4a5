"""Command-line front end.

Exit codes: 0 success, 1 bad input, 2 infeasible data or a surface that
is not developable within VERIFY_TOL, 3 rejected degenerate configuration
(cylinder/cone/planar, or a surface whose every sampled ruling is
collapsed, which leaves no verdict).  `solve` scans the patch it built
as `verify` does, and writes no files unless the verdict is 0.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import DegenerateCaseError, InfeasibleProblemError
from .fileio import (SolveReport, export_obj, parse_curve, parse_problem,
                     parse_solution, serialize_curve, serialize_solution,
                     write_output)
from .solvers import solve_spec
from .verify import (DevelopabilityScan, developability_scan,
                     planarity_report)

VERIFY_TOL = 1e-8
REPORT_SAMPLES_PER_PIECE = 100


@functools.cache  # built on the first run_cli call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devstrip",
        description="Construct developable surface patches from boundary "
                    "spline data.")
    parser.add_argument("--version", action="version",
                        version=f"devstrip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="solve a problem file; write surface mesh and reports")
    solve.add_argument("--problem", required=True, metavar="FILE",
                       help="problem description (JSON)")
    solve.add_argument("--root", type=int, default=None, metavar="IDX",
                       help="override the problem file's root choice")
    solve.add_argument("--out", default="out", metavar="DIR",
                       help="output directory (default: out)")
    solve.add_argument("--u-samples", type=int, default=None, metavar="N",
                       help="mesh samples per piece along the curve")
    solve.add_argument("--v-samples", type=int, default=None, metavar="N",
                       help="mesh samples along the rulings")

    verify = sub.add_parser(
        "verify", help="check a solved surface for developability")
    verify.add_argument("--surface", required=True, metavar="FILE",
                        help="solution JSON written by solve")
    verify.add_argument("--samples", type=int, default=None, metavar="N",
                        help="samples per piece (default: "
                             f"{REPORT_SAMPLES_PER_PIECE}, as solve's report)")

    elevate = sub.add_parser(
        "elevate", help="degree-elevate a curve file, print the result")
    elevate.add_argument("--curve", required=True, metavar="FILE",
                         help="curve description (JSON)")
    return parser


def _positive_samples(value: Optional[int], fallback: int, name: str) -> int:
    if value is None:
        return fallback
    if value < 2:
        raise ValueError(f"{name} must be at least 2")
    return value


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = parse_problem(Path(args.problem).read_text())
    if args.root is not None:
        if args.root < 0:
            raise ValueError("--root must be nonnegative")
        spec = replace(spec, root_choice=args.root)
    u_samples = _positive_samples(args.u_samples, spec.u_samples,
                                  "--u-samples")
    v_samples = _positive_samples(args.v_samples, spec.v_samples,
                                  "--v-samples")

    solution = solve_spec(spec)
    patch = solution.patch

    scan = developability_scan(patch, REPORT_SAMPLES_PER_PIECE)
    code, verdict = _verdict(scan)
    if code:
        print(f"{verdict}: max developability residual "
              f"{scan.max_residual:.3e} at u = {scan.argmax_u:.6g} "
              f"(chosen M* = {solution.chosen_root:.6g}); no files written",
              file=sys.stderr)
        return code
    report = SolveReport(
        problem_kind=spec.problem_kind,
        roots=tuple(float(r) for r in solution.m_star_roots),
        chosen_m_star=float(solution.chosen_root),
        lambda_star=float(solution.lambda_star),
        alpha=float(solution.alpha),
        beta=float(solution.beta),
        sigma=float(solution.sigma),
        tau=float(solution.tau),
        base_polygon=tuple(tuple(float(x) for x in p)
                           for p in patch.base.control),
        opposite_polygon=tuple(tuple(float(x) for x in p)
                               for p in patch.opposite.control),
        max_developability=float(scan.max_residual),
        worst_cell_planarity=float(max(planarity_report(patch))),
        pinch_u=solution.pinch_u,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_output(out / "solution.json", serialize_solution(patch))
    write_output(out / "surface.obj", export_obj(patch, u_samples, v_samples))
    write_output(out / "report.json", report.as_json())
    write_output(out / "report.txt", report.as_text())

    roots_text = ", ".join(f"{r:.6g}" for r in solution.m_star_roots)
    print(f"solved {spec.problem_kind}: admissible M* roots [{roots_text}], "
          f"chosen M* = {solution.chosen_root:.6g}, "
          f"lambda* = {solution.lambda_star:.6g}")
    print(f"max developability residual {scan.max_residual:.3e} "
          f"({scan.samples} samples)")
    print(f"wrote solution.json, surface.obj, report.json, report.txt "
          f"to {out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    samples = _positive_samples(args.samples, REPORT_SAMPLES_PER_PIECE,
                                "--samples")
    patch = parse_solution(Path(args.surface).read_text())
    scan = developability_scan(patch, samples_per_piece=samples)
    print(f"max developability residual {scan.max_residual:.3e} "
          f"at u = {scan.argmax_u:.6g}")
    print(f"samples: {scan.samples} used, {scan.skipped} skipped "
          f"(collapsed rulings)")
    code, verdict = _verdict(scan)
    print(verdict)
    return code


def _verdict(scan: DevelopabilityScan) -> tuple[int, str]:
    """Exit code and verdict line of a scan: 0 within VERIFY_TOL, 2 above
    it, 3 when every sampled ruling is collapsed."""
    if scan.samples == 0:
        return 3, "no verdict: every sampled ruling is collapsed"
    if scan.max_residual <= VERIFY_TOL:
        return 0, f"developable within tolerance {VERIFY_TOL:.0e}"
    return 2, f"NOT developable within tolerance {VERIFY_TOL:.0e}"


def _cmd_elevate(args: argparse.Namespace) -> int:
    curve = parse_curve(Path(args.curve).read_text())
    sys.stdout.write(serialize_curve(curve.elevate_degree()))
    return 0


def run_cli(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {"solve": _cmd_solve, "verify": _cmd_verify,
                "elevate": _cmd_elevate}
    try:
        return handlers[args.command](args)
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except DegenerateCaseError as exc:
        print(f"degenerate case: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
