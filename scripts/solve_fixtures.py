"""Solve every bundled problem file and summarize the results.

Runs the full pipeline on each fixture, times the solve, and prints the
constants plus independent developability and planarity checks. With
--out, also writes a mesh per fixture.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from devstrip import (DegenerateCaseError, InfeasibleProblemError,
                      developability_scan, export_obj, parse_problem,
                      planarity_report, solve_spec)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", default="fixtures", metavar="DIR",
                        help="directory of problem files (default: fixtures)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write an OBJ mesh per fixture")
    parser.add_argument("--samples", type=int, default=200, metavar="N",
                        help="scan samples per piece (default: 200)")
    args = parser.parse_args(argv)

    paths = sorted(Path(args.fixtures).glob("*.json"))
    if not paths:
        parser.error(f"no problem files under {args.fixtures}")

    for path in paths:
        spec = parse_problem(path.read_text())
        t0 = time.perf_counter()
        try:
            solution = solve_spec(spec)
        except (InfeasibleProblemError, DegenerateCaseError) as exc:
            print(f"{path.name}: rejected ({exc})")
            continue
        elapsed = time.perf_counter() - t0
        patch = solution.patch

        scan = developability_scan(patch, args.samples)
        planarity = max(planarity_report(patch))
        print(f"{path.name}: {spec.problem_kind}  degree {patch.base.degree}"
              f"  {elapsed * 1e3:.1f} ms")
        print(f"  roots {[round(float(r), 4) for r in solution.m_star_roots]}"
              f"  chosen m* = {solution.chosen_root:.6g}"
              f"  lambda* = {solution.lambda_star:.6g}"
              f"  tau = {solution.tau:.6g}")
        print(f"  developability {scan.max_residual:.3e}"
              f" ({scan.samples} samples, {scan.skipped} skipped)"
              f"  planarity {planarity:.3e}")

        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            mesh = out / f"{path.stem}.obj"
            mesh.write_text(export_obj(patch, spec.u_samples, spec.v_samples))
            print(f"  wrote {mesh}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
