"""Map how the admissible m* roots move as the far ruling rotates.

Takes the two-ruling problem from a fixture, spins its far ruling
direction w about the z axis, and solves at every admissible root. The
table shows where roots appear, merge, or vanish (infeasible angles) and
how lambda*, tau, and the worst developability residual respond, which
is the data needed to pick a root_choice for a family of inputs.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from devstrip import (DegenerateCaseError, InfeasibleProblemError,
                      developability_scan, parse_problem, solve_spec)


def rotated(w, theta):
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    return (cos_t * w[0] - sin_t * w[1],
            sin_t * w[0] + cos_t * w[1],
            w[2])


def turned(spec, theta):
    """The spec with w rotated by theta, at root 0.

    A far-end anchor turns with w about the curve's last point, so that it
    stays on the rotated ruling line."""
    changes = {"w": rotated(spec.w, theta), "root_choice": 0}
    if spec.anchor_end == "end":
        c_last = spec.control[-1]
        offset = rotated([p - c for p, c in zip(spec.anchor_point, c_last)],
                         theta)
        changes["anchor_point"] = tuple(c + o for c, o in zip(c_last, offset))
    return replace(spec, **changes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--problem", default="fixtures/spline3.json",
                        metavar="FILE",
                        help="two-ruling problem file to perturb")
    parser.add_argument("--angles", type=int, default=12, metavar="N",
                        help="rotation steps over a full turn (default: 12)")
    parser.add_argument("--samples", type=int, default=50, metavar="N",
                        help="scan samples per piece (default: 50)")
    args = parser.parse_args(argv)

    spec = parse_problem(Path(args.problem).read_text())
    if spec.problem_kind != "problem1":
        parser.error("the sweep needs a problem with prescribed end rulings")

    print(f"{'deg':>6}  {'root':>4}  {'m*':>10}  {'lambda*':>10}"
          f"  {'tau':>10}  {'residual':>10}")
    rejected = []
    for step in range(args.angles):
        theta = 2.0 * math.pi * step / args.angles
        problem = turned(spec, theta)
        label = f"{math.degrees(theta):6.1f}"
        try:
            first = solve_spec(problem)
        except (InfeasibleProblemError, DegenerateCaseError) as exc:
            rejected.append((label, str(exc)))
            continue
        for index in range(len(first.m_star_roots)):
            sol = (first if index == 0 else
                   solve_spec(replace(problem, root_choice=index)))
            scan = developability_scan(sol.strip, args.samples)
            print(f"{label}  {index:>4}  {sol.chosen_root:10.4f}"
                  f"  {sol.lambda_star:10.4f}  {sol.tau:10.4f}"
                  f"  {scan.max_residual:10.3e}")

    for label, reason in rejected:
        print(f"{label}  rejected: {reason}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
