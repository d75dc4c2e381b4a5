"""Record every solve of the benchmark's planted strips, or compare two records.

    python3 scripts/solve_census.py --seeds 40 > new.jsonl
    python3 scripts/solve_census.py --seeds 40 --src OTHER/src > old.jsonl
    python3 scripts/solve_census.py --compare old.jsonl new.jsonl

The solves are those of the stripbench workloads pieces_sweep and elevated,
built by stripbench's own builders and anchored as the benchmark anchors
them: for each seed 1..N the seeded plants of both workloads, and the fixed
high-piece corpus of pieces_sweep once.  Then, for each seed, plants the
benchmark never draws, built here by its recipe with m* given: m* inside a
knot interval, m* within 1e-5 to 1e-3 of an inner knot (the domain is
[0, 1]), and |m*| from 10 to 1e4, at 2, 4 and 8 pieces, degrees 2-5 and
every problem kind; and problems 2 and 3 on the benchmark's own plants at
12 to 64 pieces, degrees 2-5, from a random stream of their own, so that
the records before them keep their draws.  Each solve writes one JSON line:
the case, its outcome ("solved" or the exception class), and for a solved
case the roots, chosen root, lambda*, tau, the parameter where the patch
pinches (null unless tau < 0), the final control points of
both boundaries and the developability_scan record of the final patch at
20 samples per piece (the benchmark's density): max residual and its
parameter, samples used and skipped.  Every float is written as float.hex,
so two records compare exactly.  Each line also counts the root searches of
its solve that the Lagrange-basis eigenvalue problem left to the
per-interval path (null for a --src without solvers._pencil_roots).

--compare lists every case whose scan record changed, with the old and new
fields, then the changes that make it exit 1, then a summary: the count of
cases whose control points are not bit-identical, the largest move of a
root (over max(1, |root|)), of lambda* and tau (over max(1, |value|)) and
of a control point (over max(1, the largest coordinate)) among the cases
solved on both sides, and the largest absolute change of a scan's max
residual.  It exits 1 when an outcome, a root count, a scan's samples or
skipped count, or a scan's verdict against devstrip's VERIFY_TOL (max
residual at most the tolerance) differs, or a case is missing from one
record.  Those lines come last, above the summary, so that a long list of
rescanned cases does not bury them.  The summary ends with each record's
total of root searches left to the per-interval path, which no exit code
depends on.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Samples per piece of the recorded scan: stripbench's SCAN_DENSITY.
SCAN_SAMPLES = 20
# devstrip.cli.VERIFY_TOL, the tolerance of `devstrip verify`; --compare
# reads no devstrip code.
VERIFY_TOL = 1e-8


# The plants the benchmark never draws: where their m* lies.
EXTRA_FAMILIES = ("inside", "near_knot", "far")
EXTRA_PIECES = (2, 4, 8)
EXTRA_DEGREES = (2, 3, 4, 5)
# m* of a near_knot plant lies 10**U(NEAR_KNOT_EXPONENTS) from an inner
# knot, and that of a far plant at ±10**U(FAR_EXPONENTS)
NEAR_KNOT_EXPONENTS = (-5.0, -3.0)
FAR_EXPONENTS = (1.0, 4.0)
# Problems 2 and 3 at the piece counts of pieces_sweep's fixed corpus, which
# the elevated workload (2-8 pieces) never reaches: one plant per kind,
# piece count and degree, drawn from the stream (seed, LARGE_STREAM).
LARGE_PIECES = (12, 16, 24, 32, 48, 64)
LARGE_STREAM = 1


def plant_at(cases, rng, family, degree, pieces):
    """stripbench's planted strip (cases.plant_strip: the same draws of the
    knots, the base polygon, the lambda* offset and the first ruling) with
    m* drawn for the family instead of 0.5-2 outside the domain."""
    n = degree
    inner = (np.arange(1, pieces) + rng.uniform(
        -cases.KNOT_JITTER, cases.KNOT_JITTER, pieces - 1)) / pieces
    knots = np.concatenate((np.zeros(n), inner, np.ones(n)))
    count = pieces + n
    steps = rng.normal(0.0, 0.6 / np.sqrt(count), (count - 1, 3))
    steps[:, 0] += 1.0 / count
    base = np.vstack((np.zeros(3), np.cumsum(steps, axis=0)))

    if family == "inside":
        ends = np.concatenate(([0.0], inner, [1.0]))
        k = rng.integers(pieces)
        m = ends[k] + rng.uniform(0.1, 0.9) * (ends[k + 1] - ends[k])
    elif family == "near_knot":
        m = rng.choice(inner) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(
            *NEAR_KNOT_EXPONENTS)
    else:
        m = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(*FAR_EXPONENTS)
    lam = m + rng.choice((-1.0, 1.0)) * rng.uniform(*cases.LAMBDA_OFFSET)
    first = rng.normal(size=3)
    first *= rng.uniform(*cases.FIRST_RULING_LENGTH) / np.linalg.norm(first)

    u = knots
    opposite = np.empty_like(base)
    opposite[0] = base[0] + first
    for i in range(count - 1):
        opposite[i + 1] = ((u[i + n] - lam) * base[i]
                           + (lam - u[i]) * base[i + 1]
                           + (m - u[i + n]) * opposite[i]) / (m - u[i])
    return cases.Plant(n, knots, base, opposite, float(lam), float(m))


def extra_cases(seed, devstrip, bench):
    """The plants of one seed that the benchmark never draws, as
    stripbench cases named family-kind-p<pieces>-n<degree>."""
    rng = np.random.default_rng(seed)
    for family in EXTRA_FAMILIES:
        for pieces in EXTRA_PIECES:
            for degree in EXTRA_DEGREES:
                for kind in ("problem1", "problem2", "problem3"):
                    plant = plant_at(bench.cases, rng, family, degree, pieces)
                    case = bench._library_case(kind, plant, True, devstrip)
                    case.name = f"{family}-{case.name}"
                    yield case


def large_cases(seed, devstrip, bench):
    """Problem-2 and problem-3 plants of one seed at LARGE_PIECES, as
    stripbench cases named kind-p<pieces>-n<degree>."""
    rng = np.random.default_rng((seed, LARGE_STREAM))
    for pieces in LARGE_PIECES:
        for degree in EXTRA_DEGREES:
            for kind in ("problem2", "problem3"):
                plant = bench.cases.plant_strip(rng, degree, pieces)
                yield bench._library_case(kind, plant, True, devstrip)


def _hex(values):
    return [float(v).hex() for v in values]


def _solve(devstrip, case):
    """The solve record of the case and its final patch."""
    kind, plant, curve = (case.payload[k] for k in ("kind", "plant", "curve"))
    if kind == "problem1":
        sol = devstrip.solve_problem1(curve, plant.v, plant.w, d0=plant.d0)
        patch = sol.strip
    elif kind == "problem2":
        sol = devstrip.solve_problem2(curve, plant.d0, plant.dL)
        patch = devstrip.RuledPatch(sol.elevated_c, sol.elevated_d)
    else:
        sol = devstrip.solve_problem3(curve, plant.dL,
                                      case.payload["apex_velocity"])
        patch = devstrip.RuledPatch(sol.final_c, sol.final_d)
    pinch = getattr(sol, "pinch_u", None)
    # A --src older than the one solve record nests the two-ruling solve
    # that holds the roots; this fallback goes once the compared base has
    # the record.
    for nested in ("problem2", "problem1"):
        sol = getattr(sol, nested, sol)
    return sol, patch, pinch


def census(seeds: int, src: Path):
    sys.path.insert(0, str(src.resolve()))
    sys.path.insert(0, str(ROOT / "stripbench"))
    import devstrip
    import run as bench

    # whether each root search of the current solve left the pencil
    left = []
    pencil = getattr(devstrip.solvers, "_pencil_roots", None)
    if pencil is not None:
        def counted(*args):
            roots = pencil(*args)
            left.append(roots is None)
            return roots

        devstrip.solvers._pencil_roots = counted
    for seed in range(1, seeds + 1):
        for workload in ("pieces_sweep", "elevated", "extra", "large"):
            if workload == "extra":
                work = extra_cases(seed, devstrip, bench)
            elif workload == "large":
                work = large_cases(seed, devstrip, bench)
            else:
                work = bench.WORKLOADS[workload][0](seed, devstrip, None)
            for case in work:
                # the fixed corpus is the same for every seed
                if not case.must_pass and seed > 1:
                    continue
                label = "fixed" if not case.must_pass else f"seed{seed}"
                line = {"case": f"{workload}/{label}/{case.name}"}
                left.clear()
                try:
                    first, patch, pinch = _solve(devstrip, case)
                except Exception as exc:
                    line["outcome"] = type(exc).__name__
                else:
                    scan = devstrip.developability_scan(patch, SCAN_SAMPLES)
                    line.update(
                        outcome="solved", roots=_hex(first.m_star_roots),
                        chosen=float(first.chosen_root).hex(),
                        lambda_star=float(first.lambda_star).hex(),
                        tau=float(first.tau).hex(),
                        pinch_u=None if pinch is None else float(pinch).hex(),
                        base=[_hex(p) for p in patch.base.control],
                        opposite=[_hex(p) for p in patch.opposite.control],
                        scan=[float(scan.max_residual).hex(),
                              float(scan.argmax_u).hex(),
                              scan.samples, scan.skipped])
                line["fallbacks"] = None if pencil is None else sum(left)
                yield line


def _read(path: str) -> dict:
    with open(path) as f:
        return {line["case"]: line for line in map(json.loads, f)}


def _floats(values):
    return [float.fromhex(v) for v in values]


def _fallbacks(record: dict) -> str:
    counts = [line.get("fallbacks") for line in record.values()]
    counts = [count for count in counts if count is not None]
    return str(sum(counts)) if counts else "not recorded"


def compare(old_path: str, new_path: str) -> int:
    old, new = _read(old_path), _read(new_path)
    changed = []
    for case in sorted(old.keys() ^ new.keys()):
        changed.append(f"{case}: only in "
                       f"{old_path if case in old else new_path}")
    moves = {"root": 0.0, "lambda_star": 0.0, "tau": 0.0, "control": 0.0}
    residual_change = 0.0
    solved = moved_polygons = 0
    rescanned = []
    for case in sorted(old.keys() & new.keys()):
        a, b = old[case], new[case]
        if a["outcome"] != b["outcome"]:
            changed.append(f"{case}: {a['outcome']} -> {b['outcome']}")
            continue
        if a["outcome"] != "solved":
            continue
        ra, rb = _floats(a["roots"]), _floats(b["roots"])
        if len(ra) != len(rb):
            changed.append(f"{case}: {len(ra)} -> {len(rb)} roots")
            continue
        solved += 1
        if a["scan"] != b["scan"]:
            rescanned.append(f"{case}: scan {a['scan']} -> {b['scan']}")
            if a["scan"][2:] != b["scan"][2:]:
                changed.append(f"{case}: scan samples, skipped "
                               f"{a['scan'][2:]} -> {b['scan'][2:]}")
            x, y = float.fromhex(a["scan"][0]), float.fromhex(b["scan"][0])
            residual_change = max(residual_change, abs(y - x))
            if (x <= VERIFY_TOL) != (y <= VERIFY_TOL):
                changed.append(f"{case}: scan verdict against {VERIFY_TOL:g} "
                               f"flipped, max residual {x:.3e} -> {y:.3e}")
        moved_polygons += (a["base"], a["opposite"]) != (b["base"],
                                                         b["opposite"])
        for x, y in zip(ra, rb):
            moves["root"] = max(moves["root"], abs(y - x) / max(1.0, abs(x)))
        for key in ("lambda_star", "tau"):
            x, y = float.fromhex(a[key]), float.fromhex(b[key])
            moves[key] = max(moves[key], abs(y - x) / max(1.0, abs(x)))
        pa = [_floats(p) for p in a["base"] + a["opposite"]]
        pb = [_floats(p) for p in b["base"] + b["opposite"]]
        scale = max([1.0] + [abs(x) for p in pa for x in p])
        moves["control"] = max([moves["control"]] + [
            abs(y - x) / scale for p, q in zip(pa, pb) for x, y in zip(p, q)])

    for line in rescanned + changed:
        print(line)
    print(f"{len(old)} and {len(new)} solves, {len(changed)} changed, "
          f"{solved} solved on both sides with the same root count; "
          f"{moved_polygons} with other control points, {len(rescanned)} "
          f"with another scan record")
    print("largest relative move: " + ", ".join(
        f"{key} {value:.3g}" for key, value in moves.items()))
    print(f"largest absolute change of a scan residual: "
          f"{residual_change:.3g}")
    print("root searches left to the per-interval path: " + " and ".join(
        _fallbacks(record) for record in (old, new)))
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40, metavar="N",
                        help="solve the plants of seeds 1..N (default: 40)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        metavar="DIR",
                        help="directory holding the devstrip package to "
                             "solve with (default: this checkout's src)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two records instead of solving")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for line in census(args.seeds, args.src):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
