"""Solve-and-verify benchmark for devstrip.

Run from the root of a source checkout:

    python3 stripbench/run.py --workload pieces_sweep --seed 1 --seconds 30 --trace 0

It imports devstrip from ./src, builds the workload's inputs from the seed,
then runs whole rounds of solve + verify until --seconds have passed,
checking every output against the scipy oracle in oracle.py.  The last
line of standard output is one JSON object: correct, attempted, failed
and the metrics (end-to-end ones with --trace 0, per-layer ones with
--trace 1).  See README.md for the workloads and the metrics.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import cases

OUT_DIR = Path("stripbench-out")
FIXTURES = ("spline3.json", "spline4.json", "splinet.json")
# Samples per piece of the library verify (developability_scan).
SCAN_DENSITY = 20
# Input generation is repeated this many times; setup_s takes the median.
SETUP_REPEATS = 3

# pieces_sweep: seeded draws stay at piece counts where every draw solves;
# the larger counts come from one fixed corpus whatever --seed is, so the
# false "infeasible" verdicts there repeat exactly in every run.
SWEEP_SEEDED_PIECES = (2, 4, 8)
SWEEP_FIXED_PIECES = (12, 16, 24, 32, 48, 64)
SWEEP_FIXED_SEED = 20150324
ELEVATED_PIECES = (2, 4, 6, 8)
DEGREES = (2, 3, 4, 5)


@dataclass
class Case:
    name: str
    # False for the fixed high-piece corpus, where the power-basis
    # compatibility function makes some solves fail every time.
    must_pass: bool
    payload: dict


@dataclass
class Outcome:
    solve_s: float
    verify_s: Optional[float] = None
    faults: list = field(default_factory=list)
    expected_failure: bool = False


def _quiet(call: Callable):
    """Run a CLI call with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = call()
        return code, time.perf_counter() - start


# ---------------------------------------------------------------------------
# fixtures_cli: devstrip solve + devstrip verify on the bundled fixtures


def build_fixtures_cli(seed: int, devstrip, workdir: Path) -> list[Case]:
    out = []
    for name in FIXTURES:
        text = (Path("fixtures") / name).read_text()
        problem = workdir / name
        problem.write_text(text)
        out.append(Case(name, True, {"problem": problem,
                                     "out": workdir / Path(name).stem,
                                     "spec": json.loads(text)}))
    return out


def run_fixtures_cli(case: Case, devstrip, oracle) -> Outcome:
    cli = devstrip.cli
    problem, out, spec = (case.payload[k] for k in ("problem", "out", "spec"))
    code, solve_s = _quiet(lambda: cli.run_cli(
        ["solve", "--problem", str(problem), "--out", str(out)]))
    outcome = Outcome(solve_s)
    if code != 0:
        outcome.faults.append(f"devstrip solve exited {code}")
        return outcome
    surface = out / "solution.json"
    code, outcome.verify_s = _quiet(lambda: cli.run_cli(
        ["verify", "--surface", str(surface)]))
    if code != 0:
        outcome.faults.append(f"devstrip verify exited {code}")

    doc = json.loads(surface.read_text())
    base = oracle.Curve(doc["degree"], doc["knots"], doc["base_control"])
    opposite = oracle.Curve(doc["degree"], doc["knots"],
                            doc["opposite_control"])
    c = spec["curve"]
    given = oracle.Curve(c["degree"], c["knots"], c["control"])
    rulings = spec["rulings"]
    if spec["problem"] == "problem1":
        anchor = rulings["anchor"]
        end = {"d0" if anchor["end"] == "start" else "dL": anchor["point"]}
        outcome.faults += oracle.problem1_faults(
            given, base, opposite, rulings["v"], rulings["w"], **end)
    elif spec["problem"] == "problem2":
        outcome.faults += oracle.problem2_faults(
            given, base, opposite, rulings["d0"], rulings["dL"])
    else:
        outcome.faults += oracle.problem3_faults(
            given, base, opposite, rulings["dL"], rulings["apex_velocity"])
    tess = spec.get("tessellation", {})
    outcome.faults += oracle.obj_faults(
        (out / "surface.obj").read_text(), base, opposite,
        tess.get("u_samples", 16), tess.get("v_samples", 5))
    for name in ("report.json", "report.txt"):
        if not (out / name).is_file():
            outcome.faults.append(f"{name} was not written")
    return outcome


# ---------------------------------------------------------------------------
# pieces_sweep and elevated: library solves on planted strips


def _library_case(kind: str, plant: cases.Plant, must_pass: bool,
                  devstrip) -> Case:
    curve = devstrip.BSplineCurve(plant.knots, plant.base, plant.degree)
    name = f"{kind}-p{plant.pieces}-n{plant.degree}"
    return Case(name, must_pass, {"kind": kind, "plant": plant,
                                  "curve": curve,
                                  "apex_velocity": plant.apex_velocity()})


def build_pieces_sweep(seed: int, devstrip, workdir: Path) -> list[Case]:
    seeded = np.random.default_rng(seed)
    fixed = np.random.default_rng(SWEEP_FIXED_SEED)
    out = [_library_case("problem1", cases.plant_strip(seeded, n, p), True,
                         devstrip)
           for p in SWEEP_SEEDED_PIECES for n in DEGREES]
    out += [_library_case("problem1", cases.plant_strip(fixed, n, p), False,
                          devstrip)
            for p in SWEEP_FIXED_PIECES for n in DEGREES]
    return out


def build_elevated(seed: int, devstrip, workdir: Path) -> list[Case]:
    rng = np.random.default_rng(seed)
    return [_library_case(kind, cases.plant_strip(rng, n, p), True, devstrip)
            for p in ELEVATED_PIECES for n in DEGREES
            for kind in ("problem2", "problem3")]


def run_library(case: Case, devstrip, oracle) -> Outcome:
    kind, plant, curve = (case.payload[k] for k in ("kind", "plant", "curve"))
    start = time.perf_counter()
    try:
        if kind == "problem1":
            solution = devstrip.solve_problem1(curve, plant.v, plant.w,
                                               d0=plant.d0)
        elif kind == "problem2":
            solution = devstrip.solve_problem2(curve, plant.d0, plant.dL)
        else:
            solution = devstrip.solve_problem3(curve, plant.dL,
                                               case.payload["apex_velocity"])
    except devstrip.InfeasibleProblemError as exc:
        outcome = Outcome(time.perf_counter() - start)
        outcome.faults.append(f"infeasible: {exc}")
        outcome.expected_failure = not case.must_pass
        return outcome
    except (devstrip.DegenerateCaseError, ValueError) as exc:
        outcome = Outcome(time.perf_counter() - start)
        outcome.faults.append(f"{type(exc).__name__}: {exc}")
        return outcome
    outcome = Outcome(time.perf_counter() - start)

    if kind == "problem1":
        patch = solution.strip
    elif kind == "problem2":
        patch = devstrip.RuledPatch(solution.elevated_c, solution.elevated_d)
    else:
        patch = devstrip.RuledPatch(solution.final_c, solution.final_d)
    # The scan is timed, not judged: on about 1 seed in 100 root 0 lies
    # within 0.01 of u = b, the rescale multiplies the last rulings by
    # 1/tau ~ 1e8..1e9, and the scan's samples next to u = b read
    # 2e-8..5e-7.  That verdict depends on the draw, so the oracle below
    # decides.
    start = time.perf_counter()
    devstrip.developability_scan(patch, SCAN_DENSITY)
    outcome.verify_s = time.perf_counter() - start

    given = oracle.Curve(plant.degree, plant.knots, plant.base)
    base, opposite = oracle.Curve.of(patch.base), oracle.Curve.of(patch.opposite)
    if kind == "problem1":
        outcome.faults += oracle.problem1_faults(given, base, opposite,
                                                 plant.v, plant.w, d0=plant.d0)
    elif kind == "problem2":
        outcome.faults += oracle.problem2_faults(given, base, opposite,
                                                 plant.d0, plant.dL)
    else:
        outcome.faults += oracle.problem3_faults(
            given, base, opposite, plant.dL, case.payload["apex_velocity"])
    return outcome


WORKLOADS = {
    "fixtures_cli": (build_fixtures_cli, run_fixtures_cli),
    "pieces_sweep": (build_pieces_sweep, run_library),
    "elevated": (build_elevated, run_library),
}

LAYER_MS = ["fileio.parse", "fileio.obj", "fileio.serialize",
            "solvers.compat", "solvers.self", "polyroots.roots",
            "strip.recursion", "strip.validate", "bspline.reexpress",
            "verify.scan", "verify.planarity", "cli.self"]
PER_CASE_COUNTS = {"fileio.obj_bytes": "bytes",
                   "polyroots.roots_found": "count",
                   "bspline.blossom_calls": "count",
                   "verify.scan_samples": "count"}


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/devstrip/__init__.py").is_file():
        print("error: run from a devstrip checkout (src/devstrip is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import devstrip

    oracle_start = time.perf_counter()
    import oracle
    import tracing
    oracle_import_s = time.perf_counter() - oracle_start

    build, run = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        generation = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            work = build(args.seed, devstrip, workdir)
            generation.append(time.perf_counter() - start)
        setup_s = (time.perf_counter() - T_START - oracle_import_s
                   - sum(generation) + statistics.median(generation))
        return _measure(args, work, run, devstrip, oracle, tracing, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, work, run, devstrip, oracle, tracing, setup_s) -> int:
    order_rng = np.random.default_rng(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    outcomes: dict[str, list[Outcome]] = {case.name: [] for case in work}
    plain_s = traced_s = 0.0
    plain_cases = traced_cases = 0
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        order = [work[i] for i in order_rng.permutation(len(work))]
        if traced:
            tracer.install()
        try:
            for case in order:
                if traced:
                    tracer.case = f"{rounds}:{case.name}"
                outcome = run(case, devstrip, oracle)
                outcomes[case.name].append(outcome)
                if traced:
                    traced_s += _busy(outcome)
                    traced_cases += 1
                elif rounds > 0:
                    plain_s += _busy(outcome)
                    plain_cases += 1
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        # A traced run alternates traced and plain rounds after a first
        # warm-up round, so the overhead compares like with like.
        if time.perf_counter() >= deadline and (tracer is None or rounds >= 3):
            break

    every = [o for runs in outcomes.values() for o in runs]
    failed = [o for o in every if o.faults]
    correct = True
    for case in work:
        runs = outcomes[case.name]
        verdicts = {bool(o.faults) for o in runs}
        unexpected = [o for o in runs if o.faults and not o.expected_failure]
        if len(verdicts) > 1 or unexpected:
            correct = False
            faults = (unexpected or [o for o in runs if o.faults])[0].faults
            print(f"{case.name}: {'; '.join(faults)}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, "
          f"{len(every)} cases, {len(failed)} failed", file=sys.stderr)

    if tracer is None:
        # Every round runs the same cases with the same verdicts, so one
        # round passes (passed / rounds) cases in the summed case medians.
        round_s = len(work) * _case_mean_of_medians(outcomes, _busy)
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "solve_ms": _metric(1e3 * _case_mean_of_medians(
                outcomes, lambda o: o.solve_s), "ms"),
            "verify_ms": _metric(1e3 * _case_mean_of_medians(
                outcomes, lambda o: o.verify_s), "ms"),
            "solved_per_s": _metric(
                (len(every) - len(failed)) / rounds / round_s, "1/s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, traced_cases, traced_s, plain_s,
                                 plain_cases)
        _write_trace(args, tracer, rounds, metrics)

    print(json.dumps({"correct": correct, "attempted": len(every),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _busy(outcome: Outcome) -> float:
    return outcome.solve_s + (outcome.verify_s or 0.0)


def _case_mean_of_medians(outcomes: dict, time_of: Callable) -> float:
    """Mean over cases of each case's median time across rounds.

    The median drops rounds hit by a slow spell of the machine; the mean
    over the fixed case mix weighs every case once, so the figure tracks
    the work of one round rather than whichever case sits in the middle."""
    medians = []
    for runs in outcomes.values():
        times = [time_of(o) for o in runs if time_of(o) is not None]
        if times:
            medians.append(statistics.median(times))
    return statistics.fmean(medians)


def _layer_metrics(tracer, traced_cases, traced_s, plain_s,
                   plain_cases) -> dict:
    self_s = tracer.self_times()
    metrics = {f"{key}_ms": _metric(1e3 * self_s.get(key, 0.0) / traced_cases,
                                    "ms")
               for key in LAYER_MS}
    for key, unit in PER_CASE_COUNTS.items():
        metrics[key] = _metric(tracer.counts.get(key, 0.0) / traced_cases,
                               unit)
    calls = tracer.counts.get("solvers.poly_calls", 0.0)
    metrics["solvers.poly_degree"] = _metric(
        tracer.counts.get("solvers.poly_degree", 0.0) / calls if calls else 0.0,
        "count")
    overhead = (traced_s / traced_cases) / (plain_s / plain_cases) - 1.0
    metrics["trace.overhead_pct"] = _metric(100.0 * overhead, "%")
    return metrics


def _write_trace(args, tracer, rounds, metrics) -> None:
    if tracer.absent:
        print("trace: absent names " + ", ".join(tracer.absent),
              file=sys.stderr)
    doc = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
           "absent": tracer.absent, "metrics": metrics,
           "span_fields": ["id", "parent", "layer", "case", "start", "end"],
           "spans": tracer.spans}
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
