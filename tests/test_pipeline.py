"""One solve path: the CLI and the fixture scripts go through solve_spec."""

import importlib.util
import itertools
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from devstrip import (parse_problem, run_cli, serialize_solution,
                      solve_spec, solvers)
from devstrip.cli import VERIFY_TOL

from helpers import (assert_polygon_close, exact_compatibility_numerator,
                     seed_one_plants, serialize_problem, solve_plant)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
FIXTURE_NAMES = sorted(path.name for path in FIXTURES.glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"
SOLVE_OUTPUTS = ("solution.json", "surface.obj", "report.json", "report.txt")


def load_script(name: str, monkeypatch):
    # the scripts put src/ on sys.path themselves; keep that local to the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSolveSpec:

    # root None keeps the file's root_choice; --root goes in as a replaced spec
    @pytest.mark.parametrize("name, root",
                             [(name, None) for name in FIXTURE_NAMES]
                             + [("spline3.json", 1)])
    def test_library_solve_matches_the_cli_output(self, tmp_path, name,
                                                  root):
        path = FIXTURES / name
        spec = parse_problem(path.read_text())
        argv = ["solve", "--problem", str(path), "--out", str(tmp_path)]
        if root is not None:
            spec = replace(spec, root_choice=root)
            argv += ["--root", str(root)]
        assert run_cli(argv) == 0
        assert serialize_solution(solve_spec(spec).patch) == \
            (tmp_path / "solution.json").read_text()

    def test_far_end_anchor_reproduces_the_start_anchored_strip(self):
        spec = parse_problem((FIXTURES / "spline3.json").read_text())
        start = solve_spec(spec).patch
        far = tuple(start.opposite.control[-1])
        end = solve_spec(replace(spec, anchor_end="end",
                                 anchor_point=far)).patch
        assert_polygon_close(end.opposite.control, start.opposite.control,
                             1e-9)

    def test_far_corner_behind_the_curve_pinches_the_patch(self):
        # mirroring the far corner through c_L makes tau = -1, so the
        # rescaled ruling length 1 + u (1/tau - 1) crosses zero at u = 1/2
        spec = parse_problem((FIXTURES / "spline3.json").read_text())
        c_last = np.asarray(spec.control[-1])
        far = solve_spec(spec).patch.opposite.control[-1]
        corner = replace(spec, problem_kind="problem2", d0=spec.anchor_point,
                         dL=tuple(2.0 * c_last - far))
        assert solve_spec(corner).pinch_u == pytest.approx(0.5, abs=1e-9)

    def test_each_kind_reduces_to_the_two_ruling_solve(self):
        kinds = {}
        for name in FIXTURE_NAMES:
            spec = parse_problem((FIXTURES / name).read_text())
            solved = solve_spec(spec)
            kinds[spec.problem_kind] = solved
            assert solved.strip.base.degree == spec.degree
        assert kinds["problem1"].patch is kinds["problem1"].strip
        assert kinds["problem2"].patch.base.degree == \
            kinds["problem1"].patch.base.degree + 1
        assert kinds["problem3"].patch.base.degree == \
            kinds["problem1"].patch.base.degree + 2
        # every bundled fixture solves with tau > 0, so no ruling crosses zero
        assert all(solved.pinch_u is None for solved in kinds.values())


class TestGoldenOutputs:
    """`devstrip solve` writes the bytes stored under tests/golden/."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_solve_writes_the_golden_files(self, tmp_path, name):
        assert run_cli(["solve", "--problem", str(FIXTURES / name),
                        "--out", str(tmp_path)]) == 0
        golden = GOLDEN / Path(name).stem
        for output in SOLVE_OUTPUTS:
            assert (tmp_path / output).read_bytes() == \
                (golden / output).read_bytes(), output


class TestFixtureRoots:
    """Every root a fixture solve reports lies within 16 ulps of the sign
    change of the exact-fraction compatibility numerator.

    Measured as the smallest k for which the numerator's sign at root ± k
    ulps differs from its sign at the root: every inner root is at 1 ulp,
    the outer-ray root m = -7.908 of spline3 and spline4 at 1 and that of
    splinet, m = -1.920, at 3."""

    ULPS = 16

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_roots_sit_at_the_exact_sign_change(self, monkeypatch, name):
        rulings = []
        solve = solvers.solve_problem1

        def recorded(curve, v, w, **anchor):
            rulings.append((curve, v, w))
            return solve(curve, v, w, **anchor)

        monkeypatch.setattr(solvers, "solve_problem1", recorded)
        solved = solve_spec(parse_problem((FIXTURES / name).read_text()))
        (curve, v, w), = rulings

        def positive(m):
            return exact_compatibility_numerator(
                curve.knots, curve.control, v, w, Fraction(m)) > 0

        for root in solved.m_star_roots:
            side = positive(root)
            up = down = root
            for _ in range(self.ULPS):
                up = np.nextafter(up, np.inf)
                down = np.nextafter(down, -np.inf)
                if positive(up) != side or positive(down) != side:
                    break
            else:
                pytest.fail(f"no sign change within {self.ULPS} ulps "
                            f"of {root!r}")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_lambda_star_is_the_exact_ruling_scale_formula(self, name):
        # lambda* = M* + sigma (M* - u_n) S_0 / alpha, S_0 the product of
        # the ratios (M* - u_{j+n+1}) / (M* - u_j) over j = 0..L-2, taken in
        # exact fractions at the solve's own M*, sigma and alpha
        spec = parse_problem((FIXTURES / name).read_text())
        inner = solve_spec(spec)
        knots = inner.strip.base.knots
        u = [Fraction(x) for x in knots]
        n = knots.degree
        m = Fraction(inner.chosen_root)
        weight = Fraction(1)
        for j in range(len(inner.strip.base.control) - 2):
            weight *= (m - u[j + n + 1]) / (m - u[j])
        exact = m + Fraction(inner.sigma) * (m - u[n]) * weight \
            / Fraction(inner.alpha)
        lam = inner.lambda_star
        assert abs(Fraction(lam) - exact) <= Fraction(np.spacing(abs(lam)))


class TestPlantRoots:
    """Every root of the two-ruling solve of the seed-1 plants of 2-8
    pieces lies within ULPS ulps of a sign change of the exact-fraction
    compatibility numerator: the numerator's signs at root - ULPS ulps and
    root + ULPS ulps are not both the root's own.

    Measured with the per-interval Chebyshev root finder as the smallest k
    at which the sign at root ± k ulps differs: a median of 1 over the 140
    roots of the 44 solves, 50 at most for problem 1, 47 for problem 2
    and 100 for problem 3 (the outer root m = -1.919 of elevated's
    8-piece quadratic).  With the roots from one eigenvalue problem on the
    unit circle: a median of 1, and at most 71, 47 and 105."""

    ULPS = 128

    @pytest.mark.parametrize("kind", ["problem1", "problem2", "problem3"])
    def test_roots_sit_at_the_exact_sign_change(self, monkeypatch, kind):
        rulings = []
        solve = solvers.solve_problem1

        def recorded(curve, v, w, **anchor):
            rulings.append((curve, v, w))
            return solve(curve, v, w, **anchor)

        monkeypatch.setattr(solvers, "solve_problem1", recorded)
        for plant in seed_one_plants(kind):
            rulings.clear()
            solved = solve_plant(kind, *plant)
            (curve, v, w), = rulings

            def positive(m):
                return exact_compatibility_numerator(
                    curve.knots, curve.control, v, w, Fraction(m)) > 0

            for root in solved.m_star_roots:
                up = down = root
                for _ in range(self.ULPS):
                    up = np.nextafter(up, np.inf)
                    down = np.nextafter(down, -np.inf)
                assert positive(root) in (not positive(up),
                                          not positive(down)), (
                    f"no sign change within {self.ULPS} ulps of {root!r} "
                    f"({curve!r})")


class TestScripts:

    def test_solve_fixtures_prints_one_block_per_fixture(self, monkeypatch,
                                                         capsys):
        script = load_script("solve_fixtures", monkeypatch)
        assert script.main(["--fixtures", str(FIXTURES),
                            "--samples", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        heads = [line.split(":")[0] for line in lines
                 if not line.startswith(" ")]
        assert heads == FIXTURE_NAMES
        assert len(lines) == 3 * len(FIXTURE_NAMES)

    def test_root_sweep_prints_one_block_per_angle(self, monkeypatch,
                                                   capsys):
        monkeypatch.chdir(REPO)
        script = load_script("root_sweep", monkeypatch)
        assert script.main(["--angles", "4"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["deg", "root", "m*", "lambda*", "tau",
                                  "residual"]
        blocks = [label for label, _ in itertools.groupby(
            row[:6] for row in rows)]
        assert blocks == ["   0.0", "  90.0", " 180.0", " 270.0"]

    def test_root_sweep_turns_a_far_end_anchor_with_w(self, tmp_path,
                                                      monkeypatch, capsys):
        spec = parse_problem((FIXTURES / "spline3.json").read_text())
        far = tuple(solve_spec(spec).patch.opposite.control[-1])
        problem = tmp_path / "far_end.json"
        problem.write_text(serialize_problem(
            replace(spec, anchor_end="end", anchor_point=far)))
        script = load_script("root_sweep", monkeypatch)
        assert script.main(["--problem", str(problem), "--angles", "8"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        blocks = [label for label, _ in itertools.groupby(
            row[:6] for row in rows)]
        assert blocks == [f"{45.0 * step:6.1f}" for step in range(8)]
        # the anchor turns with w, so it pins the same ruling scale tau
        assert {row.split()[4] for row in rows} == {"2.2389"}

    @pytest.fixture(scope="class")
    def census_record(self, tmp_path_factory):
        # a subprocess, so the stripbench modules it imports stay there
        record = tmp_path_factory.mktemp("census") / "census.jsonl"
        with record.open("w") as out:
            subprocess.run([sys.executable,
                            str(REPO / "scripts" / "solve_census.py"),
                            "--seeds", "1"], stdout=out, check=True)
        return record

    def test_solve_census_of_one_seed_matches_itself(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     census_record):
        record = census_record
        lines = record.read_text().splitlines()
        # 12 seeded pieces_sweep plants, the 24 of its fixed corpus, 32
        # elevated ones and 108 that the benchmark never draws
        assert len(lines) == 176
        script = load_script("solve_census", monkeypatch)
        assert script.main(["--compare", str(record), str(record)]) == 0
        assert "176 and 176 solves, 0 changed" in capsys.readouterr().out

        first = json.loads(lines[0])
        first["roots"] = first["roots"][1:]
        fewer = tmp_path / "fewer.jsonl"
        fewer.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        assert script.main(["--compare", str(record), str(fewer)]) == 1
        assert capsys.readouterr().out.startswith(
            f"{first['case']}: {len(first['roots']) + 1} -> "
            f"{len(first['roots'])} roots")

    def test_solve_census_plants_m_star_where_its_family_says(
            self, monkeypatch):
        script = load_script("solve_census", monkeypatch)
        spec = importlib.util.spec_from_file_location(
            "cases", REPO / "stripbench" / "cases.py")
        cases = importlib.util.module_from_spec(spec)
        # a dataclass looks its module up while it is being defined
        monkeypatch.setitem(sys.modules, "cases", cases)
        spec.loader.exec_module(cases)
        rng = np.random.default_rng(1)
        for family in script.EXTRA_FAMILIES:
            for pieces in script.EXTRA_PIECES:
                plant = script.plant_at(cases, rng, family, 3, pieces)
                m, inner = plant.m_star, plant.knots[3:-3]
                ends = np.concatenate(([0.0], inner, [1.0]))
                if family == "inside":
                    k = ends.searchsorted(m) - 1
                    assert 0.1 <= (m - ends[k]) / (ends[k + 1] - ends[k]) \
                        <= 0.9
                elif family == "near_knot":
                    assert 1e-5 <= np.abs(inner - m).min() <= 1e-3
                else:
                    assert 10.0 <= abs(m) <= 1e4
                # the planted strip satisfies the cell relation at (λ*, m*)
                u, c, d = plant.knots, plant.base, plant.opposite
                lam = plant.lambda_star
                for i in range(len(c) - 1):
                    assert_polygon_close(
                        (u[i + 3] - lam) * c[i] + (lam - u[i]) * c[i + 1],
                        (u[i + 3] - m) * d[i] + (m - u[i]) * d[i + 1],
                        1e-9 * max(1.0, abs(m)) * np.abs(d).max())

    @pytest.mark.parametrize("residual, code", [(2e-9, 0), (1.5e-8, 1)])
    def test_solve_census_flags_a_flipped_scan_verdict(
            self, tmp_path, monkeypatch, capsys, census_record, residual,
            code):
        lines = census_record.read_text().splitlines()
        script = load_script("solve_census", monkeypatch)
        assert script.VERIFY_TOL == VERIFY_TOL
        first = json.loads(lines[0])
        assert float.fromhex(first["scan"][0]) < 1e-12
        first["scan"][0] = residual.hex()
        moved = tmp_path / "moved.jsonl"
        moved.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        assert script.main(["--compare", str(census_record),
                            str(moved)]) == code
        out = capsys.readouterr().out
        flipped = (f"{first['case']}: scan verdict against 1e-08 flipped, "
                   f"max residual")
        assert (flipped in out) == bool(code)
        assert "largest absolute change of a scan residual: " \
            f"{residual:.3g}" in out

    def test_solve_census_prints_failures_above_the_summary(
            self, tmp_path, monkeypatch, capsys, census_record):
        # every solved case gets another scan record (its argmax moves), and
        # one in the middle also flips its verdict
        lines = [json.loads(line)
                 for line in census_record.read_text().splitlines()]
        solved = [line for line in lines if line["outcome"] == "solved"]
        for line in solved:
            line["scan"][1] = (float.fromhex(line["scan"][1]) + 1e-3).hex()
        flipped = solved[len(solved) // 2]
        assert float.fromhex(flipped["scan"][0]) < VERIFY_TOL
        flipped["scan"][0] = (1.5 * VERIFY_TOL).hex()
        moved = tmp_path / "moved.jsonl"
        moved.write_text("".join(json.dumps(line) + "\n" for line in lines))
        script = load_script("solve_census", monkeypatch)
        assert script.main(["--compare", str(census_record),
                            str(moved)]) == 1
        out = capsys.readouterr().out.splitlines()
        rescans = [i for i, line in enumerate(out) if ": scan [" in line]
        assert len(rescans) == len(solved) > 1
        # the one failing line sits between the rescans and the summary
        assert rescans == list(range(len(solved)))
        assert out[len(solved)].startswith(
            f"{flipped['case']}: scan verdict against 1e-08 flipped")
        assert out[len(solved) + 1].startswith(
            f"{len(lines)} and {len(lines)} solves, 1 changed")
        assert len(out) == len(solved) + 4
