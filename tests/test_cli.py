"""Command-line behavior: files written, summary lines, exit codes."""

import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import devstrip
from devstrip import (
    BSplineCurve,
    DevelopableStrip,
    RuledPatch,
    parse_solution,
    run_cli,
    serialize_curve,
    serialize_solution,
    solve_problem3,
)

import reference as ref
from helpers import assert_polygon_close

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def fixture_doc(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def write_problem(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return path


PUBLIC_NAMES = [
    "AffineScaling", "BSplineCurve", "ConeCaseError", "CylinderCaseError",
    "DegenerateCaseError", "DevelopabilityScan", "DevelopableStrip",
    "InfeasibleProblemError", "KnotVector", "PlanarSurfaceError",
    "Problem1Solution", "Problem2Solution", "Problem3Solution",
    "ProblemSpec", "RuledPatch", "SolveReport", "Solved", "__version__",
    "apex_direction", "cell_planarity_residual",
    "control_relation_residuals", "curves_pointwise_equal",
    "developability_scan", "export_obj", "main", "parse_curve",
    "parse_problem", "parse_solution", "planarity_report",
    "propagate_polygon", "ruling_coefficients", "run_cli",
    "serialize_curve", "serialize_problem", "serialize_solution",
    "solve_problem1", "solve_problem2", "solve_problem3", "solve_spec",
]


class TestTopLevel:

    def test_public_names_are_pinned(self):
        # the public surface changes only on purpose
        assert sorted(devstrip.__all__) == PUBLIC_NAMES
        assert all(hasattr(devstrip, name) for name in PUBLIC_NAMES)

    def test_version_banner(self, capsys):
        assert run_cli(["--version"]) == 0
        assert capsys.readouterr().out.startswith("devstrip ")

    def test_missing_command_is_a_usage_error(self):
        assert run_cli([]) == 1

    def test_unknown_command_is_a_usage_error(self):
        assert run_cli(["frobnicate"]) == 1

    def test_console_script_is_installed(self):
        exe = shutil.which("devstrip")
        assert exe is not None
        out = subprocess.run([exe, "--version"], capture_output=True,
                             text=True, check=True)
        assert out.stdout.startswith("devstrip ")


class TestSolve:

    def run(self, tmp_path, name="spline3.json", *extra):
        out = tmp_path / "out"
        code = run_cli(["solve", "--problem", str(FIXTURES / name),
                        "--out", str(out), *extra])
        return code, out

    def test_problem1_end_to_end(self, tmp_path, capsys):
        code, out = self.run(tmp_path)
        assert code == 0
        for name in ("solution.json", "surface.obj", "report.json",
                     "report.txt"):
            assert (out / name).exists()

        stdout = capsys.readouterr().out
        assert "solved problem1" in stdout
        assert "chosen M* = -7.908" in stdout
        assert "max developability residual" in stdout

        report = json.loads((out / "report.json").read_text())
        assert report["problem_kind"] == "problem1"
        assert report["roots"] == pytest.approx(ref.CUBIC_ROOTS, abs=0.01)
        assert report["lambda_star"] == pytest.approx(
            ref.CUBIC_LAMBDA_BY_ROOT[0], abs=0.01)
        assert report["tau"] == pytest.approx(ref.CUBIC_TAU, abs=0.01)
        assert report["max_developability"] <= 1e-8
        assert report["worst_cell_planarity"] <= 1e-9
        assert report["pinch_u"] is None
        assert_polygon_close(report["opposite_polygon"], ref.CUBIC_D, 0.01)

        surface = parse_solution((out / "solution.json").read_text())
        assert isinstance(surface, DevelopableStrip)
        obj = (out / "surface.obj").read_text()
        assert obj.startswith("# ruled surface tessellation: 46 rows x 5")

        text = (out / "report.txt").read_text()
        assert "problem kind:       problem1" in text
        assert "admissible roots M*:" in text

    def test_problem2_end_to_end(self, tmp_path, capsys):
        code, out = self.run(tmp_path, "spline4.json")
        assert code == 0
        assert "solved problem2" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["problem_kind"] == "problem2"
        assert len(report["opposite_polygon"]) == 9
        assert report["opposite_polygon"][0] == pytest.approx(
            list(ref.CORNER_D0))
        assert report["opposite_polygon"][-1] == pytest.approx(
            list(ref.CORNER_DL))
        # elevated outputs are a plain ruled pair, no strip parameters
        doc = json.loads((out / "solution.json").read_text())
        assert doc["lambda_star"] is None and doc["m_star"] is None

    def test_problem3_end_to_end(self, tmp_path):
        code, out = self.run(tmp_path, "splinet.json")
        assert code == 0
        obj = (out / "surface.obj").read_text()
        assert "apex row merged" in obj.splitlines()[0]
        report = json.loads((out / "report.json").read_text())
        assert report["opposite_polygon"][0] == pytest.approx(
            [0.0, 0.0, 0.0], abs=1e-9)
        assert report["opposite_polygon"][-1] == pytest.approx(
            list(ref.TRI_DL), abs=1e-9)

    def test_output_is_byte_deterministic(self, tmp_path):
        _, first = self.run(tmp_path / "a")
        _, second = self.run(tmp_path / "b")
        for name in ("solution.json", "surface.obj", "report.json",
                     "report.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_root_override(self, tmp_path):
        code, out = self.run(tmp_path, "spline3.json", "--root", "1")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["chosen_m_star"] == pytest.approx(ref.CUBIC_ROOTS[1],
                                                        abs=0.01)

    def test_root_out_of_range_fails_validation(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, "spline3.json", "--root", "5")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_root_rejected(self, tmp_path):
        code, _ = self.run(tmp_path, "spline3.json", "--root", "-1")
        assert code == 1

    def test_sampling_overrides_reach_the_mesh(self, tmp_path):
        code, out = self.run(tmp_path, "spline3.json",
                             "--u-samples", "3", "--v-samples", "2")
        assert code == 0
        lines = (out / "surface.obj").read_text().splitlines()
        assert len([l for l in lines if l.startswith("v ")]) == 7 * 2

    def test_tiny_sampling_rejected(self, tmp_path):
        code, _ = self.run(tmp_path, "spline3.json", "--u-samples", "1")
        assert code == 1

    def test_missing_problem_file(self, tmp_path, capsys):
        code = run_cli(["solve", "--problem", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_solve_failures_write_nothing(self, tmp_path):
        doc = fixture_doc("spline3.json")
        doc["rulings"]["w"] = [0.0, 0.0, 4.0]  # parallel to v
        out = tmp_path / "out"
        code = run_cli(["solve", "--problem",
                        str(write_problem(tmp_path, doc)),
                        "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_cylinder_exit_code(self, tmp_path, capsys):
        doc = fixture_doc("spline3.json")
        doc["rulings"]["w"] = [0.0, 0.0, 4.0]
        code = run_cli(["solve", "--problem",
                        str(write_problem(tmp_path, doc)),
                        "--out", str(tmp_path / "out")])
        assert code == 3
        assert "degenerate case:" in capsys.readouterr().err

    def test_cone_exit_code(self, tmp_path):
        doc = fixture_doc("spline3.json")
        doc["rulings"]["w"] = [9.0, -1.0, 5.0]  # gap + v: end lines meet
        code = run_cli(["solve", "--problem",
                        str(write_problem(tmp_path, doc)),
                        "--out", str(tmp_path / "out")])
        assert code == 3

    def test_planar_exit_code(self, tmp_path):
        doc = fixture_doc("spline3.json")
        doc["curve"]["control"] = [[x, y, 0.0] for x, y, _
                                   in doc["curve"]["control"]]
        doc["rulings"]["v"] = [1.0, 0.0, 0.0]
        doc["rulings"]["w"] = [0.0, 1.0, 0.0]
        doc["rulings"]["anchor"] = {"end": "start", "point": [1.0, 0.0, 0.0]}
        code = run_cli(["solve", "--problem",
                        str(write_problem(tmp_path, doc)),
                        "--out", str(tmp_path / "out")])
        assert code == 3

    def test_infeasible_exit_code(self, tmp_path, capsys):
        doc = {
            "problem": "problem1",
            "curve": {"degree": 1, "knots": [0.0, 1.0],
                      "control": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]},
            "rulings": {"v": [0.0, 1.0, 0.0], "w": [0.0, 0.0, 1.0],
                        "anchor": {"end": "start", "point": [0.0, 1.0, 0.0]}},
        }
        code = run_cli(["solve", "--problem",
                        str(write_problem(tmp_path, doc)),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert "infeasible:" in capsys.readouterr().err


class TestVerify:

    def solved_surface(self, tmp_path) -> Path:
        out = tmp_path / "out"
        assert run_cli(["solve", "--problem",
                        str(FIXTURES / "spline3.json"),
                        "--out", str(out)]) == 0
        return out / "solution.json"

    def test_solved_surface_passes(self, tmp_path, capsys):
        surface = self.solved_surface(tmp_path)
        assert run_cli(["verify", "--surface", str(surface)]) == 0
        stdout = capsys.readouterr().out
        assert "max developability residual" in stdout
        assert "samples: 300 used, 0 skipped" in stdout
        assert "developable within tolerance 1e-08" in stdout

    def test_sample_count_flag(self, tmp_path, capsys):
        surface = self.solved_surface(tmp_path)
        assert run_cli(["verify", "--surface", str(surface),
                        "--samples", "7"]) == 0
        assert "samples: 21 used" in capsys.readouterr().out

    def test_bent_surface_fails_with_code_2(self, tmp_path, capsys,
                                            cubic_curve):
        # a plain ruled pair skips strip validation at parse time, so the
        # verdict must come from the sampling itself
        sol = solve_problem3(cubic_curve, ref.TRI_DL, ref.TRI_APEX_VELOCITY)
        bent_control = np.array(sol.final_d.control)
        bent_control[5] += (0.0, 0.0, 0.05)
        bent = RuledPatch(sol.final_c,
                          BSplineCurve(sol.final_d.knots, bent_control))
        path = tmp_path / "bent.json"
        path.write_text(serialize_solution(bent))
        capsys.readouterr()
        assert run_cli(["verify", "--surface", str(path)]) == 2
        assert "NOT developable" in capsys.readouterr().out

    def test_tampered_strip_fails_parse(self, tmp_path, capsys):
        surface = self.solved_surface(tmp_path)
        doc = json.loads(surface.read_text())
        doc["opposite_control"][2][0] += 0.3
        surface.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["verify", "--surface", str(surface)]) == 1
        assert "error:" in capsys.readouterr().err


class TestElevate:

    def test_prints_the_raised_curve(self, tmp_path, capsys, cubic_curve):
        path = tmp_path / "curve.json"
        path.write_text(serialize_curve(cubic_curve))
        assert run_cli(["elevate", "--curve", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        raised = cubic_curve.elevate_degree()
        assert doc["degree"] == 4
        assert doc["knots"] == pytest.approx(list(raised.knots))
        assert_polygon_close(doc["control"], raised.control, 1e-12)

    @pytest.mark.parametrize("name", ["spline3", "spline4", "splinet"])
    def test_fixture_curves_match_the_golden_output(self, tmp_path, capsys,
                                                    name):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(fixture_doc(f"{name}.json")["curve"]))
        assert run_cli(["elevate", "--curve", str(path)]) == 0
        golden = GOLDEN / "elevate" / f"{name}.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_missing_file(self, tmp_path):
        assert run_cli(["elevate", "--curve",
                        str(tmp_path / "nope.json")]) == 1

    def test_chain_of_near_knots_is_one_knot(self, tmp_path, capsys):
        # neighbours 6e-13 apart, each within the knot tolerance (1e-12 of
        # the domain), chain into a knot of multiplicity 4 on a cubic
        inner = [0.5, 0.5 + 6e-13, 0.5 + 1.2e-12, 0.5 + 1.8e-12]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({
            "degree": 3,
            "knots": [0.0] * 3 + inner + [1.0] * 3,
            "control": [[float(i), float(i % 2), 0.0] for i in range(8)]}))
        assert run_cli(["elevate", "--curve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "multiplicity 4" in err
        assert "Traceback" not in err
