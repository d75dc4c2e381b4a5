"""Problem/curve/surface documents and the OBJ tessellation."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from devstrip import (
    BSplineCurve,
    DevelopableStrip,
    RuledPatch,
    SolveReport,
    export_obj,
    parse_curve,
    parse_problem,
    parse_solution,
    serialize_curve,
    serialize_solution,
    solve_problem3,
)

import reference as ref
from helpers import serialize_problem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str) -> str:
    return (FIXTURES / name).read_text()


class TestParseProblem:

    def test_bundled_problem1(self):
        spec = parse_problem(load("spline3.json"))
        assert spec.problem_kind == "problem1"
        assert spec.degree == 3
        assert spec.knots == ref.CUBIC_KNOTS
        assert spec.control == ref.CUBIC_CONTROL
        assert spec.v == ref.CUBIC_V
        assert spec.w == ref.CUBIC_W
        assert spec.anchor_end == "start"
        assert spec.anchor_point == ref.CUBIC_D0
        assert spec.d0 is None and spec.dL is None
        assert (spec.root_choice, spec.u_samples, spec.v_samples) == (0, 16, 5)

    def test_bundled_problem2(self):
        spec = parse_problem(load("spline4.json"))
        assert spec.problem_kind == "problem2"
        assert spec.d0 == ref.CORNER_D0
        assert spec.dL == ref.CORNER_DL
        assert spec.v is None and spec.anchor_point is None

    def test_bundled_problem3(self):
        spec = parse_problem(load("splinet.json"))
        assert spec.problem_kind == "problem3"
        assert spec.dL == ref.TRI_DL
        assert spec.apex_velocity == ref.TRI_APEX_VELOCITY

    def test_round_trip_is_identity(self):
        for name in ("spline3.json", "spline4.json", "splinet.json"):
            spec = parse_problem(load(name))
            assert parse_problem(serialize_problem(spec)) == spec

    def test_defaults_fill_in(self):
        doc = json.loads(load("spline3.json"))
        del doc["root_choice"], doc["tessellation"]
        spec = parse_problem(json.dumps(doc))
        assert (spec.root_choice, spec.u_samples, spec.v_samples) == (0, 16, 5)

    def test_invalid_json_named(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_problem("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            parse_problem("[1, 2]")

    def test_unknown_kind_rejected(self):
        doc = json.loads(load("spline3.json"))
        doc["problem"] = "problem9"
        with pytest.raises(ValueError, match="problem9"):
            parse_problem(json.dumps(doc))

    @pytest.mark.parametrize("name,missing,message", [
        ("spline3.json", ("rulings", "v"), "rulings.v is missing"),
        ("spline3.json", ("rulings", "anchor"), "rulings.anchor is missing"),
        ("spline4.json", ("rulings", "dL"), "rulings.dL is missing"),
        ("splinet.json", ("rulings", "apex_velocity"),
         "rulings.apex_velocity is missing"),
        ("spline3.json", ("curve", "degree"), "curve.degree is missing"),
    ])
    def test_missing_fields_named_precisely(self, name, missing, message):
        doc = json.loads(load(name))
        section, key = missing
        del doc[section][key]
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_problem(json.dumps(doc))

    def test_bad_anchor_end_rejected(self):
        doc = json.loads(load("spline3.json"))
        doc["rulings"]["anchor"]["end"] = "middle"
        with pytest.raises(ValueError, match="middle"):
            parse_problem(json.dumps(doc))

    def test_decreasing_knot_names_the_index(self):
        doc = json.loads(load("spline3.json"))
        doc["curve"]["knots"][3] = -0.5
        with pytest.raises(ValueError, match=re.escape("curve.knots[3]")):
            parse_problem(json.dumps(doc))

    def test_bad_coordinate_named(self):
        doc = json.loads(load("spline3.json"))
        doc["curve"]["control"][2] = [1.0, "x", 0.0]
        with pytest.raises(ValueError,
                           match=re.escape("curve.control[2][1]")):
            parse_problem(json.dumps(doc))

    def test_knot_count_mismatch_reports_both(self):
        doc = json.loads(load("spline3.json"))
        doc["curve"]["knots"] = doc["curve"]["knots"][:-1]
        with pytest.raises(ValueError, match="need 8 knots.*got 7"):
            parse_problem(json.dumps(doc))

    def test_boolean_is_not_a_number(self):
        doc = json.loads(load("spline3.json"))
        doc["rulings"]["v"] = [0, True, 2]
        with pytest.raises(ValueError, match="must be a number"):
            parse_problem(json.dumps(doc))

    def test_negative_root_choice_rejected(self):
        doc = json.loads(load("spline3.json"))
        doc["root_choice"] = -1
        with pytest.raises(ValueError, match="root_choice"):
            parse_problem(json.dumps(doc))

    def test_tiny_tessellation_rejected(self):
        doc = json.loads(load("spline3.json"))
        doc["tessellation"]["u_samples"] = 1
        with pytest.raises(ValueError, match="u_samples"):
            parse_problem(json.dumps(doc))

    def test_structurally_bad_curve_rejected_at_parse_time(self):
        doc = json.loads(load("spline3.json"))
        doc["curve"]["knots"] = [0, 0, 0, 0.3, 0.3, 1, 1, 1]
        doc["curve"]["knots"][4] = 0.3  # double inner knot is fine...
        doc["curve"]["knots"] = [0, 0, 0, 0.3, 0.3, 0.3, 0.3, 1]
        with pytest.raises(ValueError, match="multiplicity"):
            parse_problem(json.dumps(doc))


class TestCurveDocs:

    def test_round_trip_is_exact(self, cubic_curve):
        again = parse_curve(serialize_curve(cubic_curve))
        assert again.degree == cubic_curve.degree
        assert again.knots == cubic_curve.knots
        assert np.array_equal(again.control, cubic_curve.control)

    def test_padded_knot_list_accepted(self):
        doc = {"degree": 2, "knots": [-1, 0, 0, 1, 1, 2],
               "control": [[0, 0, 0], [1, 1, 0], [2, 0, 0]]}
        curve = parse_curve(json.dumps(doc))
        assert curve.domain == (0.0, 1.0)

    def test_invalid_json_named(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_curve("")


class TestSolutionDocs:

    def test_strip_round_trip(self, quad_strip):
        again = parse_solution(serialize_solution(quad_strip))
        assert isinstance(again, DevelopableStrip)
        assert again.lambda_star == quad_strip.lambda_star
        assert again.m_star == quad_strip.m_star
        assert np.array_equal(again.base.control, quad_strip.base.control)
        assert np.array_equal(again.opposite.control,
                              quad_strip.opposite.control)

    def test_plain_pair_round_trips_without_parameters(self, cubic_curve):
        sol = solve_problem3(cubic_curve, ref.TRI_DL, ref.TRI_APEX_VELOCITY)
        patch = RuledPatch(sol.final_c, sol.final_d)
        text = serialize_solution(patch)
        assert json.loads(text)["lambda_star"] is None
        again = parse_solution(text)
        assert isinstance(again, RuledPatch)
        assert not isinstance(again, DevelopableStrip)
        assert np.array_equal(again.opposite.control, sol.final_d.control)

    def test_tampered_strip_fails_revalidation(self, quad_strip):
        doc = json.loads(serialize_solution(quad_strip))
        doc["opposite_control"][1][2] += 0.25
        with pytest.raises(ValueError, match="control relation"):
            parse_solution(json.dumps(doc))

    def test_missing_polygon_named(self, quad_strip):
        doc = json.loads(serialize_solution(quad_strip))
        del doc["opposite_control"]
        with pytest.raises(ValueError, match="opposite_control"):
            parse_solution(json.dumps(doc))


class TestExportObj:

    def test_smallest_tessellation_is_one_quad(self, quad_strip):
        text = export_obj(quad_strip, u_samples=2, v_samples=2)
        lines = text.splitlines()
        vertices = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(vertices) == 4
        assert faces == ["f 1 3 4 2"]
        corners = (quad_strip.ruled_eval(0.0, 0.0),
                   quad_strip.ruled_eval(0.0, 1.0),
                   quad_strip.ruled_eval(1.0, 0.0),
                   quad_strip.ruled_eval(1.0, 1.0))
        for line, point in zip(vertices, corners):
            got = [float(x) for x in line.split()[1:]]
            assert got == pytest.approx(list(point), rel=1e-8)

    def test_piece_boundaries_are_shared(self, cubic_curve):
        lifted = BSplineCurve(cubic_curve.knots,
                              np.asarray(cubic_curve.control) + (0, 0, 5))
        patch = RuledPatch(cubic_curve, lifted)
        text = export_obj(patch, u_samples=16, v_samples=5)
        assert text.startswith("# ruled surface tessellation: 46 rows")
        assert len([l for l in text.splitlines()
                    if l.startswith("v ")]) == 46 * 5

    def test_quad_counts(self, quad_strip):
        text = export_obj(quad_strip, u_samples=9, v_samples=4)
        lines = text.splitlines()
        assert len([l for l in lines if l.startswith("v ")]) == 36
        quads = [l for l in lines if l.startswith("f ")]
        assert len(quads) == 8 * 3
        assert all(len(q.split()) == 5 for q in quads)

    def test_apex_row_merges_into_a_triangle_fan(self, cubic_curve):
        sol = solve_problem3(cubic_curve, ref.TRI_DL, ref.TRI_APEX_VELOCITY)
        text = export_obj(RuledPatch(sol.final_c, sol.final_d),
                          u_samples=4, v_samples=3)
        lines = text.splitlines()
        assert "apex row merged" in lines[0]
        # 10 rows, first one collapsed: 1 + 9 * 3 vertices
        assert len([l for l in lines if l.startswith("v ")]) == 28
        first_band = [l for l in lines if l.startswith("f 1 ")]
        assert first_band == ["f 1 2 3", "f 1 3 4"]

    def test_output_is_deterministic(self, quad_strip):
        assert export_obj(quad_strip) == export_obj(quad_strip)

    def test_nine_significant_digits(self):
        c = BSplineCurve((0.0, 1.0), ((1.0 / 3.0, 0.0, 0.0),
                                      (2.0 / 3.0, 0.0, 0.0)), 1)
        d = BSplineCurve((0.0, 1.0), ((1.0 / 3.0, 1.0, 0.0),
                                      (2.0 / 3.0, 1.0, 0.0)), 1)
        text = export_obj(RuledPatch(c, d), u_samples=2, v_samples=2)
        assert "v 0.333333333 0 0" in text.splitlines()

    def test_tiny_sampling_rejected(self, quad_strip):
        with pytest.raises(ValueError, match="u_samples"):
            export_obj(quad_strip, u_samples=1)
        with pytest.raises(ValueError, match="v_samples"):
            export_obj(quad_strip, v_samples=1)


class TestSolveReport:

    def build(self, **overrides):
        values = dict(
            problem_kind="problem1",
            roots=(-7.9, 0.37),
            chosen_m_star=-7.9,
            lambda_star=-6.18,
            alpha=0.5,
            beta=-1.5,
            sigma=1.0,
            tau=2.24,
            base_polygon=ref.CUBIC_CONTROL,
            opposite_polygon=ref.CUBIC_D,
            max_developability=3.2e-16,
            worst_cell_planarity=1.1e-16,
        )
        values.update(overrides)
        return SolveReport(**values)

    def test_json_round_trips_every_field(self):
        report = self.build()
        doc = json.loads(report.as_json())
        assert doc["problem_kind"] == "problem1"
        assert doc["tau"] == 2.24
        assert doc["pinch_u"] is None
        assert doc["opposite_polygon"] == [list(p) for p in ref.CUBIC_D]

    def test_text_summary_names_the_essentials(self):
        text = self.build(pinch_u=0.5).as_text()
        assert "chosen M*:          -7.9" in text
        assert "sigma, tau:         1, 2.24" in text
        assert "crosses zero at u = 0.5" in text
        assert text.endswith("\n")

    def test_non_finite_numbers_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            self.build(tau=math.inf)

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            self.build(max_developability=-1e-12)
