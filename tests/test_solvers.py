"""Solver regressions for the three boundary-interpolation levels.

The printed CUBIC_*/CORNER_*/TRI_* constants carry two decimals, so those
checks use a 0.01 box; independently derivable facts (the oracle identity
for a(M*), monic quartic coefficients, interpolation conditions) are held
to tight tolerances.
"""

import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from devstrip import (
    BSplineCurve,
    ConeCaseError,
    CylinderCaseError,
    DegenerateCaseError,
    InfeasibleProblemError,
    PlanarSurfaceError,
    RuledPatch,
    apex_direction,
    parse_problem,
    propagate_polygon,
    solve_problem1,
    solve_problem2,
    solve_problem3,
    solve_spec,
)
from devstrip import solvers
from devstrip.bspline import KNOT_EQ_REL
from devstrip.solvers import _ratio_weights

import reference as ref
from helpers import (assert_point_close, assert_polygon_close, blossom,
                     exact_compatibility_numerator, exact_offset_numerator,
                     insert_knot, plant_strip, quartic_real_roots,
                     ruling_profile)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def cubic():
    return BSplineCurve(ref.CUBIC_KNOTS, ref.CUBIC_CONTROL, ref.CUBIC_DEGREE)


@pytest.fixture(scope="module")
def cubic_p1(cubic):
    return solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W, d0=ref.CUBIC_D0)


@pytest.fixture(scope="module")
def corner_p2(cubic):
    return solve_problem2(cubic, ref.CORNER_D0, ref.CORNER_DL)


@pytest.fixture(scope="module")
def tri_p3(cubic):
    return solve_problem3(cubic, ref.TRI_DL, ref.TRI_APEX_VELOCITY,
                          root_choice=ref.TRI_ROOT_INDEX)


def a_point(curve, m):
    """a(M*) from the ratio-product weights."""
    return _ratio_weights(curve.knots, len(curve.control), [m])[0] \
        @ curve.control[:-1]


def compatibility(curve, v, w, m):
    """The compatibility function det(a(m) - c_L, v, w) at an array of m."""
    ctrl = curve.control
    deltas = [np.linalg.det(np.column_stack((c - ctrl[-1], v, w)))
              for c in ctrl[:-1]]
    return _ratio_weights(curve.knots, len(ctrl), m) @ deltas


class TestARational:
    """a(M*) in ratio-product form.

    Independent oracle: at fixed M the recursion endpoint is affine in
    lambda with slope -(a(M) - c_L)/(M - u_{L-1}), so propagating the
    zero-width start with lambda = u_{L-1} must land exactly on a(M).
    """

    @pytest.mark.parametrize("m", [-3.7, -0.42, 2.9, 11.0])
    def test_matches_the_recursion_endpoint(self, cubic, m):
        pivot = cubic.knots[len(cubic.control) - 2]
        d = propagate_polygon(cubic, cubic.control[0], pivot, m)
        assert_point_close(a_point(cubic, m), d.control[-1], 1e-10)

    @pytest.mark.parametrize("m", [-2.0, 0.4, 3.3])
    def test_matches_on_a_single_piece_quadratic(self, quad_curve, m):
        pivot = quad_curve.knots[len(quad_curve.control) - 2]
        d = propagate_polygon(quad_curve, quad_curve.control[0], pivot, m)
        assert_point_close(a_point(quad_curve, m), d.control[-1], 1e-12)

    def test_weights_sum_to_the_denominator(self, cubic):
        # each weight is a polynomial over the common denominator, and the
        # polynomials sum to it: the ratio-product weights sum to 1
        m = np.array([-40.0, -2.0, 0.15, 0.5, 0.85, 3.0, 1e6])
        weights = _ratio_weights(cubic.knots, len(cubic.control), m)
        assert weights.sum(axis=1) == pytest.approx(np.ones(len(m)),
                                                    abs=1e-12)

    def test_denominator_roots_sit_on_knots(self, cubic):
        # the poles are u_0..u_{L-2} = 0, 0, 0, 0.3; u_4 = 0.7 is none
        def worst(m):
            return np.max(np.abs(_ratio_weights(
                cubic.knots, len(cubic.control), [m])))

        assert worst(1e-9) > 1e6 and worst(0.3 + 1e-9) > 1e6
        assert worst(0.7 + 1e-9) < 1e3
        assert worst(-2.0) < 10.0


class TestCramerPolynomial:
    """The compatibility function times its denominator, the product of
    (m - u_k) over the poles, is the coplanarity (Cramer) polynomial."""

    @staticmethod
    def numerator(curve, v, w, m):
        m = np.asarray(m, dtype=float)
        poles = np.asarray(curve.knots[: len(curve.control) - 2])
        return compatibility(curve, v, w, m) * np.prod(
            m[:, None] - poles, axis=1)

    SAMPLES = (-9.0, -2.0, 0.15, 0.5, 0.85, 2.5)

    def test_cubic_quartic_is_exact(self, cubic):
        values = self.numerator(cubic, ref.CUBIC_V, ref.CUBIC_W, self.SAMPLES)
        ratio = values / np.polyval(ref.CUBIC_QUARTIC, self.SAMPLES)
        assert ratio == pytest.approx(np.full(len(ratio), ratio[0]),
                                      rel=1e-12)

    def test_apex_quartic_matches_up_to_normalization(self, cubic):
        w = np.asarray(ref.TRI_DL) - cubic.control[-1]
        values = self.numerator(cubic, ref.TRI_APEX_DIRECTION, w,
                                self.SAMPLES)
        ratio = values / np.polyval(ref.TRI_QUARTIC, self.SAMPLES)
        assert ratio == pytest.approx(np.full(len(ratio), ratio[0]),
                                      rel=1e-12)

    def test_invariant_under_direction_scaling(self, cubic):
        p = compatibility(cubic, ref.CUBIC_V, ref.CUBIC_W, self.SAMPLES)
        q = compatibility(cubic, 3.0 * np.asarray(ref.CUBIC_V),
                          -2.0 * np.asarray(ref.CUBIC_W), self.SAMPLES)
        assert q == pytest.approx(-6.0 * p, rel=1e-12)
        scaled = solve_problem1(cubic, 3.0 * np.asarray(ref.CUBIC_V),
                                -2.0 * np.asarray(ref.CUBIC_W),
                                d0=ref.CUBIC_D0)
        assert scaled.m_star_roots == pytest.approx(
            quartic_real_roots(ref.CUBIC_QUARTIC), abs=1e-9)

    def test_planar_data_collapses_to_the_zero_polynomial(self):
        flat = BSplineCurve(
            ref.CUBIC_KNOTS,
            [(x, y, 0.0) for x, y, _ in ref.CUBIC_CONTROL], 3)
        values = compatibility(flat, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                               self.SAMPLES)
        assert np.all(values == 0.0)
        with pytest.raises(PlanarSurfaceError):
            solve_problem1(flat, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                           d0=(1.0, 0.0, 0.0))

    def test_parallel_directions_mean_a_cylinder(self, cubic):
        with pytest.raises(CylinderCaseError):
            solve_problem1(cubic, ref.CUBIC_V, 2.0 * np.asarray(ref.CUBIC_V),
                           d0=ref.CUBIC_D0)

    def test_zero_direction_rejected(self, cubic):
        with pytest.raises(ValueError, match="nonzero"):
            solve_problem1(cubic, (0.0, 0.0, 0.0), ref.CUBIC_W,
                           d0=ref.CUBIC_D0)


class TestRulingCoefficients:
    """(alpha, beta), the coordinates of a(M*) − c_L in the (v, w) frame."""

    def test_exact_frame_coordinates(self, cubic, cubic_p1):
        m = Fraction(cubic_p1.chosen_root)
        ctrl = cubic.control
        denominator = math.prod(m - Fraction(u)
                                for u in cubic.knots[: len(ctrl) - 2])
        offset = [float(x / denominator)
                  for x in exact_offset_numerator(cubic.knots, ctrl, m)]
        frame = (cubic_p1.alpha * np.asarray(ref.CUBIC_V)
                 + cubic_p1.beta * np.asarray(ref.CUBIC_W))
        assert_point_close(frame, offset, 1e-13 * np.linalg.norm(offset))

    def test_point_off_the_plane_is_rejected(self, monkeypatch):
        # a parameter 1e-3 past each root puts a(M*) off the ruling plane
        # of every fixture, by 1.5e-4 to 3.7e-3
        real_roots = solvers._real_roots
        monkeypatch.setattr(solvers, "_real_roots", lambda *args: [
            root + 1e-3 for root in real_roots(*args)])
        for path in sorted(FIXTURES.glob("*.json")):
            with pytest.raises(InfeasibleProblemError,
                               match="off the ruling plane"):
                solve_spec(parse_problem(path.read_text()))


class TestProblem1:

    def test_admissible_parameters(self, cubic_p1):
        assert len(cubic_p1.m_star_roots) == 2
        assert cubic_p1.m_star_roots == pytest.approx(ref.CUBIC_ROOTS,
                                                      abs=0.01)
        assert cubic_p1.chosen_root == cubic_p1.m_star_roots[0]
        assert cubic_p1.m_star_roots == pytest.approx(
            quartic_real_roots(ref.CUBIC_QUARTIC), abs=1e-9)

    def test_scales_and_interior_parameters(self, cubic_p1):
        assert cubic_p1.sigma == pytest.approx(1.0, abs=1e-12)
        assert cubic_p1.lambda_star == pytest.approx(
            ref.CUBIC_LAMBDA_BY_ROOT[0], abs=0.01)
        assert cubic_p1.tau == pytest.approx(ref.CUBIC_TAU, abs=0.01)
        assert cubic_p1.strip.m_star == cubic_p1.chosen_root
        assert cubic_p1.strip.lambda_star == cubic_p1.lambda_star

    def test_opposite_polygon(self, cubic_p1):
        assert_polygon_close(cubic_p1.strip.opposite.control,
                             ref.CUBIC_D, 0.01)
        ruling = (cubic_p1.strip.opposite.control[-1]
                  - cubic_p1.strip.base.control[-1])
        assert_point_close(ruling, ref.CUBIC_LAST_RULING, 0.01)
        assert_point_close(ruling, cubic_p1.tau * np.asarray(ref.CUBIC_W),
                           1e-9)

    def test_opposite_polygon_blossoms(self, cubic_p1):
        d = cubic_p1.strip.opposite
        for args, expected in ref.CUBIC_AUX_D.items():
            pieces = (0, 1) if 0.3 in args else (1, 2)
            assert_point_close(blossom(d, pieces[0], args),
                               expected, 0.01)
            assert_point_close(blossom(d, pieces[1], args),
                               expected, 0.01)

    def test_full_multiplicity_split(self, cubic_p1):
        def split(curve):
            for u in (0.3, 0.3, 0.7, 0.7):
                curve = insert_knot(curve, u)
            return curve

        assert_polygon_close(split(cubic_p1.strip.base).control,
                             ref.CUBIC_SPLIT_C, 0.01)
        assert_polygon_close(split(cubic_p1.strip.opposite).control,
                             ref.CUBIC_SPLIT_D, 0.01)

    def test_second_root_gives_the_other_strip(self, cubic):
        alt = solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W,
                             d0=ref.CUBIC_D0, root_choice=1)
        assert alt.chosen_root == pytest.approx(ref.CUBIC_ROOTS[1], abs=0.01)
        assert alt.lambda_star == pytest.approx(
            ref.CUBIC_LAMBDA_BY_ROOT[1], abs=0.01)

    def test_anchoring_the_far_end_recovers_the_same_strip(self, cubic,
                                                           cubic_p1):
        far = cubic_p1.strip.opposite.control[-1]
        alt = solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W, dL=far)
        assert alt.sigma == pytest.approx(1.0, abs=1e-9)
        assert alt.lambda_star == pytest.approx(cubic_p1.lambda_star,
                                                rel=1e-9)
        assert_polygon_close(alt.strip.opposite.control,
                             cubic_p1.strip.opposite.control, 1e-9)

    def test_exactly_one_anchor_required(self, cubic):
        with pytest.raises(ValueError, match="exactly one"):
            solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W)
        with pytest.raises(ValueError, match="exactly one"):
            solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W,
                           d0=ref.CUBIC_D0, dL=(8.0, -1.0, 4.0))

    def test_anchor_off_its_ruling_line_rejected(self, cubic):
        with pytest.raises(ValueError, match="ruling line"):
            solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W,
                           d0=(0.5, 0.0, 2.0))

    def test_anchor_on_the_endpoint_rejected(self, cubic):
        with pytest.raises(ValueError, match="zero length"):
            solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W,
                           d0=cubic.control[0])

    def test_unclamped_knots_rejected(self):
        open_uniform = BSplineCurve(
            (0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
            ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 0.0, 1.0),
             (3.0, 1.0, 0.0), (4.0, 0.0, 0.0)), 2)
        with pytest.raises(ValueError, match="clamped"):
            solve_problem1(open_uniform, (0.0, 0.0, 1.0), (0.0, 1.0, 0.0),
                           d0=(0.0, 0.0, 1.0))

    def test_parallel_rulings_mean_a_cylinder(self, cubic):
        with pytest.raises(CylinderCaseError):
            solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_V, d0=ref.CUBIC_D0)

    def test_intersecting_ruling_lines_mean_a_cone(self, cubic):
        gap = np.asarray(cubic.control[-1]) - np.asarray(cubic.control[0])
        w = gap + np.asarray(ref.CUBIC_V)
        with pytest.raises(ConeCaseError):
            solve_problem1(cubic, ref.CUBIC_V, w, d0=ref.CUBIC_D0)

    def test_planar_data_rejected_before_the_cone_check(self):
        flat = BSplineCurve(
            ref.CUBIC_KNOTS,
            [(x, y, 0.0) for x, y, _ in ref.CUBIC_CONTROL], 3)
        with pytest.raises(PlanarSurfaceError):
            solve_problem1(flat, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                           d0=(1.0, 0.0, 0.0))

    def test_straight_segment_with_skew_rulings_is_infeasible(self):
        segment = BSplineCurve((0.0, 1.0),
                               ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), 1)
        with pytest.raises(InfeasibleProblemError, match="no admissible"):
            solve_problem1(segment, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                           d0=(0.0, 1.0, 0.0))

    def test_root_choice_out_of_range(self, cubic):
        with pytest.raises(ValueError, match="out of range"):
            solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W,
                           d0=ref.CUBIC_D0, root_choice=2)


class TestNamedTolerances:
    """Data at half and at twice each named tolerance: on the side the
    tolerance guards, the solve is refused with its error; on the other
    side, that error is not raised."""

    def test_ruling_parallel_tol(self, cubic):
        def solve(factor):
            w = (1.0, factor * solvers.RULING_PARALLEL_TOL, 0.0)
            return solve_problem1(cubic, (1.0, 0.0, 0.0), w,
                                  d0=(1.0, 0.0, 0.0))

        with pytest.raises(CylinderCaseError):
            solve(0.5)
        # rulings this close to parallel still meet the cone test
        with pytest.raises(ConeCaseError):
            solve(2.0)

    def test_anchor_line_tol(self, cubic):
        # the sine of d0 - c_0 = (x, 0, 2) against v = (0, 0, 2) is x / 2
        def solve(factor):
            d0 = (2.0 * factor * solvers.ANCHOR_LINE_TOL, 0.0, 2.0)
            return solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W, d0=d0)

        solve(0.5)
        with pytest.raises(ValueError, match="ruling line"):
            solve(2.0)

    def test_cone_tol(self, cubic):
        # w = gap + v meets the first ruling line; moving it along the
        # unit normal of (gap, v) by eta gives det(gap, v, w) =
        # eta |gap x v|, here factor * CONE_TOL * |gap| |v| |w|
        gap = cubic.control[-1] - cubic.control[0]
        v = np.asarray(ref.CUBIC_V)
        normal = np.cross(gap, v)
        unit = normal / np.linalg.norm(normal)
        bound = np.linalg.norm(gap) * np.linalg.norm(v) \
            * np.linalg.norm(gap + v) / np.linalg.norm(normal)

        def solve(factor):
            w = gap + v + factor * solvers.CONE_TOL * bound * unit
            return solve_problem1(cubic, v, w, d0=ref.CUBIC_D0)

        with pytest.raises(ConeCaseError):
            solve(0.5)
        solve(2.0)

    def test_planar_det_rel(self):
        # the flat cubic lies in z = 0, the plane of v and w; lifting c_2
        # by h makes its determinant h against the largest offset from c_L
        control = np.array([(x, y, 0.0) for x, y, _ in ref.CUBIC_CONTROL])
        reach = np.max(np.linalg.norm(control[:-1] - control[-1], axis=1))

        def solve(factor):
            lifted = control.copy()
            lifted[2, 2] = factor * solvers.PLANAR_DET_REL * reach
            curve = BSplineCurve(ref.CUBIC_KNOTS, lifted, 3)
            return solve_problem1(curve, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                  d0=(1.0, 0.0, 0.0))

        with pytest.raises(PlanarSurfaceError):
            solve(0.5)
        # c_0 stays in the plane, so the end ruling lines still meet
        with pytest.raises(ConeCaseError):
            solve(2.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tau_tol(self, cubic, cubic_p1, monkeypatch, sign):
        # the two-ruling record stubbed with its tau at the edge
        def solve(factor):
            tau = sign * factor * solvers.TAU_TOL
            monkeypatch.setattr(solvers, "solve_problem1",
                                lambda *args, **kwargs: replace(cubic_p1,
                                                                tau=tau))
            return solve_problem2(cubic, ref.CORNER_D0, ref.CORNER_DL)

        with pytest.raises(DegenerateCaseError, match="collapses"):
            solve(0.5)
        assert solve(2.0).tau == sign * 2.0 * solvers.TAU_TOL

    def test_apex_velocity_rel(self, cubic):
        # the prescribed velocity differs from the curve's own by h along z,
        # so the first ruling is (b - a) h long against the threshold
        # (b - a) APEX_VELOCITY_REL max(1, |d'(a)|, |c'(a)|)
        own = cubic.derivative_at(cubic.domain[0])
        scale = max(1.0, float(np.linalg.norm(own)))

        def direction(factor):
            h = factor * solvers.APEX_VELOCITY_REL * scale
            return apex_direction(cubic, own + (0.0, 0.0, h))

        with pytest.raises(DegenerateCaseError, match="degenerates"):
            direction(0.5)
        assert direction(2.0)[2] > 0.0

    def test_out_of_plane_tol(self, cubic, cubic_p1, monkeypatch):
        # the root is moved along m until a(M*) lies the multiple of
        # OUT_OF_PLANE_TOL · max(1, |a(M*) − c_L|) off the ruling plane;
        # that distance grows linearly with the move
        ctrl = cubic.control
        normal = np.cross(ref.CUBIC_V, ref.CUBIC_W)
        root = cubic_p1.chosen_root

        def distance(m):
            offset = _ratio_weights(cubic.knots, len(ctrl), [m])[0] \
                @ ctrl[:-1] - ctrl[-1]
            return abs(offset @ normal) / np.linalg.norm(normal) \
                / max(1.0, np.linalg.norm(offset))

        h = 1e-6
        slope = distance(root + h) / h

        def solve(factor):
            moved = root + factor * solvers.OUT_OF_PLANE_TOL / slope
            assert distance(moved) == pytest.approx(
                factor * solvers.OUT_OF_PLANE_TOL, rel=1e-3)
            monkeypatch.setattr(solvers, "_real_roots",
                                lambda *args: [moved])
            return solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W,
                                  d0=ref.CUBIC_D0)

        solve(0.5)
        with pytest.raises(InfeasibleProblemError,
                           match="off the ruling plane"):
            solve(2.0)

    @pytest.mark.parametrize("axis", [0, 1], ids=["alpha", "beta"])
    def test_pinned_scale_rel(self, cubic, axis):
        # with v = e_x and w = e_y, α and β are the x and y of a(M*) − c_L,
        # and the x and y of c_L move neither the compatibility function nor
        # its roots: one of them is set so that |α| or |β| is the multiple
        # of PINNED_SCALE_REL · max(1, |a(M*) − c_L|).  The anchor sits on
        # the other ruling
        control = np.array(ref.CUBIC_CONTROL)
        v, w = np.eye(3)[0], np.eye(3)[1]
        m = solve_problem1(cubic, v, w, d0=control[0] + v).chosen_root
        point = _ratio_weights(cubic.knots, len(control), [m])[0] \
            @ control[:-1]
        scale = max(1.0, abs(point[1 - axis] - control[-1, 1 - axis]))

        def solve(factor):
            moved = control.copy()
            moved[-1, axis] = point[axis] \
                - factor * solvers.PINNED_SCALE_REL * scale
            curve = BSplineCurve(ref.CUBIC_KNOTS, moved, 3)
            anchor = {"dL": moved[-1] + w} if axis == 0 else \
                {"d0": moved[0] + v}
            return solve_problem1(curve, v, w, **anchor)

        with pytest.raises(InfeasibleProblemError, match="pinned"):
            solve(0.5)
        sol = solve(2.0)
        assert abs((sol.alpha, sol.beta)[axis]) == pytest.approx(
            2.0 * solvers.PINNED_SCALE_REL * scale, rel=1e-3)

    def test_closing_rel(self, cubic, cubic_p1, monkeypatch):
        # the recursion's last vertex moved off c_L + τ·w by the multiple of
        # CLOSING_REL · max(1, |τ·w|); past the closing test, the moved
        # vertex breaks the control relation of the last cell
        gap = solvers.CLOSING_REL * max(1.0, np.linalg.norm(
            cubic_p1.tau * np.asarray(ref.CUBIC_W)))

        def solve(factor):
            def moved(*args):
                opposite = propagate_polygon(*args)
                control = opposite.control.copy()
                control[-1, 2] += factor * gap
                return BSplineCurve(opposite.knots, control, opposite.degree)

            monkeypatch.setattr(solvers, "propagate_polygon", moved)
            return solve_problem1(cubic, ref.CUBIC_V, ref.CUBIC_W,
                                  d0=ref.CUBIC_D0)

        with pytest.raises(InfeasibleProblemError, match="valid strip"):
            solve(0.5)
        with pytest.raises(InfeasibleProblemError, match="failed to close"):
            solve(2.0)


def planted_strips(pieces, scaled):
    """The seeded planted strips at one piece count, degrees 2-5, on [0, 1]
    or on [0, pieces]: (scale, knots, base, curve, v, w, d0, m*) each."""
    rng = np.random.default_rng(1000 + pieces)
    scale = float(pieces) if scaled else 1.0
    for degree in (2, 3, 4, 5):
        knots, base, opposite, _, m_star = plant_strip(
            rng, degree, pieces, scale)
        yield (scale, knots, base, BSplineCurve(knots, base, degree),
               opposite[0] - base[0], opposite[-1] - base[-1], opposite[0],
               m_star)


def tangential_rulings(curve, m0):
    """Rulings v, w whose compatibility numerator touches zero at m0
    without crossing: both are normal to n = A(m0) x A'(m0), the normal of
    the ruling plane."""
    m, h = Fraction(m0), Fraction(1, 10 ** 6)
    offset = exact_offset_numerator(curve.knots, curve.control, m)
    ahead = exact_offset_numerator(curve.knots, curve.control, m + h)
    behind = exact_offset_numerator(curve.knots, curve.control, m - h)
    slope = [(p - q) / (2 * h) for p, q in zip(ahead, behind)]
    normal = np.cross([float(x) for x in offset], [float(x) for x in slope])
    v = np.cross(normal, (1.0, 0.0, 0.0))
    return v, np.cross(normal, v)


class TestCompatibilityRoots:
    """Roots of the compatibility function found interval by interval.

    Planted strips (tests/helpers.plant_strip) admit their m* whatever the
    piece count and knot scale; the exact-fraction numerator confirms that
    the function changes sign across the reported root."""

    @pytest.mark.parametrize("scaled", [False, True], ids=["unit", "pieces"])
    @pytest.mark.parametrize("pieces", [2, 4, 8, 16, 32, 64])
    def test_planted_strips_solve_at_their_root(self, pieces, scaled):
        for scale, knots, base, curve, v, w, d0, m_star in planted_strips(
                pieces, scaled):
            sol = solve_problem1(curve, v, w, d0=d0)
            root = min(sol.m_star_roots, key=lambda r: abs(r - m_star))
            assert root == pytest.approx(
                m_star, abs=1e-11 * max(scale, abs(m_star)))
            eps = Fraction(1, 10 ** 8) * Fraction(scale)
            below = exact_compatibility_numerator(knots, base, v, w,
                                                  Fraction(root) - eps)
            above = exact_compatibility_numerator(knots, base, v, w,
                                                  Fraction(root) + eps)
            assert below * above < 0, (curve.degree, root)

    @pytest.mark.parametrize("m0", [-1.5, 2.5])
    def test_tangential_root_is_found_once(self, cubic, m0):
        v, w = tangential_rulings(cubic, m0)
        sol = solve_problem1(cubic, v, w, d0=cubic.control[0] + v)
        near = [r for r in sol.m_star_roots if abs(r - m0) < 0.1]
        assert near == pytest.approx([m0], abs=1e-9)

    def test_sample_count_is_bounded(self, monkeypatch):
        # 13,870 rows with 32 points per interpolant; sampling at 16, then
        # 32, then 64 points, whose point sets do not nest, took 18,094
        rows = []
        weights = solvers._ratio_weights

        def counted(knots, count, m):
            out = weights(knots, count, m)
            rows.append(len(out))
            return out

        monkeypatch.setattr(solvers, "_ratio_weights", counted)
        for pieces in (16, 64):
            for _, _, _, curve, v, w, d0, _ in planted_strips(pieces, False):
                solve_problem1(curve, v, w, d0=d0)
        assert sum(rows) <= 15_000

    def test_planar_data_raises_at_many_pieces(self):
        # a 24-piece curve in a tilted plane, rulings in the same plane
        rng = np.random.default_rng(5)
        knots, base, _, _, _ = plant_strip(rng, 3, 24)
        tilt = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        flat = BSplineCurve(knots, base[:, :2] @ tilt, 3)
        v, w = tilt[0] + 0.5 * tilt[1], tilt[1] - 0.2 * tilt[0]
        with pytest.raises(PlanarSurfaceError):
            solve_problem1(flat, v, w, d0=flat.control[0] + v)


class TestEigenvalueCalls:
    """A multiple root, which the pencil's guards leave to the per-interval
    path, still reaches its colleague-matrix eigenvalue solve (chebroots)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        solve = solvers.chebroots

        def wrapped(coef):
            counted.append(len(coef))
            return solve(coef)

        monkeypatch.setattr(solvers, "chebroots", wrapped)
        return counted

    @pytest.mark.parametrize("m0", [-1.5, 2.5])
    def test_tangential_root_still_reaches_chebroots(self, calls, cubic, m0):
        v, w = tangential_rulings(cubic, m0)
        solve_problem1(cubic, v, w, d0=cubic.control[0] + v)
        assert calls


class TestProblem2:

    def test_corner_regression(self, corner_p2):
        assert_polygon_close(corner_p2.elevated_c.control,
                             ref.CORNER_TILDE_C, 0.01)
        assert_polygon_close(corner_p2.elevated_d.control,
                             ref.CORNER_TILDE_D, 0.01)
        assert corner_p2.elevated_c.degree == 4
        assert corner_p2.elevated_d.degree == 4

    def test_corners_are_interpolated_tightly(self, corner_p2):
        scale = max(1.0, float(np.max(np.abs(corner_p2.elevated_d.control))))
        assert_point_close(corner_p2.elevated_d.control[0], ref.CORNER_D0,
                           1e-9 * scale)
        assert_point_close(corner_p2.elevated_d.control[-1], ref.CORNER_DL,
                           1e-9 * scale)

    def test_base_is_the_plain_degree_raise(self, corner_p2, cubic):
        assert_polygon_close(corner_p2.elevated_c.control,
                             cubic.elevate_degree().control, 1e-12)

    def test_scaling_profile_hits_both_ends(self, corner_p2, cubic):
        a, b = cubic.domain
        scaling = ruling_profile(cubic.domain, 1.0, 1.0 / corner_p2.tau)
        assert scaling(a) == pytest.approx(1.0, abs=1e-12)
        assert scaling(b) == pytest.approx(1.0 / corner_p2.tau, rel=1e-12)
        assert corner_p2.tau == pytest.approx(ref.CUBIC_TAU, abs=0.01)
        assert corner_p2.pinch_u is None

    def test_scaled_blossom_spot_value(self, corner_p2):
        knots = corner_p2.elevated_d.knots
        assert tuple(knots[1:5]) == ref.CORNER_SCALED_BLOSSOM_ARGS
        assert_point_close(corner_p2.elevated_d.control[1],
                           ref.CORNER_SCALED_BLOSSOM_VALUE, 0.01)

    def test_surface_is_the_rescaled_inner_strip(self, corner_p2, cubic):
        # b2(u, t) = b1(u, t * f(u)): same surface traded between
        # parameterizations, sampled across the domain and width
        inner = corner_p2.strip
        f = ruling_profile(cubic.domain, 1.0, 1.0 / corner_p2.tau)
        outer = RuledPatch(corner_p2.elevated_c, corner_p2.elevated_d)
        for u in (0.0, 0.15, 0.3, 0.55, 0.7, 0.9, 1.0):
            for t in (0.0, 0.4, 1.0):
                assert_point_close(outer.ruled_eval(u, t),
                                   inner.ruled_eval(u, t * f(u)), 1e-9)

    def test_matching_corner_needs_no_rescale(self, cubic, cubic_p1):
        far = cubic_p1.strip.opposite.control[-1]
        sol = solve_problem2(cubic, ref.CUBIC_D0, far)
        a, b = cubic.domain
        slope = (1.0 / sol.tau - 1.0) / (b - a)
        assert slope == pytest.approx(0.0, abs=1e-9)
        assert_polygon_close(
            sol.elevated_d.control,
            cubic_p1.strip.opposite.elevate_degree().control, 1e-9)

    def test_opposite_side_corner_pinches_the_patch(self, cubic, cubic_p1):
        c_last = np.asarray(cubic.control[-1])
        far = np.asarray(cubic_p1.strip.opposite.control[-1])
        flipped = c_last - (far - c_last)
        sol = solve_problem2(cubic, ref.CUBIC_D0, flipped)
        assert sol.tau == pytest.approx(-1.0, abs=1e-9)
        assert sol.pinch_u == pytest.approx(0.5, abs=1e-9)
        scale = max(1.0, float(np.max(np.abs(sol.elevated_d.control))))
        assert_point_close(sol.elevated_d.control[-1], flipped, 1e-9 * scale)

    def test_corner_scaled_far_out_collapses_the_ruling(self, cubic):
        run_away = (np.asarray(cubic.control[-1])
                    + 1e13 * np.asarray(ref.CUBIC_W))
        with pytest.raises(DegenerateCaseError, match="collapses"):
            solve_problem2(cubic, ref.CORNER_D0, run_away)


class TestApexDirection:

    def test_reference_direction_is_exact(self, cubic):
        v = apex_direction(cubic, ref.TRI_APEX_VELOCITY)
        assert_point_close(v, ref.TRI_APEX_DIRECTION, 1e-12)

    def test_velocity_equal_to_the_curves_own_is_degenerate(self, cubic):
        own = cubic.derivative_at(0.0)
        with pytest.raises(DegenerateCaseError, match="degenerates"):
            apex_direction(cubic, own)

    @staticmethod
    def start_curve(degree, first):
        # three pieces on [0.25, 2], the knots below u_{n-1} = a at `first`
        rng = np.random.default_rng(degree)
        inner = sorted(rng.uniform(0.25, 2.0, 2).tolist())
        knots = [first] * (degree - 1) + [0.25, *inner] + [2.0] * degree
        return BSplineCurve(knots, rng.uniform(-1.0, 1.0, (degree + 3, 3)),
                            degree)

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_clamped_start_velocity_is_derivative_at_a(self, degree):
        # first n knots equal to a: every de Boor weight of derivative_at(a)
        # is 0, so the closed form gives its bits
        curve = self.start_curve(degree, 0.25)
        a, b = curve.domain
        velocity = np.array((0.5, -1.0, 2.0))
        assert np.array_equal(apex_direction(curve, velocity),
                              (b - a) * (velocity - curve.derivative_at(a)))

    @pytest.mark.parametrize("degree", range(2, 7))
    def test_start_within_the_knot_tolerance_is_taken_as_clamped(self, degree):
        # the knots below a lie delta = half the knot tolerance under it:
        # the velocity is still n (c_1 - c_0) / (u_n - a).  Each de Boor
        # weight at a is at most eps = delta / (u_n - a), and each of the
        # n - 1 stages moves a point by at most eps times M, the longest of
        # c_1 - c_0 .. c_n - c_{n-1}, so derivative_at(a) lies within
        # 2 n (n - 1) eps M / (u_n - a) of the closed form
        n = degree
        delta = 0.5 * KNOT_EQ_REL * 1.75
        curve = self.start_curve(n, 0.25 - delta)
        ctrl, knots = curve.control, curve.knots
        a, b = curve.domain
        assert knots.knot_tolerance == KNOT_EQ_REL * 1.75
        h = knots[n] - a
        closed = n * (ctrl[1] - ctrl[0]) / h
        velocity = np.array((0.5, -1.0, 2.0))
        assert np.array_equal(apex_direction(curve, velocity),
                              (b - a) * (velocity - closed))
        steps = np.linalg.norm(ctrl[1 : n + 1] - ctrl[:n], axis=1).max()
        gap = np.linalg.norm(curve.derivative_at(a) - closed)
        assert 0.0 < gap <= 2 * n * (n - 1) * (delta / h) * steps / h

    def test_unclamped_start_rejected(self):
        curve = self.start_curve(3, 0.0)
        with pytest.raises(ValueError, match="clamped"):
            apex_direction(curve, (0.5, -1.0, 2.0))


class TestProblem3:

    def test_triangular_regression(self, tri_p3):
        assert_polygon_close(tri_p3.final_c.control, ref.TRI_HAT_C, 0.01)
        assert_polygon_close(tri_p3.final_d.control, ref.TRI_HAT_D, 0.01)
        assert tri_p3.final_c.degree == 5
        assert tri_p3.final_d.degree == 5

    def test_intermediate_stages(self, tri_p3, cubic):
        apex_ruling = tri_p3.strip.opposite.control[0] - cubic.control[0]
        assert_point_close(apex_ruling, ref.TRI_APEX_DIRECTION, 1e-12)
        assert tri_p3.m_star_roots == pytest.approx(ref.TRI_ROOTS, abs=0.01)
        assert tri_p3.chosen_root == pytest.approx(
            ref.TRI_ROOTS[ref.TRI_ROOT_INDEX], abs=0.01)
        assert tri_p3.lambda_star == pytest.approx(ref.TRI_LAMBDA, abs=0.01)
        assert tri_p3.tau == pytest.approx(ref.TRI_TAU, abs=0.01)
        assert_polygon_close(tri_p3.strip.opposite.control,
                             ref.TRI_D_MID, 0.01)
        assert_polygon_close(tri_p3.elevated_d.control,
                             ref.TRI_TILDE_D, 0.01)

    def test_intermediate_blossoms(self, tri_p3):
        d_mid = tri_p3.strip.opposite
        for args, expected in ref.TRI_AUX_D_MID.items():
            pieces = (0, 1) if 0.3 in args else (1, 2)
            assert_point_close(blossom(d_mid, pieces[0], args),
                               expected, 0.01)
        tilde_c = tri_p3.elevated_c
        tilde_d = tri_p3.elevated_d
        for args, expected in ref.TRI_AUX_TILDE_C.items():
            assert_point_close(blossom(tilde_c, 0, args), expected, 0.01)
        for args, expected in ref.TRI_AUX_TILDE_D.items():
            assert_point_close(blossom(tilde_d, 0, args), expected, 0.01)

    def test_apex_and_far_corner_interpolated(self, tri_p3, cubic):
        scale = max(1.0, float(np.max(np.abs(tri_p3.final_d.control))))
        assert_point_close(tri_p3.final_d.control[0], cubic.control[0],
                           1e-9 * scale)
        assert_point_close(tri_p3.final_d.control[-1], ref.TRI_DL,
                           1e-9 * scale)
        assert_point_close(tri_p3.final_c.control[0], cubic.control[0],
                           1e-9 * scale)

    def test_prescribed_start_velocity_realized(self, tri_p3):
        velocity = tri_p3.final_d.derivative_at(0.0)
        assert_point_close(velocity, ref.TRI_APEX_VELOCITY, 1e-6)

    def test_shrink_profile_runs_zero_to_one(self, tri_p3, cubic):
        a, b = cubic.domain
        shrink = ruling_profile(cubic.domain, 0.0, 1.0)
        assert shrink(a) == pytest.approx(0.0, abs=1e-12)
        assert shrink(b) == pytest.approx(1.0, abs=1e-12)

    def test_other_root_lands_far_from_the_reference(self, cubic):
        alt = solve_problem3(cubic, ref.TRI_DL, ref.TRI_APEX_VELOCITY,
                             root_choice=1)
        deviation = np.max(np.abs(np.asarray(alt.final_d.control)
                                  - np.asarray(ref.TRI_HAT_D)))
        assert deviation > 0.1
