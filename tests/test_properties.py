"""Property-based checks of the algebraic invariants.

Generated curves are clamped with 1-4 pieces at degrees 2-4; breakpoint
gaps are bounded away from zero so none of the draws sit on validation
edges. Solver properties run on the bundled cubic geometry with random
rulings, discarding draws that legitimately reject (degenerate or
infeasible configurations).
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from devstrip import (
    BSplineCurve,
    DegenerateCaseError,
    DevelopableStrip,
    InfeasibleProblemError,
    RuledPatch,
    control_relation_residuals,
    developability_scan,
    planarity_report,
    propagate_polygon,
    solve_problem1,
    solve_problem2,
)
from devstrip.solvers import _rescaled_pair

import reference as ref
from devstrip.bspline import _blossoms, _dropped_blossoms
from helpers import (assert_point_close, assert_scan_close, blossom,
                     curves_pointwise_equal, insert_knot, knot_multiplicity,
                     loop_blossom_on_span,
                     loop_control_relation_residuals, loop_derivative_at,
                     loop_evaluate, loop_planarity_report,
                     loop_propagate_polygon, loop_span_for, loop_window_span,
                     one_cell_planarity, per_curve_rescaled_pair,
                     per_curve_ruled_eval, per_curve_scan, ruling_profile)

coordinates = st.floats(-10.0, 10.0, allow_nan=False, width=64)
points = st.tuples(coordinates, coordinates, coordinates)


@st.composite
def clamped_curves(draw) -> BSplineCurve:
    degree = draw(st.integers(2, 4))
    pieces = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.floats(0.25, 1.0), min_size=pieces,
                         max_size=pieces))
    breaks = np.concatenate(([0.0], np.cumsum(gaps)))
    knots = ([breaks[0]] * degree + list(breaks[1:-1])
             + [breaks[-1]] * degree)
    control = draw(st.lists(points, min_size=degree + pieces,
                            max_size=degree + pieces))
    return BSplineCurve(knots, control, degree)


@st.composite
def curve_and_parameter(draw):
    curve = draw(clamped_curves())
    a, b = curve.domain
    t = draw(st.floats(0.0, 1.0))
    return curve, a + t * (b - a)


@st.composite
def curve_pairs_on_any_knots(draw) -> tuple[BSplineCurve, BSplineCurve]:
    """Two curves over one knot vector: degree 1-7, 1-4 pieces, inner knots
    of any multiplicity up to the degree, clamped or open ends.

    Control points come from a drawn seed: a failing draw then shrinks
    through a few integers instead of dozens of floats."""
    degree = draw(st.integers(1, 7))
    gaps = draw(st.lists(st.floats(0.25, 1.0), min_size=1, max_size=4))
    breaks = [0.0] + list(np.cumsum(gaps))
    mults = draw(st.lists(st.integers(1, degree), min_size=len(gaps) - 1,
                          max_size=len(gaps) - 1))
    inner = [x for x, m in zip(breaks[1:-1], mults) for _ in range(m)]
    if draw(st.booleans()):
        head, tail = [breaks[0]] * degree, [breaks[-1]] * degree
    else:
        head = [breaks[0] - 0.5 * k for k in range(degree - 1, -1, -1)]
        tail = [breaks[-1] + 0.5 * k for k in range(degree)]
    knots = head + inner + tail
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    polygons = rng.uniform(-10.0, 10.0, (2, len(knots) - degree + 1, 3))
    return (BSplineCurve(knots, polygons[0], degree),
            BSplineCurve(knots, polygons[1], degree))


@st.composite
def patches_with_collapsed_rulings(draw) -> RuledPatch:
    """A patch over curve_pairs_on_any_knots whose opposite polygon repeats
    a drawn head of the base polygon (none, some or all of it), so the
    rulings over the leading pieces collapse to points."""
    base, opposite = draw(curve_pairs_on_any_knots())
    shared = draw(st.integers(0, len(base.control)))
    control = np.array(opposite.control)
    control[:shared] = base.control[:shared]
    return RuledPatch(base, BSplineCurve(base.knots, control))


def scale_of(*curves) -> float:
    return max(1.0, max(float(np.max(np.abs(c.control))) for c in curves))


class TestBlossomAlgebra:

    @given(curve_and_parameter())
    def test_diagonal_reproduces_the_curve(self, drawn):
        curve, u = drawn
        piece = curve.knots.piece_for(u)
        value = blossom(curve, piece, (u,) * curve.degree)
        assert_point_close(value, curve.evaluate(u),
                           1e-9 * scale_of(curve))

    @given(curve_and_parameter(), st.permutations(range(4)),
           st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_symmetry_under_argument_permutation(self, drawn, order, ts):
        curve, u = drawn
        a, b = curve.domain
        args = [a + t * (b - a) for t in ts[:curve.degree]]
        piece = curve.knots.piece_for(u)
        direct = blossom(curve, piece, args)
        shuffled = [args[i] for i in order if i < curve.degree]
        assert_point_close(blossom(curve, piece, shuffled), direct,
                           1e-9 * scale_of(curve))

    @given(curve_and_parameter(), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    def test_multiaffine_in_the_first_argument(self, drawn, tx, ty, theta):
        curve, u = drawn
        a, b = curve.domain
        x, y = a + tx * (b - a), a + ty * (b - a)
        rest = (u,) * (curve.degree - 1)
        piece = curve.knots.piece_for(u)
        mixed = blossom(curve, piece, (theta * x + (1 - theta) * y,) + rest)
        combo = (theta * blossom(curve, piece, (x,) + rest)
                 + (1 - theta) * blossom(curve, piece, (y,) + rest))
        assert_point_close(mixed, combo, 1e-8 * scale_of(curve))


class TestBatchedEvaluator:
    """The batched de Boor kernel and the batched cell checks equal the
    scalar loops bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(curve_pairs_on_any_knots(), st.data())
    def test_forms_match_the_loop_on_mixed_spans(self, pair, data):
        base, opposite = pair
        n, knots = base.degree, base.knots
        a, b = base.domain
        width = b - a
        k = data.draw(st.integers(1, 6))
        # reference parameters: anywhere in the domain or exactly on a knot
        u_refs = data.draw(st.lists(
            st.floats(a, b) | st.sampled_from(knots.inner_values()),
            min_size=k, max_size=k))
        # arguments range past the piece and past the domain
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        args = rng.uniform(a - width, b + width, (k, n + 1))
        spans = [loop_span_for(knots, u) for u in u_refs]

        got = _blossoms(knots, base.control, np.array(spans), args[:, :n])
        want = [loop_blossom_on_span(base, j, row[:n])
                for j, row in zip(spans, args)]
        assert np.array_equal(got, want)
        piece = knots.piece_for(u_refs[0])
        assert np.array_equal(blossom(base, piece, args[0, :n]), want[0])

        dropped = _dropped_blossoms(knots, base.control, np.array(spans), args)
        for drop in range(n + 1):
            rest = np.delete(args, drop, axis=1)
            assert np.array_equal(dropped[drop], [
                loop_blossom_on_span(base, j, row)
                for j, row in zip(spans, rest)])

        # elevation and rescale, each vertex against the loop sums at its
        # elevated knot window
        scaling = ruling_profile(base.domain, -0.2, 0.5)
        elevated = base.elevate_degree()
        same, blended = _rescaled_pair(base, opposite, -0.2, 0.5)
        up = elevated.knots
        assert same.knots == blended.knots == up
        for i in range(up.control_count):
            j = loop_window_span(up, knots, i)
            row = up[i:i + n + 1]
            total = np.zeros(3)
            mixed = np.zeros(3)
            for drop in range(n + 1):
                rest = row[:drop] + row[drop + 1:]
                total += loop_blossom_on_span(base, j, rest)
                f_k = scaling(row[drop])
                mixed += f_k * loop_blossom_on_span(opposite, j, rest)
                mixed += (1.0 - f_k) * loop_blossom_on_span(base, j, rest)
            assert np.array_equal(elevated.control[i], total / (n + 1))
            assert np.array_equal(same.control[i], total / (n + 1))
            assert np.array_equal(blended.control[i], mixed / (n + 1))

    @settings(max_examples=80, deadline=None)
    @given(patches_with_collapsed_rulings(), st.data())
    def test_patch_paths_match_the_per_curve_reference(self, patch, data):
        # the scan, the OBJ grid and the rescale evaluate both boundaries in
        # one kernel call; each boundary alone gives the same bits, except
        # in the scan, which evaluates from Bézier points
        base, opposite = patch.base, patch.opposite
        knots = base.knots
        a, b = patch.domain
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        samples = data.draw(st.integers(2, 12))
        assert_scan_close(developability_scan(patch, samples), patch,
                          *per_curve_scan(patch, samples))

        # parameters anywhere in the domain, on its ends and on inner knots
        us = np.concatenate((rng.uniform(a, b, data.draw(st.integers(0, 6))),
                             knots.inner_values()))
        vs = rng.uniform(-0.5, 1.5, data.draw(st.integers(1, 4)))
        assert np.array_equal(patch.ruled_eval(us, vs),
                              per_curve_ruled_eval(patch, us, vs))
        u0, v0 = float(us[0]), float(vs[0])
        assert np.array_equal(patch.ruled_eval(u0, v0),
                              per_curve_ruled_eval(patch, u0, v0))

        f_a, f_b = rng.uniform(-2.0, 2.0, 2)
        elevated, moved = _rescaled_pair(base, opposite, f_a, f_b)
        want = per_curve_rescaled_pair(base, opposite, f_a, f_b)
        assert np.array_equal(elevated.control, want[0])
        assert np.array_equal(moved.control, want[1])

    @settings(max_examples=60, deadline=None)
    @given(curve_pairs_on_any_knots(), st.data())
    def test_insert_knot_matches_the_loop(self, pair, data):
        base = pair[0]
        knots = base.knots
        a, b = base.domain
        # inside the domain, or onto a knot
        u = data.draw(st.floats(0.01, 0.99).map(lambda t: a + t * (b - a))
                      | st.sampled_from(knots.inner_values()))
        try:
            refined = insert_knot(base, u)
        except ValueError:
            assume(False)
        new = refined.knots
        for i in range(new.control_count):
            j = loop_window_span(new, knots, i)
            want = loop_blossom_on_span(base, j, new[i:i + base.degree])
            assert np.array_equal(refined.control[i], want)

    @settings(max_examples=60, deadline=None)
    @given(curve_pairs_on_any_knots(), st.floats(-8.0, 8.0), st.data())
    def test_cell_checks_match_the_loop(self, pair, lam, data):
        base, opposite = pair
        # m* anywhere, or on a knot, inside the pole guard
        m = data.draw(st.floats(-8.0, 8.0) | st.sampled_from(list(base.knots)))
        assert np.array_equal(
            control_relation_residuals(base, opposite, lam, m),
            loop_control_relation_residuals(base, opposite, lam, m))

        patch = RuledPatch(base, opposite)
        report = planarity_report(patch)
        assert report == loop_planarity_report(patch)
        c, d = base.control, opposite.control
        assert [one_cell_planarity((c[i], c[i + 1], d[i], d[i + 1]))
                for i in range(len(c) - 1)] == report

        try:
            want = loop_propagate_polygon(base, d[0], lam, m)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                propagate_polygon(base, d[0], lam, m)
            assert str(raised.value) == str(exc)
        else:
            got = propagate_polygon(base, d[0], lam, m)
            assert np.array_equal(got.control, want.control)

    @settings(max_examples=60, deadline=None)
    @given(curve_pairs_on_any_knots(),
           st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_evaluators_match_the_loop_at_knots_and_between(self, pair, ts):
        curve = pair[0]
        knots = curve.knots
        a, b = curve.domain
        us = np.array([a + t * (b - a) for t in ts]
                      + list(knots.inner_values()))
        points = curve.evaluate(us)
        velocities = curve.derivative_at(us)
        pieces = knots.piece_for(us)
        assert points.shape == velocities.shape == (len(us), 3)
        for u, point, velocity, piece in zip(us, points, velocities, pieces):
            # right-continuous at inner knots, as the bisection reference
            assert knots.piece_interval(piece)[0] == \
                knots[loop_span_for(knots, u)]
            assert knots.piece_for(float(u)) == piece
            assert np.array_equal(point, loop_evaluate(curve, u))
            assert np.array_equal(velocity, loop_derivative_at(curve, u))
            assert np.array_equal(curve.evaluate(float(u)), point)
            assert np.array_equal(curve.derivative_at(float(u)), velocity)


class TestPointSetPreservation:

    @given(curve_and_parameter())
    def test_knot_insertion(self, drawn):
        curve, u = drawn
        a, b = curve.domain
        assume(min(u - a, b - u) > 1e-3 * (b - a))
        assume(knot_multiplicity(curve.knots, u) == 0)
        refined = insert_knot(curve, u)
        assert len(refined.control) == len(curve.control) + 1
        assert curves_pointwise_equal(curve, refined, samples=60) <= \
            1e-9 * scale_of(curve)

    @given(clamped_curves())
    def test_degree_elevation(self, curve):
        raised = curve.elevate_degree()
        assert raised.degree == curve.degree + 1
        assert curves_pointwise_equal(curve, raised, samples=60) <= \
            1e-9 * scale_of(curve)


# Cell 0 of this strip is a sliver: its relation residual is 1.3e-16, yet
# the determinant-over-edge-norms planarity measure reads 1.7e-9 there.
SLIVER_CELL_CURVE = BSplineCurve(
    [0.0, 0.0, 0.7583726978671377, 1.7583726978671377, 2.7583726978671377,
     2.7583726978671377],
    [[1, 5, 5.96e-8], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]], 2)


class TestPropagation:

    @given(clamped_curves(), points, st.floats(-3.0, 3.0),
           st.floats(-4.0, -0.5))
    @example(curve=SLIVER_CELL_CURVE, d0=(1.0, 5.0, 0.0), lam=0.0, m=-1.0)
    def test_recursion_satisfies_the_relation_it_solves(self, curve, d0,
                                                        lam, m):
        # knots are nonnegative by construction, so m < 0 avoids every pole
        opposite = propagate_polygon(curve, d0, lam, m)
        residuals = control_relation_residuals(curve, opposite, lam, m)
        assert float(np.max(residuals)) <= 1e-9
        strip = DevelopableStrip(curve, opposite, lam, m)
        assert strip.m_star == m

    @given(clamped_curves(), points, st.floats(-3.0, 3.0),
           st.floats(-4.0, -0.5), st.floats(0.05, 0.95))
    def test_relation_survives_knot_insertion(self, curve, d0, lam, m, t):
        a, b = curve.domain
        u = a + t * (b - a)
        assume(knot_multiplicity(curve.knots, u) == 0)
        opposite = propagate_polygon(curve, d0, lam, m)
        c2, d2 = insert_knot(curve, u), insert_knot(opposite, u)
        residuals = control_relation_residuals(c2, d2, lam, m)
        assert float(np.max(residuals)) <= 1e-9

    @given(clamped_curves(), st.floats(-4.0, -0.5))
    def test_zero_width_strip(self, curve, m):
        opposite = propagate_polygon(curve, curve.control[0], m, m)
        assert float(np.max(np.abs(np.asarray(opposite.control)
                                   - curve.control))) <= \
            1e-9 * scale_of(curve)


def solve_or_discard(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except (InfeasibleProblemError, DegenerateCaseError):
        assume(False)


unit_boxes = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                       st.floats(-1.0, 1.0))


class TestSolverProperties:

    @settings(max_examples=25, deadline=None)
    @given(unit_boxes, unit_boxes, st.floats(0.5, 2.0))
    def test_end_conditions_hold_for_any_admissible_rulings(self, v, w,
                                                            sigma):
        curve = BSplineCurve(ref.CUBIC_KNOTS, ref.CUBIC_CONTROL, 3)
        v, w = np.asarray(v), np.asarray(w)
        assume(min(np.linalg.norm(v), np.linalg.norm(w)) > 0.3)
        d0 = curve.control[0] + sigma * v
        sol = solve_or_discard(solve_problem1, curve, v, w, d0=d0)

        assert sol.sigma == pytest.approx(sigma, rel=1e-9)
        assert_point_close(sol.strip.opposite.control[0], d0,
                           1e-9 * scale_of(curve))
        closing = sol.strip.opposite.control[-1] - curve.control[-1]
        assert_point_close(closing, sol.tau * w,
                           1e-6 * max(1.0, float(np.linalg.norm(
                               sol.tau * w))))
        scan = developability_scan(sol.strip, samples_per_piece=25)
        assert scan.max_residual <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(unit_boxes, unit_boxes, st.floats(0.5, 2.0))
    def test_reported_roots_really_solve_the_polynomial(self, v, w, sigma):
        curve = BSplineCurve(ref.CUBIC_KNOTS, ref.CUBIC_CONTROL, 3)
        v, w = np.asarray(v), np.asarray(w)
        assume(min(np.linalg.norm(v), np.linalg.norm(w)) > 0.3)
        sol = solve_or_discard(solve_problem1, curve, v, w,
                               d0=curve.control[0] + sigma * v)
        # the zero-width start with lambda = u_{L-1} runs the recursion onto
        # a(M*), which a root puts in the plane of w through c_L, parallel
        # to v
        pivot = curve.knots[len(curve.control) - 2]
        c_last = curve.control[-1]
        for root in sol.m_star_roots:
            a_point = propagate_polygon(curve, curve.control[0], pivot,
                                        root).control[-1]
            offset = a_point - c_last
            residual = abs(np.linalg.det(np.column_stack((offset, v, w))))
            assert residual <= 1e-8 * max(1.0, np.linalg.norm(offset)) \
                * np.linalg.norm(v) * np.linalg.norm(w)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.5, 3.5),
           st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(2.5, 5.5),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_two_corner_solution_is_a_reparameterized_strip(
            self, x0, y0, z0, x1, y1, z1, tu, tv):
        curve = BSplineCurve(ref.CUBIC_KNOTS, ref.CUBIC_CONTROL, 3)
        d0 = np.asarray(ref.CORNER_D0) + (x0, y0, z0 - 2.0)
        dL = np.asarray(ref.CORNER_DL) + (x1, y1, z1 - 4.0)
        assume(np.linalg.norm(d0 - curve.control[0]) > 0.3)
        assume(np.linalg.norm(dL - curve.control[-1]) > 0.3)
        sol = solve_or_discard(solve_problem2, curve, d0, dL)

        scale = scale_of(sol.elevated_c, sol.elevated_d)
        assert_point_close(sol.elevated_d.control[0], d0, 1e-9 * scale)
        assert_point_close(sol.elevated_d.control[-1], dL, 1e-9 * scale)

        inner = sol.strip
        f = ruling_profile(curve.domain, 1.0, 1.0 / sol.tau)
        outer = RuledPatch(sol.elevated_c, sol.elevated_d)
        u = tu  # cubic fixture domain is [0, 1]
        assert_point_close(outer.ruled_eval(u, tv),
                           inner.ruled_eval(u, tv * f(u)), 1e-8 * scale)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.5, 3.5),
           st.floats(0.0, 1.0))
    def test_scaled_blossom_diagonal_is_the_blend(self, dx, dy, dz, t):
        curve = BSplineCurve(ref.CUBIC_KNOTS, ref.CUBIC_CONTROL, 3)
        dL = np.asarray(ref.CORNER_DL) + (dx, dy, dz - 2.0)
        assume(np.linalg.norm(dL - curve.control[-1]) > 0.3)
        sol = solve_or_discard(solve_problem2, curve, ref.CORNER_D0, dL)

        inner = sol.strip
        f = ruling_profile(curve.domain, 1.0, 1.0 / sol.tau)
        value = sol.elevated_d.evaluate(t)
        blend = inner.ruled_eval(t, f(t))
        assert_point_close(value, blend, 1e-9 * scale_of(curve))
