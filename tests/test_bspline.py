import itertools

import numpy as np
import pytest

from devstrip import (BSplineCurve, KnotVector, RuledPatch,
                      developability_scan, export_obj)
from devstrip import bspline
from devstrip.bspline import _blossoms, _windows, as_point3
from devstrip.solvers import _rescaled_pair

import reference as ref
from helpers import (assert_point_close, assert_polygon_close, blossom,
                     insert_knot, inserted_knots, loop_de_boor)


class TestKnotVector:

    def test_basic_bookkeeping(self):
        kv = KnotVector(ref.CUBIC_KNOTS, 3)
        assert kv.degree == 3
        assert kv.control_count == 6
        assert kv.pieces == 3
        assert kv.domain == (0.0, 1.0)
        assert kv.piece_interval(0) == (0.0, 0.3)
        assert kv.piece_interval(1) == (0.3, 0.7)
        assert kv.piece_interval(2) == (0.7, 1.0)

    def test_decreasing_knots_rejected(self):
        with pytest.raises(ValueError, match="knot 3"):
            KnotVector([0.0, 0.0, 1.0, 0.5, 2.0, 2.0], 2)

    def test_multiplicity_above_degree_rejected(self):
        with pytest.raises(ValueError, match="multiplicity"):
            KnotVector([0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0], 2)

    def test_multiplicity_counts_chained_near_knots(self):
        # each gap is within the tolerance 1e-12 (domain length 1), the
        # chain as a whole is not
        with pytest.raises(ValueError, match="multiplicity 3"):
            KnotVector([0.0, 0.0, 0.5, 0.5 + 6e-13, 0.5 + 1.2e-12, 1.0, 1.0], 2)
        knots = KnotVector([0.0, 0.0, 0.5, 0.5 + 6e-13, 1.0, 1.0], 2)
        values = knots.inner_values()
        assert values == (0.0, 0.5, 1.0)
        assert min(np.diff(values)) > knots.knot_tolerance

    @pytest.mark.parametrize("factor, values", [(0.5, 3), (2.0, 4)])
    def test_knot_eq_rel(self, factor, values):
        # on a domain of length 2, inner knots factor * KNOT_EQ_REL * 2
        # apart are one knot at 0.5 and two at 2
        gap = factor * bspline.KNOT_EQ_REL * 2.0
        knots = KnotVector([0.0, 0.0, 1.0, 1.0 + gap, 2.0, 2.0], 2)
        assert len(knots.inner_values()) == values
        assert knots.pieces == values - 1

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            KnotVector([0.0, 1.0, 1.0, 2.0], 3)

    def test_degenerate_first_domain_span_rejected(self):
        # the first span after the domain start carries the start velocity;
        # a zero-length one breaks every endpoint formula downstream
        with pytest.raises(ValueError):
            KnotVector([-1.0, 0.0, 0.0, 0.0, 1.0, 2.0], 3)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            KnotVector([0.0, 1.0, 2.0], 2)

    def test_piece_for_is_right_continuous(self):
        kv = KnotVector(ref.CUBIC_KNOTS, 3)
        assert kv.piece_for(0.3) == 1
        assert kv.piece_for(0.3 - 1e-9) == 0
        assert kv.piece_for(1.0) == 2  # left-continuous at the right end
        assert kv.piece_for(0.0) == 0

    def test_piece_for_outside_domain(self):
        kv = KnotVector(ref.CUBIC_KNOTS, 3)
        with pytest.raises(ValueError):
            kv.piece_for(-0.1)
        with pytest.raises(ValueError):
            kv.piece_for(1.1)

    def test_insert(self):
        kv = inserted_knots(KnotVector(ref.CUBIC_KNOTS, 3), 0.5)
        assert list(kv) == [0, 0, 0, 0.3, 0.5, 0.7, 1, 1, 1]
        assert kv.pieces == 4

    def test_insert_outside_domain_rejected(self):
        kv = KnotVector(ref.CUBIC_KNOTS, 3)
        with pytest.raises(ValueError):
            inserted_knots(kv, 1.5)

    def test_insert_beyond_multiplicity_rejected(self):
        kv = KnotVector(ref.CUBIC_KNOTS, 3)
        full = inserted_knots(inserted_knots(kv, 0.3), 0.3)
        with pytest.raises(ValueError, match="multiplicity"):
            inserted_knots(full, 0.3)

    def test_elevated_bumps_inner_multiplicities_only(self):
        kv = KnotVector([-1.0, 0.0, 1.0, 2.0, 3.0, 4.0], 2)
        up = kv.elevated()
        assert up.degree == 3
        assert list(up) == [-1, 0, 0, 1, 1, 2, 2, 3, 3, 4]

    def test_elevated_clamped(self):
        up = KnotVector(ref.CUBIC_KNOTS, 3).elevated()
        assert list(up) == [0, 0, 0, 0, 0.3, 0.3, 0.7, 0.7, 1, 1, 1, 1]


class TestConstruction:

    def test_count_mismatch_names_both_counts(self):
        with pytest.raises(ValueError, match="8 knots.*5 control"):
            BSplineCurve(ref.CUBIC_KNOTS, ref.CUBIC_CONTROL[:5], 3)

    def test_padded_knot_list_accepted(self, cubic_curve):
        padded = (-1.0,) + ref.CUBIC_KNOTS + (2.0,)
        same = BSplineCurve(padded, ref.CUBIC_CONTROL, 3)
        assert same.knots == cubic_curve.knots

    def test_control_is_read_only(self, cubic_curve):
        with pytest.raises(ValueError):
            cubic_curve.control[0][0] = 99.0

    def test_bad_point_shape_rejected(self):
        with pytest.raises(ValueError):
            as_point3((1.0, 2.0))


class TestEvaluate:

    def test_clamped_endpoints(self, cubic_curve):
        assert_point_close(cubic_curve.evaluate(0.0), ref.CUBIC_CONTROL[0],
                           1e-14)
        assert_point_close(cubic_curve.evaluate(1.0), ref.CUBIC_CONTROL[-1],
                           1e-14)

    def test_value_at_inner_knot(self, cubic_curve):
        # equals the full-multiplicity blossom there
        assert_point_close(cubic_curve.evaluate(0.3),
                           ref.CUBIC_AUX_C[(0.3, 0.3, 0.3)], 0.01)

    def test_continuity_across_inner_knot(self, cubic_curve):
        left = blossom(cubic_curve, 0, [0.3] * 3)
        right = blossom(cubic_curve, 1, [0.3] * 3)
        assert_point_close(left, right, 1e-13)

    def test_degree_one_is_linear_interpolation(self):
        seg = BSplineCurve([0.0, 1.0], [(0, 0, 0), (2, 4, 6)], 1)
        assert_point_close(seg.evaluate(0.25), (0.5, 1.0, 1.5), 1e-15)


class TestBlossom:

    def test_reference_values_both_adjacent_pieces(self, cubic_curve):
        # polar forms of two pieces agree on windows containing their shared
        # knot, so pick the pair by which inner knot shows up in the window
        for args, expected in ref.CUBIC_AUX_C.items():
            pieces = (0, 1) if 0.3 in args else (1, 2)
            values = [blossom(cubic_curve, piece, args)
                      for piece in pieces]
            assert_point_close(values[0], expected, 0.01)
            assert_point_close(values[0], values[1], 1e-12)

    def test_reproduces_control_points(self, cubic_curve):
        # c_i equals the blossom at its own knot window, on any piece
        # whose index lies within the window's validity range
        knots = cubic_curve.knots
        n = cubic_curve.degree
        for i, point in enumerate(cubic_curve.control):
            window = [knots[i + k] for k in range(n)]
            piece = min(max(i - 1, 0), knots.pieces - 1)
            assert_point_close(blossom(cubic_curve, piece, window),
                               point, 1e-12)

    def test_diagonal_equals_evaluate(self, cubic_curve):
        for u in np.linspace(0.0, 1.0, 17):
            piece = cubic_curve.knots.piece_for(u)
            assert_point_close(blossom(cubic_curve, piece, [u] * 3),
                               cubic_curve.evaluate(u), 1e-13)

    def test_symmetry_all_permutations(self, cubic_curve):
        args = (0.1, 0.25, 0.6)
        base = blossom(cubic_curve, 1, args)
        for perm in itertools.permutations(args):
            assert_point_close(blossom(cubic_curve, 1, perm), base, 1e-13)

    def test_multiaffine_in_each_slot(self, cubic_curve):
        lam = 0.3
        a, b = 0.2, 0.9
        mixed = blossom(cubic_curve, 1, (lam * a + (1 - lam) * b, 0.4, 0.5))
        parts = (lam * blossom(cubic_curve, 1, (a, 0.4, 0.5))
                 + (1 - lam) * blossom(cubic_curve, 1, (b, 0.4, 0.5)))
        assert_point_close(mixed, parts, 1e-13)

    def test_out_of_window_arguments_are_legal(self, cubic_curve):
        # blossoms are polynomial forms; arguments may leave the domain
        value = blossom(cubic_curve, 0, (-2.0, 5.0, 0.1))
        assert np.all(np.isfinite(value))

    def test_bad_piece_rejected(self, cubic_curve):
        with pytest.raises(ValueError):
            blossom(cubic_curve, 3, (0.1, 0.2, 0.3))


class TestDerivative:

    def test_linear_curve_constant_velocity(self):
        seg = BSplineCurve([0.0, 2.0], [(0, 0, 0), (2, 4, 6)], 1)
        assert_point_close(seg.derivative_at(0.7), (1.0, 2.0, 3.0), 1e-14)

    def test_clamped_start_formula(self, cubic_curve):
        c = cubic_curve.control
        u = cubic_curve.knots
        n = cubic_curve.degree
        expected = n * (c[1] - c[0]) / (u[n] - u[n - 1])
        assert_point_close(cubic_curve.derivative_at(0.0), expected, 1e-12)

    def test_matches_central_differences(self, cubic_curve):
        h = 1e-6
        for u in (0.12, 0.45, 0.83):
            numeric = (cubic_curve.evaluate(u + h)
                       - cubic_curve.evaluate(u - h)) / (2 * h)
            exact = cubic_curve.derivative_at(u)
            scale = max(1.0, float(np.linalg.norm(exact)))
            assert np.linalg.norm(numeric - exact) <= 1e-5 * scale


class TestInsertKnot:

    def test_split_to_full_multiplicity(self, cubic_curve):
        split = cubic_curve
        for u in (0.3, 0.3, 0.7, 0.7):
            split = insert_knot(split, u)
        assert_polygon_close(split.control, ref.CUBIC_SPLIT_C, 0.01)

    def test_midpoint_in_linear_curve(self):
        seg = BSplineCurve([0.0, 1.0], [(0, 0, 0), (2, 2, 2)], 1)
        out = insert_knot(seg, 0.5)
        assert_polygon_close(out.control, [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
                             1e-15)

    def test_preserves_point_set(self, cubic_curve):
        out = insert_knot(cubic_curve, 0.55)
        scale = float(np.max(np.abs(cubic_curve.control)))
        for u in np.linspace(0.0, 1.0, 200):
            assert np.linalg.norm(out.evaluate(u) - cubic_curve.evaluate(u)) \
                <= 1e-12 * scale


class TestElevateDegree:

    def test_quadratic_exact_fractions(self, quad_curve):
        up = quad_curve.elevate_degree()
        assert up.degree == 3
        assert_polygon_close(up.control, ref.QUAD_TILDE_C, 1e-12)

    def test_preserves_point_set(self, cubic_curve):
        up = cubic_curve.elevate_degree()
        assert up.degree == 4
        scale = float(np.max(np.abs(cubic_curve.control)))
        for u in np.linspace(0.0, 1.0, 200):
            assert np.linalg.norm(up.evaluate(u) - cubic_curve.evaluate(u)) \
                <= 1e-12 * scale

    def test_twice_elevated_stays_consistent(self, quad_curve):
        up2 = quad_curve.elevate_degree().elevate_degree()
        assert up2.degree == 4
        for u in np.linspace(0.0, 1.0, 50):
            assert_point_close(up2.evaluate(u), quad_curve.evaluate(u), 1e-12)


class TestReexpression:

    def test_roundtrip_over_own_knots(self, cubic_curve):
        knots = cubic_curve.knots
        rebuilt = _blossoms(knots, cubic_curve.control,
                            *_windows(knots, knots))
        assert_polygon_close(rebuilt, cubic_curve.control, 1e-12)


class TestKernelCalls:
    """Re-expressing a curve sends all its knot windows, or all their
    dropped-argument windows, through one de Boor kernel call.  The rescale,
    the developability scan and the OBJ export make one call per patch,
    over both boundary polygons side by side (six control columns).  The
    scan's call has one row per Bézier point of every piece, whatever its
    sample count."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        kernel = bspline._de_boor

        def wrapped(knots, control, spans, *args):
            counted.append((control.shape[1], len(spans)))
            return kernel(knots, control, spans, *args)

        monkeypatch.setattr(bspline, "_de_boor", wrapped)
        return counted

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_one_call_per_curve_and_form_call(self, calls, degree):
        rng = np.random.default_rng(degree)
        knots = [0.0] * degree + [0.3, 0.5, 0.8] + [1.0] * degree
        base, opposite = (BSplineCurve(knots, rng.uniform(-1.0, 1.0, (
            len(knots) - degree + 1, 3)), degree) for _ in range(2))
        patch = RuledPatch(base, opposite)

        def columns():
            counted = [c for c, _ in calls]
            calls.clear()
            return counted

        base.elevate_degree()
        assert columns() == [3]
        insert_knot(base, 0.4)
        assert columns() == [3]
        _rescaled_pair(base, opposite, -0.2, 0.5)
        assert columns() == [6]
        for samples in (2, 20, 100):
            developability_scan(patch, samples)
            assert calls == [(6, (degree + 1) * patch.knots.pieces)]
            calls.clear()
        export_obj(patch)
        assert columns() == [6]


class TestStageTables:
    """The kernel's index tables are cached, so they must stay read-only,
    and its one pass of blend weights must give every partial triangle the
    loop reference gives, at every stage count."""

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_tables_are_read_only(self, degree):
        tables = (*bspline._stage_table(degree, degree),
                  *bspline._stage_table(degree, degree - 1),
                  *bspline._window_tables(degree))
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_de_boor_matches_the_loop_at_every_stage_count(self, degree):
        # stage counts 0..n, with as many argument columns as stages (the
        # layout of _point_and_velocity's n - 1 stages) and with all n; the
        # arguments range past the piece and past the domain, and the rows
        # mix spans, over two control columns of three coordinates; above
        # degree 1 one inner knot is double
        n = degree
        rng = np.random.default_rng(n)
        inner = rng.uniform(0.1, 0.9, 4).tolist()
        if n > 1:
            inner.append(inner[0])
        kv = KnotVector([0.0] * n + sorted(inner) + [1.0] * n, n)
        control = rng.uniform(-1.0, 1.0, (kv.control_count, 6))
        spans = kv._spans_for(rng.uniform(0.0, 1.0, 12))
        args = rng.uniform(-1.0, 2.0, (12, n))
        for stages in range(n + 1):
            want = np.array([loop_de_boor(kv, control, span, row, stages)
                             for span, row in zip(spans, args)])
            for columns in (args[:, :stages], args):
                got = bspline._de_boor(kv, control, spans, columns, stages)
                assert np.array_equal(got, want.transpose(1, 2, 0))
