"""Small assertion helpers and loop references shared across test modules."""

import bisect

import numpy as np

from devstrip.verify import (COLLAPSED_RULING_REL, KNOT_SAMPLE_OFFSET_REL,
                             NORM_FLOOR_REL, DevelopabilityScan)


def assert_polygon_close(control, expected, tol):
    __tracebackhide__ = True
    control = np.asarray(control, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert control.shape == expected.shape, (
        f"polygon has shape {control.shape}, expected {expected.shape}")
    worst = np.max(np.abs(control - expected))
    assert worst <= tol, (
        f"polygon deviates by {worst:.3e} (tolerance {tol:.0e})\n"
        f"got:\n{np.round(control, 4)}\nexpected:\n{np.asarray(expected)}")


def assert_point_close(point, expected, tol):
    __tracebackhide__ = True
    point = np.asarray(point, dtype=float)
    expected = np.asarray(expected, dtype=float)
    worst = np.max(np.abs(point - expected))
    assert worst <= tol, (
        f"point {np.round(point, 6)} deviates from {expected} "
        f"by {worst:.3e} (tolerance {tol:.0e})")


# ---------------------------------------------------------------------------
# Scalar loop references.  The batched evaluator runs the same floating-point
# operations in the same order as these one-point-at-a-time loops, so tests
# compare the two with ==, not with a tolerance.


def loop_blossom_on_span(curve, span, values):
    """Polar form of the piece on knot span `span`, one point at a time."""
    n = curve.degree
    u = curve.knots
    pts = curve.control[span - n + 1 : span + 2].astype(float)
    for r in range(1, n + 1):
        v = values[r - 1]
        for i in range(n, r - 1, -1):
            g = span - n + 1 + i  # global control index of pts[i]
            lo = u[g - 1]
            hi = u[g + n - r]
            w = (v - lo) / (hi - lo)
            pts[i] = (1.0 - w) * pts[i - 1] + w * pts[i]
    return pts[n]


def loop_span_for(knots, u):
    """Knot span of the piece containing u, right-continuous at inner
    knots, found by bisection over the nondegenerate spans."""
    n = knots.degree
    last = len(knots) - n
    spans = [j for j in range(n - 1, last)
             if knots[j + 1] - knots[j] > knots.knot_tolerance]
    starts = [knots[j] for j in spans]
    return spans[max(bisect.bisect_right(starts, u) - 1, 0)]


def loop_evaluate(curve, u):
    span = loop_span_for(curve.knots, u)
    return loop_blossom_on_span(curve, span, [float(u)] * curve.degree)


def loop_derivative_at(curve, u):
    n = curve.degree
    span = loop_span_for(curve.knots, u)
    t0, t1 = curve.knots[span], curve.knots[span + 1]
    head = [float(u)] * (n - 1)
    upper = loop_blossom_on_span(curve, span, head + [t1])
    lower = loop_blossom_on_span(curve, span, head + [t0])
    return n * (upper - lower) / (t1 - t0)


def loop_developability_scan(patch, samples_per_piece=100):
    """developability_scan as a loop over samples (same record fields)."""
    base, opp = patch.base, patch.opposite
    scale = max(1.0, *[np.max(np.linalg.norm(curve.control, axis=1))
                       for curve in (base, opp)])
    floor = NORM_FLOOR_REL * scale

    worst = 0.0
    arg = patch.domain[0]
    taken = 0
    skipped = 0
    for piece in range(base.pieces):
        lo, hi = base.knots.piece_interval(piece)
        off = KNOT_SAMPLE_OFFSET_REL * (hi - lo)
        for u in np.linspace(lo + off, hi - off, samples_per_piece):
            ruling = loop_evaluate(opp, u) - loop_evaluate(base, u)
            r_len = np.linalg.norm(ruling)
            if r_len < COLLAPSED_RULING_REL * scale:
                skipped += 1
                continue
            cv = loop_derivative_at(base, u)
            dv = loop_derivative_at(opp, u)
            det = np.linalg.det(np.column_stack((cv, dv, ruling)))
            denom = (max(np.linalg.norm(cv), floor)
                     * max(np.linalg.norm(dv), floor)
                     * max(r_len, floor))
            taken += 1
            residual = abs(det) / denom
            if residual > worst:
                worst = residual
                arg = float(u)
    return DevelopabilityScan(worst, arg, taken, skipped)
