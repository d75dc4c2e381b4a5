"""Small assertion helpers and loop references shared across test modules."""

import bisect
from fractions import Fraction

import numpy as np

from devstrip import BSplineCurve
from devstrip.bspline import as_point3
from devstrip.strip import POLE_GUARD_REL
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


def quartic_real_roots(descending):
    """Real roots, ascending, of a polynomial given by descending
    coefficients (the frozen reference quartics); none sit on a knot."""
    roots = np.roots(descending)
    return sorted(roots[np.abs(roots.imag) < 1e-12].real)


# ---------------------------------------------------------------------------
# Scalar loop references.  The batched evaluator and the batched cell checks
# run the same floating-point operations in the same order as these
# one-point-at-a-time loops, so tests compare the two with ==, not with a
# tolerance.


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


def loop_window_span(target, source, i):
    """Span of `source` on which knot window i of `target` is evaluated:
    the middle nondegenerate target span J with i-1 <= J <= i+m-1 (m the
    target degree), located in `source` by its midpoint."""
    m = target.degree
    valid = [j for j in range(m - 1, len(target) - m)
             if target[j + 1] - target[j] > target.knot_tolerance
             and i - 1 <= j <= i + m - 1]
    j = valid[len(valid) // 2]
    return loop_span_for(source, 0.5 * (target[j] + target[j + 1]))


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


def loop_propagate_polygon(c, d0, lambda_star, m_star):
    """propagate_polygon with the pole guard and the recursion cell by cell."""
    u = c.knots
    n = c.degree
    control = c.control
    count = len(control)
    a, b = c.domain
    guard = POLE_GUARD_REL * (b - a)
    lam = float(lambda_star)
    m = float(m_star)
    for i in range(count - 1):
        if abs(m - u[i]) <= guard:
            raise ValueError(
                f"m_star = {m} is within the pole guard of knot {i} = {u[i]}")
    d = np.empty_like(control)
    d[0] = as_point3(d0)
    for i in range(count - 1):
        numerator = ((u[i + n] - lam) * control[i]
                     + (lam - u[i]) * control[i + 1]
                     + (m - u[i + n]) * d[i])
        d[i + 1] = numerator / (m - u[i])
    return BSplineCurve(u, d)


def loop_control_relation_residuals(base, opposite, lambda_star, m_star):
    """control_relation_residuals with four norms per cell."""
    u = base.knots
    n = base.degree
    c = base.control
    d = opposite.control
    lam = float(lambda_star)
    m = float(m_star)
    scale = max(1.0, float(np.max(np.linalg.norm(c, axis=1))),
                float(np.max(np.linalg.norm(d, axis=1))))
    floor = 1e-12 * scale
    residuals = np.empty(len(c) - 1)
    for i in range(len(c) - 1):
        terms = ((u[i + n] - lam) * c[i],
                 (lam - u[i]) * c[i + 1],
                 -(u[i + n] - m) * d[i],
                 -(m - u[i]) * d[i + 1])
        defect = np.linalg.norm(terms[0] + terms[1] + terms[2] + terms[3])
        denom = max(max(np.linalg.norm(t) for t in terms), floor)
        residuals[i] = defect / denom
    return residuals


def loop_cell_planarity_residual(cell):
    """cell_planarity_residual of one cell from 3x3 determinants and norms."""
    ci, cj, di, dj = (np.asarray(p, dtype=float) for p in cell)
    e1 = cj - ci
    e2 = di - ci
    e3 = dj - ci
    det = float(np.linalg.det(np.column_stack((e1, e2, e3))))
    scale = max(1.0, max(np.linalg.norm(p) for p in (ci, cj, di, dj)))
    floor = 1e-12 * scale
    denom = 1.0
    for e in (e1, e2, e3):
        denom *= max(float(np.linalg.norm(e)), floor)
    return abs(det) / denom


def loop_planarity_report(patch):
    c = patch.base.control
    d = patch.opposite.control
    return [loop_cell_planarity_residual((c[i], c[i + 1], d[i], d[i + 1]))
            for i in range(len(c) - 1)]


# ---------------------------------------------------------------------------
# Planted developable strips (the recipe of stripbench/cases.py) and an exact
# sign oracle for the compatibility function.

# Interior knots sit at (k + jitter) / pieces; m* lies 0.5-2 outside [0, 1];
# lambda* differs from m* by 0.3-1; the first ruling is 0.2-0.5 long.
PLANT_KNOT_JITTER = 0.3
PLANT_M_OFFSET = (0.5, 2.0)
PLANT_LAMBDA_OFFSET = (0.3, 1.0)
PLANT_FIRST_RULING = (0.2, 0.5)


def plant_strip(rng, degree, pieces, scale=1.0):
    """Knots, base and opposite polygons and (lambda*, m*) of a strip that
    satisfies the cell relation, on the domain [0, scale].

    The relation is homogeneous in (u, lambda*, m*), so scaling the knots
    and both constants keeps the polygons."""
    n = degree
    inner = (np.arange(1, pieces)
             + rng.uniform(-PLANT_KNOT_JITTER, PLANT_KNOT_JITTER,
                           pieces - 1)) / pieces
    knots = np.concatenate((np.zeros(n), inner, np.ones(n)))
    count = pieces + n
    steps = rng.normal(0.0, 0.6 / np.sqrt(count), (count - 1, 3))
    steps[:, 0] += 1.0 / count
    base = np.vstack((np.zeros(3), np.cumsum(steps, axis=0)))

    side = rng.choice((-1.0, 1.0))
    m = (1.0 if side > 0 else 0.0) + side * rng.uniform(*PLANT_M_OFFSET)
    lam = m + rng.choice((-1.0, 1.0)) * rng.uniform(*PLANT_LAMBDA_OFFSET)
    first = rng.normal(size=3)
    first *= rng.uniform(*PLANT_FIRST_RULING) / np.linalg.norm(first)

    u = knots
    opposite = np.empty_like(base)
    opposite[0] = base[0] + first
    for i in range(count - 1):
        opposite[i + 1] = ((u[i + n] - lam) * base[i]
                           + (lam - u[i]) * base[i + 1]
                           + (m - u[i + n]) * opposite[i]) / (m - u[i])
    return scale * knots, base, opposite, scale * lam, scale * m


def exact_offset_numerator(knots, control, m):
    """Sum over i of the product-form weight of vertex i times c_i - c_L,
    in exact fractions from the float inputs.  Over the denominator
    prod_{k <= L-2} (m - u_k) it is a(m) - c_L."""
    F = Fraction
    u = [F(float(x)) for x in knots]
    c = [[F(float(x)) for x in p] for p in control]
    m = F(m)
    last = len(c) - 1
    n = len(u) - last
    # head[i] = prod_{k < i-1} (m - u_k), tail[i] = prod_{j=i}^{L-2} (m - u_{n+j+1})
    head = [F(1)] * (last + 1)
    for i in range(2, last + 1):
        head[i] = head[i - 1] * (m - u[i - 2])
    tail = [F(1)] * (last + 1)
    for i in range(last - 2, -1, -1):
        tail[i] = tail[i + 1] * (m - u[n + i + 1])
    weights = [tail[0]] + [(u[i + n] - u[i - 1]) * head[i] * tail[i]
                           for i in range(1, last)]
    return [sum(weight * (c[i][k] - c[last][k])
                for i, weight in enumerate(weights)) for k in range(3)]


def exact_compatibility_numerator(knots, control, v, w, m):
    """The compatibility function times its denominator, in exact
    fractions: the offset numerator dotted with v x w."""
    F = Fraction
    v = [F(float(x)) for x in v]
    w = [F(float(x)) for x in w]
    normal = (v[1] * w[2] - v[2] * w[1], v[2] * w[0] - v[0] * w[2],
              v[0] * w[1] - v[1] * w[0])
    offset = exact_offset_numerator(knots, control, m)
    return sum(offset[k] * normal[k] for k in range(3))
