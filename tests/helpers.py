"""Small assertion helpers and loop references shared across test modules."""

import bisect
import json
from fractions import Fraction

import numpy as np

from devstrip import (BSplineCurve, KnotVector, RuledPatch, planarity_report,
                      solvers)
from devstrip.bspline import (_blossoms, _dropped_blossoms,
                              _point_and_velocity, _row_norms, _windows,
                              as_point3)
from devstrip.strip import POLE_GUARD_REL, RELATION_FLOOR_REL
from devstrip.verify import (COLLAPSED_RULING_REL, KNOT_SAMPLE_OFFSET_REL,
                             NORM_FLOOR_REL, PLANARITY_FLOOR_REL,
                             DevelopabilityScan)


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


def blossom(curve, piece, args):
    """Polar form c[v_1..v_n] of the curve's polynomial piece `piece`: one
    row of the batched kernel.  Arguments may lie outside the piece."""
    span = curve.knots._span_index(piece)
    return _blossoms(curve.knots, curve.control, np.array([span]),
                     np.array([args], dtype=float))[0]


def knot_multiplicity(knots, value):
    """Copies of `value` in the knot list, within the knot tolerance."""
    return sum(1 for u in knots if abs(u - value) <= knots.knot_tolerance)


def inserted_knots(knots, u_new):
    """Knot list with one copy of u_new added (strictly inside the domain)."""
    a, b = knots.domain
    tol = knots.knot_tolerance
    u_new = float(u_new)
    if not (a + tol < u_new < b - tol):
        raise ValueError(f"inserted knot {u_new} is not strictly inside [{a}, {b}]")
    if knot_multiplicity(knots, u_new) >= knots.degree:
        raise ValueError(
            f"inserting {u_new} would raise its multiplicity above the degree")
    new = list(knots)
    bisect.insort(new, u_new)
    return KnotVector(new, knots.degree)


def insert_knot(curve, u_new):
    """Same point set with one more knot and one more control point: every
    knot window of the refined list through one kernel call."""
    knots = inserted_knots(curve.knots, u_new)
    return BSplineCurve(knots, _blossoms(curve.knots, curve.control,
                                         *_windows(knots, curve.knots)))


def ruling_at(patch, u):
    """Director vector d(u) - c(u) of the ruling at u (scalar or 1-D)."""
    return patch.opposite.evaluate(u) - patch.base.evaluate(u)


def one_cell_planarity(cell):
    """planarity_report of the one-cell patch whose net is the point
    quadruple (c_i, c_{i+1}, d_i, d_{i+1})."""
    ci, cj, di, dj = cell
    patch = RuledPatch(BSplineCurve([0.0, 1.0], [ci, cj], 1),
                       BSplineCurve([0.0, 1.0], [di, dj], 1))
    return planarity_report(patch)[0]


def curves_pointwise_equal(p: BSplineCurve, q: BSplineCurve,
                           samples: int = 200) -> float:
    """Max Euclidean distance between two curves over uniform samples.

    The curves may have different degrees and knots but must share a domain;
    this is the oracle for point-set-preserving operations."""
    if samples < 2:
        raise ValueError("samples must be at least 2")
    (pa, pb), (qa, qb) = p.domain, q.domain
    span = max(pb - pa, qb - qa)
    if abs(pa - qa) > 1e-9 * span or abs(pb - qb) > 1e-9 * span:
        raise ValueError(
            "curves are parameterized over different domains: "
            f"[{pa}, {pb}] vs [{qa}, {qb}]")
    us = np.linspace(pa, pb, samples)
    # Clamp against sub-ulp domain mismatch at the far endpoint.
    gaps = _row_norms(p.evaluate(us) - q.evaluate(np.clip(us, qa, qb)))
    return float(np.max(gaps, initial=0.0, where=gaps > 0.0))


def serialize_problem(spec):
    """The problem file of a ProblemSpec, which parse_problem reads back
    as the same spec."""
    rulings: dict = {}
    if spec.problem_kind == "problem1":
        rulings["v"] = list(spec.v)
        rulings["w"] = list(spec.w)
        rulings["anchor"] = {"end": spec.anchor_end,
                             "point": list(spec.anchor_point)}
    elif spec.problem_kind == "problem2":
        rulings["d0"] = list(spec.d0)
        rulings["dL"] = list(spec.dL)
    else:
        rulings["dL"] = list(spec.dL)
        rulings["apex_velocity"] = list(spec.apex_velocity)
    doc = {
        "problem": spec.problem_kind,
        "curve": {
            "degree": spec.degree,
            "knots": list(spec.knots),
            "control": [list(p) for p in spec.control],
        },
        "rulings": rulings,
        "root_choice": spec.root_choice,
        "tessellation": {"u_samples": spec.u_samples,
                         "v_samples": spec.v_samples},
    }
    return json.dumps(doc, indent=2) + "\n"


def quartic_real_roots(descending):
    """Real roots, ascending, of a polynomial given by descending
    coefficients (the frozen reference quartics); none sit on a knot."""
    roots = np.roots(descending)
    return sorted(roots[np.abs(roots.imag) < 1e-12].real)


# ---------------------------------------------------------------------------
# Scalar loop references.  The batched evaluator and the batched cell checks
# run the same floating-point operations in the same order as these
# one-point-at-a-time loops, so tests compare the two with ==, not with a
# tolerance.  The developability scan is the exception: it evaluates from
# each piece's Bézier points, and assert_scan_close compares it with the
# per-sample references below.


# Bound on the gap between the scan's max residual and a per-sample
# reference's, in units of eps * scale / (shortest kept ruling).  Both
# evaluate points to a few ulps of the patch scale, so the ruling direction,
# and with it the residual (a sine), agrees to a small multiple of
# eps * scale / |d - c|; it grows next to a collapsed ruling.  The largest
# multiple seen over 35000 random patches of the property tests' kind was 23.
SCAN_RESIDUAL_ULPS = 256


def assert_scan_close(scan, patch, reference, shortest):
    """The scan's record against a per-sample reference's: the same sample
    and skipped counts, the max residual within SCAN_RESIDUAL_ULPS, and
    the same argmax when the reference's worst residual exceeds 1e-6."""
    __tracebackhide__ = True
    assert (scan.samples, scan.skipped) == \
        (reference.samples, reference.skipped), (scan, reference)
    scale = max(1.0, *[np.max(np.linalg.norm(curve.control, axis=1))
                       for curve in (patch.base, patch.opposite)])
    bound = SCAN_RESIDUAL_ULPS * np.finfo(float).eps * scale / shortest
    gap = abs(scan.max_residual - reference.max_residual)
    assert gap <= bound, (
        f"max residual {scan.max_residual:.17g} is {gap:.3e} from the "
        f"reference's {reference.max_residual:.17g} (bound {bound:.3e})")
    if reference.max_residual > 1e-6:
        assert scan.argmax_u == reference.argmax_u, (scan, reference)


def loop_de_boor(knots, control, span, values, stages):
    """The n+1 points, as (n+1, c), after the first `stages` stages of de
    Boor's recursion on knot span `span` at `values`, one point at a time."""
    n = knots.degree
    pts = control[span - n + 1 : span + 2].astype(float)
    for r in range(1, stages + 1):
        v = values[r - 1]
        for i in range(n, r - 1, -1):
            g = span - n + 1 + i  # global control index of pts[i]
            lo = knots[g - 1]
            hi = knots[g + n - r]
            w = (v - lo) / (hi - lo)
            pts[i] = (1.0 - w) * pts[i - 1] + w * pts[i]
    return pts


def loop_blossom_on_span(curve, span, values):
    """Polar form of the piece on knot span `span`, one point at a time."""
    n = curve.degree
    return loop_de_boor(curve.knots, curve.control, span, values, n)[n]


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
    """developability_scan as a loop over samples, one de Boor triangle per
    point and velocity: the record, and the shortest ruling it kept (inf
    when it kept none)."""
    base, opp = patch.base, patch.opposite
    scale = max(1.0, *[np.max(np.linalg.norm(curve.control, axis=1))
                       for curve in (base, opp)])
    floor = NORM_FLOOR_REL * scale

    worst = 0.0
    arg = patch.domain[0]
    taken = 0
    skipped = 0
    shortest = np.inf
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
            shortest = min(shortest, r_len)
            residual = abs(det) / denom
            if residual > worst:
                worst = residual
                arg = float(u)
    return DevelopabilityScan(worst, arg, taken, skipped), shortest


# ---------------------------------------------------------------------------
# Per-curve references.  The scan, the OBJ grid and the rescale evaluate both
# boundaries of a patch in one kernel call over the two polygons side by
# side; these evaluate each boundary with its own call, as separate curves.
# The tests compare the OBJ grid and the rescale with ==, and the scan with
# assert_scan_close.


def per_curve_scan(patch, samples_per_piece):
    """developability_scan with one de Boor pass per boundary at every
    sample, at spans found by searching the knots: the record, and the
    shortest ruling it kept (inf when it kept none)."""
    base, opp = patch.base, patch.opposite
    scale = max(1.0, *[np.max(np.linalg.norm(curve.control, axis=1))
                       for curve in (base, opp)])
    floor = NORM_FLOOR_REL * scale
    knots = base.knots
    lo, hi = knots._array[knots._spans], knots._array[knots._spans + 1]
    off = KNOT_SAMPLE_OFFSET_REL * (hi - lo)
    us = np.linspace(lo + off, hi - off, samples_per_piece, axis=1).ravel()
    spans = knots._spans_for(us)
    c, cv = _point_and_velocity(knots, base.control, spans, us)
    d, dv = _point_and_velocity(knots, opp.control, spans, us)
    ruling = d - c
    r_len = _row_norms(ruling)
    kept = ~(r_len < COLLAPSED_RULING_REL * scale)
    skipped = len(us) - int(np.count_nonzero(kept))
    us, ruling, r_len, cv, dv = us[kept], ruling[kept], r_len[kept], cv[kept], dv[kept]
    det = np.linalg.det(np.stack((cv, dv, ruling), axis=-1))
    denom = (np.maximum(_row_norms(cv), floor)
             * np.maximum(_row_norms(dv), floor)
             * np.maximum(r_len, floor))
    residual = np.concatenate(([0.0], np.abs(det) / denom))
    residual[~(residual > 0.0)] = 0.0
    worst = int(np.argmax(residual))
    arg = float(us[worst - 1]) if worst else patch.domain[0]
    shortest = float(np.min(r_len, initial=np.inf))
    return (DevelopabilityScan(float(residual[worst]), arg, len(us), skipped),
            shortest)


def per_curve_ruled_eval(patch, u, v):
    """RuledPatch.ruled_eval from each boundary's own evaluate."""
    c, d = patch.base.evaluate(u), patch.opposite.evaluate(u)
    v = np.asarray(v, dtype=float)
    if v.ndim:
        c, d, v = c[..., None, :], d[..., None, :], v[:, None]
    return (1.0 - v) * c + v * d


def ruling_profile(domain, f_a, f_b):
    """The affine ruling-length profile f with f(a) = f_a and f(b) = f_b
    that solvers._rescaled_pair applies, with the same slope and
    intercept."""
    a, b = domain
    slope = (f_b - f_a) / (b - a)
    intercept = f_a - slope * a
    return lambda u: slope * u + intercept


def per_curve_rescaled_pair(base, opposite, f_a, f_b):
    """Control polygons of solvers._rescaled_pair, with one dropped-blossom
    call per boundary."""
    n = base.degree
    knots = base.knots.elevated()
    spans, args = _windows(knots, base.knots)
    opp = _dropped_blossoms(base.knots, opposite.control, spans, args)
    own = _dropped_blossoms(base.knots, base.control, spans, args)
    f = ruling_profile(base.domain, f_a, f_b)(args)
    elevated = np.zeros((len(args), 3))
    moved = np.zeros((len(args), 3))
    for j in range(n + 1):
        elevated += own[j]
        f_j = f[:, j, None]
        moved += f_j * opp[j]
        moved += (1.0 - f_j) * own[j]
    return elevated / (n + 1), moved / (n + 1)


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
    floor = RELATION_FLOOR_REL * scale
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
    """Planarity residual of one cell from 3x3 determinants and norms."""
    ci, cj, di, dj = (np.asarray(p, dtype=float) for p in cell)
    e1 = cj - ci
    e2 = di - ci
    e3 = dj - ci
    det = float(np.linalg.det(np.column_stack((e1, e2, e3))))
    scale = max(1.0, max(np.linalg.norm(p) for p in (ci, cj, di, dj)))
    floor = PLANARITY_FLOOR_REL * scale
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


def seed_one_plants(kind):
    """The benchmark's seed-1 plants of a problem kind, drawn in its order:
    pieces_sweep's problem-1 plants at 2, 4 and 8 pieces, elevated's
    problem-2 and problem-3 plants at 2, 4, 6 and 8 (degrees 2-5 each), as
    (degree, knots, base, opposite)."""
    rng = np.random.default_rng(1)
    if kind == "problem1":
        draws = [(p, n, kind) for p in (2, 4, 8) for n in range(2, 6)]
    else:
        draws = [(p, n, k) for p in (2, 4, 6, 8) for n in range(2, 6)
                 for k in ("problem2", "problem3")]
    plants = [(k, n) + plant_strip(rng, n, p)[:3] for p, n, k in draws]
    return [plant[1:] for plant in plants if plant[0] == kind]


def fixed_corpus_plants(degree, pieces):
    """The plants of the benchmark's fixed pieces_sweep corpus (seed
    20150324, 12-64 pieces, degrees 2-5 each, drawn in that order) of one
    degree at the given piece counts, as (degree, knots, base, opposite)."""
    rng = np.random.default_rng(20150324)
    plants = [(p, n) + plant_strip(rng, n, p)[:3]
              for p in (12, 16, 24, 32, 48, 64) for n in range(2, 6)]
    return [plant[1:] for plant in plants
            if plant[1] == degree and plant[0] in pieces]


def solve_plant(kind, degree, knots, base, opposite):
    """Solve a planted strip as the benchmark poses a problem kind: the end
    rulings and d_0, both corners, or the far corner and the apex velocity
    of the patch that shrinks the strip's rulings to zero at the start."""
    curve = BSplineCurve(knots, base, degree)
    if kind == "problem1":
        return solvers.solve_problem1(curve, opposite[0] - base[0],
                                      opposite[-1] - base[-1],
                                      d0=opposite[0])
    if kind == "problem2":
        return solvers.solve_problem2(curve, opposite[0], opposite[-1])
    a, b = curve.domain
    velocity = (degree * (base[1] - base[0]) / (knots[degree] - a)
                + (opposite[0] - base[0]) / (b - a))
    return solvers.solve_problem3(curve, opposite[-1], velocity)


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
