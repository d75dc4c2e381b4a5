"""Boundary-interpolation solvers for developable strips.

Three levels of prescription are supported, each reduced to the one before:

* full strip from end ruling directions plus one anchored endpoint,
* both opposite corner points prescribed (solved by rescaling the rulings
  of the first solve, then re-expressing at degree n+1),
* triangular patch: apex velocity and far corner prescribed (solved by one
  more rescaling pass that collapses the first ruling, degree n+2).

``solve_spec`` dispatches a parsed problem file to the matching solver.

Candidate interior parameters are the real roots of a compatibility
function kept in ratio-product form and found interval by interval between
its poles, the knots; everything downstream of the chosen root is
closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.chebyshev import chebroots

from .bspline import BSplineCurve, KnotVector, _windows, as_point3
from .errors import (ConeCaseError, CylinderCaseError, DegenerateCaseError,
                     InfeasibleProblemError, PlanarSurfaceError)
from .fileio import ProblemSpec
from .strip import DevelopableStrip, RuledPatch, propagate_polygon

RULING_PARALLEL_TOL = 1e-9
ANCHOR_LINE_TOL = 1e-9
CONE_TOL = 1e-9
OUT_OF_PLANE_TOL = 1e-9
# Data are planar when every det(c_i − c_L, v, w) is below this fraction of
# max ‖c_i − c_L‖ · ‖v × w‖, the largest value such a determinant can take.
PLANAR_DET_REL = 1e-12

# Roots this close to a knot (fraction of domain length) sit on recursion
# poles and are never admissible parameters.
KNOT_EXCLUSION_REL = 1e-6

# The compatibility function is evaluated in blocks of weights of at most
# this many entries (64 kB), so its temporaries stay small at any L.
WEIGHT_BLOCK = 2 ** 13

# Adaptive Chebyshev interpolation of the compatibility function, one piece
# per pole interval (Boyd, SIAM J. Numer. Anal. 40, 2002).  A piece is
# sampled at these sizes in turn, then halved and tried again, so colleague
# matrices stay at most 63 x 63; after the last halving a piece is taken as
# it stands.
CHEB_SIZES = (16, 32, 64)
CHEB_MAX_HALVINGS = 20
# A piece has converged when its last quarter of coefficients falls below
# this fraction of the piece's largest sum of absolute terms, the scale of
# the rounding in its samples; smaller coefficients are dropped.
CHEB_TAIL_REL = 1e-13
# Eigenvalues of the colleague matrix count as real roots when their
# imaginary part, in half-widths of their piece, is below this; a double
# root splits by about the square root of CHEB_TAIL_REL.
CHEB_IMAG_TOL = 1e-5
# Roots of one pole interval closer than this, in half-widths of the
# interval's variable x, are one (multiple) root, and a Newton step that
# polishes a root moves it by at most this much.  On an outer ray, a root
# this close to x = 1 is the point at infinity.
CHEB_MERGE_TOL = 1e-5


def _det3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    return float(np.linalg.det(np.column_stack((a, b, c))))


# ---------------------------------------------------------------------------
# the compatibility function in ratio-product form


def _ratio_weights(knots: KnotVector, count: int, m) -> np.ndarray:
    """Weights (k, L) of the vertices c_0..c_{L-1} in the point a(M*) where
    the last ruling's line meets the first one, at each of k parameters.

    With ρ_j = (m − u_{j+n+1}) / (m − u_j) and S_i = ρ_i ⋯ ρ_{L-2}, the
    weights are S_0 and (u_{i+n} − u_{i-1}) / (m − u_{i-1}) · S_i.  Every
    factor is a ratio of distances to knots, so nothing is multiplied out
    and nothing overflows.  The weights sum to 1 for every m; their poles
    are the knots u_0..u_{L-2}."""
    n = knots.degree
    u = knots._array
    last = count - 1
    m = np.asarray(m, dtype=float)[:, None]
    below = m - u[: last - 1]
    above = u[n + 1 : n + last]
    weights = np.ones((len(m), last))
    weights[:, :-1] = np.cumprod(((m - above) / below)[:, ::-1], axis=1)[:, ::-1]
    weights[:, 1:] *= (above - u[: last - 1]) / below
    return weights


def _real_roots(evaluate, poles: np.ndarray, splits, exclusion_radius: float
                ) -> list[float]:
    """Real roots, ascending, of a rational function of m.

    ``evaluate(m)`` returns the values at an array of m and the sums of
    absolute terms behind them.  Every pole, repeated by multiplicity, sits
    on one of the ascending ``splits`` (or within the knot tolerance of
    it), and the function stays bounded as m → ±∞.  ℝ is cut at the splits.
    Each finite interval maps onto x in [-1, 1] and its function is
    multiplied by the interval's end poles.  The ray below a maps by
    m = a − s(1+x)/(1−x), with s the geometric mean of the first interval
    and the whole span, and its function is multiplied by ((m−a)/(m−b))^mult
    at a; the ray above b is its mirror.  Each piece gets an adaptive
    Chebyshev interpolant; its simple roots get one Newton step.
    Roots within ``exclusion_radius`` of a split are dropped."""
    splits = np.asarray(splits, dtype=float)
    a, b = splits[0], splits[-1]
    gaps = np.diff(splits)
    # interval 0 is the ray below a, 1..s-1 lie between splits, s is the ray
    # above b; m = start + length·(1+x)/2, or start + length·(1+x)/(1−x) on
    # a ray
    s = len(splits)
    ray = np.zeros(s + 1, dtype=bool)
    ray[[0, -1]] = True
    start = np.concatenate(([a], splits[:-1], [b]))
    length = np.concatenate((-np.sqrt(gaps[:1] * (b - a)), gaps,
                             np.sqrt(gaps[-1:] * (b - a))))
    far = np.concatenate(([b], splits[:-1], [a]))
    # the poles at an interval's ends are a run of the ascending poles
    group = np.maximum(np.searchsorted(splits, poles, side="right") - 1, 0)
    first = np.searchsorted(group, np.concatenate(([0], np.arange(s))))
    count = np.searchsorted(
        group, np.concatenate(([0], np.arange(1, s), [s - 1])),
        side="right") - first
    slots = np.arange(count.max(initial=0))
    is_end = slots < count[:, None]
    ends = np.zeros(is_end.shape)
    ends[is_end] = poles[(first[:, None] + slots)[is_end]]
    far_power = np.where(ray, count, 0)

    def to_m(piece, x):
        return start[piece] + length[piece] * (1.0 + x) / np.where(
            ray[piece], 1.0 - x, 2.0)

    def sample(piece, x):
        # the interval's function and the sums of absolute terms behind it
        m = to_m(piece, x)
        values, sizes = evaluate(m.ravel())
        factor = (np.prod(m[..., None] - ends[piece], axis=-1,
                          where=is_end[piece])
                  / (m - far[piece]) ** far_power[piece])
        return (values.reshape(m.shape) * factor,
                sizes.reshape(m.shape) * np.abs(factor))

    found = []  # (interval, x) per root of an interpolant
    piece = np.arange(s + 1)
    lo, hi = -np.ones(s + 1), np.ones(s + 1)
    for halvings in range(CHEB_MAX_HALVINGS + 1):
        for size in CHEB_SIZES:
            theta = np.pi * (np.arange(size) + 0.5) / size
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            values, sizes = sample(piece[:, None],
                                   mid[:, None] + half[:, None] * np.cos(theta))
            basis = np.cos(np.outer(theta, np.arange(size))) * (2.0 / size)
            basis[:, 0] *= 0.5
            coef = values @ basis
            tol = CHEB_TAIL_REL * np.max(sizes, axis=1)
            # a piece with non-finite samples has no roots to find
            done = (np.max(np.abs(coef[:, -(size // 4):]), axis=1) <= tol) \
                | ~np.all(np.isfinite(coef), axis=1)
            if halvings == CHEB_MAX_HALVINGS and size == CHEB_SIZES[-1]:
                done[:] = True
            for i in np.flatnonzero(done):
                found += [(piece[i], mid[i] + half[i] * t)
                          for t in _chebyshev_real_roots(coef[i], tol[i])]
            piece, lo, hi = piece[~done], lo[~done], hi[~done]
            if not piece.size:
                break
        if not piece.size:
            break
        mid = 0.5 * (lo + hi)
        piece = np.repeat(piece, 2)
        lo, hi = np.ravel((lo, mid), order="F"), np.ravel((mid, hi), order="F")

    if not found:
        return []
    found.sort()
    piece, x = (np.array(column) for column in zip(*found))
    # one root per cluster at its mean x; a lone eigenvalue is a simple
    # root, polished by a Newton step whose slope is a central difference
    # over half the merge tolerance (at a multiple root that slope is noise)
    label = np.cumsum(np.concatenate(([0], (np.diff(piece) != 0)
                                      | (np.diff(x) > CHEB_MERGE_TOL))))
    members = np.bincount(label)
    piece = piece[np.cumsum(members) - 1]
    x = np.bincount(label, x) / members
    finite = ~ray[piece] | (x < 1.0 - CHEB_MERGE_TOL)
    piece, x, members = piece[finite], x[finite], members[finite]
    h = 0.5 * CHEB_MERGE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        below, at, above = sample(piece[:, None], x[:, None] + (-h, 0.0, h))[0].T
        step = at * 2.0 * h / (above - below)
    x = np.where((members == 1) & (np.abs(step) <= CHEB_MERGE_TOL), x - step, x)
    m = to_m(piece, np.clip(x, -1.0, np.where(ray[piece],
                                              1.0 - CHEB_MERGE_TOL, 1.0)))
    keep = np.all(np.abs(m[:, None] - splits) > exclusion_radius, axis=1)
    return sorted(float(r) for r in m[keep])


def _chebyshev_real_roots(coef: np.ndarray, tol: float) -> np.ndarray:
    """Real roots in [-1, 1] of the Chebyshev series ``coef`` with its
    coefficients at or below ``tol`` dropped from the top; none when the
    leading term bounds the rest away from zero."""
    big = np.flatnonzero(np.abs(coef) > tol)
    if not np.all(np.isfinite(coef)) or big.size == 0 or big[-1] == 0 or \
            abs(coef[0]) > np.sum(np.abs(coef[1:])):
        return np.empty(0)
    t = chebroots(coef[: big[-1] + 1])
    t = t[np.abs(t.imag) <= CHEB_IMAG_TOL].real
    return t[np.abs(t) <= 1.0 + CHEB_IMAG_TOL]


def _check_directions(v: np.ndarray, w: np.ndarray) -> None:
    nv, nw = np.linalg.norm(v), np.linalg.norm(w)
    if nv == 0.0 or nw == 0.0:
        raise ValueError("ruling directions must be nonzero vectors")
    if np.linalg.norm(np.cross(v, w)) <= RULING_PARALLEL_TOL * nv * nw:
        raise CylinderCaseError(
            "end ruling directions are parallel; the surface would be a "
            "cylinder, which this construction does not cover")


def ruling_coefficients(a_point, c_last, v, w) -> tuple[float, float]:
    """Coordinates (alpha, beta) of a_point − c_last in the (v, w) frame.

    a_point must lie in the plane spanned by v and w through c_last; a
    genuine coplanarity root guarantees that, so a violation means the
    supplied parameter was not actually a root."""
    v = as_point3(v)
    w = as_point3(w)
    offset = as_point3(a_point) - as_point3(c_last)
    normal = np.cross(v, w)
    gram = float(normal @ normal)
    if gram == 0.0:
        raise ValueError("ruling directions must be linearly independent")
    out_of_plane = abs(float(offset @ normal)) / np.sqrt(gram)
    scale = max(1.0, float(np.linalg.norm(offset)))
    if out_of_plane > OUT_OF_PLANE_TOL * scale:
        raise InfeasibleProblemError(
            "intersection point lies off the ruling plane "
            f"(residual {out_of_plane:.3e}); the supplied parameter is not "
            "a root of the coplanarity equation")
    alpha = _det3(offset, w, normal) / gram
    beta = _det3(v, offset, normal) / gram
    return float(alpha), float(beta)


# ---------------------------------------------------------------------------
# Problem 1: end ruling directions and one anchored endpoint


@dataclass(frozen=True)
class Problem1Solution:
    """Everything a solve determined, including rejected root candidates."""

    m_star_roots: tuple[float, ...]
    chosen_root: float
    lambda_star: float
    alpha: float
    beta: float
    sigma: float
    tau: float
    strip: DevelopableStrip


def _require_clamped(knots: KnotVector) -> None:
    a, b = knots.domain
    tol = knots.knot_tolerance
    if abs(knots[0] - a) > tol or abs(knots[len(knots) - 1] - b) > tol:
        raise ValueError(
            "solver requires clamped end knots (end multiplicity equal to "
            "the degree) so that the boundary rulings attach to c_0 and c_L")


def _line_scale(offset: np.ndarray, direction: np.ndarray, what: str) -> float:
    off_len = float(np.linalg.norm(offset))
    dir_len = float(np.linalg.norm(direction))
    if off_len == 0.0:
        raise ValueError(f"{what} coincides with the curve endpoint; "
                         "the anchored ruling would have zero length")
    if np.linalg.norm(np.cross(offset, direction)) > \
            ANCHOR_LINE_TOL * off_len * dir_len:
        raise ValueError(f"{what} does not lie on its prescribed ruling line")
    return float(offset @ direction) / float(direction @ direction)


def _pole_product(knots: KnotVector, count: int, m: float) -> float:
    n = knots.degree
    q = 1.0
    for i in range(count - 1):
        q *= (m - knots[i]) / (m - knots[i + n])
    return q


def solve_problem1(curve: BSplineCurve, v, w, *,
                   d0=None, dL=None, root_choice: int = 0) -> Problem1Solution:
    """Developable strip on ``curve`` with end rulings along v and w.

    Exactly one of ``d0``/``dL`` anchors an endpoint of the opposite
    boundary; the other endpoint follows from the construction.
    ``root_choice`` indexes the ascending list of admissible parameters."""
    _require_clamped(curve.knots)
    v = as_point3(v)
    w = as_point3(w)
    if (d0 is None) == (dL is None):
        raise ValueError("anchor exactly one endpoint: d0 or dL")

    _check_directions(v, w)
    ctrl = curve.control
    knots = curve.knots
    if d0 is not None:
        d0 = as_point3(d0)
        sigma_given = _line_scale(d0 - ctrl[0], v, "anchor point d0")
    else:
        dL = as_point3(dL)
        tau_given = _line_scale(dL - ctrl[-1], w, "anchor point dL")

    normal = np.cross(v, w)
    offsets = ctrl[:-1] - ctrl[-1]
    deltas = offsets @ normal
    if np.max(np.abs(deltas), initial=0.0) <= PLANAR_DET_REL * np.linalg.norm(
            normal) * np.max(np.linalg.norm(offsets, axis=1), initial=0.0):
        raise PlanarSurfaceError(
            "curve and rulings are coplanar; the patch is a plane piece and "
            "every interior parameter works")
    gap = ctrl[-1] - ctrl[0]
    gap_len = float(np.linalg.norm(gap))
    if gap_len == 0.0 or abs(_det3(gap, v, w)) <= \
            CONE_TOL * gap_len * np.linalg.norm(v) * np.linalg.norm(w):
        raise ConeCaseError(
            "end ruling lines intersect; the surface would be a cone, which "
            "this construction does not cover")

    def compatibility(m):
        # values and sums of absolute terms, one block of weights at a time
        out = np.empty((2, len(m)))
        rows = max(1, WEIGHT_BLOCK // len(deltas))
        for i in range(0, len(m), rows):
            weights = _ratio_weights(knots, len(ctrl), m[i : i + rows])
            out[0, i : i + rows] = weights @ deltas
            out[1, i : i + rows] = np.abs(weights) @ np.abs(deltas)
        return out

    a, b = curve.domain
    roots = _real_roots(compatibility, knots._array[: len(ctrl) - 2],
                        knots.inner_values(), KNOT_EXCLUSION_REL * (b - a))
    if not roots:
        raise InfeasibleProblemError(
            "coplanarity equation has no admissible real root")
    if not 0 <= root_choice < len(roots):
        raise ValueError(f"root_choice {root_choice} out of range: "
                         f"{len(roots)} admissible root(s)")
    m0 = roots[root_choice]

    a_point = _ratio_weights(knots, len(ctrl), [m0])[0] @ ctrl[:-1]
    alpha, beta = ruling_coefficients(a_point, ctrl[-1], v, w)
    offset_scale = max(1.0, float(np.linalg.norm(a_point - ctrl[-1])))
    if abs(alpha) * np.linalg.norm(v) <= 1e-12 * offset_scale or \
            abs(beta) * np.linalg.norm(w) <= 1e-12 * offset_scale:
        raise InfeasibleProblemError(
            "a boundary ruling scale is pinned to zero for this root; the "
            "prescribed endpoint cannot be reached")

    q = _pole_product(knots, len(ctrl), m0)
    last_inner = knots[len(ctrl) - 2]  # u_{L-1}, the pivot of both scales
    if d0 is not None:
        sigma = sigma_given
        lam = m0 + sigma * (m0 - last_inner) / (alpha * q)
        tau = beta * (m0 - lam) / (m0 - last_inner)
        start = d0
    else:
        tau = tau_given
        lam = m0 - tau * (m0 - last_inner) / beta
        sigma = alpha * (lam - m0) * q / (m0 - last_inner)
        start = ctrl[0] + sigma * v
    if not np.isfinite(lam):
        raise InfeasibleProblemError(
            "interior parameter diverges for this root and anchor")

    opposite = propagate_polygon(curve, start, lam, m0)
    closing = opposite.control[-1] - ctrl[-1]
    target = tau * w
    if np.linalg.norm(closing - target) > \
            1e-6 * max(1.0, np.linalg.norm(target)):
        raise InfeasibleProblemError(
            "polygon recursion failed to close onto the last ruling line")
    try:
        strip = DevelopableStrip(curve, opposite, lam, m0)
    except ValueError as exc:
        raise InfeasibleProblemError(
            f"root M*={m0:.6g} did not produce a valid strip: {exc}") from exc
    return Problem1Solution(tuple(roots), m0, lam, alpha, beta,
                            float(sigma), float(tau), strip)


# ---------------------------------------------------------------------------
# Problem 2: both opposite corners prescribed


@dataclass(frozen=True)
class AffineScaling:
    """Affine ruling-length profile u ↦ slope·u + intercept."""

    slope: float
    intercept: float

    def __call__(self, u: float) -> float:
        return self.slope * u + self.intercept

    @classmethod
    def through(cls, a: float, fa: float, b: float, fb: float):
        slope = (fb - fa) / (b - a)
        return cls(slope, fa - slope * a)


def _rescaled_pair(base: BSplineCurve, opposite: BSplineCurve,
                   scaling: AffineScaling) -> tuple[BSplineCurve, BSplineCurve]:
    """Base and the moved curve (1−f(u))·base(u) + f(u)·opposite(u), both
    at degree n+1 over the once-elevated knot list.

    The product raises the degree by one; its blossom averages, over which
    argument feeds f, the blend of the two n-ary blossoms at the other
    arguments.  Those dropped-argument blossoms of the base are the ones its
    plain degree raise averages, so one kernel call per curve serves both."""
    n = base.degree
    knots = base.knots.elevated()
    spans, args = _windows(knots, base.knots)
    opp = opposite._dropped_blossoms(spans, args)
    own = base._dropped_blossoms(spans, args)
    f = scaling(args)
    elevated = np.zeros((len(args), 3))
    moved = np.zeros((len(args), 3))
    for j in range(n + 1):
        elevated += own[j]
        f_j = f[:, j, None]
        moved += f_j * opp[j]
        moved += (1.0 - f_j) * own[j]
    return (BSplineCurve(knots, elevated / (n + 1)),
            BSplineCurve(knots, moved / (n + 1)))


class Problem2Solution(NamedTuple):
    elevated_c: BSplineCurve
    elevated_d: BSplineCurve
    problem1: Problem1Solution
    scaling: AffineScaling
    # Parameter where the scaled ruling length crosses zero (the patch
    # pinches onto the base curve); only present when tau < 0.
    pinch_u: Optional[float]


def solve_problem2(curve: BSplineCurve, d0, dL,
                   root_choice: int = 0) -> Problem2Solution:
    """Developable patch between ``curve`` and prescribed corner points.

    Solves with ruling directions taken from the corner offsets, then
    rescales the free endpoint's ruling onto dL and re-expresses both
    boundaries at degree n+1."""
    d0 = as_point3(d0)
    dL = as_point3(dL)
    v = d0 - curve.control[0]
    w = dL - curve.control[-1]
    inner = solve_problem1(curve, v, w, d0=d0, root_choice=root_choice)
    tau = inner.tau
    if abs(tau) <= 1e-12:
        raise DegenerateCaseError(
            "last ruling scale vanishes; the prescribed corner collapses "
            "onto the curve")

    a, b = curve.domain
    scaling = AffineScaling.through(a, 1.0, b, 1.0 / tau)
    elevated_c, elevated_d = _rescaled_pair(
        curve, inner.strip.opposite, scaling)
    pinch = (a - tau * b) / (1.0 - tau) if tau < 0.0 else None
    return Problem2Solution(elevated_c, elevated_d, inner, scaling, pinch)


# ---------------------------------------------------------------------------
# Problem 3: triangular patch from apex velocity and far corner


def apex_direction(curve: BSplineCurve, d_prime_a) -> np.ndarray:
    """First-ruling direction that realizes a prescribed start velocity
    on the opposite boundary after the ruling-collapsing rescale."""
    d_prime_a = as_point3(d_prime_a)
    a, b = curve.domain
    start_velocity = curve.derivative_at(a)
    v = (b - a) * (d_prime_a - start_velocity)
    scale = max(1.0, float(np.linalg.norm(d_prime_a)),
                float(np.linalg.norm(start_velocity)))
    if np.linalg.norm(v) <= 1e-12 * (b - a) * scale:
        raise DegenerateCaseError(
            "prescribed start velocity equals the curve's own; the first "
            "ruling degenerates to a point before collapsing")
    return v


class Problem3Solution(NamedTuple):
    final_c: BSplineCurve
    final_d: BSplineCurve
    problem2: Problem2Solution
    apex_ruling: np.ndarray
    shrink: AffineScaling


def solve_problem3(curve: BSplineCurve, dL, d_prime_a,
                   root_choice: int = 0) -> Problem3Solution:
    """Triangular developable patch: the opposite boundary starts at the
    curve's own start point with prescribed velocity and ends at dL.

    Solves the two-corner problem with a synthesized apex offset, then
    shrinks rulings linearly to zero at the start, which raises the
    degree once more (to n+2)."""
    v = apex_direction(curve, d_prime_a)
    d0 = curve.control[0] + v
    wide = solve_problem2(curve, d0, as_point3(dL), root_choice=root_choice)

    a, b = curve.domain
    shrink = AffineScaling.through(a, 0.0, b, 1.0)
    final_c, final_d = _rescaled_pair(
        wide.elevated_c, wide.elevated_d, shrink)
    return Problem3Solution(final_c, final_d, wide, v, shrink)


# ---------------------------------------------------------------------------
# one entry point for every problem kind


class Solved(NamedTuple):
    """A solved problem spec: the patch to export and verify, the
    two-ruling solve every kind reduces to, and the pinch parameter of
    problems 2 and 3 (see Problem2Solution)."""

    patch: RuledPatch
    problem1: Problem1Solution
    pinch_u: Optional[float]


def solve_spec(spec: ProblemSpec) -> Solved:
    """Dispatch a parsed problem file to its solver.

    The spec's own ``root_choice`` selects the root; callers that override
    it or any ruling datum pass ``dataclasses.replace(spec, ...)``."""
    curve = spec.to_curve()
    root = spec.root_choice
    if spec.problem_kind == "problem1":
        end = "d0" if spec.anchor_end == "start" else "dL"
        inner = solve_problem1(curve, spec.v, spec.w, root_choice=root,
                               **{end: spec.anchor_point})
        return Solved(inner.strip, inner, None)
    if spec.problem_kind == "problem2":
        wide = solve_problem2(curve, spec.d0, spec.dL, root_choice=root)
        patch = RuledPatch(wide.elevated_c, wide.elevated_d)
    else:
        tri = solve_problem3(curve, spec.dL, spec.apex_velocity,
                             root_choice=root)
        wide = tri.problem2
        patch = RuledPatch(tri.final_c, tri.final_d)
    return Solved(patch, wide.problem1, wide.pinch_u)
