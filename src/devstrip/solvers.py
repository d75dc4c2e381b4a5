"""Boundary-interpolation solvers for developable strips.

Three levels of prescription are supported, each reduced to the one before:

* full strip from end ruling directions plus one anchored endpoint,
* both opposite corner points prescribed (solved by rescaling the rulings
  of the first solve, then re-expressing at degree n+1),
* triangular patch: apex velocity and far corner prescribed (solved by one
  more rescaling pass that collapses the first ruling, degree n+2).

``solve_spec`` dispatches a parsed problem file to the matching solver.

Candidate interior parameters are the real roots of a coplanarity
polynomial assembled by exact polynomial arithmetic; everything downstream
of the chosen root is closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial import Polynomial

from .bspline import (BlossomForm, BSplineCurve, KnotVector, as_point3,
                      _batched_form, control_from_blossom)
from .errors import (ConeCaseError, CylinderCaseError, DegenerateCaseError,
                     InfeasibleProblemError, PlanarSurfaceError)
from .fileio import ProblemSpec
from .polyroots import real_roots
from .strip import DevelopableStrip, RuledPatch, propagate_polygon

RULING_PARALLEL_TOL = 1e-9
ANCHOR_LINE_TOL = 1e-9
CONE_TOL = 1e-9
OUT_OF_PLANE_TOL = 1e-9
PLANAR_COEF_REL = 1e-12

# Roots this close to a knot (fraction of domain length) sit on recursion
# poles and are never admissible parameters.
KNOT_EXCLUSION_REL = 1e-6


def _det3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    return float(np.linalg.det(np.column_stack((a, b, c))))


# ---------------------------------------------------------------------------
# the intersection point a(M*) as a rational function


@dataclass(frozen=True, eq=False)
class RationalPoint3Function:
    """Point-valued rational function of the interior parameter M*.

    Coordinates share one denominator whose roots all sit at knot values,
    so the function is regular everywhere a solve is allowed to look."""

    numerators: tuple[Polynomial, Polynomial, Polynomial]
    denominator: Polynomial

    def evaluate(self, m: float) -> np.ndarray:
        den = self.denominator(m)
        return np.array([num(m) for num in self.numerators]) / den

    __call__ = evaluate


def _from_roots(roots: list[float]) -> Polynomial:
    # empty products are 1; numpy's fromroots rejects the empty list
    return Polynomial.fromroots(roots) if roots else Polynomial([1.0])


def _vertex_weights(knots: KnotVector,
                    count: int) -> tuple[list[Polynomial], Polynomial]:
    """Polynomial weights of vertices 0..L-1 in the last-ruling point, plus
    the common denominator.  The weights sum to the denominator, so the
    point is an affine combination of the control polygon for every M*."""
    last = count - 1
    n = knots.degree
    weights = [_from_roots([knots[i + n] for i in range(1, last)])]
    for i in range(1, last):
        gap = knots[i + n] - knots[i - 1]
        head = _from_roots([knots[k] for k in range(i - 1)])
        tail = _from_roots([knots[n + j + 1] for j in range(i, last - 1)])
        weights.append(gap * head * tail)
    denominator = _from_roots([knots[k] for k in range(last - 1)])
    return weights, denominator


def build_a_rational(curve: BSplineCurve) -> RationalPoint3Function:
    """Where the last ruling's line meets the first one, as a function of M*.

    Each coordinate is a polynomial over the shared denominator; both are
    assembled exactly from knot differences, no sampling involved."""
    ctrl = curve.control
    weights, denominator = _vertex_weights(curve.knots, len(ctrl))
    numerators = tuple(
        sum((weights[i] * float(ctrl[i][axis]) for i in range(len(weights))),
            Polynomial([0.0]))
        for axis in range(3))
    return RationalPoint3Function(numerators, denominator)


def _check_directions(v: np.ndarray, w: np.ndarray) -> None:
    nv, nw = np.linalg.norm(v), np.linalg.norm(w)
    if nv == 0.0 or nw == 0.0:
        raise ValueError("ruling directions must be nonzero vectors")
    if np.linalg.norm(np.cross(v, w)) <= RULING_PARALLEL_TOL * nv * nw:
        raise CylinderCaseError(
            "end ruling directions are parallel; the surface would be a "
            "cylinder, which this construction does not cover")


def cramer_polynomial(curve: BSplineCurve, v, w) -> Polynomial:
    """Numerator of the coplanarity determinant, denominator cleared.

    Real roots are the admissible interior parameters M*.  Returned monic;
    the identically zero polynomial (planar data: every parameter works)
    is returned as Polynomial([0.0])."""
    v = as_point3(v)
    w = as_point3(w)
    _check_directions(v, w)
    ctrl = curve.control
    weights, _ = _vertex_weights(curve.knots, len(ctrl))
    dets = [_det3(ctrl[i] - ctrl[-1], v, w) for i in range(len(weights))]
    numerator = sum((weights[i] * dets[i] for i in range(len(weights))),
                    Polynomial([0.0]))

    # Scale of the construction, for deciding "identically zero": the
    # coefficients the sum would have if no cancellation occurred.
    witness = sum(abs(d) * np.max(np.abs(p.coef))
                  for d, p in zip(dets, weights))
    coef = np.asarray(numerator.coef, dtype=float)
    top = np.max(np.abs(coef))
    if top <= PLANAR_COEF_REL * max(witness, 1.0):
        return Polynomial([0.0])
    keep = coef.size
    while keep > 1 and abs(coef[keep - 1]) <= PLANAR_COEF_REL * top:
        keep -= 1
    return Polynomial(coef[:keep] / coef[keep - 1])


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
    polynomial: Polynomial


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

    ctrl = curve.control
    knots = curve.knots
    if d0 is not None:
        d0 = as_point3(d0)
        sigma_given = _line_scale(d0 - ctrl[0], v, "anchor point d0")
    else:
        dL = as_point3(dL)
        tau_given = _line_scale(dL - ctrl[-1], w, "anchor point dL")

    polynomial = cramer_polynomial(curve, v, w)
    if polynomial.degree() == 0 and polynomial.coef[0] == 0.0:
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

    a, b = curve.domain
    roots = real_roots(polynomial, exclusions=list(knots),
                       exclusion_radius=KNOT_EXCLUSION_REL * (b - a))
    if not roots:
        raise InfeasibleProblemError(
            "coplanarity equation has no admissible real root")
    if not 0 <= root_choice < len(roots):
        raise ValueError(f"root_choice {root_choice} out of range: "
                         f"{len(roots)} admissible root(s)")
    m0 = roots[root_choice]

    a_point = build_a_rational(curve).evaluate(m0)
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
                            float(sigma), float(tau), strip, polynomial)


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


def scaled_boundary_blossom(base: BSplineCurve, opposite: BSplineCurve,
                            scaling: AffineScaling) -> BlossomForm:
    """Blossom of the curve (1−f(u))·base(u) + f(u)·opposite(u).

    The product raises degree by one; symmetrizing over which argument
    feeds f keeps the form multiaffine, so it is directly consumable by
    control_from_blossom over the once-elevated knot list."""
    if base.knots != opposite.knots:
        raise ValueError("curves must share one knot list")
    n = base.degree
    base_form, opposite_form = base.polar_form(), opposite.polar_form()

    def form(args: np.ndarray, u_ref: np.ndarray) -> np.ndarray:
        total = np.zeros((len(args), 3))
        for k in range(n + 1):
            rest = np.delete(args, k, axis=1)
            f_k = scaling(args[:, k])[:, None]
            total += f_k * opposite_form(rest, u_ref)
            total += (1.0 - f_k) * base_form(rest, u_ref)
        return total / (n + 1)

    return _batched_form(n + 1, form)


def _rescaled_pair(base: BSplineCurve, opposite: BSplineCurve,
                   scaling: AffineScaling) -> tuple[BSplineCurve, BSplineCurve]:
    elevated = base.elevate_degree()
    form = scaled_boundary_blossom(base, opposite, scaling)
    moved = BSplineCurve(elevated.knots,
                         control_from_blossom(form, elevated.knots))
    return elevated, moved


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
