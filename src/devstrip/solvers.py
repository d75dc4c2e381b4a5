"""Boundary-interpolation solvers for developable strips.

Three levels of prescription are supported, each reduced to the one before:

* full strip from end ruling directions plus one anchored endpoint,
* both opposite corner points prescribed (solved by rescaling the rulings
  of the first solve, then re-expressing at degree n+1),
* triangular patch: apex velocity and far corner prescribed (solved by one
  more rescaling pass that collapses the first ruling, degree n+2).

``solve_spec`` dispatches a parsed problem file to the matching solver.

Candidate interior parameters are the real roots of a compatibility
function kept in ratio-product form, found from one eigenvalue problem in
the Lagrange basis, or interval by interval between its poles, the knots,
where that problem's guards fire; everything downstream of the chosen root
is closed-form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.polynomial.chebyshev import chebroots

from .bspline import (BSplineCurve, KnotVector, _dropped_blossoms, _windows,
                      as_point3)
from .errors import (ConeCaseError, CylinderCaseError, DegenerateCaseError,
                     InfeasibleProblemError, PlanarSurfaceError)
from .fileio import ProblemSpec
from .strip import (POLE_GUARD_REL, DevelopableStrip, RuledPatch,
                    propagate_polygon)

RULING_PARALLEL_TOL = 1e-9
ANCHOR_LINE_TOL = 1e-9
CONE_TOL = 1e-9
# The point a(M*) where the end ruling lines meet lies off their plane when
# its distance from it exceeds this fraction of max(1, ‖a(M*) − c_L‖).
OUT_OF_PLANE_TOL = 1e-9
# a(M*) − c_L = α·v + β·w; a ruling scale is pinned to zero when |α|·‖v‖ or
# |β|·‖w‖ is at most this fraction of max(1, ‖a(M*) − c_L‖).
PINNED_SCALE_REL = 1e-12
# The propagated polygon closes onto the last ruling when its last vertex
# misses c_L + τ·w by at most this fraction of max(1, ‖τ·w‖).
CLOSING_REL = 1e-6
# Data are planar when every det(c_i − c_L, v, w) is below this fraction of
# max ‖c_i − c_L‖ · ‖v × w‖, the largest value such a determinant can take.
PLANAR_DET_REL = 1e-12
# Problems 2 and 3 take w = dL − c_L, so the last ruling of the two-ruling
# strip is τ·w: τ is unit-free, the factor by which the rescale divides
# that ruling.  At |τ| up to this, the prescribed corner collapses.
TAU_TOL = 1e-12
# A prescribed apex velocity is the curve's own start velocity when the two
# differ by up to this fraction of the larger of them (and of 1): the first
# ruling, (b − a) times the difference, is then a point.
APEX_VELOCITY_REL = 1e-12

# The compatibility function is evaluated in blocks of weights of at most
# this many entries (64 kB), so its temporaries stay small at any L.
WEIGHT_BLOCK = 2 ** 13

# Adaptive Chebyshev interpolation of the compatibility function, one piece
# per pole interval (Boyd, SIAM J. Numer. Anal. 40, 2002).  A piece is
# sampled at this many first-kind points and halved until it converges, so
# colleague matrices stay at most 31 x 31; after the last halving a piece is
# taken as it stands.
CHEB_POINTS = 32
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

# Eigenvalues of the Lagrange-basis pencil (``_pencil_roots``) whose images
# on the unit circle's map lie within CHEB_IMAG_TOL of the circle are real
# roots; those farther off but within this are a near-real pair or a split
# multiple root, which the per-interval path decides.
CIRCLE_BAND = 1e-3


def _chebyshev_tables() -> tuple[np.ndarray, np.ndarray]:
    """The first-kind Chebyshev points and the matrix that takes the
    samples there to the interpolant's coefficients."""
    size = CHEB_POINTS
    theta = np.pi * (np.arange(size) + 0.5) / size
    basis = np.cos(np.outer(theta, np.arange(size))) * (2.0 / size)
    basis[:, 0] *= 0.5
    return np.cos(theta), basis


_NODES, _BASIS = _chebyshev_tables()


def _det3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    return float(np.linalg.det(np.array((a, b, c)).T))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a × b of two 3-vectors, written out in the products and differences
    np.cross makes, so bit for bit its result at a fraction of its cost."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


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
    weights[:, :-1] = ((m - above) / below)[:, ::-1].cumprod(axis=1)[:, ::-1]
    weights[:, 1:] *= (above - u[: last - 1]) / below
    return weights


def _real_roots(evaluate, poles: np.ndarray, splits, exclusion_radius: float
                ) -> list[float]:
    """Real roots, ascending, of a rational function of m.

    ``evaluate(m)`` returns the values at an array of m and the sums of
    absolute terms behind them.  Every pole, repeated by multiplicity, sits
    on one of the ascending ``splits`` (or within the knot tolerance of
    it), and the function stays bounded as m → ±∞.  Roots within
    ``exclusion_radius`` of a split are dropped.

    ``_pencil_roots`` gives the roots from one eigenvalue problem unless one
    of its guards fires.  Then ℝ is cut at the splits.
    Each finite interval maps onto x in [-1, 1] and its function is
    multiplied by the interval's end poles.  The ray below a maps by
    m = a − s(1+x)/(1−x), with s the geometric mean of the first interval
    and the whole span, and its function is multiplied by ((m−a)/(m−b))^mult
    at a; the ray above b is its mirror.  Each piece gets an adaptive
    Chebyshev interpolant, whose roots ``_interpolant_roots`` finds, one
    colleague-matrix eigenvalue solve per interpolant that may hold one;
    each simple root then gets one Newton step on the function."""
    splits = np.asarray(splits, dtype=float)
    roots = _pencil_roots(evaluate, poles, splits, exclusion_radius)
    if roots is not None:
        return roots
    a, b = splits[0], splits[-1]
    gaps = splits[1:] - splits[:-1]
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
    group = np.maximum(splits.searchsorted(poles, side="right") - 1, 0)
    first = group.searchsorted(np.concatenate(([0], np.arange(s))))
    count = group.searchsorted(
        np.concatenate(([0], np.arange(1, s), [s - 1])), side="right") - first
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
        factor = ((m[..., None] - ends[piece]).prod(axis=-1,
                                                    where=is_end[piece])
                  / (m - far[piece]) ** far_power[piece])
        return (values.reshape(m.shape) * factor,
                sizes.reshape(m.shape) * np.abs(factor))

    # converged interpolants with their interval, centre, half-width and
    # tolerance
    converged = []
    piece = np.arange(s + 1)
    lo, hi = -np.ones(s + 1), np.ones(s + 1)
    for halvings in range(CHEB_MAX_HALVINGS + 1):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        values, sizes = sample(piece[:, None],
                               mid[:, None] + half[:, None] * _NODES)
        # a piece with non-finite samples or coefficients has no roots to
        # find; its samples are zeroed so that the product meets no infinity
        finite = np.isfinite(values).all(axis=1)
        coef = np.where(finite[:, None], values, 0.0) @ _BASIS
        finite &= np.isfinite(coef).all(axis=1)
        tol = CHEB_TAIL_REL * sizes.max(axis=1)
        tail = np.abs(coef[:, -(CHEB_POINTS // 4):]).max(axis=1)
        done = (tail <= tol) | ~finite | (halvings == CHEB_MAX_HALVINGS)
        converged.append((piece[done], mid[done], half[done], coef[done],
                          tol[done]))
        piece, lo, mid, hi = piece[~done], lo[~done], mid[~done], hi[~done]
        if not piece.size:
            break
        piece = piece.repeat(2)
        lo = np.array((lo, mid)).ravel(order="F")
        hi = np.array((mid, hi)).ravel(order="F")

    piece, mid, half, coef, tol = map(np.concatenate, zip(*converged))
    row, t = _interpolant_roots(coef, tol)
    if not row.size:
        return []
    piece, x = piece[row], mid[row] + half[row] * t
    order = np.lexsort((x, piece))
    piece, x = piece[order], x[order]
    # one root per cluster at its mean x; a lone eigenvalue is a simple
    # root, polished by a Newton step whose slope is a central difference
    # over half the merge tolerance (at a multiple root that slope is noise)
    label = np.concatenate(([0], (piece[1:] != piece[:-1])
                            | (x[1:] - x[:-1] > CHEB_MERGE_TOL))).cumsum()
    members = np.bincount(label)
    piece = piece[members.cumsum() - 1]
    x = np.bincount(label, x) / members
    finite = ~ray[piece] | (x < 1.0 - CHEB_MERGE_TOL)
    piece, x, members = piece[finite], x[finite], members[finite]
    h = 0.5 * CHEB_MERGE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        below, at, above = sample(piece[:, None], x[:, None] + (-h, 0.0, h))[0].T
        step = at * 2.0 * h / (above - below)
    x = np.where((members == 1) & (np.abs(step) <= CHEB_MERGE_TOL), x - step, x)
    m = to_m(piece, x.clip(-1.0, np.where(ray[piece], 1.0 - CHEB_MERGE_TOL,
                                          1.0)))
    keep = (np.abs(m[:, None] - splits) > exclusion_radius).all(axis=1)
    return sorted(m[keep].tolist())


@functools.lru_cache(maxsize=None)
def _pencil_tables(splits: int, left: int, right: int
                   ) -> tuple[np.ndarray, ...]:
    """For that many splits, and support points below a and above b: the
    matrix that takes the splits to the support points, ascending; in row
    j, the indices of the support points other than j, ascending; and the
    identity matrix of one size less than the points."""
    size = splits - 1 + left + right
    support = np.zeros((size, splits))
    inner = np.arange(splits - 1)
    support[left + inner, inner] = support[left + inner, inner + 1] = 0.5
    lower = 4.0 ** np.arange(left - 2.0, -2.0, -1.0)
    upper = 4.0 ** np.arange(-1.0, right - 1.0)
    support[:left, 0], support[:left, -1] = 1.0 + lower, -lower
    above = slice(size - right, size)
    support[above, -1], support[above, 0] = 1.0 + upper, -upper
    others = np.arange(1, size) - np.tri(size, size - 1, -1, dtype=int)
    tables = support, others, np.eye(size - 1)
    for table in tables:
        table.flags.writeable = False
    return tables


def _pencil_roots(evaluate, poles: np.ndarray, splits: np.ndarray,
                  exclusion_radius: float) -> Optional[list[float]]:
    """The roots ``_real_roots`` reports, from one eigenvalue problem in the
    Lagrange basis, or None where they are left to the per-interval path.

    N(m) = f(m)·Π(m − p), over the poles p, is a polynomial of degree
    len(poles), fixed by its values at len(poles) + 1 support points t_j:
    one in the middle of each split interval, then as many below a as there
    are poles at a, while points are left, at a − (b − a)·4^(k−1) for
    k = 0, 1, ..., and the rest above b, mirrored.  Its barycentric weights
    w_j = Π(t_j − p)/Π_{i≠j}(t_j − t_i) are one product of ratios, the
    ascending poles over the other support points, and the a_j = w_j·f(t_j)
    sum to N's leading coefficient σ.  The roots of N are the eigenvalues
    of the arrowhead pencil [[0, aᵀ], [1, diag t]] − m·diag(0, I) (Corless
    2004): for J the largest |a_j|, those of diag(t_j, j ≠ J) − 1·vᵀ with
    v_j = a_j(t_j − t_J)/σ.

    Distances are in θ of m = c + s·cot(θ/2), c and s the centre and
    half-width of the splits, which maps the real line onto the unit circle
    z = exp(iθ).  The eigenvalues whose images lie within CHEB_IMAG_TOL of
    the circle are the real roots; each takes one Newton step on f, its
    slope a central difference across CHEB_MERGE_TOL in θ, and the roots
    within ``exclusion_radius`` of a split are dropped.

    It gives None when there are fewer support points than split intervals
    or one lies beyond the far-root reach (below), a sample is not finite,
    |σ| is at most CHEB_TAIL_REL of the largest |w_j| times its sample's
    size (a root at infinity or a deficient degree), an image lies
    CHEB_IMAG_TOL..CIRCLE_BAND off the circle (a near-real pair or a split
    multiple root), two roots lie within CHEB_MERGE_TOL in θ, a root lies
    beyond the reach, or a Newton step is longer than CHEB_MERGE_TOL in
    θ."""
    a, b = splits[0], splits[-1]
    c, s = 0.5 * (a + b), 0.5 * (b - a)
    outer = len(poles) + 2 - len(splits)
    if outer < 0:
        return None
    left = min(int(poles.searchsorted(0.5 * (a + splits[1]))), outer)
    support, others, eye = _pencil_tables(len(splits), left, outer - left)
    t = support @ splits
    # the reach is a quarter of m − b = ℓ(2 − CHEB_MERGE_TOL)/CHEB_MERGE_TOL,
    # where the per-interval path's ray m = b + ℓ(1+x)/(1−x), ℓ² the last
    # interval times the domain, puts the point at infinity; mirrored below a
    reach = 0.25 / CHEB_MERGE_TOL
    low = a - reach * ((splits[1] - a) * (b - a)) ** 0.5
    high = b + reach * ((b - splits[-2]) * (b - a)) ** 0.5
    if not (low < t[0] and t[-1] < high):
        return None
    values, sizes = evaluate(t)
    if not np.isfinite(values).all():
        return None
    weights = ((t[:, None] - poles) / (t[:, None] - t[others])).prod(axis=1)
    coef = weights * values
    sigma = coef.sum()
    if not abs(sigma) > CHEB_TAIL_REL * (np.abs(weights) * sizes).max():
        return None
    pivot = np.abs(coef).argmax()
    rest = others[pivot]
    nodes = t[rest]
    m = np.linalg.eigvals(eye * nodes - coef[rest] * (nodes - t[pivot])
                          / sigma)
    # m maps to z = (m − c + is)/(m − c − is), off the circle by
    # | |m − c + is| − |m − c − is| | / |m − c − is|
    below = np.abs(m - complex(c, s))
    gap = np.abs(np.abs(m - complex(c, -s)) - below)
    if ((gap > CHEB_IMAG_TOL * below) & (gap <= CIRCLE_BAND * below)).any():
        return None
    m = m.real[gap <= CHEB_IMAG_TOL * below]
    m.sort()
    theta = 2.0 * np.arctan2(s, m - c)
    if (theta[:-1] - theta[1:] <= CHEB_MERGE_TOL).any() or len(m) and (
            m[0] <= low or m[-1] >= high):
        return None
    # a step of CHEB_MERGE_TOL in θ is width = CHEB_MERGE_TOL·dm/dθ in m,
    # dm/dθ = ((m − c)² + s²)/(2s); the Newton step at·width/slope, with
    # slope the difference of f across width, is shorter iff |at| < |slope|
    width = CHEB_MERGE_TOL / (2.0 * s) * ((m - c) ** 2 + s * s)
    below, at, above = evaluate(
        (m[:, None] + width[:, None] * (-0.5, 0.0, 0.5)).ravel())[0].reshape(
            -1, 3).T
    slope = above - below
    if not (np.abs(at) < np.abs(slope)).all():
        return None
    m -= at * width / slope
    keep = (np.abs(m[:, None] - splits) > exclusion_radius).all(axis=1)
    return sorted(m[keep].tolist())


def _interpolant_roots(coef: np.ndarray, tol: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of the Chebyshev series in the rows of ``coef``, as the
    row and x of each root: the eigenvalues of the colleague matrix of each
    series, with its coefficients at or below ``tol`` dropped from the top,
    whose imaginary part is at most CHEB_IMAG_TOL and whose real part lies
    in the window |x| <= 1 + CHEB_IMAG_TOL.  A series has none to look for
    when its coefficients are not finite, it is constant, or its constant
    term bounds the rest away from zero."""
    big = np.abs(coef) > tol[:, None]
    rows = (np.isfinite(coef).all(axis=1) & big[:, 1:].any(axis=1)
            & (np.abs(coef[:, 0]) <= np.abs(coef[:, 1:]).sum(axis=1))
            ).nonzero()[0]
    top = coef.shape[1] - big[rows, ::-1].argmax(axis=1)
    found = [chebroots(coef[k, :n]) for k, n in zip(rows, top)]
    row = rows.repeat([len(z) for z in found])
    z = np.concatenate([np.empty(0)] + found)
    real = (np.abs(z.imag) <= CHEB_IMAG_TOL) \
        & (np.abs(z.real) <= 1.0 + CHEB_IMAG_TOL)
    return row[real], z.real[real]


# ---------------------------------------------------------------------------
# Problem 1: end ruling directions and one anchored endpoint


@dataclass(frozen=True)
class Solution:
    """Everything a solve determined, for every problem kind.

    Each kind reduces to the two-ruling solve, whose constants and strip
    come first, rejected root candidates included.  Problem 2 adds the
    rescaled pair at degree n+1, and problem 3 the shrunk pair at degree
    n+2; ``patch`` is the last pair present, the surface to export and
    verify."""

    m_star_roots: tuple[float, ...]
    chosen_root: float
    lambda_star: float
    alpha: float
    beta: float
    sigma: float
    tau: float
    strip: DevelopableStrip
    elevated_c: Optional[BSplineCurve] = None
    elevated_d: Optional[BSplineCurve] = None
    final_c: Optional[BSplineCurve] = None
    final_d: Optional[BSplineCurve] = None
    # Parameter where the rescaled ruling length crosses zero (the patch
    # pinches onto the base curve); only present for problems 2 and 3 when
    # tau < 0.
    pinch_u: Optional[float] = None

    @property
    def patch(self) -> RuledPatch:
        if self.final_c is not None:
            return RuledPatch(self.final_c, self.final_d)
        if self.elevated_c is not None:
            return RuledPatch(self.elevated_c, self.elevated_d)
        return self.strip


def _require_clamped(knots: KnotVector) -> None:
    a, b = knots.domain
    tol = knots.knot_tolerance
    if abs(knots[0] - a) > tol or abs(knots[len(knots) - 1] - b) > tol:
        raise ValueError(
            "solver requires clamped end knots (end multiplicity equal to "
            "the degree) so that the boundary rulings attach to c_0 and c_L")


def _line_scale(offset: np.ndarray, direction: np.ndarray, dir_len: float,
                what: str) -> float:
    off_len = float(np.linalg.norm(offset))
    if off_len == 0.0:
        raise ValueError(f"{what} coincides with the curve endpoint; "
                         "the anchored ruling would have zero length")
    if np.linalg.norm(_cross(offset, direction)) > \
            ANCHOR_LINE_TOL * off_len * dir_len:
        raise ValueError(f"{what} does not lie on its prescribed ruling line")
    return float(offset @ direction) / float(direction @ direction)


def solve_problem1(curve: BSplineCurve, v, w, *,
                   d0=None, dL=None, root_choice: int = 0) -> Solution:
    """Developable strip on ``curve`` with end rulings along v and w.

    Exactly one of ``d0``/``dL`` anchors an endpoint of the opposite
    boundary; the other endpoint follows from the construction.
    ``root_choice`` indexes the ascending list of admissible parameters."""
    _require_clamped(curve.knots)
    v = as_point3(v)
    w = as_point3(w)
    if (d0 is None) == (dL is None):
        raise ValueError("anchor exactly one endpoint: d0 or dL")

    nv, nw = float(np.linalg.norm(v)), float(np.linalg.norm(w))
    if nv == 0.0 or nw == 0.0:
        raise ValueError("ruling directions must be nonzero vectors")
    normal = _cross(v, w)
    normal_len = np.linalg.norm(normal)
    if normal_len <= RULING_PARALLEL_TOL * nv * nw:
        raise CylinderCaseError(
            "end ruling directions are parallel; the surface would be a "
            "cylinder, which this construction does not cover")
    ctrl = curve.control
    knots = curve.knots
    if d0 is not None:
        d0 = as_point3(d0)
        sigma_given = _line_scale(d0 - ctrl[0], v, nv, "anchor point d0")
    else:
        dL = as_point3(dL)
        tau_given = _line_scale(dL - ctrl[-1], w, nw, "anchor point dL")

    offsets = ctrl[:-1] - ctrl[-1]
    deltas = offsets @ normal
    if np.abs(deltas).max(initial=0.0) <= PLANAR_DET_REL * normal_len \
            * np.linalg.norm(offsets, axis=1).max(initial=0.0):
        raise PlanarSurfaceError(
            "curve and rulings are coplanar; the patch is a plane piece and "
            "every interior parameter works")
    gap = ctrl[-1] - ctrl[0]
    gap_len = float(np.linalg.norm(gap))
    if gap_len == 0.0 or abs(_det3(gap, v, w)) <= \
            CONE_TOL * gap_len * nv * nw:
        raise ConeCaseError(
            "end ruling lines intersect; the surface would be a cone, which "
            "this construction does not cover")

    sizes = np.abs(deltas)

    def compatibility(m):
        # values and sums of absolute terms, one block of weights at a time
        out = np.empty((2, len(m)))
        rows = max(1, WEIGHT_BLOCK // len(deltas))
        for i in range(0, len(m), rows):
            weights = _ratio_weights(knots, len(ctrl), m[i : i + rows])
            out[0, i : i + rows] = weights @ deltas
            out[1, i : i + rows] = np.abs(weights) @ sizes
        return out

    a, b = curve.domain
    roots = _real_roots(compatibility, knots._array[: len(ctrl) - 2],
                        knots.inner_values(), POLE_GUARD_REL * (b - a))
    if not roots:
        raise InfeasibleProblemError(
            "coplanarity equation has no admissible real root")
    if not 0 <= root_choice < len(roots):
        raise ValueError(f"root_choice {root_choice} out of range: "
                         f"{len(roots)} admissible root(s)")
    m0 = roots[root_choice]

    weights = _ratio_weights(knots, len(ctrl), [m0])[0]
    offset = weights @ ctrl[:-1] - ctrl[-1]  # a(M*) − c_L
    gram = float(normal @ normal)
    out_of_plane = abs(float(offset @ normal)) / np.sqrt(gram)
    offset_scale = max(1.0, float(np.linalg.norm(offset)))
    if out_of_plane > OUT_OF_PLANE_TOL * offset_scale:
        raise InfeasibleProblemError(
            "intersection point lies off the ruling plane "
            f"(residual {out_of_plane:.3e}); the supplied parameter is not "
            "a root of the coplanarity equation")
    # (alpha, beta): coordinates of a(M*) − c_L in the (v, w) frame
    alpha = _det3(offset, w, normal) / gram
    beta = _det3(v, offset, normal) / gram
    if abs(alpha) * nv <= PINNED_SCALE_REL * offset_scale or \
            abs(beta) * nw <= PINNED_SCALE_REL * offset_scale:
        raise InfeasibleProblemError(
            "a boundary ruling scale is pinned to zero for this root; the "
            "prescribed endpoint cannot be reached")

    # The product of the recursion's pole ratios over every cell is
    # (M* − u_{L−1}) / ((M* − u_n)·S_0); u_{L−1} cancels from λ* and σ.
    span = (m0 - knots[knots.degree]) * float(weights[0])
    last_inner = knots[len(ctrl) - 2]  # u_{L-1}, the pivot of tau
    if d0 is not None:
        sigma = sigma_given
        lam = m0 + sigma * span / alpha
        tau = beta * (m0 - lam) / (m0 - last_inner)
        start = d0
    else:
        tau = tau_given
        lam = m0 - tau * (m0 - last_inner) / beta
        sigma = alpha * (lam - m0) / span
        start = ctrl[0] + sigma * v
    if not np.isfinite(lam):
        raise InfeasibleProblemError(
            "interior parameter diverges for this root and anchor")

    opposite = propagate_polygon(curve, start, lam, m0)
    closing = opposite.control[-1] - ctrl[-1]
    target = tau * w
    if np.linalg.norm(closing - target) > \
            CLOSING_REL * max(1.0, np.linalg.norm(target)):
        raise InfeasibleProblemError(
            "polygon recursion failed to close onto the last ruling line")
    try:
        strip = DevelopableStrip(curve, opposite, lam, m0)
    except ValueError as exc:
        raise InfeasibleProblemError(
            f"root M*={m0:.6g} did not produce a valid strip: {exc}") from exc
    return Solution(tuple(roots), m0, lam, alpha, beta, float(sigma),
                    float(tau), strip)


# ---------------------------------------------------------------------------
# Problem 2: both opposite corners prescribed


def _rescaled_pair(base: BSplineCurve, opposite: BSplineCurve, f_a: float,
                   f_b: float) -> tuple[BSplineCurve, BSplineCurve]:
    """Base and the moved curve (1−f(u))·base(u) + f(u)·opposite(u), both
    at degree n+1 over the once-elevated knot list, for the affine profile
    f with f(a) = f_a and f(b) = f_b at the ends of the domain.

    The product raises the degree by one; its blossom averages, over which
    argument feeds f, the blend of the two n-ary blossoms at the other
    arguments.  Those dropped-argument blossoms of the base are the ones its
    plain degree raise averages, so one kernel call over both polygons
    serves both curves."""
    n = base.degree
    a, b = base.domain
    knots = base.knots.elevated()
    spans, args = _windows(knots, base.knots)
    both = _dropped_blossoms(base.knots, np.hstack((base.control, opposite.control)),
                             spans, args)
    own, opp = both[..., :3], both[..., 3:]
    slope = (f_b - f_a) / (b - a)
    f = (slope * args + (f_a - slope * a)).T[..., None]
    # f_j·opp_j, then (1 − f_j)·own_j, for j = 0..n: summed from zero in
    # that order by one reduction over the outer axis
    terms = np.concatenate((f * opp, (1.0 - f) * own), axis=1)
    moved = terms.reshape(2 * (n + 1), len(args), 3).sum(axis=0, initial=0.0)
    elevated = own.sum(axis=0, initial=0.0)
    return (BSplineCurve(knots, elevated / (n + 1)),
            BSplineCurve(knots, moved / (n + 1)))


def solve_problem2(curve: BSplineCurve, d0, dL,
                   root_choice: int = 0) -> Solution:
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
    if abs(tau) <= TAU_TOL:
        raise DegenerateCaseError(
            "last ruling scale vanishes; the prescribed corner collapses "
            "onto the curve")

    a, b = curve.domain
    elevated_c, elevated_d = _rescaled_pair(
        curve, inner.strip.opposite, 1.0, 1.0 / tau)
    pinch = (a - tau * b) / (1.0 - tau) if tau < 0.0 else None
    return replace(inner, elevated_c=elevated_c, elevated_d=elevated_d,
                   pinch_u=pinch)


# ---------------------------------------------------------------------------
# Problem 3: triangular patch from apex velocity and far corner


def apex_direction(curve: BSplineCurve, d_prime_a) -> np.ndarray:
    """First-ruling direction that realizes a prescribed start velocity
    on the opposite boundary after the ruling-collapsing rescale.

    The curve's start velocity is that of a clamped start, n (c_1 - c_0) /
    (u_n - a), also where the first knots lie within the knot tolerance of
    a but not on it, as every solver takes such a start as clamped; where
    they equal a it is derivative_at(a) bit for bit."""
    _require_clamped(curve.knots)
    d_prime_a = as_point3(d_prime_a)
    a, b = curve.domain
    n, ctrl = curve.degree, curve.control
    start_velocity = n * (ctrl[1] - ctrl[0]) / (curve.knots[n] - a)
    v = (b - a) * (d_prime_a - start_velocity)
    scale = max(1.0, float(np.linalg.norm(d_prime_a)),
                float(np.linalg.norm(start_velocity)))
    if np.linalg.norm(v) <= APEX_VELOCITY_REL * (b - a) * scale:
        raise DegenerateCaseError(
            "prescribed start velocity equals the curve's own; the first "
            "ruling degenerates to a point before collapsing")
    return v


def solve_problem3(curve: BSplineCurve, dL, d_prime_a,
                   root_choice: int = 0) -> Solution:
    """Triangular developable patch: the opposite boundary starts at the
    curve's own start point with prescribed velocity and ends at dL.

    Solves the two-corner problem with a synthesized apex offset, then
    shrinks rulings linearly to zero at the start, which raises the
    degree once more (to n+2)."""
    d0 = curve.control[0] + apex_direction(curve, d_prime_a)
    wide = solve_problem2(curve, d0, as_point3(dL), root_choice=root_choice)
    final_c, final_d = _rescaled_pair(
        wide.elevated_c, wide.elevated_d, 0.0, 1.0)
    return replace(wide, final_c=final_c, final_d=final_d)


# ---------------------------------------------------------------------------
# one entry point for every problem kind


def solve_spec(spec: ProblemSpec) -> Solution:
    """Dispatch a parsed problem file to its solver.

    The spec's own ``root_choice`` selects the root; callers that override
    it or any ruling datum pass ``dataclasses.replace(spec, ...)``."""
    curve = spec.to_curve()
    root = spec.root_choice
    if spec.problem_kind == "problem1":
        end = "d0" if spec.anchor_end == "start" else "dL"
        return solve_problem1(curve, spec.v, spec.w, root_choice=root,
                              **{end: spec.anchor_point})
    if spec.problem_kind == "problem2":
        return solve_problem2(curve, spec.d0, spec.dL, root_choice=root)
    return solve_problem3(curve, spec.dL, spec.apex_velocity,
                          root_choice=root)
