"""Boundary-interpolation solvers for developable strips.

Three levels of prescription are supported, each reduced to the one before:

* full strip from end ruling directions plus one anchored endpoint,
* both opposite corner points prescribed (solved by rescaling the rulings
  of the first solve, then re-expressing at degree n+1),
* triangular patch: apex velocity and far corner prescribed (solved by one
  more rescaling pass that collapses the first ruling, degree n+2).

``solve_spec`` dispatches a parsed problem file to the matching solver.

Candidate interior parameters are the real roots of a compatibility
function kept in ratio-product form, found from one eigenvalue problem on
the unit circle when its samples are well conditioned and otherwise
interval by interval between its poles, the knots; everything downstream
of the chosen root is closed-form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebroots, chebvander

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
OUT_OF_PLANE_TOL = 1e-9
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
# Before any eigenvalue solve, each converged interpolant is cut into this
# many equal sub-intervals of the window |x| <= 1 + CHEB_IMAG_TOL, where
# colleague-matrix roots are kept.  A root of a sub-interval that holds
# exactly one starts from the sign change on a grid of this many cells and
# takes this many Newton steps on the interpolant; it is kept only if the
# interpolant changes sign within CHEB_ROOT_TOL of where the steps end.
CHEB_SPLIT = 8
CHEB_CELLS = 8
CHEB_NEWTON_STEPS = 3
CHEB_ROOT_TOL = 1e-10

# The one eigenvalue problem on the unit circle (``_circle_roots``) runs when
# the median sample size on the domain's arc is at least this fraction of
# the largest sample size.  Its coefficients carry rounding of about eps
# times the largest size, so there the samples on the arc, and the roots
# they fix, keep about ten of their digits; from about 32 pieces up the
# ratio falls below 1e-9 and the eigenvalues lose roots.
CIRCLE_ARC_RATIO = 1e-6
# Eigenvalues within CHEB_IMAG_TOL of the unit circle are real roots; those
# farther off but within this are a near-real pair or a split multiple
# root, which the per-interval path decides.
CIRCLE_BAND = 1e-3


def _chebyshev_tables() -> tuple[np.ndarray, ...]:
    """The first-kind Chebyshev points and the matrix that takes the
    samples there to the interpolant's coefficients.  For such a series:
    the matrix to its CHEB_SPLIT sub-interval series in y ∈ [-1, 1]
    (points × CHEB_SPLIT·points) and the matrix to its derivative series.
    Then the values of a sub-interval series on its cell grid, and the
    sub-interval centres and half-width in x."""
    size = CHEB_POINTS
    theta = np.pi * (np.arange(size) + 0.5) / size
    nodes = np.cos(theta)
    basis = np.cos(np.outer(theta, np.arange(size))) * (2.0 / size)
    basis[:, 0] *= 0.5
    window = 1.0 + CHEB_IMAG_TOL
    half = window / CHEB_SPLIT
    centres = window * np.arange(1 - CHEB_SPLIT, CHEB_SPLIT, 2) / CHEB_SPLIT
    points = (centres[:, None] + half * nodes).ravel()
    split = chebvander(points, size - 1).T.reshape(size, CHEB_SPLIT, size) \
        @ basis
    derivative = np.zeros((size, size))
    derivative[:, :-1] = chebder(np.eye(size), axis=0).T
    cells = chebvander(np.linspace(-1.0, 1.0, CHEB_CELLS + 1), size - 1).T
    return (nodes, basis, split.reshape(size, -1), derivative, cells,
            centres, half)


(_NODES, _BASIS, _SPLIT, _DERIVATIVE, _CELLS, _CENTRES,
 _HALF) = _chebyshev_tables()


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

    When its samples are well conditioned, ``_circle_roots`` gives the roots
    from one eigenvalue problem.  Otherwise ℝ is cut at the splits.
    Each finite interval maps onto x in [-1, 1] and its function is
    multiplied by the interval's end poles.  The ray below a maps by
    m = a − s(1+x)/(1−x), with s the geometric mean of the first interval
    and the whole span, and its function is multiplied by ((m−a)/(m−b))^mult
    at a; the ray above b is its mirror.  Each piece gets an adaptive
    Chebyshev interpolant, whose roots ``_interpolant_roots`` finds for all
    pieces at once; each simple root then gets one Newton step on the
    function."""
    splits = np.asarray(splits, dtype=float)
    roots = _circle_roots(evaluate, poles, splits, exclusion_radius)
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
def _circle_nodes(size: int) -> tuple[np.ndarray, ...]:
    """The nodes z_j = exp(iθ_j), θ_j = 2π(j + 1/8)/size, as cot(θ_j/2),
    1 - z_j and 1 + z_j, and the indices of those on the domain's arc
    Re z <= 0.  The shift 1/8 keeps every node off z = ±1 and ±i, the
    images of m = ∞, the domain's centre and its ends, for every size."""
    theta = 2.0 * np.pi * (np.arange(size) + 0.125) / size
    z = np.exp(1j * theta)
    return _frozen(1.0 / np.tan(0.5 * theta), 1.0 - z, 1.0 + z,
                   (z.real <= 0.0).nonzero()[0])


@functools.lru_cache(maxsize=None)
def _circle_tables(size: int) -> tuple[np.ndarray, ...]:
    """The matrix that takes a polynomial's values at the size
    ``_circle_nodes`` to its size coefficients, ascending (z_j^-k / size),
    and the companion matrix of a monic polynomial of degree size - 1, its
    last column zero.  They are kept apart from the nodes, so that a size
    whose samples fail the ratio test caches no size × size matrix."""
    theta = 2.0 * np.pi * (np.arange(size) + 0.125) / size
    return _frozen(np.exp(-1j * theta[:, None] * np.arange(size)) / size,
                   np.eye(size - 1, k=-1, dtype=complex))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    # cached tables are shared by every caller
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _circle_roots(evaluate, poles: np.ndarray, splits: np.ndarray,
                  exclusion_radius: float) -> Optional[list[float]]:
    """The roots ``_real_roots`` reports, from one eigenvalue problem, or
    None where they are left to the per-interval path.

    The map m = c + s·cot(θ/2), with c and s the centre and half-width of
    the splits, takes the real line onto the unit circle z = exp(iθ), and
    the domain onto its arc Re z <= 0.  The numerator
    P(z) = f(m)·Π((c − p)(1 − z) − is(1 + z))/(2s), over the poles p, is a
    polynomial of degree len(poles) in z: it is sampled at len(poles) + 1
    nodes on the circle, the sums of absolute terms times the factors'
    size giving each sample's size, and one discrete Fourier transform
    gives its coefficients.  The eigenvalues of their companion matrix
    within CHEB_IMAG_TOL of the circle are the real roots; each takes one
    Newton step on f, whose slope is a central difference over half
    CHEB_MERGE_TOL in θ, and the roots within ``exclusion_radius`` of a
    split are dropped.

    It gives None when the median sample size on the arc is below
    CIRCLE_ARC_RATIO of the largest, and when a sample is not finite, the
    leading coefficient is rounding (a root at z = ∞), an eigenvalue lies
    in the band CHEB_IMAG_TOL..CIRCLE_BAND off the circle (a near-real pair
    or a split multiple root), two roots lie within CHEB_MERGE_TOL in θ, a
    Newton step is longer than that in θ, or a root lies at a quarter of
    the distance at which the per-interval path takes it for the point at
    infinity, or beyond (near z = 1)."""
    a, b = splits[0], splits[-1]
    c, s = 0.5 * (a + b), 0.5 * (b - a)
    size = len(poles) + 1
    cot, minus, plus, arc = _circle_nodes(size)
    if not len(arc):
        return None
    values, sizes = evaluate(c + s * cot)
    factor = (((c - poles) * minus[:, None] - 1j * s * plus[:, None])
              / (2.0 * s)).prod(axis=1)
    samples = values * factor
    sizes = sizes * np.abs(factor)
    largest = sizes.max()
    on_arc = sizes[arc]
    on_arc.sort()
    median = 0.5 * (on_arc[(len(arc) - 1) // 2] + on_arc[len(arc) // 2])
    if not (median >= CIRCLE_ARC_RATIO * largest
            and np.isfinite(samples).all()):
        return None
    transform, companion = _circle_tables(size)
    coef = samples @ transform
    if not abs(coef[-1]) > CHEB_TAIL_REL * largest:
        return None
    companion = companion.copy()
    companion[:, -1] = -coef[:-1] / coef[-1]
    z = np.linalg.eigvals(companion)
    off = np.abs(np.abs(z) - 1.0)
    if ((off > CHEB_IMAG_TOL) & (off <= CIRCLE_BAND)).any():
        return None
    z = z[off <= CHEB_IMAG_TOL]
    theta = np.arctan2(z.imag, z.real) % (2.0 * np.pi)
    theta.sort()
    # the per-interval path's rays run m = b + ℓ(1+x)/(1−x) above b, ℓ the
    # geometric mean of the last interval and the domain, and mirrored
    # below a; a root at x >= 1 − CHEB_MERGE_TOL is the point at infinity,
    # at m − b = ℓ(2 − CHEB_MERGE_TOL)/CHEB_MERGE_TOL
    reach = 0.25 / CHEB_MERGE_TOL * np.sqrt(
        (splits[[-1, 1]] - splits[[-2, 0]]) * (b - a))
    last, first = 2.0 * np.arctan(s / (s + reach))
    if (theta[1:] - theta[:-1] <= CHEB_MERGE_TOL).any() or len(theta) and (
            theta[0] <= last or theta[-1] >= 2.0 * np.pi - first):
        return None
    m = c + s / np.tan(0.5 * theta)
    # the Newton step is in m, its half-step dm/dθ = ((m − c)² + s²)/(2s)
    # times half CHEB_MERGE_TOL
    scale = ((m - c) ** 2 + s * s) / (2.0 * s)
    h = 0.5 * CHEB_MERGE_TOL * scale
    below, at, above = evaluate(
        (m[:, None] + h[:, None] * (-1.0, 0.0, 1.0)).ravel())[0].reshape(
            -1, 3).T
    slope = above - below
    if not (np.abs(at) * 2.0 * h < CHEB_MERGE_TOL * scale * np.abs(slope)
            ).all():
        return None
    m -= at * 2.0 * h / slope
    keep = (np.abs(m[:, None] - splits) > exclusion_radius).all(axis=1)
    return sorted(m[keep].tolist())


def _interpolant_roots(coef: np.ndarray, tol: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of the Chebyshev series in the rows of ``coef``, as the
    row and x of each root: the eigenvalues of the colleague matrix of each
    series, with its coefficients at or below ``tol`` dropped from the top,
    whose imaginary part is at most CHEB_IMAG_TOL and whose real part lies
    in the window |x| <= 1 + CHEB_IMAG_TOL, mostly found without an
    eigenvalue solve.  A series has none to look for when its coefficients
    are not finite, it is constant, or its constant term bounds the rest
    away from zero.

    A series with a root to look for is cut into CHEB_SPLIT sub-intervals.
    A sub-interval is settled when its own series has a constant term
    that exceeds the sum of the other terms' sizes by more than ``tol``
    (no root), or its derivative series has one (monotone) and its end
    values clear ``tol`` (one root if their signs differ, none if not).
    A near-double root or close pair, a root on or near an edge and a
    flat stretch fail both tests.  A root's Newton steps must end within
    CHEB_ROOT_TOL of a sign change, or its sub-interval is unsettled too;
    a series with any sub-interval left unsettled goes whole to
    ``chebroots``."""
    size = coef.shape[1]
    big = np.abs(coef) > tol[:, None]
    # the series with a root to look for
    rows = (np.isfinite(coef).all(axis=1) & big[:, 1:].any(axis=1)
            & (np.abs(coef[:, 0]) <= np.abs(coef[:, 1:]).sum(axis=1))
            ).nonzero()[0]
    # the series as chebroots gets them, cut to the longest among them
    top = size - big[rows, ::-1].argmax(axis=1)
    terms = np.arange(top.max(initial=1))
    c = np.where(terms < top[:, None], coef[rows, : len(terms)], 0.0)
    t = tol[rows, None]

    # each sub-interval's series and derivative series, and how far their
    # constant terms exceed the sum of the other terms' sizes
    sub = (c @ _SPLIT[: len(terms)]).reshape(len(rows), CHEB_SPLIT, size)
    sizes = np.abs(np.array((sub, sub @ _DERIVATIVE)))
    margin = 2.0 * sizes[..., 0] - sizes.sum(axis=-1)
    values = sub @ _CELLS
    ends = values[..., [0, -1]]
    free = margin[0] > t
    monotone = (margin[1] > t) & (np.abs(ends) > t[..., None]).all(axis=-1)
    settled = (free | monotone).all(axis=1)
    crossing = monotone & settled[:, None] & (
        (ends[..., 0] < 0) != (ends[..., 1] < 0))

    # each root starts from linear interpolation in the cell where the
    # values change sign and stays in that cell; its Newton steps run on
    # the series itself, whose roots chebroots would report
    r, k = crossing.nonzero()
    negative = values[r, k] < 0
    cell = (negative[:, 1:] != negative[:, :-1]).argmax(axis=1)
    below = values[r, k, cell]
    width = 2.0 / CHEB_CELLS
    start = -1.0 + width * cell
    share = below / (below - values[r, k, cell + 1])
    lo, x, hi = (_CENTRES[k] + _HALF * y
                 for y in (start, start + width * share, start + width))
    pair = np.concatenate((c[r], c[r] @ _DERIVATIVE[: len(terms), : len(terms)]),
                          axis=1).reshape(len(r), 2, len(terms))

    def at(points, series):
        # T_k(x) = cos(k·arccos x), also for the |x| > 1 the window allows
        basis = np.cos(np.arccos(points + 0j)[..., None] * terms).real
        return series @ basis.swapaxes(1, 2)

    for _ in range(CHEB_NEWTON_STEPS):
        value, slope = at(x[:, None], pair)[..., 0].T
        x = (x - value / slope).clip(lo, hi)
    # the steps need not have converged (a vertex just past the window can
    # throw them off), so the sign change is checked
    probe = (x[:, None] + (-CHEB_ROOT_TOL, CHEB_ROOT_TOL)).clip(lo[:, None],
                                                                hi[:, None])
    near = at(probe, c[r][:, None])[:, 0]
    settled[r[np.sign(near[:, 0]) * np.sign(near[:, 1]) > 0]] = False
    x = x[settled[r]]
    r = r[settled[r]]

    rest = (~settled).nonzero()[0]
    found = [chebroots(c[k, : top[k]]) for k in rest]
    row = np.concatenate([r] + [np.full(len(z), k)
                                for k, z in zip(rest, found)])
    z = np.concatenate([x] + found)
    real = (np.abs(z.imag) <= CHEB_IMAG_TOL) \
        & (np.abs(z.real) <= 1.0 + CHEB_IMAG_TOL)
    return rows[row[real]], z.real[real]


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
    if abs(alpha) * nv <= 1e-12 * offset_scale or \
            abs(beta) * nw <= 1e-12 * offset_scale:
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
            1e-6 * max(1.0, np.linalg.norm(target)):
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
    on the opposite boundary after the ruling-collapsing rescale."""
    d_prime_a = as_point3(d_prime_a)
    a, b = curve.domain
    start_velocity = curve.derivative_at(a)
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
