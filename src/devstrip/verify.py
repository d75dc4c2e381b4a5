"""Independent developability checks.

Everything here judges a ruled patch purely by sampling curve positions and
derivatives; none of it reads strip parameters or the polygon recursion, so
these routines can serve as oracles for the constructive code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bspline import _bezier_points, _row_norms
from .strip import RuledPatch

# Rulings shorter than this fraction of the patch scale are collapsed points
# (apex of a triangular patch); the tangent-plane test is 0/0 there.
COLLAPSED_RULING_REL = 1e-9

# developability_scan floors each factor norm of a sample's residual at this
# fraction of the patch scale: max(1, the largest control-point norm of
# either boundary).
NORM_FLOOR_REL = 1e-12
# planarity_report floors each edge norm of a cell at this fraction of the
# cell scale: max(1, the largest norm of its four corners).
PLANARITY_FLOOR_REL = 1e-12

# Samples sit this fraction of a piece inward from its ends, so one-sided
# derivative jumps at inner knots never decide the verdict.
KNOT_SAMPLE_OFFSET_REL = 1e-9


@dataclass(frozen=True)
class DevelopabilityScan:
    """Full sampling record behind a developability verdict."""

    max_residual: float
    argmax_u: float
    samples: int
    skipped: int


def developability_scan(patch: RuledPatch,
                        samples_per_piece: int = 100) -> DevelopabilityScan:
    """Sample the normalized tangent-plane determinant over every piece.

    At each parameter the residual is |(c' x d') . (d - c)| divided by the
    product of the three factor norms; a ruled surface is developable
    exactly when the plane spanned by the ruling and either tangent
    contains the other tangent, which makes the triple product vanish.
    Points and velocities come from the Bézier points of every piece
    through one table shared by all pieces (see `_sample_table`).
    """
    if samples_per_piece < 2:
        raise ValueError("samples_per_piece must be at least 2")
    S = samples_per_piece
    block = np.hstack((patch.base.control, patch.opposite.control))
    # the largest norm of a control point of either boundary, at least 1:
    # the root of the largest row sum, as np.linalg.norm(axis=1) rounds it
    scale = max(1.0, math.sqrt((block * block).reshape(-1, 3).sum(axis=1).max()))
    floor = NORM_FLOOR_REL * scale

    knots = patch.knots
    n = knots.degree
    lo, hi = knots._array[knots._spans], knots._array[knots._spans + 1]
    width = hi - lo
    # one row of n+1 Bézier coordinates per (block column, piece), which
    # the table turns into S point coordinates, then S derivatives in t
    bezier = _bezier_points(knots, block).transpose(2, 0, 1).reshape(-1, n + 1)
    values = (bezier @ _sample_table(n, S)).reshape(6, -1, 2 * S)
    # c', d' and d - c, each as (3, pieces, S): samples piece by piece
    factors = np.empty((3, 3, len(width), S))
    np.divide(values[:, :, S:].reshape(2, 3, -1, S), width[:, None],
              out=factors[:2])
    np.subtract(values[3:, :, :S], values[:3, :, :S], out=factors[2])
    cv, dv, ruling = factors
    det = ((cv[1] * dv[2] - cv[2] * dv[1]) * ruling[0]
           + (cv[2] * dv[0] - cv[0] * dv[2]) * ruling[1]
           + (cv[0] * dv[1] - cv[1] * dv[0]) * ruling[2])
    norms = np.sqrt((factors * factors).sum(axis=1))
    collapsed = (norms[2] < COLLAPSED_RULING_REL * scale).ravel()
    skipped = int(np.count_nonzero(collapsed))
    residual = (np.abs(det) / np.maximum(norms, floor).prod(axis=0)).ravel()
    # argmax takes the first maximum; NaN residuals and collapsed rulings
    # never count as the worst
    residual[~(residual > 0.0) | collapsed] = 0.0
    worst = int(residual.argmax())
    arg = patch.domain[0]
    if residual[worst] > 0.0:
        piece, s = divmod(worst, S)
        off = KNOT_SAMPLE_OFFSET_REL * width[piece]
        # sample s of np.linspace(start, stop, S), by its own formula
        start, stop = lo[piece] + off, hi[piece] - off
        arg = float(stop if s == S - 1 else start + s * ((stop - start) / (S - 1)))
    return DevelopabilityScan(float(residual[worst]), arg,
                              residual.size - skipped, skipped)


@functools.lru_cache(maxsize=16)
def _sample_table(degree: int, samples: int) -> np.ndarray:
    """Values and derivatives of the degree-n Bernstein polynomials at the
    scan's relative sample positions, as a read-only (n+1, 2S) table.

    Sample s sits at t_s = r + s/(S-1) (1 - 2r) of its piece, r being
    KNOT_SAMPLE_OFFSET_REL.  Columns 0..S-1 hold B_{i,n}(t_s); columns
    S..2S-1 hold n (B_{i-1,n-1} - B_{i,n-1})(t_s), the derivative in t, so
    Bézier points times the table give the points and, per unit of the
    piece's width, the velocities at every sample."""
    n = degree
    t = (KNOT_SAMPLE_OFFSET_REL + np.arange(samples) / (samples - 1)
         * (1.0 - 2.0 * KNOT_SAMPLE_OFFSET_REL))

    def bernstein(m):
        i = np.arange(m + 1)[:, None]
        return (np.array([math.comb(m, k) for k in range(m + 1)])[:, None]
                * t ** i * (1.0 - t) ** (m - i))

    table = np.zeros((n + 1, 2 * samples))
    table[:, :samples] = bernstein(n)
    lower = n * bernstein(n - 1)
    table[1:, samples:] += lower
    table[:-1, samples:] -= lower
    table.flags.writeable = False
    return table


def planarity_report(strip: RuledPatch) -> list[float]:
    """Planarity residual of every control net cell, in order.

    Cell i is the point quadruple (c_i, c_{i+1}, d_i, d_{i+1}).  Its
    residual is |det(c_{i+1} - c_i, d_i - c_i, d_{i+1} - c_i)| divided by
    the product of the three argument norms (each floored at
    PLANARITY_FLOOR_REL of the cell scale); zero exactly when the four
    points are coplanar.
    """
    c = strip.base.control
    d = strip.opposite.control
    ci, cj, di, dj = c[:-1], c[1:], d[:-1], d[1:]
    e1, e2, e3 = cj - ci, di - ci, dj - ci
    det = np.linalg.det(np.array((e1, e2, e3)).transpose(1, 2, 0))
    corners = np.maximum.reduce([_row_norms(p) for p in (ci, cj, di, dj)])
    floor = PLANARITY_FLOOR_REL * np.maximum(1.0, corners)
    n1, n2, n3 = (np.maximum(_row_norms(e), floor) for e in (e1, e2, e3))
    return (np.abs(det) / (n1 * n2 * n3)).tolist()
