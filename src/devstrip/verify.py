"""Independent developability checks.

Everything here judges a ruled patch purely by sampling curve positions and
derivatives; none of it reads strip parameters or the polygon recursion, so
these routines can serve as oracles for the constructive code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import _point_and_velocity, _row_norms
from .strip import RuledPatch

# Rulings shorter than this fraction of the patch scale are collapsed points
# (apex of a triangular patch); the tangent-plane test is 0/0 there.
COLLAPSED_RULING_REL = 1e-9

NORM_FLOOR_REL = 1e-12

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

    At each parameter the residual is |det(c', d', d−c)| divided by the
    product of the three factor norms; a ruled surface is developable exactly
    when the plane spanned by the ruling and either tangent contains the
    other tangent, which makes the determinant vanish.
    """
    if samples_per_piece < 2:
        raise ValueError("samples_per_piece must be at least 2")
    block = np.hstack((patch.base.control, patch.opposite.control))
    # the largest norm of a control point of either boundary, at least 1
    scale = max(1.0, np.max(np.linalg.norm(block.reshape(-1, 3), axis=1)))
    floor = NORM_FLOOR_REL * scale

    knots = patch.knots
    lo, hi = knots._array[knots._spans], knots._array[knots._spans + 1]
    off = KNOT_SAMPLE_OFFSET_REL * (hi - lo)
    us = np.linspace(lo + off, hi - off, samples_per_piece, axis=1).ravel()
    # each sample lies inside its own piece, so its span needs no search
    spans = np.repeat(knots._spans, samples_per_piece)
    points, velocities = _point_and_velocity(knots, block, spans, us)
    c, d = points[:, :3], points[:, 3:]
    cv, dv = velocities[:, :3], velocities[:, 3:]
    ruling = d - c
    r_len = _row_norms(ruling)
    kept = ~(r_len < COLLAPSED_RULING_REL * scale)
    skipped = len(us) - int(np.count_nonzero(kept))
    us, ruling, r_len, cv, dv = us[kept], ruling[kept], r_len[kept], cv[kept], dv[kept]
    det = np.linalg.det(np.stack((cv, dv, ruling), axis=-1))
    denom = (np.maximum(_row_norms(cv), floor)
             * np.maximum(_row_norms(dv), floor)
             * np.maximum(r_len, floor))
    # Entry 0 stands for "nothing positive yet"; argmax takes the first
    # maximum, and NaN residuals never count as the worst.
    residual = np.concatenate(([0.0], np.abs(det) / denom))
    residual[~(residual > 0.0)] = 0.0
    worst = int(np.argmax(residual))
    arg = float(us[worst - 1]) if worst else patch.domain[0]
    return DevelopabilityScan(float(residual[worst]), arg, len(us), skipped)


def planarity_report(strip: RuledPatch) -> list[float]:
    """Planarity residual of every control net cell, in order.

    Cell i is the point quadruple (c_i, c_{i+1}, d_i, d_{i+1}).  Its
    residual is |det(c_{i+1} - c_i, d_i - c_i, d_{i+1} - c_i)| divided by
    the product of the three argument norms (each floored at 1e-12 of the
    cell scale); zero exactly when the four points are coplanar.
    """
    c = strip.base.control
    d = strip.opposite.control
    ci, cj, di, dj = c[:-1], c[1:], d[:-1], d[1:]
    e1, e2, e3 = cj - ci, di - ci, dj - ci
    det = np.linalg.det(np.stack((e1, e2, e3), axis=-1))
    corners = np.maximum.reduce([_row_norms(p) for p in (ci, cj, di, dj)])
    floor = 1e-12 * np.maximum(1.0, corners)
    n1, n2, n3 = (np.maximum(_row_norms(e), floor) for e in (e1, e2, e3))
    return (np.abs(det) / (n1 * n2 * n3)).tolist()
