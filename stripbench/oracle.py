"""Independent checks of solved surfaces.

Curves are evaluated with scipy.interpolate.BSpline over the padded knot
list, never with devstrip's de Boor code.  Each check returns a list of
faults; an empty list means the surface passed.  Positions are compared
relative to the patch scale max(1, largest control point norm).
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import BSpline

POINT_REL = 1e-8
# solve_problem1 accepts a recursion whose last ruling misses its target
# by up to 1e-6 of the target's length, so conditions at the far end of
# the strip (the last ruling's direction, and d(b) after the rescale of
# problems 2 and 3) are held to that share instead.
FAR_END_REL = 1e-6
# OBJ files keep 9 significant digits.
OBJ_REL = 1e-7
# Normalized |det(c', d', d - c)|; devstrip's own verify promises 1e-8.
DEVELOPABLE_TOL = 1e-8
# Rulings shorter than this share of the scale are an apex: 0/0 there.
COLLAPSED_REL = 1e-9
# Interior samples per piece, at (k + 1/2) / SAMPLES_PER_PIECE of the span.
SAMPLES_PER_PIECE = 7


class Curve:
    """A spline given by degree, knots and control points, as scipy sees it."""

    def __init__(self, degree: int, knots, control):
        knots = np.asarray(knots, dtype=float)
        control = np.asarray(control, dtype=float)
        if len(knots) == len(control) + degree - 1:
            knots = np.concatenate((knots[:1], knots, knots[-1:]))
        if len(knots) != len(control) + degree + 1:
            raise ValueError(f"{len(knots)} knots do not fit {len(control)} "
                             f"control points of degree {degree}")
        self.degree = degree
        self.control = control
        self.spline = BSpline(knots, control, degree)
        self.domain = (float(knots[degree]), float(knots[-degree - 1]))
        inside = knots[degree:len(knots) - degree]
        self.breaks = np.unique(inside)

    @classmethod
    def of(cls, curve) -> "Curve":
        """Copy of a devstrip curve's data, read through its attributes."""
        return cls(curve.degree, list(curve.knots), np.array(curve.control))

    def __call__(self, u, nu: int = 0) -> np.ndarray:
        return self.spline(u, nu)


def _scale(*curves: Curve) -> float:
    return max(1.0, *(float(np.max(np.linalg.norm(c.control, axis=1)))
                      for c in curves))


def _samples(curve: Curve) -> np.ndarray:
    offsets = (np.arange(SAMPLES_PER_PIECE) + 0.5) / SAMPLES_PER_PIECE
    lo, hi = curve.breaks[:-1], curve.breaks[1:]
    return (lo[:, None] + offsets[None, :] * (hi - lo)[:, None]).ravel()


def point_faults(what: str, got, want, scale: float,
                 rel: float = POINT_REL) -> list[str]:
    gap = float(np.linalg.norm(np.asarray(got) - np.asarray(want)))
    if not gap <= rel * scale:
        return [f"{what} misses its target by {gap:.3e}"]
    return []


def degree_faults(surface: Curve, expected: int) -> list[str]:
    if surface.degree != expected:
        return [f"degree {surface.degree}, expected {expected}"]
    return []


def same_curve_faults(given: Curve, output: Curve) -> list[str]:
    """The solve keeps the given curve as its base, possibly re-expressed."""
    if not np.allclose(given.domain, output.domain):
        return [f"base domain {output.domain} differs from {given.domain}"]
    us = np.linspace(*given.domain, 4 * SAMPLES_PER_PIECE * len(given.breaks))
    gap = float(np.max(np.linalg.norm(given(us) - output(us), axis=1)))
    if not gap <= POINT_REL * _scale(given, output):
        return [f"base curve moved by {gap:.3e}"]
    return []


def direction_faults(what: str, ruling, direction) -> list[str]:
    r_len = float(np.linalg.norm(ruling))
    d_len = float(np.linalg.norm(direction))
    if r_len == 0.0:
        return [f"{what} has zero length"]
    sine = float(np.linalg.norm(np.cross(ruling, direction))) / (r_len * d_len)
    if not sine <= FAR_END_REL:
        return [f"{what} is off its prescribed direction (sine {sine:.3e})"]
    return []


def developability_faults(base: Curve, opposite: Curve) -> list[str]:
    """Sampled normalized determinant of the two tangents and the ruling."""
    scale = _scale(base, opposite)
    floor = 1e-12 * scale
    us = _samples(base)
    cv, dv = base(us, 1), opposite(us, 1)
    ruling = opposite(us) - base(us)
    r_len = np.linalg.norm(ruling, axis=1)
    keep = r_len >= COLLAPSED_REL * scale
    if not np.any(keep):
        return ["every sampled ruling is collapsed"]
    det = np.linalg.det(np.stack((cv, dv, ruling), axis=-1))
    denom = (np.maximum(np.linalg.norm(cv, axis=1), floor)
             * np.maximum(np.linalg.norm(dv, axis=1), floor)
             * np.maximum(r_len, floor))
    worst = float(np.max(np.abs(det[keep]) / denom[keep]))
    if not worst <= DEVELOPABLE_TOL:
        return [f"developability residual {worst:.3e} above "
                f"{DEVELOPABLE_TOL:.0e}"]
    return []


def problem1_faults(given: Curve, base: Curve, opposite: Curve, v, w, *,
                    d0=None, dL=None) -> list[str]:
    """Anchor and end-ruling conditions of a strip from two rulings."""
    a, b = base.domain
    scale = _scale(base, opposite)
    faults = degree_faults(base, given.degree) + same_curve_faults(given, base)
    if d0 is not None:
        faults += point_faults("d(a)", opposite(a), d0, scale)
        faults += direction_faults("last ruling", opposite(b) - base(b), w)
    else:
        faults += point_faults("d(b)", opposite(b), dL, scale, FAR_END_REL)
        faults += direction_faults("first ruling", opposite(a) - base(a), v)
    return faults + developability_faults(base, opposite)


def problem2_faults(given: Curve, base: Curve, opposite: Curve,
                    d0, dL) -> list[str]:
    """Corner interpolation at degree n + 1."""
    a, b = base.domain
    scale = _scale(base, opposite)
    faults = (degree_faults(base, given.degree + 1)
              + degree_faults(opposite, given.degree + 1)
              + same_curve_faults(given, base))
    faults += point_faults("d(a)", opposite(a), d0, scale)
    faults += point_faults("d(b)", opposite(b), dL, scale, FAR_END_REL)
    return faults + developability_faults(base, opposite)


def problem3_faults(given: Curve, base: Curve, opposite: Curve,
                    dL, apex_velocity) -> list[str]:
    """Triangular patch at degree n + 2: apex on the curve, prescribed
    start velocity, far corner on dL."""
    a, b = base.domain
    scale = _scale(base, opposite)
    faults = (degree_faults(base, given.degree + 2)
              + degree_faults(opposite, given.degree + 2)
              + same_curve_faults(given, base))
    faults += point_faults("d(a)", opposite(a), given(a), scale)
    velocity_scale = max(scale, float(np.linalg.norm(apex_velocity)))
    faults += point_faults("d'(a)", opposite(a, 1), apex_velocity,
                           velocity_scale)
    faults += point_faults("d(b)", opposite(b), dL, scale, FAR_END_REL)
    return faults + developability_faults(base, opposite)


def obj_faults(text: str, base: Curve, opposite: Curve, u_samples: int,
               v_samples: int) -> list[str]:
    """OBJ vertices against the surface sampled as the file format states:
    u-major rows, u_samples per piece with shared piece ends, v_samples
    evenly spaced along each ruling, a collapsed first row as one vertex."""
    got = np.array([[float(x) for x in line.split()[1:4]]
                    for line in text.splitlines() if line.startswith("v ")])
    rows = [np.linspace(lo, hi, u_samples)[(0 if k == 0 else 1):]
            for k, (lo, hi) in enumerate(zip(base.breaks, base.breaks[1:]))]
    us = np.concatenate(rows)
    vs = np.linspace(0.0, 1.0, v_samples)
    c, d = base(us), opposite(us)
    grid = (1.0 - vs)[None, :, None] * c[:, None, :] \
        + vs[None, :, None] * d[:, None, :]
    scale = max(1.0, float(np.max(np.linalg.norm(grid, axis=2))))
    if np.all(np.linalg.norm(grid[0] - grid[0, 0], axis=1)
              <= COLLAPSED_REL * scale):
        want = np.vstack((grid[0, :1], grid[1:].reshape(-1, 3)))
    else:
        want = grid.reshape(-1, 3)
    if got.shape != want.shape:
        return [f"OBJ holds {len(got)} vertices, the surface needs "
                f"{len(want)}"]
    gap = float(np.max(np.linalg.norm(got - want, axis=1)))
    if not gap <= OBJ_REL * scale:
        return [f"OBJ vertex lies {gap:.3e} off the surface"]
    return []
