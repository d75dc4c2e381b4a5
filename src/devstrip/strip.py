"""Ruled patches and the constant-parameter family of developable strips.

A strip couples two curves c(u), d(u) over one knot vector through two
constants (lambda_star, m_star) satisfying, for every net cell i,

    (u_{i+n} - lambda_star) c_i + (lambda_star - u_i) c_{i+1}
  = (u_{i+n} - m_star)     d_i + (m_star - u_i)      d_{i+1},

which forces every cell of the net to be planar and the swept ruled
surface to be developable.
"""

from __future__ import annotations

import numpy as np

from .bspline import BSplineCurve, as_point3, _evaluate, _row_norms

# Strips are rejected when the control relation defect exceeds this.
CONTROL_RELATION_TOL = 1e-9
# m_star closer than this fraction of the domain to a knot is a pole.
POLE_GUARD_REL = 1e-6
# A cell's control-relation defect is divided by its largest term norm,
# floored at this fraction of the polygon scale: max(1, the largest norm of
# a control point of either polygon).
RELATION_FLOOR_REL = 1e-12


class RuledPatch:
    """Two curves over one knot vector, linked by straight rulings."""

    __slots__ = ("_base", "_opposite")

    def __init__(self, base: BSplineCurve, opposite: BSplineCurve):
        if base.knots != opposite.knots:
            raise ValueError("boundary curves must share one knot vector")
        self._base = base
        self._opposite = opposite

    @property
    def base(self) -> BSplineCurve:
        return self._base

    @property
    def opposite(self) -> BSplineCurve:
        return self._opposite

    @property
    def knots(self):
        return self._base.knots

    @property
    def domain(self) -> tuple[float, float]:
        return self._base.domain

    def ruled_eval(self, u, v) -> np.ndarray:
        """Point b(u, v) = (1 - v) c(u) + v d(u).

        v outside [0, 1] extends the patch along the ruling lines.  Each of
        u and v is a scalar or 1-D; arrays give the grid of points, shaped
        u.shape + v.shape + (3,).
        """
        both = _evaluate(self.knots, np.hstack((self._base.control,
                                                self._opposite.control)), u)
        c, d = both[..., :3], both[..., 3:]
        v = np.asarray(v, dtype=float)
        if v.ndim:
            c, d, v = c[..., None, :], d[..., None, :], v[:, None]
        return (1.0 - v) * c + v * d


class DevelopableStrip(RuledPatch):
    """A ruled patch whose net satisfies the constant-parameter relation.

    The constructor validates the relation eagerly, naming the worst cell,
    since the solvers downstream rely on it.  Both sides of a cell's
    relation are affine combinations with the same weight sum, so the lines
    c_i c_{i+1} and d_i d_{i+1} meet and the cell is planar; planarity is
    measured separately, as an independent check, by verify.planarity_report.
    """

    __slots__ = ("_lambda_star", "_m_star")

    def __init__(
        self,
        base: BSplineCurve,
        opposite: BSplineCurve,
        lambda_star: float,
        m_star: float,
    ):
        super().__init__(base, opposite)
        self._lambda_star = float(lambda_star)
        self._m_star = float(m_star)
        residuals = control_relation_residuals(base, opposite, lambda_star, m_star)
        worst = int(residuals.argmax())
        if residuals[worst] > CONTROL_RELATION_TOL:
            raise ValueError(
                f"control relation fails at cell {worst}: residual "
                f"{residuals[worst]:.3e} above {CONTROL_RELATION_TOL:.0e}"
            )

    @property
    def lambda_star(self) -> float:
        return self._lambda_star

    @property
    def m_star(self) -> float:
        return self._m_star

    def __repr__(self) -> str:
        return (
            f"DevelopableStrip(degree={self.base.degree}, "
            f"pieces={self.base.pieces}, lambda_star={self._lambda_star}, "
            f"m_star={self._m_star})"
        )


def propagate_polygon(
    c: BSplineCurve, d0, lambda_star: float, m_star: float
) -> BSplineCurve:
    """Opposite polygon from the forward recursion of the control relation.

    Solving the cell relation for d_{i+1}:

        d_{i+1} = ((u_{i+n} - lambda_star) c_i + (lambda_star - u_i) c_{i+1}
                   + (m_star - u_{i+n}) d_i) / (m_star - u_i)

    m_star must stay away from the knots u_0..u_{L-1} appearing in the
    denominators.
    """
    u = c.knots
    n = c.degree
    control = c.control
    cells = len(control) - 1
    a, b = c.domain
    guard = POLE_GUARD_REL * (b - a)
    lam = float(lambda_star)
    m = float(m_star)
    lo, hi = u._array[:cells], u._array[n : n + cells]
    near = (np.abs(m - lo) <= guard).nonzero()[0]
    if near.size:
        i = int(near[0])
        raise ValueError(
            f"m_star = {m} is within the pole guard of knot {i} = {u[i]}"
        )
    # the c-terms of every cell's numerator, then the recursion through d
    # in Python floats: the same IEEE operations, coordinate by coordinate
    fixed = (hi - lam)[:, None] * control[:-1] + (lam - lo)[:, None] * control[1:]
    x, y, z = as_point3(d0).tolist()
    d = [(x, y, z)]
    for (f, g, h), k, q in zip(fixed.tolist(), (m - hi).tolist(),
                               (m - lo).tolist()):
        x, y, z = (f + k * x) / q, (g + k * y) / q, (h + k * z) / q
        d.append((x, y, z))
    return BSplineCurve(u, d)


def control_relation_residuals(
    base: BSplineCurve, opposite: BSplineCurve, lambda_star: float, m_star: float
) -> np.ndarray:
    """Per-cell normalized defect of the control relation.

    The defect of cell i is divided by the largest of the four term norms
    (floored at RELATION_FLOOR_REL of the polygon scale), so the result is
    unit-free.
    """
    if base.knots != opposite.knots:
        raise ValueError("boundary curves must share one knot vector")
    n = base.degree
    c = base.control
    d = opposite.control
    cells = len(c) - 1
    lam = float(lambda_star)
    m = float(m_star)
    scale = max(1.0, float(np.linalg.norm(np.concatenate((c, d)), axis=1).max()))
    floor = RELATION_FLOOR_REL * scale
    lo = base.knots._array[:cells, None]
    hi = base.knots._array[n : n + cells, None]
    terms = (
        (hi - lam) * c[:-1],
        (lam - lo) * c[1:],
        -(hi - m) * d[:-1],
        -(m - lo) * d[1:],
    )
    defect = _row_norms(terms[0] + terms[1] + terms[2] + terms[3])
    norms = _row_norms(np.concatenate(terms)).reshape(len(terms), cells)
    denom = np.maximum(norms.max(axis=0), floor)
    return defect / denom
