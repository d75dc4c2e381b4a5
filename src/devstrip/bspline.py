"""B-spline curves in polar (blossom) form.

Knot lists follow the polar-form indexing convention: a curve of degree
``n`` with control points ``c_0..c_L`` carries knots ``u_0..u_K`` with
``K = L + n - 1``, so that every control point is a blossom value of
consecutive knots, ``c_i = c[u_i, ..., u_{i+n-1}]``.  The curve is
parametrised exactly on ``[u_{n-1}, u_L]``.  Constructors also accept the
padded convention with one extra knot at each end (common in NURBS
libraries); the two extreme knots never enter a blossom window and are
dropped.

Everything in this module is a pure function of immutable values: curves
and knot vectors never mutate, and all operations return new objects.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Knots closer than this fraction of the domain length are one knot.
KNOT_EQ_REL = 1e-12


def as_point3(value) -> np.ndarray:
    """Coerce to a float64 array of shape (3,), requiring finite entries."""
    p = np.asarray(value, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"expected a 3-component point, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"point has non-finite components: {p}")
    return p


def _row_norms(points: np.ndarray) -> np.ndarray:
    """Norm of every row of a (k, 3) array, bit for bit np.linalg.norm of the
    row (a BLAS dot product); norm(axis=1) rounds differently."""
    return np.sqrt((points[:, None, :] @ points[:, :, None])[:, 0, 0])


def as_points(values) -> np.ndarray:
    """Coerce to a float64 array of shape (m, 3) of finite points."""
    pts = np.asarray(values, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (m, 3) array of points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("control points contain non-finite components")
    return pts


class KnotVector(Sequence):
    """Nondecreasing knot list with degree and piece bookkeeping.

    Validity requires: nondecreasing entries, a positive-length domain,
    no knot multiplicity above the degree, and nondegenerate first and
    last domain spans (otherwise boundary control points would have no
    influence on the curve).
    """

    __slots__ = ("_knots", "_array", "_degree", "_tol", "_spans", "_starts")

    def __init__(self, knots: Sequence[float], degree: int):
        if not isinstance(degree, int) or degree < 1:
            raise ValueError(f"degree must be a positive integer, got {degree!r}")
        values = tuple(map(float, knots))
        count = len(values)
        if count < 2 * degree:
            raise ValueError(
                f"need at least {2 * degree} knots for degree {degree}, got {count}"
            )
        if not np.isfinite(values).all():
            raise ValueError("knots contain non-finite values")
        for i in range(count - 1):
            if values[i] > values[i + 1]:
                raise ValueError(
                    f"knots must be nondecreasing: knot {i + 1} = {values[i + 1]} "
                    f"is below knot {i} = {values[i]}"
                )
        n = degree
        last = count - n  # index L: domain is [u_{n-1}, u_L]
        span_of_domain = values[last] - values[n - 1]
        if not span_of_domain > 0.0:
            raise ValueError("domain interval has zero length")
        tol = KNOT_EQ_REL * span_of_domain

        # multiplicity above the degree would disconnect the curve; a run
        # continues while each knot lies within tol of its predecessor
        run_start = 0
        for i in range(1, count + 1):
            if i == count or values[i] - values[i - 1] > tol:
                if i - run_start > n:
                    raise ValueError(
                        f"knot value {values[run_start]} has multiplicity "
                        f"{i - run_start}, above the degree {n}"
                    )
                run_start = i

        if values[n] - values[n - 1] <= tol:
            raise ValueError("first domain span is degenerate")
        if values[last] - values[last - 1] <= tol:
            raise ValueError("last domain span is degenerate")

        self._knots = values
        self._array = np.array(values)
        self._degree = n
        self._tol = tol
        # knot index j of every nondegenerate span [u_j, u_{j+1}] of the domain
        domain = self._array[n - 1 : last + 1]
        self._spans = n - 1 + (domain[1:] - domain[:-1] > tol).nonzero()[0]
        self._starts = self._array[self._spans]

    # -- sequence protocol over the raw knot values --------------------

    def __len__(self) -> int:
        return len(self._knots)

    def __getitem__(self, i):
        return self._knots[i]

    def __iter__(self):
        return iter(self._knots)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnotVector):
            return NotImplemented
        return self._degree == other._degree and self._knots == other._knots

    def __hash__(self) -> int:
        return hash((self._degree, self._knots))

    def __repr__(self) -> str:
        return f"KnotVector({list(self._knots)}, degree={self._degree})"

    # -- bookkeeping ----------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def pieces(self) -> int:
        """Number of nondegenerate spans inside the domain."""
        return len(self._spans)

    @property
    def control_count(self) -> int:
        return len(self._knots) - self._degree + 1

    @property
    def domain(self) -> tuple[float, float]:
        n = self._degree
        return self._knots[n - 1], self._knots[len(self._knots) - n]

    @property
    def knot_tolerance(self) -> float:
        return self._tol

    def piece_interval(self, piece: int) -> tuple[float, float]:
        j = self._span_index(piece)
        return self._knots[j], self._knots[j + 1]

    def piece_for(self, u):
        """Piece ordinal containing u; right-continuous at inner knots.

        A 1-D array of parameters gives an array of ordinals."""
        a, b = self.domain
        values = np.asarray(u, dtype=float)
        outside = ~((a <= values) & (values <= b))
        if outside.any():
            raise ValueError(f"parameter {values[outside][0]} outside the domain [{a}, {b}]")
        pieces = np.maximum(self._starts.searchsorted(values, side="right") - 1, 0)
        return int(pieces) if values.ndim == 0 else pieces

    def inner_values(self) -> tuple[float, ...]:
        """Distinct knot values inside the domain, ascending: the first knot
        of every run whose neighbours lie within the knot tolerance, so
        consecutive values are more than the tolerance apart."""
        n = self._degree
        inside = self._knots[n - 1 : len(self._knots) - n + 1]
        return inside[:1] + tuple([u for prev, u in zip(inside, inside[1:])
                                   if u - prev > self._tol])

    def _span_index(self, piece: int) -> int:
        if not 0 <= piece < len(self._spans):
            raise ValueError(
                f"piece index {piece} out of range for {len(self._spans)} pieces"
            )
        return int(self._spans[piece])

    def _spans_for(self, u) -> np.ndarray:
        """Knot span index of the piece containing each parameter of a
        scalar or 1-D u, as a (k,) array."""
        us = np.asarray(u, dtype=float)
        if us.ndim > 1:
            raise ValueError(f"parameters must be a scalar or 1-D, got shape {us.shape}")
        return self._spans[self.piece_for(us.reshape(-1))]

    # -- refinement -----------------------------------------------------

    def elevated(self) -> "KnotVector":
        """Knot list for the degree-elevated curve.

        Every distinct knot value inside the domain gains one copy;
        auxiliary knots outside the domain are untouched.
        """
        return KnotVector(sorted(self._knots + self.inner_values()), self._degree + 1)


class BSplineCurve:
    """Degree-n spline curve in 3-space over a shared KnotVector."""

    __slots__ = ("_knots", "_control")

    def __init__(self, knots, control, degree: int | None = None):
        pts = as_points(control)
        if isinstance(knots, KnotVector):
            if degree is not None and degree != knots.degree:
                raise ValueError(
                    f"degree {degree} conflicts with the knot vector's {knots.degree}"
                )
            kv = knots
            if kv.control_count != len(pts):
                raise ValueError(
                    f"knot vector implies {kv.control_count} control points, "
                    f"got {len(pts)}"
                )
        else:
            if degree is None:
                raise ValueError("degree is required when knots is a plain sequence")
            values = list(knots)
            if len(values) == len(pts) + degree - 1:
                kv = KnotVector(values, degree)
            elif len(values) == len(pts) + degree + 1:
                # padded convention: the extreme knots enter no blossom window
                kv = KnotVector(values[1:-1], degree)
            else:
                raise ValueError(
                    f"{len(values)} knots do not match {len(pts)} control points "
                    f"of degree {degree}: expected {len(pts) + degree - 1} "
                    f"(or {len(pts) + degree + 1} padded)"
                )
        pts = pts.copy()
        pts.flags.writeable = False
        self._knots = kv
        self._control = pts

    @property
    def knots(self) -> KnotVector:
        return self._knots

    @property
    def control(self) -> np.ndarray:
        return self._control

    @property
    def degree(self) -> int:
        return self._knots.degree

    @property
    def pieces(self) -> int:
        return self._knots.pieces

    @property
    def domain(self) -> tuple[float, float]:
        return self._knots.domain

    def __repr__(self) -> str:
        return (
            f"BSplineCurve(degree={self.degree}, pieces={self.pieces}, "
            f"control_points={len(self._control)})"
        )

    # -- evaluation -------------------------------------------------------

    def evaluate(self, u) -> np.ndarray:
        """Curve point c(u); the diagonal of the blossom.

        A 1-D array of k parameters gives a (k, 3) array of points."""
        return _evaluate(self._knots, self._control, u)

    def derivative_at(self, u) -> np.ndarray:
        """Velocity c'(u), one-sided on the piece containing u.

        A 1-D array of k parameters gives a (k, 3) array of velocities."""
        return _evaluate(self._knots, self._control, u, part=1)

    def elevate_degree(self) -> "BSplineCurve":
        """Same point set as a curve of degree n+1.

        Every distinct inner knot value gains one copy in the knot list.
        The (n+1)-ary blossom is the average of the n-ary one over the n+1
        ways of dropping one argument.
        """
        new_knots = self._knots.elevated()
        spans, args = _windows(new_knots, self._knots)
        total = _dropped_blossoms(self._knots, self._control, spans,
                                  args).sum(axis=0, initial=0.0)
        return BSplineCurve(new_knots, total / (self.degree + 1))


# ---------------------------------------------------------------------------
# The de Boor kernel over an (L+1, c) block of control columns: one curve's
# polygon, or np.hstack of both boundary polygons of a patch.  Knot gathers
# and blend weights are shared by all c columns, and each column gets the
# same floating-point operations as alone, so results match bit for bit.


def _de_boor(knots: KnotVector, control: np.ndarray, spans: np.ndarray,
             args: np.ndarray, stages: int) -> np.ndarray:
    """The first `stages` stages of de Boor's recursion for the pieces on
    knot spans `spans` (k,) at the rows of `args` (k, n), laid out as
    (n+1, c, k) with the k rows innermost; rows may mix spans.

    Stage r pulls argument r in, replacing one knot of every pair that
    brackets the span, over all k rows and c columns at once.
    """
    n = knots.degree
    # pts[i] starts as control point first + 1 + i, and kn[j] is knot
    # first + 1 + j: stage r blends pts[i] over knots kn[i-1], kn[i+n-r]
    first = spans - n
    kn = knots._array[first + np.arange(1, 2 * n + 1)[:, None]]
    pts = control[first + np.arange(1, n + 2)[:, None]].transpose(0, 2, 1).copy()
    for r in range(1, stages + 1):
        lo, hi = kn[r - 1 : n], kn[n : 2 * n + 1 - r]
        w = ((args[:, r - 1] - lo) / (hi - lo))[:, None, :]
        kept = (1.0 - w) * pts[r - 1 : n]
        pts[r:] *= w
        pts[r:] += kept
    return pts


def _blossoms(knots: KnotVector, control: np.ndarray, spans: np.ndarray,
              args: np.ndarray) -> np.ndarray:
    """Polar forms of the pieces on knot spans `spans` (k,) at the rows
    of `args` (k, n), as (k, c); rows may mix spans."""
    return np.ascontiguousarray(_de_boor(knots, control, spans, args, knots.degree)[-1].T)


def _dropped_blossoms(knots: KnotVector, control: np.ndarray,
                      spans: np.ndarray, args: np.ndarray) -> np.ndarray:
    """Polar forms at every row of `args` (k, m) with one argument
    dropped, as (m, k, c): slice j drops argument j.  All m·k windows go
    through one kernel call; spans (k,) name each row's piece."""
    m = args.shape[1]
    # row j of keep lists the argument indices other than j, ascending
    slot = np.arange(m - 1)
    keep = slot + (slot >= np.arange(m)[:, None])
    windows = args[:, keep].transpose(1, 0, 2).reshape(-1, m - 1)
    return _blossoms(knots, control, np.concatenate((spans,) * m),
                     windows).reshape(m, len(args), -1)


def _bezier_points(knots: KnotVector, control: np.ndarray) -> np.ndarray:
    """Bézier points of every piece of the control block, as
    (pieces, n+1, c), from one kernel call over all (n+1)·pieces windows.

    Point i of the piece on [u_j, u_{j+1}] is its polar form at n - i
    copies of u_j and i copies of u_{j+1}."""
    n = knots.degree
    spans = knots._spans
    lo, hi = knots._array[spans], knots._array[spans + 1]
    # window i takes u_{j+1} in its last i slots
    upper = np.arange(n) >= n - np.arange(n + 1)[:, None]
    args = np.where(upper, hi[:, None, None], lo[:, None, None])
    points = _blossoms(knots, control, spans.repeat(n + 1), args.reshape(-1, n))
    return points.reshape(len(spans), n + 1, -1)


def _point_and_velocity(knots: KnotVector, control: np.ndarray,
                        spans: np.ndarray, us: np.ndarray):
    """Points c(u) and one-sided velocities c'(u) at the (k,) parameters
    `us` on knot spans `spans`, each as (k, c), from one de Boor triangle.

    The n-1 stages at u are shared; the last stage gives the point, and
    the two points it blends give the velocity n (P1 - P0) / (t1 - t0),
    which is the blossom difference at (u, ..., u, t1) and (u, ..., u, t0)
    since those last stages blend with weights exactly 1 and 0."""
    n = knots.degree
    pts = _de_boor(knots, control, spans, us[:, None].repeat(n - 1, axis=1), n - 1)
    t0, t1 = knots._array[spans], knots._array[spans + 1]
    w = (us - t0) / (t1 - t0)
    point = (1.0 - w) * pts[n - 1] + w * pts[n]
    velocity = n * (pts[n] - pts[n - 1]) / (t1 - t0)
    return np.ascontiguousarray(point.T), np.ascontiguousarray(velocity.T)


def _evaluate(knots: KnotVector, control: np.ndarray, u, part: int = 0):
    """Points (part 0) or velocities (part 1) of the control block at a
    scalar u, as (c,), or at a 1-D array of k parameters, as (k, c)."""
    us = np.asarray(u, dtype=float)
    values = _point_and_velocity(knots, control, knots._spans_for(us), us.reshape(-1))[part]
    return values if us.ndim else values[0]


def _windows(target: KnotVector,
             source: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """Knot windows of `target`, one row per control point, and the span of
    `source` each is evaluated on, as (spans (k,), windows (k, m)).

    Row i is u_i..u_{i+m-1} (m the degree of `target`).  It is valid for the
    polar form of any nondegenerate target span J with i-1 <= J <= i+m-1, and
    any valid candidate gives the same value; the middle one is taken, and
    the window is evaluated on the source piece containing that span's
    midpoint.  `target` must refine `source`.
    """
    m = target.degree
    rows = np.arange(target.control_count)
    spans = target._spans
    first = spans.searchsorted(rows - 1, side="left")
    count = spans.searchsorted(rows + m - 1, side="right") - first
    j = spans[first + count // 2]
    kn = target._array
    return (source._spans_for(0.5 * (kn[j] + kn[j + 1])),
            kn[rows[:, None] + np.arange(m)])
