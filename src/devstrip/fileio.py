"""Problem/solution file formats and mesh export.

Problem descriptions and solved surfaces travel as small JSON documents
(numbers in shortest round-trip decimal form); tessellated surfaces go out
as ASCII OBJ with fixed 9-significant-digit formatting so identical inputs
always produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .bspline import BSplineCurve, _row_norms
from .strip import DevelopableStrip, RuledPatch

PROBLEM_KINDS = ("problem1", "problem2", "problem3")
ANCHOR_ENDS = ("start", "end")

DEFAULT_U_SAMPLES = 16
DEFAULT_V_SAMPLES = 5

OBJ_APEX_MERGE_REL = 1e-9

Triple = tuple[float, float, float]


# ---------------------------------------------------------------------------
# validated views of the JSON documents


@dataclass(frozen=True)
class ProblemSpec:
    """One solve request: a boundary curve plus per-kind ruling data.

    Ruling fields not used by ``problem_kind`` stay None; geometry is kept
    as plain tuples so specs compare and round-trip field-for-field."""

    problem_kind: str
    degree: int
    knots: tuple[float, ...]
    control: tuple[Triple, ...]
    v: Optional[Triple] = None
    w: Optional[Triple] = None
    anchor_end: Optional[str] = None
    anchor_point: Optional[Triple] = None
    d0: Optional[Triple] = None
    dL: Optional[Triple] = None
    apex_velocity: Optional[Triple] = None
    root_choice: int = 0
    u_samples: int = DEFAULT_U_SAMPLES
    v_samples: int = DEFAULT_V_SAMPLES

    def to_curve(self) -> BSplineCurve:
        return BSplineCurve(self.knots, self.control, self.degree)


@dataclass(frozen=True)
class SolveReport:
    """Numeric summary of a finished solve, for humans and regression runs."""

    problem_kind: str
    roots: tuple[float, ...]
    chosen_m_star: float
    lambda_star: float
    alpha: float
    beta: float
    sigma: float
    tau: float
    base_polygon: tuple[Triple, ...]
    opposite_polygon: tuple[Triple, ...]
    max_developability: float
    worst_cell_planarity: float
    pinch_u: Optional[float] = None

    def __post_init__(self):
        numbers = list(self.roots)
        numbers += [self.chosen_m_star, self.lambda_star, self.alpha,
                    self.beta, self.sigma, self.tau,
                    self.max_developability, self.worst_cell_planarity]
        numbers += [x for point in self.base_polygon for x in point]
        numbers += [x for point in self.opposite_polygon for x in point]
        if self.pinch_u is not None:
            numbers.append(self.pinch_u)
        if not all(math.isfinite(x) for x in numbers):
            raise ValueError("report contains a non-finite number")
        if self.max_developability < 0.0 or self.worst_cell_planarity < 0.0:
            raise ValueError("residuals must be nonnegative")

    def as_json(self) -> str:
        doc = {field.name: getattr(self, field.name)
               for field in fields(self)}
        return json.dumps(doc, indent=2) + "\n"

    def as_text(self) -> str:
        lines = [
            f"problem kind:       {self.problem_kind}",
            "admissible roots M*: "
            + ", ".join(f"{r:.6g}" for r in self.roots),
            f"chosen M*:          {self.chosen_m_star:.6g}",
            f"lambda*:            {self.lambda_star:.6g}",
            f"alpha, beta:        {self.alpha:.6g}, {self.beta:.6g}",
            f"sigma, tau:         {self.sigma:.6g}, {self.tau:.6g}",
            f"max developability residual: {self.max_developability:.3e}",
            f"worst cell planarity:        {self.worst_cell_planarity:.3e}",
        ]
        if self.pinch_u is not None:
            lines.append(f"ruling length crosses zero at u = {self.pinch_u:.6g}")
        lines.append(f"base polygon ({len(self.base_polygon)} points):")
        lines += [f"  {p}" for p in self.base_polygon]
        lines.append(f"opposite polygon ({len(self.opposite_polygon)} points):")
        lines += [f"  {p}" for p in self.opposite_polygon]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing helpers with field-precise messages


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValueError(f"{where}.{key} is missing")
    return doc[key]


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{where} must be finite")
    return float(value)


def _as_int(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{where} must be at least {minimum}")
    return value


def _as_triple(value, where: str) -> Triple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"{where} must be a list of 3 coordinates")
    return tuple(_as_number(x, f"{where}[{i}]") for i, x in enumerate(value))


def _as_points(value, where: str) -> tuple[Triple, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{where} must be a nonempty list of points")
    return tuple(_as_triple(p, f"{where}[{i}]") for i, p in enumerate(value))


def _as_knots(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{where} must be a nonempty list of numbers")
    knots = [_as_number(x, f"{where}[{i}]") for i, x in enumerate(value)]
    for i in range(1, len(knots)):
        if knots[i] < knots[i - 1]:
            raise ValueError(f"{where}[{i}] decreases "
                             f"({knots[i]!r} after {knots[i - 1]!r})")
    return tuple(knots)


def _parse_curve_doc(doc, where: str) -> tuple[int, tuple, tuple]:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object")
    degree = _as_int(_require(doc, "degree", where), f"{where}.degree", 1)
    knots = _as_knots(_require(doc, "knots", where), f"{where}.knots")
    control = _as_points(_require(doc, "control", where), f"{where}.control")
    _check_knot_count(knots, control, degree, where)
    return degree, knots, control


def _check_knot_count(knots: tuple, control: tuple, degree: int,
                      where: str) -> None:
    expected = len(control) + degree - 1
    if len(knots) not in (expected, expected + 2):
        raise ValueError(
            f"{where}: {len(control)} control points at degree {degree} "
            f"need {expected} knots (or {expected + 2} padded), "
            f"got {len(knots)}")


def parse_problem(contents: str) -> ProblemSpec:
    """Validated ProblemSpec from a JSON document string."""
    try:
        doc = json.loads(contents)
    except json.JSONDecodeError as exc:
        raise ValueError(f"problem file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("problem file must hold a JSON object")
    kind = _require(doc, "problem", "problem file")
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"problem must be one of {PROBLEM_KINDS}, "
                         f"got {kind!r}")
    degree, knots, control = _parse_curve_doc(
        _require(doc, "curve", "problem file"), "curve")

    rulings = _require(doc, "rulings", "problem file")
    if not isinstance(rulings, dict):
        raise ValueError("rulings must be an object")
    extra: dict = {}
    if kind == "problem1":
        extra["v"] = _as_triple(_require(rulings, "v", "rulings"), "rulings.v")
        extra["w"] = _as_triple(_require(rulings, "w", "rulings"), "rulings.w")
        anchor = _require(rulings, "anchor", "rulings")
        if not isinstance(anchor, dict):
            raise ValueError("rulings.anchor must be an object")
        end = _require(anchor, "end", "rulings.anchor")
        if end not in ANCHOR_ENDS:
            raise ValueError(f"rulings.anchor.end must be one of "
                             f"{ANCHOR_ENDS}, got {end!r}")
        extra["anchor_end"] = end
        extra["anchor_point"] = _as_triple(
            _require(anchor, "point", "rulings.anchor"), "rulings.anchor.point")
    elif kind == "problem2":
        extra["d0"] = _as_triple(_require(rulings, "d0", "rulings"),
                                 "rulings.d0")
        extra["dL"] = _as_triple(_require(rulings, "dL", "rulings"),
                                 "rulings.dL")
    else:
        extra["dL"] = _as_triple(_require(rulings, "dL", "rulings"),
                                 "rulings.dL")
        extra["apex_velocity"] = _as_triple(
            _require(rulings, "apex_velocity", "rulings"),
            "rulings.apex_velocity")

    root_choice = _as_int(doc.get("root_choice", 0), "root_choice", 0)
    tess = doc.get("tessellation", {})
    if not isinstance(tess, dict):
        raise ValueError("tessellation must be an object")
    u_samples = _as_int(tess.get("u_samples", DEFAULT_U_SAMPLES),
                        "tessellation.u_samples", 2)
    v_samples = _as_int(tess.get("v_samples", DEFAULT_V_SAMPLES),
                        "tessellation.v_samples", 2)

    spec = ProblemSpec(kind, degree, knots, control, root_choice=root_choice,
                       u_samples=u_samples, v_samples=v_samples, **extra)
    spec.to_curve()  # full structural validation before any solve runs
    return spec


# ---------------------------------------------------------------------------
# curve and solved-surface documents


def _curve_doc(curve: BSplineCurve) -> dict:
    return {
        "degree": curve.degree,
        "knots": [float(u) for u in curve.knots],
        "control": [[float(x) for x in p] for p in curve.control],
    }


def serialize_curve(curve: BSplineCurve) -> str:
    return json.dumps(_curve_doc(curve), indent=2) + "\n"


def parse_curve(contents: str) -> BSplineCurve:
    try:
        doc = json.loads(contents)
    except json.JSONDecodeError as exc:
        raise ValueError(f"curve file is not valid JSON: {exc}") from None
    degree, knots, control = _parse_curve_doc(doc, "curve")
    return BSplineCurve(knots, control, degree)


def serialize_solution(patch: RuledPatch) -> str:
    """Solved surface as JSON: both boundary polygons over shared knots.

    Strips carry their interior parameters; plain ruled pairs (the
    degree-elevated outputs, where no single parameter pair applies)
    store null there."""
    lambda_star = m_star = None
    if isinstance(patch, DevelopableStrip):
        lambda_star = patch.lambda_star
        m_star = patch.m_star
    doc = {
        "degree": patch.base.degree,
        "knots": [float(u) for u in patch.base.knots],
        "base_control": [[float(x) for x in p] for p in patch.base.control],
        "opposite_control": [[float(x) for x in p]
                             for p in patch.opposite.control],
        "lambda_star": lambda_star,
        "m_star": m_star,
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_solution(contents: str) -> RuledPatch:
    """Rebuild a solved surface; strips re-validate their invariants."""
    try:
        doc = json.loads(contents)
    except json.JSONDecodeError as exc:
        raise ValueError(f"surface file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("surface file must hold a JSON object")
    degree = _as_int(_require(doc, "degree", "surface"), "surface.degree", 1)
    knots = _as_knots(_require(doc, "knots", "surface"), "surface.knots")
    base = _as_points(_require(doc, "base_control", "surface"),
                      "surface.base_control")
    opposite = _as_points(_require(doc, "opposite_control", "surface"),
                          "surface.opposite_control")
    _check_knot_count(knots, base, degree, "surface.base_control")
    if len(opposite) != len(base):
        raise ValueError(
            f"surface.opposite_control: {len(opposite)} control points, "
            f"but surface.base_control has {len(base)}")
    base_curve = BSplineCurve(knots, base, degree)
    opp_curve = BSplineCurve(base_curve.knots, opposite)
    lambda_star = doc.get("lambda_star")
    m_star = doc.get("m_star")
    if lambda_star is not None and m_star is not None:
        return DevelopableStrip(
            base_curve, opp_curve,
            _as_number(lambda_star, "surface.lambda_star"),
            _as_number(m_star, "surface.m_star"))
    return RuledPatch(base_curve, opp_curve)


# ---------------------------------------------------------------------------
# OBJ export


def _lines(template: str, rows: np.ndarray) -> str:
    """One line per row of `rows`, filled into a %-format template."""
    return "\n".join([template] * len(rows)) % tuple(rows.ravel().tolist())


def export_obj(patch: RuledPatch, u_samples: int = DEFAULT_U_SAMPLES,
               v_samples: int = DEFAULT_V_SAMPLES) -> str:
    """ASCII OBJ tessellation, u-major vertex order, quad faces.

    ``u_samples`` counts per piece (piece boundaries shared, not doubled).
    A fully collapsed first ruling (triangular patch apex) is emitted as a
    single merged vertex with a triangle fan instead of degenerate quads."""
    if u_samples < 2:
        raise ValueError("u_samples must be at least 2")
    if v_samples < 2:
        raise ValueError("v_samples must be at least 2")
    knots = patch.base.knots
    lo, hi = np.array([knots.piece_interval(p)
                       for p in range(knots.pieces)]).T
    rows = np.linspace(lo, hi, u_samples, axis=1)
    us = np.concatenate((rows[:1, 0], rows[:, 1:].ravel()))
    grid = patch.ruled_eval(us, np.linspace(0.0, 1.0, v_samples))

    points = grid.reshape(-1, 3)
    scale = max(1.0, float(np.max(_row_norms(points))))
    first = grid[0]
    apex = bool(np.all(_row_norms(first[1:] - first[0])
                       <= OBJ_APEX_MERGE_REL * scale))

    # 1-based OBJ vertex ids per (row, column)
    ids = np.arange(1, len(points) + 1).reshape(grid.shape[:2])
    corners = np.stack((ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:],
                        ids[:-1, 1:]), axis=-1)
    fan = np.empty((0, 3), dtype=int)
    if apex:
        # the apex row becomes vertex 1, shared by a triangle fan
        points = np.concatenate((points[:1], points[v_samples:]))
        corners = np.maximum(corners - (v_samples - 1), 1)
        fan, corners = corners[0, :, :3], corners[1:]

    lines = [f"# ruled surface tessellation: {len(us)} rows x {v_samples} "
             "columns" + (", apex row merged" if apex else ""),
             _lines("v %.9g %.9g %.9g", points),
             _lines("f %d %d %d", fan),
             _lines("f %d %d %d %d", corners.reshape(-1, 4))]
    return "\n".join(line for line in lines if line) + "\n"


# ---------------------------------------------------------------------------
# output files


def _open_untruncated(path: str | os.PathLike, flags: int) -> int:
    # as open(path, "w") but without O_TRUNC; 0o666 (less the umask) is
    # the mode open() gives a new file, where os.open's default is 0o777
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_output(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting an existing file in
    place and then cutting it to the new length.

    The file ends up holding exactly the new bytes, as with
    ``Path.write_text``, but an existing file is not first truncated to
    zero, which on some filesystems frees (and discards) its blocks only
    for the write to allocate them again.  Like ``write_text`` this is not
    atomic: a write that fails part way leaves a partial file."""
    with open(path, "wb", opener=_open_untruncated) as handle:
        handle.write(text.encode())
        handle.truncate()
