"""Spans and counters recorded around devstrip's module-level names.

Each wrapped name is looked up where its caller looks it up (for example
``devstrip.solvers.real_roots``, which ``solve_problem1`` reads from its
own module globals), so installing the wrappers changes no devstrip code.
A name that no longer exists is recorded as absent and skipped.  Spans
stay in memory; the caller writes them out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Optional

# (module, dotted attribute, layer key, counter) -- a counter maps the
# wrapped call's result to the counts it adds.  Layer keys name the
# per-layer metric the span's self time goes to.
SPANNED = [
    ("devstrip.cli", "run_cli", "cli.self", None),
    ("devstrip.cli", "parse_problem", "fileio.parse", None),
    ("devstrip.cli", "parse_solution", "fileio.parse", None),
    ("devstrip.cli", "export_obj", "fileio.obj",
     lambda text: {"fileio.obj_bytes": len(text)}),
    ("devstrip.cli", "serialize_solution", "fileio.serialize", None),
    ("devstrip.fileio", "SolveReport.as_json", "fileio.serialize", None),
    ("devstrip.fileio", "SolveReport.as_text", "fileio.serialize", None),
    ("devstrip", "solve_problem1", "solvers.self", None),
    ("devstrip", "solve_problem2", "solvers.self", None),
    ("devstrip", "solve_problem3", "solvers.self", None),
    ("devstrip.cli", "solve_problem1", "solvers.self", None),
    ("devstrip.cli", "solve_problem2", "solvers.self", None),
    ("devstrip.cli", "solve_problem3", "solvers.self", None),
    ("devstrip.solvers", "solve_problem1", "solvers.self", None),
    ("devstrip.solvers", "solve_problem2", "solvers.self", None),
    ("devstrip.solvers", "cramer_polynomial", "solvers.compat",
     lambda poly: {"solvers.poly_degree": poly.degree(),
                   "solvers.poly_calls": 1}),
    ("devstrip.solvers", "build_a_rational", "solvers.compat", None),
    ("devstrip.solvers", "real_roots", "polyroots.roots",
     lambda roots: {"polyroots.roots_found": len(roots)}),
    ("devstrip.solvers", "propagate_polygon", "strip.recursion", None),
    ("devstrip.solvers", "DevelopableStrip", "strip.validate", None),
    ("devstrip.solvers", "control_from_blossom", "bspline.reexpress", None),
    ("devstrip.bspline", "control_from_blossom", "bspline.reexpress", None),
    ("devstrip", "developability_scan", "verify.scan",
     lambda scan: {"verify.scan_samples": scan.samples + scan.skipped}),
    ("devstrip.cli", "developability_scan", "verify.scan",
     lambda scan: {"verify.scan_samples": scan.samples + scan.skipped}),
    ("devstrip.cli", "planarity_report", "verify.planarity", None),
]

# Names wrapped with a call counter only: they run too often for spans.
COUNTED = [
    ("devstrip.bspline", "BSplineCurve.blossom_eval", "bspline.blossom_calls"),
]


def _resolve(module: str, dotted: str):
    """(owner, attribute name, current value) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    """Installs the wrappers, records spans and counts, removes them."""

    def __init__(self):
        # (span id, parent id, layer key, case, start, end)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.case: Optional[str] = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._targets = []
        for module, dotted, key, counter in SPANNED:
            found = _resolve(module, dotted)
            if found is None:
                self.absent.append(f"{module}.{dotted}")
            else:
                self._targets.append((found, self._spanned(found[2], key,
                                                           counter)))
        for module, dotted, key in COUNTED:
            found = _resolve(module, dotted)
            if found is None:
                self.absent.append(f"{module}.{dotted}")
            else:
                self._targets.append((found, self._counted(found[2], key)))

    def _spanned(self, func: Callable, key: str,
                 counter: Optional[Callable]) -> Callable:
        @functools.wraps(func, updated=())
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, key, self.case, start, end)
            if counter is not None:
                for name, amount in counter(result).items():
                    self.counts[name] += amount
            return result

        return wrapper

    def _counted(self, func: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(func, updated=())
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for (owner, name, original), wrapper in self._targets:
            setattr(owner, name, wrapper)
            self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer key, each span minus the spans it caused."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        for sid, _, key, _, start, end in self.spans:
            total[key] += (end - start) - child[sid]
        return total
