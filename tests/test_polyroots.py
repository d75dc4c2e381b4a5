"""Root finder: exact factorizations, multiple roots, random recovery.

``solvers._real_roots`` finds the real roots of a rational function bounded
at ±∞, interval by interval between its poles.  The functions here are
products of linear factors over products of poles, so their roots are known
exactly.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial.chebyshev import chebfromroots, chebmul, chebroots

from devstrip import BSplineCurve, PlanarSurfaceError, solve_problem1
from devstrip import solvers
from devstrip.solvers import (CHEB_IMAG_TOL, CHEB_POINTS, CHEB_TAIL_REL,
                              _CENTRES, _HALF, _interpolant_roots,
                              _real_roots)

import reference as ref
from helpers import plant_strip, seed_one_plants, solve_plant

SRC = Path(__file__).resolve().parent.parent / "src"


def roots_of(numerator, poles, splits=None, radius=0.0, noise=None):
    """Real roots of numerator(m) / prod(m - p) for p in poles, split at
    the distinct poles unless `splits` is given.  `noise` perturbs every
    value by that relative amount, at random."""
    poles = np.sort(np.asarray(poles, dtype=float))
    rng = np.random.default_rng(7)

    def evaluate(m):
        values = numerator(m) / np.prod(m[:, None] - poles, axis=1)
        if noise is not None:
            values = values * (1.0 + noise * rng.uniform(-1.0, 1.0, m.shape))
        return values, np.abs(values)

    if splits is None:
        splits = np.unique(poles)
    return _real_roots(evaluate, poles, splits, radius)


def test_simple_cubic_factorization():
    roots = roots_of(Polynomial.fromroots([1.0, 2.0, 3.0]), [0.0, 0.0, 4.0])
    assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)


def test_no_real_roots():
    assert roots_of(Polynomial([1.0, 0.0, 1.0]), [-1.0, 1.0]) == []
    assert roots_of(Polynomial([5.0]), [0.0, 1.0]) == []


def test_linear_is_exact():
    # a root on the outer ray above the last pole
    roots = roots_of(Polynomial([-3.0, 2.0]), [0.0, 1.0])
    assert roots == pytest.approx([1.5], abs=0.0)


def test_double_root_is_found_once():
    roots = roots_of(Polynomial.fromroots([2.0, 2.0]), [0.0, 4.0])
    assert roots == pytest.approx([2.0], abs=1e-7)


def test_triple_root():
    roots = roots_of(Polynomial.fromroots([1.0, 1.0, 1.0]), [0.0, 0.0, 3.0])
    assert roots == pytest.approx([1.0], abs=1e-5)


def test_mixed_multiplicities():
    roots = roots_of(Polynomial.fromroots([-3.0, 1.0, 1.0]),
                     [-4.0, 0.0, 2.0])
    assert roots == pytest.approx([-3.0, 1.0], abs=1e-7)


def test_tangential_root_next_to_a_crossing():
    # (x - 1)^2 (x^2 + 1) crosses nowhere but touches at 1
    numerator = Polynomial.fromroots([1.0, 1.0]) * Polynomial([1.0, 0.0, 1.0])
    assert roots_of(numerator, [0.0, 0.0, 3.0, 3.0]) == pytest.approx(
        [1.0], abs=1e-7)


def test_coplanarity_quartic_regression():
    curve = BSplineCurve(ref.CUBIC_KNOTS, ref.CUBIC_CONTROL, 3)
    roots = solve_problem1(curve, ref.CUBIC_V, ref.CUBIC_W,
                           d0=ref.CUBIC_D0).m_star_roots
    assert len(roots) == 2
    assert roots == pytest.approx([-7.9083, 0.3734], abs=5e-4)
    for x in roots:
        assert abs(np.polyval(ref.CUBIC_QUARTIC, x)) < 1e-8 * max(
            abs(c) for c in ref.CUBIC_QUARTIC)


def test_zero_polynomial_raises():
    # a compatibility function that vanishes identically: planar data
    flat = BSplineCurve(ref.CUBIC_KNOTS,
                        [(x, y, 0.0) for x, y, _ in ref.CUBIC_CONTROL], 3)
    with pytest.raises(PlanarSurfaceError, match="every interior parameter"):
        solve_problem1(flat, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                       d0=(1.0, 0.0, 0.0))


def test_non_finite_coefficients_raise():
    curve = BSplineCurve(ref.CUBIC_KNOTS, ref.CUBIC_CONTROL, 3)
    with pytest.raises(ValueError, match="finite"):
        solve_problem1(curve, ref.CUBIC_V, (1.0, float("nan"), 0.0),
                       d0=ref.CUBIC_D0)


def test_scaling_invariance():
    base = Polynomial.fromroots([-1.5, 0.25, 4.0])
    poles = [-2.0, 0.0, 5.0]
    assert roots_of(1e8 * base, poles) == pytest.approx(
        roots_of(base, poles), abs=1e-10)


def test_leading_noise_is_trimmed():
    # rounding-level noise in every value must not spawn spurious roots
    roots = roots_of(Polynomial.fromroots([1.0, 2.0, 3.0]), [0.0, 0.0, 4.0],
                     noise=1e-15)
    assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)


def test_nearby_roots_deduplicate():
    roots = roots_of(Polynomial.fromroots([1.0, 1.0 + 1e-12]), [0.0, 3.0])
    assert len(roots) == 1


def test_exclusions_drop_roots_near_banned_values():
    roots = roots_of(Polynomial.fromroots([0.0, 0.5, 2.0]), [3.0, 3.0, 3.0],
                     splits=[0.0, 0.5, 3.0], radius=1e-6)
    assert roots == pytest.approx([2.0], abs=1e-10)


def test_exclusion_radius_zero_keeps_inexact_roots():
    roots = roots_of(Polynomial.fromroots([0.5 + 1e-7, 2.0]), [3.0, 3.0],
                     splits=[0.0, 0.5, 3.0], radius=0.0)
    assert 0.5 + 1e-7 == pytest.approx(min(roots), abs=1e-12)


def test_random_simple_roots_recovered():
    rng = np.random.default_rng(20260819)
    for _ in range(50):
        count = int(rng.integers(1, 6))
        while True:
            roots = np.sort(rng.uniform(-5.0, 5.0, size=count))
            if count == 1 or np.min(np.diff(roots)) > 0.05:
                break
        poles = [-6.0] * (count // 2) + [6.0] * (count - count // 2)
        found = roots_of(Polynomial.fromroots(roots), poles,
                         splits=[-6.0, 6.0])
        assert found == pytest.approx(list(roots), abs=1e-6)


def test_halved_pieces_report_each_root_once():
    # a degree-31 numerator needs all 32 coefficients, so the tail test
    # fails and the pole interval is halved, at first right on the root 0,
    # which neither half may lose or both report
    roots = np.linspace(-0.9, 0.9, 31)
    found = roots_of(lambda m: np.prod(m[:, None] - roots, axis=1),
                     [-1.0] * 15 + [1.0] * 16)
    assert len(found) == len(roots)
    assert found == pytest.approx(list(roots), abs=1e-10)


# ---------------------------------------------------------------------------
# the certified pass over an interpolant's sub-intervals, with its fallback

# the ends of the sub-intervals the certification cuts x into
EDGES = np.append(_CENTRES - _HALF, _CENTRES[-1] + _HALF)


def series_of(roots, scale=1.0, pair=None):
    """Chebyshev coefficients of scale * prod(x - r), times the factor with
    the complex roots p ± iq when pair = (p, q) is given."""
    coef = scale * chebfromroots(roots)
    if pair is not None:
        p, q = pair
        coef = chebmul(coef, chebfromroots([complex(p, q),
                                             complex(p, -q)]).real)
    return coef


def certified_roots(coef, tol):
    padded = np.pad(coef, (0, CHEB_POINTS - len(coef)))
    return np.sort(_interpolant_roots(padded[None], np.array([tol]))[1])


def eigenvalue_roots(coef, tol):
    """The roots ``_interpolant_roots`` reports for one series, from
    numpy's chebroots alone: the real eigenvalues in the window of the
    series with its coefficients at or below tol dropped from the top, and
    none when its coefficients are not finite, it is constant, or its constant
    term bounds the rest away from zero."""
    big = np.flatnonzero(np.abs(coef) > tol)
    if not np.all(np.isfinite(coef)) or big.size == 0 or big[-1] == 0 or \
            abs(coef[0]) > np.sum(np.abs(coef[1:])):
        return np.empty(0)
    t = chebroots(coef[: big[-1] + 1])
    t = t[np.abs(t.imag) <= CHEB_IMAG_TOL].real
    return t[np.abs(t) <= 1.0 + CHEB_IMAG_TOL]


def at_tolerance():
    """A series whose end value at x = 1 + CHEB_IMAG_TOL, on the
    sub-interval that holds its root 0.9, is exactly the tolerance: the
    value the certification computes there, by the same operations."""
    coef = series_of([0.9, -2.0])
    padded = np.pad(coef, (0, CHEB_POINTS - len(coef)))[None]
    sub = (padded @ solvers._SPLIT).reshape(1, solvers.CHEB_SPLIT, -1)
    return coef, float(abs((sub @ solvers._CELLS)[0, -1, -1]))


DOUBLE_ON_EDGE = series_of([EDGES[3], EDGES[3], 0.6])
DOUBLE_ON_EDGE_TOL = CHEB_TAIL_REL * float(np.sum(np.abs(DOUBLE_ON_EDGE)))
END_AT_TOL, END_AT_TOL_TOL = at_tolerance()
PINNED = [(DOUBLE_ON_EDGE, DOUBLE_ON_EDGE_TOL), (END_AT_TOL, END_AT_TOL_TOL)]
# a simple root beyond x = 1 that chebroots keeps: the sub-intervals span
# |x| <= 1 + CHEB_IMAG_TOL, so the certified pass finds it too
JUST_OUTSIDE = (series_of([1.0 + 5e-6, -0.6]), CHEB_TAIL_REL)
# a close pair straddling the window's end: the Newton steps of the root
# inside start near the vertex between the two and do not converge
ASTRAY = series_of([0.99876, 1.00127])
ASTRAY_TOL = CHEB_TAIL_REL * float(np.sum(np.abs(ASTRAY)))


@st.composite
def planted_series(draw):
    """A series with simple roots inside distinct sub-intervals and at
    random, a double root, a close pair, roots on sub-interval edges, roots
    just beyond the window the sub-intervals span and a complex pair, each
    possibly absent, and the tolerance of an interpolant of its size."""
    inside = st.floats(-1.0, 1.0)
    roots = [_CENTRES[k] + _HALF * y for k, y in draw(st.lists(
        st.tuples(st.integers(0, len(_CENTRES) - 1), st.floats(-0.9, 0.9)),
        max_size=4, unique_by=lambda drawn: drawn[0]))]
    roots += draw(st.lists(inside, max_size=2))
    roots += 2 * draw(st.lists(inside, max_size=1))
    # a close pair inside, or straddling an end of the window
    for centre, gap, shift in draw(st.lists(st.tuples(
            st.floats(-0.99, 0.99) | st.sampled_from([EDGES[0], EDGES[-1]]),
            st.floats(1e-7, 1e-2), st.floats(-0.5, 0.5)), max_size=1)):
        roots += [centre + (shift - 0.5) * gap, centre + (shift + 0.5) * gap]
    roots += draw(st.lists(st.sampled_from(list(EDGES)), max_size=2))
    roots += [side * beyond for side, beyond in draw(st.lists(st.tuples(
        st.sampled_from([-1.0, 1.0]), st.floats(EDGES[-1], 1.05)),
        max_size=2))]
    pair = draw(st.none() | st.tuples(st.floats(-1.5, 1.5),
                                      st.floats(1e-3, 1.0)))
    coef = series_of(roots, draw(st.floats(1e-6, 1e6)), pair)
    return coef, CHEB_TAIL_REL * float(np.sum(np.abs(coef)))


@settings(max_examples=200, deadline=None)
@given(planted_series())
@example(PINNED[0])
@example(PINNED[1])
@example(JUST_OUTSIDE)
@example((ASTRAY, ASTRAY_TOL))
def test_certified_roots_agree_with_chebroots(series):
    coef, tol = series
    expected = np.sort(eigenvalue_roots(coef, tol))
    found = certified_roots(coef, tol)
    assert len(found) == len(expected)
    assert found == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("series", PINNED,
                         ids=["double_root_on_an_edge", "end_value_at_tol"])
def test_pinned_series_go_through_the_fallback(monkeypatch, series):
    calls = []
    solve = solvers.chebroots

    def wrapped(coef):
        calls.append(len(coef))
        return solve(coef)

    monkeypatch.setattr(solvers, "chebroots", wrapped)
    certified_roots(*series)
    assert len(calls) == 1


def test_separated_roots_are_certified_without_eigenvalues(monkeypatch):
    # T_4: one root in every other sub-interval, extrema of size 1
    monkeypatch.setattr(solvers, "chebroots", None)
    roots = np.cos((2 * np.arange(4) + 1) * np.pi / 8)
    assert certified_roots(np.eye(5)[4], CHEB_TAIL_REL) == pytest.approx(
        np.sort(roots), abs=1e-15)


# ---------------------------------------------------------------------------
# the one eigenvalue problem on the unit circle, and when it is left out

# a quartic numerator over the poles 0, 0, 1, 1: bounded at ±∞, with all
# four roots inside the domain [0, 1]
QUARTIC_ROOTS = [0.2, 0.45, 0.6, 0.8]
DOMAIN_POLES = [0.0, 0.0, 1.0, 1.0]


@pytest.fixture
def paths(monkeypatch):
    """The path each _real_roots call takes: "circle" when _circle_roots
    gives the roots, "intervals" when it leaves them to the per-interval
    path."""
    taken = []
    circle = solvers._circle_roots

    def recorded(*args):
        roots = circle(*args)
        taken.append("intervals" if roots is None else "circle")
        return roots

    monkeypatch.setattr(solvers, "_circle_roots", recorded)
    return taken


def arc_ratio(evaluate, poles, splits):
    """The figure _circle_roots compares with CIRCLE_ARC_RATIO: the median
    sample size on the domain's arc over the largest, sizes taken as
    _circle_roots takes them."""
    a, b = splits[0], splits[-1]
    c, s = 0.5 * (a + b), 0.5 * (b - a)
    cot, below, above, arc = solvers._circle_nodes(len(poles) + 1)
    factor = np.prod(((c - np.asarray(poles)) * below[:, None]
                      - 1j * s * above[:, None]) / (2.0 * s), axis=1)
    sizes = evaluate(c + s * cot)[1] * np.abs(factor)
    return np.median(sizes[arc]) / np.max(sizes)


@pytest.mark.parametrize("multiple, path", [(0.5, "intervals"),
                                            (2.0, "circle")])
def test_circle_arc_ratio(paths, multiple, path):
    # the sums of absolute terms outside the domain carry a cancelling
    # term k times the value, k set so that the arc ratio is the multiple
    # of CIRCLE_ARC_RATIO
    numerator = Polynomial.fromroots(QUARTIC_ROOTS)
    poles = np.array(DOMAIN_POLES)
    splits = np.array([0.0, 1.0])

    def evaluate_with(k):
        def evaluate(m):
            values = numerator(m) / np.prod(m[:, None] - poles, axis=1)
            outside = (m < 0.0) | (m > 1.0)
            return values, np.abs(values) * np.where(outside, k, 1.0)
        return evaluate

    k = arc_ratio(evaluate_with(1.0), poles, splits) / (
        multiple * solvers.CIRCLE_ARC_RATIO)
    evaluate = evaluate_with(k)
    assert arc_ratio(evaluate, poles, splits) == pytest.approx(
        multiple * solvers.CIRCLE_ARC_RATIO, rel=1e-9)
    roots = _real_roots(evaluate, poles, splits, 0.0)
    assert paths == [path]
    assert roots == pytest.approx(QUARTIC_ROOTS, abs=1e-10)


def test_circle_roots_match_the_intervals(monkeypatch):
    numerator = Polynomial.fromroots([-2.5, 0.2, 0.45, 0.8, 7.0])
    poles = [-1.0, 0.0, 0.0, 1.0, 1.0]
    circle = roots_of(numerator, poles)
    monkeypatch.setattr(solvers, "_circle_roots", lambda *args: None)
    assert circle == pytest.approx(roots_of(numerator, poles), rel=1e-13)


@pytest.mark.parametrize("multiple, merged", [(0.5, True), (2.0, False)])
def test_interval_roots_merge_within_the_merge_tolerance(monkeypatch, multiple,
                                                         merged):
    # on the pole interval [0, 1], x = 2m - 1: simple roots at
    # m = 1/2 ± gap/4 lie the multiple of CHEB_MERGE_TOL apart in x
    gap = multiple * solvers.CHEB_MERGE_TOL
    pair = [0.5 - 0.25 * gap, 0.5 + 0.25 * gap]
    monkeypatch.setattr(solvers, "_circle_roots", lambda *args: None)
    roots = roots_of(Polynomial.fromroots([0.2, *pair, 0.8]), DOMAIN_POLES)
    expected = [0.2, *([0.5] if merged else pair), 0.8]
    assert roots == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("numerator, expected", [
    # a double root
    (Polynomial.fromroots([0.2, 0.5, 0.5, 0.8]), [0.2, 0.5, 0.8]),
    # degree 3 over four poles: f vanishes at ±∞, P at z = 1
    (Polynomial.fromroots([0.2, 0.5, 0.8]), [0.2, 0.5, 0.8]),
    # a complex pair 1e-4 off the real axis, whose eigenvalues lie 4e-4
    # off the circle
    (Polynomial.fromroots([0.2, 0.8]) * Polynomial([0.25 + 1e-8, -1.0, 1.0]),
     [0.2, 0.8]),
    # m = 0.5 ± 0.5i, the images of z = ∞ and z = 0: the leading
    # coefficient of P vanishes
    (Polynomial.fromroots([0.2, 0.8]) * Polynomial([0.5, -1.0, 1.0]),
     [0.2, 0.8]),
    # two roots 1e-6 apart, which the per-interval path merges
    (Polynomial.fromroots([0.2, 0.5, 0.5 + 1e-6, 0.8]), [0.2, 0.5, 0.8]),
    # a root at m = 1e7, θ = 1e-7: the per-interval path takes it for the
    # point at infinity
    (Polynomial.fromroots([0.2, 0.5, 0.8, 1e7]), [0.2, 0.5, 0.8]),
], ids=["double_root", "deficient_degree", "near_real_pair",
        "root_at_z_infinity", "close_pair", "root_near_z_one"])
def test_circle_guards_leave_the_roots_to_the_intervals(paths, numerator,
                                                        expected):
    roots = roots_of(numerator, DOMAIN_POLES)
    assert paths == ["intervals"]
    assert roots == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("multiple, path", [(0.5, "intervals"),
                                            (2.0, "circle")])
def test_circle_band(paths, multiple, path):
    # m = 1/2 ± iy maps to z with |z| = (1/2 + y)/(1/2 - y), off the circle
    # by the multiple of CIRCLE_BAND
    off = multiple * solvers.CIRCLE_BAND
    y = 0.5 * off / (2.0 + off)
    numerator = Polynomial.fromroots([0.2, 0.8]) * Polynomial(
        [0.25 + y * y, -1.0, 1.0])
    assert roots_of(numerator, DOMAIN_POLES) == pytest.approx([0.2, 0.8],
                                                              abs=1e-10)
    assert paths == [path]


def test_circle_leaves_a_function_of_other_degree_to_the_intervals(paths):
    # (m - 1/2)/sqrt(1 + m²) is no ratio of polynomials over the poles, so
    # the roots of its interpolant on the circle are off, and their Newton
    # steps run long
    def evaluate(m):
        values = (m - 0.5) / np.sqrt(1.0 + m * m)
        return values, np.abs(values)

    poles = np.array([0.0, 1.0])
    assert _real_roots(evaluate, poles, poles, 0.0) == pytest.approx(
        [0.5], abs=1e-12)
    assert paths == ["intervals"]


def test_circle_leaves_samples_that_are_not_finite_to_the_intervals(paths):
    # infinite inside the domain, so on every sample of the arc
    numerator = Polynomial.fromroots([-2.0, 0.5, 3.0])
    poles = np.array([0.0, 0.0, 1.0])

    def evaluate(m):
        values = numerator(m) / np.prod(m[:, None] - poles, axis=1)
        values[(m > 0.0) & (m < 1.0)] = np.inf
        return values, np.abs(values)

    splits = np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solvers._circle_roots(evaluate, poles, splits, 0.0) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = _real_roots(evaluate, poles, splits, 0.0)
    assert roots == pytest.approx([-2.0, 3.0], abs=1e-10)
    assert paths == ["intervals"] * 2


@pytest.mark.parametrize("poles", [[0.0, 0.0, 0.5, 1.0, 1.0],
                                   [0.0] * 4 + [0.5] + [1.0] * 4])
def test_circle_nodes_miss_poles_at_both_domain_ends(paths, poles):
    # len(poles) + 1 ≡ 2 (mod 4): nodes at 2π(j + 1/2)/size would land on
    # the images of both domain ends, where the samples are infinite
    expected = [-3.0, 0.1, 0.3, 0.7, 0.9, 2.0, 5.0, 9.0, 11.0][: len(poles)]
    assert roots_of(Polynomial.fromroots(expected), poles) == pytest.approx(
        expected, abs=1e-9)
    assert paths == ["circle"]


def test_seed_one_plants_take_the_circle_and_many_pieces_do_not(paths):
    for kind in ("problem2", "problem3"):
        for plant in seed_one_plants(kind):
            solve_plant(kind, *plant)
    assert paths == ["circle"] * 32
    paths.clear()
    rng = np.random.default_rng(1)
    for pieces in (48, 64):
        for degree in (2, 3, 4, 5):
            knots, base, opposite = plant_strip(rng, degree, pieces)[:3]
            solve_plant("problem1", degree, knots, base, opposite)
    assert paths == ["intervals"] * 8


def test_import_loads_no_fft():
    # numpy 2 loads numpy.fft only on first use; numpy 1 with numpy itself
    code = ("import sys, numpy; before = 'numpy.fft' in sys.modules; "
            "import devstrip; print(before, 'numpy.fft' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(
                             os.environ, PYTHONPATH=str(SRC)))
    before, after = out.stdout.split()
    assert after == before
