"""Root finder: exact factorizations, multiple roots, random recovery.

``solvers._real_roots`` finds the real roots of a rational function bounded
at ±∞, interval by interval between its poles.  The functions here are
products of linear factors over products of poles, so their roots are known
exactly.
"""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from devstrip import BSplineCurve, PlanarSurfaceError, solve_problem1
from devstrip.solvers import _real_roots

import reference as ref


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
