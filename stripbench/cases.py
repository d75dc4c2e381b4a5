"""Seeded benchmark inputs built around planted developable strips.

A planted strip is made here without devstrip: a clamped knot vector on
[0, 1], a control polygon c_0..c_L, constants (lambda*, m*) away from the
domain and a first opposite vertex d_0.  The cell relation

    (u_{i+n} - lambda*) c_i + (lambda* - u_i) c_{i+1}
        = (u_{i+n} - m*) d_i + (m* - u_i) d_{i+1}

then fixes d_1..d_L one after the other.  Boundary data read off the
planted strip (end rulings, corner points, apex velocity) admit at least
the root m*, so a solve that calls them infeasible is wrong.

Knot lists use devstrip's polar convention: L + n - 1 values, the first n
equal to the domain start and the last n equal to its end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Interior knots sit at (k + jitter) / pieces, so no span is shorter than
# 0.4 / pieces.
KNOT_JITTER = 0.3
# m* lies this far outside [0, 1]; lambda* differs from m* by a nonzero
# amount in this range, so the end rulings are never parallel.
M_OFFSET = (0.5, 2.0)
LAMBDA_OFFSET = (0.3, 1.0)
FIRST_RULING_LENGTH = (0.2, 0.5)


@dataclass(frozen=True)
class Plant:
    """A developable strip fixed by the cell relation, plus its constants."""

    degree: int
    knots: np.ndarray
    base: np.ndarray
    opposite: np.ndarray
    lambda_star: float
    m_star: float

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    @property
    def pieces(self) -> int:
        return len(self.base) - self.degree

    @property
    def d0(self) -> np.ndarray:
        return self.opposite[0]

    @property
    def dL(self) -> np.ndarray:
        return self.opposite[-1]

    @property
    def v(self) -> np.ndarray:
        return self.opposite[0] - self.base[0]

    @property
    def w(self) -> np.ndarray:
        return self.opposite[-1] - self.base[-1]

    def apex_velocity(self) -> np.ndarray:
        """Start velocity of the opposite boundary of the triangular patch
        that shrinks this strip's rulings linearly to zero at the start:
        d'(a) = c'(a) + (d_0 - c_0) / (b - a)."""
        n = self.degree
        a, b = self.domain
        start_velocity = n * (self.base[1] - self.base[0]) / (self.knots[n] - a)
        return start_velocity + self.v / (b - a)


def plant_strip(rng: np.random.Generator, degree: int, pieces: int) -> Plant:
    n = degree
    inner = (np.arange(1, pieces)
             + rng.uniform(-KNOT_JITTER, KNOT_JITTER, pieces - 1)) / pieces
    knots = np.concatenate((np.zeros(n), inner, np.ones(n)))
    count = pieces + n
    steps = rng.normal(0.0, 0.6 / np.sqrt(count), (count - 1, 3))
    steps[:, 0] += 1.0 / count
    base = np.vstack((np.zeros(3), np.cumsum(steps, axis=0)))

    side = rng.choice((-1.0, 1.0))
    m = (1.0 if side > 0 else 0.0) + side * rng.uniform(*M_OFFSET)
    lam = m + rng.choice((-1.0, 1.0)) * rng.uniform(*LAMBDA_OFFSET)
    first = rng.normal(size=3)
    first *= rng.uniform(*FIRST_RULING_LENGTH) / np.linalg.norm(first)

    u = knots
    opposite = np.empty_like(base)
    opposite[0] = base[0] + first
    for i in range(count - 1):
        opposite[i + 1] = ((u[i + n] - lam) * base[i]
                           + (lam - u[i]) * base[i + 1]
                           + (m - u[i + n]) * opposite[i]) / (m - u[i])
    return Plant(n, knots, base, opposite, float(lam), float(m))
