"""Frozen reference data for the regression tests.

Two boundary-data sets recur throughout the suite:

* QUAD_*: a one-piece quadratic strip whose recursion closes in exact
  fractions, so those values are asserted near machine precision.
* CUBIC_* / TRI_*: the two-piece cubic data behind the bundled spline3 /
  spline4 / splinet fixtures.  Those reference constants are printed to
  two decimals, so comparisons against them use a 0.01 box tolerance;
  values we can derive independently (monic quartic coefficients, exact
  interpolation conditions) get tight tolerances instead.
"""

import math

# --- one-piece quadratic strip (exact fractions) ---------------------------

QUAD_DEGREE = 2
QUAD_KNOTS = (0.0, 0.0, 1.0, 1.0)
QUAD_CONTROL = ((0.0, 0.0, 0.0), (3.0, 3.0, 0.0), (4.0, 3.0, 0.0))
QUAD_D0 = (0.0, 0.0, 2.0)
QUAD_D1 = (2.0, 2.0, 3.0)
QUAD_LAMBDA = -4.0 / 3.0
QUAD_M = -2.0
QUAD_D = ((0.0, 0.0, 2.0), (2.0, 2.0, 3.0), (13.0 / 6.0, 1.5, 4.5))

QUAD_TILDE_C = ((0.0, 0.0, 0.0), (2.0, 2.0, 0.0),
                (10.0 / 3.0, 3.0, 0.0), (4.0, 3.0, 0.0))
QUAD_TILDE_D = ((0.0, 0.0, 2.0), (4.0 / 3.0, 4.0 / 3.0, 8.0 / 3.0),
                (37.0 / 18.0, 11.0 / 6.0, 3.5), (13.0 / 6.0, 1.5, 4.5))

# Middle cell of the elevated net: |det| = 1/27 over edge norms
# 5/3, sqrt(8), sqrt(3979)/18 (edges from the exact tilde vertices).
QUAD_TILDE_MIDDLE_RESIDUAL = (1.0 / 27.0) / (
    (5.0 / 3.0) * math.sqrt(8.0) * math.sqrt(3979.0) / 18.0)

# --- two-piece cubic data (spline3 fixture) ---------------------------------

CUBIC_DEGREE = 3
CUBIC_KNOTS = (0.0, 0.0, 0.0, 0.3, 0.7, 1.0, 1.0, 1.0)
CUBIC_CONTROL = ((0.0, 0.0, 0.0), (2.0, 3.0, 0.0), (4.0, 3.0, 0.0),
                 (5.0, 0.0, 0.0), (7.0, 2.0, 1.0), (9.0, -1.0, 3.0))
CUBIC_V = (0.0, 0.0, 2.0)
CUBIC_W = (-1.0, 0.0, 1.0)
CUBIC_D0 = (0.0, 0.0, 2.0)

# monic coplanarity quartic, descending degree
CUBIC_QUARTIC = (1.0, 6.2, -12.3, 9.3, -2.1)
CUBIC_ROOTS = (-7.91, 0.37)
CUBIC_LAMBDA_BY_ROOT = (-6.18, 0.61)  # with sigma = 1, per root index
CUBIC_TAU = 2.24

CUBIC_D = ((0.0, 0.0, 2.0), (1.56, 2.34, 2.08), (3.09, 2.29, 2.26),
           (3.75, -0.15, 2.55), (5.22, 1.42, 3.55), (6.76, -1.00, 5.24))
CUBIC_LAST_RULING = (-2.24, 0.00, 2.24)

# full-multiplicity split at the inner breakpoints
CUBIC_SPLIT_C = ((0.0, 0.0, 0.0), (2.0, 3.0, 0.0), (2.86, 3.0, 0.0),
                 (3.48, 2.61, 0.0), (4.3, 2.1, 0.0), (4.7, 0.9, 0.0),
                 (5.52, 1.04, 0.33), (6.14, 1.14, 0.57), (7.0, 2.0, 1.0),
                 (9.0, -1.0, 3.0))
CUBIC_SPLIT_D = ((0.0, 0.0, 2.0), (1.56, 2.34, 2.08), (2.21, 2.32, 2.15),
                 (2.67, 1.99, 2.24), (3.29, 1.56, 2.35), (3.55, 0.58, 2.46),
                 (4.15, 0.68, 2.84), (4.59, 0.75, 3.12), (5.22, 1.42, 3.55),
                 (6.76, -1.00, 5.24))

# auxiliary 3-ary blossom values of the cubic boundary pair
CUBIC_AUX_C = {
    (0.0, 0.3, 0.3): (2.86, 3.0, 0.0),
    (0.3, 0.3, 0.3): (3.48, 2.61, 0.0),
    (0.3, 0.3, 0.7): (4.3, 2.1, 0.0),
    (0.3, 0.7, 0.7): (4.7, 0.9, 0.0),
    (0.7, 0.7, 0.7): (5.52, 1.04, 0.33),
    (0.7, 0.7, 1.0): (6.14, 1.14, 0.57),
}
CUBIC_AUX_D = {
    (0.0, 0.3, 0.3): (2.21, 2.32, 2.15),
    (0.3, 0.3, 0.3): (2.67, 1.99, 2.24),
    (0.3, 0.3, 0.7): (3.29, 1.56, 2.35),
    (0.3, 0.7, 0.7): (3.55, 0.58, 2.46),
    (0.7, 0.7, 0.7): (4.15, 0.68, 2.84),
    (0.7, 0.7, 1.0): (4.59, 0.75, 3.12),
}

# --- two-corner solve on the cubic data (spline4 fixture) -------------------

CORNER_D0 = (0.0, 0.0, 2.0)
CORNER_DL = (8.0, -1.0, 4.0)

CORNER_TILDE_C = ((0.0, 0.0, 0.0), (1.5, 2.25, 0.0), (2.43, 3.0, 0.0),
                  (3.79, 2.78, 0.0), (4.5, 1.5, 0.0), (5.21, 0.51, 0.14),
                  (6.57, 1.57, 0.79), (7.5, 1.25, 1.5), (9.0, -1.0, 3.0))
CORNER_TILDE_D = ((0.0, 0.0, 2.0), (1.17, 1.76, 1.97), (1.93, 2.39, 1.94),
                  (3.06, 2.24, 1.86), (3.71, 1.20, 1.74), (4.38, 0.35, 1.73),
                  (5.68, 1.30, 2.14), (6.56, 1.05, 2.70), (8.0, -1.0, 4.0))
CORNER_SCALED_BLOSSOM_ARGS = (0.0, 0.0, 0.0, 0.3)
CORNER_SCALED_BLOSSOM_VALUE = (1.17, 1.76, 1.97)

# --- triangular solve on the cubic data (splinet fixture) -------------------

TRI_DL = (8.0, -1.0, 4.0)
TRI_APEX_VELOCITY = (20.0, 30.5, 2.0)
TRI_APEX_DIRECTION = (0.0, 0.5, 2.0)

TRI_QUARTIC = (8.0, 2.6, -16.0, 14.5, -3.5)  # descending, un-normalized
TRI_ROOTS = (-1.92, 0.38)
# Of the two (root, interior parameter) candidates, index 0 is the pair
# that reproduces the reference polygon: (M*, lambda*) = (-1.92, -1.16).
TRI_ROOT_INDEX = 0
TRI_LAMBDA = -1.16
TRI_TAU = 6.08

TRI_D_MID = ((0.0, 0.5, 2.0), (1.21, 2.39, 2.31), (2.13, 2.17, 3.16),
             (1.77, -0.07, 4.80), (2.07, 1.22, 6.97), (2.92, -1.00, 9.08))
TRI_TILDE_D = ((0.0, 0.5, 2.0), (0.91, 1.89, 2.11), (1.51, 2.42, 2.20),
               (2.39, 2.24, 2.37), (2.97, 1.26, 2.37), (3.64, 0.39, 2.34),
               (5.20, 1.37, 2.48), (6.26, 1.15, 2.87), (8.0, -1.0, 4.0))

TRI_HAT_C = ((0.0, 0.0, 0.0), (1.20, 1.80, 0.0), (2.06, 2.70, 0.0),
             (2.66, 2.96, 0.0), (3.69, 2.69, 0.0), (4.34, 1.79, 0.0),
             (4.66, 1.27, 0.03), (5.31, 0.72, 0.20), (6.34, 1.39, 0.68),
             (6.94, 1.44, 1.07), (7.80, 0.80, 1.80), (9.0, -1.0, 3.0))
TRI_HAT_D = ((0.0, 0.0, 0.0), (1.20, 1.83, 0.12), (1.99, 2.66, 0.25),
             (2.50, 2.86, 0.40), (3.29, 2.52, 0.75), (3.65, 1.64, 1.09),
             (3.83, 1.15, 1.30), (4.25, 0.62, 1.70), (5.18, 1.24, 2.15),
             (5.77, 1.30, 2.47), (6.67, 0.72, 3.03), (8.0, -1.0, 4.0))

# auxiliary blossoms of the triangular solve's intermediate stages
TRI_AUX_D_MID = {
    (0.0, 0.3, 0.3): (1.61, 2.30, 2.67),
    (0.7, 0.7, 1.0): (1.94, 0.67, 6.04),
}
TRI_AUX_TILDE_C = {(0.0, 0.3, 0.3, 0.3): (3.01, 2.90, 0.0)}
TRI_AUX_TILDE_D = {(0.0, 0.3, 0.3, 0.3): (1.89, 2.35, 2.28)}

# --- a corner solve whose chosen root lies just past the domain end --------

# The planted strip problem2-p6-n4 of stripbench's `elevated` workload,
# seed 286, as corner data.  Root 0, M* = 1.00494, lies 0.005 past u = 1;
# it gives tau = 6.5e-10, so the rescale stretches the last rulings by
# 1/tau and the scan at 100 samples per piece reads 1.46e-7 next to u = 1.
# Root 1, M* = 2.45766, gives a patch the scan accepts.
NEAR_END_DEGREE = 4
NEAR_END_KNOTS = (0.0, 0.0, 0.0, 0.0, 0.13037062155520512,
                  0.2911689009476021, 0.512054854804729, 0.6618643749794332,
                  0.8162951771765202, 1.0, 1.0, 1.0, 1.0)
NEAR_END_CONTROL = (
    (0.0, 0.0, 0.0),
    (0.10340788710816014, 0.09040874192669483, 0.23979261263906418),
    (0.15150697416519254, 0.3563634375535865, 0.14380264267675635),
    (0.42227655779581164, 0.42524902864537806, 0.1772287668261489),
    (0.19596562893104777, 0.32474945335763994, 0.28027869837588787),
    (0.2796998597989149, 0.5997273827340182, 0.771176299805789),
    (0.12138384133005928, 0.5785236364775547, 0.5554350516005305),
    (0.7000382055299886, 0.5275827035882705, 0.3334109175113893),
    (0.8877262964016674, 0.7257581650388417, -0.017930500206120525),
    (1.0227259079790199, 0.6123013269890029, -0.03178160348400961))
NEAR_END_D0 = (-0.042021744673079446, 0.20961166891532548,
               -0.07781525730627349)
NEAR_END_DL = (1.1580871706835614, 0.6623751218520704, -0.12583581515336886)
