"""Names and size limits of the verification suites.

Declared apart from :mod:`spangle.verify`, which re-exports them, so that
the command line can build its help text without loading the verify
stack.
"""

SUITE_NAMES = ("pythagorean", "oriented", "metric-axioms", "oracle-equivalence", "bounds")

# The largest ambient dimension a suite draws (the exterior oracle costs
# 4^n), and the lower caps of the loops inside the suites.
DIM_MAX_LIMIT = 8
ORIENTED_DIM_CAP = 7
HAUSDORFF_DIM_CAP = 6
ORACLE_DIM_CAP = 5
REALIFIED_DIM_CAP = 4
