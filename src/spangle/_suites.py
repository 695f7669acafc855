"""Names and size limit of the verification suites.

Declared apart from :mod:`spangle.verify`, which re-exports them, so that
the command line can build its help text without loading the verify
stack.
"""

SUITE_NAMES = ("pythagorean", "oriented", "metric-axioms", "oracle-equivalence", "bounds")

# The largest ambient dimension a suite draws (the exterior oracle costs
# 4^n); some loops inside the suites cap it lower.
DIM_MAX_LIMIT = 8
