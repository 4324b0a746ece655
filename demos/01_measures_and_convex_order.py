"""Measures, quantization, and the convex-order check.

A martingale can move mass around but never shrink the spread of a
distribution: a coupling of (mu, nu) with rows centered at their source
exists exactly when nu is at least as spread out as mu in convex order.
This demo builds a few marginals, quantizes a density to atoms, and runs
the call-function check that decides the order.
"""

import numpy as np

from motkit import (DiscreteMeasure, GridDensity, common_mass_split,
                    convex_order_check, quantize)

# -- a V-shaped density on [-1, 1], quantized to 8 atoms ---------------------
n = 8
cells = GridDensity(-1.0, 1.0, n, np.ones(n))
density = GridDensity(-1.0, 1.0, n, np.abs(cells.midpoints()))
mu = quantize(density)
print("quantized V-density:")
for x, w in mu.atoms():
    print(f"  atom at {x:+.4f} with mass {w:.4f}")
print(f"total mass {mu.total_mass():.12f}, mean {mu.mean():+.2e}  "
      "(both preserved exactly)\n")

# -- convex order: a centered point mass against symmetric spreads -----------
point = DiscreteMeasure([0.0], [1.0])
spread = DiscreteMeasure([-2.0, 2.0], [0.5, 0.5])
print("point <= spread:", convex_order_check(point, spread).in_order)
print("spread <= point:", convex_order_check(spread, point).in_order)
report = convex_order_check(spread, point)
print(f"  -> violated worst at k={report.worst_k:+.2f} "
      f"with gap {report.worst_gap:+.3f}\n")

# -- the quantized density sits between the two --------------------------------
print("mu <= spread:", convex_order_check(mu, spread).in_order)
print("point <= mu:", convex_order_check(point, mu).in_order, "\n")

# -- shared atoms split off as common mass ------------------------------------
left = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
right = DiscreteMeasure([0.0, 2.0], [0.5, 0.5])
common, left_rest, right_rest = common_mass_split(left, right)
print("common mass:", common.atoms())
print("residuals:", left_rest.atoms(), right_rest.atoms())
