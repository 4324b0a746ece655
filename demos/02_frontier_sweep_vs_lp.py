"""The frontier sweep against the LP oracle on a separated instance.

When mu lives inside an interval that carries no nu mass, the optimal
martingale coupling for |x-y|^p is unique for every p in (0, 1] and never
depends on p. The sweep constructs it directly: scanning mu left to right,
each atom splits between two frontiers that consume nu from above, and the
split is pinned by the barycenter constraint. The LP oracle solves the same
instance by brute force; the two must agree to machine precision.
"""

import numpy as np

from motkit import (DiscreteMeasure, check_decreasing, cost, coupling_matrix,
                    detect_forbidden, detect_separation, solve, solve_lp,
                    uniqueness_probe)

rng = np.random.default_rng(8)

# mu: five atoms inside (-1, 1); nu: spreads of those atoms onto two pools
xs = rng.uniform(-0.8, 0.8, 5)
ws = rng.uniform(0.5, 1.0, 5)
mu = DiscreteMeasure(xs, ws / ws.sum())
pools = {}
for x, w in zip(mu.positions, mu.masses):
    lo = float(rng.choice([-2.6, -1.7]))
    hi = float(rng.choice([1.4, 2.2, 3.0]))
    t = (hi - x) / (hi - lo)
    pools[lo] = pools.get(lo, 0.0) + w * t
    pools[hi] = pools.get(hi, 0.0) + w * (1 - t)
nu = DiscreteMeasure(list(pools.keys()), list(pools.values()))

interval = detect_separation(mu, nu)
print(f"separation interval: ({interval.a:+.3f}, {interval.b:+.3f})\n")

sol = solve(mu, nu, 1.0, method="sweep")
pi, maps = sol.coupling(), sol.maps
print("frontier maps (x -> deepest target per side, consumed fraction):")
print(f"{'x':>8} {'S(x)':>8} {'T(x)':>8} {'lam-':>6} {'lam+':>6}")
for x, s, t, lm, lp_ in maps.as_rows():
    print(f"{x:8.3f} {s:8.3f} {t:8.3f} {lm:6.3f} {lp_:6.3f}")
print("maps nonincreasing:", check_decreasing(maps))
print("forbidden configurations:", detect_forbidden(pi), "\n")

for p in (0.3, 0.6, 1.0):
    sol = solve_lp(mu, nu, p)
    gap = np.abs(coupling_matrix(pi, mu, nu) - sol.matrix).max()
    print(f"p={p}: sweep cost {cost(pi, p):.10f}  LP cost {sol.objective:.10f}  "
          f"entrywise gap {gap:.2e}")

print("\nLP optimum unique (probe):", uniqueness_probe(mu, nu, 1.0))
