#!/usr/bin/env python3
"""Three queues whose service rates see only which other queues are busy.

Queue i serves at a_i alone, at a_ij when only queue j is busy, and at 1 when
both others are busy.  The stability region is a union of six per-permutation
regions; this script walks one permutation's sequential conditions and prints
the numerically solved busy/empty split of the saturated pair behind the
third condition (it has no closed form).
"""

from coupledq import StabilityEngine, three_queue_table

a = (3.0, 3.0, 3.0)
a_pair = {(i, j): 2.0 for i in range(3) for j in range(3) if i != j}
spec = three_queue_table(a, a_pair)
engine = StabilityEngine(spec)

rates = (0.5, 1.2, 0.3)
print(f"arrival rates: {rates}")
print("sequential conditions along the identity permutation:")
scan = engine.sequential_prefix(rates, (0, 1, 2))
for s in scan.stages:
    print(f"  queue {s.queue + 1}: arrival {s.lam:<4} < saturated average "
          f"service {s.avg_rate:.6f}  (margin {s.margin:+.6f})")

print("\nthe second threshold has the closed form lam1 + a23 (1 - lam1):")
print(f"  {rates[0]} + {a_pair[(1, 2)]} * (1 - {rates[0]}) = "
      f"{rates[0] + a_pair[(1, 2)] * (1 - rates[0])}")

print("\nthe third threshold needs the stationary busy/empty split of queues")
print("1 and 2 with queue 3 saturated (no closed form; solved numerically):")
dist, report = engine.prefix_law(rates, (0, 1))
g = dist.grid()
p00, p01 = float(g[0, 0]), float(g[0, 1:].sum())
p10, p11 = float(g[1:, 0].sum()), float(g[1:, 1:].sum())
print(f"  p00={p00:.8f}  p01={p01:.8f}  p10={p10:.8f}  p11={p11:.8f}"
      f"  (sum = {p00 + p01 + p10 + p11:.12f})")
rhs = a[2] * p00 + a_pair[(2, 0)] * p10 + a_pair[(2, 1)] * p01 + p11
print(f"  queue 3 threshold: {rhs:.8f}; arrival {rates[2]} -> "
      f"{'stable' if rates[2] < rhs else 'not covered by this permutation'}")
print(f"  (certified truncations: {report.boxes_tried})")

verdict = engine.classify(rates)
print(f"\nfull verdict across all six permutations: {verdict.system.value}, "
      f"per-queue {[l.value for l in verdict.per_queue]}")
