"""Repeated Stackelberg security games with a meta-learned defender.

The defender mixes over a finite set of extreme coverage vectors built from
the attacker best-response regions. Across tasks, the MWU distribution is
re-initialized at the running mean of past optima and its learning rate
comes from the EWOO posterior; against a persistent attacker population the
meta arm collapses onto the optimal commitment after a handful of tasks.
"""

import numpy as np

from metagames.games import SecurityGame
from metagames.stackelberg import StackelbergConfig, build_extreme_points, run_meta_stackelberg

rng = np.random.default_rng(2)
d, k = 4, 3
types = [(rng.uniform(-1, 0, d), rng.uniform(0, 1, d)) for _ in range(k)]
game = SecurityGame(types, rng.uniform(0, 1, d), rng.uniform(-1, 0, d))
E = build_extreme_points([game], gamma=1e-3)
print(f"{d} targets, {k} attacker types -> |E| = {len(E)} extreme points "
      f"({E.provenance})")

T, m = 40, 200
# attacker types 0 and 1, drawn i.i.d. per round
script = np.random.default_rng(4).integers(0, 2, size=(T, m)).tolist()

for name, init in (("meta (FTL mean)", "ftl-average"), ("uniform restart", "uniform")):
    cfg = StackelbergConfig(m=m, initializer=init, eta="ewoo", seed=8)
    recs, summary = run_meta_stackelberg([game] * T, script, cfg, extreme_points=E)
    early = float(np.mean([r["regret_expected"] for r in recs[:5]]))
    late = float(np.mean([r["regret_expected"] for r in recs[-5:]]))
    print(f"\n{name}:")
    print(f"  expected Stackelberg regret, first 5 tasks: {early:8.3f}")
    print(f"  expected Stackelberg regret, last 5 tasks:  {late:8.3f}")
    print(f"  entropy of the mean optimal-commitment distribution: "
          f"{summary['entropy_mean_optimum']:.3f} (log|E| = {np.log(len(E)):.3f})")
    bound_ok = all(r["regret_expected"] <= r["mwu_bound"] + 1e-9 for r in recs)
    print(f"  per-task MWU regret bound held on every task: {bound_ok}")
