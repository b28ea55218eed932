"""Variational-inequality solvers beyond bilinear games.

Three vignettes: extra-gradient on a random saddle-point, the unconstrained
weak-MVI recursion on a rotation operator, and the horizon-tuned learning
rate for a Holder-continuous (non-Lipschitz) operator with its m^(-alpha/2)
residual decay.
"""

import numpy as np

from metagames.games import MatrixGame, VIOperator, lipschitz_constant
from metagames.geometry import Box
from metagames.holder_vi import componentwise_power_operator, holder_run, weak_mvi_run
from metagames.harness import play_task
from metagames.learners import SECONDARY_ANCHOR, OMDLearner, external_regret
from metagames.metrics import duality_gap, svi_residual

rng = np.random.default_rng(9)

print("-- extra-gradient on a random 3x3 saddle point --")
game = MatrixGame(rng.uniform(-1, 1, size=(3, 3)))
op = game.operator()
# extra-gradient: OMD that predicts with -F at the previous secondary iterate
eg = OMDLearner(
    op.set, 1.0 / (8.0 * lipschitz_constant(game)), init=op.set.center(),
    prediction_mode=SECONDARY_ANCHOR,
)
play_task(op, [eg], 1000, free_first=False)
hats = np.asarray(eg.path[1:])  # the extrapolated points
for m in (100, 1000):
    gap = duality_gap(game, np.mean(hats[:m, :3], axis=0), np.mean(hats[:m, 3:], axis=0))
    print(f"  duality gap of first-{m} secondary average: {gap:.6f}")
reg, _ = external_regret(hats, eg.utilities, op.set)
print(f"  proxy regret of the secondary sequence: {reg:.4f}")

print("\n-- weak MVI: rotation operator, unconstrained recursion --")
box = Box(np.full(2, -np.inf), np.full(2, np.inf))
rot = VIOperator(lambda z: np.array([z[1], -z[0]]), box, lipschitz=1.0, weak_mvi_rho=0.01)
rot.mvi_point = np.zeros(2)
out = weak_mvi_run(rot, np.array([1.0, 0.0]), m=500, eta=0.2)
print(f"  sum ||F(z_i)||^2 = {out['bound_lhs']:.3f} <= bound {out['bound_rhs']:.3f}")
print(f"  min operator norm along the run: {out['min_norm']:.5f}")

print("\n-- Holder-continuous operator (alpha = 0.5) --")
op = componentwise_power_operator(4, 0.5)
z0 = np.full(4, 0.9)
for m in (100, 1000, 10000):
    run = holder_run(op, z0, m, radius_bound=float(np.linalg.norm(z0)))
    best = min(svi_residual(op, z) for z in run["primary"][1:])
    print(f"  m = {m:5d}: eta(m) = {run['eta']:.4f}, best-iterate residual {best:.5f}")
print("  (the residual tracks m^(-1/4) for alpha = 0.5)")
