"""Adaptive preconditioning and non-uniform strategy weighting.

Two refinements of the basic optimistic step. A drifting diagonal
preconditioner reshapes the geometry per coordinate while its total drift
budgets the extra regret; and weighting later iterates more (linear or
quadratic ramps) sharpens the average-strategy guarantee without changing
the algorithm.
"""

import numpy as np

from metagames.games import MatrixGame, lipschitz_constant
from metagames.geometry import Simplex
from metagames.harness import make_learner, play_task
from metagames.learners import (
    AlphaWeights,
    OptAdaGradLearner,
    PreconditionerSchedule,
    alpha_regret,
    external_regret,
)
from metagames.metrics import duality_gap

rng = np.random.default_rng(12)

print("-- drifting diagonal preconditioner --")
m, d = 400, 3
diags = [np.array([4.0, 5.0, 6.0]) + 0.5 * np.sin(np.arange(d) + i / 25.0) for i in range(m)]
pre = PreconditionerSchedule(diags)
ada = OptAdaGradLearner(Simplex(d), pre)
for _ in range(m):
    ada.play()
    ada.update(rng.uniform(-1, 1, d))
reg, _ = external_regret(ada.primary_array()[1:], np.asarray(ada.utilities), Simplex(d))
print(f"adversarial stream, m = {m}: regret {reg:.3f}, "
      f"preconditioner drift sigma(m) = {pre.drift():.3f}")

print("\n-- weighted averages on a saddle-point game --")
game = MatrixGame(rng.uniform(-1, 1, size=(3, 3)))
eta = 1.0 / (4.0 * lipschitz_constant(game))
xl = make_learner("ogd", Simplex(3), eta)
yl = make_learner("ogd", Simplex(3), eta)
m = 300
play_task(game, [xl, yl], m)
xs, ys = np.asarray(xl.path[1:]), np.asarray(yl.path[1:])

for name, weights in (
    ("uniform", AlphaWeights.uniform(m)),
    ("linear", AlphaWeights.linear(m)),
    ("quadratic", AlphaWeights.quadratic(m)),
):
    w = weights.values[:, None] / m
    gap = duality_gap(game, np.sum(w * xs, axis=0), np.sum(w * ys, axis=0))
    ar_x, _ = alpha_regret(xs, xl.utility_array(), weights, Simplex(3))
    ar_y, _ = alpha_regret(ys, yl.utility_array(), weights, Simplex(3))
    print(f"  {name:9s} weighting: duality gap of weighted average {gap:.6f}, "
          f"alpha-regret sum {(ar_x + ar_y):+.4f}")
print("  (later-iterate weighting discounts the rough early phase)")
