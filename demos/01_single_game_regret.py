"""Anatomy of one optimistic gradient descent run on a random matrix game.

Plays m rounds of self-play, then unpacks the regret bound piece by piece:
the initialization (Bregman) credit, the prediction-error charge, and the
path-length refund. Also demonstrates the exact identity between the sum of
regrets and the duality gap of the average strategies.
"""

import numpy as np

from metagames.games import MatrixGame, lipschitz_constant
from metagames.geometry import Simplex
from metagames.harness import make_learner, play_task
from metagames.learners import external_regret, rvu_terms
from metagames.metrics import duality_gap, path_lengths, saddle_point

rng = np.random.default_rng(0)
A = rng.uniform(-1, 1, size=(4, 5))
game = MatrixGame(A)
L = lipschitz_constant(game)
eta = 1.0 / (4.0 * L)
m = 500

print(f"game: 4x5 random payoffs, spectral norm L = {L:.3f}, eta = 1/(4L) = {eta:.4f}")

xl = make_learner("ogd", Simplex(4), eta)
yl = make_learner("ogd", Simplex(5), eta)
play_task(game, [xl, yl], m)

for name, lrn, d in (("x", xl, 4), ("y", yl, 5)):
    reg, opt = external_regret(np.asarray(lrn.path[1:]), lrn.utility_array(), Simplex(d))
    breg, pred, path = rvu_terms(lrn, opt)
    rhs = breg / eta + eta * pred - path / (8.0 * eta)
    print(f"player {name}: regret {reg:8.4f}")
    print(f"  bound pieces: {breg / eta:.4f} (init) + {eta * pred:.4f} (prediction)"
          f" - {path / (8 * eta):.4f} (path)  =>  {rhs:.4f}")

rx, _ = external_regret(np.asarray(xl.path[1:]), xl.utility_array(), Simplex(4))
ry, _ = external_regret(np.asarray(yl.path[1:]), yl.utility_array(), Simplex(5))
x_bar = np.mean(np.asarray(xl.path[1:]), axis=0)
y_bar = np.mean(np.asarray(yl.path[1:]), axis=0)
gap = duality_gap(game, x_bar, y_bar)
print(f"\nduality gap of averages: {gap:.6f}")
print(f"(regret_x + regret_y)/m: {(rx + ry) / m:.6f}   <- identical by construction")

sx, sy, value = saddle_point(game)
zp = np.hstack([xl.primary_array(), yl.primary_array()])
zh = np.hstack([xl.secondary_array(), yl.secondary_array()])
_, refined = path_lengths(zp, zh)
budget = 2.0 * float(np.sum((np.concatenate([sx, sy]) - zp[0]) ** 2))
print(f"\ngame value {value:.4f}; refined path length {refined:.4f}"
      f" stays below the equilibrium budget {budget:.4f}")
