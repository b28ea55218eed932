"""No-swap-regret play and convergence to correlated equilibrium.

Both players run the per-action reduction: one log-barrier learner per
action feeding a Markov chain whose stationary distribution is the played
mix. Swap regret stays below the sum of per-action external regrets, and
the correlated-equilibrium gap of the empirical distribution shrinks as the
horizon doubles.
"""

import numpy as np

from metagames.games import NormalFormGame, lipschitz_constant
from metagames.harness import play_task
from metagames.metrics import cce_ce_gap
from metagames.swapregret import SwapWrapper, default_log_barrier_eta, swap_regret

rng = np.random.default_rng(3)
dims = (3, 3)
game = NormalFormGame([rng.uniform(-1, 1, size=dims) for _ in range(2)])
L = lipschitz_constant(game)
# the conservative default is glacial at demo scale; a modest multiple keeps
# the regret chain intact while making the drift visible
eta = 20 * default_log_barrier_eta(2, 3, L)
print(f"random 3x3 general-sum game, log-barrier eta = {eta:.5f}")

players = play_task(game, [SwapWrapper(d, eta) for d in dims], 800)

for k, w in enumerate(players):
    sw = swap_regret(w.played_array(), w.utility_array())
    per_action = w.per_action_external_regrets()
    print(f"player {k}: swap regret {sw:7.3f} <= sum of action regrets "
          f"{float(np.sum(per_action)):7.3f}  (rows: {np.round(per_action, 3)})")

print("\nCE gap of the empirical product-of-play distribution:")
for horizon in (100, 200, 400, 800):
    mu = np.zeros(dims)
    for i in range(horizon):
        mu += np.outer(players[0].mix_path[i], players[1].mix_path[i])
    mu /= horizon
    cce, ce = cce_ce_gap(mu, game)
    print(f"  m = {horizon:4d}: CE gap {ce:.5f}  (CCE gap {cce:.5f})")
