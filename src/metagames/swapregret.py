"""No-swap-regret reduction: per-action learners driving a Markov chain.

Each action of a player owns a log-barrier OMD learner. At every round the
player mixes according to a stationary distribution of the row-stochastic
matrix assembled from the per-action strategies, and each learner ``a`` is
fed the utility scaled by the mass the mix put on ``a``.
"""

from __future__ import annotations

import numpy as np

from metagames.errors import InvalidInputError, NumericError
from metagames.geometry import LOG_BARRIER, Regularizer, Simplex
from metagames.learners import OMDLearner, external_regret

_DAMPING = 1e-12


def stationary_distribution(Q, tol=1e-12, max_iter=20_000):
    """Stationary distribution pi with pi Q = pi of a row-stochastic matrix.

    Power iteration from uniform with a vanishing damping term (avoids
    periodic chains); falls back to a direct linear solve for small
    matrices. Deterministic among multiple stationary distributions.
    """
    Q = np.asarray(Q, dtype=float)
    d = Q.shape[0]
    if Q.ndim != 2 or Q.shape[1] != d:
        raise InvalidInputError("transition matrix must be square")
    if np.min(Q) < -1e-12 or np.max(np.abs(np.sum(Q, axis=1) - 1.0)) > 1e-9:
        raise InvalidInputError("rows must be distributions")
    if d == 1:
        return np.array([1.0])
    pi = np.full(d, 1.0 / d)
    uniform = np.full(d, 1.0 / d)
    for _ in range(max_iter):
        nxt = (1.0 - _DAMPING) * (pi @ Q) + _DAMPING * uniform
        nxt = np.maximum(nxt, 0.0)
        nxt /= np.sum(nxt)
        if np.sum(np.abs(nxt - pi)) <= tol:
            pi = nxt
            break
        pi = nxt
    if np.sum(np.abs(pi @ Q - pi)) <= 1e-8:
        return pi
    if d <= 64:
        # Solve (Q^T - I) pi = 0 with sum(pi) = 1 by least squares.
        system = np.vstack([Q.T - np.eye(d), np.ones((1, d))])
        target = np.zeros(d + 1)
        target[-1] = 1.0
        pi, *_ = np.linalg.lstsq(system, target, rcond=None)
        pi = np.maximum(pi, 0.0)
        pi /= np.sum(pi)
        if np.sum(np.abs(pi @ Q - pi)) <= 1e-8:
            return pi
    raise NumericError(
        f"stationary distribution residual {np.sum(np.abs(pi @ Q - pi)):.3e} > 1e-8"
    )


class SwapWrapper:
    """Per-action no-swap-regret reduction with one log-barrier learner per
    action."""

    def __init__(self, dim, eta, init_rows=None):
        self.dim = dim
        self.eta = float(eta)
        reg = Regularizer(LOG_BARRIER)
        simplex = Simplex(dim)
        inits = init_rows if init_rows is not None else [None] * dim
        self.action_learners = [
            OMDLearner(simplex, eta, regularizer=reg, init=inits[a]) for a in range(dim)
        ]
        self.mix = self._stationary()
        self.mix_path = [self.mix.copy()]
        self.utilities = []

    def _transition(self):
        return np.asarray([lrn.play() for lrn in self.action_learners])

    def _stationary(self):
        return stationary_distribution(self._transition())

    def play(self):
        return self.mix

    def update(self, utility):
        """Distribute the scaled utility, rebuild the chain, re-mix."""
        utility = np.asarray(utility, dtype=float)
        if np.max(np.abs(utility)) > 1.0 + 1e-9:
            raise InvalidInputError("utilities must satisfy ||u||_inf <= 1")
        self.utilities.append(utility.copy())
        for a, lrn in enumerate(self.action_learners):
            lrn.update(self.mix[a] * utility)
        self.mix = self._stationary()
        self.mix_path.append(self.mix.copy())

    def played_array(self):
        return np.asarray(self.mix_path[:-1]) if self.utilities else np.empty((0, self.dim))

    def utility_array(self):
        return np.asarray(self.utilities)

    def per_action_external_regrets(self, comparators=None):
        """External regret of each per-action learner under its scaled feed."""
        if not self.utilities:
            return np.zeros(self.dim)
        comparators = [None] * self.dim if comparators is None else comparators
        return np.asarray(
            [
                external_regret(lrn.path[1:], lrn.utility_array(), lrn.set, c)[0]
                for lrn, c in zip(self.action_learners, comparators)
            ]
        )


def swap_regret(strategies, utilities):
    """Exact maximum over all action-to-action swap maps.

    The objective decomposes across source actions, so the per-action best
    target composes the optimum over all d^d deterministic maps (and the LP
    over row-stochastic matrices attains the same value at a vertex).
    """
    strategies = np.asarray(strategies, dtype=float)
    utilities = np.asarray(utilities, dtype=float)
    if strategies.shape != utilities.shape:
        raise InvalidInputError("strategy/utility histories must align")
    # R[a, b] = sum_i x_i[a] * (u_i[b] - u_i[a])
    weighted = strategies.T @ utilities  # [a, b] = sum_i x_i[a] u_i[b]
    realized = np.diag(weighted)
    gains = np.max(weighted - realized[:, None], axis=1)
    return float(np.sum(np.maximum(gains, 0.0)))


def boundary_offset_comparator(point, alpha):
    """(1 - alpha) * point + alpha * uniform, the interior-shifted comparator."""
    point = np.asarray(point, dtype=float)
    d = point.shape[0]
    return (1.0 - alpha) * point + alpha / d


def default_log_barrier_eta(n_players, dim, lipschitz):
    """Conservative default step size for the log-barrier base learners."""
    return 1.0 / (64.0 * n_players * dim * max(lipschitz, 1e-12))
