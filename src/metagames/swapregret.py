"""No-swap-regret reduction: per-action learners driving a Markov chain.

Each action of a player owns a log-barrier OMD learner (Blum & Mansour
2007; Anagnostides et al. 2022). At every round the player mixes according
to a stationary distribution of the row-stochastic matrix assembled from the
per-action strategies, and each learner ``a`` is fed the utility scaled by
the mass the mix put on ``a``. The d learners of a player are stepped
together: their secondary iterates, played rows and scaled utilities are
(d, d) stacks, and each half-step is one row-wise log-barrier prox.
"""

from __future__ import annotations

import numpy as np

from metagames.errors import InvalidInputError, NumericError
from metagames.geometry import Simplex, _prox_log_barrier_simplex, lift_interior
from metagames.learners import external_regret

_DAMPING = 1e-12


def stationary_distribution(Q, tol=1e-12, max_iter=20_000):
    """Stationary distribution pi with pi Q = pi of a row-stochastic matrix.

    Power iteration from uniform with a vanishing damping term (avoids
    periodic chains); falls back to a direct linear solve for small
    matrices. Deterministic among multiple stationary distributions.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise InvalidInputError("transition matrix must be square")
    if not (Q.min() >= -1e-12 and abs(Q.sum(axis=1) - 1.0).max() <= 1e-9):
        raise InvalidInputError("rows must be distributions")
    d = Q.shape[0]
    if d == 1:
        return np.array([1.0])
    pi = np.full(d, 1.0 / d)
    keep = 1.0 - _DAMPING
    damping = _DAMPING * pi
    for _ in range(max_iter):
        nxt = keep * (pi @ Q) + damping
        np.maximum(nxt, 0.0, out=nxt)
        nxt /= nxt.sum()
        if abs(nxt - pi).sum() <= tol:
            pi = nxt
            break
        pi = nxt
    if abs(pi @ Q - pi).sum() <= 1e-8:
        return pi
    if d <= 64:
        # Solve (Q^T - I) pi = 0 with sum(pi) = 1 by least squares.
        system = np.vstack([Q.T - np.eye(d), np.ones((1, d))])
        target = np.zeros(d + 1)
        target[-1] = 1.0
        pi, *_ = np.linalg.lstsq(system, target, rcond=None)
        np.maximum(pi, 0.0, out=pi)
        pi /= pi.sum()
        if abs(pi @ Q - pi).sum() <= 1e-8:
            return pi
    raise NumericError(
        f"stationary distribution residual {abs(pi @ Q - pi).sum():.3e} > 1e-8"
    )


class ActionView:
    """One action's learner of a ``SwapWrapper``, read off its stacks: the
    played ``path`` (from ``init``), the scaled ``utilities`` and the ``set``."""

    __slots__ = ("path", "utilities", "init", "set")

    def __init__(self, path, utilities, strategy_set):
        self.path = path
        self.utilities = utilities
        self.init = path[0]
        self.set = strategy_set

    def utility_array(self):
        return self.utilities


class SwapWrapper:
    """Per-action no-swap-regret reduction with one log-barrier learner per
    action, all d of them stepped as (d, d) row stacks.

    Row ``a`` of each stack is learner ``a``, a recency-predicting log-barrier
    OMD learner started at uniform: it plays prox(xhat, mix[a] * u_prev) and
    moves its secondary iterate xhat to prox(xhat, mix[a] * u).
    """

    def __init__(self, dim, eta):
        if not eta > 0:
            raise InvalidInputError(f"learning rate must be positive, got {eta}")
        self.dim = dim
        self.eta = float(eta)
        self._set = Simplex(dim)
        start = np.full((dim, dim), 1.0 / dim)
        self._paths = [start]  # the starting rows, then the rows played each round
        self._scaled = []  # the (d, d) scaled utilities of each round
        # the lifted secondary iterates: the anchors of both half-steps
        self._anchors = lift_interior(start)
        self._played = _prox_log_barrier_simplex(self._anchors, np.zeros((dim, dim)), self.eta)
        self.mix = stationary_distribution(self._played)
        self.mix_path = [self.mix.copy()]
        self.utilities = []

    def _transition(self):
        """The played (d, d) rows: the current row-stochastic matrix."""
        return self._played

    @property
    def action_learners(self):
        """Per-action views of the stacks, built on each read."""
        paths = np.stack(self._paths, axis=1)
        utilities = self._scaled_stack()
        return tuple(ActionView(paths[a], utilities[a], self._set) for a in range(self.dim))

    def _scaled_stack(self):
        """(d, m, d): row ``a``'s scaled utilities of every round."""
        if not self._scaled:
            return np.empty((self.dim, 0, self.dim))
        return np.stack(self._scaled, axis=1)

    def play(self):
        return self.mix

    def update(self, utility):
        """Distribute the scaled utility, step every learner, re-mix."""
        utility = np.array(utility, dtype=float)
        if utility.shape != (self.dim,):
            raise InvalidInputError(f"utility must have shape ({self.dim},), got {utility.shape}")
        # A NaN fails the comparison as an infinity does.
        if not abs(utility).max() <= 1.0 + 1e-9:
            raise InvalidInputError("utilities must be finite with ||u||_inf <= 1")
        scaled = self.mix[:, None] * utility
        anchors = lift_interior(_prox_log_barrier_simplex(self._anchors, scaled, self.eta))
        played = _prox_log_barrier_simplex(anchors, scaled, self.eta)
        mix = stationary_distribution(played)
        self.utilities.append(utility)
        self._scaled.append(scaled)
        self._paths.append(self._played)
        self._anchors, self._played, self.mix = anchors, played, mix
        self.mix_path.append(mix.copy())

    def played_array(self):
        return np.asarray(self.mix_path[:-1]) if self.utilities else np.empty((0, self.dim))

    def utility_array(self):
        return np.asarray(self.utilities)

    def per_action_external_regrets(self, comparators=None):
        """External regret of each per-action learner under its scaled feed,
        against its best action in hindsight or row ``a`` of ``comparators``."""
        if not self.utilities:
            return np.zeros(self.dim)
        played = np.stack(self._paths[1:], axis=1)
        if comparators is not None:
            comparators = np.asarray(comparators, dtype=float)
        return external_regret(played, self._scaled_stack(), self._set, comparators)[0]


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
