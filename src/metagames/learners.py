"""Per-task online learners with exact regret accounting.

The main class is :class:`OMDLearner`, the two-sequence optimistic mirror
descent update

    x^(i)    = prox(xhat^(i-1), m^(i), eta)      (played iterate)
    xhat^(i) = prox(xhat^(i-1), u^(i), eta)      (secondary iterate)

with a configurable prediction rule for m^(i). Extra-gradient is this
update in 'secondary-anchor' mode (m^(i) is the utility at xhat^(i-1)),
played on a VI operator by ``harness.play_task``. OptAdaGrad is this update
with a preconditioned step: an OMDLearner whose prox is the Q^(i)-weighted
projection. Projected gradient ascent is a thin relative of the same kernel.

Every learner here is played round by round by ``harness.play_task``. At
construction each refuses bad input:

- OMDLearner and GDLearner: a rate that is not positive and finite, or a
  start off the set (InvalidInputError from ``check_start``); OMDLearner
  also an unknown prediction mode (ConfigError);
- OptAdaGradLearner: a set that is neither a Simplex nor a Box, or a start
  off the set (InvalidInputError); its PreconditionerSchedule refuses
  diagonals that are not positive and finite (ConfigError).

OMDLearner and OptAdaGradLearner also refuse a non-finite utility in
``update`` (InvalidInputError).

``harness.run_experiment`` plays recency self-play without alternation
with no learners, in kernels that match that loop bit for bit, checking
each start with ``check_start``, every learner's own check.
"""

from __future__ import annotations

import math

import numpy as np

from metagames.errors import ConfigError, InvalidInputError
from metagames.geometry import (
    EUCLIDEAN,
    Box,
    Regularizer,
    Simplex,
    _check_rate,
    bregman,
    project_l2,
    project_simplex,
    prox_step,
)
from metagames.metrics import path_lengths

RECENCY = "recency"
SECONDARY_ANCHOR = "secondary-anchor"
ZERO = "zero"

PREDICTION_MODES = (RECENCY, SECONDARY_ANCHOR, ZERO)


def cold_start(strategy_set):
    """Minimizer of the regularizer over the set (uniform on a simplex)."""
    if isinstance(strategy_set, Box):
        return np.clip(np.zeros(strategy_set.dim), strategy_set.lower, strategy_set.upper)
    return strategy_set.center()


class OMDLearner:
    """Optimistic mirror descent over one strategy set.

    Drive it as: ``play()`` to obtain x^(i), then ``update(u)`` with the
    observed utility. Prediction modes 'recency' and 'zero' are internal;
    'secondary-anchor' expects the driver to call ``set_prediction`` before
    each ``play``, as does alternation (``harness.play_task`` with
    ``alternating=True``) in any mode. History keeps the full primary
    path (including x^(0)), the secondary path, utilities, and predictions,
    each a list of (d,) arrays.
    """

    def __init__(self, strategy_set, eta, regularizer=None, init=None, prediction_mode=RECENCY):
        if prediction_mode not in PREDICTION_MODES:
            raise ConfigError(f"unknown prediction mode {prediction_mode!r}")
        x0 = cold_start(strategy_set) if init is None else np.asarray(init, dtype=float)
        check_start(strategy_set, eta, x0)
        self.set = strategy_set
        self.eta = float(eta)
        self.reg = regularizer if regularizer is not None else Regularizer(EUCLIDEAN)
        self.mode = prediction_mode
        self.x_hat = x0.copy()
        self.prediction = np.zeros(x0.shape)
        self.path = [x0.copy()]  # primary iterates x^(0..i)
        self.hat_path = [x0.copy()]  # secondary iterates xhat^(0..i)
        self.utilities = []
        self.predictions = []
        self._current = None
        self.euclidean_simplex = self.reg.kind == EUCLIDEAN and isinstance(strategy_set, Simplex)

    @property
    def init(self):
        return self.path[0]

    def _prox(self, anchor, g):
        if self.euclidean_simplex:
            # Hot path: anchors are feasible by induction and utilities are
            # validated in update(), so skip the kernel's argument checks.
            return project_simplex(anchor + self.eta * g)
        return prox_step(self.reg, self.set, anchor, g, self.eta)

    def set_prediction(self, m):
        self.prediction = np.asarray(m, dtype=float)
        self._current = None  # any cached primary was built on the old prediction

    def play(self):
        """Primary iterate for the current round (cached until update)."""
        if self._current is None:
            self._current = self._prox(self.x_hat, self.prediction)
        return self._current

    def update(self, utility):
        """Consume the observed utility: advance the secondary iterate and
        form the next prediction."""
        utility = np.asarray(utility, dtype=float)
        if not math.isfinite(utility.sum()):
            raise InvalidInputError("non-finite utility")
        x = self.play()
        self.path.append(x)
        self.predictions.append(self.prediction)
        u = utility.copy()
        self.utilities.append(u)
        self.x_hat = self._prox(self.x_hat, u)
        self.hat_path.append(self.x_hat)
        if self.mode == RECENCY:
            self.prediction = u
        elif self.mode == ZERO:
            self.prediction = np.zeros_like(u)
        self._current = None

    def primary_array(self):
        return np.asarray(self.path)

    def secondary_array(self):
        return np.asarray(self.hat_path)

    def utility_array(self):
        return np.asarray(self.utilities)

    def prediction_array(self):
        return np.asarray(self.predictions)


def check_start(strategy_set, eta, x0):
    """Every learner's checks of its rate and start: InvalidInputError unless
    eta is positive and finite and x0 lies in the set to 1e-9."""
    _check_rate(eta)
    if not strategy_set.contains(x0, tol=1e-9):
        raise InvalidInputError("initialization is infeasible")


class GDLearner:
    """Vanilla projected gradient ascent x^(i) = proj(x^(i-1) + eta*u)."""

    def __init__(self, strategy_set, eta, init=None):
        x0 = cold_start(strategy_set) if init is None else np.asarray(init, dtype=float)
        check_start(strategy_set, eta, x0)
        self.set = strategy_set
        self.eta = float(eta)
        self.x = x0.copy()
        self.path = [x0.copy()]
        self.utilities = []

    @property
    def init(self):
        return self.path[0]

    def play(self):
        return self.x

    def update(self, utility):
        utility = np.asarray(utility, dtype=float)
        self.utilities.append(utility.copy())
        self.x = project_l2(self.set, self.x + self.eta * utility)
        self.path.append(self.x.copy())

    def primary_array(self):
        return np.asarray(self.path)

    def utility_array(self):
        return np.asarray(self.utilities)


class PreconditionerSchedule:
    """Sequence of diagonal positive-definite preconditioners Q^(i)."""

    def __init__(self, diagonals):
        self.diagonals = [np.asarray(q, dtype=float) for q in diagonals]
        for q in self.diagonals:
            if not np.all((q > 0) & (q < np.inf)):
                raise ConfigError("preconditioner diagonals must be positive and finite")

    def __getitem__(self, i):
        return self.diagonals[min(i, len(self.diagonals) - 1)]

    def drift(self):
        """sum_i ||Q^(i+1) - Q^(i)||_2 (spectral norm = max abs diagonal gap)."""
        qs = self.diagonals
        return float(sum(np.max(np.abs(b - a)) for a, b in zip(qs[:-1], qs[1:])))

    @staticmethod
    def constant(diag, m):
        return PreconditionerSchedule([np.asarray(diag, dtype=float)] * m)


def project_simplex_weighted(y, q):
    """argmin_x sum_a q_a (x_a - y_a)^2 over the simplex; q > 0 diagonal.

    Bisection on the simplex multiplier, then an exact recompute on the
    detected support.
    """
    y = np.asarray(y, dtype=float)
    q = np.asarray(q, dtype=float)

    def x_of(nu):
        return np.maximum(0.0, y - nu / (2.0 * q))

    lo = float(np.min(2.0 * q * (y - 1.0)))
    hi = float(np.max(2.0 * q * y))
    for _ in range(100):
        nu = 0.5 * (lo + hi)
        if np.sum(x_of(nu)) > 1.0:
            lo = nu
        else:
            hi = nu
    support = x_of(0.5 * (lo + hi)) > 0
    if not np.any(support):
        support = y >= np.max(y) - 1e-15
    inv = 1.0 / (2.0 * q[support])
    nu = (np.sum(y[support]) - 1.0) / np.sum(inv)
    x = np.zeros_like(y)
    x[support] = y[support] - nu * inv
    return np.maximum(x, 0.0)


class OptAdaGradLearner(OMDLearner):
    """Optimistic mirror descent with a step preconditioned by a drifting
    diagonal Q^(i): both prox steps of round i are the Q^(i)-weighted
    projection of ``anchor + g / Q^(i)`` onto a Simplex or a Box.

    With Q = (1/eta) I this reproduces the Euclidean OMDLearner trajectory.
    Its ``eta`` is 1/max Q^(0), the largest isotropic rate whose step
    exceeds the first preconditioned step in no coordinate; no step reads it.
    """

    def __init__(self, strategy_set, preconditioners: PreconditionerSchedule, init=None):
        if not isinstance(strategy_set, (Simplex, Box)):
            raise InvalidInputError(f"unsupported set {type(strategy_set).__name__}")
        super().__init__(strategy_set, 1.0 / float(np.max(preconditioners[0])), init=init)
        self.pre = preconditioners
        self.step_index = 0

    def _prox(self, anchor, g):
        q = self.pre[self.step_index]
        y = anchor + g / q
        if isinstance(self.set, Simplex):
            return project_simplex_weighted(y, q)
        return np.clip(y, self.set.lower, self.set.upper)

    def update(self, utility):
        super().update(utility)
        self.step_index += 1


def best_point(strategy_set, cum_utility):
    """argmax over the set of <x, cum_utility> with lexicographic ties; row by
    row for a stack of cumulative utilities over a simplex or a box."""
    if isinstance(strategy_set, Simplex):
        # argmax takes the lowest index
        hit = np.arange(strategy_set.dim) == np.argmax(cum_utility, axis=-1)[..., None]
        return hit.astype(float)
    if isinstance(strategy_set, Box):
        return np.where(cum_utility > 0, strategy_set.upper, strategy_set.lower)
    # product set: blockwise
    parts = [
        best_point(b, c)
        for b, c in zip(strategy_set.blocks, strategy_set.split(cum_utility))
    ]
    return strategy_set.join(parts)


def external_regret(strategies, utilities, strategy_set=None, comparator=None):
    """External regret of a play sequence; returns (regret, comparator).

    ``strategies`` are the played iterates x^(1..m) aligned with the observed
    ``utilities``, as (m, d) arrays. Without an explicit comparator the
    optimum-in-hindsight over ``strategy_set`` is used (ties broken
    lexicographically). Stacks of B sequences, (B, m, d) arrays over a
    simplex or a box, give B regrets and comparators, each bit-identical to
    its sequence's own.
    """
    strategies = np.asarray(strategies, dtype=float)
    utilities = np.asarray(utilities, dtype=float)
    if strategies.shape != utilities.shape:
        raise InvalidInputError("strategy/utility histories must align")
    cum = utilities.sum(axis=-2)
    if comparator is None:
        if strategy_set is None:
            raise InvalidInputError("need a strategy set or an explicit comparator")
        comparator = best_point(strategy_set, cum)
    comparator = np.asarray(comparator, dtype=float)
    realized = (strategies * utilities).sum(axis=(-2, -1))
    # A (1, d) @ (d, 1) matmul is the 1-D dot, also for each row of a stack.
    regret = np.matmul(cum[..., None, :], comparator[..., :, None])[..., 0, 0] - realized
    return (float(regret) if regret.ndim == 0 else regret), comparator


class AlphaWeights:
    """Nondecreasing per-iteration weights normalized to sum to the horizon."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if np.any(np.diff(values) < -1e-12):
            raise InvalidInputError("alpha weights must be nondecreasing")
        if not np.all((values > 0) & (values < np.inf)):
            raise InvalidInputError("alpha weights must be positive and finite")
        m = values.shape[0]
        if abs(float(np.sum(values)) - m) > 1e-9:
            raise InvalidInputError("alpha weights must sum to the horizon")
        self.values = values

    @staticmethod
    def uniform(m):
        return AlphaWeights(np.ones(m))

    @staticmethod
    def linear(m):
        i = np.arange(1, m + 1, dtype=float)
        return AlphaWeights(2.0 * i / (m + 1))

    @staticmethod
    def quadratic(m):
        i = np.arange(1, m + 1, dtype=float)
        return AlphaWeights(6.0 * i**2 / ((m + 1) * (2 * m + 1)))

    @staticmethod
    def from_schedule(schedule, m):
        if schedule == "uniform":
            return AlphaWeights.uniform(m)
        if schedule == "linear":
            return AlphaWeights.linear(m)
        if schedule == "quadratic":
            return AlphaWeights.quadratic(m)
        raise ConfigError(f"unknown alpha schedule {schedule!r}")


def alpha_regret(strategies, utilities, weights: AlphaWeights, strategy_set=None, comparator=None):
    """External regret under the alpha-weighted utilities."""
    utilities = np.asarray(utilities, dtype=float)
    if weights.values.shape[0] != utilities.shape[0]:
        raise InvalidInputError("weights length must match the history length")
    weighted = utilities * weights.values[:, None]
    return external_regret(strategies, weighted, strategy_set, comparator)


def _prediction_term(utilities, predictions):
    """sum_i ||u^(i) - m^(i)||^2 of a finished run's (m, d) arrays."""
    return float(np.sum((utilities - predictions) ** 2))


def rvu_terms(learner, comparator, constant="eighth"):
    """Evaluate the three RVU ingredients for a finished OMD run.

    Returns (bregman_term, prediction_term, path_term) so that
    regret <= bregman/eta + eta*prediction - c/eta * path with c = 1/8 for
    the primary-path form and c = 1/2 for the refined two-sequence form
    (both appear in the analysis; choose via ``constant``).
    """
    pred = _prediction_term(learner.utility_array(), learner.prediction_array())
    breg = bregman(learner.reg, np.asarray(comparator, dtype=float), learner.init)
    if constant == "eighth":
        return breg, pred, path_lengths(learner.primary_array())[0]
    if constant == "half":
        return breg, pred, path_lengths(learner.primary_array(), learner.secondary_array())[1]
    raise ConfigError(f"unknown RVU constant form {constant!r}")


def doubling_residual(runs, eta):
    """The joint local RVU residual of players that have played one task at
    rate ``eta``: eta * sum(prediction terms) - sum(path terms) / (8 eta).
    Each run is a player's (m+1, d) path, (m, d) utilities and (m, d)
    predictions. The Bregman term does not enter it, so it is never
    evaluated (it is undefined for entropic learners started on the
    boundary)."""
    pred = sum(_prediction_term(u, p) for _, u, p in runs)
    path = sum(path_lengths(x)[0] for x, _, _ in runs)
    return eta * pred - path / (8.0 * eta)


def doubling_trick_eta(runs, eta):
    """The doubling rule: the rate for the next attempt at a task.

    Returns eta/2 when the ``doubling_residual`` of the runs played at rate
    ``eta`` is positive, else eta.
    """
    return eta / 2.0 if doubling_residual(runs, eta) > 0 else eta
