"""Cross-task layer: initializer strategies, the EWOO learning-rate
meta-learner, and task-similarity statistics.

Meta state is mutated only between tasks; within a task all reads are
snapshots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from metagames.errors import ConfigError, InvalidInputError, NumericError
from metagames.learners import cold_start

COLD = "cold"
FTL_AVERAGE = "ftl-average"
LAST_ITERATE = "last-iterate"
PREV_OPTIMUM = "prev-optimum"
NE_AVERAGE = "ne-average"

INITIALIZER_MODES = (COLD, FTL_AVERAGE, LAST_ITERATE, PREV_OPTIMUM, NE_AVERAGE)

# EWOO posterior mean: a 32-point Gauss-Legendre rule on each piece between
# knots at the ends, the mode, the mode +- these multiples of the posterior
# width, and decades above the lower end (see ewoo_next_eta).
_EWOO_KNOT_MULTIPLES = (1.0, 8.0, 40.0)


@functools.cache
def _gauss_legendre():
    # On first use only: the eigenvalue solve pages in about 1 MB of LAPACK.
    return np.polynomial.legendre.leggauss(32)


@dataclass
class TaskOutcome:
    """Anchors produced by one finished task, per player."""

    optima: Optional[list] = None
    last_iterates: Optional[list] = None
    nash: Optional[list] = None


class Initializer:
    """Produces per-player initializations across the task sequence.

    ftl-average keeps the exact arithmetic mean of all anchors seen, which
    is follow-the-leader over the induced Bregman losses.
    """

    def __init__(self, mode, strategy_sets):
        if mode not in INITIALIZER_MODES:
            raise ConfigError(f"unknown initializer mode {mode!r}")
        self.mode = mode
        self.sets = tuple(strategy_sets)
        self.count = 0
        self.means = [cold_start(s) for s in self.sets]
        self.prev = None

    def initialization(self):
        """Per-player starting points for the upcoming task."""
        if self.mode == COLD or self.count == 0:
            return [cold_start(s) for s in self.sets]
        if self.mode in (FTL_AVERAGE, NE_AVERAGE):
            return [m.copy() for m in self.means]
        return [p.copy() for p in self.prev]

    def observe(self, outcome: TaskOutcome):
        """Fold one task's anchors into the accumulator."""
        anchors = self._select(outcome)
        if self.mode == COLD:
            return
        anchors = [np.asarray(a, dtype=float) for a in anchors]
        self.count += 1
        if self.count == 1:
            self.means = [a.copy() for a in anchors]
        else:
            self.means = [m + (a - m) / self.count for m, a in zip(self.means, anchors)]
        self.prev = [a.copy() for a in anchors]

    def _select(self, outcome):
        if self.mode == COLD:
            return None
        if self.mode in (FTL_AVERAGE, PREV_OPTIMUM):
            if outcome.optima is None:
                raise ConfigError(f"{self.mode} needs optima-in-hindsight anchors")
            return outcome.optima
        if self.mode == LAST_ITERATE:
            if outcome.last_iterates is None:
                raise ConfigError("last-iterate mode needs last iterates")
            return outcome.last_iterates
        if outcome.nash is None:
            raise ConfigError("ne-average mode needs a Nash-equilibrium oracle")
        return outcome.nash


@dataclass
class EwooState:
    """Posterior-mean selection of a scalar learning rate.

    Losses have the regularized form U_t(eta) = gamma_t * (eta +
    (B_t^2 + eps^2) / eta) and the posterior weight at eta is
    exp(-beta * sum_t U_t(eta)) over [lo, hi].
    """

    lo: float
    hi: float
    beta: float
    epsilon: float
    b_squares: list = field(default_factory=list)
    gammas: list = field(default_factory=list)

    def __post_init__(self):
        if not 0 < self.lo < self.hi < math.inf:
            raise ConfigError(f"need finite 0 < lo < hi, got [{self.lo}, {self.hi}]")
        if not 0 < self.beta < math.inf:
            raise ConfigError(f"beta must be finite and positive, got {self.beta}")

    @staticmethod
    def from_radius(D, rho):
        """Standard parameterization: domain [rho*D, sqrt(D^2 + rho^2 D^2)]
        and beta = (2/D) * min(1, rho^2/D^2)."""
        if not 0 < D * D < math.inf:
            raise ConfigError(f"D^2 must be finite and > 0, got D={D}")
        eps = rho * D
        return EwooState(
            lo=eps,
            hi=math.sqrt(D * D + eps * eps),
            beta=(2.0 / D) * min(1.0, rho * rho / (D * D)),
            epsilon=eps,
        )

    def record(self, b_square, gamma):
        if not (0 <= b_square < math.inf and 0 < gamma < math.inf):
            raise InvalidInputError(f"need finite B^2 >= 0 and gamma > 0, got {b_square}, {gamma}")
        self.b_squares.append(float(b_square))
        self.gammas.append(float(gamma))


def ewoo_next_eta(state: EwooState):
    """Posterior-mean learning rate for the next task.

    With no recorded tasks the posterior is flat and the interval mean is
    returned. The sum of recorded losses is a*eta + b/eta, so the exponent
    is shifted by its minimum over the domain, and both integrals come from
    one evaluation of the weight on a fixed Gauss-Legendre rule.
    """
    if not state.gammas:
        return 0.5 * (state.lo + state.hi)
    a = sum(state.gammas)
    b = sum(g * (bs + state.epsilon**2) for g, bs in zip(state.gammas, state.b_squares))
    eta_min = math.sqrt(b / a) if b > 0 else state.lo
    eta_min = min(max(eta_min, state.lo), state.hi)
    shift = state.beta * (a * eta_min + b / eta_min)

    # The posterior can be far narrower than [lo, hi], so the rule is placed
    # on pieces split around the mode at multiples of its width: the smaller
    # of the curvature width and the slope width (finite only when the mode
    # is clipped to an end). b/eta varies on the scale of eta itself, so the
    # pieces are also split at decades above lo; without these knots a mode
    # at hi on a domain with hi/lo near 100 was off by up to 6e-9.
    curvature = state.beta * 2.0 * b / eta_min**3
    slope = state.beta * abs(a - b / eta_min**2)
    width = 1.0 / max(math.sqrt(curvature), slope)
    knots = {state.lo, state.hi, eta_min}
    for k in _EWOO_KNOT_MULTIPLES:
        knots.add(min(max(eta_min - k * width, state.lo), state.hi))
        knots.add(min(max(eta_min + k * width, state.lo), state.hi))
    decade = 10.0 * state.lo
    while decade < state.hi:
        knots.add(decade)
        decade *= 10.0
    pieces = np.asarray(sorted(knots))
    mid = 0.5 * (pieces[1:] + pieces[:-1])[:, None]
    half = 0.5 * (pieces[1:] - pieces[:-1])[:, None]
    nodes, weights = _gauss_legendre()
    x = mid + half * nodes
    w = np.exp(-(state.beta * (a * x + b / x) - shift)) * half * weights
    denom = float(np.sum(w))
    if denom <= 0 or not math.isfinite(denom):
        raise NumericError("EWOO posterior normalization failed")
    return float(np.sum(w * x) / denom)


def smallest_cprime(regrets, etas, kls, m):
    """Smallest C' making eta*C'*log^5(m) + KL/eta dominate each regret.

    Reported rather than asserted because the underlying constants are left
    open; returns 0 when the KL term alone already covers every task.
    """
    needed = 0.0
    for reg, eta, kl in zip(regrets, etas, kls):
        residual = reg - kl / eta
        if residual > 0:
            needed = max(needed, residual / (eta * math.log(m) ** 5))
    return needed


@dataclass
class SimilarityStats:
    """Variance-like statistics of per-task anchors used by the meta bounds."""

    v_opt2: Optional[np.ndarray] = None
    v_ne2_worst: Optional[float] = None
    v_kl: Optional[np.ndarray] = None


def anchor_variance(anchors):
    """(1/T) * min_x sum_t ||a_t - x||^2, attained at the mean."""
    anchors = np.asarray(anchors, dtype=float)
    mean = np.mean(anchors, axis=0)
    return float(np.mean(np.sum((anchors - mean) ** 2, axis=1)))


def kl_anchor_variance(anchors):
    """(1/T) sum_t KL(a_t || mean) for simplex anchors.

    Each KL sums the terms of the positive entries of a_t. The rows with k
    positive entries have their terms summed as one (n_k, k) array, whose
    ``sum(axis=1)`` adds each row as ``np.sum`` adds it alone; zero-filled
    rows of full length would be added in another grouping from d = 8 on.
    The KLs are then added in row order, as floats.
    """
    anchors = np.asarray(anchors, dtype=float)
    mean = np.mean(anchors, axis=0)
    mask = anchors > 0
    a = anchors[mask]  # row by row
    terms = a * np.log(a / np.maximum(np.broadcast_to(mean, anchors.shape)[mask], 1e-300))
    counts = mask.sum(axis=1)
    offsets = np.cumsum(counts) - counts
    kl = np.empty(len(anchors))
    for k in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == k)
        kl[rows] = terms[offsets[rows, None] + np.arange(k)].sum(axis=1)
    total = 0.0
    for x in kl.tolist():  # sum() compensates from Python 3.12 on
        total += x
    return total / anchors.shape[0]


def shannon_entropy(p):
    """Natural-log entropy with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def ftl_regret(anchors, initializations):
    """Measured FTL regret over Euclidean Bregman losses.

    sum_t (1/2)||a_t - init_t||^2 minus the same sum at the fixed
    minimizer (the mean of the anchors).
    """
    anchors = np.asarray(anchors, dtype=float)
    inits = np.asarray(initializations, dtype=float)
    mean = np.mean(anchors, axis=0)
    played = 0.5 * float(np.sum((anchors - inits) ** 2))
    best = 0.5 * float(np.sum((anchors - mean) ** 2))
    return played - best


def ne_similarity_worst(ne_points):
    """(1/T) min_z sum_t ||z_t - z||^2 for one supplied NE per task."""
    return anchor_variance(ne_points)
