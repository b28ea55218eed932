"""Learning-rate rules and convergence measurement for Holder-continuous
and weak-MVI operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from metagames.errors import ConfigError, InvalidInputError
from metagames.games import VIOperator
from metagames.geometry import Box
from metagames.harness import play_task
from metagames.learners import SECONDARY_ANCHOR, OMDLearner


@dataclass(frozen=True)
class HolderSchedule:
    """Parameters of the horizon-dependent learning rate for Holder operators."""

    H: float
    alpha: float
    radius_bound: float
    horizon: int

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.H <= 0 or self.radius_bound <= 0 or self.horizon < 1:
            raise ConfigError("need H > 0, radius_bound > 0, horizon >= 1")


def g_of_alpha(alpha):
    return (1.0 + alpha) * (2.0 + 2.0 * alpha) ** ((1.0 - alpha) / (1.0 + alpha))


def holder_eta(schedule: HolderSchedule):
    """Learning rate for an alpha-Holder operator over a fixed horizon.

    eta(m) = (radius^2 / (m * H^(2/(1-alpha)) * g(alpha)))^((1-alpha)/2),
    with g(alpha) = (1+alpha)(2+2alpha)^((1-alpha)/(1+alpha)). The formula
    degenerates at alpha = 1, where the Lipschitz rate 1/(4H) is returned
    instead.
    """
    if schedule.alpha == 1.0:
        return 1.0 / (4.0 * schedule.H)
    a = schedule.alpha
    base = schedule.radius_bound**2 / (
        schedule.horizon * schedule.H ** (2.0 / (1.0 - a)) * g_of_alpha(a)
    )
    return float(base ** ((1.0 - a) / 2.0))


def holder_run(operator: VIOperator, z0, m, radius_bound=None):
    """Constrained OGD at the Holder-schedule rate.

    OGD that predicts with -F at the previous secondary iterate is the
    extra-gradient iteration, so this plays one 'secondary-anchor'
    ``OMDLearner`` on the operator through ``harness.play_task``. Returns the
    primary path z^(0..m) (z^(0) and then the extrapolated points), the
    secondary path zhat^(0..m) and eta.
    """
    if operator.holder is None:
        raise ConfigError("operator carries no (H, alpha) metadata")
    H, alpha = operator.holder
    if radius_bound is None:
        radius_bound = operator.set.diameter
    eta = holder_eta(HolderSchedule(H, alpha, radius_bound, m))
    lrn = OMDLearner(operator.set, eta, init=z0, prediction_mode=SECONDARY_ANCHOR)
    play_task(operator, [lrn], m, free_first=False)
    return {
        "primary": np.asarray(lrn.path),
        "secondary": np.asarray(lrn.hat_path),
        "eta": eta,
    }


def weak_mvi_run(operator: VIOperator, z0, m, eta):
    """Unconstrained simplified OGD under the weak MVI property.

    One 'recency' ``OMDLearner`` on the unbounded box, played through
    ``harness.play_task`` from the free first prediction -F(z^(0)):
    z^(i) = zhat^(i-1) - eta F(z^(i-1)), zhat^(i) = zhat^(i-1) - eta F(z^(i)).
    Requires 2*rho < eta < 1/(4L). Returns the trajectory, the iterate of
    minimum operator norm, and the measured slack of the displayed
    sum-of-squared-norms bound (nonnegative slack = bound satisfied).
    """
    rho = operator.weak_mvi_rho
    L = operator.lipschitz
    if rho is None or L is None:
        raise ConfigError("weak MVI runs need rho and the Lipschitz constant")
    if not (2.0 * rho < eta < 1.0 / (4.0 * L)):
        raise ConfigError(
            f"eta={eta} outside the admissible band (2*rho, 1/(4L)) = "
            f"({2.0 * rho}, {1.0 / (4.0 * L)})"
        )
    z0 = np.asarray(z0, dtype=float)
    free = Box(np.full(z0.shape, -np.inf), np.full(z0.shape, np.inf))
    (lrn,) = play_task(operator, [OMDLearner(free, eta, init=z0)], m)
    path = np.asarray(lrn.path)
    norms_sq = np.asarray([float(u @ u) for u in lrn.utilities])  # ||F(z^(i))||^2, i = 1..m
    best_idx = int(np.argmin(norms_sq))
    lhs = float(np.sum(norms_sq[: m - 1]))  # sum over i <= m-1
    z_star = operator.mvi_point if hasattr(operator, "mvi_point") else np.zeros_like(z0)
    rhs = (2.0 / (eta * (eta - 2.0 * rho))) * float(
        np.sum((z_star - path[0]) ** 2)
    ) + (2.0 * rho / (eta - 2.0 * rho)) * float(norms_sq[-1])
    return {
        "path": path,
        "norms_sq": norms_sq,
        "min_norm_iterate": path[best_idx + 1],
        "min_norm": float(np.sqrt(norms_sq[best_idx])),
        "bound_lhs": lhs,
        "bound_rhs": rhs,
        "bound_slack": rhs - lhs,
    }


def componentwise_power_operator(dim, alpha, box_radius=1.0, scale=1.0):
    """Componentwise sign(v)|v|^alpha map on a centered box.

    Satisfies the MVI property at the origin. The Holder constant over the
    box is certified by brute force in the test suite and stored against a
    conservative closed-form bound.
    """
    if not 0 < alpha <= 1:
        raise InvalidInputError("alpha must lie in (0, 1]")
    box = Box(np.full(dim, -box_radius), np.full(dim, box_radius))

    def F(z):
        return scale * np.sign(z) * np.abs(z) ** alpha

    # |sign(a)|a|^p - sign(b)|b|^p| <= 2^(1-p) |a-b|^p per coordinate, and
    # sum |d_i|^(2p) <= d^(1-p) (sum d_i^2)^p, so:
    H = scale * 2.0 ** (1.0 - alpha) * dim ** ((1.0 - alpha) / 2.0)
    op = VIOperator(F, box, holder=(H, alpha))
    op.mvi_point = np.zeros(dim)
    return op


def amplitude_rotation_operator(beta=4.0, box_radius=1.0, scale=1.0):
    """Planar rotation with amplitude-dependent speed: F(z) = s*||z||^beta * J z.

    Satisfies the MVI property at the origin (<F(z), z> = 0) and is Lipschitz
    on the box; the slow-down of the rotation near the origin makes the
    best-iterate residual decay polynomially rather than linearly, which is
    what the m^(-1/2)-type rate checks need.
    """
    box = Box(np.array([-box_radius, -box_radius]), np.array([box_radius, box_radius]))

    def F(z):
        r = float(np.linalg.norm(z))
        return scale * r**beta * np.array([z[1], -z[0]])

    r_max = box_radius * np.sqrt(2.0)
    H = scale * (beta + 1.0) * r_max**beta
    op = VIOperator(F, box, lipschitz=H, holder=(H, 1.0))
    op.mvi_point = np.zeros(2)
    return op
