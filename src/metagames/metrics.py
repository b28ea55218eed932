"""Equilibrium-quality and convergence measurements.

All functions are pure and operate on immutable trajectories.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from metagames.errors import InvalidInputError, NumericError
from metagames.games import MatrixGame, NormalFormGame, SmoothnessMeta, utility_gradient
from metagames.geometry import Box, ProductSet, Simplex


@dataclass
class GapReport:
    """Time-averaged welfare against the robust price-of-anarchy floor."""

    welfare: Optional[float] = None
    robust_poa_bound: Optional[float] = None
    extras: dict = field(default_factory=dict)


def _solve_row_max(B):
    """max_x min_y x^T B y over simplices, via the standard LP formulation.

    Returns (x, y, value) where x attains the max-min and y the min-max;
    they coincide at the game value by LP duality.
    """
    from scipy.optimize import linprog  # about 0.5 s and 45 MB; only the LPs need it

    B = np.asarray(B, dtype=float)
    d_x, d_y = B.shape
    # Row problem: maximize v subject to B^T x >= v, sum x = 1, x >= 0.
    c = np.zeros(d_x + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-B.T, np.ones((d_y, 1))])
    b_ub = np.zeros(d_y)
    A_eq = np.zeros((1, d_x + 1))
    A_eq[0, :d_x] = 1.0
    bounds = [(0, None)] * d_x + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], bounds=bounds, method="highs")
    if not res.success:
        raise NumericError(f"zero-sum LP failed: {res.message}")
    x = np.maximum(res.x[:d_x], 0.0)
    x /= np.sum(x)
    value = float(res.x[-1])
    # Column problem: minimize w subject to B y <= w, sum y = 1, y >= 0.
    c2 = np.zeros(d_y + 1)
    c2[-1] = 1.0
    A_ub2 = np.hstack([B, -np.ones((d_x, 1))])
    b_ub2 = np.zeros(d_x)
    A_eq2 = np.zeros((1, d_y + 1))
    A_eq2[0, :d_y] = 1.0
    bounds2 = [(0, None)] * d_y + [(None, None)]
    res2 = linprog(
        c2, A_ub=A_ub2, b_ub=b_ub2, A_eq=A_eq2, b_eq=[1.0], bounds=bounds2, method="highs"
    )
    if not res2.success:
        raise NumericError(f"zero-sum dual LP failed: {res2.message}")
    y = np.maximum(res2.x[:d_y], 0.0)
    y /= np.sum(y)
    return x, y, value


def saddle_point(game: MatrixGame):
    """Saddle point of the game as played: min_x max_y x^T A y.

    This matches the utility-oracle convention (A is the x-player's loss),
    so the returned pair is the comparator used by the path-length and
    last-iterate bounds. Returns (x*, y*, value). The LPs run once per game
    object; later calls return fresh copies of the memoized strategies.
    """
    if game._saddle is None:
        x, y, neg_value = _solve_row_max(-game.A)
        game._saddle = (x, y, -neg_value)
    x, y, value = game._saddle
    return x.copy(), y.copy(), value


def duality_gap(game: MatrixGame, x, y):
    """max_y' x^T A y' - min_x' x'^T A y; zero exactly at saddle points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.max(x @ game.A) - np.min(game.A @ y))


def ne_gap(game, profile):
    """Per-player best unilateral deviation gain at the profile."""
    gains = []
    for k in range(game.n):
        u_k = utility_gradient(game, k, profile)
        gains.append(float(np.max(u_k) - u_k @ profile[k]))
    return np.array(gains)


def _deviation_payoffs(game: NormalFormGame, mu, player):
    """E_{a ~ mu}[u_k(b, a_{-k})] for every fixed action b of ``player``."""
    tensor = game.payoffs[player]
    marg = np.sum(mu, axis=player)  # distribution over a_{-k}
    order = [player] + [j for j in range(game.n) if j != player]
    moved = np.transpose(tensor, order).reshape(game.dims[player], -1)
    return moved @ marg.reshape(-1)


def cce_ce_gap(mu, game: NormalFormGame):
    """(CCE gap, CE gap) of a joint distribution over action profiles.

    CCE gap: best fixed-action deviation benefit. CE gap: best swap-map
    deviation benefit, computed per recommended action (the per-action
    maxima compose to the best of all d^d swap maps). Enumeration is
    intended for prod(dims) <= 1e4.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != game.dims:
        raise InvalidInputError(f"distribution shape {mu.shape} != game dims {game.dims}")
    if abs(float(np.sum(mu)) - 1.0) > 1e-9 or np.min(mu) < -1e-12:
        raise InvalidInputError("joint distribution must be a probability tensor")
    if int(np.prod(game.dims)) > 10_000:
        raise InvalidInputError("gap enumeration supports prod(dims) <= 1e4")
    cce = 0.0
    ce = 0.0
    for k in range(game.n):
        tensor = game.payoffs[k]
        expected = float(np.sum(mu * tensor))
        dev = _deviation_payoffs(game, mu, k)
        cce = max(cce, float(np.max(dev)) - expected)
        # Conditional tables: T[a, b] = E[ u_k(b, a_{-k}) * 1{a_k = a} ].
        order = [k] + [j for j in range(game.n) if j != k]
        mu_k = np.transpose(mu, order).reshape(game.dims[k], -1)
        u_k = np.transpose(tensor, order).reshape(game.dims[k], -1)
        cond = mu_k @ u_k.T  # cond[a, b]
        realized = np.sum(mu_k * u_k, axis=1)
        ce = max(ce, float(np.sum(np.max(cond, axis=1) - realized)))
    return cce, ce


def svi_residual(operator, z):
    """epsilon such that <z' - z, F(z)> >= -epsilon for all feasible z'."""
    z = np.asarray(z, dtype=float)
    F = operator(z)
    sset = operator.set
    blocks = sset.blocks if isinstance(sset, ProductSet) else (sset,)
    parts_F = sset.split(F) if isinstance(sset, ProductSet) else [F]
    inner_min = 0.0
    for block, f in zip(blocks, parts_F):
        if isinstance(block, Simplex):
            inner_min += float(np.min(f))
        elif isinstance(block, Box):
            inner_min += float(np.sum(np.minimum(block.lower * f, block.upper * f)))
        else:
            raise InvalidInputError(f"unsupported set {type(block).__name__}")
    return float(z @ F) - inner_min


def welfare_report(game: NormalFormGame, meta: SmoothnessMeta, trajectory):
    """Time-averaged welfare against the robust price-of-anarchy floor.

    ``trajectory`` is a sequence of mixed profiles (lists of per-player
    strategies). Player utilities are weighted by ``meta.alpha_weights``
    when set (the weighted-welfare extension); ``meta.opt_welfare`` is then
    read as the weighted optimum. Returns a GapReport with welfare, the PoA
    floor, and the realized slack in extras.
    """
    weights = (
        np.ones(game.n) if meta.alpha_weights is None else np.asarray(meta.alpha_weights)
    )
    sw = [float(weights @ game.utility(profile)) for profile in trajectory]
    avg = float(np.mean(sw))
    floor = meta.robust_poa * meta.opt_welfare
    return GapReport(
        welfare=avg,
        robust_poa_bound=floor,
        extras={"welfare_slack": avg - floor, "per_iteration_welfare": sw},
    )


def path_lengths(primary, secondary=None):
    """Second-order path lengths of a trajectory.

    ``primary`` stacks iterates z^(0..m) row-wise. The first variant is
    sum_i ||z^i - z^(i-1)||^2. With ``secondary`` (hat iterates, same shape)
    the refined variant sum_i ||z^i - zhat^i||^2 + ||z^i - zhat^(i-1)||^2
    is returned as well, else 0 for that slot. A (B, m+1, d) stack of B
    trajectories gives arrays of B path lengths, each bit-identical to its
    trajectory's own.
    """
    primary = np.asarray(primary, dtype=float)
    diffs = primary[..., 1:, :] - primary[..., :-1, :]
    first = (diffs * diffs).sum(axis=(-2, -1))
    refined = 0.0
    if secondary is not None:
        secondary = np.asarray(secondary, dtype=float)
        a = primary[..., 1:, :] - secondary[..., 1:, :]
        b = primary[..., 1:, :] - secondary[..., :-1, :]
        refined = np.sum(a * a, axis=(-2, -1)) + np.sum(b * b, axis=(-2, -1))
    if first.ndim == 0:
        return float(first), float(refined)
    return first, refined


def check_smoothness(game: NormalFormGame, lam, mu, opt_profile=None):
    """Verify (lambda, mu)-smoothness over all pure profiles by enumeration.

    Returns the witnessing pure profile a* if the inequality holds for every
    pure a, else None. Smoothness over mixed profiles follows by
    multilinearity.
    """
    dims = game.dims
    profiles = list(itertools.product(*[range(d) for d in dims]))
    sw = {a: sum(game.payoffs[k][a] for k in range(game.n)) for a in profiles}
    opt = max(sw.values())
    candidates = [opt_profile] if opt_profile is not None else profiles
    for a_star in candidates:
        ok = True
        for a in profiles:
            total = 0.0
            for k in range(game.n):
                dev = tuple(a_star[k] if j == k else a[j] for j in range(game.n))
                total += game.payoffs[k][dev]
            if total < lam * opt - mu * sw[a] - 1e-12:
                ok = False
                break
        if ok:
            return tuple(a_star)
    return None
