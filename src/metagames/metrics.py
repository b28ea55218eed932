"""Equilibrium-quality and convergence measurements.

All functions are pure and operate on immutable trajectories.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
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


_HIGHS_MODULE = "scipy.optimize._highspy._core"
_highs_lock = threading.Lock()
_thread_highs = threading.local()


def _highs():
    """scipy's bundled HiGHS bindings, ``scipy.optimize._highspy._core``.

    The module already imported is used as it is. Otherwise the extension is
    loaded from scipy's package folder by itself and registered under its
    own name, so that a later ``import scipy.optimize`` finds the same
    module: importing ``scipy.optimize`` to reach it would cost about 0.2 s
    and 45 MB that the LPs do not use. A scipy without the extension raises
    ImportError.
    """
    with _highs_lock:  # two threads' first LPs load it once
        if _HIGHS_MODULE not in sys.modules:
            import scipy

            folder = Path(scipy.__path__[0], "optimize", "_highspy")
            paths = [folder / f"_core{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
            path = next((path for path in paths if path.is_file()), None)
            if path is None:
                raise ImportError(
                    f"scipy's HiGHS extension is missing: no _core module in {folder}",
                    name=_HIGHS_MODULE,
                    path=str(folder),
                )
            loader = importlib.machinery.ExtensionFileLoader(_HIGHS_MODULE, str(path))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_HIGHS_MODULE, loader))
            sys.modules[_HIGHS_MODULE] = module
            try:
                loader.exec_module(module)
            except BaseException:
                del sys.modules[_HIGHS_MODULE]
                raise
        return sys.modules[_HIGHS_MODULE]


def _solver():
    """This thread's (bindings, HighsOptions, _Highs), built on its first LP.
    The options are linprog's for ``method="highs"``."""
    try:
        return _thread_highs.solver
    except AttributeError:
        highs = _highs()
        options = highs.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = options.output_flag = False
        options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        _thread_highs.solver = highs, options, highs._Highs()
        return _thread_highs.solver


def _simplex_lp(sign, M):
    """(z, v) solving min sign*v subject to M z - sign*v <= 0, sum z = 1,
    z >= 0, v free, with z clipped at 0 and renormalized.

    The LP is handed to scipy's bundled HiGHS as ``linprog(method="highs")``
    hands it over: the same column-wise matrix (explicit zeros dropped), the
    same bounds and options, and the same post-solve feasibility check, so
    the solution has linprog's bits without its per-call input parsing and
    option checking. Each thread reuses one solver, passing it the options
    and then the model, which replaces the previous LP's. A solve that is not
    optimal, or whose solution misses the constraints by more than linprog's
    tolerance, raises NumericError.
    """
    highs, options, solver = _solver()
    problem = "max-min" if sign < 0 else "min-max"
    rows, d = M.shape
    A = np.zeros((rows + 1, d + 1))
    A[:rows, :d] = M
    A[:rows, d] = -sign
    A[rows, :d] = 1.0
    nonzero = np.nonzero(A.T)  # column-major, rows sorted within a column
    cost = np.zeros(d + 1)
    cost[d] = sign
    rhs = np.zeros(rows + 1)
    rhs[rows] = 1.0
    lhs = np.full(rows + 1, -highs.kHighsInf)
    lhs[rows] = 1.0
    lower = np.zeros(d + 1)
    lower[d] = -highs.kHighsInf

    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = d + 1
    lp.num_row_ = lp.a_matrix_.num_row_ = rows + 1
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = np.full(d + 1, highs.kHighsInf)
    lp.row_lower_ = lhs
    lp.row_upper_ = rhs
    lp.a_matrix_.start_ = np.searchsorted(nonzero[0], np.arange(d + 2))
    lp.a_matrix_.index_ = nonzero[1]
    lp.a_matrix_.value_ = A.T[nonzero]
    if solver.passOptions(options) == highs.HighsStatus.kError:
        raise NumericError(f"zero-sum {problem} LP failed: HiGHS refused its options")
    if solver.passModel(lp) == highs.HighsStatus.kError:
        ran, status = False, highs.HighsModelStatus.kModelError
    else:
        ran = solver.run() != highs.HighsStatus.kError
        status = solver.getModelStatus()
    if not ran or status != highs.HighsModelStatus.kOptimal:
        raise NumericError(
            f"zero-sum {problem} LP failed: HiGHS model status {solver.modelStatusToString(status)!r}"
        )
    solution = solver.getSolution()
    col = np.array(solution.col_value)
    slack = rhs - solution.row_value
    # linprog's _check_result: no NaN, and bounds, slack and the equality
    # residual met to within 10 * sqrt(1e-9).
    tol = np.sqrt(1e-9) * 10
    worst = float(np.max(np.concatenate((-col[:d], -slack[:rows], np.abs(slack[rows:])))))
    fun = solver.getInfo().objective_function_value
    if np.isnan(col).any() or np.isnan(fun) or not worst <= tol:
        raise NumericError(
            f"zero-sum {problem} LP solution misses its constraints by {worst:.3g} "
            f"(tolerance {tol:.3g})"
        )
    z = np.maximum(col[:d], 0.0)
    z /= np.sum(z)
    return z, float(col[d])


def _solve_row_max(B):
    """max_x min_y x^T B y over simplices, as two LPs solved by HiGHS.

    Returns (x, y, value) where x attains the max-min and y the min-max;
    they coincide at the game value by LP duality. The value is the
    max-min LP's.
    """
    B = np.asarray(B, dtype=float)
    # Row problem: maximize v subject to B^T x >= v; column problem:
    # minimize w subject to B y <= w.
    x, value = _simplex_lp(-1.0, -B.T)
    y, _ = _simplex_lp(1.0, B)
    return x, y, value


def saddle_point(game: MatrixGame):
    """Saddle point of the game as played: min_x max_y x^T A y.

    This matches the utility-oracle convention (A is the x-player's loss),
    so the returned pair is the comparator used by the path-length and
    last-iterate bounds. Returns (x*, y*, value). The two LPs of
    ``_solve_row_max`` run once per game object, in HiGHS, with linprog's
    solution bits; later calls return fresh copies of the memoized
    strategies. The first LP loads scipy's HiGHS extension alone, not
    ``scipy.optimize``, and each thread reuses one solver, so calls from
    several threads are safe. As HiGHS's tolerances are absolute, the LPs
    run on A scaled exactly by the power of two that puts max |A| in
    (0.5, 1], so accuracy is relative to max |A|. A game HiGHS cannot solve
    to optimality, or whose solution misses its constraints, raises
    NumericError.
    """
    if game._saddle is None:
        mantissa, exp = math.frexp(float(np.max(np.abs(game.A))))
        k = 1 - exp if mantissa == 0.5 else -exp
        x, y, neg_value = _solve_row_max(np.ldexp(-game.A, k))
        game._saddle = (x, y, -math.ldexp(neg_value, -k))
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
