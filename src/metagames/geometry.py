"""Convex strategy sets, Bregman divergences, and prox (argmax) steps.

Every learner in the package is built from the regularized argmax

    prox(anchor, g, eta) = argmax_{x in set} { <x, g> - (1/eta) D(x || anchor) },

where D is the Bregman divergence of the configured regularizer. Gradients
are utilities, so the step is an ascent step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from metagames.errors import DomainError, InvalidInputError, NumericError

# Anchor coordinates below this are lifted before entropic/log-barrier steps;
# keeps logs finite while staying below every experiment tolerance.
INTERIOR_FLOOR = 1e-15

EUCLIDEAN = "euclidean"
ENTROPIC = "entropic"
LOG_BARRIER = "log-barrier"

_KINDS = (EUCLIDEAN, ENTROPIC, LOG_BARRIER)


@dataclass(frozen=True)
class Simplex:
    """Probability simplex over ``dim`` actions."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError(f"simplex dimension must be >= 1, got {self.dim}")

    @property
    def diameter(self):
        """l2-diameter: distance between two vertices, sqrt(2) for dim >= 2."""
        return float(np.sqrt(2.0)) if self.dim > 1 else 0.0

    def center(self):
        return np.full(self.dim, 1.0 / self.dim)

    def contains(self, x, tol=1e-12):
        x = np.asarray(x, dtype=float)
        return (
            x.shape == (self.dim,)
            and np.all(x >= -tol)
            and abs(float(np.sum(x)) - 1.0) <= tol
        )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with componentwise bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or np.any(lower > upper):
            raise InvalidInputError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self):
        return self.lower.shape[0]

    @property
    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    def center(self):
        return 0.5 * (self.lower + self.upper)

    def contains(self, x, tol=1e-12):
        x = np.asarray(x, dtype=float)
        return (
            x.shape == self.lower.shape
            and np.all(x >= self.lower - tol)
            and np.all(x <= self.upper + tol)
        )


class ProductSet:
    """Cartesian product of simplices/boxes over a concatenated vector."""

    def __init__(self, *blocks):
        if not blocks:
            raise InvalidInputError("product of zero sets")
        self.blocks = tuple(blocks)
        dims = [b.dim for b in blocks]
        self.dim = int(sum(dims))
        self._offsets = np.concatenate(([0], np.cumsum(dims))).astype(int)

    def split(self, z):
        z = np.asarray(z, dtype=float)
        return [z[self._offsets[i] : self._offsets[i + 1]] for i in range(len(self.blocks))]

    def join(self, parts):
        return np.concatenate([np.asarray(p, dtype=float) for p in parts])

    @property
    def diameter(self):
        return float(np.sqrt(sum(b.diameter**2 for b in self.blocks)))

    def center(self):
        return self.join([b.center() for b in self.blocks])

    def contains(self, z, tol=1e-12):
        return all(b.contains(p, tol) for b, p in zip(self.blocks, self.split(z)))


@dataclass(frozen=True)
class Regularizer:
    """1-strongly convex regularizer inducing the Bregman divergence of the prox."""

    kind: str = EUCLIDEAN

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown regularizer kind {self.kind!r}")


def _check_finite(y):
    y = np.asarray(y, dtype=float)
    # A NaN or a mixed-sign infinity both poison the sum; a same-sign
    # infinity survives it. Far cheaper than isfinite over the array.
    if not math.isfinite(y.sum()):
        raise InvalidInputError("non-finite input")
    return y


# The count rho of the threshold is at least 1, as u_1 > u_1 - 1, unless the
# input is not finite or so large (about 2**53) that subtracting 1 rounds away.
_NO_THRESHOLD = "simplex projection of a non-finite or too large input (largest entry {!r})"


def simplex_threshold(values):
    """The threshold theta of the Euclidean projection max(y - theta, 0) of
    the Python floats ``values`` onto the probability simplex.

    Sort-based thresholding (Duchi et al. 2008), on Python floats in the
    order a numpy sort and ``cumsum`` would use, so it is bit-identical to
    the array form: about 3x faster up to d = 10, slower beyond d = 40-50,
    far above every simplex here.
    """
    u = sorted(values, reverse=True)
    css = []
    rho = 0
    s = 0.0
    k = 0
    for uk in u:
        k += 1
        s += uk
        c = s - 1.0
        css.append(c)
        if uk * k > c:
            rho += 1
    if rho == 0:
        raise InvalidInputError(_NO_THRESHOLD.format(u[0]))
    return css[rho - 1] / rho


def project_simplex(y):
    """Euclidean projection of ``y`` onto the probability simplex."""
    return np.maximum(y - simplex_threshold(y.tolist()), 0.0)


def project_simplex_rows(Y):
    """``project_simplex`` of every row of a (B, d) array, bit-identical to it
    row by row: the same descending sort, ``cumsum``, count of u_k * k > css_k
    and threshold, as array operations over all rows at once."""
    B, d = Y.shape
    u = Y.copy()
    u.sort(axis=1)
    u = u[:, ::-1]
    css = u.cumsum(axis=1)
    css -= 1.0
    rho = (u * np.arange(1, d + 1) > css).sum(axis=1)
    if not rho.all():
        raise InvalidInputError(_NO_THRESHOLD.format(u[np.argmin(rho), 0]))
    theta = css[np.arange(B), rho - 1] / rho
    return np.maximum(Y - theta[:, None], 0.0)


def project_l2(strategy_set, y):
    """argmin over the set of ||x - y||_2; exact fixed point on feasible input."""
    y = _check_finite(y)
    if isinstance(strategy_set, Simplex):
        if y.min() >= 0.0 and abs(y.sum() - 1.0) <= 1e-12:
            return y
        return project_simplex(y)
    if isinstance(strategy_set, Box):
        return np.clip(y, strategy_set.lower, strategy_set.upper)
    if isinstance(strategy_set, ProductSet):
        return strategy_set.join(
            [project_l2(b, p) for b, p in zip(strategy_set.blocks, strategy_set.split(y))]
        )
    raise InvalidInputError(f"unsupported set {type(strategy_set).__name__}")


def lift_interior(xp):
    """Lift coordinates below INTERIOR_FLOOR and renormalize onto the simplex;
    row by row for a (k, d) stack."""
    lifted = np.maximum(xp, INTERIOR_FLOOR)
    return lifted / np.add.reduce(lifted, -1, keepdims=True)


def bregman(reg, x, xp):
    """Bregman divergence D(x || xp) of the regularizer.

    euclidean: squared-distance halves; entropic: KL divergence;
    log-barrier: Itakura-Saito-type sum. xp must be in the relative
    interior for the entropic and log-barrier kinds.
    """
    x = _check_finite(x)
    xp = _check_finite(xp)
    if reg.kind == EUCLIDEAN:
        diff = x - xp
        return 0.5 * float(diff @ diff)
    if np.any(xp <= 0):
        raise DomainError(f"{reg.kind} divergence needs an interior second argument")
    if reg.kind == ENTROPIC:
        mask = x > 0
        return float(np.sum(x[mask] * np.log(x[mask] / xp[mask])))
    # log-barrier
    if np.any(x <= 0):
        return float("inf")
    return float(np.sum(np.log(xp / x) + x / xp - 1.0))


def _rowdot(x, y):
    """Row-wise dot products of two (k, d) stacks; a (1, d) @ (d, 1) matmul
    rounds as the 1-D dot does, which a sum or ``einsum`` does not."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _prox_log_barrier_simplex(anchor, g, eta, tol=1e-10, max_iter=200):
    """Log-barrier prox on the simplex of every row of the (k, d) interior
    ``anchor`` along the matching row of ``g``, via safeguarded Newton on the
    dual.

    First-order conditions give x_a = 1 / (eta * nu + b_a) with
    b = 1 / anchor - eta * g; the simplex multiplier nu is the root of the
    convex, strictly decreasing f(nu) = sum(x(nu)) - 1. At the root every
    x_a <= 1 and some x_a >= 1/d, which brackets it:
    lo = max(1 - b) / eta has f(lo) >= 0 and hi = max(d - b) / eta has
    f(hi) <= 0. Newton starts from the first-order guess
    (anchor^2 . g) / sum(anchor^2) and falls back to the bracket midpoint
    whenever a step leaves the bracket, which shrinks on every step. Each row
    is solved on its own: a row is written out once |sum x - 1| <= tol and
    dropped from the iteration, which the other rows continue.
    """
    b = 1.0 / anchor - eta * g
    b_min = np.minimum.reduce(b, 1)
    lo = (1.0 - b_min) / eta
    hi = (b.shape[1] - b_min) / eta
    a2 = anchor * anchor
    nu = _rowdot(a2, g) / np.add.reduce(a2, 1)
    # min(max(nu, lo), hi) as Python floats take it, signed zeros included
    np.copyto(nu, lo, where=lo > nu)
    np.copyto(nu, hi, where=hi < nu)
    out = rows = None  # set once some rows converge before the others
    for _ in range(max_iter):
        x = 1.0 / ((eta * nu)[:, None] + b)
        s = np.add.reduce(x, 1)
        excess = s - 1.0
        residual = abs(excess)
        # max and fmin are NaN-aware as "every row" and "some row" need
        if np.maximum.reduce(residual) <= tol:
            x /= s[:, None]
            if rows is None:
                return x
            out[rows] = x
            return out
        if np.fmin.reduce(residual) <= tol:
            done = residual <= tol
            kept = ~done
            if rows is None:
                out, rows = np.empty_like(b), np.arange(len(b))
            out[rows[done]] = x[done] / s[done, None]
            rows, b, x, excess, nu, lo, hi = (
                rows[kept], b[kept], x[kept], excess[kept], nu[kept], lo[kept], hi[kept]
            )
        above = excess > 0.0
        np.copyto(lo, nu, where=above)
        np.copyto(hi, nu, where=~above)
        nu = nu + excess / (eta * _rowdot(x, x))
        np.copyto(nu, 0.5 * (lo + hi), where=~((lo < nu) & (nu < hi)))
    worst = int(np.argmax(abs(excess)))
    raise NumericError(
        f"log-barrier prox Newton solve did not converge: residual={abs(excess[worst]):.3e}, "
        f"eta={eta}, bracket=({lo[worst]}, {hi[worst]})"
    )


def mwu_step(dist, g, eta):
    """Multiplicative-weights step of a distribution along utilities ``g``.

    Returns dist * exp(eta * g), normalized. Weights are floored at 1e-300
    before the log, and the logits are shifted by their maximum before
    exponentiating.
    """
    logits = np.log(np.maximum(dist, 1e-300)) + eta * g
    logits -= np.max(logits)
    w = np.exp(logits)
    return w / np.sum(w)


def prox_step(reg, strategy_set, anchor, g, eta):
    """One regularized argmax step from ``anchor`` along utility gradient ``g``.

    Solves argmax_{x in set} { <x, g> - (1/eta) D(x || anchor) } exactly:
    euclidean by l2 projection of anchor + eta*g, entropic by ``mwu_step``
    from the lifted anchor, log-barrier by a safeguarded Newton solve of the
    one-dimensional dual.
    """
    if eta <= 0:
        raise InvalidInputError(f"eta must be positive, got {eta}")
    anchor = _check_finite(anchor)
    g = _check_finite(g)
    if reg.kind == EUCLIDEAN:
        if isinstance(strategy_set, Simplex):
            return project_simplex(anchor + eta * g)
        return project_l2(strategy_set, anchor + eta * g)
    if not isinstance(strategy_set, Simplex):
        raise DomainError(f"{reg.kind} prox is defined on the simplex only")
    anchor = lift_interior(anchor)
    if reg.kind == ENTROPIC:
        return mwu_step(anchor, g, eta)
    return _prox_log_barrier_simplex(anchor[None], g[None], eta)[0]
