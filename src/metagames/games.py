"""Game representations, utility oracles, Lipschitz constants, and generators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from metagames.errors import ConfigError, InvalidInputError
from metagames.geometry import ProductSet, Simplex


class MatrixGame:
    """Two-player zero-sum game min_x max_y x^T A y.

    ``A[i, j]`` is the x-player's loss (equivalently the y-player's gain),
    so the x-player observes the utility vector -A y and the y-player A^T x.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or not np.all(np.isfinite(A)):
            raise InvalidInputError("payoff matrix must be a finite 2-d array")
        self.A = A
        self.d_x, self.d_y = A.shape
        self.n = 2
        # Per-game memos; A is never modified after construction.
        self._lipschitz = None
        self._saddle = None

    @property
    def sets(self):
        return (Simplex(self.d_x), Simplex(self.d_y))

    def joint_set(self):
        return ProductSet(Simplex(self.d_x), Simplex(self.d_y))

    def rescaled(self):
        """Copy with max |entry| <= 1 (no-op if already satisfied)."""
        scale = float(np.max(np.abs(self.A)))
        if scale <= 1.0 or scale == 0.0:
            return self
        return MatrixGame(self.A / scale)

    def operator(self):
        """VI operator F(z) = (A y, -A^T x) with the saddle as MVI point."""
        game = self

        def F(z):
            x, y = z[: game.d_x], z[game.d_x :]
            return np.concatenate([game.A @ y, -game.A.T @ x])

        return VIOperator(F, game.joint_set(), lipschitz=lipschitz_constant(game))


class NormalFormGame:
    """n-player game given by one payoff tensor per player.

    ``payoffs[k]`` has shape (d_1, ..., d_n) and holds player k's utility
    for each joint action profile; entries must lie in [-1, 1].
    """

    def __init__(self, payoffs):
        payoffs = [np.asarray(u, dtype=float) for u in payoffs]
        shape = payoffs[0].shape
        if len(shape) != len(payoffs):
            raise InvalidInputError("need one payoff tensor per player")
        for u in payoffs:
            if u.shape != shape or not np.all(np.isfinite(u)):
                raise InvalidInputError("inconsistent or non-finite payoff tensors")
            if np.max(np.abs(u)) > 1.0 + 1e-12:
                raise InvalidInputError("payoffs must lie in [-1, 1]")
        self.payoffs = payoffs
        self.n = len(payoffs)
        self.dims = shape
        self._lipschitz = None

    @property
    def sets(self):
        return tuple(Simplex(d) for d in self.dims)

    def utility(self, profile):
        """Expected utility of every player under the mixed profile."""
        return np.array(
            [float(utility_gradient(self, k, profile) @ profile[k]) for k in range(self.n)]
        )


class PotentialGame:
    """Potential game: partial derivatives of ``potential`` reproduce utilities."""

    def __init__(self, base: NormalFormGame, potential: Callable, phi_max: float):
        self.base = base
        self.potential = potential
        self.phi_max = float(phi_max)

    @property
    def n(self):
        return self.base.n

    @property
    def sets(self):
        return self.base.sets

    @staticmethod
    def identical_interest(payoff):
        """Two-player identical-interest game; the bilinear form is the potential."""
        payoff = np.asarray(payoff, dtype=float)
        base = NormalFormGame([payoff, payoff])

        def phi(profile):
            x, y = profile
            return float(x @ payoff @ y)

        return PotentialGame(base, phi, float(np.max(np.abs(payoff))))


@dataclass(frozen=True)
class SmoothnessMeta:
    """(lambda, mu)-smoothness constants plus the optimal welfare of a game."""

    lam: float
    mu: float
    opt_welfare: float = 0.0
    alpha_weights: Optional[np.ndarray] = None

    @property
    def robust_poa(self):
        return self.lam / (1.0 + self.mu)


@dataclass
class VIOperator:
    """Single-valued operator F over a product strategy set."""

    eval: Callable[[np.ndarray], np.ndarray]
    set: object
    lipschitz: Optional[float] = None
    holder: Optional[tuple] = None  # (H, alpha)
    weak_mvi_rho: Optional[float] = None

    def __call__(self, z):
        return self.eval(np.asarray(z, dtype=float))


class SecurityGame:
    """Stackelberg security game over ``d`` targets and ``k`` attacker types.

    Each attacker type is a (covered, uncovered) pair of per-target payoff
    vectors; likewise for the defender. With coverage x and attacked target
    j, the attacker of type f receives x[j]*covered_f[j] + (1-x[j])*uncovered_f[j].
    """

    def __init__(self, attacker_types, defender_covered, defender_uncovered):
        self.attacker_covered = np.asarray([t[0] for t in attacker_types], dtype=float)
        self.attacker_uncovered = np.asarray([t[1] for t in attacker_types], dtype=float)
        self.defender_covered = np.asarray(defender_covered, dtype=float)
        self.defender_uncovered = np.asarray(defender_uncovered, dtype=float)
        self.k, self.d = self.attacker_covered.shape
        tables = (
            self.attacker_covered,
            self.attacker_uncovered,
            self.defender_covered,
            self.defender_uncovered,
        )
        if self.defender_covered.shape != (self.d,) or self.defender_uncovered.shape != (self.d,):
            raise InvalidInputError("defender payoff vectors must have one entry per target")
        for tab in tables:
            if not np.all(np.isfinite(tab)) or np.max(np.abs(tab)) > 1.0 + 1e-12:
                raise InvalidInputError("security-game utilities must lie in [-1, 1]")


def utility_gradient(game, player, opponents_profile):
    """Utility vector u_k(x_{-k}) seen by ``player`` against the others' profile.

    For a MatrixGame ``opponents_profile`` is the single opposing strategy;
    for a NormalFormGame it is the full profile list (own entry ignored). A
    VIOperator is a one-player game: player 0 at profile [z] sees -F(z).
    """
    if isinstance(game, MatrixGame):
        if player == 0:
            return -game.A @ np.asarray(opponents_profile[-1], dtype=float)
        if player == 1:
            return game.A.T @ np.asarray(opponents_profile[0], dtype=float)
        raise InvalidInputError(f"matrix game has players 0 and 1, got {player}")
    if isinstance(game, PotentialGame):
        game = game.base
    if isinstance(game, NormalFormGame):
        if not 0 <= player < game.n:
            raise InvalidInputError(f"player index {player} out of range")
        tensor = game.payoffs[player]
        order = [player] + [j for j in range(game.n) if j != player]
        acc = np.transpose(tensor, order)
        for j in reversed(order[1:]):
            acc = acc @ np.asarray(opponents_profile[j], dtype=float)
        return acc
    if isinstance(game, VIOperator):
        if player != 0:
            raise InvalidInputError(f"a VI operator has the one player 0, got {player}")
        return -game(opponents_profile[0])
    raise InvalidInputError(f"unsupported game type {type(game).__name__}")


def _power_iteration_spectral_norm(A, rel_tol=1e-10, max_iter=10_000):
    """Largest singular value of A via power iteration on A^T A, run on A
    scaled by the power of two that brings its largest entry into [0.5, 1),
    so that nothing underflows or overflows. The scaling is exact: 2**k * A
    gets 2**k times the norm of A, bit for bit."""
    A = np.asarray(A, dtype=float)
    if A.size == 0 or not np.any(A):
        return 0.0
    e = int(np.frexp(np.max(np.abs(A)))[1])
    A = np.ldexp(A, -e)
    d = A.shape[1]
    v = np.full(d, 1.0 / np.sqrt(d))
    v += 1e-3 * (np.arange(d) + 1.0) / d  # break symmetry deterministically
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # v landed in the null space; restart on the basis vector of the
            # largest column, whose image is at least 0.25 in norm.
            v = np.zeros(d)
            v[np.argmax(np.sum(A * A, axis=0))] = 1.0
            continue
        v = w / norm
        sigma, sigma_prev = float(np.linalg.norm(A @ v)), sigma
        if abs(sigma - sigma_prev) <= rel_tol * max(sigma, 1e-300):
            break
    return float(np.ldexp(sigma, e))  # inf, with a warning, beyond the float range


def lipschitz_constant(game):
    """Lipschitz parameter of the utility map in the sense of the RVU analysis.

    Exact spectral norm for matrix games; for normal-form games a conservative
    upper bound via unfolded slice norms (exact tensor norms are intractable
    for n >= 3, and only an upper bound is needed).
    """
    if isinstance(game, MatrixGame):
        if game._lipschitz is None:
            game._lipschitz = _power_iteration_spectral_norm(game.A)
        return game._lipschitz
    if isinstance(game, PotentialGame):
        game = game.base
    if isinstance(game, NormalFormGame):
        if game._lipschitz is None:
            best = 0.0
            for k in range(game.n):
                max_abs = float(np.max(np.abs(game.payoffs[k])))
                d_k = game.dims[k]
                bound_sq = sum(d_k * game.dims[j] for j in range(game.n) if j != k)
                best = max(best, max_abs * float(np.sqrt(bound_sq)))
            game._lipschitz = best
        return game._lipschitz
    raise InvalidInputError(f"unsupported game type {type(game).__name__}")


def lower_bound_family(d, r):
    """Payoff matrix whose only nonzero entries fill row ``r`` with ones.

    Entries are the row player's utility; the returned MatrixGame stores
    them verbatim, and the column player's utility gradient is constant in
    its own strategy.
    """
    if not 1 <= r <= d:
        raise InvalidInputError(f"row index {r} out of range 1..{d}")
    A = np.zeros((d, d))
    A[r - 1, :] = 1.0
    return MatrixGame(A)


@dataclass
class SequenceConfig:
    """Configuration of a synthetic task sequence."""

    family: str
    T: int
    seed: int = 0
    sequencing: str = "random"
    # perturbed-base
    base: Optional[np.ndarray] = None
    delta: float = 0.0
    # lower-bound-prior
    prior: Optional[np.ndarray] = None
    dim: int = 3
    # potential-drift
    alpha: float = 0.0


FAMILIES = ("perturbed-base", "lower-bound-prior", "potential-drift")
SEQUENCINGS = ("random", "sorted", "alternating")


def _alternate(indices):
    """Interleave a sorted index list from both ends: smallest, largest, ..."""
    out, lo, hi = [], 0, len(indices) - 1
    while lo <= hi:
        out.append(indices[lo])
        lo += 1
        if lo <= hi:
            out.append(indices[hi])
            hi -= 1
    return out


def sample_game_sequence(config: SequenceConfig):
    """Deterministic-under-seed list of T games from a named family.

    perturbed-base adds uniform noise of magnitude delta to a base matrix;
    lower-bound-prior draws single-row matrices i.i.d. from a prior over row
    indices (draws of one row share one game object, so its memos are filled
    once); potential-drift random-walks an identical-interest payoff with
    per-step sup-norm deviation at most alpha. Sequencing reorders the drawn
    tasks by a severity key (random keeps draw order).
    """
    if config.family not in FAMILIES:
        raise ConfigError(f"unknown game family {config.family!r}")
    if config.sequencing not in SEQUENCINGS:
        raise ConfigError(f"unknown sequencing mode {config.sequencing!r}")
    if config.T < 1:
        raise ConfigError("T must be >= 1")
    rng = np.random.default_rng(config.seed)

    if config.family == "perturbed-base":
        if config.base is None:
            raise ConfigError("perturbed-base requires a base matrix")
        if not math.isfinite(2.0 * config.delta):
            raise ConfigError(
                f"config.game.delta: the noise range 2*delta overflows, got {config.delta!r}"
            )
        base = np.asarray(config.base, dtype=float)
        noises = rng.uniform(-config.delta, config.delta, size=(config.T,) + base.shape)
        games = [MatrixGame(base + noises[t]).rescaled() for t in range(config.T)]
        if config.sequencing != "random":
            # noise / delta lies in [-1, 1], so its norm cannot overflow
            scaled = noises / config.delta if config.delta > 0 else noises
            keys = np.linalg.norm(scaled.reshape(config.T, -1), axis=1)
    elif config.family == "lower-bound-prior":
        if config.prior is None:
            raise ConfigError("lower-bound-prior requires a prior over rows")
        prior = np.asarray(config.prior, dtype=float)
        d = prior.shape[0]
        rows = rng.choice(d, size=config.T, p=prior / np.sum(prior))
        keys = rows.astype(float)
        family = {r: lower_bound_family(d, r + 1) for r in np.unique(rows).tolist()}
        games = [family[r] for r in rows.tolist()]
    else:  # potential-drift
        d = config.dim
        payoff = rng.uniform(-0.5, 0.5, size=(d, d))
        games, keys_list = [], []
        drift = 0.0
        for _ in range(config.T):
            games.append(PotentialGame.identical_interest(payoff.copy()))
            keys_list.append(drift)
            step = rng.uniform(-config.alpha, config.alpha, size=(d, d))
            payoff = np.clip(payoff + step, -1.0, 1.0)
            drift += float(np.max(np.abs(step)))
        keys = np.asarray(keys_list)

    if config.sequencing == "random":
        return games
    order = list(np.argsort(keys, kind="stable"))
    if config.sequencing == "alternating":
        order = _alternate(order)
    return [games[i] for i in order]
