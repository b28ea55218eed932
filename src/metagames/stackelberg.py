"""Repeated Stackelberg security games with a meta-learned MWU defender.

The defender commits to coverage vectors drawn from a finite set of extreme
points; attackers best respond per revealed type. Initialization and
learning rate of the MWU distribution over extreme points are meta-learned
across tasks.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from metagames.errors import ConfigError, InvalidInputError
from metagames.games import SecurityGame
from metagames.geometry import ENTROPIC, Regularizer, Simplex, bregman
from metagames.meta import (
    COLD,
    FTL_AVERAGE,
    EwooState,
    Initializer,
    TaskOutcome,
    ewoo_next_eta,
    shannon_entropy,
)
from metagames.swapregret import boundary_offset_comparator


def _responses(game: SecurityGame, points):
    """Defender utilities (n, d) of the n coverage rows of ``points``, and the
    target (k, n) each attacker type attacks: its best response, with ties
    within 1e-12 going to the defender-favorable, then the lowest, index."""
    P = np.asarray(points, dtype=float)
    D = P * game.defender_covered + (1.0 - P) * game.defender_uncovered
    A = P * game.attacker_covered[:, None, :] + (1.0 - P) * game.attacker_uncovered[:, None, :]
    tied = A >= np.max(A, axis=2, keepdims=True) - 1e-12
    return D, np.argmax(np.where(tied, D, -np.inf), axis=2)  # argmax keeps the lowest index


def payoff_table(game: SecurityGame, points):
    """Defender utility (k, n) of each coverage row against each type's best response."""
    D, targets = _responses(game, points)
    return D[np.arange(D.shape[0]), targets]


def defender_payoff(game: SecurityGame, type_id, coverage):
    """Defender utility when the given attacker type best responds: one entry
    of ``payoff_table``. The package reads the table; perfbench/spans.py
    traces this function by name."""
    return float(payoff_table(game, np.asarray(coverage, dtype=float)[None])[type_id, 0])


@dataclass
class ExtremePointSet:
    """Finite set of coverage vectors the defender mixes over."""

    points: np.ndarray
    provenance: str = "user-supplied"
    gamma: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidInputError("extreme-point set must be a nonempty 2-d array")
        # Negated tests, so that a NaN coordinate fails them too.
        if not (np.min(pts) >= -1e-9 and np.max(np.abs(np.sum(pts, axis=1) - 1.0)) <= 1e-9):
            raise InvalidInputError("extreme points must lie on the simplex")
        self.points = pts

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def _region_constraints(game: SecurityGame, type_id, target):
    """Halfspace rows (a, b) with a.x >= b describing the best-response region."""
    c = game.attacker_covered[type_id]
    u = game.attacker_uncovered[type_id]
    rows = []
    for other in range(game.d):
        if other == target:
            continue
        a = np.zeros(game.d)
        a[target] = c[target] - u[target]
        a[other] = -(c[other] - u[other])
        rows.append((a, u[other] - u[target]))
    return rows


def _region_vertices(game: SecurityGame, type_id, target, tol=1e-9):
    """Vertices of one best-response region via facet-combination solves."""
    d = game.d
    br_rows = _region_constraints(game, type_id, target)
    # Candidate active facets: coordinate zeros and best-response equalities.
    facets = [("zero", a) for a in range(d)] + [("br", i) for i in range(len(br_rows))]
    vertices = []
    for combo in itertools.combinations(facets, d - 1):
        M = np.ones((d, d))
        rhs = np.zeros(d)
        rhs[-1] = 1.0
        for row_idx, (kind, idx) in enumerate(combo):
            if kind == "zero":
                row = np.zeros(d)
                row[idx] = 1.0
                M[row_idx] = row
                rhs[row_idx] = 0.0
            else:
                a, b = br_rows[idx]
                M[row_idx] = a
                rhs[row_idx] = b
        M[d - 1] = np.ones(d)
        rhs[d - 1] = 1.0
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.min(x) < -tol:
            continue
        if any(float(a @ x) < b - tol for a, b in br_rows):
            continue
        vertices.append(np.maximum(x, 0.0) / np.sum(np.maximum(x, 0.0)))
    return vertices


def _dedupe(points):
    seen = {}
    for p in points:
        key = tuple(np.round(p, 9))  # points equal to 9 decimals are one
        if key not in seen:
            seen[key] = p
    return list(seen.values())


MAX_REGION_TARGETS = 5  # games with more targets take the uniform grid
MAX_GRID_POINTS = 10**6  # a finer grid is refused, not built


def build_extreme_points(games, gamma=1e-3):
    """Extreme points covering every attacker-type/target region.

    For d <= MAX_REGION_TARGETS the vertices of each best-response region
    are enumerated exhaustively and a gamma-interior shift of each vertex
    toward its region's centroid is added; larger d falls back to a uniform
    simplex grid with spacing gamma, of at most MAX_GRID_POINTS points.
    """
    if isinstance(games, SecurityGame):
        games = [games]
    d = games[0].d
    if any(g.d != d for g in games):
        raise ConfigError("extreme-point construction needs a shared target count")
    if d > MAX_REGION_TARGETS:
        if not (gamma > 0 and math.isfinite(1.0 / gamma)):  # round() would overflow
            msg = f"gamma={gamma!r} on d={d} targets has no finite 1/gamma"
            raise ConfigError(f"extreme-point grid: {msg}; raise gamma")
        n = max(1, round(1.0 / gamma))
        count = math.comb(n + d - 1, d - 1)
        if count > MAX_GRID_POINTS:
            msg = f"gamma={gamma!r} on d={d} targets gives {count} points, above {MAX_GRID_POINTS}"
            raise ConfigError(f"extreme-point grid: {msg}; raise gamma")
        # The compositions of n into d parts, in lexicographic order: as
        # stars and bars, the d - 1 bars among n + d - 1 slots, in that order.
        pts = [
            (np.diff((-1, *bars, n + d - 1)) - 1) / n
            for bars in itertools.combinations(range(n + d - 1), d - 1)
        ]
        return ExtremePointSet(np.asarray(pts), provenance="grid", gamma=gamma)
    collected = []
    for game in games:
        for type_id in range(game.k):
            for target in range(d):
                verts = _region_vertices(game, type_id, target)
                if not verts:
                    continue
                centroid = np.mean(np.asarray(verts), axis=0)
                for v in verts:
                    collected.append(v)
                    gap = centroid - v
                    dist = float(np.linalg.norm(gap))
                    if dist > 0:
                        collected.append(v + min(1.0, gamma / dist) * gap)
    if not collected:
        raise ConfigError("no feasible best-response region vertices found")
    return ExtremePointSet(
        np.asarray(_dedupe(collected)), provenance="brute-force-regions", gamma=gamma
    )


def stackelberg_regret(game: SecurityGame, coverages, attacker_types, extreme_points):
    """Regret against the best fixed commitment from the comparator set.

    The comparator's best responses are recomputed against the comparator
    itself, not against the played strategies. ``attacker_types`` holds one
    type index in 0..k-1 per coverage row; any other length or index raises
    InvalidInputError.
    """
    pts = extreme_points.points if isinstance(extreme_points, ExtremePointSet) else np.asarray(extreme_points)
    if pts.shape[0] == 0:
        raise InvalidInputError("empty comparator set")
    coverages = np.asarray(coverages, dtype=float).reshape(-1, pts.shape[1])
    attacker_types = np.asarray(attacker_types, dtype=int)
    if attacker_types.shape != (len(coverages),):
        msg = f"attacker_types of shape {attacker_types.shape} for {len(coverages)} coverages"
        raise InvalidInputError(f"{msg}: one type per round is needed")
    if attacker_types.size and not (attacker_types.min() >= 0 and attacker_types.max() < game.k):
        raise InvalidInputError(f"attacker_types holds an index outside 0..{game.k - 1}")
    played = payoff_table(game, coverages)[attacker_types, np.arange(len(coverages))]
    best = np.max(np.sum(payoff_table(game, pts)[attacker_types], axis=0))
    return float(best - np.sum(played))


def _prefix_sums(U, C):
    """Fill the (m, n) array ``C`` with the exclusive prefix sums of the
    utility rows ``U`` (C_0 = 0, C_i the sum of the rows before i) and return
    the sum of all rows."""
    C[0] = 0.0
    np.cumsum(U[:-1], axis=0, out=C[1:])
    return C[-1] + U[-1]


def _draw(Y, thresholds, Z):
    """Index of the first point whose cumulative weight in row i of the (m, n)
    weights ``Y`` reaches ``thresholds[i]`` (the last point if none does), for
    every round at once. The (n, m) work array ``Z`` is overwritten.

    A column scan makes the cumulative weights: Z holds the weights
    transposed, and adding row j - 1 into row j for j = 1..n-1 adds in the
    order of ``cumsum(Y, axis=1)``, so with the same bits, in n - 1
    vectorized adds."""
    n = Y.shape[1]
    Z[...] = Y.T
    rows = iter(Z)  # row views: indexing Z[j] would cost more than the adds
    prev = next(rows)
    for row in rows:
        np.add(prev, row, out=row)
        prev = row
    return np.minimum(np.count_nonzero(Z < thresholds, axis=0), n - 1)


def _play_mwu(U, C, y0, eta, sampled, Y, Z):
    """One task of full-information MWU from ``y0`` on the (m, n) utility
    rows ``U`` with prefix sums ``C`` (``_prefix_sums``): round i plays
    softmax(log y0 + eta * C_i) and samples the point ``_draw`` picks at
    ``sampled[i]`` times the total weight. ``Y`` (m, n) and ``Z`` (n, m) are
    work arrays, overwritten; Y stays in row layout, in which the max, the
    row sums and the expected value are rounded. Returns the expected and
    realized values. Unlike per-round ``geometry.mwu_step`` calls, no weight
    is floored at 1e-300 mid-task."""
    np.multiply(C, eta, out=Y)
    Y += np.log(np.maximum(y0, 1e-300))
    Y -= np.max(Y, axis=1, keepdims=True)
    np.exp(Y, out=Y)
    Y /= np.sum(Y, axis=1, keepdims=True)
    expected_value = float(np.einsum("ij,ij->", Y, U))
    choices = _draw(Y, sampled * np.sum(Y, axis=1), Z)
    realized_value = float(np.sum(U[np.arange(len(U)), choices]))
    return expected_value, realized_value


_thread_work = threading.local()

# Work arrays of more bytes than this are allocated per run and freed with
# it, not kept by the thread.
KEEP_MAX_BYTES = 64 * 2**20


def _work_arrays(m, n):
    """This thread's (U, C, Y, Z) work arrays for m rounds over n points:
    three (m, n) and one (n, m). Up to ``KEEP_MAX_BYTES`` together
    (32 m n bytes), they are kept from run to run and reallocated only when
    (m, n) changes, so that no run faults fresh pages in; larger ones are not
    kept, and drop the kept ones. A run fills U and C on its first task, so
    nothing carries over between runs."""
    arrays = getattr(_thread_work, "arrays", None)
    if arrays is None or arrays[0].shape != (m, n):
        arrays = (*(np.empty((m, n)) for _ in range(3)), np.empty((n, m)))
        _thread_work.arrays = arrays if 32 * m * n <= KEEP_MAX_BYTES else None
    return arrays


# Config initializer names and the meta.Initializer modes they run.
_INITIALIZERS = {"ftl-average": FTL_AVERAGE, "uniform": COLD}


@dataclass
class StackelbergConfig:
    m: int = 100
    initializer: str = "ftl-average"  # or "uniform"
    eta: object = "ewoo"  # "ewoo" or a fixed float
    gamma: float = 1e-3
    alpha: float = None  # boundary offset; default 1/sqrt(mT)
    seed: int = 0

    def __post_init__(self):
        finite_rate = isinstance(self.eta, (int, float)) and 0 < self.eta < math.inf
        for name, ok, rule in (
            ("m", isinstance(self.m, (int, np.integer)) and self.m >= 1, "an integer >= 1"),
            ("alpha", self.alpha is None or 0 < self.alpha <= 1, "in (0, 1]"),
            ("eta", self.eta == "ewoo" or finite_rate, "'ewoo' or a finite positive number"),
            ("initializer", self.initializer in _INITIALIZERS, "ftl-average or uniform"),
            ("gamma", 0 < self.gamma < math.inf, "a finite positive number"),
        ):
            if not ok:
                got = getattr(self, name)
                raise ConfigError(f"StackelbergConfig.{name}: must be {rule}, got {got!r}")


def run_meta_stackelberg(games, attacker_script, config: StackelbergConfig, extreme_points=None):
    """MWU over extreme points with meta-learned initialization and rate.

    ``attacker_script`` is a per-task list of per-round type indices. The
    defender observes the full utility vector over the extreme-point set
    every round (the revealed type makes it computable), samples its
    commitment from the MWU distribution, and logs expected and realized
    Stackelberg regret. Each task starts from a one-player
    ``meta.Initializer`` over the extreme points, fed the boundary-offset
    optimum in hindsight of every finished task.
    """
    T = len(games)
    if T == 0:
        raise ConfigError("games: run_meta_stackelberg needs at least one task")
    d = games[0].d
    if any(g.d != d for g in games):
        raise ConfigError("tasks must share the target count d")
    if len(attacker_script) != T:
        raise ConfigError("attacker script must cover every task")
    m = config.m
    alpha = config.alpha if config.alpha is not None else 1.0 / math.sqrt(m * T)
    E = extreme_points if extreme_points is not None else build_extreme_points(games, config.gamma)
    if E.dim != d:
        raise ConfigError(f"extreme_points: points of dimension {E.dim}, but the games have d={d} targets")
    n_points = len(E)
    rng = np.random.default_rng(config.seed)

    # EWOO setup per the CCE-style parameterization with gamma_t = m.
    D = math.sqrt(math.log(n_points / alpha) / m)
    rho = T ** (-0.25)
    ewoo = EwooState.from_radius(D, rho)

    initializer = Initializer(_INITIALIZERS[config.initializer], [Simplex(n_points)])
    entropic = Regularizer(ENTROPIC)
    records = []
    opt_hindsight_dists = []
    table_game = rows_script = None
    # U, C and cum_utility belong to the (game, script) of rows_script; a task
    # that repeats both reuses them.
    U, C, Y, Z = _work_arrays(m, n_points)
    for t in range(T):
        game = games[t]
        try:
            script = np.asarray(attacker_script[t])
        except ValueError as exc:  # a ragged nesting
            raise ConfigError(f"task {t} script is not a list of rounds: {exc}") from exc
        if script.ndim != 1 or len(script) != m:
            raise ConfigError(f"task {t} script has shape {script.shape}, expected ({m},)")
        if script.dtype.kind not in "iu":
            raise ConfigError(f"task {t} script holds {script.dtype} entries, not attacker type indices")
        if script.min() < 0 or script.max() >= game.k:
            raise ConfigError(f"task {t} script has an attacker type index outside 0..{game.k - 1}")
        if game is not table_game:  # consecutive tasks on one game share the table
            payoffs = payoff_table(game, E.points)
            table_game, rows_script = game, None
        if rows_script is None or not np.array_equal(script, rows_script):
            # "clip" takes rows straight into U ("raise" would buffer them);
            # the script's indices are checked above.
            np.take(payoffs, script, axis=0, out=U, mode="clip")
            cum_utility = _prefix_sums(U, C)
            rows_script = script
        (y0,) = initializer.initialization()
        eta_t = ewoo_next_eta(ewoo) if config.eta == "ewoo" else float(config.eta)
        expected_value, realized_value = _play_mwu(U, C, y0, eta_t, rng.random(m), Y, Z)

        best_idx = int(np.argmax(cum_utility))
        best_value = float(cum_utility[best_idx])
        y_opt = np.zeros(n_points)
        y_opt[best_idx] = 1.0
        y_tilde = boundary_offset_comparator(y_opt, alpha)
        kl = bregman(entropic, y_tilde, y0)
        regret_expected = best_value - expected_value
        regret_realized = best_value - realized_value
        mwu_bound = eta_t * m + kl / eta_t + 2.0 * alpha * m
        records.append(
            {
                "task": t,
                "eta": eta_t,
                "regret_expected": regret_expected,
                "regret_realized": regret_realized,
                "init_kl": kl,
                "mwu_bound": mwu_bound,
                "best_point_index": best_idx,
            }
        )
        opt_hindsight_dists.append(y_tilde)
        # Meta updates: FTL mean over offset optima, EWOO over bound losses.
        initializer.observe(TaskOutcome(optima=[y_tilde]))
        ewoo.record(kl / m, float(m))

    mean_dist = np.mean(np.asarray(opt_hindsight_dists), axis=0)
    task_avg = float(np.mean([r["regret_expected"] for r in records]))
    summary = {
        "extreme_points": E,
        "alpha": alpha,
        "entropy_mean_optimum": shannon_entropy(mean_dist),
        "task_avg_expected_regret": task_avg,
        # measured constant of the sqrt(m log|E|) worst-case scaling
        "worst_case_constant": task_avg / math.sqrt(m * math.log(max(n_points, 2))),
    }
    return records, summary
