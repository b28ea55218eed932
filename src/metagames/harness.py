"""Experiment orchestration: task sequences, learner/meta wiring, logging.

A run is deterministic under its seed: identical configs produce
byte-identical CSV/JSON/SVG outputs.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from metagames.errors import ConfigError, InvalidInputError, NumericError
from metagames.games import (
    FAMILIES,
    SEQUENCINGS,
    MatrixGame,
    PotentialGame,
    SequenceConfig,
    lipschitz_constant,
    sample_game_sequence,
    utility_gradient,
)
from metagames.geometry import (
    ENTROPIC,
    EUCLIDEAN,
    LOG_BARRIER,
    _NO_THRESHOLD,
    Regularizer,
    _check_finite,
    _check_rate,
    _entropic_logs,
    _entropic_steps,
    _log_barrier_steps,
    _rowsums,
    lift_interior,
    project_simplex_rows,
    simplex_threshold,
)
from metagames.learners import (
    PREDICTION_MODES,
    RECENCY,
    SECONDARY_ANCHOR,
    GDLearner,
    OMDLearner,
    best_point,
    check_start,
    doubling_residual,
    doubling_trick_eta,
    external_regret,
)
from metagames.meta import (
    INITIALIZER_MODES,
    EwooState,
    Initializer,
    SimilarityStats,
    TaskOutcome,
    anchor_variance,
    ewoo_next_eta,
    kl_anchor_variance,
    ne_similarity_worst,
)
from metagames.metrics import duality_gap, ne_gap, path_lengths, saddle_point

SCHEMA_VERSION = 1

CSV_HEADER = "schema_version,task,iter,player,regret_cum,dualgap,negap,pathlen2,eta,init_mode"


@dataclass
class RunRecord:
    """One logged (task, iteration, player) row."""

    task: int
    iter: int
    player: int
    regret_cum: float
    dualgap: float
    negap: float
    pathlen2: float
    eta: float
    init_mode: str
    strategy: Optional[np.ndarray] = None

    def csv_row(self):
        return (
            f"{SCHEMA_VERSION},{self.task},{self.iter},{self.player},"
            f"{self.regret_cum!r},{self.dualgap!r},{self.negap!r},{self.pathlen2!r},"
            f"{self.eta!r},{self.init_mode}"
        )


def play_task(game, learners, m, free_first=True, alternating=False):
    """Self-play on any game for m rounds, round by round: the reference loop
    for learner objects.

    Utilities come from ``utility_gradient``, so matrix, normal-form and
    potential games and VI operators (one player) share this loop. With
    ``free_first`` every learner that takes predictions is given u_k at the
    starting profile: the one free oracle call of a task. Learners in
    'secondary-anchor' mode are given u_k at the secondary iterates before
    every round. With ``alternating`` (two players) the second mover
    predicts with the first mover's current move.
    The learners keep their played points and utilities. Returns the learners.
    ``run_experiment`` plays recency self-play without alternation by
    ``_play_batch`` or ``_play_rows`` instead, bit for bit as this loop.
    """
    predicts = [hasattr(lrn, "set_prediction") for lrn in learners]
    if free_first and any(predicts):
        start = [lrn.init for lrn in learners]
        for k, lrn in enumerate(learners):
            if predicts[k]:
                lrn.set_prediction(utility_gradient(game, k, start))
    n = len(learners)
    anchored = [
        k for k, lrn in enumerate(learners) if getattr(lrn, "mode", None) == SECONDARY_ANCHOR
    ]
    for i in range(1, m + 1):
        if anchored:
            hats = [lrn.x_hat for lrn in learners]
            for k in anchored:
                learners[k].set_prediction(utility_gradient(game, k, hats))
        if alternating and predicts[1]:
            # The second mover's own entry of the profile is ignored.
            first = learners[0].play()
            learners[1].set_prediction(utility_gradient(game, 1, [first, first]))
        profile = [lrn.play() for lrn in learners]
        utilities = [utility_gradient(game, k, profile) for k in range(n)]
        for lrn, u in zip(learners, utilities):
            lrn.update(u)
    return learners


def _default_eta(game, n_players):
    # A zero game takes L = 1e-12; below 2**-1020, 1/(4L) would overflow.
    L = lipschitz_constant(game) or 1e-12
    return 1.0 / (4.0 * max(L, 2.0**-1020) * math.sqrt(max(n_players - 1, 1)))


_REGS = {
    "ogd": Regularizer(EUCLIDEAN),
    "opthedge": Regularizer(ENTROPIC),
    "omd-logbar": Regularizer(LOG_BARRIER),
}


def make_learner(algo, strategy_set, eta, init=None, prediction="recency"):
    if algo == "gd":
        return GDLearner(strategy_set, eta, init=init)
    if algo in _REGS:
        return OMDLearner(strategy_set, eta, _REGS[algo], init=init, prediction_mode=prediction)
    raise ConfigError(f"config.learner.algo: unknown algorithm {algo!r}")


# One row per config field: its path below ``config``, its kind (str or a key
# of _EXPECTED), its default (``...`` if the field is required) and its allowed
# values: a tuple of choices, or a bound that every number of the value meets.
# The row paths also give the keys each config object may hold.
_Field = namedtuple("_Field", "path kind default allowed")
SCHEMA = (
    _Field("T", "int", ..., ">= 1"),
    _Field("m", "int", ..., ">= 1"),
    _Field("seed", "int", 0, ">= 0"),
    _Field("init", "str", None, INITIALIZER_MODES),  # wins over meta.initializer
    _Field("log_every", "int", 0, ">= 0"),
    _Field("metrics_every", "int", 0, ">= 0"),
    _Field("dump_strategies", "bool", False, None),
    _Field("game.family", "str", ..., FAMILIES),
    _Field("game.sequencing", "str", "random", SEQUENCINGS),
    _Field("game.base", "matrix", None, None),
    _Field("game.delta", "float", 0.0, ">= 0"),
    _Field("game.prior", "vector", None, ">= 0"),
    _Field("game.dim", "int", 3, ">= 1"),
    _Field("game.alpha", "float", 0.0, ">= 0"),
    _Field("learner.algo", "str", "ogd", (*_REGS, "gd")),
    _Field("learner.eta", "float", "auto", "> 0"),  # "auto": 1/(4L) per game
    _Field("learner.eta_mode", "str", None, ("fixed", "doubling", "ewoo")),
    _Field("learner.prediction", "str", "recency", PREDICTION_MODES),
    _Field("learner.first_prediction", "str", "oracle", ("oracle", "zero")),
    _Field("learner.alternating", "bool", False, None),
    _Field("meta.initializer", "str", "cold", INITIALIZER_MODES),
    _Field("meta.similarity_report", "bool", False, None),
    _Field("meta.ewoo.enabled", "bool", False, None),  # learner.eta_mode wins
    _Field("meta.ewoo.D", "float", None, "> 0"),
    _Field("meta.ewoo.rho", "float", None, "> 0"),
)
_EXPECTED = {
    "int": "an integer",
    "float": "a finite number",
    "bool": "true or false",
    "matrix": "a non-empty 2-d list of finite numbers",
    "vector": "a non-empty list of finite numbers",
}


def _read(block, prefix=""):
    """The SCHEMA fields below ``prefix`` ("" or a block path such as "meta.") of
    the config object ``block`` by row path, each checked or else defaulted."""
    where = f"config.{prefix}".rstrip(".")
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object, got {block!r}")
    rows = {f.path[len(prefix) :]: f for f in SCHEMA if f.path.startswith(prefix)}
    keys = sorted({key.split(".")[0] for key in rows})
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key (known: {', '.join(keys)})")
    values = {}
    for key in keys:
        f = rows.get(key)
        if f is None:  # a sub-object
            values.update(_read(block.get(key, {}), f"{prefix}{key}."))
        elif key in block:
            values[f.path] = _value(f, block[key])
        elif f.default is ...:
            raise ConfigError(f"{where}.{key}: missing")
        else:
            values[f.path] = f.default
    return values


def _value(f, val):
    """``val`` checked against the SCHEMA row ``f``, as the row's Python type."""
    if f.default == "auto" == val:
        return val
    x = _convert(f, val)
    if x is None:
        expected = f"one of {', '.join(f.allowed)}" if f.kind == "str" else _EXPECTED[f.kind]
        raise ConfigError(f"config.{f.path}: expected {expected}, got {val!r}")
    if isinstance(f.allowed, str):
        op, bound = f.allowed.split()
        low = np.min(x) if isinstance(x, np.ndarray) else x  # an int is compared exactly
        if not (low > float(bound) if op == ">" else low >= float(bound)):
            raise ConfigError(f"config.{f.path}: must be {f.allowed}, got {val!r}")
    return x


def _convert(f, val):
    """``val`` as the Python type of row ``f``'s kind, or None if it is not one."""
    if f.kind == "bool":
        return val if isinstance(val, bool) else None
    if f.kind == "str":
        return val if isinstance(val, str) and val in f.allowed else None
    if f.kind in ("matrix", "vector"):
        try:
            x = np.asarray(val, dtype=float)
        except (TypeError, ValueError, OverflowError):
            return None
        shaped = x.ndim == (2 if f.kind == "matrix" else 1) and x.size > 0
        return x if shaped and np.all(np.isfinite(x)) else None
    if f.kind == "int":
        return int(val) if isinstance(val, numbers.Integral) and not isinstance(val, bool) else None
    # abs() compares an int exactly, so one beyond the float range fails too
    real = isinstance(val, numbers.Real) and not isinstance(val, bool)
    return float(val) if real and abs(val) <= sys.float_info.max else None


# The most entries a run may sample or play: T games of d_x * d_y payoffs, and
# T * m rounds of d_x + d_y strategy entries. The largest committed runs (c05
# and the full-scale demo: T = 200, m = 1000 on 2x2 games) play 8e5.
MAX_RUN_SIZE = 10**8
_DIM_FIELDS = {"perturbed-base": "base", "lower-bound-prior": "prior", "potential-drift": "dim"}


def _check_run_size(v):
    """Reject a run above MAX_RUN_SIZE before anything is sampled, naming the
    field that makes it large. Returns the game shape (d_x, d_y)."""
    T, m, family = v["T"], v["m"], v["game.family"]
    if family == "perturbed-base":
        dx, dy = v["game.base"].shape
    else:
        dx = dy = len(v["game.prior"]) if family == "lower-bound-prior" else v["game.dim"]
    entries = max(dx * dy, dx + dy)
    cap = f"the run size cap of {MAX_RUN_SIZE:.0e} entries"
    if entries > MAX_RUN_SIZE:
        raise ConfigError(f"config.game.{_DIM_FIELDS[family]}: one {dx}x{dy} game exceeds {cap}")
    if T * entries > MAX_RUN_SIZE:
        raise ConfigError(f"config.T: {T} games of {entries} entries exceed {cap}")
    if T * m * (dx + dy) > MAX_RUN_SIZE:
        raise ConfigError(f"config.m: {T} tasks of {m} rounds on {dx + dy} strategy entries exceed {cap}")
    return dx, dy


@dataclass
class ExperimentConfig:
    """Validated experiment description, built by ``from_dict`` from SCHEMA fields."""

    T: int
    m: int
    seed: int
    game: SequenceConfig
    algo: str
    eta: object  # "auto" | float
    eta_mode: str
    init_mode: str
    prediction: str
    first_prediction: str
    alternating_updates: bool
    metrics_every: int  # 0 = end of task only
    log_every: int  # 0 = task summaries only
    dump_strategies: bool
    ewoo_D: Optional[float]
    ewoo_rho: Optional[float]
    similarity_report: bool

    @staticmethod
    def from_dict(obj):
        v = _read(obj)
        # What one row cannot say: fields that need or exclude each other.
        family, prior = v["game.family"], v["game.prior"]
        for needed, key in (("perturbed-base", "base"), ("lower-bound-prior", "prior")):
            if family == needed and v[f"game.{key}"] is None:
                raise ConfigError(f"config.game.{key}: missing (the {family} family needs it)")
        if prior is not None and not 0 < sum(prior.tolist()) < math.inf:
            raise ConfigError("config.game.prior: need a positive finite sum of weights")
        shape = _check_run_size(v)
        if v["metrics_every"] > 0 and v["log_every"] == 0:
            raise ConfigError(
                "config.metrics_every: gaps are measured on logged rounds only; "
                "set config.log_every > 0"
            )
        if v["learner.algo"] == "gd" and family != "potential-drift":
            # Zero-sum accounting reads path[1:] as the played points, which
            # holds for the RVU learners only; a GDLearner plays path[:-1].
            raise ConfigError(
                "config.learner.algo: 'gd' is for potential games only; zero-sum "
                "families need ogd, opthedge or omd-logbar"
            )
        if family == "potential-drift":  # gradient ascent reads no RVU learner field
            plain = {"algo": "gd", "prediction": "recency", "first_prediction": "oracle", "alternating": False}
            for key, want in plain.items():
                if (got := v[f"learner.{key}"]) != want:
                    msg = f"gradient ascent on potential-drift needs {json.dumps(want)}, got {json.dumps(got)}"
                    raise ConfigError(f"config.learner.{key}: {msg}")
        eta_mode = v["learner.eta_mode"] or ("ewoo" if v["meta.ewoo.enabled"] else "fixed")
        init_mode = v["init"] or v["meta.initializer"]
        if eta_mode == "ewoo" and v["meta.ewoo.D"] is None and shape == (1, 1):
            why = "the default, the strategy sets' diameter, is 0 on a 1x1 game"
            raise ConfigError(f"config.meta.ewoo.D: missing ({why})")
        if eta_mode == "doubling" and v["learner.prediction"] == "zero":
            # The RVU residual then shrinks only in proportion to the rate, so
            # no halving makes it non-positive.
            raise ConfigError(
                "config.learner.prediction: 'zero' never calibrates the doubling "
                "trick; use 'recency' or 'secondary-anchor', or another learner.eta_mode"
            )
        if family == "potential-drift" and eta_mode != "fixed":
            raise ConfigError(
                f"config.learner.eta_mode: {eta_mode!r} needs an RVU learner; "
                "potential-game runs use plain gradient ascent (fixed rate only)"
            )
        if family == "potential-drift" and init_mode == "ne-average":
            where = "config.init" if v["init"] else "config.meta.initializer"
            raise ConfigError(f"{where}: 'ne-average' needs a zero-sum family (a Nash oracle)")
        game = {key[len("game.") :]: x for key, x in v.items() if key.startswith("game.")}
        return ExperimentConfig(
            T=v["T"],
            m=v["m"],
            seed=v["seed"],
            game=SequenceConfig(T=v["T"], seed=v["seed"], **game),
            algo=v["learner.algo"],
            eta=v["learner.eta"],
            eta_mode=eta_mode,
            init_mode=init_mode,
            prediction=v["learner.prediction"],
            first_prediction=v["learner.first_prediction"],
            alternating_updates=v["learner.alternating"],
            metrics_every=v["metrics_every"],
            log_every=v["log_every"],
            dump_strategies=v["dump_strategies"],
            ewoo_D=v["meta.ewoo.D"],
            ewoo_rho=v["meta.ewoo.rho"],
            similarity_report=v["meta.similarity_report"],
        )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    task_summaries: list
    similarity: SimilarityStats
    games: list

    def task_column(self, key):
        return np.asarray([row[key] for row in self.task_summaries])


# Gap columns of a task-summary row, headline first: zero-sum rows carry the
# first two, potential-drift rows only the last.
GAP_KEYS = ("dualgap_avg", "negap_avg", "negap_last")


def gap_key(row):
    """The headline gap column of a task-summary row."""
    return next(k for k in GAP_KEYS if k in row)


def _task_eta(cfg, game, n_players, current_eta, ewoo_state):
    if cfg.eta_mode == "ewoo":
        return ewoo_next_eta(ewoo_state)
    # Only an "auto" learner.eta leaves no current rate.
    return current_eta if current_eta is not None else _default_eta(game, n_players)


MAX_RESTARTS = 60  # doubling restarts per task; one more halving is a NumericError

# The fewest tasks a play-independent arm must have for ``_task_blocks`` to
# play each of its blocks in one ``_play_batch`` call, for short (m < 20) and
# longer tasks, indexed by how many of its two players have two actions (the
# kernel's two-action step is the faster one). Shorter arms play each task
# through ``_play_rows`` in the same block loop. The play and fold time of a
# cold arm of B tasks batched over that of the same arm task by task (medians
# of 7 alternated pairs on 2 CPUs, perturbed 2x2, 2x3 and 3x3 games):
#   2x2, m = 5:    B = 4: 1.21, 6: 0.86, 8: 0.77, 10: 0.61
#        m = 100:  B = 6: 1.50, 8: 1.16, 10: 0.96, 12: 0.82; m = 1000 alike
#   2x3, m = 5:    B = 3: 1.18, 4: 0.93, 6: 0.69
#        m = 100:  B = 4: 1.32, 6: 0.95, 8: 0.71; m = 1000: 1.39, 1.06, 0.72
#   3x3, m = 5:    B = 3: 0.98, 4: 0.77, 6: 0.56
#        m = 100:  B = 4: 1.06, 6: 0.73, 8: 0.56; m = 1000 alike
# The break-even B grows with m up to about m = 40 (2x2: 8 at m = 10 and
# 20, 10 at 40; 2x3: 5 at m = 10, 6 at 20 and 40; 3x3: 4 up to 20, 5 at 40).
BATCH_MIN_TASKS = ((4, 5, 8), (6, 8, 10))  # [m >= 20][players with two actions]
# The most bytes of paths and utilities that one block of tasks holds; longer
# arms are walked in several blocks. c05's cold arm (T = 200, m = 1000, 12.8
# MB of paths) took 0.19 s as one batch, 0.39 s in 4 MB batches and 0.82 s in
# 1 MB ones; the summaries' temporaries about double the bytes at the peak.
BATCH_BYTES = 16 * 2**20


def run_experiment(config) -> ExperimentResult:
    """Run one arm of a meta-learning experiment.

    Per task: draw the game, initialize per the configured mode, self-play
    m iterations, log regrets/gaps, and fold the task outcome into the meta
    state. Zero-sum matrix tasks are played by the configured learner;
    potential-game tasks by plain gradient ascent at a fixed rate. One
    loop, ``_task_blocks``, walks the tasks in blocks: it plays each block
    of a play-independent arm in one batch and every other task by the
    learner-free kernel ``_play_rows`` or by ``play_task``, and each
    finished block is summarized and logged as a whole. Deterministic under
    the config seed.
    """
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_dict(config)
    games = sample_game_sequence(cfg.game)
    potential = isinstance(games[0], PotentialGame)
    sets = games[0].sets
    if cfg.eta_mode == "ewoo":
        D = cfg.ewoo_D if cfg.ewoo_D is not None else np.sqrt(sum(s.diameter**2 for s in sets))
        rho = cfg.ewoo_rho if cfg.ewoo_rho is not None else cfg.T ** (-0.25)
        try:
            ewoo_state = EwooState.from_radius(float(D), float(rho))
        except ConfigError as exc:
            raise ConfigError(f"config.meta.ewoo.D={D}, config.meta.ewoo.rho={rho}: {exc}") from exc
    else:
        ewoo_state = None
    # One saddle point per task; the LPs run once per distinct game.
    nash = [None] * len(games)
    if cfg.init_mode == "ne-average":
        nash = [list(saddle_point(game)[:2]) for game in games]
    records, summaries = [], []
    for etas, tracks in _task_blocks(cfg, games, potential, ewoo_state, nash):
        t = len(summaries)
        block = games[t : t + len(etas)]
        rows = (_potential_summaries if potential else _zero_sum_summaries)(block, tracks)
        if cfg.log_every:
            records.extend(_task_records(cfg, block, t, tracks))
        for b, row in enumerate(rows):
            summaries.append({"task": t + b, "eta": etas[b], **row})

    sim = SimilarityStats()
    if not potential:
        per_player = [np.asarray(a) for a in zip(*(row["optima"] for row in summaries))]
        sim.v_opt2 = np.asarray([anchor_variance(a) for a in per_player])
        if cfg.similarity_report:
            sim.v_kl = np.asarray([kl_anchor_variance(a) for a in per_player])
            if cfg.init_mode == "ne-average":
                sim.v_ne2_worst = ne_similarity_worst([np.concatenate(n) for n in nash])
    return ExperimentResult(cfg, records, summaries, sim, games)


def _task_blocks(cfg, games, potential, ewoo_state, nash):
    """(rates, Tracks) of consecutive blocks of tasks, each block's paths
    and utilities allocated once, in arrays of at most BATCH_BYTES.

    Each task starts where the Initializer says, at the rate of
    ``_task_eta``. A play-independent arm of at least BATCH_MIN_TASKS tasks
    writes each start as round 0 of its row, folds only the task's Nash
    anchor into the Initializer, and plays each block in one
    ``_play_batch`` call. Every other zero-sum recency task without
    alternation is played by ``_play_rows`` into its row with no learners
    (``check_start`` checks rate and start as a learner would); the rest by
    ``play_task``, copied into the row. Each is folded in by what the meta
    layer reads of its row: its optima in hindsight (as ``external_regret``
    finds them) or its last iterates, and for EWOO its ``init_dist2``.
    """
    sets = games[0].sets
    free_first = cfg.first_prediction == "oracle"
    # Play-independent: no task depends on how earlier ones were played. OGD
    # self-play (so a zero-sum family: potential-drift takes only gd) with
    # recency predictions, an oracle first prediction, a fixed (or per-game
    # auto) rate and cold or ne-average starts.
    batched = (
        (cfg.algo, cfg.prediction, cfg.first_prediction, cfg.eta_mode, cfg.alternating_updates)
        == ("ogd", "recency", "oracle", "fixed", False)
        and cfg.init_mode in ("cold", "ne-average")
        and len(games) >= BATCH_MIN_TASKS[cfg.m >= 20][sum(s.dim == 2 for s in sets)]
    )
    reg = _REGS.get(cfg.algo)  # None for gd, on potential games
    learner_free = reg is not None and cfg.prediction == RECENCY and not cfg.alternating_updates
    initializer = Initializer(cfg.init_mode, sets)
    eta = None if cfg.eta == "auto" else float(cfg.eta)
    size = max(1, BATCH_BYTES // (8 * (2 * cfg.m + 1) * sum(s.dim for s in sets)))
    # A GDLearner plays the point it last reached, an OMDLearner the next.
    lead = slice(None, -1) if potential else slice(1, None)
    etas = []
    for t, game in enumerate(games):
        if not etas:
            block = games[t : t + size]
            paths = [np.empty((len(block), cfg.m + 1, s.dim)) for s in sets]
            utilities = [np.empty((len(block), cfg.m, s.dim)) for s in sets]
        b = slice(len(etas), len(etas) + 1)  # the task's row of the block
        inits = initializer.initialization()
        task_eta = _task_eta(cfg, game, len(sets), eta, ewoo_state)
        if batched or learner_free:
            for path, x0 in zip(paths, inits):
                path[b, 0] = x0
        if batched:
            initializer.observe(TaskOutcome(nash=nash[t]))
        else:
            xs, us = [path[b.start] for path in paths], [u[b.start] for u in utilities]
            if learner_free:
                firsts = [
                    utility_gradient(game, k, inits).tolist() if free_first else [0.0] * s.dim
                    for k, s in enumerate(sets)
                ]
            for restarts in range(MAX_RESTARTS + 1):
                # Doubling trick: rerun the task at half the rate while the
                # local RVU residual is positive; only the final attempt is logged.
                if learner_free:
                    for s, x0 in zip(sets, inits):
                        check_start(s, task_eta, x0)
                    _play_rows(game, reg.kind, (task_eta, task_eta), firsts, xs, us)
                else:
                    learners = [
                        make_learner(cfg.algo, s, task_eta, init=x0, prediction=cfg.prediction)
                        for s, x0 in zip(sets, inits)
                    ]
                    play_task(game, learners, cfg.m, free_first=free_first, alternating=cfg.alternating_updates)
                    for x, u, lrn in zip(xs, us, learners):
                        x[:], u[:] = lrn.primary_array(), lrn.utility_array()
                if cfg.eta_mode != "doubling":
                    break
                if learner_free:
                    preds = [np.vstack((f, u[:-1])) for f, u in zip(firsts, us)]
                else:
                    preds = [lrn.prediction_array() for lrn in learners]
                runs = list(zip(xs, us, preds))
                next_eta = doubling_trick_eta(runs, task_eta)
                if next_eta == task_eta:
                    break
                if restarts == MAX_RESTARTS:
                    raise NumericError(
                        f"task {t}: doubling trick gave up after {MAX_RESTARTS} restarts, "
                        f"residual={doubling_residual(runs, task_eta)!r} > 0 at eta={task_eta!r}"
                    )
                task_eta = next_eta
            if cfg.eta_mode == "doubling":
                eta = task_eta  # keep the calibrated rate for later tasks
            last = [x[-1] for x in xs]
            if potential:
                initializer.observe(TaskOutcome(optima=last, last_iterates=last))
            else:
                optima = [best_point(s, u[b].sum(axis=-2)) for s, u in zip(sets, utilities)]
                initializer.observe(
                    TaskOutcome(optima=[o[0] for o in optima], last_iterates=last, nash=nash[t])
                )
                if ewoo_state is not None:
                    dist2 = _init_dist2(optima, [p[b, 0] for p in paths])[0]
                    ewoo_state.record(0.5 * float(dist2), 1.0)
        etas.append(task_eta)
        if len(etas) == len(block):
            if batched:
                _play_batch(block, etas, paths, utilities)
            yield etas, [Track(p, p[:, lead], u, etas) for p, u in zip(paths, utilities)]
            etas = []


def _play_batch(games, etas, paths, utilities):
    """OGD self-play of B independent matrix-game tasks as one batch, filling
    each player's (B, m+1, d) ``paths`` and (B, m, d) ``utilities`` in place.

    Row b is task b, played as ``play_task`` plays two Euclidean OMDLearners
    started at ``paths[k][b, 0]`` with rate ``etas[b]``, recency predictions
    and the free first prediction, and bit for bit equal to it: ``np.matmul``
    over the stacked -A and A.T gives each row the matrix-vector product of
    ``utility_gradient``, and ``project_simplex_rows`` projects each row as
    ``project_simplex``.
    """
    A = np.array([game.A for game in games])
    # Transposed views, as game.A.T is: BLAS rounds a contiguous copy of the
    # transposes differently.
    neg_a, a_t = -A, A.transpose(0, 2, 1)
    eta = np.asarray(etas)[:, None]
    B, dx, dy = A.shape
    (X, Y), (ux_all, uy_all) = paths, utilities
    m = ux_all.shape[1]
    x_hat, y_hat = X[:, 0], Y[:, 0]

    # Both players' rows are projected in one call, as rows are independent.
    # A -inf pads the narrower player's rows: it sorts last and never passes
    # the u_k * k > css_k count, so each row's threshold is that of its own
    # entries. (Only a +inf entry, which has no threshold and raises, meets
    # the pad in a NaN sum; it comes from an overflow numpy has warned of.)
    both = np.full((2 * B, max(dx, dy)), -np.inf)

    def project(x_in, y_in):
        both[:B, :dx], both[B:, :dy] = x_in, y_in
        out = project_simplex_rows(both)
        return out[:B, :dx], out[B:, :dy]

    # The free first prediction: the utilities at the starting profile.
    px, py = _matvecs(neg_a, y_hat), _matvecs(a_t, x_hat)
    for i in range(m):
        x, y = project(x_hat + eta * px, y_hat + eta * py)
        ux, uy = _matvecs(neg_a, y), _matvecs(a_t, x)
        if not (math.isfinite(ux.sum()) and math.isfinite(uy.sum())):
            raise InvalidInputError("non-finite utility")
        X[:, i + 1], Y[:, i + 1], ux_all[:, i], uy_all[:, i] = x, y, ux, uy
        x_hat, y_hat = project(x_hat + eta * ux, y_hat + eta * uy)
        px, py = ux, uy


def _play_rows(game, kind, etas, firsts, paths, utilities):
    """Recency self-play of a two-player zero-sum task into its rows, bit for
    bit as ``play_task``'s loop plays two OMDLearners of regularizer ``kind``.

    Player k starts at row 0 of its (m+1, d) ``paths[k]`` with rate
    ``etas[k]`` and first prediction ``firsts[k]`` (a list); rounds 1..m fill
    the rest and the (m, d) ``utilities[k]``. Steps run on Python floats
    (``_two_action_step`` or ``_ogd_step`` per Euclidean player, else one
    ``_entropic_steps`` or ``_log_barrier_steps`` call for both), utilities
    by ``np.dot`` as ``utility_gradient``. Errors are the loop's, in its
    order, unless a log-barrier solve fails in a half-step in which the
    other player's input is also bad.
    """
    neg_a, a_t = -game.A, game.A.T
    (X, Y), (UX, UY) = paths, utilities
    ex, ey = etas
    joint = None
    if kind == EUCLIDEAN:
        step_x, step_y = (_two_action_step if d == 2 else _ogd_step for d in game.A.shape)
    else:
        # Both half-steps of a round start from the same anchors: lift once.
        lift, joint = (_entropic_logs, _entropic_steps) if kind == ENTROPIC else (_lift_rows, _log_barrier_steps)
        for eta, g in zip(etas, firsts):  # prox_step's checks of the first step
            _check_rate(eta)
            _check_finite(g)
    x_hat, y_hat = X[0].tolist(), Y[0].tolist()
    px, py = firsts
    for i in range(1, len(X)):
        if joint:
            lifted = lift((x_hat, y_hat))
            X[i], Y[i] = joint(lifted, (px, py), etas)
        else:
            X[i], Y[i] = step_x(x_hat, px, ex), step_y(y_hat, py, ey)
        px = np.dot(neg_a, Y[i], out=UX[i - 1]).tolist()
        py = np.dot(a_t, X[i], out=UY[i - 1]).tolist()
        # OMDLearner.update's checks, player by player as play_task updates.
        _check_utility(px)
        if joint:
            _check_utility(py)
            x_hat, y_hat = joint(lifted, (px, py), etas)
        else:
            x_hat = step_x(x_hat, px, ex)
            _check_utility(py)
            y_hat = step_y(y_hat, py, ey)


def _lift_rows(anchors):
    """``lift_interior`` of each anchor alone, as rows may differ in length."""
    return [lift_interior([a])[0] for a in anchors]


def _check_utility(u):
    """``OMDLearner.update``'s check of a list: below 1e307 in absolute sum no
    order of summation overflows, so numpy's sum is finite exactly then."""
    if not (sum(map(abs, u)) < 1e307 or math.isfinite(_rowsums([u])[0])):
        raise InvalidInputError("non-finite utility")


def _ogd_step(anchor, g, eta):
    """``project_simplex(anchor + eta * g)`` on lists of Python floats, bit for
    bit: ``0.0 if w <= 0.0`` shifts as ``np.maximum(w, 0.0)`` does, also for
    -0.0 and NaN, where ``max(w, 0.0)`` does not."""
    v = [a + eta * b for a, b in zip(anchor, g)]
    theta = simplex_threshold(v)
    return [0.0 if (w := c - theta) <= 0.0 else w for c in v]


def _two_action_step(anchor, g, eta):
    """``_ogd_step`` of two-entry sequences, bit for bit, on scalars: the
    stable descending sort keeps v0 first on a tie, and the running sums,
    count rho and threshold are ``simplex_threshold``'s for d = 2 (a sum
    from 0.0 differs from u0 + u1 only in the sign of a zero, which the
    subtraction of 1.0 drops)."""
    a0, a1 = anchor
    g0, g1 = g
    v0 = a0 + eta * g0
    v1 = a1 + eta * g1
    u0, u1 = (v1, v0) if v1 > v0 else (v0, v1)
    c0 = u0 - 1.0
    c1 = (u0 + u1) - 1.0
    rho = (u0 > c0) + (u1 * 2 > c1)
    if not rho:
        raise InvalidInputError(_NO_THRESHOLD.format(u0))
    theta = c1 / 2 if rho == 2 else c0
    w0 = v0 - theta
    w1 = v1 - theta
    return [0.0 if w0 <= 0.0 else w0, 0.0 if w1 <= 0.0 else w1]


def _matvecs(mats, vecs):
    """Row b is mats[b] @ vecs[b]."""
    return np.matmul(mats, vecs[:, :, None])[:, :, 0]


def _dots(us, vecs):
    """The 1-D dots of the last axes: entry b is us[b] @ vecs[b], also for
    more leading axes."""
    return np.matmul(us[..., None, :], vecs[..., :, None])[..., 0, 0]


# One player's side of B finished tasks, stacked on a leading task axis: the
# iterates x^(0..m) of each task as (B, m+1, d) ``path``, the points played
# and the utilities seen, both (B, m, d), and the B rates. The summaries read
# tasks only through these arrays.
Track = namedtuple("Track", "path played utilities eta")


def _task_records(cfg, games, t, tracks):
    """RunRecords of the finished tasks t, t+1, ... of the Tracks, one per
    game of ``games``: one per player every ``log_every`` rounds and at the
    last round.

    Gaps are measured only every ``metrics_every`` rounds (NaN otherwise);
    the duality gap of the running average is defined for zero-sum games
    only. The running sums are ``cumsum``s over the round axis, which add
    in round order as a per-round ``+=`` would.
    """
    m, n = cfg.m, len(tracks)
    sums, regrets, path2 = [], [], []
    for tr in tracks:
        # The 1-D dots of the rounds; a row-wise einsum adds in another order.
        realized = np.cumsum(_dots(tr.played, tr.utilities), axis=1)
        steps = np.diff(tr.played, axis=1, prepend=tr.path[:, :1])
        sums.append(np.cumsum(tr.played, axis=1))
        regrets.append(np.max(np.cumsum(tr.utilities, axis=1), axis=2) - realized)
        path2.append(np.cumsum(np.sum(steps**2, axis=2), axis=1))
    records = []
    for b, game in enumerate(games):
        for i in [*range(cfg.log_every, m, cfg.log_every), m]:
            j = i - 1
            profile = [tr.played[b, j] for tr in tracks]
            gap, gaps = float("nan"), [float("nan")] * n
            if cfg.metrics_every and (i % cfg.metrics_every == 0 or i == m):
                if isinstance(game, MatrixGame):
                    gap = duality_gap(game, sums[0][b, j] / i, sums[1][b, j] / i)
                gaps = ne_gap(game, profile)
            for k, (s, tr) in enumerate(zip(profile, tracks)):
                records.append(
                    RunRecord(
                        task=t + b,
                        iter=i,
                        player=k,
                        regret_cum=float(regrets[k][b, j]),
                        dualgap=float(gap),
                        negap=float(gaps[k]),
                        pathlen2=float(path2[k][b, j]),
                        eta=tr.eta[b],
                        init_mode=cfg.init_mode,
                        strategy=s.copy() if cfg.dump_strategies else None,
                    )
                )
    return records


def _zero_sum_summaries(games, tracks):
    """Task-summary rows of the B two-player zero-sum tasks of the Tracks.

    Every quantity is that of ``external_regret``, ``duality_gap``,
    ``ne_gap`` and ``path_lengths`` on one task, computed for all B at once:
    the reductions run over each task's contiguous slice and the products
    are ``np.matmul``s over the stacked games, so a task's row is
    bit-identical in a batch of any size.
    """
    x, y = tracks
    sets = games[0].sets
    A = np.array([game.A for game in games])
    reg_x, opt_x = external_regret(x.played, x.utilities, sets[0])
    reg_y, opt_y = external_regret(y.played, y.utilities, sets[1])
    x_bar, y_bar = x.played.mean(axis=1), y.played.mean(axis=1)
    # At the averages: x_bar @ A is also the y-player's utility A.T @ x_bar.
    u_x, u_y = _matvecs(-A, y_bar), _matvecs(A.transpose(0, 2, 1), x_bar)
    best_y = u_y.max(axis=1)
    dualgap = best_y - _matvecs(A, y_bar).min(axis=1)
    gains = np.empty((len(games), 2))
    gains[:, 0] = u_x.max(axis=1) - _dots(u_x, x_bar)
    gains[:, 1] = best_y - _dots(u_y, y_bar)
    x0, y0 = x.path[:, 0], y.path[:, 0]
    columns = (
        reg_x,
        reg_y,
        dualgap,
        gains.max(axis=1),
        path_lengths(x.path)[0] + path_lengths(y.path)[0],
        _init_dist2((opt_x, opt_y), (x0, y0)),
    )
    rows = []
    for b, (rx, ry, gap, negap, path2, dist2) in enumerate(zip(*(c.tolist() for c in columns))):
        rows.append({
            "regret_x": rx,
            "regret_y": ry,
            "dualgap_avg": gap,
            "negap_avg": negap,
            "pathlen2": path2,
            "init_dist2": dist2,
            "inits": [x0[b].tolist(), y0[b].tolist()],
            "optima": [opt_x[b].tolist(), opt_y[b].tolist()],
        })
    return rows


def _init_dist2(optima, starts):
    """Per task, the squared distance of the two players' starts to their
    optima in hindsight, added over the players."""
    (opt_x, opt_y), (x0, y0) = optima, starts
    return ((opt_x - x0) ** 2).sum(axis=1) + ((opt_y - y0) ** 2).sum(axis=1)


def _potential_summaries(games, tracks):
    """Task-summary rows of the potential-game tasks of the Tracks."""
    rows = []
    for b, game in enumerate(games):
        paths = [tr.path[b] for tr in tracks]
        last = [p[-1] for p in paths]
        rows.append({
            "pathlen2": sum(path_lengths(p)[0] for p in paths),
            "phi_gain": game.potential(last) - game.potential([p[0] for p in paths]),
            "negap_last": float(np.max(ne_gap(game.base, last))),
        })
    return rows


def write_records_csv(path, records, dump_strategies=False):
    """Write per-iteration records with the stable versioned header."""
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    Path(path).write_text("\n".join(lines) + "\n")
    if dump_strategies:
        sidecar = {
            f"{r.task}:{r.iter}:{r.player}": list(map(float, r.strategy))
            for r in records
            if r.strategy is not None
        }
        Path(str(path) + ".strategies.json").write_text(json.dumps(sidecar, sort_keys=True))


def write_task_summaries(path, summaries):
    keys = sorted({k for row in summaries for k in row})
    lines = [",".join(keys)]
    for row in summaries:
        lines.append(",".join(_fmt(row.get(k)) for k in keys))
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return '"' + json.dumps(v, separators=(";", ":")) + '"'
    return str(v)


def thread_cap():
    """1: arms and sweep points run one after another on the calling thread.

    Kept only for the benchmark's machine record, which still reads it.
    """
    return 1


def compare_arms(config):
    """Run >= 2 arms sharing the game sequence and seed; tabulate ratios.

    Each arm is a dict of config overrides with a 'name'. The arms run one
    after another, and the first that fails raises. Returns (results by
    arm, table) where the table holds task-averaged duality gaps at the
    checkpoints plus ratios against the first arm.
    """
    base = dict(config)
    arms = base.pop("arms", None)
    if not isinstance(arms, list) or len(arms) < 2:
        raise ConfigError(f"config.arms: need a list of at least two arm objects, got {arms!r}")
    checkpoints = base.pop("checkpoints", None)
    names = []
    configs = []
    for i, arm in enumerate(arms):
        where = f"config.arms[{i}]"
        if not isinstance(arm, dict):
            raise ConfigError(f"{where}: expected an object, got {arm!r}")
        arm = dict(arm)
        name = arm.pop("name", f"arm{i}")
        if not isinstance(name, str):
            raise ConfigError(f"{where}.name: expected a string, got {name!r}")
        if name in names:
            # Results are keyed, and their files named, by arm name.
            raise ConfigError(f"{where}.name: duplicate arm name {name!r}")
        merged = copy.deepcopy(base)
        _deep_update(merged, arm)
        names.append(name)
        configs.append(ExperimentConfig.from_dict(merged))

    T = min(cfg.T for cfg in configs)
    if checkpoints is None:
        checkpoints = [T]
    if not isinstance(checkpoints, list) or not checkpoints:
        raise ConfigError(
            f"config.checkpoints: expected a non-empty list of task counts, got {checkpoints!r}"
        )
    for j, cp in enumerate(checkpoints):
        if isinstance(cp, bool) or not isinstance(cp, numbers.Integral) or not 1 <= cp <= T:
            raise ConfigError(f"config.checkpoints[{j}]: expected a task count in 1..{T}, got {cp!r}")

    results = [run_experiment(cfg) for cfg in configs]

    key = gap_key(results[0].task_summaries[0])
    table = {"arms": names, "checkpoints": checkpoints, "metric": key, "rows": []}
    for cp in checkpoints:
        gaps = [float(np.mean(res.task_column(key)[:cp])) for res in results]
        ratios = [g / gaps[0] if gaps[0] != 0 else float("inf") for g in gaps]
        table["rows"].append({"checkpoint": cp, "gaps": gaps, "ratios": ratios})
    return dict(zip(names, results)), table


def _deep_update(dst, src):
    for k, v in src.items():
        if isinstance(v, dict) and isinstance(dst.get(k), dict):
            _deep_update(dst[k], v)
        else:
            dst[k] = v


def emit_plot(series, spec=None, out=None):
    """Render line series to a deterministic standalone SVG.

    ``series`` is a list of {'label', 'xs', 'ys'} dicts; ``spec`` may set
    title/xlabel/ylabel/logy. Title and labels are XML-escaped. Returns the
    SVG text (and writes it when ``out`` is given).
    """
    import html  # loads its entity tables (about 0.5 MB); only plots need it

    spec = dict(spec or {})
    if not series:
        raise ConfigError("emit_plot: empty series list")
    width, height = 640, 420
    ml, mr, mt, mb = 60, 150, 30, 45
    pw, ph = width - ml - mr, height - mt - mb
    logy = bool(spec.get("logy", False))

    xs_all = np.concatenate([np.asarray(s["xs"], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s["ys"], dtype=float) for s in series])
    if logy:
        ys_all = np.log10(np.maximum(ys_all, 1e-300))
    x_lo, x_hi = float(np.min(xs_all)), float(np.max(xs_all))
    y_lo, y_hi = float(np.min(ys_all)), float(np.max(ys_all))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        pad = 0.05 * max(abs(y_lo), 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def to_px(x, y):
        if logy:
            y = np.log10(max(y, 1e-300))
        px = ml + (x - x_lo) / (x_hi - x_lo) * pw
        py = mt + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph
        return px, py

    colors = ["#1f77b4", "#2ca02c", "#ff7f0e", "#d62728", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if "title" in spec:
        parts.append(
            f'<text x="{ml + pw / 2:.1f}" y="{mt - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{html.escape(str(spec["title"]))}</text>'
        )
    for label, x_ax in ((spec.get("xlabel"), True), (spec.get("ylabel"), False)):
        if not label:
            continue
        label = html.escape(str(label))
        if x_ax:
            parts.append(
                f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12">{label}</text>'
            )
        else:
            parts.append(
                f'<text x="15" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12" '
                f'transform="rotate(-90 15 {mt + ph / 2:.1f})">{label}</text>'
            )
    # Axis ticks: 5 per axis.
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        px = ml + frac * pw
        py = mt + (1.0 - frac) * ph
        y_label = f"1e{yv:.2f}" if logy else f"{yv:.3g}"
        parts.append(
            f'<text x="{px:.1f}" y="{height - mb + 15}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{ml - 5}" y="{py + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{y_label}</text>'
        )
    for idx, s in enumerate(series):
        color = colors[idx % len(colors)]
        pts = " ".join(
            f"{to_px(float(x), float(y))[0]:.2f},{to_px(float(x), float(y))[1]:.2f}"
            for x, y in zip(s["xs"], s["ys"])
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 * idx + 10
        parts.append(
            f'<line x1="{ml + pw + 8}" y1="{ly}" x2="{ml + pw + 28}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{ml + pw + 33}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{html.escape(str(s.get("label", f"series{idx}")))}</text>'
        )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if out is not None:
        Path(out).write_text(text)
    return text
