"""Experiment orchestration: task sequences, learner/meta wiring, logging.

A run is deterministic under its seed: identical configs produce
byte-identical CSV/JSON/SVG outputs.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import os
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from metagames.errors import ConfigError
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
from metagames.geometry import ENTROPIC, EUCLIDEAN, LOG_BARRIER, Regularizer
from metagames.learners import (
    PREDICTION_MODES,
    SECONDARY_ANCHOR,
    GDLearner,
    OMDLearner,
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
    """Self-play on any game for m rounds; the one per-round play loop.

    Utilities come from ``utility_gradient``, so matrix, normal-form and
    potential games share this loop. With ``free_first`` every learner that
    takes predictions is given u_k at the starting profile: the one free
    oracle call of a task. Learners in 'secondary-anchor' mode are given u_k
    at the secondary iterates before every round. With ``alternating`` (two
    players) the second mover predicts with the first mover's current move.
    The learners keep their played points and utilities, from which
    ``_task_records`` logs the rounds afterwards. Returns the learners.
    """
    n = len(learners)
    predicts = [hasattr(lrn, "set_prediction") for lrn in learners]
    anchored = [
        k for k, lrn in enumerate(learners) if getattr(lrn, "mode", None) == SECONDARY_ANCHOR
    ]
    if free_first:
        start = [lrn.init for lrn in learners]
        for k, lrn in enumerate(learners):
            if predicts[k]:
                lrn.set_prediction(utility_gradient(game, k, start))
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
    L = max(lipschitz_constant(game), 1e-12)
    return 1.0 / (4.0 * L * np.sqrt(max(n_players - 1, 1)))


_REGS = {
    "ogd": EUCLIDEAN,
    "opthedge": ENTROPIC,
    "omd-logbar": LOG_BARRIER,
}


def make_learner(algo, strategy_set, eta, init=None, prediction="recency"):
    if algo == "gd":
        return GDLearner(strategy_set, eta, init=init)
    if algo in _REGS:
        return OMDLearner(
            strategy_set,
            eta,
            regularizer=Regularizer(_REGS[algo]),
            init=init,
            prediction_mode=prediction,
        )
    raise ConfigError(f"config.learner.algo: unknown algorithm {algo!r}")


# One row per config field: its path below ``config``, its kind (str or a key
# of _EXPECTED), its default (``...`` if the field is required) and its allowed
# values: a tuple of choices, or a bound that every number of the value meets.
# The row paths also give the keys each config object may hold.
_Field = namedtuple("_Field", "path kind default allowed")
_INITS = tuple(m for m in INITIALIZER_MODES if m != "custom-anchor")  # needs an anchor
SCHEMA = (
    _Field("T", "int", ..., ">= 1"),
    _Field("m", "int", ..., ">= 1"),
    _Field("seed", "int", 0, ">= 0"),
    _Field("init", "str", None, _INITS),  # wins over meta.initializer
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
    _Field("meta.initializer", "str", "cold", _INITS),
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
        eta_mode = v["learner.eta_mode"] or ("ewoo" if v["meta.ewoo.enabled"] else "fixed")
        init_mode = v["init"] or v["meta.initializer"]
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


MAX_RESTARTS = 60  # doubling restarts per task


def run_experiment(config) -> ExperimentResult:
    """Run one arm of a meta-learning experiment.

    Per task: draw the game, initialize per the configured mode, self-play
    m iterations with ``play_task``, log regrets/gaps, and fold the task
    outcome into the meta state. Zero-sum matrix tasks are played by the
    configured learner; potential-game tasks by plain gradient ascent at a
    fixed rate. Deterministic under the config seed.
    """
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_dict(config)
    games = sample_game_sequence(cfg.game)
    potential = isinstance(games[0], PotentialGame)
    algo = "gd" if potential else cfg.algo
    sets = games[0].sets
    initializer = Initializer(cfg.init_mode, sets)
    eta = None if cfg.eta == "auto" else float(cfg.eta)
    if cfg.eta_mode == "ewoo":
        D = cfg.ewoo_D if cfg.ewoo_D is not None else np.sqrt(sum(s.diameter**2 for s in sets))
        rho = cfg.ewoo_rho if cfg.ewoo_rho is not None else cfg.T ** (-0.25)
        try:
            ewoo_state = EwooState.from_radius(float(D), float(rho))
        except ConfigError as exc:
            raise ConfigError(f"config.meta.ewoo.D={D}, config.meta.ewoo.rho={rho}: {exc}") from exc
    else:
        ewoo_state = None
    records = []
    summaries = []
    optima = []
    nash_points = []

    for t, game in enumerate(games):
        inits = initializer.initialization()
        task_eta = _task_eta(cfg, game, len(sets), eta, ewoo_state)
        for restarts in range(MAX_RESTARTS + 1):
            # Doubling trick: rerun the task at half the rate while the local
            # RVU residual is positive; only the final attempt is logged.
            learners = [
                make_learner(algo, s, task_eta, init=x0, prediction=cfg.prediction)
                for s, x0 in zip(sets, inits)
            ]
            play_task(
                game,
                learners,
                cfg.m,
                free_first=cfg.first_prediction == "oracle",
                alternating=cfg.alternating_updates,
            )
            if cfg.eta_mode != "doubling" or restarts == MAX_RESTARTS:
                break
            halved = doubling_trick_eta(learners, task_eta)
            if halved == task_eta:
                break
            task_eta = halved
        if cfg.log_every:
            records.extend(_task_records(cfg, game, t, learners))
        if cfg.eta_mode == "doubling":
            eta = task_eta  # keep the calibrated rate for later tasks

        if potential:
            row, outcome = _potential_summary(game, learners)
        else:
            nash = None
            if cfg.init_mode == "ne-average":
                nash = list(saddle_point(game)[:2])
                nash_points.append(np.concatenate(nash))
            row, outcome = _zero_sum_summary(game, learners, nash)
            optima.append(outcome.optima)
        summaries.append({"task": t, "eta": task_eta, **row})
        initializer.observe(outcome)
        if ewoo_state is not None:
            ewoo_state.record(0.5 * row["init_dist2"], 1.0)

    sim = SimilarityStats()
    if not potential:
        per_player = [np.asarray(a) for a in zip(*optima)]
        sim.v_opt2 = np.asarray([anchor_variance(a) for a in per_player])
        if cfg.similarity_report:
            sim.v_kl = np.asarray([kl_anchor_variance(a) for a in per_player])
            if nash_points:
                sim.v_ne2_worst = ne_similarity_worst(nash_points)
    return ExperimentResult(cfg, records, summaries, sim, games)


def _task_records(cfg, game, t, learners):
    """RunRecords of a finished task: one per player every ``log_every``
    rounds and at the last round, read off the learners' stored histories.

    Gaps are measured only every ``metrics_every`` rounds (NaN otherwise);
    the duality gap of the running average is defined for zero-sum games
    only. The running sums are ``cumsum``s, which add in round order as a
    per-round ``+=`` would.
    """
    m, n = cfg.m, len(learners)
    hists, sums, regrets, path2 = [], [], [], []
    for lrn in learners:
        # An OMDLearner appends each played point to its path after x^(0);
        # a GDLearner plays the point it last reached.
        xs = lrn.path[:-1] if isinstance(lrn, GDLearner) else lrn.path[1:]
        hist = np.asarray(xs)
        # 1-D dots, as played: a row-wise einsum adds in another order.
        realized = np.cumsum([float(x @ u) for x, u in zip(xs, lrn.utilities)])
        cum_u = np.cumsum(lrn.utility_array(), axis=0)
        steps = np.diff(hist, axis=0, prepend=lrn.init[None])
        hists.append(hist)
        sums.append(np.cumsum(hist, axis=0))
        regrets.append(np.max(cum_u, axis=1) - realized)
        path2.append(np.cumsum(np.sum(steps**2, axis=1)))
    records = []
    for i in [*range(cfg.log_every, m, cfg.log_every), m]:
        j = i - 1
        profile = [h[j] for h in hists]
        gap, gaps = float("nan"), [float("nan")] * n
        if cfg.metrics_every and (i % cfg.metrics_every == 0 or i == m):
            if isinstance(game, MatrixGame):
                gap = duality_gap(game, sums[0][j] / i, sums[1][j] / i)
            gaps = ne_gap(game, profile)
        for k, (s, lrn) in enumerate(zip(profile, learners)):
            records.append(
                RunRecord(
                    task=t,
                    iter=i,
                    player=k,
                    regret_cum=float(regrets[k][j]),
                    dualgap=float(gap),
                    negap=float(gaps[k]),
                    pathlen2=float(path2[k][j]),
                    eta=lrn.eta,
                    init_mode=cfg.init_mode,
                    strategy=s.copy() if cfg.dump_strategies else None,
                )
            )
    return records


def _zero_sum_summary(game, learners, nash):
    """Task-summary row and meta outcome of a two-player zero-sum task."""
    xl, yl = learners
    sets = game.sets
    x_hist, y_hist = np.asarray(xl.path[1:]), np.asarray(yl.path[1:])
    reg_x, opt_x = external_regret(x_hist, xl.utility_array(), sets[0])
    reg_y, opt_y = external_regret(y_hist, yl.utility_array(), sets[1])
    x_bar, y_bar = np.mean(x_hist, axis=0), np.mean(y_hist, axis=0)
    p1, _ = path_lengths(xl.primary_array())
    p2, _ = path_lengths(yl.primary_array())
    row = {
        "regret_x": reg_x,
        "regret_y": reg_y,
        "dualgap_avg": duality_gap(game, x_bar, y_bar),
        "negap_avg": float(np.max(ne_gap(game, [x_bar, y_bar]))),
        "pathlen2": p1 + p2,
        "init_dist2": float(np.sum((opt_x - xl.init) ** 2) + np.sum((opt_y - yl.init) ** 2)),
        "inits": [xl.init.tolist(), yl.init.tolist()],
        "optima": [opt_x.tolist(), opt_y.tolist()],
    }
    outcome = TaskOutcome(
        optima=[opt_x, opt_y], last_iterates=[x_hist[-1], y_hist[-1]], nash=nash
    )
    return row, outcome


def _potential_summary(game, learners):
    """Task-summary row and meta outcome of a potential-game task; the last
    iterates stand in for the optima."""
    paths = [np.asarray(lrn.path) for lrn in learners]
    last = [p[-1] for p in paths]
    row = {
        "pathlen2": sum(path_lengths(p)[0] for p in paths),
        "phi_gain": game.potential(last) - game.potential([p[0] for p in paths]),
        "negap_last": float(np.max(ne_gap(game.base, last))),
    }
    return row, TaskOutcome(optima=last, last_iterates=last)


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
    """Parallelism cap from METAGAMES_THREADS (default: cpu count, min 1)."""
    raw = os.environ.get("METAGAMES_THREADS")
    if raw is None:
        return max(os.cpu_count() or 1, 1)
    try:
        return max(int(raw), 1)
    except ValueError as exc:
        raise ConfigError(f"METAGAMES_THREADS: not an integer: {raw!r}") from exc


def compare_arms(config):
    """Run >= 2 arms sharing the game sequence and seed; tabulate ratios.

    Each arm is a dict of config overrides with a 'name'. Returns (results
    by arm, table) where the table holds task-averaged duality gaps at the
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

    with ThreadPoolExecutor(max_workers=min(thread_cap(), len(configs))) as pool:
        results = list(pool.map(run_experiment, configs))

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
