"""Experiment orchestration: task sequences, learner/meta wiring, logging.

A run is deterministic under its seed: identical configs produce
byte-identical CSV/JSON/SVG outputs.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from metagames.errors import ConfigError
from metagames.games import (
    MatrixGame,
    PotentialGame,
    SequenceConfig,
    lipschitz_constant,
    sample_game_sequence,
    utility_gradient,
)
from metagames.geometry import ENTROPIC, EUCLIDEAN, LOG_BARRIER, Regularizer
from metagames.learners import (
    SECONDARY_ANCHOR,
    GDLearner,
    OMDLearner,
    doubling_trick_eta,
    external_regret,
)
from metagames.meta import (
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


def _number(block, key, where, default=None, integer=False, minimum=-math.inf):
    """``block[key]`` (``default`` if absent; None means required) as a float,
    or an int when ``integer``; a bad value is a ConfigError naming its path."""
    if key not in block and default is None:
        raise ConfigError(f"{where}.{key}: missing")
    val = block.get(key, default)
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(val, bool) or not isinstance(val, kind):
        expected = "an integer" if integer else "a number"
        raise ConfigError(f"{where}.{key}: expected {expected}, got {val!r}")
    if not math.isfinite(val):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {val!r}")
    if val < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {val!r}")
    return int(val) if integer else float(val)


def _flag(block, key, where):
    """``block[key]`` (False if absent); a non-bool is a ConfigError naming its path."""
    val = block.get(key, False)
    if not isinstance(val, bool):
        raise ConfigError(f"{where}.{key}: expected true or false, got {val!r}")
    return val


# The keys each config object may hold, by field path.
_KEYS = {
    "config": ("T", "dump_strategies", "game", "init", "learner", "log_every", "m", "meta",
               "metrics_every", "seed"),
    "config.game": ("alpha", "base", "delta", "dim", "family", "prior", "sequencing"),
    "config.learner": ("algo", "alternating", "eta", "eta_mode", "first_prediction", "prediction"),
    "config.meta": ("ewoo", "initializer", "similarity_report"),
    "config.meta.ewoo": ("D", "enabled", "rho"),
}


def _known(block, where):
    """Return ``block``; a key outside ``_KEYS[where]`` is a ConfigError naming its path."""
    unknown = sorted(set(block) - set(_KEYS[where]))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key (known: {', '.join(_KEYS[where])})")
    return block


def _block(parent, key, where):
    """``parent[key]`` ({} if absent) as a config object with known keys only."""
    block = parent.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{where}.{key}: expected an object, got {block!r}")
    return _known(block, f"{where}.{key}")


def _matrix(block, key):
    """``block[key]`` as a float array, or None when absent."""
    try:
        return np.asarray(block[key], dtype=float) if key in block else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.game.{key}: expected numbers, got {block[key]!r}") from exc


def _prior(block):
    """``block["prior"]`` as row weights: finite, nonnegative, with a positive sum."""
    prior = _matrix(block, "prior")
    if prior is not None and (
        prior.ndim != 1
        or not np.all(np.isfinite(prior))
        or not np.sum(prior) > 0
        or np.min(prior) < 0
    ):
        raise ConfigError(
            "config.game.prior: need a list of nonnegative finite weights with a positive "
            f"sum, got {block['prior']!r}"
        )
    return prior


@dataclass
class ExperimentConfig:
    """Validated experiment description; see ``from_dict`` for the schema."""

    T: int
    m: int
    seed: int
    game: SequenceConfig
    algo: str = "ogd"
    eta: object = "auto"  # "auto" | float
    eta_mode: str = "fixed"  # fixed | doubling | ewoo
    init_mode: str = "cold"
    prediction: str = "recency"
    first_prediction: str = "oracle"  # oracle | zero
    alternating_updates: bool = False
    metrics_every: int = 0  # 0 = end of task only
    log_every: int = 0  # 0 = task summaries only
    dump_strategies: bool = False
    ewoo_D: Optional[float] = None
    ewoo_rho: Optional[float] = None
    similarity_report: bool = False

    @staticmethod
    def from_dict(obj):
        _known(obj, "config")
        T = _number(obj, "T", "config", integer=True, minimum=1)
        m = _number(obj, "m", "config", integer=True, minimum=1)
        game_obj = _block(obj, "game", "config")
        if "family" not in game_obj:
            raise ConfigError("config.game.family: missing")
        learner = _block(obj, "learner", "config")
        if learner.get("eta", "auto") != "auto":
            _number(learner, "eta", "config.learner")
        seed = _number(obj, "seed", "config", 0, integer=True)
        log_every = _number(obj, "log_every", "config", 0, integer=True, minimum=0)
        metrics_every = _number(obj, "metrics_every", "config", 0, integer=True, minimum=0)
        seq = SequenceConfig(
            family=game_obj["family"],
            T=T,
            seed=seed,
            sequencing=game_obj.get("sequencing", "random"),
            base=_matrix(game_obj, "base"),
            delta=_number(game_obj, "delta", "config.game", 0.0, minimum=0.0),
            prior=_prior(game_obj),
            dim=_number(game_obj, "dim", "config.game", 3, integer=True, minimum=1),
            alpha=_number(game_obj, "alpha", "config.game", 0.0, minimum=0.0),
        )
        # The meta block groups the cross-task knobs; flat keys still win so
        # arm overrides stay terse.
        meta_block = _block(obj, "meta", "config")
        ewoo_block = _block(meta_block, "ewoo", "config.meta")
        for key in ("D", "rho"):
            val = ewoo_block.get(key)
            if key in ewoo_block and (type(val) not in (int, float) or not 0 < val < math.inf):
                raise ConfigError(f"config.meta.ewoo.{key}: need a finite number > 0, got {val!r}")
        eta_mode = learner.get("eta_mode")
        if eta_mode is None:
            eta_mode = "ewoo" if _flag(ewoo_block, "enabled", "config.meta.ewoo") else "fixed"
        init_mode = obj.get("init", meta_block.get("initializer", "cold"))
        cfg = ExperimentConfig(
            T=T,
            m=m,
            seed=seed,
            game=seq,
            algo=learner.get("algo", "ogd"),
            eta=learner.get("eta", "auto"),
            eta_mode=eta_mode,
            init_mode=init_mode,
            prediction=learner.get("prediction", "recency"),
            first_prediction=learner.get("first_prediction", "oracle"),
            alternating_updates=_flag(learner, "alternating", "config.learner"),
            metrics_every=metrics_every,
            log_every=log_every,
            dump_strategies=_flag(obj, "dump_strategies", "config"),
            ewoo_D=ewoo_block.get("D"),
            ewoo_rho=ewoo_block.get("rho"),
            similarity_report=_flag(meta_block, "similarity_report", "config.meta"),
        )
        if cfg.metrics_every > 0 and cfg.log_every == 0:
            raise ConfigError(
                "config.metrics_every: gaps are measured on logged rounds only; "
                "set config.log_every > 0"
            )
        if cfg.algo == "gd" and seq.family != "potential-drift":
            # Zero-sum accounting reads path[1:] as the played points, which
            # holds for the RVU learners only; a GDLearner plays path[:-1].
            raise ConfigError(
                "config.learner.algo: 'gd' is for potential games only; zero-sum "
                "families need ogd, opthedge or omd-logbar"
            )
        if cfg.eta_mode not in ("fixed", "doubling", "ewoo"):
            raise ConfigError(f"config.learner.eta_mode: unknown mode {cfg.eta_mode!r}")
        if cfg.first_prediction not in ("oracle", "zero"):
            raise ConfigError(f"config.learner.first_prediction: {cfg.first_prediction!r}")
        if cfg.prediction not in ("recency", "secondary-anchor", "zero"):
            # An 'alternating' prediction exists only for the second mover, so
            # it is switched on by learner.alternating instead.
            raise ConfigError(
                f"config.learner.prediction: {cfg.prediction!r} is not one of recency, "
                "secondary-anchor, zero (use learner.alternating for alternating updates)"
            )
        return cfg


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
    if cfg.eta_mode == "ewoo" and ewoo_state is not None:
        return ewoo_next_eta(ewoo_state)
    if current_eta is not None:
        return current_eta
    if cfg.eta == "auto":
        return _default_eta(game, n_players)
    return float(cfg.eta)


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
    if potential and cfg.eta_mode != "fixed":
        raise ConfigError(
            f"config.learner.eta_mode: {cfg.eta_mode!r} needs an RVU learner; "
            "potential-game runs use plain gradient ascent (fixed rate only)"
        )
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
        merged = json.loads(json.dumps(base, default=_json_default))
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


def _json_default(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


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
