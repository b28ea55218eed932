import csv
import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metagames import games, harness, metrics
from metagames.errors import ConfigError
from metagames.harness import (
    CSV_HEADER,
    ExperimentConfig,
    RunRecord,
    compare_arms,
    emit_plot,
    make_learner,
    play_task,
    run_experiment,
    write_records_csv,
    write_task_summaries,
)
from metagames.learners import external_regret

BASE = [[0.2, -0.6], [-0.6, 1.0]]


def small_config(**overrides):
    cfg = {
        "T": 6,
        "m": 40,
        "seed": 9,
        "game": {"family": "perturbed-base", "base": BASE, "delta": 0.02},
        "learner": {"algo": "ogd", "eta": 0.05},
        "init": "ftl-average",
    }
    cfg.update(overrides)
    return cfg


def test_config_validation_field_paths():
    with pytest.raises(ConfigError, match="config.T"):
        ExperimentConfig.from_dict({"m": 5, "game": {"family": "perturbed-base"}})
    with pytest.raises(ConfigError, match="game.family"):
        ExperimentConfig.from_dict({"T": 2, "m": 5, "game": {}})
    with pytest.raises(ConfigError, match="eta_mode"):
        ExperimentConfig.from_dict(
            small_config(learner={"algo": "ogd", "eta": 0.1, "eta_mode": "sometimes"})
        )
    with pytest.raises(ConfigError, match="learner.prediction"):
        ExperimentConfig.from_dict(
            small_config(learner={"algo": "ogd", "eta": 0.1, "prediction": "alternating"})
        )
    with pytest.raises(ConfigError, match="config.metrics_every"):
        ExperimentConfig.from_dict(small_config(metrics_every=10))
    for key in ("D", "rho"):
        for bad in (0, -1.0, "x", float("nan"), float("inf"), True, None):
            with pytest.raises(ConfigError, match=f"config.meta.ewoo.{key}"):
                ExperimentConfig.from_dict(small_config(meta={"ewoo": {"enabled": True, key: bad}}))
    with pytest.raises(ConfigError, match="config.meta.ewoo: expected an object"):
        ExperimentConfig.from_dict(small_config(meta={"ewoo": 5}))
    bad_fields = [
        ("config.learner", {"learner": 5}),
        ("config.learner.eta", {"learner": {"algo": "ogd", "eta": "x"}}),
        ("config.seed", {"seed": "x"}),
        ("config.seed", {"seed": 1.5}),
        ("config.log_every", {"log_every": -3}),
        ("config.log_every", {"log_every": "x"}),
        ("config.metrics_every", {"metrics_every": -1, "log_every": 5}),
        ("config.game", {"game": 5}),
        ("config.learner.alternating", {"learner": {"eta": 0.1, "alternating": "no"}}),
        ("config.dump_strategies", {"dump_strategies": 1}),
        ("config.meta.similarity_report", {"meta": {"similarity_report": "yes"}}),
        ("config.intit", {"intit": "cold"}),
        ("config.arms", {"arms": []}),
        ("config.learner.etaa", {"learner": {"algo": "ogd", "etaa": 0.1}}),
        ("config.meta.initialiser", {"meta": {"initialiser": "cold"}}),
        ("config.meta.ewoo.enable", {"meta": {"ewoo": {"enable": True}}}),
        ("config.game.dleta", {"game": {"family": "perturbed-base", "base": BASE, "dleta": 0.1}}),
    ]
    for key in ("delta", "alpha", "dim", "base"):
        game = {"family": "perturbed-base", "base": BASE, key: "x"}
        bad_fields.append((f"config.game.{key}", {"game": game}))
    for prior in ([0.5, -0.1, 0.6], [0.0, 0.0], [[0.5, 0.5]], [], [1.0, float("inf")]):
        game = {"family": "lower-bound-prior", "prior": prior}
        bad_fields.append(("config.game.prior", {"game": game}))
    bad_fields += [
        ("config.game.delta", {"game": {"family": "perturbed-base", "base": BASE, "delta": -0.1}}),
        ("config.game.dim", {"game": {"family": "potential-drift", "dim": 0}}),
        ("config.game.alpha", {"game": {"family": "potential-drift", "alpha": -0.5}}),
        ("config.learner.eta", {"learner": {"algo": "ogd", "eta": float("inf")}}),
        ("config.learner.eta", {"learner": {"algo": "ogd", "eta": float("nan")}}),
        ("config.meta.ewoo.enabled", {"meta": {"ewoo": {"enabled": "yes"}}}),
        # gradient ascent plays path[:-1]; the zero-sum accounting reads path[1:]
        ("config.learner.algo", {"learner": {"algo": "gd", "eta": 0.05}}),
        ("config.learner.algo", {"learner": {"algo": "gd", "eta": 0.05, "eta_mode": "doubling"}}),
        ("config.game.base", {"game": {"family": "perturbed-base", "base": [1, 2]}}),
        ("config.game.base", {"game": {"family": "perturbed-base", "base": [[]]}}),
        ("config.game.base", {"game": {"family": "perturbed-base"}}),
        ("config.game.prior", {"game": {"family": "lower-bound-prior"}}),
        ("config.game.prior", {"game": {"family": "lower-bound-prior", "prior": [1e308, 1e308]}}),
        ("config.game.sequencing", {"game": {"family": "perturbed-base", "base": BASE, "sequencing": 5}}),
        ("config.game.family", {"game": {"family": 5}}),
        ("config.init", {"init": "warm"}),
        ("config.init", {"init": "custom-anchor"}),
        ("config.learner.eta", {"learner": {"algo": "ogd", "eta": -0.1}}),
        ("config.learner.eta", {"learner": {"algo": "ogd", "eta": 0}}),
        ("config.seed", {"seed": -1}),
        ("config.game.delta", {"game": {"family": "perturbed-base", "base": BASE, "delta": 10**400}}),
        # potential games are played by gradient ascent and have no Nash oracle
        ("config.init", {"game": {"family": "potential-drift"}, "learner": {"algo": "gd"}, "init": "ne-average"}),
        (
            "config.learner.eta_mode",
            {"game": {"family": "potential-drift"}, "learner": {"algo": "gd", "eta_mode": "doubling"}},
        ),
        # runs too large to sample or play, caught before anything is drawn
        ("config.T", {"T": 10**30}),
        ("config.T", {"T": harness.MAX_RUN_SIZE // 4 + 1}),
        ("config.m", {"m": 10**14}),
        ("config.m", {"T": 1, "m": harness.MAX_RUN_SIZE // 4 + 1}),
        ("config.game.dim", {"game": {"family": "potential-drift", "dim": 10**5}, "learner": {"algo": "gd"}}),
        ("config.T", {"game": {"family": "potential-drift", "dim": 5000}, "learner": {"algo": "gd"}}),
    ]
    for path, overrides in bad_fields:
        with pytest.raises(ConfigError, match=path.replace(".", r"\.") + ":"):
            ExperimentConfig.from_dict(small_config(**overrides))
    ExperimentConfig.from_dict(small_config(metrics_every=10, log_every=5))
    ExperimentConfig.from_dict(small_config(T=1, m=harness.MAX_RUN_SIZE // 4))
    pot = {"T": 2, "m": 5, "game": {"family": "potential-drift"}, "learner": {"algo": "gd"}}
    with pytest.raises(ConfigError, match=r"config\.meta\.initializer:"):
        ExperimentConfig.from_dict({**pot, "meta": {"initializer": "ne-average"}})
    # arm overrides are merged into the base config before it is validated
    arms = [{"name": "a"}, {"name": "b", "learner": {"algo": "ogd", "etaa": 0.1}}]
    with pytest.raises(ConfigError, match=r"config\.learner\.etaa:"):
        compare_arms(small_config(arms=arms))


def test_readme_config_table_lists_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cells = {line.split("|")[1].strip() for line in readme.splitlines() if line.startswith("| `")}
    assert {f"`{f.path}`" for f in harness.SCHEMA} <= cells


def test_run_deterministic_byte_identical(tmp_path):
    cfg = small_config(log_every=1, metrics_every=10)
    outs = []
    for name in ("a", "b"):
        res = run_experiment(cfg)
        p = tmp_path / f"{name}.csv"
        write_records_csv(p, res.records)
        t = tmp_path / f"t{name}.csv"
        write_task_summaries(t, res.task_summaries)
        outs.append((p.read_bytes(), t.read_bytes()))
    assert outs[0] == outs[1]


def test_records_schema_header(tmp_path):
    res = run_experiment(small_config(log_every=5))
    p = tmp_path / "records.csv"
    write_records_csv(p, res.records)
    first = p.read_text().splitlines()[0]
    assert first == CSV_HEADER
    assert first == "schema_version,task,iter,player,regret_cum,dualgap,negap,pathlen2,eta,init_mode"


def test_replay_consistency(tmp_path):
    # regrets recomputed offline from dumped strategies and the game match
    # the logged cumulative regrets
    cfg = small_config(log_every=1, dump_strategies=True)
    res = run_experiment(cfg)
    p = tmp_path / "records.csv"
    write_records_csv(p, res.records, dump_strategies=True)
    sidecar = json.loads((Path(str(p) + ".strategies.json")).read_text())
    by_task = {}
    for rec in res.records:
        by_task.setdefault(rec.task, {0: {}, 1: {}})
        by_task[rec.task][rec.player][rec.iter] = (
            np.asarray(sidecar[f"{rec.task}:{rec.iter}:{rec.player}"]),
            rec.regret_cum,
        )
    for t, players in by_task.items():
        A = res.games[t].A
        iters = sorted(players[0])
        xs = np.asarray([players[0][i][0] for i in iters])
        ys = np.asarray([players[1][i][0] for i in iters])
        u_x = -(ys @ A.T)
        u_y = xs @ A
        for k, (strats, utils) in enumerate(((xs, u_x), (ys, u_y))):
            cum = np.cumsum(utils, axis=0)
            realized = np.cumsum(np.sum(strats * utils, axis=1))
            for j, it in enumerate(iters):
                replayed = float(np.max(cum[j]) - realized[j])
                assert abs(replayed - players[k][it][1]) < 1e-9


def test_t1_cold_equals_single_run():
    cfg = small_config(T=1, init="cold")
    res = run_experiment(cfg)
    assert len(res.task_summaries) == 1
    from metagames.geometry import Simplex
    from metagames.harness import make_learner, play_task
    from metagames.learners import external_regret

    game = res.games[0]
    xl = make_learner("ogd", Simplex(2), 0.05)
    yl = make_learner("ogd", Simplex(2), 0.05)
    play_task(game, [xl, yl], 40)
    rx, _ = external_regret(np.asarray(xl.path[1:]), xl.utility_array(), Simplex(2))
    assert abs(rx - res.task_summaries[0]["regret_x"]) < 1e-12


def test_secondary_anchor_run_matches_play_task():
    # run_experiment feeds secondary-anchor predictions every round, exactly
    # as play_task and as the written-out OMD loop below do
    cfg = small_config(
        T=1, m=50, init="cold", learner={"algo": "ogd", "eta": 0.05, "prediction": "secondary-anchor"}
    )
    res = run_experiment(cfg)
    from metagames.geometry import Simplex
    from metagames.harness import make_learner, play_task
    from metagames.learners import external_regret

    game = res.games[0]
    A = game.A

    def pair():
        return [
            make_learner("ogd", Simplex(2), 0.05, prediction="secondary-anchor") for _ in range(2)
        ]

    played = play_task(game, pair(), 50)
    xl, yl = pair()
    for _ in range(50):
        xl.set_prediction(-A @ yl.x_hat)
        yl.set_prediction(A.T @ xl.x_hat)
        x, y = xl.play(), yl.play()
        xl.update(-A @ y)
        yl.update(A.T @ x)
    for k, key in enumerate(("regret_x", "regret_y")):
        regrets = [
            external_regret(np.asarray(lrn.path[1:]), lrn.utility_array(), Simplex(2))[0]
            for lrn in (played[k], (xl, yl)[k])
        ]
        assert regrets[0] == regrets[1] == res.task_summaries[0][key]


def test_ftl_init_after_one_task_is_first_optimum():
    cfg = small_config(T=2, game={"family": "perturbed-base", "base": BASE, "delta": 0.0})
    res = run_experiment(cfg)
    # the FTL mean of a single anchor is the anchor itself, so task 2 starts
    # at task 1's optimum-in-hindsight
    np.testing.assert_allclose(
        res.task_summaries[1]["inits"], res.task_summaries[0]["optima"], atol=1e-15
    )


LOWER_BOUND_NE = {
    "T": 30,
    "m": 5,
    "seed": 123,
    "game": {"family": "lower-bound-prior", "prior": [0.5, 0.25, 0.25]},
    "learner": {"algo": "ogd", "eta": "auto"},
    "init": "ne-average",
    "meta": {"similarity_report": True},
}


def test_repeated_games_solved_once(monkeypatch):
    # lower-bound-prior draws T tasks from d distinct games: the saddle-point
    # LPs and the auto rate's power iteration run once per distinct game
    calls = {"lp": 0, "power": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(metrics, "_solve_row_max", counted("lp", metrics._solve_row_max))
    monkeypatch.setattr(
        games,
        "_power_iteration_spectral_norm",
        counted("power", games._power_iteration_spectral_norm),
    )
    res = run_experiment(LOWER_BOUND_NE)
    distinct = len({g.A.tobytes() for g in res.games})
    assert distinct == len({id(g) for g in res.games}) == 3
    assert calls == {"lp": distinct, "power": distinct}


def test_runs_share_no_game_objects():
    first, second = run_experiment(LOWER_BOUND_NE), run_experiment(LOWER_BOUND_NE)
    assert not {id(g) for g in first.games} & {id(g) for g in second.games}
    assert first.task_summaries == second.task_summaries


def test_compare_arms_identical_arms_ratio_one():
    cfg = small_config(
        arms=[{"name": "a", "init": "cold"}, {"name": "b", "init": "cold"}],
        checkpoints=[6],
    )
    results, table = compare_arms(cfg)
    row = table["rows"][0]
    assert row["ratios"][1] == 1.0
    ga = results["a"].games
    gb = results["b"].games
    for x, y in zip(ga, gb):
        np.testing.assert_array_equal(x.A, y.A)


def test_compare_arms_potential_drift():
    # potential-drift rows carry only the NE gap of the last iterates
    cfg = {
        "T": 2,
        "m": 5,
        "seed": 0,
        "game": {"family": "potential-drift", "dim": 2, "alpha": 0.01},
        "learner": {"algo": "gd", "eta": 0.05},
        "arms": [{"name": "last", "init": "last-iterate"}, {"name": "cold", "init": "cold"}],
    }
    results, table = compare_arms(cfg)
    assert table["metric"] == "negap_last"
    assert table["arms"] == ["last", "cold"]
    gaps = table["rows"][0]["gaps"]
    assert gaps[1] == float(np.mean(results["cold"].task_column("negap_last")))


def test_compare_arms_needs_two():
    with pytest.raises(ConfigError):
        compare_arms(small_config(arms=[{"name": "only"}]))


def test_eta_modes():
    res = run_experiment(small_config(learner={"algo": "ogd", "eta": "auto"}))
    assert res.task_summaries[0]["eta"] > 0
    res = run_experiment(
        small_config(learner={"algo": "ogd", "eta": 0.9, "eta_mode": "doubling"})
    )
    assert res.task_summaries[-1]["eta"] <= 0.9
    res = run_experiment(
        small_config(learner={"algo": "ogd", "eta": "auto", "eta_mode": "ewoo"})
    )
    assert res.task_summaries[-1]["eta"] > 0


def test_auto_eta_cells_are_numbers(tmp_path):
    # A cold arm is played in batches, an ftl-average arm task by task.
    for init in ("cold", "ftl-average"):
        res = run_experiment(small_config(init=init, learner={"algo": "ogd", "eta": "auto"}))
        path = tmp_path / f"{init}.csv"
        write_task_summaries(path, res.task_summaries)
        with path.open(newline="") as fh:
            etas = [float(row["eta"]) for row in csv.DictReader(fh)]
        assert len(etas) == 6 and min(etas) > 0


def test_doubling_restart_keeps_unique_rows():
    cfg = small_config(
        learner={"algo": "ogd", "eta": 0.9, "eta_mode": "doubling"}, log_every=10
    )
    res = run_experiment(cfg)
    keys = [(r.task, r.iter, r.player) for r in res.records]
    assert len(keys) == len(set(keys))
    assert res.task_summaries[-1]["eta"] < 0.9  # the rate was actually halved


def test_eta_modes_scope():
    pot = {
        "T": 2,
        "m": 10,
        "seed": 0,
        "game": {"family": "potential-drift", "dim": 2, "alpha": 0.01},
        "learner": {"algo": "gd", "eta": 0.05, "eta_mode": "ewoo"},
    }
    with pytest.raises(ConfigError):
        run_experiment(pot)
    # the matrix pipeline supports ewoo
    matrix = small_config(learner={"algo": "ogd", "eta": "auto", "eta_mode": "ewoo"})
    res = run_experiment(matrix)
    assert res.task_summaries[-1]["eta"] > 0


def test_potential_drift_experiment_runs():
    cfg = {
        "T": 3,
        "m": 30,
        "seed": 2,
        "game": {"family": "potential-drift", "dim": 2, "alpha": 0.01},
        "learner": {"algo": "gd", "eta": 0.05},
        "init": "last-iterate",
        "log_every": 10,
        "metrics_every": 10,
    }
    res = run_experiment(cfg)
    assert len(res.task_summaries) == 3
    for row in res.task_summaries:
        assert row["pathlen2"] >= 0.0
    # rounds are logged as on matrix games; the duality gap is defined for
    # zero-sum games only
    assert len(res.records) == 3 * 3 * 2
    assert all(np.isnan(r.dualgap) and r.negap >= -1e-12 for r in res.records)


def test_emit_plot_errors_and_padding(tmp_path):
    with pytest.raises(ConfigError):
        emit_plot([])
    text = emit_plot([{"label": "c", "xs": [0, 1, 2], "ys": [0.3, 0.3, 0.3]}])
    assert "polyline" in text
    out = tmp_path / "plot.svg"
    emit_plot([{"label": "c", "xs": [0, 1], "ys": [1.0, 2.0]}], out=out)
    assert out.read_text().startswith("<svg")


def test_emit_plot_escapes_text():
    import xml.etree.ElementTree as ET

    text = emit_plot(
        [
            {"label": "a<b", "xs": [0, 1], "ys": [1.0, 2.0]},
            {"label": "c&d", "xs": [0, 1], "ys": [2.0, 1.0]},
        ],
        {"title": "a&b.csv", "xlabel": "x<1", "ylabel": "y & z"},
    )
    root = ET.fromstring(text)
    texts = {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
    assert {"a&b.csv", "x<1", "y & z", "a<b", "c&d"} <= texts


def test_emit_plot_golden_snapshot():
    series = [
        {"label": "meta-avg", "xs": [1, 2, 3, 4], "ys": [0.5, 0.2, 0.1, 0.05]},
        {"label": "last-iterate", "xs": [1, 2, 3, 4], "ys": [0.6, 0.3, 0.2, 0.12]},
        {"label": "cold", "xs": [1, 2, 3, 4], "ys": [0.8, 0.7, 0.65, 0.6]},
    ]
    text = emit_plot(
        series,
        {"title": "task-averaged gap", "xlabel": "task", "ylabel": "gap", "logy": True},
    )
    golden = Path(__file__).parent / "data" / "golden_three_arm.svg"
    assert text == golden.read_text()
    assert text.count("polyline") == 3
    for name in ("meta-avg", "last-iterate", "cold"):
        assert name in text


def test_thread_cap_env(monkeypatch):
    from metagames.harness import thread_cap

    monkeypatch.setenv("METAGAMES_THREADS", "2")
    assert thread_cap() == 2
    monkeypatch.setenv("METAGAMES_THREADS", "zero")
    with pytest.raises(ConfigError):
        thread_cap()


def round_logger(cfg, game, t, learners, records):
    """Per-round observer that appends a RunRecord per player every
    ``log_every`` rounds and at the last round; the reference for
    ``harness._task_records``, which reads the same rows off the finished
    task."""
    m = cfg.m
    cum_u = [np.zeros_like(lrn.init) for lrn in learners]
    sums = [np.zeros_like(lrn.init) for lrn in learners]
    realized = [0.0] * len(learners)
    path2 = [0.0] * len(learners)
    prev = [lrn.init.copy() for lrn in learners]
    zero_sum = isinstance(game, games.MatrixGame)

    def observe(i, profile, utilities):
        for k, (s, u) in enumerate(zip(profile, utilities)):
            sums[k] += s
            cum_u[k] += u
            realized[k] += float(s @ u)
            path2[k] += float(np.sum((s - prev[k]) ** 2))
            prev[k] = s
        if i % cfg.log_every and i != m:
            return
        gap, gaps = float("nan"), [float("nan")] * len(profile)
        if cfg.metrics_every and (i % cfg.metrics_every == 0 or i == m):
            if zero_sum:
                gap = metrics.duality_gap(game, sums[0] / i, sums[1] / i)
            gaps = metrics.ne_gap(game, profile)
        for k, (s, lrn) in enumerate(zip(profile, learners)):
            records.append(
                RunRecord(
                    task=t,
                    iter=i,
                    player=k,
                    regret_cum=float(np.max(cum_u[k]) - realized[k]),
                    dualgap=float(gap),
                    negap=float(gaps[k]),
                    pathlen2=path2[k],
                    eta=lrn.eta,
                    init_mode=cfg.init_mode,
                    strategy=s.copy() if cfg.dump_strategies else None,
                )
            )

    return observe


def observed_records(monkeypatch, config):
    """run_experiment's records as ``round_logger`` logs them round by round.

    Every task is played by ``play_task``, also on an arm that
    ``run_experiment`` plays in batches, so batched records are checked
    against the per-round oracle too. The observer sees each round when the
    first learner is handed its utility, before any learner updates; the
    records of a task are those of its final attempt, the last one played
    before the task is logged.
    """
    cfg = ExperimentConfig.from_dict(config)
    latest = []
    real_play = harness.play_task

    def play(game, learners, m, **kwargs):
        latest.clear()
        observe = round_logger(cfg, game, None, learners, latest)
        first, update, rounds = learners[0], learners[0].update, itertools.count(1)

        def observed_update(u):
            profile = [lrn.play() for lrn in learners]
            utilities = [games.utility_gradient(game, k, profile) for k in range(len(learners))]
            observe(next(rounds), profile, utilities)
            update(u)

        first.update = observed_update
        return real_play(game, learners, m, **kwargs)

    def task_records(cfg, game, t, tracks, b):
        return [dataclasses.replace(r, task=t) for r in latest]

    with monkeypatch.context() as patch:
        patch.setattr(harness, "play_task", play)
        patch.setattr(harness, "_task_records", task_records)
        patch.setattr(harness, "BATCH_MIN_TASKS", float("inf"))
        return run_experiment(config).records


@pytest.mark.parametrize(
    "config",
    [
        small_config(log_every=3, metrics_every=6, dump_strategies=True),
        small_config(
            m=41,
            log_every=4,
            metrics_every=8,
            learner={"algo": "ogd", "eta": 0.05, "alternating": True},
        ),
        small_config(
            log_every=7,
            metrics_every=7,
            learner={"algo": "ogd", "eta": 0.05, "prediction": "secondary-anchor"},
        ),
        small_config(log_every=1, learner={"algo": "ogd", "eta": 0.9, "eta_mode": "doubling"}),
        small_config(log_every=5, metrics_every=5, learner={"algo": "opthedge", "eta": 0.1}),
        {
            **LOWER_BOUND_NE,
            "game": {"family": "lower-bound-prior", "prior": [0.1] * 10},
            "log_every": 2,
            "metrics_every": 2,
        },
        {
            "T": 3,
            "m": 30,
            "seed": 2,
            "game": {"family": "potential-drift", "dim": 10, "alpha": 0.01},
            "learner": {"algo": "gd", "eta": 0.05},
            "init": "last-iterate",
            "log_every": 4,
            "metrics_every": 8,
            "dump_strategies": True,
        },
        small_config(init="cold", log_every=3, metrics_every=6, dump_strategies=True),
    ],
    ids=["dump", "alternating", "secondary-anchor", "doubling", "opthedge", "d10", "drift", "cold"],
)
def test_task_records_match_round_observer(monkeypatch, config):
    records = run_experiment(config).records
    expected = observed_records(monkeypatch, config)
    assert records and [r.csv_row() for r in records] == [r.csv_row() for r in expected]
    for got, want in zip(records, expected):
        if want.strategy is None:
            assert got.strategy is None
        else:
            np.testing.assert_array_equal(got.strategy, want.strategy)


def summary_row(game, learners):
    """A zero-sum task-summary row from one played task's learners, by the
    per-task routines: the reference for the batched summaries."""
    xl, yl = learners
    x_hist, y_hist = np.asarray(xl.path[1:]), np.asarray(yl.path[1:])
    reg_x, opt_x = external_regret(x_hist, xl.utility_array(), game.sets[0])
    reg_y, opt_y = external_regret(y_hist, yl.utility_array(), game.sets[1])
    x_bar, y_bar = np.mean(x_hist, axis=0), np.mean(y_hist, axis=0)
    return {
        "regret_x": reg_x,
        "regret_y": reg_y,
        "dualgap_avg": metrics.duality_gap(game, x_bar, y_bar),
        "negap_avg": float(np.max(metrics.ne_gap(game, [x_bar, y_bar]))),
        "pathlen2": metrics.path_lengths(xl.primary_array())[0]
        + metrics.path_lengths(yl.primary_array())[0],
        "init_dist2": float(np.sum((opt_x - xl.init) ** 2) + np.sum((opt_y - yl.init) ** 2)),
        "inits": [xl.init.tolist(), yl.init.tolist()],
        "optima": [opt_x.tolist(), opt_y.tolist()],
    }


def _start(rng, d):
    """A feasible start: uniform, interior, or on the boundary."""
    kind = rng.integers(3)
    if kind == 0:
        return np.full(d, 1.0 / d)
    x = rng.dirichlet(np.ones(d))
    if kind == 2:
        x[rng.integers(d)] = 0.0
        x /= x.sum()
    return x


@st.composite
def batch_inputs(draw):
    """B games of one shape (d_x, d_y in 2..10), each with a feasible start and
    its own rate. Integer payoffs make exact ties in sorts and argmaxes."""
    B = draw(st.integers(min_value=1, max_value=64))
    dx, dy = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    m = draw(st.integers(min_value=1, max_value=12))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = []
    for _ in range(B):
        size = (dx, dy)
        A = rng.integers(-2, 3, size=size).astype(float) if tied else rng.uniform(-1, 1, size=size)
        batch.append(games.MatrixGame(A))
    starts = [[_start(rng, dx), _start(rng, dy)] for _ in range(B)]
    etas = (10.0 ** rng.uniform(-3.0, 1.0, size=B)).tolist()
    return batch, starts, etas, m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(batch_inputs())
def test_play_batch_matches_play_task_bitwise(inputs):
    # Each batched row is the scalar task bit for bit: played points,
    # utilities, rate and summary row. A BLAS build whose stacked matmul
    # rounds differently from the per-task product would fail here.
    batch, starts, etas, m = inputs
    tracks = harness._play_batch(batch, starts, etas, m)
    rows = harness._zero_sum_summaries(batch, tracks, [None] * len(batch))
    for b, game in enumerate(batch):
        learners = [make_learner("ogd", s, etas[b], init=x0) for s, x0 in zip(game.sets, starts[b])]
        play_task(game, learners, m)
        for tr, lrn in zip(tracks, learners):
            assert tr.path[b].tobytes() == lrn.primary_array().tobytes()
            assert tr.played[b].tobytes() == np.asarray(lrn.path[1:]).tobytes()
            assert tr.utilities[b].tobytes() == lrn.utility_array().tobytes()
            assert repr(tr.eta[b]) == repr(lrn.eta)
        assert repr(rows[b][0]) == repr(summary_row(game, learners))
