import csv
import dataclasses
import itertools
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metagames import games, harness, meta, metrics
from metagames import learners as learners_module
from metagames.errors import ConfigError, InvalidInputError, NumericError
from metagames.geometry import Regularizer
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
from metagames.learners import GDLearner, OMDLearner, doubling_residual, external_regret

BASE = [[0.2, -0.6], [-0.6, 1.0]]
# Perturbed-base games of the kernel's shapes: 2x2, 2x3 and 3x3.
KERNEL_BASES = (
    BASE,
    [[0.5, -1.0, 0.3], [-0.4, 0.8, -0.9]],
    [[0.2, -0.6, 0.1], [-0.6, 1.0, 0.3], [0.0, 0.4, -0.5]],
)


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
        # zero predictions leave a doubling run's residual positive at every rate
        (
            "config.learner.prediction",
            {"learner": {"algo": "ogd", "eta_mode": "doubling", "prediction": "zero"}},
        ),
        (
            "config.learner.prediction",
            {"learner": {"algo": "omd-logbar", "eta_mode": "doubling", "prediction": "zero"}},
        ),
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
        # gradient ascent plays potential games and reads no RVU learner field
        ("config.learner.algo", {"game": {"family": "potential-drift"}}),
        ("config.learner.algo", {"game": {"family": "potential-drift"}, "learner": {"algo": "omd-logbar"}}),
        (
            "config.learner.prediction",
            {"game": {"family": "potential-drift"}, "learner": {"algo": "gd", "prediction": "zero"}},
        ),
        (
            "config.learner.first_prediction",
            {"game": {"family": "potential-drift"}, "learner": {"algo": "gd", "first_prediction": "zero"}},
        ),
        (
            "config.learner.alternating",
            {"game": {"family": "potential-drift"}, "learner": {"algo": "gd", "alternating": True}},
        ),
        # EWOO's default D, the sets' diameter, is 0 when each player has one action
        (
            "config.meta.ewoo.D",
            {"game": {"family": "perturbed-base", "base": [[0.5]]}, "learner": {"eta_mode": "ewoo"}},
        ),
        (
            "config.meta.ewoo.D",
            {"game": {"family": "lower-bound-prior", "prior": [1.0]}, "meta": {"ewoo": {"enabled": True}}},
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
    one_by_one = {"family": "perturbed-base", "base": [[0.5]]}
    ewoo = {"eta_mode": "ewoo"}
    ExperimentConfig.from_dict(small_config(game=one_by_one, learner=ewoo, meta={"ewoo": {"D": 1.0}}))
    ExperimentConfig.from_dict(small_config(game={**one_by_one, "base": [[0.5, 0.1]]}, learner=ewoo))
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
    from metagames.learners import doubling_residual, external_regret

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
    from metagames.learners import doubling_residual, external_regret

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


def no_thread(self):
    raise AssertionError("a thread was started")


def test_compare_arms_runs_arms_in_turn_on_this_thread(monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    base = small_config(log_every=5, metrics_every=10, meta={"similarity_report": True})
    arms = [
        {"name": "cold", "init": "cold"},
        {"name": "ftl", "init": "ftl-average"},
        {"name": "doubling", "learner": {"algo": "ogd", "eta": 0.9, "eta_mode": "doubling"}},
        {"name": "ewoo", "learner": {"algo": "ogd", "eta": 0.05, "eta_mode": "ewoo"}},
    ]
    results, _ = compare_arms({**base, "arms": arms})
    assert list(results) == [arm["name"] for arm in arms]
    for arm in arms:
        alone = {**base, **{key: val for key, val in arm.items() if key != "name"}}
        assert run_outputs(results[arm["name"]]) == run_outputs(run_experiment(alone))
    # The first failing arm raises, before a later one fails otherwise.
    huge_rate = {"learner": {"algo": "ogd", "eta": 1e308}}
    no_calibration = {
        "learner": {"algo": "omd-logbar", "eta_mode": "doubling", "first_prediction": "zero"}
    }
    with pytest.raises(NumericError, match="doubling trick gave up"):
        run_experiment({**base, **no_calibration})
    with pytest.raises(InvalidInputError, match="simplex projection"):
        compare_arms({**base, "arms": [arms[0], huge_rate, no_calibration]})
    # An arm that cannot be valid fails before any arm runs.
    zero_doubling = {"learner": {"algo": "ogd", "eta_mode": "doubling", "prediction": "zero"}}
    with pytest.raises(ConfigError, match=r"config\.learner\.prediction:"):
        compare_arms({**base, "arms": [arms[0], huge_rate, zero_doubling]})


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


def learner_runs(learners):
    """The doubling rule's runs of OMDLearners: path, utilities, predictions."""
    return [(lrn.primary_array(), lrn.utility_array(), lrn.prediction_array()) for lrn in learners]


def loop_rows(played, free_first):
    """A stand-in for ``harness._play_rows`` that plays its task by the
    per-round loop: ``play_task``, as the harness module finds it, on
    OMDLearners started at the rows' round 0, with the free first
    prediction or zero as they make it, not as the caller passed it. The
    rows are filled from the learners' histories, and ``played`` is left
    holding the learners."""

    def play_rows(game, kind, etas, firsts, paths, utilities):
        learners = [
            OMDLearner(s, eta, regularizer=Regularizer(kind), init=path[0])
            for s, eta, path in zip(game.sets, etas, paths)
        ]
        harness.play_task(game, learners, len(utilities[0]), free_first=free_first)
        for path, u, lrn in zip(paths, utilities, learners):
            path[:], u[:] = lrn.primary_array(), lrn.utility_array()
        played[:] = learners

    return play_rows


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

    Every task is played by ``play_task`` round by round, also on an arm
    that ``run_experiment`` plays in batches or by ``_play_rows``: no arm is
    batched and ``_play_rows`` is ``loop_rows``. So those records are
    checked against the per-round oracle too. The observer sees each round when the first
    learner is handed its utility, before any learner updates; the records
    of a task are those of its final attempt, the last one played before
    the task is logged. Blocks of one task log each task before the next is
    played.
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

    def task_records(cfg, games, t, tracks):
        return [dataclasses.replace(r, task=t) for r in latest]

    with monkeypatch.context() as patch:
        patch.setattr(harness, "play_task", play)
        patch.setattr(harness, "_task_records", task_records)
        patch.setattr(harness, "_play_rows", loop_rows([], cfg.first_prediction == "oracle"))
        patch.setattr(harness, "BATCH_MIN_TASKS", ((float("inf"),) * 3,) * 2)
        patch.setattr(harness, "BATCH_BYTES", 1)
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
        small_config(
            log_every=3,
            metrics_every=3,
            learner={"algo": "ogd", "eta": 0.05, "first_prediction": "zero"},
        ),
        small_config(
            game={"family": "perturbed-base", "base": [[0.5, -1.0, 0.3], [-0.4, 0.8, -0.9]]},
            learner={"algo": "ogd", "eta": 0.5},
            init="last-iterate",
            log_every=4,
            metrics_every=4,
            dump_strategies=True,
        ),
    ],
    ids=[
        "dump",
        "alternating",
        "secondary-anchor",
        "doubling",
        "opthedge",
        "d10",
        "drift",
        "cold",
        "zero-first",
        "2x3-boundary",
    ],
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
    # Each batched row, filled in place from the start in its row 0, is the
    # per-round loop's task bit for bit: played points, utilities and
    # summary row. A BLAS build whose stacked matmul rounds differently from
    # the per-task product would fail here.
    batch, starts, etas, m = inputs
    paths = [np.empty((len(batch), m + 1, s.dim)) for s in batch[0].sets]
    utilities = [np.empty((len(batch), m, s.dim)) for s in batch[0].sets]
    for k, path in enumerate(paths):
        path[:, 0] = [start[k] for start in starts]
    harness._play_batch(batch, etas, paths, utilities)
    tracks = [harness.Track(p, p[:, 1:], u, etas) for p, u in zip(paths, utilities)]
    rows = harness._zero_sum_summaries(batch, tracks)
    for b, game in enumerate(batch):
        learners = [make_learner("ogd", s, etas[b], init=x0) for s, x0 in zip(game.sets, starts[b])]
        play_task(game, learners, m)
        for tr, lrn in zip(tracks, learners):
            assert tr.path[b].tobytes() == lrn.primary_array().tobytes()
            assert tr.played[b].tobytes() == np.asarray(lrn.path[1:]).tobytes()
            assert tr.utilities[b].tobytes() == lrn.utility_array().tobytes()
        assert repr(rows[b]) == repr(summary_row(game, learners))


@st.composite
def task_inputs(draw):
    """One RVU learner, one game (d_x, d_y in 2..10, each 2 about half the
    time, so that the kernel's two-action step plays 2x2 and 2xN games
    alike) with a feasible start, a rate per player (the same or two), a
    number of rounds and a first prediction: the free one, zero, or one
    preset. Integer payoffs make exact ties."""
    algo = draw(st.sampled_from(sorted(harness._REGS)))
    actions = st.one_of(st.just(2), st.integers(3, 10))
    dx, dy = draw(actions), draw(actions)
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(-2, 3, size=(dx, dy)).astype(float) if tied else rng.uniform(-1, 1, (dx, dy))
    start = [_start(rng, dx), _start(rng, dy)]
    etas = (10.0 ** rng.uniform(-3.0, 1.0, size=2)).tolist()
    if draw(st.booleans()):
        etas[1] = etas[0]
    first = draw(st.sampled_from(["free", "zero", "preset"]))
    preset = None
    if first == "preset":
        preset = [rng.integers(-2, 3, size=d).astype(float) for d in (dx, dy)]
    return algo, games.MatrixGame(A), start, etas, draw(st.integers(1, 12)), first == "free", preset


def loop_task(algo, game, start, etas, m, free_first, preset=None):
    """The per-round loop's task: fresh ``make_learner`` pairs, given the
    preset first predictions, played by ``play_task``."""
    learners = [make_learner(algo, s, eta, init=x0) for s, eta, x0 in zip(game.sets, etas, start)]
    for lrn, p in zip(learners, preset or ()):
        lrn.set_prediction(p)
    return play_task(game, learners, m, free_first=free_first)


def kernel_rows(algo, game, start, etas, m, free_first, preset=None):
    """The same task played by ``_play_rows`` into fresh rows, as
    ``_task_blocks`` plays it: ``check_start`` per player, then the kernel.
    Returns the paths, utilities and first predictions."""
    paths = [np.empty((m + 1, s.dim)) for s in game.sets]
    utilities = [np.empty((m, s.dim)) for s in game.sets]
    for path, x0 in zip(paths, start):
        path[0] = x0
    if preset is not None:
        firsts = [p.tolist() for p in preset]
    elif free_first:
        firsts = [games.utility_gradient(game, k, start).tolist() for k in range(2)]
    else:
        firsts = [[0.0] * s.dim for s in game.sets]
    for s, eta, x0 in zip(game.sets, etas, start):
        learners_module.check_start(s, eta, x0)
    harness._play_rows(game, harness._REGS[algo].kind, etas, firsts, paths, utilities)
    return paths, utilities, firsts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(task_inputs())
def test_play_task_kernel_matches_loop_bitwise(inputs):
    # _play_rows fills its rows as the per-round loop plays a make_learner
    # pair: path rows, utility rows, the predictions that _task_blocks builds
    # from the rows, the summary row and the doubling residual.
    game, etas = inputs[1], inputs[3]
    paths, utilities, firsts = kernel_rows(*inputs)
    loop = loop_task(*inputs)
    runs = [(p, u, np.vstack((f, u[:-1]))) for p, u, f in zip(paths, utilities, firsts)]
    for run, loop_run in zip(runs, learner_runs(loop)):
        assert [a.tobytes() for a in run] == [a.tobytes() for a in loop_run]
    tracks = [harness.Track(p[None], p[None, 1:], u[None], etas[:1]) for p, u in zip(paths, utilities)]
    assert repr(harness._zero_sum_summaries([game], tracks)[0]) == repr(summary_row(game, loop))
    for eta in etas:
        assert repr(doubling_residual(runs, eta)) == repr(doubling_residual(learner_runs(loop), eta))


@pytest.mark.parametrize(
    "algo, A, eta, free_first, message",
    [
        ("ogd", [[0.2, -0.6], [-0.6, 1.0]], 1e308, True, "simplex projection"),
        ("ogd", [[1.5e308, 1.5e308], [1.5e308, 1.5e308]], 0.1, False, "non-finite utility"),
        ("opthedge", [[1.5e308, 1.5e308], [1.5e308, 1.5e308]], 0.1, False, "non-finite utility"),
        ("opthedge", [[1.5e308, 1.5e308], [1.5e308, 1.5e308]], 0.1, True, "non-finite input"),
        ("opthedge", [[2.0, -2.0, 1.0], [-2.0, 2.0, 0.5]], 1e308, True, "non-finite"),
        ("opthedge", [[0.2, -0.6], [-0.6, 1.0]], math.inf, True, "eta must be positive and finite"),
        ("omd-logbar", [[0.2, -0.6], [-0.6, 1.0]], 1e308, True, "did not converge"),
        ("omd-logbar", [[1.5e308, 1.5e308], [1.5e308, 1.5e308]], 0.1, False, "non-finite utility"),
        ("opthedge", [[0.7e308] * 3] * 2, 0.1, False, "non-finite utility"),
    ],
    ids=[
        "huge-rate",
        "overflowing-utility",
        "entropic-overflowing-utility",
        "entropic-overflowing-first",
        "entropic-nan-step",
        "entropic-infinite-rate",
        "log-barrier-huge-rate",
        "log-barrier-overflowing-utility",
        "entropic-overflowing-second-utility",
    ],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_play_task_kernel_raises_as_loop(algo, A, eta, free_first, message):
    # A task that _task_blocks hands to the kernel raises the loop's error.
    game = games.MatrixGame(A)
    task = (algo, game, [s.center() for s in game.sets], (eta, eta), 5, free_first)
    with pytest.raises((InvalidInputError, NumericError), match=message) as kernel:
        kernel_rows(*task)
    with pytest.raises((InvalidInputError, NumericError)) as oracle:
        loop_task(*task)
    assert repr(kernel.value) == repr(oracle.value)


INF = float("inf")
# Doubles that stress the projection's arithmetic: signed zeros, subnormals,
# small integers (exact ties), entries near 2**53 (from where subtracting 1
# can round away), infinities and NaN, besides any double.
STEP_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0, 0.5, INF, -INF]),
    st.integers(-3, 3).map(float),
    st.floats(2.0**52, 2.0**54) | st.floats(-(2.0**54), -(2.0**52)),
    st.floats(-(2.0**-1022), 2.0**-1022),
)


def step_outcome(step, anchor, g, eta):
    """The bytes of a step's result, or the text of its InvalidInputError."""
    try:
        return np.asarray(step(anchor, g, eta), dtype=float).tobytes()
    except InvalidInputError as exc:
        return str(exc)


@st.composite
def step_inputs(draw):
    """An anchor, a gradient and a rate of a two-action step; an entry drawn
    equal to the other makes ties."""
    a0, g0 = draw(STEP_FLOATS), draw(STEP_FLOATS)
    a1, g1 = draw(st.just(a0) | STEP_FLOATS), draw(st.just(g0) | STEP_FLOATS)
    return [a0, a1], [g0, g1], draw(STEP_FLOATS)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(step_inputs())
@example(([-0.0, 0.0], [-0.0, 0.0], 1.0))  # a tie of -0.0 and 0.0: the sort keeps the first
@example(([1.0, -0.0], [0.0, -0.0], 1.0))  # -0.0 less a zero threshold, clamped to 0.0
@example(([0.5, 0.5], [5e-324, 0.0], 1.0))  # a subnormal gap
@example(([2.0**53, 0.0], [0.0, 0.0], 1.0))  # u0 - 1.0 is still exact
@example(([0.0, 2.0**54], [0.0, 0.0], 1.0))  # u0 - 1.0 rounds to u0: no threshold
@example(([0.0, 0.0], [INF, 1.0], 0.1))
@example(([1.0, 0.0], [-INF, INF], 0.1))
def test_two_action_step_matches_ogd_step_bitwise(inputs):
    # The kernel's scalar step for two actions is _ogd_step (the list form of
    # project_simplex) byte for byte, and raises its error with its text.
    anchor, g, eta = inputs
    for a, b in ((anchor, g), (anchor[::-1], g[::-1])):
        want = step_outcome(harness._ogd_step, a, b, eta)
        assert step_outcome(harness._two_action_step, a, b, eta) == want


@pytest.mark.parametrize(
    "base, m, driver",
    [(BASE, 40, "_play_rows"), (KERNEL_BASES[2], 5, "_play_batch"), (KERNEL_BASES[2], 40, "_play_rows")],
    ids=["2x2-kernel", "3x3-batch", "3x3-long-kernel"],
)
def test_short_play_independent_arm_driver(monkeypatch, base, m, driver):
    # A 4-task cold arm is played by the driver that is faster on its shape
    # and task length (BATCH_MIN_TASKS): the kernel, whose two-action step is
    # the faster one, on 2x2 games; on 3x3 games one batch of short tasks,
    # and the kernel for longer ones.
    calls = []
    for name in ("_play_rows", "_play_batch"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a))
    game = {"family": "perturbed-base", "base": base, "delta": 0.02}
    run_experiment(small_config(T=4, m=m, init="cold", game=game))
    assert set(calls) == {driver}
    assert len(calls) == (4 if driver == "_play_rows" else 1)


def _choices(path):
    return next(f.allowed for f in harness.SCHEMA if f.path == path)


@st.composite
def play_path_configs(draw):
    """A small run config of SCHEMA rows, aimed at one driver: ``_play_batch``
    (a play-independent arm), ``_play_rows`` (recency self-play of any RVU
    learner without alternation) or any driver. Zero-sum and potential families, square and non-square games,
    every initializer and rate mode, and on zero-sum families every RVU
    learner, prediction and first prediction, drawn evenly; potential games
    take gd with the defaults. Also a number of tasks per block, or None for
    BATCH_BYTES as it is."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pick(options):
        return options[rng.integers(len(options))]

    def allowed(path, *skip):
        return pick([v for v in _choices(path) if v not in skip])

    family = allowed("game.family")
    potential = family == "potential-drift"
    m = int(rng.integers(1, 9))
    log_every = int(rng.integers(0, m + 2))
    game = {"family": family, "sequencing": allowed("game.sequencing")}
    if family == "perturbed-base":
        # Eighths make exact ties; delta perturbs them.
        game["base"] = (rng.integers(-8, 9, size=rng.integers(1, 5, size=2)) / 8).tolist()
        game["delta"] = pick([0.0, 0.02, 0.3])
    elif family == "lower-bound-prior":
        game["prior"] = rng.uniform(0.05, 1.0, size=rng.integers(2, 5)).tolist()
    else:
        game["dim"] = int(rng.integers(1, 5))
        game["alpha"] = pick([0.0, 0.05])
    learner = {
        "algo": allowed("learner.algo", "gd"),
        "eta": pick(["auto", 0.01, 0.1, 0.7]),
        "eta_mode": "fixed" if potential else allowed("learner.eta_mode"),
    }
    # a doubling run with zero predictions is a config error
    no_zero = ["zero"] * (learner["eta_mode"] == "doubling")
    learner["prediction"] = allowed("learner.prediction", *no_zero)
    learner["first_prediction"] = allowed("learner.first_prediction")
    learner["alternating"] = pick([False, True])
    if potential:  # gradient ascent, which reads no RVU learner field
        learner.update(algo="gd", prediction="recency", first_prediction="oracle", alternating=False)
    cfg = {
        "T": int(rng.integers(1, 7)),
        "m": m,
        "seed": int(rng.integers(1000)),
        "init": allowed("init", "ne-average") if potential else allowed("init"),
        "log_every": log_every,
        "metrics_every": int(rng.integers(0, m + 1)) if log_every else 0,
        "dump_strategies": pick([False, True]),
        "game": game,
        "learner": learner,
        "meta": {"similarity_report": pick([False, True])},
    }
    if pick([False, True]):
        cfg["meta"]["ewoo"] = {"D": rng.uniform(0.5, 3.0), "rho": rng.uniform(0.1, 1.0)}
    elif learner["eta_mode"] == "ewoo" and np.size(game.get("base", 0)) == 1:
        cfg["meta"]["ewoo"] = {"D": 1.0}  # without D, EWOO on a 1x1 game is a config error
    driver = "any" if potential else pick(["batch", "rows", "any"])
    if driver != "any":
        learner.update(prediction="recency", alternating=False)
    if driver == "batch":
        learner.update(algo="ogd", eta_mode="fixed", first_prediction="oracle")
        cfg.update(T=int(rng.integers(4, 7)), init=pick(["cold", "ne-average"]))
    return cfg, pick([None, 1, 2, 3])


def outputs_or_error(config):
    """``run_outputs`` of a run, or the error it raised."""
    try:
        return run_outputs(run_experiment(config))
    except (InvalidInputError, NumericError) as exc:
        return repr(exc)


def run_outputs(res):
    """Records, strategies, summaries and similarity stats of a run result
    as reprs."""
    sim = res.similarity
    return (
        [r.csv_row() for r in res.records],
        [None if r.strategy is None else r.strategy.tobytes() for r in res.records],
        repr(res.task_summaries),
        repr([None if v is None else np.asarray(v).tolist() for v in (sim.v_opt2, sim.v_kl)]),
        repr(sim.v_ne2_worst),
    )


def oracle_outputs(config):
    """``outputs_or_error`` of the per-round oracle: every task played by
    ``play_task`` round by round (no arm is batched, and ``_play_rows`` is
    ``loop_rows``) and summarized alone, its doubling
    rule applied to the learners' own histories, and folded into the meta
    state from the learners of its final attempt, as ``summary_row`` reads
    them."""
    latest = []
    real_play, real_record = harness.play_task, meta.EwooState.record
    free_first = ExperimentConfig.from_dict(config).first_prediction == "oracle"

    def play(game, learners, m, **kwargs):
        latest[:] = learners
        return real_play(game, learners, m, **kwargs)

    def learner_optima():
        return [
            external_regret(np.asarray(lrn.path[1:]), lrn.utility_array(), lrn.set)[1]
            for lrn in latest
        ]

    class LearnerFold(meta.Initializer):
        def observe(self, outcome):
            last = [np.asarray(lrn.path[-1]) for lrn in latest]
            if isinstance(latest[0], GDLearner):
                return super().observe(meta.TaskOutcome(optima=last, last_iterates=last))
            optima = learner_optima()
            super().observe(meta.TaskOutcome(optima=optima, last_iterates=last, nash=outcome.nash))

    def record(state, b_square, gamma):
        dist2 = sum(np.sum((o - lrn.init) ** 2) for o, lrn in zip(learner_optima(), latest))
        return real_record(state, 0.5 * float(dist2), gamma)

    def on_learners(rule):
        return lambda runs, eta: rule(learner_runs(latest), eta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_play_rows", loop_rows(latest, free_first))
        patch.setattr(harness, "doubling_trick_eta", on_learners(learners_module.doubling_trick_eta))
        patch.setattr(harness, "doubling_residual", on_learners(learners_module.doubling_residual))
        patch.setattr(harness, "BATCH_MIN_TASKS", ((float("inf"),) * 3,) * 2)
        patch.setattr(harness, "BATCH_BYTES", 1)
        patch.setattr(harness, "play_task", play)
        patch.setattr(harness, "Initializer", LearnerFold)
        patch.setattr(meta.EwooState, "record", record)
        return outputs_or_error(config)


def kernel_config(algo, base, first, eta_mode):
    """A warm-started recency run of ``algo`` on perturbed ``base`` games."""
    learner = {"algo": algo, "eta": 0.7, "eta_mode": eta_mode, "first_prediction": first}
    game = {"family": "perturbed-base", "base": base, "delta": 0.3}
    return small_config(T=3, m=6, log_every=2, metrics_every=2, game=game, learner=learner)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(play_path_configs())
@example((kernel_config("opthedge", KERNEL_BASES[0], "oracle", "doubling"), None))
@example((kernel_config("opthedge", KERNEL_BASES[1], "zero", "ewoo"), 2))
@example((kernel_config("opthedge", KERNEL_BASES[2], "zero", "doubling"), None))
@example((kernel_config("omd-logbar", KERNEL_BASES[0], "zero", "ewoo"), None))
@example((kernel_config("omd-logbar", KERNEL_BASES[1], "oracle", "doubling"), 1))
@example((kernel_config("omd-logbar", KERNEL_BASES[2], "oracle", "ewoo"), None))
def test_drivers_match_per_round_oracle(drawn):
    # run_experiment, with blocks of the drawn size, gives the bytes of the
    # per-round oracle. The two share the summaries and records, which
    # summary_row and round_logger check. Every task of recency self-play
    # without alternation is played by _play_rows or in a batch.
    config, block_tasks = drawn
    cfg = ExperimentConfig.from_dict(config)
    kernel_tasks = []
    with pytest.MonkeyPatch.context() as patch:
        if block_tasks is not None:
            dims = sum(s.dim for s in games.sample_game_sequence(cfg.game)[0].sets)
            patch.setattr(harness, "BATCH_BYTES", block_tasks * 8 * (2 * cfg.m + 1) * dims)
        for name, tasks in (("_play_rows", lambda *a: 1), ("_play_batch", lambda games, *a: len(games))):
            real = getattr(harness, name)
            patch.setattr(harness, name, lambda *a, _real=real, _n=tasks: kernel_tasks.append(_n(*a)) or _real(*a))
        got = outputs_or_error(config)
    assert got == oracle_outputs(config)
    if cfg.algo == "gd" or cfg.prediction != "recency" or cfg.alternating_updates:
        assert not kernel_tasks
    elif isinstance(got, tuple):  # the run ended; a doubling task may be played more than once
        assert sum(kernel_tasks) >= cfg.T
