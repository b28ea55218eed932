import contextlib
import copy
import csv
import errno
import io
import json
import os
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metagames import games, harness
from metagames.cli import main
from metagames.harness import SCHEMA

BASE_CONFIG = {
    "T": 4,
    "m": 25,
    "seed": 3,
    "game": {"family": "perturbed-base", "base": [[0.2, -0.6], [-0.6, 1.0]], "delta": 0.02},
    "learner": {"algo": "ogd", "eta": 0.05},
    "init": "ftl-average",
    "log_every": 5,
}


def write_config(tmp_path, extra=None):
    cfg = dict(BASE_CONFIG)
    if isinstance(extra, dict):
        cfg.update(extra)
    elif extra is not None:  # a config that is not an object
        cfg = extra
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def test_run_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "tasks.csv").exists()
    assert (out / "records.csv").exists()
    assert (out / "summary.json").exists()


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_bad_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"game": {"family": "unknown-family"}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "extra, path",
    [
        ({"learner": 5}, "config.learner"),
        ({"seed": "x"}, "config.seed"),
        ({"log_every": -3}, "config.log_every"),
        ({"game": {"family": "perturbed-base", "delta": "x"}}, "config.game.delta"),
        (
            {"learner": {"algo": "ogd", "eta": 0.05, "alternating": "no"}},
            "config.learner.alternating",
        ),
        (
            {
                "intit": "cold",
                "game": {"family": "perturbed-base", "dleta": 0.02},
                "learner": {"algo": "ogd", "etaa": 0.05},
            },
            "config.intit",
        ),
        ({"game": {"family": "lower-bound-prior", "prior": [0.5, -0.5, 1.0]}}, "config.game.prior"),
        ({"game": {"family": "lower-bound-prior", "prior": [0, 0, 0]}}, "config.game.prior"),
        ({"game": {"family": "lower-bound-prior", "prior": [[1, 1]]}}, "config.game.prior"),
        ({"game": {"family": "perturbed-base", "base": [[1.0]], "delta": -1}}, "config.game.delta"),
        ({"game": {"family": "potential-drift", "dim": 0}}, "config.game.dim"),
        ({"game": {"family": "potential-drift", "alpha": -0.5}}, "config.game.alpha"),
        ({"learner": {"algo": "ogd", "eta": float("inf")}}, "config.learner.eta"),
        ({"learner": {"algo": "ogd", "eta": float("nan")}}, "config.learner.eta"),
        ({"meta": {"ewoo": {"enabled": "yes"}}}, "config.meta.ewoo.enabled"),
        ({"learner": {"algo": "gd", "eta": 0.05}}, "config.learner.algo"),
        ({"learner": {"algo": "gd", "eta": 0.05, "eta_mode": "doubling"}}, "config.learner.algo"),
        ({"arms": 5}, "config.arms"),
        ({"arms": [{"name": "a"}, "b"]}, "config.arms[1]"),
        ({"arms": [{"name": "a"}, {"name": ["b"]}]}, "config.arms[1].name"),
        ({"arms": [{"name": "a"}, {"name": "a", "init": "cold"}]}, "config.arms[1].name"),
        ({"arms": [{"name": "a"}, {"name": "b"}], "checkpoints": 2}, "config.checkpoints"),
        ({"arms": [{"name": "a"}, {"name": "b"}], "checkpoints": [0]}, "config.checkpoints[0]"),
        ({"arms": [{"name": "a"}, {"name": "b"}], "checkpoints": [5]}, "config.checkpoints[0]"),
        ({"arms": [{"name": "a"}, {"name": "b"}], "checkpoints": []}, "config.checkpoints"),
        ({"arms": [{"name": "a"}, {"name": "b"}], "checkpoints": [2.5]}, "config.checkpoints[0]"),
        ({"arms": [{"name": "arm1"}, {}]}, "config.arms[1].name"),
        ({"arms": [{"name": "a"}, {"name": "b", "T": 2}], "checkpoints": [3]}, "config.checkpoints[0]"),
        ({"game": {"family": "perturbed-base", "base": [1, 2]}}, "config.game.base"),
        ({"game": {"family": "perturbed-base", "base": [[]]}}, "config.game.base"),
        ({"game": {"family": "perturbed-base", "base": [[1.0]], "sequencing": 5}}, "config.game.sequencing"),
        ({"game": {"family": 5}}, "config.game.family"),
        ({"init": "warm"}, "config.init"),
        ({"init": "custom-anchor"}, "config.init"),
        ({"learner": {"algo": "ogd", "eta": -0.1}}, "config.learner.eta"),
        ({"learner": {"algo": "ogd", "eta": 0}}, "config.learner.eta"),
        ({"game": {"family": "perturbed-base"}}, "config.game.base"),
        ({"game": {"family": "lower-bound-prior"}}, "config.game.prior"),
        (5, "config"),
        ([1], "config"),
        ("abc", "config"),
        ([1, 2], "config"),
        ({"T": 10**30}, "config.T"),
        ({"m": 10**14}, "config.m"),
        ({"game": {"family": "potential-drift", "dim": 10**30}, "learner": {"algo": "gd"}}, "config.game.dim"),
        ({"game": {"family": "potential-drift"}, "learner": {"algo": "ogd"}}, "config.learner.algo"),
        ({"game": {"family": "perturbed-base", "base": [[0.5]]}, "learner": {"eta_mode": "ewoo"}}, "config.meta.ewoo.D"),
    ],
)
def test_run_mistyped_field_exits_2(tmp_path, capsys, extra, path):
    cfg = write_config(tmp_path, extra)
    # a config that is not an object is rejected before --seed is applied to it
    seed = [] if isinstance(extra, dict) else ["--seed", "3"]
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:")
    assert len(err.strip().splitlines()) == 1


def test_run_alternating_prediction_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"learner": {"algo": "ogd", "eta": 0.05, "prediction": "alternating"}}
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "learner.prediction" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["opthedge", "omd-logbar"])
def test_run_doubling_from_boundary_init(tmp_path, algo):
    # ftl-average starts task 2 at a vertex, where the entropic and
    # log-barrier Bregman terms are undefined; the doubling rule needs none
    cfg = write_config(tmp_path, {"learner": {"algo": algo, "eta": 0.9, "eta_mode": "doubling"}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def floor_rates(cfg, eta0):
    """Each task's rate in a doubling run whose residual stays positive: the
    previous task's rate (eta0 for the first) halved until it is at or below
    the task's auto rate 1/(4L)."""
    rates, eta = [], eta0
    for game in games.sample_game_sequence(harness.ExperimentConfig.from_dict(cfg).game):
        while eta > harness._default_eta(game, 2):
            eta /= 2.0
        rates.append(eta)
    return rates


def task_rates(path):
    with open(path, newline="") as fh:
        return [float(row["eta"]) for row in csv.DictReader(fh)]


@pytest.mark.parametrize(
    "game",
    [
        BASE_CONFIG["game"],
        {"family": "lower-bound-prior", "prior": [0.5, 0.3, 0.2]},
    ],
)
def test_run_doubling_ends_at_the_auto_rate(tmp_path, game):
    # On these games, log-barrier OMD with a zero first prediction keeps the
    # local RVU residual positive however small the rate, so the rate is
    # halved down to the task's auto rate and no further.
    learner = {"algo": "omd-logbar", "eta": 0.5, "eta_mode": "doubling", "first_prediction": "zero"}
    extra = {"T": 2, "m": 10, "game": game, "learner": learner}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, extra)), "--out", str(out)]) == 0
    rates = task_rates(out / "tasks.csv")
    assert rates == floor_rates({**BASE_CONFIG, **extra}, 0.5)
    assert rates[0] < 0.5


def test_doubling_with_zero_predictions_ends_at_the_auto_rate(tmp_path):
    # Zero predictions leave a doubling run's residual positive at every
    # rate, so a run, an arm or a sweep point halves down to the auto rate.
    zero = {"algo": "ogd", "eta": 0.5, "eta_mode": "doubling", "prediction": "zero"}
    want = floor_rates({**BASE_CONFIG, "learner": zero}, 0.5)
    arms = [{"name": "cold", "init": "cold"}, {"name": "zero", "learner": zero}]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"learner.eta_mode": ["fixed", "doubling"]}))
    commands = [
        ("run", {"learner": zero}, "tasks.csv"),
        ("run", {"arms": arms}, "tasks_zero.csv"),
        ("sweep", {"learner": {**zero, "eta_mode": "fixed"}}, None),
    ]
    for i, (command, extra, tasks) in enumerate(commands):
        out = tmp_path / f"out{i}"
        argv = [command, "--config", str(write_config(tmp_path, extra)), "--out", str(out)]
        assert main(argv + ["--grid", str(grid)] * (command == "sweep")) == 0
        if tasks:
            assert task_rates(out / tasks) == want
    assert len(json.loads((out / "sweep.json").read_text())) == 2


def test_run_arms_comparison(tmp_path):
    cfg = write_config(
        tmp_path,
        {"arms": [{"name": "meta", "init": "ftl-average"}, {"name": "cold", "init": "cold"}]},
    )
    out = tmp_path / "cmp"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    table = json.loads((out / "comparison.json").read_text())
    assert table["arms"] == ["meta", "cold"]
    assert (out / "tasks_meta.csv").exists()


POTENTIAL_CONFIG = {
    "T": 2,
    "m": 5,
    "seed": 0,
    "game": {"family": "potential-drift", "dim": 2, "alpha": 0.01},
    "learner": {"algo": "gd", "eta": 0.05},
    "init": "last-iterate",
}


def test_potential_drift_run_arms_and_sweep(tmp_path):
    cfg = tmp_path / "pot.json"
    cfg.write_text(
        json.dumps(
            dict(POTENTIAL_CONFIG, arms=[{"name": "last"}, {"name": "cold", "init": "cold"}])
        )
    )
    out = tmp_path / "cmp"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "comparison.json").read_text())["metric"] == "negap_last"

    cfg.write_text(json.dumps(POTENTIAL_CONFIG))
    single = tmp_path / "single"
    assert main(["run", "--config", str(cfg), "--out", str(single)]) == 0
    assert list(json.loads((single / "summary.json").read_text())) == ["negap_last"]

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"learner.eta": [0.1, 0.01]}))
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--grid", str(grid), "--out", str(sweep)]) == 0
    assert {r["metric"] for r in json.loads((sweep / "sweep.json").read_text())} == {"negap_last"}


def test_run_negative_eta_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"learner": {"algo": "ogd", "eta": -0.1}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.learner.eta:") and "-0.1" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("init", ["ftl-average", "cold"])
def test_run_huge_eta_exits_2(tmp_path, capsys, init):
    # A step too large for float precision leaves the simplex projection no
    # threshold, task by task (ftl-average) and in a batch (cold, T = 4).
    cfg = write_config(tmp_path, {"learner": {"algo": "ogd", "eta": 1e308}, "init": init})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: simplex projection") and len(err.splitlines()) == 1


@pytest.mark.parametrize("sequencing", ["random", "sorted", "alternating"])
def test_run_huge_delta_is_quiet(tmp_path, capsys, sequencing):
    # The ordering keys are norms of noise / delta, which cannot overflow.
    game = dict(BASE_CONFIG["game"], delta=1e300, sequencing=sequencing)
    cfg = write_config(tmp_path, {"game": game})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_run_overflowing_delta_exits_2(tmp_path, capsys):
    game = dict(BASE_CONFIG["game"], delta=1e308)
    cfg = write_config(tmp_path, {"game": game})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.game.delta:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "ewoo, field",
    [
        ({"D": 0}, "D"),
        ({"D": "x"}, "D"),
        ({"D": 1e308}, "D"),
        ({"D": 1e-320}, "D"),
        ({"rho": 0}, "rho"),
    ],
)
def test_run_bad_ewoo_radius_exits_2(tmp_path, capsys, ewoo, field):
    cfg = write_config(tmp_path, {"meta": {"ewoo": {"enabled": True, **ewoo}}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config.meta.ewoo.{field}" in err
    assert len(err.strip().splitlines()) == 1


def no_thread(self):
    raise AssertionError("a thread was started")


def test_sweep_subcommand(tmp_path, monkeypatch):
    # The points run in turn on this thread, each as a run on its own would.
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    results = []
    real_run = harness.run_experiment
    monkeypatch.setattr(
        harness, "run_experiment", lambda cfg: results.append(real_run(cfg)) or results[-1]
    )
    cfg = write_config(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps({"learner.eta": [0.1, 0.01], "learner.eta_mode": ["fixed", "doubling"]})
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--grid", str(grid), "--out", str(out)]) == 0
    rows = json.loads((out / "sweep.json").read_text())
    assert len(rows) == len(results) == 4
    for row, res in zip(rows, results):
        alone = copy.deepcopy(BASE_CONFIG)
        for key, val in row["params"].items():
            _put(alone, key, val)
        want = real_run(alone)
        assert repr(res.task_summaries) == repr(want.task_summaries)
        assert {k: c.tobytes() for k, c in res.records.items()} == {k: c.tobytes() for k, c in want.records.items()}
        assert row["task_mean"] == float(np.mean(want.task_column("dualgap_avg")))


@pytest.mark.parametrize(
    "grid, key",
    [
        ({"seed": 3}, "grid.seed"),
        ({"seed": []}, "grid.seed"),
        ({"init": "cold"}, "grid.init"),
        ({"T.x": [1]}, "grid.T.x"),
        ({"learner.eta": [0.1, -1]}, "config.learner.eta"),
    ],
)
def test_sweep_bad_grid_exits_2(tmp_path, capsys, grid, key):
    cfg = write_config(tmp_path)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--grid", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}:")
    assert len(err.strip().splitlines()) == 1
    # every combination is checked before any runs
    assert not out.exists()


def test_plot_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    fig = tmp_path / "fig.svg"
    assert main(["plot", str(out / "records.csv"), "-o", str(fig)]) == 0
    assert fig.read_text().startswith("<svg")


def test_plot_unknown_column_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    fig = tmp_path / "fig.svg"
    assert main(["plot", str(out / "records.csv"), "-o", str(fig), "--column", "nope"]) == 2
    err = capsys.readouterr().err
    assert "'nope'" in err and "regret_cum" in err
    assert not fig.exists()


@pytest.mark.parametrize("logy", [False, True])
def test_plot_gap_column_skips_unmeasured_rounds(tmp_path, monkeypatch, capsys, logy):
    # Gaps are measured every metrics_every rounds and are NaN on the other
    # logged rounds: the plot keeps each measured point at its logged-step
    # index, and a column with no finite value is a config error.
    cfg = write_config(tmp_path, {"log_every": 2, "metrics_every": 10})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    records, fig = out / "records.csv", tmp_path / "fig.svg"
    plotted, real_emit = [], harness.emit_plot

    def emit_plot(series, *args, **kwargs):
        plotted.extend(series)
        return real_emit(series, *args, **kwargs)

    monkeypatch.setattr(harness, "emit_plot", emit_plot)
    assert main(["plot", str(records), "-o", str(fig), "--column", "dualgap"] + ["--logy"] * logy) == 0
    assert "nan" not in fig.read_text()
    rows = [line.split(",") for line in records.read_text().splitlines()[1:]]
    for k, series in enumerate(plotted):
        mine = [row for row in rows if row[3] == str(k)]
        steps = [i for i, row in enumerate(mine) if row[5] != "nan"]
        assert 0 < len(steps) < len(mine)
        assert series["xs"] == steps and series["ys"] == [float(mine[i][5]) for i in steps]
    assert len(plotted) == 2
    records.write_text("task,player,regret_cum,dualgap\n0,0,0.5,nan\n0,1,0.2,nan\n")
    fig.unlink()
    capsys.readouterr()
    assert main(["plot", str(records), "-o", str(fig), "--column", "dualgap"]) == 2
    assert capsys.readouterr().err.startswith("config error: --column:")
    assert not fig.exists()


@pytest.mark.parametrize("row", ["0,0,abc", "0", "0,0,1.5,7"])
def test_plot_malformed_records_exits_2(tmp_path, capsys, row):
    records = tmp_path / "records.csv"
    records.write_text(f"task,player,regret_cum\n0,0,0.5\n{row}\n")
    assert main(["plot", str(records), "-o", str(tmp_path / "fig.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: records.csv:3:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("kind", ["not-utf8", "directory", "missing"])
def test_plot_unreadable_records_exits_2(tmp_path, capsys, kind):
    records = tmp_path / "records.csv"
    if kind == "not-utf8":
        records.write_bytes(b"\xff\xfe task,player\n")
    elif kind == "directory":
        records.mkdir()
    assert main(["plot", str(records), "-o", str(tmp_path / "fig.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(records) in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "fig.svg").exists()


def test_report_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "rep"
    assert main(["report", "--out", str(out), "--config", str(cfg)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert "rvu_audit" in rep
    assert rep["rvu_audit"]["x"]["rvu_slack"] >= -1e-8


def test_report_default_config(tmp_path):
    out = tmp_path / "rep2"
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_ne_average_on_a_tiny_base_starts_at_its_equilibrium(tmp_path):
    # Play is scale-free under the auto rate, and so are the saddle points
    # the NE anchors come from: a base of entries near 1e-10 plays as the
    # unscaled base, from its equilibrium on from task 1.
    base = np.array([[0.3, -0.2], [-0.5, 0.4]])
    strategies = []
    for scale in (1.0, 1e-10):
        game = {"family": "perturbed-base", "base": (base * scale).tolist(), "delta": 0.0}
        extra = {"T": 3, "m": 5, "init": "ne-average", "learner": {"algo": "ogd", "eta": "auto"}, "game": game}
        out = tmp_path / f"out{scale}"
        argv = ["run", "--config", str(write_config(tmp_path, extra)), "--out", str(out), "--dump-strategies"]
        assert main(argv) == 0
        strategies.append(json.loads((out / "records.csv.strategies.json").read_text()))
    unscaled, tiny = strategies
    assert sorted(tiny) == sorted(unscaled)
    for key in unscaled:
        np.testing.assert_allclose(tiny[key], unscaled[key], atol=1e-9)
    np.testing.assert_allclose(tiny["1:5:0"], [9 / 14, 5 / 14], atol=1e-9)


@pytest.mark.parametrize("command", ["run", "sweep", "report"])
@pytest.mark.parametrize("where", ["file", "under-file"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, command, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker if where == "file" else blocker / "sub"
    argv = [command, "--out", str(out)]
    if command != "report":
        argv += ["--config", str(write_config(tmp_path))]
    if command == "sweep":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"seed": [1, 2]}))
        argv += ["--grid", str(grid)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out}: ")
    assert len(err.strip().splitlines()) == 1
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("where", ["directory", "under-file"])
def test_plot_to_a_path_that_cannot_be_a_file_exits_2(tmp_path, capsys, where):
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    fig = out if where == "directory" else out / "tasks.csv" / "fig.svg"
    assert main(["plot", str(out / "records.csv"), "-o", str(fig)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {fig}: ")
    assert len(err.strip().splitlines()) == 1


def fail_after_ten_bytes(monkeypatch, name):
    """Make writing a file called ``name`` stop with ENOSPC after 10 bytes."""
    real = Path.write_text

    def write_text(self, text, *args, **kwargs):
        if self.name != name:
            return real(self, text, *args, **kwargs)
        real(self, text[:10], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", write_text)


@pytest.mark.parametrize("command", ["run", "plot"])
def test_write_that_fails_part_way_exits_2_and_leaves_no_file(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    if command == "run":
        path = out / "records.csv"
        argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(out)]
    else:
        assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        path = tmp_path / "fig.svg"
        argv = ["plot", str(out / "records.csv"), "-o", str(path)]
    capsys.readouterr()
    fail_after_ten_bytes(monkeypatch, path.name)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"output error: {path}: {os.strerror(errno.ENOSPC)}\n"
    assert not path.exists()


def test_rerun_into_one_directory_writes_fresh_files(tmp_path):
    # A second run into the same --out leaves the same bytes, and an output
    # that is a symlink is replaced by a file, not written through.
    cfg = write_config(tmp_path, {"dump_strategies": True})
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    first = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(first) == ["records.csv", "records.csv.strategies.json", "summary.json", "tasks.csv"]
    target = tmp_path / "target.csv"
    target.write_text("kept")
    (out / "tasks.csv").unlink()
    (out / "tasks.csv").symlink_to(target)
    assert main(argv) == 0
    assert {path.name: path.read_bytes() for path in out.iterdir()} == first
    assert not (out / "tasks.csv").is_symlink()
    assert target.read_text() == "kept"


# Generated configs: valid SCHEMA rows on small runs (T <= 4, m <= 10, games
# of at most 3x3), then at most one field broken.
_SMALL = {"T": 4, "m": 10, "game.dim": 3}
_BLOCKS = ("game", "learner", "meta", "meta.ewoo")


def _valid(draw, f):
    """A value that passes SCHEMA row ``f`` on its own."""
    if f.kind == "str":
        return draw(st.sampled_from(f.allowed))
    if f.kind == "bool":
        return draw(st.booleans())
    if f.kind == "matrix":
        dx, dy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        entry = st.floats(-10, 10)
        return draw(st.lists(st.lists(entry, min_size=dy, max_size=dy), min_size=dx, max_size=dx))
    if f.kind == "vector":
        return draw(st.lists(st.floats(0.01, 10), min_size=1, max_size=3))
    op, bound = f.allowed.split()
    if f.kind == "int":
        low = int(bound)
        return draw(st.integers(low, _SMALL.get(f.path, low + 3)))
    if f.default == "auto" and draw(st.booleans()):
        return "auto"
    if op == ">=" and draw(st.booleans()):
        return float(bound)
    return 10.0 ** draw(st.floats(-3, 300))  # every magnitude a float can hold


def _invalid(draw, f):
    """A value that breaks SCHEMA row ``f``: a wrong type, or out of range."""
    if draw(st.booleans()) and f.kind in ("int", "float", "str"):
        if f.kind == "str":
            return "bogus"
        bound = float(f.allowed.split()[1])
        return int(bound) - 1 if f.kind == "int" else bound - 0.5
    return draw(st.sampled_from(["x", [1, "a"], {"k": 1}, None, 1.5, -7, [[1, 2], [3]]]))


def _put(cfg, path, value):
    *blocks, key = path.split(".")
    for block in blocks:
        cfg = cfg.setdefault(block, {})
    cfg[key] = value


@st.composite
def valid_configs(draw):
    """A run config of SCHEMA rows: every required row and the family's matrix
    or prior, the other rows at random. A positive metrics_every comes with
    a positive log_every, since gaps are measured on logged rounds only, and
    potential-drift with gd and the RVU learner fields at their defaults."""
    family = draw(st.sampled_from(next(f.allowed for f in SCHEMA if f.path == "game.family")))
    needed = {"perturbed-base": "game.base", "lower-bound-prior": "game.prior"}.get(family)
    cfg = {"game": {"family": family}}
    for f in SCHEMA:
        if f.path != "game.family" and (f.default is ... or f.path == needed or draw(st.booleans())):
            _put(cfg, f.path, _valid(draw, f))
    if cfg.get("metrics_every", 0) and not cfg.get("log_every", 0):
        cfg["log_every"] = draw(st.integers(1, 3))
    learner = cfg.setdefault("learner", {})
    if family == "potential-drift":  # gradient ascent reads no RVU learner field
        learner["algo"] = "gd"
        for key in ("prediction", "first_prediction", "alternating"):
            learner.pop(key, None)
    return cfg


@st.composite
def generated_configs(draw):
    """A valid config, then one mutation or none."""
    cfg = draw(valid_configs())
    mutation = draw(st.sampled_from(["none", "field", "unknown", "block"]))
    if mutation == "field":
        f = draw(st.sampled_from(SCHEMA))
        _put(cfg, f.path, _invalid(draw, f))
    elif mutation == "unknown":
        block = draw(st.sampled_from(("",) + _BLOCKS))
        _put(cfg, f"{block}.bogus".lstrip("."), 1)
    elif mutation == "block":
        _put(cfg, draw(st.sampled_from(_BLOCKS)), draw(st.sampled_from([5, "x", [], None])))
    return cfg


def _exits_cleanly(command, files):
    """Write ``files`` (name -> JSON object) to a temporary directory and run
    ``command`` there; it must end in exit 0, 2 or 3, never a traceback, and
    an error is one stderr line. Warnings, which a run would print on stderr,
    are raised as errors."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            with open(f"{tmp}/{name}", "w") as fh:
                json.dump(obj, fh)
        argv = [a.replace("{tmp}", tmp) for a in command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(generated_configs())
def test_generated_configs_exit_cleanly(cfg):
    _exits_cleanly(
        ["run", "--config", "{tmp}/config.json", "--out", "{tmp}/out"], {"config.json": cfg}
    )


@st.composite
def generated_arm_configs(draw):
    """A valid config with an ``arms`` list of 2-3 objects of SCHEMA-row
    overrides and optional checkpoints, then one mutation of an arm, of the
    ``arms`` list or of the checkpoints, or none."""
    cfg = draw(valid_configs())
    cfg.pop("metrics_every", None)  # valid only with a matching log_every
    arms = []
    for i in range(draw(st.integers(2, 3))):
        arm = {"name": f"arm{i}"} if draw(st.booleans()) else {}
        for f in draw(st.lists(st.sampled_from(SCHEMA), max_size=2)):
            _put(arm, f.path, _valid(draw, f))
        arms.append(arm)
    cfg["arms"] = arms
    if draw(st.booleans()):
        cfg["checkpoints"] = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    i = draw(st.integers(0, len(arms) - 1))
    mutation = draw(
        st.sampled_from(["none", "field", "unknown", "name", "arm", "arms", "checkpoints"])
    )
    if mutation == "field":
        f = draw(st.sampled_from(SCHEMA))
        _put(arms[i], f.path, _invalid(draw, f))
    elif mutation == "unknown":
        arms[i]["bogus"] = 1
    elif mutation == "name":
        for arm in arms:
            arm["name"] = draw(st.sampled_from([5, None, "twin"]))
    elif mutation == "arm":
        arms[i] = draw(st.sampled_from([5, "x", [], None]))
    elif mutation == "arms":
        cfg["arms"] = draw(st.sampled_from([[], [{}], {}, "x", None]))
    elif mutation == "checkpoints":
        cfg["checkpoints"] = draw(st.sampled_from([[], [0], [99], ["a"], [True], 3, None]))
    return cfg


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(generated_arm_configs())
def test_generated_arm_configs_exit_cleanly(cfg):
    _exits_cleanly(
        ["run", "--config", "{tmp}/config.json", "--out", "{tmp}/out"], {"config.json": cfg}
    )


@st.composite
def generated_sweeps(draw):
    """A valid config and a grid of 1-2 SCHEMA rows with 1-2 values each,
    then one mutation of a grid value, a value list, the grid or a grid key,
    or none."""
    cfg = draw(valid_configs())
    cfg.pop("metrics_every", None)  # valid only with a matching log_every
    rows = draw(
        st.lists(st.sampled_from(SCHEMA), min_size=1, max_size=2, unique_by=lambda f: f.path)
    )
    grid = {f.path: [_valid(draw, f) for _ in range(draw(st.integers(1, 2)))] for f in rows}
    mutation = draw(st.sampled_from(["none", "value", "list", "grid", "key"]))
    if mutation == "value":
        f = rows[0]
        grid[f.path][0] = _invalid(draw, f)
    elif mutation == "list":
        grid[rows[0].path] = draw(st.sampled_from([[], 5, "x", None, {}]))
    elif mutation == "grid":
        grid = draw(st.sampled_from([{}, [], 5, None]))
    elif mutation == "key":
        grid[draw(st.sampled_from(["game.family.x", "bogus", "learner.bogus", "T.x"]))] = [1]
    return cfg, grid


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(generated_sweeps())
def test_generated_sweeps_exit_cleanly(sweep):
    cfg, grid = sweep
    _exits_cleanly(
        "sweep --config {tmp}/config.json --grid {tmp}/grid.json --out {tmp}/out".split(),
        {"config.json": cfg, "grid.json": grid},
    )
