import json

import pytest

from metagames.cli import main

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


@pytest.mark.parametrize(
    "game",
    [
        BASE_CONFIG["game"],
        {"family": "lower-bound-prior", "prior": [0.5, 0.3, 0.2]},
    ],
)
def test_run_doubling_at_restart_cap_exits_3(tmp_path, capsys, game):
    # With zero predictions the local RVU residual stays positive however
    # small the rate, so every halving is followed by another.
    learner = {"algo": "ogd", "eta": 0.5, "eta_mode": "doubling", "prediction": "zero"}
    cfg = write_config(tmp_path, {"T": 2, "m": 10, "game": game, "learner": learner})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: task 0: doubling trick gave up after 60 restarts")
    assert "residual=" in err and "eta=" in err
    assert len(err.strip().splitlines()) == 1


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


def test_sweep_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"learner.eta": [0.1, 0.01]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--grid", str(grid), "--out", str(out)]) == 0
    rows = json.loads((out / "sweep.json").read_text())
    assert len(rows) == 2


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
