"""Command-line interface.

Subcommands: ``run`` (one experiment or arm comparison), ``sweep`` (grid of
config overrides), ``plot`` (records CSV to SVG), ``report`` (similarity
stats and bound-slack audit). Exit codes: 0 ok, 2 config error, invalid
input (``ConfigError``, ``InvalidInputError``, ``DomainError``) or an output
path that cannot be written (``OSError``), 3 numeric error (``NumericError``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from metagames import harness
from metagames.errors import ConfigError, DomainError, InvalidInputError, NumericError
from metagames.games import MatrixGame
from metagames.learners import external_regret, rvu_terms

DEFAULT_REPORT_CONFIG = {
    "T": 20,
    "m": 100,
    "seed": 0,
    "game": {"family": "perturbed-base", "base": [[0.2, -0.6], [-0.6, 1.0]], "delta": 0.02},
    "init": "ftl-average",
    "learner": {"algo": "ogd", "eta": "auto"},
}


def _load_config(path, overrides):
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config: expected an object, got {obj!r}")
    obj.update({key: val for key, val in overrides.items() if val is not None})
    return obj


def _set_dotted(obj, key, val):
    """Set ``obj[a][b][c] = val`` for the grid key ``a.b.c``, creating objects."""
    *parents, last = key.split(".")
    for i, p in enumerate(parents):
        obj = obj.setdefault(p, {})
        if not isinstance(obj, dict):
            raise ConfigError(f"grid.{key}: config.{'.'.join(parents[:i + 1])} is not an object")
    obj[last] = val


def _cmd_run(args):
    flags = {"seed": args.seed, "T": args.T, "m": args.m, "dump_strategies": args.dump_strategies}
    obj = _load_config(args.config, flags)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if "arms" in obj:
        results, table = harness.compare_arms(obj)
        harness.write_output(out / "comparison.json", json.dumps(table, indent=2, sort_keys=True) + "\n")
        for name, res in results.items():
            harness.write_task_summaries(out / f"tasks_{name}.csv", res.task_summaries)
            if res.config.log_every:
                harness.write_records_csv(
                    out / f"records_{name}.csv", res.records, res.config.dump_strategies
                )
        for row in table["rows"]:
            gaps = ", ".join(f"{n}={g:.6g}" for n, g in zip(table["arms"], row["gaps"]))
            print(f"checkpoint {row['checkpoint']}: {gaps}")
        return 0
    res = harness.run_experiment(obj)
    harness.write_task_summaries(out / "tasks.csv", res.task_summaries)
    if res.config.log_every:
        harness.write_records_csv(out / "records.csv", res.records, res.config.dump_strategies)
    summary_keys = [k for k in harness.GAP_KEYS if k in res.task_summaries[0]]
    means = {k: float(np.mean(res.task_column(k))) for k in summary_keys}
    harness.write_output(out / "summary.json", json.dumps(means, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}/tasks.csv ({len(res.task_summaries)} tasks); task means: {means}")
    return 0


def _cmd_sweep(args):
    obj = _load_config(args.config, {})
    try:
        grid = json.loads(Path(args.grid).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"bad grid file: {exc}") from exc
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("grid file must map dotted config keys to value lists")
    keys = sorted(grid)
    for k in keys:
        if not isinstance(grid[k], list) or not grid[k]:
            raise ConfigError(f"grid.{k}: expected a non-empty list of values, got {grid[k]!r}")
    combos = list(itertools.product(*[grid[k] for k in keys]))
    configs = []
    for combo in combos:
        cfg = json.loads(json.dumps(obj))
        for k, v in zip(keys, combo):
            _set_dotted(cfg, k, v)
        configs.append(harness.ExperimentConfig.from_dict(cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = [harness.run_experiment(cfg) for cfg in configs]
    rows = []
    for combo, res in zip(combos, results):
        key = harness.gap_key(res.task_summaries[0])
        rows.append(
            {
                "params": dict(zip(keys, combo)),
                "metric": key,
                "task_mean": float(np.mean(res.task_column(key))),
            }
        )
    harness.write_output(out / "sweep.json", json.dumps(rows, indent=2, sort_keys=True) + "\n")
    for row in rows:
        print(f"{row['params']} -> {row['metric']}={row['task_mean']:.6g}")
    return 0


def _cmd_plot(args):
    path = Path(args.records)
    try:
        lines = path.read_text().rstrip().splitlines()
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read records file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"records file {path} is not UTF-8 (byte {exc.start})") from exc
    header = lines[0].split(",") if lines else []
    cols = {name: idx for idx, name in enumerate(header)}
    for needed in ("task", "player", "regret_cum"):
        if needed not in cols:
            raise ConfigError(f"records file lacks a {needed!r} column")
    if args.column not in cols:
        raise ConfigError(
            f"--column: {args.column!r} is not a column of {path.name}; "
            f"columns: {', '.join(header)}"
        )
    steps, series_map = {}, {}
    for lineno, line in enumerate(lines[1:], start=2):
        f = line.split(",")
        if len(f) != len(header):
            raise ConfigError(f"{path.name}:{lineno}: expected {len(header)} fields, got {len(f)}")
        cell = f[cols[args.column]]
        try:
            y = float(cell)
        except ValueError:
            raise ConfigError(f"{path.name}:{lineno}: not a number: {cell!r}") from None
        player = f[cols["player"]]
        step = steps[player] = steps.get(player, -1) + 1  # logged-step index per player
        if math.isfinite(y):  # a gap is NaN on the logged rounds it was not measured on
            entry = series_map.setdefault(player, {"xs": [], "ys": []})
            entry["xs"].append(step)
            entry["ys"].append(y)
    if not series_map:
        raise ConfigError(f"--column: {path.name} has no finite {args.column!r} value")
    series = [
        {"label": f"player {p}", "xs": s["xs"], "ys": s["ys"]}
        for p, s in sorted(series_map.items())
    ]
    harness.emit_plot(
        series,
        {"title": path.name, "xlabel": "logged step", "ylabel": args.column, "logy": args.logy},
        out=args.out,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args):
    obj = _load_config(args.config, {}) if args.config else json.loads(json.dumps(DEFAULT_REPORT_CONFIG))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    res = harness.run_experiment(obj)
    report = {
        "config": obj,
        "similarity": {
            "v_opt2": None
            if res.similarity.v_opt2 is None
            else [float(v) for v in res.similarity.v_opt2],
        },
        "tasks": len(res.task_summaries),
    }
    # Bound-slack audit on a fresh single task of the same family.
    game = res.games[0]
    if isinstance(game, MatrixGame):
        eta = harness._default_eta(game, 2)
        xl = harness.make_learner("ogd", game.sets[0], eta)
        yl = harness.make_learner("ogd", game.sets[1], eta)
        harness.play_task(game, [xl, yl], res.config.m)
        audit = {}
        for name, lrn, sset in (("x", xl, game.sets[0]), ("y", yl, game.sets[1])):
            reg, opt = external_regret(np.asarray(lrn.path[1:]), lrn.utility_array(), sset)
            breg, pred, path = rvu_terms(lrn, opt)
            rhs = breg / eta + eta * pred - path / (8.0 * eta)
            audit[name] = {"regret": reg, "rvu_rhs": rhs, "rvu_slack": rhs - reg}
        report["rvu_audit"] = audit
    harness.write_output(out / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}/report.json")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="metagames")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment or an arm comparison")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--T", type=int, default=None)
    p_run.add_argument("--m", type=int, default=None)
    p_run.add_argument("--dump-strategies", action="store_true", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a config grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", required=True)
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="plot a records CSV")
    p_plot.add_argument("records")
    p_plot.add_argument("-o", "--out", required=True)
    p_plot.add_argument("--column", default="regret_cum")
    p_plot.add_argument("--logy", action="store_true")
    p_plot.set_defaults(func=_cmd_plot)

    p_report = sub.add_parser("report", help="similarity stats and bound-slack audit")
    p_report.add_argument("--out", required=True)
    p_report.add_argument("--config", default=None)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output path that cannot be made or written
        print(f"output error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
