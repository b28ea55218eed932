"""Byte-level golden outputs for a fixed set of configs.

Each ``run_experiment`` config's ``write_task_summaries`` and
``write_records_csv`` output (plus the strategy sidecar and the similarity
statistics where a config produces them) is hashed with SHA-256 and compared
with ``data/golden_digests.json``. So are the records and summary of
``run_meta_stackelberg`` runs, the paths and rate of ``holder_run`` runs, the
path, norms and bound of ``weak_mvi_run`` runs, and the values of the
accounting routines (regret, weighted and proxy regret, RVU terms, per-action
swap regrets, NE gaps and the ``report`` audit) on seeded runs, the
histories of OptAdaGrad under drifting diagonals on a simplex and a box, and
Stackelberg runs that repeat a task's game and attacker script. A
refactor must keep every digest. To re-record after an intended change of
numbers, run ``PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]``,
which re-records only the named entries and prints which digests changed;
with no names it re-records all of them.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from metagames import cli
from metagames.games import MatrixGame, NormalFormGame, SecurityGame, VIOperator
from metagames.geometry import Box, Simplex
from metagames.harness import (
    make_learner,
    play_task,
    run_experiment,
    write_records_csv,
    write_task_summaries,
)
from metagames.holder_vi import (
    amplitude_rotation_operator,
    componentwise_power_operator,
    holder_run,
    weak_mvi_run,
)
from metagames.learners import (
    SECONDARY_ANCHOR,
    AlphaWeights,
    OMDLearner,
    OptAdaGradLearner,
    PreconditionerSchedule,
    alpha_regret,
    doubling_trick_eta,
    external_regret,
    rvu_terms,
)
from metagames.metrics import ne_gap
from metagames.stackelberg import StackelbergConfig, build_extreme_points, run_meta_stackelberg
from metagames.swapregret import SwapWrapper, boundary_offset_comparator

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"
BASE = [[0.2, -0.6], [-0.6, 1.0]]


def _matrix(**overrides):
    cfg = {
        "T": 4,
        "m": 30,
        "seed": 5,
        "game": {"family": "perturbed-base", "base": BASE, "delta": 0.05},
        "learner": {"algo": "ogd", "eta": 0.05},
        "init": "ftl-average",
    }
    cfg.update(overrides)
    return cfg


CONFIGS = {
    "ogd-fixed-logged": _matrix(log_every=3, metrics_every=6, dump_strategies=True),
    # A play-independent arm (cold start, a per-game auto rate) with logged records.
    "ogd-cold-logged": _matrix(
        T=6,
        init="cold",
        learner={"algo": "ogd", "eta": "auto"},
        log_every=3,
        metrics_every=6,
        dump_strategies=True,
    ),
    "ogd-doubling": _matrix(
        learner={"algo": "ogd", "eta": 0.9, "eta_mode": "doubling"}, log_every=10
    ),
    "ogd-ewoo": _matrix(learner={"algo": "ogd", "eta": "auto", "eta_mode": "ewoo"}),
    # A non-square game at a rate that clips coordinates to 0, so later tasks
    # start on the simplex boundary.
    "ogd-last-iterate-2x3": _matrix(
        T=5,
        seed=7,
        game={
            "family": "perturbed-base",
            "base": [[0.5, -1.0, 0.3], [-0.4, 0.8, -0.9]],
            "delta": 0.1,
        },
        learner={"algo": "ogd", "eta": 0.5},
        init="last-iterate",
        log_every=4,
        metrics_every=8,
        dump_strategies=True,
    ),
    "ne-average-similarity": {
        "T": 8,
        "m": 12,
        "seed": 3,
        "game": {"family": "lower-bound-prior", "prior": [0.5, 0.25, 0.25]},
        "learner": {"algo": "ogd", "eta": "auto"},
        "init": "ne-average",
        "meta": {"similarity_report": True},
    },
    "ogd-alternating": _matrix(
        learner={"algo": "ogd", "eta": 0.05, "alternating": True}, log_every=5, metrics_every=5
    ),
    "ogd-zero-first": _matrix(learner={"algo": "ogd", "eta": 0.05, "first_prediction": "zero"}),
    # tests/test_cli.py's BASE_CONFIG under log-barrier doubling from 0.5 with
    # a zero first prediction: the residual stays positive, so the first task
    # ends at the first halving at or below its auto rate 1/(4L).
    "omd-logbar-doubling-zero-first": {
        "T": 4,
        "m": 25,
        "seed": 3,
        "game": {"family": "perturbed-base", "base": BASE, "delta": 0.02},
        "learner": {
            "algo": "omd-logbar",
            "eta": 0.5,
            "eta_mode": "doubling",
            "first_prediction": "zero",
        },
        "init": "ftl-average",
        "log_every": 5,
    },
    "opthedge-cold": _matrix(learner={"algo": "opthedge", "eta": 0.1}, init="cold", log_every=10),
    "omd-logbar-cold": _matrix(learner={"algo": "omd-logbar", "eta": 0.1}, init="cold"),
    "potential-drift-gd": {
        "T": 3,
        "m": 20,
        "seed": 2,
        "game": {"family": "potential-drift", "dim": 2, "alpha": 0.01},
        "learner": {"algo": "gd", "eta": 0.05},
        "init": "last-iterate",
    },
}


STACKELBERG_CONFIGS = {
    f"stackelberg-{init}-{eta}": StackelbergConfig(m=40, initializer=init, eta=eta, seed=11)
    for init in ("ftl-average", "uniform")
    for eta in ("ewoo", 0.05)
}

HOLDER_CONFIGS = {
    "holder-power-4-0.5": (lambda: componentwise_power_operator(4, 0.5), [0.9, -0.7, 0.5, 0.8]),
    "holder-rotation-2.0": (lambda: amplitude_rotation_operator(beta=2.0), [0.9, 0.0]),
}


def _floats_sha(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def _selfplay(seed, shape, m, algo="ogd", eta=0.1):
    rng = np.random.default_rng(seed)
    game = MatrixGame(rng.uniform(-1, 1, size=shape))
    learners = [make_learner(algo, s, eta) for s in game.sets]
    play_task(game, learners, m)
    return game, learners


def _swap_chain():
    rng = np.random.default_rng(17)
    game = NormalFormGame([rng.uniform(-1, 1, size=(3, 4)) for _ in range(2)])
    players = play_task(game, [SwapWrapper(d, 0.01) for d in game.dims], 60)
    out = {}
    for k, w in enumerate(players):
        d = game.dims[k]
        comparators = [boundary_offset_comparator(np.eye(d)[(a + 1) % d], 0.2) for a in range(d)]
        out[f"player{k}"] = _floats_sha(w.per_action_external_regrets())
        out[f"player{k}-comparators"] = _floats_sha(w.per_action_external_regrets(comparators))
    return out


def _alpha_regret():
    game, learners = _selfplay(29, (3, 4), 40)
    out = {}
    for schedule in ("uniform", "linear", "quadratic"):
        weights = AlphaWeights.from_schedule(schedule, 40)
        values = []
        for lrn, sset in zip(learners, game.sets):
            reg, comp = alpha_regret(lrn.path[1:], lrn.utility_array(), weights, sset)
            fixed, _ = alpha_regret(lrn.path[1:], lrn.utility_array(), weights, comparator=sset.center())
            values.extend([reg, *comp, fixed])
        out[schedule] = _floats_sha(values)
    return out


def _rvu_terms():
    out = {}
    for algo, eta in (("ogd", 0.2), ("opthedge", 0.3), ("omd-logbar", 0.05)):
        game, learners = _selfplay(31, (3, 3), 50, algo=algo, eta=eta)
        values = []
        for lrn, sset in zip(learners, game.sets):
            reg, opt = external_regret(lrn.path[1:], lrn.utility_array(), sset)
            comp = boundary_offset_comparator(opt, 0.1)
            values.extend([reg, *rvu_terms(lrn, comp), *rvu_terms(lrn, comp, constant="half")])
        runs = [(lrn.primary_array(), lrn.utility_array(), lrn.prediction_array()) for lrn in learners]
        values.extend(doubling_trick_eta(runs, e) for e in (eta, 4.0 * eta, 0.01 * eta))
        out[algo] = _floats_sha(values)
    return out


def _eg_proxy_regret():
    rng = np.random.default_rng(37)
    game = MatrixGame(rng.uniform(-1, 1, size=(3, 4)))
    op = game.operator()
    eg = OMDLearner(op.set, 0.15, init=op.set.center(), prediction_mode=SECONDARY_ANCHOR)
    play_task(op, [eg], 40, free_first=False)
    # Proxy regret: the played (extrapolated) points against their utilities.
    reg, comp = external_regret(eg.path[1:], eg.utilities, op.set)
    fixed, _ = external_regret(eg.path[1:], eg.utilities, comparator=op.set.center())
    return {"proxy": _floats_sha([reg, *comp, fixed])}


def _weak_mvi():
    # c13's rotation operator from its three starts.
    box = Box(np.full(2, -np.inf), np.full(2, np.inf))
    op = VIOperator(lambda z: np.array([z[1], -z[0]]), box, lipschitz=1.0, weak_mvi_rho=0.01)
    op.mvi_point = np.zeros(2)
    out = {}
    for k, z0 in enumerate(([1.0, 0.0], [0.3, -0.8], [-0.5, 0.5])):
        run = weak_mvi_run(op, np.array(z0), m=500, eta=0.2)
        out[f"start{k}"] = _floats_sha(
            [*run["path"].ravel(), *run["norms_sq"], run["bound_rhs"], run["bound_slack"]]
        )
    return out


def _optadagrad_drifting():
    # Seeded utilities under drifting diagonals, on a simplex and on a box
    # whose bounds clip some coordinates.
    rng = np.random.default_rng(43)
    out = {}
    for name, sset in (("simplex", Simplex(3)), ("box", Box(np.full(3, -0.5), np.full(3, 0.8)))):
        diags = [np.array([2.0, 3.0, 4.0]) + np.cos(np.arange(3) + i / 10.0) for i in range(60)]
        ada = OptAdaGradLearner(sset, PreconditionerSchedule(diags))
        for _ in range(60):
            ada.play()
            ada.update(rng.uniform(-2, 2, 3))
        arrays = (ada.primary_array(), ada.secondary_array(), ada.utilities, ada.predictions)
        out[name] = _floats_sha(np.concatenate([np.ravel(a) for a in arrays]))
    return out


def _stackelberg_repeated_scripts():
    # Runs that repeat a task's (game, script) pair: one attacker script in
    # every task of one game, and scripts [s1, s1, s2, s2, s1] over games
    # [g, g, g, h, h], so that equal pairs, a new script on the same game and
    # a new game with an old script all follow one another. Tasks of 50 and
    # of 320 rounds, on both sides of the draw's switch to a column scan.
    rng = np.random.default_rng(47)
    d, k = 3, 2

    def game():
        types = [(rng.uniform(-1, 0, d), rng.uniform(0, 1, d)) for _ in range(k)]
        return SecurityGame(types, rng.uniform(0, 1, d), rng.uniform(-1, 0, d))

    g, h = game(), game()
    E = build_extreme_points([g, h], gamma=1e-3)
    out = {}
    for m in (50, 320):
        s1, s2 = rng.integers(0, k, size=(2, m)).tolist()
        runs = {
            "persistent": ([g] * 6, [[1] * m for _ in range(6)]),
            "mixed": ([g, g, g, h, h], [s1, s1, s2, s2, s1]),
        }
        for name, (games, script) in runs.items():
            for init, eta in (("ftl-average", "ewoo"), ("uniform", 0.05)):
                cfg = StackelbergConfig(m=m, initializer=init, eta=eta, seed=19)
                records, summary = run_meta_stackelberg(games, script, cfg, extreme_points=E)
                summary = {key: v for key, v in summary.items() if key != "extreme_points"}
                out[f"{name}-m{m}-{init}-{eta}"] = _sha_text(json.dumps([records, summary], sort_keys=True))
    return out


def _ne_gap_matrix():
    rng = np.random.default_rng(41)
    game = MatrixGame(rng.uniform(-1, 1, size=(4, 3)))
    values = []
    for _ in range(20):
        profile = [rng.dirichlet(np.ones(d)) for d in (4, 3)]
        values.extend(ne_gap(game, profile))
    values.extend(ne_gap(game, [Simplex(4).center(), Simplex(3).center()]))
    return {"gaps": _floats_sha(values)}


def _report_audit():
    with tempfile.TemporaryDirectory() as tmp:
        if cli.main(["report", "--out", tmp]) != 0:
            raise AssertionError("metagames report failed")
        report = json.loads((Path(tmp) / "report.json").read_text())
    return {"rvu_audit": _sha_text(json.dumps(report["rvu_audit"], sort_keys=True))}


ACCOUNTING = {
    "accounting-swap-per-action": _swap_chain,
    "accounting-alpha-regret": _alpha_regret,
    "accounting-rvu-terms": _rvu_terms,
    "accounting-eg-proxy-regret": _eg_proxy_regret,
    "accounting-ne-gap-matrix": _ne_gap_matrix,
    "accounting-report-audit": _report_audit,
    "optadagrad-drifting": _optadagrad_drifting,
    "stackelberg-repeated-scripts": _stackelberg_repeated_scripts,
    "weak-mvi": _weak_mvi,
}


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _similarity_text(sim):
    fields = {"v_opt2": sim.v_opt2, "v_kl": sim.v_kl, "v_ne2_worst": sim.v_ne2_worst}
    return json.dumps(
        {k: None if v is None else np.asarray(v, dtype=float).tolist() for k, v in fields.items()},
        sort_keys=True,
    )


def digests(name, tmp_dir):
    cfg = CONFIGS[name]
    res = run_experiment(json.loads(json.dumps(cfg)))
    tasks = Path(tmp_dir) / f"{name}-tasks.csv"
    records = Path(tmp_dir) / f"{name}-records.csv"
    write_task_summaries(tasks, res.task_summaries)
    write_records_csv(records, res.records, res.config.dump_strategies)
    out = {"tasks": _sha(tasks), "records": _sha(records)}
    sidecar = Path(str(records) + ".strategies.json")
    if sidecar.exists():
        out["strategies"] = _sha(sidecar)
    out["similarity"] = hashlib.sha256(_similarity_text(res.similarity).encode()).hexdigest()
    return out


def _sha_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def stackelberg_digests(name):
    rng = np.random.default_rng(23)
    d, k, T = 3, 2, 6
    types = [(rng.uniform(-1, 0, d), rng.uniform(0, 1, d)) for _ in range(k)]
    game = SecurityGame(types, rng.uniform(0, 1, d), rng.uniform(-1, 0, d))
    E = build_extreme_points([game], gamma=1e-3)
    cfg = STACKELBERG_CONFIGS[name]
    script = rng.integers(0, k, size=(T, cfg.m)).tolist()
    records, summary = run_meta_stackelberg([game] * T, script, cfg, extreme_points=E)
    summary = {key: v for key, v in summary.items() if key != "extreme_points"}
    return {
        "records": _sha_text(json.dumps(records, sort_keys=True)),
        "summary": _sha_text(json.dumps(summary, sort_keys=True)),
    }


def holder_digests(name):
    make_op, z0 = HOLDER_CONFIGS[name]
    z0 = np.asarray(z0, dtype=float)
    out = holder_run(make_op(), z0, 300, radius_bound=float(np.linalg.norm(z0)))
    return {
        "primary": hashlib.sha256(np.ascontiguousarray(out["primary"]).tobytes()).hexdigest(),
        "secondary": hashlib.sha256(np.ascontiguousarray(out["secondary"]).tobytes()).hexdigest(),
        "eta": repr(float(out["eta"])),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    golden = json.loads(DIGESTS.read_text())
    assert digests(name, tmp_path) == golden[name]


@pytest.mark.parametrize("name", sorted(STACKELBERG_CONFIGS))
def test_golden_stackelberg_digests(name):
    golden = json.loads(DIGESTS.read_text())
    assert stackelberg_digests(name) == golden[name]


@pytest.mark.parametrize("name", sorted(HOLDER_CONFIGS))
def test_golden_holder_digests(name):
    golden = json.loads(DIGESTS.read_text())
    assert holder_digests(name) == golden[name]


@pytest.mark.parametrize("name", sorted(ACCOUNTING))
def test_golden_accounting_digests(name):
    golden = json.loads(DIGESTS.read_text())
    assert ACCOUNTING[name]() == golden[name]


def record(names):
    """Recompute the named digests, write them, and return those that changed."""
    golden = json.loads(DIGESTS.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {}
        for name in names:
            if name in CONFIGS:
                recorded[name] = digests(name, tmp)
            elif name in STACKELBERG_CONFIGS:
                recorded[name] = stackelberg_digests(name)
            elif name in ACCOUNTING:
                recorded[name] = ACCOUNTING[name]()
            else:
                recorded[name] = holder_digests(name)
    changed = sorted(name for name in recorded if recorded[name] != golden.get(name))
    golden.update(recorded)
    DIGESTS.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return changed


if __name__ == "__main__":
    known = sorted(CONFIGS) + sorted(STACKELBERG_CONFIGS) + sorted(HOLDER_CONFIGS) + sorted(ACCOUNTING)
    names = sys.argv[1:] or known
    unknown = [name for name in names if name not in known]
    if unknown:
        sys.exit(f"unknown digest names {unknown}; known: {', '.join(known)}")
    changed = record(names)
    print(f"re-recorded {len(names)} entries in {DIGESTS}", file=sys.stderr)
    print("changed: " + (", ".join(changed) if changed else "none"), file=sys.stderr)
