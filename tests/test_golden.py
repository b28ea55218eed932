"""Byte-level golden outputs for a fixed set of configs.

Each ``run_experiment`` config's ``write_task_summaries`` and
``write_records_csv`` output (plus the strategy sidecar and the similarity
statistics where a config produces them) is hashed with SHA-256 and compared
with ``data/golden_digests.json``. So are the records and summary of
``run_meta_stackelberg`` runs and the paths and rate of ``holder_run`` runs.
A refactor must keep every digest. To re-record after an intended change of
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

from metagames.games import SecurityGame
from metagames.harness import run_experiment, write_records_csv, write_task_summaries
from metagames.holder_vi import (
    amplitude_rotation_operator,
    componentwise_power_operator,
    holder_run,
)
from metagames.stackelberg import StackelbergConfig, build_extreme_points, run_meta_stackelberg

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
    "ogd-doubling": _matrix(
        learner={"algo": "ogd", "eta": 0.9, "eta_mode": "doubling"}, log_every=10
    ),
    "ogd-ewoo": _matrix(learner={"algo": "ogd", "eta": "auto", "eta_mode": "ewoo"}),
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
            else:
                recorded[name] = holder_digests(name)
    changed = sorted(name for name in recorded if recorded[name] != golden.get(name))
    golden.update(recorded)
    DIGESTS.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return changed


if __name__ == "__main__":
    known = sorted(CONFIGS) + sorted(STACKELBERG_CONFIGS) + sorted(HOLDER_CONFIGS)
    names = sys.argv[1:] or known
    unknown = [name for name in names if name not in known]
    if unknown:
        sys.exit(f"unknown digest names {unknown}; known: {', '.join(known)}")
    changed = record(names)
    print(f"re-recorded {len(names)} entries in {DIGESTS}", file=sys.stderr)
    print("changed: " + (", ".join(changed) if changed else "none"), file=sys.stderr)
