"""The four benchmark workloads, each driven through the public metagames API.

A workload has three parts:

- ``build(seed)`` makes the inputs (set-up, untimed in the end-to-end run);
- ``run(inputs)`` is the timed body: one *unit* of work;
- ``ops()`` names the operations of one unit;
- ``check(inputs, output)`` verifies the unit's outputs and returns an
  :class:`Outcome`: the operations attempted, the ones that failed their
  per-operation check, and the summary numbers compared against
  ``reference.json``.

Every unit of a run repeats the same work on the same inputs, so the
benchmark can report a median over units. An operation is one task (per arm)
or one game. Call sites go through module attributes (``games.utility_gradient``
rather than a name bound at import) so that traced runs see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from metagames import cli, games, harness, stackelberg, swapregret
from metagames.geometry import LOG_BARRIER, Regularizer, bregman

OUT_DIR = Path(__file__).resolve().parent / "out"

# Shapes of one unit. Each unit takes roughly 1-2.5 s on a 2-CPU host, so one
# run holds many units.
WARM_T = 4
NE_T = 60
SWAP_M = 150
STACK_T = 10

IDENTITY_TOL = 1e-9  # (regret_x + regret_y) / m == dualgap_avg
SLACK_TOL = 1e-8  # c08's slacks and the stationary residual
MWU_TOL = 1e-9  # regret_expected <= mwu_bound
LOWER_BOUND_MARGIN = 0.02  # c10: task-mean regret >= 0.5 * sum(v_opt2) - 0.02


@dataclass
class Outcome:
    ops: list
    failed: set = field(default_factory=set)
    # key -> (value or list of values, operations that depend on it)
    summary: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _read_tasks_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _identity_failures(rows, m, op_prefix):
    bad = set()
    for row in rows:
        lhs = (float(row["regret_x"]) + float(row["regret_y"])) / m
        if not abs(lhs - float(row["dualgap_avg"])) <= IDENTITY_TOL:
            bad.add(f"{op_prefix}/{row['task']}")
    return bad


class WarmstartArms:
    """``metagames run`` on the demo's arm comparison plus a doubling arm."""

    name = "warmstart-arms"
    default_seed = 31
    held_out_seed = 1031
    m = 1000
    arms = (
        {"name": "meta-avg", "init": "ftl-average"},
        {"name": "last-iterate", "init": "last-iterate"},
        {"name": "cold", "init": "cold"},
        {
            "name": "doubling",
            "init": "ftl-average",
            "learner": {"algo": "ogd", "eta": 1.0, "eta_mode": "doubling"},
        },
    )

    @property
    def shape(self):
        return f"T={WARM_T},m={self.m},arms={len(self.arms)},log_every=10,metrics_every=100"

    def build(self, seed):
        config = {
            "T": WARM_T,
            "m": self.m,
            "seed": seed,
            "game": {
                "family": "perturbed-base",
                "base": [[0.2, -0.6], [-0.6, 1.0]],
                "delta": 0.02,
                "sequencing": "random",
            },
            "learner": {"algo": "ogd", "eta": 0.01},
            "meta": {"initializer": "ftl-average", "ewoo": {"enabled": False}, "similarity_report": True},
            "log_every": 10,
            "metrics_every": 100,
            "arms": [dict(a) for a in self.arms],
            "checkpoints": [WARM_T],
        }
        OUT_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="warmstart-", dir=OUT_DIR))
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        out = workdir / "out"
        return {"dir": workdir, "out": out, "argv": ["run", "--config", str(path), "--out", str(out)]}

    def run(self, inputs):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(inputs["argv"]))

    def ops(self):
        return [f"{a['name']}/{t}" for a in self.arms for t in range(WARM_T)]

    def check(self, inputs, code):
        names = [a["name"] for a in self.arms]
        ops = self.ops()
        out = Outcome(ops)
        if code != 0:
            out.failed.update(ops)
            out.notes.append(f"cli exited {code}")
            return out
        for n in names:
            arm_ops = [f"{n}/{t}" for t in range(WARM_T)]
            try:
                rows = _read_tasks_csv(inputs["out"] / f"tasks_{n}.csv")
            except (OSError, KeyError, ValueError) as exc:
                out.failed.update(arm_ops)
                out.notes.append(f"{n}: unreadable tasks csv: {exc}")
                continue
            if len(rows) != WARM_T:
                out.failed.update(arm_ops)
                continue
            out.failed |= _identity_failures(rows, self.m, n)
            out.summary[f"{n}/dualgap_mean"] = (
                float(np.mean([float(r["dualgap_avg"]) for r in rows])), arm_ops)
            out.summary[f"{n}/regret_mean"] = (
                float(np.mean([float(r["regret_x"]) + float(r["regret_y"]) for r in rows])), arm_ops)
            for t, r in enumerate(rows):
                out.summary[f"{n}/eta/{t}"] = (float(r["eta"]), [f"{n}/{t}"])
        return out

    def close(self, inputs):
        shutil.rmtree(inputs["dir"], ignore_errors=True)


class NeAnchor:
    """``compare_arms`` on the lower-bound family (c10) with NE anchoring."""

    name = "ne-anchor"
    default_seed = 123
    held_out_seed = 1123
    m = 5
    arm_names = ("ne-average", "ftl-average", "cold")

    @property
    def shape(self):
        return f"T={NE_T},m={self.m},arms={len(self.arm_names)},similarity_report"

    def build(self, seed):
        return {
            "T": NE_T,
            "m": self.m,
            "seed": seed,
            "game": {"family": "lower-bound-prior", "prior": [0.5, 0.25, 0.25]},
            "learner": {"algo": "ogd", "eta": "auto"},
            "meta": {"similarity_report": True},
            "arms": [{"name": n, "init": n} for n in self.arm_names],
        }

    def run(self, config):
        return harness.compare_arms(config)

    def ops(self):
        return [f"{n}/{t}" for n in self.arm_names for t in range(NE_T)]

    def check(self, config, output):
        results, _ = output
        out = Outcome(self.ops())
        for n in self.arm_names:
            res = results[n]
            arm_ops = [f"{n}/{t}" for t in range(NE_T)]
            rows = res.task_summaries
            out.failed |= _identity_failures(rows, self.m, n)
            regret = res.task_column("regret_x") + res.task_column("regret_y")
            v_sum = float(np.sum(res.similarity.v_opt2))
            if not float(np.mean(regret)) >= 0.5 * v_sum - LOWER_BOUND_MARGIN:
                out.failed.update(arm_ops)
                out.notes.append(f"{n}: c10 lower bound violated")
            out.summary[f"{n}/regret_mean"] = (float(np.mean(regret)), arm_ops)
            out.summary[f"{n}/dualgap_mean"] = (float(np.mean(res.task_column("dualgap_avg"))), arm_ops)
            out.summary[f"{n}/eta_mean"] = (float(np.mean(res.task_column("eta"))), arm_ops)
            out.summary[f"{n}/v_opt2_sum"] = (v_sum, arm_ops)
        return out

    def close(self, config):
        pass


class SwapChain:
    """c08's loop: two log-barrier ``SwapWrapper``s per random game.

    A unit plays three games whose first player has d = 2, 3, 4 and whose
    second player has a seeded permutation of those sizes, so every seed does
    about the same amount of work while the payoffs vary.
    """

    name = "swap-chain"
    default_seed = 13
    held_out_seed = 1013

    @property
    def shape(self):
        return f"games=3,d=2..4,m={SWAP_M}"

    @property
    def alpha(self):
        """c08's boundary offset for the second slack; c08 plays 100 games."""
        return (SWAP_M * 100.0) ** (-1.0 / 3.0)

    def build(self, seed):
        rng = np.random.default_rng(seed)
        dims = list(zip((2, 3, 4), (int(d) for d in rng.permutation([2, 3, 4]))))
        return [games.NormalFormGame([rng.uniform(-1, 1, size=d) for _ in range(2)]) for d in dims]

    def run(self, game_list):
        played = []
        for game in game_list:
            dims = game.dims
            L = games.lipschitz_constant(game)
            eta = swapregret.default_log_barrier_eta(2, max(dims), L)
            players = [swapregret.SwapWrapper(dims[k], eta) for k in range(2)]
            for _ in range(SWAP_M):
                profile = [w.play() for w in players]
                us = [games.utility_gradient(game, k, profile) for k in range(2)]
                for w, u in zip(players, us):
                    w.update(u)
            swaps = [swapregret.swap_regret(w.played_array(), w.utility_array()) for w in players]
            per_action = [w.per_action_external_regrets() for w in players]
            played.append((players, swaps, per_action))
        return played

    def ops(self):
        return ["game0", "game1", "game2"]

    def check(self, game_list, played):
        ops = self.ops()
        out = Outcome(ops)
        logb = Regularizer(LOG_BARRIER)
        for g, (players, swaps, per_action) in enumerate(played):
            op = ops[g]
            for w, sw, ext in zip(players, swaps, per_action):
                first = float(np.sum(ext)) - sw
                breg_sum = off_reg = 0.0
                for lrn in w.action_learners:
                    us = lrn.utility_array()
                    cum = np.sum(us, axis=0)
                    vertex = np.zeros(w.dim)
                    vertex[int(np.argmax(cum))] = 1.0
                    tilde = swapregret.boundary_offset_comparator(vertex, self.alpha)
                    off_reg += float(cum @ tilde) - float(np.sum(np.asarray(lrn.path[1:]) * us))
                    breg_sum += bregman(logb, tilde, lrn.init)
                second = breg_sum / w.eta - off_reg
                resid = float(np.sum(np.abs(w.mix @ w._transition() - w.mix)))
                if not (first >= -SLACK_TOL and second >= -SLACK_TOL and resid <= SLACK_TOL):
                    out.failed.add(op)
                    out.notes.append(f"{op}: slacks {first:.3e}, {second:.3e}, residual {resid:.3e}")
            out.summary[f"{op}/swap_regret"] = ([float(s) for s in swaps], [op])
        return out

    def close(self, game_list):
        pass


class StackelbergEwoo:
    """c16: meta-learned MWU over extreme points with EWOO-chosen rates."""

    name = "stackelberg-ewoo"
    default_seed = 23
    held_out_seed = 1023
    m = 500
    arm_names = ("ftl-average", "uniform")
    mwu_seed = 29

    @property
    def shape(self):
        return f"d=4,k=3,T={STACK_T},m={self.m},arms={len(self.arm_names)}"

    def build(self, seed):
        rng = np.random.default_rng(seed)
        d, k = 4, 3
        types = [(rng.uniform(-1, 0, d), rng.uniform(0, 1, d)) for _ in range(k)]
        game = games.SecurityGame(types, rng.uniform(0, 1, d), rng.uniform(-1, 0, d))
        points = stackelberg.build_extreme_points([game], gamma=1e-3)
        script = [[0] * self.m for _ in range(STACK_T)]  # one persistent attacker type
        return {"game": game, "points": points, "script": script}

    def run(self, inputs):
        records = {}
        for init in self.arm_names:
            cfg = stackelberg.StackelbergConfig(m=self.m, initializer=init, eta="ewoo", seed=self.mwu_seed)
            records[init], _ = stackelberg.run_meta_stackelberg(
                [inputs["game"]] * STACK_T, inputs["script"], cfg, extreme_points=inputs["points"]
            )
        return records

    def ops(self):
        return [f"{n}/{t}" for n in self.arm_names for t in range(STACK_T)]

    def check(self, inputs, records):
        out = Outcome(self.ops())
        for n in self.arm_names:
            arm_ops = [f"{n}/{t}" for t in range(STACK_T)]
            recs = records[n]
            if len(recs) != STACK_T:
                out.failed.update(arm_ops)
                continue
            for t, r in enumerate(recs):
                if not r["regret_expected"] <= r["mwu_bound"] + MWU_TOL:
                    out.failed.add(f"{n}/{t}")
                out.summary[f"{n}/eta/{t}"] = (float(r["eta"]), [f"{n}/{t}"])
            out.summary[f"{n}/regret_mean"] = (
                float(np.mean([r["regret_expected"] for r in recs])), arm_ops)
        return out

    def close(self, inputs):
        pass


WORKLOADS = {w.name: w for w in (WarmstartArms(), NeAnchor(), SwapChain(), StackelbergEwoo())}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REF_RTOL = 1e-6
REF_ATOL = 1e-9


def load_reference(workload, seed):
    """Stored summary for this workload, shape and seed, or None."""
    try:
        table = json.loads(REFERENCE_PATH.read_text())[workload.name]
    except (OSError, KeyError):
        return None
    if table.get("shape") != workload.shape:
        return None
    return table["seeds"].get(str(seed))


def reference_failures(summary, reference):
    """Operations whose summary numbers leave the stored reference."""
    bad = set()
    for key, (value, ops) in summary.items():
        want = reference.get(key)
        if want is None or np.shape(want) != np.shape(value) or not np.allclose(
            value, want, rtol=REF_RTOL, atol=REF_ATOL
        ):
            bad.update(ops)
    return bad
