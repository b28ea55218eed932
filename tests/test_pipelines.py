"""Cross-module wiring: the optimistic-hedge CCE pipeline, alternating
updates, sequencing modes, and the meta config block."""

import math

import numpy as np
import pytest

from metagames.errors import ConfigError
from metagames.games import NormalFormGame, SequenceConfig, sample_game_sequence
from metagames.geometry import Simplex
from metagames.harness import (
    ExperimentConfig,
    make_learner,
    play_task,
    run_experiment,
)
from metagames.learners import external_regret
from metagames.meta import (
    EwooState,
    Initializer,
    TaskOutcome,
    ewoo_next_eta,
    smallest_cprime,
)
from metagames.metrics import cce_ce_gap
from metagames.swapregret import boundary_offset_comparator

BASE = np.array([[0.2, -0.6], [-0.6, 1.0]])


def cce_ewoo_state(dim, boundary_offset, m, T):
    """EWOO state for the optimistic-hedge pipeline: D^2 = log(dim /
    boundary_offset) / log^5 m, taking 1 for the constant the regret bound
    leaves unspecified, and rho = T^(-1/4)."""
    D = math.sqrt(math.log(dim / boundary_offset) / math.log(m) ** 5)
    return EwooState.from_radius(D, T ** (-0.25))


def test_opthedge_cce_pipeline():
    # FTL initialization + EWOO learning rate on optimistic hedge: every
    # task's regret stays below eta*C'*log^5(m) + KL/eta for a small C'.
    rng = np.random.default_rng(0)
    T, m, d = 20, 150, 3
    alpha = 1.0 / np.sqrt(m * T)
    state = cce_ewoo_state(d, alpha, m, T)
    games = sample_game_sequence(
        SequenceConfig("perturbed-base", T=T, seed=3, base=rng.uniform(-1, 1, (d, d)), delta=0.05)
    )
    init = Initializer("ftl-average", (Simplex(d), Simplex(d)))
    gamma = float(np.log(m) ** 5)
    regrets, etas, kls = [], [], []
    for g in games:
        eta_t = ewoo_next_eta(state)
        inits = init.initialization()
        xl = make_learner("opthedge", Simplex(d), eta_t, init=inits[0])
        yl = make_learner("opthedge", Simplex(d), eta_t, init=inits[1])
        play_task(g, [xl, yl], m)
        tilded = []
        for lrn, ss in ((xl, Simplex(d)), (yl, Simplex(d))):
            reg, opt = external_regret(np.asarray(lrn.path[1:]), lrn.utility_array(), ss)
            tilde = boundary_offset_comparator(opt, alpha)
            kl = max(
                float(np.sum(tilde * np.log(tilde / np.maximum(lrn.init, 1e-300)))), 0.0
            )
            regrets.append(reg)
            etas.append(eta_t)
            kls.append(kl)
            tilded.append(tilde)
        init.observe(TaskOutcome(optima=tilded))
        state.record(kls[-1] / gamma, gamma)
    cprime = smallest_cprime(regrets, etas, kls, m)
    assert cprime < 1.0  # the open constant stays modest at desk scale
    for reg, eta_t, kl in zip(regrets, etas, kls):
        assert reg <= eta_t * max(cprime, 1e-12) * np.log(m) ** 5 + kl / eta_t + 1e-6


def test_opthedge_cce_gap_monotone():
    rng = np.random.default_rng(1)
    game = NormalFormGame([rng.uniform(-1, 1, (3, 3)) for _ in range(2)])
    learners = [make_learner("opthedge", Simplex(3), 0.1) for _ in range(2)]
    play_task(game, learners, 1000)
    gaps = []
    for m in (100, 1000):
        mu = np.zeros((3, 3))
        for i in range(m):
            mu += np.outer(learners[0].path[1 + i], learners[1].path[1 + i])
        mu /= m
        cce, _ = cce_ce_gap(mu, game)
        gaps.append(cce)
    assert gaps[1] <= gaps[0] + 1e-9


def test_alternating_updates_keep_identity():
    # alternation enters through the predictions; the duality-gap identity
    # is comparator algebra and survives it
    cfg = {
        "T": 3,
        "m": 60,
        "seed": 4,
        "game": {"family": "perturbed-base", "base": BASE.tolist(), "delta": 0.02},
        "learner": {"algo": "ogd", "eta": 0.05, "alternating": True},
        "init": "ftl-average",
    }
    res = run_experiment(cfg)
    for row in res.task_summaries:
        total = row["regret_x"] + row["regret_y"]
        assert abs(total / 60 - row["dualgap_avg"]) < 1e-9


def test_sorted_sequencing_orders_by_severity():
    cfg = SequenceConfig(
        "perturbed-base", T=10, seed=6, base=BASE, delta=0.1, sequencing="sorted"
    )
    games = sample_game_sequence(cfg)
    # regenerate the draws to recover the severity keys the generator used
    rng = np.random.default_rng(6)
    noises = rng.uniform(-0.1, 0.1, size=(10,) + BASE.shape)
    keys = np.linalg.norm(noises.reshape(10, -1), axis=1)
    order = np.argsort(keys, kind="stable")
    for g, idx in zip(games, order):
        expected = BASE + noises[idx]
        scale = max(float(np.max(np.abs(expected))), 1.0)
        np.testing.assert_allclose(g.A, expected / scale, atol=1e-15)
    rand = sample_game_sequence(
        SequenceConfig("perturbed-base", T=10, seed=6, base=BASE, delta=0.1)
    )
    assert sorted(map(tuple, (g.A.ravel() for g in games))) == sorted(
        map(tuple, (g.A.ravel() for g in rand))
    )


def test_meta_config_block():
    cfg = ExperimentConfig.from_dict(
        {
            "T": 4,
            "m": 30,
            "seed": 1,
            "game": {"family": "perturbed-base", "base": BASE.tolist(), "delta": 0.02},
            "learner": {"algo": "ogd", "eta": 0.05},
            "meta": {
                "initializer": "ftl-average",
                "ewoo": {"enabled": True, "D": 2.0, "rho": 0.25},
                "similarity_report": True,
            },
        }
    )
    assert cfg.init_mode == "ftl-average"
    assert cfg.eta_mode == "ewoo"
    assert cfg.ewoo_D == 2.0 and cfg.ewoo_rho == 0.25
    res = run_experiment(cfg)
    assert res.similarity.v_kl is not None
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(
            {"T": 2, "m": 5, "game": {"family": "perturbed-base", "base": [[0.0]]}, "meta": 7}
        )
    # no run reads Cprime, so it is rejected rather than ignored
    with pytest.raises(ConfigError, match="config.meta.ewoo.Cprime"):
        ExperimentConfig.from_dict(
            {
                "T": 2,
                "m": 5,
                "game": {"family": "perturbed-base", "base": [[0.0]]},
                "meta": {"ewoo": {"enabled": True, "Cprime": 1.0}},
            }
        )
