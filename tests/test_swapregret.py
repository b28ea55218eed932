import itertools

import numpy as np
import pytest

from metagames.errors import InvalidInputError
from metagames.games import NormalFormGame, lipschitz_constant
from metagames.geometry import Regularizer, Simplex, bregman
from metagames.harness import play_task
from metagames.metrics import cce_ce_gap
from metagames.swapregret import (
    SwapWrapper,
    boundary_offset_comparator,
    default_log_barrier_eta,
    stationary_distribution,
    swap_regret,
)


def swap_regret_bruteforce(strategies, utilities):
    """Reference enumeration over all d^d swap maps (small d only)."""
    strategies = np.asarray(strategies, dtype=float)
    utilities = np.asarray(utilities, dtype=float)
    d = strategies.shape[1]
    best = 0.0
    for phi in itertools.product(range(d), repeat=d):
        total = 0.0
        for x, u in zip(strategies, utilities):
            swapped = np.zeros(d)
            for a in range(d):
                swapped[phi[a]] += x[a]
            total += float((swapped - x) @ u)
        best = max(best, total)
    return best


def test_stationary_examples():
    np.testing.assert_allclose(
        stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]])), [0.5, 0.5], atol=1e-9
    )
    np.testing.assert_allclose(
        stationary_distribution(np.eye(2)), [0.5, 0.5], atol=1e-12
    )
    # linear-system oracle: pi (Q - I) = 0 with sum(pi) = 1 for a 2x2 chain
    Q = np.array([[0.9, 0.1], [0.5, 0.5]])
    pi = stationary_distribution(Q)
    np.testing.assert_allclose(pi, [5 / 6, 1 / 6], atol=1e-9)
    assert np.sum(np.abs(pi @ Q - pi)) <= 1e-8


def test_stationary_rejects_bad_matrix():
    with pytest.raises(InvalidInputError):
        stationary_distribution(np.array([[0.5, 0.2], [0.5, 0.5]]))


def test_stationary_random_chains():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(2, 7)
        Q = rng.dirichlet(np.ones(d), size=d)
        pi = stationary_distribution(Q)
        assert np.sum(np.abs(pi @ Q - pi)) <= 1e-8


def test_swap_regret_examples():
    # constant best-response play
    strat = np.tile(np.array([0.0, 1.0]), (5, 1))
    utils = np.tile(np.array([0.1, 0.8]), (5, 1))
    assert swap_regret(strat, utils) == 0.0
    # play (1,0) twice under u = (0,1): best map sends action 1 to 2
    strat = np.tile(np.array([1.0, 0.0]), (2, 1))
    utils = np.tile(np.array([0.0, 1.0]), (2, 1))
    assert abs(swap_regret(strat, utils) - 2.0) < 1e-15
    assert abs(swap_regret_bruteforce(strat, utils) - 2.0) < 1e-15


def test_swap_matches_bruteforce_and_dominates_external():
    from metagames.learners import external_regret

    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        m = 12
        strat = rng.dirichlet(np.ones(d), size=m)
        utils = rng.uniform(-1, 1, size=(m, d))
        sw = swap_regret(strat, utils)
        assert abs(sw - swap_regret_bruteforce(strat, utils)) < 1e-10
        ext, _ = external_regret(strat, utils, Simplex(d))
        assert sw >= ext - 1e-10


def test_wrapper_single_action():
    w = SwapWrapper(1, eta=0.1)
    for _ in range(5):
        w.update(np.array([0.3]))
    np.testing.assert_array_equal(w.play(), [1.0])
    assert swap_regret(w.played_array(), w.utility_array()) == 0.0


def test_wrapper_zero_utilities_constant():
    w = SwapWrapper(3, eta=0.05)
    first = w.play().copy()
    for _ in range(4):
        w.update(np.zeros(3))
    np.testing.assert_allclose(w.play(), first, atol=1e-12)


def test_wrapper_swap_le_sum_of_action_regrets():
    rng = np.random.default_rng(2)
    w = SwapWrapper(2, eta=0.02)
    for _ in range(200):
        w.update(rng.uniform(-1, 1, 2))
    sw = swap_regret(w.played_array(), w.utility_array())
    assert sw <= float(np.sum(w.per_action_external_regrets())) + 1e-9


def test_rvuswap_chain_random_games():
    # swap regret <= sum of per-action external regrets <= Bregman sum / eta,
    # the latter at interior-offset comparators (vertex comparators make the
    # log-barrier divergence infinite).
    rng = np.random.default_rng(3)
    log = Regularizer("log-barrier")
    for _ in range(8):
        dims = [int(rng.integers(2, 5)) for _ in range(2)]
        game = NormalFormGame([rng.uniform(-1, 1, size=tuple(dims)) for _ in range(2)])
        L = lipschitz_constant(game)
        m = 150
        alpha = (m * 1.0) ** (-1.0 / 3.0)
        eta = default_log_barrier_eta(2, max(dims), L)
        players = play_task(game, [SwapWrapper(d, eta) for d in dims], m, free_first=False)
        for k, w in enumerate(players):
            sw = swap_regret(w.played_array(), w.utility_array())
            sum_ext = float(np.sum(w.per_action_external_regrets()))
            assert sw <= sum_ext + 1e-8
            breg_sum = 0.0
            reg_sum_offset = 0.0
            for a, lrn in enumerate(w.action_learners):
                us = lrn.utility_array()
                cum = np.sum(us, axis=0)
                vertex = np.zeros(game.dims[k])
                vertex[int(np.argmax(cum))] = 1.0
                tilde = boundary_offset_comparator(vertex, alpha)
                played = float(np.sum(np.asarray(lrn.path[1:]) * us))
                reg_sum_offset += float(cum @ tilde) - played
                breg_sum += bregman(log, tilde, lrn.init)
            assert reg_sum_offset <= breg_sum / w.eta + 1e-8


def test_boundary_offset_accounting():
    # Replacing a comparator by its alpha-offset changes regret by <= 2*alpha*m.
    rng = np.random.default_rng(4)
    m, d = 50, 3
    strat = rng.dirichlet(np.ones(d), size=m)
    utils = rng.uniform(-1, 1, size=(m, d))
    cum = np.sum(utils, axis=0)
    vertex = np.zeros(d)
    vertex[int(np.argmax(cum))] = 1.0
    for alpha in (0.01, 0.1):
        tilde = boundary_offset_comparator(vertex, alpha)
        gap = abs(float(cum @ vertex) - float(cum @ tilde))
        assert gap <= 2.0 * alpha * m + 1e-12


def test_ce_gap_decreases_with_horizon():
    rng = np.random.default_rng(5)
    game = NormalFormGame([rng.uniform(-1, 1, size=(3, 3)) for _ in range(2)])
    L = lipschitz_constant(game)
    eta = default_log_barrier_eta(2, 3, L)
    players = play_task(game, [SwapWrapper(3, eta), SwapWrapper(3, eta)], 400, free_first=False)
    gaps = []
    for m in (100, 200, 400):
        mu = np.zeros((3, 3))
        for i in range(m):
            mu += np.outer(players[0].mix_path[i], players[1].mix_path[i])
        mu /= m
        _, ce = cce_ce_gap(mu, game)
        gaps.append(ce)
    assert gaps[2] <= gaps[1] + 1e-9 and gaps[1] <= gaps[0] + 1e-9
