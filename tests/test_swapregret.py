import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metagames.errors import InvalidInputError, NumericError
from metagames.games import NormalFormGame, lipschitz_constant
from metagames.geometry import (
    Regularizer,
    Simplex,
    _prox_log_barrier_simplex,
    bregman,
    lift_interior,
)
from metagames.harness import play_task
from metagames.learners import OMDLearner, external_regret
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
    for shape in ((0, 0), (0,), (2,), (2, 3), (1, 2, 2)):
        with pytest.raises(InvalidInputError, match="square and non-empty"):
            stationary_distribution(np.full(shape, 0.5))


def array_stationary_distribution(Q, tol=1e-12, max_iter=20_000):
    """Reference: the power iteration with every step an array operation,
    and the same least-squares fallback. ``stationary_distribution`` must
    reproduce it bit for bit, errors included."""
    Q = np.asarray(Q, dtype=float)
    if not (Q.min() >= -1e-12 and abs(Q.sum(axis=1) - 1.0).max() <= 1e-9):
        raise InvalidInputError("rows must be distributions")
    d = Q.shape[0]
    if d == 1:
        return np.array([1.0])
    pi = np.full(d, 1.0 / d)
    keep = 1.0 - 1e-12
    damping = 1e-12 * pi
    for _ in range(max_iter):
        nxt = keep * (pi @ Q) + damping
        np.maximum(nxt, 0.0, out=nxt)
        nxt /= nxt.sum()
        if abs(nxt - pi).sum() <= tol:
            pi = nxt
            break
        pi = nxt
    if abs(pi @ Q - pi).sum() <= 1e-8:
        return pi
    if d <= 64:
        system = np.vstack([Q.T - np.eye(d), np.ones((1, d))])
        target = np.zeros(d + 1)
        target[-1] = 1.0
        pi, *_ = np.linalg.lstsq(system, target, rcond=None)
        np.maximum(pi, 0.0, out=pi)
        pi /= pi.sum()
        if abs(pi @ Q - pi).sum() <= 1e-8:
            return pi
    raise NumericError(
        f"stationary distribution residual {abs(pi @ Q - pi).sum():.3e} > 1e-8"
    )


@st.composite
def transition_matrices(draw):
    """A (d, d) row-stochastic matrix, d = 1..10: Dirichlet rows of a drawn
    concentration, or the played rows of a log-barrier prox step from
    uniform (near-uniform, as a SwapWrapper plays them); sometimes with one
    entry or row moved near or past the input check, or with a state that
    no other state enters."""
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        Q = rng.dirichlet(np.full(d, draw(st.sampled_from([0.05, 1.0, 50.0]))), size=d)
    else:
        eta = 10.0 ** draw(st.floats(-4.0, 0.0))
        g = (rng.uniform(-1.0, 1.0, (d, d)) / d).tolist()
        start = lift_interior([[1.0 / d] * d for _ in range(d)])
        Q = np.array(_prox_log_barrier_simplex(start, g, eta))
    i, j = rng.integers(d, size=2)
    flaw = draw(st.sampled_from([None] * 6 + ["negative", "unreachable", "scaled", "nan", "inf"]))
    if flaw == "negative":  # moved mass keeps the row sum; -2e-12 is refused
        c = draw(st.sampled_from([5e-13, 2e-12]))
        moved, Q[i, j] = Q[i, j] + c, -c
        Q[i, (j + 1) % d] += moved
    elif flaw == "unreachable":  # pi @ Q < 0 at j: the clamp at 0 acts
        k = (j + 1) % d
        Q[:, k] += Q[:, j]
        Q[:, j] = 0.0
        Q[i, j] -= 1e-12
        Q[i, k] += 1e-12
    elif flaw == "scaled":  # a row sum off by 1e-9 is refused
        Q[i] *= 1.0 + draw(st.sampled_from([5e-10, 2e-9]))
    elif flaw is not None:
        Q[i, j] = float(flaw)
    return Q


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs).tobytes()
    except (InvalidInputError, NumericError) as exc:
        return repr(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(transition_matrices(), st.sampled_from([20_000, 1]))
def test_stationary_matches_array_form_bitwise(Q, max_iter):
    # max_iter=1 stops the power iteration early, which reaches the
    # least-squares fallback.
    want = _outcome(array_stationary_distribution, Q, max_iter=max_iter)
    assert _outcome(stationary_distribution, Q, max_iter=max_iter) == want


def test_stationary_random_chains():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(2, 7)
        Q = rng.dirichlet(np.ones(d), size=d)
        pi = stationary_distribution(Q)
        assert np.sum(np.abs(pi @ Q - pi)) <= 1e-8


def test_swap_regret_rejects_misaligned_or_flat_histories():
    with pytest.raises(InvalidInputError):
        swap_regret(np.ones((3, 2)) / 2, np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        swap_regret(np.array([0.5, 0.5]), np.array([0.1, 0.2]))


def test_wrapper_rejects_bad_rate():
    # A NaN passes eta <= 0; it and an infinite rate are refused before any step.
    for eta in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="eta must be positive and finite"):
            SwapWrapper(2, eta)


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
        players = play_task(game, [SwapWrapper(d, eta) for d in dims], m)
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
    players = play_task(game, [SwapWrapper(3, eta), SwapWrapper(3, eta)], 400)
    gaps = []
    for m in (100, 200, 400):
        mu = np.zeros((3, 3))
        for i in range(m):
            mu += np.outer(players[0].mix_path[i], players[1].mix_path[i])
        mu /= m
        _, ce = cce_ce_gap(mu, game)
        gaps.append(ce)
    assert gaps[2] <= gaps[1] + 1e-9 and gaps[1] <= gaps[0] + 1e-9


def test_swap_self_play_default_free_first():
    # SwapWrappers take no predictions, so the free first prediction skips
    # them and the default flag plays as free_first=False does.
    rng = np.random.default_rng(6)
    game = NormalFormGame([rng.uniform(-1, 1, size=(2, 3)) for _ in range(2)])
    default = play_task(game, [SwapWrapper(d, 0.05) for d in game.dims], 30)
    explicit = play_task(game, [SwapWrapper(d, 0.05) for d in game.dims], 30, free_first=False)
    for got, want in zip(default, explicit):
        assert got.played_array().tobytes() == want.played_array().tobytes()
        assert got.utility_array().tobytes() == want.utility_array().tobytes()


class ReferenceSwap:
    """The per-action reduction as d separate log-barrier ``OMDLearner``s,
    each fed ``mix[a] * u``, mixed through ``stationary_distribution``."""

    def __init__(self, dim, eta):
        reg = Regularizer("log-barrier")
        self.learners = [OMDLearner(Simplex(dim), eta, regularizer=reg) for _ in range(dim)]
        self.mix_path = [self._mix()]

    def _mix(self):
        return stationary_distribution(np.asarray([lrn.play() for lrn in self.learners]))

    def play(self):
        return self.mix_path[-1]

    def update(self, utility):
        for a, lrn in enumerate(self.learners):
            lrn.update(self.mix_path[-1][a] * np.asarray(utility, dtype=float))
        self.mix_path.append(self._mix())


def test_wrapper_matches_per_learner_reference():
    rng = np.random.default_rng(8)
    for _ in range(12):
        dims = [int(rng.integers(1, 5)) for _ in range(2)]
        game = NormalFormGame([rng.uniform(-1, 1, size=tuple(dims)) for _ in range(2)])
        eta = default_log_barrier_eta(2, max(dims), lipschitz_constant(game))
        eta *= 10.0 ** rng.uniform(0, 3)
        m = int(rng.integers(1, 40))
        got = play_task(game, [SwapWrapper(d, eta) for d in dims], m)
        want = play_task(game, [ReferenceSwap(d, eta) for d in dims], m)
        for w, ref in zip(got, want):
            assert np.asarray(w.mix_path).tobytes() == np.asarray(ref.mix_path).tobytes()
            rows = np.asarray([lrn.play() for lrn in ref.learners])
            assert w._transition().tobytes() == rows.tobytes()
            for view, lrn in zip(w.action_learners, ref.learners):
                assert np.asarray(view.path).tobytes() == np.asarray(lrn.path).tobytes()
                assert view.utility_array().tobytes() == lrn.utility_array().tobytes()
                assert view.init.tobytes() == lrn.init.tobytes()
            regrets = [external_regret(r.path[1:], r.utility_array(), r.set)[0] for r in ref.learners]
            assert w.per_action_external_regrets().tobytes() == np.asarray(regrets).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5])
def test_wrapper_rejects_bad_utility_before_recording_it(bad):
    w = SwapWrapper(3, eta=0.05)
    w.update(np.array([0.1, -0.2, 0.3]))
    mix = w.play().copy()
    with pytest.raises(InvalidInputError):
        w.update(np.array([0.1, bad, 0.3]))
    assert w.played_array().shape == w.utility_array().shape == (1, 3)
    assert all(view.utility_array().shape == (1, 3) for view in w.action_learners)
    np.testing.assert_array_equal(w.play(), mix)
    assert swap_regret(w.played_array(), w.utility_array()) >= 0.0
