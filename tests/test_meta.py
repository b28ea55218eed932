import numpy as np
import pytest

from metagames.errors import ConfigError
from metagames.games import MatrixGame
from metagames.geometry import Simplex
from metagames.meta import (
    EwooState,
    Initializer,
    TaskOutcome,
    anchor_variance,
    ewoo_next_eta,
    ftl_regret,
    kl_anchor_variance,
    nash_set_projection,
    ne_similarity_best,
    ne_similarity_worst,
    potential_similarity,
    shannon_entropy,
)
from metagames.metrics import saddle_point


def test_initializer_modes():
    sets = [Simplex(2)]
    init = Initializer("ftl-average", sets)
    np.testing.assert_allclose(init.initialization()[0], [0.5, 0.5])
    init.observe(TaskOutcome(optima=[np.array([1.0, 0.0])]))
    np.testing.assert_allclose(init.initialization()[0], [1.0, 0.0])
    init.observe(TaskOutcome(optima=[np.array([0.0, 1.0])]))
    np.testing.assert_allclose(init.initialization()[0], [0.5, 0.5])

    cold = Initializer("cold", [Simplex(3)])
    np.testing.assert_allclose(cold.initialization()[0], [1 / 3] * 3)

    prev = Initializer("prev-optimum", sets)
    prev.observe(TaskOutcome(optima=[np.array([0.2, 0.8])]))
    np.testing.assert_allclose(prev.initialization()[0], [0.2, 0.8])

    last = Initializer("last-iterate", sets)
    last.observe(TaskOutcome(optima=[np.array([1.0, 0.0])], last_iterates=[np.array([0.4, 0.6])]))
    np.testing.assert_allclose(last.initialization()[0], [0.4, 0.6])


def test_initializer_ne_average_matching_pennies():
    mp = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    sets = mp.sets
    init = Initializer("ne-average", sets)
    for _ in range(3):
        sx, sy, _ = saddle_point(mp)
        init.observe(TaskOutcome(nash=[sx, sy]))
        np.testing.assert_allclose(init.initialization()[0], [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(init.initialization()[1], [0.5, 0.5], atol=1e-9)


def test_initializer_custom_anchor():
    anchor = [np.array([0.1, 0.9])]
    init = Initializer("custom-anchor", [Simplex(2)], anchor=anchor)
    np.testing.assert_allclose(init.initialization()[0], [0.1, 0.9])
    init.observe(TaskOutcome(optima=[np.array([1.0, 0.0])]))  # ignored
    np.testing.assert_allclose(init.initialization()[0], [0.1, 0.9])
    with pytest.raises(ConfigError):
        Initializer("custom-anchor", [Simplex(2)])


def test_initializer_errors():
    with pytest.raises(ConfigError):
        Initializer("warm-ish", [Simplex(2)])
    ne = Initializer("ne-average", [Simplex(2)])
    with pytest.raises(ConfigError):
        ne.observe(TaskOutcome(optima=[np.array([1.0, 0.0])]))  # no NE oracle output


def test_ewoo_flat_posterior_is_interval_mean():
    st = EwooState(lo=0.1, hi=2.0, beta=1.0, epsilon=0.0)
    assert abs(ewoo_next_eta(st) - 1.05) < 1e-12


def test_ewoo_concentrates_on_argmin():
    # U(eta) = eta + 0.25/eta minimized at 0.5 on [0.1, 2]
    st = EwooState(lo=0.1, hi=2.0, beta=2.0, epsilon=0.0)
    for _ in range(400):
        st.record(0.25, 1.0)
    eta = ewoo_next_eta(st)
    grid = np.arange(0.1, 2.0, 1e-5)
    argmin = grid[int(np.argmin(grid + 0.25 / grid))]
    assert abs(eta - argmin) < 0.02 * argmin + 1e-4


def test_ewoo_zero_losses_concentrates_at_regularized_argmin():
    # All B_s = 0 with eps > 0: the regularized loss is minimized at eps
    # (equivalently the lower end when eps <= lo).
    D, rho = 1.0, 0.3
    st = EwooState.from_radius(D, rho)
    for _ in range(500):
        st.record(0.0, 1.0)
    eta = ewoo_next_eta(st)
    grid = np.linspace(st.lo, st.hi, 200001)
    argmin = grid[int(np.argmin(st.regularized_loss(grid)))]
    assert abs(argmin - st.lo) < 1e-5  # the regularized argmin is the lower end
    assert st.lo <= eta <= st.lo + 0.1 * (st.hi - st.lo)


def test_ewoo_regret_bound():
    # Cor-style bound: regret of the posterior-mean picks on the regularized
    # losses, against the best fixed eta in the domain.
    rng = np.random.default_rng(0)
    T = 200
    D, rho = 1.0, T ** (-0.25)
    st = EwooState.from_radius(D, rho)
    gammas = rng.uniform(0.5, 2.0, size=T)
    bs = rng.uniform(0.0, D, size=T) ** 2
    played = 0.0
    for t in range(T):
        eta_t = ewoo_next_eta(st)
        played += gammas[t] * (eta_t + (bs[t] + st.epsilon**2) / eta_t)
        st.record(bs[t], gammas[t])
    grid = np.linspace(st.lo, st.hi, 20001)
    totals = np.zeros_like(grid)
    for t in range(T):
        totals += gammas[t] * (grid + (bs[t] + st.epsilon**2) / grid)
    best = float(np.min(totals))
    eta_star = float(grid[int(np.argmin(totals))])
    eps = st.epsilon
    bound = min(eps**2 / eta_star, eps) * float(np.sum(gammas)) + (
        D * float(np.max(gammas)) / 2.0
    ) * max(D**2 / eps**2, 1.0) * (1.0 + np.log(T + 1))
    assert played - best <= bound + 1e-9


def test_similarity_examples():
    anchors = np.tile(np.array([0.3, 0.7]), (6, 1))
    assert anchor_variance(anchors) < 1e-30
    two = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(anchor_variance(two) - 0.5) < 1e-15
    assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    assert abs(shannon_entropy(np.full(4, 0.25)) - np.log(4)) < 1e-12
    assert shannon_entropy(np.full(4, 0.25)) <= np.log(4) + 1e-15
    assert kl_anchor_variance(np.tile(np.array([0.5, 0.5]), (3, 1))) < 1e-15


def test_ftl_regret_bound():
    # FTL over Euclidean Bregman losses: regret <= 2 Omega^2 (1 + log T).
    rng = np.random.default_rng(1)
    for d in (2, 4):
        omega_sq = Simplex(d).diameter ** 2
        for _ in range(5):
            T = 60
            anchors = rng.dirichlet(np.ones(d), size=T)
            inits = [np.full(d, 1.0 / d)]
            for t in range(1, T):
                inits.append(np.mean(anchors[:t], axis=0))
            reg = ftl_regret(anchors, np.asarray(inits))
            assert reg <= 2.0 * omega_sq * (1.0 + np.log(T)) + 1e-9


def test_nash_set_projection_and_best_similarity():
    rng = np.random.default_rng(2)
    games = [MatrixGame(rng.uniform(-1, 1, size=(3, 3))) for _ in range(4)]
    nes = []
    for g in games:
        sx, sy, v = saddle_point(g)
        nes.append(np.concatenate([sx, sy]))
        # projecting the NE onto its own optimal face is a fixed point
        px = nash_set_projection(g.A, v, sx, player=0)
        assert np.linalg.norm(px - sx) < 1e-6
        # the projection of a random point lands on the optimal face
        x = rng.dirichlet(np.ones(3))
        proj = nash_set_projection(g.A, v, x, player=0)
        assert np.max(g.A.T @ proj) <= v + 1e-6
    worst = ne_similarity_worst(nes)
    best = ne_similarity_best(games, None)
    assert best <= worst + 1e-6


def test_best_similarity_equals_worst_for_unique_ne():
    # matching-pennies-style games have a unique equilibrium
    rng = np.random.default_rng(3)
    games = []
    for _ in range(3):
        eps = rng.uniform(-0.05, 0.05, size=(2, 2))
        games.append(MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]) + eps))
    nes = [np.concatenate(saddle_point(g)[:2]) for g in games]
    worst = ne_similarity_worst(nes)
    best = ne_similarity_best(games, None)
    assert abs(best - worst) < 1e-4


def test_potential_similarity():
    grid = [
        [np.array([a, 1 - a]), np.array([b, 1 - b])]
        for a in np.linspace(0, 1, 11)
        for b in np.linspace(0, 1, 11)
    ]

    def make_phi(c):
        return lambda prof: c * float(prof[0][0] * prof[1][0])

    phis = [make_phi(c) for c in (1.0, 0.8, 0.9)]
    v = potential_similarity(phis, grid)
    # Delta(1.0, 0.8) = 0.2, Delta(0.8, 0.9) = 0 at the max point (0 elsewhere)
    assert abs(v - (0.2 + 0.0) / 3.0) < 1e-12
