import numpy as np
import pytest

from metagames.errors import ConfigError, InvalidInputError
from metagames.games import (
    MatrixGame,
    NormalFormGame,
    PotentialGame,
    SequenceConfig,
    lipschitz_constant,
    lower_bound_family,
    sample_game_sequence,
    utility_gradient,
)

MP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_utility_gradient_matrix_examples():
    game = MatrixGame(MP)
    np.testing.assert_allclose(
        utility_gradient(game, 0, [None, np.array([0.5, 0.5])]), [0.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        utility_gradient(game, 0, [None, np.array([1.0, 0.0])]), [-1.0, 1.0]
    )
    with pytest.raises(InvalidInputError):
        utility_gradient(game, 2, [None, np.array([1.0, 0.0])])


def test_utility_gradient_vi_operator_is_one_player():
    op = MatrixGame(np.array([[0.3, -0.7], [0.1, 0.9]])).operator()
    z = np.array([0.2, 0.8, 0.6, 0.4])
    u = utility_gradient(op, 0, [z])
    assert u.tobytes() == (-op(z)).tobytes()
    with pytest.raises(InvalidInputError):
        utility_gradient(op, 1, [z, z])


def test_utility_gradient_normal_form_identity():
    eye = np.eye(2)
    game = NormalFormGame([eye, eye])
    profile = [np.array([0.3, 0.7]), np.array([1.0, 0.0])]
    np.testing.assert_allclose(utility_gradient(game, 0, profile), [1.0, 0.0])
    # tensor contraction against the brute-force expectation
    rng = np.random.default_rng(0)
    tensors = [rng.uniform(-1, 1, size=(2, 3, 2)) for _ in range(3)]
    game3 = NormalFormGame(tensors)
    profile = [rng.dirichlet(np.ones(d)) for d in (2, 3, 2)]
    for k in range(3):
        grad = utility_gradient(game3, k, profile)
        for a in range(game3.dims[k]):
            total = 0.0
            for idx in np.ndindex(*game3.dims):
                if idx[k] != a:
                    continue
                w = 1.0
                for j in range(3):
                    if j != k:
                        w *= profile[j][idx[j]]
                total += tensors[k][idx] * w
            assert abs(grad[a] - total) < 1e-12


def test_lipschitz_examples():
    assert abs(lipschitz_constant(MatrixGame(np.eye(2))) - 1.0) < 1e-9
    assert abs(lipschitz_constant(MatrixGame(np.diag([2.0, 1.0]))) - 2.0) < 1e-9
    ones = MatrixGame(np.ones((2, 2)))
    eig = float(np.sqrt(np.max(np.linalg.eigvalsh(ones.A.T @ ones.A))))
    assert abs(eig - 2.0) < 1e-12
    assert abs(lipschitz_constant(ones) - eig) < 1e-9


def test_lipschitz_bounds_utility_variation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = rng.uniform(-1, 1, size=rng.integers(2, 6, size=2))
        game = MatrixGame(A)
        L = lipschitz_constant(game)
        for _ in range(50):
            y1 = rng.dirichlet(np.ones(A.shape[1]))
            y2 = rng.dirichlet(np.ones(A.shape[1]))
            lhs = np.linalg.norm(
                utility_gradient(game, 0, [None, y1]) - utility_gradient(game, 0, [None, y2])
            )
            assert lhs <= L * np.linalg.norm(y1 - y2) + 1e-9


def test_lipschitz_normal_form_upper_bound():
    rng = np.random.default_rng(2)
    tensors = [rng.uniform(-1, 1, size=(3, 3, 3)) for _ in range(3)]
    game = NormalFormGame(tensors)
    L = lipschitz_constant(game)
    for _ in range(200):
        prof_a = [rng.dirichlet(np.ones(3)) for _ in range(3)]
        prof_b = [p.copy() for p in prof_a]
        j = rng.integers(3)
        prof_b[j] = rng.dirichlet(np.ones(3))
        for k in range(3):
            if k == j:
                continue
            diff = np.linalg.norm(
                utility_gradient(game, k, prof_a) - utility_gradient(game, k, prof_b)
            )
            dist = np.linalg.norm(prof_a[j] - prof_b[j])
            assert diff <= L * dist + 1e-9


def test_lower_bound_family():
    np.testing.assert_array_equal(
        lower_bound_family(3, 2).A, [[0, 0, 0], [1, 1, 1], [0, 0, 0]]
    )
    np.testing.assert_array_equal(lower_bound_family(1, 1).A, [[1.0]])
    np.testing.assert_array_equal(lower_bound_family(2, 1).A, [[1, 1], [0, 0]])
    with pytest.raises(InvalidInputError):
        lower_bound_family(3, 4)
    # Column player's utility vector has identical entries: no own-strategy impact.
    game = lower_bound_family(4, 3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.dirichlet(np.ones(4))
        u_y = utility_gradient(game, 1, [x, None])
        assert np.ptp(u_y) < 1e-15


def test_sequence_degenerate_prior():
    cfg = SequenceConfig(family="lower-bound-prior", T=5, seed=0, prior=np.array([1.0, 0, 0]))
    games = sample_game_sequence(cfg)
    for g in games:
        np.testing.assert_array_equal(g.A, lower_bound_family(3, 1).A)


def test_sequence_zero_noise():
    base = np.array([[0.3, -0.2], [0.1, 0.4]])
    cfg = SequenceConfig(family="perturbed-base", T=3, seed=5, base=base, delta=0.0)
    games = sample_game_sequence(cfg)
    for g in games:
        np.testing.assert_array_equal(g.A, base)


def test_sequence_prior_frequencies():
    prior = np.array([0.5, 0.5])
    cfg = SequenceConfig(family="lower-bound-prior", T=10_000, seed=11, prior=prior)
    games = sample_game_sequence(cfg)
    freq = np.zeros(2)
    for g in games:
        freq[int(np.argmax(g.A[:, 0]))] += 1
    freq /= len(games)
    assert np.max(np.abs(freq - prior)) < 0.02


def test_sequence_determinism_and_modes():
    cfg = SequenceConfig(
        family="perturbed-base",
        T=7,
        seed=3,
        base=MP,
        delta=0.1,
        sequencing="alternating",
    )
    a = sample_game_sequence(cfg)
    b = sample_game_sequence(cfg)
    for ga, gb in zip(a, b):
        np.testing.assert_array_equal(ga.A, gb.A)
    with pytest.raises(ConfigError):
        sample_game_sequence(SequenceConfig(family="nope", T=1))
    with pytest.raises(ConfigError):
        sample_game_sequence(SequenceConfig(family="perturbed-base", T=1, base=MP, sequencing="zigzag"))


def test_potential_drift_family():
    cfg = SequenceConfig(family="potential-drift", T=6, seed=2, dim=3, alpha=0.01)
    games = sample_game_sequence(cfg)
    assert all(isinstance(g, PotentialGame) for g in games)
    for a, b in zip(games[:-1], games[1:]):
        assert np.max(np.abs(a.base.payoffs[0] - b.base.payoffs[0])) <= 0.01 + 1e-12


def test_potential_partial_derivative_identity():
    # dPhi/dx_k[a] = u_k(a, x_{-k}) by finite differences.
    rng = np.random.default_rng(4)
    game = PotentialGame.identical_interest(rng.uniform(-0.5, 0.5, size=(3, 3)))
    h = 1e-6
    for _ in range(100):
        profile = [rng.dirichlet(np.ones(3)) for _ in range(2)]
        for k in range(2):
            u = utility_gradient(game, k, profile)
            for a in range(3):
                bumped = [p.copy() for p in profile]
                bumped[k] = bumped[k].copy()
                bumped[k][a] += h
                fd = (game.potential(bumped) - game.potential(profile)) / h
                assert abs(fd - u[a]) < 1e-4


def test_rescaling_and_bounds():
    big = MatrixGame(np.array([[3.0, 0.0], [0.0, -3.0]]))
    scaled = big.rescaled()
    assert np.max(np.abs(scaled.A)) <= 1.0
    with pytest.raises(InvalidInputError):
        NormalFormGame([np.array([[2.0]]), np.array([[0.0]])])
