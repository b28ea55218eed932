from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metagames.errors import ConfigError, InvalidInputError
from metagames.games import MatrixGame, VIOperator, lipschitz_constant
from metagames.geometry import Box, Regularizer, Simplex, bregman, project_l2
from metagames.harness import make_learner, play_task
from metagames.learners import (
    SECONDARY_ANCHOR,
    AlphaWeights,
    GDLearner,
    OMDLearner,
    OptAdaGradLearner,
    PreconditionerSchedule,
    alpha_regret,
    external_regret,
    project_simplex_weighted,
    rvu_terms,
)
from metagames.metrics import duality_gap, saddle_point

MP = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_omd_zero_utilities_fixed():
    lrn = OMDLearner(Simplex(3), 0.2)
    for _ in range(10):
        lrn.play()
        lrn.update(np.zeros(3))
    np.testing.assert_allclose(lrn.path[-1], [1 / 3] * 3, atol=1e-15)


def test_ogd_matching_pennies_stays_at_equilibrium():
    xl = make_learner("ogd", Simplex(2), 0.1)
    yl = make_learner("ogd", Simplex(2), 0.1)
    play_task(MP, [xl, yl], 1)
    np.testing.assert_allclose(xl.path[-1], [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(yl.path[-1], [0.5, 0.5], atol=1e-15)


def test_opthedge_step_example():
    lrn = OMDLearner(Simplex(2), np.log(2), Regularizer("entropic"))
    lrn.set_prediction(np.array([1.0, 0.0]))
    np.testing.assert_allclose(lrn.play(), [2 / 3, 1 / 3], atol=1e-12)
    lrn.update(np.array([1.0, 0.0]))
    np.testing.assert_allclose(lrn.hat_path[-1], [2 / 3, 1 / 3], atol=1e-12)


def test_omd_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        OMDLearner(Simplex(2), -0.5)
    with pytest.raises(InvalidInputError):
        OMDLearner(Simplex(2), 0.1, init=np.array([0.7, 0.7]))
    lrn = OMDLearner(Simplex(2), 0.1)
    with pytest.raises(InvalidInputError):
        lrn.update(np.array([np.nan, 0.0]))


def _optadagrad(strategy_set, init=None):
    """OptAdaGrad under the constant Q = 4 I, the OGD step at rate 1/4."""
    q = PreconditionerSchedule.constant(np.full(strategy_set.dim, 4.0), 40)
    return OptAdaGradLearner(strategy_set, q, init=init)


@pytest.mark.parametrize("cls", [OMDLearner, GDLearner])
@pytest.mark.parametrize("eta", [0.0, np.nan, np.inf])
def test_learners_refuse_bad_rate(cls, eta):
    with pytest.raises(InvalidInputError, match="eta must be positive and finite"):
        cls(Simplex(2), eta)


@pytest.mark.parametrize("make", [partial(GDLearner, eta=0.1), _optadagrad], ids=["gd", "optadagrad"])
def test_learners_refuse_infeasible_start(make):
    with pytest.raises(InvalidInputError, match="initialization is infeasible"):
        make(Simplex(2), init=np.array([0.7, 0.7]))


def test_optadagrad_refuses_nan_utility():
    ada = _optadagrad(Simplex(3))
    ada.play()
    with pytest.raises(InvalidInputError, match="non-finite utility"):
        ada.update(np.array([np.nan, 0.0, 0.0]))
    assert len(ada.path) == 1 and ada.step_index == 0


def test_optadagrad_refuses_unsupported_set():
    with pytest.raises(InvalidInputError, match="unsupported set ProductSet"):
        OptAdaGradLearner(MP.operator().set, PreconditionerSchedule.constant(np.ones(4), 3))


def test_optadagrad_set_prediction_after_play_moves_the_point():
    ada = _optadagrad(Simplex(2))
    np.testing.assert_allclose(ada.play(), [0.5, 0.5], atol=1e-15)
    ada.set_prediction(np.array([1.0, 0.0]))
    # The Q-weighted projection of [0.5, 0.5] + [1, 0] / 4.
    np.testing.assert_allclose(ada.play(), [0.625, 0.375], atol=1e-12)


def test_play_task_plays_optadagrad():
    game = MatrixGame(np.random.default_rng(8).uniform(-1, 1, size=(2, 3)))
    ada = play_task(game, [_optadagrad(s) for s in game.sets], 30)
    ogd = play_task(game, [OMDLearner(s, 0.25) for s in game.sets], 30)
    for a, o in zip(ada, ogd):
        assert a.eta == 0.25 and a.step_index == 30
        assert np.max(np.abs(a.primary_array() - o.primary_array())) < 1e-12
        assert np.max(np.abs(a.prediction_array() - o.prediction_array())) < 1e-12


@pytest.mark.parametrize("diag", [[np.nan, 1.0], [np.inf, 1.0], [0.0, 1.0]])
def test_preconditioner_schedule_refuses_bad_diagonals(diag):
    with pytest.raises(ConfigError, match="positive and finite"):
        PreconditionerSchedule([[1.0, 1.0], diag])


@pytest.mark.parametrize("values", [[np.nan, np.nan], [0.5, np.inf]])
def test_alpha_weights_refuse_non_finite(values):
    with pytest.raises(InvalidInputError, match="positive and finite"):
        AlphaWeights(np.array(values))


def test_external_regret_examples():
    # constant play at the best action
    strat = np.tile(np.array([0.0, 1.0]), (4, 1))
    utils = np.tile(np.array([0.2, 0.9]), (4, 1))
    reg, opt = external_regret(strat, utils, Simplex(2))
    assert abs(reg) < 1e-15
    np.testing.assert_array_equal(opt, [0.0, 1.0])
    # play (1,0) twice under u = (0,1): regret 2, optimum (0,1)
    strat = np.tile(np.array([1.0, 0.0]), (2, 1))
    utils = np.tile(np.array([0.0, 1.0]), (2, 1))
    reg, opt = external_regret(strat, utils, Simplex(2))
    assert abs(reg - 2.0) < 1e-15
    np.testing.assert_array_equal(opt, [0.0, 1.0])
    # enumeration oracle over the vertices
    best_vertex = max(float(np.sum(utils, axis=0)[a]) for a in range(2))
    assert abs(reg - (best_vertex - np.sum(strat * utils))) < 1e-15


def test_external_regret_ties_lexicographic():
    utils = np.tile(np.array([0.5, 0.5]), (3, 1))
    _, opt = external_regret(np.tile(np.array([0.5, 0.5]), (3, 1)), utils, Simplex(2))
    np.testing.assert_array_equal(opt, [1.0, 0.0])  # lowest index wins ties


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 6),
    st.integers(1, 30),
    st.floats(-100.0, 100.0),
    st.integers(0, 2**32 - 1),
)
def test_external_regret_invariant_under_utility_shift(d, m, shift, seed):
    # Every strategy sums to 1, so a constant added to every utility adds
    # the same amount to the comparator's value and to the realized value.
    rng = np.random.default_rng(seed)
    strategies = rng.dirichlet(np.ones(d), size=m)
    utilities = rng.uniform(-1.0, 1.0, size=(m, d))
    reg, _ = external_regret(strategies, utilities, Simplex(d))
    shifted, _ = external_regret(strategies, utilities + shift, Simplex(d))
    assert abs(shifted - reg) <= 1e-12 * (1.0 + abs(shift)) * m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(1, 60),
    st.sampled_from(["ogd", "opthedge"]),
    st.floats(-2.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_regret_sum_equals_duality_gap_of_averages(d1, d2, m, algo, log_eta, seed):
    # On a zero-sum bilinear game, (regret_x + regret_y)/m is the duality gap
    # of the average strategies, whatever the learners played.
    game = MatrixGame(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(d1, d2)))
    xl = make_learner(algo, Simplex(d1), 10.0**log_eta)
    yl = make_learner(algo, Simplex(d2), 10.0**log_eta)
    play_task(game, [xl, yl], m)
    regrets = [
        external_regret(np.asarray(lrn.path[1:]), lrn.utility_array(), Simplex(d))[0]
        for lrn, d in ((xl, d1), (yl, d2))
    ]
    x_bar = np.mean(np.asarray(xl.path[1:]), axis=0)
    y_bar = np.mean(np.asarray(yl.path[1:]), axis=0)
    assert abs(sum(regrets) / m - duality_gap(game, x_bar, y_bar)) <= 1e-9


def test_matching_pennies_uniform_zero_regret():
    xl = make_learner("ogd", Simplex(2), 0.1)
    yl = make_learner("ogd", Simplex(2), 0.1)
    play_task(MP, [xl, yl], 50)
    rx, _ = external_regret(np.asarray(xl.path[1:]), xl.utility_array(), Simplex(2))
    ry, _ = external_regret(np.asarray(yl.path[1:]), yl.utility_array(), Simplex(2))
    assert abs(rx) < 1e-12 and abs(ry) < 1e-12


def test_alpha_weights_schedules():
    lin = AlphaWeights.linear(3)
    np.testing.assert_allclose(lin.values, [0.5, 1.0, 1.5])
    quad = AlphaWeights.quadratic(2)
    np.testing.assert_allclose(quad.values, [0.4, 1.6])
    assert abs(np.sum(AlphaWeights.linear(17).values) - 17) < 1e-9
    with pytest.raises(InvalidInputError):
        AlphaWeights(np.array([2.0, 1.0]))  # decreasing


def test_alpha_regret_uniform_reduces_to_external():
    rng = np.random.default_rng(0)
    strat = rng.dirichlet(np.ones(3), size=6)
    utils = rng.uniform(-1, 1, size=(6, 3))
    r0, _ = external_regret(strat, utils, Simplex(3))
    r1, _ = alpha_regret(strat, utils, AlphaWeights.uniform(6), Simplex(3))
    assert abs(r0 - r1) < 1e-12


def test_gd_examples():
    lrn = GDLearner(Simplex(2), 0.3)
    lrn.update(np.zeros(2))
    np.testing.assert_allclose(lrn.x, [0.5, 0.5], atol=1e-15)
    lrn = GDLearner(Simplex(2), 0.25, init=np.array([0.5, 0.5]))
    lrn.update(np.array([1.0, 0.0]))
    np.testing.assert_allclose(
        lrn.x, project_l2(Simplex(2), np.array([0.75, 0.5])), atol=1e-15
    )
    np.testing.assert_allclose(lrn.x, [0.625, 0.375], atol=1e-15)


def test_gd_identical_interest_potential_monotone():
    payoff = np.array([[1.0, 0.0], [0.0, 0.3]])
    x = GDLearner(Simplex(2), 0.1, init=np.array([0.7, 0.3]))
    y = GDLearner(Simplex(2), 0.1, init=np.array([0.6, 0.4]))
    last_phi = float(x.x @ payoff @ y.x)
    for _ in range(100):
        gx = payoff @ y.x
        gy = payoff.T @ x.x
        x.update(gx)
        y.update(gy)
        phi = float(x.x @ payoff @ y.x)
        assert phi >= last_phi - 1e-12
        last_phi = phi
    assert x.x[0] > 0.99 and y.x[0] > 0.99


def test_rvu_inequality_random_games():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d1, d2 = rng.integers(2, 11, size=2)
        game = MatrixGame(rng.uniform(-1, 1, size=(d1, d2)))
        eta = 1.0 / (4.0 * lipschitz_constant(game))
        xl = make_learner("ogd", Simplex(d1), eta)
        yl = make_learner("ogd", Simplex(d2), eta)
        play_task(game, [xl, yl], 150)
        for lrn, ss in ((xl, Simplex(d1)), (yl, Simplex(d2))):
            reg, opt = external_regret(np.asarray(lrn.path[1:]), lrn.utility_array(), ss)
            breg, pred, path = rvu_terms(lrn, opt)
            assert reg <= breg / eta + eta * pred - path / (8.0 * eta) + 1e-8
            # refined two-sequence form with the 1/(2 eta) constant
            breg, pred, path_ref = rvu_terms(lrn, opt, constant="half")
            assert reg <= breg / eta + eta * pred - path_ref / (2.0 * eta) + 1e-8


def test_sum_of_regrets_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        game = MatrixGame(rng.uniform(-1, 1, size=(4, 4)))
        L = lipschitz_constant(game)
        eta = 1.0 / (4.0 * L)  # n = 2 so sqrt(n-1) = 1
        xl = make_learner("ogd", Simplex(4), eta)
        yl = make_learner("ogd", Simplex(4), eta)
        play_task(game, [xl, yl], 200)
        rx, ox = external_regret(np.asarray(xl.path[1:]), xl.utility_array(), Simplex(4))
        ry, oy = external_regret(np.asarray(yl.path[1:]), yl.utility_array(), Simplex(4))
        dx = bregman(Regularizer("euclidean"), ox, xl.init)
        dy = bregman(Regularizer("euclidean"), oy, yl.init)
        assert rx + ry <= (dx + dy) / eta + 1e-8


def test_regret_sum_nonnegative_at_nash():
    rng = np.random.default_rng(3)
    for _ in range(10):
        game = MatrixGame(rng.uniform(-1, 1, size=(3, 3)))
        eta = 1.0 / (4.0 * lipschitz_constant(game))
        xl = make_learner("ogd", Simplex(3), eta)
        yl = make_learner("ogd", Simplex(3), eta)
        play_task(game, [xl, yl], 100)
        sx, sy, _ = saddle_point(game)
        rx, _ = external_regret(np.asarray(xl.path[1:]), xl.utility_array(), comparator=sx)
        ry, _ = external_regret(np.asarray(yl.path[1:]), yl.utility_array(), comparator=sy)
        assert rx + ry >= -1e-9


def test_weighted_rvu_bound():
    # alpha-regret bound of the weighted analysis under both schedules
    rng = np.random.default_rng(4)
    euc = Regularizer("euclidean")
    for schedule in ("linear", "quadratic"):
        for _ in range(10):
            game = MatrixGame(rng.uniform(-1, 1, size=(3, 3)))
            eta = 1.0 / (4.0 * lipschitz_constant(game))
            xl = make_learner("ogd", Simplex(3), eta)
            yl = make_learner("ogd", Simplex(3), eta)
            m = 60
            play_task(game, [xl, yl], m)
            weights = AlphaWeights.from_schedule(schedule, m)
            for lrn in (xl, yl):
                areg, comp = alpha_regret(
                    np.asarray(lrn.path[1:]), lrn.utility_array(), weights, Simplex(3)
                )
                al = weights.values
                hats = lrn.secondary_array()
                prim = lrn.primary_array()
                us = lrn.utility_array()
                ms = lrn.prediction_array()
                breg0 = bregman(euc, comp, hats[0])
                max_mid = max(
                    bregman(euc, comp, hats[i]) for i in range(1, m)
                )
                pred = float(np.sum(al[:, None] * (us - ms) ** 2))
                path = float(
                    np.sum(al[:, None] * (prim[1:] - hats[:-1]) ** 2)
                    + np.sum(al[:, None] * (prim[1:] - hats[1:]) ** 2)
                )
                rhs = (
                    al[0] / eta * breg0
                    + (al[-1] - al[0]) / eta * max_mid
                    + eta * pred
                    - path / (2.0 * eta)
                )
                assert areg <= rhs + 1e-8


def test_weighted_sum_of_alpha_regrets_corollary():
    # aggregate consequences of the weighted analysis at eta = 1/(4L sqrt(n-1)):
    # linear weights give sum_k areg_k / m <= 4 L sqrt(n-1) sum_k Omega_k^2 / m,
    # quadratic weights 12 L sqrt(n-1) sum_k Omega_k^2 (m^2+1)/(m(m+1)(2m+1)).
    rng = np.random.default_rng(21)
    m = 80
    omega_sq = 2.0 + 2.0  # two simplices
    for _ in range(10):
        game = MatrixGame(rng.uniform(-1, 1, size=(3, 3)))
        L = lipschitz_constant(game)
        eta = 1.0 / (4.0 * L)
        xl = make_learner("ogd", Simplex(3), eta)
        yl = make_learner("ogd", Simplex(3), eta)
        play_task(game, [xl, yl], m)
        for schedule, rhs in (
            ("linear", 4.0 * L * omega_sq / m),
            ("quadratic", 12.0 * L * omega_sq * (m**2 + 1) / (m * (m + 1) * (2 * m + 1))),
        ):
            weights = AlphaWeights.from_schedule(schedule, m)
            total = 0.0
            for lrn in (xl, yl):
                areg, _ = alpha_regret(
                    np.asarray(lrn.path[1:]), lrn.utility_array(), weights, Simplex(3)
                )
                total += areg
            assert total / m <= rhs + 1e-8


def test_welfare_alpha_weights():
    from metagames.games import NormalFormGame, SmoothnessMeta
    from metagames.metrics import welfare_report

    game = NormalFormGame([np.array([[1.0, 0.0], [0.0, 0.5]])] * 2)
    profile = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    meta = SmoothnessMeta(1.0, 1.0, opt_welfare=1.5, alpha_weights=np.array([1.0, 0.5]))
    report = welfare_report(game, meta, [profile])
    assert abs(report.welfare - 1.5) < 1e-12


def test_optadagrad_reduces_to_ogd():
    rng = np.random.default_rng(5)
    eta = 0.07
    d = 4
    pre = PreconditionerSchedule.constant(np.full(d, 1.0 / eta), 1000)
    ada = OptAdaGradLearner(Simplex(d), pre)
    ogd = OMDLearner(Simplex(d), eta)
    for _ in range(1000):
        u = rng.uniform(-1, 1, d)
        ada.play()
        ogd.play()
        ada.update(u)
        ogd.update(u)
    assert np.max(np.abs(ada.primary_array() - ogd.primary_array())) < 1e-12


def test_optadagrad_zero_utilities_and_diagonal_difference():
    pre = PreconditionerSchedule.constant(np.array([2.0, 1.0]), 10)
    ada = OptAdaGradLearner(Simplex(2), pre)
    for _ in range(5):
        ada.play()
        ada.update(np.zeros(2))
    np.testing.assert_allclose(ada.path[-1], [0.5, 0.5], atol=1e-15)

    g = np.array([1.0, 0.0])
    ada = OptAdaGradLearner(Simplex(2), PreconditionerSchedule.constant(np.array([2.0, 1.0]), 4))
    iso = OptAdaGradLearner(Simplex(2), PreconditionerSchedule.constant(np.array([1.0, 1.0]), 4))
    ada.play(), iso.play()
    ada.update(g)
    iso.update(g)
    # After one observed gradient the secondary iterates differ and both stay
    # feasible; the weighted step matches a grid-search prox oracle.
    assert abs(ada.x_hat.sum() - 1.0) < 1e-12 and ada.x_hat.min() >= 0
    assert np.max(np.abs(ada.x_hat - iso.x_hat)) > 1e-6
    step = 1e-5
    ts = np.arange(0.0, 1.0 + step / 2, step)
    pts = np.stack([ts, 1.0 - ts], axis=1)
    q = np.array([2.0, 1.0])
    target = np.array([0.5, 0.5]) + g / q
    oracle = pts[int(np.argmin(np.sum(q * (pts - target) ** 2, axis=1)))]
    np.testing.assert_allclose(ada.x_hat, oracle, atol=2e-5)
    np.testing.assert_allclose(ada.x_hat, [5 / 6, 1 / 6], atol=1e-12)


def test_weighted_projection_matches_grid_oracle():
    rng = np.random.default_rng(6)
    step = 1e-4
    ts = np.arange(0.0, 1.0 + step / 2, step)
    pts = np.stack([ts, 1.0 - ts], axis=1)
    for _ in range(10):
        y = rng.normal(size=2)
        q = rng.uniform(0.5, 3.0, 2)
        out = project_simplex_weighted(y, q)
        vals = np.sum(q * (pts - y) ** 2, axis=1)
        oracle = pts[int(np.argmin(vals))]
        assert np.max(np.abs(out - oracle)) < 2e-4
        assert abs(out.sum() - 1.0) < 1e-12


def test_optadagrad_regret_bound_drifting_preconditioner():
    rng = np.random.default_rng(7)
    m, d = 300, 3
    base = np.array([4.0, 5.0, 6.0])
    diags = [base + 0.5 * np.sin(np.arange(d) + i / 25.0) for i in range(m)]
    pre = PreconditionerSchedule(diags)
    ada = OptAdaGradLearner(Simplex(d), pre)
    for i in range(m):
        ada.play()
        ada.update(rng.uniform(-1, 1, d))
    us = np.asarray(ada.utilities)
    ms = np.asarray(ada.predictions)
    prim = ada.primary_array()
    hats = ada.secondary_array()
    reg, comp = external_regret(prim[1:], us, Simplex(d))
    q1 = pre[0]
    breg = 0.5 * float(np.sum(q1 * (comp - prim[0]) ** 2))
    sigma = pre.drift()
    omega_sq = Simplex(d).diameter ** 2
    pred = sum(
        float(np.sum((us[i] - ms[i]) ** 2 / pre[i])) for i in range(m)
    )
    sig_term = 0.5 * sum(
        float(np.sum(pre[i] * (prim[i + 1] - hats[i]) ** 2))
        + float(np.sum(pre[i] * (prim[i + 1] - hats[i + 1]) ** 2))
        for i in range(m)
    )
    rhs = breg + 0.5 * omega_sq * sigma + pred - sig_term
    assert reg <= rhs + 1e-8


def _extra_gradient(op, eta, m, init):
    """Extra-gradient: OMD that predicts with -F at the previous secondary iterate."""
    eg = OMDLearner(op.set, eta, init=init, prediction_mode=SECONDARY_ANCHOR)
    return play_task(op, [eg], m, free_first=False)[0]


def test_eg_null_operator_and_equilibrium_fixed_point():
    op = MP.operator()
    eg = _extra_gradient(op, 0.1, 20, op.set.center())
    np.testing.assert_allclose(eg.hat_path[-1], [0.5, 0.5, 0.5, 0.5], atol=1e-14)
    reg, _ = external_regret(eg.path[1:], eg.utilities, op.set)
    assert abs(reg) < 1e-12

    zero = VIOperator(lambda z: np.zeros(4), op.set)
    eg0 = _extra_gradient(zero, 0.5, 10, np.array([0.3, 0.7, 0.2, 0.8]))
    np.testing.assert_allclose(eg0.hat_path[-1], [0.3, 0.7, 0.2, 0.8], atol=1e-15)
    reg0, _ = external_regret(eg0.path[1:], eg0.utilities, op.set)
    assert abs(reg0) < 1e-15


def test_eg_rvu_bound_and_stability():
    rng = np.random.default_rng(8)
    for _ in range(10):
        game = MatrixGame(rng.uniform(-1, 1, size=(3, 3)))
        L = lipschitz_constant(game)
        eta = 1.0 / (8.0 * L)
        op = game.operator()
        eg = _extra_gradient(op, eta, 500, op.set.center())
        prim = eg.primary_array()
        hats = eg.secondary_array()
        # stability: ||x^(i) - xhat^(i)|| <= eta * ||u^(i) - m^(i)||
        for i in range(1, len(prim)):
            lhs = np.linalg.norm(prim[i] - hats[i])
            rhs = eta * np.linalg.norm(eg.utilities[i - 1] - eg.predictions[i - 1])
            assert lhs <= rhs + 1e-10
        # proxy-regret RVU bound at the maximizing comparator
        reg, comp = external_regret(eg.path[1:], eg.utilities, op.set)
        breg, pred, path = rvu_terms(eg, comp, constant="half")
        assert reg <= breg / eta + eta * pred - path / (2.0 * eta) + 1e-8


def test_omd_approaches_nash_bilinear():
    # one-step approach property with secondary-anchor predictions
    rng = np.random.default_rng(9)
    for _ in range(10):
        game = MatrixGame(rng.uniform(-1, 1, size=(3, 3)))
        eta = 1.0 / (4.0 * lipschitz_constant(game))
        xl = make_learner("ogd", Simplex(3), eta, prediction="secondary-anchor")
        yl = make_learner("ogd", Simplex(3), eta, prediction="secondary-anchor")
        play_task(game, [xl, yl], 80)
        sx, sy, _ = saddle_point(game)
        xh = xl.secondary_array()
        yh = yl.secondary_array()
        pots = np.sum((xh - sx) ** 2, axis=1) + np.sum((yh - sy) ** 2, axis=1)
        assert np.all(np.diff(pots) <= 1e-10)


def test_strongly_convex_contraction():
    # f(x, y) = x^T A y + (mu/2)||x||^2 - (mu/2)||y||^2: OMD with secondary-
    # anchor predictions contracts toward the unique saddle point. The Young-
    # inequality step of the analysis yields the factor 1 + eta*mu/2 at the
    # admissible learning rate (eta <= 1/(4L) always binds since L >= mu).
    rng = np.random.default_rng(10)
    A = 0.2 * rng.uniform(-1, 1, size=(3, 3))
    mu = 1.0
    L = float(np.linalg.norm(A, 2)) + mu
    eta = min(1.0 / (4.0 * L), 1.0 / (2.0 * mu))
    s = Simplex(3)

    def loop(x0, y0, steps):
        xl = OMDLearner(s, eta, init=x0, prediction_mode="secondary-anchor")
        yl = OMDLearner(s, eta, init=y0, prediction_mode="secondary-anchor")
        for _ in range(steps):
            gx = -(A @ yl.x_hat + mu * xl.x_hat)
            gy = A.T @ xl.x_hat - mu * yl.x_hat
            xl.set_prediction(gx)
            yl.set_prediction(gy)
            x, y = xl.play(), yl.play()
            xl.update(-(A @ y + mu * x))
            yl.update(A.T @ x - mu * y)
        return xl, yl

    ref_x, ref_y = loop(s.center(), s.center(), 6000)
    x_star, y_star = ref_x.x_hat, ref_y.x_hat
    xl, yl = loop(np.array([0.8, 0.1, 0.1]), np.array([0.2, 0.3, 0.5]), 60)
    xh, yh = xl.secondary_array(), yl.secondary_array()
    dist = np.sum((xh - x_star) ** 2, axis=1) + np.sum((yh - y_star) ** 2, axis=1)
    rate = 1.0 + eta * mu / 2.0
    for i in range(1, len(dist)):
        if dist[i] < 1e-18:
            break
        assert dist[i - 1] >= rate * dist[i] - 1e-9


def test_doubling_trick_halts_on_positive_residual():
    from metagames.errors import DomainError
    from metagames.learners import doubling_residual, doubling_trick_eta

    rng = np.random.default_rng(11)
    # an entropic learner started on the boundary, where the Bregman term of
    # the RVU bound is undefined; the doubling rule never evaluates it
    learners = [
        OMDLearner(Simplex(2), 0.9),
        OMDLearner(Simplex(2), 0.9, Regularizer("entropic"), init=np.array([1.0, 0.0])),
    ]
    for lrn in learners:
        for _ in range(30):
            lrn.play()
            lrn.update(rng.choice([-1.0, 1.0], size=2))
    with pytest.raises(DomainError):
        rvu_terms(learners[1], learners[1].init)
    pred = sum(np.sum((lrn.utility_array() - lrn.prediction_array()) ** 2) for lrn in learners)
    path = sum(np.sum(np.diff(lrn.primary_array(), axis=0) ** 2) for lrn in learners)
    residual = 0.9 * pred - path / (8.0 * 0.9)
    assert residual > 0
    runs = [(lrn.primary_array(), lrn.utility_array(), lrn.prediction_array()) for lrn in learners]
    assert abs(doubling_residual(runs, 0.9) - residual) <= 1e-12 * (0.9 * pred)
    assert doubling_trick_eta(runs, 0.9) == 0.45
    assert doubling_trick_eta(runs[:1], 1e-6) == 1e-6  # path credit wins


def test_box_learner_and_best_point():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    lrn = OMDLearner(box, 0.2)
    lrn.play()
    lrn.update(np.array([1.0, -1.0]))
    assert box.contains(lrn.path[-1])
    opt = external_regret(np.zeros((1, 2)), np.array([[0.3, -0.2]]), box)[1]
    np.testing.assert_array_equal(opt, [1.0, -1.0])
