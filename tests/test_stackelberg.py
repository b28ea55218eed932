import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from metagames import stackelberg
from metagames.errors import ConfigError, InvalidInputError
from metagames.games import SecurityGame
from metagames.geometry import mwu_step
from metagames.stackelberg import (
    ExtremePointSet,
    StackelbergConfig,
    build_extreme_points,
    defender_payoff,
    payoff_table,
    run_meta_stackelberg,
    stackelberg_regret,
)


def best_response(game, type_id, coverage):
    """The target ``stackelberg._responses`` has the attacker type hit under
    one coverage vector."""
    return int(stackelberg._responses(game, np.asarray(coverage, dtype=float)[None])[1][type_id, 0])


def loop_best_response(game, type_id, coverage):
    """Scalar reference of the tie rule: argmax attacker utility, ties
    defender-favorable then lowest index."""
    c, u = game.attacker_covered[type_id], game.attacker_uncovered[type_id]
    att = coverage * c + (1.0 - coverage) * u
    tied = np.flatnonzero(att >= np.max(att) - 1e-12)
    if len(tied) == 1:
        return int(tied[0])
    defender = defender_utilities(game, coverage)[tied]
    return int(tied[int(np.argmax(defender))])


def defender_utilities(game, coverage):
    """Defender's expected utility for every possible attacked target."""
    return coverage * game.defender_covered + (1.0 - coverage) * game.defender_uncovered


def loop_play_mwu(U, y0, eta, sampled, Y=None):
    """Per-round reference of ``stackelberg._play_mwu``: one ``mwu_step`` per
    round, with its 1e-300 floor, and a ``searchsorted`` draw. It needs no
    work array ``Y``."""
    n = U.shape[1]
    y = y0
    cum_utility = np.zeros(n)
    expected_value = 0.0
    realized_value = 0.0
    for i, u_vec in enumerate(U):
        expected_value += float(y @ u_vec)
        choice = int(np.searchsorted(np.cumsum(y), sampled[i] * np.sum(y)))
        realized_value += float(u_vec[min(choice, n - 1)])
        cum_utility += u_vec
        y = mwu_step(y, u_vec, eta)
    return expected_value, realized_value, cum_utility


def two_target_game():
    # attacker gets 1 on an uncovered target, 0 on a covered one
    return SecurityGame(
        [(np.zeros(2), np.ones(2))], np.array([0.5, 0.5]), np.array([-0.5, -0.5])
    )


def test_best_response_examples():
    g = two_target_game()
    assert best_response(g, 0, np.array([0.8, 0.2])) == 1  # utilities 0.2 vs 0.8
    # symmetric coverage ties; the defender-favorable rule picks among ties
    tied = best_response(g, 0, np.array([0.5, 0.5]))
    assert tied in (0, 1)
    dg = defender_utilities(g, np.array([0.5, 0.5]))
    assert dg[tied] == np.max(dg)
    single = SecurityGame([(np.zeros(1), np.ones(1))], np.ones(1), np.zeros(1))
    assert best_response(single, 0, np.array([1.0])) == 0


def test_best_response_defender_favorable_tiebreak():
    game = SecurityGame(
        [(np.array([0.0, 0.0]), np.array([0.5, 0.5]))],
        np.array([1.0, -1.0]),
        np.array([0.2, -0.2]),
    )
    # attacker indifferent at symmetric coverage; defender prefers target 0
    assert best_response(game, 0, np.array([0.5, 0.5])) == 0


def test_stackelberg_regret_examples():
    g = two_target_game()
    E = ExtremePointSet(np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]))
    # defender plays the per-task optimum from E every round -> regret 0
    best = max(
        E.points, key=lambda x: sum(defender_payoff(g, 0, x) for _ in range(3))
    )
    reg = stackelberg_regret(g, [best] * 3, [0, 0, 0], E)
    assert abs(reg) < 1e-12
    assert stackelberg_regret(g, [], [], E) == 0.0  # no rounds, no regret
    # single target -> single outcome -> always 0
    single = SecurityGame([(np.zeros(1), np.ones(1))], np.ones(1), np.zeros(1))
    E1 = ExtremePointSet(np.array([[1.0]]))
    assert stackelberg_regret(single, [np.array([1.0])] * 2, [0, 0], E1) == 0.0
    with pytest.raises(InvalidInputError):
        ExtremePointSet(np.empty((0, 2)))


def test_extreme_point_set_refuses_nan_points():
    # NaN fails both comparisons of the simplex test, so it must be negated.
    with pytest.raises(InvalidInputError, match="on the simplex"):
        ExtremePointSet(np.array([[np.nan, np.nan], [0.5, 0.5]]))


def test_stackelberg_regret_bruteforce_instance():
    # d=2, k=1, m=2, |E|=3: brute-force over E x rounds as the oracle
    g = two_target_game()
    E = ExtremePointSet(np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]]))
    played = [np.array([0.9, 0.1]), np.array([0.2, 0.8])]
    types = [0, 0]
    realized = sum(defender_payoff(g, f, x) for f, x in zip(types, played))
    best = max(sum(defender_payoff(g, f, x) for f in types) for x in E.points)
    assert abs(stackelberg_regret(g, played, types, E) - (best - realized)) < 1e-12


def _random_game(rng, d, k):
    types = [(rng.uniform(-1, 0, d), rng.uniform(0, 1, d)) for _ in range(k)]
    return SecurityGame(types, rng.uniform(0, 1, d), rng.uniform(-1, 0, d))


# Dyadic payoffs and coverages in quarters make ties exact.
DYADIC = st.sampled_from([-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def games_and_points(draw):
    d, k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), 6
    if draw(st.booleans()):
        n_values, n_cuts = (2 * k + 2) * d, n * (d - 1)
        payoffs = np.reshape(draw(st.lists(DYADIC, min_size=n_values, max_size=n_values)), (-1, d))
        cuts = draw(st.lists(st.integers(0, 4), min_size=n_cuts, max_size=n_cuts))
        cuts = np.sort(np.reshape(cuts, (n, d - 1)))
        points = np.diff(np.hstack([np.zeros((n, 1)), cuts, np.full((n, 1), 4)]), axis=1) / 4.0
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        payoffs = rng.uniform(-1, 1, (2 * k + 2, d))
        points = rng.dirichlet(np.ones(d), size=n)
    types = [(payoffs[2 * f], payoffs[2 * f + 1]) for f in range(k)]
    return SecurityGame(types, payoffs[-2], payoffs[-1]), points


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(games_and_points())
def test_payoff_table_matches_scalar_tie_rule(case):
    game, points = case
    table = payoff_table(game, points)
    assert table.shape == (game.k, len(points))
    for f in range(game.k):
        for e, x in enumerate(points):
            target = loop_best_response(game, f, x)
            expected = defender_utilities(game, x)[target]
            assert best_response(game, f, x) == target
            assert table[f, e] == defender_payoff(game, f, x) == expected


def test_play_mwu_matches_per_round_loop():
    rng = np.random.default_rng(12)
    for m, n in ((1, 1), (1, 5), (40, 1), (200, 37)):
        U = rng.uniform(-1, 1, (m, n))
        y0 = rng.dirichlet(np.ones(n))
        sampled = rng.random(m)
        for eta in (0.01, 0.5, 3.0):
            exp_v, real_v, cum = stackelberg._play_mwu(U, y0, eta, sampled, np.full((m, n), np.nan))
            ref_exp, ref_real, ref_cum = loop_play_mwu(U, y0, eta, sampled)
            tol = 1e-12 * m * np.max(np.abs(U))
            assert abs(exp_v - ref_exp) <= tol and abs(real_v - ref_real) <= tol
            assert cum.tobytes() == ref_cum.tobytes()


@pytest.mark.parametrize("persistent", [True, False])
def test_run_matches_per_round_loop(monkeypatch, persistent):
    # The closed form keeps the argmax of the summed utilities bit for bit,
    # so the meta layer sees the same optima: rates, initializations and
    # bounds agree exactly; the regrets to rounding.
    rng = np.random.default_rng(13)
    game = _random_game(rng, 3, 2)
    E = build_extreme_points([game], gamma=1e-3)
    T, m = 6, 120
    if persistent:
        script = [[1] * m] * T
    else:
        script = rng.integers(0, game.k, size=(T, m)).tolist()
    tol = 1e-12 * m * np.max(np.abs(payoff_table(game, E.points)))
    for init in ("ftl-average", "uniform"):
        for eta in ("ewoo", 0.05, 2.0):
            cfg = StackelbergConfig(m=m, initializer=init, eta=eta, seed=14)
            recs, _ = run_meta_stackelberg([game] * T, script, cfg, extreme_points=E)
            with monkeypatch.context() as patch:
                patch.setattr(stackelberg, "_play_mwu", loop_play_mwu)
                ref, _ = run_meta_stackelberg([game] * T, script, cfg, extreme_points=E)
            for r, q in zip(recs, ref):
                for key in ("task", "eta", "init_kl", "mwu_bound", "best_point_index"):
                    assert r[key] == q[key]
                for key in ("regret_expected", "regret_realized"):
                    assert abs(r[key] - q[key]) <= tol


def test_run_reuses_one_pair_of_task_arrays(monkeypatch):
    # Every task plays on the same utility rows and work array, so no task
    # allocates (m, n) arrays of its own.
    rng = np.random.default_rng(16)
    game = _random_game(rng, 3, 2)
    seen, real = [], stackelberg._play_mwu
    monkeypatch.setattr(stackelberg, "_play_mwu", lambda U, *a: seen.append((U, a[-1])) or real(U, *a))
    script = rng.integers(0, game.k, size=(4, 30)).tolist()
    run_meta_stackelberg([game] * 4, script, StackelbergConfig(m=30, seed=3))
    U, Y = seen[0]
    assert len(seen) == 4 and all(u is U and y is Y for u, y in seen) and U is not Y


def test_payoff_table_built_once_per_run_of_one_game(monkeypatch):
    rng = np.random.default_rng(15)
    first, second = _random_game(rng, 3, 2), _random_game(rng, 3, 2)
    E = build_extreme_points([first, second], gamma=1e-3)
    built = []

    def counted(game, points):
        built.append(game)
        return payoff_table(game, points)

    monkeypatch.setattr(stackelberg, "payoff_table", counted)
    m = 10
    cfg = StackelbergConfig(m=m, initializer="ftl-average", eta="ewoo", seed=16)
    run_meta_stackelberg([first] * 8, [[0] * m] * 8, cfg, extreme_points=E)
    assert built == [first]
    built.clear()
    run_meta_stackelberg([first, first, second, first], [[1] * m] * 4, cfg, extreme_points=E)
    assert built == [first, second, first]


def test_extreme_points_cover_region_optima():
    rng = np.random.default_rng(3)
    game = _random_game(rng, 3, 2)
    E = build_extreme_points([game], gamma=1e-3)
    assert E.provenance == "brute-force-regions"
    # for every nonempty best-response region, the defender's region-optimal
    # point (an LP vertex) must be in E
    from metagames.stackelberg import _region_constraints

    for f in range(game.k):
        for j in range(game.d):
            rows = _region_constraints(game, f, j)
            A_ub = -np.asarray([a for a, _ in rows])
            b_ub = -np.asarray([b for _, b in rows])
            c = -(game.defender_covered - game.defender_uncovered)
            cj = np.zeros(game.d)
            cj[j] = c[j]
            res = linprog(
                cj,
                A_ub=A_ub,
                b_ub=b_ub,
                A_eq=np.ones((1, game.d)),
                b_eq=[1.0],
                bounds=[(0, None)] * game.d,
                method="highs",
            )
            if not res.success:
                continue  # empty region
            dists = np.linalg.norm(E.points - res.x, axis=1)
            assert float(np.min(dists)) <= max(E.gamma, 1e-6)


def test_extreme_points_grid_fallback():
    rng = np.random.default_rng(4)
    game = _random_game(rng, 6, 1)
    E = build_extreme_points([game], gamma=0.25)
    assert E.provenance == "grid"
    assert np.max(np.abs(np.sum(E.points, axis=1) - 1.0)) < 1e-9
    # the points, and their order, of filtering the whole product grid
    grid = [np.asarray(c, dtype=float) / 4 for c in itertools.product(range(5), repeat=6) if sum(c) == 4]
    assert E.points.tobytes() == np.asarray(grid).tobytes()


def test_extreme_points_grid_too_fine_is_refused():
    # at the default gamma, 6 targets would take C(1005, 5), about 8.5e12, points
    game = _random_game(np.random.default_rng(4), 6, 1)
    with pytest.raises(ConfigError, match=r"gamma=0\.001 on d=6 targets"):
        build_extreme_points([game])


@pytest.mark.parametrize("gamma", [1e-320, 0.0])
def test_extreme_points_grid_gamma_without_finite_inverse_is_refused(gamma):
    # 1/gamma overflows (or divides by zero), which round() cannot take
    game = _random_game(np.random.default_rng(4), 6, 1)
    with pytest.raises(ConfigError, match=rf"gamma={gamma!r} on d=6 targets has no finite 1/gamma"):
        build_extreme_points([game], gamma=gamma)


def test_run_single_point_zero_regret():
    single = SecurityGame([(np.zeros(1), np.ones(1))], np.ones(1), np.zeros(1))
    E = ExtremePointSet(np.array([[1.0]]))
    cfg = StackelbergConfig(m=20, initializer="uniform", eta=0.1, seed=0)
    recs, _ = run_meta_stackelberg([single] * 3, [[0] * 20] * 3, cfg, extreme_points=E)
    assert all(abs(r["regret_expected"]) < 1e-12 for r in recs)


def test_run_meta_mwu_bound_and_improvement():
    rng = np.random.default_rng(5)
    game = _random_game(rng, 3, 2)
    E = build_extreme_points([game], gamma=1e-3)
    T, m = 12, 80
    script = [[int(rng.integers(0, 2)) for _ in range(m)] for _ in range(T)]
    cfg = StackelbergConfig(m=m, initializer="ftl-average", eta="ewoo", seed=6)
    recs, summary = run_meta_stackelberg([game] * T, script, cfg, extreme_points=E)
    for r in recs:
        assert r["regret_expected"] <= r["mwu_bound"] + 1e-9
    assert summary["entropy_mean_optimum"] <= np.log(len(E)) + 1e-12
    # realized regret is within sampling noise of the expected one on average
    assert np.isfinite(summary["task_avg_expected_regret"])


def test_low_entropy_benefit_over_longer_sequences():
    # one persistent optimal point: the task-averaged regret at fixed m
    # strictly decreases as the number of tasks grows
    rng = np.random.default_rng(8)
    game = _random_game(rng, 3, 2)
    E = build_extreme_points([game], gamma=1e-3)
    m = 60
    averages = []
    for T in (10, 50, 100):
        cfg = StackelbergConfig(m=m, initializer="ftl-average", eta="ewoo", seed=9)
        recs, summary = run_meta_stackelberg(
            [game] * T, [[0] * m] * T, cfg, extreme_points=E
        )
        averages.append(summary["task_avg_expected_regret"])
        assert summary["worst_case_constant"] >= 0.0
        assert summary["entropy_mean_optimum"] < 0.5  # one dominant point
    assert averages[0] > averages[1] > averages[2]


def test_run_config_errors():
    single = SecurityGame([(np.zeros(1), np.ones(1))], np.ones(1), np.zeros(1))
    E = ExtremePointSet(np.array([[1.0]]))
    cfg = StackelbergConfig(m=5, initializer="uniform", eta=0.1)
    with pytest.raises(ConfigError):
        run_meta_stackelberg([single], [[0] * 4], cfg, extreme_points=E)  # short script
    with pytest.raises(ConfigError):
        run_meta_stackelberg([single], [[2] * 5], cfg, extreme_points=E)  # bad type id
    # A script that is not an integer index per round names its task.
    for script in ([0, 0, 0.5, 0, 0], [0, 0, -1, 0, 0], [True] * 5, [0, [0], 0, 0, 0], [[0] * 5]):
        with pytest.raises(ConfigError, match="task 1 script"):
            run_meta_stackelberg([single] * 2, [[0] * 5, script], cfg, extreme_points=E)
    two = two_target_game()
    with pytest.raises(ConfigError):
        run_meta_stackelberg([single, two], [[0] * 5] * 2, cfg, extreme_points=E)
    # each bad field is rejected by name, before any run
    bad = [
        ("alpha", 0.0),
        ("alpha", -0.1),
        ("alpha", 1.5),
        ("m", 0),
        ("eta", "auto"),
        ("eta", -0.1),
        ("eta", float("inf")),
        ("initializer", "ne-average"),
        ("gamma", 0.0),
        ("gamma", -0.5),
    ]
    for field, value in bad:
        with pytest.raises(ConfigError, match=f"StackelbergConfig.{field}"):
            StackelbergConfig(**{field: value})
