import itertools
import sys
import threading

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


def loop_prefix_sums(U, C):
    """Row-by-row reference of ``stackelberg._prefix_sums``."""
    total = np.zeros(U.shape[1])
    for i, u_vec in enumerate(U):
        C[i] = total
        total = total + u_vec
    return total


def loop_play_mwu(U, C, y0, eta, sampled, Y=None, Z=None):
    """Per-round reference of ``stackelberg._play_mwu``: one ``mwu_step`` per
    round, with its 1e-300 floor, and a ``searchsorted`` draw. It reads
    neither the prefix sums ``C`` nor the work arrays ``Y`` and ``Z``."""
    n = U.shape[1]
    y = y0
    expected_value = 0.0
    realized_value = 0.0
    for i, u_vec in enumerate(U):
        expected_value += float(y @ u_vec)
        choice = int(np.searchsorted(np.cumsum(y), sampled[i] * np.sum(y)))
        realized_value += float(u_vec[min(choice, n - 1)])
        y = mwu_step(y, u_vec, eta)
    return expected_value, realized_value


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


def test_stackelberg_regret_refuses_types_that_do_not_fit():
    g = two_target_game()
    E = ExtremePointSet(np.array([[0.5, 0.5], [1.0, 0.0]]))
    coverages = [[0.5, 0.5], [1.0, 0.0]]
    for types in ([0], [0, 0, 0], [[0, 0]]):  # one type for two rounds was broadcast
        with pytest.raises(InvalidInputError, match="one type per round"):
            stackelberg_regret(g, coverages, types, E)
    for types in ([0, 1], [-1, 0]):  # g has one attacker type
        with pytest.raises(InvalidInputError, match=r"index outside 0\.\.0"):
            stackelberg_regret(g, coverages, types, E)


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
        C, ref_C = np.full((m, n), np.nan), np.full((m, n), np.nan)
        cum, ref_cum = stackelberg._prefix_sums(U, C), loop_prefix_sums(U, ref_C)
        assert C.tobytes() == ref_C.tobytes() and cum.tobytes() == ref_cum.tobytes()
        for eta in (0.01, 0.5, 3.0):
            work = np.full((m, n), np.nan), np.full((n, m), np.nan)
            exp_v, real_v = stackelberg._play_mwu(U, C, y0, eta, sampled, *work)
            ref_exp, ref_real = loop_play_mwu(U, C, y0, eta, sampled)
            tol = 1e-12 * m * np.max(np.abs(U))
            assert abs(exp_v - ref_exp) <= tol and abs(real_v - ref_real) <= tol


def test_draw_matches_row_cumsum_bitwise():
    # The column scan must add in cumsum's order: the same cumulative bits
    # and so the same draws, also for thresholds that hit a cumulative weight
    # exactly and for rows with zero weights.
    rng = np.random.default_rng(21)
    for m, n in ((1, 1), (7, 1), (1, 9), (40, 89), (300, 6), (500, 89)):
        Y = rng.dirichlet(np.ones(n), size=m) * rng.uniform(0.5, 2.0, (m, 1))
        Y[rng.random((m, n)) < 0.2] = 0.0
        cumulative = np.cumsum(Y, axis=1)
        thresholds = rng.random(m) * cumulative[:, -1]
        exact = rng.random(m) < 0.5
        thresholds[exact] = cumulative[exact, rng.integers(0, n, m)[exact]]
        Z = np.full((n, m), np.nan)
        choices = stackelberg._draw(Y.copy(), thresholds, Z)
        assert Z.tobytes() == np.ascontiguousarray(cumulative.T).tobytes()
        expected = np.minimum(np.count_nonzero(cumulative < thresholds[:, None], axis=1), n - 1)
        assert np.array_equal(choices, expected)


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
                patch.setattr(stackelberg, "_prefix_sums", loop_prefix_sums)
                ref, _ = run_meta_stackelberg([game] * T, script, cfg, extreme_points=E)
            for r, q in zip(recs, ref):
                for key in ("task", "eta", "init_kl", "mwu_bound", "best_point_index"):
                    assert r[key] == q[key]
                for key in ("regret_expected", "regret_realized"):
                    assert abs(r[key] - q[key]) <= tol


def _spy(monkeypatch, name):
    """Record the arguments of every call of ``stackelberg.<name>``."""
    calls, real = [], getattr(stackelberg, name)
    monkeypatch.setattr(stackelberg, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_run_reuses_the_thread_work_arrays(monkeypatch):
    # Every task of a run, and every later run of the same (m, |E|) on this
    # thread, plays on the same four work arrays; another shape gets its own.
    rng = np.random.default_rng(16)
    game = _random_game(rng, 3, 2)
    seen = _spy(monkeypatch, "_play_mwu")
    script = rng.integers(0, game.k, size=(4, 30)).tolist()
    run_meta_stackelberg([game] * 4, script, StackelbergConfig(m=30, seed=3))
    run_meta_stackelberg([game] * 2, script[:2], StackelbergConfig(m=30, seed=4))
    U, C, _, _, _, Y, Z = seen[0]
    n = U.shape[1]
    assert len(seen) == 6 and all(call[:2] + call[5:] == (U, C, Y, Z) for call in seen)
    assert len({id(U), id(C), id(Y), id(Z)}) == 4
    assert [a.shape for a in (U, C, Y, Z)] == [(30, n)] * 3 + [(n, 30)]
    run_meta_stackelberg([game], [script[0][:20]], StackelbergConfig(m=20, seed=3))
    new = seen[-1][:2] + seen[-1][5:]
    assert [a.shape for a in new] == [(20, n)] * 3 + [(n, 20)]
    assert not any(a is b for a in new for b in (U, C, Y, Z))


def test_run_above_keep_max_bytes_keeps_no_work_arrays(monkeypatch):
    # Work arrays above KEEP_MAX_BYTES belong to their run: after it the
    # thread keeps none, neither those nor the smaller ones kept before.
    rng = np.random.default_rng(20)
    game = _random_game(rng, 3, 2)
    E = build_extreme_points([game], gamma=1e-3)
    monkeypatch.setattr(stackelberg, "KEEP_MAX_BYTES", 32 * 30 * len(E))

    def run(m):
        config = StackelbergConfig(m=m, seed=3)
        return run_meta_stackelberg([game] * 2, [[1] * m] * 2, config, extreme_points=E)[0]

    def kept():
        return getattr(stackelberg._thread_work, "arrays", None)

    small = run(30)
    assert kept()[0].shape == (30, len(E))
    assert run(31) == _fresh_thread(lambda: run(31))
    assert kept() is None
    assert run(30) == small and kept()[0].shape == (30, len(E))


def test_rows_built_once_per_stretch_of_equal_tasks(monkeypatch):
    # U and C are rebuilt when the game object or the script's values change,
    # and on the first task of every run; equal scripts in fresh lists reuse
    # them.
    rng = np.random.default_rng(17)
    g, h = _random_game(rng, 3, 2), _random_game(rng, 3, 2)
    E = build_extreme_points([g, h], gamma=1e-3)
    m = 25
    s1, s2 = rng.integers(0, 2, size=(2, m)).tolist()
    built = _spy(monkeypatch, "_prefix_sums")
    cfg = StackelbergConfig(m=m, seed=5)
    run_meta_stackelberg([g] * 5, [list(s1) for _ in range(5)], cfg, extreme_points=E)
    assert len(built) == 1
    built.clear()
    tasks = [(g, s1), (g, s1), (g, s2), (h, s2), (h, s1), (h, np.asarray(s1, dtype=np.int32))]
    games, script = zip(*tasks)
    run_meta_stackelberg(list(games), list(script), cfg, extreme_points=E)
    assert len(built) == 4  # tasks 0, 2, 3 and 4
    run_meta_stackelberg([h], [s1], cfg, extreme_points=E)
    assert len(built) == 5  # a new run starts from fresh rows


def _fresh_thread(fn):
    """``fn()`` run on a new thread, whose work arrays are new too."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


def _runs(seed):
    """Three runs of different (m, |E|) and script kinds, as zero-argument calls."""
    rng = np.random.default_rng(seed)
    g, h = _random_game(rng, 3, 2), _random_game(rng, 2, 3)
    Eg, Eh = build_extreme_points([g], gamma=1e-3), build_extreme_points([h], gamma=1e-3)
    # Eg's points reversed: the same (m, |E|), game and script as the first run
    Eg_reversed = ExtremePointSet(Eg.points[::-1])
    persistent, mixed = [[1] * 40] * 6, rng.integers(0, 3, size=(5, 30))
    cases = [
        ([g] * 6, persistent, StackelbergConfig(m=40, seed=1), Eg),
        ([h] * 5, mixed, StackelbergConfig(m=30, seed=2), Eh),
        ([g] * 6, persistent, StackelbergConfig(m=40, seed=1), Eg_reversed),
    ]
    return [lambda case=case: run_meta_stackelberg(*case[:3], extreme_points=case[3])[0] for case in cases]


def test_run_after_a_run_of_another_shape_is_correct():
    # Each run on this thread follows a run of another (m, |E|), or of the
    # same shape with other rows, and must give what it gives on a fresh thread.
    runs = _runs(18)
    fresh = [_fresh_thread(run) for run in runs]
    for run, expected in zip(runs + runs, fresh + fresh):
        assert run() == expected


def test_threads_get_the_records_of_serial_runs():
    # More threads than cores. Runs 0 and 2 share (m, |E|) but not their
    # rows, so on shared work arrays one thread would overwrite another's.
    runs = _runs(19)
    serial = [run() for run in runs]
    orders = ([0, 1, 2] * 3, [2, 1, 0] * 3, [2, 0, 1] * 3)
    results = ([], [], [])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside runs, not between them
    try:
        threads = [
            threading.Thread(target=lambda out=out, order=order: out.extend(runs[i]() for i in order))
            for out, order in zip(results, orders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out, order in zip(results, orders):
        assert out == [serial[i] for i in order]


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


def test_run_refuses_no_games_and_points_of_another_dimension():
    cfg = StackelbergConfig(m=5, initializer="uniform", eta=0.1)
    E1 = ExtremePointSet(np.array([[1.0]]))
    with pytest.raises(ConfigError, match="games: run_meta_stackelberg needs at least one task"):
        run_meta_stackelberg([], [], cfg, extreme_points=E1)
    with pytest.raises(ConfigError, match="extreme_points: points of dimension 1, but the games have d=2"):
        run_meta_stackelberg([two_target_game()], [[0] * 5], cfg, extreme_points=E1)


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
