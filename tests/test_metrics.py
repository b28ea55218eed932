import importlib.machinery
import inspect
import itertools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metagames
from metagames.errors import InvalidInputError, NumericError
from metagames.games import MatrixGame, NormalFormGame, SmoothnessMeta, lower_bound_family
from metagames.geometry import ProductSet, Simplex
from metagames.harness import make_learner, play_task
from metagames.metrics import (
    _highs,
    _solve_row_max,
    cce_ce_gap,
    check_smoothness,
    duality_gap,
    ne_gap,
    path_lengths,
    saddle_point,
    svi_residual,
    welfare_report,
)

MP = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def solve_nash_lp(game):
    """Equilibrium of the game read as the ROW player's utility:
    (x* = argmax_x min_y x^T A y, y*, value), the saddle point of -A."""
    x, y, neg_value = saddle_point(MatrixGame(-game.A))
    return x, y, -neg_value


def test_solve_nash_lp_matching_pennies():
    x, y, v = solve_nash_lp(MP)
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-9)
    assert abs(v) < 1e-9


def run_child(code):
    """Run ``code`` in a fresh interpreter that finds the package where this
    process found it; returns its stdout."""
    src = str(Path(metagames.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True, env=env
    )
    return proc.stdout


def test_lp_solver_imported_on_first_solve():
    # scipy.optimize costs about 0.2 s and 45 MB to import; the LPs load only
    # the HiGHS extension, and only on the first solve.
    code = (
        "import sys, numpy as np, metagames.cli\n"
        "from metagames.games import MatrixGame\n"
        "from metagames.metrics import saddle_point\n"
        "print('scipy.optimize' in sys.modules)\n"
        "saddle_point(MatrixGame(np.eye(2)))\n"
        "print('scipy.optimize' in sys.modules)\n"
        "print('scipy.optimize._highspy._core' in sys.modules)\n"
    )
    assert run_child(code).split() == ["False", "False", "True"]


def linprog_row_max(B):
    """Reference for ``_solve_row_max``: its two LPs written out for
    ``scipy.optimize.linprog(method="highs")``."""
    from scipy.optimize import linprog

    B = np.asarray(B, dtype=float)
    d_x, d_y = B.shape
    # Row problem: maximize v subject to B^T x >= v, sum x = 1, x >= 0.
    c = np.zeros(d_x + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-B.T, np.ones((d_y, 1))])
    A_eq = np.zeros((1, d_x + 1))
    A_eq[0, :d_x] = 1.0
    bounds = [(0, None)] * d_x + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(d_y), A_eq=A_eq, b_eq=[1.0], bounds=bounds, method="highs")
    assert res.success, res.message
    x = np.maximum(res.x[:d_x], 0.0)
    x /= np.sum(x)
    value = float(res.x[-1])
    # Column problem: minimize w subject to B y <= w, sum y = 1, y >= 0.
    c2 = np.zeros(d_y + 1)
    c2[-1] = 1.0
    A_ub2 = np.hstack([B, -np.ones((d_x, 1))])
    A_eq2 = np.zeros((1, d_y + 1))
    A_eq2[0, :d_y] = 1.0
    bounds2 = [(0, None)] * d_y + [(None, None)]
    res2 = linprog(c2, A_ub=A_ub2, b_ub=np.zeros(d_x), A_eq=A_eq2, b_eq=[1.0], bounds=bounds2, method="highs")
    assert res2.success, res2.message
    y = np.maximum(res2.x[:d_y], 0.0)
    y /= np.sum(y)
    return x, y, value


@st.composite
def lp_matrices(draw):
    """1..6 x 1..6 matrices: uniform entries, entries in {-2..2} (ties and
    optima that are not unique) or uniform entries of which about 40 % are
    zero; zeros are signed either way."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    kind = draw(st.sampled_from(["uniform", "ties", "sparse"]))
    if kind == "ties":
        B = rng.integers(-2, 3, shape).astype(float)
    else:
        B = rng.uniform(-1, 1, shape)
        if kind == "sparse":
            B[rng.random(shape) < 0.4] = 0.0
    return np.where((B == 0) & (rng.random(shape) < 0.5), -0.0, B)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lp_matrices())
@example(-lower_bound_family(3, 2).A)
@example(-lower_bound_family(4, 3).A)
@example(np.array([[1.0, 0.0], [0.0, 0.0]]))
def test_solve_row_max_matches_linprog_bitwise(B):
    # The LPs handed to HiGHS directly give linprog's solution bit for bit,
    # non-unique optima included.
    assert_linprog_bits(B)


def lp_bits(solution):
    x, y, value = solution
    return x.tobytes(), y.tobytes(), repr(value)


def assert_linprog_bits(B):
    assert lp_bits(_solve_row_max(B)) == lp_bits(linprog_row_max(B))


LOADED_PATH_CHILD = """
import sys
import numpy as np
from metagames.games import lower_bound_family
from metagames.metrics import _solve_row_max

rng = np.random.default_rng(2024)
games = [-lower_bound_family(3, 2).A, np.array([[1.0, 0.0], [0.0, 0.0]])]
for i in range(60):
    shape = tuple(rng.integers(1, 7, 2))
    games.append(rng.uniform(-1, 1, shape) if i % 2 else rng.integers(-2, 3, shape).astype(float))
solved = [_solve_row_max(B) for B in games]
assert "scipy.optimize" not in sys.modules
mismatches = [i for i, B in enumerate(games) if lp_bits(solved[i]) != lp_bits(linprog_row_max(B))]
from scipy.optimize._highspy import _core
from metagames.metrics import _highs
print(len(games), mismatches, _core is _highs())
"""


def test_loaded_highs_extension_matches_linprog_bitwise():
    # Inside this suite scipy.optimize is already imported, so only a fresh
    # process solves on the extension loaded by itself: its solutions are
    # linprog's bits, and linprog then runs on that same module.
    helpers = inspect.getsource(linprog_row_max) + inspect.getsource(lp_bits)
    code = "import numpy as np\n" + helpers + LOADED_PATH_CHILD
    assert run_child(code).split() == ["62", "[]", "True"]


def test_missing_highs_extension_raises_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"no _core module in \S*optimize.?_highspy$"):
        _highs()


def test_reused_solver_repeats_its_bits():
    # A solve after another game's gives the bits of a first solve.
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.random.default_rng(5).uniform(-1, 1, (5, 4))
    first = _solve_row_max(A)
    _solve_row_max(B)
    again = _solve_row_max(A)
    assert lp_bits(first) == lp_bits(again)
    assert_linprog_bits(A)


def test_threads_each_get_linprog_bits():
    # saddle_point is public: two threads solving at once each use their own
    # solver, so neither sees the other's model.
    games = [np.random.default_rng(seed).uniform(-1, 1, (4, 3)) for seed in (11, 12)]
    want = [linprog_row_max(B) for B in games]
    barrier = threading.Barrier(2)
    got = [None, None]

    def solve(i):
        barrier.wait()
        got[i] = [_solve_row_max(games[i]) for _ in range(200)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for solution, runs in zip(want, got):
        assert {lp_bits(run) for run in runs} == {lp_bits(solution)}


HUGE = np.array([[1e300, -1e300], [-1e300, 1e300]])


def test_saddle_point_model_error_raises():
    # Entries this large are refused by HiGHS as it loads the model.
    with pytest.raises(NumericError, match="max-min LP failed: HiGHS model status 'Model error'"):
        _solve_row_max(HUGE)
    # The solver that refused the model solves the next LP as linprog does.
    assert_linprog_bits(-lower_bound_family(3, 2).A)


def test_saddle_point_solves_the_model_error_game():
    # saddle_point hands HiGHS the game scaled to max |entry| = 1.
    x, y, value = saddle_point(MatrixGame(HUGE))
    assert (x.tolist(), y.tolist(), value) == ([0.5, 0.5], [0.5, 0.5], 0.0)


@st.composite
def power_of_two_scalings(draw):
    """An ``lp_matrices`` game B and a k for which every nonzero entry of
    B * 2^k is a normal float."""
    B = draw(lp_matrices())
    nonzero = np.abs(B[B != 0])
    if nonzero.size == 0:
        return B, draw(st.integers(-1000, 1000))
    lo = -1021 - math.frexp(float(np.min(nonzero)))[1]
    hi = 1023 - math.frexp(float(np.max(nonzero)))[1]
    return B, draw(st.integers(lo, hi))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(power_of_two_scalings())
@example((np.array([[1.0, 0.0], [0.0, 0.0]]), -1000))
@example((-lower_bound_family(3, 2).A, 1000))
def test_saddle_point_is_invariant_to_powers_of_two(drawn):
    # Scaling a game by 2^k scales its value by 2^k and leaves the strategies'
    # bytes as they are.
    B, k = drawn
    x, y, value = saddle_point(MatrixGame(B))
    xk, yk, value_k = saddle_point(MatrixGame(np.ldexp(B, k)))
    assert (xk.tobytes(), yk.tobytes()) == (x.tobytes(), y.tobytes())
    assert value_k == math.ldexp(value, k)


@pytest.mark.parametrize("x0, worst", [(-1e-3, "0.001"), (float("nan"), "nan")])
def test_lp_solution_off_its_constraints_raises(monkeypatch, x0, worst):
    # A solution that HiGHS calls optimal but that misses the constraints by
    # more than linprog's tolerance, 10 * sqrt(1e-9), is refused.
    from scipy.optimize._highspy import _core

    real = _core._Highs.getSolution

    def off(self):
        solution = real(self)
        solution.col_value = [x0, *solution.col_value[1:]]
        return solution

    monkeypatch.setattr(_core._Highs, "getSolution", off)
    with pytest.raises(NumericError, match=rf"misses its constraints by {worst} \(tolerance 0.000316\)"):
        _solve_row_max(MP.A)
    monkeypatch.undo()
    assert_linprog_bits(-lower_bound_family(3, 2).A)


def test_solve_nash_lp_degenerate():
    game = MatrixGame(np.array([[1.0, 0.0], [0.0, 0.0]]))
    x, y, v = solve_nash_lp(game)
    assert abs(v) < 1e-9
    # y* must hold the row player to the value: max_x x^T A y* == v.
    assert np.max(game.A @ y) <= v + 1e-9
    assert abs(y[1] - 1.0) < 1e-9  # (0, 1) is among the optima and is returned


def test_solve_nash_lp_lower_bound_family():
    x, y, v = solve_nash_lp(lower_bound_family(3, 2))
    np.testing.assert_allclose(x, [0.0, 1.0, 0.0], atol=1e-9)
    assert abs(v - 1.0) < 1e-9


def test_solve_nash_lp_grid_oracle():
    # Dense 1-d grid over the row mix as an independent oracle for the value.
    rng = np.random.default_rng(0)
    ts = np.linspace(0, 1, 200001)
    mixes = np.stack([ts, 1 - ts], axis=1)
    for _ in range(20):
        A = rng.uniform(-1, 1, size=(2, 2))
        _, _, v = solve_nash_lp(MatrixGame(A))
        v_grid = np.max(np.min(mixes @ A, axis=1))
        assert abs(v - v_grid) < 1e-4


def test_duality_gap_examples():
    uniform = np.array([0.5, 0.5])
    assert abs(duality_gap(MP, uniform, uniform)) < 1e-15
    assert abs(duality_gap(MP, np.array([1.0, 0.0]), uniform) - 1.0) < 1e-15


def test_duality_gap_zero_at_lp_saddle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        A = rng.uniform(-1, 1, size=rng.integers(2, 7, size=2))
        game = MatrixGame(A)
        x, y, _ = saddle_point(game)
        gap = duality_gap(game, x, y)
        assert -1e-9 <= gap <= 1e-9


def test_saddle_point_returns_fresh_copies():
    game = lower_bound_family(3, 2)
    x, y, value = saddle_point(game)
    want = (x.copy(), y.copy(), value)
    x[:] = -1.0
    y[:] = -1.0
    x2, y2, value2 = saddle_point(game)
    np.testing.assert_array_equal(x2, want[0])
    np.testing.assert_array_equal(y2, want[1])
    assert value2 == want[2]
    assert x2 is not x and y2 is not y


def test_duality_gap_vs_ne_gap_consistency():
    rng = np.random.default_rng(2)
    for _ in range(30):
        A = rng.uniform(-1, 1, size=(3, 4))
        game = MatrixGame(A)
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(4))
        gap = duality_gap(game, x, y)
        gaps = ne_gap(game, [x, y])
        assert gap >= -1e-12
        # gap == 0 iff both unilateral gains vanish
        assert abs(gap - float(np.sum(gaps))) < 1e-9


def test_ne_gap_examples():
    uniform = np.array([0.5, 0.5])
    np.testing.assert_allclose(ne_gap(MP, [uniform, uniform]), [0.0, 0.0], atol=1e-15)
    # prisoner's-dilemma-style game at the cooperative (non-equilibrium) profile
    u1 = np.array([[0.6, -0.5], [1.0, 0.0]])
    u2 = u1.T
    pd = NormalFormGame([u1, u2])
    coop = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    gains = ne_gap(pd, coop)
    np.testing.assert_allclose(gains, [0.4, 0.4], atol=1e-15)  # 1.0 - 0.6 each
    defect = [np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    np.testing.assert_allclose(ne_gap(pd, defect), [0.0, 0.0], atol=1e-15)


def _mp_normal_form():
    u1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NormalFormGame([u1, -u1])


def test_cce_ce_gap_examples():
    pd = NormalFormGame([np.array([[0.6, -0.5], [1.0, 0.0]]), np.array([[0.6, 1.0], [-0.5, 0.0]])])
    nash_product = np.zeros((2, 2))
    nash_product[1, 1] = 1.0
    cce, ce = cce_ce_gap(nash_product, pd)
    assert abs(cce) < 1e-12 and abs(ce) < 1e-12

    game = _mp_normal_form()
    mu = np.array([[0.5, 0.0], [0.0, 0.5]])  # uniform on the diagonal
    cce, ce = cce_ce_gap(mu, game)
    # independent enumeration oracle
    expected_cce = 0.0
    for k in range(2):
        tensor = game.payoffs[k]
        exp = float(np.sum(mu * tensor))
        best = -np.inf
        for dev in range(2):
            total = 0.0
            for a, b in itertools.product(range(2), range(2)):
                prof = (dev, b) if k == 0 else (a, dev)
                total += mu[a, b] * tensor[prof]
            best = max(best, total)
        expected_cce = max(expected_cce, best - exp)
    assert abs(cce - expected_cce) < 1e-12
    assert ce >= cce - 1e-12


def test_ce_ge_cce_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        game = NormalFormGame([rng.uniform(-1, 1, size=(3, 3)) for _ in range(2)])
        mu = rng.dirichlet(np.ones(9)).reshape(3, 3)
        cce, ce = cce_ce_gap(mu, game)
        assert ce >= cce - 1e-12
        assert cce >= -1e-9 and ce >= -1e-9
    with pytest.raises(InvalidInputError):
        cce_ce_gap(np.ones((3, 3)), game)


def test_svi_residual_examples():
    joint = ProductSet(Simplex(2), Simplex(2))
    zero_op = type("Op", (), {"set": joint, "__call__": lambda self, z: np.zeros(4)})()
    z = np.array([0.3, 0.7, 0.6, 0.4])
    assert svi_residual(zero_op, z) == 0.0

    op = MP.operator()
    uniform = np.array([0.5, 0.5, 0.5, 0.5])
    assert abs(svi_residual(op, uniform)) < 1e-15
    corner = np.array([1.0, 0.0, 1.0, 0.0])
    # vertex enumeration oracle: <z,F> - min over the 4 simplex-product vertices
    F = op(corner)
    vals = []
    for i, j in itertools.product(range(2), range(2)):
        zz = np.zeros(4)
        zz[i] = 1.0
        zz[2 + j] = 1.0
        vals.append(float(zz @ F))
    assert abs(svi_residual(op, corner) - (float(corner @ F) - min(vals))) < 1e-12


def test_welfare_examples():
    assert abs(SmoothnessMeta(1 - 1 / np.e, 1.0).robust_poa - (1 - 1 / np.e) / 2) < 1e-15
    assert SmoothnessMeta(1.0, 1.0).robust_poa == 0.5
    game = NormalFormGame([np.array([[1.0, 0.0], [0.0, 0.5]])] * 2)
    opt_profile = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    meta = SmoothnessMeta(1.0, 1.0, opt_welfare=2.0)
    report = welfare_report(game, meta, [opt_profile] * 5)
    assert abs(report.welfare - 2.0) < 1e-12
    assert abs(report.robust_poa_bound - 1.0) < 1e-12


def test_check_smoothness_hand_built():
    # coordination game engineered to be (1,1)-smooth
    u = np.array([[1.0, 0.6], [0.6, 0.5]])
    game = NormalFormGame([u, u.copy()])
    assert check_smoothness(game, 1.0, 1.0) is not None


def test_path_lengths_examples():
    const = np.tile(np.array([0.5, 0.5]), (6, 1))
    assert path_lengths(const) == (0.0, 0.0)
    two = np.array([[1.0, 0.0], [0.0, 1.0]])
    first, _ = path_lengths(two)
    assert abs(first - 2.0) < 1e-15


def test_refined_path_bound_with_lp_nash():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = rng.uniform(-1, 1, size=(3, 3))
        game = MatrixGame(A)
        from metagames.games import lipschitz_constant

        eta = 1.0 / (4.0 * lipschitz_constant(game))
        xl = make_learner("ogd", Simplex(3), eta)
        yl = make_learner("ogd", Simplex(3), eta)
        play_task(game, [xl, yl], 300)
        zp = np.hstack([xl.primary_array(), yl.primary_array()])
        zh = np.hstack([xl.secondary_array(), yl.secondary_array()])
        _, refined = path_lengths(zp, zh)
        sx, sy, _ = saddle_point(game)
        z_star = np.concatenate([sx, sy])
        z0 = np.concatenate([xl.init, yl.init])
        assert refined <= 2.0 * float(np.sum((z_star - z0) ** 2)) + 1e-8


def test_illustrative_example_nash_claims():
    # The alternating pair of 3x3 games: the claimed equilibria and
    # near-equilibria are verified numerically, not assumed.
    G = MatrixGame(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    Gp = MatrixGame(np.array([[1.1, -1.1, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    e3 = np.array([0.0, 0.0, 1.0])
    assert float(np.max(ne_gap(G, [e3, e3]))) < 1e-12
    assert float(np.max(ne_gap(Gp, [e3, e3]))) < 1e-12
    half = np.array([0.5, 0.5, 0.0])
    assert float(np.max(ne_gap(G, [half, half]))) < 1e-12
    assert abs(float(np.max(ne_gap(Gp, [half, half]))) - 0.05) < 1e-12
    xq = np.array([10.0 / 21.0, 11.0 / 21.0, 0.0])
    assert float(np.max(ne_gap(Gp, [xq, half]))) < 1e-12
    assert abs(float(np.max(ne_gap(G, [xq, half]))) - 1.0 / 21.0) < 1e-12
