import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metagames import stackelberg
from metagames.errors import ConfigError, InvalidInputError, NumericError
from metagames.games import MatrixGame, SecurityGame
from metagames.geometry import Simplex
from metagames.meta import (
    EwooState,
    Initializer,
    TaskOutcome,
    anchor_variance,
    ewoo_next_eta,
    ftl_regret,
    kl_anchor_variance,
    shannon_entropy,
)
from metagames.metrics import saddle_point
from metagames.stackelberg import StackelbergConfig, build_extreme_points, run_meta_stackelberg


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
    # sum_t gamma_t * (eta + (B_t^2 + eps^2) / eta) over the recorded tasks
    loss = sum(g * (grid + (bs + st.epsilon**2) / grid) for g, bs in zip(st.gammas, st.b_squares))
    argmin = grid[int(np.argmin(loss))]
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


def test_ewoo_record_rejects_bad_losses():
    st_ = EwooState(lo=0.1, hi=2.0, beta=1.0, epsilon=0.0)
    for b_square, gamma in ((-1.0, 1.0), (0.5, 0.0), (np.nan, 1.0), (0.5, np.nan), (np.inf, 1.0)):
        with pytest.raises(InvalidInputError):
            st_.record(b_square, gamma)
    assert st_.gammas == [] and st_.b_squares == []


def _adaptive_simpson(f, a, b, tol=1e-8, max_depth=40):
    """Adaptive Simpson quadrature with interval splitting."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl = f(lmid)
        fr = f(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth >= max_depth:
            raise NumericError("adaptive Simpson hit the recursion cap")
        if abs(left + right - whole) <= 15.0 * tol * max(abs(left + right), 1e-300):
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, fl, fmid, left, depth + 1) + recurse(
            mid, hi, fmid, fr, fhi, right, depth + 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, 0)


def _loss_terms(state):
    a = sum(state.gammas)
    b = sum(g * (bs + state.epsilon**2) for g, bs in zip(state.gammas, state.b_squares))
    eta_min = min(max(math.sqrt(b / a), state.lo), state.hi)
    return a, b, eta_min


def simpson_ewoo_next_eta(state, tol=1e-8):
    """Reference posterior mean: adaptive Simpson on pieces split at the
    mode +- 1 and 8 curvature widths (relative tolerance per sub-interval)."""
    a, b, eta_min = _loss_terms(state)
    shift = state.beta * (a * eta_min + b / eta_min)

    def weight(eta):
        return math.exp(-(state.beta * (a * eta + b / eta) - shift))

    knots = {state.lo, state.hi, eta_min}
    if b > 0:
        sigma = 1.0 / math.sqrt(state.beta * 2.0 * b / eta_min**3)
        for k in (-8.0, -1.0, 1.0, 8.0):
            knots.add(min(max(eta_min + k * sigma, state.lo), state.hi))
    pieces = sorted(knots)
    numer = denom = 0.0
    for left, right in zip(pieces[:-1], pieces[1:]):
        numer += _adaptive_simpson(lambda e: e * weight(e), left, right, tol)
        denom += _adaptive_simpson(weight, left, right, tol)
    return numer / denom


def dense_ewoo_next_eta(state):
    """Reference posterior mean: 64-point Gauss-Legendre on several hundred
    pieces, uniform over [lo, hi] and geometrically refined around the mode."""
    a, b, eta_min = _loss_terms(state)
    shift = state.beta * (a * eta_min + b / eta_min)
    widths = [1.0 / (state.beta * abs(a - b / eta_min**2) + 1e-300)]
    if b > 0:
        widths.append(1.0 / math.sqrt(state.beta * 2.0 * b / eta_min**3))
    offsets = min(widths) * np.geomspace(1e-2, 1e4, 241)
    knots = np.concatenate(
        [np.linspace(state.lo, state.hi, 257), eta_min - offsets, eta_min + offsets]
    )
    knots = np.unique(np.clip(knots, state.lo, state.hi))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    mid = 0.5 * (knots[1:] + knots[:-1])[:, None]
    half = 0.5 * (knots[1:] - knots[:-1])[:, None]
    x = mid + half * nodes
    w = np.exp(-(state.beta * (a * x + b / x) - shift)) * half * weights
    return float(np.sum(w * x) / np.sum(w))


@st.composite
def ewoo_states(draw):
    lo = 10.0 ** draw(st.floats(-3.0, 0.0))
    hi = lo * 10.0 ** draw(st.floats(0.01, 2.0))
    beta = 10.0 ** draw(st.floats(-1.0, 2.0))
    epsilon = draw(st.sampled_from([0.0, lo * draw(st.floats(0.0, 0.999))]))
    state = EwooState(lo=lo, hi=hi, beta=beta, epsilon=epsilon)
    for _ in range(draw(st.integers(1, 3))):
        # B^2 from 1e-4 hi^2 to 100 hi^2 puts the mode inside [lo, hi] or
        # clipped at either end; gamma up to 5000 makes it sharp.
        b_square = hi * hi * 10.0 ** draw(st.floats(-4.0, 2.0))
        state.record(b_square, 10.0 ** draw(st.floats(-2.0, 3.7)))
    return state


def _state(lo, hi, beta, epsilon, records):
    state = EwooState(lo=lo, hi=hi, beta=beta, epsilon=epsilon)
    for b_square, gamma in records:
        state.record(b_square, gamma)
    return state


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ewoo_states())
@example(_state(0.01, 1.0, 100.0, 0.0, [(1e-4, 5000.0)]))  # mode clipped at lo, sharp
@example(_state(0.01, 1.0, 100.0, 0.0, [(0.0, 5000.0)]))  # b = 0: slope width only
@example(_state(0.01, 1.0, 100.0, 0.0, [(100.0, 5000.0)]))  # mode clipped at hi, sharp
@example(_state(0.1, 2.0, 2.0, 0.0, [(0.25, 1.0)] * 400))  # interior, sharp
@example(_state(0.1, 0.11, 0.1, 0.05, [(1e-3, 0.01)]))  # nearly flat
def test_ewoo_posterior_mean_matches_dense_rule(state):
    eta = ewoo_next_eta(state)
    assert state.lo <= eta <= state.hi
    assert eta == pytest.approx(dense_ewoo_next_eta(state), rel=1e-12, abs=0)


def _c09_states():
    # The synthetic sequence of test_c09_ewoo, every 20th state, and its
    # identical-tasks state.
    rng = np.random.default_rng(3)
    T = 200
    state = EwooState.from_radius(1.0, T ** (-0.25))
    gammas = rng.uniform(0.5, 2.0, size=T)
    bs = rng.uniform(0.0, 1.0, size=T) ** 2
    out = []
    for t in range(T):
        state.record(bs[t], gammas[t])
        if t % 20 == 0 or t == T - 1:
            out.append(copy.deepcopy(state))
    out.append(EwooState.from_radius(1.0, 0.5))
    for _ in range(200):
        out[-1].record(0.25, 1.0)
    return out


def test_ewoo_posterior_mean_matches_simpson_oracle(monkeypatch):
    # The Stackelberg states are those of test_c16_stackelberg's game with
    # T = 10 tasks, both initializers.
    rng = np.random.default_rng(23)
    d, k, m, T = 4, 3, 500, 10
    types = [(rng.uniform(-1, 0, d), rng.uniform(0, 1, d)) for _ in range(k)]
    game = SecurityGame(types, rng.uniform(0, 1, d), rng.uniform(-1, 0, d))
    E = build_extreme_points([game], gamma=1e-3)
    script = [[0] * m for _ in range(T)]

    states = []

    def spy(state):
        if state.gammas:
            states.append(copy.deepcopy(state))
        return ewoo_next_eta(state)

    monkeypatch.setattr(stackelberg, "ewoo_next_eta", spy)
    for init in ("ftl-average", "uniform"):
        cfg = StackelbergConfig(m=m, initializer=init, eta="ewoo", seed=29)
        run_meta_stackelberg([game] * T, script, cfg, extreme_points=E)
    assert len(states) == 2 * (T - 1)
    for state in states + _c09_states():
        assert ewoo_next_eta(state) == pytest.approx(simpson_ewoo_next_eta(state), rel=1e-8, abs=0)


def test_similarity_examples():
    anchors = np.tile(np.array([0.3, 0.7]), (6, 1))
    assert anchor_variance(anchors) < 1e-30
    two = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(anchor_variance(two) - 0.5) < 1e-15
    assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0
    assert abs(shannon_entropy(np.full(4, 0.25)) - np.log(4)) < 1e-12
    assert shannon_entropy(np.full(4, 0.25)) <= np.log(4) + 1e-15
    assert kl_anchor_variance(np.tile(np.array([0.5, 0.5]), (3, 1))) < 1e-15


def loop_kl_anchor_variance(anchors):
    """kl_anchor_variance row by row: the reference for the grouped sums."""
    anchors = np.asarray(anchors, dtype=float)
    mean = np.mean(anchors, axis=0)
    total = 0.0
    for a in anchors:
        mask = a > 0
        total += float(np.sum(a[mask] * np.log(a[mask] / np.maximum(mean[mask], 1e-300))))
    return total / anchors.shape[0]


@st.composite
def anchor_stacks(draw):
    """T anchors on the d-simplex (d = 1..11): interior points, points with
    zeroed entries (so rows hold different counts of positive entries) and
    vertices, as the optima in hindsight are."""
    T, d = draw(st.integers(1, 40)), draw(st.integers(1, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["interior", "sparse", "vertex"]))
    if kind == "vertex":
        return (np.arange(d) == rng.integers(d, size=T)[:, None]).astype(float)
    anchors = rng.dirichlet(np.ones(d), size=T)
    if kind == "sparse":
        anchors[rng.random((T, d)) < 0.4] = 0.0
    return anchors


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(anchor_stacks())
def test_kl_anchor_variance_matches_row_loop(anchors):
    assert repr(kl_anchor_variance(anchors)) == repr(loop_kl_anchor_variance(anchors))


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
