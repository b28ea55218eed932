import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metagames.errors import DomainError, InvalidInputError, NumericError
from metagames.geometry import (
    INTERIOR_FLOOR,
    Box,
    ProductSet,
    Regularizer,
    Simplex,
    _prox_log_barrier_simplex,
    bregman,
    lift_interior,
    mwu_step,
    project_l2,
    project_simplex,
    project_simplex_rows,
    prox_step,
)

EUC = Regularizer("euclidean")
ENT = Regularizer("entropic")
LOG = Regularizer("log-barrier")


def brute_force_simplex_argmin(y=None, objective=None, step=1e-4, interior=False):
    """Grid search over the 2-simplex; the independent prox/projection oracle."""
    lo = step if interior else 0.0
    ts = np.arange(lo, 1.0 - lo + step / 2, step)
    pts = np.stack([ts, 1.0 - ts], axis=1)
    if objective is None:
        objective = lambda p: np.linalg.norm(p - y)
    vals = [objective(p) for p in pts]
    return pts[int(np.argmin(vals))]


def test_projection_examples():
    s = Simplex(2)
    np.testing.assert_allclose(project_l2(s, np.array([0.5, 0.5])), [0.5, 0.5])
    np.testing.assert_allclose(project_l2(s, np.array([1.0, 1.0])), [0.5, 0.5])
    y = np.array([2.0, 0.0])
    oracle = brute_force_simplex_argmin(y, lambda p: np.linalg.norm(p - y))
    np.testing.assert_allclose(project_l2(s, y), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(project_l2(s, y), oracle, atol=2e-4)


def test_projection_idempotent_and_optimal():
    rng = np.random.default_rng(7)
    for d in (2, 3, 7):
        s = Simplex(d)
        for _ in range(200):
            y = rng.normal(size=d) * 3
            p = project_l2(s, y)
            np.testing.assert_array_equal(project_l2(s, p), p)
            assert abs(p.sum() - 1) < 1e-12 and p.min() >= -1e-15
            x = rng.dirichlet(np.ones(d), size=5)
            for cand in x:
                assert np.linalg.norm(p - y) <= np.linalg.norm(cand - y) + 1e-10


def array_project_simplex(y):
    """Reference projection: the same sort-and-threshold on numpy arrays."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    rho = int(np.count_nonzero(u * np.arange(1, len(y) + 1, dtype=float) > css))
    return np.maximum(y - css[rho - 1] / rho, 0.0)


@st.composite
def projection_inputs(draw):
    d = draw(st.integers(min_value=2, max_value=10))
    # Coordinates drawn from a pool smaller than d repeat, so sorts see ties.
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=d))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=d, max_size=d))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    return np.array([pool[i] for i in picks]) * scale


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(projection_inputs())
def test_project_simplex_matches_array_form_bitwise(y):
    assert project_simplex(y).tobytes() == array_project_simplex(y).tobytes()


@st.composite
def projection_row_batches(draw):
    """(B, d) inputs of ``project_simplex_rows``: rows with tied entries, and
    rows already on the simplex (normalized, possibly with zeros, or vertices)."""
    d = draw(st.integers(min_value=2, max_value=10))
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=d))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=64))):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=d, max_size=d))
        row = np.array([pool[i] for i in picks]) * 10.0 ** draw(st.floats(-2.0, 2.0))
        kind = draw(st.sampled_from(["raw", "on-simplex", "vertex"]))
        if kind == "on-simplex" and np.any(row):
            row = np.abs(row) / np.sum(np.abs(row))
        elif kind == "vertex":
            row = np.eye(d)[draw(st.integers(0, d - 1))]
        rows.append(row)
    return np.array(rows)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(projection_row_batches())
def test_project_simplex_rows_matches_project_simplex_bitwise(rows):
    projected = project_simplex_rows(rows)
    for y, x in zip(rows, projected):
        assert x.tobytes() == project_simplex(y.copy()).tobytes()


def test_projection_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        project_l2(Simplex(2), np.array([np.nan, 0.0]))
    with pytest.raises(InvalidInputError):
        project_l2(Simplex(2), np.array([np.inf, 0.0]))


def test_box_projection():
    b = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    np.testing.assert_allclose(project_l2(b, np.array([3.0, -1.0])), [1.0, 0.0])
    assert b.contains(np.array([0.0, 1.0]))
    with pytest.raises(InvalidInputError):
        Box(np.array([1.0]), np.array([0.0]))


def test_product_set_split_join_project():
    ps = ProductSet(Simplex(2), Box(np.array([-1.0]), np.array([1.0])))
    z = np.array([2.0, 0.0, 5.0])
    np.testing.assert_allclose(project_l2(ps, z), [1.0, 0.0, 1.0])
    parts = ps.split(z)
    np.testing.assert_allclose(ps.join(parts), z)


def test_bregman_examples():
    x = np.array([0.3, 0.7])
    assert bregman(EUC, x, x) == 0.0
    assert bregman(EUC, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    val = bregman(ENT, np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    expected = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
    assert abs(val - expected) < 1e-12
    assert abs(val - 0.14384) < 1e-4


def test_bregman_matches_line_integral():
    # D(x||x') equals the line integral of <grad R(x'+t(x-x')) - grad R(x'), x-x'>.
    from scipy.integrate import simpson

    rng = np.random.default_rng(3)
    grads = {
        "euclidean": lambda v: v,
        "entropic": lambda v: np.log(v) + 1.0,
        "log-barrier": lambda v: -1.0 / v,
    }
    for kind, grad in grads.items():
        reg = Regularizer(kind)
        for _ in range(10):
            x = rng.dirichlet(np.ones(3)) * 0.98 + 0.01
            xp = rng.dirichlet(np.ones(3)) * 0.98 + 0.01
            ts = np.linspace(0.0, 1.0, 2001)
            integrand = [(grad(xp + t * (x - xp)) - grad(xp)) @ (x - xp) for t in ts]
            quad = simpson(integrand, x=ts)
            assert abs(bregman(reg, x, xp) - quad) < 1e-6


def test_bregman_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(11)
    for reg in (EUC, ENT, LOG):
        for _ in range(100):
            x = rng.dirichlet(np.ones(4))
            xp = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
            assert bregman(reg, x, xp) >= 0.0
            assert bregman(reg, xp, xp) <= 1e-15


def test_bregman_boundary_domain_error():
    bad = np.array([0.0, 1.0])
    for reg in (ENT, LOG):
        with pytest.raises(DomainError):
            bregman(reg, np.array([0.5, 0.5]), bad)


def test_prox_entropic_examples():
    s = Simplex(2)
    uniform = np.array([0.5, 0.5])
    np.testing.assert_allclose(
        prox_step(ENT, s, uniform, np.zeros(2), 0.37), uniform, atol=1e-15
    )
    out = prox_step(ENT, s, uniform, np.array([1.0, 0.0]), np.log(2))
    np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)


def test_prox_entropic_equals_multiplicative_weights():
    rng = np.random.default_rng(5)
    s = Simplex(5)
    for _ in range(200):
        anchor = rng.dirichlet(np.ones(5))
        g = rng.uniform(-1, 1, 5)
        eta = rng.uniform(0.01, 2.0)
        closed = anchor * np.exp(eta * g)
        closed /= closed.sum()
        np.testing.assert_allclose(prox_step(ENT, s, anchor, g, eta), closed, atol=1e-12)


def test_mwu_examples():
    # utilities are gains: a loss vector enters negated
    uniform = np.array([0.5, 0.5])
    np.testing.assert_allclose(mwu_step(uniform, np.zeros(2), 0.3), uniform, atol=1e-15)
    np.testing.assert_allclose(
        mwu_step(uniform, -np.array([1.0, 0.0]), np.log(2)), [1 / 3, 2 / 3], atol=1e-12
    )
    dist = np.full(3, 1 / 3)
    losses = np.array([1.0, 0.2, 0.9])
    for _ in range(1000):
        dist = mwu_step(dist, -losses, 0.05)
    assert dist[1] > 0.999
    # a zero weight is floored at 1e-300 rather than turning the step into NaN
    out = mwu_step(np.array([0.0, 1.0]), np.array([5.0, 0.0]), 1.0)
    assert out[0] < 1e-290 and out[1] == 1.0


def test_prox_euclidean_composes_with_projection():
    s = Simplex(2)
    out = prox_step(EUC, s, np.array([0.5, 0.5]), np.array([1.0, -1.0]), 0.25)
    np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)
    np.testing.assert_allclose(out, project_l2(s, np.array([0.75, 0.25])), atol=1e-15)


def test_prox_log_barrier_against_grid_oracle():
    s = Simplex(2)
    rng = np.random.default_rng(9)
    for _ in range(3):
        anchor = rng.dirichlet(np.ones(2)) * 0.9 + 0.05
        g = rng.uniform(-1, 1, 2)
        eta = rng.uniform(0.1, 1.0)

        def objective(p):
            if p.min() <= 0:
                return np.inf
            return -(p @ g) + bregman(LOG, p, anchor) / eta

        oracle = brute_force_simplex_argmin(objective=objective, step=1e-5, interior=True)
        out = prox_step(LOG, s, anchor, g, eta)
        np.testing.assert_allclose(out, oracle, atol=2e-5)
        assert abs(out.sum() - 1.0) < 1e-10


def test_prox_three_point_inequality():
    # <w - x+, g> <= (1/eta)[D(w||anchor) - D(w||x+) - D(x+||anchor)] for the
    # prox output x+; the strong-convexity step of the regret analysis.
    rng = np.random.default_rng(13)
    s = Simplex(4)
    for reg in (EUC, ENT, LOG):
        for _ in range(50):
            anchor = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
            g = rng.uniform(-1, 1, 4)
            eta = rng.uniform(0.05, 0.5)
            xp = prox_step(reg, s, anchor, g, eta)
            for _ in range(10):
                w = rng.dirichlet(np.ones(4))
                lhs = (w - xp) @ g
                rhs = (
                    bregman(reg, w, anchor) - bregman(reg, w, xp) - bregman(reg, xp, anchor)
                ) / eta
                assert lhs <= rhs + 1e-8


@st.composite
def euclidean_prox_inputs(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    # Anchors may sit on the boundary: the Euclidean prox needs no interior.
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    anchor = w / np.sum(w) if np.sum(w) > 0 else np.full(d, 1.0 / d)
    g = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
    eta = 10.0 ** draw(st.floats(-4.0, 1.0))
    return anchor, g, eta


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(euclidean_prox_inputs())
def test_prox_euclidean_properties(inputs):
    anchor, g, eta = inputs
    d = len(g)
    x = prox_step(EUC, Simplex(d), anchor, g, eta)
    y = anchor + eta * g
    scale = 1.0 + float(np.max(np.abs(y)))
    assert x.min() >= 0.0
    assert abs(x.sum() - 1.0) <= 1e-14 * d * scale
    # x is the projection of y exactly when <y - x, z - x> <= 0 on the whole
    # simplex; the form is linear in z, so its vertices suffice.
    for z in np.eye(d):
        assert (y - x) @ (z - x) <= 1e-14 * d * scale


def bisection_log_barrier_prox(anchor, g, eta, tol=1e-10):
    """Reference log-barrier prox: bisection on the simplex multiplier nu.

    x_a(nu) = 1 / (eta * (nu - g_a) + 1 / anchor_a); sum(x(nu)) is strictly
    decreasing and blows up at the lower end of its domain.
    """
    inv_anchor = 1.0 / anchor

    def coords(nu):
        return 1.0 / (eta * (nu - g) + inv_anchor)

    nu_lo = float(np.max(g - inv_anchor / eta))
    nu_hi = max(nu_lo + 1.0, float(np.max(g)) + (len(g) + 1.0) / eta)
    while np.sum(coords(nu_hi)) >= 1.0:
        nu_hi = nu_lo + 2.0 * (nu_hi - nu_lo)
    for _ in range(200):
        nu = 0.5 * (nu_lo + nu_hi)
        x = coords(nu)
        s = float(np.sum(x))
        if abs(s - 1.0) <= tol:
            return x / np.sum(x)
        if s > 1.0:
            nu_lo = nu
        else:
            nu_hi = nu
    raise AssertionError("reference bisection did not converge")


def newton_log_barrier_prox(anchor, g, eta, tol=1e-10, max_iter=200):
    """Reference log-barrier prox of one interior anchor: the 1-D safeguarded
    Newton solve on the simplex multiplier nu, on Python floats between the
    array operations. The row kernel must reproduce it bit for bit."""
    b = 1.0 / anchor - eta * g
    b_min = float(np.min(b))
    lo = (1.0 - b_min) / eta
    hi = (len(b) - b_min) / eta
    a2 = anchor * anchor
    nu = min(max(float(a2 @ g) / float(np.sum(a2)), lo), hi)
    for _ in range(max_iter):
        x = 1.0 / (eta * nu + b)
        s = float(np.sum(x))
        if abs(s - 1.0) <= tol:
            return x / s
        if s > 1.0:
            lo = nu
        else:
            hi = nu
        nu += (s - 1.0) / (eta * float(x @ x))
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
    raise AssertionError("reference Newton solve did not converge")


@st.composite
def log_barrier_row_stacks(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.integers(min_value=1, max_value=8))
    low = float(np.log10(INTERIOR_FLOOR)) - 1.0
    weights = 10.0 ** np.array(
        draw(st.lists(st.floats(low, 0.0), min_size=k * d, max_size=k * d))
    ).reshape(k, d)
    anchors = lift_interior(weights)
    g = np.array(
        draw(st.lists(st.floats(-10.0, 10.0), min_size=k * d, max_size=k * d))
    ).reshape(k, d)
    eta = 10.0 ** draw(st.floats(-4.0, 1.0))
    return anchors, g, eta


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_barrier_row_stacks())
def test_prox_log_barrier_rows_match_newton_oracle(inputs):
    anchors, g, eta = inputs
    x = _prox_log_barrier_simplex(anchors, g, eta)
    assert x.shape == anchors.shape
    for a in range(len(anchors)):
        assert x[a].tobytes() == newton_log_barrier_prox(anchors[a], g[a], eta).tobytes()
        # prox_step is the kernel on one row, after the interior lift
        want = newton_log_barrier_prox(lift_interior(anchors[a]), g[a], eta)
        assert prox_step(LOG, Simplex(anchors.shape[1]), anchors[a], g[a], eta).tobytes() == (
            want.tobytes()
        )


@st.composite
def log_barrier_prox_inputs(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    # log10 of the unnormalized anchor weights: after normalization and the
    # interior lift, coordinates reach down to INTERIOR_FLOOR.
    low = float(np.log10(INTERIOR_FLOOR)) - 1.0
    exps = draw(st.lists(st.floats(low, 0.0), min_size=d, max_size=d))
    weights = 10.0 ** np.array(exps)
    anchor = lift_interior(weights / np.sum(weights))
    g = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
    eta = 10.0 ** draw(st.floats(-4.0, 1.0))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d)))
    return anchor, g, eta, w / np.sum(w)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_barrier_prox_inputs())
def test_prox_log_barrier_properties(inputs):
    anchor, g, eta, w = inputs
    x = prox_step(LOG, Simplex(len(g)), anchor, g, eta)
    assert x.min() > 0.0
    assert abs(x.sum() - 1.0) <= 1e-12
    # KKT: 1/x_a - 1/anchor_a + eta*g_a equals eta*nu for every coordinate.
    kkt = 1.0 / x - 1.0 / anchor + eta * g
    scale = np.max(1.0 / x + 1.0 / anchor + eta * np.abs(g))
    assert np.ptp(kkt) <= 1e-8 * scale
    np.testing.assert_allclose(x, bisection_log_barrier_prox(anchor, g, eta), rtol=1e-9, atol=0)
    # Three-point inequality against an interior comparator; the Bregman
    # terms grow like 1/anchor, so the slack is relative to their size.
    terms = (bregman(LOG, w, anchor), bregman(LOG, w, x), bregman(LOG, x, anchor))
    lhs = (w - x) @ g
    rhs = (terms[0] - terms[1] - terms[2]) / eta
    assert lhs <= rhs + 1e-8 * (1.0 + abs(lhs) + sum(terms) / eta)


@st.composite
def entropic_prox_inputs(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    # Anchor coordinates reach below INTERIOR_FLOOR; the prox lifts them.
    low = float(np.log10(INTERIOR_FLOOR)) - 1.0
    exps = draw(st.lists(st.floats(low, 0.0), min_size=d, max_size=d))
    weights = 10.0 ** np.array(exps)
    g = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
    eta = 10.0 ** draw(st.floats(-4.0, 1.0))
    # The comparator may sit on the boundary.
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
    w = w / np.sum(w) if np.sum(w) > 0 else np.full(d, 1.0 / d)
    return weights / np.sum(weights), g, eta, w


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(entropic_prox_inputs())
def test_prox_entropic_properties(inputs):
    anchor, g, eta, w = inputs
    x = prox_step(ENT, Simplex(len(g)), anchor, g, eta)
    assert x.min() > 0.0
    assert abs(x.sum() - 1.0) <= 1e-12
    # Three-point inequality against the lifted anchor, which is the point
    # the step starts from; for the exact multiplicative-weights step it holds
    # with equality, and the slack is relative to the size of the KL terms.
    lifted = lift_interior(anchor)
    terms = (bregman(ENT, w, lifted), bregman(ENT, w, x), bregman(ENT, x, lifted))
    lhs = (w - x) @ g
    rhs = (terms[0] - terms[1] - terms[2]) / eta
    assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs) + sum(terms) / eta)


def test_prox_log_barrier_reports_non_convergence():
    # The second row converges on its first evaluation and is dropped; the
    # message names the residual and bracket of the row that did not.
    anchors = np.array([[0.3, 0.7], [0.5, 0.5]])
    g = np.array([[1.0, -1.0], [0.0, 0.0]])
    with pytest.raises(NumericError, match=r"residual=.*eta=0\.5, bracket=\("):
        _prox_log_barrier_simplex(anchors, g, 0.5, max_iter=1)


def test_prox_rejects_bad_eta():
    with pytest.raises(InvalidInputError):
        prox_step(EUC, Simplex(2), np.array([0.5, 0.5]), np.zeros(2), 0.0)


def test_diameters():
    assert abs(Simplex(3).diameter - np.sqrt(2)) < 1e-15
    assert Simplex(1).diameter == 0.0
    assert abs(Box(np.zeros(2), np.ones(2)).diameter - np.sqrt(2)) < 1e-15
