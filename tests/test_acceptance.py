"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is deterministic.
"""

import itertools
import json
import time

import numpy as np

from metagames.games import (
    MatrixGame,
    NormalFormGame,
    SecurityGame,
    SequenceConfig,
    VIOperator,
    lipschitz_constant,
    sample_game_sequence,
    utility_gradient,
)
from metagames.geometry import Box, Regularizer, Simplex, bregman
from metagames.harness import (
    compare_arms,
    emit_plot,
    make_learner,
    play_task,
    run_experiment,
    write_records_csv,
    write_task_summaries,
)
from metagames.holder_vi import (
    amplitude_rotation_operator,
    componentwise_power_operator,
    holder_run,
    weak_mvi_run,
)
from metagames.learners import (
    SECONDARY_ANCHOR,
    GDLearner,
    OMDLearner,
    OptAdaGradLearner,
    PreconditionerSchedule,
    external_regret,
    rvu_terms,
)
from metagames.meta import (
    EwooState,
    Initializer,
    TaskOutcome,
    anchor_variance,
    ewoo_next_eta,
)
from metagames.metrics import (
    check_smoothness,
    duality_gap,
    path_lengths,
    saddle_point,
    svi_residual,
)
from metagames.stackelberg import StackelbergConfig, build_extreme_points, run_meta_stackelberg
from metagames.swapregret import (
    SwapWrapper,
    boundary_offset_comparator,
    default_log_barrier_eta,
    swap_regret,
)

LOGB = Regularizer("log-barrier")

PERTURBED_BASE = np.array([[0.2, -0.6], [-0.6, 1.0]])


def _report(n, detail):
    print(f"[criterion {n:02d}] PASS: {detail}", flush=True)


def test_c01_c02_rvu_suite_and_dualgap_identity():
    # 1: the initialization-dependent RVU bound on 1000 random BSPPs,
    #    d <= 10, m = 500, eta = 1/(4L), slack >= -1e-8, under 60 s.
    # 2: the duality-gap identity (regret_x + regret_y)/m = gap of the average
    #    strategies to 1e-9 on every one of those logged OGD runs.
    rng = np.random.default_rng(2024)
    m = 500
    start = time.time()
    worst_slack = np.inf
    worst_identity = 0.0
    for _ in range(1000):
        d1, d2 = rng.integers(2, 11, size=2)
        game = MatrixGame(rng.uniform(-1, 1, size=(d1, d2)))
        eta = 1.0 / (4.0 * lipschitz_constant(game))
        xl = make_learner("ogd", Simplex(d1), eta)
        yl = make_learner("ogd", Simplex(d2), eta)
        play_task(game, [xl, yl], m)
        regs = []
        for lrn, ss in ((xl, Simplex(d1)), (yl, Simplex(d2))):
            reg, opt = external_regret(np.asarray(lrn.path[1:]), lrn.utility_array(), ss)
            breg, pred, path = rvu_terms(lrn, opt)
            slack = breg / eta + eta * pred - path / (8.0 * eta) - reg
            worst_slack = min(worst_slack, slack)
            regs.append(reg)
        x_bar = np.mean(np.asarray(xl.path[1:]), axis=0)
        y_bar = np.mean(np.asarray(yl.path[1:]), axis=0)
        ident = abs(sum(regs) / m - duality_gap(game, x_bar, y_bar))
        worst_identity = max(worst_identity, ident)
    elapsed = time.time() - start
    assert worst_slack >= -1e-8
    assert elapsed < 60.0
    _report(1, f"RVU slack >= {worst_slack:.3e} on 1000 BSPPs in {elapsed:.1f}s")
    assert worst_identity <= 1e-9
    _report(2, f"duality-gap identity deviation <= {worst_identity:.3e}")


def test_c03_sum_of_regrets_meta_bound():
    rng = np.random.default_rng(7)
    T, m, n = 50, 200, 3
    dims = (3, 3, 3)
    games = [
        NormalFormGame([rng.uniform(-1, 1, size=dims) for _ in range(n)]) for _ in range(T)
    ]
    L = max(lipschitz_constant(g) for g in games)
    eta = 1.0 / (4.0 * L * np.sqrt(n - 1))
    sets = [Simplex(d) for d in dims]
    init = Initializer("ftl-average", sets)
    total = 0.0
    optima = [[] for _ in range(n)]
    for g in games:
        inits = init.initialization()
        lrns = [make_learner("ogd", sets[k], eta, init=inits[k]) for k in range(n)]
        play_task(g, lrns, m)
        opts = []
        for k, lrn in enumerate(lrns):
            r, o = external_regret(np.asarray(lrn.path[1:]), lrn.utility_array(), sets[k])
            total += r
            opts.append(o)
            optima[k].append(o)
        init.observe(TaskOutcome(optima=opts))
    measured = total / T
    V = sum(anchor_variance(np.asarray(a)) for a in optima)
    omegas = sum(s.diameter**2 for s in sets)
    bound = 2 * L * np.sqrt(n - 1) * V + 8 * L * np.sqrt(n - 1) * (1 + np.log(T)) / T * omegas
    assert measured <= bound + 1e-6
    _report(3, f"avg sum of regrets {measured:.3f} <= meta bound {bound:.3f}")


def test_c04_path_length_bounds():
    rng = np.random.default_rng(11)
    m = 200
    worst_b5 = np.inf
    worst_b6 = np.inf
    for _ in range(500):
        d1, d2 = rng.integers(2, 7, size=2)
        game = MatrixGame(rng.uniform(-1, 1, size=(d1, d2)))
        eta = 1.0 / (4.0 * lipschitz_constant(game))
        xl = make_learner("ogd", Simplex(d1), eta)
        yl = make_learner("ogd", Simplex(d2), eta)
        play_task(game, [xl, yl], m)
        _, ox = external_regret(np.asarray(xl.path[1:]), xl.utility_array(), Simplex(d1))
        _, oy = external_regret(np.asarray(yl.path[1:]), yl.utility_array(), Simplex(d2))
        p1, _ = path_lengths(xl.primary_array())
        p2, _ = path_lengths(yl.primary_array())
        b5 = 8.0 * (np.sum((ox - xl.init) ** 2) + np.sum((oy - yl.init) ** 2)) - (p1 + p2)
        worst_b5 = min(worst_b5, b5)
        zp = np.hstack([xl.primary_array(), yl.primary_array()])
        zh = np.hstack([xl.secondary_array(), yl.secondary_array()])
        _, refined = path_lengths(zp, zh)
        sx, sy, _ = saddle_point(game)
        z0 = np.concatenate([xl.init, yl.init])
        b6 = 2.0 * float(np.sum((np.concatenate([sx, sy]) - z0) ** 2)) - refined
        worst_b6 = min(worst_b6, b6)
    assert worst_b5 >= -1e-8 and worst_b6 >= -1e-8
    _report(4, f"path-length slack: first {worst_b5:.3e}, refined (LP NE) {worst_b6:.3e}")


def _criterion5_config():
    return {
        "T": 200,
        "m": 1000,
        "seed": 31,
        "game": {"family": "perturbed-base", "base": PERTURBED_BASE.tolist(), "delta": 0.02},
        "learner": {"algo": "ogd", "eta": 0.01},
        "arms": [
            {"name": "meta-avg", "init": "ftl-average"},
            {"name": "cold", "init": "cold"},
        ],
        "checkpoints": [200],
    }


def test_c05_meta_vs_cold():
    start = time.time()
    results, _ = compare_arms(_criterion5_config())
    games = results["cold"].games
    nes = [np.concatenate(saddle_point(g)[:2]) for g in games]
    diam = max(
        float(np.linalg.norm(a - b)) for a, b in itertools.combinations(nes[:50], 2)
    )
    assert diam <= 0.1  # the NE ball premise of the criterion
    meta = float(np.mean(results["meta-avg"].task_column("dualgap_avg")[-50:]))
    cold = float(np.mean(results["cold"].task_column("dualgap_avg")[-50:]))
    elapsed = time.time() - start
    assert meta <= 0.5 * cold
    assert elapsed < 300.0
    _report(5, f"last-50 duality gap: meta {meta:.5f} vs cold {cold:.5f} in {elapsed:.0f}s")


def test_c06_last_iterate_meta_bound():
    T, m, eps = 200, 1000, 0.05
    cfg = SequenceConfig(
        family="perturbed-base", T=T, seed=31, base=PERTURBED_BASE, delta=0.02
    )
    games = sample_game_sequence(cfg)
    sets = (Simplex(2), Simplex(2))
    init = Initializer("ne-average", sets)
    first_pass = []
    nes = []
    for g in games:
        eta = 1.0 / (4.0 * lipschitz_constant(g))
        inits = init.initialization()
        xl = make_learner("ogd", sets[0], eta, init=inits[0])
        yl = make_learner("ogd", sets[1], eta, init=inits[1])
        play_task(g, [xl, yl], m)
        zp = np.hstack([xl.primary_array(), yl.primary_array()])
        zh = np.hstack([xl.secondary_array(), yl.secondary_array()])
        a = np.linalg.norm(zp[1:] - zh[1:], axis=1)
        b = np.linalg.norm(zp[1:] - zh[:-1], axis=1)
        hit = np.flatnonzero((a <= eps) & (b <= eps))
        first_pass.append(int(hit[0]) + 1 if len(hit) else m + 1)
        sx, sy, _ = saddle_point(g)
        nes.append(np.concatenate([sx, sy]))
        init.observe(TaskOutcome(nash=[sx, sy]))
    v_ne = anchor_variance(np.asarray(nes))
    omega_sq = 4.0  # two simplices of diameter sqrt(2)
    bound = int(np.ceil(2.0 * v_ne / eps**2 + 8.0 * (1 + np.log(T)) * omega_sq / (T * eps**2)))
    mean_first = float(np.mean(first_pass))
    assert mean_first <= bound
    _report(6, f"mean iterations to eps-residual {mean_first:.2f} <= {bound}")


def test_c07_potential_games():
    T, m, d, alpha = 40, 300, 3, 0.01
    cfg = SequenceConfig(family="potential-drift", T=T, seed=5, dim=d, alpha=alpha)
    games = sample_game_sequence(cfg)
    L = max(lipschitz_constant(g.base) for g in games)
    eta = 1.0 / (4.0 * L)
    sets = [Simplex(d), Simplex(d)]

    def run_tasks(horizon):
        prev_last = None
        paths, gains, step_seqs = [], [], []
        for g in games:
            inits = prev_last if prev_last is not None else [s.center() for s in sets]
            lrns = [GDLearner(sets[k], eta, init=inits[k]) for k in range(2)]
            play_task(g, lrns, horizon)
            ps = [np.asarray(l.path) for l in lrns]
            joint_steps = np.sum(np.diff(ps[0], axis=0) ** 2, axis=1) + np.sum(
                np.diff(ps[1], axis=0) ** 2, axis=1
            )
            paths.append(float(np.sum(joint_steps)))
            step_seqs.append(joint_steps)
            gains.append(
                g.potential([p[-1] for p in ps]) - g.potential([p[0] for p in ps])
            )
            prev_last = [p[-1] for p in ps]
        return paths, gains, step_seqs

    paths, gains, step_seqs = run_tasks(m)
    for p, gain in zip(paths, gains):
        assert p / (2.0 * eta) <= gain + 1e-8  # per-task descent inequality
    # bilinear potentials attain their max at vertex pairs, so the pairwise
    # deviation is the max entry of the payoff difference
    v_diff = sum(
        float(np.max(games[t].base.payoffs[0] - games[t + 1].base.payoffs[0]))
        for t in range(T - 1)
    ) / T
    phi_max = max(g.phi_max for g in games)
    lhs = float(np.sum(paths)) / (2.0 * eta * T)
    rhs = 2.0 * phi_max / T + v_diff
    assert lhs <= rhs + 1e-8
    eps = 0.05
    m_star = max(int(np.ceil(4.0 * eta * phi_max / (eps**2 * T) + 2.0 * eta * v_diff / eps**2)), 1)
    mins = [float(np.min(steps[:m_star])) for steps in step_seqs]
    assert float(np.mean(mins)) <= eps**2 + 1e-8
    _report(
        7,
        f"descent per task, avg path {lhs:.4f} <= {rhs:.4f}, m*={m_star} reaches eps",
    )


def test_c08_swap_regret_chain():
    rng = np.random.default_rng(13)
    m = 150
    worst_first = np.inf
    worst_second = np.inf
    for _ in range(100):
        dims = [int(rng.integers(2, 5)) for _ in range(2)]
        game = NormalFormGame([rng.uniform(-1, 1, size=tuple(dims)) for _ in range(2)])
        L = lipschitz_constant(game)
        eta = default_log_barrier_eta(2, max(dims), L)
        players = [SwapWrapper(dims[k], eta) for k in range(2)]
        play_task(game, players, m, free_first=False)
        alpha = (m * 100.0) ** (-1.0 / 3.0)
        for k, w in enumerate(players):
            sw = swap_regret(w.played_array(), w.utility_array())
            sum_ext = float(np.sum(w.per_action_external_regrets()))
            worst_first = min(worst_first, sum_ext - sw)
            breg_sum = 0.0
            off_reg = 0.0
            for lrn in w.action_learners:
                us = lrn.utility_array()
                cum = np.sum(us, axis=0)
                vertex = np.zeros(dims[k])
                vertex[int(np.argmax(cum))] = 1.0
                tilde = boundary_offset_comparator(vertex, alpha)
                off_reg += float(cum @ tilde) - float(
                    np.sum(np.asarray(lrn.path[1:]) * us)
                )
                breg_sum += bregman(LOGB, tilde, lrn.init)
            worst_second = min(worst_second, breg_sum / w.eta - off_reg)
            resid = float(np.sum(np.abs(w.mix @ w._transition() - w.mix)))
            assert resid <= 1e-8
    assert worst_first >= -1e-8 and worst_second >= -1e-8
    _report(
        8,
        f"swap chain slacks: swreg<=sum {worst_first:.3e}, sum<=Bregman/eta {worst_second:.3e}",
    )


def test_c09_ewoo():
    # Cor-style regret bound on synthetic (B_t, gamma_t) sequences, T = 200.
    rng = np.random.default_rng(3)
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
    eta_star = float(grid[int(np.argmin(totals))])
    eps = st.epsilon
    bound = min(eps**2 / eta_star, eps) * float(np.sum(gammas)) + (
        D * float(np.max(gammas)) / 2.0
    ) * max(D**2 / eps**2, 1.0) * (1.0 + np.log(T + 1))
    regret = played - float(np.min(totals))
    assert regret <= bound + 1e-9
    # identical tasks: the chosen eta converges to the grid-search argmin
    st2 = EwooState.from_radius(1.0, 0.5)
    b_sq, gamma = 0.25, 1.0
    for _ in range(200):
        st2.record(b_sq, gamma)
    eta_f = ewoo_next_eta(st2)
    grid2 = np.linspace(st2.lo, st2.hi, 200001)
    loss2 = gamma * (grid2 + (b_sq + st2.epsilon**2) / grid2)
    argmin = float(grid2[int(np.argmin(loss2))])
    assert abs(eta_f - argmin) <= 0.05 * argmin
    _report(9, f"EWOO regret {regret:.3f} <= {bound:.3f}; eta -> argmin within 5%")


def test_c10_lower_bound():
    T = 10_000
    arms = ("cold", "ftl-average", "prev-optimum", "last-iterate", "ne-average")
    details = []
    for init_mode in arms:
        cfg = {
            "T": T,
            "m": 5,
            "seed": 123,
            "game": {"family": "lower-bound-prior", "prior": [0.5, 0.25, 0.25]},
            "learner": {"algo": "ogd", "eta": "auto"},
            "init": init_mode,
        }
        res = run_experiment(cfg)
        measured = float(np.mean(res.task_column("regret_x") + res.task_column("regret_y")))
        bound = 0.5 * float(np.sum(res.similarity.v_opt2)) - 0.02
        assert measured >= bound, (init_mode, measured, bound)
        details.append(f"{init_mode}:{measured:.3f}>={bound:.3f}")
    _report(10, "; ".join(details))


def test_c11_extra_gradient():
    rng = np.random.default_rng(17)
    worst_slack = np.inf
    worst_ratio = 0.0
    for _ in range(20):
        game = MatrixGame(rng.uniform(-1, 1, size=(3, 3)))
        L = lipschitz_constant(game)
        eta = 1.0 / (8.0 * L)
        op = game.operator()
        eg = OMDLearner(op.set, eta, init=op.set.center(), prediction_mode=SECONDARY_ANCHOR)
        play_task(op, [eg], 1000, free_first=False)
        hats = np.asarray(eg.path[1:])  # extra-gradient's extrapolated points
        # proxy regret of the extrapolated points and its RVU bound
        reg, comp = external_regret(hats, eg.utilities, op.set)
        breg, pred, path = rvu_terms(eg, comp, constant="half")
        worst_slack = min(worst_slack, breg / eta + eta * pred - path / (2.0 * eta) - reg)
        g100 = duality_gap(game, np.mean(hats[:100, :3], axis=0), np.mean(hats[:100, 3:], axis=0))
        g1000 = duality_gap(game, np.mean(hats[:, :3], axis=0), np.mean(hats[:, 3:], axis=0))
        worst_ratio = max(worst_ratio, g1000 / g100)
    assert worst_slack >= -1e-8
    assert worst_ratio <= 0.25
    _report(11, f"EG RVU slack >= {worst_slack:.3e}; gap ratio m=1000/m=100 <= {worst_ratio:.3f}")


def test_c12_holder_rates():
    constructions = {
        0.5: (componentwise_power_operator(4, 0.5), np.full(4, 0.9)),
        1.0: (amplitude_rotation_operator(beta=2.0), np.array([0.9, 0.0])),
    }
    slopes = {}
    for alpha, (op, z0) in constructions.items():
        residuals = []
        for m in (100, 1000, 10000):
            out = holder_run(op, z0, m, radius_bound=float(np.linalg.norm(z0)))
            residuals.append(min(svi_residual(op, z) for z in out["primary"][1:]))
        slope = float(np.polyfit(np.log([100, 1000, 10000]), np.log(residuals), 1)[0])
        assert -alpha / 2.0 - 0.15 <= slope <= -alpha / 2.0 + 0.15, (alpha, slope)
        slopes[alpha] = slope
    _report(12, f"log-log slopes: alpha=0.5 -> {slopes[0.5]:.3f}, alpha=1.0 -> {slopes[1.0]:.3f}")


def test_c13_weak_mvi():
    box = Box(np.full(2, -np.inf), np.full(2, np.inf))
    op = VIOperator(
        lambda z: np.array([z[1], -z[0]]), box, lipschitz=1.0, weak_mvi_rho=0.01
    )
    op.mvi_point = np.zeros(2)
    worst = np.inf
    for z0 in (np.array([1.0, 0.0]), np.array([0.3, -0.8]), np.array([-0.5, 0.5])):
        out = weak_mvi_run(op, z0, m=500, eta=0.2)
        worst = min(worst, out["bound_slack"])
    assert worst >= -1e-6
    _report(13, f"weak-MVI sum-of-norms bound slack >= {worst:.3e}")


def test_c14_optadagrad():
    rng = np.random.default_rng(19)
    eta, d, m = 0.05, 4, 1000
    pre = PreconditionerSchedule.constant(np.full(d, 1.0 / eta), m)
    ada = OptAdaGradLearner(Simplex(d), pre)
    ogd = OMDLearner(Simplex(d), eta)
    for _ in range(m):
        ada.play(), ogd.play()
        u = rng.uniform(-1, 1, d)
        ada.update(u)
        ogd.update(u)
    drift_free_gap = float(np.max(np.abs(ada.primary_array() - ogd.primary_array())))
    assert drift_free_gap < 1e-12
    # drifting diagonal preconditioners: the regret bound with measured sigma(m)
    diags = [np.array([4.0, 5.0, 6.0]) + 0.5 * np.sin(np.arange(3) + i / 25.0) for i in range(300)]
    pre = PreconditionerSchedule(diags)
    ada = OptAdaGradLearner(Simplex(3), pre)
    for i in range(300):
        ada.play()
        ada.update(rng.uniform(-1, 1, 3))
    us, ms = np.asarray(ada.utilities), np.asarray(ada.predictions)
    prim, hats = ada.primary_array(), ada.secondary_array()
    reg, comp = external_regret(prim[1:], us, Simplex(3))
    breg = 0.5 * float(np.sum(pre[0] * (comp - prim[0]) ** 2))
    pred = sum(float(np.sum((us[i] - ms[i]) ** 2 / pre[i])) for i in range(300))
    sig = 0.5 * sum(
        float(np.sum(pre[i] * (prim[i + 1] - hats[i]) ** 2))
        + float(np.sum(pre[i] * (prim[i + 1] - hats[i + 1]) ** 2))
        for i in range(300)
    )
    rhs = breg + 0.5 * Simplex(3).diameter ** 2 * pre.drift() + pred - sig
    assert reg <= rhs + 1e-8
    _report(
        14,
        f"Q=(1/eta)I matches OGD to {drift_free_gap:.1e}; drifting bound slack {rhs - reg:.3f}",
    )


def test_c15_welfare():
    from metagames.games import SmoothnessMeta

    # Table constants, exact.
    assert SmoothnessMeta(1 - 1 / np.e, 1.0).robust_poa == (1 - 1 / np.e) / 2
    assert SmoothnessMeta(1.0, 1.0).robust_poa == 0.5
    # hand-built (1,1)-smooth coordination game (verified by enumeration)
    u = np.array([[1.0, 0.6], [0.6, 0.5]])
    game = NormalFormGame([u, u.copy()])
    assert check_smoothness(game, 1.0, 1.0) is not None
    opt = 2.0  # both at action 0
    eta = 1.0 / (4.0 * lipschitz_constant(game))
    m = 500
    lrns = [make_learner("ogd", Simplex(2), eta, init=np.array([0.3, 0.7])) for _ in range(2)]
    play_task(game, lrns, m)
    profiles = list(zip(*[l.path[1:] for l in lrns]))
    sw = [
        sum(float(utility_gradient(game, k, list(p)) @ p[k]) for k in range(2))
        for p in profiles
    ]
    avg_sw = float(np.mean(sw))
    regs = [
        external_regret(np.asarray(l.path[1:]), l.utility_array(), Simplex(2))[0]
        for l in lrns
    ]
    floor = 0.5 * opt - 0.5 * float(np.sum(regs)) / m
    assert avg_sw >= floor - 1e-9
    _report(15, f"avg welfare {avg_sw:.4f} >= PoA floor minus regret slack {floor:.4f}")


def test_c16_stackelberg():
    start = time.time()
    rng = np.random.default_rng(23)
    d, k, m, T = 4, 3, 500, 100
    types = [(rng.uniform(-1, 0, d), rng.uniform(0, 1, d)) for _ in range(k)]
    game_ = SecurityGame(types, rng.uniform(0, 1, d), rng.uniform(-1, 0, d))
    E = build_extreme_points([game_], gamma=1e-3)
    script = [[0] * m for _ in range(T)]  # single persistent attacker type
    meta_cfg = StackelbergConfig(m=m, initializer="ftl-average", eta="ewoo", seed=29)
    uni_cfg = StackelbergConfig(m=m, initializer="uniform", eta="ewoo", seed=29)
    recs_meta, _ = run_meta_stackelberg([game_] * T, script, meta_cfg, extreme_points=E)
    recs_uni, _ = run_meta_stackelberg([game_] * T, script, uni_cfg, extreme_points=E)
    for r in recs_meta + recs_uni:
        assert r["regret_expected"] <= r["mwu_bound"] + 1e-9
    meta_late = float(np.mean([r["regret_expected"] for r in recs_meta if r["task"] > 50]))
    uni_late = float(np.mean([r["regret_expected"] for r in recs_uni if r["task"] > 50]))
    elapsed = time.time() - start
    assert meta_late <= 0.7 * uni_late
    assert elapsed < 180.0
    _report(
        16,
        f"|E|={len(E)}; per-task MWU bound holds; late regret meta {meta_late:.3f} "
        f"vs uniform {uni_late:.3f} in {elapsed:.0f}s",
    )


def test_c17_determinism(tmp_path):
    cfg = {
        "T": 20,
        "m": 100,
        "seed": 31,
        "game": {"family": "perturbed-base", "base": PERTURBED_BASE.tolist(), "delta": 0.02},
        "learner": {"algo": "ogd", "eta": 0.01},
        "init": "ftl-average",
        "log_every": 10,
        "metrics_every": 50,
    }
    blobs = []
    for run in range(2):
        res = run_experiment(json.loads(json.dumps(cfg)))
        rec = tmp_path / f"records{run}.csv"
        tasks = tmp_path / f"tasks{run}.csv"
        fig = tmp_path / f"fig{run}.svg"
        write_records_csv(rec, res.records)
        write_task_summaries(tasks, res.task_summaries)
        gaps = res.task_column("dualgap_avg")
        emit_plot(
            [{"label": "meta-avg", "xs": list(range(len(gaps))), "ys": gaps}],
            {"title": "gap", "logy": True},
            out=fig,
        )
        blobs.append((rec.read_bytes(), tasks.read_bytes(), fig.read_bytes()))
    assert blobs[0] == blobs[1]
    _report(17, "repeated seeded run is byte-identical (records, tasks, SVG)")
