import numpy as np
import pytest

from metagames.errors import ConfigError
from metagames.games import VIOperator
from metagames.geometry import Box
from metagames.holder_vi import (
    HolderSchedule,
    amplitude_rotation_operator,
    componentwise_power_operator,
    g_of_alpha,
    holder_eta,
    holder_run,
    weak_mvi_run,
)
from metagames.metrics import path_lengths, svi_residual


def test_holder_eta_examples():
    # alpha = 1 switches to the Lipschitz default 1/(4H)
    assert holder_eta(HolderSchedule(H=2.0, alpha=1.0, radius_bound=1.0, horizon=50)) == 0.125
    # pinned numeric evaluation at alpha = 0.5, H = 1, radius^2 = 1, m = 1
    g = g_of_alpha(0.5)
    assert abs(g - 1.5 * 3 ** (1.0 / 3.0)) < 1e-12
    eta = holder_eta(HolderSchedule(H=1.0, alpha=0.5, radius_bound=1.0, horizon=1))
    assert abs(eta - (1.0 / g) ** 0.25) < 1e-12
    assert abs(eta - 0.8245) < 5e-4
    # homogeneity: radius^2 scaled x4 scales eta by 4^((1-alpha)/2) = sqrt(2)
    eta4 = holder_eta(HolderSchedule(H=1.0, alpha=0.5, radius_bound=2.0, horizon=1))
    assert abs(eta4 / eta - np.sqrt(2.0)) < 1e-12
    with pytest.raises(ConfigError):
        HolderSchedule(H=1.0, alpha=1.5, radius_bound=1.0, horizon=1)


def test_componentwise_operator_holder_constant_bruteforce():
    rng = np.random.default_rng(0)
    for alpha in (0.3, 0.5, 0.8):
        op = componentwise_power_operator(3, alpha)
        H, a = op.holder
        assert a == alpha
        worst = 0.0
        for _ in range(2000):
            z = rng.uniform(-1, 1, 3)
            zp = rng.uniform(-1, 1, 3)
            dist = np.linalg.norm(z - zp)
            if dist < 1e-12:
                continue
            ratio = np.linalg.norm(op(z) - op(zp)) / dist**alpha
            worst = max(worst, ratio)
        assert worst <= H * (1.0 + 1e-9)


def test_amplitude_rotation_is_lipschitz_and_mvi():
    rng = np.random.default_rng(1)
    op = amplitude_rotation_operator(beta=2.0)
    for _ in range(2000):
        z = rng.uniform(-1, 1, 2)
        zp = rng.uniform(-1, 1, 2)
        dist = np.linalg.norm(z - zp)
        if dist < 1e-12:
            continue
        assert np.linalg.norm(op(z) - op(zp)) <= op.lipschitz * dist * (1 + 1e-9)
        # MVI at the origin: <F(z), z - 0> = 0 >= 0
        assert abs(float(op(z) @ z)) < 1e-12


def test_holder_path_bound():
    # refined second-order path length <= 2 ||z* - z0||^2 under the schedule
    for alpha in (0.3, 0.5, 0.7):
        op = componentwise_power_operator(4, alpha)
        z0 = np.full(4, 0.8)
        out = holder_run(op, z0, m=500, radius_bound=float(np.linalg.norm(z0)))
        _, refined = path_lengths(out["primary"], out["secondary"])
        assert refined <= 2.0 * float(np.sum(z0**2)) + 1e-6


def test_holder_rate_slopes():
    # best-iterate SVI residual decays like m^(-alpha/2) over m in {1e2..1e4}
    targets = {
        0.5: componentwise_power_operator(4, 0.5),
        1.0: amplitude_rotation_operator(beta=2.0),
    }
    starts = {0.5: np.full(4, 0.9), 1.0: np.array([0.9, 0.0])}
    for alpha, op in targets.items():
        z0 = starts[alpha]
        residuals = []
        for m in (100, 1000, 10000):
            out = holder_run(op, z0, m, radius_bound=float(np.linalg.norm(z0)))
            residuals.append(min(svi_residual(op, z) for z in out["primary"][1:]))
        slope = float(np.polyfit(np.log([100, 1000, 10000]), np.log(residuals), 1)[0])
        assert -alpha / 2.0 - 0.15 <= slope <= -alpha / 2.0 + 0.15


def test_weak_mvi_zero_operator():
    box = Box(np.full(2, -np.inf), np.full(2, np.inf))
    op = VIOperator(lambda z: np.zeros(2), box, lipschitz=1.0, weak_mvi_rho=0.01)
    op.mvi_point = np.zeros(2)
    out = weak_mvi_run(op, np.array([0.5, -0.5]), m=50, eta=0.2)
    assert np.max(out["norms_sq"]) == 0.0
    assert out["bound_slack"] >= 0.0


def test_weak_mvi_identity_operator_per_iterate_bound():
    box = Box(np.full(3, -np.inf), np.full(3, np.inf))
    op = VIOperator(lambda z: z, box, lipschitz=1.0, weak_mvi_rho=0.01)
    op.mvi_point = np.zeros(3)
    z0 = np.array([1.0, -2.0, 0.5])
    m = 400
    out = weak_mvi_run(op, z0, m=m, eta=0.2)
    assert out["bound_slack"] >= -1e-6
    rhs = np.sqrt(out["bound_rhs"] / (m - 1))
    assert out["min_norm"] <= rhs + 1e-9


def test_weak_mvi_rotation_bound():
    box = Box(np.full(2, -np.inf), np.full(2, np.inf))
    op = VIOperator(
        lambda z: np.array([z[1], -z[0]]), box, lipschitz=1.0, weak_mvi_rho=0.01
    )
    op.mvi_point = np.zeros(2)
    out = weak_mvi_run(op, np.array([1.0, 0.0]), m=500, eta=0.2)
    assert out["bound_slack"] >= -1e-6


def test_weak_mvi_ignores_the_operator_box():
    # The recursion is unconstrained: iterates leave the operator's box.
    box = Box(np.full(2, -0.1), np.full(2, 0.1))
    op = VIOperator(lambda z: z, box, lipschitz=1.0, weak_mvi_rho=0.01)
    op.mvi_point = np.zeros(2)
    z0 = np.array([1.0, -2.0])
    out = weak_mvi_run(op, z0, m=3, eta=0.2)
    # F(z) = z: z^(1) = (1 - eta) z0, zhat^(1) = (1 - eta(1 - eta)) z0, z^(2) = zhat^(1) - eta z^(1)
    np.testing.assert_allclose(out["path"][1], 0.8 * z0, atol=1e-15)
    np.testing.assert_allclose(out["path"][2], (0.84 - 0.2 * 0.8) * z0, atol=1e-15)
    np.testing.assert_allclose(out["norms_sq"][0], 0.64 * 5.0, atol=1e-14)
    assert not box.contains(out["path"][2])
    assert out["bound_slack"] >= 0.0


def test_weak_mvi_eta_band_enforced():
    box = Box(np.full(2, -np.inf), np.full(2, np.inf))
    op = VIOperator(lambda z: z, box, lipschitz=1.0, weak_mvi_rho=0.05)
    with pytest.raises(ConfigError):
        weak_mvi_run(op, np.zeros(2), m=10, eta=0.05)  # below 2*rho
    with pytest.raises(ConfigError):
        weak_mvi_run(op, np.zeros(2), m=10, eta=0.3)  # above 1/(4L)


def test_holder_run_is_ogd_with_secondary_prediction():
    # z^(i) = proj(zhat^(i-1) - eta F(zhat^(i-1))), zhat^(i) = proj(zhat^(i-1) - eta F(z^(i)))
    op = componentwise_power_operator(2, 0.5)
    z0 = np.array([0.5, -0.5])
    out = holder_run(op, z0, 50)
    assert out["primary"].shape == out["secondary"].shape == (51, 2)
    np.testing.assert_array_equal(out["primary"][0], z0)
    np.testing.assert_array_equal(out["secondary"][0], z0)
    eta = out["eta"]
    for i in range(1, 51):
        prev = out["secondary"][i - 1]
        z = np.clip(prev - eta * op(prev), -1.0, 1.0)
        np.testing.assert_allclose(out["primary"][i], z, atol=1e-15)
        np.testing.assert_allclose(
            out["secondary"][i], np.clip(prev - eta * op(z), -1.0, 1.0), atol=1e-15
        )
