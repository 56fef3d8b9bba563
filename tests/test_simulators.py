"""CartPole and RSCP dynamics, stepping, termination."""

import dataclasses

import numpy as np
import pytest
from helpers import deriv_oracle

from bkmpc import simulators as sim


def one_row(cfg, state, control, t):
    """``deriv_batch`` on the single row (state, control, t)."""
    return sim.deriv_batch(cfg, np.asarray(state, dtype=float)[None], np.atleast_1d(control)[None], [t])[0]


def test_cartpole_equilibrium():
    cfg = sim.preset("cartpole-ti")
    d = one_row(cfg, np.zeros(4), 0.0, 0.0)
    assert np.allclose(d, 0.0, atol=1e-15)


def test_cartpole_full_force_derivative():
    # frictionless closed form with g=10, m_c=1, m_p=0.1, l=0.5:
    # thetadd = (-F/1.1) / (0.5*(4/3 - 0.1/1.1)), xdd = (F + 0.05*(-thetadd))/1.1
    cfg = sim.preset("cartpole-ti")
    d = one_row(cfg, np.zeros(4), 20.0, 0.0)
    assert abs(d[1] - 19.512) < 1e-3
    assert abs(d[3] - (-29.268)) < 1e-3


def test_preset_returns_the_same_object_for_equal_arguments():
    # presets are cached frozen configs, so the rscp operating point each
    # one derives is found once; an override value must be hashable
    assert sim.preset("rscp-ti") is sim.preset("rscp-ti")
    tv = sim.preset("cartpole-ti", mu_cart=5e-4, mu_pole=2e-6)
    assert sim.preset("cartpole-ti", mu_cart=5e-4, mu_pole=2e-6) is tv
    assert sim.preset("cartpole-ti") is not tv and tv.mu_cart == 5e-4
    with pytest.raises(TypeError):
        sim.preset("rscp-ti", volumes=[1.0, 0.5, 1.0])


def test_cartpole_tv_matches_ti_when_modifier_vanishes():
    tv = sim.preset("cartpole-tv")
    ti = sim.preset("cartpole-ti", mu_cart=5e-4, mu_pole=2e-6)
    rng = np.random.default_rng(3)
    s = rng.uniform([-2, -1, -0.3, -1], [2, 1, 0.3, 1], size=(20, 4))
    f = rng.uniform(-20, 20, size=(20, 1))
    t = rng.integers(0, 100, size=20) * np.pi  # sin(omega*t) = 0 at omega = 1
    a = sim.cartpole_deriv_batch(tv, s, f, t)
    b = sim.cartpole_deriv_batch(ti, s, f, np.zeros(20))
    assert np.allclose(a, b, atol=1e-9)


def test_cartpole_energy_drift_second_order():
    # F = 0, no friction: one Euler step changes total energy by O(dt^2)
    cfg = sim.preset("cartpole-ti")
    mc, mp, length, g = cfg.cart_mass, cfg.pole_mass, cfg.half_length, cfg.gravity

    def energy(s):
        x, xd, th, thd = s
        kin = (
            0.5 * (mc + mp) * xd**2
            + mp * length * xd * thd * np.cos(th)
            + (2.0 / 3.0) * mp * length**2 * thd**2
        )
        return kin + mp * g * length * np.cos(th)

    s0 = np.array([0.3, 0.4, 0.2, -0.5])
    drifts = []
    for dt in (0.02, 0.01):
        cfg_dt = sim.preset("cartpole-ti", dt=dt)
        s1, _ = sim.step_euler(cfg_dt, s0[None], np.zeros((1, 1)), np.zeros(1))
        drifts.append(abs(energy(s1[0]) - energy(s0)))
    ratio = drifts[0] / drifts[1]
    assert 3.0 < ratio < 5.0


def test_rscp_steady_state_residual():
    cfg = sim.preset("rscp-ti")
    # balance residual per second of process time (the balances are per hour)
    x_set, q_nominal = np.asarray(cfg.x_set), np.asarray(cfg.q_nominal)
    res = one_row(cfg, x_set, q_nominal, 0.0) / 3600.0
    assert np.max(np.abs(res[[2, 5, 8]])) < 1e-6
    assert np.max(np.abs(res[[0, 1, 3, 4, 6, 7]])) < 4e-3


def test_rscp_nominal_duty_magnitude():
    cfg = sim.preset("rscp-ti")
    q = np.asarray(cfg.q_nominal)
    assert np.all(np.abs(q) > 1e5) and np.all(np.abs(q) < 1e7)


def test_rscp_duty_gain_is_inverse_heat_capacity():
    cfg = sim.preset("rscp-ti")
    rng = np.random.default_rng(5)
    s = np.array(cfg.x_fixed) + rng.normal(0, [0.01] * 2 + [2.0] + [0.01] * 2 + [2.0] + [0.01] * 2 + [2.0])
    q0 = np.asarray(cfg.q_nominal)
    h = 1000.0
    # row 0 at the nominal duties, row 1 + i with vessel i's duty raised
    duties = q0 + np.vstack([np.zeros(3), h * np.eye(3)])
    d = sim.rscp_deriv_batch(cfg, np.tile(s, (4, 1)), duties, np.zeros(4))
    for i, vol in enumerate(cfg.volumes):
        diff = d[1 + i] - d[0]
        expect = h / (cfg.rho * cfg.cp * vol)
        assert diff[3 * i + 2] == pytest.approx(expect, rel=1e-9)
    # vessel 1 explicitly: 1/4200 K h / kJ
    assert 1.0 / (cfg.rho * cfg.cp * cfg.volumes[0]) == pytest.approx(1 / 4200)


def test_rscp_duty_additivity_exact_structure():
    cfg = sim.preset("rscp-ti")
    rng = np.random.default_rng(7)
    s = np.array(cfg.x_fixed)
    qa = np.asarray(cfg.q_nominal) + rng.uniform(-1e6, 1e6, 3)
    qb = np.asarray(cfg.q_nominal) + rng.uniform(-1e6, 1e6, 3)
    d = sim.rscp_deriv_batch(cfg, np.tile(s, (2, 1)), np.vstack([qa, qb]), np.zeros(2))
    diff = d[0] - d[1]
    assert np.allclose(diff[[0, 1, 3, 4, 6, 7]], 0.0, atol=1e-12)
    expect = (qa - qb) / (cfg.rho * cfg.cp * np.asarray(cfg.volumes))
    assert np.allclose(diff[[2, 5, 8]], expect, rtol=1e-9)


def test_rscp_pure_a_recycle():
    cfg = sim.preset("rscp-ti")
    xa, xb = np.array([1.0]), np.array([0.0])
    xar, xbr, xcr = (v[0] for v in sim._recycle_composition_batch(cfg, xa, xb))
    assert xar == pytest.approx(1.0, abs=1e-15)
    assert xbr == 0.0 and xcr == 0.0


def test_rscp_recycle_sums_to_one():
    cfg = sim.preset("rscp-ti")
    rng = np.random.default_rng(11)
    xa = rng.uniform(0, 1, 100)
    xb = rng.uniform(0, 1 - xa)
    parts = sim._recycle_composition_batch(cfg, xa, xb)
    assert np.max(np.abs(sum(parts) - 1.0)) <= 1e-12


def test_rscp_degenerate_composition_raises():
    cfg = sim.preset("rscp-ti")
    bad = np.array(cfg.x_fixed)
    bad[6], bad[7] = -2.0, 0.1  # equilibrium denominator goes negative
    with pytest.raises(sim.InvalidStateError):
        one_row(cfg, bad, cfg.q_nominal, 0.0)


def test_rscp_tv_matches_ti_at_time_zero():
    tv = sim.preset("rscp-tv")
    ti = sim.preset("rscp-ti")
    rng = np.random.default_rng(13)
    s = np.array(ti.x_fixed) + rng.normal(0, 0.01, 9)
    q = np.asarray(ti.q_nominal) * 1.1
    assert np.array_equal(one_row(tv, s, q, 0.0), one_row(ti, s, q, 0.0))
    # and decays kinetics later
    d_late = one_row(tv, s, q, 10.0)
    assert not np.allclose(d_late, one_row(ti, s, q, 10.0))


def test_step_euler_fixed_point_stays():
    cfg = sim.preset("rscp-ti")
    s0 = np.array(cfg.x_fixed)
    s1, t1 = sim.step_euler(cfg, s0[None], np.asarray(cfg.q_nominal)[None], np.zeros(1))
    assert t1.tolist() == [cfg.dt]
    assert np.max(np.abs(s1[0] - s0)) <= 1e-10


def test_step_euler_cartpole_derived_value():
    cfg = sim.preset("cartpole-ti")
    s1, _ = sim.step_euler(cfg, np.zeros((1, 4)), np.array([[20.0]]), np.zeros(1))
    assert np.allclose(s1[0], [0.0, 0.39024, 0.0, -0.58536], atol=2e-5)


def test_step_euler_from_published_point_moves_little():
    cfg = sim.preset("rscp-ti")
    s0 = np.asarray(cfg.x_set)
    s1, _ = sim.step_euler(cfg, s0[None], np.asarray(cfg.q_nominal)[None], np.zeros(1))
    # 18-second step times the per-second residual bound
    assert np.max(np.abs(s1[0] - s0)) <= 18.0 * 4e-3


def spread_rows(cfg, rng, E):
    """E (states, controls, times) rows spread out to the termination
    bounds, over the control box and the training horizon's times."""
    if cfg.system == "cartpole":
        lim = [cfg.position_limit, 5.0, cfg.angle_limit, 5.0]
        x = rng.uniform(np.negative(lim), lim, size=(E, 4))
        x[::3, 1] = 0.0  # the friction's sign at rest
    else:
        lo, hi = cfg.temp_bounds
        x = rng.uniform([0.0, 0.0, lo] * 3, [1.0, 1.0, hi] * 3, size=(E, 9))
    u = rng.uniform(cfg.control_low, cfg.control_high, size=(E, cfg.control_dim))
    ts = rng.uniform(0.0, cfg.train_horizon * cfg.dt, size=E)
    return x, u, ts


@pytest.mark.parametrize("name", sim.PRESET_NAMES)
@pytest.mark.parametrize("E", [1, 2, 7, 300])
def test_deriv_batch_equals_term_by_term_oracle(name, E):
    # grouping the balances into fewer numpy calls keeps every element's
    # operations and their order, so the result is equal to the last bit
    cfg = sim.preset(name)
    rng = np.random.default_rng(E)
    x, u, ts = spread_rows(cfg, rng, E)
    assert len(set(ts)) == E
    got = sim.deriv_batch(cfg, x, u, ts)
    assert got.shape == (E, cfg.state_dim)
    assert got.tobytes() == deriv_oracle(cfg, x, u, ts).tobytes()


def test_derived_constants_follow_overrides():
    # constants derived once per config are derived from that config's
    # own fields: an override or a replace never reads a stale copy
    base = sim.preset("rscp-ti")
    rng = np.random.default_rng(23)
    x, u, ts = spread_rows(base, rng, 40)
    before = sim.deriv_batch(base, x, u, ts)
    cfgs = [
        sim.preset("rscp-ti", volumes=(0.8, 0.6, 1.3), dt=0.004),
        dataclasses.replace(base, recycle_flow=40.0, volatility=(3.0, 1.2, 0.4),
                            reaction_dh=(-1.0e5, -1.6e5), feed_temps=(310.0, 295.0)),
    ]
    for cfg in cfgs:
        got = sim.deriv_batch(cfg, x, u, ts)
        assert got.tobytes() == deriv_oracle(cfg, x, u, ts).tobytes()
        assert not np.array_equal(got, before)
    assert sim.deriv_batch(base, x, u, ts).tobytes() == before.tobytes()


@pytest.mark.parametrize("name", sim.PRESET_NAMES)
def test_step_euler_rows_equal_one_row_calls(name):
    # a row's step depends on that row alone, bit for bit, whatever the
    # number of rows; distinct times exercise the time-varying terms
    cfg = sim.preset(name)
    rng = np.random.default_rng(17)
    E = 7
    if cfg.system == "cartpole":
        x = rng.uniform([-2, -1, -0.2, -1], [2, 1, 0.2, 1], size=(E, 4))
    else:
        x = np.array(cfg.x_fixed) + rng.normal(0, [0.01, 0.01, 2.0] * 3, size=(E, 9))
    u = rng.uniform(cfg.control_low, cfg.control_high, size=(E, cfg.control_dim))
    ts = rng.uniform(0.0, 50.0 * cfg.dt, size=E)
    x1, t1 = sim.step_euler(cfg, x, u, ts)
    assert x1.shape == (E, cfg.state_dim) and len(set(ts)) == E
    for i in range(E):
        xi, ti = sim.step_euler(cfg, x[i : i + 1], u[i : i + 1], ts[i : i + 1])
        assert xi[0].tobytes() == x1[i].tobytes()
        assert ti[0] == t1[i]


def reasons(cfg, states):
    codes = sim.check_termination_batch(cfg, np.asarray(states, dtype=float))
    return [sim.TERM_REASONS[c] for c in codes]


def test_termination_rules():
    cp = sim.preset("cartpole-ti")
    states = [[0, 0, 0.35, 0], [10.5, 0, 0, 0], [0, 0, 0, 0], [np.nan, 0, 0, 0]]
    assert reasons(cp, states) == ["angle", "position", None, "nonfinite"]

    rs = sim.preset("rscp-ti")
    ok = np.array(rs.x_fixed)
    bad = ok.copy()
    bad[0] = 1.2
    hot = ok.copy()
    hot[2] = 710.0
    rows = [ok, bad, hot]
    assert reasons(rs, rows) == [None, "composition", "temperature"]


def test_termination_precedence():
    # a row that meets several conditions reads the one that ranks
    # first: nonfinite, then angle over position and composition over
    # temperature
    cp = sim.preset("cartpole-ti")
    both = [11.0, 0.0, -0.4, 0.0]
    nan = [np.nan, 0.0, 0.5, 0.0]
    assert reasons(cp, [both, nan]) == ["angle", "nonfinite"]

    rs = sim.preset("rscp-ti")
    bad = np.array(rs.x_fixed)
    bad[4], bad[8] = -0.1, 240.0
    nan = bad.copy()
    nan[2] = np.nan
    assert reasons(rs, [bad, nan]) == ["composition", "nonfinite"]


def test_preset_overrides_and_unknown():
    cfg = sim.preset("cartpole-ti", dt=0.01)
    assert cfg.dt == 0.01
    with pytest.raises(KeyError):
        sim.preset("pendulum")


def test_rscp_operating_point_pinned():
    # the Newton refinement of the operating point, to the last bit
    pinned = bytes.fromhex(
        "7da5cc6fca19cd3fc26df55d5e11e53fa5c3bfe4db2b7d40fbceb63917e0cf3f"
        "04f2d29f4670e43fa9a6afaaddba7c4086f7aa4ebf26b53f60e5f0451833e63f"
        "f9c91c3f49dc7c40"
    )
    duties = bytes.fromhex("0949201577e54541d92e286efb2a2e4141bfe79690de4741")
    for name in ("rscp-ti", "rscp-tv"):
        cfg = sim.preset(name)
        assert np.asarray(cfg.x_fixed).tobytes() == pinned
        assert np.asarray(cfg.q_nominal).tobytes() == duties


def test_rscp_operating_point_is_derived_not_set():
    # a config built directly has the preset's operating point and duty
    # box, and an override of the derived point is refused rather than
    # silently replaced
    cfg = sim.preset("rscp-ti")
    direct = sim.RscpConfig(variant="ti")
    for name in ("q_nominal", "x_fixed", "control_low", "control_high"):
        got, want = getattr(direct, name), getattr(cfg, name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    with pytest.raises(TypeError):
        sim.preset("rscp-ti", x_fixed=cfg.x_set)


def test_neutral_control_is_box_center():
    cp = sim.preset("cartpole-ti")
    assert np.allclose(sim.neutral_control(cp), [0.0])
    rs = sim.preset("rscp-ti")
    assert np.allclose(sim.neutral_control(rs), rs.q_nominal)
