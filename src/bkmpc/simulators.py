"""Ground-truth benchmark dynamics.

Two systems, each in a time-invariant (TI) and a time-varying (TV)
variant, stepped by forward Euler at the system sampling period with no
sub-stepping:

* **CartPole** -- cart of mass ``m_c`` with a uniform pole (half-length
  ``l``) pivoted on it, driven by a horizontal force. The equations of
  motion carry cart Coulomb friction ``mu_c * sgn(xdot) * N`` against the
  track normal force ``N`` and a pivot friction torque ``mu_p *
  thetadot``; they are solved in the standard two-pass form (solve the
  angular acceleration with the static normal force, update ``N``, solve
  once more). The TI preset is the frictionless limit. The TV preset
  modulates the cart friction coefficient as ``mu_c(t) = mu_c_base +
  sin(omega * t)`` with time in seconds from episode start.

* **RSCP** -- a reactor-separator chemical process: two CSTRs in series
  feeding a flash separator whose overhead is partially recycled to the
  first reactor. Nine states (mass fractions of species A and B plus
  temperature, per vessel), three controls (additive heat duties in
  kJ/h). Two first-order reactions A -> B -> C with Arrhenius kinetics;
  the heat-of-reaction terms carry the molar concentration factor
  ``beta_j = (-dH_j) * c_molar / (rho * c_p)`` and the separator energy
  balance includes convective transport of the vaporization enthalpies.
  Recycle compositions come from ideal vapor-liquid equilibrium with
  fixed relative volatilities. Time is in hours. The TV preset multiplies
  both Arrhenius rate terms in all three vessels by ``exp(-0.01 t)``
  (catalyst-deactivation style decay).

Nominal heat duties solve the temperature balances exactly at the
published operating point, and a Newton refinement of the full balance
gives the fixed point used to center initial-state sampling.

Every function here works on rows: ``states`` is (E, n), ``controls``
(E, m) and ``ts`` or ``step_indices`` (E,), one entry per independent
item, so E = 1 is a single trajectory and E > 1 steps lanes in lockstep.
Each row's result depends on that row alone.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

ANGLE_LIMIT_RAD = 20.0 * np.pi / 180.0

#: published RSCP operating point (x_A, x_B, T per vessel, separator last)
RSCP_X_SET = np.array(
    [0.18, 0.67, 480.32, 0.20, 0.65, 472.79, 0.07, 0.67, 474.89]
)


class InvalidStateError(ValueError):
    """State left the domain on which the dynamics are defined."""


@dataclass(frozen=True)
class CartPoleConfig:
    variant: str  # "ti" | "tv"
    gravity: float = 10.0
    cart_mass: float = 1.0
    pole_mass: float = 0.1
    half_length: float = 0.5
    dt: float = 0.02  # seconds
    force_max: float = 20.0
    mu_cart: float = 0.0
    mu_pole: float = 0.0
    tv_omega: float = 1.0
    position_limit: float = 10.0
    angle_limit: float = ANGLE_LIMIT_RAD
    train_horizon: int = 20_040
    test_horizon: int = 1_000

    system = "cartpole"
    state_dim = 4
    control_dim = 1
    state_names = ("x", "xdot", "theta", "thetadot")

    @property
    def control_low(self):
        return np.array([-self.force_max])

    @property
    def control_high(self):
        return np.array([self.force_max])


@dataclass(frozen=True)
class RscpConfig:
    variant: str  # "ti" | "tv"
    dt: float = 0.005  # hours (18 s)
    volumes: tuple = (1.0, 0.5, 1.0)
    feed_flows: tuple = (5.04, 5.04)  # F10, F20 [m^3/h]
    recycle_flow: float = 50.4  # Fr
    purge_flow: float = 5.04  # Fp
    feed_temps: tuple = (300.0, 300.0)
    feed_xa: tuple = (1.0, 1.0)
    rate_consts: tuple = (9.972e6, 9.36e6)  # [1/h]
    activation: tuple = (5.0e4, 6.0e4)  # [kJ/kmol]
    reaction_dh: tuple = (-1.2e5, -1.4e5)  # [kJ/kmol]
    rho: float = 1000.0  # [kg/m^3]
    cp: float = 4.2  # [kJ/(kg K)]
    c_molar: float = 2.0  # [kmol/m^3]
    vap_dh: tuple = (-3.53e4, -1.57e4, -4.07e4)  # [kJ/kmol]
    volatility: tuple = (3.5, 1.0, 0.5)
    gas_const: float = 8.314  # [kJ/(kmol K)]
    duty_halfwidth: float = 1.0e6  # [kJ/h]
    temp_bounds: tuple = (250.0, 700.0)
    decay_rate: float = 0.01  # TV kinetics decay [1/h]
    train_horizon: int = 20_040
    test_horizon: int = 1_000
    x_set: tuple = tuple(RSCP_X_SET)
    # filled in by the preset factory
    q_nominal: tuple = (0.0, 0.0, 0.0)
    x_fixed: tuple = tuple(RSCP_X_SET)

    system = "rscp"
    state_dim = 9
    control_dim = 3
    state_names = (
        "xA1", "xB1", "T1", "xA2", "xB2", "T2", "xA3", "xB3", "T3",
    )

    @property
    def control_low(self):
        return np.asarray(self.q_nominal) - self.duty_halfwidth

    @property
    def control_high(self):
        return np.asarray(self.q_nominal) + self.duty_halfwidth


def neutral_control(cfg):
    """Center of the control box (zero force / nominal duties)."""
    return 0.5 * (cfg.control_low + cfg.control_high)


def clip_control(cfg, u):
    return np.clip(np.asarray(u, dtype=float), cfg.control_low, cfg.control_high)


# ---------------------------------------------------------------------------
# CartPole


def cartpole_deriv_batch(cfg, states, forces, ts):
    """(xdot, xddot, thetadot, thetaddot) per row; theta measured from
    upright."""
    states = np.asarray(states, dtype=float)
    xd = states[:, 1]
    th = states[:, 2]
    thd = states[:, 3]
    force = np.asarray(forces, dtype=float).reshape(-1)
    mc, mp = cfg.cart_mass, cfg.pole_mass
    length, g = cfg.half_length, cfg.gravity
    total = mc + mp
    mu_c = cfg.mu_cart + (
        np.sin(cfg.tv_omega * np.asarray(ts, dtype=float))
        if cfg.variant == "tv"
        else 0.0
    )
    mu_p = cfg.mu_pole
    sth, cth = np.sin(th), np.cos(th)
    sgn = np.sign(xd)

    def angular_acc(normal):
        num = (
            g * sth
            + cth * (-force - mp * length * thd**2 * sth + mu_c * normal * sgn) / total
            - mu_p * thd / (mp * length)
        )
        den = length * (4.0 / 3.0 - mp * cth**2 / total)
        return num / den

    normal = total * g
    thdd = angular_acc(normal)
    # second pass with the normal force implied by the first solve
    normal = total * g - mp * length * (thdd * sth + thd**2 * cth)
    thdd = angular_acc(normal)
    xdd = (
        force - mu_c * normal * sgn + mp * length * (thd**2 * sth - thdd * cth)
    ) / total
    return np.stack([xd, xdd, thd, thdd], axis=1)


# ---------------------------------------------------------------------------
# RSCP


def _recycle_composition_batch(cfg, xa3, xb3):
    """Vapor-liquid equilibrium split of the separator overhead."""
    aA, aB, aC = cfg.volatility
    xc3 = 1.0 - xa3 - xb3
    denom = aA * xa3 + aB * xb3 + aC * xc3
    if np.any(denom <= 0.0):
        raise InvalidStateError(
            "degenerate separator composition: equilibrium denominator "
            f"{np.min(denom)}"
        )
    return aA * xa3 / denom, aB * xb3 / denom, aC * xc3 / denom


def rscp_deriv_batch(cfg, states, duties, ts):
    """Nine-component balance per row, units per hour."""
    s = np.asarray(states, dtype=float)
    q = np.asarray(duties, dtype=float).reshape(s.shape[0], 3)
    xa1, xb1, T1 = s[:, 0], s[:, 1], s[:, 2]
    xa2, xb2, T2 = s[:, 3], s[:, 4], s[:, 5]
    xa3, xb3, T3 = s[:, 6], s[:, 7], s[:, 8]
    V1, V2, V3 = cfg.volumes
    F10, F20 = cfg.feed_flows
    Fr, Fp = cfg.recycle_flow, cfg.purge_flow
    F1 = F10 + Fr
    F2 = F1 + F20
    T10, T20 = cfg.feed_temps
    xa10, xa20 = cfg.feed_xa
    k1, k2 = cfg.rate_consts
    E1, E2 = cfg.activation
    R = cfg.gas_const
    rho_cp = cfg.rho * cfg.cp
    beta1 = -cfg.reaction_dh[0] * cfg.c_molar / rho_cp
    beta2 = -cfg.reaction_dh[1] * cfg.c_molar / rho_cp

    if cfg.variant == "tv":
        decay = np.exp(-cfg.decay_rate * np.asarray(ts, dtype=float))
    else:
        decay = 1.0

    xar, xbr, xcr = _recycle_composition_batch(cfg, xa3, xb3)
    r11 = decay * k1 * np.exp(-E1 / (R * T1))
    r21 = decay * k2 * np.exp(-E2 / (R * T1))
    r12 = decay * k1 * np.exp(-E1 / (R * T2))
    r22 = decay * k2 * np.exp(-E2 / (R * T2))

    d = np.empty_like(s)
    # CSTR-1: fresh feed plus recycle
    d[:, 0] = F10 / V1 * (xa10 - xa1) + Fr / V1 * (xar - xa1) - r11 * xa1
    d[:, 1] = F10 / V1 * (0.0 - xb1) + Fr / V1 * (xbr - xb1) + r11 * xa1 - r21 * xb1
    d[:, 2] = (
        F10 / V1 * (T10 - T1)
        + Fr / V1 * (T3 - T1)
        + beta1 * r11 * xa1
        + beta2 * r21 * xb1
        + q[:, 0] / (rho_cp * V1)
    )
    # CSTR-2: effluent of CSTR-1 plus fresh feed
    d[:, 3] = F1 / V2 * (xa1 - xa2) + F20 / V2 * (xa20 - xa2) - r12 * xa2
    d[:, 4] = F1 / V2 * (xb1 - xb2) + F20 / V2 * (0.0 - xb2) + r12 * xa2 - r22 * xb2
    d[:, 5] = (
        F1 / V2 * (T1 - T2)
        + F20 / V2 * (T20 - T2)
        + beta1 * r12 * xa2
        + beta2 * r22 * xb2
        + q[:, 1] / (rho_cp * V2)
    )
    # flash separator: no reaction, vaporization enthalpy transport
    d[:, 6] = F2 / V3 * (xa2 - xa3) - (Fr + Fp) / V3 * (xar - xa3)
    d[:, 7] = F2 / V3 * (xb2 - xb3) - (Fr + Fp) / V3 * (xbr - xb3)
    hvapA, hvapB, hvapC = cfg.vap_dh
    d[:, 8] = (
        F2 / V3 * (T2 - T3)
        + q[:, 2] / (rho_cp * V3)
        + (Fr + Fp)
        * cfg.c_molar
        / (rho_cp * V3)
        * (xar * hvapA + xbr * hvapB + xcr * hvapC)
    )
    return d


def deriv_batch(cfg, states, controls, ts):
    if cfg.system == "cartpole":
        return cartpole_deriv_batch(cfg, states, controls, ts)
    return rscp_deriv_batch(cfg, states, controls, ts)


def step_euler(cfg, states, controls, ts):
    """One forward-Euler step of every row at the sampling period;
    returns (states', ts')."""
    states = np.asarray(states, dtype=float)
    return states + cfg.dt * deriv_batch(cfg, states, controls, ts), ts + cfg.dt


#: termination reason of each code of ``check_termination_batch``
TERM_REASONS = (None, "horizon", "nonfinite", "angle", "position",
                "composition", "temperature")


def check_termination_batch(cfg, states, step_indices, mode="train", horizon=None):
    """Integer reason code per row (0 = continue), indexing ``TERM_REASONS``;
    ``horizon``, a scalar or one per row, replaces the mode's horizon."""
    states = np.asarray(states, dtype=float)
    steps = np.asarray(step_indices)
    if horizon is None:
        horizon = cfg.train_horizon if mode == "train" else cfg.test_horizon
    codes = np.zeros(states.shape[0], dtype=int)
    if cfg.system == "cartpole":
        codes[np.abs(states[:, 0]) > cfg.position_limit] = 4
        codes[np.abs(states[:, 2]) > cfg.angle_limit] = 3
    else:
        fr = states.reshape(-1, 3, 3)
        temps = fr[:, :, 2]
        codes[
            np.any(temps < cfg.temp_bounds[0], axis=1)
            | np.any(temps > cfg.temp_bounds[1], axis=1)
        ] = 6
        fracs = fr[:, :, :2]
        codes[np.any((fracs < 0.0) | (fracs > 1.0), axis=(1, 2))] = 5
    codes[~np.all(np.isfinite(states), axis=1)] = 2
    codes[steps >= horizon] = 1
    return codes


# ---------------------------------------------------------------------------
# RSCP operating point


def rscp_nominal_duties(cfg):
    """Heat duties that zero the three temperature balances at the
    published operating point."""
    base = rscp_deriv_batch(cfg, np.asarray(cfg.x_set)[None], np.zeros((1, 3)), [0.0])[0]
    rho_cp = cfg.rho * cfg.cp
    vols = np.asarray(cfg.volumes)
    return -base[[2, 5, 8]] * rho_cp * vols


def rscp_fixed_point(cfg, duties):
    """Newton refinement of the full nine-component balance at fixed
    duties, from the published operating point. Each iteration evaluates
    the point and its nine central-difference pairs in one 19-row call."""
    x = np.array(cfg.x_set, dtype=float)
    rows = np.arange(9)
    q = np.broadcast_to(np.asarray(duties, dtype=float), (19, 3))
    for _ in range(60):
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        pts = np.tile(x, (19, 1))
        pts[1 + rows, rows] += h
        pts[10 + rows, rows] -= h
        d = rscp_deriv_batch(cfg, pts, q, np.zeros(19))
        f = d[0]
        if np.max(np.abs(f)) < 1e-9:
            return x
        J = (d[1:10] - d[10:]).T / (2 * h)
        x = x - np.linalg.solve(J, f)
    raise RuntimeError("fixed-point refinement did not converge")


# ---------------------------------------------------------------------------
# presets

PRESET_NAMES = ("cartpole-ti", "cartpole-tv", "rscp-ti", "rscp-tv")

_CACHE = {}


def preset(name, **overrides):
    """Named benchmark configuration; keyword overrides replace fields."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset '{name}' (choose from {PRESET_NAMES})")
    key = (name, tuple(sorted(overrides.items())))
    try:
        return _CACHE[key]
    except (KeyError, TypeError):
        pass

    if name == "cartpole-ti":
        cfg = CartPoleConfig(variant="ti")
    elif name == "cartpole-tv":
        cfg = CartPoleConfig(variant="tv", mu_cart=5e-4, mu_pole=2e-6)
    else:
        cfg = RscpConfig(variant="ti" if name.endswith("ti") else "tv")
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    if cfg.system == "rscp":
        duties = rscp_nominal_duties(cfg)
        fixed = rscp_fixed_point(cfg, duties)
        cfg = dataclasses.replace(
            cfg, q_nominal=tuple(duties), x_fixed=tuple(fixed)
        )
    try:
        _CACHE[key] = cfg
    except TypeError:
        pass
    return cfg
