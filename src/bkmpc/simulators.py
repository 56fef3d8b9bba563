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
gives the fixed point used to center initial-state sampling. Both are
derived from the config at first use (``RscpConfig.q_nominal`` and
``x_fixed``); neither is a field that can be set.

Every function here works on rows: ``states`` is (E, n), ``controls``
(E, m) and ``ts`` (E,), one entry per independent item, so E = 1 is a
single trajectory and E > 1 steps lanes in lockstep. Each row's result
depends on that row alone.

Termination (``check_termination_batch``) is a test of the state alone.
How many steps an episode runs is its caller's to decide: the data
generator cuts each episode at its split's horizon or earlier, and the
closed loop at its episode length.

The balances are evaluated in grouped calls: one numpy operation covers
every term of one form (the four Arrhenius rates, the six two-inflow
balances of the reactors, both vessels' reaction terms), and a config's
derived constants are computed once per config. Grouping changes only
the number of calls: each element gets the same floating-point
operations in the same order as the balance written term by term (a
subtracted term may be added negated, which rounds identically), so the
results are bit for bit those of one operation per term.
"""

import dataclasses
from dataclasses import dataclass
from functools import cache, cached_property
from types import SimpleNamespace

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

    @cached_property
    def q_nominal(self):
        """The operating point's heat duties (``rscp_nominal_duties``)."""
        return tuple(rscp_nominal_duties(self))

    @cached_property
    def x_fixed(self):
        """The steady state at the nominal duties (``rscp_fixed_point``)."""
        return tuple(rscp_fixed_point(self, self.q_nominal))

    @cached_property
    def _balance(self):
        """Constants of the nine balances, derived once per config."""
        V1, V2, V3 = self.volumes
        F10, F20 = self.feed_flows
        Fr, Fp = self.recycle_flow, self.purge_flow
        F1 = F10 + Fr
        F2 = F1 + F20
        rho_cp = self.rho * self.cp
        beta1, beta2 = (-dh * self.c_molar / rho_cp for dh in self.reaction_dh)
        (xa10, xa20), (T10, T20) = self.feed_xa, self.feed_temps

        def col(rows):  # constants along the first axes, items along the last
            return np.array(rows)[..., None]

        return SimpleNamespace(
            # vessels 1-2, rows (xA, xB, T) of each: P (A - X) + Q (B - X),
            # A and B taken from inflow_const where they are constant
            inflow_gain=col([[F10 / V1] * 3 + [F1 / V2] * 3,
                             [Fr / V1] * 3 + [F20 / V2] * 3]),
            inflow_const=col([[xa10, 0.0, T10, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0, xa20, 0.0, T20]]),
            # reaction j's factor in rows (xA, xB, T) of its vessel: A -> B
            # takes A and gives B, B -> C takes B (its xA entry is unused)
            react_gain=col([[-1.0, 1.0, beta1], [0.0, -1.0, beta2]]),
            rate=col(self.rate_consts),
            neg_act=col([-e for e in self.activation]),
            heat_cap=col([rho_cp * V1, rho_cp * V2, rho_cp * V3]),
            sep_in=F2 / V3,
            sep_out=(Fr + Fp) / V3,
            vap=(Fr + Fp) * self.c_molar / (rho_cp * V3),
            vap_dh=col(self.vap_dh),
            volatility=col(self.volatility),
        )


def neutral_control(cfg):
    """Center of the control box (zero force / nominal duties)."""
    return 0.5 * (cfg.control_low + cfg.control_high)


def clip_control(cfg, u):
    return np.clip(np.asarray(u, dtype=float), cfg.control_low, cfg.control_high)


# ---------------------------------------------------------------------------
# CartPole


def cartpole_deriv_batch(cfg, states, forces, ts):
    """(xdot, xddot, thetadot, thetaddot) per row; theta measured from
    upright. The two angular-acceleration passes share their invariants:
    g sin(theta), the applied and centrifugal force, the pivot friction
    and the denominator."""
    states = np.asarray(states, dtype=float)
    xd = states[:, 1]
    th = states[:, 2]
    thd = states[:, 3]
    force = np.asarray(forces, dtype=float).reshape(-1)
    mc, mp = cfg.cart_mass, cfg.pole_mass
    length, g = cfg.half_length, cfg.gravity
    total = mc + mp
    mpl = mp * length
    mu_c = cfg.mu_cart + (
        np.sin(cfg.tv_omega * np.asarray(ts, dtype=float))
        if cfg.variant == "tv"
        else 0.0
    )
    sth, cth = np.sin(th), np.cos(th)
    sgn = np.sign(xd)
    thd2 = thd**2
    g_sth = g * sth
    push = -force - mpl * thd2 * sth
    pivot = cfg.mu_pole * thd / mpl
    den = length * (4.0 / 3.0 - mp * cth**2 / total)

    thdd = (g_sth + cth * (push + mu_c * (total * g) * sgn) / total - pivot) / den
    # second pass with the normal force implied by the first solve
    friction = mu_c * (total * g - mpl * (thdd * sth + thd2 * cth)) * sgn
    d = np.empty_like(states)
    d[:, 0::2] = states[:, 1::2]
    thdd = np.divide(g_sth + cth * (push + friction) / total - pivot, den, out=d[:, 3])
    np.divide(force - friction + mpl * (thd2 * sth - thdd * cth), total, out=d[:, 1])
    return d


# ---------------------------------------------------------------------------
# RSCP


def _recycle_composition_batch(cfg, xa3, xb3):
    """Vapor-liquid equilibrium split of the separator overhead: the rows
    of the (3, E) result are the recycle fractions of A, B and C."""
    num = np.empty((3, len(xa3)))
    num[0], num[1] = xa3, xb3
    np.subtract(1.0 - xa3, xb3, out=num[2])
    num *= cfg._balance.volatility
    denom = num[0] + num[1] + num[2]
    if (denom <= 0.0).any():
        raise InvalidStateError(
            "degenerate separator composition: equilibrium denominator "
            f"{np.min(denom)}"
        )
    return num / denom


def rscp_deriv_batch(cfg, states, duties, ts):
    """Nine-component balance per row, units per hour."""
    c = cfg._balance
    s = np.asarray(states, dtype=float)
    E = s.shape[0]
    S = s.T  # one row per state, the items along the last axis
    heat = np.asarray(duties, dtype=float).reshape(E, 3).T / c.heat_cap
    rec = _recycle_composition_batch(cfg, S[6], S[7])
    rate = c.rate
    if cfg.variant == "tv":
        rate = rate * np.exp(-cfg.decay_rate * np.asarray(ts, dtype=float))
    # r[i, j]: rate of reaction j in vessel i, acting on x[i, j] (xA, xB)
    r = rate * np.exp(c.neg_act / (cfg.gas_const * S[2:6:3])[:, None])
    x = S[:6].reshape(2, 3, E)[:, :2]
    # t[i, j, k]: reaction j's term (beta r) x in row k of vessel i. A
    # term the balance subtracts is added negated, (-r) x, which IEEE 754
    # rounds exactly as the subtraction
    t = c.react_gain * r[:, :, None] * x[:, :, None]

    d = np.empty_like(s)
    D = d.T
    # CSTR-1: fresh feed plus recycle; CSTR-2: effluent of CSTR-1 plus
    # fresh feed. inflow[0] is each balance's A, inflow[1] its B
    inflow = c.inflow_const.repeat(E, 2)
    inflow[0, 3:] = S[:3]
    inflow[1, :2] = rec[:2]
    inflow[1, 2] = S[8]
    terms = c.inflow_gain * (inflow - S[:6])
    np.add(terms[0], terms[1], out=D[:6])
    v = D[:6].reshape(2, 3, E)
    v += t[:, 0]
    v[:, 1:] += t[:, 1, 1:]
    v[:, 2] += heat[:2]
    # flash separator: no reaction, vaporization enthalpy transport
    np.multiply(c.sep_in, S[3:6] - S[6:], out=D[6:])
    D[6:8] -= c.sep_out * (rec[:2] - S[6:8])
    D[8] += heat[2]
    h = rec * c.vap_dh
    D[8] += c.vap * (h[0] + h[1] + h[2])
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
TERM_REASONS = (None, "nonfinite", "angle", "position", "composition",
                "temperature")


def check_termination_batch(cfg, states):
    """Integer reason code per row (0 = continue), indexing ``TERM_REASONS``;
    a row that meets several conditions reads the first of them there."""
    states = np.asarray(states, dtype=float)
    codes = np.zeros(states.shape[0], dtype=int)
    if cfg.system == "cartpole":
        codes[np.abs(states[:, 0]) > cfg.position_limit] = 3
        codes[np.abs(states[:, 2]) > cfg.angle_limit] = 2
    else:
        temps = states[:, 2::3]
        lo, hi = cfg.temp_bounds
        codes[((temps < lo) | (temps > hi)).any(1)] = 5
        fracs = states.reshape(-1, 3, 3)[:, :, :2]
        codes[((fracs < 0.0) | (fracs > 1.0)).any((1, 2))] = 4
    codes[~np.isfinite(states).all(1)] = 1
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


@cache
def preset(name, **overrides):
    """Named benchmark configuration; keyword overrides replace fields.
    A call repeated with the same arguments returns the same object; an
    override value must be hashable (a config's array fields are tuples)."""
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset '{name}' (choose from {PRESET_NAMES})")
    if name == "cartpole-ti":
        cfg = CartPoleConfig(variant="ti")
    elif name == "cartpole-tv":
        cfg = CartPoleConfig(variant="tv", mu_cart=5e-4, mu_pole=2e-6)
    else:
        cfg = RscpConfig(variant="ti" if name.endswith("ti") else "tv")
    return dataclasses.replace(cfg, **overrides)
