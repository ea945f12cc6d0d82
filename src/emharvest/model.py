"""Closed-form steady-state model of a base-excited inertial generator.

The device is a proof mass m on a spring k inside a vibrating frame.  Losses
are split into a parasitic (mechanical) damping ratio and an electrical
damping ratio produced by the coil/magnet transduction.  All functions work
in SI units and take peak displacement amplitudes; RMS accelerations are
converted at the boundary (see :meth:`Excitation.from_acceleration`).

Damping ratios zeta are the canonical representation; viscous coefficients
c = 2*m*omega_n*zeta are derived views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "GeneratorParams",
    "CoilCircuit",
    "Excitation",
    "ResponsePoint",
    "DampingDecomposition",
    "LimitCheck",
    "natural_frequency",
    "displacement_response",
    "dissipated_power",
    "max_resonant_power",
    "load_power",
    "em_damping_coefficient",
    "total_damping",
    "damping_ratio_from_coefficient",
    "damping_coefficient_from_ratio",
    "optimal_load",
    "max_avg_load_power",
    "compose_q_factors",
    "base_amplitude_from_acceleration",
    "load_voltage_from_power",
    "check_displacement_limit",
    "evaluate_response",
]

_CONVENTIONS = ("peak", "rms")
_SQRT2 = math.sqrt(2.0)
_UNBOUNDED = "undamped response is unbounded at exact resonance"


def _check_magnitudes(
    positive: Iterable[tuple[str, float]] = (),
    nonnegative: Iterable[tuple[str, float]] = (),
) -> None:
    """The one range rule for physical magnitudes.

    Takes (name, value) pairs and raises ValueError naming the first value
    that is NaN or infinite, or <= 0 in ``positive``, or < 0 in
    ``nonnegative``.  Hot sites call it only when their own chained
    comparisons fail, so it still words every error.
    """
    inf = math.inf
    for name, x in positive:
        if not 0.0 < x < inf:
            raise ValueError(f"{name} must be > 0 and finite, got {x}")
    for name, x in nonnegative:
        if not 0.0 <= x < inf:
            raise ValueError(f"{name} must be >= 0 and finite, got {x}")


def _check_increasing(name: str, xs: Sequence[float]) -> None:
    """The one axis-order rule: a ValueError unless xs is strictly increasing."""
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError(f"{name} must be strictly increasing")


def _pow(x: float, n: int) -> float:
    """x**n, reading overflow as inf the way a product does.

    A float ** raises OverflowError where * and / give inf, so a closed-form
    result computed with both goes through one range check either way.
    """
    try:
        return x**n
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class GeneratorParams:
    """Lumped mechanical parameters of the spring-mass resonator.

    mass_kg              proof (seismic) mass
    stiffness_n_per_m    suspension spring constant
    zeta_parasitic       mechanical loss ratio (air damping, clamping, wiring)
    displacement_limit_m optional proof-mass travel limit; None means unlimited
    """

    mass_kg: float
    stiffness_n_per_m: float
    zeta_parasitic: float
    displacement_limit_m: float | None = None

    def __post_init__(self) -> None:
        positive = [("mass_kg", self.mass_kg), ("stiffness_n_per_m", self.stiffness_n_per_m)]
        if self.displacement_limit_m is not None:
            positive.append(("displacement_limit_m", self.displacement_limit_m))
        _check_magnitudes(positive)
        # k/m itself must stay in range, or w_n reads 0 or inf
        _check_magnitudes(
            (("stiffness_n_per_m / mass_kg", self.stiffness_n_per_m / self.mass_kg),)
        )
        if not 0.0 <= self.zeta_parasitic < 1.0:
            raise ValueError(
                f"zeta_parasitic must be in [0, 1), got {self.zeta_parasitic}"
            )


@dataclass(frozen=True, init=False)
class CoilCircuit:
    """Electromagnetic transduction parameters.

    turns          coil turn count
    side_length_m  effective side length of the (assumed square) coil
    flux_density_t magnetic flux density seen by the coil, tesla
    r_coil_ohm     coil series resistance
    l_coil_h       coil inductance, henry (0 for the purely resistive model)
    r_load_ohm     external load resistance; math.inf selects open circuit
    """

    turns: int
    side_length_m: float
    flux_density_t: float
    r_coil_ohm: float
    l_coil_h: float = 0.0
    r_load_ohm: float = 1.0

    def __init__(self, turns: int, side_length_m: float, flux_density_t: float,
                 r_coil_ohm: float, l_coil_h: float = 0.0, r_load_ohm: float = 1.0) -> None:
        if not isinstance(turns, int) or isinstance(turns, bool):  # True is an int too
            raise ValueError(f"turns must be an integer, got {turns!r}")
        inf = math.inf
        if not (0 <= turns < inf and 0.0 <= side_length_m < inf
                and 0.0 <= flux_density_t < inf and 0.0 <= r_coil_ohm < inf
                and 0.0 <= l_coil_h < inf):
            _check_magnitudes(nonnegative=(
                ("turns", turns), ("side_length_m", side_length_m),
                ("flux_density_t", flux_density_t), ("r_coil_ohm", r_coil_ohm),
                ("l_coil_h", l_coil_h),
            ))
        # only a lower bound: r_load_ohm = inf is the open circuit
        if not r_load_ohm > 0.0:
            raise ValueError(f"r_load_ohm must be > 0, got {r_load_ohm}")
        # frozen: fields go straight into the instance dict, not one object.__setattr__ each
        store = self.__dict__
        store["turns"] = turns
        store["side_length_m"] = side_length_m
        store["flux_density_t"] = flux_density_t
        store["r_coil_ohm"] = r_coil_ohm
        store["l_coil_h"] = l_coil_h
        store["r_load_ohm"] = r_load_ohm

    @property
    def coupling_v_s_per_m(self) -> float:
        """EMF per unit relative velocity: turns * side length * flux density."""
        return self.turns * self.side_length_m * self.flux_density_t


@dataclass(frozen=True)
class Excitation:
    """Sinusoidal base vibration y(t) = Y sin(w t), peak amplitude Y.

    The base acceleration amplitude w^2 * Y is always derived, never stored.
    """

    amplitude_m: float
    omega_rad_per_s: float

    def __post_init__(self) -> None:
        _check_magnitudes((("omega_rad_per_s", self.omega_rad_per_s),),
                          (("amplitude_m", self.amplitude_m),))

    @property
    def acceleration_m_s2(self) -> float:
        """Peak base acceleration amplitude, w^2 * Y."""
        accel = _pow(self.omega_rad_per_s, 2) * self.amplitude_m
        _check_magnitudes(nonnegative=(("acceleration_m_s2", accel),))
        return accel

    @classmethod
    def from_acceleration(
        cls, accel_m_s2: float, omega_rad_per_s: float, convention: str = "peak"
    ) -> "Excitation":
        """Build an excitation from a base acceleration.

        An RMS acceleration is converted to the peak amplitude the response
        equations use (multiplied by sqrt(2)); a peak acceleration is used
        directly.
        """
        if convention not in _CONVENTIONS:
            raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")
        if not (0.0 < omega_rad_per_s < math.inf and 0.0 <= accel_m_s2 < math.inf):
            _check_magnitudes((("omega_rad_per_s", omega_rad_per_s),),
                              (("accel_m_s2", accel_m_s2),))
        peak = accel_m_s2 * _SQRT2 if convention == "rms" else accel_m_s2
        try:
            amplitude = peak / omega_rad_per_s**2
        except ArithmeticError as err:  # w**2 overflows, or underflows to 0
            raise ValueError(f"omega_rad_per_s**2 out of range, got {omega_rad_per_s}") from err
        if not amplitude < math.inf:  # overflowed: __post_init__ words the error
            return cls(amplitude, omega_rad_per_s)
        # w and a finite A/w^2 >= 0 pass __post_init__'s checks: store without rerunning them
        exc = object.__new__(cls)
        exc.__dict__["amplitude_m"] = amplitude
        exc.__dict__["omega_rad_per_s"] = omega_rad_per_s
        return exc


@dataclass(frozen=True, init=False)
class ResponsePoint:
    """Steady-state outputs at one drive frequency and load.

    z_amplitude_m        peak relative displacement of the proof mass
    phase_rad            lag of the relative motion behind the base, [0, pi]
    p_dissipated_w       average power absorbed by all damping
    p_load_w             average power delivered to the external load
    p_total_electrical_w average power in load plus coil resistance
    v_load_rms_v         RMS voltage across the load
    emf_rms_v            RMS EMF induced in the coil
    """

    z_amplitude_m: float
    phase_rad: float
    p_dissipated_w: float
    p_load_w: float
    p_total_electrical_w: float
    v_load_rms_v: float
    emf_rms_v: float

    def __init__(self, z_amplitude_m: float, phase_rad: float, p_dissipated_w: float,
                 p_load_w: float, p_total_electrical_w: float, v_load_rms_v: float,
                 emf_rms_v: float) -> None:
        inf = math.inf
        if not (0.0 <= z_amplitude_m < inf and 0.0 <= p_dissipated_w < inf
                and 0.0 <= p_load_w < inf and 0.0 <= p_total_electrical_w < inf
                and 0.0 <= v_load_rms_v < inf and 0.0 <= emf_rms_v < inf):
            _check_magnitudes(nonnegative=(
                ("z_amplitude_m", z_amplitude_m), ("p_dissipated_w", p_dissipated_w),
                ("p_load_w", p_load_w), ("p_total_electrical_w", p_total_electrical_w),
                ("v_load_rms_v", v_load_rms_v), ("emf_rms_v", emf_rms_v),
            ))
        if not 0.0 <= phase_rad <= math.pi:
            raise ValueError(f"phase_rad must be in [0, pi], got {phase_rad}")
        # tiny slack for float round-off in the resistive split
        if p_load_w > p_total_electrical_w * (1.0 + 1e-12):
            raise ValueError(
                f"p_load_w ({p_load_w}) exceeds p_total_electrical_w "
                f"({p_total_electrical_w})"
            )
        store = self.__dict__  # frozen: stored as in CoilCircuit
        store["z_amplitude_m"] = z_amplitude_m
        store["phase_rad"] = phase_rad
        store["p_dissipated_w"] = p_dissipated_w
        store["p_load_w"] = p_load_w
        store["p_total_electrical_w"] = p_total_electrical_w
        store["v_load_rms_v"] = v_load_rms_v
        store["emf_rms_v"] = emf_rms_v


@dataclass(frozen=True)
class DampingDecomposition:
    """Loaded, open-circuit and electrical-only quality factors with the
    matching damping ratios (zeta = 1 / (2 Q) throughout)."""

    q_total: float
    q_open_circuit: float
    q_electrical: float
    zeta_p: float
    zeta_e: float
    zeta_t: float

    def __post_init__(self) -> None:
        _check_magnitudes((
            ("q_total", self.q_total), ("q_open_circuit", self.q_open_circuit),
            ("q_electrical", self.q_electrical),
        ))
        if self.q_electrical < self.q_total or self.q_open_circuit < self.q_total:
            raise ValueError("loaded Q cannot exceed either contributing Q")
        lhs = 1.0 / self.q_total
        rhs = 1.0 / self.q_open_circuit + 1.0 / self.q_electrical
        if abs(lhs - rhs) > 1e-9 * lhs:
            raise ValueError("1/q_total != 1/q_open_circuit + 1/q_electrical")
        for zeta, q in ((self.zeta_p, self.q_open_circuit),
                        (self.zeta_e, self.q_electrical),
                        (self.zeta_t, self.q_total)):
            if zeta != 1.0 / (2.0 * q):
                raise ValueError("zeta fields must equal 1/(2Q) exactly")


@dataclass(frozen=True)
class LimitCheck:
    """Outcome of a proof-mass travel check.

    margin_m is (limit - predicted amplitude); None when no limit is set.
    """

    passed: bool
    margin_m: float | None


def natural_frequency(g: GeneratorParams) -> float:
    """Undamped natural frequency sqrt(k / m), rad/s."""
    return math.sqrt(g.stiffness_n_per_m / g.mass_kg)


def displacement_response(
    g: GeneratorParams, zeta_total: float, e: Excitation
) -> tuple[float, float]:
    """Peak relative-displacement amplitude and phase lag at one frequency.

    amplitude = Y w^2 / sqrt((k/m - w^2)^2 + (c_T w / m)^2)  with
    c_T = 2 m w_n zeta_total.  The phase branch is fixed to [0, pi] so it
    runs continuously from 0 (w << w_n) through pi/2 at resonance to pi.

    Any zeta_total >= 0 is accepted, overdamped included; zeta_total = 0 is
    rejected only at exact resonance, where the amplitude is unbounded.
    """
    _check_magnitudes(nonnegative=(("zeta_total", zeta_total),))
    wn = natural_frequency(g)
    w = e.omega_rad_per_s
    stiff = wn * wn - w * w
    damp = 2.0 * zeta_total * wn * w
    den = math.hypot(stiff, damp)
    # zero only undamped at exact resonance, or when both terms underflow
    if den == 0.0:
        raise ValueError(_UNBOUNDED)
    return e.amplitude_m * w * w / den, math.atan2(damp, stiff)


def dissipated_power(g: GeneratorParams, zeta_total: float, e: Excitation) -> float:
    """Average power absorbed by the total damping at one frequency, watts.

    c_T (w z)^2 / 2 with c_T = 2 m w_n zeta_T and z the displacement_response
    amplitude; at resonance this reduces to the max_resonant_power value.
    """
    _check_magnitudes((("zeta_total", zeta_total),))
    v = e.omega_rad_per_s * displacement_response(g, zeta_total, e)[0]
    # c_T v^2 / 2 for peak velocity v; products, not **, so overflow reads inf
    return g.mass_kg * zeta_total * natural_frequency(g) * v * v


def _require_resonant(g: GeneratorParams, e: Excitation) -> float:
    wn = natural_frequency(g)
    if abs(e.omega_rad_per_s - wn) > 1e-9 * wn:
        raise ValueError(
            f"excitation frequency {e.omega_rad_per_s} rad/s must equal the "
            f"natural frequency {wn} rad/s"
        )
    return wn


def max_resonant_power(g: GeneratorParams, zeta_total: float, e: Excitation) -> float:
    """Total power absorbed when driven exactly at resonance, watts.

    m Y^2 w_n^3 / (4 zeta_T), exact for any zeta_T > 0, overdamped included.
    Linear in mass, cubic in frequency at fixed base amplitude.
    """
    _check_magnitudes((("zeta_total", zeta_total),))
    wn = _require_resonant(g, e)
    p = g.mass_kg * _pow(e.amplitude_m, 2) * _pow(wn, 3) / (4.0 * zeta_total)
    _check_magnitudes(nonnegative=(("max_resonant_power", p),))
    return p


def load_power(
    g: GeneratorParams, zeta_p: float, zeta_e: float, e: Excitation
) -> float:
    """Power absorbed by the electrical damping at resonance, watts.

    m zeta_e Y^2 w_n^3 / (4 (zeta_p + zeta_e)^2).  For a fixed zeta_p this
    is maximized at zeta_e = zeta_p.  Coil resistance keeps part of this
    power from the load; see max_avg_load_power for the delivered optimum.
    """
    _check_magnitudes(nonnegative=(("zeta_p", zeta_p), ("zeta_e", zeta_e)))
    if zeta_p + zeta_e <= 0.0:
        raise ValueError("zeta_p + zeta_e must be > 0")
    wn = _require_resonant(g, e)
    num = g.mass_kg * zeta_e * _pow(e.amplitude_m, 2) * _pow(wn, 3)
    den = 4.0 * _pow(zeta_p + zeta_e, 2)
    # den underflows to 0 below zeta ~1e-154: no float quotient, so out of range
    p = num / den if den > 0.0 else math.inf
    _check_magnitudes(nonnegative=(("load_power", p),))
    return p


def em_damping_coefficient(c: CoilCircuit, omega_rad_per_s: float) -> float:
    """Viscous damping produced by the coil circuit, N*s/m.

    (N l B)^2 divided by the magnitude of the series impedance
    R_load + R_coil + j w L_coil.  With zero inductance this is the plain
    resistive expression; an infinite load resistance gives 0 (open circuit).
    """
    z_mag = math.hypot(c.r_load_ohm + c.r_coil_ohm, omega_rad_per_s * c.l_coil_h)  # > 0: R_load > 0
    coupling = c.coupling_v_s_per_m
    return coupling * coupling / z_mag


def _damping_terms(
    g: GeneratorParams, c: CoilCircuit, omega_rad_per_s: float
) -> tuple[float, float, float, float, float, float]:
    """w_n, coupling N l B, |R_load + R_coil + j w L_coil|, c_p, c_e and zeta_T at one
    drive frequency: evaluate_response and simulate read them all, total_damping the last three."""
    # natural_frequency and em_damping_coefficient written out: this runs per point
    wn = math.sqrt(g.stiffness_n_per_m / g.mass_kg)
    c_crit = 2.0 * g.mass_kg * wn
    c_p = c_crit * g.zeta_parasitic
    z_mag = math.hypot(c.r_load_ohm + c.r_coil_ohm, omega_rad_per_s * c.l_coil_h)
    coupling = c.turns * c.side_length_m * c.flux_density_t
    c_e = coupling * coupling / z_mag
    return wn, coupling, z_mag, c_p, c_e, (c_p + c_e) / c_crit


def total_damping(
    g: GeneratorParams, c: CoilCircuit, omega_rad_per_s: float
) -> tuple[float, float, float]:
    """Parasitic and electrical viscous coefficients c_p, c_e (N*s/m) and the
    total damping ratio (c_p + c_e) / (2 m w_n) at one drive frequency."""
    return _damping_terms(g, c, omega_rad_per_s)[3:]


def damping_ratio_from_coefficient(c_damp: float, g: GeneratorParams) -> float:
    """Convert a viscous coefficient (N*s/m) to a dimensionless ratio."""
    return c_damp / (2.0 * g.mass_kg * natural_frequency(g))


def damping_coefficient_from_ratio(zeta: float, g: GeneratorParams) -> float:
    """Convert a dimensionless damping ratio to a viscous coefficient."""
    return 2.0 * g.mass_kg * natural_frequency(g) * zeta


def optimal_load(c: CoilCircuit, c_parasitic: float) -> float:
    """Load resistance maximizing delivered power, ohms.

    R_coil + (N l B)^2 / c_parasitic, where c_parasitic is the parasitic
    viscous coefficient in N*s/m.  A subnormal c_parasitic can take the
    quotient past the float range, which raises ValueError.
    """
    _check_magnitudes((("c_parasitic", c_parasitic),))
    coupling = c.coupling_v_s_per_m
    r_opt = c.r_coil_ohm + coupling * coupling / c_parasitic
    _check_magnitudes(nonnegative=(("optimal load resistance", r_opt),))
    return r_opt


def max_avg_load_power(
    g: GeneratorParams,
    zeta_p: float,
    e: Excitation,
    r_coil_ohm: float,
    r_load_ohm: float,
) -> float:
    """Best-case average power delivered to the load at resonance, watts.

    (m w_n^3 Y^2 / (16 zeta_p)) * (1 - R_coil / R_load), valid at the
    optimal load resistance.  A lossless coil (R_coil = 0) leaves the full
    m w_n^3 Y^2 / (16 zeta_p).  The optimal load is never below R_coil, so
    R_load < R_coil, where the formula would go negative, is rejected.
    """
    _check_magnitudes(
        (("zeta_p", zeta_p), ("r_load_ohm", r_load_ohm)),
        (("r_coil_ohm", r_coil_ohm), ("r_load_ohm - r_coil_ohm", r_load_ohm - r_coil_ohm)),
    )
    wn = _require_resonant(g, e)
    p = (
        g.mass_kg * _pow(wn, 3) * _pow(e.amplitude_m, 2) / (16.0 * zeta_p)
        * (1.0 - r_coil_ohm / r_load_ohm)
    )
    _check_magnitudes(nonnegative=(("max_avg_load_power", p),))
    return p


def compose_q_factors(
    q_total: float | None = None,
    q_open_circuit: float | None = None,
    q_electrical: float | None = None,
) -> DampingDecomposition:
    """Complete a quality-factor decomposition from exactly two known values.

    The loaded, open-circuit and electrical-only factors are tied together
    by 1/Q_T = 1/Q_OC + 1/Q_E; the missing one is solved for and every
    damping ratio is filled in as 1/(2Q).  Infinite sentinels are rejected,
    as are pairs that would imply a negative third factor.
    """
    given = {
        "q_total": q_total,
        "q_open_circuit": q_open_circuit,
        "q_electrical": q_electrical,
    }
    provided = {k: v for k, v in given.items() if v is not None}
    if len(provided) != 2:
        raise ValueError(
            f"exactly two of (q_total, q_open_circuit, q_electrical) must be "
            f"given, got {sorted(provided)}"
        )
    _check_magnitudes(provided.items())

    if q_total is None:
        q_total = 1.0 / (1.0 / q_open_circuit + 1.0 / q_electrical)
    elif q_electrical is None:
        if q_total >= q_open_circuit:
            raise ValueError(
                f"q_total ({q_total}) must be below q_open_circuit "
                f"({q_open_circuit}) to leave room for electrical damping"
            )
        q_electrical = 1.0 / (1.0 / q_total - 1.0 / q_open_circuit)
    else:
        if q_total >= q_electrical:
            raise ValueError(
                f"q_total ({q_total}) must be below q_electrical ({q_electrical})"
            )
        q_open_circuit = 1.0 / (1.0 / q_total - 1.0 / q_electrical)

    return DampingDecomposition(
        q_total=q_total,
        q_open_circuit=q_open_circuit,
        q_electrical=q_electrical,
        zeta_p=1.0 / (2.0 * q_open_circuit),
        zeta_e=1.0 / (2.0 * q_electrical),
        zeta_t=1.0 / (2.0 * q_total),
    )


def base_amplitude_from_acceleration(accel_m_s2: float, omega_rad_per_s: float) -> float:
    """Base displacement amplitude A / w^2 for an acceleration amplitude A.

    The conversion is linear, so the amplitude keeps the convention of the
    input (peak in, peak out; RMS in, RMS out).
    """
    return Excitation.from_acceleration(accel_m_s2, omega_rad_per_s).amplitude_m


def load_voltage_from_power(p_load_w: float, r_load_ohm: float) -> float:
    """RMS load voltage sqrt(P * R_load) for an average load power P."""
    _check_magnitudes((("r_load_ohm", r_load_ohm),), (("p_load_w", p_load_w),))
    return math.sqrt(p_load_w * r_load_ohm)


def check_displacement_limit(g: GeneratorParams, predicted_z_m: float) -> LimitCheck:
    """Check a predicted proof-mass amplitude against the travel limit."""
    _check_magnitudes(nonnegative=(("predicted_z_m", predicted_z_m),))
    if g.displacement_limit_m is None:
        return LimitCheck(passed=True, margin_m=None)
    margin = g.displacement_limit_m - predicted_z_m
    return LimitCheck(passed=predicted_z_m <= g.displacement_limit_m, margin_m=margin)


def evaluate_response(
    g: GeneratorParams, c: CoilCircuit, e: Excitation
) -> ResponsePoint:
    """Evaluate the full steady-state response at one frequency and load.

    The electrical damping coefficient is folded into the total damping for
    the motion; the extracted electrical power is then split between load
    and coil through the series circuit.  With nonzero coil inductance the
    damping magnitude approximation makes the resistively dissipated power
    differ slightly from the mechanically extracted power; they coincide
    for l_coil_h = 0.
    """
    # displacement_response and dissipated_power written out, operand for operand
    w = e.omega_rad_per_s
    wn, coupling, z_mag, _, _, zeta_t = _damping_terms(g, c, w)
    stiff = wn * wn - w * w
    damp = 2.0 * zeta_t * wn * w
    den = math.hypot(stiff, damp)
    if den == 0.0:
        raise ValueError(_UNBOUNDED)
    amp = e.amplitude_m * w * w / den
    v = w * amp
    p_diss = g.mass_kg * zeta_t * wn * v * v
    # series circuit: EMF drives R_load + R_coil (+ j w L_coil)
    emf_rms = coupling * amp * w / _SQRT2
    r_load = c.r_load_ohm
    if r_load == math.inf:
        p_load = 0.0
        p_total_e = 0.0
        v_load = emf_rms  # no current, full EMF appears across the load
    else:
        i_rms = emf_rms / z_mag
        p_load = i_rms * i_rms * r_load
        p_total_e = i_rms * i_rms * (r_load + c.r_coil_ohm)
        v_load = i_rms * r_load
    return ResponsePoint(amp, math.atan2(damp, stiff), p_diss, p_load, p_total_e, v_load, emf_rms)
