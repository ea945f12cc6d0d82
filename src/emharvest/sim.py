"""Time-domain integration of the harvester's equation of motion.

The relative coordinate z (mass motion minus base motion) obeys

    m z'' + (c_p + c_e) z' + k z = m Y w^2 sin(w t)

for a base displacement Y sin(w t).  The integrator is the classical
fourth-order Runge-Kutta scheme with a fixed step, started from rest, so
traces are exactly reproducible.  Steady-state numbers are taken from the
tail of the trace after the start-up transient has died away.

Both routes take their damping from :func:`emharvest.model.total_damping`;
only the response itself is computed independently, numerically, so the two
routes can be used to check each other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.integrate import simpson

from .analysis import _parabola_vertex
from .model import (
    CoilCircuit,
    Excitation,
    GeneratorParams,
    _check_increasing,
    _check_magnitudes,
    natural_frequency,
    total_damping,
)

__all__ = [
    "SimConfig",
    "TraceSummary",
    "Trace",
    "SimulationNotSettled",
    "SweepPointError",
    "simulate",
    "frequency_sweep_sim",
]

# resolution floor for the faster of the drive and natural periods
_MIN_STEPS_PER_PERIOD = 50

_ENERGY_RESIDUAL_LIMIT = 1e-3

# RK4 phase error, 2 Q_T (w dt)^4 / 120, that SimConfig.suggest's step allows
_PHASE_BOUND_RAD = 1e-3

# RK4 steps whose drive is sampled by one np.sin call per column
_BLOCK_STEPS = 4096

# the most steps a run may take: simulate holds ~80 bytes per step, so ~1.6 GB;
# 3.5x the 5.66M steps that SimConfig.suggest takes at Q_T = 1e4
_MAX_STEPS = 20_000_000


class SimulationNotSettled(RuntimeError):
    """Raised when a run ends before the response reaches steady state."""


class SweepPointError(RuntimeError):
    """Failure at a single sweep frequency; carries the offending omega."""

    def __init__(self, omega_rad_per_s: float, cause: Exception):
        super().__init__(f"sweep point at {omega_rad_per_s} rad/s failed: {cause}")
        self.omega_rad_per_s = omega_rad_per_s
        self.cause = cause


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integrator settings.

    settle_fraction is the leading fraction of the trace discarded before
    steady-state statistics are taken; the rest is the measurement window.
    """

    dt_s: float
    duration_s: float
    settle_fraction: float = 0.8

    def __post_init__(self) -> None:
        _check_magnitudes((("dt_s", self.dt_s), ("duration_s", self.duration_s)))
        if not self.duration_s > 10.0 * self.dt_s:
            raise ValueError(
                f"duration_s must exceed 10*dt_s; got "
                f"duration_s={self.duration_s} with dt_s={self.dt_s}"
            )
        if not 0.0 <= self.settle_fraction < 1.0:
            raise ValueError(
                f"settle_fraction must be in [0, 1), got {self.settle_fraction}"
            )
        if self.duration_s / self.dt_s > _MAX_STEPS:
            raise ValueError(
                f"duration_s / dt_s must be at most {_MAX_STEPS} steps; got "
                f"duration_s={self.duration_s} with dt_s={self.dt_s}"
            )

    @property
    def n_steps(self) -> int:
        """Number of fixed steps covering duration_s."""
        return int(round(self.duration_s / self.dt_s))

    @classmethod
    def suggest(
        cls,
        g: GeneratorParams,
        c: CoilCircuit | None,
        omega_rad_per_s: float,
        steps_per_period: int = 64,
    ) -> "SimConfig":
        """Pick a step and duration suited to the device and drive frequency.

        The step resolves the faster of the drive and natural periods with
        steps_per_period steps, or more where Q_T = 1/(2 zeta_t) needs them:
        n >= 2 pi (Q_T / 0.06)^(1/4) holds RK4's phase error 2 Q_T (w dt)^4 / 120
        to 1e-3 rad (more than 64 steps above Q_T ~ 645).  The duration spans
        14 damping time constants 1/(zeta_t*w_n), so the start-up transient is
        below 1e-4 of steady state when the default measurement window opens,
        with a 30-period floor for heavy damping.
        """
        if not _MIN_STEPS_PER_PERIOD <= steps_per_period < math.inf:
            raise ValueError(
                f"steps_per_period must be >= {_MIN_STEPS_PER_PERIOD} and finite, "
                f"got {steps_per_period}"
            )
        _check_magnitudes((("omega_rad_per_s", omega_rad_per_s),))
        wn = natural_frequency(g)
        zeta_t = g.zeta_parasitic if c is None else total_damping(g, c, omega_rad_per_s)[2]
        if not zeta_t > 0.0:
            raise ValueError("an undamped run never settles; zeta_t must be > 0")
        # 2 pi (Q_T / (60 phi))^(1/4), written in zeta_t so that it cannot overflow
        n_q = math.ceil(2.0 * math.pi / (120.0 * _PHASE_BOUND_RAD) ** 0.25 / zeta_t ** 0.25)
        dt = 2.0 * math.pi / max(omega_rad_per_s, wn) / max(steps_per_period, n_q)
        duration = max(
            14.0 / (zeta_t * wn),
            30.0 * 2.0 * math.pi / omega_rad_per_s,
        )
        return cls(dt_s=dt, duration_s=duration)


@dataclass(frozen=True)
class TraceSummary:
    """Steady-state figures extracted from the tail of one run.

    energy_balance_residual is the relative mismatch between the work done
    by the base and the sum of dissipated plus stored energy over the whole
    trace; it is an integrator health check, not a physical output.
    """

    z_amp_m: float
    v_rel_rms_m_per_s: float
    emf_rms_v: float
    p_load_avg_w: float
    p_parasitic_avg_w: float
    energy_balance_residual: float
    phase_rad: float

    def __post_init__(self) -> None:
        _check_magnitudes(nonnegative=(
            ("z_amp_m", self.z_amp_m), ("v_rel_rms_m_per_s", self.v_rel_rms_m_per_s),
            ("emf_rms_v", self.emf_rms_v), ("p_load_avg_w", self.p_load_avg_w),
            ("p_parasitic_avg_w", self.p_parasitic_avg_w),
            ("energy_balance_residual", self.energy_balance_residual),
        ))


@dataclass(frozen=True)
class Trace:
    """Full sampled time histories; all arrays share the t_s time base."""

    t_s: np.ndarray
    z_m: np.ndarray
    zdot_m_s: np.ndarray
    emf_v: np.ndarray
    p_load_w: np.ndarray


def _refined_peaks(zw: np.ndarray) -> list[float]:
    """Positive-peak amplitudes with 3-point parabolic refinement."""
    idx = (
        np.flatnonzero(
            (zw[1:-1] >= zw[:-2]) & (zw[1:-1] > zw[2:]) & (zw[1:-1] > 0.0)
        )
        + 1
    )
    return [
        float(_parabola_vertex(-1.0, zw[i - 1], 0.0, zw[i], 1.0, zw[i + 1])[1]) for i in idx
    ]


def _fit_phase(tw: np.ndarray, zw: np.ndarray, w: float) -> float:
    """Phase lag of zw behind sin(w t), from a least-squares sinusoid fit.

    The sums are numpy's own pairwise reductions, not np.dot: the bits of a
    BLAS dot product, and its cost on a window this long, depend on how
    many threads the BLAS runs.
    """
    sw = np.sin(w * tw)
    cw = np.cos(w * tw)
    sss = float(np.sum(sw * sw))
    scc = float(np.sum(cw * cw))
    ssc = float(np.sum(sw * cw))
    bs = float(np.sum(zw * sw))
    bc = float(np.sum(zw * cw))
    det = sss * scc - ssc * ssc
    a_fit = (bs * scc - bc * ssc) / det
    b_fit = (bc * sss - bs * ssc) / det
    phase = math.atan2(-b_fit, a_fit)
    if phase < -0.5 * math.pi:  # wrapped just past pi
        phase += 2.0 * math.pi
    return min(max(phase, 0.0), math.pi)


def _rk4(
    t: np.ndarray, dt: float, forcing: float, w: float, two_zw: float, wn2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 of z'' + two_zw z' + wn2 z = forcing sin(w t) from rest.

    t is the sample grid i*dt; returns z and z' at every sample.  The drive
    is sampled per block of steps with np.sin, outside the interpreted step
    loop; each step's arithmetic is the per-step form with math.sin, operand
    for operand, so the bits equal it wherever the build's np.sin and
    math.sin agree (tests/test_sim.py checks this).
    """
    n_steps = len(t) - 1
    half = 0.5 * dt
    sixth = dt / 6.0

    z = 0.0
    v = 0.0
    z_arr = np.empty(n_steps + 1)
    v_arr = np.empty(n_steps + 1)
    z_arr[0] = v_arr[0] = 0.0
    for b in range(0, n_steps, _BLOCK_STEPS):
        # the drive at t0 = i*dt, t0 + dt/2 and t0 + dt for the block's steps;
        # t0 + dt is not (i+1)*dt in the last bit, so f1 is not the next f0
        t0 = t[b:min(b + _BLOCK_STEPS, n_steps)]
        zs = []
        vs = []
        for f0, fm, f1 in zip(
            (forcing * np.sin(w * t0)).tolist(),
            (forcing * np.sin(w * (t0 + half))).tolist(),
            (forcing * np.sin(w * (t0 + dt))).tolist(),
        ):
            a1 = f0 - two_zw * v - wn2 * z
            z2 = z + half * v
            v2 = v + half * a1
            a2 = fm - two_zw * v2 - wn2 * z2
            z3 = z + half * v2
            v3 = v + half * a2
            a3 = fm - two_zw * v3 - wn2 * z3
            z4 = z + dt * v3
            v4 = v + dt * a3
            a4 = f1 - two_zw * v4 - wn2 * z4
            z += sixth * (v + 2.0 * (v2 + v3) + v4)
            v += sixth * (a1 + 2.0 * (a2 + a3) + a4)
            zs.append(z)
            vs.append(v)
        z_arr[b + 1:b + 1 + len(zs)] = zs
        v_arr[b + 1:b + 1 + len(vs)] = vs
    return z_arr, v_arr


def simulate(
    g: GeneratorParams,
    c: CoilCircuit,
    e: Excitation,
    cfg: SimConfig,
    return_trace: bool = False,
) -> TraceSummary | tuple[TraceSummary, Trace]:
    """Integrate one run and summarize its steady state.

    The electrical damping coefficient is held constant over the run (a
    linear circuit model); load power is the averaged instantaneous
    emf^2 * R_load / (R_load + R_coil)^2.  That split has no coil current
    state, so a closed circuit with inductance (l_coil_h > 0) raises
    ValueError.  Runs whose displacement peaks still drift by more than 1%
    per period at the end raise SimulationNotSettled instead of returning a
    misleading summary.

    Only underdamped designs run: the settling and drift checks assume a
    ringing response, so zeta_T >= 1 raises ValueError; evaluate_response
    (the CLI's model and sweep) covers zeta_T >= 1.

    The drive is sampled per block of steps with np.sin (see _rk4); the
    trace bits equal the per-step form with math.sin.
    """
    if c.l_coil_h > 0.0 and c.r_load_ohm < math.inf:
        raise ValueError(
            "simulate cannot model coil inductance in a closed circuit; "
            f"l_coil_h must be 0, got {c.l_coil_h}"
        )
    w = e.omega_rad_per_s
    wn = natural_frequency(g)
    period = 2.0 * math.pi / max(w, wn)
    if cfg.dt_s > period / _MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"dt_s={cfg.dt_s} resolves the {period} s period (the faster of the "
            f"drive and natural periods) with fewer than {_MIN_STEPS_PER_PERIOD} steps"
        )
    c_p, c_e, zeta_t = total_damping(g, c, w)
    if not 0.0 < zeta_t < 1.0:
        raise ValueError(
            f"total damping ratio must be in (0, 1), got {zeta_t}; model and sweep cover >= 1"
        )
    q_t = 1.0 / (2.0 * zeta_t)
    if q_t > 200.0 and cfg.duration_s < 10.0 * (2.0 * q_t / wn):
        warnings.warn(
            f"run of {cfg.duration_s:.3g} s is shorter than the "
            f"{10.0 * 2.0 * q_t / wn:.3g} s settling guideline for Q_T={q_t:.0f}",
            stacklevel=2,
        )

    n_steps = cfg.n_steps
    dt = cfg.dt_s
    t = np.arange(n_steps + 1) * dt

    if e.amplitude_m == 0.0:
        zeros = np.zeros(n_steps + 1)
        summary = TraceSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        if return_trace:
            return summary, Trace(t, zeros, np.zeros(n_steps + 1), np.zeros(n_steps + 1), np.zeros(n_steps + 1))
        return summary

    forcing = e.amplitude_m * w * w  # base forcing per unit mass
    z_arr, v_arr = _rk4(t, dt, forcing, w, 2.0 * zeta_t * wn, wn * wn)

    i0 = int(cfg.settle_fraction * n_steps)
    zw = z_arr[i0:]
    vw = v_arr[i0:]
    tw = t[i0:]

    peaks = _refined_peaks(zw)
    if len(peaks) < 2:
        raise SimulationNotSettled(
            "measurement window holds fewer than two displacement peaks; "
            "increase duration_s or lower settle_fraction"
        )
    drift = abs(peaks[-1] - peaks[-2]) / abs(peaks[-1])
    if not drift <= 0.01:
        raise SimulationNotSettled(
            f"amplitude still drifting {drift:.2%} per period at end of run; "
            f"increase duration_s"
        )
    z_amp = float(np.mean(peaks))
    v_rms = float(np.sqrt(np.mean(vw * vw)))
    phase = _fit_phase(tw, zw, w)

    coupling = c.coupling_v_s_per_m
    emf_rms = coupling * v_rms
    # load power is share * emf^2: R_load / (R_load + R_coil)^2, none on the open circuit
    r_series = c.r_load_ohm + c.r_coil_ohm
    share = 0.0 if math.isinf(c.r_load_ohm) else c.r_load_ohm / (r_series * r_series)
    emf_w = coupling * vw
    p_load_avg = float(np.mean(emf_w * emf_w * share))
    p_par_avg = float(np.mean(c_p * vw * vw))

    # bookkeeping over the whole trace, including the transient
    w_in = float(simpson(g.mass_kg * forcing * np.sin(w * t) * v_arr, x=t))
    w_par = float(simpson(c_p * v_arr * v_arr, x=t))
    w_el = float(simpson(c_e * v_arr * v_arr, x=t))
    e_mech = (
        0.5 * g.mass_kg * v_arr[-1] ** 2
        + 0.5 * g.stiffness_n_per_m * z_arr[-1] ** 2
    )
    scale = max(abs(w_in), w_par + w_el + abs(e_mech))
    residual = abs(w_in - w_par - w_el - e_mech) / scale if scale > 0.0 else 0.0
    if not residual < _ENERGY_RESIDUAL_LIMIT:
        raise ValueError(
            f"energy balance residual {residual:.2e} exceeds "
            f"{_ENERGY_RESIDUAL_LIMIT}; reduce dt_s"
        )

    summary = TraceSummary(
        z_amp_m=z_amp,
        v_rel_rms_m_per_s=v_rms,
        emf_rms_v=emf_rms,
        p_load_avg_w=p_load_avg,
        p_parasitic_avg_w=p_par_avg,
        energy_balance_residual=residual,
        phase_rad=phase,
    )
    if return_trace:
        emf_arr = coupling * v_arr
        return summary, Trace(t, z_arr, v_arr, emf_arr, emf_arr * emf_arr * share)
    return summary


def frequency_sweep_sim(
    g: GeneratorParams,
    c: CoilCircuit,
    omegas: Iterable[float] | Sequence[float],
    accel_m_s2: float,
    cfg: SimConfig | None = None,
    convention: str = "peak",
    open_circuit: bool = False,
) -> list[tuple[float, TraceSummary]]:
    """Run one simulation per drive frequency at fixed base acceleration.

    Open-circuit mode disconnects the load (no electrical damping, no load
    power) while still reporting the induced EMF.  With cfg=None each point
    gets its own SimConfig.suggest, so lightly damped points are given the
    longer runs they need.
    """
    omega_list = [float(o) for o in omegas]
    if not omega_list:
        raise ValueError("omegas must be non-empty")
    _check_increasing("omegas", omega_list)
    circuit = replace(c, r_load_ohm=math.inf) if open_circuit else c
    out: list[tuple[float, TraceSummary]] = []
    for omega in omega_list:
        exc = Excitation.from_acceleration(accel_m_s2, omega, convention)
        point_cfg = cfg if cfg is not None else SimConfig.suggest(g, circuit, omega)
        try:
            out.append((omega, simulate(g, circuit, exc, point_cfg)))
        except (ValueError, SimulationNotSettled) as err:
            raise SweepPointError(omega, err) from err
    return out
