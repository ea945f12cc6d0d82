"""Time-domain integration of the harvester's equation of motion.

The relative coordinate z (mass motion minus base motion) obeys

    m z'' + (c_p + c_e) z' + k z = m Y w^2 sin(w t)

for a base displacement Y sin(w t).  The integrator is the classical
fourth-order Runge-Kutta scheme with a fixed step, started from rest, so
traces are exactly reproducible.  The equation is linear, so one RK4 step is
a fixed linear map, and the whole run is evaluated from it in closed form
rather than stepped.  The steady-state numbers are that map's forced orbit,
the integrator's exact steady state, once the run has shown that its
start-up transient died away; an energy audit over the whole trace, against
the drive sin(w t) at the integrator's exact phases w dt i, checks the run.

Both routes read their damping from one :func:`emharvest.model._damping_terms`
call; only the response itself is computed independently, numerically, so
the two routes can be used to check each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np
from scipy.integrate import simpson

from .model import (
    CoilCircuit,
    Excitation,
    GeneratorParams,
    _check_increasing,
    _check_magnitudes,
    _damping_terms,
    _pow,
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

# simulate's floor of steps per drive and per natural period, and suggest's n where Q_T
# asks for no more (64: at 50, a Q_T = 50 resonant run's energy residual is 1.46e-5)
_MIN_STEPS_PER_PERIOD = 50
_STEPS_PER_PERIOD = 64

_ENERGY_RESIDUAL_LIMIT = 1e-3

# the start-up transient at the window start, sample int(_SETTLE_FRACTION * n_steps),
# relative to the steady amplitude, above which a run has not settled
_SETTLE_LIMIT = 1e-2
_SETTLE_FRACTION = 0.8

# damping time constants 1/(zeta_t w_n) in a suggested run: at the window start they
# leave at most 8.7e-4 of |X_z| over Q_T 1.2-3000 and w/w_n 0.5-2, a x11 margin under
# _SETTLE_LIMIT; the settle test, not this count, judges every run
_SETTLE_TIME_CONSTANTS = 10.0

# RK4 phase error, 2 Q_T (w dt)^4 / 120, that SimConfig.suggest's step allows
_PHASE_BOUND_RAD = 1e-3

# the steps in one of _rk4's blocks, the length of its P^j and R_j tables (a power of 2)
_BLOCK_STEPS = 4096

# the most steps a run may take: simulate holds ~21 bytes per step, also when it
# streams its trace (simulate --out), and ~41 when it returns a Trace, so ~0.42 GB
# (0.82 GB); 4.9x the 4.04M steps SimConfig.suggest takes at Q_T = 1e4
_MAX_STEPS = 20_000_000


class SimulationNotSettled(RuntimeError):
    """Raised when a run's start-up transient is over the settle limit at its window start."""


class SweepPointError(RuntimeError):
    """Failure at a single sweep frequency; carries the offending omega."""

    def __init__(self, omega_rad_per_s: float, cause: Exception):
        super().__init__(f"sweep point at {omega_rad_per_s} rad/s failed: {cause}")
        self.omega_rad_per_s = omega_rad_per_s
        self.cause = cause


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integrator settings: the step and the run's length.

    The leading 80% of the run is allowed to settle: at the window start,
    sample int(0.8 * n_steps) (_SETTLE_FRACTION), simulate requires the
    start-up transient to be under 1% of the response.
    """

    dt_s: float
    duration_s: float

    def __post_init__(self) -> None:
        _check_magnitudes((("dt_s", self.dt_s), ("duration_s", self.duration_s)))
        if not self.duration_s > 10.0 * self.dt_s:
            raise ValueError(
                f"duration_s must exceed 10*dt_s; got "
                f"duration_s={self.duration_s} with dt_s={self.dt_s}"
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
        c: CoilCircuit,
        omega_rad_per_s: float,
    ) -> "SimConfig":
        """Pick a step and duration suited to the device and drive frequency.

        The step is a whole number N = max(n, ceil(n w / w_n)) of steps per natural period:
        n at or below w_n, and at least n per drive period above it, so sweep points with
        one N share one step matrix (_powers).  n is 64 (_STEPS_PER_PERIOD), or more where
        Q_T = 1/(2 zeta_t) needs them: n >= 2 pi (Q_T / 0.06)^(1/4) holds RK4's phase error
        2 Q_T (w dt)^4 / 120 to 1e-3 rad (over 64 above Q_T ~ 645).  At simulate's 50-step floor a
        Q_T = 50 resonant run's energy residual is 1.46e-5, not 3.78e-6, over its tested 1e-5.
        The duration is _SETTLE_TIME_CONSTANTS = 10 damping time constants 1/(zeta_t*w_n)
        alone, which leave a start-up transient under _SETTLE_LIMIT / 10 at the window start.
        """
        _check_magnitudes((("omega_rad_per_s", omega_rad_per_s),))
        wn, *_, zeta_t = _damping_terms(g, c, omega_rad_per_s)
        if not zeta_t > 0.0:
            raise ValueError("an undamped run never settles; zeta_t must be > 0")
        # 2 pi (Q_T / (60 phi))^(1/4), written in zeta_t so that it cannot overflow
        n_q = math.ceil(2.0 * math.pi / (120.0 * _PHASE_BOUND_RAD) ** 0.25 / zeta_t ** 0.25)
        n = max(_STEPS_PER_PERIOD, n_q)
        per_wn = n * (omega_rad_per_s / wn)  # w / w_n first: n w / w_n rounds 127 up to 128
        dt = (2.0 * math.pi / wn / max(n, math.ceil(per_wn)) if per_wn < math.inf
              else 2.0 * math.pi / omega_rad_per_s / n)  # w / w_n overflows: past the ceiling
        duration = _SETTLE_TIME_CONSTANTS / (zeta_t * wn)
        if duration / dt > _MAX_STEPS:
            raise ValueError(
                f"the suggested run for Q_T={0.5 / zeta_t:.6g} takes {duration / dt:.0f} "
                f"steps, over the {_MAX_STEPS}-step ceiling; set dt_s and duration_s "
                f"in the catalog"
            )
        return cls(dt_s=dt, duration_s=duration)


@dataclass(frozen=True)
class TraceSummary:
    """Steady-state figures of one run, from the forced orbit X of its RK4 map:
    z_amp_m = |X_z|, phase_rad = -arg X_z and v_rel_rms_m_per_s = |X_v| / sqrt(2).

    energy_balance_residual is the relative mismatch between the work done
    by the base and the sum of dissipated plus stored energy over the whole
    trace; it is an integrator health check, not a physical output.  It is
    a small difference of integrals of size ~1, so its digits past about
    the 6th are rounding noise: an equally valid rounding of the same RK4
    trace moves them.
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
    """Full sampled time histories; all arrays share the t_s time base.

    simulate(..., return_trace=True) is one whole-run block of _trace_blocks, the
    columns return_trace="blocks" streams (z in the audit's buffer, z' the run's
    own): 40 bytes per sample, where a stream holds the run's tables and one
    block of at most 4096, with each block's z and z' evaluated as it is read."""

    t_s: np.ndarray
    z_m: np.ndarray
    zdot_m_s: np.ndarray
    emf_v: np.ndarray
    p_load_w: np.ndarray


def _cis(num: int, den: int, steps: int, per: int = 1) -> complex:
    """e^(i x) for the exact phase x = num steps / (den per), taken as hi + lo:
    int / int is correctly rounded, so hi is x rounded and lo is x - hi rounded."""
    n, d = num * steps, den * per
    hi = n / d
    hn, hd = hi.as_integer_ratio()
    lo = (n * hd - hn * d) / (d * hd)
    return complex(math.cos(hi) - lo * math.sin(hi), math.sin(hi) + lo * math.cos(hi))


def _rk4_map(dt: float, forcing: float, w: float, two_zw: float, wn2: float) -> tuple:
    """One RK4 step of z'' + two_zw z' + wn2 z = forcing sin(w t), and its steady state.

    The system is linear and time-invariant, so one step of the state
    x = (z, z') is the exact map x_(i+1) = P x_i + Im(g q^i), with
    A = [[0, 1], [-wn2, -two_zw]], M = dt A, P = I + M + M^2/2 + M^3/6 + M^4/24,
    q = e^(i w dt) and
    g = forcing dt/6 ((I + M + M^2/2 + M^3/4) + (4I + 2M + M^2/2) q^(1/2) + q) (0, 1)
    (exact discretisation: Van Loan 1978, IEEE Trans. Autom. Control 23:395).
    Its forced orbit x_i = Im(X q^i) solves ((q - 1)I - E) X = g, E = P - I,
    with q - 1 = 2i sin(w dt/2) q^(1/2): neither P = I + E nor q - 1 is a
    rounded sum, which would move P's eigenvalues or q - 1 by ~1e-16, an
    error the resonant response amplifies by 1/(zeta w dt).

    Returns (num, den, E, g, q, X): w dt = num / den exactly, E by rows.
    """
    (wp, wq), (dp, dq) = w.as_integer_ratio(), dt.as_integer_ratio()
    num, den = wp * dp, wq * dq

    def poly(coeffs, x, y):
        # sum of coeffs[k] M^k (x, y) by Horner, with M (x, y) = dt (y, -wn2 x - two_zw y)
        rx, ry = coeffs[-1] * x, coeffs[-1] * y
        for c in coeffs[-2::-1]:
            rx, ry = dt * ry + c * x, -dt * (wn2 * rx + two_zw * ry) + c * y
        return rx, ry

    e00, e10 = poly((0.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0), 1.0, 0.0)
    e01, e11 = poly((0.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0), 0.0, 1.0)
    q_half, q_one = _cis(num, den, 1, 2), _cis(num, den, 1)
    g0, gm = poly((1.0, 1.0, 0.5, 0.25), 0.0, 1.0), poly((4.0, 2.0, 0.5), 0.0, 1.0)
    scale = forcing * dt / 6.0
    g_z = scale * (g0[0] + gm[0] * q_half)
    g_v = scale * (g0[1] + gm[1] * q_half + q_one)
    q_less_1 = 2j * q_half.imag * q_half
    a00, a11 = q_less_1 - e00, q_less_1 - e11  # (q - 1)I - E, by Cramer's rule
    det = a00 * a11 - e01 * e10
    orbit = ((a11 * g_z + e01 * g_v) / det, (a00 * g_v + e10 * g_z) / det)
    return num, den, ((e00, e01), (e10, e11)), (g_z, g_v), q_one, orbit


def _state(row: tuple, r: int, x: tuple, q: complex, j) -> np.ndarray:
    """Row r of a block's states at its columns j, from the block's first state x
    and phase q = q^s: x_r + (E_j x)_r + Im(q R_j)_r, from row r's tables
    row = (E_j[r, 0], E_j[r, 1], Im R_j[r], Re R_j[r]); Im(q R) = Re q Im R + Im q Re R."""
    e0, e1, im, re = row
    return (x[r] + (e0[j] * x[0] + e1[j] * x[1])) + (q.real * im[j] + q.imag * re[j])


@functools.lru_cache(maxsize=1)
def _powers(e1: tuple, top: int) -> np.ndarray:
    """E_j = P^j - I (read-only, [:, :, j], j <= top) from E_1 = e1, by doubling:
    E_(m+j) = E_m + E_j + E_m E_j.  It depends on the step matrix alone, so a sweep's
    points with one suggested step count N per natural period share one (N is n at or
    below w_n; zeta_t does not follow w when L = 0)."""
    et = np.zeros((2, 2, top + 1))
    et[:, :, 1], m = e1, 1
    while m < top:
        a, ej = et[:, :, m, None], et[:, :, 1:m + 1]
        et[:, :, m + 1:2 * m + 1] = a + ej + (a[:, 0, None] * ej[0] + a[:, 1, None] * ej[1])
        m *= 2
    et.flags.writeable = False
    return et


def _tables(step: tuple, top: int) -> tuple:
    """The tables _state reads, for z's row and for z''s (j <= top), and q^j
    (j < top), from _rk4_map's tuple step; top is a power of 2.

    E_j = P^j - I (et[:, :, j]) is _powers', built once per step matrix; R_j
    (rt[:, j]) and q^j are built per run: R_(m+j) = R_m + E_j R_m + q^m R_j and
    q^(m+j) = q^m q^j extend them from m to 2m in one pass, one array
    operation per term.  I is kept apart, as in _rk4_map.
    """
    num, den, e1, g, q_one, _ = step
    et = _powers(e1, top)
    rt = np.zeros((2, top + 1), complex)
    rt[:, 1] = g
    qt = np.ones(top, complex)
    m = 1
    while m < top:
        qm = q_one if m == 1 else _cis(num, den, m)
        r, ej = rt[:, m, None], et[:, :, 1:m + 1]
        rt[:, m + 1:2 * m + 1] = r + (ej[:, 0] * r[0] + ej[:, 1] * r[1]) + qm * rt[:, 1:m + 1]
        qt[m:2 * m] = qm * qt[:m]
        m *= 2
    z_row, v_row = ((et[r, 0], et[r, 1], rt[r].imag.copy(), rt[r].real.copy()) for r in (0, 1))
    return z_row, v_row, qt


def _rk4(n_samples: int, dt: float, forcing: float, w: float, two_zw: float, wn2: float,
         at: Sequence[int]) -> tuple:
    """Fixed-step RK4 of z'' + two_zw z' + wn2 z = forcing sin(w t) from rest.

    Returns (named, z', drive, step, z_blocks): (z, its drive's phase q^s q^j)
    at each of the increasing samples `at`, as a Python float and complex; z' and the drive sin(w dt i) it was
    integrated against at the n_samples samples i dt; the step map
    x_(i+1) = P x_i + Im(g q^i) it was evaluated from (_rk4_map's tuple); and a
    generator of (z, z'), a pair of arrays per block, evaluated as it is read.  From a
    block's first sample s, x_(s+j) = P^j x_s + Im(q^s R_j), where R_j = sum
    over k < j of P^(j-1-k) g q^k is the response j steps after rest; P^j is
    tabulated once per step matrix, R_j and q^j once per run, by doubling
    (_tables), and each block is evaluated from them in closed form, with no
    step loop.  The block loop evaluates z' over each block, and z only at its
    end (the next block's start) and at `at`; z_blocks keeps each block's
    (x_s, q^s) and the tables' two rows, and evaluates z and again z' with the
    same _state: it holds no whole-run array, and its z' equals the returned z'.

    This is the RK4 solution, phase error included, rounded differently:
    tests/test_sim.py holds it to the per-step loop within 1e-11 of the
    run's largest value.  Each sample depends on its index alone, so a run
    is the first samples of any longer run on the same grid.  The drive
    phases are the exact w dt i (_cis), not the float w (i dt): a block holds
    its first phase's rounding, ~1e-16 w t, for all its steps, which takes a
    1M-step run past that bound (test_long_run_keeps_the_drive_phase).  The
    returned drive, q^s times the q^j table, is within ~3e-16 of the exact
    phase (np.sin(w * (i dt)) is ~1e-16 w t off:
    tests/test_sim.py::test_drive_keeps_the_exact_phase).
    """
    step = _rk4_map(dt, forcing, w, two_zw, wn2)
    num, den = step[:2]
    m = 1
    while m < min(n_samples, _BLOCK_STEPS):
        m *= 2
    z_row, v_row, qt = _tables(step, m)

    # blocks of m steps share their end sample, which is the next block's start
    # state; a lone last sample takes its drive but no state block of its own.
    # One whole-run buffer holds the drive and z': two half-size buffers are
    # trimmed and refaulted each run
    buf = np.zeros((2, -(-(n_samples - 1) // m) * m + 1))  # z' from rest
    sin = buf[0, :n_samples]
    z0, named, firsts, phases = 0.0, [], [], np.empty(m, complex)  # phases: one block's q^s q^j
    for start in range(0, n_samples, m):
        q = _cis(num, den, start)  # q^s
        qs = np.multiply(q, qt[:n_samples - start], out=phases[:n_samples - start])
        sin[start:start + m] = qs.imag
        x = (z0, buf[1, start])  # read before the write
        firsts.append((start, x, q))
        named += [(float(_state(z_row, 0, x, q, s - start)), complex(qs[s - start]))
                  for s in at if start <= s < start + m]
        if start < n_samples - 1:
            buf[1, start:start + m + 1] = _state(v_row, 1, x, q, slice(None))
            z0 = _state(z_row, 0, x, q, m)

    def z_blocks():
        for start, x, q in firsts:  # j = 0 reads x back (E_0 = R_0 = 0), a lone last sample too
            j = slice(min(m, n_samples - start))
            yield _state(z_row, 0, x, q, j), _state(v_row, 1, x, q, j)

    return named, buf[1, :n_samples], sin, step, z_blocks()


def _trace_blocks(dt: float, blocks: Iterable[tuple], coupling: float,
                  share: float) -> Iterator[tuple]:
    """The trace's columns (t, z, z', emf, p_load) over each (z, z') block in
    turn, holding nothing of the run but what the blocks hold; t and p_load
    are formed in place, so a whole-run block makes no temporary."""
    stop = 0
    for z, zdot in blocks:
        start, stop = stop, stop + len(z)
        emf = coupling * zdot
        t = np.arange(start, stop, dtype=float)
        t *= dt
        p_load = emf * emf
        p_load *= share
        yield t, z, zdot, emf, p_load


def simulate(
    g: GeneratorParams,
    c: CoilCircuit,
    e: Excitation,
    cfg: SimConfig,
    return_trace: bool | Literal["blocks"] = False,
) -> TraceSummary | tuple[TraceSummary, Trace] | tuple[TraceSummary, Iterator[tuple]]:
    """Integrate one run and summarize its steady state.

    return_trace=True returns the Trace with the summary; "blocks" returns its
    columns as an iterator of blocks of at most 4096 samples, each a tuple in
    Trace's field order, evaluated as it is read: `simulate --out` writes them.

    The electrical damping coefficient is held constant over the run (a
    linear circuit model); load power is emf^2 * R_load / (R_load + R_coil)^2.
    That split has no coil current state, so a closed circuit with
    inductance (l_coil_h > 0) raises ValueError.

    The run is evaluated in closed form (_rk4), and the summary is the forced
    orbit X of its RK4 step map (_rk4_map), the integrator's exact steady
    state: z_amp = |X_z|, phase = -arg X_z, and each power is its damper c
    times <z'^2> = |X_v|^2 / 2.  If the start-up transient at the window
    start i0 = int(0.8 * n_steps) (_SETTLE_FRACTION),
    hypot(z - Im(X_z q^i0), (z' - Im(X_v q^i0)) / w_n), is over
    _SETTLE_LIMIT * |X_z|, SimulationNotSettled is raised: that test is the
    one rule on a run's length.  The energy audit (work m Y w^2 sin(w t) z'
    against heat (c_p + c_e) z'^2, Simpson's rule over the run, with the
    drive _rk4 integrated against; a residual >= 1e-3 raises ValueError)
    checks the run before any of its trace is formed.  A zero drive takes
    this path too: X = 0, so it settles and reads 0, phase too.

    Only underdamped designs run (zeta_T < 1, else ValueError): the settle
    test measures a ringing transient, and suggest's run assumes one;
    evaluate_response (the CLI's model and sweep) covers zeta_T >= 1.
    """
    if c.l_coil_h > 0.0 and c.r_load_ohm < math.inf:
        raise ValueError(
            "simulate cannot model coil inductance in a closed circuit; "
            f"l_coil_h must be 0, got {c.l_coil_h}"
        )
    w = e.omega_rad_per_s
    wn, coupling, z_mag, c_p, c_e, zeta_t = _damping_terms(g, c, w)
    period = 2.0 * math.pi / max(w, wn)
    if cfg.dt_s > period / _MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"dt_s={cfg.dt_s} resolves the {period} s period (the faster of the "
            f"drive and natural periods) with fewer than {_MIN_STEPS_PER_PERIOD} steps"
        )
    if not 0.0 < zeta_t < 1.0:
        raise ValueError(
            f"total damping ratio must be in (0, 1), got {zeta_t}; model and sweep cover >= 1"
        )

    n_steps = cfg.n_steps
    dt = cfg.dt_s
    forcing = e.amplitude_m * w * w  # base forcing per unit mass
    i0 = int(_SETTLE_FRACTION * n_steps)
    # z at i0 and the end, with q^i0 from the drive's own product
    ((z_i0, q0), (z_end, _)), v_arr, drive, step, z_blocks = _rk4(
        n_steps + 1, dt, forcing, w, 2.0 * zeta_t * wn, wn * wn, (i0, n_steps))
    if not return_trace:
        del z_blocks  # and R_j and q^j with it, before the audit's buffers; E stays (_powers)
    x_z, x_v = step[5]
    z_amp = abs(x_z)
    # in Python floats, a transient past the float range reads inf, with no numpy warning
    transient = math.hypot(z_i0 - (x_z * q0).imag, (float(v_arr[i0]) - (x_v * q0).imag) / wn)
    if not transient <= _SETTLE_LIMIT * z_amp:  # a run at rest passes, a NaN fails
        raise SimulationNotSettled(
            f"start-up transient is {transient / z_amp if z_amp else math.inf:.3g} of the "
            f"amplitude when the measurement window opens, over the {_SETTLE_LIMIT} settle "
            f"limit; increase duration_s"
        )
    # every loss is a damper on z', so each power is c * <z'^2> = c |X_v|^2 / 2;
    # v_rms is |X_v| / sqrt 2, not that mean's root, which underflows first
    ms = 0.5 * _pow(abs(x_v), 2)
    v_rms = abs(x_v) / math.sqrt(2.0)
    # load power is share * emf^2: R_load / |Z|^2 (L = 0 here), none on the open circuit
    share = 0.0 if math.isinf(c.r_load_ohm) else c.r_load_ohm / (z_mag * z_mag)
    p_load, p_parasitic = coupling * coupling * share * ms, c_p * ms
    if not (p_load < math.inf and p_parasitic < math.inf):  # named before the audit overflows
        _check_magnitudes(nonnegative=(("p_load_avg_w", p_load),
                                       ("p_parasitic_avg_w", p_parasitic)))

    # bookkeeping over the whole trace, including the transient; the work is
    # integrated in the drive's buffer, which then takes z'^2
    drive *= g.mass_kg * forcing
    drive *= v_arr
    w_in = float(simpson(drive, dx=dt))
    v2 = np.multiply(v_arr, v_arr, out=drive)
    w_diss = (c_p + c_e) * float(simpson(v2, dx=dt))
    v_end = float(v_arr[-1])
    e_mech = 0.5 * g.mass_kg * (v_end * v_end) + 0.5 * g.stiffness_n_per_m * (z_end * z_end)
    scale = max(abs(w_in), w_diss + abs(e_mech))
    residual = abs(w_in - w_diss - e_mech) / scale if scale > 0.0 else 0.0
    if not residual < _ENERGY_RESIDUAL_LIMIT:
        raise ValueError(
            f"energy balance residual {residual:.2e} exceeds "
            f"{_ENERGY_RESIDUAL_LIMIT}; reduce dt_s"
        )

    summary = TraceSummary(
        z_amp_m=z_amp,
        v_rel_rms_m_per_s=v_rms,
        emf_rms_v=coupling * v_rms,
        p_load_avg_w=p_load,
        p_parasitic_avg_w=p_parasitic,
        energy_balance_residual=residual,
        phase_rad=math.atan2(-x_z.imag, x_z.real) if z_amp else 0.0,  # X = 0 reads -0 or pi
    )
    if not return_trace:
        return summary
    if return_trace == "blocks":
        return summary, _trace_blocks(dt, z_blocks, coupling, share)
    # a Trace is the whole run as one block: z in the audit's buffer, z' the run's own
    z = np.concatenate([z for z, _ in z_blocks], out=drive)
    return summary, Trace(*next(_trace_blocks(dt, ((z, v_arr),), coupling, share)))


def frequency_sweep_sim(
    g: GeneratorParams,
    c: CoilCircuit,
    omegas: Iterable[float] | Sequence[float],
    accel_m_s2: float,
    *,
    open_circuit: bool = False,
) -> list[tuple[float, TraceSummary]]:
    """Run one simulation per drive frequency at fixed peak base acceleration.

    Each point is sized by its own SimConfig.suggest and judged by simulate's
    settle test; a failing point raises SweepPointError, carrying its omega.
    open_circuit=True disconnects the load but still reports the induced EMF.
    """
    omega_list = [float(o) for o in omegas]
    if not omega_list:
        raise ValueError("omegas must be non-empty")
    _check_increasing("omegas", omega_list)
    _check_magnitudes(nonnegative=(("accel_m_s2", accel_m_s2),))
    circuit = replace(c, r_load_ohm=math.inf) if open_circuit else c
    out: list[tuple[float, TraceSummary]] = []
    for omega in omega_list:
        try:
            exc = Excitation.from_acceleration(accel_m_s2, omega)
            out.append((omega, simulate(g, circuit, exc, SimConfig.suggest(g, circuit, omega))))
        except (ValueError, SimulationNotSettled) as err:
            raise SweepPointError(omega, err) from err
    return out
