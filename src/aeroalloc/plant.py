"""Synthetic wind-tunnel plant.

Stands in for the physical rig: ground-truth aerodynamics that are exactly
affine in the surface deflections, five-hole probe tap responses, wing-surface
tap pressures, and a gust generator. Every dataset and every "achieved" wrench
in this package comes from here.

Geometry and sign conventions
-----------------------------
Body axes: x forward, y toward the right wing tip, z down. Positive alpha
means flow arriving from below (the probe's down tap sees it), positive beta
flow arriving from the right. Flaperons use a mirrored deflection convention:
equal commands on both produce pure roll, their lift and pitch increments
cancel, so `PlantParams` builds the true control matrix's right flaperon
column from the left one under `dynamics.MIRROR_SIGNS`.

The gust is generated upstream and advects downstream, so each sensing
location sees it with its own strength and time lag: the nose-mounted probes
lead the wing taps. Instantaneous probe readings therefore never fully
determine the wing-local disturbance, which is exactly the gap the wing taps
fill. `gust_field` gives the gust at every location over a whole run at once.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import nncore, probe as probe_mod
from .probe import FLOW_VALUES, RHO, TAPS, FlowState, ProbePressures
from .dynamics import (CONTROL_DIM, CONTROL_LIMIT_DEG, MIRROR_SIGNS, PROBE_FEATURES, PROBES,
                       WING_TAPS, WRENCH_DIM, save_dynamics_csv)
from .table import write_table

log = logging.getLogger(__name__)

LOCATIONS = (*PROBES, "wing")
GUST_MODES = ("off", "shear", "shedding")

ENVELOPE_DEG = 15.0  # linear-regime limit on commanded alpha/beta

CONDITIONS_CSV_HEADER = [
    "t", "va", "alpha_deg", "beta_deg", "gust_mode", "gust_dalpha_wing", "gust_dbeta_wing",
]


class OutOfEnvelopeError(ValueError):
    """Commanded flow angles outside the plant's linear-regime envelope."""


def _check_airspeed(va: float) -> None:
    # NaN fails the comparison as well
    if not 0.0 <= va < math.inf:
        raise ValueError(f"tunnel airspeed must be finite and >= 0, got {va}")


def _check_shedding_airspeed(va: float) -> None:
    """A shedding gust with no set frequency takes it from the (checked) airspeed."""
    if va == 0.0:
        raise ValueError("a shedding gust takes its frequency from the airspeed, "
                         f"which must be positive, got {va:g} m/s")


@dataclass(frozen=True)
class GustState:
    """Upstream gust-generator state.

    shear: steady sideslip offset proportional to the generator yaw angle.
    shedding: periodic vortex street, modeled as sinusoidal flow-angle
    perturbations of velocity amplitude `amplitude` m/s at `frequency_hz`.
    """

    mode: str = "off"
    yaw_deg: float = 0.0
    amplitude: float = 0.0
    frequency_hz: float = 8.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in GUST_MODES:
            raise ValueError(f"gust mode must be one of {GUST_MODES}, got {self.mode!r}")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"gust amplitude must be finite and >= 0, got {self.amplitude}")
        if not (math.isfinite(self.yaw_deg) and math.isfinite(self.phase)):
            raise ValueError(f"gust yaw and phase must be finite, got {self!r}")
        if self.mode == "shedding" and not 0.0 < self.frequency_hz < math.inf:
            raise ValueError(f"shedding requires a positive finite frequency, got {self!r}")


def _is_number(value) -> bool:
    """A real number, not a bool (JSON's true and false) or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return _is_number(value) and math.isfinite(value)


@dataclass(frozen=True)
class PlantParams:
    """Geometry, aerodynamic derivatives, sensor layout, and noise levels.

    Frozen: construction checks every field and then builds the constant
    tables the plant functions read (the wing-tap coefficient arrays, the
    control matrix, the probe tap axes), once and read-only.
    """

    rho: float = RHO            # kg/m^3
    wing_area: float = 0.30     # m^2
    span: float = 1.2           # m
    chord: float = 0.25         # m

    # Baseline coefficients (per deg, per deg^2 for the drag bucket).
    cl0: float = 0.2
    cl_alpha: float = 0.08
    cd0: float = 0.05
    cd_alpha2: float = 0.001
    cy_beta: float = -0.02
    croll_beta: float = -0.003
    cm0: float = 0.02
    cm_alpha: float = -0.01
    cn_beta: float = 0.004

    # Control derivatives (per deg of deflection). Flaperon entries are the
    # shared magnitudes; signs are assigned by the mirrored convention.
    flap_cfx: float = 0.0008
    flap_cfy: float = 0.0003
    flap_cfz: float = 0.015
    flap_croll: float = 0.008
    flap_cm: float = 0.002
    flap_cn: float = -0.0015
    elev_cfx: float = 0.0005
    elev_cfz: float = 0.008
    elev_cm: float = -0.02
    rud_cfx: float = 0.0003
    rud_cfy: float = 0.006
    rud_croll: float = 0.0008
    rud_cn: float = -0.012

    # Five-hole probe geometry/response.
    probe_cone_deg: float = 45.0
    probe_sensitivity: float = 2.0
    probe_static_pa: float = 0.0

    # Wing tap response ps_i = q*(a + b*alpha_wing + c*delta_ra + d*gust),
    # taps 0..3 near the tip (0 suction-side leading edge, 3 pressure side),
    # taps 4..6 mid-span (4 suction-side leading edge, 6 pressure side).
    wing_tap_a: tuple = (-1.10, -0.55, -0.20, 0.42, -0.95, -0.50, 0.38)
    wing_tap_b: tuple = (-0.050, -0.028, -0.010, 0.018, -0.045, -0.024, 0.016)
    wing_tap_c: tuple = (0.021, 0.016, 0.012, -0.010, 0.009, 0.007, -0.006)
    wing_tap_d: tuple = (0.060, 0.015, 0.010, 0.022, 0.055, 0.012, 0.020)

    # Gust coupling per location: strength weight and streamwise lag distance.
    # The generator sits on the right near probe 0; probes protrude upstream
    # of the wing, so the wing sees the disturbance later.
    gust_weight: dict = field(default_factory=lambda: dict(zip(LOCATIONS, (1.0, 0.3, 0.7))))
    streamwise_offset_m: dict = field(default_factory=lambda: dict(zip(LOCATIONS, (0.0, 0.0, 0.3))))
    shear_beta_per_yaw: float = 0.3  # deg of sideslip offset per deg of generator yaw

    # Sensor noise (1 sigma). Wing taps are crude absolute sensors compared
    # with the probe transducers.
    probe_noise_pa: float = 0.5
    wing_noise_pa: float = 3.0
    force_noise_n: float = 0.05
    torque_noise_nm: float = 0.005
    # Residual error of an already-calibrated probe, used by the "ideal"
    # observation mode that bypasses the learned calibration networks.
    est_noise_va: float = 0.12
    est_noise_angle_deg: float = 0.3

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type != "float":
                continue
            if not _is_number(value):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if f.name in ("rho", "wing_area", "span", "chord"):
                probe_mod._check_positive_finite(value, f.name)
            elif not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("probe_noise_pa", "wing_noise_pa", "force_noise_n", "torque_noise_nm",
                     "est_noise_va", "est_noise_angle_deg"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("wing_tap_a", "wing_tap_b", "wing_tap_c", "wing_tap_d"):
            taps = getattr(self, name)
            if not (isinstance(taps, (tuple, list, np.ndarray)) and len(taps) == WING_TAPS
                    and all(map(_is_finite_number, taps))):
                raise ValueError(f"{name} must list {WING_TAPS} finite tap coefficients, "
                                 f"got {taps!r}")
        for name in ("gust_weight", "streamwise_offset_m"):
            table = getattr(self, name)
            if not (isinstance(table, dict)
                    and all(_is_finite_number(table.get(loc)) for loc in LOCATIONS)):
                raise ValueError(f"{name} needs a finite value for each of {LOCATIONS}, "
                                 f"got {table!r}")
        b, c = self.span, self.chord
        # columns `SURFACES`; the right flaperon mirrors the left, exactly
        left = np.array([-self.flap_cfx, self.flap_cfy, self.flap_cfz, self.flap_croll * b,
                         -self.flap_cm * c, self.flap_cn * b])
        control = np.column_stack([
            left, -MIRROR_SIGNS * left,
            [-self.elev_cfx, 0.0, self.elev_cfz, 0.0, self.elev_cm * c, 0.0],
            [-self.rud_cfx, self.rud_cfy, 0.0, self.rud_croll * b, 0.0, self.rud_cn * b],
        ])
        cone = np.radians(self.probe_cone_deg)
        cos_c, sin_c = np.cos(cone), np.sin(cone)
        tap_axes = np.array(
            [
                [1.0, 0.0, 0.0],            # center
                [cos_c, 0.0, -sin_c],       # up (-z body)
                [cos_c, 0.0, sin_c],        # down
                [cos_c, -sin_c, 0.0],       # left (-y body)
                [cos_c, sin_c, 0.0],        # right
            ]
        )
        wing_taps = tuple(np.array(getattr(self, name), dtype=float)
                          for name in ("wing_tap_a", "wing_tap_b", "wing_tap_c", "wing_tap_d"))
        for table in (control, tap_axes, *wing_taps):
            table.flags.writeable = False
        object.__setattr__(self, "_control", control)
        object.__setattr__(self, "_probe_tap_axes", tap_axes)
        object.__setattr__(self, "_wing_taps", wing_taps)

    def control_matrix(self) -> np.ndarray:
        """True control sensitivity in coefficient form: a read-only (6, 4) table,
        rows `WRENCH_CHANNELS` and columns `SURFACES`, whose moment rows carry
        their reference lengths, so q*S*(D @ u) is a wrench. The right flaperon
        column is -MIRROR_SIGNS times the left one, so its mirror residual is 0."""
        return self._control

    def baseline_coefficients(self, alpha_deg, beta_deg) -> np.ndarray:
        """Zero-deflection wrench coefficients at the flow angles, (6,) or (6, n)."""
        return np.array(
            [
                -(self.cd0 + self.cd_alpha2 * alpha_deg * alpha_deg),
                self.cy_beta * beta_deg,
                self.cl0 + self.cl_alpha * alpha_deg,
                self.croll_beta * beta_deg * self.span,
                (self.cm0 + self.cm_alpha * alpha_deg) * self.chord,
                self.cn_beta * beta_deg * self.span,
            ]
        )


def dynamic_pressure(va: float, params: PlantParams) -> float:
    return 0.5 * params.rho * va * va


def gust_field(gust: GustState, times: np.ndarray, va: float, params: PlantParams) -> np.ndarray:
    """The gust-induced flow-angle change in degrees at every sensing location
    over a run, (n, 3, 2) for n times.

    Row k holds the (d_alpha, d_beta) pairs of `LOCATIONS` (probe0, probe1,
    wing) at times[k], each location scaled by its gust weight. Shedding
    advects with the freestream: a location `x` meters downstream sees the
    signal delayed by x/Va.
    """
    out = np.zeros((len(times), len(LOCATIONS), 2))  # +0.0 wherever there is no gust
    if gust.mode == "shear":
        for i, loc in enumerate(LOCATIONS):
            out[:, i, 1] = params.gust_weight[loc] * params.shear_beta_per_yaw * gust.yaw_deg
    elif gust.mode == "shedding" and gust.amplitude != 0.0:
        speed = max(va, 0.1)
        angle_amp = np.degrees(np.arctan2(gust.amplitude, speed))
        for i, loc in enumerate(LOCATIONS):
            weight, lag = params.gust_weight[loc], params.streamwise_offset_m[loc] / speed
            ph = 2.0 * np.pi * gust.frequency_hz * (times - lag) + gust.phase
            out[:, i, 0] = weight * angle_amp * np.sin(ph)
            out[:, i, 1] = weight * angle_amp * np.cos(ph)
    return out


def probe_taps(va: float, alpha_deg, beta_deg, params: PlantParams) -> np.ndarray:
    """Noise-free five tap pressures at airspeed va for each of n local flow
    angles, (n, 5); row k is the flow (alpha_deg[k], beta_deg[k]).

    Each tap reads q*(1 - k*sin^2(angle between flow and tap axis)) above
    static; with k=2 and a 45 degree cone the center tap spread equals q at
    zero incidence, so the dynamic-pressure correction is near 1 on-axis.
    Each row's flow direction meets the tap axes in its own (1, 3) @ (3, 5)
    product, so row k equals the one-row call bit for bit; one 2-D product
    would not.
    """
    a = np.radians(alpha_deg)
    b = np.radians(beta_deg)
    cos_b = np.cos(b)
    flow_dir = np.stack([np.cos(a) * cos_b, np.sin(b), np.sin(a) * cos_b], axis=-1)
    cos_gamma = (flow_dir[:, None, :] @ params._probe_tap_axes.T)[:, 0]
    q = dynamic_pressure(va, params)
    return params.probe_static_pa + q * (1.0 - params.probe_sensitivity * (1.0 - cos_gamma**2))


def probe_pressures(flow: FlowState, params: PlantParams) -> ProbePressures:
    """Noise-free five tap pressures for the given local flow: the one-row
    case of `probe_taps`."""
    return ProbePressures(probe_taps(flow.va, [flow.alpha_deg], [flow.beta_deg], params)[0])


def true_affine_terms(va: float, alpha_deg, beta_deg, params: PlantParams):
    """Noise-free (A, B), y = A + B u, at airspeed va and the wing's flow angles (a
    gusty condition adds its wing gust); A is (6,) for floats, (n, 6) for arrays."""
    q_s = dynamic_pressure(va, params) * params.wing_area
    a = q_s * params.baseline_coefficients(alpha_deg, beta_deg)
    return np.moveaxis(a, 0, -1), q_s * params.control_matrix()


@dataclass(frozen=True)
class RunTerms:
    """A run's command-independent plant terms, one row per step (`run_terms`).

    Noise columns hold each step's sensor noise in the order the plant draws
    it; the probe features already carry theirs.
    """

    q: float                  # dynamic pressure, Pa
    q_s: float                # q times the wing area
    tap_c: np.ndarray         # (7,) wing-tap coupling to the right flaperon
    control: np.ndarray       # (6, 4) control matrix
    gusts: np.ndarray         # (n, 3, 2) gust pairs at `LOCATIONS`
    features: np.ndarray      # (n, 6) probe features
    wing_base: np.ndarray     # (n, 7) tap_a + tap_b * wing alpha
    wing_gust: np.ndarray     # (n, 7) tap_d * (d_alpha + d_beta) at the wing
    wing_noise: np.ndarray    # (n, 7)
    c0: np.ndarray            # (n, 6) baseline coefficients at the wing's flow angles
    wrench_noise: np.ndarray  # (n, 6)


def _noise_scales(params: PlantParams, calibrated: bool) -> np.ndarray:
    """One step's noise sigmas in draw order: each of `PROBES` (its `TAPS` taps
    when calibrated, else its `FLOW_VALUES` airspeed and angles), the wing's
    `WING_TAPS` taps, three forces and three torques."""
    probe = ((params.probe_noise_pa,) * TAPS if calibrated
             else (params.est_noise_va, params.est_noise_angle_deg, params.est_noise_angle_deg))
    return np.array([*probe * len(PROBES), *(params.wing_noise_pa,) * WING_TAPS,
                     *(params.force_noise_n,) * 3, *(params.torque_noise_nm,) * 3])


def _normal_table(rng: np.random.Generator, n: int, scales: np.ndarray) -> np.ndarray:
    """(n, k) normals with column sigmas `scales`: the numbers of n rows of `rng.normal` draws."""
    noise = rng.standard_normal((n, scales.size))
    noise *= scales
    noise += 0.0  # rng.normal(0.0, s) gives 0.0 + s*z, which has no -0.0
    return noise


def run_terms(
    params: PlantParams,
    va: float,
    t: np.ndarray,
    alpha_deg: np.ndarray,
    beta_deg: np.ndarray,
    gust: GustState = GustState(),
    rng: np.random.Generator | None = None,
    probe_models=None,
) -> RunTerms:
    """Everything about a run at airspeed va over the commanded schedule (t,
    alpha, beta) that does not depend on the command.

    Checks the schedule first: every time and angle finite, and the commanded
    angles inside the +-15 deg envelope (`OutOfEnvelopeError` names the first
    step outside it). The sensor noise of all steps comes from one
    `rng.standard_normal((n, k))` call scaled per column, the same numbers as
    per-step `rng.normal` draws in the plant's order (k = 19 in ideal mode,
    23 with `probe_models`); without `rng` the run is noise-free. With
    `probe_models` (a pair of calibration networks) the probe features go
    through the full sensing chain, one `probe_taps` and one
    `probe.estimate_flow_rows` call per probe for the whole run: simulated
    tap pressures -> normalize -> network -> airspeed reconstruction, with
    the network run at most `probe.ROWS_PER_BLOCK` rows at a time. Each step's
    features equal the one-reading `probe_pressures` and `estimate_flow`
    calls bit for bit, and a failed estimate raises as they do, naming the
    probe and its row, which is the step. Without them, "ideal" mode takes
    the true local flow at each probe plus a small residual mimicking
    calibration error.
    """
    _check_airspeed(va)
    va = float(va)
    t, alpha, beta = (np.asarray(x, dtype=float) for x in (t, alpha_deg, beta_deg))
    if not (np.isfinite(t).all() and np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError("schedule times and flow angles must be finite")
    outside = np.flatnonzero((np.abs(alpha) > ENVELOPE_DEG) | (np.abs(beta) > ENVELOPE_DEG))
    if outside.size:
        k = outside[0]
        raise OutOfEnvelopeError(
            f"alpha={alpha[k]:.1f}, beta={beta[k]:.1f} deg at t={t[k]:g} s "
            f"outside the +-{ENVELOPE_DEG:.0f} deg envelope"
        )

    calibrated = probe_models is not None
    scales = _noise_scales(params, calibrated)
    noise = (np.full((t.size, scales.size), -0.0) if rng is None  # x + -0.0 is x, bit for bit
             else _normal_table(rng, t.size, scales))
    n_probe = TAPS if calibrated else FLOW_VALUES

    gusts = gust_field(gust, t, va, params)
    features = np.empty((t.size, PROBE_FEATURES))
    for i, loc in enumerate(PROBES):
        al, be = alpha + gusts[:, i, 0], beta + gusts[:, i, 1]
        probe_noise = noise[:, n_probe * i:n_probe * (i + 1)]
        flow = features[:, FLOW_VALUES * i:FLOW_VALUES * (i + 1)]  # this probe's columns
        if calibrated:
            taps = probe_taps(va, al, be, params) + probe_noise
            try:
                flow[:] = probe_mod.estimate_flow_rows(probe_models[i], taps, params.rho)
            except ValueError as exc:  # NoFlowError is one too
                raise type(exc)(f"{loc}: {exc}") from None
        else:
            v = va + probe_noise[:, 0]
            flow[:, 0] = np.where(0.0 > v, 0.0, v)  # max(v, 0.0), as for a float
            flow[:, 1] = al + probe_noise[:, 1]
            flow[:, 2] = be + probe_noise[:, 2]

    tap_a, tap_b, tap_c, tap_d = params._wing_taps
    d_alpha, d_beta = gusts[:, -1, 0], gusts[:, -1, 1]  # the wing's
    wing_alpha, wing_beta = alpha + d_alpha, beta + d_beta
    q = dynamic_pressure(va, params)
    return RunTerms(
        q=q,
        q_s=q * params.wing_area,
        tap_c=tap_c,
        control=params.control_matrix(),
        gusts=gusts,
        features=features,
        wing_base=tap_a + tap_b * wing_alpha[:, None],
        wing_gust=tap_d * (d_alpha + d_beta)[:, None],
        wing_noise=noise[:, -WRENCH_DIM - WING_TAPS:-WRENCH_DIM],
        c0=np.ascontiguousarray(params.baseline_coefficients(wing_alpha, wing_beta).T),
        wrench_noise=noise[:, -WRENCH_DIM:],
    )


def make_observation(terms: RunTerms, k: int | slice, u: np.ndarray) -> np.ndarray:
    """The probe features, then seven wing-surface tap pressures in Pa, at step
    k of a run under the command `u`: (13,) for a step index and a (4,) `u`,
    or, for a slice of n steps and an (n, 4) `u`, the n one-step results.

    All taps sit on the right wing, so they couple to the right flaperon
    only; the leading-edge taps (0 and 4) carry the largest gust sensitivity.
    Each tap reads q*(a + b*alpha_wing + c*u[1] + d*(d_alpha + d_beta)) plus
    noise, summed in that order.
    """
    # one step scales by u[1] itself, the bits of a (1,) column without its broadcasting
    tap_u = terms.tap_c * (u[1] if u.ndim == 1 else u[..., 1, None])
    wing = terms.q * ((terms.wing_base[k] + tap_u) + terms.wing_gust[k]) + terms.wing_noise[k]
    return np.concatenate((terms.features[k], wing), axis=-1)


def true_wrench(terms: RunTerms, k: int | slice, u: np.ndarray) -> np.ndarray:
    """Ground-truth forces and torques q*S*(C0(wing flow) + D u) plus noise at
    step k, shaped as `make_observation`'s result, (6,) or (n, 6).

    Exactly affine in u at each step. The gust enters through the wing-local
    flow angles in the baseline term. D u is one matrix-vector product per
    row, which keeps a slice's rows the one-step results bit for bit; one step
    takes it through ndarray.dot, the same bits at about half the call cost.
    """
    d_u = terms.control.dot(u) if u.ndim == 1 else (terms.control @ u[..., None])[..., 0]
    return terms.q_s * (terms.c0[k] + d_u) + terms.wrench_noise[k]


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------


def band_limited_walk(
    rng: np.random.Generator, n_steps: int, ar: float, sigma: float, limit: float
) -> np.ndarray:
    """Seeded AR(1) excitation clipped to +-limit, (n_steps, CONTROL_DIM); a
    protocol's settings come from `_excitation_args`. One draw gives the noise of
    every step, and the AR state runs unclipped, so the walk is clipped once."""
    out = rng.normal(0.0, sigma, size=(n_steps, CONTROL_DIM))
    for t in range(1, n_steps):
        out[t] += ar * out[t - 1]
    return np.clip(out, -limit, limit, out=out)


# The protocol keys each generator reads; any other key (a typo) is rejected.
SCHEDULE_KEYS = {"stage", "dt", "duration_s", "alpha_range", "beta_range", "setpoints", "hold_s"}
DYNAMICS_KEYS = SCHEDULE_KEYS | {"kind", "name", "speed", "excitation", "gust"}
CALIBRATION_KEYS = {"kind", "name", "speeds", "alphas", "betas", "repeats", "dt",
                    "exclude_points", "gust"}
EXCITATION_KEYS = {"ar", "sigma", "limit"}
GUST_KEYS = {f.name for f in fields(GustState)}


def _check_keys(block: dict, known: set, what: str) -> None:
    if not isinstance(block, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(block).__name__}")
    unknown = sorted(set(block) - known)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; it reads {sorted(known)}")


def _check_block(block: dict, known: set, what: str) -> None:
    """The `excitation` or `gust` block of a protocol: known keys, each holding a
    number but for the gust's `mode`."""
    _check_keys(block, known, what)
    for key, value in block.items():
        if key != "mode" and not _is_number(value):
            raise ValueError(f"{what} {key} must be a number, got {value!r}")


def _value(protocol: dict, key: str, default, valid, what: str):
    """protocol[key], or `default` where it is not given, for which `valid` holds."""
    value = protocol.get(key, default)
    if not valid(value):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def _is_numbers(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


def _is_pair(value) -> bool:
    return _is_numbers(value) and len(value) == 2


def _is_file_name(name) -> bool:
    """A plain file name, so that every file lands in the output directory."""
    return isinstance(name, str) and name not in ("", ".", "..") and Path(name).name == name


def _seconds(protocol: dict, key: str, default: float) -> float:
    value = float(_value(protocol, key, default, _is_number, "a number"))
    probe_mod._check_positive_finite(value, key)
    return value


def _excitation_args(spec: dict) -> dict:
    """The band_limited_walk settings of a protocol's `excitation` block, checked
    before any step runs; `limit` keeps every command inside the actuator limits."""
    _check_block(spec, EXCITATION_KEYS, "excitation")
    ar = float(spec.get("ar", 0.95))
    sigma = float(spec.get("sigma", 1.2))
    limit = float(spec.get("limit", CONTROL_LIMIT_DEG))
    if not math.isfinite(ar):
        raise ValueError(f"excitation ar must be finite, got {ar}")
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"excitation sigma must be finite and >= 0, got {sigma}")
    if not 0.0 < limit <= CONTROL_LIMIT_DEG:
        raise ValueError(
            f"excitation limit must be in (0, {CONTROL_LIMIT_DEG:g}] deg, got {limit}"
        )
    return {"ar": ar, "sigma": sigma, "limit": limit}


def gust_from_spec(spec: dict | None, va: float, params: PlantParams) -> GustState:
    """The gust of a protocol's `gust` block: None, or an object whose keys are
    `GustState` fields and whose values other than `mode` are numbers."""
    _check_airspeed(va)  # before a shedding frequency is derived from it
    if spec is None:
        return GustState()
    _check_block(spec, GUST_KEYS, "gust")
    if spec.get("mode", "off") == "off":
        return GustState()
    spec = dict(spec)
    mode = spec.pop("mode")
    if mode == "shedding" and "frequency_hz" not in spec:
        _check_shedding_airspeed(va)
        # Strouhal-like rule for the generator wing's shedding frequency.
        spec["frequency_hz"] = 0.2 * va / params.chord
    return GustState(mode=mode, **spec)


def _smooth_trajectory(
    rng: np.random.Generator, t: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Slow two-tone sweep covering [lo, hi], for stage-I condition schedules."""
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    f1, f2 = rng.uniform(0.03, 0.08), rng.uniform(0.1, 0.2)
    ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    raw = 0.75 * np.sin(2.0 * np.pi * f1 * t + ph1) + 0.25 * np.sin(2.0 * np.pi * f2 * t + ph2)
    return center + half * raw


def _excluded_points(entries, grid: set) -> set:
    """`exclude_points`, each checked to be (speed, alpha, beta) of a grid point."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"exclude_points must be a list, got {entries!r}")
    for entry in entries:
        if not (_is_numbers(entry) and len(entry) == 3):
            raise ValueError(f"exclude_points entry {entry!r} is not 3 numbers")
        if tuple(entry) not in grid:
            raise ValueError(f"exclude_points entry {entry!r} is not a point of the grid")
    return {tuple(entry) for entry in entries}


def generate_calibration_data(
    protocol: dict, params: PlantParams, seed: int, out_dir: str | Path
) -> list[Path]:
    """Grid calibration runs for both probes; one CSV per probe.

    Rows go by speed, alpha, beta, each point `repeats` times `dt` apart, with
    one `gust_field` call per speed, one `probe_taps` call per speed and probe,
    and all probe noise from one draw (probe0's five taps, then probe1's, per
    row). Labels are the true local flow at each probe, which equals the
    commanded grid point whenever the gust is off.
    """
    _check_keys(protocol, CALIBRATION_KEYS, "calibration protocol")
    name = _value(protocol, "name", "calib", _is_file_name, "a plain file name")
    speeds = _value(protocol, "speeds", [8.0, 10.0, 12.0], _is_numbers, "a list of numbers")
    alphas, betas = (_value(protocol, key, [-10.0, -5.0, 0.0, 5.0, 10.0], _is_numbers,
                            "a list of numbers") for key in ("alphas", "betas"))
    repeats = int(_value(protocol, "repeats", 24,
                         lambda n: _is_number(n) and float(n).is_integer() and n >= 1,
                         ">= 1 and a whole number"))
    dt = _seconds(protocol, "dt", 0.02)
    points = {(va, alpha, beta) for va in speeds for alpha in alphas for beta in betas}
    exclude = _excluded_points(protocol.get("exclude_points", []), points)
    blocks = []  # per speed: its gust and the (alpha, beta) of its rows
    for va in speeds:
        angles = [(a, b) for a in alphas for b in betas if (va, a, b) not in exclude]
        blocks.append((va, gust_from_spec(protocol.get("gust"), va, params),
                       np.repeat(np.reshape(angles, (-1, 2)), repeats, axis=0)))
    n = sum(len(angles) for *_, angles in blocks)
    if n == 0:
        raise ValueError("calibration protocol produces no rows")

    noise = _normal_table(np.random.default_rng(seed), n,
                          np.full(len(PROBES) * TAPS, params.probe_noise_pa))
    noise = noise.reshape(n, len(PROBES), TAPS)  # row, probe, tap
    rows = tuple([] for _ in PROBES)
    start = 0
    for va, gust, angles in blocks:
        stop = start + len(angles)
        local = gust_field(gust, np.arange(start, stop) * dt, va, params)
        for i, probe_rows in enumerate(rows):
            flow = angles + local[:, i]
            taps = probe_taps(va, flow[:, 0], flow[:, 1], params) + noise[start:stop, i]
            probe_rows.extend((ProbePressures(p), FlowState(va, a, b))
                              for p, (a, b) in zip(taps, flow.tolist()))
        start = stop

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{name}_{loc}.csv" for loc in PROBES]
    for path, probe_rows in zip(paths, rows):
        probe_mod.save_calibration_csv(path, probe_rows)
    return paths


def stage_schedule(
    protocol: dict, params: PlantParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Commanded (t, alpha, beta) series for a stage-I sweep or stage-II holds."""
    dt = _seconds(protocol, "dt", 0.02)
    stage = protocol.get("stage", "I")
    if stage == "I":
        duration = _seconds(protocol, "duration_s", 60.0)
        t = np.arange(int(round(duration / dt))) * dt
        ranges = [_value(protocol, key, [-10.0, 10.0], _is_pair, "two numbers [low, high]")
                  for key in ("alpha_range", "beta_range")]
        alpha, beta = (_smooth_trajectory(rng, t, lo, hi) for lo, hi in ranges)
    elif stage == "II":
        setpoints = _value(protocol, "setpoints", [[0.0, 0.0], [5.0, -5.0], [-5.0, 5.0]],
                           lambda v: isinstance(v, (list, tuple)) and v and all(map(_is_pair, v)),
                           "a non-empty list of [alpha, beta] pairs")
        n_hold = int(round(_seconds(protocol, "hold_s", 15.0) / dt))
        alpha = np.concatenate([np.full(n_hold, sp[0]) for sp in setpoints])
        beta = np.concatenate([np.full(n_hold, sp[1]) for sp in setpoints])
        t = np.arange(alpha.size) * dt
    else:
        raise ValueError(f"unknown stage {stage!r}")
    if t.size == 0:
        raise ValueError(f"protocol schedule has no steps (dt {dt})")
    return t, alpha, beta


def speed_label(speed: float) -> str:
    """`va<S>`, a speed's name in file names and report keys: S is its `:g` text where
    that reads back as the same float, else its `repr`, so no two speeds share one."""
    text = f"{speed:g}"
    return f"va{text if float(text) == speed else repr(float(speed))}"


def generate_dynamics_data(
    protocol: dict,
    params: PlantParams,
    seed: int,
    out_dir: str | Path,
    probe_models=None,
) -> list[Path]:
    """One closed excitation run at a fixed tunnel speed -> dynamics CSV.

    The run's terms come from `run_terms`, and its observations and wrenches
    from one `make_observation` and one `true_wrench` call over all steps.
    Also writes a `<name>_conditions.csv` companion with the commanded
    schedule, so held-setpoint protocols are auditable even though the
    observation columns carry gust- and noise-perturbed values.
    """
    _check_keys(protocol, DYNAMICS_KEYS, "dynamics protocol")
    speed = float(_value(protocol, "speed", 10.0, _is_number, "a number"))
    name = _value(protocol, "name", "dyn_" + speed_label(speed), _is_file_name, "a plain file name")
    excitation = _excitation_args(protocol.get("excitation", {}))
    rng = np.random.default_rng(seed)
    t, alpha, beta = stage_schedule(protocol, params, rng)
    controls = band_limited_walk(rng, t.size, **excitation)
    gust = gust_from_spec(protocol.get("gust"), speed, params)

    terms = run_terms(params, speed, t, alpha, beta, gust, rng, probe_models)
    obs_rows = make_observation(terms, slice(None), controls)  # every step at once
    y_rows = true_wrench(terms, slice(None), controls)
    cond_rows = np.column_stack([t, alpha, beta, terms.gusts[:, -1]])  # and the wing's gust

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / f"{name}.csv"
    cond_path = out_dir / f"{name}_conditions.csv"
    save_dynamics_csv(data_path, (obs_rows, controls, y_rows))
    write_table(cond_path, CONDITIONS_CSV_HEADER, (
        [time, speed, a, b, gust.mode, d_alpha, d_beta]
        for time, a, b, d_alpha, d_beta in map(np.ndarray.tolist, cond_rows)
    ))
    return [data_path, cond_path]


def generate_dataset(
    protocol: dict | str | Path,
    params: PlantParams,
    seed: int,
    out_dir: str | Path,
    probe_models=None,
) -> list[Path]:
    """Dispatch on the protocol's `kind`; accepts a dict or a JSON file path.
    `probe_models` serve a dynamics protocol only: a calibration grid reads raw taps."""
    if not isinstance(protocol, dict):
        protocol = nncore.load_json(protocol, dict, "protocol")
    kind = protocol.get("kind")
    if kind == "calibration":
        if probe_models is not None:
            raise ValueError("a calibration protocol reads raw taps; it takes no probe models")
        return generate_calibration_data(protocol, params, seed, out_dir)
    if kind == "dynamics":
        return generate_dynamics_data(protocol, params, seed, out_dir, probe_models=probe_models)
    raise ValueError(f"unknown protocol kind {kind!r}")


def plant_params_from_json(path: str | Path) -> PlantParams:
    """`PlantParams` from the JSON object in `path`; a file that does not parse
    or holds no object raises ValueError naming it, a bad field one naming the field."""
    return PlantParams(**nncore.load_json(path, dict, "plant parameter file"))
