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
cancel, so the true control matrix satisfies the left/right mirror pattern
under the default sign vector.

The gust is generated upstream and advects downstream, so each sensing
location sees it with its own strength and time lag: the nose-mounted probes
lead the wing taps. Instantaneous probe readings therefore never fully
determine the wing-local disturbance, which is exactly the gap the wing taps
fill.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import probe as probe_mod
from .probe import AirDensity, FlowState, ProbePressures
from .dynamics import CONTROL_LIMIT_DEG, OBS_DIM, WRENCH_DIM, save_dynamics_csv
from .table import write_table

log = logging.getLogger(__name__)

LOCATIONS = ("probe0", "probe1", "wing")
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


@dataclass(frozen=True)
class TunnelCondition:
    va: float
    alpha_deg: float
    beta_deg: float
    gust: GustState = GustState()
    time: float = 0.0

    def __post_init__(self) -> None:
        _check_airspeed(self.va)
        if not (math.isfinite(self.alpha_deg) and math.isfinite(self.beta_deg)
                and math.isfinite(self.time)):
            raise ValueError(f"flow angles and time must be finite, got {self!r}")


@dataclass
class PlantParams:
    """Geometry, aerodynamic derivatives, sensor layout, and noise levels."""

    rho: float = 1.225          # kg/m^3
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
    gust_weight: dict = field(
        default_factory=lambda: {"probe0": 1.0, "probe1": 0.3, "wing": 0.7}
    )
    streamwise_offset_m: dict = field(
        default_factory=lambda: {"probe0": 0.0, "probe1": 0.0, "wing": 0.3}
    )
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
        if min(self.rho, self.wing_area, self.chord, self.span) <= 0.0:
            raise ValueError("rho, wing area, span, and chord must be positive")
        for name in ("wing_tap_a", "wing_tap_b", "wing_tap_c", "wing_tap_d"):
            if len(getattr(self, name)) != 7:
                raise ValueError(f"{name} must list 7 tap coefficients")

    def control_matrix(self) -> np.ndarray:
        """True 6x4 control sensitivity in coefficient form.

        Moment rows carry their reference lengths, so q*S*(D @ u) is a wrench.
        Column order (left flaperon, right flaperon, elevator, rudder); the
        flaperon columns satisfy the mirror pattern exactly by construction.
        """
        b, c = self.span, self.chord
        return np.array(
            [
                [-self.flap_cfx, self.flap_cfx, -self.elev_cfx, -self.rud_cfx],
                [self.flap_cfy, self.flap_cfy, 0.0, self.rud_cfy],
                [self.flap_cfz, -self.flap_cfz, self.elev_cfz, 0.0],
                [self.flap_croll * b, self.flap_croll * b, 0.0, self.rud_croll * b],
                [-self.flap_cm * c, self.flap_cm * c, self.elev_cm * c, 0.0],
                [self.flap_cn * b, self.flap_cn * b, 0.0, self.rud_cn * b],
            ]
        )

    def baseline_coefficients(self, alpha_deg: float, beta_deg: float) -> np.ndarray:
        """Zero-deflection wrench coefficients at the given flow angles."""
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


def gust_perturbation(
    gust: GustState, time: float, location: str, va: float, params: PlantParams
) -> tuple[float, float]:
    """Gust-induced (d_alpha, d_beta) in degrees at a sensing location.

    Shedding advects with the freestream: a location `x` meters downstream
    sees the signal delayed by x/Va.
    """
    if location not in LOCATIONS:
        raise ValueError(f"location must be one of {LOCATIONS}, got {location!r}")
    weight = params.gust_weight[location]
    if gust.mode == "off":
        return 0.0, 0.0
    if gust.mode == "shear":
        return 0.0, weight * params.shear_beta_per_yaw * gust.yaw_deg
    if gust.amplitude == 0.0:
        return 0.0, 0.0
    speed = max(va, 0.1)
    angle_amp = np.degrees(np.arctan2(gust.amplitude, speed))
    lag = params.streamwise_offset_m[location] / speed
    ph = 2.0 * np.pi * gust.frequency_hz * (time - lag) + gust.phase
    return weight * angle_amp * float(np.sin(ph)), weight * angle_amp * float(np.cos(ph))


def wing_gust_angles(cond: TunnelCondition, params: PlantParams) -> tuple[float, float]:
    """The condition's gust (d_alpha, d_beta) at the wing.

    `wing_pressures`, `true_wrench` and `make_observation` take it as
    `wing_gust=`, so a caller that needs it more than once per condition
    evaluates it once; without it they evaluate it themselves.
    """
    return gust_perturbation(cond.gust, cond.time, "wing", cond.va, params)


def local_flow(cond: TunnelCondition, location: str, params: PlantParams) -> FlowState:
    """Freestream plus the location's gust perturbation."""
    d_alpha, d_beta = gust_perturbation(cond.gust, cond.time, location, cond.va, params)
    return FlowState(
        va=cond.va, alpha_deg=cond.alpha_deg + d_alpha, beta_deg=cond.beta_deg + d_beta
    )


def probe_pressures(
    flow: FlowState, params: PlantParams, rng: np.random.Generator | None = None
) -> ProbePressures:
    """Five tap pressures for the given local flow.

    Each tap reads q*(1 - k*sin^2(angle between flow and tap axis)) above
    static; with k=2 and a 45 degree cone the center tap spread equals q at
    zero incidence, so the dynamic-pressure correction is near 1 on-axis.
    """
    a = np.radians(flow.alpha_deg)
    b = np.radians(flow.beta_deg)
    flow_dir = np.array([np.cos(a) * np.cos(b), np.sin(b), np.sin(a) * np.cos(b)])
    c, s = np.cos(np.radians(params.probe_cone_deg)), np.sin(np.radians(params.probe_cone_deg))
    tap_axes = np.array(
        [
            [1.0, 0.0, 0.0],   # center
            [c, 0.0, -s],      # up (-z body)
            [c, 0.0, s],       # down
            [c, -s, 0.0],      # left (-y body)
            [c, s, 0.0],       # right
        ]
    )
    cos_gamma = tap_axes @ flow_dir
    q = dynamic_pressure(flow.va, params)
    taps = params.probe_static_pa + q * (
        1.0 - params.probe_sensitivity * (1.0 - cos_gamma**2)
    )
    if rng is not None:
        taps = taps + rng.normal(0.0, params.probe_noise_pa, size=5)
    return ProbePressures(taps)


def wing_pressures(
    cond: TunnelCondition,
    u: np.ndarray,
    params: PlantParams,
    rng: np.random.Generator | None = None,
    wing_gust: tuple[float, float] | None = None,
) -> np.ndarray:
    """Seven wing-surface tap pressures in Pa for the (4,) command `u`.

    All taps sit on the right wing, so they couple to the right flaperon only;
    the leading-edge taps (0 and 4) carry the largest gust sensitivity.
    """
    d_alpha, d_beta = wing_gust_angles(cond, params) if wing_gust is None else wing_gust
    gust_term = d_alpha + d_beta
    q = dynamic_pressure(cond.va, params)
    taps = q * (
        np.asarray(params.wing_tap_a)
        + np.asarray(params.wing_tap_b) * (cond.alpha_deg + d_alpha)
        + np.asarray(params.wing_tap_c) * u[1]
        + np.asarray(params.wing_tap_d) * gust_term
    )
    if rng is not None:
        taps = taps + rng.normal(0.0, params.wing_noise_pa, size=7)
    return taps


def true_wrench(
    cond: TunnelCondition,
    u: np.ndarray,
    params: PlantParams,
    rng: np.random.Generator | None = None,
    wing_gust: tuple[float, float] | None = None,
) -> np.ndarray:
    """Ground-truth (6,) forces and torques: q*S*(C0(local flow) + D u) plus noise.

    Exactly affine in u for a fixed condition. The gust enters through the
    wing-local flow angles in the baseline term.
    """
    if abs(cond.alpha_deg) > ENVELOPE_DEG or abs(cond.beta_deg) > ENVELOPE_DEG:
        raise OutOfEnvelopeError(
            f"|alpha|={abs(cond.alpha_deg):.1f}, |beta|={abs(cond.beta_deg):.1f} "
            f"outside the +-{ENVELOPE_DEG:.0f} deg envelope"
        )
    d_alpha, d_beta = wing_gust_angles(cond, params) if wing_gust is None else wing_gust
    q_s = dynamic_pressure(cond.va, params) * params.wing_area
    y = q_s * (
        params.baseline_coefficients(cond.alpha_deg + d_alpha, cond.beta_deg + d_beta)
        + params.control_matrix() @ u
    )
    if rng is not None:
        y = y + np.concatenate(
            [
                rng.normal(0.0, params.force_noise_n, size=3),
                rng.normal(0.0, params.torque_noise_nm, size=3),
            ]
        )
    return y


def true_affine_terms(
    cond: TunnelCondition, params: PlantParams
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free (A, B) of the plant at this condition: y = A + B u."""
    flow_w = local_flow(cond, "wing", params)
    q_s = dynamic_pressure(cond.va, params) * params.wing_area
    return (
        q_s * params.baseline_coefficients(flow_w.alpha_deg, flow_w.beta_deg),
        q_s * params.control_matrix(),
    )


def make_observation(
    cond: TunnelCondition,
    u: np.ndarray,
    params: PlantParams,
    rng: np.random.Generator | None = None,
    probe_models=None,
    rho: AirDensity | None = None,
    wing_gust: tuple[float, float] | None = None,
) -> np.ndarray:
    """Assemble the (13,) observation the wrench model consumes.

    With `probe_models` (a pair of calibration networks) the probe features go
    through the full sensing chain: simulated tap pressures -> normalize ->
    network -> airspeed reconstruction. Without them, "ideal" mode returns the
    true local flow at each probe plus a small residual mimicking calibration
    error.
    """
    rho = rho or AirDensity(params.rho)
    flows = [local_flow(cond, loc, params) for loc in ("probe0", "probe1")]
    feats = []
    if probe_models is not None:
        for model, flow in zip(probe_models, flows):
            taps = probe_pressures(flow, params, rng)
            est = probe_mod.estimate_flow(model, taps, rho)
            feats.extend([est.va, est.alpha_deg, est.beta_deg])
    else:
        for flow in flows:
            va, al, be = flow.va, flow.alpha_deg, flow.beta_deg
            if rng is not None:
                va += rng.normal(0.0, params.est_noise_va)
                al += rng.normal(0.0, params.est_noise_angle_deg)
                be += rng.normal(0.0, params.est_noise_angle_deg)
            feats.extend([max(va, 0.0), al, be])
    ps = wing_pressures(cond, u, params, rng, wing_gust)
    return np.concatenate([feats, ps])


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------


def band_limited_walk(
    rng: np.random.Generator,
    n_steps: int,
    n_channels: int = 4,
    ar: float = 0.95,
    sigma: float = 1.2,
    limit: float = 25.0,
) -> np.ndarray:
    """Seeded AR(1) excitation clipped to actuator limits, (n_steps, n_channels)."""
    x = np.zeros(n_channels)
    out = np.empty((n_steps, n_channels))
    for t in range(n_steps):
        x = ar * x + rng.normal(0.0, sigma, size=n_channels)
        out[t] = np.clip(x, -limit, limit)
    return out


def _excitation_args(spec: dict) -> dict:
    """The band_limited_walk settings of a protocol's `excitation` block, checked
    before any step runs; `limit` keeps every command inside the actuator limits."""
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
    _check_airspeed(va)  # before a shedding frequency is derived from it
    if not spec or spec.get("mode", "off") == "off":
        return GustState()
    spec = dict(spec)
    mode = spec.pop("mode")
    if mode == "shedding" and "frequency_hz" not in spec:
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


def generate_calibration_data(
    protocol: dict, params: PlantParams, seed: int, out_dir: str | Path
) -> list[Path]:
    """Grid calibration runs for both probes; one CSV per probe.

    Labels are the true local flow at each probe, which equals the commanded
    grid point whenever the gust is off.
    """
    speeds = protocol.get("speeds", [8.0, 10.0, 12.0])
    alphas = protocol.get("alphas", [-10.0, -5.0, 0.0, 5.0, 10.0])
    betas = protocol.get("betas", [-10.0, -5.0, 0.0, 5.0, 10.0])
    repeats = int(protocol.get("repeats", 24))
    dt = float(protocol.get("dt", 0.02))
    name = protocol.get("name", "calib")
    exclude = {tuple(pt) for pt in protocol.get("exclude_points", [])}

    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: dict[str, list] = {"probe0": [], "probe1": []}
    tick = 0
    for va in speeds:
        gust = gust_from_spec(protocol.get("gust"), va, params)
        for alpha in alphas:
            for beta in betas:
                if (va, alpha, beta) in exclude:
                    continue
                for _ in range(repeats):
                    cond = TunnelCondition(va, alpha, beta, gust=gust, time=tick * dt)
                    tick += 1
                    for loc in ("probe0", "probe1"):
                        flow = local_flow(cond, loc, params)
                        taps = probe_pressures(flow, params, rng)
                        rows[loc].append((taps, flow))
    paths = []
    for loc in ("probe0", "probe1"):
        path = out_dir / f"{name}_{loc}.csv"
        probe_mod.save_calibration_csv(path, rows[loc])
        paths.append(path)
    return paths


def stage_schedule(
    protocol: dict, params: PlantParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Commanded (t, alpha, beta) series for a stage-I sweep or stage-II holds."""
    dt = float(protocol.get("dt", 0.02))
    stage = protocol.get("stage", "I")
    if stage == "I":
        duration = float(protocol.get("duration_s", 60.0))
        t = np.arange(int(round(duration / dt))) * dt
        a_lo, a_hi = protocol.get("alpha_range", [-10.0, 10.0])
        b_lo, b_hi = protocol.get("beta_range", [-10.0, 10.0])
        alpha = _smooth_trajectory(rng, t, a_lo, a_hi)
        beta = _smooth_trajectory(rng, t, b_lo, b_hi)
    elif stage == "II":
        setpoints = protocol.get("setpoints", [[0.0, 0.0], [5.0, -5.0], [-5.0, 5.0]])
        hold = float(protocol.get("hold_s", 15.0))
        n_hold = int(round(hold / dt))
        alpha = np.concatenate([np.full(n_hold, sp[0]) for sp in setpoints])
        beta = np.concatenate([np.full(n_hold, sp[1]) for sp in setpoints])
        t = np.arange(alpha.size) * dt
    else:
        raise ValueError(f"unknown stage {stage!r}")
    return t, alpha, beta


def generate_dynamics_data(
    protocol: dict,
    params: PlantParams,
    seed: int,
    out_dir: str | Path,
    probe_models=None,
) -> list[Path]:
    """One closed excitation run at a fixed tunnel speed -> dynamics CSV.

    Also writes a `<name>_conditions.csv` companion with the commanded
    schedule, so held-setpoint protocols are auditable even though the
    observation columns carry gust- and noise-perturbed values.
    """
    speed = float(protocol.get("speed", 10.0))
    name = protocol.get("name", f"dyn_va{speed:g}")
    excitation = _excitation_args(protocol.get("excitation", {}))
    rng = np.random.default_rng(seed)
    t, alpha, beta = stage_schedule(protocol, params, rng)
    controls = band_limited_walk(rng, t.size, **excitation)
    gust = gust_from_spec(protocol.get("gust"), speed, params)

    obs_rows = np.empty((t.size, OBS_DIM))
    y_rows = np.empty((t.size, WRENCH_DIM))
    cond_rows = np.empty((t.size, 5))  # t, alpha, beta, and the wing's gust angles
    for k in range(t.size):
        cond = TunnelCondition(speed, float(alpha[k]), float(beta[k]), gust=gust, time=float(t[k]))
        u = controls[k]
        gust_w = wing_gust_angles(cond, params)
        obs_rows[k] = make_observation(cond, u, params, rng, probe_models, wing_gust=gust_w)
        y_rows[k] = true_wrench(cond, u, params, rng, gust_w)
        cond_rows[k] = (cond.time, cond.alpha_deg, cond.beta_deg, *gust_w)

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
    """Dispatch on the protocol's `kind`; accepts a dict or a JSON file path."""
    if not isinstance(protocol, dict):
        protocol = json.loads(Path(protocol).read_text())
    kind = protocol.get("kind")
    if kind == "calibration":
        return generate_calibration_data(protocol, params, seed, out_dir)
    if kind == "dynamics":
        return generate_dynamics_data(protocol, params, seed, out_dir, probe_models=probe_models)
    raise ValueError(f"unknown protocol kind {kind!r}")


def plant_params_from_json(path: str | Path) -> PlantParams:
    doc = json.loads(Path(path).read_text())
    return PlantParams(**doc)
