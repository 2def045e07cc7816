"""Flat dotted-key run configuration with exhaustive validation.

The format is one `key = value` assignment per line, `#` comments, vectors
as space-separated numbers. Unknown keys are hard errors: a typo in a
physics constant must never silently fall back to a default. Validation
collects every problem in one pass and reports each with its line anchor.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import TABLEAUX, IntegratorSpec, h_total, scaling_amplitudes
from .fields import (
    SinusoidalElectrostatic,
    SinusoidalMagnetostatic,
    SternGerlach,
    Uniform,
)
from .kinematics import PhaseState
from .params import ParticleParams

MODES = ("simulate", "boost", "verify-algebra", "verify-fw", "report")
PROFILES = ("default", "negative-result")
# field model -> (its class, {constructor argument: the config key it takes}), the one model-to-keys table
FIELD_MODELS = {
    "uniform": (Uniform, {"E0": "field.e", "B0": "field.b"}),
    "stern-gerlach": (SternGerlach, {"B0": "field.b0", "b": "field.grad"}),
    "sin-electrostatic": (SinusoidalElectrostatic, {"lam": "field.lam", "L": "field.period"}),
    "sin-magnetostatic": (SinusoidalMagnetostatic, {"lam": "field.lam", "L": "field.period"}),
}

# key -> (type, default). Types: float, int, vec3, floats, str, choice:a|b
SCHEMA = {
    "particle.m": ("float", 1.0),
    "particle.e": ("float", 0.7),
    "particle.mu_prime": ("float", 0.13),
    "field.model": ("choice:" + "|".join(FIELD_MODELS), "uniform"),
    "field.b": ("vec3", (0.0, 0.0, 1.0)),
    "field.e": ("vec3", (0.0, 0.0, 0.0)),
    "field.b0": ("float", 5.0),
    "field.grad": ("float", 0.01),
    "field.lam": ("float", 0.01),
    "field.period": ("float", 2.0 * math.pi),
    "state.x": ("vec3", (0.0, 0.0, 0.0)),
    "state.p": ("vec3", (0.0, 0.0, 0.0)),
    "state.s": ("vec3", (1.0, 0.0, 0.5)),
    "duration": ("float", 5.0),
    "integrator.method": ("choice:" + "|".join(TABLEAUX), "rk4"),
    "integrator.step": ("float", 1e-3),
    "integrator.tol": ("float", 1e-10),
    "amplitudes": ("floats", (1e-2, 1e-3, 1e-4)),
    "boost.beta_max": ("float", 0.5),
    "seed": ("int", 20260814),
    "order": ("int", 8),
    "profile": ("choice:" + "|".join(PROFILES), "default"),
    "out": ("str", ""),
}

# key -> the modes that read it; every other mode refuses the key, since it
# would change nothing there. seed and out are accepted by every mode, so one
# command line can drive any of them.
READ_BY = {
    # simulate's particle, field, initial state and integrator
    **{key: ("simulate",) for key in SCHEMA if key.startswith(("particle.", "field.", "state.", "integrator."))},
    "duration": ("simulate",),
    "amplitudes": ("boost", "verify-fw"),
    "boost.beta_max": ("boost",),
    "order": ("verify-algebra",),
    "profile": ("verify-fw",),
    "seed": MODES,
    "out": MODES,
}

# rkf45's error estimate carries round-off of about 1e-16 relative to y, so a
# smaller tol is never met: the stepper crawls at round-off-sized steps
TOL_FLOOR = 1e-15

# boost draws each boost speed |beta| from [BETA_FLOOR, boost.beta_max]
BETA_FLOOR = 0.1

# key -> (selector, the selector values under which the run reads the key): a field key is read by the
# models whose constructor takes it, integrator.tol by the methods with error weights. A key set while
# its selector ignores it would change nothing, so it is refused
SELECTED_BY = {
    "integrator.tol": ("integrator.method", tuple(m for m, (_, _, err) in TABLEAUX.items() if err is not None)),
    **{key: ("field.model", tuple(name for name, (_, takes) in FIELD_MODELS.items() if key in takes.values()))
       for _, takes in FIELD_MODELS.values() for key in takes.values()},
}


class ConfigError(Exception):
    """Carries the complete list of validation failures."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _finite(tok: str) -> float:
    v = float(tok)
    if not math.isfinite(v):
        raise ValueError(f"{tok!r} is not a finite number")
    return v


def _parse_value(kind: str, raw: str):
    if kind == "float":
        return _finite(raw)
    if kind == "int":
        return int(raw, 0)
    if kind == "vec3":
        parts = [_finite(tok) for tok in raw.split()]
        if len(parts) != 3:
            raise ValueError("expected exactly 3 components")
        return tuple(parts)
    if kind == "floats":
        parts = [_finite(tok) for tok in raw.replace(",", " ").split()]
        if not parts:
            raise ValueError("expected at least one number")
        return tuple(parts)
    if kind.startswith("choice:"):
        options = kind.split(":", 1)[1].split("|")
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return raw
    return raw


@dataclass(frozen=True)
class RunConfig:
    mode: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @property
    def out(self) -> str:
        return self.values["out"] or f"runs/{self.mode}"

    def particle(self) -> ParticleParams:
        return ParticleParams.from_moment(
            m=self.values["particle.m"],
            e=self.values["particle.e"],
            mu_prime=self.values["particle.mu_prime"],
        )

    def field_model(self):
        cls, takes = FIELD_MODELS[self.values["field.model"]]
        return cls(**{arg: self.values[key] for arg, key in takes.items()})

    def integrator(self) -> IntegratorSpec:
        return IntegratorSpec(
            method=self.values["integrator.method"],
            step=self.values["integrator.step"],
            tol=self.values["integrator.tol"],
        )

    def state0(self) -> PhaseState:
        return PhaseState(
            np.array(self.values["state.x"]),
            np.array(self.values["state.p"]),
            np.array(self.values["state.s"]),
        )

    def canonical_text(self) -> str:
        # the artifact directory is plumbing, not physics: leaving it out
        # keeps the config hash (and results.json) identical across reruns
        lines = [f"mode = {self.mode}"]
        for key in sorted(self.values):
            if key == "out":
                continue
            v = self.values[key]
            if isinstance(v, tuple):
                v = " ".join(repr(float(c)) for c in v)
            lines.append(f"{key} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _range_errors(values: dict, anchors: dict) -> list:
    """Domain checks beyond parse-level typing; each names its key."""

    def at(key):
        line = anchors.get(key)
        return f"line {line}: " if line else ""

    errs = []
    if values["particle.m"] <= 0:
        errs.append(f"{at('particle.m')}particle.m: mass must be positive")
    # the squares are summed as PhaseState sums them, so the same spins pass
    if not 0.0 < sum(c * c for c in values["state.s"]) < math.inf:
        errs.append(f"{at('state.s')}state.s: spin must be nonzero, and |s|^2 must not overflow or underflow")
    if not values["boost.beta_max"] < 1.0:
        errs.append(f"{at('boost.beta_max')}boost.beta_max: |beta| must be < 1")
    elif not values["boost.beta_max"] > BETA_FLOOR:
        errs.append(f"{at('boost.beta_max')}boost.beta_max: must exceed {BETA_FLOOR:g}, the least |beta| boost draws")
    if values["duration"] <= 0:
        errs.append(f"{at('duration')}duration: must be positive")
    if values["integrator.step"] <= 0:
        errs.append(f"{at('integrator.step')}integrator.step: must be positive")
    elif values["duration"] > 0 and TABLEAUX[values["integrator.method"]][2] is None:
        # the step count integrate takes, max(1, round(duration / step)), against its cap
        ratio = values["duration"] / values["integrator.step"]
        if ratio == math.inf or max(1, round(ratio)) > IntegratorSpec.max_steps:
            errs.append(
                f"{at('integrator.step') or at('duration')}integrator.step: duration / step exceeds "
                f"{IntegratorSpec.max_steps} fixed steps, the most one integration takes"
            )
    if not values["integrator.tol"] >= TOL_FLOOR:
        errs.append(
            f"{at('integrator.tol')}integrator.tol: must be at least {TOL_FLOOR:g}, "
            "the round-off floor of rkf45's error estimate"
        )
    if values["field.period"] <= 0:
        errs.append(f"{at('field.period')}field.period: must be positive")
    try:
        scaling_amplitudes(values["amplitudes"])
    except ValueError as exc:
        errs.append(f"{at('amplitudes')}{exc}")
    if values["seed"] < 0 or values["seed"] >= 2 ** 64:
        errs.append(f"{at('seed')}seed: must fit in an unsigned 64-bit integer")
    if values["order"] < 1:
        errs.append(f"{at('order')}order: must be at least 1")
    return errs


def parse_lines(lines):
    """Parse key = value lines; returns (values, anchors, errors)."""
    values, anchors, errors = {}, {}, []
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "mode":
            # the subcommand owns the mode; a mode key must agree with it
            values["mode"] = raw
            anchors["mode"] = lineno
            continue
        if key not in SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in anchors:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        kind, _ = SCHEMA[key]
        try:
            values[key] = _parse_value(kind, raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: {key}: {exc}")
            continue
        anchors[key] = lineno
    return values, anchors, errors


def load_config(mode: str, path=None, overrides=None) -> RunConfig:
    """Assemble the effective configuration for one run.

    Precedence: schema defaults < config file < explicit flag overrides.
    Raises ConfigError carrying every validation failure at once.
    """
    if mode not in MODES:
        raise ConfigError([f"unknown mode {mode!r}"])
    values, anchors, errors = {}, {}, []
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError([f"config file not found: {p}"])
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError([f"config file {p} is not UTF-8 text: {exc}"]) from None
        values, anchors, errors = parse_lines(text.splitlines())
    file_mode = values.pop("mode", None)
    if file_mode is not None and file_mode != mode:
        errors.append(
            f"line {anchors.get('mode')}: mode: config says {file_mode!r} "
            f"but the {mode!r} subcommand was invoked"
        )
    for key, raw in (overrides or {}).items():
        if raw is None:
            continue
        kind, _ = SCHEMA[key]
        try:
            if isinstance(raw, str):
                values[key] = _parse_value(kind, raw)
            else:
                # a vector or list is kept as a tuple, as parsed ones are: hashable, and hashed alike
                values[key] = tuple(raw) if kind in ("vec3", "floats") else raw
            anchors.pop(key, None)  # flag overrides have no line anchor
        except ValueError as exc:
            errors.append(f"flag for {key}: {exc}")
    effective = {key: default for key, (_, default) in SCHEMA.items()}
    effective.update(values)
    errors.extend(_range_errors(effective, anchors))
    for key in values:
        at = f"line {anchors[key]}: " if key in anchors else ""
        if mode not in READ_BY[key]:
            errors.append(f"{at}{key}: acts only in {' or '.join(READ_BY[key])} mode, not {mode}")
        elif key in SELECTED_BY:
            selector, readers = SELECTED_BY[key]
            if effective[selector] not in readers:
                errors.append(
                    f"{at}{key}: acts only with {selector} = {' or '.join(readers)}, not {effective[selector]}"
                )
    if errors:
        raise ConfigError(errors)
    cfg = RunConfig(mode=mode, values=effective)
    if mode == "simulate":
        _check_initial_energy(cfg, anchors)
    return cfg


def _check_initial_energy(cfg: RunConfig, anchors: dict):
    """Refuse a simulate state at which H of the configured particle and field
    is not finite, or is zero: its trajectory would hold NaN or infinity from
    the first row, in H itself or in h_drift, which is relative to |H| there.

    H is evaluated on Python floats, which overflow to inf without a
    warning; an overflow Python raises instead (mc ** 2, or sin of an
    infinite phase) counts as not finite too.
    """
    state, model, params = cfg.state0(), cfg.field_model(), cfg.particle()
    try:
        h = h_total(state, model, params)
    except (ArithmeticError, ValueError):
        h = math.nan
    if h == 0.0 or not math.isfinite(h):
        line = next((anchors[k] for k in ("state.p", "state.x") if k in anchors), None)
        at = f"line {line}: " if line else ""
        what = "zero, and h_drift is relative to it," if h == 0.0 else "not finite"
        raise ConfigError(
            [f"{at}state: H is {what} at the initial state (state.x, state.p) for this particle and field"]
        )
