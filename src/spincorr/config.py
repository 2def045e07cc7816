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

from .classical import TABLEAUX, IntegratorSpec, scaling_amplitudes
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
FIELD_MODELS = ("uniform", "stern-gerlach", "sin-electrostatic", "sin-magnetostatic")

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

# key -> (selector, the selector values under which the run reads the key);
# a key set while its selector ignores it would change nothing, so it is refused
SELECTED_BY = {
    "integrator.tol": ("integrator.method", ("rkf45",)),
    "field.b": ("field.model", ("uniform",)),
    "field.e": ("field.model", ("uniform",)),
    "field.b0": ("field.model", ("stern-gerlach",)),
    "field.grad": ("field.model", ("stern-gerlach",)),
    "field.lam": ("field.model", ("sin-electrostatic", "sin-magnetostatic")),
    "field.period": ("field.model", ("sin-electrostatic", "sin-magnetostatic")),
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
        name = self.values["field.model"]
        if name == "uniform":
            return Uniform(
                E0=np.array(self.values["field.e"]), B0=np.array(self.values["field.b"])
            )
        if name == "stern-gerlach":
            return SternGerlach(B0=self.values["field.b0"], b=self.values["field.grad"])
        if name == "sin-electrostatic":
            return SinusoidalElectrostatic(
                lam=self.values["field.lam"], L=self.values["field.period"]
            )
        return SinusoidalMagnetostatic(
            lam=self.values["field.lam"], L=self.values["field.period"]
        )

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
    if not 0.0 <= values["boost.beta_max"] < 1.0:
        errs.append(f"{at('boost.beta_max')}boost.beta_max: |beta| must be < 1")
    if values["duration"] <= 0:
        errs.append(f"{at('duration')}duration: must be positive")
    if values["integrator.step"] <= 0:
        errs.append(f"{at('integrator.step')}integrator.step: must be positive")
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
        values, anchors, errors = parse_lines(p.read_text().splitlines())
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
            values[key] = raw if not isinstance(raw, str) else _parse_value(kind, raw)
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
    return RunConfig(mode=mode, values=effective)
