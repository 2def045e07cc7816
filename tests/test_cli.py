"""Config parsing, CLI dispatch, artifacts, exit codes, determinism."""

import csv
import inspect
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from spincorr import checks, cli
from spincorr.checks import MODE_CHECKS, RUN_PARAMS, Bound, CheckResult, run_checks
from spincorr.classical import Trajectory, covariance_scaling, integrate
from spincorr.cli import _overrides_from_args, _write_trajectory, build_parser, main, render_report
from spincorr.config import MODES, READ_BY, SCHEMA, ConfigError, load_config, parse_lines
from spincorr.params import ParticleParams
from spincorr.qfw import (
    CASE_II,
    ConfigurationError,
    darwin_vs_classical_hd,
    default_lattice,
    default_params,
    residual_scaling,
)

# a short simulate run off the origin, so every field model acts on it
SIM = {"duration": "0.05", "integrator.step": "0.01", "state.x": "0.3 0.2 0.1", "state.p": "0.1 0.2 0.3"}
SG = dict(SIM, **{"field.model": "stern-gerlach"})
SIN = dict(SIM, **{"field.model": "sin-electrostatic"})

# key -> (mode, base overrides under a selector that reads the key, perturbed value)
CONTRACT = {
    "particle.m": ("simulate", SIM, "1.5"),
    "particle.e": ("simulate", SIM, "0.3"),
    "particle.mu_prime": ("simulate", SIM, "0.2"),
    "field.model": ("simulate", SIM, "stern-gerlach"),
    "field.b": ("simulate", SIM, "0.2 0.1 1.0"),
    "field.e": ("simulate", SIM, "0.1 0.0 0.0"),
    "field.b0": ("simulate", SG, "4.0"),
    "field.grad": ("simulate", SG, "0.05"),
    "field.lam": ("simulate", SIN, "0.02"),
    "field.period": ("simulate", SIN, "3.0"),
    "state.x": ("simulate", SIM, "0.3 0.2 0.2"),
    "state.p": ("simulate", SIM, "0.1 0.2 0.4"),
    "state.s": ("simulate", SIM, "0.0 1.0 0.5"),
    "duration": ("simulate", SIM, "0.06"),
    "integrator.method": ("simulate", SIM, "rkf45"),
    "integrator.step": ("simulate", SIM, "0.005"),
    "integrator.tol": ("simulate", dict(SIM, **{"integrator.method": "rkf45"}), "1e-5"),
    "amplitudes": ("boost", {}, "1e-1 1e-2 1e-3"),
    "boost.beta_max": ("boost", {}, "0.3"),
    "seed": ("boost", {}, "11"),
    "order": ("verify-algebra", {"order": "2"}, "3"),
    "profile": ("verify-fw", {}, "negative-result"),
}

# a flag or a config line, the key it sets, the modes that read the key, and
# the modes that refuse it
FLAG_SCOPE = [
    (["--order", "3"], "order", "verify-algebra", ("simulate", "boost", "verify-fw", "report")),
    (["--profile", "negative-result"], "profile", "verify-fw", ("simulate", "boost", "verify-algebra", "report")),
    (["--lambda-list", "1e-1,1e-2,1e-3"], "amplitudes", "boost or verify-fw", ("simulate", "verify-algebra", "report")),
]
LINE_SCOPE = [
    ("boost.beta_max = 0.3", "boost.beta_max", "boost", ("simulate", "verify-algebra", "verify-fw", "report")),
    ("amplitudes = 1e-1 1e-2 1e-3", "amplitudes", "boost or verify-fw", ("simulate", "verify-algebra", "report")),
]

# a non-finite number for every float, vec3 and floats key: (mode, config text, line, key, token)
NON_FINITE = [
    ("simulate", "particle.m = nan\n", 1, "particle.m", "nan"),
    ("simulate", "particle.e = nan\n", 1, "particle.e", "nan"),
    ("simulate", "particle.mu_prime = inf\n", 1, "particle.mu_prime", "inf"),
    ("simulate", "field.b = 0 -inf 1\n", 1, "field.b", "-inf"),
    ("simulate", "field.e = nan 0 0\n", 1, "field.e", "nan"),
    ("simulate", "field.model = stern-gerlach\nfield.b0 = inf\n", 2, "field.b0", "inf"),
    ("simulate", "field.model = stern-gerlach\nfield.grad = nan\n", 2, "field.grad", "nan"),
    ("simulate", "field.model = sin-electrostatic\nfield.lam = nan\n", 2, "field.lam", "nan"),
    ("simulate", "field.model = sin-electrostatic\nfield.period = nan\n", 2, "field.period", "nan"),
    ("simulate", "state.x = 0 0 1e400\n", 1, "state.x", "1e400"),
    ("simulate", "state.p = nan 0 0\n", 1, "state.p", "nan"),
    ("simulate", "state.s = 1 nan 0\n", 1, "state.s", "nan"),
    ("simulate", "duration = nan\n", 1, "duration", "nan"),
    ("simulate", "integrator.step = nan\n", 1, "integrator.step", "nan"),
    ("simulate", "integrator.method = rkf45\nintegrator.tol = nan\n", 2, "integrator.tol", "nan"),
    ("boost", "boost.beta_max = nan\n", 1, "boost.beta_max", "nan"),
    ("verify-fw", "amplitudes = 1e-2 nan 1e-4\n", 1, "amplitudes", "nan"),
]

# amplitude lists every caller refuses: (list, the rule's message, the token refused at parse time)
BAD_AMPLITUDES = [
    ("1e-2 1e-3", "amplitudes: need at least three values", None),
    ("1e-2 0 1e-4", "amplitudes: must all be positive", None),
    ("1e-2 -1e-3 1e-4", "amplitudes: must all be positive", None),
    ("1e-2 nan 1e-4", "amplitudes: must all be finite", "nan"),
    ("1e-2 1e-3 inf", "amplitudes: must all be finite", "inf"),
    ("1e-2 1e-3 2e-4", "amplitudes: must be geometrically spaced (constant successive ratio other than 1)", None),
    ("1e-2 1e-2 1e-2", "amplitudes: must be geometrically spaced (constant successive ratio other than 1)", None),
]


def run_trajectory(cfg):
    return integrate(cfg.state0(), cfg.field_model(), cfg.particle(), cfg.integrator(), cfg["duration"])


def artifacts(mode, overrides):
    """What a run of `mode` writes that depends on the config, less config_hash and run_id."""
    cfg = load_config(mode, None, overrides)
    if mode == "simulate":
        with tempfile.TemporaryDirectory() as out:
            _write_trajectory(run_trajectory(cfg), Path(out))
            return [(Path(out) / name).read_bytes() for name in ("trajectory.json", "trajectory.csv")]
    return [r.to_json() for r in run_checks(cfg)]


class TestConfigParsing:
    def test_defaults_fill_minimal_config(self, tmp_path):
        p = tmp_path / "min.cfg"
        p.write_text("field.model = uniform\n")
        cfg = load_config("simulate", p)
        assert cfg["integrator.method"] == "rk4"
        assert cfg["particle.m"] == 1.0
        assert cfg["amplitudes"] == (1e-2, 1e-3, 1e-4)
        assert cfg["profile"] == "default"

    def test_no_file_pure_defaults(self):
        cfg = load_config("verify-fw")
        assert cfg.values == {key: default for key, (_, default) in SCHEMA.items()}

    def test_unknown_key_is_hard_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("particle.mass = 1.0\n")
        with pytest.raises(ConfigError) as err:
            load_config("simulate", p)
        assert "unknown key 'particle.mass'" in str(err.value)
        assert "line 1" in str(err.value)

    def test_beta_at_one_names_the_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("\nboost.beta_max = 1.0\n")
        with pytest.raises(ConfigError) as err:
            load_config("boost", p)
        assert "boost.beta_max" in str(err.value)
        assert "|beta| must be < 1" in str(err.value)
        assert "line 2" in str(err.value)

    def test_all_errors_reported_together(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(
            "nonsense = 1\nparticle.m = -2\nboost.beta_max = 1.5\namplitudes = 1e-2\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config("boost", p)
        # the four value errors, and particle.m refused outside simulate
        assert len(err.value.errors) == 5
        assert "line 2: particle.m: acts only in simulate mode, not boost" in err.value.errors

    def test_missing_file(self):
        with pytest.raises(ConfigError) as err:
            load_config("simulate", "/no/such/file.cfg")
        assert "not found" in str(err.value)

    def test_duplicate_and_malformed_lines(self):
        values, anchors, errors = parse_lines(
            ["seed = 1", "seed = 2", "what is this"]
        )
        assert values["seed"] == 1
        assert any("duplicate" in e for e in errors)
        assert any("key = value" in e for e in errors)

    def test_non_geometric_amplitudes_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("amplitudes = 1e-2 1e-3 2e-4\n")
        with pytest.raises(ConfigError) as err:
            load_config("verify-fw", p)
        assert "geometric" in str(err.value)

    def test_mode_key_must_agree_with_subcommand(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("mode = boost\n")
        with pytest.raises(ConfigError):
            load_config("simulate", p)
        assert load_config("boost", p).mode == "boost"

    def test_flag_overrides_beat_file(self, tmp_path):
        p = tmp_path / "m.cfg"
        p.write_text("seed = 5\n")
        cfg = load_config("boost", p, {"seed": 9, "amplitudes": "1e-1,1e-2,1e-3"})
        assert cfg["seed"] == 9
        assert cfg["amplitudes"] == (0.1, 0.01, 0.001)

    def test_list_override_is_kept_as_a_tuple(self):
        # run_checks caches on the amplitudes, and config_hash formats tuples
        cfg = load_config("verify-fw", None, {"amplitudes": [1e-2, 1e-3, 1e-4]})
        assert cfg["amplitudes"] == (1e-2, 1e-3, 1e-4)
        assert cfg.config_hash() == load_config("verify-fw").config_hash()
        assert all(r.passed for r in run_checks(cfg))

    def test_comments_and_blanks_ignored(self):
        values, _, errors = parse_lines(["# header", "", "seed = 3  # trailing"])
        assert not errors and values["seed"] == 3

    def test_hash_ignores_output_directory(self):
        a = load_config("boost", None, {"out": "x"})
        b = load_config("boost", None, {"out": "y"})
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("tol", ["1e-16", "1e-30", "0", "-1e-10"])
    def test_tol_below_floor_rejected(self, tmp_path, capsys, tol):
        p = tmp_path / "t.cfg"
        p.write_text(f"integrator.method = rkf45\nintegrator.tol = {tol}\n")
        message = "line 2: integrator.tol: must be at least 1e-15, the round-off floor of rkf45's error estimate"
        with pytest.raises(ConfigError) as err:
            load_config("simulate", p)
        assert err.value.errors == [message]
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_float_key_covers_schema(self):
        kinds = {key for key, (kind, _) in SCHEMA.items() if kind in ("float", "vec3", "floats")}
        assert {key for _, _, _, key, _ in NON_FINITE} == kinds

    @pytest.mark.parametrize("mode, text, line, key, token", NON_FINITE)
    def test_non_finite_number_refused(self, tmp_path, capsys, mode, text, line, key, token):
        p = tmp_path / "n.cfg"
        p.write_text(text)
        message = f"line {line}: {key}: '{token}' is not a finite number"
        with pytest.raises(ConfigError) as err:
            load_config(mode, p)
        assert err.value.errors == [message]
        assert main([mode, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rkf45_finishes_at_tol_floor(self):
        # the floor itself is reachable: a Stern-Gerlach trap runs to T = 10
        cfg = load_config(
            "simulate",
            None,
            {
                "field.model": "stern-gerlach",
                "field.b0": "1.0",
                "field.grad": "0.2",
                "state.p": "0.3 0 0",
                "duration": "10.0",
                "integrator.method": "rkf45",
                "integrator.tol": "1e-15",
            },
        )
        assert run_trajectory(cfg).t[-1] == 10.0

    def test_schema_defaults_are_valid(self):
        cfg = load_config("simulate")
        assert set(cfg.values) == set(SCHEMA)
        cfg.particle()
        cfg.field_model()
        cfg.integrator()
        cfg.state0()


class TestBoostSpeedFloor:
    """boost draws each |beta| from [0.1, boost.beta_max], so a beta_max at or below 0.1 is a config error."""

    @pytest.mark.parametrize("beta_max", ["0.05", "0.1", "0.0", "-0.2"])
    def test_refused_with_exit_2(self, tmp_path, capsys, beta_max):
        p = tmp_path / "b.cfg"
        p.write_text(f"boost.beta_max = {beta_max}\n")
        message = "line 1: boost.beta_max: must exceed 0.1, the least |beta| boost draws"
        with pytest.raises(ConfigError) as err:
            load_config("boost", p)
        assert err.value.errors == [message]
        assert main(["boost", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_just_above_the_floor_runs(self):
        [result] = run_checks(load_config("boost", None, {"boost.beta_max": "0.11"}))
        assert result.passed


class TestSpinRefusedAtLoad:
    """PhaseState refuses a spin whose |s|^2 is 0 or inf, so simulate refuses it before any check runs."""

    @pytest.mark.parametrize("spin", ["0 0 0", "-0.0 0 0", "1e-200 0 0", "0 1e200 0"])
    def test_refused_with_exit_2(self, tmp_path, capsys, spin):
        p = tmp_path / "s.cfg"
        p.write_text(f"duration = 0.1\nstate.s = {spin}\n")
        message = "line 2: state.s: spin must be nonzero, and |s|^2 must not overflow or underflow"
        with pytest.raises(ConfigError) as err:
            load_config("simulate", p)
        assert err.value.errors == [message]
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_smallest_accepted_spin_builds_its_state(self):
        load_config("simulate", None, {"state.s": "1e-150 0 0"}).state0()


class TestStepCountRefusedAtLoad:
    """A fixed-step run takes max(1, round(duration / step)) steps, which integrate caps at
    IntegratorSpec.max_steps, so simulate refuses more at load instead of after its checks."""

    @pytest.mark.parametrize(
        "text, line",
        [
            ("integrator.step = 1e-9\n", 1),
            ("duration = 10\nintegrator.step = 0.99e-6\n", 2),
            ("duration = 1e300\nintegrator.step = 1e-300\n", 2),
        ],
    )
    def test_refused_with_exit_2(self, tmp_path, capsys, monkeypatch, text, line):
        p = tmp_path / "s.cfg"
        p.write_text(text)
        message = (
            f"line {line}: integrator.step: duration / step exceeds 10000000 fixed steps, "
            "the most one integration takes"
        )
        with pytest.raises(ConfigError) as err:
            load_config("simulate", p)
        assert err.value.errors == [message]
        monkeypatch.setattr(cli, "run_checks", _no_checks)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_cap_itself_and_adaptive_steps_accepted(self):
        cfg = load_config("simulate", None, {"duration": "10", "integrator.step": "1e-6"})
        assert cfg.integrator().max_steps == 10**7
        # rkf45 adapts its step, so its configured step sets no count
        load_config("simulate", None, {"integrator.method": "rkf45", "integrator.step": "1e-9"})


def _no_checks(cfg):
    raise AssertionError("a refused run reached its checks")


class TestNonFiniteEnergyRefusedAtLoad:
    """H overflows at these states, in the momentum or through A of the uniform field,
    so the trajectory would hold NaN and Infinity from its first row."""

    @pytest.mark.parametrize(
        "text, at",
        [
            ("state.p = 1e200 0 0\n", "line 2: "),
            ("state.x = 0 1e200 0\n", "line 2: "),
            # (mc)^2 overflows, which Python raises rather than rounding to inf
            ("particle.m = 1e200\n", ""),
            # the phase k x of sin(k x) overflows to inf
            ("field.model = sin-electrostatic\nfield.period = 1.0\nstate.x = 1e308 0 0\n", "line 4: "),
        ],
    )
    def test_refused_with_exit_2(self, tmp_path, capsys, monkeypatch, text, at):
        p = tmp_path / "s.cfg"
        p.write_text(f"duration = 0.1\n{text}")
        message = f"{at}state: H is not finite at the initial state (state.x, state.p) for this particle and field"
        with pytest.raises(ConfigError) as err:
            load_config("simulate", p)
        assert err.value.errors == [message]
        monkeypatch.setattr(cli, "run_checks", _no_checks)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_trajectory_json_refuses_non_finite_rows(self, tmp_path):
        # one row with p = (inf, 0, 0) and H = NaN
        zero, one, nan = np.zeros(1), np.ones(1), np.full(1, np.nan)
        x, p, s = np.zeros((1, 3)), np.array([[np.inf, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])
        traj = Trajectory(zero, x, p, s, nan, one, zero, 0, 0)
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_trajectory(traj, tmp_path)
        assert not (tmp_path / "trajectory.json").exists()


class TestTrajectoryWriter:
    @staticmethod
    def write(tmp_path):
        """Write 300 rows whose every column mixes +-0.0, subnormals, the largest float and exponents
        from 1e-300 to 1e300; return the rows as the table trajectory.csv holds."""
        rng = np.random.default_rng(1729)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.7976931348623157e308, 1e16, 1e-5, 0.1]
        n = 300

        def column(*shape):
            scaled = rng.normal(size=(n, *shape)) * 10.0 ** rng.integers(-300, 301, size=(n, *shape))
            return np.where(rng.random(size=(n, *shape)) < 0.3, rng.choice(special, size=(n, *shape)), scaled)

        h = column()
        h[0] = 1.5
        traj = Trajectory(column(), column(3), column(3), column(3), h, column(), column(), 0, 0)
        _write_trajectory(traj, tmp_path)
        return np.column_stack(
            [traj.t, traj.x, traj.p, traj.s, h, traj.s_mag, (h - h[0]) / abs(h[0]), traj.spin_drift]
        ).tolist()

    def test_json_equals_json_dumps(self, tmp_path):
        # against json.dumps of the same rows as a list of dicts
        table = self.write(tmp_path)
        records = [
            {"t": r[0], "x": r[1:4], "p": r[4:7], "s": r[7:10],
             "h_total": r[10], "s_mag": r[11], "h_drift": r[12], "s_drift": r[13]}
            for r in table
        ]
        text = (tmp_path / "trajectory.json").read_text()
        assert text == json.dumps(records, sort_keys=True, indent=2) + "\n"
        for value in ("-0.0", "5e-324", "-1.7976931348623157e+308", "1e+16", "1e-05"):
            assert f" {value}," in text or f" {value}\n" in text

    def test_csv_equals_csv_writer(self, tmp_path):
        table = self.write(tmp_path)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["t", "x1", "x2", "x3", "p1", "p2", "p3", "s1", "s2", "s3", "h_total", "s_mag", "h_drift", "s_drift"])
        writer.writerows(table)
        text = (tmp_path / "trajectory.csv").read_bytes().decode()
        assert text == want.getvalue()
        for value in ("-0.0", "5e-324", "-1.7976931348623157e+308", "1e+16", "1e-05"):
            assert f",{value}," in text or f",{value}\r\n" in text or f"\n{value}," in text


class TestZeroEnergyRefusedAtLoad:
    """H is zero at this state (gamma mc^2 = 1 against e phi = -1, no spin
    coupling), and h_drift is relative to |H| at the first row, so every
    row's h_drift would be NaN."""

    TEXT = (
        "particle.e = 1.0\nparticle.mu_prime = 0.0\nfield.model = uniform\nfield.b = 0 0 0\n"
        "field.e = 1 0 0\nstate.x = 1 0 0\nduration = 0.01\n"
    )

    def test_refused_with_exit_2(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "z.cfg"
        p.write_text(self.TEXT)
        message = (
            "line 6: state: H is zero, and h_drift is relative to it, at the initial state (state.x, state.p) "
            "for this particle and field"
        )
        with pytest.raises(ConfigError) as err:
            load_config("simulate", p)
        assert err.value.errors == [message]
        monkeypatch.setattr(cli, "run_checks", _no_checks)
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestOutNamingAFile:
    """An --out that names a regular file cannot hold the artifacts: exit 2 in every mode."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_refused_with_exit_2(self, tmp_path, capsys, monkeypatch, mode, sub):
        f = tmp_path / "f"
        f.write_text("not a directory\n")
        monkeypatch.setattr(cli, "run_checks", _no_checks)
        assert main([mode, "--out", str(f / sub if sub else f)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ")
        assert f.read_text() == "not a directory\n"


class TestConfigContract:
    def test_table_covers_schema(self):
        assert set(CONTRACT) == set(SCHEMA) - {"out"}

    @pytest.mark.parametrize("key", sorted(CONTRACT))
    def test_every_key_changes_its_mode(self, key):
        mode, base, value = CONTRACT[key]
        assert artifacts(mode, base) != artifacts(mode, dict(base, **{key: value}))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("integrator.tol = 1e-8\n", "line 1: integrator.tol: acts only with integrator.method = rkf45, not rk4"),
            ("field.model = stern-gerlach\nfield.b = 0 0 1\n", "line 2: field.b: acts only with field.model = uniform"),
            ("field.e = 0 0 1\nfield.model = sin-magnetostatic\n", "field.e: acts only with field.model = uniform"),
            ("field.b0 = 2.0\n", "field.b0: acts only with field.model = stern-gerlach, not uniform"),
            ("field.grad = 0.1\n", "field.grad: acts only with field.model = stern-gerlach"),
            ("field.model = stern-gerlach\nfield.lam = 0.1\n", "field.lam: acts only with field.model = sin-electrostatic or sin-magnetostatic"),
            ("field.period = 3.0\n", "field.period: acts only with field.model = sin-electrostatic or sin-magnetostatic"),
        ],
    )
    def test_key_ignored_by_its_selector_rejected(self, tmp_path, capsys, text, message):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config("simulate", p)
        assert len(err.value.errors) == 1 and message in err.value.errors[0]
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_flag_override_rejected_like_file_key(self):
        with pytest.raises(ConfigError, match="field.lam: acts only with"):
            load_config("simulate", None, {"field.lam": "0.1"})
        load_config("simulate", None, {"field.lam": "0.1", "field.model": "sin-magnetostatic"})

    def test_defaults_never_rejected(self):
        for model in ("uniform", "stern-gerlach", "sin-electrostatic", "sin-magnetostatic"):
            for method in ("rk4", "rkf45"):
                load_config("simulate", None, {"field.model": model, "integrator.method": method})


    def test_simulate_only_keys_are_the_simulate_contract(self):
        simulate_keys = {key for key, (mode, _, _) in CONTRACT.items() if mode == "simulate"}
        assert {key for key, modes in READ_BY.items() if modes == ("simulate",)} == simulate_keys

    def test_mode_table_covers_schema(self):
        assert set(READ_BY) == set(SCHEMA)
        assert all(mode in READ_BY[key] for key, (mode, _, _) in CONTRACT.items())
        assert READ_BY["seed"] == READ_BY["out"] == MODES

    @pytest.mark.parametrize(
        "flags, key, readers, mode", [(f, k, r, m) for f, k, r, modes in FLAG_SCOPE for m in modes]
    )
    def test_flag_refused_by_modes_that_ignore_it(self, tmp_path, capsys, flags, key, readers, mode):
        assert main([mode, "--seed", "7", *flags, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key}: acts only in {readers} mode, not {mode}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line, key, readers, mode", [(t, k, r, m) for t, k, r, modes in LINE_SCOPE for m in modes]
    )
    def test_file_key_refused_by_modes_that_ignore_it(self, tmp_path, capsys, line, key, readers, mode):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError) as err:
            load_config(mode, p)
        assert err.value.errors == [f"line 1: {key}: acts only in {readers} mode, not {mode}"]
        assert main([mode, "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("mode", ["boost", "verify-algebra", "verify-fw", "report"])
    @pytest.mark.parametrize(
        "text",
        [
            "particle.m = 1.5\n",
            "field.model = stern-gerlach\n",
            "field.b = 0 0 2\n",
            "state.p = 0.5 0 0\n",
            "duration = 2.0\n",
            "integrator.step = 0.01\n",
        ],
    )
    def test_simulate_key_rejected_by_other_modes(self, tmp_path, capsys, mode, text):
        key = text.split(" = ")[0]
        p = tmp_path / "c.cfg"
        p.write_text("seed = 3\n" + text)
        message = f"line 2: {key}: acts only in simulate mode, not {mode}"
        with pytest.raises(ConfigError) as err:
            load_config(mode, p)
        assert err.value.errors == [message]
        assert main([mode, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        load_config("simulate", p)

    def test_mode_refusal_replaces_selector_refusal(self, tmp_path):
        # outside simulate the mode is the one reason a field key does nothing
        p = tmp_path / "c.cfg"
        p.write_text("integrator.tol = 1e-8\nfield.b0 = 2.0\n")
        with pytest.raises(ConfigError) as err:
            load_config("verify-fw", p)
        assert err.value.errors == [
            "line 1: integrator.tol: acts only in simulate mode, not verify-fw",
            "line 2: field.b0: acts only in simulate mode, not verify-fw",
        ]

    def test_simulate_override_rejected_by_other_modes(self):
        with pytest.raises(ConfigError, match="^state.s: acts only in simulate mode, not boost$"):
            load_config("boost", None, {"state.s": "0 1 0"})

    def test_read_by_matches_check_signatures(self):
        # which modes read each run parameter, worked out from the checks run_checks calls
        readers = {key: set() for key in ("amplitudes", "order", "profile", "boost.beta_max")}
        for mode, names in MODE_CHECKS.items():
            for name in names:
                for param in inspect.signature(getattr(checks, f"check_{name}")).parameters:
                    assert param in RUN_PARAMS or param in ("darwin", "transforms"), (name, param)
                    if RUN_PARAMS.get(param) in readers:
                        readers[RUN_PARAMS[param]].add(mode)
        assert {key: set(READ_BY[key]) for key in readers} == readers

    @pytest.mark.parametrize("mode", ["simulate", "boost", "verify-algebra", "verify-fw", "report"])
    def test_seed_accepted_by_every_mode(self, tmp_path, mode):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 3\n")
        args = build_parser().parse_args([mode, "--seed", "7"])
        assert load_config(mode, p, _overrides_from_args(args))["seed"] == 7


class TestOneParser:
    """A flag's value is parsed as the same key on a config line, so both accept and refuse alike."""

    @pytest.mark.parametrize("literal", ["16", "0x10", "0o20", "1_6", "+16"])
    def test_flag_and_file_line_read_alike(self, tmp_path, literal):
        p = tmp_path / "c.cfg"
        p.write_text(f"seed = {literal}\n")
        args = build_parser().parse_args(["boost", "--seed", literal])
        assert load_config("boost", None, _overrides_from_args(args))["seed"] == load_config("boost", p)["seed"] == 16

    @pytest.mark.parametrize("literal", ["07", "2.5"])
    def test_flag_and_file_line_refused_alike(self, tmp_path, capsys, literal):
        p = tmp_path / "c.cfg"
        p.write_text(f"seed = {literal}\n")
        with pytest.raises(ConfigError) as from_file:
            load_config("boost", p)
        args = build_parser().parse_args(["boost", "--seed", literal])
        with pytest.raises(ConfigError) as from_flag:
            load_config("boost", None, _overrides_from_args(args))
        [file_error], [flag_error] = from_file.value.errors, from_flag.value.errors
        assert file_error.startswith("line 1: seed: ")
        assert flag_error == "flag for seed: " + file_error.removeprefix("line 1: seed: ")
        assert main(["boost", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert main(["boost", "--seed", literal, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {file_error}\nconfig error: {flag_error}\n"
        assert not (tmp_path / "o").exists()

    def test_bad_flag_listed_with_every_other_problem(self, tmp_path, capsys):
        assert main(["boost", "--seed", "abc", "--lambda-list", "1,1,1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: flag for seed: invalid literal for int() with base 0: 'abc'\n" in err
        assert f"config error: {BAD_AMPLITUDES[-1][1]}\n" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-0x10", "seed: must fit in an unsigned 64-bit integer"),
            ("--lambda-list", "-1e-2,-1e-3,-1e-4", "amplitudes: must all be positive"),
        ],
    )
    def test_value_starting_with_a_dash(self, tmp_path, capsys, flag, value, message):
        # "--flag value" reads as "--flag=value": both reach the config parser, which refuses the value
        out = ["--out", str(tmp_path / "o")]
        assert main(["boost", flag, value, *out]) == 2
        spaced = capsys.readouterr().err
        assert main(["boost", f"{flag}={value}", *out]) == 2
        assert capsys.readouterr().err == spaced == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--config", "--seed", "--lambda-list"])
    def test_flag_ending_argv_keeps_the_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as done:
            main(["boost", flag])
        assert done.value.code == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err

    def test_bad_choice_and_order_flags_exit_2(self, tmp_path, capsys):
        assert main(["verify-fw", "--profile", "bogus", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: flag for profile: must be one of default, negative-result\n"
        assert main(["verify-algebra", "--order", "x", "--out", str(tmp_path / "o")]) == 2
        assert "config error: flag for order: " in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    def test_usage_shows_each_flag_value(self, capsys, monkeypatch, mode):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as done:
            build_parser().parse_args([mode, "--help"])
        assert done.value.code == 0
        usage = capsys.readouterr().out
        for shown in ("--seed U64", "--profile {default,negative-result}", "--order N"):
            assert shown in usage


class TestOneAmplitudeRule:
    """The config, both lattice sweeps and the boost scan refuse the same amplitude lists."""

    @pytest.mark.parametrize("text, rule, token", BAD_AMPLITUDES)
    def test_every_caller_refuses(self, tmp_path, capsys, text, rule, token):
        p = tmp_path / "a.cfg"
        p.write_text(f"amplitudes = {text}\n")
        message = f"amplitudes: '{token}' is not a finite number" if token else rule
        with pytest.raises(ConfigError) as err:
            load_config("verify-fw", p)
        assert err.value.errors == [f"line 1: {message}"]
        assert main(["verify-fw", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: line 1: {message}\n" in capsys.readouterr().err
        flag = f"flag for {message}" if token else message
        assert main(["boost", "--lambda-list", text.replace(" ", ","), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {flag}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

        lams = [float(tok) for tok in text.split()]
        lat = default_lattice(CASE_II)
        par = default_params(CASE_II, lat)
        with pytest.raises(ConfigurationError) as refused:
            residual_scaling(CASE_II, lat, par, lams)
        assert str(refused.value) == rule
        with pytest.raises(ConfigurationError) as refused:
            darwin_vs_classical_hd(lat, par, lams)
        assert str(refused.value) == rule
        pr = ParticleParams.neutral(mu_prime=0.08)
        with pytest.raises(ConfigurationError) as refused:
            covariance_scaling(np.full(3, 0.1 * pr.mc), np.ones(3), np.ones(3), np.ones(3), pr, lams)
        assert str(refused.value) == rule


class TestBound:
    # each row: a bound, one of its limits, and the verdicts one ulp below it, at it and one ulp above it
    @pytest.mark.parametrize(
        "bound, edge, verdicts",
        [
            (Bound("<", 1e-6), 1e-6, (True, False, False)),
            (Bound(">=", 10.0), 10.0, (False, True, True)),
            (Bound("==", 0.0), 0.0, (False, True, False)),
            (Bound("[]", 3.7, 4.3), 3.7, (False, True, True)),
            (Bound("[]", 3.7, 4.3), 4.3, (True, True, False)),
            # abs(v - centre) <= width rounds above 0.1 at 1.9, 2.1 and 1.1, and below it at 0.9
            (Bound("+-", 2.0, 0.1), 1.9, (False, False, True)),
            (Bound("+-", 2.0, 0.1), 2.1, (True, False, False)),
            (Bound("+-", 1.0, 0.1), 0.9, (False, True, True)),
            (Bound("+-", 1.0, 0.1), 1.1, (True, False, False)),
        ],
    )
    def test_verdict_at_and_beside_each_limit(self, bound, edge, verdicts):
        values = (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
        assert tuple(bound.passes(v) for v in values) == verdicts
        assert not bound.passes(math.nan)
        # a list or dict passes only when every entry passes
        passing = [v for v, ok in zip(values, verdicts) if ok]
        assert bound.passes(passing) and bound.passes(dict(enumerate(passing)))
        assert not bound.passes([*passing, math.nan]) and not bound.passes(dict(enumerate(values)))


class TestCliDispatch:
    def test_boost_passes_and_is_deterministic(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["boost", "--out", str(d1), "--seed", "11"]) == 0
        assert main(["boost", "--out", str(d2), "--seed", "11"]) == 0
        r1 = (d1 / "results.json").read_bytes()
        r2 = (d2 / "results.json").read_bytes()
        assert r1 == r2
        assert (d1 / "meta.json").is_file()
        assert (d1 / "report.txt").is_file()
        record = json.loads(r1)
        assert record["pass"] is True
        assert [c["name"] for c in record["checks"]] == ["boost_covariance"]
        assert all(set(c["tolerance"]) <= set(c["value"]) for c in record["checks"] if isinstance(c["tolerance"], dict))

    def test_meta_records_numpy_and_thread_variables(self, tmp_path, monkeypatch, capsys):
        import numpy as np

        from spincorr.cli import THREAD_VARS

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["boost", "--out", str(tmp_path), "--seed", "11"]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert meta["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert set(meta["threads"]) == set(THREAD_VARS)
        assert meta["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert meta["threads"]["OMP_NUM_THREADS"] == "unset"
        assert list(meta["check_wall_s"]) == ["boost_covariance"]
        assert meta["check_wall_s"]["boost_covariance"] > 0.0

    def test_blas_unknown_where_numpy_does_not_say(self, monkeypatch):
        import numpy as np

        from spincorr.cli import _blas_info

        def old_show_config():  # numpy before show_config(mode=...)
            return None

        monkeypatch.setattr(np, "show_config", old_show_config)
        assert _blas_info() == {"name": "unknown", "version": "unknown"}

    def test_verify_fw_results_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify-fw", "--out", str(d1)]) == 0
        assert main(["verify-fw", "--out", str(d2)]) == 0
        r1 = (d1 / "results.json").read_bytes()
        assert r1 == (d2 / "results.json").read_bytes()
        checks = {c["name"]: c for c in json.loads(r1)["checks"]}
        assert all(set(c["tolerance"]) <= set(c["value"]) for c in checks.values() if isinstance(c["tolerance"], dict))
        detail = checks["correspondence_scaling"]["detail"]
        assert [len(detail["residuals"][case]) for case in ("case_i", "case_ii")] == [3, 3]
        assert detail["blocks"] == {"case_i": [[24, 24]], "case_ii": [[2, 128]]}
        meta = json.loads((d1 / "meta.json").read_text())
        assert set(meta["check_wall_s"]) == set(checks)

    def test_config_error_exit_code(self, capsys):
        assert main(["simulate", "--config", "/no/such/file"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_lambda_list_flag(self, capsys):
        assert main(["verify-fw", "--lambda-list", "1e-2,banana,1e-4"]) == 2

    def test_failed_check_exit_code(self, tmp_path, monkeypatch, capsys):
        import spincorr.cli as cli_mod

        def fake_checks(cfg):
            return [CheckResult("parity", 1.0, Bound("<", 1e-12))]

        monkeypatch.setattr(cli_mod, "run_checks", fake_checks)
        out = tmp_path / "r"
        assert main(["verify-fw", "--out", str(out)]) == 1
        # artifacts still written on failure
        record = json.loads((out / "results.json").read_text())
        assert record["pass"] is False

    def test_internal_error_exit_code(self, tmp_path, monkeypatch, capsys):
        import spincorr.cli as cli_mod

        def boom(*a, **k):
            raise RuntimeError("eigensolver exploded")

        monkeypatch.setattr(cli_mod, "run_checks", boom)
        assert main(["verify-fw", "--out", str(tmp_path / "x")]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_simulate_writes_trajectory(self, tmp_path, monkeypatch, capsys):
        import spincorr.cli as cli_mod

        def fake_checks(cfg):
            return [CheckResult("larmor_limit", 0.0, Bound("<", 1e-6))]

        monkeypatch.setattr(cli_mod, "run_checks", fake_checks)
        cfg = tmp_path / "sim.cfg"
        # a moving particle in a gradient trap, so H and h_drift vary in the last digits
        cfg.write_text("duration = 0.1\nintegrator.step = 0.01\nfield.model = stern-gerlach\nstate.p = 0.3 0.2 0.1\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "trajectory.json").read_text())
        assert len(rows) == 11
        assert set(rows[0]) == {"t", "x", "p", "s", "h_total", "s_mag", "h_drift", "s_drift"}
        csv_lines = (out / "trajectory.csv").read_text().splitlines()
        assert csv_lines[0].startswith("t,x1,x2,x3,p1")
        assert len(csv_lines) == 12
        # both files hold the same rows, and h_drift is relative to |H| at the first row
        h0 = rows[0]["h_total"]
        for r, line in zip(rows, csv_lines[1:]):
            assert r["h_drift"] == (r["h_total"] - h0) / abs(h0)
            want = [r["t"], *r["x"], *r["p"], *r["s"], r["h_total"], r["s_mag"], r["h_drift"], r["s_drift"]]
            assert [float(v) for v in line.split(",")] == want

    def test_report_rerenders_and_propagates_verdict(self, tmp_path, capsys):
        d = tmp_path / "r"
        assert main(["boost", "--out", str(d), "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(d)]) == 0
        out = capsys.readouterr().out
        assert "boost_covariance" in out
        assert "overall: PASS" in out

    # at these amplitudes div E underflows and the Darwin fit has nothing to fit to
    def test_non_finite_values_written_as_null(self, tmp_path, capsys):
        out = tmp_path / "tiny"
        assert main(["verify-fw", "--lambda-list", "1e-160,1e-161,1e-162", "--out", str(out)]) == 1

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        record = json.loads((out / "results.json").read_text(), parse_constant=refuse)
        checks = {c["name"]: c for c in record["checks"]}
        value = checks["negative_result"]["value"]
        assert [value[k] for k in ("fit_rel_dev", "gap_over_darwin", "nonrel_form_rel_diff")] == [None] * 3
        assert checks["negative_result"]["pass"] is False and record["pass"] is False
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 1
        assert '"fit_rel_dev": null' in capsys.readouterr().out

    def test_underflowed_boost_defect_fails_the_check(self, tmp_path, capsys):
        # the defect, quadratic in the amplitude, underflows to 0 at one boost, which leaves no slope to fit
        out = tmp_path / "tiny"
        assert main(["boost", "--seed", "1", "--lambda-list", "1e-151,1e-152,1e-153", "--out", str(out)]) == 1

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        record = json.loads((out / "results.json").read_text(), parse_constant=refuse)
        [check] = record["checks"]
        assert None in check["value"]["slopes"]
        assert check["pass"] is False and record["pass"] is False

    def test_report_missing_results(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "void")]) == 2

    @pytest.mark.parametrize(
        "cut, error",
        [(lambda text: text[: len(text) // 2], "JSONDecodeError"), (lambda text: "{}", "KeyError: 'run_id'")],
        ids=["truncated", "incomplete"],
    )
    def test_report_on_a_malformed_record_is_a_config_error(self, tmp_path, capsys, cut, error):
        d = tmp_path / "r"
        assert main(["boost", "--out", str(d), "--seed", "3"]) == 0
        path = d / "results.json"
        path.write_text(cut(path.read_text()))
        capsys.readouterr()
        assert main(["report", "--out", str(d)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"config error: {path} is not a results record: {error}")
        assert captured.out == ""

    def test_config_file_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.cfg"
        p.write_bytes("# r\xe9glage\nduration = 0.1\n".encode("latin-1"))
        with pytest.raises(ConfigError) as err:
            load_config("simulate", p)
        [message] = err.value.errors
        assert message.startswith(f"config file {p} is not UTF-8 text")
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"config error: {message}"

    def test_render_marks_expected_fail(self):
        rec = {
            "run_id": "abc",
            "mode": "verify-fw",
            "profile": "negative-result",
            "seed": 1,
            "config_hash": "0" * 64,
            "checks": [
                CheckResult("correspondence_scaling", {"s": 1.0}, {}, expected_fail=True).to_json()
            ],
            "pass": True,
        }
        text = render_report(rec)
        assert "negative-result profile" in text
        assert "overall: PASS" in text
