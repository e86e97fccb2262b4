"""Configuration parsing, CSV/manifest emission and exit codes."""

import dataclasses
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from attocell.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    _FIELDS,
    ConfigError,
    RunConfig,
    _write_curve_csv,
    load_config,
    main,
)
from attocell.coverage import CoverageCurve
from attocell.model import DerivedConstants, OpticalConfig, tail_bound

TINY_INI = """\
[geometry]
pitch = 0.5
heights = 1.5
trunc = 25

[thinning]
p_list = 0.3, 0.8
seed = 4242
trials = 150
mc_trunc = 10

[sweep]
theta_db_start = -10
theta_db_stop = -4
theta_db_step = 2
methods = analytic
quad_order = 6
mc_quad_order = 3
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(TINY_INI)
    return path


class TestRunConfig:
    def test_defaults_reproduce_reference_setup(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.pitch == 0.5
        assert cfg.heights == (1.5, 2.0, 2.5, 3.0)
        assert cfg.p_list == (0.3, 0.5, 0.8)
        assert cfg.optical.power == 1.0
        assert cfg.optical.noise_psd == 4.14e-21
        assert cfg.optical.bandwidth == 40e6
        assert cfg.optical.half_angle == pytest.approx(math.pi / 3)
        assert cfg.methods == ("analytic",)
        grid = cfg.theta_db_grid()
        assert grid.size == 121
        assert grid[0] == -20.0 and grid[-1] == 10.0

    def test_grid_step_and_bounds(self):
        cfg = RunConfig(theta_db_start=-1.0, theta_db_stop=1.0, theta_db_step=0.5)
        assert np.allclose(cfg.theta_db_grid(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("p_list", ()),
            ("p_list", (1.5,)),
            ("heights", ()),
            ("theta_db_step", 0.0),
            ("methods", ("nope",)),
            ("trials", 0),
            ("quad_order", 0),
            ("mc_trunc", 0),
            ("theta_db_step", math.nan),
            ("theta_db_start", -math.inf),
            ("theta_db_stop", math.nan),
            # entries that print the same under :g name the same curve file
            ("heights", (1.5, 1.5)),
            ("p_list", (0.3, 0.3000001)),
            ("methods", ("analytic", "analytic")),
        ],
    )
    def test_validation_rejects(self, field, value):
        cfg = RunConfig(**{field: value})
        with pytest.raises(ConfigError, match=field):
            cfg.validate()


class TestLoadConfig:
    def test_ini_round(self, tiny_config):
        cfg = load_config(str(tiny_config))
        assert cfg.heights == (1.5,)
        assert cfg.p_list == (0.3, 0.8)
        assert cfg.seed == 4242
        assert cfg.trials == 150
        assert cfg.mc_trunc == 10
        assert cfg.theta_db_step == 2.0
        assert cfg.quad_order == 6

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[geometry]\npich = 0.5\n")
        with pytest.raises(ConfigError, match="pich"):
            load_config(str(path))

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[geometri]\npitch = 0.5\n")
        with pytest.raises(ConfigError, match="geometri"):
            load_config(str(path))

    def test_bad_number_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[geometry]\npitch = half-a-metre\n")
        with pytest.raises(ConfigError, match="geometry.pitch"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.ini"))

    def test_every_field_round_trips(self, tmp_path, monkeypatch):
        # one non-default value per field, through the manifest sections,
        # through an INI file and, for every field that has a flag, through
        # the sweep flags
        cfg = RunConfig(
            optical=OpticalConfig(
                power=2.0, pd_area=2e-4, responsivity=0.3,
                half_angle=1.0, noise_psd=1e-20, bandwidth=2e7,
            ),
            pitch=0.4,
            heights=(1.25, 2.75),
            trunc=60,
            p_list=(0.2, 0.9),
            theta_db_start=-12.5,
            theta_db_stop=4.0,
            theta_db_step=0.5,
            methods=("brute", "montecarlo"),
            seed=77,
            trials=300,
            quad_order=12,
            mc_quad_order=6,
            mc_trunc=15,
            jobs=3,
            out_dir=str(tmp_path / "elsewhere"),
        )
        default = RunConfig()
        for f in dataclasses.fields(RunConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        for name in dataclasses.asdict(cfg.optical):
            assert getattr(cfg.optical, name) != getattr(default.optical, name), name

        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"version": "x", "config": cfg.as_sections()}))
        assert load_config(str(manifest)) == cfg

        lines = []
        for section, keys in cfg.as_sections().items():
            lines.append(f"[{section}]")
            for key, v in keys.items():
                lines.append(f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}")
        ini = tmp_path / "run.ini"
        ini.write_text("\n".join(lines) + "\n")
        assert load_config(str(ini)) == cfg

        flagged = [f for f in _FIELDS if f.flag]
        argv = ["sweep"]
        for f in flagged:
            v = f.get(cfg)
            argv += [f.flag.name, ",".join(map(str, v)) if isinstance(v, tuple) else str(v)]
        seen = []
        monkeypatch.setattr("attocell.cli.run_sweep", lambda c: seen.append(c) or EXIT_OK)
        assert main(argv) == EXIT_OK
        assert {f.key: f.get(seen[0]) for f in flagged} == {f.key: f.get(cfg) for f in flagged}

    def test_readme_example_loads_as_defaults(self, tmp_path):
        # the INI block in README.md, inline "; unit" comments included,
        # spells out the defaults
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert load_config(str(path)) == RunConfig()

    def test_json_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"thinning": {"p_list": [0.5], "seed": 9}}))
        cfg = load_config(str(path))
        assert cfg.p_list == (0.5,) and cfg.seed == 9


def run_cli(*argv):
    return main(list(argv))


class TestSweep:
    def test_analytic_sweep_outputs(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", str(tiny_config), "--out", str(out)) == EXIT_OK
        files = sorted(f.name for f in out.iterdir())
        assert files == [
            "coverage_p0.3_h1.5_analytic.csv",
            "coverage_p0.8_h1.5_analytic.csv",
            "manifest.json",
        ]
        lines = (out / "coverage_p0.3_h1.5_analytic.csv").read_text().splitlines()
        assert lines[0] == "theta_db,theta_linear,p_c,stderr"
        assert len(lines) == 1 + 4  # -10, -8, -6, -4
        first = lines[1].split(",")
        assert first[0] == "-10"
        assert first[3] == ""  # no stderr column content for analytic curves
        assert float(first[1]) == pytest.approx(0.1, rel=1e-15)

    def test_seventeen_digit_formatting(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        run_cli("sweep", "--config", str(tiny_config), "--out", str(out))
        body = (out / "coverage_p0.3_h1.5_analytic.csv").read_text()
        assert "0.10000000000000001" in body  # 10^-1 rendered with 17 significant digits

    @pytest.mark.parametrize("with_stderr", [False, True])
    def test_csv_bytes(self, tmp_path, with_stderr):
        # each cell is float(x) with 17 significant digits
        theta_db = np.array([-20.0, -0.1, 0.0, 1.0, 5e-324])
        theta_linear = 10.0 ** (theta_db / 10.0)
        values = np.array([1.0, 0.1, 5e-324, 0.0, 1.0 / 3.0])
        stderr = np.array([0.0, 1.0, 0.1, 5e-324, 2.0 / 3.0]) if with_stderr else None
        path = tmp_path / "curve.csv"
        _write_curve_csv(path, CoverageCurve(theta_db, theta_linear, values, stderr))
        expected = "theta_db,theta_linear,p_c,stderr\n"
        for i in range(values.size):
            cells = [theta_db[i], theta_linear[i], values[i]] + ([stderr[i]] if with_stderr else [])
            expected += ",".join(f"{float(x):.17g}" for x in cells) + ("\n" if with_stderr else ",\n")
        assert path.read_bytes() == expected.encode("utf-8")

    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("sweep", "--config", str(tiny_config), "--out", str(out1))
        run_cli("sweep", "--config", str(tiny_config), "--out", str(out2))
        for name in ("coverage_p0.3_h1.5_analytic.csv", "coverage_p0.8_h1.5_analytic.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_round_trip(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("sweep", "--config", str(tiny_config), "--out", str(out1))
        manifest = out1 / "manifest.json"
        data = json.loads(manifest.read_text())
        assert data["config"]["thinning"]["seed"] == 4242
        assert data["outputs"]
        run_cli("sweep", "--config", str(manifest), "--out", str(out2))
        for name in data["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_montecarlo_method_adds_stderr_and_diffs(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "sweep",
            "--config",
            str(tiny_config),
            "--out",
            str(out),
            "--methods",
            "analytic,montecarlo",
        )
        assert code == EXIT_OK
        mc = (out / "coverage_p0.3_h1.5_montecarlo.csv").read_text().splitlines()
        assert mc[1].split(",")[3] != ""
        data = json.loads((out / "manifest.json").read_text())
        assert "max_abs_diff_analytic_vs_montecarlo" in data
        assert set(data["max_abs_diff_analytic_vs_montecarlo"]) == {"p0.3_h1.5", "p0.8_h1.5"}
        assert data["max_abs_diff_overall"] >= 0.0
        cfg = load_config(str(tiny_config))
        geometry = cfg.geometry(1.5)
        beta = DerivedConstants.from_configs(cfg.optical, geometry).beta
        sampled = dataclasses.replace(geometry, trunc=cfg.mc_trunc)
        assert data["montecarlo_tail_bound"] == {"h1.5": tail_bound(sampled, beta)}

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[thinning]\np_list =\n")
        assert run_cli("sweep", "--config", str(bad), "--out", str(tmp_path / "o")) == EXIT_CONFIG

    def test_colliding_curve_names_rejected_before_output(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("sweep", "--config", str(tiny_config), "--p", "0.3,0.3000001", "--out", str(out))
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: thinning.p_list: ")

    def test_grid_too_large_for_memory_is_an_error(self, tiny_config, tmp_path, capsys):
        # 3e16 thresholds: np.arange fails at once on any 64-bit address space
        big = tmp_path / "big.ini"
        big.write_text(tiny_config.read_text().replace("theta_db_step = 2", "theta_db_step = 1e-15"))
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", str(big), "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_unwritable_output_exit_code(self, tiny_config, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = run_cli("sweep", "--config", str(tiny_config), "--out", str(blocker / "sub"))
        assert code == EXIT_IO

    CSV = "coverage_p0.3_h1.5_analytic.csv"

    def _sweep(self, tiny_config, out, *flags):
        return run_cli("sweep", "--config", str(tiny_config), "--out", str(out), *flags)

    def test_rerun_into_same_out_is_byte_identical(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert self._sweep(tiny_config, out) == EXIT_OK
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert self._sweep(tiny_config, out) == EXIT_OK
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first

    def test_rerun_replaces_rather_than_rewrites(self, tiny_config, tmp_path):
        # a hard link keeps the first run's file: the rerun made a new one
        out = tmp_path / "out"
        self._sweep(tiny_config, out)
        link = tmp_path / "link.csv"
        os.link(out / self.CSV, link)
        assert self._sweep(tiny_config, out) == EXIT_OK
        assert link.exists()
        assert not os.path.samefile(link, out / self.CSV)
        assert link.stat().st_nlink == 1
        assert link.read_bytes() == (out / self.CSV).read_bytes()

    def test_symlink_at_output_is_replaced_not_followed(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "target.txt"
        target.write_text("keep me")
        (out / self.CSV).symlink_to(target)
        (out / "manifest.json").symlink_to(target)
        assert self._sweep(tiny_config, out) == EXIT_OK
        assert not (out / self.CSV).is_symlink() and (out / self.CSV).is_file()
        assert not (out / "manifest.json").is_symlink()
        assert (out / self.CSV).read_text().startswith("theta_db,")
        assert target.read_text() == "keep me"

    def test_directory_at_output_exit_code(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        (out / self.CSV).mkdir(parents=True)
        assert self._sweep(tiny_config, out) == EXIT_IO
        assert (out / self.CSV).is_dir()

    def test_failed_rerun_leaves_no_stale_manifest(self, tiny_config, tmp_path):
        # the rerun writes the p = 0.3 curve at order 32, then fails on p = 0.8:
        # the order-8 manifest must not stay beside the order-32 CSV
        out = tmp_path / "out"
        assert self._sweep(tiny_config, out, "--quad-order", "8") == EXIT_OK
        first = (out / self.CSV).read_bytes()
        (out / "coverage_p0.8_h1.5_analytic.csv").unlink()
        (out / "coverage_p0.8_h1.5_analytic.csv").mkdir()
        assert self._sweep(tiny_config, out, "--quad-order", "32") == EXIT_IO
        assert not (out / "manifest.json").exists()
        assert (out / self.CSV).read_bytes() != first


class TestFlags:
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("sums", {"--config", "--trunc", "--pos", "--jl", "--height"}),
            (
                "validate",
                {"--config", "--seed", "--trials", "--mc-quad-order", "--mc-trunc", "--jobs",
                 "--heights", "--p", "--budget"},
            ),
            (
                "sweep",
                {"--config", "--seed", "--trials", "--quad-order", "--mc-quad-order", "--trunc",
                 "--mc-trunc", "--jobs", "--heights", "--p", "--out", "--methods"},
            ),
        ],
    )
    def test_help_lists_the_flags_read(self, capsys, command, flags):
        assert run_cli(command, "--help") == EXIT_OK
        listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
        assert listed == flags

    @pytest.mark.parametrize(
        "argv",
        [
            ("sums", "--seed", "1"),
            ("sums", "--p", "0.5"),
            ("sums", "--heights", "2"),
            ("validate", "--quad-order", "8"),
            ("validate", "--trunc", "10"),
        ],
    )
    def test_unread_flag_rejected(self, tiny_config, capsys, argv):
        command, *flag = argv
        assert run_cli(command, "--config", str(tiny_config), *flag) == EXIT_CONFIG
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_usage_error_exits_config(self):
        # exit 2 belongs to a failed validate
        assert run_cli("sweep", "--trials", "abc") == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["sums", "sweep"])
    def test_gamma_overflow_is_an_error(self, tmp_path, capsys, command):
        # a 5 degree beam gives beta = 184.8, past where Gamma overflows
        narrow = tmp_path / "narrow.ini"
        narrow.write_text("[optical]\nhalf_angle = 0.0872664626\n")
        extra = ["--out", str(tmp_path / "o")] if command == "sweep" else []
        assert run_cli(command, "--config", str(narrow), *extra) == EXIT_CONFIG
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "gamma: argument 184.8" in errors[0]

    @pytest.mark.parametrize(
        "command,half_angle",
        [
            ("sums", 0.0872664626),
            ("validate", 0.0872664626),
            ("sweep", 0.0872664626),
            # beta = 102.3: Gamma(beta) fits a double, Gamma(2 beta) does not
            ("sums", 0.118),
        ],
    )
    def test_narrow_beam_rejected_before_output(self, tiny_config, tmp_path, capsys, command, half_angle):
        narrow = tmp_path / "narrow.ini"
        narrow.write_text(tiny_config.read_text() + f"\n[optical]\nhalf_angle = {half_angle}\n")
        out = tmp_path / "o"
        extra = ["--out", str(out)] if command == "sweep" else []
        assert run_cli(command, "--config", str(narrow), *extra) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        assert captured.err.startswith("error: optical.half_angle: ")

    def test_narrow_beam_brute_sweep_runs(self, tiny_config, tmp_path):
        # brute-force sums need no Gamma, so a 5 degree beam still sweeps
        narrow = tmp_path / "narrow.ini"
        narrow.write_text(tiny_config.read_text() + "\n[optical]\nhalf_angle = 0.0872664626\n")
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", str(narrow), "--methods", "brute", "--out", str(out)) == EXIT_OK
        for name in json.loads((out / "manifest.json").read_text())["outputs"]:
            values = np.loadtxt(out / name, delimiter=",", skiprows=1, usecols=2)
            assert np.all((values >= 0.0) & (values <= 1.0))

    @pytest.mark.parametrize(
        "command,ini,extra",
        [
            # beta = 84.8: the default window gives S_m = -4.85e-32
            ("sums", "\n[optical]\nhalf_angle = 0.13\n", []),
            # h/a = 1: S_v < 0 at nodes near the centre
            ("sweep", "", ["--heights", "0.5", "--quad-order", "32"]),
            # the same at the analytic curves validate compares against
            ("validate", "", ["--heights", "0.5", "--mc-quad-order", "16"]),
        ],
    )
    def test_non_positive_series_is_an_error(self, tiny_config, tmp_path, capsys, command, ini, extra):
        config = tmp_path / "case.ini"
        config.write_text(tiny_config.read_text() + ini)
        out_dir = tmp_path / "o"
        out = ["--out", str(out_dir)] if command == "sweep" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(command, "--config", str(config), *extra, *out)
        assert code == EXIT_CONFIG
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        # every curve and sum is computed before any output begins
        assert captured.out == ""
        assert not out_dir.exists()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert re.match(r"error: series sum S\(e\) at exponent e = \S+ is -\S+ at node \(", errors[0])
        assert "mode window jl = (1, 1)" in errors[0] and 'sums="brute"' in errors[0]


class TestSums:
    def test_report_contents(self, tiny_config, capsys):
        # trunc must be generous enough that the brute-force truncation gap
        # does not dominate the series comparison
        assert run_cli("sums", "--config", str(tiny_config), "--pos", "0,0", "--trunc", "80") == EXIT_OK
        out = capsys.readouterr().out
        assert "S_m" in out and "S_v" in out
        assert "mode(1,1)" in out
        for line in out.splitlines():
            if line.startswith("S_m"):
                rel = float(line.split()[3])
                assert rel < 1e-6

    def test_zero_mode_window(self, tiny_config, capsys):
        assert run_cli("sums", "--config", str(tiny_config), "--jl", "0,0") == EXIT_OK
        out = capsys.readouterr().out
        assert "mode(" not in out

    def test_outside_attocell_warns_but_proceeds(self, tiny_config, capsys):
        assert run_cli("sums", "--config", str(tiny_config), "--pos", "0.4,0.1") == EXIT_OK
        err = capsys.readouterr().err
        assert "outside the attocell" in err

    def test_bad_pos(self, tiny_config):
        assert run_cli("sums", "--config", str(tiny_config), "--pos", "1,2,3") == EXIT_CONFIG

    @pytest.mark.parametrize("pos", ["nan,0", "0.1,inf"])
    def test_non_finite_pos(self, tiny_config, capsys, pos):
        assert run_cli("sums", "--config", str(tiny_config), "--pos", pos) == EXIT_CONFIG
        assert "--pos" in capsys.readouterr().err


class TestValidate:
    @pytest.mark.parametrize("budget", ["nan", "-0.1"])
    def test_bad_budget_rejected_before_sampling(self, tiny_config, capsys, monkeypatch, budget):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the budget")

        monkeypatch.setattr("attocell.cli.empirical_coverage_curves", no_sampling)
        code = run_cli("validate", "--config", str(tiny_config), "--budget", budget)
        assert code == EXIT_CONFIG
        assert "--budget" in capsys.readouterr().err

    def test_passes_with_reasonable_trials(self, tiny_config, capsys):
        code = run_cli("validate", "--config", str(tiny_config), "--trials", "400")
        out = capsys.readouterr().out
        assert code == EXIT_OK, out
        assert "OK" in out and "ks=" in out

    def test_fails_with_starved_trials(self, tiny_config, capsys):
        code = run_cli(
            "validate", "--config", str(tiny_config), "--trials", "2", "--seed", "1"
        )
        out = capsys.readouterr().out
        assert code == EXIT_VALIDATION
        assert "exceeds budget" in out

    def test_p_one_deterministic_path(self, tiny_config, capsys):
        code = run_cli(
            "validate", "--config", str(tiny_config), "--p", "1.0", "--trials", "50"
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK, out
