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
    _integer,
    _row_leads,
    _write_curve_csv,
    load_config,
    main,
)
from attocell.coverage import CoverageCurve
from attocell.lattice_sums import sm_brute, sm_series, sv_brute, sv_series
from attocell.model import TABLE_DEFAULT_OPTICS, NetworkGeometry, OpticalConfig, tail_bound

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
            # finite in dB, but 10^(dB/10) overflows to inf or underflows to 0
            ("theta_db_stop", 3100.0),
            ("theta_db_start", -3300.0),
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

    @pytest.mark.parametrize(
        "name,text,error",
        [
            # the [optical] values replace the OpticalConfig at once, which checks them
            ("bad.ini", "[optical]\npower = -1\n", "optical.power must be finite and > 0, got -1.0"),
            ("bad.ini", "[sweep]\ntheta_db_start = 5\ntheta_db_stop = 4\n",
             "sweep.theta_db_stop: must be >= theta_db_start"),
            # configparser's own message spans three lines
            ("bad.ini", "[geometry\npitch = 0.5\n",
             "cannot parse config file {path}: File contains no section headers. file: '{path}', line: 1 "
             "'[geometry\\n'"),
            ("bad.json", '{"geometry": {"pitch": 0.5,}}', "cannot parse config file {path}: Expecting property name"),
            ("bad.json", '{"geometry": [0.5]}', "config section [geometry] must hold key = value pairs"),
            ("bad.json", '{"geometry": {"trunc": 2.5}}', "geometry.trunc: expected an integer, got 2.5"),
        ],
        ids=["ini-power", "ini-theta-stop-below-start", "ini-no-section-header", "json-malformed",
             "json-section-not-object", "json-fractional-trunc"],
    )
    def test_bad_file_is_one_error_line(self, tmp_path, capsys, name, text, error):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", str(path), "--out", str(out)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert line.startswith("error: " + error.format(path=path))

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

    @pytest.mark.parametrize(
        "section,key,value,expected",
        [
            ("geometry", "pitch", True, "a number"),
            ("thinning", "p_list", [True], "a number"),
            ("geometry", "trunc", True, "an integer"),
            ("thinning", "seed", False, "an integer"),
        ],
    )
    def test_json_booleans_rejected(self, tmp_path, capsys, section, key, value, expected):
        # true is not the number 1, nor false the seed 0
        path = tmp_path / "run.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert run_cli("sums", "--config", str(path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {section}.{key}: expected {expected}, got {bool(value)!r}\n"

    @pytest.mark.parametrize("value", [None, 5, True])
    def test_json_out_dir_must_be_a_string(self, tmp_path, monkeypatch, capsys, value):
        # a null must not sweep into a directory named "None"
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"output": {"out_dir": value}}))
        assert run_cli("sweep", "--config", str(path)) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: output.out_dir: expected a string, got {value!r}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("route", ["flag", "ini", "json"])
    def test_empty_out_dir_refused(self, tiny_config, tmp_path, monkeypatch, capsys, route):
        # an empty name must not write the curves into the working directory
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = ["sweep", "--config", str(tiny_config)]
        if route == "flag":
            argv += ["--out", ""]
        elif route == "ini":
            tiny_config.write_text(TINY_INI + "\n[output]\nout_dir =\n")
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"output": {"out_dir": ""}}))
            argv[2] = str(path)
        assert run_cli(*argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: output.out_dir: must not be empty (use . for the working directory)\n"
        )
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("name", ["run_100%", "%(home)s", "a%%b"])
    def test_percent_in_ini_value_is_literal(self, tiny_config, tmp_path, name):
        ini = tmp_path / "percent.ini"
        ini.write_text(tiny_config.read_text() + f"\n[output]\nout_dir = {tmp_path / name}\n")
        assert load_config(str(ini)).out_dir == str(tmp_path / name)
        assert run_cli("sweep", "--config", str(ini)) == EXIT_OK
        assert (tmp_path / name / "manifest.json").is_file()


# every integer setting, each of which has a flag
INTEGER_FIELDS = [f for f in _FIELDS if f.parse is _integer]


class TestIntegerSyntax:
    """A flag's value is read exactly like the same key in a config file."""

    def _parse(self, monkeypatch, tmp_path, field, raw, via):
        seen = []
        monkeypatch.setattr("attocell.cli.run_sweep", lambda c: seen.append(c) or EXIT_OK)
        if via == "flag":
            return main(["sweep", field.flag.name, raw]), seen
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{field.section}]\n{field.key} = {raw}\n")
        return main(["sweep", "--config", str(ini)]), seen

    @pytest.mark.parametrize("via", ["flag", "file"])
    @pytest.mark.parametrize("raw", ["16", "0x10", "1_6", " 16 "])
    @pytest.mark.parametrize("field", INTEGER_FIELDS, ids=lambda f: f.key)
    def test_python_literals_read(self, monkeypatch, tmp_path, field, raw, via):
        code, seen = self._parse(monkeypatch, tmp_path, field, raw, via)
        assert code == EXIT_OK
        assert field.get(seen[0]) == 16

    @pytest.mark.parametrize("via", ["flag", "file"])
    @pytest.mark.parametrize("raw", ["010", "1.5", "abc"])
    @pytest.mark.parametrize("field", INTEGER_FIELDS, ids=lambda f: f.key)
    def test_other_text_refused(self, monkeypatch, tmp_path, capsys, field, raw, via):
        code, seen = self._parse(monkeypatch, tmp_path, field, raw, via)
        assert code == EXIT_CONFIG and not seen
        name = field.flag.name if via == "flag" else f"{field.section}.{field.key}"
        assert capsys.readouterr().err == f"error: {name}: expected an integer, got {raw!r}\n"


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
        _write_curve_csv(path, _row_leads(theta_db), CoverageCurve(theta_db, values, stderr))
        expected = "theta_db,theta_linear,p_c,stderr\n"
        for i in range(values.size):
            cells = [theta_db[i], theta_linear[i], values[i]] + ([stderr[i]] if with_stderr else [])
            expected += ",".join(f"{float(x):.17g}" for x in cells) + ("\n" if with_stderr else ",\n")
        assert path.read_bytes() == expected.encode("utf-8")

    def test_row_leads_shared_by_curves_on_one_grid(self, tmp_path):
        # the leads formatted once write each curve as per-row formatting does
        theta_db = -20.0 + 0.05 * np.arange(7)
        leads = _row_leads(theta_db)
        n = theta_db.size
        curves = [
            CoverageCurve(theta_db, np.linspace(0.9, 0.0, n)),
            CoverageCurve(theta_db, np.full(n, 1.0 / 3.0), np.geomspace(1e-3, 1e-9, n)),
        ]
        for k, curve in enumerate(curves):
            path = tmp_path / f"curve{k}.csv"
            _write_curve_csv(path, leads, curve)
            stderr = [""] * n if curve.stderr is None else [f"{float(e):.17g}" for e in curve.stderr]
            expected = "theta_db,theta_linear,p_c,stderr\n" + "".join(
                f"{float(t):.17g},{float(lin):.17g},{float(v):.17g},{e}\n"
                for t, lin, v, e in zip(theta_db, 10.0 ** (theta_db / 10.0), curve.values, stderr)
            )
            assert path.read_bytes() == expected.encode("utf-8")
        with pytest.raises(ValueError):
            _write_curve_csv(tmp_path / "short.csv", leads[:-1], curves[0])

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
        beta = cfg.optical.beta
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

    def test_brute_sweep_computes_node_sums_once_per_height(self, tiny_config, tmp_path, monkeypatch):
        import attocell.coverage

        methods = []
        original = attocell.coverage.moment_sums
        monkeypatch.setattr(
            attocell.coverage, "moment_sums", lambda *a, **k: methods.append(a[4]) or original(*a, **k)
        )
        argv = ["--methods", "brute", "--heights", "1.5,2", "--p", "0.3,0.5,0.8", "--out", str(tmp_path / "o")]
        assert run_cli("sweep", "--config", str(tiny_config), *argv) == EXIT_OK
        assert methods == ["brute", "brute"]
        assert len(json.loads((tmp_path / "o" / "manifest.json").read_text())["outputs"]) == 6

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
        "command,flags",
        [
            # K^2 underflows to 0 (the eta grid would divide by it)
            ("sweep", ["--methods", "brute", "--heights", "1e-300"]),
            ("sweep", ["--methods", "montecarlo", "--heights", "1e-300"]),
            # K^2 overflows; the brute sums underflow to 0 first
            ("sweep", ["--methods", "brute", "--heights", "1e150"]),
            ("sweep", ["--methods", "montecarlo", "--heights", "1e150"]),
            # a term of the series leaves the float range: the integral term
            # h^(2 - 2e) at e = 2 beta for a low height, the mode prefactor
            # (h / (2 pi rho))^(e - 1) for a high one
            ("sweep", ["--methods", "analytic", "--heights", "1e-30"]),
            ("sweep", ["--methods", "analytic", "--heights", "1e-300"]),
            ("sweep", ["--methods", "analytic", "--heights", "1e150"]),
            ("sweep", ["--methods", "analytic", "--heights", "1e50"]),
            ("sums", ["--height", "1e150"]),
            # K^2 fits, but every brute-force weight underflows to 0
            ("sweep", ["--methods", "brute", "--heights", "1e50"]),
            # every term fits, but the sums underflow to 0: the series S(2 beta)
            # at 1e30 and 1e42, every brute-force weight at e = beta for sums
            ("sums", ["--height", "1e42"]),
            ("sums", ["--height", "1e60"]),
            ("sweep", ["--methods", "analytic", "--heights", "1e30"]),
            ("sweep", ["--methods", "analytic", "--heights", "1e42"]),
        ],
        ids=[
            "brute-1e-300", "montecarlo-1e-300", "brute-1e150", "montecarlo-1e150", "analytic-1e-30",
            "analytic-1e-300", "analytic-1e150", "analytic-1e50", "sums-1e150", "brute-1e50",
            "sums-1e42", "sums-1e60", "analytic-1e30", "analytic-1e42",
        ],
    )
    def test_extreme_height_is_an_error(self, tiny_config, tmp_path, capsys, command, flags):
        out = tmp_path / "o"
        argv = ["--config", str(tiny_config), *flags] + (["--out", str(out)] if command == "sweep" else [])
        assert run_cli(command, *argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: geometry.height = {float(flags[-1])!r} ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("height", ["1e30", "1e42", "1e50", "1e60"])
    @pytest.mark.parametrize(
        "method,jobs", [("analytic", "1"), ("brute", "1"), ("montecarlo", "1"), ("montecarlo", "2")]
    )
    def test_far_height_refused_by_every_method(
        self, tiny_config, tmp_path, capsys, monkeypatch, method, height, jobs
    ):
        # far above the pitch S(2 beta) (and from 1e42 on S(beta)) underflows
        # to 0: every method refuses the height by moment_sums' one message,
        # Monte Carlo before its first draw
        def no_sampling(*args):
            raise AssertionError("sampled at a height whose sums leave the float range")

        monkeypatch.setattr("attocell.montecarlo.substream", no_sampling)
        out = tmp_path / "o"
        argv = ["--config", str(tiny_config), "--methods", method, "--heights", height, "--jobs", jobs]
        assert run_cli("sweep", *argv, "--out", str(out)) == EXIT_CONFIG
        captured = capsys.readouterr()
        sums = "series" if method == "analytic" else "brute"
        assert captured.err.splitlines() == [
            f"error: geometry.height = {float(height)!r} puts the {sums} sums S(e) outside the float "
            f"range (h/a = {float(height) / 0.5:.6g})"
        ]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,edit,flags,error",
        [
            # the tail bound of the sampled lattice overflows
            ("sweep", ("pitch = 0.5", "pitch = 1e-60"), ["--methods", "montecarlo"], "geometry.pitch = 1e-60 "),
            # the brute route refuses the same tail bound before any sum
            ("sweep", ("pitch = 0.5", "pitch = 1e-60"), ["--methods", "brute"], "geometry.pitch = 1e-60 "),
            ("sweep", ("pitch = 0.5", "pitch = 1e-60"),
             ["--methods", "brute", "--heights", "1.5", "--p", "0.5", "--trunc", "20", "--quad-order", "2"],
             "geometry.pitch = 1e-60 "),
            # the series divides by a ** (e + 1), or at 1e-300 by a * a, both 0
            ("sweep", ("pitch = 0.5", "pitch = 1e-60"), ["--methods", "analytic"], "geometry.height = 1.5 "),
            # sums computes its brute column first, whose tail bound overflows
            ("sums", ("pitch = 0.5", "pitch = 1e-60"), [], "geometry.pitch = 1e-60 "),
            ("validate", ("pitch = 0.5", "pitch = 1e-60"), [], "geometry.height = 1.5 "),
            ("sweep", ("pitch = 0.5", "pitch = 1e-300"), ["--methods", "analytic"], "geometry.height = 1.5 "),
            # a threshold of inf or 0 in linear terms, before any sum
            ("sweep", ("-10\ntheta_db_stop = -4", "3100\ntheta_db_stop = 3100"), [], "sweep.theta_db_start: "),
            ("sweep", ("-10\ntheta_db_stop = -4", "3100\ntheta_db_stop = 3100"), ["--methods", "brute"],
             "sweep.theta_db_start: "),
            ("sweep", ("theta_db_stop = -4", "theta_db_stop = 3100"), ["--methods", "montecarlo"],
             "sweep.theta_db_stop: "),
            ("validate", ("-10\ntheta_db_stop = -4", "-3300\ntheta_db_stop = -3300"), [], "sweep.theta_db_start: "),
            # a grid of more thresholds than a float counts by ones
            ("sweep", ("theta_db_stop = -4", "theta_db_stop = 1e308"), [], "sweep.theta_db_stop: 1e+308 "),
            ("validate", ("theta_db_stop = -4", "theta_db_stop = 1e308"), [], "sweep.theta_db_stop: 1e+308 "),
            ("sweep", ("theta_db_step = 2", "theta_db_step = 1e-300"), [], "sweep.theta_db_stop: -4.0 "),
            # past 1447 rings a float32 limb of the sampled weights keeps no bit
            ("sweep", ("", ""), ["--methods", "montecarlo", "--mc-trunc", "1448"], "geometry.trunc must be <= 1447 "),
            ("validate", ("", ""), ["--mc-trunc", "1448"], "geometry.trunc must be <= 1447 "),
            # the tail bound is finite at S(beta) and overflows at S(2 beta):
            # these wrote p_c = 0 at every threshold and exited 0
            ("sweep", ("pitch = 0.5", "pitch = 1e-30"),
             ["--methods", "brute", "--heights", "1.5", "--p", "0.5", "--trunc", "20", "--quad-order", "2"],
             "geometry.pitch = 1e-30 puts the tail bound outside the float range at geometry.trunc = 20 "
             "(exponent e = 8)"),
            ("sweep", ("pitch = 0.5", "pitch = 1e-30"),
             ["--methods", "montecarlo", "--heights", "1.5", "--p", "0.5", "--mc-trunc", "10", "--mc-quad-order", "2",
              "--trials", "50"],
             "geometry.pitch = 1e-30 puts the tail bound outside the float range at geometry.trunc = 10 "
             "(exponent e = 8)"),
            # cos(1e-9) is 1.0 in a double: an infinite Lambertian order
            ("sweep", ("[geometry]", "[optical]\nhalf_angle = 1e-9\n[geometry]"), [], "optical.half_angle: "),
            ("sums", ("[geometry]", "[optical]\nhalf_angle = 1e-9\n[geometry]"), [], "optical.half_angle: "),
            ("validate", ("[geometry]", "[optical]\nhalf_angle = 1e-9\n[geometry]"), [], "optical.half_angle: "),
            # P_o^2 or R_pd^2 overflows, or underflows to 0, in the noise floor
            ("sweep", ("[geometry]", "[optical]\npower = 1e160\n[geometry]"), [], "optical.power = 1e+160 "),
            ("validate", ("[geometry]", "[optical]\npower = 1e160\n[geometry]"), [], "optical.power = 1e+160 "),
            ("sweep", ("[geometry]", "[optical]\nresponsivity = 1e200\n[geometry]"), ["--methods", "brute"],
             "optical.responsivity = 1e+200 "),
            ("sweep", ("[geometry]", "[optical]\npower = 1e-200\n[geometry]"), ["--methods", "montecarlo"],
             "optical.power = 1e-200 "),
            ("validate", ("[geometry]", "[optical]\nresponsivity = 1e-200\n[geometry]"), [],
             "optical.responsivity = 1e-200 "),
            # a tiny PD and a wide beam keep K^2 in range, but h^2 overflows:
            # these printed a bare OverflowError
            ("sweep", ("[geometry]", "[optical]\npd_area = 1e-300\nhalf_angle = 1.3\n[geometry]"),
             ["--methods", "brute", "--heights", "1e160"], "geometry.height = 1e+160 "),
            ("sweep", ("[geometry]", "[optical]\npd_area = 1e-300\nhalf_angle = 1.3\n[geometry]"),
             ["--methods", "montecarlo", "--heights", "1e160"], "geometry.height = 1e+160 "),
            ("sums", ("[geometry]", "[optical]\npd_area = 1e-300\nhalf_angle = 1.3\n[geometry]"),
             ["--height", "1e160"], "geometry.height = 1e+160 "),
        ],
        ids=[
            "montecarlo-pitch", "brute-pitch", "brute-pitch-trunc-20", "analytic-pitch", "sums-pitch", "validate-pitch", "analytic-pitch-1e-300",
            "analytic-theta-3100", "brute-theta-3100", "montecarlo-theta-stop-3100", "validate-theta-3300",
            "sweep-theta-stop-1e308", "validate-theta-stop-1e308", "sweep-theta-step-1e-300",
            "montecarlo-mc-trunc", "validate-mc-trunc",
            "brute-pitch-1e-30", "montecarlo-pitch-1e-30",
            "sweep-half-angle-1e-9", "sums-half-angle-1e-9", "validate-half-angle-1e-9",
            "sweep-power-1e160", "validate-power-1e160", "brute-responsivity-1e200", "montecarlo-power-1e-200",
            "validate-responsivity-1e-200", "brute-height-1e160", "montecarlo-height-1e160", "sums-height-1e160",
        ],
    )
    def test_out_of_range_setting_refused_before_output(
        self, tiny_config, tmp_path, capsys, monkeypatch, command, edit, flags, error
    ):
        def no_sampling(*args):
            raise AssertionError("sampled with a setting that is refused")

        monkeypatch.setattr("attocell.montecarlo.substream", no_sampling)
        config = tmp_path / "case.ini"
        config.write_text(tiny_config.read_text().replace(*edit))
        out_dir = tmp_path / "o"
        out = ["--out", str(out_dir)] if command == "sweep" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(command, "--config", str(config), *flags, *out)
        assert code == EXIT_CONFIG
        assert not caught
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out_dir.exists()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {error}")

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

    @pytest.mark.parametrize(
        "flag,raw,error",
        [
            ("--pos", "a,b", "error: --pos: expected numbers, got 'a,b'"),
            ("--jl", "1,-1", "error: --jl: modes must be >= 0, got '1,-1'"),
            # its square overflows: this printed a numpy RuntimeWarning, the
            # outside-the-attocell warning and an error blaming the height
            ("--pos", "1e200,0", "error: position (1e+200, 0.0): each coordinate and its square must be finite"),
        ],
    )
    def test_bad_pair_is_one_error_line(self, tiny_config, capsys, flag, raw, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("sums", "--config", str(tiny_config), flag, raw) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [error]

    def test_report_numbers_are_the_per_position_sums(self, tiny_config, capsys):
        # every printed S_m and S_v digit, and each tail bound, as the
        # per-position sums give them
        pos, jl = (0.13, -0.07), (2, 2)
        argv = ["--config", str(tiny_config), "--pos", "0.13,-0.07", "--jl", "2,2", "--trunc", "60"]
        assert run_cli("sums", *argv) == EXIT_OK
        rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines() if line}
        geometry = NetworkGeometry(pitch=0.5, height=1.5, trunc=60)
        beta = TABLE_DEFAULT_OPTICS.beta
        sums = (("S_m", sm_brute, sm_series, beta), ("S_v", sv_brute, sv_series, 2.0 * beta))
        for label, brute_fn, series_fn, exponent in sums:
            brute = brute_fn(geometry, beta, pos)
            series = series_fn(geometry, beta, pos, jl=jl)
            _, b, s, _, tail = rows[label]
            assert b == f"{brute.value:.17g}" and s == f"{series.value:.17g}"
            assert tail == f"{tail_bound(geometry, exponent):.2e}"


class TestValidate:
    @pytest.mark.parametrize("budget", ["nan", "-0.1"])
    def test_bad_budget_rejected_before_sampling(self, tiny_config, capsys, monkeypatch, budget):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the budget")

        monkeypatch.setattr("attocell.cli.empirical_coverage_curves", no_sampling)
        code = run_cli("validate", "--config", str(tiny_config), "--budget", budget)
        assert code == EXIT_CONFIG
        assert "--budget" in capsys.readouterr().err

    def test_single_trial_rejected_before_sampling(self, tiny_config, capsys, monkeypatch):
        # the CLT diagnostics need a sample variance, so at least 2 trials
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the trial count")

        monkeypatch.setattr("attocell.cli.empirical_coverage_curves", no_sampling)
        assert run_cli("validate", "--config", str(tiny_config), "--trials", "1") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: thinning.trials: ")

    def test_series_refusal_before_sampling(self, tiny_config, capsys, monkeypatch):
        # the analytic curves of a height come first, so a height whose
        # series sums leave the float range stops the run before any sampling
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the analytic curves")

        monkeypatch.setattr("attocell.cli.empirical_coverage_curves", no_sampling)
        assert run_cli("validate", "--config", str(tiny_config), "--heights", "1e42") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: geometry.height = 1e+42 ")

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
