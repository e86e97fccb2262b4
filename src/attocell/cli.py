"""Command-line front end: parameter sweeps, sum reports, MC validation.

Subcommands
-----------
sweep      compute coverage curves for every (p, height, method) in the
           run configuration and write one CSV per curve plus a JSON
           manifest echoing the fully resolved configuration.
sums       print the interference moment sums at one receiver position:
           brute force vs closed form, relative errors and truncation tail
           bounds.
validate   run the Monte Carlo oracle against the analytic curves across
           the threshold grid and report the worst absolute deviation;
           fails (exit 2) if it exceeds the agreement budget.

Configuration comes from an INI-style file (``key = value`` under
``[optical]``, ``[geometry]``, ``[thinning]``, ``[sweep]``, ``[output]``),
from a previously written ``manifest.json``, or from nothing at all: the
defaults reproduce the shipped reference setup (0.5 m pitch, heights 1.5 to
3.0 m, p in {0.3, 0.5, 0.8}, thresholds -20..10 dB in 0.25 dB steps).
A config file is read once: text that starts with ``{`` is JSON or a
manifest, anything else INI.  Flags override file values, and a flag's
value, ``--pos``, ``--jl``, ``--height`` and ``--budget`` included, is read
by the same parsers as the settings in a file; each subcommand accepts only
the flags whose values it reads.  CSV cells are printed with 17
significant digits and '\\n' line endings, so identical configurations and
seeds produce byte-identical files.

Exit codes: 0 success, 1 configuration or usage error (a setting too large
for memory included), 2 validation failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .coverage import CoverageCurve, coverage_curves, db_to_linear
from .lattice_sums import moment_sums
from .model import NetworkGeometry, OpticalConfig, TABLE_DEFAULT_OPTICS, _or_inf, position_xy, tail_bound
from .montecarlo import _MAX_SAMPLED_TRUNC, ThinningModel, clt_diagnostics, empirical_coverage_curves
from .specfun import gamma

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

_METHODS = ("analytic", "montecarlo", "brute")


class ConfigError(Exception):
    """Malformed run configuration; the message names the offending field."""


# -- raw-value parsers: each raises ValueError naming the bad token ----------


def _tokens(raw) -> list:
    if isinstance(raw, (list, tuple)):
        return list(raw)
    return [tok.strip() for tok in str(raw).split(",") if tok.strip()]


def _number(raw) -> float:
    try:
        if isinstance(raw, bool):  # a JSON true or false
            raise TypeError
        return float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"expected a number, got {raw!r}") from None


def _integer(raw) -> int:
    # a string is a Python integer literal: 0x10 and 1_6 read 16, 010 fails
    try:
        if isinstance(raw, bool):
            raise TypeError
        if isinstance(raw, str):
            return int(raw, 0)
        if not (raw.is_integer() if isinstance(raw, float) else int(raw) == raw):  # a float NaN or inf too
            raise ValueError
        return int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _numbers(raw) -> tuple[float, ...]:
    return tuple(_number(tok) for tok in _tokens(raw))


def _text(raw) -> str:
    if not isinstance(raw, str):  # a JSON null, number or boolean
        raise ValueError(f"expected a string, got {raw!r}")
    return raw


def _names(raw) -> tuple[str, ...]:
    return tuple(str(tok) for tok in _tokens(raw))


# -- value checks: each returns what is wrong, or None -----------------------


def _finite(v) -> str | None:
    return None if math.isfinite(v) else f"must be finite, got {v!r}"


def _positive(v) -> str | None:
    return None if math.isfinite(v) and v > 0 else f"must be > 0, got {v!r}"


def _non_empty(v) -> str | None:
    # an empty directory name would quietly mean the working directory
    return None if v else "must not be empty (use . for the working directory)"


def _at_least(n: int):
    return lambda v: None if v >= n else f"must be >= {n}, got {v!r}"


def _at_most(n: int):
    return lambda v: None if v <= n else f"must be <= {n}, got {v!r}"


def _each(ok, complaint: str):
    """Check of a non-empty list whose every item passes ``ok``;
    ``complaint`` formats the first item that does not."""

    def check(values) -> str | None:
        if not values:
            return "must not be empty"
        for v in values:
            if not ok(v):
                return complaint.format(v)
        return None

    return check


def _printed_once(values) -> str | None:
    """Entries that print the same would write one curve file twice."""
    printed = [v if isinstance(v, str) else f"{v:g}" for v in values]
    for i, text in enumerate(printed):
        first = printed.index(text)
        if first < i:
            return f"entries {values[first]!r} and {values[i]!r} both print as {text!r} in curve file names"
    return None


@dataclass(frozen=True)
class _Flag:
    """The command-line option that overrides a setting, and the
    subcommands that read the setting."""

    name: str
    help: str
    commands: tuple[str, ...] = ("sweep",)


# the subcommands that build coverage curves
_CURVES = ("sweep", "validate")


def _setting(section: str, default, parse, *checks, flag: _Flag | None = None):
    """A RunConfig field: the config section holding it, the parser of its
    raw value, the checks its value must pass and the flag that overrides
    it."""
    return dataclasses.field(
        default=default, metadata=dict(section=section, parse=parse, checks=checks, flag=flag)
    )


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults reproduce the reference
    sweep: one curve per (p, height) pair with the analytic method).

    Every field but ``optical`` is a ``_setting``; ``optical`` is the
    [optical] section, one key per ``OpticalConfig`` field, which checks
    itself.
    """

    optical: OpticalConfig = TABLE_DEFAULT_OPTICS
    pitch: float = _setting("geometry", 0.5, _number, _positive)
    heights: tuple[float, ...] = _setting(
        "geometry",
        (1.5, 2.0, 2.5, 3.0),
        _numbers,
        _each(lambda h: math.isfinite(h) and h > 0, "heights must be > 0, got {!r}"),
        _printed_once,
        flag=_Flag("--heights", "comma-separated LED heights (m)", _CURVES),
    )
    trunc: int = _setting("geometry", 200, _integer, _at_least(1), flag=_Flag(
        "--trunc", "lattice truncation (rings) for brute-force sums", ("sweep", "sums")))
    p_list: tuple[float, ...] = _setting(
        "thinning",
        (0.3, 0.5, 0.8),
        _numbers,
        _each(lambda p: 0.0 <= p <= 1.0, "probabilities must be in [0, 1], got {!r}"),
        _printed_once,
        flag=_Flag("--p", "comma-separated thinning probabilities", _CURVES),
    )
    theta_db_start: float = _setting("sweep", -20.0, _number, _finite)
    theta_db_stop: float = _setting("sweep", 10.0, _number, _finite)
    theta_db_step: float = _setting("sweep", 0.25, _number, _finite, _positive)
    methods: tuple[str, ...] = _setting(
        "sweep",
        ("analytic",),
        _names,
        _each(lambda m: m in _METHODS, f"unknown method {{!r}} (choose from {_METHODS})"),
        _printed_once,
        flag=_Flag("--methods", "comma-separated subset of analytic,montecarlo,brute"),
    )
    seed: int = _setting("thinning", 20250809, _integer, _at_least(0), flag=_Flag(
        "--seed", "RNG seed for Monte Carlo methods", _CURVES))
    trials: int = _setting("thinning", 10000, _integer, _at_least(1), flag=_Flag(
        "--trials", "Monte Carlo trials per spatial node", _CURVES))
    quad_order: int = _setting("sweep", 32, _integer, _at_least(1), flag=_Flag(
        "--quad-order", "tensor quadrature order per axis (analytic)"))
    mc_quad_order: int = _setting("sweep", 16, _integer, _at_least(1), flag=_Flag(
        "--mc-quad-order", "tensor quadrature order per axis for Monte Carlo comparisons", _CURVES))
    mc_trunc: int = _setting("thinning", 40, _integer, _at_least(1), _at_most(_MAX_SAMPLED_TRUNC), flag=_Flag(
        "--mc-trunc", "lattice truncation for Monte Carlo sampling", _CURVES))
    jobs: int = _setting("sweep", 1, _integer, _at_least(1), flag=_Flag(
        "--jobs", "Monte Carlo jobs, two node threads each (at most the CPU and node counts)", _CURVES))
    out_dir: str = _setting("output", "attocell_out", _text, _non_empty, flag=_Flag(
        "--out", "output directory"))

    def validate(self, series: bool = True) -> None:
        """Check every field, and that the first and last thresholds of the
        grid are finite and > 0 in linear terms; with ``series``, also that
        the dual-lattice series can be evaluated, which needs Gamma(beta)
        and Gamma(2 beta) in a double."""
        for f in _FIELDS:
            for check in f.checks:
                problem = check(f.get(self))
                if problem:
                    raise ConfigError(f"{f.section}.{f.key}: {problem}")
        if self.theta_db_stop < self.theta_db_start:
            raise ConfigError("sweep.theta_db_stop: must be >= theta_db_start")
        grid = self.theta_db_grid()
        for key, db in (("theta_db_start", float(grid[0])), ("theta_db_stop", float(grid[-1]))):
            theta = float(_or_inf(lambda: db_to_linear(db)))
            if not 0.0 < theta < math.inf:
                raise ConfigError(f"sweep.{key}: threshold {db!r} dB is {theta!r} linear, must be finite and > 0")
        if series:
            beta = self.optical.beta
            try:
                gamma(beta), gamma(2.0 * beta)
            except ValueError as exc:
                raise ConfigError(
                    f"optical.half_angle: {self.optical.half_angle!r} gives beta = {beta:g}, "
                    f"too narrow a beam for the series ({exc})"
                ) from None

    def theta_db_grid(self) -> np.ndarray:
        steps = (self.theta_db_stop - self.theta_db_start) / self.theta_db_step + 1e-9
        if not steps < 2.0**53:  # past 2^53 (or at inf) a float no longer counts by ones
            raise ConfigError(
                f"sweep.theta_db_stop: {self.theta_db_stop!r} lies more steps of "
                f"sweep.theta_db_step = {self.theta_db_step!r} past theta_db_start than a float can count"
            )
        return self.theta_db_start + self.theta_db_step * np.arange(int(math.floor(steps)) + 1)

    def geometry(self, height: float) -> NetworkGeometry:
        return NetworkGeometry(pitch=self.pitch, height=height, trunc=self.trunc)

    def as_sections(self) -> dict:
        """Nested dict mirroring the INI sections; feeds the manifest."""
        sections: dict = {}
        for f in _FIELDS:
            value = f.get(self)
            sections.setdefault(f.section, {})[f.key] = list(value) if isinstance(value, tuple) else value
        return sections


@dataclass(frozen=True)
class _Field:
    """One row of the config field table."""

    section: str
    key: str
    parse: Callable
    checks: tuple = ()
    flag: _Flag | None = None

    def get(self, cfg: RunConfig):
        return getattr(cfg.optical if self.section == "optical" else cfg, self.key)


# The config field table: every INI/JSON key, in check order.
_FIELDS = tuple(_Field("optical", f.name, _number) for f in dataclasses.fields(OpticalConfig)) + tuple(
    _Field(key=f.name, **f.metadata) for f in dataclasses.fields(RunConfig) if f.metadata
)


def _read(raw, label: str, parse):
    """``parse(raw)``, a bad value refused as ``label: ...``: the one place a
    raw value from a file or a flag is read."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def _assign(cfg: RunConfig, given: dict) -> None:
    """Read each ``{_Field: (raw, label)}`` value with its field's parser and
    set the values on ``cfg``; the optical values replace its OpticalConfig
    at once, which checks them."""
    values = {f: _read(raw, label, f.parse) for f, (raw, label) in given.items()}
    optical = {f.key: v for f, v in values.items() if f.section == "optical"}
    if optical:
        try:
            cfg.optical = dataclasses.replace(cfg.optical, **optical)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    for f, v in values.items():
        if f.section != "optical":
            setattr(cfg, f.key, v)


def _sections_from_ini(text: str, path: Path) -> dict:
    # no interpolation: a "%" in a value is literal
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        detail = " ".join(line.strip() for line in str(exc).splitlines())  # one error: line
        raise ConfigError(f"cannot parse config file {path}: {detail}") from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _sections_from_json(text: str, path: Path) -> dict:
    # text that starts with "{" and parses is an object
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    # a manifest embeds the configuration under "config"
    return data["config"] if isinstance(data.get("config"), dict) else data


def load_config(path: str | None) -> RunConfig:
    """Build a RunConfig from an INI or JSON/manifest file (or defaults),
    read once: text that starts with ``{`` is JSON, anything else INI."""
    cfg = RunConfig()
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot parse config file {p}: {exc}") from None
    sections = (_sections_from_json if text.lstrip().startswith("{") else _sections_from_ini)(text, p)

    known = {(f.section, f.key) for f in _FIELDS}
    for section, keys in sections.items():
        if section not in {f.section for f in _FIELDS}:
            raise ConfigError(f"unknown config section [{section}]")
        if not isinstance(keys, dict):
            raise ConfigError(f"config section [{section}] must hold key = value pairs")
        unknown = sorted(k for k in keys if (section, k) not in known)
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in section [{section}]")

    labels = {f: f"{f.section}.{f.key}" for f in _FIELDS if f.key in sections.get(f.section, {})}
    _assign(cfg, {f: (sections[f.section][f.key], label) for f, label in labels.items()})
    return cfg


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> None:
    """Parse each flag given, a string stored under its field key, exactly
    as the same key in a config file."""
    given = {f: getattr(args, f.key, None) for f in _FIELDS if f.flag}
    _assign(cfg, {f: (raw, f.flag.name) for f, raw in given.items() if raw is not None})


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _curve_filename(p: float, height: float, method: str) -> str:
    return f"coverage_p{p:g}_h{height:g}_{method}.csv"


def _write_output(path: Path, text: str) -> None:
    """Write one output file anew, replacing the file or symlink at ``path``.

    On ext4 (``auto_da_alloc``, its default), closing a file that was
    truncated, or renaming over an existing file, flushes its data to disk:
    tens of ms per file. Unlinking the old file first costs no flush. A
    symlink at ``path`` is itself replaced, never followed."""
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _row_leads(theta_db: np.ndarray) -> list[str]:
    """The ``theta_db,theta_linear,`` cells that open each CSV row of a
    threshold grid, formatted once for every curve on that grid."""
    # .tolist() gives Python floats, so each cell is _fmt(float(x))
    rows = zip(theta_db.tolist(), db_to_linear(theta_db).tolist())
    return [f"{t:.17g},{lin:.17g}," for t, lin in rows]


def _write_curve_csv(path: Path, leads: list[str], curve: CoverageCurve) -> None:
    """Write ``curve`` as CSV, its rows opened by ``leads``, the
    ``_row_leads`` of its own threshold grid."""
    stderr = [""] * curve.values.size if curve.stderr is None else list(map(_fmt, curve.stderr.tolist()))
    rows = zip(leads, curve.values.tolist(), stderr, strict=True)
    lines = ["theta_db,theta_linear,p_c,stderr"]
    lines += [f"{lead}{v:.17g},{e}" for lead, v, e in rows]
    _write_output(path, "\n".join(lines) + "\n")


def _curves(
    cfg: RunConfig, height: float, method: str, quad_order: int
) -> tuple[dict[float, CoverageCurve], float | None]:
    """The curve of every p at ``height`` by ``method``, and for Monte Carlo
    the bound on the interference mass that the sampling truncation omits
    (None for the other methods)."""
    geometry, grid = cfg.geometry(height), cfg.theta_db_grid()
    if method != "montecarlo":
        sums = "brute" if method == "brute" else "series"
        curves = coverage_curves(cfg.optical, geometry, cfg.p_list, grid, quad_order=quad_order, sums=sums)
        return dict(zip(cfg.p_list, curves)), None
    means, stderrs, tail = empirical_coverage_curves(
        cfg.optical, geometry, cfg.p_list, theta_db=grid, seed=cfg.seed, trials_per_node=cfg.trials,
        quad_order=quad_order, trunc=cfg.mc_trunc, n_jobs=cfg.jobs,
    )
    return {p: CoverageCurve(grid, means[k], stderrs[k]) for k, p in enumerate(cfg.p_list)}, tail


def _max_deviation(a: dict[float, CoverageCurve], b: dict[float, CoverageCurve]) -> dict[float, float]:
    """max |a - b| over the threshold grid, per p."""
    return {p: float(np.max(np.abs(a[p].values - b[p].values))) for p in a}


def run_sweep(cfg: RunConfig) -> int:
    """Compute every curve, then write the CSVs and the manifest: a
    configuration that fails leaves no output directory behind.  A previous
    run's manifest goes before the first CSV is written, so a write that
    fails partway leaves no manifest that describes other curves."""
    cfg.validate(series="analytic" in cfg.methods)
    curves: list[tuple[str, CoverageCurve]] = []
    diffs = {}
    tails = {}
    for height in cfg.heights:
        by_method: dict[str, dict[float, CoverageCurve]] = {}
        for method in cfg.methods:
            order = cfg.mc_quad_order if method == "montecarlo" else cfg.quad_order
            by_method[method], tail = _curves(cfg, height, method, order)
            if tail is not None:
                tails[f"h{height:g}"] = tail
            curves += [(_curve_filename(p, height, method), c) for p, c in by_method[method].items()]
        if "analytic" in by_method and "montecarlo" in by_method:
            for p, delta in _max_deviation(by_method["analytic"], by_method["montecarlo"]).items():
                diffs[f"p{p:g}_h{height:g}"] = delta
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    leads = _row_leads(cfg.theta_db_grid())
    for name, curve in curves:
        _write_curve_csv(out_dir / name, leads, curve)
        print(f"wrote {name}", file=sys.stderr)
    outputs = [name for name, _ in curves]
    manifest = {
        "version": __version__,
        "config": cfg.as_sections(),
        "outputs": outputs,
    }
    if diffs:
        manifest["max_abs_diff_analytic_vs_montecarlo"] = diffs
        manifest["max_abs_diff_overall"] = max(diffs.values())
    if tails:
        manifest["montecarlo_tail_bound"] = tails
    _write_output(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote manifest.json ({len(outputs)} curve files) to {out_dir}", file=sys.stderr)
    return EXIT_OK


def run_sums(cfg: RunConfig, pos: tuple[float, float], jl: tuple[int, int], height: float | None) -> int:
    """Print the sums report, built in full first: a sum that fails prints
    nothing to stdout."""
    cfg.validate()
    pos = position_xy(pos)
    h = cfg.heights[0] if height is None else height
    geometry = cfg.geometry(h)
    beta = cfg.optical.beta
    half = geometry.pitch / 2
    if abs(pos[0]) > half or abs(pos[1]) > half:
        print(
            f"warning: position {pos} lies outside the attocell "
            f"[-{half:g}, {half:g}]^2; proceeding anyway",
            file=sys.stderr,
        )
    lines = [
        f"pitch a = {geometry.pitch:g} m, height h = {geometry.height:g} m "
        f"(h/a = {geometry.height / geometry.pitch:g}), beta = {beta:g}",
        f"position z = ({pos[0]:g}, {pos[1]:g}) m, modes j,l = {jl[0]},{jl[1]}, "
        f"brute trunc = {geometry.trunc}",
        "",
        f"{'sum':<4} {'brute force':>24} {'series':>24} {'rel err':>10} {'tail bound':>12}",
    ]
    exponents = (beta, 2.0 * beta)
    brute = moment_sums(geometry, exponents, *pos, "brute")[:, 0].tolist()
    series = moment_sums(geometry, exponents, *pos, "series", jl)[:, 0].tolist()
    for label, e, b, s in zip(("S_m", "S_v"), exponents, brute, series):
        rel = abs(s - b) / b
        lines.append(f"{label:<4} {_fmt(b):>24} {_fmt(s):>24} {rel:>10.2e} {tail_bound(geometry, e):>12.2e}")
    print("\n".join(lines))
    return EXIT_OK


def run_validate(cfg: RunConfig, budget: float) -> int:
    """Print the deviation table and the CLT diagnostics, built in full
    first: a curve that fails prints nothing to stdout."""
    cfg.validate()
    if not (math.isfinite(budget) and budget >= 0.0):
        raise ConfigError(f"--budget: must be finite and >= 0, got {budget!r}")
    if cfg.trials < 2:
        raise ConfigError(f"thinning.trials: validate needs >= 2 for a sample variance, got {cfg.trials!r}")
    worst = 0.0
    lines = [f"{'h':>6} {'p':>6} {'max |MC - analytic|':>22} {'mean stderr':>12}"]
    for height in cfg.heights:
        analytic, _ = _curves(cfg, height, "analytic", cfg.mc_quad_order)
        empirical, tail = _curves(cfg, height, "montecarlo", cfg.mc_quad_order)
        deltas = _max_deviation(empirical, analytic)
        for p in cfg.p_list:
            worst = max(worst, deltas[p])
            lines.append(f"{height:>6g} {p:>6g} {deltas[p]:>22.5f} {float(np.mean(empirical[p].stderr)):>12.5f}")
        print(f"  sampling truncation tail bound: {tail:.3e}", file=sys.stderr)
    lines += ["", "CLT diagnostics at the attocell centre (standardized interference):"]
    geometry = cfg.geometry(cfg.heights[0])
    for p in cfg.p_list:
        if not 0.0 < p < 1.0:
            continue
        model = ThinningModel(p=p, seed=cfg.seed, trunc=cfg.mc_trunc)
        diag = clt_diagnostics(model, geometry, cfg.optical.beta, (0.0, 0.0), cfg.trials)
        lines.append(f"  p={p:g}: mean={diag.sample_mean:.6e} var={diag.sample_var:.6e} "
                     f"ks={diag.ks_stat:.4f} trials={diag.trials}")
    print("\n".join(lines))
    print()
    if worst > budget:
        print(f"FAIL: worst deviation {worst:.5f} exceeds budget {budget:g}")
        return EXIT_VALIDATION
    print(f"OK: worst deviation {worst:.5f} within budget {budget:g}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attocell",
        description="Coverage curves for a Bernoulli-thinned LiFi attocell grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, text in (
        ("sweep", "write coverage-curve CSVs and a manifest"),
        ("sums", "report moment sums at one position"),
        ("validate", "Monte Carlo vs analytic agreement check"),
    ):
        # no abbreviations: "sums --p" must not be read as "--pos"
        sp = commands[command] = sub.add_parser(command, help=text, allow_abbrev=False)
        sp.add_argument("--config", help="INI config or manifest.json from a previous run")
        for f in _FIELDS:
            if f.flag and command in f.flag.commands:
                # a string, parsed by the field's own parser
                sp.add_argument(f.flag.name, dest=f.key, help=f.flag.help)

    sp = commands["sums"]
    sp.add_argument("--pos", default="0,0", help="receiver position 'x,y' in metres")
    sp.add_argument("--jl", default="1,1", help="series mode truncation 'j,l'")
    sp.add_argument("--height", help="LED height to use (default: first configured)")
    sp = commands["validate"]
    sp.add_argument("--budget", default="0.02", help="absolute agreement budget (default 0.02)")
    return parser


def _parse_pair(raw: str, label: str, parse) -> tuple:
    """The two halves of ``A,B``, each read by ``parse``."""
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{label}: expected 'A,B', got {raw!r}")
    return tuple(_read(part.strip(), label, parse) for part in parts)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a failed validate
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        if args.command == "sweep":
            return run_sweep(cfg)
        if args.command == "validate":
            return run_validate(cfg, _read(args.budget, "--budget", _number))
        pos = _parse_pair(args.pos, "--pos", _number)
        jl = _parse_pair(args.jl, "--jl", _integer)
        if jl[0] < 0 or jl[1] < 0:
            raise ConfigError(f"--jl: modes must be >= 0, got {args.jl!r}")
        height = None if args.height is None else _read(args.height, "--height", _number)
        return run_sums(cfg, pos, jl, height)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
