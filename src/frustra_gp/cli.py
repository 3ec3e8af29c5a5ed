"""Command-line front end, config-file parsing, and bit-exact serializers.

Subcommands: `bloch` (trajectory dump), `gp` (single geometric-phase value),
`surface` (phase over an angle grid), `compare` (coupling-strategy report),
`verify` (cross-validation suite).  Exit status: 0 success, 1 usage or
configuration error, 2 numerical/refinement error (also used by `verify`
when a check fails), 141 when the reader closes stdout before the output
is written.

File config: flat `key=value` lines, `#` comments, keys identical to the
long flag names; explicit flags override file values which override
defaults.  Reals serialize with 17 significant digits so parsing the output
reproduces every double bit-exactly; CSV uses `\n` line endings and prints
missing cells as `nan`.  Every handler hands its result to one emit path
(`_emit`): the CSV or text writer for `--out`, or, under `--format json`,
the same rows as one JSON line.  All JSON output, the `verify` report
included, is strict: a non-finite value (an indeterminate cell, an empty
`compare` entry, an infinite check measure) is written as null.  Angle inputs
are radians.  The env var FRUSTRA_GP_THREADS (positive integer) caps worker
parallelism; output bytes never depend on the thread count.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import BlochTrajectory, TimeGrid, bloch_trajectory
from .errors import ConfigError, FrustraGpError, UsageError
from .experiments import (
    COMPARE_METRICS,
    AngleGrid,
    GpSurface,
    StrategyReport,
    auto_time_grid,
    gp_surface,
    strategy_compare,
    verify_suite,
)
from .model import InitialStateAngles, SystemConfig
from .phase import (
    GpResult,
    gp_closed_form,
    gp_discrete_holonomy,
    gp_south_pole,
    polar_track,
)

THREADS_ENV = "FRUSTRA_GP_THREADS"
# 128 + SIGPIPE: the status a shell reports for a program that signal ends.
_PIPE_CLOSED_STATUS = 141
SURFACE_CSV_HEADER = "theta,phi,gp_principal,gp_unwrapped,singular_count"
BLOCH_CSV_HEADER = "t,x,y,z"

_PI = format(math.pi, ".17g")
_HALF_PI = format(math.pi / 2.0, ".17g")
_THETA_MAX = format(math.pi - 0.05, ".17g")

_GP_METHODS = ("closed_form", "south_pole", "discrete_holonomy")
_DEFAULT_COUPLINGS = "1,0;0,1;0.25,0.25;0.5,0.5"

# ---------------------------------------------------------------------------
# value converters (single validation path for flags and config files)


def _conv_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _conv_int(minimum: int, rule: str):
    def convert(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(f"must be a {rule} integer")
        return value

    return convert


def _conv_steps(text: str):
    if text == "auto":
        return None
    value = int(text)
    if value < 2:
        raise ValueError("must be 'auto' or an integer >= 2")
    return value


def _conv_choice(*options: str):
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError("must be one of " + ", ".join(options))
        return text

    return convert


def _conv_couplings(text: str) -> tuple:
    pairs = []
    for part in text.split(";"):
        part = part.strip()
        bits = part.split(",")
        if len(bits) != 2:
            raise ValueError(f"bad coupling pair '{part}'; expected 'a1,a2;...'")
        pairs.append((_conv_float(bits[0]), _conv_float(bits[1])))
    if len(pairs) < 2:
        raise ValueError("need at least two coupling pairs")
    return tuple(pairs)


_conv_pos_int = _conv_int(1, "positive")

# flag name -> (converter, help); `format` is converted per subcommand
_FLAGS = {
    "omega": (_conv_float, "qubit level splitting (rad/time)"),
    "alpha1": (_conv_float, "coupling to the x-axis bath (>= 0)"),
    "alpha2": (_conv_float, "coupling to the y-axis bath (>= 0)"),
    "bath-size": (_conv_pos_int, "spins per bath, N >= 1 (required)"),
    "theta": (_conv_float, "initial polar angle in [0, pi] (radians)"),
    "phi": (_conv_float, "initial azimuth (radians)"),
    "t-end": (_conv_float, "evolution time (> 0)"),
    "steps": (_conv_steps, "time-grid nodes, or 'auto' to choose from the fastest sector"),
    "sampling-factor": (_conv_pos_int, "auto grid: samples per fastest-sector period"),
    "n-theta": (_conv_pos_int, "grid nodes along theta"),
    "n-phi": (_conv_pos_int, "grid nodes along phi ([0, 2pi), endpoint excluded)"),
    "theta-min": (_conv_float, "smallest grid theta, in [0, pi]"),
    "theta-max": (_conv_float, "largest grid theta, in [0, pi]"),
    "method": (_conv_choice(*_GP_METHODS), "gp route: " + " | ".join(_GP_METHODS)),
    "metric": (
        _conv_choice(*COMPARE_METRICS),
        "ranking metric: " + " | ".join(COMPARE_METRICS),
    ),
    "couplings": (_conv_couplings, "semicolon-separated a1,a2 pairs to compare"),
    "seed": (_conv_int(0, "non-negative"), "seed for the randomized verification draws"),
    "format": (None, "output format"),
    "out": (str, "output path, '-' for stdout"),
}

# per-subcommand defaults; None marks a required key
_PHYS = (("omega", "2.0"), ("alpha1", "0.0"), ("alpha2", "0.0"), ("bath-size", None))
_START = (("theta", _HALF_PI), ("phi", "0.0"), ("t-end", _PI), ("steps", "auto"))
_SWEEP = (
    ("n-theta", "61"),
    ("n-phi", "61"),
    ("theta-min", "0.05"),
    ("theta-max", _THETA_MAX),
    ("t-end", _PI),
    ("steps", "auto"),
    ("sampling-factor", "40"),
)

_DEFAULTS: dict[str, dict[str, str | None]] = {
    "bloch": dict(_PHYS + _START + (("format", "csv"), ("out", "-"))),
    "gp": dict(
        _PHYS + _START + (("method", "closed_form"), ("format", "text"), ("out", "-"))
    ),
    "surface": dict(_PHYS + _SWEEP + (("format", "csv"), ("out", "-"))),
    "compare": dict(
        (("omega", "2.0"), ("bath-size", None))
        + _SWEEP
        + (
            ("couplings", _DEFAULT_COUPLINGS),
            ("metric", "mean_dist_to_unitary"),
            ("format", "csv"),
            ("out", "-"),
        )
    ),
    "verify": {"seed": "20260814", "out": "verify_report.json"},
}

SUBCOMMANDS = tuple(_DEFAULTS)


def _converter_for(subcommand: str, key: str):
    if key == "format":
        return _conv_choice(_DEFAULTS[subcommand]["format"], "json")
    return _FLAGS[key][0]


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """A fully resolved invocation: subcommand plus raw string values.

    values maps flag names (without dashes) to their raw textual form;
    provenance records where each value came from (default, file, flag) and
    is excluded from equality.
    """

    subcommand: str
    values: dict
    provenance: dict = field(compare=False, default_factory=dict)


def serialize_config(cfg: RunConfig) -> str:
    """Textual form accepted by load_config; keys sorted, Nones omitted.

    A value that load_config would read back changed (one holding a '#' or
    a line break, or with leading or trailing whitespace) raises ConfigError.
    """
    lines = [f"subcommand={cfg.subcommand}"]
    for key in sorted(cfg.values):
        value = cfg.values[key]
        if value is None:
            continue
        if "#" in value or value != value.strip() or len(value.splitlines()) > 1:
            raise ConfigError(f"{key}: value {value!r} cannot be written to a config file")
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def _default_config(subcommand: str) -> RunConfig:
    """The subcommand's defaults, each with provenance 'default'."""
    values = dict(_DEFAULTS[subcommand])
    return RunConfig(subcommand, values, {key: "default" for key in values})


def _parse_config_text(text: str) -> list:
    """Return (lineno, key, value) triples; malformed lines raise ConfigError."""
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        triples.append((lineno, key, value))
    return triples


def load_config(path, subcommand: str | None = None) -> RunConfig:
    """Parse a key=value config file into a RunConfig.

    The file may carry a `subcommand=` line; if both the file and the caller
    name one, they must agree.  Unknown keys, duplicates, and unparsable
    values are rejected with their line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    triples = _parse_config_text(text)

    sub = subcommand
    seen: dict[str, int] = {}
    for lineno, key, value in triples:
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' (first set on line {seen[key]})"
            )
        seen[key] = lineno
        if key == "subcommand":
            if value not in SUBCOMMANDS:
                raise ConfigError(f"line {lineno}: unknown subcommand '{value}'")
            if subcommand is not None and value != subcommand:
                raise ConfigError(
                    f"line {lineno}: config file is for subcommand '{value}',"
                    f" not '{subcommand}'"
                )
            sub = value
    if sub is None:
        raise ConfigError(
            "config file does not declare a subcommand and none was supplied"
        )

    cfg = _default_config(sub)
    for lineno, key, value in triples:
        if key == "subcommand":
            continue
        if key not in cfg.values:
            raise ConfigError(
                f"line {lineno}: unknown key '{key}' for subcommand '{sub}'"
            )
        try:
            _converter_for(sub, key)(value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: invalid value for {key}: '{value}' ({exc})"
            ) from exc
        cfg.values[key] = value
        cfg.provenance[key] = "file"
    return cfg


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as UsageError."""

    def error(self, message):
        raise UsageError(message)


_SUBCOMMAND_HELP = {
    "bloch": "dump the reduced Bloch trajectory on a uniform time grid",
    "gp": "compute one geometric-phase value",
    "surface": "geometric phase over a (theta, phi) grid at fixed time",
    "compare": "rank coupling allocations against the decoupled reference",
    "verify": "run the built-in cross-validation suite",
}


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="frustra-gp",
        description="Central-spin decoherence dynamics and mixed-state"
        " geometric phase for a qubit coupled to two spin baths.",
    )
    subparsers = top.add_subparsers(dest="subcommand", metavar="COMMAND")
    subparsers.required = True
    for name in SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=_SUBCOMMAND_HELP[name])
        for key in _DEFAULTS[name]:
            sub.add_argument(
                f"--{key}",
                default=None,
                metavar="V",
                help=_FLAGS[key][1],
            )
        sub.add_argument(
            "--config",
            default=None,
            metavar="PATH",
            help="key=value config file; explicit flags override it",
        )
    return top


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `run` reuses: build_parser() once per process."""
    return build_parser()


def _resolve(namespace: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, then explicit flags into a RunConfig."""
    sub = namespace.subcommand
    if namespace.config is not None:
        cfg = load_config(namespace.config, subcommand=sub)
    else:
        cfg = _default_config(sub)
    for key in _DEFAULTS[sub]:
        flag_value = getattr(namespace, key.replace("-", "_"))
        if flag_value is not None:
            cfg.values[key] = flag_value
            cfg.provenance[key] = "flag"
    missing = [key for key, value in cfg.values.items() if value is None]
    if missing:
        flags = ", ".join(f"--{key}" for key in sorted(missing))
        raise UsageError(f"{flags} is required for '{sub}'")
    return cfg


def _materialize(cfg: RunConfig) -> dict:
    """Convert raw strings to typed values via the shared converters."""
    params = {}
    for key, raw in cfg.values.items():
        try:
            params[key.replace("-", "_")] = _converter_for(cfg.subcommand, key)(raw)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key}: '{raw}' ({exc})") from exc
    return params


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return min(8, os.cpu_count() or 1)
    try:
        return _conv_pos_int(raw)
    except ValueError:
        raise UsageError(
            f"{THREADS_ENV} must be a positive integer, got '{raw}'"
        ) from None


# ---------------------------------------------------------------------------
# serializers


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _csv_line(row) -> str:
    """One CSV line: floats through _fmt, other values (labels, counts) as str."""
    return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"


def _strict(value):
    """`value` with every non-finite float replaced by None (strict JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _json(payload, indent: int | None = None) -> str:
    """The one JSON encoding of the CLI: strict JSON plus a newline."""
    return json.dumps(_strict(payload), indent=indent, allow_nan=False) + "\n"


def _write_lines(sink, header: str, rows) -> int:
    """Write `header`, then each row, to `sink`; returns the UTF-8 bytes written."""
    written = 0
    for line in itertools.chain((header,), rows):
        sink.write(line)
        written += len(line.encode("utf-8"))
    return written


def _surface_rows(surface: GpSurface):
    """(theta, phi, gamma, gamma_unwrapped, singular_count) per cell, theta outer."""
    cells = itertools.product(surface.grid.thetas().tolist(), surface.grid.phis().tolist())
    values = zip(
        surface.gamma.ravel().tolist(),
        surface.gamma_unwrapped.ravel().tolist(),
        surface.singular_count.ravel().tolist(),
    )
    return (cell + value for cell, value in zip(cells, values))


def write_surface_csv(surface: GpSurface, sink) -> int:
    """Emit the canonical CSV (theta outer, phi inner); returns bytes written."""
    rows = map(_csv_line, _surface_rows(surface))
    return _write_lines(sink, SURFACE_CSV_HEADER + "\n", rows)


def surface_to_json(surface: GpSurface) -> dict:
    """Row-for-row JSON mirror of the CSV; missing cells become null."""
    return _strict(
        {
            "columns": SURFACE_CSV_HEADER.split(","),
            "t": surface.t,
            "time_steps": surface.time_steps,
            "rows": list(_surface_rows(surface)),
        }
    )


def _bloch_rows(trajectory: BlochTrajectory) -> list:
    """[t, x, y, z] per node, as Python floats."""
    return np.column_stack((trajectory.grid.times(), trajectory.points)).tolist()


def write_bloch_csv(trajectory: BlochTrajectory, sink) -> int:
    """Emit t,x,y,z rows with 17 significant digits; returns bytes written."""
    rows = map(_csv_line, _bloch_rows(trajectory))
    return _write_lines(sink, BLOCH_CSV_HEADER + "\n", rows)


def write_compare_csv(report: StrategyReport, sink) -> int:
    """Ranked strategy table, prefixed by metric/winner comment lines.

    The columns are the keys of each `report.to_dict()` entry, in order.
    """
    entries = report.to_dict()["entries"]
    by_label = {entry["label"]: entry.values() for entry in entries}
    table = [entries[0].keys(), *(by_label[label] for label in report.ranking)]
    header = f"# metric={report.metric}\n# winner={report.winner}\n"
    return _write_lines(sink, header, map(_csv_line, table))


def _emit(p: dict, writer, payload) -> None:
    """Write `--out` ('-' is stdout) through `writer(sink)`, or, under
    `--format json`, write `payload()` as one strict JSON line."""
    if p.get("format") == "json":
        text = _json(payload())
        writer = lambda sink: sink.write(text)
    if p["out"] == "-":
        writer(sys.stdout)
        sys.stdout.flush()
    else:
        with open(p["out"], "w", encoding="utf-8", newline="") as fh:
            writer(fh)


# ---------------------------------------------------------------------------
# subcommand handlers


def _system_config(p: dict) -> SystemConfig:
    return SystemConfig(p["omega"], p["alpha1"], p["alpha2"], p["bath_size"])


def _time_grid(cfg: SystemConfig, p: dict, min_steps: int) -> TimeGrid:
    if p["steps"] is None:
        return auto_time_grid(cfg, p["t_end"], min_steps=min_steps)
    return TimeGrid(p["t_end"], p["steps"])


def _cmd_bloch(p: dict) -> int:
    cfg = _system_config(p)
    angles = InitialStateAngles(theta=p["theta"], phi=p["phi"])
    traj = bloch_trajectory(cfg, angles, _time_grid(cfg, p, min_steps=201))
    _emit(
        p,
        lambda sink: write_bloch_csv(traj, sink),
        lambda: {"columns": BLOCH_CSV_HEADER.split(","), "rows": _bloch_rows(traj)},
    )
    return 0


def _compute_gp(p: dict) -> GpResult:
    cfg = _system_config(p)
    angles = InitialStateAngles(theta=p["theta"], phi=p["phi"])
    traj = bloch_trajectory(cfg, angles, _time_grid(cfg, p, min_steps=4001))
    if p["method"] == "closed_form":
        return gp_closed_form(polar_track(traj), angles)
    if p["method"] == "south_pole":
        return gp_south_pole(polar_track(traj))
    return gp_discrete_holonomy(traj)


def _gp_fields(result: GpResult) -> dict:
    """The result's fields with its diagnostics' fields spliced in last."""
    fields = asdict(result)
    fields.update(fields.pop("diagnostics"))
    return fields


def _cmd_gp(p: dict) -> int:
    result = _compute_gp(p)
    _emit(
        p,
        lambda sink: sink.write(_fmt(result.gamma) + "\n"),
        lambda: _gp_fields(result),
    )
    return 0


def _angle_grid(p: dict) -> AngleGrid:
    return AngleGrid(
        n_theta=p["n_theta"],
        n_phi=p["n_phi"],
        theta_min=p["theta_min"],
        theta_max=p["theta_max"],
    )


def _cmd_surface(p: dict) -> int:
    cfg = _system_config(p)
    surface = gp_surface(
        cfg,
        _angle_grid(p),
        p["t_end"],
        time_steps=p["steps"],
        sampling_factor=p["sampling_factor"],
        threads=_thread_count(),
    )
    _emit(
        p, lambda sink: write_surface_csv(surface, sink), lambda: surface_to_json(surface)
    )
    return 0


def _coupling_text(value: float) -> str:
    """Shortest text that reads back as value, integral values without '.0'."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _cmd_compare(p: dict) -> int:
    pairs = [
        (
            f"alpha1={_coupling_text(a1)} alpha2={_coupling_text(a2)}",
            SystemConfig(omega=p["omega"], alpha1=a1, alpha2=a2, bath_size=p["bath_size"]),
        )
        for a1, a2 in p["couplings"]
    ]
    if sys.stderr.isatty():
        print(f"comparing {len(pairs)} strategies...", file=sys.stderr)
    report = strategy_compare(
        pairs,
        _angle_grid(p),
        p["t_end"],
        metric=p["metric"],
        time_steps=p["steps"],
        sampling_factor=p["sampling_factor"],
        threads=_thread_count(),
    )
    _emit(p, lambda sink: write_compare_csv(report, sink), report.to_dict)
    return 0


def _cmd_verify(p: dict) -> int:
    report = verify_suite(seed=p["seed"])
    # with the report on stdout, the summary goes to stderr so that stdout
    # stays one JSON document
    summary = sys.stderr if p["out"] == "-" else sys.stdout
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status} {check.name}: measured={check.measured:.3e}"
            f" tolerance={check.tolerance:.1e} ({check.detail})",
            file=summary,
        )
    # verify has no --format: its report is always indented JSON
    _emit(p, lambda sink: sink.write(_json(report.to_dict(), indent=2)), None)
    if p["out"] != "-":
        print(f"report written to {p['out']}")
    return 0 if report.all_passed else 2


_HANDLERS = {
    "bloch": _cmd_bloch,
    "gp": _cmd_gp,
    "surface": _cmd_surface,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# entry points


def run(argv=None) -> int:
    """Execute one invocation; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    params = {}
    try:
        try:
            namespace = _shared_parser().parse_args(argv)
        except SystemExit as exc:  # --help exits argparse directly
            return int(exc.code or 0)
        run_cfg = _resolve(namespace)
        params = _materialize(run_cfg)
        return _HANDLERS[run_cfg.subcommand](params)
    except (UsageError, ConfigError) as exc:
        print(f"frustra-gp: error: {exc}", file=sys.stderr)
        return 1
    except FrustraGpError as exc:
        print(f"frustra-gp: numerical error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # The rotation map and the sweeps grow with the bath size; running
        # out of memory is a property of the request, reported like a
        # numerical limit rather than as a traceback.
        size = params.get("bath_size")
        where = f" at bath size N = {size}" if size is not None else ""
        print(
            f"frustra-gp: numerical error: out of memory{where};"
            " lower the bath size, the evolution time or the grid",
            file=sys.stderr,
        )
        return 2


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`frustra-gp bloch ... | head -1`).
        # Point stdout at devnull, so that the flush at interpreter exit
        # does not fail on the same pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = _PIPE_CLOSED_STATUS
    sys.exit(status)


__all__ = [
    "RunConfig",
    "SUBCOMMANDS",
    "SURFACE_CSV_HEADER",
    "THREADS_ENV",
    "build_parser",
    "load_config",
    "main",
    "run",
    "serialize_config",
    "surface_to_json",
    "write_bloch_csv",
    "write_compare_csv",
    "write_surface_csv",
]
