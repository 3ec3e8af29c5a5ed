"""End-to-end tests of the command-line interface.

Everything runs in-process through `run(argv)` except the BLAS thread-count
check and two smoke tests, which need fresh interpreters: one of
`python -m frustra_gp`, and one that installs a temporary copy of the project
into a throwaway venv and runs the `frustra-gp` script that install
generates.  Output contracts under test: exact CSV headers,
17-significant-digit floats that re-parse bit-exactly, principal/unwrapped
consistency, JSON mirrors, config-file precedence, and independence of the
output bytes from worker and BLAS thread counts.
"""

import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from frustra_gp import (
    GpDiagnostics,
    GpResult,
    SystemConfig,
    angular_distance,
    gp_surface,
    principal_value,
    strategy_compare,
)
from frustra_gp import cli
from frustra_gp.cli import (
    SUBCOMMANDS,
    SURFACE_CSV_HEADER,
    THREADS_ENV,
    RunConfig,
    load_config,
    run,
    serialize_config,
    write_compare_csv,
    write_surface_csv,
)
from frustra_gp.errors import ConfigError, FrustraGpError
from frustra_gp.experiments import AngleGrid, VerifyCheck, VerifyReport

SRC = Path(__file__).resolve().parent.parent / "src"
GP_N48_ARGS = [
    "gp",
    "--bath-size", "48",
    "--alpha1", "0.5",
    "--alpha2", "0.5",
    "--t-end", "50",
    "--theta", "1.1",
    "--phi", "0.4",
    "--format", "json",
]


def _module_run(args, **env):
    """Run `python -m frustra_gp ARGS` in a fresh interpreter on the source tree."""
    full_env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    return subprocess.run(
        [sys.executable, "-m", "frustra_gp", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=full_env,
    )


SURFACE_ARGS = [
    "surface",
    "--bath-size", "2",
    "--alpha1", "0.6",
    "--alpha2", "0.3",
    "--t-end", "5",
    "--steps", "301",
    "--n-theta", "7",
    "--n-phi", "6",
    "--theta-min", "0.3",
    "--theta-max", "2.8",
]


def test_gp_default_invocation_prints_reference_phase(capsys):
    # omega=2, no coupling, theta=pi/2, one full period: gamma = -pi
    assert run(["gp", "--bath-size", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert angular_distance(float(out), -math.pi) < 1e-4


def test_gp_json_diagnostics(capsys):
    code = run(["gp", "--bath-size", "1", "--format", "json", "--steps", "2001"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "closed_form"
    assert payload["n_steps"] == 2001
    assert payload["gamma"] == principal_value(payload["gamma_unwrapped"])
    assert payload["singular_nodes"] == 0
    assert payload["min_step_overlap"] is None


def test_gp_discrete_holonomy_method(capsys):
    code = run(
        ["gp", "--bath-size", "1", "--method", "discrete_holonomy", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "discrete_holonomy"
    assert payload["min_step_overlap"] > 0.99
    assert angular_distance(payload["gamma"], -math.pi) < 1e-4


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["gp"]) == 1
    err = capsys.readouterr().err
    assert "frustra-gp: error:" in err and "--bath-size" in err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["gp", "--bath-size", "1", "--frequency", "3"]) == 1
    assert "frustra-gp: error:" in capsys.readouterr().err


def test_invalid_angle_is_config_error(capsys):
    assert run(["gp", "--bath-size", "1", "--theta", "9"]) == 1
    assert "theta" in capsys.readouterr().err


def test_south_pole_method_off_pole_is_numerical_error(capsys):
    code = run(["gp", "--bath-size", "1", "--theta", "1.0", "--method", "south_pole"])
    assert code == 2
    assert "numerical error" in capsys.readouterr().err


def test_coarse_grid_is_numerical_error(capsys):
    assert run(["gp", "--bath-size", "1", "--steps", "3"]) == 2
    assert "refine" in capsys.readouterr().err


def test_bloch_csv_contract(capsys):
    assert run(["bloch", "--bath-size", "1", "--steps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 6
    first = [float(s) for s in lines[1].split(",")]
    # defaults theta=pi/2, phi=0 start at (0, 1, 0)
    assert np.allclose(first, [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_bloch_rejects_nonpositive_horizon(capsys):
    assert run(["bloch", "--bath-size", "1", "--t-end", "0"]) == 1


def test_bloch_json_rows(capsys):
    assert run(["bloch", "--bath-size", "1", "--steps", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == ["t", "x", "y", "z"]
    assert len(payload["rows"]) == 4
    assert payload["rows"][0][0] == 0.0


def test_surface_csv_contract(tmp_path):
    out = tmp_path / "surface.csv"
    assert run(SURFACE_ARGS + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SURFACE_CSV_HEADER
    assert len(lines) == 1 + 7 * 6
    prins, unws = [], []
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        for text in fields[:4]:
            assert format(float(text), ".17g") == text  # bit-exact round trip
        prins.append(float(fields[2]))
        unws.append(float(fields[3]))
        int(fields[4])
    assert np.array_equal(principal_value(np.array(unws)), np.array(prins))


def test_write_surface_csv_ends_with_newline():
    cfg = SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=2)
    grid = AngleGrid(n_theta=4, n_phi=3, theta_min=0.3, theta_max=2.8)
    surface = gp_surface(cfg, grid, 5.0, time_steps=301)
    sink = io.StringIO()
    write_surface_csv(surface, sink)
    assert sink.getvalue().endswith("\n")


BLOCH_ARGS = ["bloch", "--bath-size", "2", "--alpha2", "0.3", "--t-end", "2", "--steps", "11"]
# Started on the equator, the decoupled qubit (alpha = 0) reaches the antipode
# at t = pi/2, where its phase is indeterminate; that entry has no determinate
# cell, so its four grid means are missing (nan in the CSV).
COMPARE_MISSING_ARGS = [
    "compare",
    "--bath-size", "1",
    "--omega", "2",
    "--t-end", "1.5707963267948966",
    "--steps", "301",
    "--n-theta", "2",
    "--n-phi", "3",
    "--theta-min", "1.5707963267948966",
    "--theta-max", "1.5707963267948968",
    "--couplings", "0,0;1,0",
]


def _strict_json(text: str):
    """json.loads that rejects the NaN and Infinity tokens strict JSON lacks."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _compare_rows(payload: dict, header: list) -> list:
    by_label = {entry["label"]: entry for entry in payload["entries"]}
    return [[by_label[label][key] for key in header] for label in payload["ranking"]]


MIRROR_CASES = {
    "surface": (SURFACE_ARGS, lambda payload, header: payload["rows"]),
    "bloch": (BLOCH_ARGS, lambda payload, header: payload["rows"]),
    "compare": (COMPARE_MISSING_ARGS, _compare_rows),
}


@pytest.mark.parametrize("case", list(MIRROR_CASES))
def test_surface_json_mirrors_csv(tmp_path, case):
    args, json_rows_of = MIRROR_CASES[case]
    csv_path = tmp_path / "s.csv"
    json_path = tmp_path / "s.json"
    assert run(args + ["--out", str(csv_path)]) == 0
    assert run(args + ["--format", "json", "--out", str(json_path)]) == 0
    payload = _strict_json(json_path.read_text())
    lines = [ln for ln in csv_path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    if case == "surface":
        assert header == SURFACE_CSV_HEADER.split(",")
        assert payload["time_steps"] == 301
    if "columns" in payload:
        assert payload["columns"] == header
    csv_rows = [line.split(",") for line in lines[1:]]
    json_rows = json_rows_of(payload, header)
    assert len(json_rows) == len(csv_rows)
    for json_row, csv_row in zip(json_rows, csv_rows):
        assert len(json_row) == len(csv_row)
        for value, text in zip(json_row, csv_row):
            if value is None:
                assert text == "nan"
            else:
                assert value == type(value)(text), (value, text)
    if case == "compare":
        assert json_rows[-1][5:9] == [None] * 4


def test_each_output_lists_the_fields_of_its_result(tmp_path, capsys):
    # One field list per output: gp's JSON keys are GpResult's fields with
    # GpDiagnostics' spliced in where the diagnostics field stands, and each
    # CSV header is the JSON payload's own column list.
    assert run(["gp", "--bath-size", "1", "--format", "json"]) == 0
    expected = []
    for field in fields(GpResult):
        if field.name == "diagnostics":
            expected += [inner.name for inner in fields(GpDiagnostics)]
        else:
            expected.append(field.name)
    assert list(json.loads(capsys.readouterr().out)) == expected
    for args in (SURFACE_ARGS, BLOCH_ARGS, COMPARE_MISSING_ARGS):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        assert run(args + ["--out", str(csv_path)]) == 0
        assert run(args + ["--format", "json", "--out", str(json_path)]) == 0
        header = next(
            line for line in csv_path.read_text().splitlines() if not line.startswith("#")
        ).split(",")
        payload = _strict_json(json_path.read_text())
        if args is COMPARE_MISSING_ARGS:
            assert all(list(entry) == header for entry in payload["entries"])
        else:
            assert payload["columns"] == header


def test_surface_has_no_mode_knob(tmp_path, capsys):
    # the literal surface is the physical one at (pi - theta, pi - phi)
    assert run(SURFACE_ARGS + ["--mode", "literal"]) == 1
    err = capsys.readouterr().err
    assert "frustra-gp: error: unrecognized arguments: --mode literal" in err
    assert "Traceback" not in err
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("subcommand=surface\nbath-size=2\nmode=physical\n")
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'mode'"):
        load_config(cfg_path)
    assert run(["surface", "--config", str(cfg_path)]) == 1
    assert "unknown key 'mode'" in capsys.readouterr().err
    for args in (SURFACE_ARGS, COMPARE_MISSING_ARGS):
        out = tmp_path / "payload.json"
        assert run(args + ["--format", "json", "--out", str(out)]) == 0
        assert "mode" not in _strict_json(out.read_text())


def test_verify_report_writes_non_finite_measures_as_null(tmp_path, monkeypatch):
    # A failed sector_weight_normalization records an infinite measure.
    check = VerifyCheck("sector_weight_normalization", False, math.inf, 1e-12, "zeta")
    report = VerifyReport(checks=(check,), runtime_s=0.0)
    monkeypatch.setattr("frustra_gp.cli.verify_suite", lambda seed: report)
    out = tmp_path / "verify.json"
    assert run(["verify", "--out", str(out)]) == 2
    payload = _strict_json(out.read_text())
    assert payload["all_passed"] is False
    assert payload["checks"] == [
        {
            "name": "sector_weight_normalization",
            "passed": False,
            "measured": None,
            "tolerance": 1e-12,
            "detail": "zeta",
        }
    ]


def test_config_file_reproduces_flag_run(tmp_path):
    flag_out = tmp_path / "flags.csv"
    cfg_out = tmp_path / "config.csv"
    assert run(SURFACE_ARGS + ["--out", str(flag_out)]) == 0
    cfg_text = "\n".join(
        [
            "subcommand=surface",
            "bath-size=2",
            "alpha1=0.6",
            "alpha2=0.3",
            "t-end=5",
            "steps=301  # comment survives",
            "n-theta=7",
            "n-phi=6",
            "theta-min=0.3",
            "theta-max=2.8",
        ]
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text + "\n")
    assert run(["surface", "--config", str(cfg_path), "--out", str(cfg_out)]) == 0
    assert flag_out.read_bytes() == cfg_out.read_bytes()


def test_flags_override_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("subcommand=bloch\nbath-size=1\nsteps=9\n")
    assert run(["bloch", "--config", str(cfg_path), "--steps", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6  # header + 5, not + 9


def test_config_file_error_reporting(tmp_path):
    bad = tmp_path / "bad.cfg"

    bad.write_text("subcommand=gp\nomega=abc\n")
    with pytest.raises(ConfigError, match=r"line 2: invalid value for omega"):
        load_config(bad)

    bad.write_text("subcommand=gp\nomega=1.0\nomega=2.0\n")
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'omega'"):
        load_config(bad)

    bad.write_text("subcommand=gp\nvolume=3\n")
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'volume'"):
        load_config(bad)

    bad.write_text("subcommand=gp\njust a line\n")
    with pytest.raises(ConfigError, match=r"line 2: expected key=value"):
        load_config(bad)

    bad.write_text("omega=1.0\n")
    with pytest.raises(ConfigError, match="does not declare a subcommand"):
        load_config(bad)

    bad.write_text("subcommand=gp\n = 3\n")
    with pytest.raises(ConfigError, match=r"line 2: missing key before '='"):
        load_config(bad)

    bad.write_text("subcommand=plot\n")
    with pytest.raises(ConfigError, match=r"line 1: unknown subcommand 'plot'"):
        load_config(bad)

    # blank and comment-only lines are skipped but keep their line numbers
    bad.write_text("# a gp run\n\n   # indented comment\nsubcommand=gp\nomega=abc\n")
    with pytest.raises(ConfigError, match=r"line 5: invalid value for omega"):
        load_config(bad)


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # a byte sequence that is no UTF-8 is a caller mistake like a missing
    # file: one error line and exit 1, not a UnicodeDecodeError traceback
    bad = tmp_path / "latin.cfg"
    bad.write_bytes(b"subcommand=gp\nbath-size=3\n\xff\xfe\n")
    with pytest.raises(ConfigError, match="^cannot read config file .*latin.cfg: .*utf-8"):
        load_config(bad)
    assert run(["gp", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("frustra-gp: error: cannot read config file")
    assert captured.err.count("\n") == 1


def test_config_subcommand_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("subcommand=bloch\nbath-size=1\n")
    with pytest.raises(ConfigError, match="is for subcommand 'bloch'"):
        load_config(cfg_path, subcommand="gp")
    assert run(["gp", "--config", str(cfg_path)]) == 1
    assert "frustra-gp: error:" in capsys.readouterr().err


def test_run_config_round_trip(tmp_path):
    src = tmp_path / "src.cfg"
    src.write_text("subcommand=gp\nbath-size=3\ntheta=1.25\n")
    cfg = load_config(src)
    assert cfg.provenance["theta"] == "file"
    assert cfg.provenance["omega"] == "default"
    copy = tmp_path / "copy.cfg"
    copy.write_text(serialize_config(cfg))
    reloaded = load_config(copy)
    assert reloaded == cfg  # provenance excluded from equality
    assert reloaded is not cfg
    assert isinstance(cfg, RunConfig)


def test_serialize_config_omits_unset_values():
    # a required key still unset (None) has no file form; it is left out
    cfg = RunConfig("gp", {"theta": "1.25", "bath-size": None, "out": "-"})
    assert serialize_config(cfg) == "subcommand=gp\nout=-\ntheta=1.25\n"


@pytest.mark.parametrize("out", ["res#1.txt", " padded.txt ", "padded.txt\t", "two\nlines"])
def test_serialize_config_refuses_values_that_reload_changed(out):
    # load_config cuts a '#' comment, splits at line breaks and strips each
    # value, so writing such a value would reload as a different one.
    cfg = RunConfig("gp", {"bath-size": "3", "out": out})
    with pytest.raises(ConfigError, match="^out: "):
        serialize_config(cfg)


def test_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("frustra-gp: error:") and "seed" in err
    assert not out.exists()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("subcommand=verify\nseed=-3\n")
    with pytest.raises(ConfigError, match="line 2: invalid value for seed"):
        load_config(cfg_path)


@pytest.mark.parametrize("extra", [[], ["--steps", "100"]], ids=["auto-grid", "fixed-grid"])
def test_overflowing_coupling_is_usage_error(extra, capsys):
    # alpha1 N/2 = 1.5e200 squares past the float range: the auto grid used
    # to end in an OverflowError traceback, a fixed grid in non-finite points
    assert run(["gp", "--bath-size", "3", "--alpha1", "1e200", *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("frustra-gp: error:") and "overflows" in err


@pytest.mark.parametrize("subcommand", ["bloch", "gp", "surface", "compare"])
def test_time_whose_rotation_angle_overflows_is_config_error(subcommand, capsys):
    # Gamma t past the float range used to print three numpy RuntimeWarnings
    # before the run failed on NaN points
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([subcommand, "--bath-size", "2", "--t-end", "1e308", "--steps", "3"]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("frustra-gp: error: time 1e+308 too large: Gamma * t overflows")


POLE_ARGS = [
    "--bath-size", "2",
    "--t-end", "5",
    "--steps", "301",
    "--n-theta", "5",
    "--n-phi", "4",
    "--theta-min", "0",
    "--theta-max", repr(math.pi),
]


def _pole_grid():
    """The library grid of POLE_ARGS: both poles among its 5 theta rows."""
    return AngleGrid(n_theta=5, n_phi=4, theta_min=0.0, theta_max=math.pi)


def test_surface_takes_pole_bounds_like_the_library(tmp_path):
    # the sweep evaluates pole cells by PolarTrack.from_points; the command
    # line used to refuse bounds that the library grid took
    out = tmp_path / "poles.csv"
    assert run(["surface", "--alpha1", "0.6", "--alpha2", "0.3", *POLE_ARGS, "--out", str(out)]) == 0
    cfg = SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=2)
    sink = io.StringIO()
    write_surface_csv(gp_surface(cfg, _pole_grid(), 5.0, time_steps=301), sink)
    assert out.read_text() == sink.getvalue()
    rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
    assert {row[0] for row in rows[:4]} == {"0"}
    assert {row[0] for row in rows[-4:]} == {format(math.pi, ".17g")}
    assert "nan" not in sink.getvalue()


def test_compare_takes_pole_bounds_like_the_library(tmp_path):
    out = tmp_path / "poles.csv"
    couplings = ((1.0, 0.0), (0.25, 0.25))
    assert run(["compare", *POLE_ARGS, "--couplings", "1,0;0.25,0.25", "--out", str(out)]) == 0
    pairs = [
        (f"alpha1={cli._coupling_text(a1)} alpha2={cli._coupling_text(a2)}",
         SystemConfig(omega=2.0, alpha1=a1, alpha2=a2, bath_size=2))
        for a1, a2 in couplings
    ]
    report = strategy_compare(pairs, _pole_grid(), 5.0, time_steps=301)
    sink = io.StringIO()
    write_compare_csv(report, sink)
    assert out.read_text() == sink.getvalue()
    assert [e.missing_cells for e in report.entries] == [0, 0]


def test_closed_stdout_ends_the_cli_without_a_traceback():
    # The reader takes one line and closes the pipe, as `| head -1` does.
    # The output (about 4 MB) outgrows any pipe buffer, so the next write
    # finds the pipe closed.
    args = ["bloch", "--bath-size", "2", "--steps", "50000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "frustra_gp", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.stdout.readline() == b"t,x,y,z\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 141


# One small invocation per subcommand, for the `--out` error paths.
SMALL_ARGS = {
    "bloch": ["bloch", "--bath-size", "1", "--steps", "5"],
    "gp": ["gp", "--bath-size", "1"],
    "surface": ["surface", "--bath-size", "2", "--n-theta", "3", "--n-phi", "3"],
    "compare": ["compare", "--bath-size", "1", "--n-theta", "3", "--n-phi", "3"],
    "verify": ["verify"],
}


# The computation each subcommand hands to its writer.
COMPUTE_ENTRY = {
    "bloch": "bloch_trajectory",
    "gp": "bloch_trajectory",
    "surface": "gp_surface",
    "compare": "strategy_compare",
    "verify": "verify_suite",
}


@pytest.mark.parametrize("kind", ["missing_directory", "directory"])
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_unwritable_out_is_config_error(tmp_path, capsys, monkeypatch, subcommand, kind):
    # the path is refused before the run: the computation is never called
    def never(*args, **kwargs):
        raise AssertionError(f"{COMPUTE_ENTRY[subcommand]} ran before --out was checked")

    monkeypatch.setattr(cli, COMPUTE_ENTRY[subcommand], never)
    out = tmp_path / "absent" / "x.csv" if kind == "missing_directory" else tmp_path
    assert run([*SMALL_ARGS[subcommand], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"frustra-gp: error: cannot write output file {out}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_failed_run_leaves_an_existing_out_file_unchanged(tmp_path, capsys):
    # the --out probe opens for append, so a run that fails after it keeps
    # the old bytes of the file
    out = tmp_path / "gp.txt"
    out.write_bytes(b"earlier result\n")
    assert run(["gp", "--bath-size", "1", "--method", "south_pole", "--out", str(out)]) == 2
    assert "south-pole form requires theta0 = pi" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier result\n"


def test_every_other_package_error_is_a_numerical_error(monkeypatch, capsys):
    # UsageError and ConfigError exit 1; any other FrustraGpError exits 2
    class Unlisted(FrustraGpError):
        pass

    def fail(p):
        raise Unlisted("no route")

    monkeypatch.setitem(cli._HANDLERS, "gp", fail)
    assert run(["gp", "--bath-size", "1"]) == 2
    assert capsys.readouterr().err == "frustra-gp: numerical error: no route\n"


def test_threads_env_rejected_when_invalid(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "0")
    assert run(SURFACE_ARGS + ["--out", str(tmp_path / "x.csv")]) == 1
    assert THREADS_ENV in capsys.readouterr().err
    monkeypatch.setenv(THREADS_ENV, "soon")
    assert run(SURFACE_ARGS + ["--out", str(tmp_path / "y.csv")]) == 1


def test_threads_env_does_not_change_output_bytes(tmp_path, monkeypatch):
    one = tmp_path / "one.csv"
    three = tmp_path / "three.csv"
    monkeypatch.setenv(THREADS_ENV, "1")
    assert run(SURFACE_ARGS + ["--out", str(one)]) == 0
    monkeypatch.setenv(THREADS_ENV, "3")
    assert run(SURFACE_ARGS + ["--out", str(three)]) == 0
    assert one.read_bytes() == three.read_bytes()


def test_compare_csv_contract(tmp_path):
    args = [
        "compare",
        "--bath-size", "2",
        "--t-end", "5",
        "--steps", "301",
        "--n-theta", "7",
        "--n-phi", "6",
        "--theta-min", "0.3",
        "--theta-max", "2.8",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(args + ["--out", str(first)]) == 0
    assert run(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "# metric=mean_dist_to_unitary"
    assert lines[1].startswith("# winner=")
    assert lines[2].startswith("label,omega,alpha1,alpha2,bath_size,")
    assert len(lines) == 3 + 4  # default couplings carry four strategies
    winner = lines[1].split("=", 1)[1]
    assert lines[3].split(",")[0] == winner


def test_compare_tells_a_terminal_that_it_runs(monkeypatch, capsys, tmp_path):
    args = [
        "compare",
        "--bath-size", "1",
        "--t-end", "4",
        "--steps", "201",
        "--n-theta", "3",
        "--n-phi", "2",
        "--theta-min", "0.4",
        "--theta-max", "2.7",
        "--out", str(tmp_path / "report.csv"),
    ]
    assert run(args) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
    assert run(args) == 0
    assert capsys.readouterr().err == "comparing 4 strategies...\n"


def test_compare_json_report(tmp_path):
    out = tmp_path / "report.json"
    args = [
        "compare",
        "--bath-size", "1",
        "--t-end", "4",
        "--steps", "201",
        "--n-theta", "5",
        "--n-phi", "4",
        "--theta-min", "0.4",
        "--theta-max", "2.7",
        "--couplings", "1,0;0.5,0.5",
        "--format", "json",
    ]
    assert run(args + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["ranking"]) == {"alpha1=1 alpha2=0", "alpha1=0.5 alpha2=0.5"}
    assert payload["winner"] == payload["ranking"][0]
    assert len(payload["entries"]) == 2
    assert payload["time_steps"] == [201, 201]


def test_compare_labels_couplings_that_agree_to_six_digits(tmp_path):
    # 0.1234567 and 0.1234568 share their first six significant digits;
    # each label keeps the shortest text that reads back as its coupling
    out = tmp_path / "report.json"
    args = [
        "compare",
        "--bath-size", "2",
        "--t-end", "2",
        "--n-theta", "3",
        "--n-phi", "3",
        "--couplings", "0.1234567,0;0.1234568,0;1e-07,2.5",
        "--format", "json",
        "--out", str(out),
    ]
    assert run(args) == 0
    payload = json.loads(out.read_text())
    assert set(payload["ranking"]) == {
        "alpha1=0.1234567 alpha2=0",
        "alpha1=0.1234568 alpha2=0",
        "alpha1=1e-07 alpha2=2.5",
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gp", "--omega", "nan"], "invalid value for omega: 'nan' (must be finite)"),
        (
            ["gp", "--steps", "1"],
            "invalid value for steps: '1' (must be 'auto' or an integer >= 2)",
        ),
        (
            ["compare", "--couplings", "1;0,1"],
            "invalid value for couplings: '1;0,1' (bad coupling pair '1'; expected 'a1,a2;...')",
        ),
    ],
    ids=["non-finite-float", "too-few-steps", "bad-coupling-pair"],
)
def test_flag_value_refused_by_its_converter(capsys, argv, message):
    assert run([*argv, "--bath-size", "1"]) == 1
    assert capsys.readouterr().err == f"frustra-gp: error: {message}\n"


def test_compare_rejects_single_coupling(capsys):
    assert run(["compare", "--bath-size", "1", "--couplings", "1,0"]) == 1
    assert "at least two" in capsys.readouterr().err


def test_verify_cli(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 6
    assert "FAIL" not in stdout
    assert f"report written to {out}" in stdout
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 6


def test_verify_report_on_stdout_is_one_json_document(capsys):
    assert run(["verify", "--out", "-"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["all_passed"] is True
    assert captured.err.count("PASS") == 6
    assert "report written" not in captured.err + captured.out


def test_verify_rejects_max_bath_size(capsys):
    # the oracle checks use N <= 3, so verify has no bath-size cap to set
    assert run(["verify", "--max-bath-size", "2", "--out", "-"]) == 1
    assert "--max-bath-size" in capsys.readouterr().err


def test_console_script_help_runs(tmp_path):
    # Install a copy of the project into a throwaway venv with the installed
    # setuptools' own `develop` route (no wheel, no pip build, no network),
    # then run the script that install generated.  PYTHONPATH and the user
    # site are cut off so the script imports the copy, not src/.
    pytest.importorskip("setuptools")
    project = tmp_path / "project"
    project.mkdir()
    shutil.copy2(SRC.parent / "pyproject.toml", project)
    shutil.copytree(
        SRC, project / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    venv = tmp_path / "venv"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONNOUSERSITE"] = "1"
    subprocess.run(
        [sys.executable, "-m", "venv", "--system-site-packages", "--without-pip", str(venv)],
        check=True, capture_output=True, timeout=120, env=env,
    )
    python = venv / "bin" / "python"
    install = subprocess.run(
        [str(python), "-c", "from setuptools import setup; setup()", "develop", "--no-deps"],
        cwd=project, capture_output=True, text=True, timeout=120, env=env,
    )
    assert install.returncode == 0, install.stderr
    exe = venv / "bin" / "frustra-gp"
    assert exe.is_file(), "console script frustra-gp not installed"
    where = subprocess.run(
        [str(python), "-c", "import frustra_gp; print(frustra_gp.__file__)"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert Path(where.stdout.strip()).resolve().is_relative_to(project.resolve()), where.stderr
    proc = subprocess.run(
        [str(exe), "--help"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0
    assert "COMMAND" in proc.stdout


def test_cli_import_leaves_the_row_pool_unloaded():
    # concurrent.futures pulls in logging, queue and traceback; only a sweep
    # that starts its row pool imports it, so a fresh process does not pay
    # for it on import.
    code = "import sys, frustra_gp.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_entry_point_help_runs():
    proc = _module_run(["--help"])
    assert proc.returncode == 0
    assert "COMMAND" in proc.stdout


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_subcommand_help_names_every_key_with_its_help(
    tmp_path, capsys, monkeypatch, subcommand
):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per flag
    assert run([subcommand, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text(f"subcommand={subcommand}\n")
    keys = load_config(cfg_path).values
    assert keys
    for key in keys:
        assert f"--{key} V {' '.join(cli._FLAGS[key][1].split())}" in text
    assert "--config PATH" in text
    # the listed choices are exactly the ones the converter accepts
    for key, prefix in (("method", "gp route"), ("metric", "ranking metric")):
        if key not in keys:
            continue
        listed = re.search(rf"--{key} V {prefix}: (\S+(?: \| \S+)*)", text).group(1)
        cfg_path.write_text(f"subcommand={subcommand}\n{key}=bogus\n")
        with pytest.raises(ConfigError, match="must be one of") as refused:
            load_config(cfg_path)
        accepted = str(refused.value).split("must be one of ", 1)[1].rstrip(")")
        assert listed.split(" | ") == accepted.split(", ")


def test_gp_n48_output_bytes_repeat(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(GP_N48_ARGS + ["--out", str(first)]) == 0
    assert run(GP_N48_ARGS + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gp_n48_output_bytes_ignore_blas_threads():
    one = _module_run(GP_N48_ARGS, OPENBLAS_NUM_THREADS="1")
    two = _module_run(GP_N48_ARGS, OPENBLAS_NUM_THREADS="2")
    assert one.returncode == 0 and two.returncode == 0
    assert one.stdout == two.stdout


def test_verify_report_bytes_ignore_blas_threads():
    # The report's own wall time is the one line allowed to differ.
    def report(threads):
        proc = _module_run(["verify", "--out", "-"], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines(keepends=True)
        kept = [line for line in lines if not line.lstrip().startswith('"runtime_s":')]
        assert len(kept) == len(lines) - 1
        return "".join(kept)

    assert report("1") == report("2")


def test_gp_n100_output_bytes_ignore_blas_threads():
    # 11273 nodes, past the 10^4 beyond which OpenBLAS splits a dot product
    # over its threads (a BLAS dot in the phase quadrature changes the last
    # digit here), and 1031 distinct Gamma, so the rotation map runs blocks
    # of K = 106 nodes over 55 sector chunks, each one product of at most
    # (107, 38) x (38, 318).
    args = [a if a != "48" else "100" for a in GP_N48_ARGS]
    one = _module_run(args, OPENBLAS_NUM_THREADS="1")
    two = _module_run(args, OPENBLAS_NUM_THREADS="2")
    assert one.returncode == 0 and two.returncode == 0
    assert one.stdout == two.stdout


def test_surface_n30_output_bytes_ignore_blas_threads():
    # 371 nodes in blocks of K = 19 against 254 distinct Gamma.  Map
    # products of (20 x 430) @ (430 x 152) sum in another order at 2
    # threads, which changed 78 of the 121 rows.
    args = ["surface", "--bath-size", "30", "--alpha1", "0.3", "--alpha2", "0.7",
            "--t-end", "5", "--n-theta", "11", "--n-phi", "11"]
    one = _module_run(args, OPENBLAS_NUM_THREADS="1")
    two = _module_run(args, OPENBLAS_NUM_THREADS="2")
    assert one.returncode == 0 and two.returncode == 0
    assert len(one.stdout.splitlines()) > 121
    assert one.stdout == two.stdout


def test_compare_output_bytes_ignore_blas_and_worker_threads():
    # The only BLAS products on this path are the rotation map's chunked
    # matrix products; the sweep projects cells by elementwise products and
    # its quadrature sums with np.sum.  OPENBLAS_NUM_THREADS=2 checks that
    # the 2001-step run's products give the same bytes on two threads, and
    # FRUSTRA_GP_THREADS=2 that the row pool does not reach the bytes.
    args = ["compare", "--bath-size", "4", "--n-theta", "5", "--n-phi", "6",
            "--steps", "2001"]
    runs = [
        _module_run(args, OPENBLAS_NUM_THREADS=blas, **{THREADS_ENV: workers})
        for blas, workers in (("1", "1"), ("2", "1"), ("2", "2"))
    ]
    assert all(proc.returncode == 0 for proc in runs)
    # Two comment lines, the header and the four default allocations.
    assert len(runs[0].stdout.splitlines()) == 7
    assert runs[1].stdout == runs[0].stdout
    assert runs[2].stdout == runs[0].stdout


@pytest.mark.parametrize(
    "argv, callee",
    [
        (["surface", "--bath-size", "400", "--t-end", "50"], "gp_surface"),
        (["compare", "--bath-size", "400"], "strategy_compare"),
        (["gp", "--bath-size", "400"], "bloch_trajectory"),
    ],
)
def test_memory_error_is_numerical_error(monkeypatch, capsys, argv, callee):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"frustra_gp.cli.{callee}", out_of_memory)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("frustra-gp: numerical error: out of memory")
    assert "bath size N = 400" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--t-end", "1e308"],  # the auto grid's node count overflows a float
        ["--t-end", "1e300"],  # past numpy's largest array
        ["--steps", "100000000000000000000"],
    ],
)
def test_oversized_time_grid_is_out_of_memory(capsys, extra):
    assert run(["gp", "--bath-size", "3", *extra]) == 2
    err = capsys.readouterr().err
    assert err == (
        "frustra-gp: numerical error: out of memory at bath size N = 3;"
        " lower the bath size, the evolution time or the grid\n"
    )
