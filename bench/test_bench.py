"""Tests of the benchmark itself: failure accounting, self time, and that
tracing leaves the CLI's output unchanged.

    python3 -m pytest bench -q
"""

import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import frustra_gp  # noqa: E402
import frustra_gp.cli as cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _op(tmp_path, argv):
    return run.run_op(cli, argv, tmp_path / "op.out")


def test_corrupted_or_nonzero_exit_operation_counts_as_failed(tmp_path):
    case = workloads.verify_case(5)
    good = _op(tmp_path, case.argv)
    checker = run.Checker(case, good)
    assert checker.problems(good) == []
    assert checker.problems(_op(tmp_path, case.argv)) == []

    assert checker.problems(run.Op(2, 0.1, good.out, good.stdout)) == ["exit status 2"]
    assert checker.problems(run.Op(-1, 0.1, b"", b""))

    corrupted = good.out.replace(b'"all_passed": true', b'"all_passed": false')
    assert corrupted != good.out
    assert checker.problems(run.Op(0, 0.1, corrupted, good.stdout))
    # A run whose every operation is wrong in the same way still fails.
    bad_ref = run.Op(0, 0.1, corrupted, good.stdout)
    assert run.Checker(case, bad_ref).problems(bad_ref)
    assert checker.problems(run.Op(0, 0.1, good.out[:-10], good.stdout))


def test_compare_check_catches_wrong_tables():
    case = workloads.compare_case(workloads.DEFAULT_SEED)
    ref = workloads.COMPARE_REFERENCE.read_bytes()
    assert case.check(ref) == []
    lines = ref.decode().splitlines(keepends=True)
    split_row = next(i for i, line in enumerate(lines) if line.startswith("alpha1=0.25"))

    missing = lines.copy()
    missing[split_row] = missing[split_row].rsplit(",", 1)[0] + ",3\n"
    assert any("missing cells" in p for p in case.check("".join(missing).encode()))

    fields = lines[split_row].split(",")
    fields[6] = "1.5"  # mean_dist_to_unitary of (1/4, 1/4), now worse than (1, 0)
    lost = lines.copy()
    lost[split_row] = ",".join(fields)
    problems = case.check("".join(lost).encode())
    assert any("headline lost" in p for p in problems)
    assert any("off the reference" in p for p in problems)

    assert case.check(b"not,a,table\n1,2,3\n")


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        Span("experiments.gp_surface", 0.0, 10.0, None, 1, info={"cells": 2, "n": 3}),
        Span("phase.gp_closed_form", 1.0, 4.0, 0, 2, info={"n": 3}),  # pool thread A
        Span("phase.gp_closed_form", 2.0, 6.0, 0, 3, info={"n": 3}),  # thread B, overlaps A
        Span("dynamics.rotation_matrices", 8.0, 9.0, 0, 1,
             info={"S": 4, "n": 3, "peak_alloc_b": 0}),
        Span("model.sector_weights", 8.2, 8.5, 3, 1),  # grandchild
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10.0 - 6.0, 3.0, 4.0, 1.0 - 0.3, 0.3], abs=1e-12)
    assert tracing.union_length([(1.0, 4.0), (2.0, 6.0), (5.0, 5.5)]) == 5.0
    assert tracing.union_length([(1.0, 4.0)], 2.0, 3.0) == 1.0
    layers = tracing.layer_metrics(spans)
    assert layers["phase.gp_closed_form.busy_s"] == 5.0
    assert layers["experiments.gp_surface.self_s"] == 4.0
    assert (layers["phase.cells"], layers["phase.cell_nodes"]) == (2, 6)


SMALL_ARGVS = (
    ["compare", "--bath-size", "4", "--t-end", "5", "--n-theta", "5", "--n-phi", "6"],
    ["surface", "--bath-size", "3", "--alpha1", "0.5", "--t-end", "4", "--n-theta", "4",
     "--n-phi", "5", "--format", "json"],
    ["gp", "--bath-size", "4", "--alpha1", "0.5", "--alpha2", "0.5", "--format", "json"],
    ["gp", "--bath-size", "2", "--alpha1", "0.5", "--method", "discrete_holonomy"],
    ["bloch", "--bath-size", "2", "--alpha2", "0.3", "--t-end", "2"],
)


def test_wrappers_leave_cli_output_unchanged(tmp_path):
    originals = {
        (caller, name): getattr(getattr(frustra_gp, caller), name.split(".", 1)[1])
        for name, (callers, _, _) in tracing.WRAPPED.items()
        for caller in callers
    }
    plain = [_op(tmp_path, argv) for argv in SMALL_ARGVS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        traced = [_op(tmp_path, argv) for argv in SMALL_ARGVS]
        tracer.enabled = False
        spans = tracer.take()
    finally:
        tracer.uninstall()
    for argv, a, b in zip(SMALL_ARGVS, plain, traced):
        assert a.rc == b.rc == 0, argv
        assert (a.out, a.stdout) == (b.out, b.stdout), argv
    for (caller, attr), fn in originals.items():
        assert getattr(getattr(frustra_gp, caller), attr.split(".", 1)[1]) is fn

    # Pool-thread phase spans hang under the sweep that waits for them.
    closed = [s for s in spans if s.name == "phase.gp_closed_form"]
    assert any(s.thread != spans[0].thread for s in closed)
    under_sweep = [s for s in closed if spans[s.parent].name == "experiments.gp_surface"]
    assert len(under_sweep) == 4 * 5 * 6 + 4 * 5


def test_tail_has_ten_samples_beyond_or_is_the_maximum():
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10)
    assert abs(pct - 75.0) < 1e-12


def test_reference_seconds_scale_by_the_probes_around_them():
    ref = run.PROBE_REF_S
    assert run.to_reference(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert run.to_reference(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert run.probe_gap(0.0) > 0


def test_compare_default_seed_matches_reference(tmp_path):
    case = workloads.compare_case(workloads.DEFAULT_SEED)
    op = _op(tmp_path, case.argv)
    assert op.rc == 0
    assert case.check(op.out) == []
    assert case.counters()["n_sum"] == 10131


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
