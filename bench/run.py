"""frustra-gp benchmark: the public CLI under three workloads.

Run from the repository root:

    python3 bench/run.py --workload compare-n20 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

One operation is one `frustra_gp.cli.run(argv)` call with its output sent
to a file via `--out`; operations run back to back in this process (a
closed loop with one client) after one untimed warm-up per input.  The
package and BLAS run on one thread each, so a run uses one core.

The timings it reports are in reference seconds.  A fixed pure-Python
loop (the probe, independent of frustra_gp) runs in the gaps between
operations and between set-up samples, for a twentieth to a fifth of the
run.  Each wall time is scaled by the probe's reference time over the mean
of the median probes in the gaps before and after it.  On a shared host
whose speed drifts by tens of percent within seconds, the probe slows with
the host, so the scaled times follow the program's own cost; a change that
slows the program does not slow the probe and shows in full.  Raw wall
times are printed beside every metric.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced operations and reports per-layer metrics
from the traced ones, plus the tracing overhead.  Every operation's output
is checked once its timer stops; an operation fails when it exits
non-zero, when its output bytes differ from the warm-up's, or when the
output is wrong.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; a record of the run, with
the spans of a traced run, goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Fresh interpreters launched before and again after the timed loop, so the
# setup median spans the run rather than one moment of it.
SETUP_REPEATS = 8
SETUP_CODE = "import frustra_gp.cli as cli; cli.build_parser()"
TAIL_BEYOND = 10
# One worker thread for the package and for BLAS: on a small host shared
# with other tenants, more threads than free cores time the scheduler.
PINNED_ENV = {"FRUSTRA_GP_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
PROBE_LOOPS = 400_000
# About the probe's median wall time in the gaps of runs on the baseline
# machine (2-core VM, Python 3.11); timings are reported as if the probes
# had taken this long.
PROBE_REF_S = 0.028
# A gap holds one probe, and one more per this many seconds of the timing
# before it.
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Wall seconds of a fixed pure-Python loop that gauges the host's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def probe_gap(after_seconds: float) -> float:
    """Median of the probes in the gap after a timing of `after_seconds`."""
    return statistics.median(probe() for _ in range(1 + int(after_seconds / PROBE_EVERY_S)))


def to_reference(seconds: float, gap_before: float, gap_after: float) -> float:
    """Wall seconds rescaled to the probe's reference speed."""
    return seconds * PROBE_REF_S / ((gap_before + gap_after) / 2)


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if "bytes" in key:
        return "B"
    return "count"


def declared() -> dict:
    """The workloads and metrics this benchmark declares."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package() -> None:
    """Import frustra_gp from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import frustra_gp
    import frustra_gp.cli

    if Path(frustra_gp.__file__).resolve().parent != SRC / "frustra_gp":
        raise ImportError(f"frustra_gp imported from {frustra_gp.__file__}, not {SRC}")


@dataclass
class Op:
    rc: int
    seconds: float
    out: bytes
    stdout: bytes


@dataclass
class Sample:
    """What a run keeps of one timed operation once it has been checked."""

    seconds: float
    traced: bool
    problems: list[str]
    output_bytes: int
    spans: list | None = None
    ref_seconds: float = 0.0
    case: int = 0


def run_op(cli, argv: list[str], out_path: Path) -> Op:
    """One timed CLI invocation; its output file and stdout are captured."""
    if out_path.exists():
        out_path.unlink()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        try:
            rc = cli.run(argv + ["--out", str(out_path)])
        except Exception as exc:  # an operation that crashes is a failed operation
            print(f"operation raised {exc!r}", file=sys.stderr)
            rc = -1
        seconds = time.perf_counter() - start
    out = out_path.read_bytes() if out_path.exists() else b""
    return Op(rc, seconds, out, captured.getvalue().encode())


class Checker:
    """Counts an operation as failed unless it exits 0, repeats the
    reference operation's bytes, and passes the workload's output check."""

    def __init__(self, case, reference: Op) -> None:
        self.case = case
        self.reference = case.comparable(reference.out, reference.stdout)
        self._verdict: list[str] | None = None

    def problems(self, op: Op) -> list[str]:
        if op.rc != 0:
            return [f"exit status {op.rc}"]
        if self.case.comparable(op.out, op.stdout) != self.reference:
            return ["output bytes differ from the warm-up operation's"]
        # The check reads only what `comparable` keeps, so one verdict
        # serves every operation that repeats the reference.
        if self._verdict is None:
            self._verdict = self.case.check(op.out)
        return self._verdict


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  Below 2 * TAIL_BEYOND + 1
    samples that percentile would fall under the median, so the maximum
    (p100, none beyond) stands in.
    """
    ordered = sorted(samples)
    if len(ordered) <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), TAIL_BEYOND


def measure_setup(repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """(wall, reference) seconds for fresh interpreters to import frustra_gp
    and build the CLI parser, which every command-line call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    before = probe_gap(0.0)
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        seconds = time.perf_counter() - start
        after = probe_gap(seconds)
        times.append((seconds, to_reference(seconds, before, after)))
        before = after
    return times


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    ref_file = ROOT / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_record(cli) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    resolve_threads = getattr(cli, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "cli_threads": resolve_threads() if resolve_threads else None,
        "commit": git_commit(),
    }


def measure(cli, cases, seconds: float, out_path: Path, tracer=None) -> list[Sample]:
    """Warm up once on each case, then run operations until `seconds` have
    passed, two in a row on each case in turn.

    A further operation starts only while it is expected to end no later
    than half an operation past the deadline, or while an untraced run
    has fewer than 2 * TAIL_BEYOND + 1 operations: the tail is then always
    a percentile with TAIL_BEYOND samples beyond it, not the maximum of a
    few samples on one run and a lower percentile on the next.  Each
    operation is checked against its case's warm-up right after its timer
    stops, and followed by a gap of probes, which counts toward the run's
    time.  With a tracer, operations alternate untraced and traced, so both
    see the same conditions.
    """
    checkers = []
    for case in cases:
        warm_up = run_op(cli, case.argv, out_path)
        checkers.append(Checker(case, warm_up))
    gap = probe_gap(warm_up.seconds)
    samples: list[Sample] = []
    start = time.perf_counter()
    min_ops = 2 if tracer else 2 * TAIL_BEYOND + 1
    while len(samples) < min_ops or (
        time.perf_counter() - start + statistics.median(s.seconds for s in samples) / 2
        <= seconds
    ):
        traced = tracer is not None and len(samples) % 2 == 1
        case = len(samples) // 2 % len(cases)
        gc.collect()
        if traced:
            tracer.enabled = True
        op = run_op(cli, cases[case].argv, out_path)
        if traced:
            tracer.enabled = False
        spans = tracer.take() if traced else None
        problems = checkers[case].problems(op)
        before, gap = gap, probe_gap(op.seconds)
        samples.append(Sample(op.seconds, traced, problems, len(op.out), spans,
                              to_reference(op.seconds, before, gap), case))
    return samples


def layer_summary(traced: list[Sample]) -> tuple[dict, bool]:
    """Median of each per-layer metric over the traced operations, and
    whether every count repeated exactly between operations on one input."""
    import tracing

    per_op = []
    for sample in traced:
        metrics = tracing.layer_metrics(sample.spans)
        metrics["cli.output_bytes"] = sample.output_bytes
        per_op.append(metrics)
    summary = {}
    repeat = True
    for key in per_op[0]:
        values = [m[key] for m in per_op]
        if unit_of(key) == "count" or key == "dynamics.bytes_computed":
            for case in {s.case for s in traced}:
                repeat &= len({v for v, s in zip(values, traced) if s.case == case}) == 1
        summary[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return summary, repeat


def emit(line: str) -> None:
    print(line, flush=True)


def run_workload(args) -> int:
    try:
        import_package()
    except ImportError as exc:
        print(f"bench: cannot import frustra_gp from {SRC}: {exc}", file=sys.stderr)
        return 2
    import frustra_gp.cli as cli
    import tracing
    import workloads

    cases = workloads.cases(args.workload, args.seed)
    case = cases[0]
    bench = declared()
    why = next(w["why"] for w in bench["workloads"] if w["name"] == case.workload)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"op-{os.getpid()}.out"
    setup = measure_setup()
    machine = machine_record(cli)
    counters = case.counters()

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        samples = measure(cli, cases, args.seconds, out_path, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        if out_path.exists():
            out_path.unlink()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup()

    verdicts = [s.problems for s in samples]
    failed = sum(1 for v in verdicts if v)
    expected = workloads.EXPECTED_COUNTERS.get(case.workload)
    counters_ok = expected is None or all(counters[k] == v for k, v in expected.items())

    emit(f"workload {case.workload}  seed {args.seed}")
    emit(f"  argv: {' '.join(case.argv)} --out <file>"
         + (f"  (the first of {len(cases)} inputs, cycled)" if len(cases) > 1 else ""))
    emit(f"  why: {why}")
    emit("  machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    if counters is not None:
        emit("  work counters (bytes computed from array sizes): "
             + " ".join(f"{k}={v}" for k, v in counters.items())
             + ("" if counters_ok else f"  MISMATCH, expected {expected}"))
    for problem in sorted({p for v in verdicts for p in v}):
        emit(f"  FAILED: {problem}")

    untraced = [s for s in samples if not s.traced]
    p50 = statistics.median(s.ref_seconds for s in untraced)
    wall_p50 = statistics.median(s.seconds for s in untraced)
    tail_value, tail_pct, beyond = tail([s.ref_seconds for s in untraced])
    setup_s = statistics.median(ref for _, ref in setup)
    speed = statistics.median(s.seconds / s.ref_seconds for s in samples)
    emit(f"timings in reference seconds, raw wall seconds in brackets; probes took"
         f" {speed:.3f} x the reference {PROBE_REF_S} s (median over operations)")
    emit(f"op_p50_s = {p50:.6f} s [{wall_p50:.6f}]"
         f"  (median of {len(untraced)} untraced operations)")
    emit(f"op_tail_s = {tail_value:.6f} s [{tail([s.seconds for s in untraced])[0]:.6f}]"
         f"  (p{tail_pct:.1f} of {len(untraced)}, {beyond} beyond it)")
    emit(f"peak_rss_mb = {peak_rss_mb:.1f} MB  (this process, ru_maxrss)")
    emit(f"setup_s = {setup_s:.6f} s [{statistics.median(wall for wall, _ in setup):.6f}]"
         f"  (median of {len(setup)} fresh interpreters)")
    emit(f"failed_frac = {failed / len(samples):.6g} (fraction; {failed} of {len(samples)} operations)")

    record = {
        "workload": case.workload, "seed": args.seed, "argv": [c.argv for c in cases],
        "why": why, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "counters": counters,
        "setup_s_samples": [ref for _, ref in setup],
        "setup_wall_s_samples": [wall for wall, _ in setup],
        "op_seconds": [s.ref_seconds for s in samples],
        "op_wall_seconds": [s.seconds for s in samples],
        "op_traced": [s.traced for s in samples],
        "problems": verdicts,
    }
    correct = failed == 0 and counters_ok
    if args.trace:
        traced = [s for s in samples if s.traced]
        layers, repeat = layer_summary(traced)
        correct = correct and repeat
        traced_p50 = statistics.median(s.ref_seconds for s in traced)
        emit(f"tracing overhead = {traced_p50 - p50:+.6f} s  (traced op_p50_s {traced_p50:.6f}"
             f" over {len(traced)} ops minus untraced op_p50_s {p50:.6f})")
        emit(f"per-layer metrics (median over {len(traced)} traced operations):")
        for key, value in layers.items():
            emit(f"  {key} = {value:.6g} {unit_of(key)}")
        if not repeat:
            emit("  FAILED: per-layer counts differ between traced operations")
        emit(f"  share of untraced wall op_p50_s: rotation_matrices.busy_s"
             f" {layers['dynamics.rotation_matrices.busy_s'] / wall_p50:.3f},"
             f" gp_surface.self_s + gp_closed_form.busy_s"
             f" {(layers['experiments.gp_surface.self_s'] + layers['phase.gp_closed_form.busy_s']) / wall_p50:.3f}")
        # The result line carries the per-layer metrics BENCHMARK.json lists.
        # It leaves out function times that read 0 on every workload that
        # does not call the function; the table above prints those too.
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
        record["layers"] = layers
        record["spans"] = [
            [[x.name, x.start, x.end, x.parent, x.thread, x.error, x.info] for x in s.spans]
            for s in traced
        ]
    else:
        metrics = {
            "op_p50_s": {"value": p50, "unit": "s"},
            "op_tail_s": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    record["metrics"] = metrics
    record_path = OUT_DIR / f"{case.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n")
    emit(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                     "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    status = 0
    for name in (w["name"] for w in declared()["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in declared()["workloads"]]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; compare-n20 is also checked against a reference at 0")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_ENV)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
