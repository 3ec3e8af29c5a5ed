"""The benchmark's three CLI workloads: inputs from a seed, exact work
counters from public functions, and output checks.

Each workload turns a seed into `frustra_gp.cli.run` argvs (the program
sees only the generated flags; one argv, or sixteen for verify) and knows
how to check each command's output bytes.  Work counters follow the cost model: the rotation map costs
S·n (sectors times time nodes) and the phase costs C·n (cells times time
nodes); bytes are computed from array sizes, not measured.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from frustra_gp import (
    AngleGrid,
    InitialStateAngles,
    SystemConfig,
    angular_distance,
    auto_time_grid,
    bloch_trajectory,
    gp_discrete_holonomy,
    sector_weights,
)

# The default --seed of run.py, at which compare-n20 has a recorded reference.
DEFAULT_SEED = 0
HERE = Path(__file__).resolve().parent

# The compare CLI's default allocations.
COUPLINGS = ((1.0, 0.0), (0.0, 1.0), (0.25, 0.25), (0.5, 0.5))
# compare-n20's angle grid.  Coarser than the CLI's 61 x 61 so that a run
# holds over twenty operations, enough for a tail percentile, rather than
# four; the per-cell phase loop (C*n = 4.5 M cell-nodes) is still about
# two thirds of an operation and the rotation map (S*n = 4.5 M) a quarter.
COMPARE_GRID = 21
# verify's own --seed changes its work by up to a fifth, so a run cycles
# through this many verify seeds derived from the run's seed.
VERIFY_SEEDS_PER_RUN = 16
COMPARE_REFERENCE = HERE / "reference_compare-n20_seed0.csv"
# Values may move by last-bit refactors of the phase kernel (about 3e-13
# per cell) but not by anything a reader of the table would notice.
COMPARE_REFERENCE_TOL = 1e-9
# Closed form vs discrete holonomy at N = 48, t = 50, n = 5441: the two
# routes differ by discretization alone, measured at most 2.3e-3 over 64
# seeded angle draws.
GP_HOLONOMY_TOL = 5e-3


def _sector_count(bath_size: int) -> int:
    return len(sector_weights(bath_size)) ** 2


def _counters(s: int, ns: list[int], cells: int) -> dict:
    return {
        "S": s,
        "n": ns,
        "n_sum": sum(ns),
        "C": cells * len(ns),
        "S_n": s * sum(ns),
        "C_n": cells * sum(ns),
        "oracle_max_dim": 0,
        "bytes_computed": 8 * s * sum(ns),
    }


@dataclass(frozen=True)
class Case:
    """One seeded instance of a workload."""

    workload: str
    seed: int
    argv: list[str]
    params: dict

    def counters(self) -> dict | None:
        return COUNTERS[self.workload](self.params)

    def comparable(self, out: bytes, stdout: bytes) -> tuple[bytes, bytes]:
        """The parts of one operation's output that must repeat exactly."""
        if self.workload == "verify":
            # The report carries its own wall time; everything else repeats.
            try:
                report = json.loads(out)
                report.pop("runtime_s")
            except (ValueError, KeyError, TypeError):
                return out, stdout
            out = json.dumps(report, sort_keys=True).encode()
        return out, stdout

    def check(self, output: bytes) -> list[str]:
        """Problems with one operation's output; empty when it is correct.

        Reads only the parts that `comparable` keeps."""
        try:
            return CHECKS[self.workload](self, output)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparsable output: {exc!r}"]


def compare_case(seed: int) -> Case:
    rng = random.Random(seed)
    theta_min = rng.uniform(0.04, 0.06)
    theta_max = math.pi - rng.uniform(0.04, 0.06)
    argv = ["compare", "--bath-size", "20", "--t-end", "50",
            "--n-theta", str(COMPARE_GRID), "--n-phi", str(COMPARE_GRID),
            "--theta-min", repr(theta_min), "--theta-max", repr(theta_max)]
    params = {"bath_size": 20, "t_end": 50.0, "theta_min": theta_min, "theta_max": theta_max}
    return Case("compare-n20", seed, argv, params)


def gp_case(seed: int) -> Case:
    rng = random.Random(seed)
    theta = rng.uniform(0.3, math.pi - 0.3)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    argv = ["gp", "--bath-size", "48", "--alpha1", "0.5", "--alpha2", "0.5",
            "--t-end", "50", "--theta", repr(theta), "--phi", repr(phi)]
    params = {"bath_size": 48, "alpha": 0.5, "t_end": 50.0, "theta": theta, "phi": phi}
    return Case("gp-n48", seed, argv, params)


def verify_case(seed: int) -> Case:
    return Case("verify", seed, ["verify", "--seed", str(seed)], {})


def _compare_counters(p: dict) -> dict:
    grid = AngleGrid(n_theta=COMPARE_GRID, n_phi=COMPARE_GRID,
                     theta_min=p["theta_min"], theta_max=p["theta_max"])
    ns = [
        auto_time_grid(
            SystemConfig(omega=2.0, alpha1=a1, alpha2=a2, bath_size=p["bath_size"]),
            p["t_end"],
        ).n_steps
        for a1, a2 in COUPLINGS
    ]
    return _counters(_sector_count(p["bath_size"]), ns, grid.n_theta * grid.n_phi)


def _gp_counters(p: dict) -> dict:
    cfg = SystemConfig(omega=2.0, alpha1=p["alpha"], alpha2=p["alpha"], bath_size=p["bath_size"])
    n = auto_time_grid(cfg, p["t_end"], min_steps=4001).n_steps
    return _counters(_sector_count(p["bath_size"]), [n], 1)


def _parse_compare(text: str) -> list[dict]:
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


_NUMERIC = ("mean_abs_gp", "mean_dist_to_unitary", "min_gp", "max_gp")


def _check_compare(case: Case, output: bytes) -> list[str]:
    entries = _parse_compare(output.decode())
    problems = []
    pairs = [(float(e["alpha1"]), float(e["alpha2"])) for e in entries]
    if sorted(pairs) != sorted(COUPLINGS):
        problems.append(f"expected the four default couplings, got {pairs}")
    by_pair = dict(zip(pairs, entries))
    for e in entries:
        if int(e["missing_cells"]) != 0:
            problems.append(f"{e['label']}: {e['missing_cells']} missing cells")
        if not (-math.pi <= float(e["min_gp"]) and float(e["max_gp"]) < math.pi):
            problems.append(f"{e['label']}: gamma outside [-pi, pi)")
    split, single = by_pair.get((0.25, 0.25)), by_pair.get((1.0, 0.0))
    if split and single and not (
        float(split["mean_dist_to_unitary"]) < float(single["mean_dist_to_unitary"])
    ):
        problems.append("headline lost: (1/4, 1/4) is not closer to unitary than (1, 0)")
    if case.seed == DEFAULT_SEED:
        ref = {e["label"]: e for e in _parse_compare(COMPARE_REFERENCE.read_text())}
        for e in entries:
            r = ref.get(e["label"])
            if r is None:
                problems.append(f"{e['label']}: not in the reference")
                continue
            for key in _NUMERIC:
                gap = abs(float(e[key]) - float(r[key]))
                if not gap <= COMPARE_REFERENCE_TOL:
                    problems.append(f"{e['label']}: {key} off the reference by {gap:.3e}")
    return problems


def _check_gp(case: Case, output: bytes) -> list[str]:
    gamma = float(output.decode())
    if not -math.pi <= gamma < math.pi:
        return [f"gamma {gamma!r} outside [-pi, pi)"]
    p = case.params
    cfg = SystemConfig(omega=2.0, alpha1=p["alpha"], alpha2=p["alpha"], bath_size=p["bath_size"])
    traj = bloch_trajectory(
        cfg,
        InitialStateAngles(theta=p["theta"], phi=p["phi"]),
        auto_time_grid(cfg, p["t_end"], min_steps=4001),
    )
    gap = angular_distance(gamma, gp_discrete_holonomy(traj).gamma)
    if not gap <= GP_HOLONOMY_TOL:
        return [f"gamma {gamma!r} differs from the discrete holonomy by {gap:.3e}"]
    return []


def _check_verify(case: Case, output: bytes) -> list[str]:
    report = json.loads(output)
    if report["all_passed"] is not True:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return [f"verify checks failed: {failed}"]
    return []


def cases(workload: str, seed: int) -> list[Case]:
    """The cases one run of `workload` cycles through."""
    if workload == "verify":
        return [verify_case(seed * VERIFY_SEEDS_PER_RUN + j) for j in range(VERIFY_SEEDS_PER_RUN)]
    return [CASES[workload](seed)]


CASES = {"compare-n20": compare_case, "gp-n48": gp_case, "verify": verify_case}
COUNTERS = {"compare-n20": _compare_counters, "gp-n48": _gp_counters, "verify": lambda p: None}
CHECKS = {"compare-n20": _check_compare, "gp-n48": _check_gp, "verify": _check_verify}
# Work counters at this benchmark's inputs; they do not depend on the seed.
EXPECTED_COUNTERS = {
    "compare-n20": {"S": 441, "n": [3248, 3248, 1294, 2341], "C": 4 * COMPARE_GRID**2},
    "gp-n48": {"S": 2401, "n": [5441], "C": 1},
}
