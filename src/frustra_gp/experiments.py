"""Parameter sweeps: geometric-phase surfaces, coupling-strategy comparison,
and the self-verification suite binding the analytic and exact routes.

Surfaces evaluate the closed-form geometric phase over an (theta, phi) grid
of initial states at a fixed evolution time, with the time grid chosen
automatically from the fastest sector frequency: dt <= 2 pi / (s * Gamma_max)
for sampling factor s (default 40) and Gamma_max = Gamma(N/2, N/2).

A surface shares the work of each phi column across its theta rows.  The
folded rotation map has M_xz = M_yz = M_zx = M_zy = 0 exactly, so the cell
(theta, phi) has an in-plane series sin(theta) times a theta-free column
series, and a polarization A = cos(theta) M_zz(t) shared by its row.
The column's azimuth increments and the unwrap guard are therefore
computed once per column (phase.Azimuth.from_xy, the builder that
PolarTrack.from_points uses) and kept as a phase.Azimuth, which sums the
increments once for the column's closed-form bracket and forms the node
weights of its connection sum once for all its rows.  From the column's
squared norm rho2 a cell computes only eps_plus = sqrt(sin^2(theta) rho2 +
A^2) and sin2_half, and its track is PolarTrack(column azimuth, A,
sin2_half, eps_plus), which checks only those three series.  A cell falls
back to PolarTrack.from_points on its own projected points when
sin(theta) min(rho) / 2 < 2 R_TOL, with rho the column norm sqrt(rho2) (a
node singular or close to it), or when its column's azimuth step reaches
the unwrap limit.  The map is a contraction,
so rho and |A| are at most about 1 and the squares in eps_plus cannot
overflow.  NaN cells, singular counts and the ResolutionError text are
thus those of the per-cell route; values move from it by the rounding of
the factored series (about 1e-13 or less).

When alpha1 = alpha2 the map has M_yy = M_xx bit for bit, so its in-plane
block is a rotation times a scale and every column has the same rho and
azimuth increments.  The sweep sees this in the map itself (no option
selects it), builds column 0's series only, and gives every factored cell
of a row one shared track, so the factored cells of such a row have the
same value bit for bit.  A cell that falls back still projects its own
points, but the fallback decision comes from the shared column.  Every
cell still makes its own gp_closed_form call, as a per-cell trace of the
sweep expects, but a track evaluates its closed form (the bracket, the
connection sum and the GpResult) when it is built, so a shared track's
n-node work (five elementwise passes and one blocked dot) runs once per
row, when its first cell builds it, and every cell's call pays only the
call's checks and gets the track's result back.

`strategy_compare` contrasts coupling allocations (single bath vs split
couplings) by two grid metrics: mean |gamma| and mean angular distance to
the decoupled-limit reference gamma_u(theta) = -pi (1 - cos theta).  The
winner is always the config closest to the reference under the distance
metric.  Iteration order, summation order, and cell placement are fixed, so
identical invocations reproduce identical reports bit for bit regardless of
the worker-thread count.

A SystemConfig is valid once built, so the sweeps check only their own
arguments: grids, times, thread counts, seeds, labels and the metric, each
scalar by model.check_real or check_count and then its range here.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import (
    BlochTrajectory,
    TimeGrid,
    bloch_trajectory,
    gamma_freq,
    literal_points,
    rotation_matrices,
)
from .errors import ConfigError, IndeterminatePhaseError, ResolutionError
from .model import (
    InitialStateAngles,
    SystemConfig,
    check_count,
    check_real,
    initial_bloch,
    sector_weights,
)
from .oracle import oracle_trajectory
from .phase import (
    R_TOL,
    Azimuth,
    PolarTrack,
    angular_distance,
    gp_closed_form,
    gp_discrete_holonomy,
    gp_south_pole,
    gp_unitary_reference,
    polar_track,
    principal_value,
)

COMPARE_METRICS = ("mean_dist_to_unitary", "mean_abs_gp")


@dataclass(frozen=True)
class AngleGrid:
    """Rectangular grid of initial-state angles.

    theta spans [theta_min, theta_max] inclusively with n_theta nodes, with
    0 <= theta_min < theta_max <= pi as for InitialStateAngles; the cells
    of a pole row (theta = 0 or pi) start on the z axis and take the
    PolarTrack.from_points route.  phi spans [0, 2 pi) with n_phi equally
    spaced nodes (endpoint excluded).
    """

    n_theta: int = 61
    n_phi: int = 61
    theta_min: float = 0.05
    theta_max: float = math.pi - 0.05

    def __post_init__(self) -> None:
        check_count("n_theta", self.n_theta, 2)
        check_count("n_phi", self.n_phi, 2)
        lo = check_real("theta_min", self.theta_min)
        hi = check_real("theta_max", self.theta_max)
        if lo >= hi:
            raise ConfigError("theta_min must be smaller than theta_max")
        if lo < 0.0 or hi > math.pi:
            raise ConfigError("theta bounds must lie in [0, pi]")

    def thetas(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.n_theta)

    def phis(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * math.pi, self.n_phi, endpoint=False)


def max_sector_freq(config: SystemConfig) -> float:
    """Largest Gamma over the sector grid (attained at m1 = m2 = N/2)."""
    half = config.bath_size / 2.0
    return gamma_freq(config, half, half)


def auto_time_grid(
    config: SystemConfig,
    t_end: float,
    sampling_factor: int = 40,
    min_steps: int = 201,
) -> TimeGrid:
    """Uniform grid on [0, t_end] with dt <= 2 pi / (sampling_factor * Gamma_max)."""
    t_end = check_real("t_end", t_end)
    if t_end <= 0.0:
        raise ConfigError("t_end must be positive and finite")
    factor = check_count("sampling_factor", sampling_factor, 1)
    cycles = t_end * factor * max_sector_freq(config) / (2.0 * math.pi)
    if math.isinf(cycles):
        raise MemoryError(f"t_end = {t_end} needs more time nodes than a float counts")
    return TimeGrid(t_end, max(min_steps, math.ceil(cycles) + 1))


@dataclass(frozen=True)
class GpSurface:
    """Geometric phase over an angle grid at one evolution time.

    gamma_unwrapped holds the unreduced values; singular_count the number of
    flagged azimuth nodes per cell; both must have the grid's shape.  gamma
    is not passed: it is principal_value(gamma_unwrapped), in [-pi, pi),
    derived when the surface is built.  Cells whose phase is indeterminate
    are NaN in both gamma arrays.  All three arrays are read-only.
    """

    grid: AngleGrid
    config: SystemConfig
    t: float
    time_steps: int
    gamma: np.ndarray = field(init=False)
    gamma_unwrapped: np.ndarray
    singular_count: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.n_theta, self.grid.n_phi)
        for name in ("gamma_unwrapped", "singular_count"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigError(f"{name} must have shape {shape}")
            arr.setflags(write=False)
        gamma = principal_value(self.gamma_unwrapped)
        gamma.setflags(write=False)
        vars(self).update(gamma=gamma)


class _ColumnSweep:
    """Surface rows evaluated from data shared by each phi column.

    Column j's series is B(t) (ux[j], uy[j]) at theta = pi/2, with B the
    in-plane block of the map and (ux, uy) = (-sin phi, cos phi) the
    in-plane start (see the module docstring).  Each stored series c has
    its squared norm rho2[c], the smallest norm rho_min[c] =
    sqrt(min rho2[c]) (sqrt is monotone and correctly rounded, so this is
    the minimum of the node norms bit for bit) and its azimuth
    azimuths[c], the phase.Azimuth that Azimuth.from_xy builds of it with no
    singular node, or None where the unwrap guard trips; column j reads
    series c = j.  A cell's singular count is read from its track's
    azimuth, whether its phase resolves or not.  When M_xx = M_yy bit for
    bit, only column 0's series is stored and every column reads c = 0 (see
    the module docstring).  Only these are kept per column, never a track.

    A factored track makes five elementwise passes over its n nodes
    (sin^2(theta) rho2, + A^2, sqrt, (A/2)/eps and + 1/2), and its
    constructor one dot of sin2_half with the column's node weights (the
    connection sum, a BLAS dot per block of nodes), of which it builds its
    GpResult: five passes and one dot per cell, or per row when the track
    is shared, whose cells' calls pay only the call's checks.  The sum of
    dchi, the node weights and the singular count are the column's, made
    once when its Azimuth is built.
    A, A/2 and A^2 are formed once per row, and a row's unreduced phases
    and singular counts are collected in two lists that the caller converts
    once; the surface derives the principal values of the whole grid.
    """

    def __init__(self, rot: np.ndarray, phis: np.ndarray, grid: TimeGrid):
        self.ux, self.uy = -np.sin(phis), np.cos(phis)
        self.phis = phis
        self.grid = grid
        # contiguous series: the map is stored entry-major
        self.mxx, self.mxy, self.myx, self.myy, self.mzz = (
            rot[:, i, k] for i, k in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
        )
        self.shared = np.array_equal(self.mxx, self.myy)
        n_series = 1 if self.shared else phis.size
        regular = np.zeros(grid.n_steps, dtype=bool)
        self.rho2 = np.empty((n_series, grid.n_steps))
        self.azimuths = []
        for j in range(n_series):
            x, y = self._in_plane(j, 1.0)
            np.add(x * x, y * y, out=self.rho2[j])
            try:
                self.azimuths.append(Azimuth.from_xy(grid, x, y, regular))
            except ResolutionError:
                self.azimuths.append(None)
        self.rho_min = np.sqrt(self.rho2.min(axis=1)).tolist()

    def _in_plane(self, j: int, st: float) -> tuple[np.ndarray, np.ndarray]:
        """x, y of the start st * (ux[j], uy[j]) under the map's in-plane block."""
        sx, sy = st * self.ux[j], st * self.uy[j]
        return sx * self.mxx + sy * self.mxy, sy * self.myy + sx * self.myx

    def _cell_track(
        self, c: int, st: float, a: np.ndarray, a_half: np.ndarray, a2: np.ndarray
    ) -> PolarTrack:
        eps = (st * st) * self.rho2[c]
        eps += a2
        np.sqrt(eps, out=eps)
        # eps >= |A| in floats (the square root of a rounded square gives
        # |A| back), so (A/2)/eps + 1/2 lies in [0, 1] without a clip.  It is
        # bit for bit (1 + A/eps)/2, since halving is exact.
        s = a_half / eps
        s += 0.5
        return PolarTrack(self.azimuths[c], a, s, eps)

    def row(self, theta: float) -> tuple[list[float], list[int]]:
        """gamma_unwrapped and singular_count of one constant-theta row."""
        st, ct = math.sin(theta), math.cos(theta)
        a = ct * self.mzz
        a_half = a / 2.0
        a2 = a * a
        unw, sing = [], []
        shared_track = None
        for j in range(self.phis.size):
            c = 0 if self.shared else j
            # Fall back to from_points where a node is singular or close to
            # it, or where the column's unwrap guard tripped.  With
            # R >= 2 R_TOL, eps is far above the range where its squares
            # underflow.
            factored = (
                self.azimuths[c] is not None
                and st * self.rho_min[c] / 2.0 >= 2.0 * R_TOL
            )
            try:
                if not factored:
                    x, y = self._in_plane(j, st)
                    track = PolarTrack.from_points(np.column_stack([x, y, a]), self.grid)
                elif shared_track is not None:
                    track = shared_track
                else:
                    track = self._cell_track(c, st, a, a_half, a2)
                    if self.shared:
                        shared_track = track
                res = gp_closed_form(track)
            except IndeterminatePhaseError:
                unw.append(math.nan)
            except ResolutionError as exc:
                raise ResolutionError(
                    f"cell theta={theta:.6f}, phi={self.phis[j]:.6f}: {exc}"
                ) from exc
            else:
                unw.append(res.gamma_unwrapped)
            sing.append(track.azimuth.singular_nodes)
        return unw, sing


def gp_surface(
    config: SystemConfig,
    grid: AngleGrid,
    t: float,
    time_steps: int | None = None,
    sampling_factor: int = 40,
    threads: int = 1,
) -> GpSurface:
    """Closed-form geometric phase over an angle grid (theta outer, phi inner).

    Each phi column's azimuth increments are shared by its theta rows; a
    cell with a node at R < 2 R_TOL, or in a column whose azimuth step
    reaches the unwrap limit, is evaluated by PolarTrack.from_points on its
    own projected points instead (see the module docstring).  Rows run on
    `threads` worker threads; the result does not depend on their number.
    """
    t = check_real("t", t)
    check_count("threads", threads, 1)
    if time_steps is not None:
        tg = TimeGrid(t, time_steps)
    else:
        tg = auto_time_grid(config, t, sampling_factor)
    times = tg.times()
    sweep = _ColumnSweep(rotation_matrices(config, times), grid.phis(), tg)
    thetas = grid.thetas().tolist()
    if threads == 1:
        rows = [sweep.row(theta) for theta in thetas]
    else:
        # Imported here: concurrent.futures pulls in logging, queue and
        # traceback, which every process that never starts the pool would
        # pay for at import.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, grid.n_theta)) as pool:
            rows = list(pool.map(sweep.row, thetas))
    unwrapped, singular = (np.array(column) for column in zip(*rows))
    return GpSurface(
        grid=grid,
        config=config,
        t=t,
        time_steps=tg.n_steps,
        gamma_unwrapped=unwrapped,
        singular_count=singular,
    )


@dataclass(frozen=True)
class StrategySummary:
    """Grid metrics for one coupling allocation."""

    label: str
    config: SystemConfig
    mean_abs_gp: float
    mean_dist_to_unitary: float
    min_gp: float
    max_gp: float
    missing_cells: int


@dataclass(frozen=True)
class StrategyReport:
    """Comparison of coupling allocations over a shared angle grid."""

    entries: tuple[StrategySummary, ...]
    metric: str
    ranking: tuple[str, ...]
    winner: str
    grid: AngleGrid
    t: float
    time_steps: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "ranking": list(self.ranking),
            "winner": self.winner,
            "t": self.t,
            "time_steps": list(self.time_steps),
            "n_theta": self.grid.n_theta,
            "n_phi": self.grid.n_phi,
            "entries": [_flat_summary(e) for e in self.entries],
        }


def _flat_summary(summary: StrategySummary) -> dict:
    """The summary's fields with its config's fields spliced in after the label."""
    fields = asdict(summary)
    return {"label": fields.pop("label"), **fields.pop("config"), **fields}


def _summarize(label: str, surface: GpSurface) -> StrategySummary:
    gamma = surface.gamma
    finite = np.isfinite(gamma)
    refs = np.array([gp_unitary_reference(th) for th in surface.grid.thetas()])
    dists = angular_distance(gamma, refs[:, None])
    if finite.any():
        mean_abs = float(np.mean(np.abs(gamma[finite])))
        mean_dist = float(np.mean(dists[finite]))
        gmin = float(gamma[finite].min())
        gmax = float(gamma[finite].max())
    else:
        mean_abs = mean_dist = gmin = gmax = math.nan
    return StrategySummary(
        label=label,
        config=surface.config,
        mean_abs_gp=mean_abs,
        mean_dist_to_unitary=mean_dist,
        min_gp=gmin,
        max_gp=gmax,
        missing_cells=int(np.count_nonzero(~finite)),
    )


def strategy_compare(
    configs,
    grid: AngleGrid,
    t: float,
    metric: str = "mean_dist_to_unitary",
    time_steps: int | None = None,
    sampling_factor: int = 40,
    threads: int = 1,
) -> StrategyReport:
    """Compare >= 2 labeled coupling allocations sharing omega, N, and t.

    configs: sequence of (label, SystemConfig) pairs.  Ranking sorts by the
    chosen metric (distance ascending; |gamma| descending), ties broken by
    label; the winner is always the entry with the smallest distance to the
    decoupled-limit reference.
    """
    pairs = list(configs)
    if len(pairs) < 2:
        raise ConfigError("strategy comparison needs at least two configs")
    labels = [label for label, _ in pairs]
    if len(set(labels)) != len(labels):
        raise ConfigError("strategy labels must be unique")
    if metric not in COMPARE_METRICS:
        raise ConfigError(f"metric must be one of {COMPARE_METRICS}")
    first = pairs[0][1]
    for label, cfg in pairs:
        if cfg.omega != first.omega or cfg.bath_size != first.bath_size:
            raise ConfigError(
                f"config '{label}' does not share omega and bath_size with"
                f" '{pairs[0][0]}'"
            )
    summaries = []
    steps = []
    for label, cfg in pairs:
        surface = gp_surface(
            cfg,
            grid,
            t,
            time_steps=time_steps,
            sampling_factor=sampling_factor,
            threads=threads,
        )
        steps.append(surface.time_steps)
        summaries.append(_summarize(label, surface))

    def dist_key(s: StrategySummary):
        return (math.isnan(s.mean_dist_to_unitary), s.mean_dist_to_unitary, s.label)

    def abs_key(s: StrategySummary):
        return (math.isnan(s.mean_abs_gp), -s.mean_abs_gp, s.label)

    by_dist = sorted(summaries, key=dist_key)
    ranking = by_dist if metric == "mean_dist_to_unitary" else sorted(summaries, key=abs_key)
    return StrategyReport(
        entries=tuple(summaries),
        metric=metric,
        ranking=tuple(s.label for s in ranking),
        winner=by_dist[0].label,
        grid=grid,
        t=float(t),
        time_steps=tuple(steps),
    )


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    """Machine-readable outcome of the cross-validation suite."""

    checks: tuple[VerifyCheck, ...]
    runtime_s: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "runtime_s": self.runtime_s,
            "checks": [asdict(c) for c in self.checks],
        }


def verify_suite(seed: int = 20260814) -> VerifyReport:
    """Run the built-in cross-checks and report measured errors.

    Covers: sector sum vs the block oracle (exact evolution by total-spin
    blocks) for N in {1, 2, 3}; the decoupled-limit phase against
    -pi (1 - cos theta0); closed form vs discrete holonomy on randomized
    decohering configs; the documented normalization discrepancy of the
    literal polarization series; the south-pole special case and the
    closed form on a spiral leaving the pole; and exact sector-weight
    normalization.
    The randomized configs are drawn from the standard library's
    random.Random(seed), so a seed gives the same report on every run.
    The five decoupled-limit starts share one config and grid, so they
    share one rotation map.  Across checks and calls, the sector tables
    are cached per config and their folded ladder per bath size
    (dynamics), and the oracle's block stacks per bath size: a call builds
    each of those at most once.
    Failures are recorded as entries, never raised; a seed that is not an
    integer >= 0 raises ConfigError.
    """
    rng = random.Random(check_count("seed", seed, 0))
    started = time.perf_counter()
    checks = []

    def record(name, worst, tolerance, detail, measured=None):
        """Append one check; it passes when `worst` is within `tolerance`."""
        measured = worst if measured is None else measured
        checks.append(VerifyCheck(name, worst <= tolerance, measured, tolerance, detail))

    # Sector sum against the block oracle.
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(3):
            cfg = SystemConfig(
                omega=rng.uniform(0.5, 2.5),
                alpha1=rng.uniform(0.0, 1.5),
                alpha2=rng.uniform(0.0, 1.5),
                bath_size=n,
            )
            ang = InitialStateAngles(
                theta=rng.uniform(0.0, math.pi),
                phi=rng.uniform(0.0, 2.0 * math.pi),
            )
            grid = TimeGrid(rng.uniform(2.0, 8.0), 7)
            exact = oracle_trajectory(cfg, ang, grid)
            approx = bloch_trajectory(cfg, ang, grid)
            worst = max(worst, float(np.max(np.abs(exact.points - approx.points))))
    record(
        "oracle_vs_analytic", worst, 1e-10, "max Bloch-component deviation, N in {1, 2, 3}"
    )

    # Decoupled limit against the closed-form reference value; the five
    # starts share one config and grid, so one map serves them all.
    worst = 0.0
    tg = TimeGrid(math.pi, 4001)
    rot = rotation_matrices(
        SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.0, bath_size=1), tg.times()
    )
    for theta0 in (0.3, 0.9, 1.5, 2.1, 2.7):
        ang = InitialStateAngles(theta=theta0, phi=0.4)
        traj = BlochTrajectory.from_map(tg, rot, initial_bloch(ang).as_array())
        res = gp_closed_form(polar_track(traj), ang)
        worst = max(worst, angular_distance(res.gamma, gp_unitary_reference(theta0)))
    record(
        "unitary_limit_gp",
        worst,
        1e-4,
        "max |gamma - gamma_u(theta0)| mod 2pi at 4001 steps",
    )

    # Closed form against the discrete holonomy product.
    worst = 0.0
    for _ in range(4):
        cfg = SystemConfig(
            omega=rng.uniform(1.0, 2.5),
            alpha1=rng.uniform(0.0, 1.0),
            alpha2=rng.uniform(0.0, 1.0),
            bath_size=rng.randrange(1, 5),
        )
        ang = InitialStateAngles(
            theta=rng.uniform(0.4, math.pi - 0.4),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        )
        tg = TimeGrid(5.0, 10_000)
        traj = bloch_trajectory(cfg, ang, tg)
        cf = gp_closed_form(polar_track(traj), ang)
        dh = gp_discrete_holonomy(traj)
        worst = max(worst, angular_distance(cf.gamma, dh.gamma))
    record(
        "closed_form_vs_holonomy",
        worst,
        1e-3,
        "max cross-method deviation mod 2pi at 10^4 steps, tau = 5",
    )

    # Documented discrepancy of the literal polarization series.
    cfg = SystemConfig(omega=2.0, alpha1=0.5, alpha2=0.5, bath_size=3)
    worst = 0.0
    ratio = math.nan
    for _ in range(5):
        ang = InitialStateAngles(
            theta=rng.uniform(0.1, math.pi - 0.1),
            phi=rng.uniform(0.0, 2.0 * math.pi),
        )
        lit = literal_points(cfg, ang, np.array([0.0]))[0]
        phys = initial_bloch(ang).as_array()
        ratio = float(np.linalg.norm(lit) / np.linalg.norm(phys))
        worst = max(worst, abs(ratio - 0.5))
    record(
        "literal_norm_ratio",
        worst,
        1e-12,
        "literal series norm at t = 0 is half the physical norm"
        " (documented, intentionally unpatched)",
        measured=ratio,
    )

    # South-pole special case and closed form against the analytic phase of
    # a spiral leaving the pole: chi = t and polar angle 0.15 t from the
    # south pole on [0, 4] give 2 - sin(0.6)/0.3.  A pole start under the
    # model's map never leaves the z axis, so it would test nothing.
    grid = TimeGrid(4.0, 8_001)
    t = grid.times()
    beta = 0.15 * t
    track = PolarTrack.from_points(
        np.column_stack([np.sin(beta) * np.cos(t), np.sin(beta) * np.sin(t), -np.cos(beta)]),
        grid,
    )
    exact = 2.0 - math.sin(0.6) / 0.3
    worst = max(
        angular_distance(res.gamma, exact)
        for res in (gp_south_pole(track), gp_closed_form(track))
    )
    record(
        "south_pole_consistency",
        worst,
        1e-6,
        "pole form and closed form vs 2 - sin(0.6)/0.3 on a spiral leaving theta0 = pi",
    )

    # Exact combinatorial weights.
    worst = 0.0
    for n in (1, 2, 3, 7, 50, 501):
        ladder = sector_weights(n)
        if sum(s.zeta for s in ladder) != 2**n:
            worst = math.inf
        worst = max(worst, abs(math.fsum(s.w for s in ladder) - 1.0))
    record(
        "sector_weight_normalization",
        worst,
        1e-12,
        "exact zeta totals and unit weight sums up to N = 501",
    )

    return VerifyReport(
        checks=tuple(checks), runtime_s=time.perf_counter() - started
    )


__all__ = [
    "AngleGrid",
    "GpSurface",
    "StrategyReport",
    "StrategySummary",
    "VerifyCheck",
    "VerifyReport",
    "auto_time_grid",
    "gp_surface",
    "max_sector_freq",
    "strategy_compare",
    "verify_suite",
]
