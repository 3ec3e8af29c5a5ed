"""Mixed-state geometric phase of sampled Bloch trajectories.

A trajectory v(t) is first reduced to polar-track series

    A = <sigma_z>,  R = (1/2) sqrt(<sigma_x>^2 + <sigma_y>^2),
    eps_plus = sqrt(A^2 + 4 R^2) = |v|,
    tan(chi) = <sigma_y> / <sigma_x>   (four-quadrant),
    sin^2(theta_t / 2) = (1 + A / eps_plus) / 2,

with theta_t in [0, pi] and cos(theta_t) = -A / eps_plus.  The track stores
A, eps_plus, sin^2(theta_t/2) (`sin2_half`), the only form in which the
phase reads the polar angle, and the increments of chi (`dchi`, each reduced
to [-pi, pi)), the only form in which it reads the azimuth.  R is read only
as the singular flag and not stored: nodes with R below R_TOL have an
indeterminate azimuth; chi is propagated flat (zero increments) across them
and they are flagged singular.  The increments and their guard are
`unwrap_azimuth`.  The azimuth half of a track (dchi, the singular flags,
the unwrap count, and the node weights and two totals the phase routes
read of them) is an `Azimuth`, which `Azimuth.from_xy` builds from
in-plane samples for `PolarTrack.from_points` and for the surface sweep's
azimuth columns alike.
A `PolarTrack` is an Azimuth plus one start's A, sin2_half and eps_plus, so
the tracks of starts that share an azimuth, such as a surface column's
cells, share one Azimuth.  Like an Azimuth, a track is complete when built:
its constructor checks the ends of sin2_half and evaluates the closed form
below, and the phase routes only check their own arguments and return it.
A `GpResult` is given only the unreduced phase; its principal value gamma
is derived from it when the record is built.

The geometric phase of the dominant spectral branch is then

    gamma = arg[ sqrt(lambda_plus(tau))
                 * ( cos(theta0/2) sin(theta_tau/2)
                     + e^{i dchi(tau)} sin(theta0/2) cos(theta_tau/2) )
                 * e^{-i integral_0^tau chi_dot cos^2(theta_t/2) dt} ],

with cos(theta0/2) = sqrt(sin2_half(0)) taken from the normalized initial
state and sin(theta_tau/2) = sqrt(sin2_half(tau)).  Since cos^2(theta_t/2)
= 1 - sin2_half, the connection integral is

    integral_0^tau chi_dot cos^2(theta_t/2) dt
        = dchi(tau) - (1/2) sum_j G_j sin2_half_j,

the trapezoid rule on the chi increments written as one weighted node sum:
G_j = dchi_{j-1} + dchi_j are the azimuth's node weights (a missing
increment past either end counts as 0), and dchi(tau) is the sum of the
increments.  The node sum is one BLAS dot per block of nodes short enough
that OpenBLAS never splits it over threads, so its bits do not depend on
the thread count (_trapezoid_on_chi).  sqrt(lambda_plus) is a positive
scalar and cannot move the arg; it is reported as a diagnostic and never
multiplied in, which makes the result bit-identical under any positive
rescaling of that factor.

Two independent routes are provided for cross-checking: a discrete holonomy
product over eigenvector overlaps (`gp_discrete_holonomy`) and the pole
special case gamma = (1/2) integral chi_dot (1 - cos(theta_t)) dt
(`gp_south_pole`, valid only when the state starts at theta0 = pi).  In the
decoupled limit both reproduce gamma = -pi (1 - cos(theta0)) at tau =
2 pi / omega, the value returned by `gp_unitary_reference`.

The four numerical guards are fixed module constants, not parameters:

    R_TOL        1e-12      R below it flags a node singular
    Z_TOL        1e-14      |bracket| below it: closed form indeterminate
    OVERLAP_TOL  1e-10      holonomy step overlap below it: step unresolved
    _JUMP_LIMIT  pi - 1e-9  azimuth step at or above it: step unresolved

An unresolved step raises ResolutionError (refine the grid); an
indeterminate phase raises IndeterminatePhaseError.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dynamics import BlochTrajectory, TimeGrid
from .errors import (
    ConfigError,
    IndeterminatePhaseError,
    PreconditionError,
    ResolutionError,
)
from .model import TWO_PI, InitialStateAngles, check_real

# Azimuth tolerance: a node with R below this has no usable phase.
R_TOL = 1e-12
# Closed-form bracket modulus below which the phase is indeterminate.
Z_TOL = 1e-14
# Holonomy step overlap below which neighbors count as orthogonal.
OVERLAP_TOL = 1e-10
# Unwrap increments at the branch boundary cannot be resolved.
_JUMP_LIMIT = math.pi - 1e-9
# Below this norm x^2 + y^2 + z^2 is subnormal or zero, so its square root
# is no longer within an ulp of |v|.
_SQUARES_EXACT_MIN = math.sqrt(sys.float_info.min)
# Nodes per BLAS dot in the connection sum: below the 10^4 elements past
# which OpenBLAS splits a dot over its threads (_trapezoid_on_chi).
_DOT_BLOCK = 8192


def principal_value(angle):
    """Reduce an angle to [-pi, pi), i.e. (-pi, pi] with +pi reported as -pi.

    The result is the exact remainder angle - k*TWO_PI, k an integer, at
    every magnitude: fmod(angle, TWO_PI) is exact, and so is the one fold
    by TWO_PI where that remainder r lies outside [-pi, pi), because there
    pi <= |r| < TWO_PI, within a factor 2 of TWO_PI (Sterbenz).  NaN and
    +-inf give NaN, without a warning.  Scalar input (including np.float64
    and a 0-d array) gives a built-in float; array input gives an array.
    """
    if isinstance(angle, (float, int)):
        # Same arithmetic as the array path below, without its per-call cost.
        angle = float(angle)
        if not math.isfinite(angle):
            return math.nan
        wrapped = math.fmod(angle, TWO_PI)
        if wrapped >= math.pi:
            return wrapped - TWO_PI
        if wrapped < -math.pi:
            return wrapped + TWO_PI
        return wrapped
    with np.errstate(invalid="ignore"):  # fmod of +-inf is NaN
        wrapped = np.fmod(np.asarray(angle, dtype=float), TWO_PI)
    wrapped = np.where(wrapped >= math.pi, wrapped - TWO_PI, wrapped)
    wrapped = np.where(wrapped < -math.pi, wrapped + TWO_PI, wrapped)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def angular_distance(a, b):
    """Distance between angles modulo 2*pi, in [0, pi]."""
    d = principal_value(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return np.abs(d) if isinstance(d, np.ndarray) else abs(d)


def unwrap_azimuth(azimuth: np.ndarray) -> tuple[np.ndarray, int]:
    """Increments of a sampled azimuth series; returns (dchi, unwrap_jumps).

    dchi holds the n - 1 increments, each reduced to [-pi, pi);
    unwrap_jumps counts the increments that needed a 2 pi turn.  A reduced
    increment of magnitude _JUMP_LIMIT or more cannot be told from a turn
    the other way and raises ResolutionError.
    """
    d_raw = np.diff(azimuth)
    turns = np.floor((d_raw + math.pi) / TWO_PI)
    d = d_raw - TWO_PI * turns
    if d.size and np.max(np.abs(d)) >= _JUMP_LIMIT:
        worst = int(np.argmax(np.abs(d)))
        raise ResolutionError(
            "time grid too coarse to unwrap the azimuth: step"
            f" {worst} -> {worst + 1} swings by {d[worst]:+.6f} rad;"
            " refine the grid (smaller dt or larger sampling factor)"
        )
    return d, int(np.count_nonzero(turns))


def _series(name: str, value, shape: tuple[int]) -> np.ndarray:
    """value as a read-only ndarray of the given shape, else ConfigError.

    An ndarray is kept as given, at no cost; any other array-like is
    converted.
    """
    arr = np.asarray(value)
    if arr.shape != shape:
        raise ConfigError(f"{name} must have shape {shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Azimuth:
    """Azimuth half of a polar track, shared by the tracks built on it.

    dchi holds the n - 1 increments chi_{i+1} - chi_i of grid's n nodes,
    each inside (-pi, pi); singular one flag per node, marking nodes whose
    azimuth was propagated from a neighbor; unwrap_jumps the increments
    that needed a 2 pi turn.  Both arrays are kept read-only (any other
    shape raises ConfigError).  What the phase routes read of them is
    computed once here, so starts that share an azimuth (a surface column's
    cells) do not compute it again: each start's PolarTrack checks only its
    own three series.  That is the two totals dchi_total = dchi.sum() and
    singular_nodes, and the n read-only node weights of the connection sum,
    weights[j] = dchi[j - 1] + dchi[j], with a missing increment past
    either end counted as 0 (_trapezoid_on_chi).
    """

    grid: TimeGrid
    dchi: np.ndarray
    singular: np.ndarray
    unwrap_jumps: int
    dchi_total: float = field(init=False)
    singular_nodes: int = field(init=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.grid.n_steps
        dchi = _series("dchi", self.dchi, (n - 1,))
        singular = _series("singular", self.singular, (n,))
        weights = np.empty(n)
        weights[0], weights[-1] = dchi[0], dchi[-1]
        np.add(dchi[:-1], dchi[1:], out=weights[1:-1])
        weights.setflags(write=False)
        vars(self).update(
            dchi=dchi,
            singular=singular,
            dchi_total=float(dchi.sum()),
            singular_nodes=int(np.count_nonzero(singular)),
            weights=weights,
        )

    @classmethod
    def from_xy(
        cls, grid: TimeGrid, x: np.ndarray, y: np.ndarray, singular: np.ndarray
    ) -> Azimuth:
        """Azimuth of in-plane samples (x, y) taken on `grid`.

        chi = arctan2(y, x) at each node, except that a singular node takes
        the previous valid node's chi (flat continuation; a singular prefix
        borrows the first valid chi, and an all-singular series is 0).  The
        increments and their guard are unwrap_azimuth's, so a step at the
        unwrap limit raises ResolutionError.
        """
        raw = np.arctan2(y, x)
        n_singular = int(np.count_nonzero(singular))
        if n_singular == 0:
            filled = raw
        elif n_singular == raw.size:
            filled = np.zeros_like(raw)
        else:
            valid = ~singular
            idx = np.where(valid, np.arange(raw.size), -1)
            idx = np.maximum.accumulate(idx)
            idx[idx < 0] = int(np.flatnonzero(valid)[0])
            filled = raw[idx]
        dchi, jumps = unwrap_azimuth(filled)
        return cls(grid, dchi, singular, jumps)


@dataclass(frozen=True, init=False)
class PolarTrack:
    """Polar-decomposition series of a Bloch trajectory: an azimuth and a start.

    `azimuth` is the track's Azimuth (its grid, the chi increments dchi, the
    singular flags and the unwrap count), which tracks of several starts,
    such as a surface column's cells, can share.  A, sin2_half and eps_plus
    are the start's series, one value per node of azimuth.grid (any other
    shape raises ConfigError), each kept as a read-only ndarray converted
    from whatever array-like it was given.  sin2_half is sin^2(theta_t/2) =
    (1 + A/eps_plus)/2 and lies in [0, 1].  Of that range only the two end
    values, whose square roots the closed form takes, are enforced: a track
    whose sin2_half at t = 0 or at t = tau lies outside it (or is NaN) is
    refused with ConfigError when it is built; nodes in between are not
    checked.

    A track is complete when built: the constructor also takes the closed
    form's bracket, the connection's half-sum (1/2) sum_j G_j sin2_half_j
    (_trapezoid_on_chi) and the GpResult they give, and keeps them as plain
    attributes, not fields.  The arrays are read-only and the dataclass is
    frozen (dataclasses.replace builds a new track), so these never go
    stale: a sweep that hands one track to a whole row of cells makes their
    n-node passes and builds that result once for the row.  gp_closed_form
    and gp_south_pole run only the checks of each call (purity, the stated
    angles, an indeterminate phase) and return what the track holds.
    """

    azimuth: Azimuth
    A: np.ndarray
    sin2_half: np.ndarray
    eps_plus: np.ndarray

    def __init__(self, azimuth: Azimuth, A, sin2_half, eps_plus) -> None:
        node = (azimuth.grid.n_steps,)
        A = _series("A", A, node)
        sin2_half = _series("sin2_half", sin2_half, node)
        eps_plus = _series("eps_plus", eps_plus, node)
        # sin2_half follows the branch direction A/eps, not raw <sigma_z>,
        # which keeps the arg exactly invariant under positive rescalings of
        # the polarization.
        s_start, s_end = float(sin2_half[0]), float(sin2_half[-1])
        if not (0.0 <= s_start <= 1.0 and 0.0 <= s_end <= 1.0):
            raise ConfigError(
                "sin2_half must lie in [0, 1] at both ends of the track,"
                f" got {s_start!r} at t = 0 and {s_end!r} at t = tau"
            )
        c0, s0 = math.sqrt(s_start), math.sqrt(1.0 - s_start)
        dchi = azimuth.dchi_total
        bracket = c0 * math.sqrt(s_end) + cmath.exp(1.0j * dchi) * s0 * math.sqrt(1.0 - s_end)
        # The trapezoid of chi_dot (1 - sin2_half): the increments' total
        # minus gp_south_pole's sum, with no 1 - sin2_half pass.
        half_sum = _trapezoid_on_chi(azimuth, sin2_half)
        unwrapped = math.atan2(bracket.imag, bracket.real) - (dchi - half_sum)
        vars(self).update(
            azimuth=azimuth,
            A=A,
            sin2_half=sin2_half,
            eps_plus=eps_plus,
            _bracket=bracket,
            _half_sum=half_sum,
            _result=GpResult(
                gamma_unwrapped=unwrapped,
                method="closed_form",
                diagnostics=GpDiagnostics(
                    n_steps=azimuth.grid.n_steps,
                    singular_nodes=azimuth.singular_nodes,
                    unwrap_jumps=azimuth.unwrap_jumps,
                    lambda_plus_end=(1.0 + float(eps_plus[-1])) / 2.0,
                ),
            ),
        )

    @property
    def grid(self) -> TimeGrid:
        return self.azimuth.grid

    @property
    def n_steps(self) -> int:
        return self.azimuth.grid.n_steps

    @property
    def theta_t(self) -> np.ndarray:
        """Branch polar angle in [0, pi], 2 arcsin(sqrt(sin2_half))."""
        return 2.0 * np.arcsin(np.sqrt(self.sin2_half))

    @classmethod
    def from_points(cls, points: np.ndarray, grid: TimeGrid) -> PolarTrack:
        """Polar-track series of raw (n, 3) Bloch samples taken on `grid`."""
        pts = np.asarray(points, dtype=float)
        if pts.shape != (grid.n_steps, 3) or not np.isfinite(pts).all():
            raise ConfigError(f"points must be finite, of shape ({grid.n_steps}, 3)")
        x, y = pts[:, 0], pts[:, 1]
        a = pts[:, 2].copy()
        with np.errstate(over="ignore"):  # the hypot route below takes over
            rxy2 = x * x + y * y
            eps = np.sqrt(rxy2 + a * a)
        if _SQUARES_EXACT_MIN <= eps.min() and eps.max() < math.inf:
            rxy = np.sqrt(rxy2)
            ratio = a / eps
        else:
            # Squares that underflow or overflow lose the norm's bits: take
            # the scaled hypot route, with ratio 0 where eps is 0.
            rxy = np.hypot(x, y)
            eps = np.hypot(a, rxy)
            ratio = np.divide(a, eps, out=np.zeros_like(a), where=eps > 0.0)
        azimuth = Azimuth.from_xy(grid, x, y, rxy / 2.0 < R_TOL)
        # eps >= |a| on both routes (fl(a*a) has square root |a|, and hypot
        # is faithfully rounded), so |ratio| <= 1 and no clip is needed.
        return cls(azimuth, a, (1.0 + ratio) / 2.0, eps)


@dataclass(frozen=True)
class GpDiagnostics:
    """Bookkeeping recorded alongside every geometric-phase value."""

    n_steps: int
    singular_nodes: int
    unwrap_jumps: int
    lambda_plus_end: float
    min_step_overlap: float | None = None


@dataclass(frozen=True)
class GpResult:
    """Geometric phase: principal value, unreduced value, method, diagnostics.

    Only gamma_unwrapped is passed; gamma is principal_value(gamma_unwrapped),
    set when the record is built, so the two can never disagree.
    """

    gamma: float = field(init=False)
    gamma_unwrapped: float
    method: str
    diagnostics: GpDiagnostics

    def __post_init__(self) -> None:
        vars(self).update(gamma=principal_value(self.gamma_unwrapped))


def polar_track(traj: BlochTrajectory) -> PolarTrack:
    """Reduce a Bloch trajectory to its polar-track series."""
    return PolarTrack.from_points(traj.points, traj.grid)


def _trapezoid_on_chi(azimuth: Azimuth, integrand: np.ndarray) -> float:
    """(1/2) sum_j G_j f_j for f on the n nodes of azimuth.grid.

    G = azimuth.weights, G_j = dchi_{j-1} + dchi_j, so in exact arithmetic
    this is the trapezoid sum_i dchi_i (f_i + f_{i+1}) / 2 over the chi
    increments.  One BLAS dot (np.dot) per block of at most _DOT_BLOCK
    nodes, with no temporary; the block partials are added by math.fsum,
    which rounds their exact sum once, and the total is halved (exact).
    OpenBLAS splits a dot of more than 10^4 elements over its threads, and
    the split partials round differently with each thread count (random
    vectors gave identical bits at 1 and 2 threads up to n = 10^4 and
    different bits from 10^4 + 1); a block never reaches the split, so the
    sum's bits do not depend on OPENBLAS_NUM_THREADS.  Over the 441
    (1, 0)-coupling cells of a 21 x 21, N = 20, t = 50 sweep the dot lands
    at most 2.8e-14 (mean 4.9e-15) from the exact sum of the rounded
    products, as np.add.reduce's pairwise sum does (mean 3.5e-15), in
    about a third of the time of its multiply-then-reduce.  Not
    np.einsum("i,i->"): its fused loop accumulates in a single vector
    register and there lands up to 4e-13 from the exact sum.
    """
    weights = azimuth.weights
    if weights.size <= _DOT_BLOCK:
        # The blocked sum at one block (fsum of one partial is that
        # partial), without the list and fsum calls that cost half as much
        # again as a 3 x 10^3-node dot.
        return float(np.dot(weights, integrand)) / 2.0
    partials = [
        np.dot(weights[lo : lo + _DOT_BLOCK], integrand[lo : lo + _DOT_BLOCK])
        for lo in range(0, weights.size, _DOT_BLOCK)
    ]
    return math.fsum(partials) / 2.0


def gp_closed_form(
    track: PolarTrack,
    angles: InitialStateAngles | None = None,
    require_pure: bool = True,
) -> GpResult:
    """Geometric phase of the dominant branch from the closed-form expression.

    `angles`, when given, is cross-checked against the track's initial node.
    `require_pure=False` admits sub-unit starting vectors (such as the
    literal series, whose norm at t = 0 is 1/2); the same formulas are
    applied unchanged.  The track evaluated the closed form when it was
    built, so every call on one track returns the same GpResult object,
    while the checks below run each time.
    """
    a0, eps0 = float(track.A[0]), float(track.eps_plus[0])
    if require_pure and abs(eps0 - 1.0) > 1e-9:
        raise PreconditionError(
            f"initial state not pure: |v(0)| = {eps0:.12f}; the closed form"
            " assumes a single dominant branch"
        )
    if angles is not None and abs(a0 - math.cos(angles.theta)) > 1e-9:
        raise PreconditionError(
            "track does not start at the stated initial state:"
            f" <sigma_z(0)> = {a0:.12f} vs cos(theta0) = {math.cos(angles.theta):.12f}"
        )
    if eps0 < 1e-15:
        raise IndeterminatePhaseError(
            "initial polarization vanishes; dominant branch undefined at t = 0"
        )
    if abs(track._bracket) < Z_TOL:
        raise IndeterminatePhaseError(
            f"indeterminate phase: |bracket| = {abs(track._bracket):.3e} < {Z_TOL:.3e}"
        )
    return track._result


def gp_south_pole(track: PolarTrack) -> GpResult:
    """Pole special case gamma = (1/2) integral chi_dot (1 - cos theta_t) dt.

    Requires the trajectory to start at the Bloch south pole (theta0 = pi,
    i.e. <sigma_z(0)> = -1); otherwise a PreconditionError is raised.  The
    integrand (1 - cos theta_t)/2 is the track's sin2_half, and its
    quadrature (1/2) sum_j G_j sin2_half_j (_trapezoid_on_chi) is the very
    sum that gp_closed_form subtracts from dchi_total for its connection,
    taken once, when the track was built.
    At the pole sin2_half(0) = 0, so the closed form's phase is
    arg(e^{i dchi_total}) - (dchi_total - this sum): the two routes share
    one sum and differ only by the exp/atan2 round trip and the two
    subtractions (a few ulp of |dchi_total|), mod 2*pi.
    """
    a0 = float(track.A[0])
    if abs(a0 + 1.0) > 1e-12:
        raise PreconditionError(
            "south-pole form requires theta0 = pi (initial <sigma_z> = -1),"
            f" got <sigma_z(0)> = {a0:.12f}"
        )
    return GpResult(
        gamma_unwrapped=track._half_sum,
        method="south_pole",
        diagnostics=track._result.diagnostics,
    )


def _branch_spinors(points: np.ndarray, rxy: np.ndarray) -> np.ndarray:
    """Eigenvectors of the dominant branch, shape (n, 2), rows (up, down).

    The + eigenvector of (1 + v.sigma)/2 points along v:
    (cos(beta/2), e^{i chi} sin(beta/2)) with cos(beta) = v_z / |v|.
    rxy is hypot(v_x, v_y) per node.  Nodes on the z axis take phase 1 (a
    gauge choice; the holonomy product is gauge invariant).
    """
    pts = np.asarray(points, dtype=float)
    a = pts[:, 2]
    eps = np.hypot(a, rxy)
    if np.min(eps) < 1e-15:
        raise PreconditionError(
            "fully mixed node encountered; dominant branch undefined"
        )
    ratio = a / eps
    chain = np.empty((pts.shape[0], 2), dtype=complex)
    chain[:, 0] = np.sqrt(np.clip((1.0 + ratio) / 2.0, 0.0, 1.0))
    sin_half = np.sqrt(np.clip((1.0 - ratio) / 2.0, 0.0, 1.0))
    # (x + iy) / rxy at every node, in place; on the z axis (rxy <= R_TOL)
    # that is 0/0 or noise, and phase 1 overwrites it
    phase = np.multiply(1.0j, pts[:, 1], out=chain[:, 1])
    phase += pts[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phase /= rxy
    phase[rxy <= R_TOL] = 1.0
    np.multiply(sin_half, phase, out=chain[:, 1])
    return chain


def pancharatnam_phase(spinors: np.ndarray) -> tuple[float, float, float]:
    """Holonomy phase of a chain of spinors (gauge invariant).

    Returns (gamma, gamma_unwrapped, min_step_overlap):
    gamma = arg[<s_0|s_end> * prod_i (<s_i|s_{i+1}> / |<s_i|s_{i+1}>|)^{-1}],
    accumulated step by step so the unreduced value is meaningful.
    """
    s = np.asarray(spinors, dtype=complex)
    if s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 2:
        raise ConfigError("spinor chain must have shape (n >= 2, 2)")
    overlaps = np.einsum("ij,ij->i", s[:-1].conj(), s[1:])
    moduli = np.abs(overlaps)
    min_overlap = float(moduli.min())
    if min_overlap < OVERLAP_TOL:
        worst = int(np.argmin(moduli))
        raise ResolutionError(
            f"consecutive branch eigenvectors nearly orthogonal at step {worst}"
            f" (overlap {min_overlap:.3e}); refine the time grid"
        )
    closure = complex(np.dot(s[0].conj(), s[-1]))
    if abs(closure) < 1e-14:
        raise IndeterminatePhaseError(
            "endpoint eigenvectors orthogonal; holonomy phase indeterminate"
        )
    step_args = np.arctan2(overlaps.imag, overlaps.real)
    unwrapped = math.atan2(closure.imag, closure.real) - float(step_args.sum())
    return principal_value(unwrapped), unwrapped, min_overlap


def gp_discrete_holonomy(traj: BlochTrajectory) -> GpResult:
    """Geometric phase from the discrete eigenvector-overlap product.

    Independent of the closed form: eigendecomposes each node analytically
    and multiplies normalized neighbor overlaps.  The positive factor
    sqrt(lambda_plus(0) lambda_plus(tau)) cannot move the arg and is only
    reported as a diagnostic.  The start is pure: BlochTrajectory refuses
    one off the sphere by more than 1e-10.
    """
    rxy = np.hypot(traj.points[:, 0], traj.points[:, 1])
    spinors = _branch_spinors(traj.points, rxy)
    _, unwrapped, min_overlap = pancharatnam_phase(spinors)
    eps_end = float(np.linalg.norm(traj.points[-1]))
    return GpResult(
        gamma_unwrapped=unwrapped,
        method="discrete_holonomy",
        diagnostics=GpDiagnostics(
            n_steps=traj.points.shape[0],
            singular_nodes=int(np.count_nonzero(rxy / 2.0 < R_TOL)),
            unwrap_jumps=0,
            lambda_plus_end=(1.0 + eps_end) / 2.0,
            min_step_overlap=min_overlap,
        ),
    )


def gp_unitary_reference(theta0: float) -> float:
    """Principal value of -pi (1 - cos theta0), the decoupled-limit phase
    after one full precession period tau = 2 pi / omega."""
    theta0 = check_real("theta0", theta0)
    if not (0.0 <= theta0 <= math.pi):
        raise ConfigError("theta0 must lie in [0, pi]")
    return principal_value(-math.pi * (1.0 - math.cos(theta0)))


__all__ = [
    "Azimuth",
    "GpDiagnostics",
    "GpResult",
    "PolarTrack",
    "angular_distance",
    "gp_closed_form",
    "gp_discrete_holonomy",
    "gp_south_pole",
    "gp_unitary_reference",
    "pancharatnam_phase",
    "polar_track",
    "principal_value",
]
