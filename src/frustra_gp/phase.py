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
the unwrap count and the two totals the closed form reads of them) is an
`Azimuth`, which `Azimuth.from_xy` builds from in-plane samples for
`PolarTrack.from_points` and for the surface sweep's azimuth columns alike.
A `PolarTrack` is an Azimuth plus one start's A, sin2_half and eps_plus, so
the tracks of starts that share an azimuth, such as a surface column's
cells, share one Azimuth.

The geometric phase of the dominant spectral branch is then

    gamma = arg[ sqrt(lambda_plus(tau))
                 * ( cos(theta0/2) sin(theta_tau/2)
                     + e^{i dchi(tau)} sin(theta0/2) cos(theta_tau/2) )
                 * e^{-i integral_0^tau chi_dot cos^2(theta_t/2) dt} ],

with cos(theta0/2) = sqrt(sin2_half(0)) taken from the normalized initial
state, sin(theta_tau/2) = sqrt(sin2_half(tau)), cos^2(theta_t/2) =
1 - sin2_half, and the connection integral evaluated by the trapezoid rule
on the chi increments.  sqrt(lambda_plus) is a positive scalar and cannot move the
arg; it is reported as a diagnostic and never multiplied in, which makes the
result bit-identical under any positive rescaling of that factor.

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
from typing import NamedTuple

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


def principal_value(angle):
    """Reduce an angle to [-pi, pi), i.e. (-pi, pi] with +pi reported as -pi.

    Rounding in angle - 2*pi*k can overshoot either boundary by a few ulp
    for large inputs, so the result is folded once more where needed.
    Scalar input (including np.float64) gives a built-in float; array input
    gives an array.
    """
    if isinstance(angle, (float, int)):
        # Same arithmetic as the array path below, without its per-call cost.
        angle = float(angle)
        if not math.isfinite(angle):
            return math.nan
        wrapped = angle - TWO_PI * math.floor((angle + math.pi) / TWO_PI)
        if wrapped >= math.pi:
            wrapped -= TWO_PI
        if wrapped < -math.pi:
            wrapped += TWO_PI
        return wrapped
    angle = np.asarray(angle, dtype=float)
    wrapped = angle - TWO_PI * np.floor((angle + math.pi) / TWO_PI)
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
    shape raises ConfigError).  The two totals the closed form reads of
    them, dchi_total = dchi.sum() and singular_nodes, are computed once
    here, so starts that share an azimuth (a surface column's cells) do not
    sum it again: each start's PolarTrack checks only its own three series.
    """

    grid: TimeGrid
    dchi: np.ndarray
    singular: np.ndarray
    unwrap_jumps: int
    dchi_total: float = field(init=False)
    singular_nodes: int = field(init=False)

    def __post_init__(self) -> None:
        n = self.grid.n_steps
        dchi = _series("dchi", self.dchi, (n - 1,))
        singular = _series("singular", self.singular, (n,))
        vars(self).update(
            dchi=dchi,
            singular=singular,
            dchi_total=float(dchi.sum()),
            singular_nodes=int(np.count_nonzero(singular)),
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


@dataclass(frozen=True)
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
    whose sin2_half at t = 0 or at t = tau lies outside it (or is NaN) makes
    gp_closed_form and gp_south_pole raise ConfigError; nodes in between are
    not checked.

    The arrays are read-only and the dataclass is frozen (dataclasses.replace
    builds a new track), so the scalars gp_closed_form and gp_south_pole
    derive from the track alone are computed on first use and kept
    (_reductions): a sweep that hands one track to a whole row of cells
    makes their n-node passes once for the row.
    """

    azimuth: Azimuth
    A: np.ndarray
    sin2_half: np.ndarray
    eps_plus: np.ndarray

    def __post_init__(self) -> None:
        node = (self.azimuth.grid.n_steps,)
        vars(self).update(
            A=_series("A", self.A, node),
            sin2_half=_series("sin2_half", self.sin2_half, node),
            eps_plus=_series("eps_plus", self.eps_plus, node),
        )

    @property
    def grid(self) -> TimeGrid:
        return self.azimuth.grid

    @property
    def n_steps(self) -> int:
        return self.azimuth.grid.n_steps

    def _reductions(self) -> _Reductions:
        """The track's closed-form reductions, computed on first use.

        Kept with object.__setattr__, not functools.cached_property: on
        Python 3.10 and 3.11 that takes one lock per class, which would
        serialize a sweep's row threads.  Two threads that race both compute
        the same bytes, and either result is kept.
        """
        reductions = self.__dict__.get("_kept_reductions")
        if reductions is not None:
            return reductions
        # sin2_half follows the branch direction A/eps, not raw <sigma_z>,
        # which keeps the arg exactly invariant under positive rescalings of
        # the polarization.
        s_start, s_end = float(self.sin2_half[0]), float(self.sin2_half[-1])
        if not (0.0 <= s_start <= 1.0 and 0.0 <= s_end <= 1.0):
            raise ConfigError(
                "sin2_half must lie in [0, 1] at both ends of the track,"
                f" got {s_start!r} at t = 0 and {s_end!r} at t = tau"
            )
        azimuth = self.azimuth
        c0, s0 = math.sqrt(s_start), math.sqrt(1.0 - s_start)
        dchi = azimuth.dchi_total
        bracket = c0 * math.sqrt(s_end) + cmath.exp(1.0j * dchi) * s0 * math.sqrt(1.0 - s_end)
        reductions = _Reductions(
            a0=float(self.A[0]),
            eps0=float(self.eps_plus[0]),
            bracket=bracket,
            # The integrand cos^2(theta_t/2) is taken as 1 - sin2_half node
            # by node.  dchi - _trapezoid_on_chi(dchi, sin2_half) saves that
            # pass but rounds the sum differently, which moves phases that
            # sit on the +-pi cut.
            connection=_trapezoid_on_chi(azimuth.dchi, 1.0 - self.sin2_half),
            diagnostics=GpDiagnostics(
                n_steps=azimuth.grid.n_steps,
                singular_nodes=azimuth.singular_nodes,
                unwrap_jumps=azimuth.unwrap_jumps,
                lambda_plus_end=(1.0 + float(self.eps_plus[-1])) / 2.0,
            ),
        )
        object.__setattr__(self, "_kept_reductions", reductions)
        return reductions

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
        return cls(azimuth, a, np.clip((1.0 + ratio) / 2.0, 0.0, 1.0), eps)


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
    """Geometric phase: principal value, unreduced value, method, diagnostics."""

    gamma: float
    gamma_unwrapped: float
    method: str
    diagnostics: GpDiagnostics


class _Reductions(NamedTuple):
    """What the phase routes read of a track, kept by PolarTrack._reductions.

    a0 and eps0 are A and eps_plus at t = 0; bracket is cos(theta0/2)
    sin(theta_tau/2) + e^{i dchi(tau)} sin(theta0/2) cos(theta_tau/2);
    connection is the trapezoid of chi_dot cos^2(theta_t/2).
    """

    a0: float
    eps0: float
    bracket: complex
    connection: float
    diagnostics: GpDiagnostics


def polar_track(traj: BlochTrajectory) -> PolarTrack:
    """Reduce a Bloch trajectory to its polar-track series."""
    return PolarTrack.from_points(traj.points, traj.grid)


def _trapezoid_on_chi(dchi: np.ndarray, integrand: np.ndarray) -> float:
    """sum_i dchi_i * (f_i + f_{i+1}) / 2 for f on the n nodes bounding dchi.

    Three passes: the pair sums f_i + f_{i+1}, their products with dchi (in
    place), and np.sum, halved once at the end (halving is exact, so this is
    bit for bit the sum of dchi_i * ((f_i + f_{i+1}) / 2)).  np.sum adds
    pairwise, so its rounding stays at a few ulp of the total.  Not
    np.einsum("i,i->"): its fused loop accumulates in a single vector
    register, and over 3 x 10^3 nodes with a total near 100 rad it lands up
    to 3e-13 from the pairwise sum.  Not np.dot: OpenBLAS splits a dot
    product of more than 10^4 nodes over its threads, and the partial sums
    then round differently with each thread count.
    """
    pair = integrand[:-1] + integrand[1:]
    pair *= dchi
    return float(pair.sum()) / 2.0


def gp_closed_form(
    track: PolarTrack,
    angles: InitialStateAngles | None = None,
    require_pure: bool = True,
) -> GpResult:
    """Geometric phase of the dominant branch from the closed-form expression.

    `angles`, when given, is cross-checked against the track's initial node.
    `require_pure=False` admits sub-unit starting vectors (such as the
    literal series, whose norm at t = 0 is 1/2); the same formulas are
    applied unchanged.
    """
    r = track._reductions()
    if require_pure and abs(r.eps0 - 1.0) > 1e-9:
        raise PreconditionError(
            f"initial state not pure: |v(0)| = {r.eps0:.12f}; the closed form"
            " assumes a single dominant branch"
        )
    if angles is not None and abs(r.a0 - math.cos(angles.theta)) > 1e-9:
        raise PreconditionError(
            "track does not start at the stated initial state:"
            f" <sigma_z(0)> = {r.a0:.12f} vs cos(theta0) = {math.cos(angles.theta):.12f}"
        )
    if r.eps0 < 1e-15:
        raise IndeterminatePhaseError(
            "initial polarization vanishes; dominant branch undefined at t = 0"
        )
    if abs(r.bracket) < Z_TOL:
        raise IndeterminatePhaseError(
            f"indeterminate phase: |bracket| = {abs(r.bracket):.3e} < {Z_TOL:.3e}"
        )
    unwrapped = math.atan2(r.bracket.imag, r.bracket.real) - r.connection
    return GpResult(
        gamma=principal_value(unwrapped),
        gamma_unwrapped=unwrapped,
        method="closed_form",
        diagnostics=r.diagnostics,
    )


def gp_south_pole(track: PolarTrack) -> GpResult:
    """Pole special case gamma = (1/2) integral chi_dot (1 - cos theta_t) dt.

    Requires the trajectory to start at the Bloch south pole (theta0 = pi,
    i.e. <sigma_z(0)> = -1); otherwise a PreconditionError is raised.  The
    integrand (1 - cos theta_t)/2 is the track's sin2_half, summed by the
    same helper (_trapezoid_on_chi) that gp_closed_form applies to
    1 - sin2_half.  At the pole sin2_half(0) = 0, so the closed form's phase
    is arg(e^{i dchi_total}) minus the trapezoid of 1 - sin2_half, which is
    dchi_total minus this one: the two methods agree exactly in exact
    arithmetic and, in floats, to the rounding of that exp/atan2 round trip
    and of the two sums (a few ulp of |dchi_total|), mod 2*pi.
    """
    a0 = float(track.A[0])
    if abs(a0 + 1.0) > 1e-12:
        raise PreconditionError(
            "south-pole form requires theta0 = pi (initial <sigma_z> = -1),"
            f" got <sigma_z(0)> = {a0:.12f}"
        )
    unwrapped = _trapezoid_on_chi(track.azimuth.dchi, track.sin2_half)
    return GpResult(
        gamma=principal_value(unwrapped),
        gamma_unwrapped=unwrapped,
        method="south_pole",
        diagnostics=track._reductions().diagnostics,
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
    cos_half = np.sqrt(np.clip((1.0 + ratio) / 2.0, 0.0, 1.0))
    sin_half = np.sqrt(np.clip((1.0 - ratio) / 2.0, 0.0, 1.0))
    phase = np.ones(pts.shape[0], dtype=complex)
    ok = rxy > R_TOL
    phase[ok] = (pts[ok, 0] + 1.0j * pts[ok, 1]) / rxy[ok]
    return np.column_stack([cos_half.astype(complex), sin_half * phase])


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
    reported as a diagnostic.
    """
    eps0 = float(np.linalg.norm(traj.points[0]))
    if abs(eps0 - 1.0) > 1e-9:
        raise PreconditionError(
            f"initial state not pure: |v(0)| = {eps0:.12f}"
        )
    rxy = np.hypot(traj.points[:, 0], traj.points[:, 1])
    spinors = _branch_spinors(traj.points, rxy)
    gamma, unwrapped, min_overlap = pancharatnam_phase(spinors)
    eps_end = float(np.linalg.norm(traj.points[-1]))
    return GpResult(
        gamma=gamma,
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
