"""Model parameters, qubit state representations, and collective bath sectors.

The system is a single qubit coupled to two independent baths of N spin-1/2
particles each, through mutually non-commuting qubit operators:

    H = (omega/2) sigma_z
        + (alpha1/2) sigma_x (x) sum_k I_x^k
        + (alpha2/2) sigma_y (x) sum_l J_y^l

where I_x^k = sigma_x^k / 2 acts on spin k of the first bath and
J_y^l = sigma_y^l / 2 on spin l of the second.  The baths carry no free
Hamiltonian and start maximally mixed, so the reduced qubit dynamics is an
exact convex sum over joint eigenvalues (m1, m2) of the collective bath
operators.  Each m runs from -N/2 to N/2 in unit steps and occurs with
binomial multiplicity

    zeta(m) = N! / ((N/2 - m)! (N/2 + m)!),      weight w(m) = zeta(m) / 2^N.

Basis and Bloch conventions used everywhere in this package:

  * basis order (|u>, |d>) with sigma_z |u> = +|u>;
  * Bloch components v_i = Tr(rho sigma_i) with the standard Pauli matrices;
  * the initial pure state is parameterized by polar angle theta measured
    from +z and azimuth offset phi:

        v(0) = (-sin(theta) sin(phi), sin(theta) cos(phi), cos(theta)),

    i.e. theta = 0 is the north pole |u><u| and theta = pi the south pole.

SystemConfig and InitialStateAngles check themselves when built
(dataclasses.replace included): an invalid value raises ConfigError where
it is made, not where it is first used.  Every public entry point checks
its scalars here: `check_real` takes a finite int or float (float64 too),
`check_time` such a real number >= 0, `check_count` an int, and none of them
a bool.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Standard Pauli matrices in the (|u>, |d>) basis.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SystemConfig:
    """Qubit splitting, the two bath couplings, and the per-bath spin count.

    Both baths share the same size N (`bath_size`).  Couplings are real and
    non-negative; a zero coupling disconnects the corresponding bath.
    Building one runs validate_config, so every SystemConfig is valid.
    """

    omega: float
    alpha1: float
    alpha2: float
    bath_size: int

    def __post_init__(self) -> None:
        validate_config(self)


def check_real(name: str, value) -> float:
    """value as a float if it is a finite int or float (float64 too), else ConfigError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int past the floats
        raise ConfigError(f"{name} not finite")
    return float(value)


def check_time(name: str, value) -> float:
    """A single evolution time as a float: a real number >= 0, else ConfigError."""
    t = check_real(name, value)
    if t < 0.0:
        raise ConfigError(f"{name} must be finite and >= 0")
    return t


def check_count(name: str, value, minimum: int) -> int:
    """value if it is an int of at least `minimum`, else ConfigError naming `name`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}")
    return value


def validate_config(config: SystemConfig) -> SystemConfig:
    """Check every SystemConfig invariant, naming each violated field.

    Returns the config unchanged when all invariants hold; otherwise raises
    ConfigError listing every violation (not just the first).
    """
    problems = []
    reals = {}
    for name in ("omega", "alpha1", "alpha2"):
        try:
            reals[name] = check_real(name, getattr(config, name))
        except ConfigError as exc:
            problems.append(str(exc))
    omega = reals.get("omega", 1.0)  # one that is no real number is listed above
    if omega <= 0.0:
        problems.append("omega must be positive")
    elif omega * omega == 0.0:
        problems.append("omega too small: omega^2 underflows to 0")
    for name in ("alpha1", "alpha2"):
        if reals.get(name, 0.0) < 0.0:
            problems.append(f"{name} negative")
    if not isinstance(config.bath_size, int) or isinstance(config.bath_size, bool):
        problems.append("bath_size must be an integer")
    elif config.bath_size < 1:
        problems.append("bath_size must be >= 1")
    if not problems:
        # The widest sector, m1 = m2 = N/2, has the largest Gamma, which sizes
        # the time grid; Gamma^2 must stay a finite float.
        half = config.bath_size / 2.0 if config.bath_size <= sys.float_info.max else math.inf
        b1, b2 = reals["alpha1"] * half, reals["alpha2"] * half
        if not math.isfinite(omega * omega + b1 * b1 + b2 * b2):
            problems.append(
                "omega^2 + (alpha1 N/2)^2 + (alpha2 N/2)^2 overflows;"
                " lower the couplings or the bath size"
            )
    if problems:
        raise ConfigError("invalid system config: " + "; ".join(problems))
    return config


@dataclass(frozen=True)
class InitialStateAngles:
    """Polar/azimuthal parameterization of the initial pure qubit state.

    theta must lie in [0, pi]; phi is stored normalized modulo 2*pi.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta, phi = check_real("theta", self.theta), check_real("phi", self.phi)
        if not (0.0 <= theta <= math.pi):
            raise ConfigError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi % TWO_PI)


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector of Pauli expectation values (x, y, z)."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, v: np.ndarray) -> "BlochVector":
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ConfigError(f"Bloch vector must have shape (3,), got {v.shape}")
        return cls(float(v[0]), float(v[1]), float(v[2]))


class QubitDensity:
    """Validated 2x2 density matrix in the ordered (|u>, |d>) basis.

    Wraps a read-only complex matrix; construction checks Hermiticity, unit
    trace, and positive semidefiniteness to 1e-12.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ConfigError(f"density matrix must be 2x2, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ConfigError("density matrix has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ConfigError("density matrix not Hermitian within 1e-12")
        if abs(m.trace() - 1.0) > 1e-12:
            raise ConfigError("density matrix trace differs from 1 beyond 1e-12")
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if eigs.min() < -1e-12 or eigs.max() > 1.0 + 1e-12:
            raise ConfigError("density matrix eigenvalues outside [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("QubitDensity is immutable")

    def bloch_vector(self) -> BlochVector:
        """Extract v_i = Tr(rho sigma_i)."""
        m = self.matrix
        return BlochVector(
            float(np.trace(m @ SIGMA_X).real),
            float(np.trace(m @ SIGMA_Y).real),
            float(np.trace(m @ SIGMA_Z).real),
        )

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def initial_bloch(angles: InitialStateAngles) -> BlochVector:
    """Bloch vector of the initial pure state; unit norm by construction.

    v(0) = (-sin(theta) sin(phi), sin(theta) cos(phi), cos(theta)).
    """
    st = math.sin(angles.theta)
    return BlochVector(
        -st * math.sin(angles.phi),
        st * math.cos(angles.phi),
        math.cos(angles.theta),
    )


def initial_density(angles: InitialStateAngles) -> QubitDensity:
    """Density matrix of the initial pure state, (1 + v(0).sigma) / 2.

    Explicitly: diag(cos^2(theta/2), sin^2(theta/2)) with |u><d| entry
    -(i/2) sin(theta) e^{-i phi}.  Consistent with initial_bloch under
    v_i = Tr(rho sigma_i).
    """
    half = angles.theta / 2.0
    off = -0.5j * math.sin(angles.theta) * np.exp(-1.0j * angles.phi)
    m = np.array(
        [
            [math.cos(half) ** 2, off],
            [np.conj(off), math.sin(half) ** 2],
        ],
        dtype=complex,
    )
    return QubitDensity(m)


@dataclass(frozen=True)
class SectorWeight:
    """One collective eigenvalue m with its exact multiplicity and weight."""

    m: float
    zeta: int
    w: float


def sector_weights(bath_size: int) -> list[SectorWeight]:
    """Eigenvalue ladder of a collective bath component for N spin-1/2.

    m = k - N/2 for k = 0..N (integers for even N, half-integers for odd N),
    zeta = C(N, k) by the exact integer recurrence
    C(N, k + 1) = C(N, k) (N - k) // (k + 1) (no overflow for any practical
    N; verified well past N = 1000), w = zeta / 2^N.
    """
    n = check_count("bath_size", bath_size, 1)
    denom = 1 << n
    out = []
    zeta = 1
    for k in range(n + 1):
        out.append(SectorWeight(m=k - n / 2.0, zeta=zeta, w=zeta / denom))
        zeta = zeta * (n - k) // (k + 1)
    return out
