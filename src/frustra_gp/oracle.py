"""Exact dense evolution on the full qubit + bath + bath Hilbert space.

Ground truth for the sector-sum dynamics, independent of the sector
formula: the full Hamiltonian on dimension D = 2 * 2^N * 2^N in the
ordering qubit (x) bath1 (x) bath2, numerical eigenvectors, and a literal
partial trace of

    rho(0) = rho_S(0) (x) 1/2^N (x) 1/2^N

over both baths.  H is real in this sigma_z (x) J_z product basis
(sigma_y (x) J_y is a product of two imaginary matrices), so:

* per bath size, the real operators sigma_z, sigma_x (x) J_x and
  sigma_y (x) J_y = -(i sigma_y) (x) (i J_y), cached; per config, H is
  their real linear combination;
* per config, one real eigh, H = V diag(E) V^T, with V = [V_0; V_1] split
  by the qubit index; only E and the Gram blocks K_ab = V_a^T V_b (K_00,
  K_01, K_11, with K_10 = K_01^T) are kept.  O(D^3), cached;
* per trajectory, rho0_eig = V^T rho(0) V = 4^-N sum_ab rho_S(0)[a, b] K_ab.
  O(D^2);
* per time node, rho_S(t)[a, b] = sum_kl rho0_eig[k, l] e^{-i(E_k - E_l)t}
  K_ab[k, l], the bath trace of V e^{-iEt} rho0_eig e^{iEt} V^T.  O(D^2),
  nodes taken in chunks of at most D so no temporary exceeds D^2 elements.

Memory scales as D^2, so builds are refused above MAX_BATH_SIZE = 4
(D = 512).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dynamics import BlochTrajectory, TimeGrid
from .errors import DimensionCapError, OracleError
from .model import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    InitialStateAngles,
    QubitDensity,
    SystemConfig,
    check_time,
    initial_density,
)

# Largest bath size the dense builder accepts: D = 2 * 4^4 = 512.
MAX_BATH_SIZE = 4
_PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
_SIGMA_X_REAL = SIGMA_X.real
# i sigma_y, real: sigma_y = -i (i sigma_y).
_I_SIGMA_Y = (1.0j * SIGMA_Y).real


def _collective(single: np.ndarray, n_spins: int) -> np.ndarray:
    """sum_k 1 (x) ... (x) single_k (x) ... (x) 1 over n_spins sites."""
    dim = 2**n_spins
    total = np.zeros((dim, dim))
    for k in range(n_spins):
        total += np.kron(np.kron(np.eye(2**k), single), np.eye(2 ** (n_spins - k - 1)))
    return total


@lru_cache(maxsize=MAX_BATH_SIZE)
def _coupling_operators(n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The config-independent real parts of H at bath size n_spins.

    Returns the diagonal of sigma_z (x) 1 (x) 1, then sigma_x (x) J_x (x) 1
    and sigma_y (x) 1 (x) J_y, the last written as -(i sigma_y) (x) 1 (x)
    (i J_y): i sigma_y and i J_y are real matrices.  The cache holds two
    dense D x D arrays per bath size (4 MB at N = 4).
    """
    eye = np.eye(2**n_spins)
    z = np.repeat([1.0, -1.0], 4**n_spins)
    x = np.kron(_SIGMA_X_REAL, np.kron(_collective(_SIGMA_X_REAL / 2.0, n_spins), eye))
    y = -np.kron(_I_SIGMA_Y, np.kron(eye, _collective(_I_SIGMA_Y / 2.0, n_spins)))
    for op in (z, x, y):
        op.setflags(write=False)
    return z, x, y


def build_hamiltonian(config: SystemConfig) -> np.ndarray:
    """H as a real dense matrix: (omega/2) Z + (alpha1/2) X + (alpha2/2) Y.

    Each entry of H comes from one of the three operators alone, so the sum
    has the bits of the complex kron construction's real part (its
    imaginary part is zero).  Refused above MAX_BATH_SIZE.
    """
    if config.bath_size > MAX_BATH_SIZE:
        raise DimensionCapError(
            f"bath_size {config.bath_size} exceeds cap {MAX_BATH_SIZE}"
            f" (full dimension would be {2 * 4**config.bath_size})"
        )
    z, x, y = _coupling_operators(config.bath_size)
    h = np.diag((config.omega / 2.0) * z)
    h += (config.alpha1 / 2.0) * x
    h += (config.alpha2 / 2.0) * y
    return h


@lru_cache(maxsize=8)
def _diagonalized(config: SystemConfig):
    """Per config: energies and the qubit-block Gram matrices of one real eigh.

    With V = [V_0; V_1] split by the qubit index, returns E and
    (K_00, K_01, K_11) with K_ab = V_a^T V_b; V itself is dropped.
    """
    try:
        energies, vectors = np.linalg.eigh(build_hamiltonian(config))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise OracleError(f"dense eigensolver failed: {exc}") from exc
    v0, v1 = np.split(vectors, 2)
    gram = (v0.T @ v0, v0.T @ v1, v1.T @ v1)
    for array in (energies, *gram):
        array.setflags(write=False)
    return energies, gram


def _prepared(config: SystemConfig, angles: InitialStateAngles):
    """Per trajectory: E, the four K_ab in the order 00, 01, 10, 11, and rho0_eig."""
    energies, (k00, k01, k11) = _diagonalized(config)
    blocks = (k00, k01, k01.T, k11)
    rho_s = initial_density(angles).matrix
    rho0_eig = sum(r * k for r, k in zip(rho_s.flat, blocks)) / (energies.size // 2)
    return energies, blocks, rho0_eig


def _reduced_series(energies, blocks, rho0_eig, times: np.ndarray) -> np.ndarray:
    """Reduced qubit states at `times`, shape (n, 2, 2).

    rho_S(t)[a, b] = sum_kl rho0_eig[k, l] e^{-i(E_k - E_l)t} K_ab[k, l],
    as ((P @ W_ab) * conj(P)).sum(1) with P = e^{-iEt} and W_ab = rho0_eig o K_ab.
    Nodes go in chunks of at most D, so no temporary exceeds D^2 elements.
    """
    dim = energies.size
    out = np.empty((times.size, 4), dtype=complex)
    for start in range(0, times.size, dim):
        phase = np.exp(-1.0j * np.outer(times[start : start + dim], energies))
        back = phase.conj()
        for i, k in enumerate(blocks):
            out[start : start + dim, i] = ((phase @ (rho0_eig * k)) * back).sum(1)
    return out.reshape(-1, 2, 2)


def evolve_reduced(
    config: SystemConfig, angles: InitialStateAngles, t: float
) -> QubitDensity:
    """Exact reduced qubit density matrix at time t >= 0."""
    t = check_time("t", t)
    reduced = _reduced_series(*_prepared(config, angles), np.array([t]))[0]
    # Symmetrize away eigensolver round-off before validation.
    reduced = (reduced + reduced.conj().T) / 2.0
    return QubitDensity(reduced)


def oracle_trajectory(
    config: SystemConfig, angles: InitialStateAngles, grid: TimeGrid
) -> BlochTrajectory:
    """Exact reduced Bloch trajectory, reusing one eigendecomposition."""
    reduced = _reduced_series(*_prepared(config, angles), grid.times())
    pts = np.einsum("nab,iba->ni", reduced, _PAULI).real
    return BlochTrajectory(grid=grid, points=pts)


__all__ = [
    "build_hamiltonian",
    "evolve_reduced",
    "oracle_trajectory",
]
