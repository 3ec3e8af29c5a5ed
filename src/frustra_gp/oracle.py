"""Exact evolution on the full qubit + bath + bath Hilbert space.

Ground truth for the sector-sum dynamics, independent of the sector
formula.  A bath of N spins-1/2 holds d_j = C(N, N/2 - j) - C(N, N/2 - j - 1)
copies of each total spin j, and bath 1 enters H only through J_x, bath 2
only through J_y.  So H is block-diagonal in (j1, j2): d_j1 d_j2 copies of
a block of size D = 2 (2 j1 + 1)(2 j2 + 1), ordered qubit (x) spin j1 (x)
spin j2 (Breuer, Burgarth & Petruccione, PRB 70, 045323 (2004)).  Every
copy starts in rho_S(0) (x) 1 / 4^N, so the reduced state is the sum over
blocks of the block's bath trace with weight w = d_j1 d_j2 / 4^N.  A block
is real in the sigma_z (x) J_z basis (sigma_y (x) J_y = -(i sigma_y) (x)
(i J_y)), built from the cached spin-j ladder matrices, and evolved by:

* one real eigh, H = V diag(E) V^T, with V = [V_0; V_1] split by the qubit
  index; only E and the Gram blocks K_ab = V_a^T V_b are kept.  O(D^3);
* rho0_eig = V^T rho(0) V = w sum_ab rho_S(0)[a, b] K_ab.  O(D^2);
* per time node, rho_S(t)[a, b] += sum_kl rho0_eig[k, l] e^{-i(E_k - E_l)t}
  K_ab[k, l], the bath trace of V e^{-iEt} rho0_eig e^{iEt} V^T.  O(D^2),
  nodes taken in chunks sized to an element budget, and never fewer
  than D.

Equal-size blocks share one batched eigh, up to _STACK_ELEMENTS elements
(a larger block goes alone); the stacks are listed once per bath size.
Both evolution routes are refused above MAX_EVOLUTION_BATH_SIZE = 20
(largest block D = 882) before anything is built.  No dense 2 * 4^N
matrix is ever formed; the tests build one from complex kron chains at
N <= 4 and check the blocks against it.
"""

from __future__ import annotations

import math
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

# Largest bath size the evolution routes accept: largest block 2 * 21^2 = 882.
MAX_EVOLUTION_BATH_SIZE = 20
# Equal-size blocks share one batched eigh up to this many elements.
_STACK_ELEMENTS = 2**18
# Complex elements in each (k, 2, 2, nodes, D) temporary of a stack's node
# chunk; a chunk takes at least D nodes, whatever its stack's size.
_SERIES_ELEMENTS = 2**13
_PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def _spin_multiplicities(n_spins: int) -> list[tuple[int, int]]:
    """(2j, d_j) for each total spin j of n_spins spins-1/2, largest j first."""
    return [
        (n_spins - 2 * k, math.comb(n_spins, k) - (math.comb(n_spins, k - 1) if k else 0))
        for k in range(n_spins // 2 + 1)
    ]


@lru_cache(maxsize=MAX_EVOLUTION_BATH_SIZE + 1)
def _spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """J_x and i J_y of spin j = two_j / 2 in the J_z basis, both real.

    From the ladder J_+ |m> = sqrt((j - m)(j + m + 1)) |m + 1>:
    J_x = (J_+ + J_-)/2 and i J_y = (J_+ - J_-)/2.  Read-only.
    """
    k = np.arange(two_j, dtype=float)
    ladder = np.diag(np.sqrt((two_j - k) * (k + 1.0)) / 2.0, -1)
    jx, ijy = ladder + ladder.T, ladder - ladder.T
    for op in (jx, ijy):
        op.setflags(write=False)
    return jx, ijy


@lru_cache(maxsize=MAX_EVOLUTION_BATH_SIZE)
def _block_stacks(n_spins: int) -> tuple:
    """Stacks of equal-size (j1, j2) blocks at bath size n_spins.

    A tuple of (weights, pairs): each block's d_j1 d_j2 / 4^N (read-only)
    and (2 j1, 2 j2); a stack holds at most _STACK_ELEMENTS matrix
    elements, or one block.  Cached per bath size, so every config and
    start of that size shares one set of stacks.
    """
    spins = _spin_multiplicities(n_spins)
    by_dim: dict[int, list] = {}
    for tj1, d1 in spins:
        for tj2, d2 in spins:
            by_dim.setdefault((tj1 + 1) * (tj2 + 1), []).append((d1 * d2, (tj1, tj2)))
    stacks = []
    for dim, blocks in by_dim.items():
        per_stack = max(1, _STACK_ELEMENTS // (2 * dim) ** 2)
        for start in range(0, len(blocks), per_stack):
            counts, pairs = zip(*blocks[start : start + per_stack])
            weights = np.array(counts) * 4.0**-n_spins
            weights.setflags(write=False)
            stacks.append((weights, pairs))
    return tuple(stacks)


def _block_hamiltonians(config: SystemConfig, pairs) -> np.ndarray:
    """H of each (2 j1, 2 j2) block in pairs, stacked: shape (k, D, D).

    H = [[omega/2, B], [B^T, -omega/2]], B = (alpha1/2) J_x (x) 1 -
    (alpha2/2) 1 (x) i J_y: the blocks of (alpha1/2) sigma_x (x) J_x (x) 1
    and (alpha2/2) sigma_y (x) 1 (x) J_y.
    """
    dim = (pairs[0][0] + 1) * (pairs[0][1] + 1)
    h = np.zeros((len(pairs), 2 * dim, 2 * dim))
    for block, (tj1, tj2) in zip(h, pairs):
        jx = _spin_matrices(tj1)[0] * (config.alpha1 / 2.0)
        ijy = _spin_matrices(tj2)[1] * (config.alpha2 / 2.0)
        coupling = block[:dim, dim:].reshape(tj1 + 1, tj2 + 1, tj1 + 1, tj2 + 1)
        for i in range(tj2 + 1):
            coupling[:, i, :, i] = jx
        for i in range(tj1 + 1):
            coupling[i, :, i, :] -= ijy
        block[dim:, :dim] = block[:dim, dim:].T
    h.reshape(len(pairs), -1)[:, :: 2 * dim + 1] = np.repeat(
        [config.omega / 2.0, -config.omega / 2.0], dim
    )
    return h


def _diagonalized(config: SystemConfig, pairs):
    """Energies and qubit-block Gram matrices of one stack of blocks.

    With each block's V = [V_0; V_1] split by the qubit index, returns E,
    shape (k, D), and K with K[:, a, b] = V_a^T V_b, shape (k, 2, 2, D, D);
    V itself is dropped.
    """
    try:
        energies, vectors = np.linalg.eigh(_block_hamiltonians(config, pairs))
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"block eigensolver failed: {exc}") from exc
    k, dim = energies.shape
    halves = vectors.reshape(k, 1, 2, dim // 2, dim)
    return energies, halves.swapaxes(2, 1).swapaxes(-1, -2) @ halves


def _reduced_series(
    config: SystemConfig, angles: InitialStateAngles, times: np.ndarray
) -> np.ndarray:
    """Reduced qubit states at `times`, shape (n, 2, 2), summed block by block.

    Per stack, rho_S(t)[a, b] += sum_kl rho0_eig[k, l] e^{-i(E_k - E_l)t}
    K_ab[k, l], as ((P @ W_ab) * conj(P)).sum() over blocks and columns,
    with P = e^{-iEt} and W_ab = rho0_eig o K_ab.  A stack of k blocks takes
    its nodes in chunks of max(D, _SERIES_ELEMENTS // 4kD), so each chunk's
    (k, 2, 2, nodes, D) temporaries hold about _SERIES_ELEMENTS elements,
    more only where D nodes already pass that.  Refused above
    MAX_EVOLUTION_BATH_SIZE before anything is built.
    """
    n_spins = config.bath_size
    if n_spins > MAX_EVOLUTION_BATH_SIZE:
        raise DimensionCapError(
            f"bath_size {n_spins} exceeds cap {MAX_EVOLUTION_BATH_SIZE}"
            f" (largest block would be {2 * (n_spins + 1) ** 2})"
        )
    rho_s = initial_density(angles).matrix
    out = np.zeros((2, 2, times.size), dtype=complex)
    for weights, pairs in _block_stacks(n_spins):
        energies, gram = _diagonalized(config, pairs)
        k, dim = energies.shape
        rho0_eig = rho_s.reshape(4) @ gram.reshape(k, 4, dim * dim)
        rho0_eig = rho0_eig.reshape(k, dim, dim)
        rho0_eig *= weights[:, None, None]
        # W_ab replaces K_ab, so the real Gram blocks are freed.
        gram = gram * rho0_eig[:, None, None]
        nodes = max(dim, _SERIES_ELEMENTS // (4 * k * dim))
        for start in range(0, times.size, nodes):
            phase = np.exp(-1.0j * times[start : start + nodes, None] * energies[:, None, :])
            chunk = (phase[:, None, None] @ gram) * phase.conj()[:, None, None]
            out[..., start : start + nodes] += chunk.sum((0, 4))
    return out.transpose(2, 0, 1)


def evolve_reduced(
    config: SystemConfig, angles: InitialStateAngles, t: float
) -> QubitDensity:
    """Exact reduced qubit density matrix at time t >= 0."""
    t = check_time("t", t)
    reduced = _reduced_series(config, angles, np.array([t]))[0]
    # Symmetrize away eigensolver round-off before validation.
    reduced = (reduced + reduced.conj().T) / 2.0
    return QubitDensity(reduced)


def oracle_trajectory(
    config: SystemConfig, angles: InitialStateAngles, grid: TimeGrid
) -> BlochTrajectory:
    """Exact reduced Bloch trajectory, one eigendecomposition per block."""
    reduced = _reduced_series(config, angles, grid.times())
    pts = np.einsum("nab,iba->ni", reduced, _PAULI).real
    return BlochTrajectory(grid=grid, points=pts)


__all__ = [
    "evolve_reduced",
    "oracle_trajectory",
]
