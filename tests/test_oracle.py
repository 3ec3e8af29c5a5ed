"""Tests for the dense full-Hilbert-space reference evolution.

The Hamiltonian spectrum test derives the expected eigenvalues from
binomial counting alone (each magnetization sector contributes a pair
+/- Gamma(m1, m2)/2 with multiplicity zeta1 * zeta2), which never touches
the sector-sum code path under test elsewhere.
"""

import math

import numpy as np
import pytest

from frustra_gp import (
    ConfigError,
    DimensionCapError,
    InitialStateAngles,
    SystemConfig,
    TimeGrid,
    bloch_at,
    bloch_trajectory,
    build_hamiltonian,
    evolve_reduced,
    initial_density,
    oracle_trajectory,
)
from frustra_gp.model import SIGMA_X, SIGMA_Y, SIGMA_Z
from frustra_gp.oracle import MAX_BATH_SIZE


def test_build_refused_above_cap():
    cfg = SystemConfig(omega=1.0, alpha1=0.5, alpha2=0.5, bath_size=5)
    with pytest.raises(DimensionCapError):
        build_hamiltonian(cfg)


@pytest.mark.parametrize(
    "run",
    [
        lambda cfg, ang: evolve_reduced(cfg, ang, 1.0),
        lambda cfg, ang: oracle_trajectory(cfg, ang, TimeGrid(1.0, 3)),
    ],
    ids=["evolve_reduced", "oracle_trajectory"],
)
def test_evolution_refused_above_cap_before_allocating(run, monkeypatch):
    def no_allocation(*args):
        raise AssertionError("operators built above the cap")

    monkeypatch.setattr("frustra_gp.oracle._coupling_operators", no_allocation)
    cfg = SystemConfig(omega=1.0, alpha1=0.5, alpha2=0.5, bath_size=MAX_BATH_SIZE + 1)
    with pytest.raises(DimensionCapError):
        run(cfg, InitialStateAngles(theta=1.0))


def test_hamiltonian_shape_and_hermiticity():
    cfg = SystemConfig(omega=2.0, alpha1=0.7, alpha2=0.3, bath_size=2)
    ham = build_hamiltonian(cfg)
    assert ham.shape == (2 * 4**2, 2 * 4**2)
    assert ham.dtype == np.float64
    assert np.array_equal(ham, ham.T)


def test_free_qubit_spectrum_frozen():
    # omega=2, no coupling, N=1: energies +/-1, each 4-fold (bath dim 4)
    cfg = SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.0, bath_size=1)
    energies = np.linalg.eigh(build_hamiltonian(cfg))[0]
    assert np.allclose(np.sort(energies), [-1.0] * 4 + [1.0] * 4, atol=1e-14)


def test_spectrum_matches_sector_frequencies():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3):
        cfg = SystemConfig(
            omega=float(rng.uniform(0.3, 2.0)),
            alpha1=float(rng.uniform(0.0, 1.5)),
            alpha2=float(rng.uniform(0.0, 1.5)),
            bath_size=n,
        )
        expected = []
        for k1 in range(n + 1):
            m1 = -n / 2.0 + k1
            zeta1 = math.comb(n, k1)
            for k2 in range(n + 1):
                m2 = -n / 2.0 + k2
                zeta2 = math.comb(n, k2)
                gamma = math.sqrt(
                    cfg.omega**2
                    + (cfg.alpha1 * m1) ** 2
                    + (cfg.alpha2 * m2) ** 2
                )
                expected.extend([-gamma / 2.0] * (zeta1 * zeta2))
                expected.extend([+gamma / 2.0] * (zeta1 * zeta2))
        energies = np.linalg.eigh(build_hamiltonian(cfg))[0]
        assert np.max(np.abs(np.sort(energies) - np.sort(expected))) < 1e-12


def test_evolve_reduced_identity_at_zero():
    cfg = SystemConfig(omega=1.3, alpha1=0.4, alpha2=0.9, bath_size=2)
    ang = InitialStateAngles(theta=0.7, phi=1.9)
    rho = evolve_reduced(cfg, ang, 0.0)
    assert np.max(np.abs(rho.matrix - initial_density(ang).matrix)) < 1e-14


def test_evolve_reduced_matches_sector_sum():
    rng = np.random.default_rng(37)
    for _ in range(6):
        cfg = SystemConfig(
            omega=float(rng.uniform(0.3, 2.0)),
            alpha1=float(rng.uniform(0.0, 1.5)),
            alpha2=float(rng.uniform(0.0, 1.5)),
            bath_size=int(rng.integers(1, 4)),
        )
        ang = InitialStateAngles(
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        t = float(rng.uniform(0.0, 10.0))
        exact = evolve_reduced(cfg, ang, t).bloch_vector().as_array()
        fast = bloch_at(cfg, ang, t).as_array()
        assert np.max(np.abs(exact - fast)) < 1e-12


def test_oracle_trajectory_matches_sector_sum():
    ang = InitialStateAngles(theta=1.1, phi=0.4)
    grid = TimeGrid(5.0, 41)
    for n in (2, 4):  # D = 32 (the 41 nodes take two chunks) and D = 512
        cfg = SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=n)
        exact = oracle_trajectory(cfg, ang, grid)
        fast = bloch_trajectory(cfg, ang, grid)
        assert np.max(np.abs(exact.points - fast.points)) < 1e-12


def _literal_reduced(cfg, ang, t):
    """V e^{-iEt} V^dag rho(0) V e^{iEt} V^dag from a complex eigh, bath-traced."""
    energies, vectors = np.linalg.eigh(_kron_hamiltonian(cfg))
    bath_dim = 2**cfg.bath_size
    eye_mixed = np.eye(bath_dim) / bath_dim
    rho0 = np.kron(initial_density(ang).matrix, np.kron(eye_mixed, eye_mixed))
    u = (vectors * np.exp(-1.0j * energies * t)) @ vectors.conj().T
    full = (u @ rho0 @ u.conj().T).reshape(2, bath_dim, bath_dim, 2, bath_dim, bath_dim)
    return np.einsum("aijbij->ab", full)


def test_projected_series_matches_literal_partial_trace():
    rng = np.random.default_rng(113)
    grid = TimeGrid(19.0, 6)
    for n in (1, 2):
        cfg = SystemConfig(
            omega=float(rng.uniform(0.3, 2.0)),
            alpha1=float(rng.uniform(0.0, 1.5)),
            alpha2=float(rng.uniform(0.0, 1.5)),
            bath_size=n,
        )
        ang = InitialStateAngles(
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        points = oracle_trajectory(cfg, ang, grid).points
        for t, point in zip(grid.times(), points):
            literal = _literal_reduced(cfg, ang, t)
            projected = evolve_reduced(cfg, ang, float(t)).matrix
            assert np.max(np.abs(projected - literal)) < 1e-13
            expected = [np.trace(literal @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
            assert np.max(np.abs(point - expected)) < 1e-13


def test_hamiltonian_is_real_in_product_basis():
    # sigma_y (x) J_y is a product of two imaginary matrices, so H is exactly
    # real and the oracle diagonalizes it with a real eigensolver.  Checked
    # on the complex kron construction, independent of the real builder.
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        for _ in range(3):
            cfg = SystemConfig(
                omega=float(rng.uniform(0.1, 3.0)),
                alpha1=float(rng.uniform(0.0, 2.0)),
                alpha2=float(rng.uniform(0.0, 2.0)),
                bath_size=n,
            )
            assert not np.any(_kron_hamiltonian(cfg).imag)


def _kron_hamiltonian(cfg):
    """H from complex kron chains, one collective spin operator per bath."""
    n = cfg.bath_size
    eye = np.eye(2**n, dtype=complex)

    def collective(single):
        total = np.zeros((2**n, 2**n), dtype=complex)
        for k in range(n):
            op = np.kron(np.eye(2**k, dtype=complex), single)
            total += np.kron(op, np.eye(2 ** (n - k - 1), dtype=complex))
        return total

    h = (cfg.omega / 2.0) * np.kron(SIGMA_Z, np.kron(eye, eye))
    h += (cfg.alpha1 / 2.0) * np.kron(SIGMA_X, np.kron(collective(SIGMA_X / 2.0), eye))
    h += (cfg.alpha2 / 2.0) * np.kron(SIGMA_Y, np.kron(eye, collective(SIGMA_Y / 2.0)))
    return h


def test_hamiltonian_bytes_match_kron_construction():
    # H is assembled from cached real operators; every entry comes from one
    # term alone, so the bytes equal those of the complex kron chains' real
    # part, which is all of them (test_hamiltonian_is_real_in_product_basis).
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        couplings = [(0.0, 0.0), (0.8, 0.0), (0.0, 0.8)]
        couplings += [tuple(rng.uniform(0.0, 2.0, 2)) for _ in range(2)]
        for a1, a2 in couplings:
            cfg = SystemConfig(
                omega=float(rng.uniform(0.1, 3.0)),
                alpha1=float(a1),
                alpha2=float(a2),
                bath_size=n,
            )
            ham = build_hamiltonian(cfg)
            assert ham.dtype == np.float64
            assert ham.tobytes() == _kron_hamiltonian(cfg).real.tobytes()


def test_reduced_state_stays_physical():
    cfg = SystemConfig(omega=1.1, alpha1=1.0, alpha2=0.7, bath_size=2)
    ang = InitialStateAngles(theta=2.2, phi=5.0)
    for t in (0.0, 1.7, 4.4, 9.9):
        rho = evolve_reduced(cfg, ang, t)
        m = rho.matrix
        assert abs(np.trace(m).real - 1.0) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert rho.purity() <= 1.0 + 1e-12


def test_evolve_reduced_rejects_bad_time():
    cfg = SystemConfig(omega=1.0, alpha1=0.2, alpha2=0.2, bath_size=1)
    ang = InitialStateAngles(theta=1.0)
    with pytest.raises(ConfigError):
        evolve_reduced(cfg, ang, -1.0)
    with pytest.raises(ConfigError):
        evolve_reduced(cfg, ang, math.nan)
