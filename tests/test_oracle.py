"""Tests for the exact reference evolution by total-spin blocks.

The Hamiltonian spectrum tests derive the expected eigenvalues from
binomial counting alone (each magnetization sector contributes a pair
+/- Gamma(m1, m2)/2 with multiplicity zeta1 * zeta2), which never touches
the sector-sum code path under test elsewhere.  The block route is checked
against the dense Hamiltonian of complex kron chains (`_kron_hamiltonian`,
its spectrum and a literal partial trace of its evolution) at N <= 4, and
against the sector sum at N = 10 and 20.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustra_gp import (
    ConfigError,
    DimensionCapError,
    InitialStateAngles,
    OracleError,
    SystemConfig,
    TimeGrid,
    bloch_at,
    bloch_trajectory,
    evolve_reduced,
    initial_density,
    oracle_trajectory,
)
from frustra_gp.model import SIGMA_X, SIGMA_Y, SIGMA_Z
from frustra_gp.oracle import (
    MAX_EVOLUTION_BATH_SIZE,
    _SERIES_ELEMENTS,
    _block_hamiltonians,
    _block_stacks,
    _reduced_series,
    _spin_multiplicities,
)


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

    monkeypatch.setattr("frustra_gp.oracle._block_hamiltonians", no_allocation)
    cfg = SystemConfig(
        omega=1.0, alpha1=0.5, alpha2=0.5, bath_size=MAX_EVOLUTION_BATH_SIZE + 1
    )
    with pytest.raises(DimensionCapError):
        run(cfg, InitialStateAngles(theta=1.0))


def test_eigensolver_failure_is_an_oracle_error(monkeypatch):
    def no_convergence(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    cfg = SystemConfig(omega=2.0, alpha1=0.5, alpha2=0.5, bath_size=2)
    with pytest.raises(OracleError, match="block eigensolver failed: Eigenvalues did not"):
        oracle_trajectory(cfg, InitialStateAngles(theta=1.0), TimeGrid(1.0, 3))


def test_hamiltonian_shape_and_hermiticity():
    cfg = SystemConfig(omega=2.0, alpha1=0.7, alpha2=0.3, bath_size=2)
    for _, pairs in _block_stacks(cfg.bath_size):
        ham = _block_hamiltonians(cfg, pairs)
        dim = 2 * (pairs[0][0] + 1) * (pairs[0][1] + 1)
        assert ham.shape == (len(pairs), dim, dim)
        assert ham.dtype == np.float64
        assert np.array_equal(ham, ham.transpose(0, 2, 1))


def test_free_qubit_spectrum_frozen():
    # omega=2, no coupling, N=1: energies +/-1, each 4-fold (bath dim 4)
    cfg = SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.0, bath_size=1)
    energies = _block_spectrum(cfg)
    assert np.allclose(energies, [-1.0] * 4 + [1.0] * 4, atol=1e-14)


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


def _sector_spectrum(cfg):
    """+/- Gamma(m1, m2)/2 with multiplicity zeta1 * zeta2, sorted."""
    n = cfg.bath_size
    parts = []
    for k1 in range(n + 1):
        m1 = -n / 2.0 + k1
        for k2 in range(n + 1):
            m2 = -n / 2.0 + k2
            gamma = math.sqrt(cfg.omega**2 + (cfg.alpha1 * m1) ** 2 + (cfg.alpha2 * m2) ** 2)
            parts.append(np.repeat([-gamma / 2.0, gamma / 2.0], math.comb(n, k1) * math.comb(n, k2)))
    return np.sort(np.concatenate(parts))


@pytest.mark.parametrize("n_spins", [1, 2, 3, 8])
def test_block_stacks_are_listed_once_per_bath_size(n_spins):
    # one cached, read-only set of stacks per bath size, whose blocks hold
    # every bath state once: sum of d_j1 d_j2 (2 j1 + 1)(2 j2 + 1) / 4^N = 1
    stacks = _block_stacks(n_spins)
    assert _block_stacks(n_spins) is stacks
    shares = []
    for weights, pairs in stacks:
        assert not weights.flags.writeable
        shares.extend(w * (tj1 + 1) * (tj2 + 1) for w, (tj1, tj2) in zip(weights, pairs))
    assert math.fsum(shares) == 1.0


def _block_spectrum(cfg):
    """Every (j1, j2) block's eigenvalues, each repeated d_j1 * d_j2 times, sorted."""
    parts = []
    for weights, pairs in _block_stacks(cfg.bath_size):
        energies = np.linalg.eigvalsh(_block_hamiltonians(cfg, pairs))
        counts = weights * 4**cfg.bath_size
        assert np.array_equal(counts, np.rint(counts))
        parts.extend(np.repeat(e, int(c)) for e, c in zip(energies, counts))
    return np.sort(np.concatenate(parts))


def test_spectrum_matches_sector_frequencies():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3):
        cfg = SystemConfig(
            omega=float(rng.uniform(0.3, 2.0)),
            alpha1=float(rng.uniform(0.0, 1.5)),
            alpha2=float(rng.uniform(0.0, 1.5)),
            bath_size=n,
        )
        energies = np.linalg.eigvalsh(_kron_hamiltonian(cfg))
        assert np.max(np.abs(energies - _sector_spectrum(cfg))) < 1e-12


def test_block_spectra_match_dense_spectrum():
    rng = np.random.default_rng(73)
    for n in (1, 2, 3, 4):
        cfg = SystemConfig(
            omega=float(rng.uniform(0.3, 2.0)),
            alpha1=float(rng.uniform(0.0, 1.5)),
            alpha2=float(rng.uniform(0.0, 1.5)),
            bath_size=n,
        )
        dense = np.linalg.eigvalsh(_kron_hamiltonian(cfg))
        assert np.max(np.abs(_block_spectrum(cfg) - dense)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 8),
    omega=st.floats(0.1, 3.0),
    alpha1=st.floats(0.0, 2.0),
    alpha2=st.floats(0.0, 2.0),
)
def test_block_spectra_match_sector_frequencies(n, omega, alpha1, alpha2):
    cfg = SystemConfig(omega=omega, alpha1=alpha1, alpha2=alpha2, bath_size=n)
    assert np.max(np.abs(_block_spectrum(cfg) - _sector_spectrum(cfg))) < 1e-12


@given(n=st.integers(0, 200))
def test_spin_multiplicities_count_every_state(n):
    assert sum(d * (two_j + 1) for two_j, d in _spin_multiplicities(n)) == 2**n


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
    for n in (2, 4):
        # the largest block, D = 2 (N + 1)^2, is alone in its stack and takes
        # max(D, _SERIES_ELEMENTS // 4D) nodes per chunk (113 at N = 2, 50
        # at N = 4), so one node more crosses a chunk boundary
        dim = 2 * (n + 1) ** 2
        grid = TimeGrid(5.0, max(dim, _SERIES_ELEMENTS // (4 * dim)) + 1)
        cfg = SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=n)
        exact = oracle_trajectory(cfg, ang, grid)
        fast = bloch_trajectory(cfg, ang, grid)
        assert np.max(np.abs(exact.points - fast.points)) < 1e-12


@pytest.mark.parametrize("n, nodes", [(10, 21), (20, 3)])
def test_block_route_matches_sector_sum_at_headline_sizes(n, nodes):
    # At N = 20 the largest block is 882 x 882; its batch must not keep
    # every block's operators (measured traced peak: 84 MiB).
    cfg = SystemConfig(omega=2.0, alpha1=2.0 * 1.8 / math.sqrt(n), alpha2=0.5, bath_size=n)
    ang = InitialStateAngles(theta=1.1, phi=0.4)
    grid = TimeGrid(3.0, nodes)
    tracemalloc.start()
    try:
        exact = oracle_trajectory(cfg, ang, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fast = bloch_trajectory(cfg, ang, grid)
    assert np.max(np.abs(exact.points - fast.points)) < 1e-12
    assert peak < 100 * 2**20


def _literal_reduced(cfg, ang, times):
    """V e^{-iEt} V^dag rho(0) V e^{iEt} V^dag from a complex eigh, bath-traced."""
    energies, vectors = np.linalg.eigh(_kron_hamiltonian(cfg))
    bath_dim = 2**cfg.bath_size
    eye_mixed = np.eye(bath_dim) / bath_dim
    rho0 = np.kron(initial_density(ang).matrix, np.kron(eye_mixed, eye_mixed))
    for t in times:
        u = (vectors * np.exp(-1.0j * energies * t)) @ vectors.conj().T
        full = (u @ rho0 @ u.conj().T).reshape(2, bath_dim, bath_dim, 2, bath_dim, bath_dim)
        yield np.einsum("aijbij->ab", full)


def test_projected_series_matches_literal_partial_trace():
    rng = np.random.default_rng(113)
    grid = TimeGrid(19.0, 6)
    for n in (1, 2, 3, 4):
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
        literals = _literal_reduced(cfg, ang, grid.times())
        for t, point, literal in zip(grid.times(), points, literals):
            projected = evolve_reduced(cfg, ang, float(t)).matrix
            assert np.max(np.abs(projected - literal)) < 1e-13
            expected = [np.trace(literal @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
            assert np.max(np.abs(point - expected)) < 1e-13


def test_hamiltonian_is_real_in_product_basis():
    # sigma_y (x) J_y is a product of two imaginary matrices, so H is exactly
    # real and the oracle diagonalizes its blocks with a real eigensolver.
    # Checked on the complex kron construction, independent of the blocks.
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


def test_reduced_state_stays_physical():
    cfg = SystemConfig(omega=1.1, alpha1=1.0, alpha2=0.7, bath_size=2)
    ang = InitialStateAngles(theta=2.2, phi=5.0)
    for t in (0.0, 1.7, 4.4, 9.9):
        rho = evolve_reduced(cfg, ang, t)
        m = rho.matrix
        assert abs(np.trace(m).real - 1.0) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert rho.purity() <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    alpha1=st.floats(0.0, 2.0),
    alpha2=st.floats(0.0, 2.0),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2.0 * math.pi),
    t_end=st.floats(0.1, 50.0),
)
def test_block_reduced_state_is_physical(n, alpha1, alpha2, theta, phi, t_end):
    cfg = SystemConfig(omega=1.3, alpha1=alpha1, alpha2=alpha2, bath_size=n)
    ang = InitialStateAngles(theta=theta, phi=phi)
    grid = TimeGrid(t_end, 5)
    reduced = _reduced_series(cfg, ang, grid.times())
    assert np.max(np.abs(np.trace(reduced, axis1=1, axis2=2) - 1.0)) < 1e-12
    assert np.max(np.abs(reduced - reduced.conj().transpose(0, 2, 1))) < 1e-12
    points = oracle_trajectory(cfg, ang, grid).points
    assert np.max(np.linalg.norm(points, axis=1)) <= 1.0 + 1e-12


def test_evolve_reduced_rejects_bad_time():
    cfg = SystemConfig(omega=1.0, alpha1=0.2, alpha2=0.2, bath_size=1)
    ang = InitialStateAngles(theta=1.0)
    with pytest.raises(ConfigError):
        evolve_reduced(cfg, ang, -1.0)
    with pytest.raises(ConfigError):
        evolve_reduced(cfg, ang, math.nan)
