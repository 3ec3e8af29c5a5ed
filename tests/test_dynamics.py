"""Unit tests for the sector-sum reduced dynamics.

Oracles used here, independent of the implementation under test:
- single-sector rotations are cross-checked against a matrix exponential
  built by eigendecomposition of the Hermitian generator i*K (K the cross-
  product matrix), computed inside the test;
- the vectorized trajectory is cross-checked against a scalar loop that
  sums sector_rotation results with math.fsum weighting, also at the
  headline bath sizes N = 20 and 48;
- the folded rotation map is property-tested against the unfolded
  (S, 3, 3) full-sector formula, written out inside this file, at both of
  its block lengths: arbitrary times (K = 1, every node its own anchor)
  and grids uniform to within a few ulp (K ~ sqrt(n) nodes per anchor),
  the latter also against single-time calls on long grids, one of them
  summed in many sector chunks;
- the central-difference move of the anchored sums onto their times is
  checked against the move along exact derivative sums, which the same
  kernel sums from the derivative rows of the sector tables;
- the verbatim polarization transcription is cross-checked against the
  rotation-sum identity it must equal.

One test runs the map in fresh interpreters, to compare its bytes at two
OpenBLAS thread counts.
"""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frustra_gp import (
    BlochTrajectory,
    BlochVector,
    ConfigError,
    InitialStateAngles,
    PolarTrack,
    SystemConfig,
    TimeGrid,
    angular_distance,
    auto_time_grid,
    bloch_at,
    bloch_trajectory,
    gamma_freq,
    gp_closed_form,
    initial_bloch,
    literal_points,
    literal_polarizations,
    polar_track,
    rotation_matrices,
    sector_rotation,
    sector_weights,
)
from frustra_gp import dynamics

SRC = Path(__file__).resolve().parent.parent / "src"


def _random_config(rng, n_max=6):
    return SystemConfig(
        omega=float(rng.uniform(0.2, 2.5)),
        alpha1=float(rng.uniform(0.0, 2.0)),
        alpha2=float(rng.uniform(0.0, 2.0)),
        bath_size=int(rng.integers(1, n_max + 1)),
    )


def _random_angles(rng):
    return InitialStateAngles(
        theta=float(rng.uniform(0.0, math.pi)),
        phi=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def test_time_grid_validation():
    grid = TimeGrid(2.0, 5)
    times = grid.times()
    assert times.shape == (5,)
    assert times[0] == 0.0 and times[-1] == 2.0
    assert grid.dt == pytest.approx(0.5, abs=1e-15)
    # every grid samples from t = 0
    assert TimeGrid(5.0, 3).times().tobytes() == np.linspace(0.0, 5.0, 3).tobytes()
    with pytest.raises(TypeError):
        TimeGrid(t_start=0.0, t_end=5.0, n_steps=3)
    for t_end in (0.0, -1.0):
        with pytest.raises(ConfigError, match="^t_end must be positive$"):
            TimeGrid(t_end, 5)
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 1)
    with pytest.raises(ConfigError):
        TimeGrid(math.inf, 5)


def test_gamma_freq_frozen():
    cfg = SystemConfig(omega=2.0, alpha1=1.0, alpha2=0.5, bath_size=4)
    # sqrt(4 + 1*4 + 0.25*1) at (m1, m2) = (2, 1)
    assert gamma_freq(cfg, 2.0, 1.0) == pytest.approx(math.sqrt(8.25), abs=1e-15)
    assert gamma_freq(cfg, 0.0, 0.0) == pytest.approx(2.0, abs=1e-15)


def test_sector_rotation_quarter_turn_frozen():
    # pure Larmor sector: +y rotates to -x after a quarter period
    cfg = SystemConfig(omega=1.0, alpha1=0.0, alpha2=0.0, bath_size=1)
    v = sector_rotation(BlochVector(0.0, 1.0, 0.0), cfg, 0.0, 0.0, math.pi / 2)
    assert np.allclose(v.as_array(), [-1.0, 0.0, 0.0], atol=1e-15)


def test_sector_rotation_full_period_returns_start():
    rng = np.random.default_rng(7)
    for _ in range(5):
        cfg = _random_config(rng)
        m1 = float(rng.integers(-2, 3)) / 2.0
        m2 = float(rng.integers(-2, 3)) / 2.0
        gamma = gamma_freq(cfg, m1, m2)
        v0 = initial_bloch(_random_angles(rng))
        v = sector_rotation(v0, cfg, m1, m2, 2.0 * math.pi / gamma)
        assert np.max(np.abs(v.as_array() - v0.as_array())) < 1e-12


def test_sector_rotation_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        cfg = _random_config(rng)
        m1 = float(rng.integers(-4, 5)) / 2.0
        m2 = float(rng.integers(-4, 5)) / 2.0
        t = float(rng.uniform(0.0, 8.0))
        b = np.array([cfg.alpha1 * m1, cfg.alpha2 * m2, cfg.omega])
        gamma = np.linalg.norm(b)
        n = b / gamma
        # R = expm(t * Gamma * K) via eigh of the Hermitian i*K
        k = np.array(
            [[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]]
        )
        evals, evecs = np.linalg.eigh(1j * k)
        rot = (evecs * np.exp(-1j * gamma * t * evals)) @ evecs.conj().T
        v0 = initial_bloch(_random_angles(rng))
        expected = np.real(rot @ v0.as_array())
        got = sector_rotation(v0, cfg, m1, m2, t).as_array()
        assert np.max(np.abs(got - expected)) < 1e-12


def test_trajectory_starts_at_initial_bloch():
    rng = np.random.default_rng(3)
    for _ in range(5):
        cfg = _random_config(rng)
        ang = _random_angles(rng)
        traj = bloch_trajectory(cfg, ang, TimeGrid(3.0, 7))
        assert np.max(np.abs(traj.points[0] - initial_bloch(ang).as_array())) < 1e-14


@pytest.mark.parametrize(
    "bath_size, alpha1, alpha2, grid",
    [
        (20, 0.3, 0.7, TimeGrid(50.0, 4001)),
        (48, 0.5, 0.5, TimeGrid(50.0, 5441)),
        # K = 1: fewer than 4 nodes take every node as its own anchor
        (3, 1.0, 0.0, TimeGrid(5.0, 3)),
    ],
    ids=["n20", "gp-n48", "three-nodes"],
)
def test_map_entries_and_trajectory_components_are_contiguous(
    bath_size, alpha1, alpha2, grid
):
    # The map is stored entry-major and the points component-major, so
    # every series that later passes read is one contiguous row; the points
    # are still M v0 from the map's five nonzero entries, bit for bit.
    cfg = SystemConfig(omega=2.0, alpha1=alpha1, alpha2=alpha2, bath_size=bath_size)
    ang = InitialStateAngles(theta=1.1, phi=0.4)
    m = rotation_matrices(cfg, grid.times())
    assert m.shape == (grid.n_steps, 3, 3)
    assert all(m[:, i, k].flags.c_contiguous for i in range(3) for k in range(3))
    points = bloch_trajectory(cfg, ang, grid).points
    assert points.shape == (grid.n_steps, 3)
    assert all(points[:, i].flags.c_contiguous for i in range(3))
    x, y, z = initial_bloch(ang).as_array()
    expected = np.column_stack(
        [
            m[:, 0, 0] * x + m[:, 0, 1] * y,
            m[:, 1, 0] * x + m[:, 1, 1] * y,
            m[:, 2, 2] * z,
        ]
    )
    assert points.tobytes() == expected.tobytes()


def _scalar_sector_sum(cfg, ang, t):
    ladder = sector_weights(cfg.bath_size)
    v0 = initial_bloch(ang)
    acc = [[], [], []]
    for s1 in ladder:
        for s2 in ladder:
            rotated = sector_rotation(v0, cfg, s1.m, s2.m, t).as_array()
            weight = s1.w * s2.w
            for axis in range(3):
                acc[axis].append(weight * rotated[axis])
    return np.array([math.fsum(parts) for parts in acc])


def test_bloch_at_matches_scalar_sector_sum():
    rng = np.random.default_rng(29)
    for _ in range(6):
        cfg = _random_config(rng, n_max=4)
        ang = _random_angles(rng)
        t = float(rng.uniform(0.0, 10.0))
        got = bloch_at(cfg, ang, t).as_array()
        assert np.max(np.abs(got - _scalar_sector_sum(cfg, ang, t))) < 1e-13


@pytest.mark.parametrize("bath_size", [20, 48])
def test_bloch_at_matches_scalar_sector_sum_at_headline_sizes(bath_size):
    # the split-vs-single claim is made at these N, so the folded sum is
    # checked there against every unfolded sector, one at a time
    rng = np.random.default_rng(bath_size)
    for alpha1, alpha2 in [(0.25, 0.25), (1.0, 0.0), (0.5, 0.9)]:
        cfg = SystemConfig(omega=2.0, alpha1=alpha1, alpha2=alpha2, bath_size=bath_size)
        ang = _random_angles(rng)
        for t in (0.7, 13.3, 50.0):
            got = bloch_at(cfg, ang, t).as_array()
            assert np.max(np.abs(got - _scalar_sector_sum(cfg, ang, t))) < 1e-13


def test_bloch_at_rejects_negative_time():
    cfg = SystemConfig(omega=1.0, alpha1=0.0, alpha2=0.0, bath_size=1)
    with pytest.raises(ConfigError):
        bloch_at(cfg, InitialStateAngles(theta=1.0), -0.5)


def test_norm_contraction():
    rng = np.random.default_rng(47)
    for _ in range(10):
        cfg = _random_config(rng)
        ang = _random_angles(rng)
        traj = bloch_trajectory(cfg, ang, TimeGrid(12.0, 101))
        norms = np.linalg.norm(traj.points, axis=1)
        assert norms.max() <= 1.0 + 1e-12


def test_unitary_limit_preserves_norm():
    cfg = SystemConfig(omega=1.7, alpha1=0.0, alpha2=0.0, bath_size=3)
    traj = bloch_trajectory(cfg, InitialStateAngles(theta=0.8, phi=1.0), TimeGrid(9.0, 301))
    norms = np.linalg.norm(traj.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-13


def test_trajectory_from_map_refuses_a_map_off_its_grid():
    cfg = SystemConfig(omega=1.7, alpha1=0.4, alpha2=0.2, bath_size=3)
    grid = TimeGrid(9.0, 301)
    m = rotation_matrices(cfg, grid.times())
    v0 = initial_bloch(InitialStateAngles(theta=0.8, phi=1.0)).as_array()
    for bad in (m[:-1], m[:, :2]):
        with pytest.raises(ConfigError, match="rotation map must have shape"):
            BlochTrajectory.from_map(grid, bad, v0)


def test_rotation_matrices_contractive_and_identity_at_zero():
    rng = np.random.default_rng(11)
    cfg = _random_config(rng)
    times = np.linspace(0.0, 8.0, 25)
    mats = rotation_matrices(cfg, times)
    assert np.max(np.abs(mats[0] - np.eye(3))) < 1e-14
    spectral = np.linalg.svd(mats, compute_uv=False)[:, 0]
    assert spectral.max() <= 1.0 + 1e-12



def test_rotation_matrices_of_no_times_is_an_empty_map():
    cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.2, bath_size=3)
    ang = InitialStateAngles(theta=1.0, phi=0.4)
    assert rotation_matrices(cfg, np.array([])).shape == (0, 3, 3)
    assert literal_points(cfg, ang, np.array([])).shape == (0, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rotation_matrices_reject_non_finite_times(bad):
    # bloch_at and literal_polarizations refuse such a time; the map and the
    # literal series must not turn it into NaN entries
    cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.2, bath_size=3)
    with pytest.raises(ConfigError, match="times must be finite"):
        rotation_matrices(cfg, np.array([0.0, 1.0, bad]))
    with pytest.raises(ConfigError, match="times must be finite"):
        literal_points(cfg, InitialStateAngles(theta=1.0), np.array([0.0, bad]))


def test_time_whose_rotation_angle_overflows_is_refused_before_the_map():
    # 1e308 is finite, but Gamma t is not: the map used to take cos and sin
    # of inf (three RuntimeWarnings) and return NaN entries
    cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.2, bath_size=3)
    v0 = initial_bloch(InitialStateAngles(theta=1.0))
    calls = (
        lambda: rotation_matrices(cfg, np.array([0.0, 1e308])),
        lambda: rotation_matrices(cfg, np.array([0.0, -1e308])),  # named by |t|
        lambda: literal_points(cfg, InitialStateAngles(theta=1.0), np.array([1e308, 0.0])),
        lambda: sector_rotation(v0, cfg, 0.5, 0.5, 1e308),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ConfigError, match=r"^time 1e\+308 too large: Gamma \* t overflows"):
                call()
        # a single time is refused as negative before its angle is checked
        with pytest.raises(ConfigError, match=r"^t must be finite and >= 0$"):
            sector_rotation(v0, cfg, 0.5, 0.5, -1e308)
    # a span past the floats has no step (its dt overflows), so each node
    # is its own anchor, without an overflow warning on the way
    tiny = SystemConfig(omega=1e-150, alpha1=0.0, alpha2=0.0, bath_size=1)
    wide = np.array([-1e308, 0.0, 1.0, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _layout(wide)[2] is None
        assert np.isfinite(rotation_matrices(tiny, wide)).all()
    # the largest time that keeps Gamma_max t finite still evaluates
    gamma_max = float(np.sqrt(4.0 + 0.45**2 + 0.3**2))
    assert np.isfinite(rotation_matrices(cfg, np.array([1e308 / gamma_max]))).all()


def test_sector_whose_gamma_overflows_is_refused_by_its_eigenvalues():
    # gamma_freq used to raise OverflowError from a float square, and
    # sector_rotation to warn about the overflow and then blame the time
    cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.2, bath_size=2)
    v0 = initial_bloch(InitialStateAngles(theta=1.0))
    calls = (
        lambda: gamma_freq(cfg, 1e300, 0.0),  # one square past the floats
        lambda: gamma_freq(cfg, 4e154, 4e154),  # each square finite, their sum not
        lambda: sector_rotation(v0, cfg, 1e308, 0.0, 1.0),
        lambda: sector_rotation(v0, cfg, 0.0, 1e308, 1e308),  # before the time
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ConfigError, match=r"^m1 = \S+, m2 = \S+ too large: Gamma\^2 overflows$"):
                call()
    # at a tenth of those eigenvalues Gamma^2 is a float again
    assert math.isfinite(gamma_freq(cfg, 4e153, 4e153))


def _unfolded_rotation_matrices(cfg, times):
    """Every (m1, m2) sector's R = c I + s K + (1 - c) n n^T, weighted and summed."""
    ladder = sector_weights(cfg.bath_size)
    m = np.array([s.m for s in ladder])
    w = np.array([s.w for s in ladder])
    m1 = np.repeat(m, m.size)
    m2 = np.tile(m, m.size)
    weights = np.repeat(w, w.size) * np.tile(w, w.size)
    bx = cfg.alpha1 * m1
    by = cfg.alpha2 * m2
    bz = np.full_like(bx, cfg.omega)
    gammas = np.sqrt(bx * bx + by * by + bz * bz)
    axes = np.stack([bx, by, bz], axis=1) / gammas[:, None]
    k_mats = np.zeros((gammas.size, 3, 3))
    k_mats[:, 0, 1] = -axes[:, 2]
    k_mats[:, 0, 2] = axes[:, 1]
    k_mats[:, 1, 0] = axes[:, 2]
    k_mats[:, 1, 2] = -axes[:, 0]
    k_mats[:, 2, 0] = -axes[:, 1]
    k_mats[:, 2, 1] = axes[:, 0]
    p_mats = axes[:, :, None] * axes[:, None, :]
    phases = np.outer(times, gammas)
    cosv = np.cos(phases)
    sinv = np.sin(phases)
    out = np.einsum("n,ij->nij", (cosv * weights).sum(axis=1), np.eye(3))
    out += np.einsum("ns,sij->nij", sinv * weights, k_mats)
    out += np.einsum("ns,sij->nij", (1.0 - cosv) * weights, p_mats)
    return out


_couplings = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(
    omega=st.floats(0.05, 5.0),
    alpha1=_couplings,
    alpha2=_couplings,
    bath_size=st.integers(1, 21),
    times=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
)
def test_folded_rotation_map_properties(omega, alpha1, alpha2, bath_size, times):
    cfg = SystemConfig(omega=omega, alpha1=alpha1, alpha2=alpha2, bath_size=bath_size)
    times = np.array([0.0] + times)
    mats = rotation_matrices(cfg, times)
    for i, j in [(0, 2), (1, 2), (2, 0), (2, 1)]:
        assert np.all(mats[:, i, j] == 0.0)
    assert np.array_equal(mats[:, 0, 1], -mats[:, 1, 0])
    assert np.max(np.abs(mats[0] - np.eye(3))) <= 1e-15
    assert np.linalg.norm(mats, ord=2, axis=(1, 2)).max() <= 1.0 + 1e-12
    assert np.max(np.abs(mats - _unfolded_rotation_matrices(cfg, times))) <= 1e-13


def _layout(times):
    """_time_layout of times as rotation_matrices takes it: (anchors, offsets, r, dt)."""
    return dynamics._time_layout(*dynamics._checked_times(times))


_coupling_pairs = st.one_of(
    st.floats(0.0, 3.0).map(lambda a: (a, a)),  # swapped sectors merge
    st.tuples(st.floats(0.0, 3.0), st.just(0.0)),  # one ladder merges
    st.tuples(st.just(0.0), st.floats(0.0, 3.0)),
    st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
)


@settings(max_examples=40, deadline=None)
@given(
    omega=st.floats(0.05, 5.0),
    pair=_coupling_pairs,
    bath_size=st.integers(1, 21),
    t_start=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    span=st.floats(1e-3, 50.0),
    n=st.integers(2, 3000),
)
# the largest Gamma t the draws reach: read at a + o without the residual
# term, the map is 1.3e-13 off the reference here (5.7e-14 with it)
@example(omega=5.0, pair=(0.0, 0.0), bath_size=21, t_start=50.0, span=50.0, n=3000)
@example(omega=2.0, pair=(0.5, 0.5), bath_size=20, t_start=0.0, span=50.0, n=2999)
def test_uniform_grid_rotation_map_properties(omega, pair, bath_size, t_start, span, n):
    cfg = SystemConfig(omega=omega, alpha1=pair[0], alpha2=pair[1], bath_size=bath_size)
    times = np.linspace(t_start, t_start + span, n)
    # every grid of 4 or more nodes runs blocks of K >= 2 nodes per anchor
    assert (_layout(times)[1].size >= 2) == (n >= 4)
    mats = rotation_matrices(cfg, times)
    for i, j in [(0, 2), (1, 2), (2, 0), (2, 1)]:
        assert np.all(mats[:, i, j] == 0.0)
    assert np.array_equal(mats[:, 0, 1], -mats[:, 1, 0])
    if t_start == 0.0:
        assert np.max(np.abs(mats[0] - np.eye(3))) <= 1e-15
    assert np.linalg.norm(mats, ord=2, axis=(1, 2)).max() <= 1.0 + 1e-12
    assert np.max(np.abs(mats - _unfolded_rotation_matrices(cfg, times))) <= 1e-13


@pytest.mark.parametrize(
    "alpha1, alpha2, n_nodes",
    [
        # one bath: 101 distinct Gamma in 5 sector chunks, 179 blocks
        (1.0, 0.0, 31839),
        # split budget: 3737 distinct Gamma in 99 sector chunks of 38
        (0.25, 0.25, 11273),
    ],
    ids=["one-bath", "split"],
)
def test_uniform_grid_map_has_no_drift_on_long_grids(monkeypatch, alpha1, alpha2, n_nodes):
    # N = 200 on the auto grid to t = 50
    cfg = SystemConfig(omega=2.0, alpha1=alpha1, alpha2=alpha2, bath_size=200)
    times = auto_time_grid(cfg, 50.0).times()
    assert times.size == n_nodes
    blocks = []
    anchored = dynamics._sums_by_anchors

    def spy(anchors, offsets, *tables):
        blocks.append(offsets.size)
        return anchored(anchors, offsets, *tables)

    monkeypatch.setattr(dynamics, "_sums_by_anchors", spy)
    mats = rotation_matrices(cfg, times)
    assert len(blocks) == 1 and times.size // blocks[0] > 100
    k = blocks[0]
    # the last node of every block, farthest from its anchor, and the end
    picks = list(range(k - 1, times.size, k)) + list(range(times.size - 4, times.size))
    for j in picks:
        single = rotation_matrices(cfg, times[j : j + 1])
        assert np.max(np.abs(mats[j] - single[0])) <= 1e-13
    # one node moved by one ulp: no longer a linspace, but its residual is
    # still within the guard, so the grid keeps its anchors
    nudged = times.copy()
    nudged[times.size // 2] = np.nextafter(nudged[times.size // 2], np.inf)
    moved = rotation_matrices(cfg, nudged)
    assert blocks[-1] == k
    assert np.max(np.abs(moved - mats)) <= 1e-13


def test_linspace_residuals_stay_within_half_the_guard():
    # np.linspace reaches 2 ulp of max|t| against anchor plus offset, and
    # its anchors 1.5 against times[0] + lo dt, at most half the guard:
    # ascending and descending, from 0 and later, up to 4e4 nodes
    rng = np.random.default_rng(37)
    draws = [(0.0, 50.0, 40000, False), (50.0, 200.0, 40000, True), (1e-3, 1e-3, 4, False)]
    for _ in range(2000):
        t_start = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 50.0)
        span = 10.0 ** rng.uniform(-3.0, math.log10(200.0))
        n = int(10.0 ** rng.uniform(math.log10(4.0), math.log10(4e4)))
        draws.append((t_start, span, n, rng.random() < 0.5))
    worst = 0.0
    for t_start, span, n, descending in draws:
        ends = (t_start + span, t_start) if descending else (t_start, t_start + span)
        times = np.linspace(*ends, n)
        anchors, offsets, r, dt = _layout(times)
        k = offsets.size
        assert k == math.isqrt(n)
        drift = anchors - (np.arange(0, n, k) * dt + times[0])
        ulp = np.spacing(np.max(np.abs(times)))
        worst = max(worst, np.max(np.abs(r)) / ulp, np.max(np.abs(drift)) / ulp)
    assert 1.0 <= worst <= dynamics._RESIDUAL_ULPS / 2.0


def test_grids_uniform_to_a_few_ulp_keep_their_anchors():
    # arange steps and a linspace with one node nudged by one ulp are not
    # np.linspace bit for bit, but every residual is within the guard
    cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.7, bath_size=5)
    grids = [
        t_start + np.arange(n) * step
        for t_start, n, step in ((0.0, 4, 0.1), (3.0, 17, 0.1), (0.5, 17, 0.01), (3.0, 1000, 1 / 1300))
    ]
    for n in (4, 1000, 40000):
        nudged = np.linspace(3.0, 20.0, n)
        nudged[n // 2] = np.nextafter(nudged[n // 2], np.inf)
        grids.append(nudged)
    for times in grids:
        n = times.size
        assert not np.array_equal(times, np.linspace(times[0], times[-1], n))
        _, offsets, r, _ = _layout(times)
        assert offsets.size == math.isqrt(n) and r is not None
        mats = rotation_matrices(cfg, times)
        assert np.max(np.abs(mats - _unfolded_rotation_matrices(cfg, times))) <= 1e-13


def test_irregular_times_are_each_their_own_anchor():
    # random and geometric steps leave residuals far past the guard; equal
    # times leave none, but have no step to move the nodes by.  Blocks that
    # are each uniform but displaced from one another leave no residual
    # either: their anchors, off times[0] + lo dt, refuse the layout, whose
    # central differences would span a block boundary's whole gap
    cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.7, bath_size=6)
    rng = np.random.default_rng(37)
    # 100 uniform blocks of 100 nodes, the first 50 packed 0.99 steps
    # closer each, so the 51st opens a gap of about 50 steps; at the node
    # before it, 3 ulp of residual moved the map by 2.4e-13 across that gap
    packed = np.repeat(np.where(np.arange(100) < 50, -0.99e-3 * np.arange(100), 0.0), 100)
    gapped = 30.0 + np.arange(10000) * 1e-3 + packed
    for _ in range(3):
        gapped[4999] = np.nextafter(gapped[4999], np.inf)
    grids = [
        np.sort(rng.uniform(0.0, 30.0, 400)),
        np.geomspace(1e-3, 30.0, 400),
        np.full(9, 2.5),
        np.zeros(4),
        # the middle block moved to t = 1, out of order
        np.array([0.0, 1e-9, 2e-9, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 6e-9, 7e-9, 8e-9]),
        # ascending, the middle block half a step late
        np.array([0.0, 1.0, 2.0, 3.5, 4.5, 5.5, 6.0, 7.0, 8.0]),
        gapped,
    ]
    for times in grids:
        anchors, offsets, r, dt = _layout(times)
        assert anchors.tobytes() == times.tobytes() and offsets.tolist() == [0.0]
        assert r is None and dt == 0.0
        mats = rotation_matrices(cfg, times)
        assert np.max(np.abs(mats - _unfolded_rotation_matrices(cfg, times))) <= 1e-13


@pytest.mark.parametrize(
    "bath_size, alpha1, alpha2, t_end, n_nodes",
    [
        # the auto grid to t = 50: 5441 nodes against 625 folded sectors
        # (273 distinct Gamma); the unfolded map peaked near 500 MB here
        (48, 0.5, 0.5, 50.0, 5441),
        # the auto grid to t = 5: blocks of 47 nodes against 34623 distinct
        # Gamma in 398 sector chunks; building every chunk's offset table
        # up front would take 200 MB here
        (400, 0.3, 0.2, 5.0, 2298),
        # the auto grid to t = 5 at equal couplings: six rows against 13788
        # distinct Gamma in 159 sector chunks
        (400, 0.25, 0.25, 5.0, 2253),
    ],
    ids=["n48", "n400", "n400-equal"],
)
def test_rotation_matrices_peak_memory_is_bounded(bath_size, alpha1, alpha2, t_end, n_nodes):
    cfg = SystemConfig(omega=2.0, alpha1=alpha1, alpha2=alpha2, bath_size=bath_size)
    times = np.linspace(0.0, t_end, n_nodes)

    def traced_peak():
        tracemalloc.start()
        try:
            assert rotation_matrices(cfg, times).shape == (n_nodes, 3, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The first call also builds the config's sector tables, O(S) and
    # cached: 6.3 MB at n400, 1.3 MB of it kept; 3.9 MB at n400-equal.
    dynamics._sector_tables.cache_clear()
    assert traced_peak() < 16 * 2**20
    # The sum itself: an offset table of at most 128 KB, an anchor block of
    # at most 512 KB, the (n, 4) result, sums and product ((n, 3) at equal
    # couplings), their move onto the times and the (n, 3, 3) map: 0.72 MB
    # at n48, 0.56 MB at n400, 0.47 MB at n400-equal.
    assert traced_peak() < 3 * 2**20


def test_rotation_map_bytes_ignore_blas_threads_over_many_chunks():
    # N = 400 on 2298 nodes: 806 sector chunks, each one GEMM of the
    # (49, 86) anchor block with the (86, 188) offset table; gp-n48's map
    # (N = 48, alpha1 = alpha2 = 1/2 on 5441 nodes to t = 50): 10 chunks,
    # each a (75, 56) block with a (56, 219) three-row table, and a
    # trajectory on it, whose points are formed from the map's entry rows;
    # N = 30, (0.3, 0.7) on 371 nodes to t = 5, 3 chunks of (20, 214) @
    # (214, 76), where (20, 430) @ (430, 152) products sum in another order
    # at 2 threads; N = 200 to t = 50 at (0.3, 0.7) on 24252 nodes and at
    # (1/4, 1/4) on 11273, whose (157, 26) @ (26, 620) chunk products
    # (2.5 M multiply-adds) are issued in blocks of anchor rows, and
    # N = 400 at (1/4, 1/4) on 9008 nodes to t = 20; and the literal series
    # at N = 150, whose 22801 sectors np.dot would split over the BLAS
    # threads
    large = [
        (200, (0.3, 0.7), 50.0, 24252),
        (200, (0.25, 0.25), 50.0, 11273),
        (400, (0.25, 0.25), 20.0, 9008),
    ]
    code = (
        "import hashlib, numpy as np\n"
        "from frustra_gp import (\n"
        "    InitialStateAngles, SystemConfig, TimeGrid, bloch_trajectory, rotation_matrices\n"
        ")\n"
        "from frustra_gp.dynamics import literal_points\n"
        "cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.2, bath_size=400)\n"
        "m = rotation_matrices(cfg, np.linspace(0.0, 5.0, 2298))\n"
        "print(hashlib.sha256(m.tobytes()).hexdigest())\n"
        "cfg = SystemConfig(omega=2.0, alpha1=0.5, alpha2=0.5, bath_size=48)\n"
        "m = rotation_matrices(cfg, np.linspace(0.0, 50.0, 5441))\n"
        "print(hashlib.sha256(m.tobytes()).hexdigest())\n"
        "ang = InitialStateAngles(theta=1.1, phi=0.4)\n"
        "p = bloch_trajectory(cfg, ang, TimeGrid(50.0, 5441)).points\n"
        "print(hashlib.sha256(p.tobytes()).hexdigest())\n"
        "cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.7, bath_size=30)\n"
        "m = rotation_matrices(cfg, np.linspace(0.0, 5.0, 371))\n"
        "print(hashlib.sha256(m.tobytes()).hexdigest())\n"
        f"for size, (a1, a2), t, n in {large!r}:\n"
        "    cfg = SystemConfig(omega=2.0, alpha1=a1, alpha2=a2, bath_size=size)\n"
        "    m = rotation_matrices(cfg, np.linspace(0.0, t, n))\n"
        "    print(hashlib.sha256(m.tobytes()).hexdigest())\n"
        "cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.7, bath_size=150)\n"
        "ang = InitialStateAngles(theta=1.1, phi=0.4)\n"
        "p = literal_points(cfg, ang, np.linspace(0.0, 5.0, 50))\n"
        "print(hashlib.sha256(p.tobytes()).hexdigest())\n"
    )

    def digest(threads):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    one = digest("1")
    assert one == digest("2")
    cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.2, bath_size=400)
    mats = rotation_matrices(cfg, np.linspace(0.0, 5.0, 2298))
    cfg48 = SystemConfig(omega=2.0, alpha1=0.5, alpha2=0.5, bath_size=48)
    gp_n48 = rotation_matrices(cfg48, np.linspace(0.0, 50.0, 5441))
    gp_n48_points = bloch_trajectory(
        cfg48, InitialStateAngles(theta=1.1, phi=0.4), TimeGrid(50.0, 5441)
    ).points
    n30 = rotation_matrices(
        SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.7, bath_size=30),
        np.linspace(0.0, 5.0, 371),
    )
    large_maps = [
        rotation_matrices(
            SystemConfig(omega=2.0, alpha1=a1, alpha2=a2, bath_size=size),
            np.linspace(0.0, t, n),
        )
        for size, (a1, a2), t, n in large
    ]
    lit = literal_points(
        SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.7, bath_size=150),
        InitialStateAngles(theta=1.1, phi=0.4),
        np.linspace(0.0, 5.0, 50),
    )
    digests = [
        hashlib.sha256(x.tobytes()).hexdigest()
        for x in (mats, gp_n48, gp_n48_points, n30, *large_maps, lit)
    ]
    assert digests == one.split()


def test_single_x_bath_map_commutes_with_half_turn_about_z():
    # sectors at +/-m pair up, so the reduced map commutes with
    # diag(-1, -1, 1) whenever only one bath couples
    cfg = SystemConfig(omega=2.0, alpha1=0.9, alpha2=0.0, bath_size=3)
    s = np.diag([-1.0, -1.0, 1.0])
    times = np.linspace(0.0, 11.0, 17)
    for m in rotation_matrices(cfg, times):
        assert np.max(np.abs(s @ m @ s - m)) < 1e-14


@pytest.mark.parametrize("bath_size", [48, 100, 400])
def test_equal_couplings_give_m_yy_equal_to_m_xx_bit_for_bit(bath_size):
    # alpha1 = alpha2: swapping the baths takes sector (m1, m2) to (m2, m1)
    # with the same weight and Gamma, so M_yy = M_xx, and the sector tables
    # make it exact on a uniform grid (anchored) and on arbitrary times
    # (every node its own anchor)
    rng = np.random.default_rng(bath_size)
    uniform = np.linspace(0.0, 20.0, 2001)
    arbitrary = np.sort(rng.uniform(0.0, 20.0, 200))
    for alpha in (0.25, 0.5, 1.0):
        cfg = SystemConfig(omega=2.0, alpha1=alpha, alpha2=alpha, bath_size=bath_size)
        for times in (uniform, arbitrary):
            mats = rotation_matrices(cfg, times)
            assert mats[:, 1, 1].tobytes() == mats[:, 0, 0].tobytes()


def _four_row_tables(coef, lift):
    """An alpha1 = alpha2 config's three-row tables with the x row copied into y."""
    rows = [0, 0, 1, 2]
    return coef[rows], lift[rows]


def _sums_at(times, gammas, coef, lift):
    """The sector sums at times, as rotation_matrices takes them."""
    anchors, offsets, r, dt = _layout(times)
    sums = dynamics._sums_by_anchors(anchors, offsets, gammas, coef, lift)[:, : times.size]
    if r is not None:
        dynamics._onto_times(sums, r, dt)
    return sums


def _map_sums(mats):
    """M_xx, M_yy, M_zz and M_yx: total minus the x, y and z sums, then the xy sum."""
    return np.stack([mats[:, 0, 0], mats[:, 1, 1], mats[:, 2, 2], mats[:, 1, 0]])


@pytest.mark.parametrize("bath_size", [1, 3, 48, 400])
def test_equal_couplings_sum_three_rows_to_the_bytes_of_four(bath_size):
    # alpha1 = alpha2 drops the y row; putting a copy of the x row back
    # must not move a bit of the x, z and xy sums, and both give the map
    cfg = SystemConfig(omega=2.0, alpha1=0.5, alpha2=0.5, bath_size=bath_size)
    total, gammas, coef, lift = dynamics._sector_tables(cfg)
    assert coef.shape == (3, gammas.size) and lift.shape == (3,)
    rng = np.random.default_rng(bath_size)
    uniform = np.linspace(0.0, 20.0, 2001)
    arbitrary = np.sort(rng.uniform(0.0, 20.0, 200))
    for times in (uniform, arbitrary, TimeGrid(3.0, 2).times()):
        x, z, xy = _sums_at(times, gammas, coef, lift)
        four = _sums_at(times, gammas, *_four_row_tables(coef, lift))
        mats = _map_sums(rotation_matrices(cfg, times))
        three = np.stack([total - x, total - x, total - z, xy])
        assert three.tobytes() == mats.tobytes()
        four[:3] = total - four[:3]
        assert four.tobytes() == mats.tobytes()


def _merged_tables(cfg):
    """Sector tables by the unfolded ladder, np.unique and np.add.at.

    Every folded sector's rows are scattered onto its distinct Gamma^2 by
    np.add.at, whether or not it shares that Gamma^2 with another.
    """
    ladder = [s for s in sector_weights(cfg.bath_size) if s.m >= 0.0]
    m = np.array([s.m for s in ladder])
    w = np.array([s.w if s.m == 0.0 else 2.0 * s.w for s in ladder])
    bx2 = np.repeat((cfg.alpha1 * m) ** 2, m.size)
    by2 = np.tile((cfg.alpha2 * m) ** 2, m.size)
    bz2 = cfg.omega * cfg.omega
    gammas2 = bx2 + by2 + bz2
    weights = np.repeat(w, w.size) * np.tile(w, w.size)
    rows = [weights * ((by2 + bz2) / gammas2)]
    if cfg.alpha1 != cfg.alpha2:
        rows.append(weights * ((bx2 + bz2) / gammas2))
    rows.append(weights * ((bx2 + by2) / gammas2))
    rows.append(weights * (cfg.omega / np.sqrt(gammas2)))
    distinct2, sector = np.unique(gammas2, return_inverse=True)
    merged = np.zeros((distinct2.size, len(rows)))
    np.add.at(merged, sector, np.column_stack(rows))
    wc, wz = merged[:, :-1], merged[:, -1]
    coef = np.vstack([-wc.T, wz])
    lift = np.append(wc.sum(axis=0), 0.0)
    return float(weights.sum()), np.sqrt(distinct2), coef, lift, gammas2.size


def test_sector_tables_equal_the_scattered_tables_bit_for_bit():
    # The tables scatter (size, size) broadcasts of the cached ladder; they
    # must give the bytes of scattering the repeated and tiled ladder written
    # out here.  Seeded draws at N <= 4 have no equal Gamma^2 (bar alpha =
    # 0); the fixed couplings merge rows (equal couplings, one bath) or not.
    rng = np.random.default_rng(36)
    configs = [_random_config(rng, n_max=4) for _ in range(200)]
    configs += [
        SystemConfig(omega=2.0, alpha1=a1, alpha2=a2, bath_size=n)
        for n in (4, 20, 48, 100)
        for a1, a2 in ((1.0, 0.0), (0.0, 1.0), (0.25, 0.25), (0.5, 0.5), (0.3, 0.2))
    ]
    dynamics._sector_tables.cache_clear()
    merged = distinct = 0
    for cfg in configs:
        total, gammas, coef, lift, sectors = _merged_tables(cfg)
        built = dynamics._sector_tables(cfg)
        assert built[0] == total
        for got, want in zip(built[1:], (gammas, coef, lift)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        merged += gammas.size < sectors
        distinct += gammas.size == sectors
    assert merged >= 16 and distinct >= 150


def test_folded_ladder_is_built_once_per_bath_size(monkeypatch):
    # Configs of one bath size share one folded ladder: building their
    # tables reads sector_weights once per size, not once per config.
    calls = []

    def spy(bath_size):
        calls.append(bath_size)
        return sector_weights(bath_size)

    monkeypatch.setattr(dynamics, "sector_weights", spy)
    dynamics._sector_tables.cache_clear()
    dynamics._folded_ladder.cache_clear()
    for n in (3, 4, 3, 4):
        for alpha in (0.1, 0.2, 0.3):
            dynamics._sector_tables(SystemConfig(2.0, alpha, 0.7, n))
    assert calls == [3, 4]
    m, w = dynamics._folded_ladder(4)
    assert not m.flags.writeable and not w.flags.writeable


def test_six_rows_round_like_eight_where_the_blas_changes_kernel():
    # 279 nodes in blocks of 16 against 273 distinct Gamma in chunks of
    # 128: each product is 18 x 256 x 48 multiply-adds with the three rows
    # of alpha1 = alpha2 and 18 x 256 x 64 with four.  OpenBLAS picks its
    # kernel by the product's size, and kernels may sum in different
    # orders; at this width both sizes round alike.
    cfg = SystemConfig(omega=2.0, alpha1=0.25, alpha2=0.25, bath_size=48)
    times = auto_time_grid(cfg, 5.0).times()
    assert times.size == 279
    total, gammas, coef, lift = dynamics._sector_tables(cfg)
    assert _layout(times)[1].size == 16
    four = _sums_at(times, gammas, *_four_row_tables(coef, lift))
    four[:3] = total - four[:3]
    mats = _map_sums(rotation_matrices(cfg, times))
    assert mats[1].tobytes() == mats[0].tobytes()
    assert four.tobytes() == mats.tobytes()


def _derivative_sums(anchors, offsets, gammas, coef):
    """d/dt of the value rows at the anchored times, by the same kernel.

    A cos row a has the derivative row -a Gamma against sin, and the xy
    row b (against sin) the row b Gamma against cos; the kernel takes one
    sin row, the last, so each diagonal row is its own call.
    """
    rows = []
    for a in coef[:-1]:
        pair = np.stack([coef[-1] * gammas, -a * gammas])
        d_xy, d_a = dynamics._sums_by_anchors(anchors, offsets, gammas, pair, np.zeros(2))
        rows.append(d_a)
    return np.stack(rows + [d_xy])


@pytest.mark.parametrize(
    "bath_size, alpha1, alpha2, times",
    [
        (48, 0.5, 0.5, np.linspace(0.0, 50.0, 5441)),
        (400, 0.3, 0.2, np.linspace(0.0, 5.0, 2298)),
        # Gamma_max dt = 6.2: D is no estimate of the derivative at all
        (20, 0.3, 0.7, np.linspace(0.0, 50.0, 64)),
        (20, 0.3, 0.7, np.linspace(50.0, 0.0, 2001)),
        (20, 0.3, 0.7, np.linspace(3.0, 20.0, 1001)),
    ],
    ids=["gp-n48", "n400", "coarse", "decreasing", "from-3"],
)
def test_central_difference_moves_nodes_like_the_exact_derivative(
    bath_size, alpha1, alpha2, times
):
    # Against the exact derivative on the same anchored sums, the move r D
    # is off by at most |r| max|dV/dt| min(2, (Gamma_max dt)^2 / 3), and
    # min(4, ...) at the last node, which the one-sided formula moves; plus
    # 2 ulp for rounding the two moves.
    cfg = SystemConfig(omega=2.0, alpha1=alpha1, alpha2=alpha2, bath_size=bath_size)
    _, gammas, coef, lift = dynamics._sector_tables(cfg)
    n = times.size
    anchors, offsets, residuals, step = _layout(times)
    k = offsets.size
    assert k == math.isqrt(n)
    anchored = dynamics._sums_by_anchors(anchors, offsets, gammas, coef, lift)[:, :n]
    moved = anchored.copy()
    dynamics._onto_times(moved, residuals, step)
    deriv = _derivative_sums(anchors, offsets, gammas, coef)[:, :n]
    dt = (times[-1] - times[0]) / (n - 1)
    b = np.arange(n) % k
    r = (times - times[np.arange(n) - b]) - b * dt
    assert step == dt and residuals.tobytes() == r.tobytes()
    assert np.count_nonzero(r) > n // 10 and np.max(np.abs(r)) < 1e-13
    exact = anchored + r * deriv
    err = np.abs(moved - exact)
    slope = np.abs(r) * np.max(np.abs(deriv), axis=1, keepdims=True)
    ulps = 2.0 * np.spacing(np.abs(exact))
    spread = (gammas[-1] * dt) ** 2 / 3.0
    inside = slope[:, :-1] * min(2.0, spread) + ulps[:, :-1]
    assert np.all(err[:, :-1] <= inside)
    assert np.all(err[:, -1] <= slope[:, -1] * min(4.0, spread) + ulps[:, -1])
    if spread < 1.0:
        # without the move, the anchored sums are off by r dV/dt itself
        assert np.max(np.abs(anchored - exact)) > 4.0 * np.max(err)


def test_literal_points_match_rotation_identity():
    # the printed component sums regroup exactly into -1/2 of the sector
    # rotation sum applied to the x-reflected start vector
    rng = np.random.default_rng(83)
    for _ in range(8):
        cfg = _random_config(rng)
        ang = _random_angles(rng)
        times = np.linspace(0.0, 9.0, 33)
        lit = literal_points(cfg, ang, times)
        st, ct = math.sin(ang.theta), math.cos(ang.theta)
        u0 = np.array([st * math.sin(ang.phi), st * math.cos(ang.phi), ct])
        expected = -0.5 * np.einsum("nij,j->ni", rotation_matrices(cfg, times), u0)
        assert np.max(np.abs(lit - expected)) < 1e-12


def test_literal_series_is_half_the_physical_map_at_reflected_angles():
    # The start (pi - theta, pi - phi) has Bloch vector -u0 of the test above,
    # so the literal series is 1/2 of a physical trajectory, and the phase,
    # invariant under positive rescaling, is the physical phase there.
    rng = np.random.default_rng(89)
    grid = TimeGrid(9.0, 2001)
    for _ in range(8):
        cfg = _random_config(rng)
        ang = InitialStateAngles(
            theta=float(rng.uniform(0.2, math.pi - 0.2)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        lit = literal_points(cfg, ang, grid.times())
        reflected = InitialStateAngles(theta=math.pi - ang.theta, phi=math.pi - ang.phi)
        phys = bloch_trajectory(cfg, reflected, grid)
        assert np.max(np.abs(lit - 0.5 * phys.points)) < 1e-12
        lit_gp = gp_closed_form(PolarTrack.from_points(lit, grid), require_pure=False)
        phys_gp = gp_closed_form(polar_track(phys), reflected)
        assert angular_distance(lit_gp.gamma, phys_gp.gamma) < 1e-12


def test_literal_initial_norm_is_half():
    cfg = SystemConfig(omega=2.0, alpha1=0.5, alpha2=0.5, bath_size=3)
    rng = np.random.default_rng(97)
    for _ in range(5):
        ang = _random_angles(rng)
        lit = literal_polarizations(cfg, ang, 0.0).as_array()
        assert np.linalg.norm(lit) == pytest.approx(0.5, abs=1e-15)


def test_trajectory_validation():
    grid = TimeGrid(1.0, 3)
    with pytest.raises(ConfigError):
        BlochTrajectory(grid=grid, points=np.zeros((4, 3)))  # wrong length
    bad_norm = np.array([[0.0, 1.0, 0.0], [0.0, 1.4, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ConfigError):
        BlochTrajectory(grid=grid, points=bad_norm)
    mixed_start = np.array([[0.0, 0.5, 0.0], [0.0, 0.5, 0.0], [0.0, 0.5, 0.0]])
    with pytest.raises(ConfigError):
        BlochTrajectory(grid=grid, points=mixed_start)
    not_finite = np.array([[0.0, 1.0, 0.0], [0.0, math.nan, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ConfigError, match="non-finite points"):
        BlochTrajectory(grid=grid, points=not_finite)


# Rows of any float components up to 1e150, whose squares sum without
# overflow, or seeded Gaussian rows at scales 1e-300 to 1e150; most of them
# rescaled into the ball or to within 3 ulp of the 1 + 1e-12 and 1 -+ 1e-10
# bounds, where the order of the three squares' sum can move the decision.
_component = st.floats(min_value=-1e150, max_value=1e150)
_gaussian_row = st.builds(
    lambda seed, scale: np.random.default_rng(seed).standard_normal(3) * scale,
    st.integers(0, 2**32),
    st.sampled_from([1e-300, 1e-8, 1.0, 1e150]),
)
_near_bound = st.builds(
    lambda b, ulps: b + ulps * np.spacing(b),
    st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-10, 1.0 + 1e-10]),
    st.integers(-3, 3),
)
_Z = np.array([0.0, 0.0, 1.0])


@st.composite
def _trajectory_row(draw):
    any_floats = st.tuples(_component, _component, _component).map(np.array)
    row = draw(st.one_of(any_floats, _gaussian_row))
    norm = float(np.linalg.norm(row))
    length = draw(st.one_of(_near_bound, _near_bound, st.floats(0.0, 1.0), st.none()))
    if 0.0 < norm and length is not None:
        row = row / norm * length
    return row


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(_trajectory_row(), min_size=2, max_size=4))
@example(rows=[np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.0, 1.0 + 1e-12])])
@example(rows=[np.array([0.0, 0.0, 1.0 - 1e-10]), np.array([0.0, 0.0, 1e-300])])
@example(rows=[np.array([1e150, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])])
# rows on either side of a bound whose decision the order of the squares'
# sum moves: summed in any other order (or by hypot) the first is refused
# and the second accepted, and likewise for each pair of starts
@example(rows=[_Z, np.array([-0.5805151768237155, -0.7416639657929774, -0.3360605471095411])])
@example(rows=[_Z, np.array([0.0734508128983291, 0.779168546156764, 0.6224960680731484])])
@example(rows=[np.array([-0.6151634096312266, -0.1656866948046576, 0.7707930321529847]), _Z])
@example(rows=[np.array([0.5233419573686301, 0.19055219242116792, 0.8305438323297918]), _Z])
@example(rows=[np.array([-0.9711947381301632, -0.20652977807089098, -0.1188538244999806]), _Z])
@example(rows=[np.array([0.09634965390045612, -0.9951058139073042, -0.021935439843864767]), _Z])
def test_trajectory_refuses_exactly_what_the_norm_rule_refuses(rows):
    pts = np.array(rows)
    norms = np.linalg.norm(pts, axis=1)
    grid = TimeGrid(1.0, len(rows))
    if norms.max() > 1.0 + 1e-12 or abs(norms[0] - 1.0) > 1e-10:
        with pytest.raises(ConfigError, match="Bloch ball|Bloch sphere"):
            BlochTrajectory(grid=grid, points=pts)
    else:
        assert BlochTrajectory(grid=grid, points=pts).points.tobytes() == pts.tobytes()
