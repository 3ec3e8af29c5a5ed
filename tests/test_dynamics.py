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
  and uniform grids (K ~ sqrt(n) nodes per anchor), the latter also against
  single-time calls on long grids, one of them summed in many sector
  chunks;
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
        lambda: literal_points(cfg, InitialStateAngles(theta=1.0), np.array([1e308, 0.0])),
        lambda: sector_rotation(v0, cfg, 0.5, 0.5, 1e308),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ConfigError, match=r"^time 1e\+308 too large: Gamma \* t overflows"):
                call()
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
    assert (dynamics._offsets_per_anchor(times) >= 2) == (n >= 4)
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

    def spy(t, k, *tables):
        blocks.append(k)
        return anchored(t, k, *tables)

    monkeypatch.setattr(dynamics, "_sums_by_anchors", spy)
    mats = rotation_matrices(cfg, times)
    assert len(blocks) == 1 and times.size // blocks[0] > 100
    k = blocks[0]
    # the last node of every block, farthest from its anchor, and the end
    picks = list(range(k - 1, times.size, k)) + list(range(times.size - 4, times.size))
    for j in picks:
        single = rotation_matrices(cfg, times[j : j + 1])
        assert np.max(np.abs(mats[j] - single[0])) <= 1e-13
    # one node moved by one ulp: no longer a linspace, so every node is
    # its own anchor
    nudged = times.copy()
    nudged[times.size // 2] = np.nextafter(nudged[times.size // 2], np.inf)
    per_node = rotation_matrices(cfg, nudged)
    assert blocks[-1] == 1
    assert np.max(np.abs(per_node - mats)) <= 1e-13


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
    ],
    ids=["n48", "n400"],
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
    # cached: 7.3 MB at n400, 2.5 MB of it kept.
    dynamics._sector_tables.cache_clear()
    assert traced_peak() < 16 * 2**20
    # The sum itself: a 512 KB offset table, an anchor block of at most
    # 512 KB, the (n, 8) sums and product and the (n, 3, 3) map: 1.7 MB at
    # n48, 1.1 MB at n400.
    assert traced_peak() < 3 * 2**20


def test_rotation_map_bytes_ignore_blas_threads_over_many_chunks():
    # N = 400 on 2298 nodes: 398 sector chunks, each one GEMM of the
    # (49, 174) anchor block with the (174, 376) offset table; and the
    # literal series at N = 150, whose 22801 sectors np.dot would split
    # over the BLAS threads
    code = (
        "import hashlib, numpy as np\n"
        "from frustra_gp import InitialStateAngles, SystemConfig, rotation_matrices\n"
        "from frustra_gp.dynamics import literal_points\n"
        "cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.2, bath_size=400)\n"
        "m = rotation_matrices(cfg, np.linspace(0.0, 5.0, 2298))\n"
        "print(hashlib.sha256(m.tobytes()).hexdigest())\n"
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
    lit = literal_points(
        SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.7, bath_size=150),
        InitialStateAngles(theta=1.1, phi=0.4),
        np.linspace(0.0, 5.0, 50),
    )
    assert [hashlib.sha256(x.tobytes()).hexdigest() for x in (mats, lit)] == one.split()


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
