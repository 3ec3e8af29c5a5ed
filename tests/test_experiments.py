"""Tests for surfaces, strategy comparison, and the verification suite."""

import math

import numpy as np
import pytest

from frustra_gp import (
    AngleGrid,
    ConfigError,
    GpSurface,
    IndeterminatePhaseError,
    InitialStateAngles,
    PolarTrack,
    ResolutionError,
    SystemConfig,
    TimeGrid,
    angular_distance,
    auto_time_grid,
    bloch_trajectory,
    gp_closed_form,
    gp_surface,
    gp_unitary_reference,
    max_sector_freq,
    polar_track,
    rotation_matrices,
    strategy_compare,
    verify_suite,
)
from frustra_gp import dynamics, experiments, phase
from frustra_gp.phase import R_TOL, Azimuth, unwrap_azimuth

UNITARY_CFG = SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.0, bath_size=1)
MIXED_CFG = SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=2)
SMALL_GRID = AngleGrid(n_theta=9, n_phi=8, theta_min=0.3, theta_max=math.pi - 0.3)


def test_angle_grid_nodes():
    grid = AngleGrid()
    thetas = grid.thetas()
    phis = grid.phis()
    assert thetas.size == 61 and phis.size == 61
    assert thetas[0] == 0.05 and thetas[-1] == pytest.approx(math.pi - 0.05)
    assert phis[0] == 0.0 and phis[-1] < 2.0 * math.pi
    assert np.max(np.diff(phis)) == pytest.approx(2.0 * math.pi / 61.0)


def test_angle_grid_validation():
    with pytest.raises(ConfigError):
        AngleGrid(n_theta=1)
    with pytest.raises(ConfigError):
        AngleGrid(theta_min=1.0, theta_max=0.5)
    # theta bounds follow InitialStateAngles: 0 <= theta_min < theta_max <= pi
    poles = AngleGrid(n_theta=3, theta_min=0.0, theta_max=math.pi)
    assert poles.thetas().tolist() == [0.0, math.pi / 2.0, math.pi]
    AngleGrid(theta_min=0.0, theta_max=1.0)
    AngleGrid(theta_min=1.0, theta_max=math.pi)
    for lo, hi in ((-1e-300, 1.0), (1.0, math.nextafter(math.pi, 4.0)), (-0.1, 3.2)):
        with pytest.raises(ConfigError, match=r"^theta bounds must lie in \[0, pi\]$"):
            AngleGrid(theta_min=lo, theta_max=hi)


def test_max_sector_freq_frozen():
    cfg = SystemConfig(omega=2.0, alpha1=1.0, alpha2=0.0, bath_size=4)
    assert max_sector_freq(cfg) == pytest.approx(math.sqrt(8.0), abs=1e-15)
    # glibc's pow(x, 2) and x * x differ in the last bit here; every auto
    # grid is sized from this value, so it squares as the map's sector
    # tables do (x * x, in their order) and is the map's Gamma_max bit for bit
    cfg = SystemConfig(omega=1.0, alpha1=0.23, alpha2=0.05, bath_size=57)
    b1, b2 = 0.23 * 28.5, 0.05 * 28.5
    assert max_sector_freq(cfg) == math.sqrt(b1 * b1 + b2 * b2 + 1.0 * 1.0)
    assert max_sector_freq(cfg) == float(dynamics._sector_tables(cfg)[1][-1])
    assert max_sector_freq(cfg).hex() == "0x1.b2101057ea492p+2"


def test_auto_time_grid_resolves_fastest_sector():
    cfg = SystemConfig(omega=2.0, alpha1=1.0, alpha2=0.0, bath_size=4)
    grid = auto_time_grid(cfg, 50.0)
    expected = max(201, math.ceil(50.0 * 40 * math.sqrt(8.0) / (2.0 * math.pi)) + 1)
    assert grid.n_steps == expected
    assert grid.dt <= 2.0 * math.pi / (40 * max_sector_freq(cfg)) + 1e-15
    assert auto_time_grid(cfg, 0.1).n_steps == 201  # floor kicks in
    with pytest.raises(ConfigError):
        auto_time_grid(cfg, 0.0)
    with pytest.raises(ConfigError):
        auto_time_grid(cfg, 1.0, sampling_factor=0)


def test_grid_helpers_reject_overflowing_coupling():
    # Gamma_max^2 = 1 + (1e200 * 3/2)^2 is no finite float: the config is
    # refused when built, so neither helper can be handed it
    with pytest.raises(ConfigError, match="overflows"):
        max_sector_freq(SystemConfig(omega=1.0, alpha1=1e200, alpha2=0.0, bath_size=3))
    with pytest.raises(ConfigError, match="overflows"):
        auto_time_grid(
            SystemConfig(omega=1.0, alpha1=1e200, alpha2=0.0, bath_size=3), 50.0
        )
    # just inside the float range the widest sector's Gamma is finite
    edge = SystemConfig(omega=1.0, alpha1=1e153, alpha2=1e153, bath_size=3)
    assert max_sector_freq(edge) == pytest.approx(math.sqrt(4.5) * 1e153)


def test_unitary_surface_matches_reference():
    grid = AngleGrid(n_theta=7, n_phi=8, theta_min=0.3, theta_max=math.pi - 0.3)
    surf = gp_surface(UNITARY_CFG, grid, math.pi)
    refs = np.array([gp_unitary_reference(th) for th in grid.thetas()])
    assert np.max(angular_distance(surf.gamma, refs[:, None])) < 1e-6
    # phase cannot depend on phi in the decoupled limit
    assert np.max(surf.gamma.max(axis=1) - surf.gamma.min(axis=1)) < 1e-9
    assert np.all(surf.singular_count == 0)


def test_surface_shape_and_principal_range():
    surf = gp_surface(MIXED_CFG, SMALL_GRID, 5.0, time_steps=501)
    assert surf.gamma.shape == (9, 8)
    assert np.all(np.isfinite(surf.gamma))
    assert surf.gamma.min() >= -math.pi and surf.gamma.max() < math.pi
    assert surf.time_steps == 501
    assert not surf.gamma.flags.writeable


def test_surface_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        gp_surface(MIXED_CFG, SMALL_GRID, 5.0, threads=0)


def test_surface_deterministic_across_threads():
    # the second config shares one column series (alpha1 = alpha2)
    for cfg in (MIXED_CFG, SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.3, bath_size=2)):
        one = gp_surface(cfg, SMALL_GRID, 5.0, time_steps=501, threads=1)
        four = gp_surface(cfg, SMALL_GRID, 5.0, time_steps=501, threads=4)
        assert one.gamma.tobytes() == four.gamma.tobytes()
        assert one.gamma_unwrapped.tobytes() == four.gamma_unwrapped.tobytes()
        assert one.singular_count.tobytes() == four.singular_count.tobytes()


def test_equal_coupling_rows_are_bit_identical():
    # alpha1 = alpha2 makes M_xx = M_yy, so a cell's phase does not depend
    # on phi and every cell of a row is the same number.  That includes the
    # theta = pi/2 row of the decoupled surface at t = tau, whose cells lie
    # on the +-pi cut: they all fall on the same side of it.
    tau_grid = AngleGrid(n_theta=7, n_phi=8, theta_min=0.3, theta_max=math.pi - 0.3)
    cases = [
        (UNITARY_CFG, tau_grid, math.pi),
        (SystemConfig(omega=2.0, alpha1=0.25, alpha2=0.25, bath_size=20), AngleGrid(9, 21), 50.0),
        (SystemConfig(omega=2.0, alpha1=0.5, alpha2=0.5, bath_size=48), AngleGrid(5, 16), 5.0),
    ]
    surfaces = [gp_surface(cfg, grid, t) for cfg, grid, t in cases]
    for surf in surfaces:
        for arr in (surf.gamma, surf.gamma_unwrapped, surf.singular_count):
            for row in arr:
                assert len({cell.tobytes() for cell in row}) == 1, (surf.config, row)
    assert np.all(angular_distance(surfaces[0].gamma[3], math.pi) < 1e-12)


def test_shared_track_makes_its_passes_once_per_row(monkeypatch):
    # alpha1 = alpha2: the factored cells of a row share one track, which
    # keeps its connection sum, so the quadrature runs once for such a row;
    # each pole cell falls back to a track of its own.  Every cell still
    # makes its own gp_closed_form call.
    cfg = SystemConfig(omega=2.0, alpha1=0.4, alpha2=0.4, bath_size=3)
    grid = AngleGrid(n_theta=5, n_phi=6, theta_min=0.0, theta_max=math.pi)
    quadrature, closed_form = phase._trapezoid_on_chi, experiments.gp_closed_form
    sums, cells = [], []

    def quadrature_spy(dchi, integrand):
        sums.append(1)
        return quadrature(dchi, integrand)

    def closed_form_spy(track, *args, **kwargs):
        cells.append(1)
        return closed_form(track, *args, **kwargs)

    monkeypatch.setattr(phase, "_trapezoid_on_chi", quadrature_spy)
    monkeypatch.setattr(experiments, "gp_closed_form", closed_form_spy)
    gp_surface(cfg, grid, 5.0, time_steps=301, threads=1)
    assert len(cells) == grid.n_theta * grid.n_phi
    assert len(sums) == (grid.n_theta - 2) + 2 * grid.n_phi


def test_column_azimuth_is_summed_once_per_column(monkeypatch):
    # alpha1 != alpha2: each column builds one Azimuth, which sums its chi
    # increments and counts its singular nodes once; every factored cell of
    # the column builds its track on it.  No row of SMALL_GRID is a pole
    # row, so no cell falls back to a track of its own.  Every cell still
    # makes its own gp_closed_form call.
    azimuth_init, closed_form = phase.Azimuth.__post_init__, experiments.gp_closed_form
    sums, azimuths = [], []

    def azimuth_spy(self):
        sums.append(1)
        azimuth_init(self)

    def closed_form_spy(track, *args, **kwargs):
        azimuths.append(track.azimuth)
        return closed_form(track, *args, **kwargs)

    monkeypatch.setattr(phase.Azimuth, "__post_init__", azimuth_spy)
    monkeypatch.setattr(experiments, "gp_closed_form", closed_form_spy)
    gp_surface(MIXED_CFG, SMALL_GRID, 5.0, time_steps=301, threads=1)
    assert len(sums) == SMALL_GRID.n_phi
    assert len(azimuths) == SMALL_GRID.n_theta * SMALL_GRID.n_phi
    assert len({id(azimuth) for azimuth in azimuths}) == SMALL_GRID.n_phi


def test_unequal_coupling_cells_equal_hand_built_tracks_bit_for_bit():
    # alpha1 != alpha2: every cell's phase is gp_closed_form on a hand-built
    # PolarTrack of its factored series, the column's in-plane series scaled
    # by sin(theta) and A = cos(theta) M_zz (see the experiments module
    # docstring), bit for bit.
    cfg = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.7, bath_size=6)
    grid = AngleGrid(n_theta=5, n_phi=6)
    surf = gp_surface(cfg, grid, 20.0)
    tg = TimeGrid(20.0, surf.time_steps)
    rot = rotation_matrices(cfg, tg.times())
    mxx, mxy, myy, mzz = rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 1], rot[:, 2, 2]
    ux, uy = -np.sin(grid.phis()), np.cos(grid.phis())
    regular = np.zeros(tg.n_steps, dtype=bool)
    for j in range(grid.n_phi):
        x, y = ux[j] * mxx + uy[j] * mxy, uy[j] * myy - ux[j] * mxy
        rho2 = x * x + y * y
        dchi, jumps = unwrap_azimuth(np.arctan2(y, x))
        azimuth = Azimuth(tg, dchi, regular, jumps)
        for i, theta in enumerate(grid.thetas()):
            st, a = math.sin(theta), math.cos(theta) * mzz
            eps = np.sqrt((st * st) * rho2 + a * a)
            track = PolarTrack(azimuth, a, (a / 2.0) / eps + 0.5, eps)
            want = gp_closed_form(track)
            assert surf.gamma[i, j] == want.gamma, (i, j)
            assert surf.gamma_unwrapped[i, j] == want.gamma_unwrapped, (i, j)
            assert surf.singular_count[i, j] == 0


def test_surface_resolution_error_names_cell():
    theta, phi = float(SMALL_GRID.thetas()[0]), float(SMALL_GRID.phis()[0])
    ang = InitialStateAngles(theta=theta, phi=phi)
    with pytest.raises(ResolutionError) as cell:
        polar_track(bloch_trajectory(UNITARY_CFG, ang, TimeGrid(math.pi, 3)))
    with pytest.raises(ResolutionError) as sweep:
        gp_surface(UNITARY_CFG, SMALL_GRID, math.pi, time_steps=3)
    assert str(sweep.value) == f"cell theta={theta:.6f}, phi={phi:.6f}: {cell.value}"


def test_surface_indeterminate_cells_are_nan():
    # After a half turn an equator start sits opposite its origin, so the
    # closed-form bracket vanishes; the other rows keep a finite phase.
    half_turn = SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.0, bath_size=1)
    grid = AngleGrid(n_theta=3, n_phi=4, theta_min=0.5, theta_max=math.pi - 0.5)
    surf = gp_surface(half_turn, grid, math.pi / 2, time_steps=301)
    assert np.all(np.isnan(surf.gamma[1])) and np.all(np.isnan(surf.gamma_unwrapped[1]))
    assert np.all(surf.singular_count[1] == 0)
    for row in (0, 2):
        assert np.all(np.isfinite(surf.gamma[row]))
        assert np.all(np.isfinite(surf.gamma_unwrapped[row]))
    report = strategy_compare(
        [("a", half_turn), ("b", half_turn)], grid, math.pi / 2, time_steps=301
    )
    assert [e.missing_cells for e in report.entries] == [4, 4]


def test_surface_cells_match_single_trajectory_route(monkeypatch):
    # Every cell against its own trajectory.  The sweep shares each phi
    # column's azimuth and calls PolarTrack.from_points only for cells with
    # a node at R < 2 R_TOL.
    interior = AngleGrid(n_theta=5, n_phi=4, theta_min=0.3, theta_max=math.pi - 0.3)
    poles = AngleGrid(n_theta=5, n_phi=4, theta_min=0.0, theta_max=math.pi)
    near_pole = AngleGrid(n_theta=4, n_phi=4, theta_min=0.0, theta_max=6.6e-12)
    cases = [
        (cfg, grid, 5.0, steps)
        for cfg, steps in (
            (SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=3), 501),
            (SystemConfig(omega=2.0, alpha1=0.4, alpha2=0.4, bath_size=3), 301),
            (SystemConfig(omega=2.0, alpha1=0.7, alpha2=0.0, bath_size=3), 301),
            (SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.7, bath_size=2), 301),
        )
        for grid in (interior, poles, near_pole)
    ]
    n20 = SystemConfig(omega=2.0, alpha1=0.25, alpha2=0.25, bath_size=20)
    cases.append((n20, interior, 5.0, None))
    from_points = PolarTrack.from_points
    calls = []

    def spy(cls, points, grid):
        calls.append(1)
        return from_points(points, grid)

    margin_only = 0
    for cfg, grid, t, steps in cases:
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(PolarTrack, "from_points", classmethod(spy))
            surf = gp_surface(cfg, grid, t, time_steps=steps)
        tg = TimeGrid(t, surf.time_steps)
        deferred = 0
        for i, theta in enumerate(grid.thetas()):
            for j, phi in enumerate(grid.phis()):
                ang = InitialStateAngles(theta=float(theta), phi=float(phi))
                traj = bloch_trajectory(cfg, ang, tg)
                track = polar_track(traj)
                near = np.hypot(traj.points[:, 0], traj.points[:, 1]).min() / 2.0 < 2.0 * R_TOL
                deferred += near
                margin_only += near and not track.azimuth.singular.any()
                try:
                    res = gp_closed_form(track)
                except IndeterminatePhaseError:
                    assert np.isnan(surf.gamma[i, j]) and np.isnan(surf.gamma_unwrapped[i, j])
                    singular = int(np.count_nonzero(track.azimuth.singular))
                else:
                    assert abs(surf.gamma_unwrapped[i, j] - res.gamma_unwrapped) <= 1e-12
                    singular = res.diagnostics.singular_nodes
                assert surf.singular_count[i, j] == singular
        assert len(calls) == deferred, (cfg, grid)
        if grid is interior:
            assert deferred == 0
        else:
            assert deferred >= 2 * grid.n_phi
    # Some near-pole cells defer on the 2 R_TOL margin alone.
    assert margin_only > 0


def test_gp_surface_validation():
    ok = np.zeros((9, 8))
    with pytest.raises(ConfigError):
        GpSurface(
            grid=SMALL_GRID,
            config=MIXED_CFG,
            t=1.0,
            time_steps=10,
            gamma=np.zeros((3, 3)),
            gamma_unwrapped=ok,
            singular_count=np.zeros((9, 8), dtype=int),
        )
    with pytest.raises(ConfigError):
        GpSurface(
            grid=SMALL_GRID,
            config=MIXED_CFG,
            t=1.0,
            time_steps=10,
            gamma=np.full((9, 8), 4.0),  # outside [-pi, pi)
            gamma_unwrapped=ok.copy(),
            singular_count=np.zeros((9, 8), dtype=int),
        )


def test_single_bath_quarter_turn_symmetry():
    # coupling through J_y instead of I_x only shifts the azimuth origin:
    # gamma_(0,a)(theta, phi + pi/2) = gamma_(a,0)(theta, phi)
    grid = AngleGrid(n_theta=9, n_phi=16, theta_min=0.3, theta_max=math.pi - 0.3)
    x_cfg = SystemConfig(omega=2.0, alpha1=0.8, alpha2=0.0, bath_size=1)
    y_cfg = SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.8, bath_size=1)
    gx = gp_surface(x_cfg, grid, 6.0, time_steps=801).gamma
    gy = gp_surface(y_cfg, grid, 6.0, time_steps=801).gamma
    # n_phi = 16 makes phi + pi/2 a shift by exactly 4 columns
    assert np.max(angular_distance(np.roll(gy, -4, axis=1), gx)) < 1e-9
    assert np.max(np.abs(np.mean(np.abs(gy), axis=1) - np.mean(np.abs(gx), axis=1))) < 1e-12


def test_strategy_compare_validation():
    a = ("a", MIXED_CFG)
    with pytest.raises(ConfigError):
        strategy_compare([a], SMALL_GRID, 5.0)
    with pytest.raises(ConfigError):
        strategy_compare([a, ("a", MIXED_CFG)], SMALL_GRID, 5.0)
    other_omega = SystemConfig(omega=1.0, alpha1=0.6, alpha2=0.3, bath_size=2)
    with pytest.raises(ConfigError):
        strategy_compare([a, ("b", other_omega)], SMALL_GRID, 5.0)
    other_bath = SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=3)
    with pytest.raises(ConfigError):
        strategy_compare([a, ("b", other_bath)], SMALL_GRID, 5.0)
    with pytest.raises(ConfigError):
        strategy_compare([a, ("b", MIXED_CFG)], SMALL_GRID, 5.0, metric="median")


def test_strategy_compare_tie_breaks_by_label():
    report = strategy_compare(
        [("b", MIXED_CFG), ("a", MIXED_CFG)], SMALL_GRID, 5.0, time_steps=401
    )
    assert report.ranking == ("a", "b")
    assert report.winner == "a"
    assert report.time_steps == (401, 401)


def test_strategy_compare_metrics_and_winner():
    configs = [
        ("single", SystemConfig(omega=2.0, alpha1=1.0, alpha2=0.0, bath_size=2)),
        ("split", SystemConfig(omega=2.0, alpha1=0.5, alpha2=0.5, bath_size=2)),
    ]
    by_dist = strategy_compare(configs, SMALL_GRID, 10.0, time_steps=601)
    by_abs = strategy_compare(
        configs, SMALL_GRID, 10.0, metric="mean_abs_gp", time_steps=601
    )
    assert by_dist.winner == by_abs.winner  # winner pinned to the distance metric
    entries = {e.label: e for e in by_dist.entries}
    best = min(entries.values(), key=lambda e: e.mean_dist_to_unitary)
    assert by_dist.ranking[0] == best.label
    ranked_abs = [entries[lbl].mean_abs_gp for lbl in by_abs.ranking]
    assert ranked_abs == sorted(ranked_abs, reverse=True)
    d = by_dist.to_dict()
    assert d["winner"] == by_dist.winner
    assert d["n_theta"] == 9 and d["n_phi"] == 8
    assert len(d["entries"]) == 2
    assert d["entries"][0]["missing_cells"] == 0


def test_verify_suite_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        verify_suite(seed=-1)


def test_verify_suite_passes():
    report = verify_suite()
    names = [c.name for c in report.checks]
    assert names == [
        "oracle_vs_analytic",
        "unitary_limit_gp",
        "closed_form_vs_holonomy",
        "literal_norm_ratio",
        "south_pole_consistency",
        "sector_weight_normalization",
    ]
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.measured} > {check.tolerance}"
    assert report.all_passed
    assert report.runtime_s < 60.0
    d = report.to_dict()
    assert d["all_passed"] is True
    assert len(d["checks"]) == 6
    ratio = next(c for c in report.checks if c.name == "literal_norm_ratio")
    assert ratio.measured == pytest.approx(0.5, abs=1e-12)
