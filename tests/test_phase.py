"""Tests for the geometric-phase extraction routes.

The quantitative anchor is a synthetic spiral leaving the south pole,
chi(t) = t and theta_t(t) = 0.15 t on t in [0, 4], whose pole-form phase
integrates in closed form to

    gamma = integral_0^4 sin^2(0.075 t) dt = 2 - sin(0.6) / 0.3
          = 0.117858422016549,

derived by hand before any of the code below existed.  All three extraction
routes must land on it, and the general closed form must sit exactly
2*pi below the pole form in unreduced value there.
"""

import dataclasses
import inspect
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frustra_gp import (
    Azimuth,
    ConfigError,
    GpDiagnostics,
    GpResult,
    IndeterminatePhaseError,
    InitialStateAngles,
    PolarTrack,
    PreconditionError,
    ResolutionError,
    SystemConfig,
    TimeGrid,
    angular_distance,
    bloch_trajectory,
    gp_closed_form,
    gp_discrete_holonomy,
    gp_south_pole,
    gp_unitary_reference,
    pancharatnam_phase,
    polar_track,
    principal_value,
)
from frustra_gp import phase
from frustra_gp.dynamics import BlochTrajectory

SPIRAL_GAMMA = 0.117858422016549  # 2 - sin(0.6)/0.3

UNITARY_CFG = SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.0, bath_size=1)


def _spiral_trajectory(n_steps=20001, t_end=4.0):
    grid = TimeGrid(t_end, n_steps)
    t = grid.times()
    beta = 0.15 * t  # polar angle measured from the south pole
    pts = np.column_stack(
        [np.sin(beta) * np.cos(t), np.sin(beta) * np.sin(t), -np.cos(beta)]
    )
    return BlochTrajectory(grid=grid, points=pts)


def test_principal_value_frozen_points():
    assert principal_value(math.pi) == -math.pi
    assert principal_value(-math.pi) == -math.pi
    assert principal_value(3.0 * math.pi) == -math.pi
    assert principal_value(0.0) == 0.0
    assert principal_value(1.0) == 1.0
    out = principal_value(np.array([0.0, math.pi, -3.0 * math.pi]))
    assert np.array_equal(out, [0.0, -math.pi, -math.pi])
    # exact remainders that a floor((x + pi) / TWO_PI) reduction misses
    assert principal_value(5020369408244.841) == 3.141180491973678
    assert principal_value(-1e15) == -2.1486798353953063


def test_principal_value_of_non_finite_array_is_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = principal_value(np.array([math.inf, -math.inf, math.nan, 1.0]))
        scalars = [principal_value(x) for x in (math.inf, -math.inf, math.nan)]
    assert np.isnan(out[:3]).all() and out[3] == 1.0
    assert all(type(x) is float and math.isnan(x) for x in scalars)


def test_principal_value_randomized_containment():
    rng = np.random.default_rng(2024)
    x = rng.uniform(-1e6, 1e6, size=4000)
    p = principal_value(x)
    assert np.all(p >= -math.pi) and np.all(p < math.pi)
    k = np.round((x - p) / (2.0 * math.pi))
    assert np.max(np.abs(x - p - 2.0 * math.pi * k)) < 1e-9


def test_principal_value_scalar_is_builtin_float():
    rng = np.random.default_rng(77)
    values = [math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, 0.0, 1.0,
              2.0 * math.pi, math.nextafter(math.pi, 0.0), 1e6 + 0.5, -1e15]
    values += list(rng.uniform(-1e6, 1e6, size=200))
    as_array = principal_value(np.array(values))
    assert isinstance(as_array, np.ndarray) and as_array.dtype == np.float64
    for value, expected in zip(values, as_array):
        for given_value in (float(value), np.float64(value)):
            out = principal_value(given_value)
            assert type(out) is float
            assert out == expected
            assert -math.pi <= out < math.pi
    assert principal_value(3) == principal_value(3.0)
    # a 0-d array is a scalar too
    zero_d = principal_value(np.array(7.0))
    assert type(zero_d) is float and zero_d == principal_value(7.0)
    # Comparisons of the result are plain bools, so reports stay JSON.
    json.dumps({"gamma": principal_value(np.float64(7.0)),
                "passed": principal_value(np.float64(7.0)) <= 1.0})
    assert math.isnan(principal_value(math.nan))
    assert math.isnan(principal_value(math.inf))


def _check_principal_value(x):
    out = principal_value(x)
    assert type(out) is float
    assert np.float64(out).tobytes() == principal_value(np.array([x]))[0].tobytes()
    assert -math.pi <= out < math.pi
    # the exact remainder: x - out is a whole number of turns of TWO_PI
    turns = (Fraction(x) - Fraction(out)) / Fraction(2.0 * math.pi)
    assert turns.denominator == 1


# x - TWO_PI * floor((x + pi) / TWO_PI) misses the exact remainder here:
# by more than a turn at 1.1430261876889298e17, by 4.2e-4 at
# 5020369408244.841 and by 0.024 at -1e15.
@example(x=1.1430261876889298e17)
@example(x=-1.1430261876889298e17)
@example(x=5020369408244.841)
@example(x=-1e15)
@example(x=1e6 + 0.5)
@example(x=sys.float_info.max)
@example(x=-sys.float_info.max)
@example(x=5e-324)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_principal_value_of_any_finite_float(x):
    _check_principal_value(x)


@example(k=0)
@example(k=-1)
@example(k=2**52)
@given(k=st.integers(-(2**60), 2**60))
def test_principal_value_beside_odd_multiples_of_pi(k):
    odd = (2 * k + 1) * math.pi
    for x in (math.nextafter(odd, -math.inf), odd, math.nextafter(odd, math.inf)):
        _check_principal_value(x)


def test_angular_distance_properties():
    assert angular_distance(0.1, 0.1 + 2.0 * math.pi) < 1e-12
    assert angular_distance(-math.pi + 0.01, math.pi - 0.01) == pytest.approx(
        0.02, abs=1e-12
    )
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-20, 20, size=(2, 200))
    d = angular_distance(a, b)
    assert np.all(d >= 0.0) and np.all(d <= math.pi + 1e-12)
    assert np.max(np.abs(d - angular_distance(b, a))) == 0.0


def test_polar_track_precession_frozen():
    # decoupled limit: A, theta_t, eps constant; chi advances linearly
    traj = bloch_trajectory(
        UNITARY_CFG, InitialStateAngles(theta=1.2, phi=0.5), TimeGrid(math.pi, 2001)
    )
    track = polar_track(traj)
    assert np.max(np.abs(track.A - math.cos(1.2))) < 1e-13
    assert np.max(np.abs(track.eps_plus - 1.0)) < 1e-13
    assert np.max(np.abs(track.theta_t - (math.pi - 1.2))) < 1e-12
    # the track keeps increments only; the start azimuth is read off the points
    x0, y0 = traj.points[0, :2]
    assert math.atan2(y0, x0) == pytest.approx(0.5 + math.pi / 2.0, abs=1e-12)
    assert np.max(np.abs(track.azimuth.dchi - 2.0 * np.diff(traj.grid.times()))) < 1e-12
    assert float(np.sum(track.azimuth.dchi)) == pytest.approx(2.0 * math.pi, abs=1e-10)
    assert not track.azimuth.singular.any()


def test_polar_track_unwrap_recovers_linear_azimuth():
    traj = bloch_trajectory(
        UNITARY_CFG, InitialStateAngles(theta=0.8, phi=0.3), TimeGrid(3.0 * math.pi, 3001)
    )
    track = polar_track(traj)
    times = traj.grid.times()
    assert np.max(np.abs(track.azimuth.dchi - 2.0 * np.diff(times))) < 1e-9
    # the running sum of the increments is the linear azimuth from its start
    assert np.max(np.abs(np.cumsum(track.azimuth.dchi) - 2.0 * (times[1:] - times[0]))) < 1e-9
    assert track.azimuth.unwrap_jumps >= 2


def test_polar_track_eps_identity():
    rng = np.random.default_rng(21)
    for _ in range(5):
        cfg = SystemConfig(
            omega=float(rng.uniform(0.3, 2.0)),
            alpha1=float(rng.uniform(0.0, 1.5)),
            alpha2=float(rng.uniform(0.0, 1.5)),
            bath_size=int(rng.integers(1, 5)),
        )
        ang = InitialStateAngles(
            theta=float(rng.uniform(0.1, math.pi - 0.1)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        traj = bloch_trajectory(cfg, ang, TimeGrid(7.0, 301))
        track = polar_track(traj)
        assert np.max(np.abs(track.eps_plus - np.linalg.norm(traj.points, axis=1))) < 1e-12
        # theta_t is measured from the south pole of the branch direction
        assert np.max(np.abs(np.cos(track.theta_t) + track.A / track.eps_plus)) < 1e-12


def test_polar_track_rejects_coarse_grid():
    traj = bloch_trajectory(
        UNITARY_CFG, InitialStateAngles(theta=1.2, phi=0.0), TimeGrid(math.pi, 3)
    )
    with pytest.raises(ResolutionError):
        polar_track(traj)


def _arc_points(n):
    """n unit Bloch vectors on the equator, 0.1 rad apart."""
    chi = 0.1 * np.arange(n)
    return np.column_stack([np.cos(chi), np.sin(chi), np.zeros(n)])


def _with_azimuth(track, **changes):
    """track on a copy of its azimuth with `changes` to the azimuth's fields."""
    return dataclasses.replace(track, azimuth=dataclasses.replace(track.azimuth, **changes))


def test_from_points_rejects_non_finite_and_miscounted_points():
    grid = TimeGrid(1.0, 5)
    pts = _arc_points(5)
    assert PolarTrack.from_points(pts, grid).n_steps == 5
    for bad in (math.nan, math.inf, -math.inf):
        broken = pts.copy()
        broken[2, 1] = bad
        with pytest.raises(ConfigError):
            PolarTrack.from_points(broken, grid)
    for wrong in (pts[:2], pts[:, :2], np.vstack([pts, pts[:1]])):
        with pytest.raises(ConfigError):
            PolarTrack.from_points(wrong, grid)


def test_polar_track_rejects_misshapen_dchi():
    for n in (2, 5):
        base = PolarTrack.from_points(_arc_points(n), TimeGrid(1.0, n))
        # n entries is the old absolute-azimuth length, one too many
        for dchi in (np.zeros(n), np.zeros(n - 2), np.zeros((n - 1, 1)), np.zeros((1, n - 1))):
            with pytest.raises(ConfigError):
                _with_azimuth(base, dchi=dchi)
        assert _with_azimuth(base, dchi=np.zeros(n - 1)).azimuth.dchi.shape == (n - 1,)


def test_polar_track_stores_array_likes_as_read_only_arrays():
    base = polar_track(_spiral_trajectory(n_steps=801))
    listed = _with_azimuth(base, dchi=list(base.azimuth.dchi))
    assert isinstance(listed.azimuth.dchi, np.ndarray)
    assert not listed.azimuth.dchi.flags.writeable
    assert np.array_equal(listed.azimuth.dchi, base.azimuth.dchi)
    want, got = gp_closed_form(base), gp_closed_form(listed)
    assert (got.gamma, got.gamma_unwrapped) == (want.gamma, want.gamma_unwrapped)
    # an ndarray is stored as given, frozen
    dchi = np.array(base.azimuth.dchi)
    assert _with_azimuth(base, dchi=dchi).azimuth.dchi is dchi and not dchi.flags.writeable


def test_polar_track_rejects_node_arrays_that_miss_its_grid():
    base = PolarTrack.from_points(_arc_points(5), TimeGrid(1.0, 5))
    three = PolarTrack.from_points(_arc_points(3), TimeGrid(1.0, 3))
    cases = (
        ("A", three, dict(azimuth=base.azimuth)),  # every start series 3 nodes, grid 5
        ("eps_plus", base, dict(eps_plus=base.eps_plus[:1])),
        ("sin2_half", base, dict(sin2_half=base.sin2_half[:4])),
    )
    for name, track, changes in cases:
        with pytest.raises(ConfigError, match=rf"^{name} must have shape \(5,\)$"):
            gp_closed_form(dataclasses.replace(track, **changes))
    with pytest.raises(ConfigError, match=r"^singular must have shape \(5,\)$"):
        gp_closed_form(_with_azimuth(base, singular=np.zeros(7, dtype=bool)))
    assert gp_closed_form(base).diagnostics.n_steps == 5


def test_polar_track_singular_prefix_back_fills_azimuth():
    track = polar_track(_spiral_trajectory(n_steps=801))
    assert track.azimuth.singular[0]
    assert not track.azimuth.singular[1:].any()
    assert track.azimuth.dchi[0] == 0.0


def _reference_track_series(points):
    """Reference route for PolarTrack.from_points: two hypot calls, the
    flat-continuation fill on every track and a masked divide; returns the
    series, with the azimuth as its increments dchi, as a dict."""
    pts = np.asarray(points, dtype=float)
    a = pts[:, 2].copy()
    rxy = np.hypot(pts[:, 0], pts[:, 1])
    eps = np.hypot(a, rxy)
    singular = rxy / 2.0 < phase.R_TOL
    raw = np.arctan2(pts[:, 1], pts[:, 0])
    valid = ~singular
    if not valid.any():
        filled = np.zeros_like(raw)
    else:
        idx = np.where(valid, np.arange(raw.size), -1)
        idx = np.maximum.accumulate(idx)
        idx[idx < 0] = int(np.flatnonzero(valid)[0])
        filled = raw[idx]
    d_raw = np.diff(filled)
    d = d_raw - 2.0 * math.pi * np.floor((d_raw + math.pi) / (2.0 * math.pi))
    if d.size and np.max(np.abs(d)) >= phase._JUMP_LIMIT:
        worst = int(np.argmax(np.abs(d)))
        raise ResolutionError(
            "time grid too coarse to unwrap the azimuth: step"
            f" {worst} -> {worst + 1} swings by {d[worst]:+.6f} rad;"
            " refine the grid (smaller dt or larger sampling factor)"
        )
    ratio = np.divide(a, eps, out=np.zeros_like(a), where=eps > 0.0)
    sin2_half = np.clip((1.0 + ratio) / 2.0, 0.0, 1.0)
    return {
        "A": a,
        "dchi": d,
        "sin2_half": sin2_half,
        "theta_t": 2.0 * np.arcsin(np.sqrt(sin2_half)),
        "eps_plus": eps,
        "singular": singular,
        "unwrap_jumps": int(np.count_nonzero(np.abs(d_raw - d) > math.pi)),
    }


@st.composite
def _polar_points(draw):
    """(n, 3) samples: regular nodes at R >= 5e-7, singular nodes at
    R <= 1e-14 (far from R_TOL on both sides), and sometimes one half-turn
    azimuth step."""
    n = draw(st.integers(2, 40))
    pattern = draw(st.sampled_from(("none", "prefix", "isolated", "all", "random")))
    if pattern == "none":
        singular = [False] * n
    elif pattern == "prefix":
        k = draw(st.integers(1, n - 1))
        singular = [True] * k + [False] * (n - k)
    elif pattern == "isolated":
        picked = draw(st.sets(st.sampled_from(range(0, n, 2)), min_size=1))
        singular = [i in picked for i in range(n)]
    elif pattern == "all":
        singular = [True] * n
    else:
        singular = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # Singular nodes sit on the z axis, at the origin, or so close to it
    # that the squared norm leaves the normal float range.
    pole = draw(st.sampled_from(("axis", "origin", "tiny")))
    tiny_z = draw(st.lists(st.floats(-1e-155, 1e-155), min_size=n, max_size=n))
    max_step = draw(st.floats(0.05, 3.3))
    steps = draw(st.lists(st.floats(-max_step, max_step), min_size=n, max_size=n))
    if draw(st.booleans()):
        # A half turn between two nodes cannot be unwrapped.
        steps[draw(st.integers(0, n - 1))] = math.pi
    rho = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    z = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    tiny = draw(st.lists(st.floats(-7e-15, 7e-15), min_size=2 * n, max_size=2 * n))
    chi = np.cumsum(steps)
    pts = np.empty((n, 3))
    for i in range(n):
        if singular[i]:
            pz = {"axis": z[i], "origin": 0.0, "tiny": tiny_z[i]}[pole]
            pts[i] = (tiny[2 * i], tiny[2 * i + 1], pz)
        else:
            pts[i] = (rho[i] * math.cos(chi[i]), rho[i] * math.sin(chi[i]), z[i])
    return pts


@settings(max_examples=300, deadline=None)
@given(pts=_polar_points())
def test_from_points_matches_reference_route(pts):
    grid = TimeGrid(1.0, pts.shape[0])
    try:
        want = _reference_track_series(pts)
    except ResolutionError as exc:
        with pytest.raises(ResolutionError) as got:
            PolarTrack.from_points(pts, grid)
        assert str(got.value) == str(exc)
        return
    track = PolarTrack.from_points(pts, grid)
    assert np.array_equal(track.azimuth.singular, want["singular"])
    assert track.azimuth.unwrap_jumps == want["unwrap_jumps"]
    for name in ("A", "eps_plus"):
        np.testing.assert_allclose(getattr(track, name), want[name], rtol=0, atol=1e-15)
    assert np.array_equal(track.azimuth.dchi, want["dchi"])
    # A one-ulp change of eps moves sin2_half = (1 + A/eps)/2 by about an
    # ulp, so sin2_half is compared to 1e-15 everywhere and bit for bit
    # wherever eps came out identical.  The derived theta_t magnifies that
    # ulp by 1 / sin(theta_t) near the poles, so it is compared only there.
    np.testing.assert_allclose(track.sin2_half, want["sin2_half"], rtol=0, atol=1e-15)
    same_eps = track.eps_plus == want["eps_plus"]
    assert np.array_equal(track.sin2_half[same_eps], want["sin2_half"][same_eps])
    assert np.array_equal(track.theta_t[same_eps], want["theta_t"][same_eps])


# Components up to 1e308 keep |v| below the float maximum; x, y >= 0 keep
# the azimuth in one quadrant, so no step is too large to unwrap.
_ANY_SCALE = st.floats(-1e308, 1e308)
_QUADRANT = st.floats(0.0, 1e308)


@example(rows=[(0.0, 0.0, 0.0), (0.0, 0.0, -0.0)])
@example(rows=[(5e-324, 0.0, -5e-324), (0.0, 5e-324, 1e-310)])
@example(rows=[(1e308, 1e308, -1e308), (0.0, 0.0, 1e308), (1e-300, 0.0, -1e308)])
@example(rows=[(1e-170, 3e-171, -2e-170), (1.0, 0.0, 1e-200)])
@given(rows=st.lists(st.tuples(_QUADRANT, _QUADRANT, _ANY_SCALE), min_size=2, max_size=12))
def test_from_points_sin2_half_needs_no_clip(rows):
    # eps >= |A| on both of from_points' routes, so (1 + A/eps)/2 already
    # lies in [0, 1]: clipping it changes no bit.
    pts = np.array(rows, dtype=float)
    sin2_half = PolarTrack.from_points(pts, TimeGrid(1.0, len(rows))).sin2_half
    assert np.all((0.0 <= sin2_half) & (sin2_half <= 1.0))
    assert np.clip(sin2_half, 0.0, 1.0).tobytes() == sin2_half.tobytes()


def test_stationary_pole_gives_zero_phase():
    # theta0 = pi pins the polarization to the z axis: every node is
    # azimuth-singular, chi stays flat, and both routes return exactly zero
    cfg = SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=2)
    traj = bloch_trajectory(cfg, InitialStateAngles(theta=math.pi, phi=0.7), TimeGrid(5.0, 801))
    track = polar_track(traj)
    assert track.azimuth.singular.all()
    assert gp_south_pole(track).gamma == 0.0
    assert gp_closed_form(track).gamma == 0.0


def test_spiral_matches_hand_integral():
    track = polar_track(_spiral_trajectory())
    sp = gp_south_pole(track)
    assert abs(sp.gamma - SPIRAL_GAMMA) < 1e-8
    cf = gp_closed_form(track)
    assert angular_distance(cf.gamma, SPIRAL_GAMMA) < 1e-8
    # general form accumulates the same phase one full winding lower
    assert cf.gamma_unwrapped - sp.gamma_unwrapped == pytest.approx(
        -2.0 * math.pi, abs=1e-6
    )


def test_three_routes_agree_on_spiral():
    traj = _spiral_trajectory()
    track = polar_track(traj)
    cf = gp_closed_form(track)
    sp = gp_south_pole(track)
    dh = gp_discrete_holonomy(traj)
    assert angular_distance(cf.gamma, sp.gamma) < 1e-6
    assert angular_distance(dh.gamma, sp.gamma) < 1e-6
    assert dh.diagnostics.min_step_overlap > 0.999


@st.composite
def _pure_start_tracks(draw):
    """Tracks from a pure start: sin2_half in {0} u [1e-6, 1] and increments
    in {0} u +-[1e-6, 3.1], so no product or partial sum is subnormal."""
    n = draw(st.integers(2, 60))
    unit = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    s = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    steps = st.one_of(st.just(0.0), st.floats(1e-6, 3.1), st.floats(-3.1, -1e-6))
    dchi = np.array(draw(st.lists(steps, min_size=n - 1, max_size=n - 1)))
    a = 2.0 * s - 1.0
    azimuth = Azimuth(TimeGrid(1.0, n), dchi, np.zeros(n, dtype=bool), 0)
    return PolarTrack(azimuth, a, s, np.ones(n))


def _literal_bracket(track):
    # The closed form's bracket exactly as the module docstring's formula reads.
    s, total = track.sin2_half, float(np.sum(track.azimuth.dchi))
    return complex(
        math.sqrt(s[0]) * math.sqrt(s[-1])
        + np.exp(1.0j * total) * math.sqrt(1.0 - s[0]) * math.sqrt(1.0 - s[-1])
    )


def _assert_near_classic_trapezoid(track, got, head):
    # The classic trapezoid sum_i dchi_i (f_i + f_{i+1}) / 2 of
    # f = 1 - sin2_half is the same integral rounded in another order.  An
    # m-term float sum whose terms are each within k roundings of at most
    # |dchi_i| in size is off by at most (m + k) u sum |dchi| (u the unit
    # roundoff), in any order of addition: n + 1 for the classic sum, n - 2
    # for the total and n + 1 for the node sum (whose terms add to at most
    # 2 sum |dchi|, halved), plus three subtractions of values at most
    # pi + sum |dchi| in size.
    s, dchi = track.sin2_half, track.azimuth.dchi
    f = 1.0 - s
    classic = float(np.sum(dchi * ((f[:-1] + f[1:]) / 2.0)))
    u = np.finfo(float).eps / 2.0
    n = track.n_steps
    bound = (3 * n + 10) * u * (float(np.sum(np.abs(dchi))) + math.pi)
    assert abs(got - (head - classic)) <= bound


@settings(max_examples=300, deadline=None)
@given(track=_pure_start_tracks())
def test_closed_form_quadrature_is_the_literal_trapezoid(track):
    # The connection as the module docstring writes it, total - (1/2)
    # sum_j G_j s_j with node weights G_j = dchi_{j-1} + dchi_j (0 past
    # either end), its node sum one BLAS dot (at most 60 nodes are one
    # block), and the bracket exactly as the formula reads: the closed form
    # must match this literal bit for bit.
    s, dchi = track.sin2_half, track.azimuth.dchi
    G = np.concatenate(([0.0], dchi)) + np.concatenate((dchi, [0.0]))
    total = float(np.sum(dchi))
    connection = total - float(np.dot(G, s)) / 2
    bracket = _literal_bracket(track)
    if abs(bracket) < phase.Z_TOL:
        with pytest.raises(IndeterminatePhaseError):
            gp_closed_form(track)
        return
    head = math.atan2(bracket.imag, bracket.real)
    got = gp_closed_form(track).gamma_unwrapped
    assert got == head - connection
    _assert_near_classic_trapezoid(track, got, head)


def test_closed_form_quadrature_across_dot_blocks():
    # Three full blocks of the connection's blocked dot and a short fourth:
    # the block partials and their sum stay within the same bound.
    n = 3 * phase._DOT_BLOCK + 17
    j = np.arange(n)
    s = np.sin(0.0113 * j) ** 2
    dchi = 3.1 * np.sin(0.37 * j[:-1]) * np.cos(0.0007 * j[:-1])
    azimuth = Azimuth(TimeGrid(1.0, n), dchi, np.zeros(n, dtype=bool), 0)
    track = PolarTrack(azimuth, 2.0 * s - 1.0, s, np.ones(n))
    bracket = _literal_bracket(track)
    assert abs(bracket) > 0.1
    got = gp_closed_form(track).gamma_unwrapped
    _assert_near_classic_trapezoid(track, got, math.atan2(bracket.imag, bracket.real))


def test_closed_form_and_south_pole_share_one_quadrature(monkeypatch):
    # The south pole's phase is the node sum of sin2_half, and the closed
    # form subtracts that same sum from dchi_total: the track takes it once,
    # of its azimuth and its sin2_half (never 1 - sin2_half) when it is
    # built, and both routes read the kept sum.
    traj = _spiral_trajectory(n_steps=2001)
    quadrature = phase._trapezoid_on_chi
    calls = []

    def spy(azimuth, integrand):
        calls.append((azimuth, integrand))
        return quadrature(azimuth, integrand)

    monkeypatch.setattr(phase, "_trapezoid_on_chi", spy)
    track = polar_track(traj)
    pole = gp_south_pole(track)
    gp_closed_form(track)
    assert len(calls) == 1
    for azimuth, integrand in calls:
        assert azimuth is track.azimuth
        assert integrand is track.sin2_half
    assert pole.gamma_unwrapped == quadrature(track.azimuth, track.sin2_half)


def test_closed_form_matches_unitary_reference():
    # constant integrand makes the trapezoid exact up to round-off
    for theta in (0.3, 0.9, 2.5):
        traj = bloch_trajectory(
            UNITARY_CFG, InitialStateAngles(theta=theta, phi=1.0), TimeGrid(math.pi, 801)
        )
        res = gp_closed_form(polar_track(traj), angles=InitialStateAngles(theta=theta, phi=1.0))
        assert angular_distance(res.gamma, gp_unitary_reference(theta)) < 1e-12


def test_gp_unitary_reference_frozen():
    assert gp_unitary_reference(math.pi / 2.0) == pytest.approx(-math.pi, abs=1e-15)
    assert gp_unitary_reference(0.0) == 0.0
    assert gp_unitary_reference(math.pi) == 0.0  # principal value of -2*pi
    with pytest.raises(ConfigError):
        gp_unitary_reference(-0.1)
    with pytest.raises(ConfigError):
        gp_unitary_reference(3.2)


def test_closed_form_angle_cross_check():
    traj = bloch_trajectory(
        UNITARY_CFG, InitialStateAngles(theta=1.2, phi=0.5), TimeGrid(math.pi, 801)
    )
    track = polar_track(traj)
    # The track holds its result from when it was built; the cross-check
    # runs on every call.
    for _ in range(2):
        with pytest.raises(PreconditionError, match="does not start at the stated"):
            gp_closed_form(track, angles=InitialStateAngles(theta=0.3))
        assert math.isfinite(gp_closed_form(track, angles=InitialStateAngles(theta=1.2)).gamma)


def _copied_azimuth(track):
    """A new Azimuth on copies of the track's azimuth arrays."""
    az = track.azimuth
    return Azimuth(az.grid, np.array(az.dchi), np.array(az.singular), az.unwrap_jumps)


def test_closed_form_purity_precondition():
    base = polar_track(
        bloch_trajectory(
            UNITARY_CFG, InitialStateAngles(theta=1.0, phi=0.2), TimeGrid(math.pi, 801)
        )
    )
    scaled = PolarTrack(
        _copied_azimuth(base), 0.5 * base.A, np.array(base.sin2_half), 0.5 * base.eps_plus
    )
    # Purity is checked before the angles, and on every call of the track,
    # which holds its result from when it was built.
    for _ in range(2):
        with pytest.raises(PreconditionError, match="initial state not pure"):
            gp_closed_form(scaled)
        with pytest.raises(PreconditionError, match="initial state not pure"):
            gp_closed_form(scaled, angles=InitialStateAngles(theta=0.3))
        res = gp_closed_form(scaled, require_pure=False)
        assert math.isfinite(res.gamma)


def test_closed_form_scale_invariance():
    # the phase depends on branch direction only; power-of-two rescalings
    # of the polarization must reproduce it bit for bit
    traj = bloch_trajectory(
        SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=2),
        InitialStateAngles(theta=1.1, phi=0.4),
        TimeGrid(5.0, 2001),
    )
    base = polar_track(traj)
    ref = gp_closed_form(base)

    def rescaled(lam):
        # hand-built: A and eps_plus scale, sin2_half is copied as is
        return PolarTrack(
            _copied_azimuth(base), lam * base.A, np.array(base.sin2_half), lam * base.eps_plus
        )

    def rebuilt(lam):
        # the track of the rescaled samples, normalization included
        return PolarTrack.from_points(lam * traj.points, traj.grid)

    for lam in (0.5, 0.25, 8.0):
        for track in (rescaled(lam), rebuilt(lam)):
            res = gp_closed_form(track, require_pure=False)
            assert res.gamma == ref.gamma
            assert res.gamma_unwrapped == ref.gamma_unwrapped
    for track in (rescaled(0.7), rebuilt(0.7)):
        near = gp_closed_form(track, require_pure=False)
        assert angular_distance(near.gamma, ref.gamma) < 1e-12


def test_track_keeps_its_closed_form_reductions(monkeypatch):
    # A track evaluates what the closed form derives from it alone, its
    # result included, when it is built, so no call on it makes an n-node
    # pass and every call returns the same GpResult object;
    # dataclasses.replace builds a new track, which computes its own result
    # and never reads a stale value.  The checks of a call's own arguments
    # run on every call.
    traj = _spiral_trajectory(n_steps=2001)
    quadrature = phase._trapezoid_on_chi
    calls = []

    def spy(azimuth, integrand):
        calls.append(1)
        return quadrature(azimuth, integrand)

    monkeypatch.setattr(phase, "_trapezoid_on_chi", spy)
    track = polar_track(traj)
    assert len(calls) == 1
    first = gp_closed_form(track)
    assert gp_closed_form(track) is first
    assert gp_closed_form(track, angles=InitialStateAngles(theta=math.pi)) is first
    copied = gp_closed_form(dataclasses.replace(track))
    assert copied == first and copied is not first
    assert len(calls) == 2
    reversed_track = _with_azimuth(track, dchi=-track.azimuth.dchi)
    assert gp_closed_form(reversed_track).gamma_unwrapped != first.gamma_unwrapped
    assert len(calls) == 3
    halved = PolarTrack(track.azimuth, 0.5 * track.A, track.sin2_half, 0.5 * track.eps_plus)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="does not start at the stated"):
            gp_closed_form(track, angles=InitialStateAngles(theta=0.3))
        with pytest.raises(PreconditionError, match="initial state not pure"):
            gp_closed_form(halved)
    kept = gp_closed_form(halved, require_pure=False)
    assert gp_closed_form(halved, require_pure=False) is kept
    assert len(calls) == 4


def test_tracks_on_one_azimuth_share_it():
    # A track is its azimuth plus one start: a start's track built on a
    # shared azimuth reads the azimuth's arrays and totals, not copies, and
    # its phase equals that of a track hand-built from lists bit for bit.
    assert [f.name for f in dataclasses.fields(PolarTrack)] == [
        "azimuth", "A", "sin2_half", "eps_plus"
    ]
    traj = _spiral_trajectory(n_steps=2001)
    base = polar_track(traj)
    azimuth = base.azimuth
    assert azimuth.dchi_total == float(azimuth.dchi.sum())
    assert azimuth.singular_nodes == int(np.count_nonzero(azimuth.singular)) == 1
    # the surface sweep's columns are built by the same rule as from_points
    rebuilt = Azimuth.from_xy(base.grid, traj.points[:, 0], traj.points[:, 1], azimuth.singular)
    assert np.array_equal(rebuilt.dchi, azimuth.dchi)
    assert rebuilt.unwrap_jumps == azimuth.unwrap_jumps
    shared = PolarTrack(azimuth, base.A, base.sin2_half, base.eps_plus)
    assert shared.azimuth is azimuth and shared.grid is base.grid
    assert shared.n_steps == base.grid.n_steps == 2001
    listed = Azimuth(base.grid, list(azimuth.dchi), list(azimuth.singular), azimuth.unwrap_jumps)
    want = gp_closed_form(
        PolarTrack(listed, list(base.A), list(base.sin2_half), list(base.eps_plus))
    )
    assert gp_closed_form(shared) == want
    # the start's own series are checked and frozen by the constructor
    a = np.array(base.A)
    assert PolarTrack(azimuth, a, base.sin2_half, base.eps_plus).A is a
    assert not a.flags.writeable
    starts = {"A": base.A, "sin2_half": base.sin2_half, "eps_plus": base.eps_plus}
    for name, series in starts.items():
        with pytest.raises(ConfigError, match=rf"^{name} must have shape \(2001,\)$"):
            PolarTrack(azimuth, **{**starts, name: series[1:]})
    with pytest.raises(ConfigError, match=r"^dchi must have shape \(2000,\)$"):
        Azimuth(base.grid, azimuth.dchi[1:], azimuth.singular, 0)
    with pytest.raises(ConfigError, match=r"^singular must have shape \(2001,\)$"):
        Azimuth(base.grid, azimuth.dchi, azimuth.singular[1:], 0)


def test_closed_form_refuses_sin2_half_ends_outside_unit_interval():
    # The closed form takes square roots of sin2_half and 1 - sin2_half at
    # both ends; an end value outside [0, 1] is refused by name when the
    # track is built, not by a math domain error.  The bounds themselves
    # are valid.
    base = PolarTrack.from_points(_arc_points(5), TimeGrid(1.0, 5))
    builders = (
        lambda s: dataclasses.replace(base, sin2_half=s),
        lambda s: PolarTrack(base.azimuth, base.A, s, base.eps_plus),
    )
    for end in (0, -1):
        for build in builders:
            for bad in (1.5, -0.1, math.nan):
                s = np.array(base.sin2_half)
                s[end] = bad
                with pytest.raises(ConfigError, match=r"^sin2_half must lie in \[0, 1\]"):
                    build(s)
            for edge in (0.0, 1.0):
                s = np.array(base.sin2_half)
                s[end] = edge
                assert math.isfinite(gp_closed_form(build(s)).gamma)


def test_closed_form_rejects_vanishing_polarization():
    grid = TimeGrid(1.0, 3)
    azimuth = Azimuth(grid, np.zeros(2), np.ones(3, dtype=bool), 0)
    dead = PolarTrack(azimuth, np.zeros(3), np.full(3, 0.5), np.zeros(3))
    for _ in range(2):  # on every call of the track
        with pytest.raises(IndeterminatePhaseError, match="initial polarization vanishes"):
            gp_closed_form(dead, require_pure=False)


def test_closed_form_indeterminate_on_equator_half_turn():
    # chi sweeps 0 -> pi on the equator: the bracket cancels exactly
    grid = TimeGrid(1.0, 5)
    chi = np.linspace(0.0, math.pi, 5)
    pts = np.column_stack([np.cos(chi), np.sin(chi), np.zeros(5)])
    track = polar_track(BlochTrajectory(grid=grid, points=pts))
    for _ in range(2):  # on every call of the track
        with pytest.raises(IndeterminatePhaseError, match="indeterminate phase"):
            gp_closed_form(track)


def test_south_pole_requires_pole_start():
    traj = bloch_trajectory(
        UNITARY_CFG, InitialStateAngles(theta=1.0, phi=0.0), TimeGrid(math.pi, 801)
    )
    with pytest.raises(PreconditionError):
        gp_south_pole(polar_track(traj))


def test_discrete_holonomy_rejects_fully_mixed_node():
    grid = TimeGrid(1.0, 3)
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    traj = BlochTrajectory(grid=grid, points=pts)
    with pytest.raises(PreconditionError):
        gp_discrete_holonomy(traj)


def test_branch_spinors_on_the_z_axis_take_phase_one():
    # Nodes with rxy <= R_TOL (here 0, where (x + iy) / rxy is 0/0) take
    # phase 1, so their spinors are real; every other node's spinor is what
    # the chain without them gets, bit for bit.
    t = np.linspace(0.0, 2.0, 9)
    beta = 0.3 + t
    pts = np.column_stack([np.sin(beta) * np.cos(t), np.sin(beta) * np.sin(t), np.cos(beta)])
    pts[4] = [0.0, 0.0, -1.0]
    pts[6] = [0.0, 0.0, 0.5]
    rxy = np.hypot(pts[:, 0], pts[:, 1])
    chain = phase._branch_spinors(pts, rxy)
    assert chain[4].tolist() == [0.0, 1.0]
    assert chain[6].tolist() == [1.0, 0.0]
    off_axis = np.delete(np.arange(9), [4, 6])
    regular = phase._branch_spinors(pts[off_axis], rxy[off_axis])
    assert chain[off_axis].tobytes() == regular.tobytes()


def test_discrete_holonomy_rejects_impure_start():
    # The route takes only trajectories, and BlochTrajectory refuses a start
    # off the sphere by more than 1e-10, so an impure start never reaches it.
    pts = np.array([[0.0, 0.0, 0.5], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]])
    with pytest.raises(ConfigError, match="must start on the Bloch sphere"):
        gp_discrete_holonomy(BlochTrajectory(grid=TimeGrid(1.0, 3), points=pts))


def test_pancharatnam_gauge_invariance():
    rng = np.random.default_rng(314)
    beta = np.linspace(0.2, 2.0, 60)
    chi = np.linspace(0.0, 4.0, 60)
    spinors = np.column_stack(
        [np.cos(beta / 2.0).astype(complex), np.exp(1.0j * chi) * np.sin(beta / 2.0)]
    )
    gamma_ref, _, _ = pancharatnam_phase(spinors)
    for _ in range(5):
        phases = np.exp(1.0j * rng.uniform(0.0, 2.0 * math.pi, size=60))
        gamma, _, _ = pancharatnam_phase(spinors * phases[:, None])
        assert angular_distance(gamma, gamma_ref) < 1e-12


def test_pancharatnam_validation():
    with pytest.raises(ConfigError):
        pancharatnam_phase(np.zeros(3))
    with pytest.raises(ConfigError):
        pancharatnam_phase(np.array([[1.0 + 0.0j, 0.0j]]))
    with pytest.raises(ResolutionError):
        pancharatnam_phase(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
    beta = np.linspace(0.0, math.pi, 9)
    chain = np.column_stack(
        [np.cos(beta / 2.0).astype(complex), np.sin(beta / 2.0).astype(complex)]
    )
    with pytest.raises(IndeterminatePhaseError):
        pancharatnam_phase(chain)  # endpoints orthogonal, closure vanishes


def test_discrete_holonomy_unitary_limit():
    traj = bloch_trajectory(
        UNITARY_CFG, InitialStateAngles(theta=1.0, phi=0.3), TimeGrid(math.pi, 1601)
    )
    res = gp_discrete_holonomy(traj)
    assert angular_distance(res.gamma, gp_unitary_reference(1.0)) < 2e-6
    assert res.diagnostics.min_step_overlap is not None


def test_result_principal_matches_unwrapped():
    traj = bloch_trajectory(
        SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=2),
        InitialStateAngles(theta=1.1, phi=0.4),
        TimeGrid(5.0, 2001),
    )
    for res in (gp_closed_form(polar_track(traj)), gp_discrete_holonomy(traj)):
        assert res.gamma == principal_value(res.gamma_unwrapped)
        assert -math.pi <= res.gamma < math.pi


def test_result_derives_gamma_from_gamma_unwrapped():
    # A GpResult is given only the unreduced phase; gamma is its principal
    # value, bit for bit, at the branch cut, past it, at a magnitude where
    # one ulp exceeds a turn, and for NaN.  The record's fields, and so
    # the gp command's JSON keys, keep their order.
    diagnostics = GpDiagnostics(n_steps=3, singular_nodes=0, unwrap_jumps=0, lambda_plus_end=1.0)
    for x in (math.pi, -math.pi, 3.0 * math.pi, 1.1430261876889298e17, math.nan):
        res = GpResult(gamma_unwrapped=x, method="closed_form", diagnostics=diagnostics)
        assert np.float64(res.gamma).tobytes() == np.float64(principal_value(x)).tobytes()
        assert res.gamma_unwrapped is x
    with pytest.raises(TypeError):
        GpResult(gamma=0.0, gamma_unwrapped=0.0, method="closed_form", diagnostics=diagnostics)
    assert [f.name for f in dataclasses.fields(GpResult)] == [
        "gamma", "gamma_unwrapped", "method", "diagnostics"
    ]


def test_guards_are_fixed_constants():
    assert (phase.R_TOL, phase.Z_TOL, phase.OVERLAP_TOL) == (1e-12, 1e-14, 1e-10)
    for fn in (
        polar_track,
        gp_closed_form,
        gp_south_pole,
        gp_discrete_holonomy,
        pancharatnam_phase,
        PolarTrack.from_points,
    ):
        assert not [p for p in inspect.signature(fn).parameters if p.endswith("_tol")]
    # R = |v_xy| / 2 just below R_TOL is singular, just above it is not
    rxy = 2.0 * phase.R_TOL
    pts = np.array([[0.0, 0.0, 1.0], [0.99 * rxy, 0.0, 1.0], [1.01 * rxy, 0.0, 1.0]])
    track = PolarTrack.from_points(pts, TimeGrid(1.0, 3))
    assert track.azimuth.singular.tolist() == [True, True, False]
