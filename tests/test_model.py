"""Unit tests for the state/configuration layer.

Expected values are either direct consequences of the stated definitions
(asserted verbatim) or derived from independent constructions inside the
test (binomial sums via math.comb, density matrices built from projectors).
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from frustra_gp import (
    AngleGrid,
    BlochVector,
    ConfigError,
    InitialStateAngles,
    QubitDensity,
    SystemConfig,
    TimeGrid,
    auto_time_grid,
    bloch_at,
    evolve_reduced,
    gamma_freq,
    gp_surface,
    gp_unitary_reference,
    initial_bloch,
    initial_density,
    literal_polarizations,
    sector_rotation,
    sector_weights,
    validate_config,
    verify_suite,
)
from frustra_gp.model import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_count,
    check_real,
    check_time,
)


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
    assert np.allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, np.eye(2))
        assert np.allclose(s, s.conj().T)


def test_validate_config_accepts_valid():
    validate_config(SystemConfig(omega=2.0, alpha1=0.0, alpha2=1.5, bath_size=4))


def test_validate_config_collects_all_violations():
    with pytest.raises(ConfigError) as err:
        validate_config(SystemConfig(omega=-1.0, alpha1=-0.5, alpha2=0.25, bath_size=0))
    message = str(err.value)
    assert "omega" in message
    assert "alpha1" in message
    assert "bath_size" in message


def test_validate_config_rejects_non_finite():
    with pytest.raises(ConfigError):
        validate_config(SystemConfig(omega=math.nan, alpha1=0.0, alpha2=0.0, bath_size=1))
    with pytest.raises(ConfigError):
        validate_config(SystemConfig(omega=1.0, alpha1=math.inf, alpha2=0.0, bath_size=1))


def test_validate_config_rejects_underflowing_omega():
    # omega^2 = 0 would make a sector's Gamma exactly 0
    with pytest.raises(ConfigError, match="underflows"):
        validate_config(SystemConfig(omega=1e-170, alpha1=0.5, alpha2=0.0, bath_size=2))
    validate_config(SystemConfig(omega=1e-150, alpha1=0.0, alpha2=0.0, bath_size=2))


def test_validate_config_rejects_overflowing_gamma():
    # Gamma^2 of the widest sector, omega^2 + (alpha1 N/2)^2 + (alpha2 N/2)^2,
    # must be a finite float: couplings of 1e154 at N = 3 square past it
    validate_config(SystemConfig(omega=1.0, alpha1=1e153, alpha2=1e153, bath_size=3))
    for fields in (
        dict(omega=1.0, alpha1=1e154, alpha2=0.0, bath_size=3),
        dict(omega=1.0, alpha1=1e200, alpha2=0.0, bath_size=3),
        dict(omega=1.0, alpha1=0.0, alpha2=1e200, bath_size=3),
        dict(omega=1.34e154, alpha1=1e153, alpha2=1e153, bath_size=3),
        # a bath size past the float range, even uncoupled
        dict(omega=1.0, alpha1=0.0, alpha2=0.0, bath_size=10**400),
    ):
        with pytest.raises(ConfigError, match="overflows"):
            SystemConfig(**fields)


def test_system_config_is_valid_by_construction():
    expected = (
        "invalid system config: omega must be positive; alpha1 negative;"
        " bath_size must be >= 1"
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        SystemConfig(omega=-1.0, alpha1=-0.5, alpha2=0.25, bath_size=0)
    valid = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.2, bath_size=3)
    with pytest.raises(
        ConfigError, match="^invalid system config: omega must be positive$"
    ):
        dataclasses.replace(valid, omega=-1.0)
    with pytest.raises(
        ConfigError, match="^invalid system config: omega must be a real number$"
    ):
        dataclasses.replace(valid, omega=True)
    with pytest.raises(
        ConfigError, match="^invalid system config: bath_size must be an integer$"
    ):
        dataclasses.replace(valid, bath_size=True)


def test_initial_angles_validation():
    with pytest.raises(ConfigError):
        InitialStateAngles(theta=-0.1)
    with pytest.raises(ConfigError):
        InitialStateAngles(theta=math.pi + 0.1)
    assert InitialStateAngles(theta=math.pi).theta == math.pi
    # phi normalizes into [0, 2 pi)
    a = InitialStateAngles(theta=1.0, phi=7.0)
    assert math.isclose(a.phi, 7.0 - 2.0 * math.pi, rel_tol=0, abs_tol=1e-12)
    b = InitialStateAngles(theta=1.0, phi=-0.5)
    assert math.isclose(b.phi, 2.0 * math.pi - 0.5, rel_tol=0, abs_tol=1e-12)
    # a tiny negative phi would round up to 2 pi itself; it is stored as 0
    for phi in (-1e-20, -5e-324):
        assert InitialStateAngles(theta=1.0, phi=phi).phi == 0.0



@pytest.mark.parametrize("name", ["theta", "phi"])
def test_initial_angles_name_what_is_wrong_with_a_value(name):
    # a bool is no real number here, as for SystemConfig's fields
    for value in (np.float32(1.0), np.int64(1), "1.0", None, True, False):
        with pytest.raises(ConfigError, match=f"^{name} must be a real number$"):
            InitialStateAngles(**{"theta": 1.0, name: value})
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=f"^{name} not finite$"):
            InitialStateAngles(**{"theta": 1.0, name: value})
    angles = InitialStateAngles(**{"theta": 1.0, "phi": 0.5, name: np.float64(0.25)})
    assert getattr(angles, name) == 0.25

def test_initial_bloch_frozen_points():
    # equator at phi = 0 points along +y; phi = pi/2 along -x
    v = initial_bloch(InitialStateAngles(theta=math.pi / 2, phi=0.0)).as_array()
    assert np.allclose(v, [0.0, 1.0, 0.0], atol=1e-15)
    v = initial_bloch(InitialStateAngles(theta=math.pi / 2, phi=math.pi / 2)).as_array()
    assert np.allclose(v, [-1.0, 0.0, 0.0], atol=1e-15)
    # poles
    assert np.allclose(
        initial_bloch(InitialStateAngles(theta=0.0, phi=2.2)).as_array(),
        [0.0, 0.0, 1.0],
        atol=1e-15,
    )
    assert np.allclose(
        initial_bloch(InitialStateAngles(theta=math.pi, phi=1.0)).as_array(),
        [0.0, 0.0, -1.0],
        atol=1e-15,
    )
    # generic angles follow (-sin t sin p, sin t cos p, cos t)
    ang = InitialStateAngles(theta=0.9, phi=2.1)
    expected = np.array(
        [-math.sin(0.9) * math.sin(2.1), math.sin(0.9) * math.cos(2.1), math.cos(0.9)]
    )
    assert np.allclose(initial_bloch(ang).as_array(), expected, atol=1e-15)


def test_initial_density_frozen_matrix():
    rho = initial_density(InitialStateAngles(theta=math.pi / 2, phi=0.0)).matrix
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.allclose(rho, expected, atol=1e-15)


def test_initial_density_matches_bloch_vector():
    rng = np.random.default_rng(101)
    for _ in range(20):
        ang = InitialStateAngles(
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        rho = initial_density(ang)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        v_rho = rho.bloch_vector().as_array()
        v = initial_bloch(ang).as_array()
        assert np.max(np.abs(v_rho - v)) < 1e-14


def test_qubit_density_validation():
    with pytest.raises(ConfigError):
        QubitDensity(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ConfigError):
        QubitDensity(np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
    with pytest.raises(ConfigError):
        QubitDensity(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ConfigError, match=r"must be 2x2, got \(3, 3\)"):
        QubitDensity(np.eye(3) / 3.0)
    with pytest.raises(ConfigError, match="non-finite entries"):
        QubitDensity(np.array([[0.5, math.nan], [0.0, 0.5]]))
    mixed = QubitDensity(np.array([[0.75, 0.0], [0.0, 0.25]]))
    assert mixed.purity() == pytest.approx(0.625, abs=1e-15)
    assert np.allclose(mixed.bloch_vector().as_array(), [0.0, 0.0, 0.5], atol=1e-15)


def test_qubit_density_is_immutable():
    rho = QubitDensity(np.array([[0.75, 0.0], [0.0, 0.25]]))
    with pytest.raises(AttributeError, match="QubitDensity is immutable"):
        rho.matrix = np.eye(2) / 2.0
    assert rho.purity() == pytest.approx(0.625, abs=1e-15)


def test_sector_weights_small_n_frozen():
    # zeta(m) = C(N, N/2 + m): the binomial ladder
    ladder = sector_weights(1)
    assert [s.m for s in ladder] == [-0.5, 0.5]
    assert [s.zeta for s in ladder] == [1, 1]
    ladder = sector_weights(2)
    assert [s.m for s in ladder] == [-1.0, 0.0, 1.0]
    assert [s.zeta for s in ladder] == [1, 2, 1]
    ladder = sector_weights(4)
    assert [s.zeta for s in ladder] == [1, 4, 6, 4, 1]
    assert [s.w for s in ladder] == [1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16]


def test_sector_weights_exact_normalization():
    for n in (1, 2, 3, 7, 16, 64, 501):
        ladder = sector_weights(n)
        assert len(ladder) == n + 1
        assert sum(s.zeta for s in ladder) == 2**n  # exact integers
        assert abs(math.fsum(s.w for s in ladder) - 1.0) < 1e-15


def test_sector_weights_match_math_comb_bit_for_bit():
    for n in [*range(1, 301), 501, 1000, 2001]:
        ladder = sector_weights(n)
        assert [s.zeta for s in ladder] == [math.comb(n, k) for k in range(n + 1)]
        assert [s.w for s in ladder] == [math.comb(n, k) / 2**n for k in range(n + 1)]


def test_sector_weights_symmetric():
    for n in (3, 8, 21):
        ladder = sector_weights(n)
        for lo, hi in zip(ladder, reversed(ladder)):
            assert lo.m == -hi.m
            assert lo.zeta == hi.zeta


def test_sector_weights_rejects_bad_n():
    with pytest.raises(ConfigError):
        sector_weights(0)


def test_bloch_vector_roundtrip():
    v = BlochVector(0.3, -0.4, 0.5)
    w = BlochVector.from_array(v.as_array())
    assert (w.x, w.y, w.z) == (0.3, -0.4, 0.5)
    with pytest.raises(ConfigError, match=r"must have shape \(3,\), got \(1, 3\)"):
        BlochVector.from_array(np.array([[0.3, -0.4, 0.5]]))


_CFG = SystemConfig(omega=2.0, alpha1=0.3, alpha2=0.2, bath_size=2)
_ANG = InitialStateAngles(theta=1.0, phi=0.5)
_TINY = AngleGrid(n_theta=2, n_phi=2)
_V0 = initial_bloch(_ANG)

# Every public entry point reads a real number through check_real and a
# count through check_count, so a bool, a float count or a str is a
# ConfigError that names the field, while numpy's float64 (a float
# subclass) stays a real number.  Rows: field, entry point, the values it
# refuses, and whether it takes np.float64(0.5).
_SCALAR_PROBES = [
    ("t", lambda v: bloch_at(_CFG, _ANG, v), (True,), True),
    ("t", lambda v: literal_polarizations(_CFG, _ANG, v), (True,), True),
    ("t", lambda v: evolve_reduced(_CFG, _ANG, v), (True,), True),
    ("n_steps", lambda v: TimeGrid(1.0, v), (True, 2.5), False),
    ("t_end", lambda v: TimeGrid(v, 3), (True, "1"), True),
    ("theta_min", lambda v: AngleGrid(theta_min=v), (True, "a"), True),
    ("t_end", lambda v: auto_time_grid(_CFG, v), (True, "5"), True),
    ("sampling_factor", lambda v: auto_time_grid(_CFG, 1.0, sampling_factor=v), (True, 2.5),
     False),
    ("t", lambda v: gp_surface(_CFG, _TINY, v, time_steps=201), (True,), True),
    ("threads", lambda v: gp_surface(_CFG, _TINY, 1.0, time_steps=201, threads=v), (True, 2.5),
     False),
    ("seed", lambda v: verify_suite(seed=v), (True, 1.5), False),
    ("theta0", gp_unitary_reference, (True,), True),
    ("bath_size", sector_weights, (True,), False),
    # an int past the float range is no finite real (it used to overflow)
    ("omega", lambda v: SystemConfig(omega=v, alpha1=0.0, alpha2=0.0, bath_size=1), (10**400,),
     True),
    ("x", lambda v: check_real("x", v), (np.float32(1.0),), True),
    ("n", lambda v: check_count("n", v, 0), (np.int64(1),), False),
    ("t", lambda v: sector_rotation(_V0, _CFG, 0.5, 0.5, v), (True, math.nan), True),
    ("m1", lambda v: sector_rotation(_V0, _CFG, v, 0.5, 1.0), (True, "1"), True),
    ("m2", lambda v: sector_rotation(_V0, _CFG, 0.5, v, 1.0), (math.inf,), True),
    ("m1", lambda v: gamma_freq(_CFG, v, 0.5), (True, math.nan), True),
    ("m2", lambda v: gamma_freq(_CFG, 0.5, v), (False,), True),
    ("t", lambda v: check_time("t", v), (True, -0.5), True),
]

_SCALAR_ROWS = [
    pytest.param(field, call, value, id=f"{i}-{field}={value!r:.20}")
    for i, (field, call, refused, _) in enumerate(_SCALAR_PROBES)
    for value in refused
] + [
    pytest.param(None, call, np.float64(0.5), id=f"{i}-{field}=float64")
    for i, (field, call, _, takes_float64) in enumerate(_SCALAR_PROBES)
    if takes_float64
]


@pytest.mark.parametrize("field, call, value", _SCALAR_ROWS)
def test_public_entry_points_check_scalars_by_one_rule(field, call, value):
    if field is None:
        call(value)
        return
    with pytest.raises(ConfigError, match=rf"(^|: ){field} (must be|not finite)"):
        call(value)
