"""Closed-form reduced dynamics of the qubit as a weighted sum over sectors.

With both baths maximally mixed, each joint collective eigenvalue pair
(m1, m2) evolves the qubit under the effective field

    b(m1, m2) = (alpha1 * m1, alpha2 * m2, omega),
    Gamma(m1, m2) = |b| = sqrt(omega^2 + alpha1^2 m1^2 + alpha2^2 m2^2),

so the sector Bloch vector rotates about n = b / Gamma by angle Gamma * t:

    v(t) = cos(Gamma t) v0 + sin(Gamma t) (n x v0) + (1 - cos(Gamma t)) (n.v0) n.

The rotation sense is fixed by the Heisenberg equations for H = omega
sigma_z / 2 in the stated basis: the alpha = 0 limit satisfies
dv/dt = omega (z x v).  The reduced state is the exact convex combination

    v_S(t) = sum_{m1, m2} w(m1) w(m2) R_{m1 m2}(t) v(0),

a contraction (|v_S(t)| <= 1) that is unitary only when a single sector
carries all weight.

`rotation_matrices` evaluates that sum folded onto m1, m2 >= 0: sectors
(+-m1, +-m2) share weight and Gamma, so each |m| > 0 enters once with twice
its weight (m = 0, present for even N, keeps its own), which turns the
(N + 1)^2 sectors into (floor(N/2) + 1)^2.  The terms odd in n_x or n_y
cancel in pairs, so the summed map has exactly five nonzero entries: the
diagonal and M_xy = -M_yx.  The map sees a sector only through Gamma and
its coefficient row, so folded sectors with exactly equal Gamma^2 are
merged into one row (at N = 48 with alpha1 = alpha2 that takes 625 rows to
273; with alpha2 = 0 only the m1 ladder is left).

One route evaluates the sum: cos and sin are taken only at anchors every K
nodes and at the K offsets of one block, and angle addition turns them into
every node; a first-order term puts each node on its exact float time.  On
a uniform grid (times bit for bit equal to np.linspace of their ends, which
every TimeGrid gives) K = floor(sqrt(n)); any other times, a single time
included, take K = 1, where every node is its own anchor.  The sectors are
summed in chunks, each one matrix product: the anchors' [cos | sin] block
times a table of the chunk's coefficients against the offsets' cos and sin.
Both operands are held to a fixed element budget, so K does not shrink as
the sector count grows and temporary memory beyond a few arrays of n rows
grows with neither S nor n.

A SystemConfig is valid once built, so only times, node counts and sector
eigenvalues are checked here (model.check_real, check_time, check_count):
finite, a single time >= 0, and no time whose rotation angle
Gamma_max * |t| overflows, refused before any cos or sin is taken.

`literal_polarizations` additionally evaluates an alternate transcription of
the same sector sum that carries a -1 / 2^(2N+1) prefactor and a reflected
x axis in its initial frame.  It is kept, unpatched, to document its
normalization discrepancy: at t = 0 it yields a Bloch norm of 1/2 for pure
initial states where `bloch_at` yields 1.  The series is exactly 1/2 times
the physical trajectory started from (pi - theta, pi - phi), so its phase is
the physical phase at those angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .model import (
    BlochVector,
    InitialStateAngles,
    SystemConfig,
    check_count,
    check_real,
    check_time,
    initial_bloch,
    sector_weights,
)

# numpy allocates no array of more bytes than intp holds, so a grid with more
# float64 nodes than this cannot be sampled at all.
_MAX_NODES = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [0, t_end] with n_steps nodes (>= 2); t_end > 0.

    Every evolution starts at t = 0, where the joint state is the product
    of the qubit's pure state and the two maximally mixed baths.
    """

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if check_real("t_end", self.t_end) <= 0.0:
            raise ConfigError("t_end must be positive")
        if check_count("n_steps", self.n_steps, 2) > _MAX_NODES:
            raise MemoryError(f"{self.n_steps} time nodes exceed the largest numpy array")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps)

    @property
    def dt(self) -> float:
        return float(self.t_end) / (self.n_steps - 1)


@dataclass(frozen=True)
class BlochTrajectory:
    """Sampled reduced Bloch vectors on a time grid.

    points has shape (n_steps, 3); every node obeys |v| <= 1 + 1e-12 and the
    first node is unit within 1e-10 (pure initial state).
    """

    grid: TimeGrid
    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape != (self.grid.n_steps, 3):
            raise ConfigError(
                f"trajectory points must have shape ({self.grid.n_steps}, 3)"
            )
        if not np.all(np.isfinite(pts)):
            raise ConfigError("trajectory contains non-finite points")
        norms = np.linalg.norm(pts, axis=1)
        if norms.max() > 1.0 + 1e-12:
            raise ConfigError("trajectory leaves the Bloch ball beyond 1e-12")
        if abs(norms[0] - 1.0) > 1e-10:
            raise ConfigError("trajectory must start on the Bloch sphere (pure state)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def gamma_freq(config: SystemConfig, m1: float, m2: float) -> float:
    """Sector precession frequency sqrt(omega^2 + alpha1^2 m1^2 + alpha2^2 m2^2).

    A sector whose Gamma^2 overflows raises ConfigError naming m1 and m2.
    """
    m1, m2 = check_real("m1", m1), check_real("m2", m2)
    b1, b2 = config.alpha1 * m1, config.alpha2 * m2
    # The order of _sector_tables' Gamma^2, so Gamma_max is the map's bit for bit.
    gamma2 = b1 * b1 + b2 * b2 + config.omega * config.omega
    if math.isinf(gamma2):
        raise ConfigError(f"m1 = {m1!r}, m2 = {m2!r} too large: Gamma^2 overflows")
    return math.sqrt(gamma2)


def sector_rotation(
    v0: BlochVector, config: SystemConfig, m1: float, m2: float, t: float
) -> BlochVector:
    """Rotate v0 about n = b/Gamma by angle Gamma*t for one (m1, m2) sector.

    Gamma = gamma_freq(config, m1, m2) >= omega > 0: a valid config's
    omega^2 does not underflow.
    """
    gamma = gamma_freq(config, m1, m2)
    t = check_time("t", t)
    _check_rotation_angle(gamma, t)
    b = np.array([config.alpha1 * m1, config.alpha2 * m2, config.omega], dtype=float)
    v = v0.as_array()
    n = b / gamma
    ang = gamma * t
    c, s = math.cos(ang), math.sin(ang)
    rotated = c * v + s * np.cross(n, v) + (1.0 - c) * np.dot(n, v) * n
    return BlochVector.from_array(rotated)


# Elements in each operand of a sector chunk's product (512 KB of float64):
# the (2c, 8K) offset table and the (2c, anchors) block, so no buffer but
# the (anchors, 8K) sums and product grows with S or n (the block holds two
# rows of anchors when one sector alone overfills it, past 32768 anchors).
# The product is one GEMM, which OpenBLAS may split over its threads.  For
# the configs of the byte tests (up to 398 chunks at N = 400 in
# tests/test_dynamics.py; gp, verify and compare in tests/test_cli.py) the
# split divides the output and the bytes are the same at 1 and 2 threads.
# It does not always: at N = 30, (0.3, 0.7), t = 5 (n = 371, K = 19,
# S = 254) the (20 x 430) @ (430 x 152) product sums in another order at 2
# threads, and 937 map entries move by up to 1.3e-15.  The map's bytes can
# therefore depend on OPENBLAS_NUM_THREADS.
_CHUNK_ELEMENTS = 1 << 16


@lru_cache(maxsize=64)
def _sector_tables(config: SystemConfig):
    """Sector sum folded onto the m1, m2 >= 0 quadrant, equal Gamma merged.

    Returns (total, gammas, p, q, lift): total is the summed weight (1 up to
    rounding), gammas (S,) the distinct frequencies in ascending order, and
    p, q (4, S) and lift (8,) the coefficients _sums_by_anchors applies to
    cos(Gamma t), to sin(Gamma t) and to 1.  Each |m| > 0 stands for the
    pair +-m and carries twice its ladder weight.  The map sees a sector
    only through Gamma and its coefficients, so the rows of sectors whose
    Gamma^2 is exactly equal are summed into one: swapped (m1, m2) when
    alpha1 = alpha2, every m2 when alpha2 = 0.  When alpha1 = alpha2 the y
    coefficients are then the x coefficients, copied, so the map's M_yy is
    M_xx bit for bit at every N (summed separately they could differ in
    the last bit).
    """
    ladder = [s for s in sector_weights(config.bath_size) if s.m >= 0.0]
    m = np.array([s.m for s in ladder])
    w = np.array([s.w if s.m == 0.0 else 2.0 * s.w for s in ladder])
    bx2 = np.repeat((config.alpha1 * m) ** 2, m.size)
    by2 = np.tile((config.alpha2 * m) ** 2, m.size)
    bz2 = config.omega * config.omega
    gammas2 = bx2 + by2 + bz2
    weights = np.repeat(w, w.size) * np.tile(w, w.size)
    # w (1 - n_i^2) for i = x, y, z against 1 - cos, then w n_z against sin.
    rows = np.column_stack([
        weights * ((by2 + bz2) / gammas2),
        weights * ((bx2 + bz2) / gammas2),
        weights * ((bx2 + by2) / gammas2),
        weights * (config.omega / np.sqrt(gammas2)),
    ])
    distinct2, sector = np.unique(gammas2, return_inverse=True)
    merged = np.zeros((distinct2.size, 4))
    np.add.at(merged, sector, rows)
    if config.alpha1 == config.alpha2:
        # Swapped sectors share a row, so the x and y coefficients agree up
        # to the order np.add.at summed them in; make them agree exactly.
        merged[:, 1] = merged[:, 0]
    gammas = np.sqrt(distinct2)
    wc, wz = merged[:, :3], merged[:, 3]
    # The eight sums, in order: d/dt of the xy sum, the x, y, z sums of
    # w c (1 - cos), the xy sum of w n_z sin, and d/dt of the x, y, z sums.
    # The first four take cos (p), the last four sin (q), and the constant
    # part of 1 - cos goes to the lift.
    p = np.column_stack([gammas * wz, -wc]).T
    q = np.column_stack([wz, gammas[:, None] * wc]).T
    lift = np.zeros(8)
    lift[1:4] = wc.sum(axis=0)
    for arr in (gammas, p, q, lift):
        arr.setflags(write=False)
    return float(weights.sum()), gammas, p, q, lift


def _offsets_per_anchor(times: np.ndarray) -> int:
    """Block length K of _sums_by_anchors: floor(sqrt(n)) on a uniform grid.

    Angle addition from anchors needs times to be bit for bit
    np.linspace(times[0], times[-1], n).  Any other times, and fewer than 4
    of them, take K = 1: every node is its own anchor.
    """
    if times.size >= 4 and np.array_equal(
        times, np.linspace(times[0], times[-1], times.size)
    ):
        return math.isqrt(times.size)
    return 1


def _sums_by_anchors(times, k, gammas, p, q, lift) -> np.ndarray:
    """The x, y, z and xy sector sums at times, shape (4, n), in blocks of k nodes.

    Node j = lo + b is the anchor a = times[lo] plus the offset o = b dt plus
    a residual r = times[j] - a - o of a few ulp.  The eight sums of
    _sector_tables at a + o are lift + sum over sectors of
    p cos(Gamma (a + o)) + q sin(Gamma (a + o)), and

        cos(a + o) = cos a cos o - sin a sin o
        sin(a + o) = sin a cos o + cos a sin o

    make each sector chunk one product of the (anchors, 2c) block
    [cos Gamma a | sin Gamma a] with the (2c, 8k) offset table
    [p cos o, q sin o; -p sin o, q cos o], added to the sums.  The four
    derivative sums move each node by r onto times[j].  Each block restarts
    from the actual times[lo], so rounding does not build up from block to
    block.  At k = 1 the offset and r are exactly 0.
    """
    n = times.size
    # one node per block takes no step (and a single time has none)
    dt = 0.0 if k == 1 else (times[-1] - times[0]) / (n - 1)
    offsets = np.arange(k) * dt
    # Times padded to whole blocks; the padded nodes are computed and dropped.
    seg = np.concatenate((times, np.full(-n % k, times[-1]))).reshape(-1, k)
    n_a = seg.shape[0]
    width = max(1, min(_CHUNK_ELEMENTS // (16 * k), _CHUNK_ELEMENTS // (2 * n_a)))
    width = min(width, gammas.size)
    # The sums, the product and the widest chunk's operands share one
    # allocation per call, and a narrower last chunk takes the front of each.
    # Apart, the allocator returns their pages after every call and faults
    # them in again on the next (about 270 minor faults per call at N = 48
    # on 5441 nodes).
    m = 8 * n_a * k
    block = np.empty(2 * m + (2 * n_a + 19 * k) * width)
    sums = block[:m].reshape(n_a, 8, k)
    prod = block[m : 2 * m].reshape(n_a, 8, k)
    left_buf = block[2 * m :]
    trig_buf = left_buf[2 * n_a * width :]
    table_buf = trig_buf[3 * k * width :]
    sums[...] = lift[:, None]
    for lo in range(0, gammas.size, width):
        gam = gammas[lo : lo + width]
        c = gam.size
        # the block transposed, anchors innermost: ([cos a | sin a], c, anchors)
        left = left_buf[: 2 * c * n_a].reshape(2, c, n_a)
        np.multiply.outer(gam, seg[:, 0], out=left[1])
        np.cos(left[1], out=left[0])
        np.sin(left[1], out=left[1])
        # [sin o, cos o, -sin o]: [cos o, -sin o] against p, [sin o, cos o]
        # against q
        trig = trig_buf[: 3 * k * c].reshape(k, 3, c)
        np.multiply.outer(offsets, gam, out=trig[:, 1])
        np.sin(trig[:, 1], out=trig[:, 0])
        np.cos(trig[:, 1], out=trig[:, 1])
        np.negative(trig[:, 0], out=trig[:, 2])
        # the table transposed, sectors innermost: (8, k, [cos a | sin a], c)
        table = table_buf[: 16 * k * c].reshape(8, k, 2, c)
        np.multiply(p[:, None, None, lo : lo + c], trig[:, 1:], out=table[:4])
        np.multiply(q[:, None, None, lo : lo + c], trig[:, :2], out=table[4:])
        np.matmul(
            left.reshape(2 * c, n_a).T,
            table.reshape(8 * k, 2 * c).T,
            out=prod.reshape(n_a, 8 * k),
        )
        sums += prod
    # the x, y, z, xy sums moved by r along their derivatives
    r = (seg - seg[:, :1]) - offsets
    sums[:, 1:4] += r[:, None, :] * sums[:, 5:]
    sums[:, 4] += r * sums[:, 0]
    return sums[:, 1:5].transpose(1, 0, 2).reshape(4, -1)[:, :n]


def _checked_times(times) -> np.ndarray:
    """times as a flat float array; a NaN or infinite time raises ConfigError."""
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.isfinite(times).all():
        raise ConfigError("times must be finite")
    return times


def _check_rotation_angle(gamma_max: float, times) -> None:
    """ConfigError naming the time whose rotation angle gamma_max * |t| overflows."""
    gamma_max, worst = float(gamma_max), float(np.max(np.abs(times), initial=0.0))
    if math.isinf(gamma_max * worst):
        raise ConfigError(
            f"time {worst!r} too large: Gamma * t overflows at Gamma = {gamma_max!r}"
        )


def rotation_matrices(config: SystemConfig, times: np.ndarray) -> np.ndarray:
    """Weighted sector-sum rotation map M(t), shape (n_times, 3, 3).

    v_S(t) = M(t) @ v(0).  Sectors (+-m1, +-m2) share weight and Gamma, so
    every term odd in n_x or n_y cancels and M(t) has exactly five nonzero
    entries (c = cos(Gamma t), s = sin(Gamma t), sums over sectors):

        M_ii = sum w - sum w (1 - c) (1 - n_i^2)      for i = x, y, z
        M_xy = -M_yx = -sum w s n_z

    When alpha1 = alpha2, M_yy equals M_xx bit for bit, so the in-plane
    block is a rotation times a scale.

    The sums run over the S distinct frequencies of _sector_tables (folded
    quadrant, equal Gamma merged), by angle addition from anchors every K
    nodes (_sums_by_anchors).  On times bit for bit equal to
    np.linspace(times[0], times[-1], n), as every TimeGrid gives,
    K = floor(sqrt(n)), so cos and sin are taken at n/K anchors and K
    offsets instead of at all n nodes; any other times, a single time
    included, take K = 1 and cos and sin at every node.  The two agree to
    about the rounding of Gamma t (5.7e-14 at Gamma t = 500).  Each chunk
    of sectors is one matrix product whose operands hold at most
    _CHUNK_ELEMENTS elements each (512 KB), so memory beyond the (n, 8) sums
    and product is about 1 MB at any S and n.  Empty times give an empty
    map; a NaN or infinite time, or one at which the fastest sector's
    Gamma * t overflows, raises ConfigError.
    """
    times = _checked_times(times)
    if times.size == 0:
        return np.zeros((0, 3, 3))
    total, *tables = _sector_tables(config)
    _check_rotation_angle(tables[0][-1], times)
    sums = _sums_by_anchors(times, _offsets_per_anchor(times), *tables)
    out = np.zeros((times.size, 3, 3))
    for i in range(3):
        out[:, i, i] = total - sums[i]
    out[:, 0, 1] = -sums[3]
    out[:, 1, 0] = sums[3]
    return out


def bloch_at(
    config: SystemConfig, angles: InitialStateAngles, t: float
) -> BlochVector:
    """Reduced Bloch vector at time t >= 0 (exact sector sum).

    At t = 0 this returns initial_bloch(angles); the map is a contraction so
    |v(t)| <= 1 always.
    """
    m = rotation_matrices(config, np.array([check_time("t", t)]))
    return BlochVector.from_array(m[0] @ initial_bloch(angles).as_array())


def bloch_trajectory(
    config: SystemConfig, angles: InitialStateAngles, grid: TimeGrid
) -> BlochTrajectory:
    """Sample the reduced dynamics on a uniform time grid."""
    m = rotation_matrices(config, grid.times())
    x, y, z = initial_bloch(angles).as_array()
    # M v0 from the map's five nonzero entries
    pts = np.empty((grid.n_steps, 3))
    pts[:, 0] = m[:, 0, 0] * x + m[:, 0, 1] * y
    pts[:, 1] = m[:, 1, 0] * x + m[:, 1, 1] * y
    pts[:, 2] = m[:, 2, 2] * z
    return BlochTrajectory(grid=grid, points=pts)


def _sinc_factors(gammas: np.ndarray, t: float):
    """sin(Gamma t)/Gamma and (1 - cos(Gamma t))/Gamma^2; Gamma >= omega > 0."""
    ang = gammas * t
    return np.sin(ang) / gammas, (1.0 - np.cos(ang)) / gammas**2


def literal_points(
    config: SystemConfig, angles: InitialStateAngles, times: np.ndarray
) -> np.ndarray:
    """Evaluate the literal polarization sum on an array of times.

    Transcribes the three closed-form component series verbatim, including
    their -1 / 2^(2N+1) prefactor (evaluated as -w1*w2/2 per sector, which is
    the same dyadic number).  Shape (n_times, 3) ordered (x, y, z).  A NaN
    or infinite time, or one whose Gamma * t overflows, raises ConfigError.
    """
    times = _checked_times(times)
    ladder = sector_weights(config.bath_size)
    m = np.array([s.m for s in ladder])
    w = np.array([s.w for s in ladder])
    a1m = config.alpha1 * np.repeat(m, m.size)
    a2m = config.alpha2 * np.tile(m, m.size)
    weights = np.repeat(w, w.size) * np.tile(w, w.size)
    omega = config.omega
    gammas = np.sqrt(omega**2 + a1m * a1m + a2m * a2m)
    _check_rotation_angle(gammas.max(), times)

    st, ct = math.sin(angles.theta), math.cos(angles.theta)
    sp, cp = math.sin(angles.phi), math.cos(angles.phi)
    # Frame-projection factor shared by all three components.
    common = a1m * st * sp + a2m * st * cp + omega * ct

    out = np.empty((times.size, 3))
    for i, t in enumerate(times):
        cosv = np.cos(gammas * t)
        s_over, c_over = _sinc_factors(gammas, float(t))
        sz = cosv * ct + s_over * st * (a1m * cp - a2m * sp) + omega * common * c_over
        sx = cosv * st * sp - s_over * (omega * st * cp - a2m * ct) + a1m * common * c_over
        sy = cosv * st * cp - s_over * (-omega * st * sp + a1m * ct) + a2m * common * c_over
        # Pairwise sums, not np.dot, whose OpenBLAS split over threads
        # rounds differently with each thread count (see phase._trapezoid_on_chi).
        out[i, 0] = -0.5 * float((weights * sx).sum())
        out[i, 1] = -0.5 * float((weights * sy).sum())
        out[i, 2] = -0.5 * float((weights * sz).sum())
    return out


def literal_polarizations(
    config: SystemConfig, angles: InitialStateAngles, t: float
) -> BlochVector:
    """Literal-form polarizations (x, y, z) at a single time.

    Not a physical Bloch vector: at t = 0 its norm is exactly 1/2 for pure
    initial states, and its x axis is reflected relative to bloch_at.  Kept
    for documenting that discrepancy and for reproducing figures generated
    from the literal series.
    """
    pts = literal_points(config, angles, np.array([check_time("t", t)]))
    return BlochVector.from_array(pts[0])
