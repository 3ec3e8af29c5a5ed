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
273; with alpha2 = 0 only the m1 ladder is left).  When alpha1 = alpha2,
swapping the baths swaps x and y, so M_yy = M_xx and the y sums are not
taken at all.

One route evaluates the sum: cos and sin are taken only at anchors every K
nodes and at the K offsets of one block, angle addition turns them into
every node, and the sums' central difference moves each node onto its
exact float time.  K = floor(sqrt(n)) wherever every node's residual, its
time minus its anchor plus offset, and every anchor's distance from
times[0] + lo dt are within a few ulp of the largest |t|, as on every grid
uniform to within a few ulp (np.linspace and TimeGrid included); other
times, and fewer than 4, take K = 1, where every node is its own anchor.  The sectors are summed in chunks, each one
matrix product: the anchors' [cos | sin] block times a table of the chunk's
coefficients against the offsets' cos and sin, issued in blocks of anchor
rows small enough that BLAS does not split one over its threads.  Both
operands are held to a fixed element budget, so K does not shrink as the
sector count grows and temporary memory beyond a few arrays of n rows
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
    first node is unit within 1e-10 (pure initial state).  It is kept in the
    layout it was given: bloch_trajectory gives the (n, 3) view of a (3, n)
    array, so each component points[:, i] is contiguous.
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
        # np.linalg.norm(pts, axis=1) bit for bit, by columns: its sum of
        # three squares runs left to right
        x, y, z = pts.T
        norms = x * x + y * y
        norms += z * z
        np.sqrt(norms, out=norms)
        if norms.max() > 1.0 + 1e-12:
            raise ConfigError("trajectory leaves the Bloch ball beyond 1e-12")
        if abs(norms[0] - 1.0) > 1e-10:
            raise ConfigError("trajectory must start on the Bloch sphere (pure state)")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_map(
        cls, grid: TimeGrid, m: np.ndarray, v0: np.ndarray
    ) -> BlochTrajectory:
        """M v0 along `grid`, for m = rotation_matrices(config, grid.times()).

        bloch_trajectory's own kernel, so starts that share a config and a
        grid can share one map.  Only the map's five nonzero entries are
        read (M_xz = M_yz = M_zx = M_zy = 0).
        """
        if np.shape(m) != (grid.n_steps, 3, 3):
            raise ConfigError(f"rotation map must have shape ({grid.n_steps}, 3, 3)")
        x, y, z = v0
        # M v0 from the map's five nonzero entries, each a contiguous series,
        # into one contiguous row per component
        pts = np.empty((3, grid.n_steps))
        np.multiply(m[:, 0, 0], x, out=pts[0])
        pts[0] += m[:, 0, 1] * y
        np.multiply(m[:, 1, 0], x, out=pts[1])
        pts[1] += m[:, 1, 1] * y
        np.multiply(m[:, 2, 2], z, out=pts[2])
        return cls(grid=grid, points=pts.T)


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


# Elements in each operand of a sector chunk's product (512 KB of float64),
# so only the (anchors, hK) sums, product and result grow with S or n.  A
# chunk holds c = min(2^16 / 32K, 2^16 / 2 anchors) sectors: the (2c,
# anchors) block fills the budget (two rows of anchors past 32768), the
# (2c, hK) offset table a quarter.  OpenBLAS may split the product over its
# threads and sum in another order (0.3.31, 2-core x86-64: products of at
# most _PRODUCT_MULADDS multiply-adds never moved, larger ones did for some
# shapes).  At this width the byte tests' maps are the same at 1 and 2
# threads; at twice it N = 400 and gp-n48 are not.
_CHUNK_ELEMENTS = 1 << 16
# Multiply-adds in one matrix product: a chunk's product is issued in
# blocks of max(1, _PRODUCT_MULADDS // (2c hK)) anchor rows, so none is
# split over the BLAS threads.  Without the blocks the N = 200 maps to
# t = 50 (chunk products of 2.5 M multiply-adds) hashed differently at 1
# and 2 threads on OpenBLAS 0.3.31.
_PRODUCT_MULADDS = 10**6


@lru_cache(maxsize=64)
def _folded_ladder(bath_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The m >= 0 half of sector_weights(bath_size): m and its folded weight.

    Each |m| > 0 stands for the pair +-m and carries twice its ladder
    weight; m = 0 (even N) keeps its own.  Both arrays are read-only and
    built once per bath size, shared by every config of that size.
    """
    ladder = [s for s in sector_weights(bath_size) if s.m >= 0.0]
    m = np.array([s.m for s in ladder])
    w = np.array([s.w if s.m == 0.0 else 2.0 * s.w for s in ladder])
    for arr in (m, w):
        arr.setflags(write=False)
    return m, w


@lru_cache(maxsize=64)
def _sector_tables(config: SystemConfig):
    """Sector sum folded onto the m1, m2 >= 0 quadrant, equal Gamma merged.

    Returns (total, gammas, coef, lift): total is the summed weight (1 up to
    rounding), gammas (S,) the distinct frequencies in ascending order, coef
    (h, S) the rows _sums_by_anchors applies to cos(Gamma t) (to sin(Gamma t)
    in the last, xy, row) and lift (h,) their constant parts.  Each |m| > 0
    stands for the pair +-m and carries twice its ladder weight.  The map
    sees a sector only through Gamma and its coefficients, so the rows of
    sectors whose Gamma^2 is exactly equal are summed into one: swapped
    (m1, m2) when alpha1 = alpha2, every m2 when alpha2 = 0.  When
    alpha1 = alpha2 the y coefficients are the x ones (up to the order their
    merged rows were summed in), so the tables leave y out (h = 3: x, z and
    xy; otherwise h = 4) and rotation_matrices reads M_yy from the x sums,
    bit for bit M_xx at every N.

    Cached per config; the folded ladder they are formed from
    (_folded_ladder) is cached per bath size and shared by every config of
    that size.  Rows of equal Gamma^2 are summed in sector order.
    """
    m, w = _folded_ladder(config.bath_size)
    # (size, size) tables, sector (m1, m2) at row m1 and column m2
    bx2 = ((config.alpha1 * m) ** 2)[:, None]
    by2 = (config.alpha2 * m) ** 2
    bz2 = config.omega * config.omega
    gammas2 = bx2 + by2 + bz2
    weights = w[:, None] * w
    # w (1 - n_i^2) for i = x, y, z against 1 - cos, then w n_z against sin;
    # no y when alpha1 = alpha2, where M_yy is read from the x sums.
    rows = [weights * ((by2 + bz2) / gammas2)]
    if config.alpha1 != config.alpha2:
        rows.append(weights * ((bx2 + bz2) / gammas2))
    rows.append(weights * ((bx2 + by2) / gammas2))
    rows.append(weights * (config.omega / np.sqrt(gammas2)))
    rows = np.stack(rows, axis=-1).reshape(-1, len(rows))
    # np.add.at sums a group in sector order; np.add.reduceat would not,
    # and moves a row's last bit (N = 4, alpha = (1, 0)).
    distinct2, sector = np.unique(gammas2.reshape(-1), return_inverse=True)
    merged = np.zeros((distinct2.size, rows.shape[1]))
    np.add.at(merged, sector, rows)
    gammas = np.sqrt(distinct2)
    wc, wz = merged[:, :-1], merged[:, -1]
    # -w c cos for x, (y,) z with w c in the lift, and w n_z sin for xy
    coef = np.vstack([-wc.T, wz])
    lift = np.append(wc.sum(axis=0), 0.0)
    for arr in (gammas, coef, lift):
        arr.setflags(write=False)
    return float(weights.sum()), gammas, coef, lift


# Largest deviation, in ulp of max|t|, at which _time_layout keeps its
# anchors: of each residual |times[j] - a - o| and of each anchor from
# times[0] + lo dt.  np.linspace grids reach 2.0 and 1.5 (20000 seeded
# draws: ascending and descending, t_start in [0, 50], spans 1e-3 to 200,
# 4 to 4e4 nodes), so 4 keeps a 2x margin.  The move onto the times then
# errs by about what an error of 4 _RESIDUAL_ULPS ulp of max|t| in the
# times would (_onto_times).
_RESIDUAL_ULPS = 4.0


def _time_layout(times, t_max):
    """Anchors, offsets, residuals and step of the nodes, t_max = max|t|.

    Node j = lo + b, in blocks of K = floor(sqrt(n)) nodes, is summed at
    a + o: the anchor a = times[lo] plus the offset o = b dt, where dt is
    the mean step (times[-1] - times[0]) / (n - 1), and then moved onto
    times[j] by its residual r = times[j] - a - o (_onto_times).  That
    layout is kept when dt is finite and nonzero and every |r|, and every
    anchor's distance from times[0] + lo dt, is at most _RESIDUAL_ULPS ulp
    of t_max: the residuals alone would pass blocks displaced from one
    another, whose central differences across a block boundary span far
    more than 2 dt.
    Otherwise, and below 4 nodes, every node is its own anchor: offsets
    (0,), residuals None and dt = 0.
    """
    n = times.size
    # Python floats: a span past the floats gives dt = inf without a warning
    dt = (float(times[-1]) - float(times[0])) / (n - 1) if n >= 4 else 0.0
    if 0.0 < abs(dt) < math.inf:
        k = math.isqrt(n)
        # whole blocks of k nodes, the last padded with times[-1] (dropped)
        seg = np.concatenate((times, np.full(-n % k, times[-1]))).reshape(-1, k)
        offsets = np.arange(k) * dt
        anchors = seg[:, 0]
        r = ((seg - anchors[:, None]) - offsets).reshape(-1)[:n]
        drift = anchors - (np.arange(0, n, k) * dt + times[0])
        guard = _RESIDUAL_ULPS * np.spacing(t_max)
        if max(np.max(np.abs(r)), np.max(np.abs(drift))) <= guard:
            return anchors, offsets, r, dt
    return times, np.zeros(1), None, 0.0


def _sums_by_anchors(anchors, offsets, gammas, coef, lift) -> np.ndarray:
    """The diagonal and xy sector sums at every anchor plus every offset.

    Shape (h, anchors * k) for k offsets, in node order (a + o for each
    anchor a, then each offset o).  coef has h rows (_sector_tables): x, y,
    z and xy, or x, z and xy when alpha1 = alpha2.  The sum at a + o is the
    row's lift plus the sum over sectors of coef cos(Gamma (a + o)) (sin for
    the xy row), and

        cos(a + o) = cos a cos o - sin a sin o
        sin(a + o) = sin a cos o + cos a sin o

    make each sector chunk one product of the (anchors, 2c) block
    [cos Gamma a | sin Gamma a] with the (2c, hk) offset table
    [coef cos o; -coef sin o] ([coef sin o; coef cos o] for xy), issued in
    blocks of anchor rows (_PRODUCT_MULADDS).  Each block of k nodes
    restarts from its anchor, so rounding does not build up from block to
    block.
    """
    n_a, k, h = anchors.size, offsets.size, coef.shape[0]
    # The width is sized for h = 4 at either h: it fixes which sectors each
    # product sums, and so the map's bytes.
    width = max(1, min(_CHUNK_ELEMENTS // (32 * k), _CHUNK_ELEMENTS // (2 * n_a)))
    width = min(width, gammas.size)
    # The result, then one block for the sums, the product and the widest
    # chunk's operands: apart or in the other order, glibc's malloc returned
    # their pages after each call (172 minor faults a call at gp-n48's map).
    vals = np.empty((h, n_a, k))
    m = h * n_a * k
    block = np.empty(2 * m + (2 * n_a + 3 * k + 2 * h * (k + 1)) * width)
    sums = block[:m].reshape(n_a, h, k)
    prod = block[m : 2 * m].reshape(n_a, h, k)
    left_buf = block[2 * m :]
    trig_buf = left_buf[2 * n_a * width :]
    coef_buf = trig_buf[3 * k * width :]
    table_buf = coef_buf[2 * h * width :]
    for lo in range(0, gammas.size, width):
        gam = gammas[lo : lo + width]
        c = gam.size
        # the block transposed, anchors innermost: ([cos a | sin a], c, anchors)
        left = left_buf[: 2 * c * n_a].reshape(2, c, n_a)
        np.multiply.outer(gam, anchors, out=left[1])
        np.cos(left[1], out=left[0])
        np.sin(left[1], out=left[1])
        # [sin o | cos o | -sin o] per offset: [cos o | -sin o] against the
        # cos rows, [sin o | cos o] against the xy row
        trig = trig_buf[: 3 * k * c].reshape(k, 3 * c)
        np.multiply.outer(offsets, gam, out=trig[:, c : 2 * c])
        np.sin(trig[:, c : 2 * c], out=trig[:, :c])
        np.cos(trig[:, c : 2 * c], out=trig[:, c : 2 * c])
        np.negative(trig[:, :c], out=trig[:, 2 * c :])
        pair = coef_buf[: 2 * h * c].reshape(h, 2, c)
        pair[...] = coef[:, None, lo : lo + c]
        pair = pair.reshape(h, 1, 2 * c)
        # the table transposed, sectors innermost: (h, k, [cos a | sin a] c),
        # filled in contiguous rows of 2c
        table = table_buf[: 2 * h * k * c].reshape(h, k, 2 * c)
        np.multiply(pair[:-1], trig[:, c:], out=table[:-1])
        np.multiply(pair[-1], trig[:, : 2 * c], out=table[-1])
        lhs = left.reshape(2 * c, n_a).T
        rhs = table.reshape(h * k, 2 * c).T
        # The first chunk's product is the sums' start, not an addend to
        # zeros: that can leave -0.0 where 0.0 + product gives +0.0, and the
        # lift added last (x + 0.0 at worst) turns any -0.0 into +0.0, so
        # the bytes are those of a sum started from zeros.
        out = (sums if lo == 0 else prod).reshape(n_a, h * k)
        rows = max(1, _PRODUCT_MULADDS // (2 * c * h * k))
        for r in range(0, n_a, rows):
            np.matmul(lhs[r : r + rows], rhs, out=out[r : r + rows])
        if lo:
            sums += prod
    # the lift, added last (the chunks' partial sums are mostly smaller, and
    # round less), in node order
    np.add(sums.transpose(1, 0, 2), lift[:, None, None], out=vals)
    return vals.reshape(h, -1)


def _onto_times(sums, r, dt) -> None:
    """Move the (h, n) sums V at a + o onto the times, in place (n >= 4).

    Node j moves by r D: r = times[j] - a - o is its residual from
    _time_layout (0 at the first node, at most _RESIDUAL_ULPS ulp of
    max|t|) and D = (V[j+1] - V[j-1]) / 2dt, second order one-sided at the
    last node.  The error |r| |D - dV/dt| is at most |r| max|dV/dt|
    min(2, (Gamma_max dt)^2 / 3) (min(4, ...) at the last node), max over
    all t: below one ulp of the map on auto grids (Gamma_max dt = 2 pi /
    40).  Where a difference spans a block boundary, its two anchors each
    lie within g = _RESIDUAL_ULPS ulp of max|t| of times[0] + lo dt, which
    adds at most 3 |r| max|dV/dt| g / dt.  So the move never changes the
    map by more than moving the time by (4 + 3 g / dt) g would
    (|dV/dt| <= Gamma_max).
    Both differences are taken of the unmoved sums, then added in place;
    the first node (r = 0) is left as it is.
    """
    r = r / (2.0 * dt)
    last = (3.0 * sums[:, -1] - 4.0 * sums[:, -2] + sums[:, -3]) * r[-1]
    step = np.subtract(sums[:, 2:], sums[:, :-2])
    step *= r[1:-1]
    sums[:, 1:-1] += step
    sums[:, -1] += last


def _checked_times(times) -> tuple[np.ndarray, float]:
    """times as a flat float array, and max|t| (0 for no times).

    A NaN or infinite time raises ConfigError.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.isfinite(times).all():
        raise ConfigError("times must be finite")
    return times, float(np.max(np.abs(times), initial=0.0))


def _check_rotation_angle(gamma_max: float, worst: float) -> None:
    """ConfigError naming worst, the largest |t|, if gamma_max * worst overflows."""
    gamma_max = float(gamma_max)
    if math.isinf(gamma_max * worst):
        raise ConfigError(
            f"time {worst!r} too large: Gamma * t overflows at Gamma = {gamma_max!r}"
        )


def rotation_matrices(config: SystemConfig, times: np.ndarray) -> np.ndarray:
    """Weighted sector-sum rotation map M(t), shape (n_times, 3, 3).

    The map is stored entry-major: the result is the (n, 3, 3) view of a
    (3, 3, n) array, so each entry's series M[:, i, k] is contiguous
    (np.ascontiguousarray gives C order).

    v_S(t) = M(t) @ v(0).  Sectors (+-m1, +-m2) share weight and Gamma, so
    every term odd in n_x or n_y cancels and M(t) has exactly five nonzero
    entries (c = cos(Gamma t), s = sin(Gamma t), sums over sectors):

        M_ii = sum w - sum w (1 - c) (1 - n_i^2)      for i = x, y, z
        M_xy = -M_yx = -sum w s n_z

    When alpha1 = alpha2, M_yy is read from the x sums, so it equals M_xx
    bit for bit and the in-plane block is a rotation times a scale.

    The sums run over the S distinct frequencies of _sector_tables (folded
    quadrant, equal Gamma merged), by angle addition from anchors every K
    nodes (_sums_by_anchors).  On times uniform to within a few ulp (every
    residual against anchor plus offset, and every anchor against
    times[0] + lo dt, at most _RESIDUAL_ULPS ulp of max|t|: _time_layout),
    as every TimeGrid and np.linspace gives, K = floor(sqrt(n)),
    so cos and sin are taken at n/K anchors and K offsets instead of at all
    n nodes; any other times, fewer than 4 included, take K = 1 and cos and
    sin at every node.  The two agree to about the rounding of Gamma t
    (5.7e-14 at Gamma t = 500).  Each chunk of sectors is one matrix
    product whose operands hold at most _CHUNK_ELEMENTS elements each
    (512 KB), so memory beyond the (n, 4) sums, product and result ((n, 3)
    when alpha1 = alpha2) and the (n, 3, 3) map is about 1 MB at any S
    and n.  Empty times give an empty map; a NaN
    or infinite time, or one at which the fastest sector's Gamma * t
    overflows, raises ConfigError.
    """
    times, t_max = _checked_times(times)
    if times.size == 0:
        return np.zeros((0, 3, 3))
    total, *tables = _sector_tables(config)
    _check_rotation_angle(tables[0][-1], t_max)
    anchors, offsets, r, dt = _time_layout(times, t_max)
    sums = _sums_by_anchors(anchors, offsets, *tables)[:, : times.size]
    if r is not None:
        _onto_times(sums, r, dt)
    *diagonal, xy = sums
    if len(diagonal) == 2:
        # alpha1 = alpha2: M_yy is M_xx, read from the same x sums
        diagonal.insert(1, diagonal[0])
    # entry-major: each entry's series is one contiguous row
    out = np.empty((3, 3, times.size))
    out[0, 2] = out[1, 2] = out[2, 0] = out[2, 1] = 0.0
    for i, d in enumerate(diagonal):
        np.subtract(total, d, out=out[i, i])
    np.negative(xy, out=out[0, 1])
    out[1, 0] = xy
    return out.transpose(2, 0, 1)


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
    """Sample the reduced dynamics on a uniform time grid.

    The points are the (n, 3) view of a (3, n) array, one contiguous row
    per component.
    """
    m = rotation_matrices(config, grid.times())
    return BlochTrajectory.from_map(grid, m, initial_bloch(angles).as_array())


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
    times, t_max = _checked_times(times)
    ladder = sector_weights(config.bath_size)
    m = np.array([s.m for s in ladder])
    w = np.array([s.w for s in ladder])
    a1m = config.alpha1 * np.repeat(m, m.size)
    a2m = config.alpha2 * np.tile(m, m.size)
    weights = np.repeat(w, w.size) * np.tile(w, w.size)
    omega = config.omega
    gammas = np.sqrt(omega**2 + a1m * a1m + a2m * a2m)
    _check_rotation_angle(gammas.max(), t_max)

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


__all__ = [
    "BlochTrajectory",
    "TimeGrid",
    "bloch_at",
    "bloch_trajectory",
    "gamma_freq",
    "literal_points",
    "literal_polarizations",
    "rotation_matrices",
    "sector_rotation",
]
