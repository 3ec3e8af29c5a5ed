"""Acceptance criteria for the package, one test per criterion.

Each test prints a single `criterion N PASS/FAIL: ...` line (visible under
`pytest -s`) and then asserts.  Tolerances are pinned in the assertions and
never loosened at runtime.  Run order follows the criterion numbering.
"""

import io
import math
import time

import numpy as np

from frustra_gp import (
    AngleGrid,
    Azimuth,
    InitialStateAngles,
    PolarTrack,
    SystemConfig,
    TimeGrid,
    angular_distance,
    bloch_at,
    bloch_trajectory,
    evolve_reduced,
    gp_closed_form,
    gp_discrete_holonomy,
    gp_south_pole,
    gp_unitary_reference,
    initial_bloch,
    literal_polarizations,
    pancharatnam_phase,
    polar_track,
    sector_weights,
    strategy_compare,
)
from frustra_gp.cli import write_compare_csv
from frustra_gp.dynamics import BlochTrajectory


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_unitary_limit_phase():
    # decoupled qubit, one full precession period: gamma = -pi (1 - cos theta0)
    started = time.perf_counter()
    cfg = SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.0, bath_size=1)
    worst = 0.0
    for theta0 in (0.3, 0.9, 1.5, 2.1, 2.7):
        ang = InitialStateAngles(theta=theta0, phi=0.4)
        traj = bloch_trajectory(cfg, ang, TimeGrid(math.pi, 4001))
        res = gp_closed_form(polar_track(traj), ang)
        worst = max(worst, angular_distance(res.gamma, gp_unitary_reference(theta0)))
    elapsed = time.perf_counter() - started
    _report(
        1,
        worst <= 1e-4 and elapsed < 5.0,
        f"max |gamma - gamma_u| = {worst:.3e} (tol 1e-4), {elapsed:.2f}s",
    )


def test_criterion_2_sector_sum_matches_dense_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20260102)
    worst = 0.0
    cases = 0
    for n in (1, 2, 3):
        for _ in range(20):
            cfg = SystemConfig(
                omega=float(rng.uniform(0.05, 2.0)),
                alpha1=float(rng.uniform(0.0, 2.0)),
                alpha2=float(rng.uniform(0.0, 2.0)),
                bath_size=n,
            )
            ang = InitialStateAngles(
                theta=float(rng.uniform(0.0, math.pi)),
                phi=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            t = float(rng.uniform(0.0, 10.0))
            exact = evolve_reduced(cfg, ang, t).bloch_vector().as_array()
            fast = bloch_at(cfg, ang, t).as_array()
            worst = max(worst, float(np.max(np.abs(exact - fast))))
            cases += 1
    elapsed = time.perf_counter() - started
    _report(
        2,
        worst <= 1e-10 and elapsed < 60.0,
        f"{cases} randomized cases, max Bloch deviation = {worst:.3e}"
        f" (tol 1e-10), {elapsed:.2f}s",
    )


def test_criterion_3_gp_converges_under_refinement():
    rng = np.random.default_rng(20260403)
    worst_final = 0.0
    monotone = True
    for _ in range(10):
        cfg = SystemConfig(
            omega=float(rng.uniform(1.0, 2.5)),
            alpha1=float(rng.uniform(0.2, 1.2)),
            alpha2=float(rng.uniform(0.2, 1.2)),
            bath_size=int(rng.integers(1, 5)),
        )
        ang = InitialStateAngles(
            theta=float(rng.uniform(0.4, math.pi - 0.4)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        gammas = []
        for n_steps in (5001, 10001, 20001, 40001):
            traj = bloch_trajectory(cfg, ang, TimeGrid(5.0, n_steps))
            gammas.append(gp_closed_form(polar_track(traj), ang).gamma)
        d1 = angular_distance(gammas[1], gammas[0])
        d2 = angular_distance(gammas[2], gammas[1])
        d3 = angular_distance(gammas[3], gammas[2])
        # successive refinements shrink unless already at the float floor
        if not ((d2 < d1 or d1 < 1e-12) and (d3 < d2 or d2 < 1e-12)):
            monotone = False
        worst_final = max(worst_final, d3)
    _report(
        3,
        monotone and worst_final <= 1e-3,
        f"10 configs, refinement monotone = {monotone},"
        f" max final doubling gap = {worst_final:.3e} (tol 1e-3)",
    )


def test_criterion_4_south_pole_route_agrees():
    rng = np.random.default_rng(20260404)
    worst = 0.0
    for _ in range(5):
        cfg = SystemConfig(
            omega=float(rng.uniform(1.0, 2.5)),
            alpha1=float(rng.uniform(0.1, 1.2)),
            alpha2=float(rng.uniform(0.1, 1.2)),
            bath_size=int(rng.integers(1, 5)),
        )
        ang = InitialStateAngles(theta=math.pi, phi=0.0)
        track = polar_track(bloch_trajectory(cfg, ang, TimeGrid(5.0, 8001)))
        sp = gp_south_pole(track)
        cf = gp_closed_form(track, ang)
        worst = max(worst, angular_distance(sp.gamma, cf.gamma))
    # a pole start pins the polarization to the z axis, so exercise the pole
    # quadrature on a synthetic spiral with a hand-integrated value as well
    grid = TimeGrid(4.0, 20001)
    t = grid.times()
    beta = 0.15 * t
    pts = np.column_stack(
        [np.sin(beta) * np.cos(t), np.sin(beta) * np.sin(t), -np.cos(beta)]
    )
    spiral = polar_track(BlochTrajectory(grid=grid, points=pts))
    sp = gp_south_pole(spiral)
    cf = gp_closed_form(spiral)
    spiral_exact = abs(sp.gamma - 0.117858422016549)  # 2 - sin(0.6)/0.3
    spiral_gap = angular_distance(sp.gamma, cf.gamma)
    worst = max(worst, spiral_gap)
    _report(
        4,
        worst <= 1e-6 and spiral_exact <= 1e-8,
        f"max pole-vs-closed-form gap = {worst:.3e} (tol 1e-6),"
        f" spiral quadrature error = {spiral_exact:.3e} (tol 1e-8)",
    )


def test_criterion_5_second_order_convergence():
    cfg_u = SystemConfig(omega=2.0, alpha1=0.0, alpha2=0.0, bath_size=1)
    ang_u = InitialStateAngles(theta=1.0, phi=0.3)
    exact = gp_unitary_reference(1.0)

    # (a) discrete holonomy against the exact decoupled-limit value
    dh_errors = []
    for n_steps in (201, 401, 801):
        traj = bloch_trajectory(cfg_u, ang_u, TimeGrid(math.pi, n_steps))
        dh_errors.append(angular_distance(gp_discrete_holonomy(traj).gamma, exact))
    dh_ratios = (dh_errors[0] / dh_errors[1], dh_errors[1] / dh_errors[2])

    # (b) closed-form self-convergence on a decohering configuration
    cfg_d = SystemConfig(omega=2.0, alpha1=0.6, alpha2=0.3, bath_size=2)
    ang_d = InitialStateAngles(theta=1.1, phi=0.4)
    ref_traj = bloch_trajectory(cfg_d, ang_d, TimeGrid(5.0, 2**17 + 1))
    gamma_ref = gp_closed_form(polar_track(ref_traj), ang_d).gamma
    cf_errors = []
    for n_steps in (251, 501, 1001):
        traj = bloch_trajectory(cfg_d, ang_d, TimeGrid(5.0, n_steps))
        cf_errors.append(
            angular_distance(gp_closed_form(polar_track(traj), ang_d).gamma, gamma_ref)
        )
    cf_ratios = (cf_errors[0] / cf_errors[1], cf_errors[1] / cf_errors[2])

    # (c) in the decoupled limit the closed-form integrand is constant, so
    # the trapezoid is already exact at coarse grids
    traj = bloch_trajectory(cfg_u, ang_u, TimeGrid(math.pi, 201))
    flat = angular_distance(gp_closed_form(polar_track(traj), ang_u).gamma, exact)

    ok = all(r >= 3.5 for r in dh_ratios + cf_ratios) and flat < 1e-12
    _report(
        5,
        ok,
        "error drop per grid doubling: discrete holonomy"
        f" {dh_ratios[0]:.2f}x/{dh_ratios[1]:.2f}x, closed form"
        f" {cf_ratios[0]:.2f}x/{cf_ratios[1]:.2f}x (>= 3.5x required);"
        f" closed-form decoupled error at 201 steps = {flat:.1e} (< 1e-12)",
    )


def test_criterion_6_literal_series_normalization():
    # the verbatim transcription of the polarization component series starts
    # at half the physical norm; measure it, do not patch it
    rng = np.random.default_rng(20260606)
    cfg = SystemConfig(omega=2.0, alpha1=0.5, alpha2=0.5, bath_size=3)
    worst = 0.0
    for _ in range(5):
        ang = InitialStateAngles(
            theta=float(rng.uniform(0.1, math.pi - 0.1)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        lit = literal_polarizations(cfg, ang, 0.0).as_array()
        phys = initial_bloch(ang).as_array()
        ratio = float(np.linalg.norm(lit) / np.linalg.norm(phys))
        worst = max(worst, abs(ratio - 0.5))
    _report(
        6,
        worst <= 1e-12,
        f"literal/physical norm ratio at t = 0 deviates from 1/2 by {worst:.3e}"
        " (tol 1e-12)",
    )


def test_criterion_7_strategy_sweep_reproducible():
    started = time.perf_counter()
    couplings = ((1.0, 0.0), (0.0, 1.0), (0.25, 0.25), (0.5, 0.5))
    grid = AngleGrid()  # 61 x 61
    reports = {}
    for n in (2, 4, 10, 20):
        pairs = [
            (
                f"alpha1={a1:g} alpha2={a2:g}",
                SystemConfig(omega=2.0, alpha1=a1, alpha2=a2, bath_size=n),
            )
            for a1, a2 in couplings
        ]
        report = strategy_compare(pairs, grid, 50.0, threads=4)
        reports[n] = report
        entries = {e.label: e for e in report.entries}
        quarter = entries["alpha1=0.25 alpha2=0.25"].mean_dist_to_unitary
        single = entries["alpha1=1 alpha2=0"].mean_dist_to_unitary
        print(
            f"criterion 7 [N={n}]: winner={report.winner};"
            f" (1/4,1/4) beats (1,0): {quarter < single}"
            f" ({quarter:.4f} vs {single:.4f})",
            flush=True,
        )

    # longer-horizon run, reported but not gated
    pairs4 = [
        (
            f"alpha1={a1:g} alpha2={a2:g}",
            SystemConfig(omega=2.0, alpha1=a1, alpha2=a2, bath_size=4),
        )
        for a1, a2 in couplings
    ]
    long_report = strategy_compare(pairs4, grid, 200.0, threads=4)
    print(f"criterion 7 [N=4, t=200]: winner={long_report.winner}", flush=True)

    # determinism: recomputing N=2 must reproduce the report bit for bit
    pairs2 = [
        (
            f"alpha1={a1:g} alpha2={a2:g}",
            SystemConfig(omega=2.0, alpha1=a1, alpha2=a2, bath_size=2),
        )
        for a1, a2 in couplings
    ]
    again = strategy_compare(pairs2, grid, 50.0, threads=4)
    first_csv, again_csv = io.StringIO(), io.StringIO()
    write_compare_csv(reports[2], first_csv)
    write_compare_csv(again, again_csv)
    deterministic = (
        again.to_dict() == reports[2].to_dict()
        and first_csv.getvalue() == again_csv.getvalue()
    )
    complete = all(
        all(e.missing_cells == 0 for e in reports[n].entries) for n in reports
    )
    elapsed = time.perf_counter() - started
    _report(
        7,
        deterministic and complete and elapsed < 600.0,
        f"4 bath sizes x 4 couplings on 61x61, deterministic = {deterministic},"
        f" all cells resolved = {complete}, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_8_invariant_bundle():
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)
    details = []

    # polarization-norm identity eps_plus = |v|
    worst = 0.0
    trajectories = []
    for _ in range(5):
        cfg = SystemConfig(
            omega=float(rng.uniform(0.5, 2.5)),
            alpha1=float(rng.uniform(0.0, 1.5)),
            alpha2=float(rng.uniform(0.0, 1.5)),
            bath_size=int(rng.integers(1, 6)),
        )
        ang = InitialStateAngles(
            theta=float(rng.uniform(0.1, math.pi - 0.1)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        traj = bloch_trajectory(cfg, ang, TimeGrid(8.0, 801))
        trajectories.append(traj)
        track = polar_track(traj)
        worst = max(
            worst,
            float(np.max(np.abs(track.eps_plus - np.linalg.norm(traj.points, axis=1)))),
        )
    eps_ok = worst <= 1e-12
    details.append(f"eps identity {worst:.1e}")

    # gauge invariance of the holonomy product
    beta = np.linspace(0.2, 2.0, 80)
    chi = np.linspace(0.0, 5.0, 80)
    spinors = np.column_stack(
        [np.cos(beta / 2.0).astype(complex), np.exp(1.0j * chi) * np.sin(beta / 2.0)]
    )
    gamma_ref, _, _ = pancharatnam_phase(spinors)
    worst = 0.0
    for _ in range(5):
        phases = np.exp(1.0j * rng.uniform(0.0, 2.0 * math.pi, size=80))
        gamma, _, _ = pancharatnam_phase(spinors * phases[:, None])
        worst = max(worst, angular_distance(gamma, gamma_ref))
    gauge_ok = worst <= 1e-12
    details.append(f"gauge invariance {worst:.1e}")

    # scale invariance of the closed form (bit-exact for power-of-two
    # factors), on hand-scaled tracks and on tracks of rescaled samples
    base = polar_track(trajectories[0])
    ref = gp_closed_form(base)
    scale_ok = True
    for lam in (0.5, 8.0):
        azimuth = Azimuth(
            base.grid,
            np.array(base.azimuth.dchi),
            np.array(base.azimuth.singular),
            base.azimuth.unwrap_jumps,
        )
        scaled = PolarTrack(
            azimuth, lam * base.A, np.array(base.sin2_half), lam * base.eps_plus
        )
        rebuilt = PolarTrack.from_points(lam * trajectories[0].points, base.grid)
        for track in (scaled, rebuilt):
            res = gp_closed_form(track, require_pure=False)
            scale_ok = scale_ok and res.gamma == ref.gamma
    details.append(f"scale invariance bit-exact = {scale_ok}")

    # convexity: the reduced map never leaves the Bloch ball
    worst = max(
        float(np.linalg.norm(traj.points, axis=1).max()) for traj in trajectories
    )
    contract_ok = worst <= 1.0 + 1e-12
    details.append(f"max |v| = {worst:.12f}")

    # exact combinatorial weights
    weights_ok = True
    for n in (1, 2, 3, 8, 64, 501):
        ladder = sector_weights(n)
        weights_ok = weights_ok and sum(s.zeta for s in ladder) == 2**n
        weights_ok = weights_ok and abs(math.fsum(s.w for s in ladder) - 1.0) < 1e-15
    details.append(f"weight normalization exact = {weights_ok}")

    elapsed = time.perf_counter() - started
    ok = eps_ok and gauge_ok and scale_ok and contract_ok and weights_ok
    _report(8, ok and elapsed < 60.0, "; ".join(details) + f"; {elapsed:.1f}s")
