"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail
line to the live terminal, so a full run reads as a checklist. The
standard campaign (n in {2,3,4}, apertures 0.5..3.0, ten eigenvalues per
case) is solved once per session and shared by all spectrum criteria.
"""

import json
import os
import subprocess
import sys
import time
from math import fsum, sqrt

import numpy as np
import pytest

import oracles
import spherebuckle
from spherebuckle.bounds import (
    bound_next,
    bound_terms,
    check_theorem,
    check_yang,
    compute_S_T,
    optimal_delta,
    wangxia_rhs,
)
from spherebuckle import solver
from spherebuckle.harness import CampaignConfig, run_campaign
from spherebuckle.spectrum import CapDomain, Spectrum
from spherebuckle.solver import convergence_table, solve_cap, solve_gevp

SCALAR_IDS = ("thm14", "yang15", "upper16", "gap17", "lower216", "chebyshev")


def _verdict(capsys, idx: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {idx:2d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {idx} ({label}): {detail}"


@pytest.fixture(scope="session")
def standard_campaign():
    t0 = time.perf_counter()
    report = run_campaign(CampaignConfig())
    elapsed = time.perf_counter() - t0
    assert all(c.error is None for c in report.cases), [
        (c.n, c.theta0, c.error) for c in report.cases if c.error
    ]
    return report, elapsed


def _rel_slack(check: dict) -> float:
    return check["slack"] / max(abs(check["lhs"]), abs(check["rhs"]), 1.0)


def test_criterion_01_flat_limit_n2(capsys):
    # The child process must import the package under test, installed or not.
    src = os.path.dirname(os.path.dirname(spherebuckle.__file__))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "spherebuckle.cli",
            "solve", "--n", "2", "--theta0", "0.05", "--k", "1",
        ],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    lam1 = json.loads(proc.stdout)["eigenvalues"][0]
    scaled = lam1 * 0.05**2
    target = oracles.J_1_1**2
    rel = abs(scaled - target) / target
    _verdict(
        capsys, 1, "flat-limit oracle n=2",
        rel < 1e-2 and wall < 10.0,
        f"lam1*theta0^2 = {scaled:.6f} vs {target:.6f} "
        f"(rel {rel:.2e}), wall {wall:.2f}s",
    )


def test_criterion_02_flat_limit_n3(capsys):
    spectrum, _ = solve_cap(CapDomain(3, 0.05), 1)
    scaled = spectrum.values[0] * 0.05**2
    target = oracles.J_3HALF_1**2
    rel = abs(scaled - target) / target
    _verdict(
        capsys, 2, "flat-limit oracle n=3",
        rel < 1e-2,
        f"lam1*theta0^2 = {scaled:.6f} vs {target:.6f} (rel {rel:.2e})",
    )


def test_criterion_03_first_eigenvalue_floor(capsys, standard_campaign):
    report, _ = standard_campaign
    worst = min(
        (case.lemma21_margin / case.n, case.n, case.theta0)
        for case in report.cases
    )
    ok = all(
        case.lemma21_margin > -1e-8 * case.n for case in report.cases
    ) and len(report.cases) == 18
    _verdict(
        capsys, 3, "first eigenvalue >= dimension",
        ok,
        f"18 cases, worst margin/n {worst[0]:.3e} "
        f"at (n={worst[1]}, theta0={worst[2]})",
    )


def test_criterion_04_domain_monotonicity(capsys, standard_campaign):
    report, _ = standard_campaign
    drops = []
    ok = True
    for n in (2, 3, 4):
        cases = sorted(
            (c for c in report.cases if c.n == n), key=lambda c: c.theta0
        )
        lam1 = [c.eigenvalues[0] for c in cases]
        ok = ok and len(lam1) == 6 and all(a > b for a, b in zip(lam1, lam1[1:]))
        drops.append(min(a - b for a, b in zip(lam1, lam1[1:])))
    _verdict(
        capsys, 4, "lam1 strictly decreasing in aperture",
        ok,
        f"min successive drop per n: {[f'{d:.3e}' for d in drops]}",
    )


def test_criterion_05_inequality_suite(capsys, standard_campaign):
    report, elapsed = standard_campaign
    records = [
        c
        for case in report.cases
        for c in case.checks
        if c["inequality_id"] in SCALAR_IDS
    ]
    worst = min(_rel_slack(c) for c in records)
    ok = (
        len(records) == 18 * 9 * len(SCALAR_IDS)
        and worst >= -1e-8
        and elapsed < 60.0
    )
    _verdict(
        capsys, 5, "inequality suite k=1..9",
        ok,
        f"{len(records)} checks, worst rel slack {worst:.3e}, "
        f"campaign {elapsed:.1f}s",
    )


def test_criterion_06_dominance(capsys, standard_campaign):
    report, _ = standard_campaign
    records = [
        c
        for case in report.cases
        for c in case.checks
        if c["inequality_id"] == "dominance"
    ]
    worst = min(_rel_slack(c) for c in records)
    ok = len(records) == 18 * 9 * 50 and worst >= -1e-10
    _verdict(
        capsys, 6, "delta-free bound dominates the family",
        ok,
        f"{len(records)} delta samples, worst rel slack {worst:.3e}",
    )


def test_criterion_07_optimal_delta(capsys, standard_campaign):
    report, _ = standard_campaign
    ds = np.logspace(-2.0, 2.0, 10_000)
    worst = 0.0
    count = 0
    for case in report.cases:
        s = Spectrum(case.n, case.eigenvalues)
        for k in range(1, 10):
            lam_next = case.eigenvalues[k]
            terms = [bound_terms(lam, case.n) for lam in case.eigenvalues[:k]]
            gaps = [lam_next - lam for lam in case.eigenvalues[:k]]
            sw = fsum(g * g * t.w for g, t in zip(gaps, terms))
            sp = fsum(g * t.p for g, t in zip(gaps, terms))
            _, minimized = optimal_delta(s, k, lam_next)
            grid_min = float(np.min(ds * sw + sp / ds))
            worst = max(worst, abs(minimized - grid_min) / grid_min)
            count += 1
    _verdict(
        capsys, 7, "closed-form minimizer vs 1e4-point grid",
        count == 162 and worst <= 1e-6,
        f"{count} (case, k) pairs, worst rel deviation {worst:.3e}",
    )


def test_criterion_08_singleton_closed_form(capsys):
    got2 = bound_next(Spectrum(2, (2.0,)), 1)[0]
    got3 = bound_next(Spectrum(3, (3.0,)), 1)[0]
    rel2 = abs(got2 - 6.0) / 6.0
    rel3 = abs(got3 - 11.125) / 11.125
    _verdict(
        capsys, 8, "k=1 closed form",
        rel2 <= 1e-12 and rel3 <= 1e-12,
        f"n=2: {got2!r} vs 6; n=3: {got3!r} vs 11.125",
    )


def test_criterion_09_eigenpair_consistency(capsys, standard_campaign):
    # Every returned profile must belong to its value: under its own mode
    # factors the Rayleigh quotient |K y|^2 / (|D y|^2 + y.mass.y) of the
    # constrained cells y reproduces the reported eigenvalue. The worst
    # standard pair is about 5e-4 off; a profile reported with the nearest
    # other distinct value is at least 1.8e-3 off.
    report, _ = standard_campaign
    worst = (0.0, None)
    count = 0
    for case in report.cases:
        domain = CapDomain(case.n, case.theta0)
        _, pairs = solve_cap(domain, 10)
        for pair in pairs:
            sys_ = solver.assemble_mode(domain, pair.m, len(pair.profile))
            y = np.asarray(pair.profile[:-1])
            Dy = sys_.D @ y
            rq = np.sum((sys_.K @ y) ** 2) / (Dy @ Dy + y @ (sys_.mass @ y))
            rel = abs(rq - pair.value) / pair.value
            worst = max(worst, (rel, (case.n, case.theta0, pair.m)), key=lambda w: w[0])
            count += 1
    _verdict(
        capsys, 9, "eigenpair consistency",
        len(report.cases) == 18 and count > 0 and worst[0] <= 1e-3,
        f"{count} pairs on 18 caps at k=10, worst Rayleigh-quotient rel "
        f"deviation {worst[0]:.3e} at (n, theta0, m) = {worst[1]}",
    )


def test_criterion_10_solver_self_consistency(capsys):
    rows = convergence_table(CapDomain(2, 1.0), 5, levels=4)
    orders = rows[-1][2]
    orders_ok = all(o is not None and 1.7 <= o <= 2.3 for o in orders)

    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(3):
        F = rng.normal(size=(6, 6))
        A = F @ F.T + 1e-3 * np.eye(6)
        G = rng.normal(size=(6, 6))
        B = G @ G.T + 0.5 * np.eye(6)
        got = [v for v, _ in solve_gevp(A, B, 6)]
        want = oracles.charpoly_eigs(A, B)
        worst = max(
            worst,
            max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want)),
        )
    _verdict(
        capsys, 10, "convergence order and dense-solver oracle",
        orders_ok and worst <= 1e-10,
        f"orders {[f'{o:.2f}' for o in orders]}, "
        f"worst oracle deviation {worst:.3e}",
    )


def test_criterion_11_planar_degeneration(capsys):
    values = (2.0, 3.5, 5.0)
    lam_next = 7.0
    s = Spectrum(2, values)
    k = 3

    S, T = compute_S_T(s, k)
    S_hand = fsum(values) / k + fsum(v * v for v in values) / (2 * k)
    T_hand = fsum(v * v for v in values) / k + fsum(v**3 for v in values) / k
    upper, gap_up, lower = bound_next(s, k)
    disc = sqrt(S_hand * S_hand - T_hand)
    thm = check_theorem(s, k, lam_next)
    gaps = [lam_next - v for v in values]
    thm_lhs_hand = 2.0 * fsum(g * g for g in gaps)
    thm_rhs_hand = 2.0 * sqrt(
        fsum(g * g * v for g, v in zip(gaps, values))
        * fsum(g * v for g, v in zip(gaps, values))
    )
    yang = check_yang(s, k, lam_next)
    yang_rhs_hand = fsum(g * v * v for g, v in zip(gaps, values))
    wx = wangxia_rhs(s, k, lam_next, 0.7)
    wx_rhs_hand = fsum(
        g * g * (0.7 * v + 0.49 * v / (4 * 0.7 * v)) for g, v in zip(gaps, values)
    ) + fsum(g * v for g, v in zip(gaps, values)) / 0.7

    pairs = [
        (S, S_hand),
        (T, T_hand),
        (upper, S_hand + disc),
        (gap_up, 2.0 * disc),
        (lower, S_hand - disc),
        (thm.lhs, thm_lhs_hand),
        (thm.rhs, thm_rhs_hand),
        (yang.rhs, yang_rhs_hand),
        (wx.rhs, wx_rhs_hand),
    ]
    worst = max(abs(a - b) / max(1.0, abs(b)) for a, b in pairs)
    _verdict(
        capsys, 11, "n=2 formulas collapse to w = p = lambda",
        worst <= 1e-14,
        f"worst rel deviation {worst:.3e} over {len(pairs)} quantities",
    )


def test_criterion_12_spectral_matches_fd(capsys, standard_campaign):
    # The campaign runs on the spectral engine; the FD reference engine
    # must agree with it on every standard cap (they agree within about
    # 1.2e-9, which is FD's own discretization error).
    report, _ = standard_campaign
    worst = (0.0, None)
    for case in report.cases:
        reference, _ = solver._solve_cap_fd(CapDomain(case.n, case.theta0), 10)
        dev = max(
            abs(a - b) / b for a, b in zip(case.eigenvalues, reference.values)
        )
        worst = max(worst, (dev, (case.n, case.theta0)), key=lambda w: w[0])
    _verdict(
        capsys, 12, "spectral engine vs FD reference",
        len(report.cases) == 18 and worst[0] <= 1e-8,
        f"18 caps at k=10, worst rel deviation {worst[0]:.3e} at (n, theta0) = {worst[1]}",
    )
