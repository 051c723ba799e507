"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail
line to the live terminal, so a full run reads as a checklist. The
standard campaign (n in {2,3,4}, apertures 0.5..3.0, ten eigenvalues per
case) is solved once per session and shared by all spectrum criteria, and
so are the exact cap values of its eigenpairs (`oracles.cap_value`).
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
    default_delta_grid,
    dominance_gap,
    optimal_delta,
    wangxia_rhs,
)
from spherebuckle.harness import CampaignConfig, run_campaign
from spherebuckle.spectrum import CapDomain, Spectrum
from spherebuckle.solver import convergence_table, solve_cap

SCALAR_IDS = ("thm14", "yang15", "upper16", "gap17", "lower216")


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


@pytest.fixture(scope="session")
def exact_caps(standard_campaign):
    """Per standard cap: its k = 10 spectrum and pairs, and the exact value
    of each pair's (m, value) root, each distinct root found once."""
    report, _ = standard_campaign
    caps = {}
    for case in report.cases:
        spectrum, pairs = solve_cap(CapDomain(case.n, case.theta0), 10)
        roots = {}
        for p in pairs:
            if (p.m, p.value) not in roots:
                roots[p.m, p.value] = oracles.cap_value(case.n, case.theta0, p.m, p.value)
        caps[case.n, case.theta0] = spectrum, pairs, [roots[p.m, p.value] for p in pairs]
    return caps


def _flat_limit_cap(n: int, j: float, lam1: float) -> tuple[float, float]:
    """Relative deviation of lam1 from the exact m = 0 value at theta0 = 0.05,
    found from the flat-limit seed j^2 / theta0^2, and that value."""
    exact = oracles.cap_value(n, 0.05, 0, j * j / 0.05**2)
    return abs(lam1 - exact) / exact, exact


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
    rel, exact = _flat_limit_cap(2, oracles.J_1_1, lam1)
    _verdict(
        capsys, 1, "flat-limit cap n=2 vs exact",
        rel <= 1e-10 and wall < 10.0,
        f"lam1 = {lam1!r} vs exact {exact!r} (rel {rel:.2e}); "
        f"lam1*theta0^2 = {lam1 * 0.05**2:.6f} vs j_1,1^2 = {oracles.J_1_1**2:.6f}, "
        f"wall {wall:.2f}s",
    )


def test_criterion_02_flat_limit_n3(capsys):
    spectrum, _ = solve_cap(CapDomain(3, 0.05), 1)
    lam1 = spectrum.values[0]
    rel, exact = _flat_limit_cap(3, oracles.J_3HALF_1, lam1)
    _verdict(
        capsys, 2, "flat-limit cap n=3 vs exact",
        rel <= 1e-10,
        f"lam1 = {lam1!r} vs exact {exact!r} (rel {rel:.2e}); "
        f"lam1*theta0^2 = {lam1 * 0.05**2:.6f} vs j_3/2,1^2 = {oracles.J_3HALF_1**2:.6f}",
    )


def test_criterion_03_first_eigenvalue_floor(capsys, standard_campaign):
    report, _ = standard_campaign
    # lambda_1 - n is the slack of each case's one lemma21 check.
    margins = [
        (c["slack"], case.n, case.theta0)
        for case in report.cases
        for c in case.checks
        if c["inequality_id"] == "lemma21"
    ]
    worst = min((m / n, n, t) for m, n, t in margins)
    ok = all(m > -1e-8 * n for m, n, _ in margins)
    ok = ok and len(margins) == len(report.cases) == 18
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
    # The family holds by algebra, so the campaign has no rows for it; its
    # spectra are swept here instead, 50 deltas at each (case, k).
    report, _ = standard_campaign
    grid = default_delta_grid()
    gaps = [
        gap / max(abs(wx), abs(new), 1.0)
        for case in report.cases
        for k in range(1, 10)
        for _, wx, new, gap in dominance_gap(
            Spectrum(case.n, case.eigenvalues), k, case.eigenvalues[k], grid
        )
    ]
    worst = min(gaps)
    ok = len(gaps) == 18 * 9 * 50 and worst >= -1e-10
    _verdict(
        capsys, 6, "delta-free bound dominates the family",
        ok,
        f"{len(gaps)} delta samples, worst rel slack {worst:.3e}",
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


def _unit(samples) -> np.ndarray:
    """Samples scaled to a largest magnitude of 1, that entry positive."""
    v = np.asarray(samples, dtype=float)
    v = v / np.max(np.abs(v))
    return -v if v[np.argmax(np.abs(v))] < 0.0 else v


def test_criterion_09_eigenpair_consistency(capsys, exact_caps):
    # Every returned profile must be the exact eigenfunction of its value,
    # f_lam - (f_lam(theta0) / f_0(theta0)) f_0 in its mode, compared at
    # every 32nd cell with both scaled to a unit maximum. The worst
    # standard pair is about 1.1e-7 off; a profile from a wrong column is
    # off by O(1).
    worst = (0.0, None)
    count = 0
    for (n, theta0), (_, pairs, exact) in exact_caps.items():
        seen = set()
        for pair, lam in zip(pairs, exact):
            if (pair.m, pair.value) in seen:
                continue
            seen.add((pair.m, pair.value))
            thetas = pair.theta[::32]
            want = _unit(oracles.eigenfunction(n, theta0, pair.m, lam, thetas))
            dev = float(np.max(np.abs(_unit(pair.profile[::32]) - want)))
            worst = max(worst, (dev, (n, theta0, pair.m)), key=lambda w: w[0])
            count += 1
    _verdict(
        capsys, 9, "eigenpair consistency",
        len(exact_caps) == 18 and count > 0 and worst[0] <= 1e-6,
        f"{count} distinct pairs on 18 caps at k=10, worst deviation from the exact "
        f"eigenfunction {worst[0]:.3e} at (n, theta0, m) = {worst[1]}",
    )


def test_criterion_10_solver_self_consistency(capsys, exact_caps):
    # solve_cap's basis ladder on the standard cap it needs most steps for:
    # each value's change per step falls until it is at 1e-10 or below,
    # and the last step's values are exact.
    rows = convergence_table(CapDomain(4, 3.0), 10, levels=4)
    changes = [r[2] for r in rows[1:]]
    falling = all(
        b <= 1e-10 or b < a
        for prev, cur in zip(changes, changes[1:])
        for a, b in zip(prev, cur)
    )
    settled = max(changes[-1]) <= 1e-10
    exact = exact_caps[4, 3.0][2]
    dev = max(abs(v - e) / e for v, e in zip(rows[-1][1], exact))
    _verdict(
        capsys, 10, "basis-ladder self-convergence and exact values",
        falling and settled and dev <= 1e-10,
        f"largest change per step {[f'{max(c):.1e}' for c in changes]} at "
        f"P = {[r[0] for r in rows[1:]]}, last step vs exact {dev:.3e}",
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


def test_criterion_12_spectral_matches_oracle(capsys, standard_campaign, exact_caps):
    # Every campaign value is a root of its mode's rim determinant, and no
    # root below the k-th value is missing (the sign scan of
    # oracles.completeness_failures over every mode up to the cutoff).
    report, _ = standard_campaign
    worst = (0.0, None)
    failures = []
    for case in report.cases:
        spectrum, pairs, exact = exact_caps[case.n, case.theta0]
        dev = max(abs(a - b) / b for a, b in zip(case.eigenvalues, exact))
        worst = max(worst, (dev, (case.n, case.theta0)), key=lambda w: w[0])
        modes = oracles.reported_modes(pairs, spectrum.meta["mode_cutoff"])
        top = spectrum.values[-1]
        failures += oracles.completeness_failures(case.n, case.theta0, modes, top)
    _verdict(
        capsys, 12, "spectral engine vs exact rim-determinant roots",
        len(report.cases) == 18 and worst[0] <= 1e-10 and not failures,
        f"18 caps at k=10, worst rel deviation {worst[0]:.3e} at (n, theta0) = "
        f"{worst[1]}, completeness failures {failures or 'none'}",
    )
