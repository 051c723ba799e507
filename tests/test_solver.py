"""Galerkin factors, the spectral engine, refinement control, energy identity."""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

import oracles
from spherebuckle import solver
from spherebuckle.errors import InvalidInput, NoConvergence, UnsupportedMode
from spherebuckle.spectrum import CapDomain, EigenPair, harmonic_multiplicity
from spherebuckle.solver import (
    angular_eigenvalue,
    assemble_mode,
    convergence_table,
    coordinate_split_residuals,
    solve_cap,
)


def _dense_values(domain, m, P, count):
    """Lowest values of A c = Lambda B c with A = K^T K and B = D^T D formed."""
    K, D = assemble_mode(domain, m, P)
    L = np.linalg.cholesky(D.T @ D)
    Linv = np.linalg.inv(L)
    return np.linalg.eigvalsh(Linv @ (K.T @ K) @ Linv.T)[:count]


def _record_steps(monkeypatch):
    """Patch solver._ladder to record each step it yields; returns the record."""
    steps, ladder = [], solver._ladder

    def counted(domain, k):
        for s in ladder(domain, k):
            steps.append(s)
            yield s

    monkeypatch.setattr(solver, "_ladder", counted)
    return steps


class TestOracleSelfChecks:
    def test_bessel_zeros_frozen(self):
        assert oracles.bessel_first_zero(1.0) == oracles.J_1_1
        assert oracles.bessel_first_zero(1.5) == oracles.J_3HALF_1
        assert oracles.bessel_first_zero(2.0) == oracles.J_2_1

    def test_transcendental_cross_check(self):
        # J_{3/2} vanishes exactly where tan x = x; two independent
        # routes to the same number.
        assert abs(oracles.tan_eq_x_root() - oracles.J_3HALF_1) < 1e-14

    def test_bessel_zeros_match_mpmath(self):
        # An arbitrary-precision cross-check of the frozen constants.
        mpmath = pytest.importorskip("mpmath")
        for nu, frozen in ((1, oracles.J_1_1), (1.5, oracles.J_3HALF_1), (2, oracles.J_2_1)):
            with mpmath.workdps(40):
                exact = float(mpmath.besseljzero(nu, 1))
            assert abs(frozen - exact) <= 4 * math.ulp(exact)

    def test_bessel_values_vanish_at_zeros(self):
        for nu, z in ((1.0, oracles.J_1_1), (1.5, oracles.J_3HALF_1)):
            assert abs(oracles.bessel_j(nu, z)) < 1e-13

    @pytest.mark.parametrize("theta0", [0.5, 1.0, 2.0, 3.0])
    def test_rim_determinant_n3_closed_form(self, theta0):
        # For n = 3, m = 0 the regular solutions are sin(a theta) / sin(theta)
        # with lambda = a^2 - 1, and the clamped values solve
        # tan(a theta0) = a tan(theta0). Its first three roots a > 1, found
        # by bisection, are roots of the rim determinant, and the
        # completeness scan agrees that they are all of them.
        def g(a):  # a cos(a t) sin(t) - sin(a t) cos(t): the same zeros, no poles
            return a * math.cos(a * theta0) * math.sin(theta0) - math.sin(a * theta0) * math.cos(theta0)

        want, a = [], 1.0 + 1e-6
        while len(want) < 3:
            if (g(a) > 0.0) != (g(a + 0.01) > 0.0):
                root = oracles.bisect(g, a, a + 0.01)
                want.append(root * root - 1.0)
            a += 0.01
        for lam in want:
            assert abs(oracles.cap_value(3, theta0, 0, lam) - lam) <= 1e-13 * lam
        assert oracles.completeness_failures(3, theta0, {0: want}, want[-1]) == []

    @pytest.mark.parametrize(
        "n,m,j", [(2, 0, oracles.J_1_1), (2, 1, oracles.J_2_1), (3, 0, oracles.J_3HALF_1)]
    )
    def test_rim_determinant_flat_limit(self, n, m, j):
        # As theta0 -> 0 the cap becomes the clamped unit disk or ball scaled
        # by theta0, whose values in mode m are squared Bessel zeros:
        # lambda theta0^2 -> j^2, with a relative gap of O(theta0^2)
        # (-1.65e-8 for n = 3 at theta0 = 1e-3; O(theta0^4) for n = 2).
        theta0 = 1e-3
        scaled = oracles.cap_value(n, theta0, m, j * j / theta0**2) * theta0**2
        assert abs(scaled - j * j) <= 0.02 * theta0**2 * j * j

    def test_completeness_fails_without_a_value(self):
        # The check passes on a full spectrum and fails on every copy with
        # one value of one mode removed.
        spectrum, pairs = solve_cap(CapDomain(2, 1.0), 10)
        modes = oracles.reported_modes(pairs, spectrum.meta["mode_cutoff"])
        top = spectrum.values[-1]
        assert oracles.completeness_failures(2, 1.0, modes, top) == []
        removals = 0
        for m, values in modes.items():
            for v in values:
                cut = {**modes, m: [u for u in values if u != v]}
                assert oracles.completeness_failures(2, 1.0, cut, top), (m, v)
                removals += 1
        assert removals >= 5


class TestAngularEigenvalue:
    @pytest.mark.parametrize("m,n,mu", [(0, 2, 0.0), (0, 5, 0.0), (3, 2, 9.0), (2, 3, 6.0)])
    def test_values(self, m, n, mu):
        assert angular_eigenvalue(m, n) == mu

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            angular_eigenvalue(-1, 2)


class TestAssembleMode:
    @pytest.mark.parametrize("n,theta0,m", [(2, 1.0, 0), (3, 2.0, 1), (4, 3.0, 2)])
    def test_symmetric_and_definite(self, n, theta0, m):
        # One row per quadrature node (D stacks two blocks), one column per
        # basis function; A = K^T K is semidefinite and B = D^T D definite.
        P = 48
        K, D = assemble_mode(CapDomain(n, theta0), m, P)
        assert K.shape == (2 * P, P) and D.shape == (4 * P, P)
        A, B = K.T @ K, D.T @ D
        assert np.abs(A - A.T).max() <= 1e-14 * np.abs(A).max()
        assert np.abs(B - B.T).max() <= 1e-14 * np.abs(B).max()
        np.linalg.cholesky(B)
        w = np.linalg.eigvalsh(A)
        assert w[0] >= -1e-10 * w[-1]


class TestBandedEngine:
    """The engine's Galerkin solve against dense linear algebra.

    The class keeps the name of the banded finite-difference engine these
    checks first covered, so that its test IDs stay stable.
    """

    def test_matches_dense_at_moderate_grid(self):
        domain = CapDomain(3, 2.0)
        lam, _, _ = solver._galerkin_mode(domain, 1, 24, 16)
        dense = _dense_values(domain, 1, 24, 6)
        for a, b in zip(lam, dense):
            assert abs(a - b) <= 1e-9 * dense[0]

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n,theta0", [(2, 1.0), (3, 2.0), (4, 3.0)])
    def test_matches_dense_across_modes(self, n, theta0, m):
        # The QR and SVD of the factors against a Cholesky reduction of the
        # formed A and B. Forming them squares the condition number, so the
        # basis is kept small enough for the dense route to stay accurate.
        domain = CapDomain(n, theta0)
        lam, _, _ = solver._galerkin_mode(domain, m, 16, 11)
        dense = _dense_values(domain, m, 16, 6)
        for a, b in zip(lam, dense):
            assert abs(a - b) <= 1e-9 * dense[0]

    def test_lowest_eigenvalue_increases_with_mode(self):
        # No spurious low modes: the first eigenvalue of each azimuthal
        # channel interlaces upward.
        lows = [solver._galerkin_mode(CapDomain(2, 3.0), m, 40, 27)[0][0] for m in range(5)]
        assert all(a < b for a, b in zip(lows, lows[1:]))

    def test_ritz_basis_b_orthonormal(self):
        # The coefficients are orthonormal under assemble_mode's B = D^T D.
        domain, P = CapDomain(2, 1.0), 40
        _, C, _ = solver._galerkin_mode(domain, 0, P, 27)
        _, D = assemble_mode(domain, 0, P)
        DC = D @ C[:, :5]
        assert np.abs(DC.T @ DC - np.eye(5)).max() < 1e-10

    def test_import_leaves_sparse_unloaded(self):
        # The bounds-only commands never solve; keep their start-up cheap.
        import spherebuckle

        src = os.path.dirname(os.path.dirname(spherebuckle.__file__))
        code = "import sys, spherebuckle; print('scipy.sparse' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestSolveCap:
    def test_flat_limit_with_multiplicity(self):
        # Vanishing aperture degenerates to the clamped unit disk scaled
        # by theta0^2: the first three values are the squares of the first
        # order-1 zero and the doubly degenerate order-2 zero.
        spectrum, _ = solve_cap(CapDomain(2, 0.05), 3, N0=64, max_refinements=6)
        t2 = 0.05**2
        want = [oracles.J_1_1**2, oracles.J_2_1**2, oracles.J_2_1**2]
        for got, w in zip(spectrum.values, want):
            assert abs(got * t2 - w) < 0.01 * w

    def test_flat_limit_three_dim(self):
        spectrum, _ = solve_cap(CapDomain(3, 0.05), 1, N0=64, max_refinements=6)
        got = spectrum.values[0] * 0.05**2
        assert abs(got - oracles.J_3HALF_1**2) < 0.01 * oracles.J_3HALF_1**2

    def test_spectral_positive_nondecreasing_and_meta(self):
        spectrum, pairs = solve_cap(CapDomain(2, 1.0), 5)
        vals = spectrum.values
        assert all(v > 0 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        meta = spectrum.meta
        assert type(meta["N"]) is int and meta["N"] >= 2 * 5 + 16
        assert type(meta["mode_cutoff"]) is int and meta["mode_cutoff"] >= 2
        assert set(meta) == {"N", "mode_cutoff"}
        assert len(pairs) == 5
        assert pairs[0].m == 0
        assert len(pairs[0].profile) == len(pairs[0].theta) == solver.PAIR_CELLS
        assert [p.value for p in pairs] == list(vals)

    def test_deterministic(self):
        a, _ = solve_cap(CapDomain(3, 1.5), 4, N0=64, max_refinements=6)
        b, _ = solve_cap(CapDomain(3, 1.5), 4, N0=64, max_refinements=6)
        assert a.values == b.values

    def test_spectral_no_convergence_when_starved(self):
        # Near the whole sphere one step from P = 20 to 30 moves the lowest
        # values by ~5e-3; the message names k, the change and P.
        with pytest.raises(NoConvergence, match=r"top-2 .* changing by .* \(P=30\)"):
            solve_cap(CapDomain(2, 3.14), 2, max_refinements=1, rel_tol=1e-14)

    def test_step_short_of_its_margin_does_not_stop(self, monkeypatch):
        # Bases of 12 functions (blocks of 8) fall short of the 2 w + 16
        # a kept value needs, so the first step may not stop, however well
        # it agrees with its blocks.
        monkeypatch.setattr(solver, "_basis_size", lambda cap, step: 8 + 4 * step)
        with pytest.raises(NoConvergence, match=r"short of its 2 w \+ 16 basis margin .*\(P=12\)"):
            solve_cap(CapDomain(2, 1.0), 3, max_refinements=1, rel_tol=1.0)
        spectrum, _ = solve_cap(CapDomain(2, 1.0), 3, max_refinements=2, rel_tol=1.0)
        assert spectrum.meta["N"] == 18

    def test_spectral_basis_sized_from_k(self, monkeypatch):
        # The basis grows with the values kept and ignores N0: a request far
        # beyond what 16 cells once held converges, each used mode ends on
        # at least 2 w + 16 functions for the w values it kept, and every
        # value is the exact cap value of its mode.
        final = {}
        galerkin_mode = solver._galerkin_mode

        def recorded(domain, m, P, block, *args, **kwargs):
            final[m] = P
            return galerkin_mode(domain, m, P, block, *args, **kwargs)

        monkeypatch.setattr(solver, "_galerkin_mode", recorded)
        spectrum, pairs = solve_cap(CapDomain(2, 1.0), 15, N0=16)
        kept = {m: len({p.value for p in pairs if p.m == m}) for m in {p.m for p in pairs}}
        for m, w in kept.items():
            assert final[m] >= 2 * w + 16
        for p in pairs:
            exact = oracles.cap_value(2, 1.0, p.m, p.value)
            assert abs(p.value - exact) <= 1e-10 * exact

    @pytest.mark.parametrize(
        "n,k,want",
        [
            (2, 1, 8), (2, 30, 8), (2, 256, 8), (2, 257, 9), (2, 1000, 16), (2, 2000, 23),
            (3, 30, 8), (3, 4096, 8), (3, 4097, 9), (50, 2000, 8), (2, 10**6, 500),
        ],
    )
    def test_first_width_follows_weyl(self, n, k, want):
        # max(8, W), W the least integer with (2W)^n >= k; at exact powers
        # (16^2 = 256, 16^3 = 4096) a rounded float root would move it.
        assert solver._first_width(k, n) == want
        assert (2 * want) ** n >= k
        assert want == solver.FIRST_WIDTH or (2 * want - 2) ** n < k

    def test_requires_positive_k(self):
        with pytest.raises(InvalidInput):
            solve_cap(CapDomain(2, 1.0), 0)

    def test_rejects_bad_controls_and_ignores_N0(self):
        with pytest.raises(InvalidInput):
            solve_cap(CapDomain(2, 1.0), 1, max_refinements=0)
        coarse, _ = solve_cap(CapDomain(2, 1.0), 3, N0=8)
        default, _ = solve_cap(CapDomain(2, 1.0), 3)
        assert coarse.values == default.values

    def test_near_whole_sphere_converges(self):
        # theta0 = 3.14 is 0.0016 short of the whole sphere; the cot pole
        # past the rim slows the ladder, but it converges within the
        # default refinements. l(l + n - 1) with l = 1 is the limit.
        spectrum, _ = solve_cap(CapDomain(2, 3.14), 3)
        assert spectrum.values[0] == pytest.approx(2.0, rel=1e-4)

    def test_multiplicity_copies_share_one_pair(self):
        # At n = 50 the top 2000 values are one value each of modes 0-3
        # (mult(50, 3) = 22050). Each is sampled and normalized once, and
        # its copies are one object, so the solve holds 4 profiles, not
        # 2000 (32 MiB traced before pairs were shared).
        tracemalloc.start()
        try:
            spectrum, pairs = solve_cap(CapDomain(50, 1.0), 2000)
            values = [p.value for p in pairs]  # the first read samples them
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values == list(spectrum.values)
        distinct = {}
        for p in pairs:
            assert distinct.setdefault((p.m, p.value), p) is p
        assert sorted(m for m, _ in distinct) == [0, 1, 2, 3]
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n,theta0,k", [(2, 1.0, 10), (3, 2.0, 30), (50, 1.0, 2000)])
    def test_pairs_sampled_once_on_first_read(self, monkeypatch, n, theta0, k):
        # The pairs are _pairs on the ladder's final step, run by the first
        # read alone; the step holds each used mode's (P, Q, w), no coefficients.
        calls, pairs_of = [], solver._pairs
        steps = _record_steps(monkeypatch)

        def counted(*args):
            calls.append(None)
            return pairs_of(*args)

        monkeypatch.setattr(solver, "_pairs", counted)
        domain = CapDomain(n, theta0)
        _, pairs = solve_cap(domain, k)
        assert calls == []
        assert len(pairs) == k
        assert len(calls) == 1
        final = steps[-1]
        want = pairs_of(domain, final.cand, final.bases)
        assert pairs[-1] == want[-1] and pairs[-k] == want[0]
        assert list(pairs) == want
        assert list(pairs) == want
        assert len(calls) == 1
        assert sorted(final.bases) == sorted({p.m for p in want})
        assert all(type(v) is int for basis in final.bases.values() for v in basis)
        with pytest.raises(TypeError):
            pairs[0] = want[0]

    def test_convergence_table_requires_positive_k(self):
        with pytest.raises(InvalidInput):
            convergence_table(CapDomain(2, 1.0), 0)
        with pytest.raises(InvalidInput):
            convergence_table(CapDomain(2, 1.0), 1, levels=1)

    def test_convergence_table_is_solve_caps_ladder(self):
        # The table's rows are solve_cap's steps: its row at the basis size
        # solve_cap stopped at holds solve_cap's values, bit for bit.
        domain, k = CapDomain(2, 3.1), 5
        spectrum, _ = solve_cap(domain, k)
        rows = convergence_table(domain, k, levels=6)
        assert [len(r[1]) for r in rows] == [k] * 6
        assert rows[0][2] == [None] * k
        assert all(a[0] < b[0] for a, b in zip(rows, rows[1:]))
        by_P = {P: values for P, values, _ in rows}
        assert by_P[spectrum.meta["N"]] == list(spectrum.values)


GAUSS_SIZES = [1, 2, 3, 62, 63, 156, 571]


class TestGaussLegendre:
    """The Newton-built quadrature rule behind assemble_mode."""

    @pytest.mark.parametrize("Q", GAUSS_SIZES)
    def test_matches_40_digit_rule(self, Q):
        # A node x and its mirror 1 - x are one computed root, so each is
        # held to the ulp of the larger of the two.
        x, w = solver._gauss_legendre(Q)
        ref_x, ref_w = oracles.gauss_legendre(Q)
        assert len(x) == len(w) == Q
        for xi, wi, rx, rw in zip(x, w, ref_x, ref_w):
            ulp = np.spacing(max(float(rx), 1.0 - float(rx)))
            assert abs(mpmath.mpf(float(xi)) - rx) <= 2 * ulp
            assert abs(mpmath.mpf(float(wi)) - rw) <= 1e-10 * rw

    @pytest.mark.parametrize("Q", GAUSS_SIZES)
    def test_exact_to_degree_2Q_minus_1(self, Q):
        x, w = solver._gauss_legendre(Q)
        assert not x.flags.writeable and not w.flags.writeable
        assert np.all(np.diff(x) > 0) and x[0] > 0 and x[-1] < 1
        assert abs(w.sum() - 1.0) <= 1e-14
        d = np.arange(2 * Q)
        moments = (x[None, :] ** d[:, None]) @ w
        assert np.abs(moments - 1.0 / (d + 1)).max() <= 1e-14


class TestSpectralEngine:
    """The Jacobi-Galerkin engine behind solve_cap."""

    @pytest.mark.parametrize(
        "n,theta0,m,want", [(2, 3.1, 5, 30.0), (2, 3.1, 15, 240.0), (10, 3.0, 5, 70.0)]
    )
    def test_whole_sphere_limit(self, n, theta0, m, want):
        # As theta0 -> pi the lowest value of mode m tends to the whole
        # sphere's l(l + n - 1), l = max(m, 1); sharply so for m >= 5.
        vals, _, _ = solver._galerkin_mode(CapDomain(n, theta0), m, 48, 32)
        assert abs(vals[0] - want) <= 1e-9 * want

    @pytest.mark.parametrize("m", [0, 1, 4])
    def test_basis_derivatives_match_differences(self, m):
        # The recurrence-carried derivatives against centered differences
        # of the values, and the clamped rim.
        theta0, h = 1.3, 1e-4
        x = np.linspace(0.1, 0.9, 9)
        f, f1, f2 = solver._jacobi_basis(8, m, 3, x, theta0)
        fp, _, _ = solver._jacobi_basis(8, m, 3, x + h / theta0, theta0)
        fm, _, _ = solver._jacobi_basis(8, m, 3, x - h / theta0, theta0)
        assert np.abs(f1 - (fp - fm) / (2 * h)).max() <= 1e-6 * np.abs(f1).max()
        assert np.abs(f2 - (fp - 2 * f + fm) / h**2).max() <= 1e-5 * np.abs(f2).max()
        rim, rim1, _ = solver._jacobi_basis(8, m, 3, np.array([1.0]), theta0)
        assert np.abs(rim).max() == 0.0 and np.abs(rim1).max() == 0.0

    def test_coefficients_b_orthonormal(self):
        domain, m, P = CapDomain(3, 2.0), 2, 30
        vals, C, _ = solver._galerkin_mode(domain, m, P, 20)
        x, w = solver._gauss_legendre(2 * P)  # the rule the solve used
        th = domain.theta0 * x
        f, f1, _ = solver._jacobi_basis(P, m, domain.n, x, domain.theta0)
        weight = domain.theta0 * w * np.sin(th) ** 2
        mu = angular_eigenvalue(m, domain.n)
        grad, val = f1.T @ C, f.T @ C  # one row per node
        gram = grad.T @ (weight[:, None] * grad)
        gram += mu * val.T @ ((weight / np.sin(th) ** 2)[:, None] * val)
        assert np.abs(gram - np.eye(P)).max() < 1e-10
        assert np.all(np.diff(vals) > 0)

    def test_each_mode_solved_once_per_step(self, monkeypatch):
        # Every Galerkin solve returns all P values of its mode and those of
        # its leading block, so no mode is solved twice at one basis size,
        # and one step that agrees with its blocks sweeps modes 0 to cutoff
        # once each.
        solves = []
        galerkin_mode = solver._galerkin_mode

        def counted(domain, m, P, block, *args, **kwargs):
            solves.append((m, P))
            return galerkin_mode(domain, m, P, block, *args, **kwargs)

        monkeypatch.setattr(solver, "_galerkin_mode", counted)
        spectrum, _ = solve_cap(CapDomain(2, 1.0), 30)
        assert len(solves) == len(set(solves))
        assert max(P for _, P in solves) == spectrum.meta["N"]
        assert len(solves) == spectrum.meta["mode_cutoff"] + 1

    def test_each_mode_assembled_once(self, monkeypatch):
        # The check of a step comes from the leading block of its own
        # assembly, not from a second assembly at the smaller size.
        assembled = []
        assemble = solver.assemble_mode

        def counted(domain, m, P, Q=None):
            assembled.append(m)
            return assemble(domain, m, P, Q)

        monkeypatch.setattr(solver, "assemble_mode", counted)
        spectrum, _ = solve_cap(CapDomain(2, 1.0), 10)
        assert sorted(assembled) == list(range(spectrum.meta["mode_cutoff"] + 1))

    @pytest.mark.parametrize(
        "n,theta0,m",
        [(2, 1.0, 0), (2, 3.0, 1), (3, 2.0, 2), (4, 3.0, 0), (10, 1.0, 0), (20, 1.0, 1), (50, 1.0, 0)],
    )
    def test_block_values_match_a_separate_solve(self, n, theta0, m):
        # The leading 36-block of a 54-function solve gives the values of a
        # 36-function solve; only the quadrature (168 against 132 nodes)
        # and round-off differ.
        domain = CapDomain(n, theta0)
        _, _, nested = solver._galerkin_mode(domain, m, 54, 36)
        alone, _, _ = solver._galerkin_mode(domain, m, 36, 24)
        assert len(nested) == 36
        assert np.abs(nested[:10] / alone[:10] - 1.0).max() <= 1e-13

    def test_large_k_bases_sized_from_kept_values(self, monkeypatch):
        # At k = 200 mode 0 keeps 9 of the top 200, so no basis grows
        # toward the 2 ceil(k / mult) + 16 = 416 functions its cap alone
        # would ask for. Each kept value still has the 2 w + 16 margin,
        # and every mode at a fixed 120-function basis gives the same top k.
        final = {}
        galerkin_mode = solver._galerkin_mode

        def recorded(domain, m, P, block, *args, **kwargs):
            final[m] = P
            return galerkin_mode(domain, m, P, block, *args, **kwargs)

        monkeypatch.setattr(solver, "_galerkin_mode", recorded)
        domain, k = CapDomain(2, 1.0), 200
        spectrum, pairs = solve_cap(domain, k)
        assert spectrum.meta["N"] <= 120
        kept = {}
        for p in pairs:
            kept[p.m] = kept.get(p.m, 0) + 1
        for m, count in kept.items():
            assert final[m] >= 2 * math.ceil(count / harmonic_multiplicity(2, m)) + 16
        fixed = sorted(
            v
            for m in range(spectrum.meta["mode_cutoff"] + 1)
            for v in galerkin_mode(domain, m, 120, 80)[0][:k]
            for _ in range(harmonic_multiplicity(2, m))
        )[:k]
        for got, want in zip(spectrum.values, fixed):
            assert abs(got - want) <= 1e-10 * want

    @pytest.mark.parametrize(
        "n,k,first_P", [(2, 5, 39), (2, 30, 48), (2, 1000, 72), (50, 2000, 48)]
    )
    def test_first_rung_from_weyl_width(self, monkeypatch, n, k, first_P):
        # Each mode's first solve is a block of 2 w_1 + 16 functions inside
        # a basis half as large again, w_1 = min(ceil(k / mult), max(8, W)).
        # At (2, 30) no mode keeps more than 4 values, so no first solve
        # needs the 72 functions a 16-value block asked for; at (2, 1000)
        # mode 0 keeps about 20, and its first 72-function solve holds
        # them. Every case stops after one step.
        first, galerkin_mode = {}, solver._galerkin_mode

        def recorded(domain, m, P, block, *args, **kwargs):
            first.setdefault(m, (P, block))
            return galerkin_mode(domain, m, P, block, *args, **kwargs)

        monkeypatch.setattr(solver, "_galerkin_mode", recorded)
        taken = _record_steps(monkeypatch)
        solve_cap(CapDomain(n, 1.0), k)
        assert len(taken) == 1
        assert max(P for P, _ in first.values()) == first[0][0] == first_P
        for m, (P, block) in first.items():
            w1 = min(math.ceil(k / harmonic_multiplicity(n, m)), solver._first_width(k, n))
            assert (P, block) == ((3 * (2 * w1 + 16) + 1) // 2, 2 * w1 + 16)

    @pytest.mark.parametrize("n,theta0,k", [(2, 3.1, 30), (4, 3.05, 20)])
    def test_first_rung_floor_keeps_accuracy(self, n, theta0, k):
        # Near the whole sphere the first rung's floor of 8 values holds the
        # top k to 1.7e-12 at (2, 3.1, 30) and 1.8e-11 at (4, 3.05, 20) of
        # fixed 120-function solves on 300-node rules; a floor of 4 is off
        # by 1.0e-9 at (2, 3.1, 30).
        domain = CapDomain(n, theta0)
        spectrum, _ = solve_cap(domain, k)
        fixed = sorted(
            v
            for m in range(spectrum.meta["mode_cutoff"] + 1)
            for v in solver._galerkin_mode(domain, m, 120, 80, 300, width=0)[0][:k]
            for _ in range(min(harmonic_multiplicity(n, m), k))
        )[:k]
        for got, want in zip(spectrum.values, fixed):
            assert abs(got - want) <= 1e-10 * want

    @pytest.mark.parametrize("grid", ["gauss", "cells"])
    @pytest.mark.parametrize("n", [2, 3, 4, 10, 50])
    def test_batched_rows_match_one_mode_rows(self, n, grid):
        # One recurrence over a batch of modes gives each mode the rows, and
        # so the basis, of a recurrence run for it alone, bit for bit: on a
        # Gauss rule and on the pairs' cell grid, for batches from m = 0 and
        # from m = 5 whose modes take unequal numbers of rows. Odd n gives a
        # half-integer Jacobi parameter.
        if grid == "gauss":
            x = solver._gauss_legendre(96)[0]
        else:
            x = (np.arange(solver.PAIR_CELLS) + 0.5) / solver.PAIR_CELLS
        s = 2.0 * x * x - 1.0
        for m0, sizes in [(0, [48, 40, 33]), (5, [27, 39, 30, 27])]:
            ms = m0 + np.arange(len(sizes))
            rows = solver._jacobi_rows(max(sizes), ms + 0.5 * n - 1.0, s)
            assert rows.shape == (max(sizes), 3, len(sizes), x.size)
            for i, (m, P) in enumerate(zip(ms.tolist(), sizes)):
                alone = solver._jacobi_rows(P, np.array([m + 0.5 * n - 1.0]), s)[:, :, 0]
                assert np.array_equal(rows[:P, :, i], alone), (m, P)
                batched = solver._jacobi_basis(P, m, n, x, 1.7, rows[:, :, i])
                for got, want in zip(batched, solver._jacobi_basis(P, m, n, x, 1.7)):
                    assert np.array_equal(got, want), (m, P)

    @pytest.mark.parametrize("n,theta0,k", [(2, 1.0, 30), (3, 1.0, 30), (2, 3.14, 10)])
    def test_sweep_assembles_from_batched_rows(self, monkeypatch, n, theta0, k):
        # Each mode the sweep assembles from its batch's rows has the factors
        # it has when assembled alone, bit for bit, and the batch is gone
        # once the solve returns.
        seen, assemble = [], solver.assemble_mode

        def recorded(domain, m, P, Q=None):
            K, D = assemble(domain, m, P, Q)
            seen.append((m, P, Q, (domain.n, Q, m) in solver._ROWS, K.copy(), D.copy()))
            return K, D

        monkeypatch.setattr(solver, "assemble_mode", recorded)
        domain = CapDomain(n, theta0)
        solve_cap(domain, k)
        assert solver._ROWS == {}
        assert any(batched for _, _, _, batched, _, _ in seen)
        for m, P, Q, _, K, D in seen:
            alone = assemble(domain, m, P, Q)
            assert np.array_equal(K, alone[0]) and np.array_equal(D, alone[1]), (m, P, Q)

    @pytest.mark.parametrize("n,theta0,k", [(2, 3.14, 10), (2, 2.0, 2000)])
    def test_batches_stay_within_their_cap(self, monkeypatch, n, theta0, k):
        # No batch of modes holds more than BATCH_BYTES of rows: at
        # (2, 2.0, 2000) the 55 modes run in batches of 2 (93 functions on
        # 186 nodes). A mode whose rows would pass it with the next mode's
        # runs alone, as at every basis of 108 functions or more near the
        # whole sphere.
        batches, rows = [], solver._jacobi_rows

        def recorded(P, b, s):
            out = rows(P, b, s)
            batches.append((b.size, out.nbytes))
            return out

        monkeypatch.setattr(solver, "_jacobi_rows", recorded)
        solve_cap(CapDomain(n, theta0), k)
        assert any(M > 1 for M, _ in batches)
        assert any(M == 1 for M, _ in batches) == (theta0 > 3)
        assert all(nbytes <= solver.BATCH_BYTES for M, nbytes in batches if M > 1)

    @pytest.mark.parametrize(
        "n,theta0,k", [(2, 1.0, 30), (3, 1.0, 30), (2, 1.0, 200), (2, 3.14, 10)]
    )
    def test_batches_waste_less_than_one_batch(self, monkeypatch, n, theta0, k):
        # A step loads a batch from each mode it reaches without rows, so the
        # modes it batches past its cutoff, never to be assembled, all lie
        # in its last batch and are fewer than that batch's modes.
        loaded, assembled = {}, {}
        load, assemble = solver._load_batch, solver.assemble_mode

        def recorded_load(n_, Q, m0, size):
            load(n_, Q, m0, size)
            loaded.setdefault(Q, []).append({m for _, _, m in solver._ROWS})

        def recorded_assemble(domain, m, P, Q=None):
            assembled.setdefault(Q, set()).add(m)
            return assemble(domain, m, P, Q)

        monkeypatch.setattr(solver, "_load_batch", recorded_load)
        monkeypatch.setattr(solver, "assemble_mode", recorded_assemble)
        solve_cap(CapDomain(n, theta0), k)
        assert loaded.keys() == assembled.keys()
        for Q, batches in loaded.items():
            wasted = set().union(*batches) - assembled[Q]
            assert wasted <= batches[-1] and len(wasted) < max(len(batches[-1]), 1), Q

    @pytest.mark.parametrize("batch_bytes", [solver.BATCH_BYTES, 0])
    def test_out_of_memory_maps_to_no_convergence(self, monkeypatch, batch_bytes):
        # A basis too large for memory, in a batch or for a mode alone (no
        # batch at all at BATCH_BYTES 0), raises NoConvergence naming the
        # mode, its basis size and the rule's nodes, not MemoryError.
        def no_memory(P, b, s):
            raise MemoryError(f"Unable to allocate {24 * P * b.size * s.size} bytes")

        monkeypatch.setattr(solver, "BATCH_BYTES", batch_bytes)
        monkeypatch.setattr(solver, "_jacobi_rows", no_memory)
        with pytest.raises(NoConvergence, match=r"m=0\b.* at P=39 on Q=78 nodes: MemoryError"):
            solve_cap(CapDomain(2, 1.0), 5)
        with pytest.raises(NoConvergence, match=r"m=0\b.* at P=39 on Q=78 nodes: MemoryError"):
            convergence_table(CapDomain(2, 1.0), 5)
        assert solver._ROWS == {}

    @pytest.mark.parametrize("failure", ["raise", "memory", "nan", "nan_block"])
    def test_failure_maps_to_no_convergence(self, monkeypatch, failure):
        # The first assembly is at P = 39 (a 26-function block inside it).
        # "memory" is a factorization that does not fit in memory; "nan"
        # poisons the values of the full 39 x 39 T, "nan_block" only those
        # of its 26 x 26 leading block; the ladder asks for values alone.
        def broken(a, compute_uv=True, **kwargs):
            if failure == "raise":
                raise np.linalg.LinAlgError("synthetic failure")
            if failure == "memory":
                raise MemoryError("synthetic failure")
            assert not compute_uv
            poison = failure == ("nan" if len(a) == 39 else "nan_block")
            s = np.linalg.svd(a, compute_uv=False, **kwargs)
            return np.full_like(s, np.nan) if poison else s

        monkeypatch.setattr(solver, "svd", broken)
        with pytest.raises(NoConvergence, match=r"m=0 at P=39"):
            solve_cap(CapDomain(2, 1.0), 5)

    def test_unread_solve_computes_no_singular_vector(self, monkeypatch):
        # The ladder asks for values alone; only a read of the pairs asks
        # for singular vectors, once per mode the pairs use.
        asked = []

        def recorded(a, compute_uv=True, **kwargs):
            asked.append(compute_uv)
            return np.linalg.svd(a, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(solver, "svd", recorded)
        _, pairs = solve_cap(CapDomain(2, 1.0), 30)
        assert asked and True not in asked
        del asked[:]
        modes = {p.m for p in pairs}
        assert asked.count(True) == len(modes)

    def test_first_read_solves_each_used_mode_once_with_vectors(self, monkeypatch):
        # A first read solves each mode its pairs use once, at the final
        # step's basis, for the columns those pairs use; a second read
        # solves nothing.
        solves = []
        galerkin_mode = solver._galerkin_mode

        def recorded(domain, m, P, block, Q=None, width=None):
            solves.append((m, P, width))
            return galerkin_mode(domain, m, P, block, Q, width)

        monkeypatch.setattr(solver, "_galerkin_mode", recorded)
        spectrum, pairs = solve_cap(CapDomain(3, 2.0), 30)
        assert {width for _, _, width in solves} == {0}
        final = {m: P for m, P, _ in solves}
        del solves[:]
        read = list(pairs)
        # A mode's columns are its distinct values, not its multiplicity copies.
        width = {m: len({p.value for p in read if p.m == m}) for m in {p.m for p in read}}
        assert sorted(solves) == sorted((m, final[m], w) for m, w in width.items())
        assert max(P for _, P, _ in solves) <= spectrum.meta["N"]
        del solves[:]
        assert list(pairs) == read and len(pairs) == 30 and pairs[0] is read[0]
        assert solves == []

    @pytest.mark.parametrize("n,theta0,k", [(3, 1.0, 30), (2, 3.14, 10)])
    def test_one_quadrature_rule_per_ladder_step(self, monkeypatch, n, theta0, k):
        # Every mode of a step is assembled on the step's one rule, of
        # 2 P_step nodes for the step's largest basis P_step, so at least 2P
        # for each of them: a fresh rule cache misses once per step (one
        # step at (3, 1.0, 30), five near the whole sphere).
        rules, assemble = [], solver.assemble_mode
        steps = _record_steps(monkeypatch)

        def recorded(domain, m, P, Q=None):
            rules.append((len(steps), P, Q))
            return assemble(domain, m, P, Q)

        monkeypatch.setattr(solver, "assemble_mode", recorded)
        solver._gauss_legendre.cache_clear()
        solve_cap(CapDomain(n, theta0), k)
        assert len(steps) == (1 if theta0 < 3 else 5)
        assert solver._gauss_legendre.cache_info().misses == len(steps)
        per_step, largest = {}, {}
        for step, P, Q in rules:
            per_step.setdefault(step, set()).add(Q)
            largest[step] = max(largest.get(step, 0), P)
            assert Q >= 2 * P
        assert all(len(qs) == 1 for qs in per_step.values()) and len(per_step) == len(steps)
        assert all(per_step[step] == {2 * P} for step, P in largest.items())

    @pytest.mark.parametrize(
        "n,theta0,k,bound",
        [
            (3, 1.0, 30, 1e-13),
            (2, 3.0, 10, 1e-13),
            (2, 3.1, 30, 1e-13),
            (4, 3.05, 20, 1e-13),
            (2, 2.0, 1000, 1e-13),
            (2, 3.14, 10, 5e-12),
        ],
    )
    def test_rule_resolves_the_kept_values(self, monkeypatch, n, theta0, k, bound):
        # The ladder's nested check shares the step's rule, so it cannot see
        # quadrature error. Each mode of the final step is solved again at
        # its P on a 4P-node rule: the values the step kept move by at most
        # 2.6e-14 relative (1.4e-12 at (2, 3.14, 10), where the basis is
        # near-dependent). A 1.5 P_step rule moves (2, 3.1, 30) by 6.8e-13.
        steps = _record_steps(monkeypatch)
        domain = CapDomain(n, theta0)
        spectrum, _ = solve_cap(domain, k)
        final = steps[-1]
        assert list(spectrum.values) == [v for v, _, _ in final.cand]
        fine = {
            m: solver._galerkin_mode(domain, m, P, 0, 4 * P, width=0)[0]
            for m, (P, _, _) in final.bases.items()
        }
        for value, m, j in final.cand:
            assert abs(value - fine[m][j]) <= bound * fine[m][j], (m, j)

    @pytest.mark.parametrize("theta0", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_standard_cap_lambda1_to_5e_15(self, n, theta0):
        # lambda_1 of each standard cap, solved at the campaign's k = 10,
        # against the exact rim-determinant root. The worst is 1.6e-15; the
        # gate catches an error like the 1.15e-14 at (3, 1.5) that the
        # singular values of the tall K R_D^{-1} on per-mode rules gave.
        spectrum, _ = solve_cap(CapDomain(n, theta0), 10)
        lam = spectrum.values[0]
        exact = oracles.cap_value(n, theta0, 0, lam)
        assert abs(lam - exact) <= 5e-15 * exact

    def test_solve_leaves_sparse_and_special_unloaded(self):
        # The spectral engine needs numpy alone.
        import spherebuckle

        src = os.path.dirname(os.path.dirname(spherebuckle.__file__))
        code = (
            "import sys, spherebuckle\n"
            "print('scipy.special' in sys.modules)\n"
            "spherebuckle.solve_cap(spherebuckle.CapDomain(2, 1.0), 3)\n"
            "print('scipy.sparse' in sys.modules, 'scipy.special' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["False", "False", "False"]

    def test_default_path_loads_no_scipy(self, tmp_path):
        # The package needs numpy alone: importing every module, a solve
        # and the solve, bounds, compare, verify and convergence commands
        # never load scipy.
        import spherebuckle

        src = os.path.dirname(os.path.dirname(spherebuckle.__file__))
        (tmp_path / "cell.json").write_text('{"dims": [2], "apertures": [1.0], "k_max": 2}')
        code = (
            "import importlib, pkgutil, sys, spherebuckle\n"
            "for info in pkgutil.iter_modules(spherebuckle.__path__):\n"
            "    importlib.import_module('spherebuckle.' + info.name)\n"
            "from spherebuckle import cli\n"
            "spherebuckle.solve_cap(spherebuckle.CapDomain(2, 1.0), 3)\n"
            "for argv in (\n"
            "    'solve --n 2 --theta0 1.0 --k 3 --out s.json',\n"
            "    'bounds --spectrum s.json --k 2',\n"
            "    'compare --spectrum s.json --k 2 --lambda-next 30',\n"
            "    'verify --config cell.json --out r.json',\n"
            "    'convergence --n 2 --theta0 1.0 --k 2 --levels 2',\n"
            "):\n"
            "    assert cli.main(argv.split()) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "[]"


class TestEnergyIdentity:
    @pytest.mark.parametrize("n,theta0", [(2, 1.0), (3, 1.5)])
    def test_normalized_pair_sums_to_one(self, n, theta0):
        domain = CapDomain(n, theta0)
        _, pairs = solve_cap(domain, 1, N0=64, max_refinements=7)
        ra, rb = coordinate_split_residuals(pairs[0], domain)
        assert ra < 1e-8 and rb < 1e-8

    def test_scaling_by_two_gives_three(self):
        domain = CapDomain(2, 1.0)
        _, pairs = solve_cap(domain, 1, N0=64, max_refinements=5)
        p = pairs[0]
        doubled = EigenPair(
            value=p.value,
            m=0,
            theta=p.theta,
            profile=tuple(2.0 * f for f in p.profile),
        )
        ra, rb = coordinate_split_residuals(doubled, domain)
        assert abs(ra - 3.0) < 1e-10 and abs(rb - 3.0) < 1e-10

    def test_rejects_nonaxisymmetric(self):
        p = EigenPair(value=1.0, m=1, theta=(0.5,), profile=(1.0,))
        with pytest.raises(UnsupportedMode):
            coordinate_split_residuals(p, CapDomain(2, 1.0))
