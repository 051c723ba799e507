"""Radial systems, eigensolvers, refinement control, energy identity."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from spherebuckle import solver
from spherebuckle.errors import (
    GridTooCoarse,
    InvalidInput,
    NoConvergence,
    NotPositiveDefinite,
    UnsupportedMode,
)
from spherebuckle.spectrum import CapDomain, EigenPair, harmonic_multiplicity
from spherebuckle.solver import (
    _solve_mode,
    angular_eigenvalue,
    assemble_mode,
    convergence_table,
    coordinate_split_residuals,
    radial_stencil,
    solve_cap,
    solve_gevp,
)


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

    def test_hemisphere_reference_near_analytic(self):
        # cos(theta) solves the hemisphere Dirichlet problem with value 2.
        assert abs(oracles.HEMISPHERE_DIRICHLET_N2 - 2.0) < 1e-10


class TestAngularEigenvalue:
    @pytest.mark.parametrize("m,n,mu", [(0, 2, 0.0), (0, 5, 0.0), (3, 2, 9.0), (2, 3, 6.0)])
    def test_values(self, m, n, mu):
        assert angular_eigenvalue(m, n) == mu

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            angular_eigenvalue(-1, 2)


class TestAssembleMode:
    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            assemble_mode(CapDomain(2, 1.0), 0, 15)

    @pytest.mark.parametrize("n,theta0,m", [(2, 1.0, 0), (3, 2.0, 1), (4, 3.0, 2)])
    def test_symmetric_and_definite(self, n, theta0, m):
        sys_ = assemble_mode(CapDomain(n, theta0), m, 48)
        A, B = sys_.A, sys_.B
        assert np.abs(A - A.T).max() <= 1e-14 * np.abs(A).max()
        assert np.abs(B - B.T).max() <= 1e-14 * np.abs(B).max()
        np.linalg.cholesky(B)
        w = np.linalg.eigvalsh(A)
        assert w[0] >= -1e-10 * w[-1]

    def test_grid_is_cell_centered(self):
        sys_ = assemble_mode(CapDomain(2, 1.0), 0, 32)
        h = 1.0 / 32
        assert sys_.grid[0] == pytest.approx(h / 2)
        assert sys_.grid[-1] == pytest.approx(1.0 - h / 2)
        assert sys_.mu == 0.0

    def test_interior_stencil_annihilates_constants(self):
        # With mu = 0 the radial operator kills constants; the discrete
        # rows (away from the unfolded last row) must do so to roundoff.
        sub, diag, sup = radial_stencil(2, 1.0, 0, 64)
        rows = (sub + diag + sup)[1:-1]
        scale = (64 / 1.0) ** 2
        assert np.abs(rows).max() <= 1e-11 * scale
        # first row uses the even-parity fold: entries are diag and sup only
        assert abs(diag[0] + sup[0]) <= 1e-11 * scale


class TestSolveGevp:
    def test_diagonal_identity(self):
        out = solve_gevp(np.diag([2.0, 8.0]), np.eye(2), 2)
        assert [v for v, _ in out] == [2.0, 8.0]

    def test_diagonal_weights(self):
        out = solve_gevp(2.0 * np.eye(2), np.diag([2.0, 1.0]), 2)
        assert [v for v, _ in out] == pytest.approx([1.0, 2.0], rel=1e-14)

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(20240817)
        for _ in range(5):
            F = rng.normal(size=(6, 6))
            A = F @ F.T + 1e-3 * np.eye(6)
            G = rng.normal(size=(6, 6))
            B = G @ G.T + 0.5 * np.eye(6)
            got = [v for v, _ in solve_gevp(A, B, 6)]
            want = oracles.charpoly_eigs(A, B)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * max(1.0, abs(w))

    def test_b_orthonormal_vectors(self):
        rng = np.random.default_rng(7)
        F = rng.normal(size=(12, 12))
        A = F @ F.T
        G = rng.normal(size=(12, 12))
        B = G @ G.T + np.eye(12)
        pairs = solve_gevp(A, B, 5)
        V = np.column_stack([v for _, v in pairs])
        gram = V.T @ B @ V
        assert np.abs(gram - np.eye(5)).max() < 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(99)
        F = rng.normal(size=(10, 10))
        A = F @ F.T + 0.1 * np.eye(10)
        G = rng.normal(size=(10, 10))
        B = G @ G.T + np.eye(10)
        base = [v for v, _ in solve_gevp(A, B, 4)]
        p = rng.permutation(10)
        P = np.eye(10)[p]
        shuffled = [v for v, _ in solve_gevp(P @ A @ P.T, P @ B @ P.T, 4)]
        for a, b in zip(base, shuffled):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_gevp(np.eye(3), np.diag([1.0, -1.0, 1.0]), 1)

    def test_input_validation(self):
        with pytest.raises(InvalidInput):
            solve_gevp(np.eye(3), np.eye(2), 1)
        with pytest.raises(InvalidInput):
            solve_gevp(np.eye(3), np.eye(3), 4)

    def test_solver_failure_maps_to_no_convergence(self, monkeypatch):
        import scipy.linalg

        def boom(*args, **kwargs):
            raise scipy.linalg.LinAlgError("synthetic failure")

        # solve_gevp imports eigh when called, so it reads the patched name.
        monkeypatch.setattr(scipy.linalg, "eigh", boom)
        with pytest.raises(NoConvergence):
            solve_gevp(np.eye(4), np.eye(4), 2)

    def test_deterministic_sign(self):
        out = solve_gevp(np.diag([1.0, 2.0]), np.eye(2), 2)
        for _, v in out:
            assert v[np.argmax(np.abs(v))] > 0


class TestHemisphereAnchor:
    def test_gradient_form_matches_reference(self):
        # Smallest generalized eigenvalue of (B, mass) is the Dirichlet
        # eigenvalue of the hemisphere. The rim face term is first-order
        # accurate for functions with nonzero rim slope, so this anchors
        # the value and the shrinking error, not a rate.
        ref = oracles.HEMISPHERE_DIRICHLET_N2
        errs = []
        for N in (64, 128):
            sys_ = assemble_mode(CapDomain(2, math.pi / 2), 0, N)
            h = math.pi / 2 / N
            wts = np.sin(sys_.grid) * h
            M = sys_.M
            mass = np.diag(wts[:M])
            mass[M - 1, M - 1] += wts[N - 1] / 9.0
            val = solve_gevp(sys_.B, mass, 1)[0][0]
            errs.append(abs(val - ref))
        assert errs[0] < 0.03 * ref
        assert errs[1] < 0.6 * errs[0]


class TestBandedEngine:
    def test_matches_dense_at_moderate_grid(self):
        sys_ = assemble_mode(CapDomain(3, 2.0), 1, 256)
        lam, X = _solve_mode(sys_, 6)
        dense = [v for v, _ in solve_gevp(sys_.A, sys_.B, 6)]
        for a, b in zip(lam, dense):
            assert abs(a - b) <= 1e-9 * dense[0]

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("n,theta0", [(2, 1.0), (3, 2.0), (4, 3.0)])
    def test_matches_dense_across_modes(self, n, theta0, m):
        # m = 0 has no mass term, so there B = D^T D alone. The grid is
        # coarser than above because the dense reference forms A = K^T K
        # in floating point: at N = 256 that rounding alone moves the
        # lowest m = 0 value by up to 3.4e-9 relative, while the engine,
        # which works with K, is within 2e-13 of a 40-digit solution.
        sys_ = assemble_mode(CapDomain(n, theta0), m, 128)
        lam, _ = _solve_mode(sys_, 6)
        dense = [v for v, _ in solve_gevp(sys_.A, sys_.B, 6)]
        for a, b in zip(lam, dense):
            assert abs(a - b) <= 1e-9 * dense[0]

    def test_lowest_eigenvalue_increases_with_mode(self):
        # The clamped discretization must be free of spurious low modes:
        # the first eigenvalue of each azimuthal channel interlaces upward.
        lows = []
        for m in range(5):
            sys_ = assemble_mode(CapDomain(2, 3.0), m, 128)
            lam, _ = _solve_mode(sys_, 1)
            lows.append(lam[0])
        assert all(a < b for a, b in zip(lows, lows[1:]))

    def test_ritz_basis_b_orthonormal(self):
        from spherebuckle.solver import _apply_B

        sys_ = assemble_mode(CapDomain(2, 1.0), 0, 512)
        lam, X = _solve_mode(sys_, 5)
        V = X[:, :5]
        gram = V.T @ _apply_B(sys_, V)
        d = np.sqrt(np.diag(gram))
        gram = gram / np.outer(d, d)
        assert np.abs(gram - np.eye(5)).max() < 1e-8

    def test_fine_grid_values_pinned(self):
        # Values the Givens band-QR engine gave at the finest campaign
        # grid, where shift-invert with a Cholesky of A is about 7% off.
        sys_ = assemble_mode(CapDomain(2, 3.0), 0, 32768)
        lam, _ = _solve_mode(sys_, 3)
        want = [2.0291354539502793, 6.138095925678098, 12.363521247262648]
        for got, w in zip(lam, want):
            assert abs(got - w) <= 1e-9 * w

    def test_lanczos_failure_maps_to_no_convergence(self, monkeypatch):
        import scipy.sparse.linalg

        def boom(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("synthetic failure", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", boom)
        with pytest.raises(NoConvergence):
            _solve_mode(assemble_mode(CapDomain(2, 1.0), 0, 64), 2)

    def test_cholesky_failure_maps_to_no_convergence(self, monkeypatch):
        import scipy.linalg.lapack

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", lambda ab, **kwargs: (ab, 2))
        with pytest.raises(NoConvergence, match=r"m=1, N=64"):
            _solve_mode(assemble_mode(CapDomain(2, 1.0), 1, 64), 2)

    def test_b_applied_a_fixed_number_of_times(self, monkeypatch):
        # The Lanczos iteration works on R A^{-1} R^T and never applies
        # B; only the Ritz step and the residual check do.
        from spherebuckle import solver

        calls = []
        apply_B = solver._apply_B

        def counted(*args, **kwargs):
            calls.append(1)
            return apply_B(*args, **kwargs)

        monkeypatch.setattr(solver, "_apply_B", counted)
        _solve_mode(assemble_mode(CapDomain(2, 1.0), 0, 1024), 10)
        assert len(calls) <= 3

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


# Engine-neutral tests loop over solve_cap and the FD reference engine
# inside one test.
ENGINES = (solve_cap, solver._solve_cap_fd)


class TestSolveCap:
    def test_flat_limit_with_multiplicity(self):
        # Vanishing aperture degenerates to the clamped unit disk scaled
        # by theta0^2: the first three values are the squares of the first
        # order-1 zero and the doubly degenerate order-2 zero.
        for solve in ENGINES:
            spectrum, _ = solve(CapDomain(2, 0.05), 3, N0=64, max_refinements=6)
            t2 = 0.05**2
            want = [oracles.J_1_1**2, oracles.J_2_1**2, oracles.J_2_1**2]
            for got, w in zip(spectrum.values, want):
                assert abs(got * t2 - w) < 0.01 * w, solve.__name__

    def test_flat_limit_three_dim(self):
        for solve in ENGINES:
            spectrum, _ = solve(CapDomain(3, 0.05), 1, N0=64, max_refinements=6)
            got = spectrum.values[0] * 0.05**2
            assert abs(got - oracles.J_3HALF_1**2) < 0.01 * oracles.J_3HALF_1**2, solve.__name__

    def test_positive_nondecreasing_and_meta(self):
        spectrum, pairs = solver._solve_cap_fd(CapDomain(2, 1.0), 5, N0=64, max_refinements=6)
        vals = spectrum.values
        assert all(v > 0 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert spectrum.meta["N"] >= 256
        assert spectrum.meta["mode_cutoff"] >= 2
        assert len(spectrum.meta["order"]) == 5
        assert len(pairs) == 5
        assert pairs[0].m == 0
        assert len(pairs[0].profile) == spectrum.meta["N"]

    def test_spectral_positive_nondecreasing_and_meta(self):
        spectrum, pairs = solve_cap(CapDomain(2, 1.0), 5)
        vals = spectrum.values
        assert all(v > 0 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        meta = spectrum.meta
        assert type(meta["N"]) is int and meta["N"] >= 2 * 5 + 16
        assert type(meta["mode_cutoff"]) is int and meta["mode_cutoff"] >= 2
        assert meta["order"] == [None] * 5
        assert meta["raw"] == list(vals)
        assert len(pairs) == 5
        assert pairs[0].m == 0
        assert len(pairs[0].profile) == len(pairs[0].theta) == solver.PAIR_CELLS
        assert [p.value for p in pairs] == list(vals)

    def test_deterministic(self):
        for solve in ENGINES:
            a, _ = solve(CapDomain(3, 1.5), 4, N0=64, max_refinements=6)
            b, _ = solve(CapDomain(3, 1.5), 4, N0=64, max_refinements=6)
            assert a.values == b.values, solve.__name__

    def test_no_convergence_when_starved(self):
        with pytest.raises(NoConvergence):
            solver._solve_cap_fd(CapDomain(2, 1.0), 3, N0=32, max_refinements=1, rel_tol=1e-14)

    def test_spectral_no_convergence_when_starved(self):
        # Near the whole sphere one step from P = 20 to 30 moves the lowest
        # values by ~5e-3; the message names k, the change and P.
        with pytest.raises(NoConvergence, match=r"top-2 .* changing by .* \(P=30\)"):
            solve_cap(CapDomain(2, 3.14), 2, max_refinements=1, rel_tol=1e-14)

    def test_k_above_coarse_grid_size_is_no_convergence(self):
        # k = 15 exceeds what a 16-cell grid can hold (M - 1 = 14 values
        # per mode); the request is clamped and refinement then stalls.
        with pytest.raises(NoConvergence):
            solver._solve_cap_fd(CapDomain(2, 1.0), 15, N0=16)

    def test_spectral_basis_sized_from_k(self):
        # The spectral basis grows with k and ignores N0, so the request
        # the FD engine cannot hold on 16 cells converges and matches FD.
        spectrum, _ = solve_cap(CapDomain(2, 1.0), 15, N0=16)
        reference, _ = solver._solve_cap_fd(CapDomain(2, 1.0), 15)
        assert spectrum.meta["N"] >= 2 * 15 + 16
        for got, want in zip(spectrum.values, reference.values):
            assert abs(got - want) <= 1e-8 * want

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

    def test_convergence_table_requires_positive_k(self):
        with pytest.raises(InvalidInput):
            convergence_table(CapDomain(2, 1.0), 0)

    def test_observed_orders_second_order(self):
        rows = convergence_table(CapDomain(2, 1.0), 5, levels=4, N0=64)
        orders = rows[-1][2]
        assert all(o is not None and 1.7 <= o <= 2.3 for o in orders)


class TestSpectralEngine:
    """The Jacobi-Galerkin engine behind solve_cap's default."""

    @pytest.mark.parametrize(
        "n,theta0,m,want", [(2, 3.1, 5, 30.0), (2, 3.1, 15, 240.0), (10, 3.0, 5, 70.0)]
    )
    def test_whole_sphere_limit(self, n, theta0, m, want):
        # As theta0 -> pi the lowest value of mode m tends to the whole
        # sphere's l(l + n - 1), l = max(m, 1); sharply so for m >= 5.
        vals, _ = solver._galerkin_mode(CapDomain(n, theta0), m, 48)
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
        vals, C = solver._galerkin_mode(domain, m, P)
        x, w = solver._gauss_legendre(2 * P + 60)
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
        # Every Galerkin solve returns all P values of its mode, so no
        # mode is solved twice at one basis size: the spectral counterpart
        # of TestModeSweep's FD request check below.
        solves = []
        galerkin_mode = solver._galerkin_mode

        def counted(domain, m, P):
            solves.append((m, P))
            return galerkin_mode(domain, m, P)

        monkeypatch.setattr(solver, "_galerkin_mode", counted)
        spectrum, _ = solve_cap(CapDomain(2, 1.0), 30)
        assert len(solves) == len(set(solves))
        assert max(P for _, P in solves) == spectrum.meta["N"]
        assert len(solves) <= 2 * (spectrum.meta["mode_cutoff"] + 3)

    def test_large_k_bases_sized_from_kept_values(self, monkeypatch):
        # At k = 200 mode 0 keeps 9 of the top 200, so no basis grows
        # toward the 2 ceil(k / mult) + 16 = 416 functions its cap alone
        # would ask for. Each kept value still has the 2 w + 16 margin,
        # and every mode at a fixed 120-function basis gives the same top k.
        final = {}
        galerkin_mode = solver._galerkin_mode

        def recorded(domain, m, P):
            final[m] = P
            return galerkin_mode(domain, m, P)

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
            for v in galerkin_mode(domain, m, 120)[0][:k]
            for _ in range(harmonic_multiplicity(2, m))
        )[:k]
        for got, want in zip(spectrum.values, fixed):
            assert abs(got - want) <= 1e-10 * want

    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_failure_maps_to_no_convergence(self, monkeypatch, failure):
        import scipy.linalg

        def broken(a, **kwargs):
            if failure == "raise":
                raise scipy.linalg.LinAlgError("synthetic failure")
            u, s, vt = scipy.linalg.svd(a, **kwargs)
            return u, np.full_like(s, np.nan), vt

        monkeypatch.setattr(solver, "svd", broken)
        with pytest.raises(NoConvergence, match=r"m=0 at P=26"):
            solve_cap(CapDomain(2, 1.0), 5)

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
        # scipy serves only the FD reference; the package import, a
        # spectral solve and the solve, bounds, compare and verify commands
        # never load it.
        import spherebuckle

        src = os.path.dirname(os.path.dirname(spherebuckle.__file__))
        (tmp_path / "cell.json").write_text('{"dims": [2], "apertures": [1.0], "k_max": 2}')
        code = (
            "import sys, spherebuckle\n"
            "from spherebuckle import cli\n"
            "spherebuckle.solve_cap(spherebuckle.CapDomain(2, 1.0), 3)\n"
            "for argv in (\n"
            "    'solve --n 2 --theta0 1.0 --k 3 --out s.json',\n"
            "    'bounds --spectrum s.json --k 2',\n"
            "    'compare --spectrum s.json --k 2 --lambda-next 30',\n"
            "    'verify --config cell.json --out r.json',\n"
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


class TestModeSweep:
    """The azimuthal sweep both engines share."""

    def test_fd_mode_solved_once_for_its_share(self, monkeypatch):
        # Each grid level solves every mode it sweeps once, for the
        # ceil(k / mult) values the mode can hold; Lanczos returns at most
        # M - 1 of them.
        requests = []
        solve_mode = solver._solve_mode

        def recorded(sys_, count):
            requests.append((sys_.m, sys_.N, count, sys_.M))
            return solve_mode(sys_, count)

        monkeypatch.setattr(solver, "_solve_mode", recorded)
        k = 10
        solver._solve_cap_fd(CapDomain(2, 1.0), k)
        solved = [(m, N) for m, N, _, _ in requests]
        assert len(solved) == len(set(solved))
        assert len({N for _, N in solved}) >= 2
        for m, _, count, M in requests:
            share = math.ceil(k / harmonic_multiplicity(2, m))
            assert min(count, M - 1) == min(share, M - 1)


class TestEnergyIdentity:
    @pytest.mark.parametrize("n,theta0", [(2, 1.0), (3, 1.5)])
    def test_normalized_pair_sums_to_one(self, n, theta0):
        domain = CapDomain(n, theta0)
        for solve in ENGINES:
            _, pairs = solve(domain, 1, N0=64, max_refinements=7)
            ra, rb = coordinate_split_residuals(pairs[0], domain)
            assert ra < 1e-8 and rb < 1e-8, solve.__name__

    def test_scaling_by_two_gives_three(self):
        domain = CapDomain(2, 1.0)
        for solve in ENGINES:
            _, pairs = solve(domain, 1, N0=64, max_refinements=5)
            p = pairs[0]
            doubled = EigenPair(
                value=p.value,
                m=0,
                theta=p.theta,
                profile=tuple(2.0 * f for f in p.profile),
            )
            ra, rb = coordinate_split_residuals(doubled, domain)
            assert abs(ra - 3.0) < 1e-10 and abs(rb - 3.0) < 1e-10, solve.__name__

    def test_rejects_nonaxisymmetric(self):
        p = EigenPair(value=1.0, m=1, theta=(0.5,), profile=(1.0,))
        with pytest.raises(UnsupportedMode):
            coordinate_split_residuals(p, CapDomain(2, 1.0))
