"""Independent reference oracles, written before the code they judge.

Everything here is deliberately primitive: power series, sign scans,
bisection, and two-grid extrapolation. No scipy, no LAPACK eigensolvers.
The package under test must agree with these within stated tolerances;
the oracles never import the package.
"""

from __future__ import annotations

import math

import numpy as np

# First zeros of Bessel J_nu, frozen from bessel_first_zero below.
# tan_eq_x_root() reproduces J_3HALF_1 to the last bit.
J_1_1 = 3.831705970207512
J_3HALF_1 = 4.493409457909063
J_2_1 = 5.135622301840682


def bessel_j(nu: float, x: float, terms: int = 60) -> float:
    """Power series for J_nu(x); adequate for x < 12 in doubles."""
    half = 0.5 * x
    total = 0.0
    for k in range(terms):
        t = (-1.0) ** k / (math.factorial(k) * math.gamma(k + nu + 1.0))
        total += t * half ** (2 * k + nu)
    return total


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo > 0.0) == (fm > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def bessel_first_zero(nu: float, scan_hi: float = 12.0, scan_n: int = 4000) -> float:
    """First positive zero of J_nu by sign scan plus bisection."""
    xs = [scan_hi * (i + 1) / scan_n for i in range(scan_n)]
    prev_x, prev_f = xs[0], bessel_j(nu, xs[0])
    for x in xs[1:]:
        fx = bessel_j(nu, x)
        if (prev_f > 0.0) != (fx > 0.0):
            return bisect(lambda t: bessel_j(nu, t), prev_x, x)
        prev_x, prev_f = x, fx
    raise AssertionError(f"no zero of J_{nu} in (0, {scan_hi})")


def tan_eq_x_root() -> float:
    """First positive root of tan x = x, bracketed in (pi, 3pi/2).

    Independent cross-check of J_3HALF_1: the half-integer Bessel J_{3/2}
    vanishes exactly where tan x = x.
    """
    f = lambda x: math.sin(x) - x * math.cos(x)
    # sin x - x cos x has the same zeros as tan x - x and no poles.
    return bisect(f, math.pi + 1e-9, 1.5 * math.pi - 1e-9)


def charpoly_eigs(A: np.ndarray, B: np.ndarray, count: int | None = None) -> list[float]:
    """Generalized eigenvalues of a symmetric-definite pair by brute force.

    Scans det(A - lam B) for sign changes and bisects each bracket. Exact
    algorithmic independence from any Cholesky/tridiagonal pipeline; uses
    only the LU determinant. Intended for small dense pairs with simple
    eigenvalues (random SPD draws).
    """
    n = A.shape[0]
    want = n if count is None else count
    det = lambda lam: float(np.linalg.det(A - lam * B))
    hi = 1.0
    for _ in range(80):
        grid_n = 20000
        lams = np.linspace(0.0, hi, grid_n)
        vals = np.array([det(l) for l in lams])
        signs = np.sign(vals)
        idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        if len(idx) >= want and (len(idx) == 0 or lams[idx[-1] + 1] < 0.95 * hi):
            roots = [
                bisect(det, float(lams[i]), float(lams[i + 1])) for i in idx[:want]
            ]
            return roots
        hi *= 2.0
    raise AssertionError("could not bracket enough sign changes")


def richardson2(fine: float, coarse: float) -> float:
    """Two-grid extrapolation assuming exact order 2 under doubling."""
    return (4.0 * fine - coarse) / 3.0


def observed_order(v_h: float, v_2h: float, v_4h: float) -> float:
    """log2 of successive difference ratios under grid doubling."""
    d1 = abs(v_2h - v_4h)
    d2 = abs(v_h - v_2h)
    if d2 == 0.0:
        return float("inf")
    return math.log2(d1 / d2)


def dirichlet_hemisphere_reference(n: int = 2, levels: tuple[int, ...] = (256, 512, 1024)) -> float:
    """First Dirichlet Laplace-Beltrami eigenvalue of the n=2 hemisphere.

    Independent rebuild: cell-centered second-order finite differences for
    the gradient form against the mass form, smallest Rayleigh quotient by
    inverse power iteration on dense matrices, Richardson-extrapolated.
    The analytic value for n=2, theta0=pi/2 is exactly 2 (eigenfunction
    cos theta).
    """
    theta0 = math.pi / 2.0

    def value(N: int) -> float:
        h = theta0 / N
        faces = np.arange(1, N) * h
        wf = np.sin(faces) ** (n - 1)
        centers = (np.arange(N) + 0.5) * h
        wc = np.sin(centers) ** (n - 1) * h
        # Gradient form: interior faces plus the Dirichlet boundary face,
        # where the one-sided slope to a zero boundary value is 2 f_N / h
        # at distance h/2 (low-order but only on one cell; refined away).
        K = np.zeros((N, N))
        for j in range(N - 1):
            K[j, j] += wf[j] / h
            K[j + 1, j + 1] += wf[j] / h
            K[j, j + 1] -= wf[j] / h
            K[j + 1, j] -= wf[j] / h
        K[N - 1, N - 1] += math.sin(theta0) ** (n - 1) * (2.0 / h)
        M = np.diag(wc)
        # Smallest Rayleigh quotient by shifted inverse power iteration.
        x = np.ones(N)
        x /= math.sqrt(x @ (M @ x))
        lam = x @ (K @ x)
        for _ in range(200):
            y = np.linalg.solve(K, M @ x)
            x = y / math.sqrt(y @ (M @ y))
            new = x @ (K @ x)
            if abs(new - lam) <= 1e-14 * abs(new):
                lam = new
                break
            lam = new
        return lam

    vals = [value(N) for N in levels]
    return richardson2(vals[-1], vals[-2])


# Frozen output of dirichlet_hemisphere_reference() at levels (256, 512, 1024);
# analytic value 2.
HEMISPHERE_DIRICHLET_N2 = 2.000000000000877
