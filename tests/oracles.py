"""Independent reference oracles, written before the code they judge.

Everything here is deliberately primitive: power series, sign scans,
bisection, and the Gauss hypergeometric function in arbitrary precision
(mpmath). No scipy, no LAPACK eigensolvers, no discretization. The package
under test must agree with these within stated tolerances; the oracles
never import the package.

The exact cap values come from the rim determinant. In azimuthal mode m,
with mu = m(m + n - 2), the solution of

    f'' + (n-1) cot(theta) f' - mu f / sin^2(theta) + E f = 0

that is regular at the pole is f_E = sin^m(theta) 2F1(a, b; m + n/2; z),
z = sin^2(theta / 2), a + b = 2m + n - 1, ab = m(m + n - 1) - E. A clamped
eigenfunction solves (Delta + lambda) Delta u = 0, so it is
u = f_lambda + c f_0 with f_0 harmonic, and lambda is a clamped value of
mode m exactly when the rim determinant

    W(lambda) = f_lambda(theta0) f_0'(theta0) - f_lambda'(theta0) f_0(theta0)

vanishes. Both terms carry sin^(2m+1)(theta0) / 2 > 0, which is dropped:
`rim_determinant` returns F_lambda dF_0/dz - dF_lambda/dz F_0 at z0, with
the same roots and signs. W(0) = 0 in every mode (f_lambda = f_0 there).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, Sequence

import mpmath as mp

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


@lru_cache(maxsize=None)
def gauss_legendre(Q: int) -> tuple[tuple, tuple]:
    """The Q-point Gauss-Legendre rule on (0, 1) at 40 digits, ascending.

    Newton's method on mpmath's P_Q, from cos(pi (4i - 1) / (4Q + 2)) for
    each root t >= 0 of the rule on (-1, 1), mirrored onto the others; the
    weight 2 / ((1 - t^2) P_Q'(t)^2) is halved for (0, 1). The roots must
    come out strictly decreasing in i, so no two guesses found one root.
    """
    dps = 40
    with mp.workdps(dps):
        roots, weights = [], []
        for i in range(1, (Q + 1) // 2 + 1):
            t = mp.cos(mp.pi * (4 * i - 1) / (4 * Q + 2))
            for _ in range(50):
                p = mp.legendre(Q, t)
                dp = Q * (t * p - mp.legendre(Q - 1, t)) / (t * t - 1)
                t -= p / dp
                # Newton squares the error: this step left about its square.
                if abs(p / dp) < mp.mpf(10) ** (-dps // 2 - 1):
                    break
            else:
                raise AssertionError(f"Newton did not settle on root {i} of P_{Q}")
            dp = Q * (t * mp.legendre(Q, t) - mp.legendre(Q - 1, t)) / (t * t - 1)
            roots.append(t)
            weights.append(1 / ((1 - t * t) * dp * dp))
        assert all(a > b for a, b in zip(roots, roots[1:])) and roots[-1] > -1e-30
        upper = Q - len(roots)
        nodes = [(1 - t) / 2 for t in roots] + [(1 + t) / 2 for t in roots[:upper][::-1]]
        return tuple(nodes), tuple(weights + weights[:upper][::-1])


# Working precision of the hypergeometric oracle, in decimal digits.
DPS = 20


def _params(n: int, m: int, E) -> tuple:
    """(a, b, c) of f_E in mode m: a, b = (2m + n - 1)/2 +- sqrt((n-1)^2/4 + E)."""
    half = mp.mpf(2 * m + n - 1) / 2
    root = mp.sqrt(mp.mpf(n - 1) ** 2 / 4 + E)
    return half + root, half - root, mp.mpf(m) + mp.mpf(n) / 2


def _hyp(n: int, m: int, E, z) -> tuple:
    """2F1(a, b; c; z) of f_E and its z-derivative (ab/c) 2F1(a+1, b+1; c+1; z)."""
    a, b, c = _params(n, m, E)
    return mp.hyp2f1(a, b, c, z), a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)


@lru_cache(maxsize=256)
def _harmonic_at_rim(n: int, theta0: float, m: int) -> tuple:
    """z0 = sin^2(theta0 / 2), and F_0 and dF_0/dz there."""
    with mp.workdps(DPS):
        z0 = mp.sin(mp.mpf(theta0) / 2) ** 2
        return (z0, *_hyp(n, m, 0, z0))


def rim_determinant(n: int, theta0: float, m: int, lam) -> mp.mpf:
    """W(lam) of mode m, up to the positive factor sin^(2m+1)(theta0) / 2."""
    z0, F0, dF0 = _harmonic_at_rim(n, theta0, m)
    with mp.workdps(DPS):
        F, dF = _hyp(n, m, mp.mpf(lam), z0)
        return F * dF0 - dF * F0


def cap_value(n: int, theta0: float, m: int, seed: float) -> float:
    """The root of mode m's rim determinant nearest `seed`, by secant steps.

    W is divided by its size a relative 1e-6 from the seed, so that
    findroot's residual test reads a relative error in lambda.
    """
    with mp.workdps(DPS):
        x0 = mp.mpf(seed)
        size = abs(rim_determinant(n, theta0, m, x0 * (1 + mp.mpf("1e-6"))))
        return float(mp.findroot(lambda lam: rim_determinant(n, theta0, m, lam) / size, x0))


def eigenfunction(
    n: int, theta0: float, m: int, lam: float, thetas: Sequence[float]
) -> list[float]:
    """The clamped eigenfunction f_lam - (f_lam(theta0) / f_0(theta0)) f_0 at thetas."""
    z0, F0, _ = _harmonic_at_rim(n, theta0, m)
    with mp.workdps(DPS):
        a, b, c = _params(n, m, mp.mpf(lam))
        ratio = mp.hyp2f1(a, b, c, z0) / F0
        a0, b0, _ = _params(n, m, 0)
        out = []
        for t in thetas:
            z = mp.sin(mp.mpf(t) / 2) ** 2
            F = mp.hyp2f1(a, b, c, z) - ratio * mp.hyp2f1(a0, b0, c, z)
            out.append(float(mp.sin(mp.mpf(t)) ** m * F))
        return out


def reported_modes(pairs, cutoff: int) -> dict[int, list[float]]:
    """Each mode's distinct reported values, for every mode m <= cutoff.

    pairs carry .m and .value, in ascending value order.
    """
    modes: dict[int, list[float]] = {m: [] for m in range(cutoff + 1)}
    for p in pairs:
        if p.value not in modes[p.m]:
            modes[p.m].append(p.value)
    return modes


def completeness_failures(
    n: int, theta0: float, modes: Mapping[int, Sequence[float]], top: float
) -> list[str]:
    """Intervals where a reported spectrum misses or adds a root of W.

    modes maps each azimuthal index m to its reported distinct values,
    ascending (empty for a mode that reports none), and top is the largest
    value of the spectrum. W is sampled in each mode at 0+ (1e-6 top), at
    the midpoints of consecutive values, and at top (1 + 1e-9). W must
    change sign once around each value, and not at all in a mode with no
    value. A sign test sees the parity of the roots in an interval: a
    value left out puts two roots in one interval, so its omission fails.
    """
    low, top = 1e-6 * top, top * (1 + 1e-9)
    failures = []
    for m, values in sorted(modes.items()):
        points = [low] + [(a + b) / 2 for a, b in zip(values, values[1:])] + [top]
        signs = [mp.sign(rim_determinant(n, theta0, m, p)) for p in points]
        if not values and signs[0] != signs[1]:
            failures.append(f"m={m}: a root below {top:.6g}, none reported")
        for i, v in enumerate(values):
            if signs[i] == signs[i + 1]:
                failures.append(
                    f"m={m}: even root count in ({points[i]:.6g}, {points[i + 1]:.6g}) around {v!r}"
                )
    return failures
