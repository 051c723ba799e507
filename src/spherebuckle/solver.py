"""Clamped buckling spectra of geodesic caps.

The fourth-order problem on a cap {theta <= theta0} in S^n separates over
boundary-sphere harmonics of degree m. Each channel reduces to a radial
generalized eigenproblem A f = Lambda B f with

    A(f, g) = int (L f)(L g) sin^{n-1}theta dtheta
    B(f, g) = int (f' g' + mu f g / sin^2 theta) sin^{n-1}theta dtheta
    L f     = f'' + (n-1) cot(theta) f' - mu f / sin^2 theta

on the clamped space f(theta0) = f'(theta0) = 0, with angular eigenvalue
mu = m(m+n-2).

Discretization is cell-centered second-order differences on
theta_j = (j+1/2)h, h = theta0/N; the grid never touches the pole or the
rim. Pole regularity enters through a parity ghost (even reflection for
m = 0, odd for m >= 1). At the rim the value condition is imposed
strongly, by constraining the last cell to the zero linear extrapolation
through the boundary face, and the slope condition through a mirror
ghost. Imposing the pair this way leaves no spurious boundary modes: the
lowest eigenvalue is increasing in m, as interlacing predicts.

Eigenvalues come from subspace iteration on the factored form A = K^T K
with K = sqrt(W) L. A Givens band-QR of K supplies a solver for A whose
backward error scales with the square root of A's condition number
(direct Cholesky-of-A solves lose the high end of the spectrum at fine
grids), and Ritz forms are assembled cancellation-free as (KZ)^T(KZ) and
Z^T(BZ). Accepted pairs are residual-checked against an evaluation-noise
floor estimated from absolute-value matvecs; below that floor a residual
is not measurable in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log2
from typing import Any, Sequence

import numpy as np
from scipy.linalg import eigh, solve_banded
from scipy.linalg import LinAlgError as ScipyLinAlgError

from .errors import (
    GridTooCoarse,
    InvalidInput,
    NoConvergence,
    NotPositiveDefinite,
    UnsupportedMode,
)
from .spectrum import CapDomain, EigenPair, Spectrum, harmonic_multiplicity, merge_modes

__all__ = [
    "ModeSystem",
    "angular_eigenvalue",
    "assemble_mode",
    "radial_stencil",
    "solve_gevp",
    "solve_cap",
    "convergence_table",
    "coordinate_split_residuals",
]

EPS = float(np.finfo(np.float64).eps)

# Residual contract for dense eigenpairs, relative to ||A x||.
RESIDUAL_REL = 1e-10
# The subspace engine certifies reported values rather than vectors: a
# relative residual r bounds the Ritz value error by about r^2 times the
# spectral condition, so 1e-8 leaves value errors far below every
# tolerance the refinement logic acts on.
ENGINE_RESIDUAL_REL = 1e-8
# Safety factor over the evaluation-noise floor when a contract is
# below what double precision can resolve.
NOISE_SAFETY = 8.0

# Subspace iteration: once the wanted Ritz values repeat twice within
# RITZ_STABLE relative, the residual certificate decides acceptance.
# The gate sits well above the projected problem's evaluation jitter
# (up to ~2e-11 on the stiffest desk-scale grids) and three orders
# below the refinement tolerance the values feed; accuracy is certified
# by residuals, not by the gate.
RITZ_STABLE = 1e-9
MAX_SUBSPACE_ITERS = 80
SUBSPACE_EXTRA = 6


def angular_eigenvalue(m: int, n: int) -> float:
    """Eigenvalue mu = m(m+n-2) of the degree-m harmonic channel."""
    if m < 0 or n < 2:
        raise InvalidInput(f"need m >= 0 and n >= 2, got m={m}, n={n}")
    return float(m * (m + n - 2))


def radial_stencil(
    n: int, theta0: float, m: int, N: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order stencil (sub, diag, super) of L on the cell centers.

    The pole parity ghost is folded into the first row; the rim rows are
    left untouched (no outer boundary treatment), so row j of L applied
    to samples f is sub[j] f_{j-1} + diag[j] f_j + sup[j] f_{j+1} for
    interior j. With mu = 0 every such row annihilates constants exactly.
    """
    h = theta0 / N
    th = (np.arange(N) + 0.5) * h
    mu = angular_eigenvalue(m, n)
    sin = np.sin(th)
    cot = np.cos(th) / sin
    sub = 1.0 / h**2 - (n - 1) * cot / (2.0 * h)
    diag = -2.0 / h**2 - mu / sin**2
    sup = 1.0 / h**2 + (n - 1) * cot / (2.0 * h)
    diag = diag.copy()
    diag[0] += (1.0 if m == 0 else -1.0) * sub[0]
    return sub, diag, sup


@dataclass(frozen=True)
class ModeSystem:
    """Reduced radial eigensystem of one azimuthal channel.

    The constrained unknowns y are the first N-1 cell values; the last
    cell is the dependent value y_{N-2}/3 fixed by the rim constraint.
    A and B materialize the dense reduced matrices on demand; the band
    arrays are what the iterative engine consumes.
    """

    n: int
    theta0: float
    m: int
    mu: float
    N: int
    grid: np.ndarray = field(repr=False)
    _kl: np.ndarray = field(repr=False)
    _kd: np.ndarray = field(repr=False)
    _ku: np.ndarray = field(repr=False)
    _dl: np.ndarray = field(repr=False)
    _dd: np.ndarray = field(repr=False)
    _face_end: float = field(repr=False)
    _mass: np.ndarray = field(repr=False)

    @property
    def M(self) -> int:
        return self.N - 1

    @property
    def A(self) -> np.ndarray:
        K = self._dense_K()
        return K.T @ K

    @property
    def B(self) -> np.ndarray:
        D = self._dense_D()
        return D.T @ D + np.diag(self._mass)

    def _dense_K(self) -> np.ndarray:
        N, M = self.N, self.M
        K = np.zeros((N, M))
        for i in range(N):
            if 1 <= i and i - 1 < M:
                K[i, i - 1] += self._kl[i]
            if i < M:
                K[i, i] += self._kd[i]
            if i + 1 < M:
                K[i, i + 1] += self._ku[i]
        return K

    def _dense_D(self) -> np.ndarray:
        N, M = self.N, self.M
        D = np.zeros((N + 1, M))
        for j in range(1, N):
            D[j, j - 1] += self._dl[j]
            if j < M:
                D[j, j] += self._dd[j]
        D[N, M - 1] = self._face_end
        return D


def assemble_mode(domain: CapDomain, m: int, N: int) -> ModeSystem:
    """Build the constrained mode system on N cells.

    The factor K = sqrt(w) L carries the clamped-value fold: the column
    of the dependent last cell is folded onto column N-2 with weight 1/3.
    The gradient factor D differences across faces, with the rim face
    contributing the one-sided slope to the zero boundary value.
    """
    if N < 16:
        raise GridTooCoarse(f"need N >= 16 cells, got {N}")
    if m < 0:
        raise InvalidInput(f"azimuthal index must be >= 0, got {m}")
    n, theta0 = domain.n, domain.theta0
    h = theta0 / N
    th = (np.arange(N) + 0.5) * h
    mu = angular_eigenvalue(m, n)
    sin = np.sin(th)
    sig = sin ** (n - 1)
    sub, diag, sup = radial_stencil(n, theta0, m, N)
    diag = diag.copy()
    diag[N - 1] += sup[N - 1]  # mirror ghost: clamped slope at the rim
    sw = np.sqrt(sig * h)

    kl = np.zeros(N)
    kd = sw * diag
    ku = np.zeros(N)
    kl[1:] = sw[1:] * sub[1:]
    ku[: N - 1] = sw[: N - 1] * sup[: N - 1]
    # Fold the dependent column: entries at column N-1 move to N-2 with 1/3.
    kd[N - 2] += ku[N - 2] / 3.0
    ku[N - 2] = 0.0
    kl[N - 1] += kd[N - 1] / 3.0
    kd[N - 1] = 0.0

    thf = np.arange(N + 1) * h
    swf = np.sqrt(np.sin(thf) ** (n - 1) * h)
    dl = np.zeros(N + 1)
    dd = np.zeros(N + 1)
    dl[1:N] = -swf[1:N] / h
    dd[1:N] = swf[1:N] / h
    dl[N - 1] += dd[N - 1] / 3.0  # same fold in the gradient factor
    dd[N - 1] = 0.0
    face_end = -2.0 * swf[N] / (3.0 * h)

    mass = mu * sig * h / sin**2
    mass_c = mass[: N - 1].copy()
    mass_c[N - 2] += mass[N - 1] / 9.0

    return ModeSystem(
        n=n,
        theta0=theta0,
        m=m,
        mu=mu,
        N=N,
        grid=th,
        _kl=kl,
        _kd=kd,
        _ku=ku,
        _dl=dl,
        _dd=dd,
        _face_end=face_end,
        _mass=mass_c,
    )


def _apply_K(sys_: ModeSystem, X: np.ndarray, absval: bool = False) -> np.ndarray:
    N, M = sys_.N, sys_.M
    kl, kd, ku = sys_._kl, sys_._kd, sys_._ku
    if absval:
        kl, kd, ku = np.abs(kl), np.abs(kd), np.abs(ku)
    Y = np.zeros((N, X.shape[1]))
    Y[:M] += kd[:M, None] * X
    Y[1 : M + 1] += kl[1 : M + 1, None] * X
    Y[: M - 1] += ku[: M - 1, None] * X[1:]
    return Y


def _apply_A(sys_: ModeSystem, X: np.ndarray, absval: bool = False) -> np.ndarray:
    M = sys_.M
    kl, kd, ku = sys_._kl, sys_._kd, sys_._ku
    if absval:
        kl, kd, ku = np.abs(kl), np.abs(kd), np.abs(ku)
    KX = _apply_K(sys_, X, absval=absval)
    Y = np.zeros_like(X)
    Y += kd[:M, None] * KX[:M]
    Y += kl[1 : M + 1, None] * KX[1 : M + 1]
    Y[1:M] += ku[: M - 1, None] * KX[: M - 1]
    return Y


def _apply_B(sys_: ModeSystem, X: np.ndarray, absval: bool = False) -> np.ndarray:
    N, M = sys_.N, sys_.M
    dl, dd, fe = sys_._dl, sys_._dd, sys_._face_end
    mass = sys_._mass
    if absval:
        dl, dd, fe, mass = np.abs(dl), np.abs(dd), abs(fe), np.abs(mass)
    G = np.zeros((N + 1, X.shape[1]))
    G[1:M] += dd[1:M, None] * X[1:M]
    G[1:N] += dl[1:N, None] * X
    G[N] = fe * X[M - 1]
    Y = np.zeros_like(X)
    Y[1:M] += dd[1:M, None] * G[1:M]
    Y += dl[1:N, None] * G[1:N]
    Y[M - 1] += fe * G[N]
    Y += mass[:, None] * X
    return Y


def _band_qr(sys_: ModeSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Givens QR of the N x (N-1) factor K; returns R's three diagonals.

    Rows are merged one at a time with plane rotations, so R is obtained
    with backward error of order eps times sqrt(cond(A)), not cond(A).
    """
    N, M = sys_.N, sys_.M
    kl, kd, ku = sys_._kl, sys_._kd, sys_._ku
    Rrows: list[list[float] | None] = [None] * M

    def add_row(v: list[float], col: int) -> None:
        while True:
            while col < M and v[0] == 0.0 and (v[1] != 0.0 or v[2] != 0.0 or v[3] != 0.0):
                v = [v[1], v[2], v[3], 0.0]
                col += 1
            if col >= M or all(x == 0.0 for x in v):
                return
            if Rrows[col] is None:
                Rrows[col] = [v[0], v[1], v[2], v[3]]
                return
            R = Rrows[col]
            a, b = R[0], v[0]
            r = (a * a + b * b) ** 0.5
            if r == 0.0:
                return
            c, s = a / r, b / r
            Rrows[col] = [
                r,
                c * R[1] + s * v[1],
                c * R[2] + s * v[2],
                c * R[3] + s * v[3],
            ]
            v = [
                -s * R[1] + c * v[1],
                -s * R[2] + c * v[2],
                -s * R[3] + c * v[3],
                0.0,
            ]
            col += 1

    for i in range(N):
        if i == 0:
            add_row([kd[0], ku[0], 0.0, 0.0], 0)
        else:
            add_row([kl[i], kd[i] if i < M else 0.0, ku[i] if i < M else 0.0, 0.0], i - 1)
    r0 = np.zeros(M)
    r1 = np.zeros(M)
    r2 = np.zeros(M)
    for j in range(M):
        R = Rrows[j]
        if R is None:
            raise NoConvergence("rank-deficient operator factor")
        r0[j] = R[0]
        if j + 1 < M:
            r1[j] = R[1]
        if j + 2 < M:
            r2[j] = R[2]
    return r0, r1, r2


def _solve_RtR(
    r0: np.ndarray, r1: np.ndarray, r2: np.ndarray, Y: np.ndarray
) -> np.ndarray:
    """Solve (R^T R) X = Y by two triangular banded sweeps."""
    M = len(r0)
    lower = np.zeros((3, M))
    lower[0] = r0
    lower[1, : M - 1] = r1[: M - 1]
    lower[2, : M - 2] = r2[: M - 2]
    Z = solve_banded((2, 0), lower, Y)
    upper = np.zeros((3, M))
    upper[0, 2:] = r2[: M - 2]
    upper[1, 1:] = r1[: M - 1]
    upper[2] = r0
    return solve_banded((0, 2), upper, Z)


def _residuals_ok(sys_: ModeSystem, lam: np.ndarray, vecs: np.ndarray) -> tuple[bool, str]:
    AV = _apply_A(sys_, vecs)
    BV = _apply_B(sys_, vecs)
    res = np.linalg.norm(AV - lam[None, :] * BV, axis=0)
    anorm = np.linalg.norm(AV, axis=0)
    noise_a = np.linalg.norm(_apply_A(sys_, np.abs(vecs), absval=True), axis=0)
    noise_b = np.linalg.norm(_apply_B(sys_, np.abs(vecs), absval=True), axis=0)
    floor = EPS * (noise_a + np.abs(lam) * noise_b)
    limit = np.maximum(ENGINE_RESIDUAL_REL * anorm, NOISE_SAFETY * floor)
    if np.all(res <= limit):
        return True, ""
    i = int(np.argmax(res / np.maximum(limit, 1e-300)))
    return False, (
        f"residual {res[i]:.3e} exceeds {limit[i]:.3e} "
        f"for pair {i} of mode m={sys_.m} at N={sys_.N}"
    )


def _solve_mode(
    sys_: ModeSystem,
    count: int,
    warm: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest `count` eigenvalues of one mode system, with Ritz basis.

    Subspace iteration preconditioned by exact solves with A: the iterate
    Z = A^{-1} B X amplifies the low end, and the small projected problem
    is solved densely. Returns (values, basis) with the basis columns
    spanning the converged subspace (count + extra columns).
    """
    M = sys_.M
    p = min(M, count + SUBSPACE_EXTRA)
    r0, r1, r2 = _band_qr(sys_)
    if warm is not None and warm.shape == (M, p):
        X = warm.copy()
    else:
        i = np.arange(M)
        X = np.sin(np.pi * np.outer((i + 0.5) / M, np.arange(1, p + 1)))
    prev = None
    hits = 0
    failure = ""
    for _ in range(MAX_SUBSPACE_ITERS):
        Z = _solve_RtR(r0, r1, r2, _apply_B(sys_, X))
        Z /= np.linalg.norm(Z, axis=0)[None, :]
        KZ = _apply_K(sys_, Z)
        G = KZ.T @ KZ
        H = Z.T @ _apply_B(sys_, Z)
        G = 0.5 * (G + G.T)
        H = 0.5 * (H + H.T)
        try:
            vals, V = eigh(G, H)
        except ScipyLinAlgError as exc:
            raise NoConvergence(f"projected solve failed: {exc}") from exc
        X = Z @ V
        cur = vals[:count]
        if prev is not None and np.all(np.abs(cur - prev) <= RITZ_STABLE * np.abs(cur)):
            hits += 1
            if hits >= 2:
                ok, failure = _residuals_ok(sys_, cur, X[:, :count])
                if ok:
                    return cur.copy(), X
                hits = 1  # values are stable; keep working on the vectors
        else:
            hits = 0
        prev = cur
    raise NoConvergence(
        failure
        or f"subspace iteration stalled for mode m={sys_.m} at N={sys_.N}"
    )


def solve_gevp(
    A: np.ndarray, B: np.ndarray, count: int
) -> list[tuple[float, np.ndarray]]:
    """Lowest `count` eigenpairs of A x = lambda B x, B symmetric definite.

    Dense pipeline: Cholesky reduction of B, tridiagonalization, implicit
    shifts, back-transformation. Vectors come back B-orthonormal with a
    deterministic sign (largest component positive). Every pair must meet
    the residual contract relative to ||A x||, up to the double-precision
    evaluation floor.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise InvalidInput(f"need matching square matrices, got {A.shape} and {B.shape}")
    dim = A.shape[0]
    if not 1 <= count <= dim:
        raise InvalidInput(f"need 1 <= count <= {dim}, got {count}")
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"B is not positive definite: {exc}") from exc
    try:
        vals, vecs = eigh(A, B, subset_by_index=[0, count - 1])
    except ScipyLinAlgError as exc:
        raise NoConvergence(f"dense eigensolver failed: {exc}") from exc
    out = []
    absA, absB = np.abs(A), np.abs(B)
    for i in range(count):
        lam = float(vals[i])
        v = vecs[:, i]
        j = int(np.argmax(np.abs(v)))
        if v[j] < 0.0:
            v = -v
        res = float(np.linalg.norm(A @ v - lam * (B @ v)))
        anorm = float(np.linalg.norm(A @ v))
        floor = EPS * float(
            np.linalg.norm(absA @ np.abs(v)) + abs(lam) * np.linalg.norm(absB @ np.abs(v))
        )
        if res > max(RESIDUAL_REL * anorm, NOISE_SAFETY * floor):
            raise NoConvergence(
                f"residual {res:.3e} exceeds contract for pair {i}"
            )
        out.append((lam, v))
    return out


def _mode_sweep(
    domain: CapDomain,
    N: int,
    k: int,
    warm: dict[int, np.ndarray] | None,
) -> tuple[list[tuple[float, int, int]], dict[int, np.ndarray], int]:
    """Solve modes m = 0, 1, ... until the k smallest merged values are safe.

    Interlacing makes the lowest eigenvalue increase with m, so the sweep
    stops once mode m opens above the current k-th candidate; the
    heuristic is still verified and two extra modes are swept whenever a
    violation appears. Returns ((value, m, index) candidates sorted, the
    Ritz bases for warm-starting, mode cutoff).
    """
    n = domain.n
    cand: list[tuple[float, int, int]] = []
    bases: dict[int, np.ndarray] = {}
    m = 0
    extra = 0
    prev_lowest = -np.inf
    while True:
        count_m = max(1, ceil(k / harmonic_multiplicity(n, m)))
        sys_ = assemble_mode(domain, m, N)
        w = None
        if warm is not None and m in warm:
            w = _interp_columns(warm[m], sys_.M)
        vals, X = _solve_mode(sys_, count_m, warm=w)
        bases[m] = X
        mult = harmonic_multiplicity(n, m)
        for j, v in enumerate(vals):
            cand.extend([(float(v), m, j)] * mult)
        cand.sort(key=lambda t: t[0])
        kth = cand[k - 1][0] if len(cand) >= k else np.inf
        lowest = float(vals[0])
        if lowest < prev_lowest:
            extra = 2
        prev_lowest = lowest
        if len(cand) >= k and lowest > kth:
            if extra == 0:
                return cand, bases, m
            extra -= 1
        m += 1
        if m > 64:
            raise NoConvergence("azimuthal sweep did not close by m = 64")


def _interp_columns(X: np.ndarray, M_new: int) -> np.ndarray:
    """Linear interpolation of cell-sampled columns onto a finer cell grid."""
    M_old = X.shape[0]
    idx = (np.arange(M_new) + 0.5) * (M_old / M_new) - 0.5
    i0 = np.clip(np.floor(idx).astype(int), 0, M_old - 1)
    i1 = np.clip(i0 + 1, 0, M_old - 1)
    fr = (idx - i0)[:, None]
    return (1.0 - fr) * X[i0] + fr * X[i1]


def solve_cap(
    domain: CapDomain,
    k: int,
    N0: int = 128,
    max_refinements: int = 8,
    rel_tol: float = 1e-6,
) -> tuple[Spectrum, list[EigenPair]]:
    """Lowest k buckling eigenvalues of a clamped cap, refinement-controlled.

    The grid doubles until the k tracked values move by less than rel_tol
    relative, then the last two grids are combined by second-order
    extrapolation. meta records the final cell count, the azimuthal
    cutoff, and the observed order per eigenvalue (from the last three
    grids when available).
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    N = N0
    history: list[tuple[int, np.ndarray]] = []
    warm: dict[int, np.ndarray] | None = None
    cand: list[tuple[float, int, int]] = []
    mode_cutoff = 0
    converged = False
    for _ in range(max_refinements + 1):
        cand, bases, mode_cutoff = _mode_sweep(domain, N, k, warm)
        top = np.array([c[0] for c in cand[:k]])
        history.append((N, top))
        warm = bases
        if len(history) >= 2:
            prev, cur = history[-2][1], history[-1][1]
            change = float(np.max(np.abs(cur - prev) / np.abs(cur)))
            if change < rel_tol:
                converged = True
                break
        N *= 2
    if not converged:
        prev, cur = history[-2][1], history[-1][1]
        change = float(np.max(np.abs(cur - prev) / np.abs(cur)))
        raise NoConvergence(
            f"top-{k} values still changing by {change:.2e} (tolerance {rel_tol:.1e}) "
            f"after {max_refinements} refinements (N={history[-1][0]})"
        )

    N_final = history[-1][0]
    coarse, fine = history[-2][1], history[-1][1]
    extrapolated = (4.0 * fine - coarse) / 3.0
    orders = _observed_orders([top for _, top in history])

    # Raw per-mode values carry the merge; extrapolation is then applied
    # per sorted slot, which is stable because sorting is shared between
    # the last two grids once the sweep has settled.
    mode_lists: dict[int, list[float]] = {}
    for v, m, j in cand:
        lst = mode_lists.setdefault(m, [])
        if j == len(lst):
            lst.append(v)
    spectrum_raw = merge_modes(mode_lists, n=domain.n, k=k)
    meta: dict[str, Any] = {
        "N": N_final,
        "mode_cutoff": mode_cutoff,
        "order": orders,
        "raw": [float(v) for v in spectrum_raw.values],
    }
    spectrum = Spectrum(n=domain.n, values=tuple(float(v) for v in extrapolated), meta=meta)

    pairs = _build_pairs(domain, cand[:k], warm or {}, N_final, extrapolated)
    return spectrum, pairs


def _build_pairs(
    domain: CapDomain,
    cand: Sequence[tuple[float, int, int]],
    bases: dict[int, np.ndarray],
    N: int,
    values: np.ndarray,
) -> list[EigenPair]:
    pairs: list[EigenPair] = []
    systems: dict[int, ModeSystem] = {}
    for slot, (_, m, j) in enumerate(cand):
        sys_ = systems.get(m)
        if sys_ is None:
            sys_ = assemble_mode(domain, m, N)
            systems[m] = sys_
        y = bases[m][:, j].copy()
        By = _apply_B(sys_, y[:, None])[:, 0]
        y /= np.sqrt(float(y @ By))
        imax = int(np.argmax(np.abs(y)))
        if y[imax] < 0.0:
            y = -y
        profile = np.empty(N)
        profile[: N - 1] = y
        profile[N - 1] = y[N - 2] / 3.0
        pairs.append(
            EigenPair(
                value=float(values[slot]),
                m=m,
                theta=tuple(float(t) for t in sys_.grid),
                profile=tuple(float(f) for f in profile),
            )
        )
    return pairs


def _observed_orders(history: Sequence[np.ndarray]) -> list[float | None]:
    """Order per value from the last three doubled grids; None where undefined."""
    if len(history) < 3:
        return [None] * len(history[-1])
    d1 = np.abs(history[-2] - history[-3])
    d2 = np.abs(history[-1] - history[-2])
    return [log2(a / b) if a > 0.0 and b > 0.0 else None for a, b in zip(d1, d2)]


def convergence_table(
    domain: CapDomain,
    k: int,
    levels: int = 4,
    N0: int = 128,
) -> list[tuple[int, list[float], list[float | None]]]:
    """Raw top-k values on a fixed ladder of doubled grids, with orders.

    Returns one row per level: (N, values, observed orders vs the two
    previous levels, None where not yet defined).
    """
    if levels < 2:
        raise InvalidInput(f"need at least 2 levels, got {levels}")
    rows: list[tuple[int, list[float], list[float | None]]] = []
    history: list[np.ndarray] = []
    warm: dict[int, np.ndarray] | None = None
    N = N0
    for _ in range(levels):
        cand, bases, _ = _mode_sweep(domain, N, k, warm)
        top = np.array([c[0] for c in cand[:k]])
        warm = bases
        history.append(top)
        rows.append((N, [float(v) for v in top], _observed_orders(history)))
        N *= 2
    return rows


def coordinate_split_residuals(
    pair: EigenPair, domain: CapDomain
) -> tuple[float, float]:
    """Residuals of the two ambient-coordinate splits of the energy.

    For an axisymmetric eigenfunction u = f(theta) with unit Dirichlet
    form, weighting the gradient energy by the squared height coordinate
    plus the squared equatorial ones, or by the squared coordinate
    gradients paired with the radial direction, both recombine to the
    full energy; each sum must equal 1. Returns |sum - 1| for both
    splits. The pair must be axisymmetric and B-normalized.
    """
    if pair.m != 0:
        raise UnsupportedMode(f"axisymmetric pair required, got m={pair.m}")
    f = np.asarray(pair.profile, dtype=float)
    N = len(f)
    n, theta0 = domain.n, domain.theta0
    h = theta0 / N
    thf = np.arange(N + 1) * h
    wf = np.sin(thf) ** (n - 1) * h
    df = np.zeros(N + 1)
    df[1:N] = (f[1:] - f[:-1]) / h
    df[N] = -2.0 * f[N - 1] / h
    energy = wf * df * df
    with_height = float(np.sum(energy * np.cos(thf) ** 2))
    with_equator = float(np.sum(energy * np.sin(thf) ** 2))
    sum_a = with_height + with_equator
    sum_b = with_equator + with_height
    return abs(sum_a - 1.0), abs(sum_b - 1.0)
