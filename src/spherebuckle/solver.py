"""Clamped buckling spectra of geodesic caps.

The fourth-order problem on a cap {theta <= theta0} in S^n separates over
boundary-sphere harmonics of degree m. Each channel reduces to a radial
generalized eigenproblem A f = Lambda B f with

    A(f, g) = int (L f)(L g) sin^{n-1}theta dtheta
    B(f, g) = int (f' g' + mu f g / sin^2 theta) sin^{n-1}theta dtheta
    L f     = f'' + (n-1) cot(theta) f' - mu f / sin^2 theta

on the clamped space f(theta0) = f'(theta0) = 0, with angular eigenvalue
mu = m(m+n-2).

`solve_cap` runs a Rayleigh-Ritz (Galerkin) solve per mode in the
clamped, pole-regular Jacobi basis

    f_j(theta) = x^m (1 - x^2)^2 P_j^{(2, m+n/2-1)}(2x^2 - 1),  x = theta/theta0,

the Zernike-type radial basis of Vasil et al. (J. Comput. Phys. 2016); for
the Galerkin treatment of fourth-order operators see Shen (SIAM J. Sci.
Comput. 15, 1994). Every f_j is clamped at the rim and is theta^m times an
even function at the pole, so no boundary treatment is needed. With
Gauss-Legendre weights w on (0, theta0), the factors K = sqrt(w
sin^{n-1}) L f and D = [sqrt(w sin^{n-1}) f'; sqrt(w sin^{n-1} mu) f / sin]
give A = K^T K and B = D^T D, which are never formed: with D = QR after
column scaling, the values are the squared singular values of K R^{-1},
and R^{-1} times its right singular vectors are B-orthonormal
coefficients. Each mode's basis size P grows by half until the top k
values settle, and to at least 2 w + 16 for the w values the mode kept;
Ritz values are upper bounds, so the finest values are reported as they
are.

The second-order FD scheme below stays as the reference engine: tests
compare the two through `_solve_cap_fd`, and it drives
`convergence_table`. Its discretization is cell-centered second-order
differences on theta_j = (j+1/2)h, h = theta0/N; the grid never touches
the pole or the rim. Pole regularity enters through a parity ghost (even reflection for
m = 0, odd for m >= 1). At the rim the value condition is imposed
strongly, by constraining the last cell to the zero linear extrapolation
through the boundary face, and the slope condition through a mirror
ghost. Imposing the pair this way leaves no spurious boundary modes: the
lowest eigenvalue is increasing in m, as interlacing predicts.

Each mode is kept in factored form, A = K^T K with K = sqrt(W) L and
B = D^T D + mass, as sparse matrices. B is tridiagonal, so its Cholesky
factor R (B = R^T R) is upper bidiagonal, and A f = Lambda B f becomes
the standard symmetric problem R A^{-1} R^T x = x / Lambda with x = R f
(the spectral transformation of Ericsson and Ruhe). ARPACK's Lanczos
(scipy's eigsh) finds its largest values without ever applying B. The
solves with A go through one LAPACK banded LU of the augmented system
[[-I, K], [K^T, 0]], whose forward error scales with cond(K), the square
root of A's condition number; direct Cholesky-of-A solves lose the high
end of the spectrum at fine grids. The values are then re-derived from
the Ritz forms (KZ)^T(KZ) and Z^T(BZ) with Z = R^{-1} X, which are
cancellation-free. Accepted pairs are residual-checked against an
evaluation-noise floor estimated from absolute-value matvecs; below that
floor a residual is not measurable in double precision.

The spectral engine needs numpy alone. scipy serves only the FD
reference: `assemble_mode`, `_A_solver`, `_B_cholesky`, `_solve_mode` and
`solve_gevp` import it when first called, and through them
`_solve_cap_fd` and `convergence_table`. Importing the package, `solve_cap`
and the solve, bounds, compare and verify commands load no scipy module.

Both engines share one azimuthal sweep, `_sweep`: modes m = 0, 1, ...
are solved for their lowest ceil(k / mult) values until a mode opens
above the k-th merged candidate. They also share one pair builder,
`_pairs`: eigenpairs are samples at the cell centers of a grid (the FD
engine's final grid, or a fixed PAIR_CELLS-cell grid for the spectral
engine), each normalized so that the grid's discrete Dirichlet form (the
FD B form) equals 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, log2
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np
from numpy.linalg import LinAlgError, qr, svd
from numpy.polynomial.legendre import leggauss

from .errors import (
    GridTooCoarse,
    InvalidInput,
    NoConvergence,
    NotPositiveDefinite,
    UnsupportedMode,
)
from .spectrum import CapDomain, EigenPair, Spectrum, harmonic_multiplicity

if TYPE_CHECKING:
    from scipy.sparse import spmatrix

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
# The Lanczos engine certifies reported values rather than vectors: a
# relative residual r bounds the Ritz value error by about r^2 times the
# spectral condition, so 1e-8 leaves value errors far below every
# tolerance the refinement logic acts on.
ENGINE_RESIDUAL_REL = 1e-8
# Safety factor over the evaluation-noise floor when a contract is
# below what double precision can resolve.
NOISE_SAFETY = 8.0
# Cells of the grid the spectral engine samples its eigenpairs on.
PAIR_CELLS = 512
# Candidates a mode's first spectral basis is sized for; later steps size
# it from the values the mode kept, so at large k no mode starts at the
# ceil(k / mult) values it could hold but does not.
FIRST_WIDTH = 16


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
    The engine works with the sparse factors, A = K^T K and
    B = D^T D + mass (tridiagonal); A and B materialize the dense reduced
    matrices.
    """

    n: int
    theta0: float
    m: int
    mu: float
    N: int
    grid: np.ndarray = field(repr=False)
    K: spmatrix = field(repr=False)
    D: spmatrix = field(repr=False)
    mass: spmatrix = field(repr=False)

    @property
    def M(self) -> int:
        return self.N - 1

    @property
    def A(self) -> np.ndarray:
        return (self.K.T @ self.K).toarray()

    @property
    def B(self) -> np.ndarray:
        return (self.D.T @ self.D + self.mass).toarray()


def assemble_mode(domain: CapDomain, m: int, N: int) -> ModeSystem:
    """Build the constrained mode system on N cells.

    The factor K = sqrt(w) L and the gradient factor D act on all N cell
    values through `fold`, which appends the dependent last cell
    y_{N-2}/3 to y. D differences across faces, with the rim face
    contributing the one-sided slope to the zero boundary value.
    """
    if N < 16:
        raise GridTooCoarse(f"need N >= 16 cells, got {N}")
    if m < 0:
        raise InvalidInput(f"azimuthal index must be >= 0, got {m}")
    from scipy import sparse

    n, theta0 = domain.n, domain.theta0
    h = theta0 / N
    th = (np.arange(N) + 0.5) * h
    mu = angular_eigenvalue(m, n)
    sin = np.sin(th)
    sig = sin ** (n - 1)
    sub, diag, sup = radial_stencil(n, theta0, m, N)
    diag[N - 1] += sup[N - 1]  # mirror ghost: clamped slope at the rim
    last = np.r_[np.zeros(N - 2), 1.0 / 3.0]
    fold = sparse.diags([np.ones(N - 1), last], [0, -1], shape=(N, N - 1))
    L = sparse.diags([sub[1:], diag, sup[:-1]], [-1, 0, 1])
    K = (sparse.diags(np.sqrt(sig * h)) @ L @ fold).tocsr()

    swf = np.sqrt(np.sin(np.arange(N + 1) * h) ** (n - 1) * h)
    rim = np.full(N, -1.0 / h)
    rim[N - 1] = -2.0 / h  # rim face: slope to the zero boundary value
    grad = sparse.diags([np.full(N, 1.0 / h), rim], [0, -1], shape=(N + 1, N))
    D = (sparse.diags(swf) @ grad @ fold).tocsr()

    mass = mu * sig * h / sin**2
    mass_c = mass[: N - 1].copy()
    mass_c[N - 2] += mass[N - 1] / 9.0  # fold^T diag(mass) fold is diagonal

    return ModeSystem(
        n=n,
        theta0=theta0,
        m=m,
        mu=mu,
        N=N,
        grid=th,
        K=K,
        D=D,
        mass=sparse.diags(mass_c),
    )


def _apply_A(sys_: ModeSystem, X: np.ndarray, absval: bool = False) -> np.ndarray:
    K = abs(sys_.K) if absval else sys_.K
    return K.T @ (K @ X)


def _apply_B(sys_: ModeSystem, X: np.ndarray, absval: bool = False) -> np.ndarray:
    D = abs(sys_.D) if absval else sys_.D
    return D.T @ (D @ X) + sys_.mass @ X


def _A_solver(sys_: ModeSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Solver for A X = Y by one banded LU of [[-I, K], [K^T, 0]].

    Eliminating r = K X from the augmented system leaves K^T K X = Y, and
    partial-pivoted LU of it has forward error of order eps cond(K) =
    eps sqrt(cond(A)), as a QR of K does. Interleaving the unknowns as
    r_0, x_0, r_1, x_1, ... makes the matrix banded with kl = ku = 3.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    N, M = sys_.N, sys_.M
    K = sys_.K.tocoo()
    r, x = 2 * K.row, 2 * K.col + 1  # positions of r_i and x_j when interleaved
    ab = np.zeros((10, N + M))  # LAPACK band storage, 3 fill-in rows on top
    ab[6, 0::2] = -1.0
    ab[6 + r - x, x] = K.data
    ab[6 + x - r, r] = K.data
    lu, piv, info = dgbtrf(ab, 3, 3, overwrite_ab=1)
    if info != 0:
        raise NoConvergence(f"banded LU failed (info={info}) for mode m={sys_.m}, N={N}")

    def solve(Y: np.ndarray) -> np.ndarray:
        rhs = np.zeros((N + M, Y.size // M))
        rhs[1::2] = Y.reshape(M, -1)
        out, _ = dgbtrs(lu, 3, 3, rhs, piv, overwrite_b=1)
        return out[1::2].reshape(Y.shape)

    return solve


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


def _B_cholesky(sys_: ModeSystem) -> np.ndarray:
    """Upper bidiagonal R with B = R^T R, in LAPACK band storage.

    R[1] is the diagonal of R and R[0, 1:] its superdiagonal.
    """
    from scipy.linalg.lapack import dpbtrf

    B = sys_.D.T @ sys_.D + sys_.mass
    ab = np.zeros((2, sys_.M))
    ab[0, 1:] = B.diagonal(1)
    ab[1] = B.diagonal()
    R, info = dpbtrf(ab, overwrite_ab=1)
    if info != 0:
        raise NoConvergence(
            f"Cholesky of B failed (info={info}) for mode m={sys_.m}, N={sys_.N}"
        )
    return R


def _solve_mode(sys_: ModeSystem, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest `count` eigenvalues of one mode system, with Ritz vectors.

    Lanczos (ARPACK) finds the largest eigenvalues 1/Lambda of the
    symmetric operator R A^{-1} R^T, where B = R^T R, with exact solves by
    A; at most M - 1 pairs can be requested. Its vectors X map back to
    Z = R^{-1} X. The values are then re-derived cancellation-free from the
    Ritz forms (KZ)^T(KZ) and Z^T(BZ), and every pair must meet the
    residual contract.
    """
    from scipy.linalg import eigh
    from scipy.linalg.lapack import dtbtrs
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    M = sys_.M
    R = _B_cholesky(sys_)
    diag, sup = R[1], R[0, 1:]
    solve = _A_solver(sys_)

    def matvec(x: np.ndarray) -> np.ndarray:
        y = diag * x
        y[1:] += sup * x[:-1]  # R^T x
        y = solve(y)
        out = diag * y
        out[:-1] += sup * y[1:]  # R y
        return out

    op = LinearOperator((M, M), matvec=matvec, dtype=float)
    v0 = np.sin(np.pi * (np.arange(M) + 0.5) / M)  # fixed start: deterministic runs
    try:
        _, X = eigsh(op, min(count, M - 1), which="LA", v0=v0)
    except ArpackError as exc:
        raise NoConvergence(
            f"Lanczos failed for mode m={sys_.m} at N={sys_.N}: {exc}"
        ) from exc
    Z, _ = dtbtrs(R, X)  # R has a positive diagonal, so it is nonsingular
    KZ = sys_.K @ Z
    G = KZ.T @ KZ
    H = Z.T @ _apply_B(sys_, Z)
    try:
        vals, V = eigh(0.5 * (G + G.T), 0.5 * (H + H.T))
    except LinAlgError as exc:
        raise NoConvergence(f"projected solve failed: {exc}") from exc
    X = Z @ V
    ok, failure = _residuals_ok(sys_, vals, X)
    if not ok:
        raise NoConvergence(failure)
    return vals, X


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
    from scipy.linalg import eigh

    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise InvalidInput(f"need matching square matrices, got {A.shape} and {B.shape}")
    dim = A.shape[0]
    if not 1 <= count <= dim:
        raise InvalidInput(f"need 1 <= count <= {dim}, got {count}")
    try:
        np.linalg.cholesky(B)
    except LinAlgError as exc:
        raise NotPositiveDefinite(f"B is not positive definite: {exc}") from exc
    try:
        vals, vecs = eigh(A, B, subset_by_index=[0, count - 1])
    except LinAlgError as exc:
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


def _closing_mode(lowest: Sequence[float], kth: float) -> int | None:
    """First mode whose lowest value closes the sweep against the k-th candidate.

    Interlacing makes the lowest value increase with m, so no mode past
    one that opens above kth can reach the top k; the heuristic is still
    verified, and after any decrease two more such modes must follow.
    None while no swept mode closes.
    """
    extra, prev = 0, -np.inf
    for m, low in enumerate(lowest):
        if low < prev:
            extra = 2
        prev = low
        if low > kth:
            if extra == 0:
                return m
            extra -= 1
    return None


def _sweep(
    domain: CapDomain,
    k: int,
    solve: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
) -> tuple[list[tuple[float, int, int]], dict[int, np.ndarray], int]:
    """Solve modes m = 0, 1, ... until the k smallest merged values are safe.

    solve(m, cap) returns mode m's lowest values, at most cap = ceil(k /
    mult), ascending, with one column per value. Each value enters the
    candidates mult times, and the sweep stops once a mode opens above the
    current k-th candidate (`_closing_mode`). Returns (the k smallest
    (value, m, index) candidates sorted, the columns of each mode they
    use, mode cutoff).
    """
    cand: list[tuple[float, int, int]] = []
    cols: dict[int, np.ndarray] = {}
    lowest: list[float] = []
    while True:
        kth = cand[k - 1][0] if len(cand) >= k else np.inf
        cutoff = _closing_mode(lowest, kth)
        if cutoff is not None:
            return cand, {m: cols[m] for m in sorted({m for _, m, _ in cand})}, cutoff
        m = len(lowest)
        if m > 64:
            raise NoConvergence("azimuthal sweep did not close by m = 64")
        mult = harmonic_multiplicity(domain.n, m)
        vals, cols[m] = solve(m, ceil(k / mult))
        lowest.append(float(vals[0]))
        for j, v in enumerate(vals):
            cand.extend([(float(v), m, j)] * min(mult, k))
        cand.sort()
        del cand[k:]


def _fd_solver(
    domain: CapDomain, N: int
) -> Callable[[int, int], tuple[np.ndarray, np.ndarray]]:
    """`_sweep`'s mode solver on N cells; columns carry the dependent rim cell."""

    def solve(m: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
        vals, X = _solve_mode(assemble_mode(domain, m, N), cap)
        return vals, np.vstack([X, X[-1:] / 3.0])

    return solve


def solve_cap(
    domain: CapDomain,
    k: int,
    N0: int = 128,
    max_refinements: int = 8,
    rel_tol: float = 1e-6,
) -> tuple[Spectrum, list[EigenPair]]:
    """Lowest k buckling eigenvalues of a clamped cap, refinement-controlled.

    Each mode's Jacobi basis grows by half per step until the k tracked
    values move by less than rel_tol relative, within max_refinements
    steps; the finest step's Ritz values are reported. A mode new to the
    sweep starts at P = 2 min(ceil(k / mult), FIRST_WIDTH) + 16 functions,
    and a mode that kept w values grows to at least 2 w + 16.

    meta: "N" is the largest basis of the final step, "mode_cutoff" the
    first azimuthal mode that closed the sweep, "order" None per value
    (there is no grid order), "raw" the reported values. N0 is accepted
    for compatibility and ignored: it was the initial grid of the FD
    scheme, which `_solve_cap_fd` keeps as the reference engine.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if max_refinements < 1:
        raise InvalidInput(f"max_refinements must be >= 1, got {max_refinements}")
    return _solve_cap_spectral(domain, k, max_refinements, rel_tol)


def _rel_change(prev: np.ndarray, cur: np.ndarray) -> float:
    return float(np.max(np.abs(cur - prev) / np.abs(cur)))


def _solve_cap_fd(
    domain: CapDomain,
    k: int,
    N0: int = 128,
    max_refinements: int = 8,
    rel_tol: float = 1e-6,
) -> tuple[Spectrum, list[EigenPair]]:
    """The FD reference engine: solve_cap on the second-order scheme.

    The grid doubles from N0 cells until the k tracked values move by
    less than rel_tol relative, then the last two grids are combined by
    second-order extrapolation. meta: "N" is the final cell count,
    "order" the observed order per value (from the last three grids when
    available), "raw" the finest grid's values.
    """
    N = N0
    history: list[tuple[int, np.ndarray]] = []
    converged = False
    for _ in range(max_refinements + 1):
        cand, cols, mode_cutoff = _sweep(domain, k, _fd_solver(domain, N))
        top = np.array([c[0] for c in cand])
        history.append((N, top))
        if len(history) >= 2:
            change = _rel_change(history[-2][1], history[-1][1])
            if change < rel_tol:
                converged = True
                break
        N *= 2
    if not converged:
        change = _rel_change(history[-2][1], history[-1][1])
        raise NoConvergence(
            f"top-{k} values still changing by {change:.2e} (tolerance {rel_tol:.1e}) "
            f"after {max_refinements} refinements (N={history[-1][0]})"
        )

    N_final = history[-1][0]
    coarse, fine = history[-2][1], history[-1][1]
    extrapolated = (4.0 * fine - coarse) / 3.0
    orders = _observed_orders([top for _, top in history])

    # Extrapolation is applied per sorted slot, which is stable because
    # sorting is shared between the last two grids once the sweep has
    # settled.
    meta: dict[str, Any] = {
        "N": N_final,
        "mode_cutoff": mode_cutoff,
        "order": orders,
        "raw": [float(v) for v in fine],
    }
    spectrum = Spectrum(n=domain.n, values=tuple(float(v) for v in extrapolated), meta=meta)

    return spectrum, _pairs(domain, cand, cols, extrapolated)


def _jacobi_basis(
    P: int, m: int, n: int, x: np.ndarray, theta0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f_j, f_j' and f_j'' (theta-derivatives) at x = theta/theta0, one row per j < P.

    f_j = g(x) P_j(s) with g = x^m (1 - x^2)^2 and s = 2x^2 - 1, where
    P_j = P_j^{(2, m+n/2-1)}. The three-term recurrence is differentiated
    along to carry dP_j/ds and d^2P_j/ds^2.
    """
    a, b = 2.0, m + 0.5 * n - 1.0
    s = 2.0 * x * x - 1.0
    p = np.zeros((P, 3, x.size))  # P_j, dP_j/ds, d^2P_j/ds^2
    p[0, 0] = 1.0
    if P > 1:
        p[1, 0] = (a + 1.0) + 0.5 * (a + b + 2.0) * (s - 1.0)
        p[1, 1] = 0.5 * (a + b + 2.0)
    for j in range(1, P - 1):
        c = 2.0 * j + a + b
        d = 2.0 * (j + 1) * (j + a + b + 1.0) * c
        lead = (c + 1.0) * (c + 2.0) * c / d
        t = lead * s + (c + 1.0) * (a * a - b * b) / d
        p[j + 1] = t * p[j] - (2.0 * (j + a) * (j + b) * (c + 2.0) / d) * p[j - 1]
        p[j + 1, 1] += lead * p[j, 0]
        p[j + 1, 2] += 2.0 * lead * p[j, 1]
    u = 1.0 - x * x
    g = x**m * u * u
    g1 = m * x ** (m - 1) * u * u - 4.0 * x ** (m + 1) * u
    g2 = m * (m - 1) * x ** (m - 2) * u * u - 4.0 * (2 * m + 1) * x**m * u + 8.0 * x ** (m + 2)
    f = g * p[:, 0]
    fx = g1 * p[:, 0] + 4.0 * x * g * p[:, 1]
    fxx = g2 * p[:, 0] + 8.0 * x * g1 * p[:, 1] + g * (16.0 * x * x * p[:, 2] + 4.0 * p[:, 1])
    return f, fx / theta0, fxx / theta0**2


def _galerkin_mode(domain: CapDomain, m: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """All P Ritz values of mode m, ascending, with B-orthonormal coefficients.

    K and D are the factors of A = K^T K and B = D^T D under Gauss-Legendre
    quadrature on 2P + 60 nodes. With D = QR after column scaling,
    A c = Lambda B c becomes the SVD of K R^{-1}: Lambda = sigma^2 and
    c = R^{-1} v. R^{-1} is formed once, explicitly: for an upper
    triangular R, `inv` is back substitution against the identity, and
    the two products with it cost less than a general `solve` would.
    """
    n, theta0 = domain.n, domain.theta0
    x, w = _gauss_legendre(2 * P + 60)
    w = theta0 * w
    mu = angular_eigenvalue(m, n)
    th = theta0 * x
    sin = np.sin(th)
    f, f1, f2 = _jacobi_basis(P, m, n, x, theta0)
    sw = np.sqrt(w * sin ** (n - 1))
    K = (sw * (f2 + (n - 1) * np.cos(th) / sin * f1 - mu * f / sin**2)).T
    D = np.vstack([(sw * f1).T, (sw * np.sqrt(mu) / sin * f).T])
    scale = 1.0 / np.linalg.norm(D, axis=0)
    try:
        Rinv = np.linalg.inv(qr(D * scale, mode="r"))
        _, sig, Vt = svd((K * scale) @ Rinv, full_matrices=False)
        C = scale[:, None] * (Rinv @ Vt[::-1].T)
    except (LinAlgError, ValueError) as exc:
        raise NoConvergence(f"Galerkin solve failed for mode m={m} at P={P}: {exc}") from exc
    vals = sig[::-1] ** 2
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(C))):
        raise NoConvergence(f"Galerkin solve of mode m={m} at P={P} is not finite")
    return vals, C


@lru_cache(maxsize=64)
def _gauss_legendre(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Q Gauss-Legendre nodes on (0, 1) and their weights, read-only.

    Cached: every cap solve at the same k asks for the same few sizes,
    and leggauss costs O(Q^2) per call.
    """
    t, w = leggauss(Q)
    x, w = 0.5 * (t + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _basis_size(cap: int, step: int) -> int:
    """Basis size of a mode new to the sweep at ladder step `step`.

    It starts at 2 min(cap, FIRST_WIDTH) + 16 and grows by half (rounded
    up) per step.
    """
    P = 2 * min(cap, FIRST_WIDTH) + 16
    for _ in range(step):
        P = (3 * P + 1) // 2
    return P


def _solve_cap_spectral(
    domain: CapDomain, k: int, max_refinements: int, rel_tol: float
) -> tuple[Spectrum, list[EigenPair]]:
    prev = None
    sizes: dict[int, int] = {}
    for step in range(max_refinements + 1):
        used: dict[int, int] = {}  # basis size of every mode this step solves

        def solve(m: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
            used[m] = sizes.get(m) or _basis_size(cap, step)
            vals, C = _galerkin_mode(domain, m, used[m])
            return vals[:cap], C[:, :cap]

        cand, coeffs, mode_cutoff = _sweep(domain, k, solve)
        P = max(used.values())
        top = np.array([c[0] for c in cand])
        if prev is not None:
            change = _rel_change(prev, top)
            if change < rel_tol:
                break
        prev = top
        # Each mode grows by half, and to at least 2 w + 16 functions for
        # the w values it kept (cand is sorted, so a mode's last index is
        # its largest): a step that agrees with the one before holds each
        # kept value at that margin.
        width = {m: j + 1 for _, m, j in cand}
        sizes = {m: max((3 * p + 1) // 2, 2 * width.get(m, 0) + 16) for m, p in used.items()}
    else:
        raise NoConvergence(
            f"top-{k} values still changing by {change:.2e} (tolerance {rel_tol:.1e}) "
            f"after {max_refinements} refinements (P={P})"
        )
    values = [float(v) for v in top]
    meta: dict[str, Any] = {
        "N": P,
        "mode_cutoff": mode_cutoff,
        "order": [None] * k,
        "raw": values,
    }
    spectrum = Spectrum(n=domain.n, values=tuple(values), meta=meta)
    x = (np.arange(PAIR_CELLS) + 0.5) / PAIR_CELLS
    samples = {
        m: _jacobi_basis(len(C), m, domain.n, x, domain.theta0)[0].T @ C
        for m, C in coeffs.items()
    }
    return spectrum, _pairs(domain, cand, samples, values)


def _pairs(
    domain: CapDomain,
    cand: Sequence[tuple[float, int, int]],
    samples: dict[int, np.ndarray],
    values: Sequence[float],
) -> list[EigenPair]:
    """Eigenpairs from cell-center samples on an N-cell grid, one column per index.

    Candidate (value, m, j) is column j of samples[m], reported with the
    value in the same slot of `values`. Each profile is normalized so the
    grid's discrete Dirichlet form (the FD engine's B form: face
    gradients, the rim face sloping to zero, and the mu f^2 / sin^2 mass
    at the cells) equals 1, with its largest entry positive.
    """
    n, theta0 = domain.n, domain.theta0
    N = len(next(iter(samples.values())))
    theta = theta0 * ((np.arange(N) + 0.5) / N)
    mass = np.sin(theta) ** (n - 3) * (theta0 / N)  # times mu: sin^{n-1} h / sin^2
    grid = tuple(theta.tolist())
    pairs: list[EigenPair] = []
    for value, (_, m, j) in zip(values, cand):
        f = samples[m][:, j]
        form = np.sum(_face_energy(f, n, theta0)[1])
        form += angular_eigenvalue(m, n) * np.sum(mass * f * f)
        f = f / np.sqrt(float(form))
        if f[int(np.argmax(np.abs(f)))] < 0.0:
            f = -f
        pairs.append(EigenPair(value=float(value), m=m, theta=grid, profile=tuple(f.tolist())))
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
    """Raw top-k FD values on a fixed ladder of doubled grids, with orders.

    Returns one row per level: (N, values, observed orders vs the two
    previous levels, None where not yet defined).
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if levels < 2:
        raise InvalidInput(f"need at least 2 levels, got {levels}")
    rows: list[tuple[int, list[float], list[float | None]]] = []
    history: list[np.ndarray] = []
    N = N0
    for _ in range(levels):
        cand, _, _ = _sweep(domain, k, _fd_solver(domain, N))
        top = np.array([c[0] for c in cand])
        history.append(top)
        rows.append((N, [float(v) for v in top], _observed_orders(history)))
        N *= 2
    return rows


def _face_energy(f: np.ndarray, n: int, theta0: float) -> tuple[np.ndarray, np.ndarray]:
    """Faces theta_i = i h of f's cell grid, and the gradient energy on each.

    The energy is sin^{n-1}(theta_i) h (df_i)^2, with df the difference
    quotient across the face; the rim face takes the one-sided slope to
    the zero boundary value.
    """
    N = len(f)
    h = theta0 / N
    thf = np.arange(N + 1) * h
    wf = np.sin(thf) ** (n - 1) * h
    df = np.zeros(N + 1)
    df[1:N] = (f[1:] - f[:-1]) / h
    df[N] = -2.0 * f[N - 1] / h
    return thf, wf * df * df


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
    thf, energy = _face_energy(np.asarray(pair.profile, dtype=float), domain.n, domain.theta0)
    with_height = float(np.sum(energy * np.cos(thf) ** 2))
    with_equator = float(np.sum(energy * np.sin(thf) ** 2))
    sum_a = with_height + with_equator
    sum_b = with_equator + with_height
    return abs(sum_a - 1.0), abs(sum_b - 1.0)
