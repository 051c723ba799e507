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
(`assemble_mode`) give A = K^T K and B = D^T D, which are never formed.
With R_K and R_D the R factors of K and of the column-scaled D, the
values are the squared singular values of the P x P upper triangular
T = R_K R_D^{-1}, which has those of K R_D^{-1}; R_D^{-1} times T's
right singular vectors are B-orthonormal coefficients. A mode new to
the sweep starts with a block of 2 w_1 + 16 functions inside a basis
half as large again, for w_1 = min(ceil(k / mult), max(8, W)) values,
W = ceil(k^(1/n) / 2): by Weyl's law the values a mode keeps grow like
k^(1/n). Each mode's basis size P grows by half until the top k values
settle, and to at least 2 w + 16 for the w values the mode kept. The
basis is hierarchical and the factors are triangular, so T's leading
P' x P' block is the T of the leading P' functions, P' being the size
of the step before: each step is checked against its own leading
blocks, and assembles each mode once.
The ladder computes values alone (`_galerkin_mode` at width 0);
singular vectors are computed only when the pairs are read. Ritz
values are upper bounds in exact arithmetic only; at high n the basis is
near-dependent, and round-off can put a value below the exact one (at
(50, 2.5), lambda_1 by 1.05e-9). The finest values are reported as they
are. `_ladder` yields these steps, each with its change from its blocks;
`solve_cap` stops on them and `convergence_table` tabulates them. The
solver needs numpy alone.

Each ladder step builds one Gauss-Legendre rule (`_gauss_legendre`), on
Q = 2 P_step nodes for the step's largest basis P_step, so every mode
has at least 2P nodes. The rule comes from Newton's method on
the three-term Legendre recurrence, started at Tricomi's asymptotic
nodes (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013). That costs
O(Q^2) per rule, where numpy's `leggauss`, an eigenvalue solve, costs
O(Q^3). Against a 40-digit rule up to Q = 571 its nodes are within 2 ulp
of max(x, 1 - x) and its weights within 1e-11 relative. All modes of a
step share that rule and differ in the basis only through the Jacobi
parameter b = m + n/2 - 1, so `_jacobi_rows` runs one three-term
recurrence for a batch of consecutive modes, on (3, M, Q) rows per j, and
each mode takes its leading P rows; they are bit-identical to a
recurrence for that mode alone. A batch's rows are capped at BATCH_BYTES
(`_load_batch`), and a mode too large to share a batch runs alone.
`_jacobi_basis` forms each mode's x^m factors from its rows.

The azimuthal sweep, `_sweep`, runs one Galerkin solve per mode m = 0,
1, ... for its lowest ceil(k / mult) values until a mode opens above the
k-th merged candidate. The pair builder, `_pairs`, solves each mode the
candidates use once more, at the final step's basis and rule, for the w
coefficient columns its candidates use, samples them at the centers of
a fixed PAIR_CELLS-cell grid, normalizes each distinct (m, j) profile so
that the grid's discrete Dirichlet form equals 1, and hands the one
resulting pair to all mult copies of its value. `solve_cap` returns the
pairs as a read-only sequence (`_LazyPairs`) that runs `_pairs` when it
is first read, so a caller that never reads them, such as the campaign,
never computes a singular vector.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from math import ceil
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.linalg import LinAlgError, qr, svd

from .errors import InvalidInput, NoConvergence, UnsupportedMode
from .spectrum import CapDomain, EigenPair, Spectrum, harmonic_multiplicity

__all__ = [
    "angular_eigenvalue",
    "assemble_mode",
    "solve_cap",
    "convergence_table",
    "coordinate_split_residuals",
]

# Cells of the grid eigenpairs are sampled on.
PAIR_CELLS = 512
# solve_cap's default refinement budget, in ladder steps. convergence_table
# tabulates at most the first step's block row and the MAX_REFINEMENTS steps
# that budget can reach: each step grows the largest basis by half, so a
# deeper table only asks for more memory.
MAX_REFINEMENTS = 8
# solve_cap's default tolerance on the relative change of the top k values.
REL_TOL = 1e-6
# Fewest values a mode new to the sweep is first sized for, unless it can
# keep fewer (`_first_width`). Past it the width follows Weyl's law; later
# steps size each mode from the values it kept. A floor of 4 moves
# lambda_k at (2, 3.1, 30) by 1e-9, of 6 by 4e-11.
FIRST_WIDTH = 8
# Bytes of one batch of basis rows (`_load_batch`): the sweep runs the basis
# recurrence once for as many consecutive modes of a step as fit, 24 P Q
# bytes each, and a mode that cannot share it with the next runs alone.
# Batches of every mode up to m = 64 took a solve's peak RSS from 33.5 to
# 58.8 MiB at (2, 2.0, 2000) and from 43.3 to 218 MiB at (2, 3.14, 10).
BATCH_BYTES = 2**20
# Merged (value, m, index) candidates, sorted, one entry per multiplicity copy.
_Cand = list[tuple[float, int, int]]
# Basis rows of the batch of modes the sweep is visiting, (P, 3, Q) views
# keyed by (n, Q, m), read by `assemble_mode`. The rows depend on (n, Q, m)
# alone, so any entry is right for any caller; the sweep empties it when
# it returns.
_ROWS: dict[tuple[int, int, int], np.ndarray] = {}


def angular_eigenvalue(m: int, n: int) -> float:
    """Eigenvalue mu = m(m+n-2) of the degree-m harmonic channel."""
    if m < 0 or n < 2:
        raise InvalidInput(f"need m >= 0 and n >= 2, got m={m}, n={n}")
    return float(m * (m + n - 2))


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
    domain: CapDomain, k: int, sizes: dict[int, tuple[int, int]], step: int
) -> tuple[dict[int, tuple[int, int]], int, _Cand, list[float], int]:
    """Solve modes m = 0, 1, ... until the k smallest merged values are safe.

    Mode m is solved (`_galerkin_mode`) at sizes[m] = (P, block), or, if
    the sweep has not reached it before, at P = `_basis_size(w, step + 1)`
    with block `_basis_size(w, step)`, w = min(cap, `_first_width(k, n)`).
    Every mode is assembled on the step's one rule of Q = 2 P_step nodes,
    P_step being the largest of the sizes and of a new mode's, mode 0's at
    cap = k. It keeps its lowest cap = ceil(k / mult) values, and as many
    of its block's values. Each value enters the candidates mult times,
    and the sweep stops once a mode opens above the current k-th candidate
    (`_closing_mode`). The sizes of modes not yet visited are known, so a
    mode the current batch of basis rows does not hold loads the next
    batch (`_load_batch`), from it on. Returns ((P, block) of every mode
    solved, Q, the k smallest (value, m, index) candidates sorted, the k
    smallest block values sorted, mode cutoff).
    """
    n, first = domain.n, _first_width(k, domain.n)
    Q = 2 * max([_basis_size(min(k, first), step + 1), *(P for P, _ in sizes.values())])

    def size(m: int) -> tuple[int, int]:
        width = min(ceil(k / harmonic_multiplicity(n, m)), first)
        return sizes.get(m) or (_basis_size(width, step + 1), _basis_size(width, step))

    used: dict[int, tuple[int, int]] = {}
    cand: _Cand = []
    nested: list[float] = []
    lowest: list[float] = []
    try:
        while True:
            kth = cand[k - 1][0] if len(cand) >= k else np.inf
            cutoff = _closing_mode(lowest, kth)
            if cutoff is not None:
                return used, Q, cand, nested, cutoff
            m = len(lowest)
            if m > 64:
                raise NoConvergence("azimuthal sweep did not close by m = 64")
            mult = harmonic_multiplicity(n, m)
            cap = ceil(k / mult)
            copies = min(mult, k)
            used[m] = size(m)
            if (n, Q, m) not in _ROWS:
                _load_batch(n, Q, m, lambda j: size(j)[0])
            vals, _, inner = _galerkin_mode(domain, m, *used[m], Q, width=0)
            lowest.append(float(vals[0]))
            for j, v in enumerate(vals[:cap].tolist()):
                cand.extend([(v, m, j)] * copies)
            for v in inner[:cap].tolist():
                nested.extend([v] * copies)
            cand.sort()
            del cand[k:]
            nested.sort()
            del nested[k:]
    finally:
        _ROWS.clear()


def solve_cap(
    domain: CapDomain,
    k: int,
    N0: int = 128,
    max_refinements: int = MAX_REFINEMENTS,
    rel_tol: float = REL_TOL,
) -> tuple[Spectrum, Sequence[EigenPair]]:
    """Lowest k buckling eigenvalues of a clamped cap, refinement-controlled.

    Each mode's Jacobi basis grows by half per step until the k tracked
    values differ by less than rel_tol relative from those of the leading
    blocks, the sizes of the step before, and every mode that kept w
    values has at least 2 w + 16 functions, within max_refinements steps;
    the finest step's Ritz values are reported. A mode new to the sweep
    is checked at P' = 2 w_1 + 16 functions inside a basis half as large
    again, w_1 = min(ceil(k / mult), max(FIRST_WIDTH, ceil(k^(1/n) / 2)))
    (`_first_width`), and a mode that kept w values grows to at least
    2 w + 16.

    The pairs, one per value in the order of the spectrum, are a read-only
    sequence built on first read: `len`, indexing or iteration solves
    each mode they use once more, with singular vectors, and samples it;
    a caller that never reads them pays nothing for them.

    meta: "N" is the largest basis of the final step, "mode_cutoff" the
    first azimuthal mode that closed the sweep. N0 is ignored; it stays in
    the signature only because the benchmark tracer (perfbench/tracer.py)
    binds it.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if max_refinements < 1:
        raise InvalidInput(f"max_refinements must be >= 1, got {max_refinements}")
    for step, s in enumerate(_ladder(domain, k), 1):
        if s.margin and s.change.max() < rel_tol:
            break
        if step == max_refinements:
            short = "" if s.margin else ", a kept value short of its 2 w + 16 basis margin"
            raise NoConvergence(
                f"top-{k} values still changing by {s.change.max():.2e} (tolerance "
                f"{rel_tol:.1e}){short} after {max_refinements} refinements (P={s.P})"
            )
    meta = {"N": s.P, "mode_cutoff": s.mode_cutoff}
    spectrum = Spectrum(n=domain.n, values=tuple(s.top.tolist()), meta=meta)
    return spectrum, _LazyPairs(domain, s.cand, s.bases)


def _jacobi_rows(P: int, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """P_j^{(2, b)}(s), dP_j/ds and d^2P_j/ds^2 for j < P, one (3, M, Q) row per j.

    One three-term recurrence, differentiated along, serves the M Jacobi
    parameters b at once; each parameter's rows are bit-identical to
    those of a recurrence run for it alone.
    """
    a, b = 2.0, b[:, None]
    p = np.zeros((P, 3, b.size, s.size))  # P_j, dP_j/ds, d^2P_j/ds^2
    p[0, 0] = 1.0
    if P > 1:
        p[1, 0] = (a + 1.0) + 0.5 * (a + b + 2.0) * (s - 1.0)
        p[1, 1] = 0.5 * (a + b + 2.0)
    j = np.arange(1.0, P - 1)[:, None, None]
    c = 2.0 * j + a + b
    d = 2.0 * (j + 1.0) * (j + a + b + 1.0) * c
    lead = (c + 1.0) * (c + 2.0) * c / d
    back = 2.0 * (j + a) * (j + b) * (c + 2.0) / d
    shift = (c + 1.0) * (a * a - b * b) / d
    carry = np.stack([lead, 2.0 * lead], axis=1)  # into dP/ds, d^2P/ds^2
    # Row j's factor lead s + shift is formed in the loop: held for every j
    # it would add a third to the rows' memory.
    t, tmp, dtmp = np.empty(p.shape[2:]), np.empty(p.shape[1:]), np.empty((2, *p.shape[2:]))
    for i in range(P - 2):
        q = p[i + 2]
        np.multiply(lead[i], s, out=t)
        t += shift[i]
        np.multiply(t, p[i + 1], out=q)
        np.multiply(back[i], p[i], out=tmp)
        q -= tmp
        np.multiply(carry[i], p[i + 1, :2], out=dtmp)
        q[1:] += dtmp
    return p


def _jacobi_basis(
    P: int, m: int, n: int, x: np.ndarray, theta0: float, p: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """f_j and its first two theta-derivatives at x = theta/theta0, one row per j < P.

    f_j = g(x) P_j(s) with g = x^m (1 - x^2)^2 and s = 2x^2 - 1, where
    P_j = P_j^{(2, m+n/2-1)}. p, if given, holds mode m's (P', 3, Q) rows
    at x from `_jacobi_rows`; unless it holds at least P of them, the
    recurrence runs for mode m alone. g and its derivatives are formed
    per mode, with m a scalar exponent.
    """
    if p is None or len(p) < P:
        p = _jacobi_rows(P, np.array([m + 0.5 * n - 1.0]), 2.0 * x * x - 1.0)[:, :, 0]
    p = p[:P]
    u = 1.0 - x * x
    g = x**m * u * u
    f = g * p[:, 0]
    g1 = m * x ** (m - 1) * u * u - 4.0 * x ** (m + 1) * u
    g2 = m * (m - 1) * x ** (m - 2) * u * u - 4.0 * (2 * m + 1) * x**m * u + 8.0 * x ** (m + 2)
    fx = g1 * p[:, 0] + 4.0 * x * g * p[:, 1]
    fxx = g2 * p[:, 0] + 8.0 * x * g1 * p[:, 1] + g * (16.0 * x * x * p[:, 2] + 4.0 * p[:, 1])
    return f, fx / theta0, fxx / theta0**2


def _load_batch(n: int, Q: int, m0: int, size: Callable[[int], int]) -> None:
    """Run the basis recurrence once for modes m0, m0 + 1, ... on the Q-node rule.

    The batch takes consecutive modes while its rows, 24 P M Q bytes for
    M modes and the largest of their sizes P = size(m), stay within
    BATCH_BYTES. Its read-only rows replace those in _ROWS; a mode that
    fits no batch with the next leaves _ROWS empty and runs alone in
    `assemble_mode`.
    """
    _ROWS.clear()
    P, M = size(m0), 1
    while 24 * max(P, size(m0 + M)) * (M + 1) * Q <= BATCH_BYTES:
        P, M = max(P, size(m0 + M)), M + 1
    if M == 1:
        return
    x = _gauss_legendre(Q)[0]
    try:
        # At n in the thousands the rows overflow; `_galerkin_mode` reports it.
        with np.errstate(all="ignore"):
            rows = _jacobi_rows(P, np.arange(m0, m0 + M) + 0.5 * n - 1.0, 2.0 * x * x - 1.0)
    except MemoryError as exc:
        raise NoConvergence(
            f"basis rows of modes m={m0}..{m0 + M - 1} at P={P} on Q={Q} nodes: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    rows.setflags(write=False)
    _ROWS.update({(n, Q, m0 + i): rows[:, :, i] for i in range(M)})


def assemble_mode(
    domain: CapDomain, m: int, P: int, Q: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Galerkin factors (K, D) of mode m in its first P basis functions.

    Under Gauss-Legendre quadrature on Q nodes, 2P unless given, A = K^T K
    and B = D^T D, with one row per node (D stacks the gradient rows over
    the mu f^2 / sin^2 rows) and one column per basis function. The ladder
    passes its step's Q, at least 2P, and the basis rows come from the
    sweep's batch in _ROWS when it holds mode m, else from a recurrence
    for mode m alone.
    """
    n, theta0 = domain.n, domain.theta0
    Q = 2 * P if Q is None else Q
    x, w = _gauss_legendre(Q)
    w = theta0 * w
    mu = angular_eigenvalue(m, n)
    th = theta0 * x
    sin = np.sin(th)
    f, f1, f2 = _jacobi_basis(P, m, n, x, theta0, _ROWS.get((n, Q, m)))
    sw = np.sqrt(w * sin ** (n - 1))
    K = (sw * (f2 + (n - 1) * np.cos(th) / sin * f1 - mu * f / sin**2)).T
    D = np.vstack([(sw * f1).T, (sw * np.sqrt(mu) / sin * f).T])
    return K, D


def _galerkin_mode(
    domain: CapDomain, m: int, P: int, block: int, Q: int | None = None, width: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mode m's P Ritz values, ascending, B-orthonormal coefficients of its
    lowest `width` (default all P; 0 for values alone), and the Ritz values
    of its leading `block` basis functions, on `assemble_mode`'s Q nodes.

    With R_K and R_D the R factors of K and of the column-scaled D,
    K = Q_K R_K, so T = R_K R_D^{-1}, upper triangular and P x P, has the
    singular values and right singular vectors of K R_D^{-1}, the reduced
    matrix of A c = Lambda B c: Lambda = sigma^2 and c = R_D^{-1} v.
    R_D^{-1} is formed once, explicitly: for an upper triangular R, `inv`
    is back substitution against the identity. The basis is hierarchical,
    so the leading block columns of K and D have R_K[:block, :block] and
    R_D[:block, :block] as their R factors; the inverse and the product of
    upper triangular matrices keep leading blocks, so T[:block, :block] is
    the smaller basis's T, and its singular values give that basis's
    values with no second assembly. With width 0 no singular vector is
    computed. A basis, an assembly or a factorization that does not fit
    in memory raises NoConvergence, as a failed one does.
    """
    Q = 2 * P if Q is None else Q
    try:
        # An extreme cap (theta0 near 0, n in the thousands) under- or
        # overflows here; the checks below report that as NoConvergence,
        # with no warnings.
        with np.errstate(all="ignore"):
            K, D = assemble_mode(domain, m, P, Q)
            scale = 1.0 / np.linalg.norm(D, axis=0)
            K *= scale
            D *= scale
        # Each factor is dropped once used: at P ~ 70 each is 0.1-0.25 MiB,
        # and the solve's peak memory is what is alive at once.
        Rinv = np.linalg.inv(qr(D, mode="r"))
        del D
        T = qr(K, mode="r") @ Rinv
        del K
        nested = svd(T[:block, :block], compute_uv=False)[::-1] ** 2
        if width == 0:
            sig, C = svd(T, compute_uv=False), np.empty((P, 0))
        else:
            sig, Vt = svd(T)[1:]
            C = scale[:, None] * (Rinv @ Vt[::-1][:width].T)
    except (LinAlgError, ValueError, MemoryError) as exc:
        raise NoConvergence(
            f"Galerkin solve failed for mode m={m} at P={P} on Q={Q} nodes: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    vals = sig[::-1] ** 2
    if not all(np.all(np.isfinite(a)) for a in (vals, C, nested)):
        raise NoConvergence(f"Galerkin solve of mode m={m} at P={P} is not finite")
    return vals, C, nested


@lru_cache(maxsize=64)
def _gauss_legendre(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Q Gauss-Legendre nodes on (0, 1) and their weights, read-only.

    Newton's method on the three-term Legendre recurrence, in O(Q^2)
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013): from Tricomi's
    asymptotic nodes, three passes over the ceil(Q/2) nodes t >= 0 of the
    rule on (-1, 1), mirrored onto the rest. The weight is 2 / ((1 - t^2)
    P_Q'(t)^2), halved on (0, 1), with P_Q' from the last pass carried to
    its Newton update by one Taylor step (P_Q'' from Legendre's equation).
    Cached: every cap solve at the same k asks for the same few sizes.
    """
    h = (Q + 1) // 2
    th = np.pi * (4.0 * np.arange(1, h + 1) - 1.0) / (4.0 * Q + 2.0)
    t = 1.0 - (Q - 1) / (8.0 * Q**3) - (39.0 - 28.0 / np.sin(th) ** 2) / (384.0 * Q**4)
    t *= np.cos(th)
    for _ in range(3):
        p0, p1 = np.ones(h), t  # P_{Q-1}, P_Q once the recurrence ends
        for j in range(2, Q + 1):
            p0, p1 = p1, t * p1 * ((2 * j - 1) / j) - p0 * ((j - 1) / j)
        u = (1.0 - t) * (1.0 + t)
        dp = Q * (p0 - t * p1) / u
        step = p1 / dp
        t, prev = t - step, t
    dp -= step * (2.0 * prev * dp - Q * (Q + 1) * p1) / u
    w = 1.0 / ((1.0 - t) * (1.0 + t) * dp * dp)
    x = np.concatenate([0.5 - 0.5 * t, 0.5 + 0.5 * t[: Q - h][::-1]])
    w = np.concatenate([w, w[: Q - h][::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _first_width(k: int, n: int) -> int:
    """Most values a mode new to the sweep is first sized for: max(FIRST_WIDTH, W).

    W is the least integer with (2W)^n >= k, ceil(k^(1/n) / 2) in exact
    integer arithmetic. By Weyl's law the values below the k-th of a cap
    on S^n grow like k^(1/n) per mode (0.6-0.9 sqrt(k) in mode 0 at n = 2).
    """
    w = FIRST_WIDTH
    while (2 * w) ** n < k:
        w += 1
    return w


def _basis_size(width: int, step: int) -> int:
    """Leading-block size of a mode new to the sweep at ladder step `step`.

    The mode is solved at `_basis_size(width, step + 1)` functions, width
    being min(ceil(k / mult), `_first_width(k, n)`). The size starts at
    2 width + 16 and grows by half (rounded up) per step.
    """
    P = 2 * width + 16
    for _ in range(step):
        P = (3 * P + 1) // 2
    return P


class _Step(NamedTuple):
    """One step of the basis ladder."""

    P: int  # the largest basis size it used
    top: np.ndarray  # the k smallest values
    block: int  # the largest leading block it used
    nested: np.ndarray  # the k smallest values of the leading blocks
    change: np.ndarray  # |top - nested| / |top|
    margin: bool  # every mode has 2 w + 16 functions for the w values it kept
    cand: _Cand  # the k smallest (value, m, index) candidates
    bases: dict[int, tuple[int, int, int]]  # (P, Q, columns used) of each mode they use
    mode_cutoff: int


def _ladder(domain: CapDomain, k: int) -> Iterator[_Step]:
    """The steps of the basis ladder, without end.

    Each step sweeps the modes (`_sweep`) once. A mode is assembled once
    per step, at P, and its values are checked against those of its
    leading block: the P it had at the step before, or, for a mode new to
    the sweep, `_basis_size(cap, step)`. After a step each mode grows by
    half, and to at least 2 w + 16 functions for the w values it kept
    (cand is sorted, so a mode's last index is its largest): a step that
    agrees with its blocks and keeps that margin holds each kept value at
    it. The k smallest block values are padded with inf where the blocks
    hold fewer.
    """
    sizes: dict[int, tuple[int, int]] = {}
    for step in count():
        used, Q, cand, nested, mode_cutoff = _sweep(domain, k, sizes, step)
        top = np.array([c[0] for c in cand])
        inner = np.array(nested + [np.inf] * (k - len(nested)))
        width = {m: j + 1 for _, m, j in cand}
        yield _Step(
            P=max(P for P, _ in used.values()),
            top=top,
            block=max(block for _, block in used.values()),
            nested=inner,
            change=np.abs(top - inner) / np.abs(top),
            margin=all(2 * w + 16 <= used[m][0] for m, w in width.items()),
            cand=cand,
            bases={m: (used[m][0], Q, width[m]) for m in sorted(width)},
            mode_cutoff=mode_cutoff,
        )
        sizes = {
            m: (max((3 * P + 1) // 2, 2 * width.get(m, 0) + 16), P) for m, (P, _) in used.items()
        }


def _pairs(
    domain: CapDomain, cand: _Cand, bases: dict[int, tuple[int, int, int]]
) -> list[EigenPair]:
    """One eigenpair per candidate, sampled at the cell centers of a PAIR_CELLS-cell grid.

    Each mode m the candidates use is solved once more at its (P, Q, w) =
    bases[m], for the w coefficient columns its candidates use
    (`_galerkin_mode` at width w), and those columns are sampled once.
    Candidate (value, m, j) is column j of mode m's samples, normalized so
    the grid's discrete Dirichlet form (face gradients, the rim face
    sloping to zero, and the mu f^2 / sin^2 mass at the cells) equals 1,
    with its largest entry positive. The pair is built once per distinct
    (m, j); the mult copies of its value share it.
    """
    n, theta0 = domain.n, domain.theta0
    x = (np.arange(PAIR_CELLS) + 0.5) / PAIR_CELLS
    theta = theta0 * x
    mass = np.sin(theta) ** (n - 3) * (theta0 / PAIR_CELLS)  # times mu: sin^{n-1} h / sin^2
    grid = tuple(theta.tolist())
    samples = {
        m: _jacobi_basis(P, m, n, x, theta0)[0].T @ _galerkin_mode(domain, m, P, 0, Q, w)[1]
        for m, (P, Q, w) in bases.items()
    }
    built: dict[tuple[int, int], EigenPair] = {}
    for value, m, j in cand:
        if (m, j) in built:
            continue
        f = samples[m][:, j]
        form = np.sum(_face_energy(f, n, theta0)[1])
        form += angular_eigenvalue(m, n) * np.sum(mass * f * f)
        f = f / np.sqrt(float(form))
        if f[int(np.argmax(np.abs(f)))] < 0.0:
            f = -f
        built[m, j] = EigenPair(value=value, m=m, theta=grid, profile=tuple(f.tolist()))
    return [built[m, j] for _, m, j in cand]


class _LazyPairs(Sequence[EigenPair]):
    """`_pairs(domain, cand, bases)`, run when the sequence is first read."""

    def __init__(
        self, domain: CapDomain, cand: _Cand, bases: dict[int, tuple[int, int, int]]
    ) -> None:
        self._args: tuple | None = (domain, cand, bases)
        self._pairs: list[EigenPair] = []

    def _read(self) -> list[EigenPair]:
        if self._args is not None:
            self._pairs = _pairs(*self._args)
            self._args = None
        return self._pairs

    def __len__(self) -> int:
        return len(self._read())

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self) -> Iterator[EigenPair]:
        return iter(self._read())


def convergence_table(
    domain: CapDomain,
    k: int,
    levels: int = 4,
) -> list[tuple[int, list[float], list[float | None]]]:
    """The top-k values at the first `levels` rungs of solve_cap's ladder.

    Returns one row per rung: (largest basis size P, values, relative
    change of each value from the leading blocks, None on the first row).
    Row 0 holds the first step's leading-block values; each later row
    holds one step, whose blocks have the sizes of the row before. levels
    runs from 2 to MAX_REFINEMENTS + 1.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if levels < 2:
        raise InvalidInput(f"need at least 2 levels, got {levels}")
    if levels > MAX_REFINEMENTS + 1:
        raise InvalidInput(f"need at most {MAX_REFINEMENTS + 1} levels, got {levels}")
    steps = list(islice(_ladder(domain, k), levels - 1))
    rows = [(steps[0].block, steps[0].nested.tolist(), [None] * k)]
    rows += [(s.P, s.top.tolist(), s.change.tolist()) for s in steps]
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
