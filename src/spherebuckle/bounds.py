"""Eigenvalue bound formulas and inequality checks.

All quantities live on sequences lambda_1 <= ... <= lambda_k with
lambda_i > n - 2. Two composite factors recur:

    w(lam) = lam - (n-2)/(lam - (n-2))        (weight term)
    p(lam) = lam + (n-2)^2/4                  (plus term)

From these the averaged coefficients

    S = (1/k) sum lam_i + (1/2k) sum w_i p_i
    T = (1/k) sum lam_i^2 + (1/k) sum lam_i w_i p_i

give the quadratic-root bounds lambda_{k+1} <= S + sqrt(S^2 - T),
lambda_{k+1} - lambda_k <= 2 sqrt(S^2 - T), lambda_k >= S - sqrt(S^2 - T).
build_report checks a candidate next eigenvalue against these three
bounds, against the quadratic form they were solved from and against its
Yang-type consequence: five checks.

Two relations hold by algebra on every sorted admissible spectrum, so
they have no report rows; the public functions evaluate them on request.
The Chebyshev-type product rearrangement that chains the quadratic form
into the Yang-type bound (chebyshev_check) is Chebyshev's weighted sum
inequality. The one-parameter delta family the main bound dominates
(wangxia_rhs, and dominance_gap, the compare command's sweep) has an rhs
at least the delta-free one for every delta, termwise and by AM-GM.

Every check is a short formula over a few sums of the gaps
g_i = lambda_next - lambda_i. Those sums, and S and T, are evaluated once
per (spectrum, k, lambda_next) into one record, _Sums; only the quadratic
term of the delta family depends on delta, one fsum per delta. Sums
are accumulated with error-free compensated summation (math.fsum): slacks
near saturation must not be swamped by rounding, and a correctly rounded
sum does not depend on the order its terms arrive in. A sum that
overflows is an input error, not a verdict.

At n = 2 both correction terms vanish and w = p = lam exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import exp, fsum, inf, isfinite, log, nan, sqrt
from typing import Any, Iterable, NamedTuple, Sequence

from .errors import (
    AllGapsZero,
    InvalidDelta,
    InvalidInput,
    NegativeDiscriminant,
    OrderViolation,
    SingularTerm,
    Unsorted,
)
from .spectrum import Spectrum, _first

__all__ = [
    "DEFAULT_REL_TOL",
    "MAX_DELTA_POINTS",
    "BoundTerms",
    "CheckRecord",
    "BoundReport",
    "bound_terms",
    "compute_S_T",
    "bound_next",
    "check_theorem",
    "check_yang",
    "wangxia_rhs",
    "optimal_delta",
    "dominance_gap",
    "chebyshev_check",
    "default_delta_grid",
    "build_report",
    "report_to_json",
]

# All checked quantities are O(lambda^2 k); a relative tolerance anchored at
# max(|lhs|, |rhs|, 1) behaves uniformly across scales.
DEFAULT_REL_TOL = 1e-10
# Most samples a delta grid may ask for: the grid is a list, 2e8 of them
# would take several GB.
MAX_DELTA_POINTS = 10**6


@dataclass(frozen=True)
class BoundTerms:
    """The two composite factors of one eigenvalue."""

    w: float
    p: float


def _scale(lhs: float, rhs: float) -> float:
    """max(|lhs|, |rhs|, 1): what a slack is relative to.

    Every tolerance and every relative slack the package reports uses it.
    """
    return max(abs(lhs), abs(rhs), 1.0)


class CheckRecord(NamedTuple):
    """One evaluated inequality: sides, slack = rhs - lhs, verdict."""

    inequality_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    delta: float | None = None

    @staticmethod
    def make(
        inequality_id: str,
        lhs: float,
        rhs: float,
        rel_tol: float = DEFAULT_REL_TOL,
        delta: float | None = None,
    ) -> "CheckRecord":
        slack = rhs - lhs
        if not (isfinite(lhs) and isfinite(rhs) and isfinite(slack)):
            # An overflowed side is no verdict: NaN or inf would read as a violation.
            at = "" if delta is None else f" at delta={delta!r}"
            raise InvalidInput(f"{inequality_id}{at} is not finite: lhs={lhs!r}, rhs={rhs!r}")
        tol = rel_tol * _scale(lhs, rhs)
        return CheckRecord(inequality_id, lhs, rhs, slack, slack >= -tol, delta)


@dataclass(frozen=True)
class BoundReport:
    """Everything the bound layer can say about one (spectrum, k) pair."""

    n: int
    k: int
    S: float
    T: float
    upper_next: float
    gap_upper: float
    lower_prev: float
    checks: tuple[CheckRecord, ...]
    delta_star: float | None = None
    theta0: float | None = None


def bound_terms(lam: float, n: int) -> BoundTerms:
    """w and p factors of a single eigenvalue; requires lam > n - 2."""
    c = float(n - 2)
    if lam <= c:
        raise SingularTerm(f"lambda={lam!r} must exceed n-2={c}")
    w = lam if n == 2 else lam - c / (lam - c)
    p = lam if n == 2 else lam + c * c / 4.0
    return BoundTerms(w=w, p=p)


def _total(terms: Iterable[float]) -> float:
    """Compensated sum; overflow or a non-finite total is an input error."""
    try:
        total = fsum(terms)
    except (OverflowError, ValueError) as exc:  # inf - inf, or overflow inside fsum
        raise InvalidInput(f"a bound sum is not finite: {exc}") from exc
    if not isfinite(total):
        raise InvalidInput(f"a bound sum is not finite ({total!r})")
    return total


def _coefficients(s: Spectrum, k: int) -> tuple[list[BoundTerms], float, float]:
    """Terms of the first k eigenvalues and the averaged coefficients S, T.

    Every public bound function reaches this, so it holds the guards the
    formulas rest on: n >= 2 and nondecreasing first k values.
    """
    if s.n < 2:
        raise InvalidInput(f"ambient dimension must be >= 2, got {s.n!r}")
    if not 1 <= k <= len(s.values):
        raise InvalidInput(f"need 1 <= k <= {len(s.values)}, got k={k}")
    lams = s.values[:k]
    i = _first(b < a for a, b in zip(lams, lams[1:]))
    if i is not None:
        raise Unsorted(f"first {k} values not nondecreasing: value {i + 1} ({lams[i + 1]!r})")
    t = [bound_terms(lam, s.n) for lam in lams]
    # S and T cannot overflow once their sums are finite: sum lam and sum lam^2
    # are far below sum w p ~ lam^2 and sum lam w p ~ lam^3.
    S = _total(lams) / k + _total(ti.w * ti.p for ti in t) / (2 * k)
    T = _total(l * l for l in lams) / k + _total(
        l * ti.w * ti.p for l, ti in zip(lams, t)
    ) / k
    return t, S, T


def _roots(S: float, T: float) -> tuple[float, float, float]:
    disc = _total((S * S, -T))
    if disc < 0.0:
        raise NegativeDiscriminant(S, T)
    root = sqrt(disc)
    return S + root, 2.0 * root, S - root


@dataclass(frozen=True)
class _Sums:
    """Every sum the checks are formulas over, for one (spectrum, k, lambda_next).

    The gap sums run over g_i = lambda_next - lambda_i, i <= k. The check
    methods are the formulas documented on the public functions.
    """

    n: int
    lams: tuple[float, ...]
    lambda_next: float
    gaps: tuple[float, ...]
    S: float
    T: float
    g2: float  # sum g^2
    g2w: float  # sum g^2 w
    gp: float  # sum g p
    gwp: float  # sum g w p
    thm_lhs: float  # sum g^2 (2 + (n-2)/(lam - (n-2)))
    corr: float  # sum g^2 (n-2)/(lam - (n-2))

    @property
    def thm_rhs(self) -> float:
        return 2.0 * sqrt(max(self.g2w * self.gp, 0.0))

    def thm14(self, rel_tol: float) -> CheckRecord:
        return CheckRecord.make("thm14", self.thm_lhs, self.thm_rhs, rel_tol)

    def yang15(self, rel_tol: float) -> CheckRecord:
        return CheckRecord.make("yang15", self.g2, self.gwp, rel_tol)

    def chebyshev(self, rel_tol: float) -> CheckRecord:
        lhs, rhs = self.g2w * self.gp, self.g2 * self.gwp
        return CheckRecord.make("chebyshev", lhs, rhs, rel_tol)

    def wx13(self, delta: float, rel_tol: float) -> CheckRecord:
        """The formula documented on wangxia_rhs; its quadratic sum is one fsum.

        A sum past the largest float is inf, which CheckRecord.make refuses
        under this row's name.
        """
        if not delta > 0.0:
            raise InvalidDelta(f"delta must be positive, got {delta!r}")
        c = float(self.n - 2)
        try:
            quad = fsum(
                g * g * (delta * lam + delta * delta * (lam - c) / (4.0 * (delta * lam + c)))
                for g, lam in zip(self.gaps, self.lams)
            )
        except OverflowError:
            quad = inf
        except ZeroDivisionError:  # delta lam + c underflowed to 0 at n = 2: 0/0
            quad = nan
        return CheckRecord.make("wx13", 2.0 * self.g2, quad + self.gp / delta, rel_tol, delta)

    def optimal_delta(self) -> tuple[float, float]:
        sw, sp = self.g2w, self.gp
        if sp == 0.0:
            # p > 0 always, so this means every gap vanishes and delta* is 0/0.
            raise AllGapsZero("all gaps vanish; delta* is 0/0")
        if sw <= 0.0:
            # Possible only when some w < 0, i.e. lambda barely above n-2.
            raise InvalidInput(f"delta* undefined: sum gap^2 w = {sw!r} <= 0")
        delta_star = sqrt(sp / sw)
        return delta_star, delta_star * sw + sp / delta_star


def _sums(s: Spectrum, k: int, lambda_next: float | None) -> _Sums:
    """Validate (n, k and sortedness, then terms, then lambda_next) and evaluate every sum once.

    A lambda_next of None takes the quadratic upper bound as the candidate.
    """
    t, S, T = _coefficients(s, k)
    if lambda_next is None:
        lambda_next = _roots(S, T)[0]
    lams = s.values[:k]
    if lambda_next < lams[-1]:
        raise OrderViolation(f"lambda_next={lambda_next!r} below k-th value {lams[-1]!r}")
    gaps = tuple(lambda_next - lam for lam in lams)
    gt, gl = list(zip(gaps, t)), list(zip(gaps, lams))
    c = float(s.n - 2)
    return _Sums(
        s.n, lams, lambda_next, gaps, S, T,
        g2=_total(g * g for g in gaps),
        g2w=_total(g * g * ti.w for g, ti in gt),
        gp=_total(g * ti.p for g, ti in gt),
        gwp=_total(g * ti.w * ti.p for g, ti in gt),
        thm_lhs=_total(
            g * g * (2.0 + (0.0 if s.n == 2 else c / (lam - c))) for g, lam in gl
        ),
        corr=_total(0.0 if s.n == 2 else g * g * c / (lam - c) for g, lam in gl),
    )


def compute_S_T(s: Spectrum, k: int) -> tuple[float, float]:
    """Averaged quadratic coefficients over the first k eigenvalues."""
    return _coefficients(s, k)[1:]


def bound_next(s: Spectrum, k: int) -> tuple[float, float, float]:
    """Quadratic-root bounds (upper_next, gap_upper, lower_prev).

    For k = 1 the discriminant collapses to (w p / 2)^2, so the upper bound
    is exactly lambda_1 + w p and the lower bound is exactly lambda_1.
    """
    return _roots(*compute_S_T(s, k))


def check_theorem(
    s: Spectrum, k: int, lambda_next: float, rel_tol: float = DEFAULT_REL_TOL
) -> CheckRecord:
    """Main quadratic inequality at a candidate next eigenvalue.

    lhs = sum gap_i^2 (2 + (n-2)/(lam_i - (n-2)))
    rhs = 2 sqrt(sum gap_i^2 w_i) sqrt(sum gap_i p_i)
    """
    return _sums(s, k, lambda_next).thm14(rel_tol)


def check_yang(
    s: Spectrum, k: int, lambda_next: float, rel_tol: float = DEFAULT_REL_TOL
) -> CheckRecord:
    """Yang-type consequence: sum gap_i^2 <= sum gap_i w_i p_i."""
    return _sums(s, k, lambda_next).yang15(rel_tol)


def wangxia_rhs(
    s: Spectrum,
    k: int,
    lambda_next: float,
    delta: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> CheckRecord:
    """One member of the delta family of upper-bound inequalities.

    lhs = 2 sum gap_i^2
    rhs = sum gap_i^2 (delta lam_i + delta^2 (lam_i-(n-2)) / (4(delta lam_i+n-2)))
          + (1/delta) sum gap_i p_i
    """
    return _sums(s, k, lambda_next).wx13(delta, rel_tol)


def optimal_delta(s: Spectrum, k: int, lambda_next: float) -> tuple[float, float]:
    """Closed-form minimizer of delta sum gap^2 w + (1/delta) sum gap p.

    Returns (delta_star, minimized value). By the arithmetic-geometric mean
    saturation the minimized value equals the rhs of check_theorem.
    """
    return _sums(s, k, lambda_next).optimal_delta()


def dominance_gap(
    s: Spectrum,
    k: int,
    lambda_next: float,
    delta_grid: Sequence[float],
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[tuple[float, float, float, float]]:
    """Compare each delta-family rhs against the delta-free dominating quantity.

    new_rhs = -sum gap_i^2 (n-2)/(lam_i-(n-2))
              + 2 sqrt(sum gap_i^2 w_i) sqrt(sum gap_i p_i)

    Returns (delta, wx_rhs, new_rhs, gap) per grid point; the dominance claim
    is gap >= 0 for every delta. Deltas are taken in grid order, so the first
    one that is not positive, or the first non-finite row, decides the error.
    """
    r = _sums(s, k, lambda_next)
    if not delta_grid:
        raise InvalidInput("delta grid is empty")
    new_rhs = -r.corr + r.thm_rhs
    rows = []
    for delta in delta_grid:
        wx = r.wx13(delta, rel_tol)
        gap = CheckRecord.make("dominance", new_rhs, wx.rhs, rel_tol, delta).slack
        rows.append((delta, wx.rhs, new_rhs, gap))
    return rows


def chebyshev_check(
    s: Spectrum, k: int, lambda_next: float, rel_tol: float = DEFAULT_REL_TOL
) -> CheckRecord:
    """Product rearrangement for ordered spectra.

    (sum gap^2 w)(sum gap p) <= (sum gap^2)(sum gap w p).
    """
    return _sums(s, k, lambda_next).chebyshev(rel_tol)


def default_delta_grid(
    lo: float = 1e-2, hi: float = 1e2, points: int = 50
) -> list[float]:
    """Log-spaced delta samples, at most MAX_DELTA_POINTS of them.

    The default window brackets delta* ~ 1/sqrt(lambda).
    """
    if not (0.0 < lo < hi < inf and points >= 1):
        raise InvalidInput(
            f"delta grid needs 0 < min < max < inf and points >= 1, got ({lo}, {hi}, {points})"
        )
    if points > MAX_DELTA_POINTS:
        raise InvalidInput(f"delta grid needs at most {MAX_DELTA_POINTS} points, got {points}")
    if points == 1:
        return [lo]
    la, lb = log(lo), log(hi)
    try:
        return [exp(la + (lb - la) * i / (points - 1)) for i in range(points)]
    except OverflowError as exc:  # a rounded sample past the largest float
        raise InvalidInput(f"delta grid ({lo}, {hi}, {points}) overflows") from exc


def build_report(
    s: Spectrum,
    k: int,
    lambda_next: float | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    theta0: float | None = None,
) -> BoundReport:
    """Evaluate every bound and the five delta-free checks for one (spectrum, k).

    When lambda_next is omitted the quadratic upper bound itself is used as
    the candidate, which exercises the inequalities at their saturation
    point.
    """
    r = _sums(s, k, lambda_next)
    upper, gap_up, lower = _roots(r.S, r.T)
    lam_k = r.lams[-1]
    checks = (
        r.thm14(rel_tol),
        r.yang15(rel_tol),
        CheckRecord.make("upper16", r.lambda_next, upper, rel_tol),
        CheckRecord.make("gap17", r.lambda_next - lam_k, gap_up, rel_tol),
        CheckRecord.make("lower216", lower, lam_k, rel_tol),
    )
    try:
        delta_star = r.optimal_delta()[0]
    except (AllGapsZero, InvalidInput):
        delta_star = None
    return BoundReport(
        n=s.n,
        k=k,
        S=r.S,
        T=r.T,
        upper_next=upper,
        gap_upper=gap_up,
        lower_prev=lower,
        checks=checks,
        delta_star=delta_star,
        theta0=theta0,
    )


def _bounds_doc(report: BoundReport) -> dict[str, Any]:
    """The JSON form of a report's bound values, shared with campaign reports."""
    keys = ("k", "S", "T", "upper_next", "gap_upper", "lower_prev", "delta_star")
    return {key: getattr(report, key) for key in keys}


def report_to_json(report: BoundReport) -> str:
    doc = {
        "n": report.n,
        "theta0": report.theta0,
        **_bounds_doc(report),
        "checks": [c._asdict() for c in report.checks],
    }
    return json.dumps(doc, indent=2)

