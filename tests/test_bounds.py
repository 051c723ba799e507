"""Bound formulas: frozen hand values, error paths, and algebraic properties."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spherebuckle.bounds import (
    BoundTerms,
    CheckRecord,
    bound_next,
    bound_terms,
    build_report,
    chebyshev_check,
    check_theorem,
    check_yang,
    compute_S_T,
    default_delta_grid,
    dominance_gap,
    optimal_delta,
    wangxia_rhs,
)
from spherebuckle.errors import (
    AllGapsZero,
    InvalidDelta,
    InvalidInput,
    NegativeDiscriminant,
    OrderViolation,
    SingularTerm,
    Unsorted,
)
from spherebuckle.spectrum import Spectrum


def spec(n, *vals):
    return Spectrum(n, tuple(float(v) for v in vals))


# Random admissible spectra: sorted draws comfortably above n-2.
def spectra(min_k=1, max_k=6):
    return st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.floats(n, n + 100.0), min_size=min_k, max_size=max_k
        ).map(lambda v: Spectrum(n, tuple(sorted(v))))
    )


# Admissible sequences over the dimensions and scales the paper covers:
# k + 1 values lambda_i = (n - 2) + scale * u_i, scale from 1e-8 to 1e5.
@st.composite
def _admissible(draw):
    n = draw(st.sampled_from((2, 3, 4, 5, 10, 20, 50)))
    k = draw(st.integers(1, 12))
    scale = 10.0 ** draw(st.floats(-8.0, 5.0))
    u = draw(st.lists(st.floats(1e-3, 1.0), min_size=k + 1, max_size=k + 1))
    vals = sorted(n - 2 + scale * x for x in u)
    assume(vals[0] > n - 2)
    return Spectrum(n, tuple(vals)), k


# (s, k, lambda_next) with lambda_next >= lambda_k: a spectra() draw with
# lambda_next = lambda_k + bump, or an _admissible() draw with
# lambda_next = lambda_k (1 + stretch).
def sorted_with_next():
    near = st.tuples(spectra(min_k=2), st.floats(0.0, 50.0)).map(
        lambda sb: (sb[0], len(sb[0].values) - 1, sb[0].values[-1] + sb[1])
    )
    scaled = st.tuples(_admissible(), st.floats(0.0, 10.0)).map(
        lambda a: (a[0][0], a[0][1], a[0][0].values[a[0][1]] * (1.0 + a[1]))
    )
    return st.one_of(near, scaled)


class TestBoundTerms:
    @pytest.mark.parametrize(
        "n,lam,w,p",
        [(2, 2.0, 2.0, 2.0), (3, 3.0, 2.5, 3.25), (4, 4.0, 3.0, 5.0)],
    )
    def test_hand_values(self, n, lam, w, p):
        t = bound_terms(lam, n)
        assert t == BoundTerms(w, p)

    def test_singular(self):
        with pytest.raises(SingularTerm):
            bound_terms(1.0, 3)
        with pytest.raises(SingularTerm):
            bound_terms(2.0, 4)

    @given(st.floats(0.001, 200.0))
    def test_n2_reduction_exact(self, lam):
        t = bound_terms(lam, 2)
        assert t.w == lam and t.p == lam


class TestComputeST:
    def test_n2_singleton(self):
        assert compute_S_T(spec(2, 2), 1) == (4.0, 12.0)

    def test_n3_singleton(self):
        S, T = compute_S_T(spec(3, 3), 1)
        assert S == 7.0625 and T == 33.375

    def test_identical_pair_averages(self):
        assert compute_S_T(spec(2, 2, 2), 2) == (4.0, 12.0)

    def test_bad_k(self):
        with pytest.raises(InvalidInput):
            compute_S_T(spec(2, 2), 0)
        with pytest.raises(InvalidInput):
            compute_S_T(spec(2, 2), 2)


# Every public bound function reaches the same guards, whatever it computes.
GUARDED = {
    "build_report": lambda s, k: build_report(s, k, lambda_next=50.0),
    "check_theorem": lambda s, k: check_theorem(s, k, 50.0),
    "bound_next": bound_next,
    "dominance_gap": lambda s, k: dominance_gap(s, k, 50.0, [1.0]),
}


class TestGuards:
    """Spectra that load_spectrum rejects are rejected by the library too."""

    @pytest.mark.parametrize("name", GUARDED)
    def test_unsorted_first_k(self, name):
        with pytest.raises(Unsorted):
            GUARDED[name](spec(2, 30, 10, 40, 50), 3)

    @pytest.mark.parametrize("name", GUARDED)
    def test_dimension_below_two(self, name):
        with pytest.raises(InvalidInput, match="dimension"):
            GUARDED[name](spec(1, 5, 7), 1)

    def test_unsorted_error_names_one_value(self):
        # 100 000 decreasing values: the message names the first value out
        # of order, not the whole list.
        s = Spectrum(2, tuple(1e5 - i for i in range(100_000)))
        with pytest.raises(Unsorted) as caught:
            check_theorem(s, 100_000, 2e5)
        assert "value 1 (99999.0)" in str(caught.value)
        assert len(str(caught.value)) < 1000


class TestBoundNext:
    def test_n2_singleton(self):
        assert bound_next(spec(2, 2), 1) == (6.0, 4.0, 2.0)

    def test_n3_singleton(self):
        up, gap, lo = bound_next(spec(3, 3), 1)
        assert up == 11.125 and gap == 8.125 and lo == 3.0

    def test_identical_triple_reduces_to_k1(self):
        up, gap, lo = bound_next(spec(2, 5, 5, 5), 3)
        assert math.isclose(up, 30.0, rel_tol=1e-14)
        assert math.isclose(lo, 5.0, rel_tol=1e-14)

    def test_negative_discriminant_reported(self):
        # Tiny first eigenvalue with a huge spread drives T above S^2.
        with pytest.raises(NegativeDiscriminant) as exc:
            bound_next(spec(2, 1e-6, 4.0), 2)
        assert exc.value.S**2 < exc.value.T

    @given(spectra())
    @settings(max_examples=80)
    def test_k1_closed_form_identity(self, s):
        up, gap, lo = bound_next(s, 1)
        t = bound_terms(s.values[0], s.n)
        expect = s.values[0] + t.w * t.p
        assert math.isclose(up, expect, rel_tol=1e-12)
        assert math.isclose(lo, s.values[0], rel_tol=1e-12)
        assert math.isclose(gap, t.w * t.p, rel_tol=1e-12)


class TestCheckTheorem:
    def test_saturation_equality_n2(self):
        r = check_theorem(spec(2, 2), 1, 6.0)
        assert r.lhs == 32.0 and r.rhs == 32.0 and r.holds

    def test_n3_hand_value(self):
        r = check_theorem(spec(3, 3), 1, 5.0)
        assert r.lhs == 10.0
        assert math.isclose(r.rhs, 2.0 * math.sqrt(65.0), rel_tol=1e-15)
        assert r.holds

    def test_zero_gaps(self):
        r = check_theorem(spec(4, 4, 4), 2, 4.0)
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds

    def test_order_violation(self):
        with pytest.raises(OrderViolation):
            check_theorem(spec(2, 2, 3), 2, 2.5)


class TestCheckYang:
    def test_saturation_equality_n2(self):
        r = check_yang(spec(2, 2), 1, 6.0)
        assert r.lhs == 16.0 and r.rhs == 16.0 and r.holds

    def test_n3_hand_value(self):
        r = check_yang(spec(3, 3), 1, 5.0)
        assert r.lhs == 4.0 and r.rhs == 16.25 and r.holds

    def test_zero_gap(self):
        r = check_yang(spec(4, 4), 1, 4.0)
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds

    @given(sorted_with_next())
    @settings(max_examples=300, deadline=None)
    def test_implied_by_theorem(self, inputs):
        # Whenever the quadratic inequality holds, the Yang-type one follows,
        # through the rearrangement TestChebyshev documents.
        s, k, lam_next = inputs
        thm = check_theorem(s, k, lam_next)
        yang = check_yang(s, k, lam_next)
        if thm.slack >= 0:
            assert yang.slack >= -1e-10 * max(abs(yang.lhs), abs(yang.rhs), 1.0)

    @given(spectra())
    @settings(max_examples=80)
    def test_holds_at_quadratic_root(self, s):
        # The upper bound is the root of the Yang-type quadratic, so the
        # inequality saturates (within roundoff) at lambda_next = upper.
        k = len(s.values)
        up, _, _ = bound_next(s, k)
        r = check_yang(s, k, up)
        assert r.slack >= -1e-12 * max(abs(r.lhs), abs(r.rhs), 1.0)


class TestWangXia:
    def test_delta_one(self):
        r = wangxia_rhs(spec(2, 2), 1, 6.0, 1.0)
        assert r.lhs == 32.0 and r.rhs == 44.0 and r.holds

    def test_delta_half(self):
        r = wangxia_rhs(spec(2, 2), 1, 6.0, 0.5)
        assert r.lhs == 32.0 and r.rhs == 34.0 and r.holds

    def test_zero_gap_any_delta(self):
        for d in (0.3, 1.0, 7.0):
            r = wangxia_rhs(spec(3, 3), 1, 3.0, d)
            assert r.lhs == 0.0 and r.rhs == 0.0

    def test_invalid_delta(self):
        with pytest.raises(InvalidDelta):
            wangxia_rhs(spec(2, 2), 1, 6.0, 0.0)
        with pytest.raises(InvalidDelta):
            wangxia_rhs(spec(2, 2), 1, 6.0, -1.0)


class TestOptimalDelta:
    def test_n2_hand_value(self):
        d, rhs = optimal_delta(spec(2, 2), 1, 6.0)
        assert d == 0.5 and rhs == 32.0

    def test_n3_hand_value(self):
        d, rhs = optimal_delta(spec(3, 3), 1, 5.0)
        assert math.isclose(d, math.sqrt(0.65), rel_tol=1e-15)
        assert math.isclose(rhs, 2.0 * math.sqrt(65.0), rel_tol=1e-14)

    def test_all_gaps_zero(self):
        with pytest.raises(AllGapsZero):
            optimal_delta(spec(2, 2), 1, 2.0)

    @given(spectra(min_k=2), st.floats(0.1, 50.0))
    @settings(max_examples=100)
    def test_matches_theorem_rhs(self, s, bump):
        k = len(s.values) - 1
        lam_next = s.values[k] + bump
        _, minimized = optimal_delta(s, k, lam_next)
        thm = check_theorem(s, k, lam_next)
        assert math.isclose(minimized, thm.rhs, rel_tol=1e-12)

    @given(spectra(min_k=2), st.floats(0.1, 50.0))
    @settings(max_examples=60)
    def test_no_sampled_delta_beats_closed_form(self, s, bump):
        k = len(s.values) - 1
        lam_next = s.values[k] + bump
        _, minimized = optimal_delta(s, k, lam_next)
        gaps = [lam_next - v for v in s.values[:k]]
        terms = [bound_terms(v, s.n) for v in s.values[:k]]
        sw = sum(g * g * t.w for g, t in zip(gaps, terms))
        sp = sum(g * t.p for g, t in zip(gaps, terms))
        for d in default_delta_grid():
            sampled = d * sw + sp / d
            assert sampled >= minimized * (1.0 - 1e-10)


class TestDominance:
    def test_hand_values(self):
        out = dominance_gap(spec(2, 2), 1, 6.0, [1.0, 0.5])
        (d1, wx1, new1, g1), (d2, wx2, new2, g2) = out
        assert (wx1, new1, g1) == (44.0, 32.0, 12.0)
        assert (wx2, new2, g2) == (34.0, 32.0, 2.0)

    def test_zero_gap(self):
        out = dominance_gap(spec(3, 3), 1, 3.0, [0.7])
        assert out[0][3] == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInput):
            dominance_gap(spec(2, 2), 1, 6.0, [])

    @pytest.mark.parametrize(
        "lo, hi, points",
        [(1e-2, math.inf, 5), (1e-2, math.nan, 5), (1e-300, 1.7976931348623157e308, 7)],
    )
    def test_delta_grid_needs_a_finite_window(self, lo, hi, points):
        # An infinite or NaN end would give NaN deltas, which the bound
        # functions report only as "delta must be positive, got nan"; at the
        # top of the float range a rounded sample overflows.
        with pytest.raises(InvalidInput, match="delta grid"):
            default_delta_grid(lo, hi, points)

    @given(spectra(min_k=2), st.floats(0.1, 50.0))
    @settings(max_examples=60)
    def test_never_negative(self, s, bump):
        k = len(s.values) - 1
        lam_next = s.values[k] + bump
        for d, wx, new, gap in dominance_gap(s, k, lam_next, default_delta_grid()):
            assert gap >= -1e-10 * max(abs(wx), abs(new), 1.0)


class TestDominanceByAlgebra:
    """Why the delta family has no report rows: it holds whatever the spectrum.

    Termwise, delta lam + delta^2 (lam - c) / (4 (delta lam + c)) >= delta w
    - c / (lam - c) with c = n - 2, and by AM-GM delta sum g^2 w + sum g p /
    delta >= 2 sqrt(sum g^2 w sum g p). So the delta-free rhs never exceeds
    the family's, and wx13's lhs, thm14's lhs less the correction sum,
    holds wherever thm14 does.
    """

    GRID = default_delta_grid(1e-4, 1e4, 200)

    @given(_admissible())
    @settings(max_examples=300, deadline=None)
    def test_family_holds_by_algebra(self, inputs):
        s, k = inputs
        ln = s.values[k]
        for d, wx, new, gap in dominance_gap(s, k, ln, self.GRID):
            assert gap >= -1e-10 * max(abs(wx), abs(new), 1.0), (d, wx, new)
        if check_theorem(s, k, ln).holds:
            assert all(wangxia_rhs(s, k, ln, d).holds for d in self.GRID)


def _record(iid, lhs, rhs, rel_tol, delta):
    slack = rhs - lhs
    holds = slack >= -rel_tol * max(abs(lhs), abs(rhs), 1.0)
    return CheckRecord(iid, lhs, rhs, slack, holds, delta)


def _scalar_family(s, k, lam_next, grid, rel_tol):
    """(wx13, dominance) per delta, from the formulas documented on
    wangxia_rhs and dominance_gap, written out here: the oracle for both."""
    n, lams = s.n, s.values[:k]
    c = float(n - 2)
    gaps = [lam_next - lam for lam in lams]
    terms = [bound_terms(lam, n) for lam in lams]
    g2 = math.fsum(g * g for g in gaps)
    g2w = math.fsum(g * g * t.w for g, t in zip(gaps, terms))
    gp = math.fsum(g * t.p for g, t in zip(gaps, terms))
    corr = math.fsum(0.0 if n == 2 else g * g * c / (lam - c) for g, lam in zip(gaps, lams))
    new_rhs = -corr + 2.0 * math.sqrt(max(g2w * gp, 0.0))
    out = []
    for d in grid:
        quad = math.fsum(
            g * g * (d * lam + d * d * (lam - c) / (4.0 * (d * lam + c)))
            for g, lam in zip(gaps, lams)
        )
        rhs = quad + gp / d
        out.append(_record("wx13", 2.0 * g2, rhs, rel_tol, d))
        out.append(_record("dominance", new_rhs, rhs, rel_tol, d))
    return out


@st.composite
def _family_inputs(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, 12))
    vals = draw(st.lists(st.floats(n - 2 + 1e-3, n + 500.0), min_size=k + 1, max_size=k + 1))
    grid = draw(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=20))
    rel_tol = draw(st.sampled_from((1e-10, 1e-8, 1e-3)))
    return Spectrum(n, tuple(sorted(vals))), k, grid, rel_tol


class TestArrayFamily:
    """The delta family's public functions must give the written-out formula's records."""

    @given(_family_inputs())
    @settings(max_examples=200, deadline=None)
    def test_records_equal_scalar_formula(self, inputs):
        s, k, grid, rel_tol = inputs
        ln = s.values[k]
        want = _scalar_family(s, k, ln, grid, rel_tol)
        singles = [wangxia_rhs(s, k, ln, d, rel_tol) for d in grid]
        assert singles == want[::2]
        # Bit for bit: repr tells -0.0 from 0.0, which == does not.
        assert repr(singles) == repr(want[::2])
        gaps = dominance_gap(s, k, ln, grid, rel_tol)
        assert repr(gaps) == repr([(d.delta, d.rhs, d.lhs, d.slack) for d in want[1::2]])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_bad_delta_mid_grid(self, bad):
        s, grid = spec(3, 3.5, 7.0, 12.0), [0.5, 1.0, bad, 2.0]
        with pytest.raises(InvalidDelta, match=f"delta must be positive, got {bad!r}$"):
            dominance_gap(s, 2, 12.0, grid)
        with pytest.raises(InvalidDelta, match=f"delta must be positive, got {bad!r}$"):
            wangxia_rhs(s, 2, 12.0, bad)

    def test_first_failing_delta_decides_the_error(self):
        # In grid order: a non-finite row before a bad delta names the row,
        # a bad delta before a non-finite row is InvalidDelta.
        s, big = spec(2, 4.0, 9.0), 1.7976931348623157e308
        with pytest.raises(InvalidInput, match="wx13 at delta=1.79"):
            dominance_gap(s, 1, 9.0, [1.0, big, -1.0])
        with pytest.raises(InvalidDelta, match="got -1.0"):
            dominance_gap(s, 1, 9.0, [1.0, -1.0, big])

    def test_family_sum_past_largest_float_is_invalid_input(self):
        # Both terms are finite, but their exact sum is past the largest
        # float, so math.fsum raises OverflowError: that row is non-finite
        # input (exit 4 on the command line), not a traceback.
        s = spec(2, 4.0, 9.0)
        with pytest.raises(InvalidInput, match="wx13 at delta=10.0 is not finite"):
            dominance_gap(s, 2, 1.27e153, [10.0])


class TestChebyshev:
    """Why chebyshev has no report rows: it holds on every sorted admissible spectrum.

    Take weights nu_i = g_i p_i >= 0, a_i = g_i / p_i and b_i = w_i, with
    c = n - 2. As lambda_i grows, g_i = lambda_next - lambda_i falls and
    p_i > 0 grows, so a does not increase; b does, as w' = 1 + c / (lam - c)^2
    > 0. Chebyshev's weighted sum inequality for oppositely ordered
    sequences (Hardy, Littlewood & Polya, Inequalities, 2.17) gives
    (sum nu)(sum nu a b) <= (sum nu a)(sum nu b), which is
    (sum g p)(sum g^2 w) <= (sum g^2)(sum g w p). It is the step that takes
    thm14 to yang15: as 2 + c / (lam - c) >= 2, thm14 gives
    (sum g^2)^2 <= (sum g^2 w)(sum g p) <= (sum g^2)(sum g w p).
    """

    def test_k1_equality(self):
        r = chebyshev_check(spec(3, 3), 1, 5.0)
        assert math.isclose(r.lhs, r.rhs, rel_tol=1e-15)

    def test_two_term_hand_value(self):
        r = chebyshev_check(spec(3, 3, 4), 2, 5.0)
        assert math.isclose(r.lhs, (41.0 / 3.0) * 10.75, rel_tol=1e-14)
        assert math.isclose(r.rhs, 5.0 * (16.25 + (11.0 / 3.0) * 4.25), rel_tol=1e-14)
        assert r.holds

    def test_zero_gap(self):
        r = chebyshev_check(spec(2, 2, 2), 2, 2.0)
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds

    @given(sorted_with_next())
    @settings(max_examples=300, deadline=None)
    def test_always_holds_for_sorted(self, inputs):
        r = chebyshev_check(*inputs)
        assert r.slack >= -1e-10 * max(abs(r.lhs), abs(r.rhs), 1.0)


class TestNTwoDegeneration:
    @given(st.lists(st.floats(0.5, 100.0), min_size=2, max_size=6), st.floats(0.0, 20.0))
    @settings(max_examples=100)
    def test_formulas_collapse(self, vals, bump):
        # At n=2 the simplified forms use w = p = lambda everywhere.
        vals = sorted(vals)
        s = Spectrum(2, tuple(vals))
        k = len(vals) - 1
        lam_next = vals[k] + bump
        gaps = [lam_next - v for v in vals[:k]]
        thm = check_theorem(s, k, lam_next)
        lhs_simple = 2.0 * sum(g * g for g in gaps)
        rhs_simple = 2.0 * math.sqrt(
            sum(g * g * v for g, v in zip(gaps, vals))
        ) * math.sqrt(sum(g * v for g, v in zip(gaps, vals)))
        assert abs(thm.lhs - lhs_simple) <= 1e-14 * max(abs(thm.lhs), 1.0)
        assert abs(thm.rhs - rhs_simple) <= 1e-14 * max(abs(thm.rhs), 1.0)
        yang = check_yang(s, k, lam_next)
        yang_rhs_simple = sum(g * v * v for g, v in zip(gaps, vals))
        assert abs(yang.rhs - yang_rhs_simple) <= 1e-14 * max(abs(yang.rhs), 1.0)


class TestMonotonicityEmpirical:
    def test_report_upper_next_perturbations(self):
        # Not asserted as an invariant, only measured: bumping one
        # eigenvalue upward should not pull the upper bound down.
        import random

        rng = random.Random(1234)
        violations = 0
        trials = 300
        for _ in range(trials):
            n = rng.choice([2, 3, 4])
            k = rng.randint(1, 5)
            vals = sorted(rng.uniform(n, n + 50) for _ in range(k))
            s = Spectrum(n, tuple(vals))
            base, _, _ = bound_next(s, k)
            i = rng.randrange(k)
            bumped = list(vals)
            hi = bumped[i + 1] if i + 1 < k else bumped[i] + 10.0
            bumped[i] = rng.uniform(bumped[i], hi)
            try:
                new, _, _ = bound_next(Spectrum(n, tuple(sorted(bumped))), k)
            except NegativeDiscriminant:
                continue
            if new < base * (1.0 - 1e-9):
                violations += 1
        print(f"upper_next monotonicity violations: {violations}/{trials}")


class TestRecordsAndReport:
    def test_checkrecord_tolerance(self):
        r = CheckRecord.make("yang15", 1.0 + 5e-11, 1.0)
        assert r.holds and r.slack < 0
        r2 = CheckRecord.make("yang15", 1.0 + 1e-9, 1.0)
        assert not r2.holds

    @pytest.mark.parametrize(
        "lhs,rhs", [(math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0), (math.inf, math.inf)]
    )
    def test_checkrecord_rejects_non_finite_sides(self, lhs, rhs):
        # An overflowed side is no verdict: as a record it would read as a
        # violation (NaN slack, or an infinite one).
        with pytest.raises(InvalidInput, match="wx13 at delta=2.0 is not finite"):
            CheckRecord.make("wx13", lhs, rhs, delta=2.0)

    def test_delta_near_largest_float_raises(self):
        # delta^2 overflows the wx13 rhs; neither wx13 nor dominance may
        # come back as a NaN row.
        s, big = spec(2, 4.0, 9.0), 1.7976931348623157e308
        with pytest.raises(InvalidInput, match="wx13 at delta="):
            dominance_gap(s, 1, 9.0, [1.0, big])
        with pytest.raises(InvalidInput, match="wx13 at delta="):
            dominance_gap(s, 1, 9.0, [big])
        # At the other end, delta lam + (n - 2) underflows to 0 at n = 2, and
        # the term is 0/0: a NaN side, refused the same way.
        with pytest.raises(InvalidInput, match="wx13 at delta=5e-324 is not finite: .* rhs=nan"):
            dominance_gap(spec(2, 0.3, 0.4), 1, 0.4, [1.0, 5e-324])

    def test_huge_candidate_raises(self):
        # At lambda_next = 1e110 the product under thm14's root overflows:
        # its rhs is inf, and chebyshev's slack inf - inf.
        s = spec(2, 2.0, 3.0)
        with pytest.raises(InvalidInput, match="thm14 is not finite"):
            build_report(s, 2, lambda_next=1e110)
        with pytest.raises(InvalidInput, match="chebyshev is not finite"):
            chebyshev_check(s, 2, 1e110)

    @given(spectra(min_k=2), st.floats(0.0, 50.0), st.booleans())
    @settings(max_examples=100)
    def test_report_checks_equal_standalone_functions(self, s, bump, default_next):
        # build_report evaluates each sum once; every record it emits must be
        # bit-for-bit the one the standalone public function returns.
        k = len(s.values) - 1
        lam_next = None if default_next else s.values[k] + bump
        rep = build_report(s, k, lambda_next=lam_next)
        upper, gap, lower = bound_next(s, k)
        ln = upper if lam_next is None else lam_next
        assert (rep.S, rep.T) == compute_S_T(s, k)
        assert (rep.upper_next, rep.gap_upper, rep.lower_prev) == (upper, gap, lower)
        try:
            star = optimal_delta(s, k, ln)[0]
        except AllGapsZero:
            star = None
        assert rep.delta_star == star
        expect = [
            check_theorem(s, k, ln),
            check_yang(s, k, ln),
            CheckRecord.make("upper16", ln, upper),
            CheckRecord.make("gap17", ln - s.values[k - 1], gap),
            CheckRecord.make("lower216", lower, s.values[k - 1]),
        ]
        assert list(rep.checks) == expect

    def test_build_report_ids(self):
        s = spec(2, 2.0, 6.0)
        rep = build_report(s, 1, lambda_next=6.0, theta0=1.0)
        ids = {c.inequality_id for c in rep.checks}
        assert ids == {
            "thm14",
            "yang15",
            "upper16",
            "gap17",
            "lower216",
        }
        assert rep.delta_star == 0.5
        # chebyshev and the delta family hold by algebra and have no rows
        # (TestChebyshev, TestDominanceByAlgebra).
        assert len(rep.checks) == 5 and all(c.delta is None for c in rep.checks)
