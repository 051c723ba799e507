"""Spectrum container, validation, multiplicities, mode merging, JSON I/O."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebuckle.errors import InsufficientModes, InvalidInput, Unsorted
from spherebuckle.spectrum import (
    CapDomain,
    Spectrum,
    harmonic_multiplicity,
    load_spectrum,
    merge_modes,
    save_spectrum,
    spectrum_from_json,
    spectrum_to_json,
    validate_spectrum,
)


class TestCapDomain:
    def test_valid(self):
        d = CapDomain(3, 1.5)
        assert d.n == 3 and d.theta0 == 1.5

    @pytest.mark.parametrize("n,theta0", [(1, 1.0), (2, 0.0), (2, math.pi), (2, -0.5), (2, 4.0)])
    def test_rejects_bad_inputs(self, n, theta0):
        with pytest.raises(InvalidInput):
            CapDomain(n, theta0)


class TestValidate:
    def test_valid_no_warning(self):
        r = validate_spectrum(Spectrum(2, (2.0, 6.0)))
        assert r.valid and not r.warn_below_n

    def test_unsorted(self):
        r = validate_spectrum(Spectrum(3, (3.0, 1.0)))
        assert not r.valid
        assert any(isinstance(e, Unsorted) for e in r.errors)

    def test_singular_term(self):
        from spherebuckle.errors import SingularTerm

        r = validate_spectrum(Spectrum(3, (0.5,)))
        assert not r.valid
        assert any(isinstance(e, SingularTerm) for e in r.errors)

    def test_warning_below_n(self):
        # Evaluable (all values above n-2) but physically suspicious.
        r = validate_spectrum(Spectrum(3, (2.5, 3.5)))
        assert r.valid and r.warn_below_n


class TestMultiplicity:
    @pytest.mark.parametrize(
        "n,m,expect",
        [(2, 0, 1), (3, 2, 5), (4, 1, 4), (2, 1, 2), (2, 7, 2), (3, 0, 1), (4, 3, 16)],
    )
    def test_values(self, n, m, expect):
        assert harmonic_multiplicity(n, m) == expect

    @given(st.integers(2, 8), st.integers(0, 30))
    def test_at_least_one(self, n, m):
        assert harmonic_multiplicity(n, m) >= 1

    @given(st.integers(1, 30))
    def test_n2_always_two(self, m):
        assert harmonic_multiplicity(2, m) == 2

    @given(st.integers(0, 40))
    def test_n3_square_sum(self, M):
        total = sum(harmonic_multiplicity(3, m) for m in range(M + 1))
        assert total == (M + 1) ** 2


class TestMergeModes:
    def test_two_dim_example(self):
        s = merge_modes({0: [10.0, 30.0], 1: [12.0], 2: [20.0]}, n=2, k=4)
        assert s.values == (10.0, 12.0, 12.0, 20.0)

    def test_three_dim_example(self):
        s = merge_modes({0: [7.0], 1: [9.0]}, n=3, k=4)
        assert s.values == (7.0, 9.0, 9.0, 9.0)

    def test_insufficient(self):
        with pytest.raises(InsufficientModes):
            merge_modes({0: [10.0]}, n=2, k=3)

    def test_rejects_unsorted_mode_list(self):
        with pytest.raises(Unsorted):
            merge_modes({0: [10.0, 5.0]}, n=2, k=1)

    @given(
        st.dictionaries(
            st.integers(0, 5),
            st.lists(st.floats(1.0, 100.0), min_size=1, max_size=5).map(sorted),
            min_size=1,
            max_size=5,
        ),
        st.integers(2, 4),
    )
    @settings(max_examples=60)
    def test_output_valid_and_permutation_invariant(self, lists, n):
        total = sum(
            harmonic_multiplicity(n, m) * len(v) for m, v in lists.items()
        )
        k = min(total, 6)
        s1 = merge_modes(lists, n=n, k=k)
        assert len(s1.values) == k
        assert all(a <= b for a, b in zip(s1.values, s1.values[1:]))
        reordered = dict(reversed(list(lists.items())))
        s2 = merge_modes(reordered, n=n, k=k)
        assert s1.values == s2.values


class TestJson:
    def test_round_trip(self):
        s = Spectrum(3, (3.1, 4.2), meta={"N": 128, "order": [2.0]})
        doc = spectrum_to_json(s, domain=CapDomain(3, 1.0))
        s2, dom = spectrum_from_json(doc)
        assert s2.n == 3 and s2.values == s.values
        assert dom is not None and dom.theta0 == 1.0
        assert s2.meta["N"] == 128

    def test_seventeen_digit_round_trip(self):
        v = 14.682458291083202
        s = Spectrum(2, (v,))
        s2, _ = spectrum_from_json(spectrum_to_json(s))
        assert s2.values[0] == v

    def test_no_domain(self):
        s2, dom = spectrum_from_json(spectrum_to_json(Spectrum(2, (2.0,))))
        assert dom is None and s2.values == (2.0,)

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInput):
            spectrum_from_json(json.dumps({"eigenvalues": [1.0]}))
        with pytest.raises(InvalidInput):
            spectrum_from_json("not json at all {")
        with pytest.raises(InvalidInput):
            spectrum_from_json(json.dumps({"n": 2, "eigenvalues": "nope"}))
        # Spectra the bounds cannot be evaluated on are rejected at load.
        for text in (
            '{"n": 2, "eigenvalues": [2.0, NaN]}',
            '{"n": 2, "eigenvalues": [2.0, Infinity]}',
            '{"n": 1, "eigenvalues": [2.0, 3.0]}',
            '{"n": 2, "eigenvalues": [6.0, 3.0]}',
        ):
            with pytest.raises(InvalidInput):
                spectrum_from_json(text)
        # The schema is checked before anything is converted.
        for text in (
            '[2, [3.0, 4.0]]',
            '{"n": 2, "eigenvalues": "34"}',
            '{"n": 2, "eigenvalues": [true]}',
            '{"n": 2, "eigenvalues": [3.0, "4"]}',
            '{"n": 2, "eigenvalues": [3.0, 1%s]}' % ("0" * 400),
            '{"n": 2.5, "eigenvalues": [3.0]}',
            '{"n": "2", "eigenvalues": [3.0]}',
            '{"n": true, "eigenvalues": [3.0]}',
            '{"n": 2, "eigenvalues": [3.0], "meta": 7}',
            '{"n": 2, "eigenvalues": [3.0], "domain": "cap"}',
            '{"n": 2, "eigenvalues": [3.0], "domain": {"type": "cap"}}',
            '{"n": 2, "eigenvalues": [3.0], "domain": {"type": "cap", "theta0": "1"}}',
            '{"n": 2, "eigenvalues": [3.0], "domain": {"type": "cap", "theta0": null}}',
            '{"n": 2, "eigenvalues": [3.0], "domain": {"type": "cap", "theta0": 1e999}}',
        ):
            with pytest.raises(InvalidInput):
                spectrum_from_json(text)

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "eigs.json"
        s = Spectrum(4, (4.5, 5.5, 6.5))
        save_spectrum(p, s, domain=CapDomain(4, 2.0))
        s2, dom = load_spectrum(p)
        assert s2.values == s.values and dom.n == 4
