"""Spectrum container, validation, multiplicities, mode merging, JSON I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebuckle.errors import InsufficientModes, InvalidInput, Unsorted
from spherebuckle.solver import solve_cap
from spherebuckle.spectrum import (
    CapDomain,
    Spectrum,
    _csv,
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
        assert r.valid

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
        # Evaluable (all values above n-2) but physically suspicious: no error.
        r = validate_spectrum(Spectrum(3, (2.5, 3.5)))
        assert r.valid

    def test_errors_name_the_first_offending_value(self):
        # 100 000 values, all of them bad: each message stays one short line.
        vals = (math.nan,) + tuple(-float(i) for i in range(1, 100_000))
        errors = validate_spectrum(Spectrum(3, vals)).errors
        assert [str(e) for e in errors] == [
            "value 0 (nan) must be finite",
            "value 2 (-2.0) is below the one before it",
            "value 1 (-1.0) must be strictly positive",
            "value 1 (-1.0) must exceed n - 2 = 1",
        ]


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

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "eigenvalues": {"values": list(range(100_000))}},
            {"n": "2" * 100_000, "eigenvalues": [3.0]},
            {"n": 2, "eigenvalues": [3.0], "meta": ["x"] * 100_000},
        ],
        ids=["object", "string", "list"],
    )
    def test_type_errors_are_bounded(self, doc):
        with pytest.raises(InvalidInput) as caught:
            spectrum_from_json(json.dumps(doc))
        assert len(str(caught.value)) < 200

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "eigs.json"
        s = Spectrum(4, (4.5, 5.5, 6.5))
        save_spectrum(p, s, domain=CapDomain(4, 2.0))
        s2, dom = load_spectrum(p)
        assert s2.values == s.values and dom.n == 4

    def test_extreme_floats_round_trip_bit_exactly(self, tmp_path):
        extremes = (5e-324, 2.2250738585072014e-308, 0.1, 1.7976931348623157e308)
        p = tmp_path / "extremes.json"
        # -0.0 is no valid eigenvalue or aperture, so it travels in meta.
        s = Spectrum(2, extremes, meta={"floats": [-0.0, *extremes]})
        save_spectrum(p, s, domain=CapDomain(2, 5e-324))
        s2, dom = load_spectrum(p)
        assert [v.hex() for v in s2.values] == [v.hex() for v in extremes]
        assert [v.hex() for v in s2.meta["floats"]] == [
            v.hex() for v in (-0.0, *extremes)
        ]
        assert dom.theta0.hex() == (5e-324).hex()

    @pytest.mark.parametrize("domain", [CapDomain(3, 1.2), CapDomain(2, 1)])
    def test_solved_spectrum_file_bytes_unchanged(self, tmp_path, domain):
        # The writer these files had before spectrum_to_json left json's
        # pure-Python encoder: every value formatted through 17 digits.
        spectrum, _pairs = solve_cap(domain, 6)
        before = json.dumps(
            {
                "n": spectrum.n,
                "domain": {"type": "cap", "theta0": float(f"{domain.theta0:.17g}")},
                "eigenvalues": [float(f"{v:.17g}") for v in spectrum.values],
                "meta": spectrum.meta,
            },
            indent=2,
            sort_keys=False,
        )
        p = tmp_path / "solved.json"
        save_spectrum(p, spectrum, domain=domain)
        assert p.read_bytes() == (before + "\n").encode()


_csv_cells = st.one_of(st.none(), st.booleans(), st.integers(), st.floats())


class TestCsv:
    @settings(max_examples=300)
    @given(st.lists(st.lists(_csv_cells, min_size=1, max_size=6), max_size=6))
    def test_cell_rule(self, rows):
        # None is empty, bools are lowercase, ints go through str, and every
        # float reads back as itself (the sign of zero included).
        lines = _csv(("a", "b"), rows).split("\n")
        assert lines[0] == "a,b" and lines[-1] == "" and len(lines) == len(rows) + 2
        for line, row in zip(lines[1:], rows):
            for cell, value in zip(line.split(","), row, strict=True):
                if value is None:
                    assert cell == ""
                elif isinstance(value, bool):
                    assert cell == ("true" if value else "false")
                elif isinstance(value, int):
                    assert cell == str(value)
                elif math.isnan(value):
                    assert math.isnan(float(cell))
                else:
                    back = float(cell)
                    assert back == value and math.copysign(1.0, back) == math.copysign(1.0, value)

    def test_special_floats(self):
        rows = [[-0.0], [math.inf], [-math.inf], [math.nan], [np.float64(0.1)]]
        assert _csv(("x",), rows) == "x\n-0\ninf\n-inf\nnan\n0.10000000000000001\n"

    def test_no_rows_is_the_header_line(self):
        assert _csv(("a", "b"), []) == "a,b\n"
