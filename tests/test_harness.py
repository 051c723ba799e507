"""Campaign orchestration and command-line behavior."""

import contextlib
import io
import json
import math
import os
import pickle
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherebuckle import cli, harness, solver
from spherebuckle.bounds import CheckRecord, default_delta_grid, dominance_gap
from spherebuckle.errors import ConfigError
from spherebuckle.harness import (
    CAMPAIGN_CSV_COLUMNS,
    CampaignConfig,
    CampaignReport,
    _status,
    report_to_csv,
    report_to_json,
    run_campaign,
)
from spherebuckle.spectrum import Spectrum

MINI = dict(dims=(2,), apertures=(1.0,), k_max=3)

CHECK_IDS = {
    "thm14",
    "yang15",
    "upper16",
    "gap17",
    "lower216",
    "lemma21",
}


@pytest.fixture(scope="module")
def mini_report() -> CampaignReport:
    return run_campaign(CampaignConfig(**MINI))


@pytest.fixture(scope="module")
def two_cell_reports() -> tuple[CampaignReport, CampaignReport]:
    """MINI with a second aperture, run serially and at jobs=2.

    run_campaign runs a one-cell campaign serially whatever jobs is, so
    the second cell is what makes the jobs=2 run go through the pool.
    """
    cfg = CampaignConfig(**{**MINI, "apertures": (1.0, 1.5)})
    return run_campaign(cfg), run_campaign(cfg, jobs=2)


class TestConfig:
    def test_defaults_are_the_standard_campaign(self):
        cfg = CampaignConfig()
        assert cfg.dims == (2, 3, 4)
        assert cfg.apertures == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
        assert cfg.k_max == 10
        assert cfg.rel_slack_tol == 1e-8

    def test_aperture_beyond_pi_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(dims=(2,), apertures=(3.5,), k_max=3)

    def test_aperture_zero_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(dims=(2,), apertures=(0.0,), k_max=3)

    def test_dim_below_two_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(dims=(1,), apertures=(1.0,))

    def test_k_max_below_one_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(dims=(2,), apertures=(1.0,), k_max=0)

    def test_unknown_output_format_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(dims=(2,), apertures=(1.0,), output_format="xml")

    def test_from_dict_round_trip(self):
        cfg = CampaignConfig.from_dict(
            {
                "dims": [3],
                "apertures": [0.5, 1.5],
                "k_max": 4,
                "grid": {"max_refinements": 5, "rel_tol": 1e-5},
                "rel_slack_tol": 1e-7,
                "output": {"path": "r.json", "format": "json"},
            }
        )
        assert cfg.dims == (3,)
        assert cfg.apertures == (0.5, 1.5)
        assert cfg.max_refinements == 5
        assert cfg.grid_rel_tol == 1e-5
        assert cfg.rel_slack_tol == 1e-7
        assert cfg.output_path == "r.json"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"dims": [2], "apetrures": [1.0]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"grid": {"N": 64}},
            {"grid": {"maxrefinements": 3}},
            {"output": {"fmt": "csv"}},
            # The retired finite-difference engine's initial grid.
            {"grid": {"N0": 128}},
        ],
    )
    def test_unknown_section_keys_rejected(self, doc):
        # A typo inside a section must not silently fall back to a default.
        with pytest.raises(ConfigError, match="unknown"):
            CampaignConfig.from_dict(doc)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"dims": [2], "k_max": "many"})

    @pytest.mark.parametrize(
        "doc",
        [
            {"k_max": 2.9},
            {"k_max": True},
            {"k_max": "3"},
            {"dims": "23"},
            {"dims": [2.5]},
            {"dims": [True]},
            {"dims": [2.0]},
            {"apertures": [True]},
            {"apertures": ["1.0"]},
            {"apertures": 1.0},
            {"apertures": [10**400]},
            {"grid": {"max_refinements": 4.0}},
            {"grid": {"max_refinements": False}},
            {"grid": {"rel_tol": "1e-6"}},
            {"grid": [64]},
            {"grid": {"rel_tol": True}},
            {"rel_slack_tol": [1e-8]},
            {"rel_slack_tol": None},
            {"output": {"path": 7}},
            {"output": {"format": ["csv"]}},
            {"output": "r.json"},
        ],
    )
    def test_values_type_checked_not_coerced(self, doc):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=st.deferred(lambda: _config_documents))
    def test_from_dict_fields_have_declared_types(self, doc):
        try:
            cfg = CampaignConfig.from_dict(doc)
        except ConfigError:
            return
        for name, kind in (
            ("k_max", int),
            ("max_refinements", int),
            ("grid_rel_tol", float),
            ("rel_slack_tol", float),
            ("output_format", str),
        ):
            assert type(getattr(cfg, name)) is kind, name
        assert all(type(n) is int for n in cfg.dims)
        assert all(type(t) is float for t in cfg.apertures)
        assert cfg.output_path is None or type(cfg.output_path) is str

    @settings(max_examples=200, deadline=None)
    @given(cfg=st.deferred(lambda: _valid_config()))
    def test_config_echo_reads_back(self, cfg):
        # The report echoes every field but the output section; with that
        # section put back, the echo is a config file for the same campaign.
        report = CampaignReport(config=cfg, cases=(), summary={})
        doc = json.loads(report_to_json(report, timestamp=False))["config"]
        assert "output" not in doc
        doc["output"] = {"format": cfg.output_format}
        if cfg.output_path is not None:
            doc["output"]["path"] = cfg.output_path
        assert CampaignConfig.from_dict(doc) == cfg

    def test_non_object_document_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict([1, 2, 3])

    def test_from_file_missing_path(self, tmp_path):
        with pytest.raises(ConfigError):
            CampaignConfig.from_file(str(tmp_path / "absent.json"))

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            CampaignConfig.from_file(str(path))


class TestRunCampaign:
    def test_mini_campaign_shape(self, mini_report):
        assert len(mini_report.cases) == 1
        case = mini_report.cases[0]
        assert case.error is None
        assert len(case.reports) == 2
        assert len(case.eigenvalues) == 3
        assert {c["inequality_id"] for c in case.checks} == CHECK_IDS

    def test_mini_campaign_zero_failures(self, mini_report):
        assert mini_report.summary["failures"] == 0
        assert mini_report.summary["case_errors"] == 0
        assert mini_report.failures == 0

    def test_case_count_is_grid_size(self):
        cfg = CampaignConfig(
            dims=(2, 3), apertures=(0.8, 1.2), k_max=2, max_refinements=4
        )
        rep = run_campaign(cfg)
        assert len(rep.cases) == 4
        assert [(c.n, c.theta0) for c in rep.cases] == [
            (2, 0.8),
            (2, 1.2),
            (3, 0.8),
            (3, 1.2),
        ]

    def test_lemma_margin_positive(self, mini_report):
        case = mini_report.cases[0]
        lemma = [c for c in case.checks if c["inequality_id"] == "lemma21"]
        assert len(lemma) == 1
        assert lemma[0]["slack"] == case.eigenvalues[0] - case.n
        assert lemma[0]["slack"] > 0.0

    def test_dominance_minima_positive(self, mini_report):
        # The family has no campaign rows (it holds by algebra); its least
        # gap at each k of the case's spectrum is still positive.
        case = mini_report.cases[0]
        s = Spectrum(case.n, case.eigenvalues)
        minima = {
            k: min(gap for *_, gap in dominance_gap(s, k, s.values[k], default_delta_grid()))
            for k in range(1, len(s.values))
        }
        assert set(minima) == {1, 2}
        assert all(v > 0.0 for v in minima.values())

    def test_worst_slack_locates_a_check(self, mini_report):
        worst = mini_report.summary["worst"]
        assert worst["inequality_id"] in CHECK_IDS
        assert worst["rel_slack"] >= -1e-10

    def test_worst_skips_equalities_by_construction(self, mini_report):
        # The k = 1 lower216 row holds with equality up to rounding; worst
        # names a real margin.
        worst = mini_report.summary["worst"]
        assert not (worst["inequality_id"] == "lower216" and worst["k"] == 1)
        assert worst["rel_slack"] > 1e-6

    def test_solver_failure_recorded_not_fatal(self):
        # One refinement cannot reach 1e-14 next to the whole sphere.
        cfg = CampaignConfig(
            dims=(2,),
            apertures=(3.14,),
            k_max=2,
            max_refinements=1,
            grid_rel_tol=1e-14,
        )
        rep = run_campaign(cfg)
        case = rep.cases[0]
        assert case.error is not None
        assert case.error_type == "NoConvergence"
        assert rep.summary["case_errors"] == 1
        assert rep.summary["total_checks"] == 0

    def test_deterministic_json(self, mini_report):
        again = run_campaign(CampaignConfig(**MINI))
        assert report_to_json(mini_report, timestamp=False) == report_to_json(
            again, timestamp=False
        )

    def test_timestamp_field_only_difference(self, mini_report):
        with_ts = json.loads(report_to_json(mini_report, timestamp=True))
        without = json.loads(report_to_json(mini_report, timestamp=False))
        assert "generated_at" in with_ts
        del with_ts["generated_at"]
        assert with_ts == without

    def test_jobs_equivalence(self, two_cell_reports):
        serial, pooled = two_cell_reports
        assert report_to_json(pooled, timestamp=False) == report_to_json(
            serial, timestamp=False
        )
        assert report_to_csv(pooled) == report_to_csv(serial)

    def test_pool_payload_carries_each_check_once(self, mini_report, two_cell_reports):
        # A case crosses the process pool pickled: its checks travel as the
        # dicts in checks, and reports holds only the per-k bound docs.
        _, pooled = two_cell_reports
        case = pooled.cases[0]
        assert b"CheckRecord" not in pickle.dumps(case)
        doc = json.loads(report_to_json(pooled))
        assert list(case.reports) == doc["cases"][0]["bounds"]
        # The first cell is the MINI campaign's only one.
        assert case == mini_report.cases[0]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    def __init__(self, log, max_workers):
        log.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkerCeiling:
    @pytest.mark.parametrize(
        "jobs,cores,want",
        [(1000, 2, 2), (2, 8, 2), (8, 8, 3), (8, 1, None), (8, None, None), (1, 8, None)],
    )
    def test_workers_capped_by_cores_and_cases(self, monkeypatch, jobs, cores, want):
        # No process starts: the pool is replaced by an in-process map.
        log = []
        monkeypatch.setattr(
            harness, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(log, max_workers)
        )
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        cfg = CampaignConfig(**{**MINI, "apertures": (1.0, 1.5, 2.0)})
        report = run_campaign(cfg, jobs=jobs)
        assert log == ([] if want is None else [want])
        assert len(report.cases) == 3 and report.summary["case_errors"] == 0


class TestStatus:
    def test_holding_check_is_ok(self):
        rec = CheckRecord.make("thm14", 1.0, 2.0, 1e-8)
        assert _status(rec, 1e-6) == "ok"

    def test_failure_within_solver_noise_is_inconclusive(self):
        # slack -5e-6 against rhs 1.0 sits inside 10 * 1e-6 * rhs.
        rec = CheckRecord.make("thm14", 1.0 + 5e-6, 1.0, 1e-8)
        assert not rec.holds
        assert _status(rec, 1e-6) == "inconclusive — refine grid"

    def test_failure_beyond_solver_noise_is_violated(self):
        rec = CheckRecord.make("thm14", 2.0, 1.0, 1e-8)
        assert _status(rec, 1e-6) == "violated"


class TestSerialization:
    def test_csv_schema_and_order(self, mini_report):
        text = report_to_csv(mini_report)
        lines = text.splitlines()
        assert CAMPAIGN_CSV_COLUMNS == (
            "n", "theta0", "k", "inequality_id", "lhs", "rhs", "slack", "holds", "delta",
            "meta_N",
        )
        assert lines[0] == ",".join(CAMPAIGN_CSV_COLUMNS)
        assert {len(line.split(",")) for line in lines} == {10}
        # Scalar checks leave delta empty; meta_N is the case's basis size.
        upper = [line.split(",") for line in lines if ",upper16," in line][0]
        assert upper[8] == "" and upper[9] == str(mini_report.cases[0].meta["N"])
        # The case-level row comes first (empty k).
        assert lines[1].split(",")[2:4] == ["", "lemma21"]
        # Per-k rows carry k and are grouped in ascending k.
        ks = [int(line.split(",")[2]) for line in lines[2:]]
        assert ks == sorted(ks)

    def test_csv_row_count(self, mini_report):
        text = report_to_csv(mini_report)
        rows = text.splitlines()[1:]
        # 1 case-level + 5 checks per k, for k = 1 and 2.
        assert len(rows) == 1 + 2 * 5

    def test_csv_holds_column_is_lowercase_bool(self, mini_report):
        rows = report_to_csv(mini_report).splitlines()[1:]
        assert {r.split(",")[7] for r in rows} == {"true"}

    def test_json_mirrors_cases(self, mini_report):
        doc = json.loads(report_to_json(mini_report, timestamp=False))
        assert doc["summary"]["failures"] == 0
        assert len(doc["cases"]) == 1
        case = doc["cases"][0]
        assert case["n"] == 2 and case["theta0"] == 1.0
        assert len(case["bounds"]) == 2
        assert case["bounds"][0]["upper_next"] > case["eigenvalues"][1]
        assert doc["config"]["k_max"] == 3

    def test_json_keys(self, mini_report):
        # delta* lives in each bounds entry and lambda_1 - n in the lemma21
        # check, each written once.
        doc = json.loads(report_to_json(mini_report, timestamp=False))
        assert doc["config"]["grid"] == {"max_refinements": 8, "rel_tol": 1e-6}
        case = doc["cases"][0]
        assert list(case) == [
            "n", "theta0", "eigenvalues", "meta", "bounds", "checks", "error", "error_type",
        ]
        assert set(case["meta"]) == {"N", "mode_cutoff"}
        assert all("delta_star" in b for b in case["bounds"])


def _write_mini_config(tmp_path, **overrides):
    doc = {
        "dims": [2],
        "apertures": [1.0],
        "k_max": 3,
        "grid": {"max_refinements": 8, "rel_tol": 1e-6},
    }
    doc.update(overrides)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    return str(path)


_config_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 200),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.booleans(), st.integers(-3, 6), st.floats(0.0, 3.5)), max_size=3),
)
_config_documents = st.fixed_dictionaries(
    {},
    optional={
        "dims": _config_values,
        "apertures": _config_values,
        "k_max": _config_values,
        "grid": st.one_of(
            _config_values,
            st.fixed_dictionaries(
                {},
                optional={k: _config_values for k in ("max_refinements", "rel_tol")},
            ),
        ),
        "rel_slack_tol": _config_values,
        "output": st.one_of(
            _config_values,
            st.fixed_dictionaries(
                {},
                optional={
                    "path": _config_values,
                    "format": st.one_of(_config_values, st.sampled_from(["json", "csv"])),
                },
            ),
        ),
    },
)

_positive = st.floats(min_value=0.0, exclude_min=True)


@st.composite
def _valid_config(draw) -> CampaignConfig:
    aperture = st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)
    return CampaignConfig(
        dims=tuple(draw(st.lists(st.integers(2, 60), min_size=1, max_size=4))),
        apertures=tuple(draw(st.lists(aperture, min_size=1, max_size=4))),
        k_max=draw(st.integers(1, 200)),
        max_refinements=draw(st.integers(1, 20)),
        grid_rel_tol=draw(_positive),
        rel_slack_tol=draw(_positive),
        output_path=draw(st.none() | st.text(max_size=8)),
        output_format=draw(st.sampled_from(["json", "csv"])),
    )


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)
_spectra = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.floats(n - 1.5, 1e4), min_size=1, max_size=8).map(sorted),
    )
)
_documents = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.fixed_dictionaries(
        {},
        optional={
            "n": st.one_of(_scalars, st.integers(2, 6)),
            "eigenvalues": st.one_of(_scalars, st.lists(_scalars, max_size=4)),
            "domain": _scalars,
            "meta": _scalars,
        },
    ),
    _spectra.flatmap(
        lambda s: st.fixed_dictionaries(
            {"n": st.just(s[0]), "eigenvalues": st.just(s[1])},
            optional={
                "domain": st.one_of(
                    _scalars,
                    st.fixed_dictionaries(
                        {"type": st.sampled_from(["cap", "disk"])},
                        optional={"theta0": st.one_of(_scalars, st.floats(0.0, 4.0))},
                    ),
                ),
                "meta": st.one_of(_scalars, st.dictionaries(st.text(max_size=3), _scalars)),
            },
        )
    ),
)


class TestCli:
    def test_solve_invalid_aperture_exits_4(self, capsys):
        assert cli.main(["solve", "--n", "2", "--theta0", "4.0", "--k", "1"]) == 4

    def test_missing_required_flag_exits_4(self, capsys):
        assert cli.main(["solve", "--n", "2"]) == 4

    def test_unknown_subcommand_exits_4(self, capsys):
        assert cli.main(["frobnicate"]) == 4

    def test_grid_flag_exits_4(self, capsys):
        # --grid was the retired finite-difference engine's initial grid.
        assert (
            cli.main(["solve", "--n", "2", "--theta0", "1.0", "--k", "1", "--grid", "128"])
            == 4
        )

    def test_solve_writes_loadable_spectrum(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        code = cli.main(
            ["solve", "--n", "2", "--theta0", "1.0", "--k", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 2
        assert doc["domain"]["theta0"] == 1.0
        assert len(doc["eigenvalues"]) == 2

    def test_solve_csv_format(self, capsys):
        code = cli.main(
            ["solve", "--n", "2", "--theta0", "1.0", "--k", "2", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,lambda"
        assert len(lines) == 3

    def test_solve_dump_profile(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        prof = tmp_path / "prof.csv"
        code = cli.main(
            [
                "solve", "--n", "2", "--theta0", "1.0", "--k", "1",
                "--out", str(out),
                "--dump-m", "0", "--dump-index", "0", "--dump-file", str(prof),
            ]
        )
        assert code == 0
        lines = prof.read_text().splitlines()
        assert lines[0] == "theta,f"
        assert len(lines) > 100
        theta0_col = [float(line.split(",")[0]) for line in lines[1:]]
        assert theta0_col == sorted(theta0_col)

    def test_solve_dump_needs_all_three_flags(self, tmp_path, capsys):
        code = cli.main(
            ["solve", "--n", "2", "--theta0", "1.0", "--k", "1", "--dump-m", "0"]
        )
        assert code == 4

    def test_solve_dump_unknown_pair_exits_4(self, tmp_path, capsys):
        code = cli.main(
            [
                "solve", "--n", "2", "--theta0", "1.0", "--k", "1",
                "--dump-m", "7", "--dump-index", "0",
                "--dump-file", str(tmp_path / "p.csv"),
            ]
        )
        assert code == 4

    def test_solve_dump_unknown_pair_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        code = cli.main(
            [
                "solve", "--n", "2", "--theta0", "1.0", "--k", "2",
                "--out", str(out),
                "--dump-m", "0", "--dump-index", "99",
                "--dump-file", str(tmp_path / "q.csv"),
            ]
        )
        assert code == 4
        assert not out.exists()
        assert "wrote" not in capsys.readouterr().out

    def test_bounds_hand_example(self, tmp_path, capsys):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"n": 2, "eigenvalues": [2.0]}))
        code = cli.main(["bounds", "--spectrum", str(spath), "--k", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["upper_next"] == pytest.approx(6.0, abs=1e-12)

    def test_bounds_json_keys(self, tmp_path, capsys):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"n": 2, "eigenvalues": [2.0, 6.0]}))
        assert cli.main(["bounds", "--spectrum", str(spath), "--k", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == [
            "n", "theta0", "k", "S", "T", "upper_next", "gap_upper", "lower_prev",
            "delta_star", "checks",
        ]
        assert list(doc["checks"][0]) == [
            "inequality_id", "lhs", "rhs", "slack", "holds", "delta",
        ]

    def test_bounds_violation_exits_2(self, tmp_path, capsys):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"n": 2, "eigenvalues": [2.0]}))
        code = cli.main(
            ["bounds", "--spectrum", str(spath), "--k", "1", "--lambda-next", "1e6"]
        )
        assert code == 2

    def test_bounds_default_candidate_exits_0(self, tmp_path, capsys):
        # At the default candidate (the quadratic upper bound, not an
        # eigenvalue) thm14 fails; that is no counterexample.
        spath = tmp_path / "s.json"
        spath.write_text(
            json.dumps({"n": 2, "eigenvalues": [14.699879062028382, 26.374177859854655]})
        )
        code = cli.main(["bounds", "--spectrum", str(spath), "--k", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        failed = {c["inequality_id"] for c in doc["checks"] if not c["holds"]}
        assert failed == {"thm14"}
        lam = repr(doc["upper_next"])
        code = cli.main(["bounds", "--spectrum", str(spath), "--k", "2", "--lambda-next", lam])
        assert code == 2

    def test_bounds_missing_file_exits_4(self, tmp_path, capsys):
        code = cli.main(
            ["bounds", "--spectrum", str(tmp_path / "none.json"), "--k", "1"]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "eigenvalues": [2.0, NaN]}',
            '{"n": 2, "eigenvalues": [2.0, Infinity]}',
            '{"n": 1, "eigenvalues": [2.0, 3.0]}',
            '{"n": 2, "eigenvalues": [6.0, 3.0]}',
        ],
        ids=["nan", "inf", "n1", "unsorted"],
    )
    def test_bounds_malformed_spectrum_exits_4(self, tmp_path, capsys, text):
        spath = tmp_path / "s.json"
        spath.write_text(text)
        assert cli.main(["bounds", "--spectrum", str(spath), "--k", "2"]) == 4

    @settings(max_examples=200, deadline=None)
    @given(
        doc=_documents,
        k=st.integers(-1, 8),
        lambda_next=st.one_of(st.none(), st.floats()),
    )
    def test_bounds_fuzzed_spectrum_never_raises(self, doc, k, lambda_next):
        # Whatever the file holds, the command ends in a documented exit code.
        argv = [f"--k={k}"]
        if lambda_next is not None:
            argv.append(f"--lambda-next={lambda_next!r}")
        with tempfile.TemporaryDirectory() as tmp:
            spath = os.path.join(tmp, "s.json")
            with open(spath, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(["bounds", "--spectrum", spath, *argv])
        assert code in (0, 2, 4)

    def test_bounds_overflow_exits_4(self, tmp_path, capsys):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"n": 3, "eigenvalues": [1e160, 2e160]}))
        assert cli.main(["bounds", "--spectrum", str(spath), "--k", "1"]) == 4

    def test_compare_overflow_exits_4(self, tmp_path, capsys):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"n": 2, "eigenvalues": [2.0]}))
        code = cli.main(
            ["compare", "--spectrum", str(spath), "--k", "1", "--lambda-next", "3e160"]
        )
        assert code == 4
        assert capsys.readouterr().out == ""

    def test_verify_mini_campaign(self, tmp_path, capsys):
        cfg = _write_mini_config(tmp_path)
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["failures"] == 0
        err = capsys.readouterr().err
        assert "failures=0" in err

    def test_verify_csv_output(self, tmp_path, capsys):
        cfg = _write_mini_config(tmp_path, output={"format": "csv"})
        out = tmp_path / "report.csv"
        code = cli.main(["verify", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == ",".join(CAMPAIGN_CSV_COLUMNS)

    def test_solve_unwritable_out_exits_4(self, tmp_path, capsys):
        out = tmp_path / "missing" / "spec.json"
        code = cli.main(
            ["solve", "--n", "2", "--theta0", "1.0", "--k", "1", "--out", str(out)]
        )
        assert code == 4
        assert "cannot write" in capsys.readouterr().err

    def test_solve_unwritable_dump_file_exits_4(self, tmp_path, capsys):
        prof = tmp_path / "missing" / "prof.csv"
        code = cli.main(
            [
                "solve", "--n", "2", "--theta0", "1.0", "--k", "1",
                "--out", str(tmp_path / "spec.json"),
                "--dump-m", "0", "--dump-index", "0", "--dump-file", str(prof),
            ]
        )
        assert code == 4
        assert "cannot write" in capsys.readouterr().err

    def test_solve_unwritable_dump_file_writes_nothing(self, tmp_path, capsys):
        # Both destinations are opened before either is written.
        out = tmp_path / "q.json"
        code = cli.main(
            [
                "solve", "--n", "2", "--theta0", "1.0", "--k", "2",
                "--out", str(out),
                "--dump-m", "0", "--dump-index", "0",
                "--dump-file", str(tmp_path / "missing" / "q.csv"),
            ]
        )
        assert code == 4
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_solve_unwritable_out_with_dump_writes_nothing(self, tmp_path, capsys):
        prof = tmp_path / "q.csv"
        code = cli.main(
            [
                "solve", "--n", "2", "--theta0", "1.0", "--k", "2",
                "--out", str(tmp_path / "missing" / "q.json"),
                "--dump-m", "0", "--dump-index", "0", "--dump-file", str(prof),
            ]
        )
        assert code == 4
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_solve_failed_dump_keeps_existing_out(self, tmp_path, capsys):
        # Destinations open for appending, so a failed command truncates nothing.
        out = tmp_path / "q.json"
        out.write_text("earlier\n")
        code = cli.main(
            [
                "solve", "--n", "2", "--theta0", "1.0", "--k", "2",
                "--out", str(out),
                "--dump-m", "0", "--dump-index", "0",
                "--dump-file", str(tmp_path / "missing" / "q.csv"),
            ]
        )
        assert code == 4
        assert out.read_text() == "earlier\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize(
        "out,dump",
        [("a.json", "a.json"), ("a.json", "./a.json"), ("a.json", "l.json"), ("l.json", "a.json")],
    )
    def test_solve_out_and_dump_file_one_file_exits_4(
        self, tmp_path, capsys, monkeypatch, out, dump, existing
    ):
        # The profile would truncate the spectrum it shares a file with.
        # l.json links to a.json, dangling while a.json is new.
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "a.json"
        if existing:
            target.write_bytes(b"earlier\n")
        (tmp_path / "l.json").symlink_to(target)
        code = cli.main(
            [
                "solve", "--n", "2", "--theta0", "1.0", "--k", "2",
                "--out", out,
                "--dump-m", "0", "--dump-index", "0", "--dump-file", dump,
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "wrote" not in captured.out
        assert "one file" in captured.err
        if existing:
            assert target.read_bytes() == b"earlier\n"
        # The link stays; a.json stays only if it was there before.
        want = ["a.json", "l.json"] if existing else ["l.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == want

    def test_solve_overwrites_existing_out(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        out.write_text("x" * 10000)
        argv = ["solve", "--n", "2", "--theta0", "1.0", "--k", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["n"] == 2

    def test_verify_unwritable_output_path_exits_4(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        cfg = _write_mini_config(tmp_path, output={"path": str(out)})
        assert cli.main(["verify", "--config", cfg]) == 4
        assert "cannot write" in capsys.readouterr().err

    def test_verify_bad_config_exits_4(self, tmp_path, capsys):
        cfg = _write_mini_config(tmp_path, apertures=[3.5])
        assert cli.main(["verify", "--config", cfg]) == 4

    def test_verify_nonconvergence_exits_3(self, tmp_path, capsys):
        cfg = _write_mini_config(
            tmp_path,
            apertures=[3.14],
            k_max=2,
            grid={"max_refinements": 1, "rel_tol": 1e-14},
        )
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 3

    def test_verify_violation_exits_2(self, tmp_path, capsys, monkeypatch):
        # Force one failing record to pin the exit-code mapping; true
        # spectra never violate, so substitute the campaign result.
        cfg = _write_mini_config(tmp_path)
        real = run_campaign

        def rigged(config, jobs=1):
            rep = real(config, jobs=jobs)
            summary = dict(rep.summary)
            summary["failures"] = 1
            return CampaignReport(
                config=rep.config, cases=rep.cases, summary=summary
            )

        monkeypatch.setattr(cli, "run_campaign", rigged)
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2

    def test_verify_jobs_flag(self, tmp_path, capsys):
        cfg = _write_mini_config(tmp_path)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert cli.main(["verify", "--config", cfg, "--out", str(out1)]) == 0
        assert (
            cli.main(["verify", "--config", cfg, "--jobs", "2", "--out", str(out2)])
            == 0
        )
        d1 = json.loads(out1.read_text())
        d2 = json.loads(out2.read_text())
        d1.pop("generated_at")
        d2.pop("generated_at")
        assert d1 == d2

    def test_verify_inconclusive_row_still_fails(self, tmp_path, capsys, monkeypatch):
        # A k_max 1 campaign checks lemma21 (lambda_1 >= n) alone. With
        # lambda_1 just below n, beyond rel_slack_tol but within ten grid
        # tolerances, that row is inconclusive, and still a failure.
        def solve(domain, k, **_):
            return Spectrum(domain.n, (domain.n * (1.0 - 1e-9),)), ()

        monkeypatch.setattr(harness, "solve_cap", solve)
        cfg = _write_mini_config(tmp_path, k_max=1, rel_slack_tol=1e-12)
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert [c["status"] for c in doc["cases"][0]["checks"]] == ["inconclusive — refine grid"]
        assert (doc["summary"]["failures"], doc["summary"]["inconclusive"]) == (1, 1)

    @pytest.mark.parametrize(
        "argv,first",
        [
            (["compare", "--spectrum", "{spec}", "--k", "2", "--lambda-next", "60",
              "--delta-max", "1.7976931348623157e308"], "wx13 at delta="),
            (["bounds", "--spectrum", "{spec}", "--k", "2", "--lambda-next", "1e110"],
             "thm14 is not finite"),
        ],
        ids=["compare", "bounds"],
    )
    def test_overflowing_check_exits_4(self, tmp_path, capsys, argv, first):
        # An overflowed check is bad input, one error line, never a failed row.
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"n": 2, "eigenvalues": [2.0, 3.0]}))
        assert cli.main([a.format(spec=spec) for a in argv]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: " + first), err

    def test_config_with_delta_grid_exits_4(self, tmp_path, capsys):
        # The campaign sweeps no deltas; the section that set its grid is
        # now an unknown key, refused before anything runs.
        cfg = _write_mini_config(tmp_path, delta_grid={"points": 7})
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 4
        assert "unknown config keys: ['delta_grid']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,doc,argv",
        [
            ("s.json", {"n": 2, "eigenvalues": [1e5 - i for i in range(100_000)]},
             ["bounds", "--spectrum", "{path}", "--k", "3"]),
            ("c.json", {"dims": [2] * 99_999 + [1]}, ["verify", "--config", "{path}"]),
            ("c.json", {"apertures": [1.0] * 99_999 + [4.0]}, ["verify", "--config", "{path}"]),
        ],
        ids=["decreasing-spectrum", "dims", "apertures"],
    )
    def test_error_on_large_input_stays_short(self, tmp_path, capsys, name, doc, argv):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert cli.main([a.format(path=path) for a in argv]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.encode()) < 1024, err[:200]

    @pytest.mark.parametrize(
        "name,text,argv",
        [
            ("s.json", '{"n": 2, "eigenvalues": [%s]}',
             ["bounds", "--spectrum", "{path}", "--k", "1"]),
            ("c.json", '{"k_max": %s}', ["verify", "--config", "{path}"]),
        ],
        ids=["spectrum", "config"],
    )
    def test_integer_past_digit_limit_exits_4(self, tmp_path, capsys, name, text, argv):
        # Python refuses to parse an integer of more than 4300 digits.
        path = tmp_path / name
        path.write_text(text % ("1" * 5000))
        assert cli.main([a.format(path=path) for a in argv]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_csv_documents_header_and_row_count(self, tmp_path, capsys):
        # Every CSV document is its header line plus one line per row.
        def run(argv, path=None):
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            text = out if path is None else path.read_text()
            assert text.endswith("\n") and not text.endswith("\n\n")
            return text.splitlines()

        spec, dump = tmp_path / "s.json", tmp_path / "d.csv"
        lines = run(["solve", "--n", "2", "--theta0", "1.0", "--k", "4", "--format", "csv"])
        assert lines[0] == "index,lambda" and len(lines) == 1 + 4
        lines = run(
            ["solve", "--n", "2", "--theta0", "1.0", "--k", "4", "--out", str(spec),
             "--dump-m", "0", "--dump-index", "0", "--dump-file", str(dump)],
            dump,
        )
        assert lines[0] == "theta,f" and len(lines) == 1 + solver.PAIR_CELLS == 513
        lines = run(
            ["compare", "--spectrum", str(spec), "--k", "3", "--lambda-next", "200",
             "--delta-points", "7"]
        )
        assert lines[0] == "delta,family_rhs,dominant_rhs,gap" and len(lines) == 1 + 7
        lines = run(["convergence", "--n", "2", "--theta0", "1.0", "--k", "2", "--levels", "3"])
        assert lines[0] == "P,lambda_1,lambda_2,change_1,change_2" and len(lines) == 1 + 3

    def test_compare_sweep(self, tmp_path, capsys):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"n": 2, "eigenvalues": [2.0]}))
        code = cli.main(
            [
                "compare", "--spectrum", str(spath), "--k", "1",
                "--lambda-next", "4.0", "--delta-points", "9",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "delta,family_rhs,dominant_rhs,gap"
        assert len(lines) == 10
        gaps = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(g >= 0.0 for g in gaps)

    def test_compare_infinite_delta_max_exits_4(self, tmp_path, capsys):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"n": 2, "eigenvalues": [2.0, 3.0]}))
        code = cli.main(
            [
                "compare", "--spectrum", str(spath), "--k", "2",
                "--lambda-next", "60", "--delta-max", "inf",
            ]
        )
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "delta grid" in err

    def test_compare_too_many_delta_points_exits_4(self, tmp_path, capsys):
        # The grid is refused before it is built: 2e8 samples would be a
        # list of several GB.
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps({"n": 2, "eigenvalues": [2.0, 3.0]}))
        code = cli.main(
            [
                "compare", "--spectrum", str(spath), "--k", "2",
                "--lambda-next", "16", "--delta-points", "200000000",
            ]
        )
        assert code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: delta grid needs at most 1000000 points, got 200000000"
        ], err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "2", "--theta0", "1e-300", "--k", "2"],
            ["--n", "2000", "--theta0", "1.0", "--k", "1"],
        ],
    )
    def test_solve_extreme_cap_exits_3_with_one_error_line(self, capsys, argv):
        # The assembly under- or overflows on these caps; the solve reports
        # that as non-convergence, without numpy's warnings on stderr.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["solve", *argv])
        assert code == 3
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_convergence_table(self, capsys):
        code = cli.main(
            ["convergence", "--n", "2", "--theta0", "1.0", "--k", "1", "--levels", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "P,lambda_1,change_1"
        assert len(lines) == 4
        assert lines[1].endswith(",")  # no change on the first step
        last = lines[-1].split(",")
        assert int(last[0]) > int(lines[1].split(",")[0])
        assert float(last[-1]) <= 1e-10

    @pytest.mark.parametrize("command", ["solve", "convergence"])
    def test_out_of_memory_exits_3_with_one_error_line(self, capsys, monkeypatch, command):
        # A basis that cannot be allocated (at k = 1e8 the first one would
        # take 10.1 GiB) is non-convergence: one error line naming the modes
        # (here the first batch, 14 modes of 39 functions), their basis
        # size and the rule's nodes, and nothing on stdout.
        def no_memory(P, b, s):
            raise MemoryError(f"Unable to allocate {24 * P * b.size * s.size} bytes")

        monkeypatch.setattr(solver, "_jacobi_rows", no_memory)
        code = cli.main([command, "--n", "2", "--theta0", "1.0", "--k", "5"])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and "m=0..13 at P=39 on Q=78 nodes: MemoryError" in err[0], err

    def test_out_of_memory_is_a_case_error(self, monkeypatch):
        def no_memory(P, b, s):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(solver, "_jacobi_rows", no_memory)
        report = run_campaign(CampaignConfig(**MINI))
        (case,) = report.cases
        assert case.error_type == "NoConvergence" and "MemoryError" in case.error
        assert report.summary["case_errors"] == 1

    def test_convergence_k0_exits_4(self, capsys):
        code = cli.main(["convergence", "--n", "2", "--theta0", "1.0", "--k", "0"])
        assert code == 4
        assert "k must be >= 1" in capsys.readouterr().err

    def test_convergence_one_level_exits_4(self, capsys):
        code = cli.main(
            ["convergence", "--n", "2", "--theta0", "1.0", "--k", "2", "--levels", "1"]
        )
        assert code == 4
        assert "at least 2 levels" in capsys.readouterr().err

    def test_convergence_too_many_levels_exits_4(self, capsys, monkeypatch):
        # solve_cap stops within 9 ladder steps; a deeper table is refused
        # before any mode is solved.
        def no_solve(*args):
            raise AssertionError("a mode was solved")

        monkeypatch.setattr(solver, "_galerkin_mode", no_solve)
        code = cli.main(
            ["convergence", "--n", "2", "--theta0", "1.0", "--k", "2", "--levels", "10"]
        )
        assert code == 4
        assert "at most 9 levels" in capsys.readouterr().err

    def test_verify_grid_N0_exits_4(self, tmp_path, capsys):
        cfg = _write_mini_config(tmp_path, grid={"N0": 128})
        assert cli.main(["verify", "--config", cfg]) == 4
        assert "unknown grid keys: ['N0']" in capsys.readouterr().err

    def test_verify_mistyped_config_exits_4(self, tmp_path, capsys):
        cfg = _write_mini_config(tmp_path, k_max=2.9)
        assert cli.main(["verify", "--config", cfg]) == 4

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0


class TestPairsSampledOnRead:
    def test_campaign_and_plain_solve_never_sample(self, tmp_path, capsys, monkeypatch):
        # Only --dump-file reads the pairs; everything else leaves them unsampled.
        def refuse(*args):
            raise AssertionError("pairs were sampled")

        monkeypatch.setattr(solver, "_pairs", refuse)
        report = run_campaign(CampaignConfig(**MINI), 1)
        assert report.summary["case_errors"] == 0
        cfg = _write_mini_config(tmp_path)
        out = str(tmp_path / "report.json")
        assert cli.main(["verify", "--config", cfg, "--jobs", "1", "--out", out]) == 0
        solve = ["solve", "--n", "2", "--theta0", "1.0", "--k", "3"]
        assert cli.main([*solve, "--out", str(tmp_path / "s.json")]) == 0
        assert cli.main([*solve, "--format", "csv"]) == 0

    def test_dump_samples_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        pairs = solver._pairs

        def counted(*args):
            calls.append(args)
            return pairs(*args)

        monkeypatch.setattr(solver, "_pairs", counted)
        argv = ["solve", "--n", "2", "--theta0", "1.0", "--k", "6", "--dump-m", "1"]
        argv += ["--dump-index", "0", "--dump-file", str(tmp_path / "d.csv")]
        assert cli.main(argv) == 0
        assert len(calls) == 1
        assert len((tmp_path / "d.csv").read_text().splitlines()) == 1 + solver.PAIR_CELLS
