"""Verification campaigns over (dimension, aperture) grids.

A campaign solves each cap, then checks the computed spectrum: the
quadratic upper bound and its consequences at each truncation depth (the
five checks of bounds.build_report, with the closed-form delta minimizer
recorded beside them) and the first-eigenvalue floor. The Chebyshev-type
rearrangement and the one-parameter delta family are not checked here:
they hold by algebra whatever the spectrum (see bounds). Results are
flat check records with a deterministic ordering, serialized to JSON
(full report) or CSV (fixed columns).

A failed check whose slack is within the grid-refinement tolerance of
zero is labeled inconclusive rather than violated: discretization error
must not masquerade as a counterexample to an exact inequality.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import repeat
from typing import Any

from .bounds import CheckRecord, _bounds_doc, _scale, build_report
from .errors import ConfigError, SphereBuckleError
from .spectrum import CapDomain, _csv, _first, _typed
from .solver import MAX_REFINEMENTS, REL_TOL, solve_cap

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CaseResult",
    "run_campaign",
    "report_to_json",
    "report_to_csv",
    "CAMPAIGN_CSV_COLUMNS",
]

CAMPAIGN_CSV_COLUMNS = (
    "n",
    "theta0",
    "k",
    "inequality_id",
    "lhs",
    "rhs",
    "slack",
    "holds",
    "delta",
    "meta_N",
)

STANDARD_DIMS = (2, 3, 4)
STANDARD_APERTURES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def _key(key: str, kind: Any, default: Any, echo: bool = True) -> Any:
    """A CampaignConfig field read from file key `key`, "section.name" inside a section.

    kind is the value's JSON kind as spectrum._typed reads it; echo=False
    leaves the field out of the report's config.
    """
    return field(default=default, metadata={"key": key, "kind": kind, "echo": echo})


@dataclass(frozen=True)
class CampaignConfig:
    """Validated campaign parameters; defaults give the standard campaign.

    Each field declares its config-file key and JSON kind; from_dict and
    the report's config echo both follow these declarations, in this order.
    """

    dims: tuple[int, ...] = _key("dims", [int], STANDARD_DIMS)
    apertures: tuple[float, ...] = _key("apertures", [float], STANDARD_APERTURES)
    k_max: int = _key("k_max", int, 10)
    max_refinements: int = _key("grid.max_refinements", int, MAX_REFINEMENTS)
    grid_rel_tol: float = _key("grid.rel_tol", float, REL_TOL)
    rel_slack_tol: float = _key("rel_slack_tol", float, 1e-8)
    output_path: str | None = _key("output.path", str, None, echo=False)
    output_format: str = _key("output.format", str, "json", echo=False)

    def __post_init__(self) -> None:
        i = _first(not isinstance(n, int) or n < 2 for n in self.dims)
        if not self.dims or i is not None:
            got = "()" if i is None else f"dims[{i}] = {reprlib.repr(self.dims[i])}"
            raise ConfigError(f"dims must be integers >= 2, got {got}")
        i = _first(not 0.0 < t < math.pi for t in self.apertures)
        if not self.apertures or i is not None:
            got = "()" if i is None else f"apertures[{i}] = {reprlib.repr(self.apertures[i])}"
            raise ConfigError(f"apertures must lie strictly inside (0, pi), got {got}")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        if self.max_refinements < 1:
            raise ConfigError(
                f"grid needs max_refinements >= 1, got {self.max_refinements}"
            )
        if not self.grid_rel_tol > 0.0:
            raise ConfigError(f"grid rel_tol must be positive, got {self.grid_rel_tol}")
        if not self.rel_slack_tol > 0.0:
            raise ConfigError(
                f"rel_slack_tol must be positive, got {self.rel_slack_tol}"
            )
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"output format must be json or csv, got {self.output_format!r}")

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "CampaignConfig":
        doc = _typed(doc, "config", dict, ConfigError)
        kwargs: dict[str, Any] = {}
        known: dict[str, set[str]] = {"": set()}  # each section's keys, "" the top level's
        for f in fields(CampaignConfig):
            key, kind = f.metadata["key"], f.metadata["kind"]
            section, _, name = key.rpartition(".")
            known[""].add(section or name)
            known.setdefault(section, set()).add(name)
            part = _typed(doc.get(section, {}), section, dict, ConfigError) if section else doc
            if name in part:
                kwargs[f.name] = _typed(part[name], key, kind, ConfigError)
        for section, names in known.items():
            unknown = set(doc.get(section, {}) if section else doc) - names
            if unknown:
                raise ConfigError(f"unknown {section or 'config'} keys: {sorted(unknown)}")
        return CampaignConfig(**kwargs)

    @staticmethod
    def from_file(path: str) -> "CampaignConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        return CampaignConfig.from_dict(doc)


@dataclass(frozen=True)
class CaseResult:
    """Everything recorded for one (n, theta0) cell of the campaign.

    reports holds one bound doc per k (bounds._bounds_doc: k, S, T, the
    three root bounds and delta*), exactly as written under the report's
    "bounds"; the checks of every k are in checks, the case-level lemma21
    check (slack lambda_1 - n) first. tally is the case's share of the
    campaign summary (_tally), folded where the case ran; it is not
    written to reports.
    """

    n: int
    theta0: float
    eigenvalues: tuple[float, ...] = ()
    meta: dict[str, Any] = field(default_factory=dict)
    reports: tuple[dict[str, Any], ...] = ()
    checks: tuple[dict[str, Any], ...] = ()
    error: str | None = None
    error_type: str | None = None
    tally: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    cases: tuple[CaseResult, ...]
    summary: dict[str, Any]

    @property
    def failures(self) -> int:
        return int(self.summary["failures"])


INCONCLUSIVE = "inconclusive — refine grid"


def _status(rec: CheckRecord, solver_rel_tol: float) -> str:
    if rec.holds:
        return "ok"
    if abs(rec.slack) < 10.0 * solver_rel_tol * abs(rec.rhs):
        return INCONCLUSIVE
    return "violated"


def _check_dict(
    rec: CheckRecord, k: int | None, solver_rel_tol: float
) -> dict[str, Any]:
    """One report row: k, the record's fields in their order, then the status."""
    iid, lhs, rhs, slack, holds, delta = rec
    return {
        "k": k,
        "inequality_id": iid,
        "lhs": lhs,
        "rhs": rhs,
        "slack": slack,
        "holds": holds,
        "delta": delta,
        "status": _status(rec, solver_rel_tol),
    }


def run_case(cfg: CampaignConfig, n: int, theta0: float) -> CaseResult:
    """Solve one cap and evaluate the full check battery on it.

    Only the spectrum is kept: the campaign never reads, and so never
    samples, the eigenpairs, and their coefficients are dropped at once.
    """
    try:
        spectrum = solve_cap(
            CapDomain(n, theta0),
            cfg.k_max,
            max_refinements=cfg.max_refinements,
            rel_tol=cfg.grid_rel_tol,
        )[0]
    except SphereBuckleError as exc:
        return CaseResult(
            n=n,
            theta0=theta0,
            error=str(exc),
            error_type=type(exc).__name__,
        )
    tol = cfg.rel_slack_tol
    reports: list[dict[str, Any]] = []

    # First-eigenvalue floor: the whole sphere's value is the infimum
    # over caps, so every cap must sit above the dimension.
    records = [CheckRecord.make("lemma21", float(n), spectrum.values[0], tol)]
    ks: list[int | None] = [None]

    for k in range(1, cfg.k_max):
        lam_next = spectrum.values[k]
        rep = build_report(spectrum, k, lambda_next=lam_next, rel_tol=tol)
        reports.append(_bounds_doc(rep))
        records += rep.checks
        ks += repeat(k, len(rep.checks))

    checks = tuple(map(_check_dict, records, ks, repeat(cfg.grid_rel_tol)))
    return CaseResult(
        n=n,
        theta0=theta0,
        eigenvalues=spectrum.values,
        meta=dict(spectrum.meta),
        reports=tuple(reports),
        checks=checks,
        tally=_tally(n, theta0, records, ks, checks),
    )


def _tally(
    n: int,
    theta0: float,
    records: list[CheckRecord],
    ks: list[int | None],
    checks: tuple[dict[str, Any], ...],
) -> dict[str, Any]:
    """One case's share of the campaign summary: its check counts and worst margin.

    worst is the first check with the smallest relative slack, slack over
    bounds._scale(lhs, rhs). The k = 1 lower216 row is left out: its root
    is lambda_1 itself, so its slack is rounding noise.
    """
    statuses = [c["status"] for c in checks]
    rel, i = min(
        (rec.slack / _scale(rec.lhs, rec.rhs), i)
        for i, (rec, k) in enumerate(zip(records, ks))
        if not (k == 1 and rec.inequality_id == "lower216")
    )
    return {
        "checks": len(checks),
        "failures": len(statuses) - statuses.count("ok"),
        "inconclusive": statuses.count(INCONCLUSIVE),
        "worst": {
            "rel_slack": rel,
            "slack": records[i].slack,
            "n": n,
            "theta0": theta0,
            "k": ks[i],
            "inequality_id": records[i].inequality_id,
        },
    }


def _run_case_args(args: tuple[CampaignConfig, int, float]) -> CaseResult:
    return run_case(*args)


def run_campaign(cfg: CampaignConfig, jobs: int = 1) -> CampaignReport:
    """Run every (n, theta0) case and assemble the ordered report.

    Cases are independent; with jobs > 1 they run in separate processes
    and are merged in the same deterministic order as a serial run. At most
    one worker runs per core and per case, and a campaign that leaves one
    worker runs serially. Solver failures are recorded per case without
    stopping the campaign.
    """
    cells = [(n, t) for n in sorted(cfg.dims) for t in sorted(cfg.apertures)]
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_case_args, [(cfg, n, t) for n, t in cells]))
    else:
        results = [run_case(cfg, n, t) for n, t in cells]

    total = 0
    failures = 0
    inconclusive = 0
    errors = 0
    worst: dict[str, Any] | None = None
    for case in results:
        if case.error is not None:
            errors += 1
            continue
        tally = case.tally
        total += tally["checks"]
        failures += tally["failures"]
        inconclusive += tally["inconclusive"]
        # Strictly smaller, so the first of equal minima wins, as in each case.
        if worst is None or tally["worst"]["rel_slack"] < worst["rel_slack"]:
            worst = tally["worst"]
    summary = {
        "cases": len(results),
        "case_errors": errors,
        "total_checks": total,
        "failures": failures,
        "inconclusive": inconclusive,
        "worst": worst,
    }
    return CampaignReport(config=cfg, cases=tuple(results), summary=summary)


def _config_doc(cfg: CampaignConfig) -> dict[str, Any]:
    """The config as from_dict reads it, in field order, less the echo=False fields."""
    doc: dict[str, Any] = {}
    for f in fields(cfg):
        if f.metadata["echo"]:
            section, _, name = f.metadata["key"].rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[name] = getattr(cfg, f.name)
    return doc


def report_to_json(report: CampaignReport, timestamp: bool = True) -> str:
    """Full report document; the timestamp is the only nondeterministic field."""
    doc: dict[str, Any] = {
        "config": _config_doc(report.config),
        "summary": report.summary,
        "cases": [
            {
                "n": case.n,
                "theta0": case.theta0,
                "eigenvalues": list(case.eigenvalues),
                "meta": case.meta,
                "bounds": list(case.reports),
                "checks": list(case.checks),
                "error": case.error,
                "error_type": case.error_type,
            }
            for case in report.cases
        ],
    }
    if timestamp:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(doc, indent=2)


def report_to_csv(report: CampaignReport) -> str:
    """One row per check under CAMPAIGN_CSV_COLUMNS, deterministically ordered.

    Rows sort by (n, theta0, k, inequality_id), the case-level row (empty
    k) first; meta_N is the case's largest basis size. A case that failed
    to solve has no rows. The delta column stays empty: no campaign check
    has a delta.
    """
    checks = [(case, c) for case in report.cases if case.error is None for c in case.checks]
    checks.sort(
        key=lambda check: (
            check[0].n,
            check[0].theta0,
            -1 if check[1]["k"] is None else check[1]["k"],
            check[1]["inequality_id"],
        )
    )
    # Rows are made as they are written, so no more than one is held at once.
    rows = (
        {"n": case.n, "theta0": case.theta0, "meta_N": case.meta.get("N"), **c}
        for case, c in checks
    )
    return _csv(CAMPAIGN_CSV_COLUMNS, ([row[col] for col in CAMPAIGN_CSV_COLUMNS] for row in rows))
