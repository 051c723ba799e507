"""The benchmark's workloads: seeded inputs, one timed pass, the correctness gate.

Every workload is a closed loop with one caller: each operation starts
when the previous one has returned. Only the campaign adds load, through
its two pool workers (nproc is 2 on the reference machine).

- campaign: the standard 18-case campaign (dims 2, 3, 4 x apertures
  0.5 ... 3.0, k_max 10) through `spherebuckle verify --jobs 2`, called
  in-process through cli.main and writing the JSON report. It is the
  command users run and the paper's verification workload; about 95% of
  it is solver grid refinement at 8192-32768 cells, it is the only
  workload that runs the harness process pool, and the theta0 = 3.0
  cases set the makespan tail. The campaign is fixed; the seed only
  permutes the order in which the config file lists dims and apertures,
  which the harness must normalise.
- solve_large_k: serial library solve_cap at fixed points with k = 30.
  The plain single-process solver baseline: the azimuthal sweep runs out
  to m = 5-8 and the subspace is three times wider than in the campaign,
  so iteration and sweep outweigh factorization. No harness or bounds
  work. The points do not depend on the seed.
- bounds_large_k: seeded synthetic spectra (n in 2, 3, 5, 8; 200 values
  each). bounds.build_report at every k = 1 ... 199 with lambda_next the
  next value, then `spherebuckle bounds` and `compare` through cli.main
  on spectrum files saved during set-up. The solver does no work here,
  so a bounds-layer or serialization change shows and a solver change
  must not.
- smoke: a one-case, small-k campaign (n = 2, theta0 = 1, k_max = 3) for
  the benchmark's self-check; it finishes in about a second.

An operation fails if it raises, returns an unexpected exit code, reports
a violated or inconclusive check or a case error, or returns an
eigenvalue farther than REL_TOL from the frozen reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from spherebuckle import bounds, cli, solver, spectrum

# Relative distance an eigenvalue may keep from the frozen reference.
# The solver refines until two successive grids agree to grid_rel_tol =
# 1e-6 and then extrapolates, so any engine that honours that contract
# lands within about 1e-6 of the reference. Ten times the grid tolerance
# is the same margin the harness allows discretization error before it
# calls a failed check inconclusive; a value off by 1e-4 fails.
REL_TOL = 1e-5

REFERENCE = Path(__file__).with_name("reference.json")

JOBS = 2
STANDARD_DIMS = (2, 3, 4)
STANDARD_APERTURES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
LARGE_K_POINTS = ((2, 1.0, 30), (3, 1.0, 30))
BOUNDS_DIMS = (2, 3, 5, 8)
BOUNDS_VALUES = 200
DELTA_POINTS = 50


def case_key(n: int, theta0: float) -> str:
    return f"{n}:{theta0!r}"


def load_reference(path: Path = REFERENCE) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rel_dev(values, ref) -> float:
    """Largest relative distance of values from the first len(values) of ref."""
    if not values or len(values) > len(ref):
        return math.inf
    return max(abs(v - r) / abs(r) for v, r in zip(values, ref))


@dataclass
class Outcome:
    """Correctness of one pass: operations attempted and failed, accuracy."""

    attempted: int = 0
    failed: int = 0
    max_rel_dev: float = 0.0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def accuracy(self, values, ref, label: str) -> bool:
        dev = rel_dev(values, ref)
        self.max_rel_dev = max(self.max_rel_dev, dev)
        if dev > REL_TOL:
            self.problems.append(f"{label}: relative deviation {dev:.3e} > {REL_TOL:.0e}")
            return False
        return True


class Laps(list):
    """Duration of each operation of a pass, in the order they ran."""

    @contextlib.contextmanager
    def lap(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.append(time.perf_counter() - start)


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout captured; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Campaign:
    def __init__(self, dims, apertures, k_max: int) -> None:
        self.dims = tuple(dims)
        self.apertures = tuple(apertures)
        self.k_max = k_max

    def setup(self, seed: int, work: Path) -> dict[str, Any]:
        rng = random.Random(seed)
        dims, apertures = list(self.dims), list(self.apertures)
        rng.shuffle(dims)
        rng.shuffle(apertures)
        config = work / "campaign.json"
        config.write_text(
            json.dumps({"dims": dims, "apertures": apertures, "k_max": self.k_max})
        )
        return {"config": str(config), "report": str(work / "report.json")}

    def run(self, inputs: dict[str, Any], laps: Laps) -> Any:
        argv = ["verify", "--config", inputs["config"], "--jobs", str(JOBS)]
        argv += ["--out", inputs["report"]]
        with laps.lap():
            try:
                return _quiet_cli(argv)[0]
            except Exception as exc:  # the gate counts it; the pass goes on
                return exc

    def check(self, inputs: dict[str, Any], rc: Any, ref: dict[str, Any]) -> Outcome:
        out = Outcome()
        try:
            with open(inputs["report"], encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            doc = {}
        summary = doc.get("summary", {})
        cases = {case_key(c["n"], c["theta0"]): c for c in doc.get("cases", ())}
        checks = sum(len(c["checks"]) for c in cases.values())
        cli_ok = (
            rc == 0
            and summary.get("failures") == 0
            and summary.get("case_errors") == 0
            and summary.get("cases") == len(self.dims) * len(self.apertures)
            and 0 < checks == summary.get("total_checks")
        )
        out.op(cli_ok, f"verify exit {rc!r}, report summary {summary or 'missing'}")
        for n in self.dims:
            for theta0 in self.apertures:
                key = case_key(n, theta0)
                case = cases.get(key)
                if case is None:
                    out.op(False, f"case {key} missing")
                    continue
                bad = [c["inequality_id"] for c in case["checks"] if c["status"] != "ok"]
                ok = case["error"] is None and not bad
                ok = len(case["eigenvalues"]) == self.k_max and ok
                ok = out.accuracy(case["eigenvalues"], ref["campaign"][key], key) and ok
                out.op(ok, f"case {key}: error={case['error']!r}, not ok: {bad[:5]}")
        return out


class SolveLargeK:
    def setup(self, seed: int, work: Path) -> dict[str, Any]:
        # Fixed points in a fixed order: the order moves peak memory.
        return {"points": LARGE_K_POINTS}

    def run(self, inputs: dict[str, Any], laps: Laps) -> Any:
        results = []
        for n, theta0, k in inputs["points"]:
            with laps.lap():
                try:
                    spec, _pairs = solver.solve_cap(spectrum.CapDomain(n, theta0), k)
                    results.append(spec.values)
                except Exception as exc:  # the gate counts it; the pass goes on
                    results.append(exc)
        return results

    def check(self, inputs: dict[str, Any], results: Any, ref: dict[str, Any]) -> Outcome:
        out = Outcome()
        for (n, theta0, k), values in zip(inputs["points"], results):
            key = f"{n}:{theta0!r}:{k}"
            if isinstance(values, Exception):
                out.op(False, f"solve {key} raised {type(values).__name__}: {values}")
                continue
            ok = len(values) == k
            ok = out.accuracy(values, ref["solve_large_k"][key], key) and ok
            out.op(ok, f"solve {key} inaccurate")
        return out


def synthetic_spectrum(n: int, rng: random.Random, count: int = BOUNDS_VALUES):
    """Weyl-law growth: lambda_j = n + c (j + u_j)^(2/n) for j = 1 ... count,
    with c uniform in [5, 20) and u_j uniform in [0, 1).

    Buckling eigenvalues grow like those of the Laplacian, j^(2/n), and
    lie above n. Starting at j = 1 keeps lambda_1 >= n + 5, so the gap to
    lambda_2 stays within the k = 1 upper bound lambda_1 + w_1 p_1, as it
    does for every real cap. The values stay far from the range where
    bound_next's sums overflow.
    """
    scale = rng.uniform(5.0, 20.0)
    values = sorted(
        n + scale * (j + rng.random()) ** (2.0 / n) for j in range(1, count + 1)
    )
    return spectrum.Spectrum(n=n, values=tuple(values))


def independent_bounds(values, n: int, k: int) -> tuple[float, float, float]:
    """S, T and the quadratic upper bound, from numpy and not from bounds.py."""
    lam = np.asarray(values[:k], dtype=float)
    c = n - 2.0
    w = lam - c / (lam - c)
    p = lam + c * c / 4.0
    S = lam.mean() + (w * p).mean() / 2.0
    T = (lam * lam).mean() + (lam * w * p).mean()
    return S, T, S + math.sqrt(max(S * S - T, 0.0))


class BoundsLargeK:
    def setup(self, seed: int, work: Path) -> dict[str, Any]:
        rng = random.Random(seed)
        spectra = []
        for n in BOUNDS_DIMS:
            s = synthetic_spectrum(n, rng)
            verdict = spectrum.validate_spectrum(s)
            if not verdict.valid:
                raise ValueError(f"generated spectrum for n={n} is invalid: {verdict.errors}")
            path = work / f"spectrum-n{n}.json"
            spectrum.save_spectrum(str(path), s)
            spectra.append((s, str(path)))
        return {"spectra": spectra}

    def run(self, inputs: dict[str, Any], laps: Laps) -> Any:
        reports: list[list[Any]] = []
        cli_out: list[tuple[Any, str, Any, str]] = []
        for s, path in inputs["spectra"]:
            rows: list[Any] = []
            for k in range(1, len(s.values)):
                with laps.lap():
                    try:
                        r = bounds.build_report(s, k, lambda_next=s.values[k])
                        holds = all(c.holds for c in r.checks)
                        rows.append((r.S, r.T, r.upper_next, len(r.checks), holds))
                    except Exception as exc:  # the gate counts it; the pass goes on
                        rows.append(exc)
            reports.append(rows)
            k = len(s.values) - 1
            common = ["--spectrum", path, "--k", str(k), "--lambda-next", repr(s.values[k])]
            calls = []
            for argv in (["bounds", *common], ["compare", *common, "--delta-points", str(DELTA_POINTS)]):
                with laps.lap():
                    try:
                        calls.extend(_quiet_cli(argv))
                    except Exception as exc:  # the gate counts it; the pass goes on
                        calls.extend((exc, ""))
            cli_out.append(tuple(calls))
        return reports, cli_out

    def check(self, inputs: dict[str, Any], result: Any, ref: dict[str, Any]) -> Outcome:
        out = Outcome()
        reports, cli_out = result
        for (s, _path), rows, (brc, btext, crc, ctext) in zip(inputs["spectra"], reports, cli_out):
            for k, row in enumerate(rows, start=1):
                label = f"build_report n={s.n} k={k}"
                if isinstance(row, Exception):
                    out.op(False, f"{label} raised {type(row).__name__}: {row}")
                    continue
                S, T, upper, nchecks, holds = row
                S_ref, T_ref, up_ref = independent_bounds(s.values, s.n, k)
                ok = holds and nchecks > 0
                ok = ok and abs(S - S_ref) <= 1e-12 * abs(S_ref)
                ok = ok and abs(T - T_ref) <= 1e-12 * abs(T_ref)
                ok = ok and abs(upper - up_ref) <= 1e-8 * abs(up_ref)
                out.op(ok, f"{label}: holds={holds}, S={S!r}/{S_ref!r}, upper={upper!r}/{up_ref!r}")
            last = rows[-1]
            try:
                doc = json.loads(btext)
                ok = (
                    brc == 0
                    and not isinstance(last, Exception)
                    and (doc["S"], doc["T"], doc["upper_next"]) == tuple(last[:3])
                    and len(doc["checks"]) == last[3]
                    and all(c["holds"] for c in doc["checks"])
                )
            except (json.JSONDecodeError, KeyError, TypeError):
                ok = False
            out.op(ok, f"cli bounds n={s.n}: exit {brc!r}")
            lines = ctext.strip().splitlines()
            ok = crc == 0 and len(lines) == DELTA_POINTS + 1 and lines[0].startswith("delta,")
            out.op(ok, f"cli compare n={s.n}: exit {crc!r}, {len(lines)} lines")
        return out


WORKLOADS = {
    "campaign": Campaign(STANDARD_DIMS, STANDARD_APERTURES, 10),
    "solve_large_k": SolveLargeK(),
    "bounds_large_k": BoundsLargeK(),
    "smoke": Campaign((2,), (1.0,), 3),
}
