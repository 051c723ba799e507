"""Freeze the reference eigenvalues the correctness gate compares against.

    python3 perfbench/freeze_reference.py

Solves every case of the standard campaign and every solve_large_k point
with the solver as it stands, and writes perfbench/reference.json with the
command and commit that produced it. Run it only to re-base the gate on a
solver whose accuracy has been established independently.
"""

from __future__ import annotations

import json
import sys

import env


def main() -> int:
    env.prepare()
    from spherebuckle import harness, solver, spectrum

    import workloads

    cfg = harness.CampaignConfig(
        dims=workloads.STANDARD_DIMS, apertures=workloads.STANDARD_APERTURES, k_max=10
    )
    report = harness.run_campaign(cfg, jobs=workloads.JOBS)
    campaign = {}
    for case in report.cases:
        if case.error is not None:
            print(f"error: case {case.n}, {case.theta0}: {case.error}", file=sys.stderr)
            return 1
        campaign[workloads.case_key(case.n, case.theta0)] = list(case.eigenvalues)
    large_k = {}
    for n, theta0, k in workloads.LARGE_K_POINTS:
        spec, _pairs = solver.solve_cap(spectrum.CapDomain(n, theta0), k)
        large_k[f"{n}:{theta0!r}:{k}"] = list(spec.values)
    doc = {
        "produced_by": "python3 perfbench/freeze_reference.py",
        "git_commit": env.record()["git_commit"],
        "campaign": campaign,
        "solve_large_k": large_k,
    }
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
