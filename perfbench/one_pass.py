"""One pass of a workload in a fresh process: import, set up, time, check.

    python3 perfbench/one_pass.py --workload W --seed S --work DIR [--setup-only] [--trace]

Writes its result as JSON to DIR/result.json and prints nothing on stdout.
`ready` is time.monotonic() when set-up ended (package import plus input
generation), so the caller can time set-up from the moment it spawned
this process. With --trace the wrappers of tracer.py are installed right
after the import, and spans go to DIR/trace/.

Peak memory is this process's peak resident set plus the largest peak
among its reaped children (the campaign's pool workers), in MiB.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    env.prepare()
    import spherebuckle  # noqa: F401  (the import is part of set-up)
    import workloads

    if not Path(spherebuckle.__file__).resolve().is_relative_to(env.SRC):
        print(f"error: imported {spherebuckle.__file__}, not {env.SRC}", file=sys.stderr)
        return 2
    work = args.work
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-{work.name}", work / "trace")
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, work)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if not args.setup_only:
        laps = workloads.Laps()
        t0 = time.perf_counter()
        output = workload.run(inputs, laps)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.flush()
        outcome = workload.check(inputs, output, workloads.load_reference())
        kib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        result.update(
            wall_s=wall,
            laps=laps,
            peak_rss_mb=kib / 1024.0,
            attempted=outcome.attempted,
            failed=outcome.failed,
            max_rel_dev=outcome.max_rel_dev,
            problems=outcome.problems[:10],
            env=env.record(),
        )
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
