"""spherebuckle benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Workloads are defined in workloads.py; perfbench/README.md says why each
was chosen. Every pass runs in a fresh process (one_pass.py), so its peak
memory is its own, and passes repeat until the next one would overrun
--seconds (at least one pass).

--trace 0 reports the end-to-end metrics: the wall time of one pass with
each operation at its median time across the passes, the median set-up
time (package import plus input generation, over at least SETUP_SAMPLES
fresh processes) and the median peak memory.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py: medians over the traced passes, plus the tracing
overhead as traced minus untraced median wall time.

The last line on stdout is one JSON object with the keys correct,
attempted, failed and metrics. fail_rate = failed / attempted is printed
on stderr with the rest of the summary. Exits 2 without a result when the
package source is missing and 1 when no pass produced a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
import tracer

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
WORKLOADS = ("campaign", "solve_large_k", "bounds_large_k", "smoke")
SETUP_SAMPLES = 5
# Every run must end well within the 180 s a run is allowed.
HARD_LIMIT_S = 170.0


def spawn(workload: str, seed: int, work: Path, deadline: float, *flags: str):
    """Run one_pass.py; returns (its result or None, seconds it ran)."""
    if work.exists():
        shutil.rmtree(work)
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--work", str(work), *flags]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=env.ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        err = f"pass timed out after {deadline - started:.0f} s"
    finally:
        # The pass and any pool workers it left behind share its session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    elapsed = time.monotonic() - started
    path = work / "result.json"
    if proc.returncode != 0 or not path.is_file():
        sys.stderr.write(f"pass failed (exit {proc.returncode}): {err[-2000:]}\n")
        return None, elapsed
    result = json.loads(path.read_text())
    result["setup_s"] = result["ready"] - started
    return result, elapsed


def median_laps(passes: list[dict]) -> float:
    """Sum over a pass's operations of each one's median time across passes."""
    return sum(statistics.median(times) for times in zip(*(r["laps"] for r in passes)))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    env.prepare()

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    passes: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    crashed = 0

    def one(index: int, *flags: str):
        nonlocal crashed
        work = run_dir / f"pass-{index}"
        result, elapsed = spawn(args.workload, args.seed, work, deadline, *flags)
        if result is None:
            crashed += 1
        else:
            setups.append(result["setup_s"])
            if "--trace" in flags:
                layer = tracer.summarize(tracer.load_spans(work / "trace"))
                layer["solver.max_rel_dev"] = result["max_rel_dev"]
                layer["trace.wall_s"] = result["wall_s"]
                result["layers"] = layer
                traced.append(result)
            elif "--setup-only" not in flags:
                passes.append(result)
        return elapsed

    index = 0
    while True:
        took = one(index)
        index += 1
        if args.trace:
            took += one(index, "--trace")
            index += 1
        spent = time.monotonic() - start
        if spent + took > args.seconds or time.monotonic() + took > deadline:
            break
    if not args.trace:
        while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
            one(index, "--setup-only")
            index += 1

    measured = passes + traced
    if not measured:
        print("error: no pass produced a result", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    # A crashed pass is charged every operation a pass attempts.
    attempted += crashed * measured[0]["attempted"]
    failed += crashed * measured[0]["attempted"]

    if args.trace:
        values = {}
        if traced:
            values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        if traced and passes:
            values["trace.overhead_s"] = statistics.median(
                r["wall_s"] for r in traced
            ) - statistics.median(r["wall_s"] for r in passes)
        metrics = {k: metric(values.get(k, 0.0), unit) for k, unit in tracer.METRICS.items()}
    else:
        metrics = {
            "wall_s": metric(median_laps(passes), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in passes), "MiB"),
        }

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": measured[0]["env"],
        "passes": [
            {k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb", "attempted", "failed")}
            for r in measured
        ],
        "setup_samples": setups,
        "crashed_passes": crashed,
        "fail_rate": failed / attempted,
        "problems": [q for r in measured for q in r["problems"]][:20],
        "metrics": metrics,
    }
    # Keep the summary; the passes' reports and spans take megabytes per run.
    for pass_dir in run_dir.glob("pass-*"):
        shutil.rmtree(pass_dir)
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    _print_summary(summary)
    result = {
        "correct": failed == 0 and crashed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _print_summary(s: dict) -> None:
    err = sys.stderr
    e = s["env"]
    print(
        f"env: python {e['python']}, numpy {e['numpy']}, scipy {e['scipy']}, "
        f"nproc {e['nproc']}, start method {e['start_method']}, "
        f"commit {e['git_commit']}, src sha256 {e['src_sha256'][:12]}",
        file=err,
    )
    print(
        f"{s['workload']} seed {s['seed']}: {len(s['passes'])} passes, "
        f"walls {[round(r['wall_s'], 3) for r in s['passes']]}",
        file=err,
    )
    print(f"fail_rate {s['fail_rate']:.6g} ({s['crashed_passes']} crashed passes)", file=err)
    for problem in s["problems"]:
        print(f"  {problem}", file=err)
    for name, m in s["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=err)


if __name__ == "__main__":
    sys.exit(main())
