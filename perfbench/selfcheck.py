"""Self-check of the benchmark, in seconds:

    python3 perfbench/selfcheck.py

1. The one-case, small-k `smoke` workload runs end to end and traced, and
   prints every metric BENCHMARK.json names, with its unit.
2. Moving one reference eigenvalue by 1e-4 relative makes the gate fail
   (fail_rate > 0), and the unmoved reference passes.
3. The campaign report, minus its generated_at line, is byte-identical
   with tracing on and off.

Exits 0 when every step passes and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys

import env

HERE = env.ROOT / "perfbench"
WORK = HERE / "_work" / "selfcheck"


def run_benchmark(trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "smoke"]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def one_pass(work, *flags: str) -> None:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", "smoke"]
    cmd += ["--seed", "1", "--work", str(work), *flags]
    subprocess.run(cmd, cwd=env.ROOT, check=True, timeout=170)


def report_body(path) -> str:
    text = path.read_text()
    return re.sub(r',\n  "generated_at": "[^"]*"', "", text)


def main() -> int:
    env.prepare()
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    ok = True

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_benchmark(trace)
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        for name, m in result["metrics"].items():
            print(f"  trace {trace}: {name} = {m['value']:.6g} {m['unit']}")
        step = got == wanted and result["correct"] and result["failed"] == 0
        print(f"{'PASS' if step else 'FAIL'}: smoke --trace {trace} prints every {key} metric")
        ok &= step

    plain, traced = WORK / "plain", WORK / "traced"
    one_pass(plain)
    one_pass(traced, "--trace")
    same = report_body(plain / "report.json") == report_body(traced / "report.json")
    print(f"{'PASS' if same else 'FAIL'}: report body identical with tracing on and off")
    ok &= same

    import workloads

    smoke = workloads.WORKLOADS["smoke"]
    inputs = {"report": str(plain / "report.json")}
    reference = workloads.load_reference()
    clean = smoke.check(inputs, 0, reference)
    moved = copy.deepcopy(reference)
    moved["campaign"]["2:1.0"][1] *= 1.0 + 1e-4
    perturbed = smoke.check(inputs, 0, moved)
    step = clean.failed == 0 and perturbed.failed > 0
    print(
        f"{'PASS' if step else 'FAIL'}: fail_rate {clean.failed}/{clean.attempted} with the "
        f"reference, {perturbed.failed}/{perturbed.attempted} with one value moved by 1e-4"
    )
    ok &= step
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
