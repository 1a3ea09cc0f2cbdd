"""Smoke test of the benchmark itself.

    python3 benchmarks/smoke.py

Runs every workload at minimal length (``--quick``) and checks that:

- the untraced run prints every end-to-end metric of ``BENCHMARK.json``, and
  the median step, completion rate and failed share, by name with its unit,
  and its JSON result carries exactly the ``BENCHMARK.json`` metrics;
- two traced runs of the same seed carry exactly the per-layer metrics of
  ``BENCHMARK.json`` and report identical ``.calls`` counts;
- without the program's sources the command fails and prints no result.

Exits 0 when every check passes and 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180
# Printed by every untraced run with its unit, but not bounded in
# BENCHMARK.json (run.py's unbounded_metrics says why).
PRINTED_ONLY = {"train_step_ms_p50": "ms", "completion_rate": "share",
                "failed_share": "share"}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_metrics(label, result, spec, problems):
    if result is None:
        problems.append(f"{label}: no JSON result")
        return
    if not result["correct"]:
        problems.append(f"{label}: correctness gate failed")
    got = result["metrics"]
    if set(got) != set(spec):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(spec) - set(got))}, "
                        f"extra {sorted(set(got) - set(spec))}")
    for name, unit in spec.items():
        if name in got and got[name]["unit"] != unit:
            problems.append(f"{label}: {name} has unit {got[name]['unit']}, "
                            f"BENCHMARK.json says {unit}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    for workload in (w["name"] for w in bench["workloads"]):
        proc = run(workload, 0)
        check_metrics(f"{workload} untraced", result_of(proc), end_to_end,
                      problems)
        for name, unit in {**end_to_end, **PRINTED_ONLY}.items():
            if not any(line.startswith(f"metric {name} = ")
                       and line.endswith(f" {unit}")
                       for line in proc.stdout.splitlines()):
                problems.append(f"{workload}: no printed line for {name}")

        calls = []
        for attempt in (1, 2):
            result = result_of(run(workload, 1))
            check_metrics(f"{workload} traced #{attempt}", result, per_layer,
                          problems)
            calls.append({k: v["value"] for k, v in
                          (result or {"metrics": {}})["metrics"].items()
                          if k.endswith(".calls")})
        if calls[0] != calls[1]:
            changed = sorted(k for k in calls[0] if calls[0][k] != calls[1].get(k))
            problems.append(f"{workload}: .calls differ between traced runs: "
                            f"{changed}")
        print(f"smoke: {workload} done", flush=True)

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or result_of(proc) is not None:
            problems.append("without src/ the benchmark did not fail cleanly")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
