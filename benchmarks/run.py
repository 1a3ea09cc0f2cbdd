"""gridmanip benchmark: one workload per invocation, one JSON line of results.

    python3 benchmarks/run.py --workload train-stack --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. BLAS is pinned to one thread. With ``--trace 0`` the workload runs
untraced for about ``--seconds`` and the end-to-end metrics are reported;
with ``--trace 1`` it runs one untraced and one traced cycle and reports the
per-layer metrics, the tracing overhead, and writes the spans to
``.bench_out/``. Every metric is printed as ``metric <name> = <value>
<unit>``; the last line of standard output is the JSON result. The exit code
is 1 when a correctness gate fails and 2 when the program cannot be found.

End-to-end metrics (bounded in ``BENCHMARK.json``):

- setup_s: median time of one set-up (config building for the train
  workloads; a 300-step ``gridmanip train`` plus checkpoint for eval-clutter).
- wall_s: mean time of one measured iteration (train and evaluate, or one
  ``gridmanip eval``). The mean, because the median of a few iterations
  flips between a shared host's fast and slow periods.
- train_steps_per_s: training steps over ``harness.train`` time, callbacks
  excluded. eval-clutter trains only in set-up, so its figure comes from
  there.
- train_step_ms_p90: 90th percentile of the per-step intervals between calls
  of ``harness.train``'s ``checkpoint_cb``.
- eval_actions_per_s: greedy actions over evaluation time; on the train
  workloads this includes the short evaluations probed during training.
- peak_rss_mb: peak resident memory of the benchmark process.

``--quick`` shortens every workload to a few dozen steps for the smoke test
(``benchmarks/smoke.py``); it skips the completion gate, which only holds for
a fully trained run.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before numpy is first imported, so BLAS starts with one thread.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "1/s",
    "train_step_ms_p90": "ms",
    "eval_actions_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="minimal workload lengths, for the smoke test")
    return parser.parse_args(argv)


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(meas):
    return {
        "setup_s": statistics.median(meas.setup_s),
        "wall_s": statistics.mean(meas.iteration_s),
        "train_steps_per_s": meas.train_steps / meas.train_s,
        "train_step_ms_p90": statistics.quantiles(meas.step_ms, n=10)[-1],
        "eval_actions_per_s": meas.eval_actions / meas.eval_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def unbounded_metrics(meas):
    """Printed but not bounded in BENCHMARK.json. Completion and the failed
    share are 1 and 0 on a healthy run, so a share-of-median bound means
    nothing for them. The median step flips between the two speeds a shared
    host can run at (about 3.5 and 7 ms per default step on a 2-vCPU cloud
    VM), so its run-to-run spread is wider than any usable bound; the mean
    (train_steps_per_s) and p90 do not flip."""
    return {
        "train_step_ms_p50": (statistics.median(meas.step_ms), "ms"),
        "completion_rate": (meas.eval_completed / meas.eval_runs, "share"),
        "failed_share": (meas.failed / meas.attempted, "share"),
        "iterations": (len(meas.iteration_s), "count"),
        "train_steps": (meas.train_steps, "count"),
        "eval_actions": (meas.eval_actions, "count"),
    }


def traced_layers(meas, tracer, untraced_s):
    from tracing import RUN
    metrics = tracer.layer_metrics()
    run_calls = [(steps, length) for phase, steps, length in meas.train_calls
                 if phase == RUN]
    steps = sum(s for s, _ in run_calls)
    metrics["replay.len_end"] = (run_calls[-1][1] if run_calls else 0, "count")
    metrics["replay.trained_step_share"] = (
        metrics["qfunc.train_step.calls"][0] / steps if steps else 0.0, "share")
    metrics["trace.overhead_ms"] = (
        (meas.iteration_s[-1] - untraced_s) * 1e3, "ms")
    return metrics


def self_time_shares(metrics):
    """Share of the measured phase's traced self time per function and per
    module, largest first."""
    ms = {key[:-len(".ms")]: value for key, (value, _) in metrics.items()
          if key.endswith(".ms") and not key.startswith(("setup.", "trace."))}
    total = sum(ms.values()) or 1.0
    modules = {}
    for name, value in ms.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + value

    def ranked(values):
        return sorted(((v / total, k) for k, v in values.items() if v),
                      reverse=True)
    return ranked(modules), ranked(ms)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "gridmanip").is_dir():
        print(f"benchmark: no gridmanip sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS, Measurements, StepTimer, run_cycles

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meas = Measurements()
    tracer = None
    try:
        workload.start(args.seed, args.quick, workdir, probe=not args.trace)
        with StepTimer() as timer:
            if args.trace:
                run_cycles(workload, meas, 0, timer)
                untraced_s = meas.iteration_s[-1]
                if not meas.gate_failures:
                    meas = Measurements()
                    with Tracer() as tracer:
                        run_cycles(workload, meas, 0, timer, tracer)
            else:
                run_cycles(workload, meas, args.seconds, timer)
    except Exception as exc:   # noqa: BLE001 - a raising workload is a failure
        meas.attempted += 1
        meas.failed += 1
        meas.gate(False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not meas.gate_failures
    if correct and args.trace:
        metrics = traced_layers(meas, tracer, untraced_s)
        with open(OUT_DIR / f"spans-{tag}.json", "w") as fh:
            json.dump(tracer.span_records(), fh)
    elif correct:
        values = end_to_end(meas)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    else:
        metrics = {}

    env = environment()
    for key, value in env.items():
        print(f"env {key} = {value}")
    for key, value in meas.fingerprints.items():
        print(f"fingerprint {key} = {value}")
    for failure in meas.gate_failures:
        print(f"gate FAILED: {failure}")
    shown = dict(metrics)
    if correct and not args.trace:
        shown.update(unbounded_metrics(meas))
    for key, (value, unit) in shown.items():
        print(f"metric {key} = {value} {unit}")
    if correct and args.trace:
        for kind, ranking in zip(("module", "function"),
                                 self_time_shares(metrics)):
            for share, name in ranking:
                print(f"share {kind} {name} = {share:.4f}")

    result = {"correct": correct, "attempted": max(meas.attempted, 1),
              "failed": meas.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump({"environment": env,
                   "fingerprints": meas.fingerprints, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
