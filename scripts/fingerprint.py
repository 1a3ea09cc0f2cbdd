"""Byte-identity fingerprint of the shipped runs.

    python3 scripts/fingerprint.py                 # print one sha256 per file
    python3 scripts/fingerprint.py --record        # store them as the reference
    python3 scripts/fingerprint.py --against       # diff against the reference
    python3 scripts/fingerprint.py --against-rev REV   # diff against REV's src/

Runs, in a temporary directory and from the ``src/`` of this checkout:
``gridmanip train --dump-replay`` on ``configs/default.ini``, ``gridmanip
eval`` on the checkpoint it wrote, and ``gridmanip ablate`` with
``run.train_steps=60 run.eval_runs=3``. Two more train/eval pairs cover the
other branches of the episode loop: push/pick clutter removal (60 steps, 3
runs), a scripted 4x1 push-only layout whose every episode ends in a dead
end with no valid action (40 steps, 3 runs), 6x6 stacking to height 3 with
push, pick and place, which pushes whole stacks (120 steps, 3 runs), and a
scripted 6x1 layout of tall stacks for push and pick with two rotations,
whose ``n_blocks`` comes from the layout (60 steps, 3 runs). A default
train/eval pair with ``replay.capacity=16`` (200 steps, 3 runs) wraps the
replay ring many times over, so training reads evicted-and-rewritten slots.
A default train/eval pair with ``task.rotations=8`` (100 steps, 3 runs)
turns by 45 degrees, so rotating its maps back leaves pixels with no source
and reads some pixels twice.
It then prints the sha256 of every output file. BLAS is pinned to one thread.

The reference (``scripts/fingerprint_ref.json``) is keyed by the numpy
version, the BLAS name and version and the machine type, because GEMM bits
can differ between BLAS builds. ``--against`` exits 1 when any file differs,
is missing or is new; on an environment without a reference it prints
"no reference" and exits 0.

``--against-rev REV`` needs no reference: it runs the fingerprint twice on
this machine, each in a fresh process, once with the ``src/`` of git
revision REV (exported with ``git archive`` into a temporary directory) and
once with this checkout's ``src/``, both with this checkout's configs and
run list. It names every file whose digest differs, is missing or is new,
and then exits 1. ``--src DIR`` runs the fingerprint with the package in DIR.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before numpy is first imported, so BLAS starts with one thread.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "fingerprint_ref.json"


def environment_key():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {numpy.__version__} | {blas.get('name')} "
            f"{blas.get('version')} | {platform.machine()}")


# (output prefix, train steps, eval runs, --set overrides of default.ini)
EXTRA_RUNS = [
    ("clutter", 60, 3,
     ["task.kind=clutter_removal", "task.allowed_primitives=push,pick"]),
    ("dead_end", 40, 3,
     ["task.kind=scripted_arrangement", "task.width=4", "task.height=1",
      "task.n_blocks=0", "task.allowed_primitives=push", "task.rotations=1",
      "task.layout=1..."]),
    ("stack3", 120, 3,
     ["task.width=6", "task.height=6", "task.goal_stack_height=3",
      "task.allowed_primitives=push,pick,place"]),
    ("scripted", 60, 3,
     ["task.kind=scripted_arrangement", "task.width=6", "task.height=1",
      "task.n_blocks=0", "task.allowed_primitives=push,pick",
      "task.rotations=2", "task.layout=2..3.1"]),
    ("wrap", 200, 3, ["replay.capacity=16"]),
    ("rot8", 100, 3, ["task.rotations=8"]),
]


def run_all(work: Path):
    from gridmanip.cli import main
    config = str(ROOT / "configs" / "default.ini")
    commands = [
        ["train", "--config", config, "--out", str(work / "train"),
         "--dump-replay"],
        ["eval", "--config", config, "--out", str(work / "eval"),
         "--checkpoint", str(work / "train" / "checkpoint.bin")],
        ["ablate", "--config", config, "--out", str(work / "ablate"),
         "--set", "run.train_steps=60", "--set", "run.eval_runs=3"],
    ]
    for name, steps, runs, overrides in EXTRA_RUNS:
        sets = [arg for kv in overrides for arg in ("--set", kv)]
        train_dir = work / f"{name}_train"
        commands += [
            ["train", "--config", config, "--out", str(train_dir), *sets,
             "--set", f"run.train_steps={steps}"],
            ["eval", "--config", config, "--out", str(work / f"{name}_eval"),
             "--checkpoint", str(train_dir / "checkpoint.bin"), *sets,
             "--set", f"run.eval_runs={runs}"],
        ]
    for argv in commands:
        with contextlib.redirect_stdout(sys.stderr):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"gridmanip {argv[0]} exited {code}")


def digests(work: Path) -> dict:
    return {path.relative_to(work).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()}


def compare(found: dict, expected: dict) -> list:
    problems = []
    for name in sorted(expected.keys() | found.keys()):
        if name not in found:
            problems.append(f"missing {name}")
        elif name not in expected:
            problems.append(f"new {name}")
        elif found[name] != expected[name]:
            problems.append(f"differs {name}: {found[name]} != {expected[name]}")
    return problems


def fingerprint_of(src) -> dict:
    """The digests of a fingerprint run, in a fresh process, of the package
    in ``src``."""
    out = subprocess.run([sys.executable, __file__, "--src", str(src)],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in out.splitlines()[1:])}


def export_src(rev, dest: Path) -> Path:
    """Write the ``src/`` of git revision ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                              "--format=tar", rev, "src"],
                             check=True, stdout=subprocess.PIPE).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)
    return dest / "src"


def against_rev(rev) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        expected = fingerprint_of(export_src(rev, Path(tmp)))
    found = fingerprint_of(ROOT / "src")
    problems = compare(found, expected)
    for line in problems:
        print(line)
    print(f"fingerprint against {rev}: {len(found)} files, "
          f"{'ok' if not problems else f'{len(problems)} mismatches'}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true",
                      help=f"store the digests in {REFERENCE.name}")
    mode.add_argument("--against", nargs="?", const=str(REFERENCE),
                      metavar="REF.json",
                      help="compare with a stored reference")
    mode.add_argument("--against-rev", metavar="REV",
                      help="compare with a run of git revision REV's src/")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="run the package in this directory "
                             "(default: this checkout's src/)")
    args = parser.parse_args(argv)

    key = environment_key()
    print(f"env {key}")
    if args.against_rev:
        return against_rev(args.against_rev)
    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run_all(work)
        found = digests(work)
    for name, digest in found.items():
        print(f"{digest}  {name}")

    if args.record:
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        refs[key] = found
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(found)} files under {key!r}")
        return 0
    if args.against:
        refs = json.loads(Path(args.against).read_text())
        if key not in refs:
            print(f"no reference for {key!r} in {args.against}")
            return 0
        problems = compare(found, refs[key])
        for line in problems:
            print(line)
        print(f"fingerprint: {len(found)} files, "
              f"{'ok' if not problems else f'{len(problems)} mismatches'}")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
