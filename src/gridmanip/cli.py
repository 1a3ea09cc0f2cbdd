"""Command-line entry point.

Subcommands: train, eval, ablate, inspect, selftest. Every run echoes its
effective configuration (file plus overrides) into the output directory, so
a run is re-launchable from its echo alone. Exit codes: 0 success, 1
configuration error, 2 runtime failure. A configuration error is the one
``ConfigError``: a bad config value (the config objects check themselves
when they are built), a bad argument, or a checkpoint file that is corrupt
or does not fit the config. Each is raised before any output is written.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import gridsim, harness, qfunc, selftest
from .config import ConfigError
from .gridsim import Primitive
from .qfunc import TrainingDivergence


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_line(record, run_index=None):
    fields = []
    if run_index is not None:
        fields.append(("run", run_index))
    fields += [
        ("step", record.step), ("phi", record.primitive), ("x", record.x),
        ("y", record.y), ("theta", record.theta_index),
        ("q", record.q_value), ("X", record.success), ("P", record.progress),
        ("r_tp", record.r_tp), ("y_target", record.y_target),
        ("loss", record.loss), ("eps", record.epsilon),
        ("done", record.done), ("reason", record.done_reason or "-"),
    ]
    return " ".join(f"{key}={_fmt(value)}" for key, value in fields)


def _write_train_outputs(out_dir, report, cfg, text):
    with open(out_dir / "run.log", "w") as fh:
        for record in report.records:
            fh.write(_record_line(record) + "\n")
    with open(out_dir / "curves.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "success_rate", "action_efficiency"])
        for k, (s, e) in enumerate(zip(report.success_curve,
                                       report.efficiency_curve)):
            writer.writerow([k, _csv_float(s), _csv_float(e)])
    qfunc.save_checkpoint(out_dir / "checkpoint.bin", report.net,
                          (cfg.task.height, cfg.task.width),
                          cfg_hash=qfunc.config_hash(text))


def _csv_float(value):
    if value is None:
        return ""
    value = float(value)
    return "" if math.isnan(value) else repr(value)


def _write_metrics(path, metrics, eval_runs):
    completed = sum(r.completed for r in metrics.runs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["completion_rate", "pick_success", "action_efficiency",
                         "completed_runs", "eval_runs"])
        writer.writerow([repr(metrics.completion_rate),
                         _csv_float(metrics.pick_success),
                         _csv_float(metrics.action_efficiency),
                         completed, eval_runs])


def _write_eval_log(path, metrics):
    with open(path, "w") as fh:
        for run_i, run in enumerate(metrics.runs):
            for record in run.records:
                fh.write(_record_line(record, run_index=run_i) + "\n")


def _load_effective_config(args):
    """The config file plus overrides: (string values, typed RunConfig)."""
    if not args.config:
        raise ConfigError("a --config file is required")
    values = config_mod.load_config(args.config)
    config_mod.apply_overrides(values, args.set or [])
    if args.seed is not None:
        config_mod.apply_overrides(values, [f"run.seed={args.seed}"])
    return values, config_mod.build_run_config(values)


def _prepare_out(out, text):
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.echo", "w") as fh:
        fh.write(text)
    return out_dir


def _cmd_train(args):
    values, cfg = _load_effective_config(args)
    text = config_mod.config_text(values)
    out_dir = _prepare_out(args.out or "out", text)
    written = []

    def checkpoint_cb(step, net):
        path = out_dir / f"checkpoint_step{step:06d}.bin"
        qfunc.save_checkpoint(path, net, (cfg.task.height, cfg.task.width),
                              cfg_hash=qfunc.config_hash(text))
        written.append(path)

    try:
        report = harness.train(cfg, checkpoint_cb=checkpoint_cb)
    except TrainingDivergence as exc:
        kept = (f"last periodic checkpoint {written[-1]}" if written
                else "no periodic checkpoint was written")
        raise TrainingDivergence(f"{exc} ({kept})") from exc
    _write_train_outputs(out_dir, report, cfg, text)
    if args.dump_replay:
        with open(out_dir / "replay_dump.jsonl", "w") as fh:
            for record in report.replay_buffer.dump_records():
                fh.write(json.dumps(record) + "\n")
    completions = sum(ep.done_reason == "goal" for ep in report.episodes)
    print(f"train: {cfg.train_steps} steps, {len(report.episodes)} episodes "
          f"({completions} completed) -> {out_dir}")
    return 0


def _load_checkpoint_for(cfg, path):
    """The network in checkpoint ``path``; ConfigError unless its grid,
    rotation count and hidden channel count are those ``cfg`` sets."""
    net, header = qfunc.load_checkpoint(path)
    for field, key, value in (
            ("grid_height", "task.height", cfg.task.height),
            ("grid_width", "task.width", cfg.task.width),
            ("rotations", "task.rotations", cfg.task.rotations),
            ("hidden_channels", "network.hidden_channels",
             cfg.hidden_channels)):
        if header[field] != value:
            raise ConfigError(
                f"checkpoint has {field}={header[field]} but {key}={value}")
    return net


def _cmd_eval(args):
    values, cfg = _load_effective_config(args)
    if not args.checkpoint:
        raise ConfigError("eval requires --checkpoint")
    net = _load_checkpoint_for(cfg, args.checkpoint)
    out_dir = _prepare_out(args.out or "out", config_mod.config_text(values))
    metrics = harness.evaluate(net, cfg)
    _write_metrics(out_dir / "metrics.csv", metrics, cfg.eval_runs)
    _write_eval_log(out_dir / "run.log", metrics)
    print(f"eval: completion_rate={metrics.completion_rate} "
          f"pick_success={metrics.pick_success} "
          f"action_efficiency={metrics.action_efficiency} -> {out_dir}")
    return 0


def _cmd_ablate(args):
    values, cfg = _load_effective_config(args)
    out_dir = _prepare_out(args.out or "out", config_mod.config_text(values))
    rows = []
    for entry in harness.run_ablation(cfg):
        vcfg, metrics = entry.cfg, entry.metrics
        vvalues = {s: dict(k) for s, k in values.items()}
        vvalues["reward"]["kind"] = vcfg.reward_kind
        vvalues["policy"]["kind"] = vcfg.exploration_kind
        text = config_mod.config_text(vvalues)
        vdir = _prepare_out(out_dir / entry.name, text)
        _write_train_outputs(vdir, entry.report, vcfg, text)
        _write_metrics(vdir / "metrics.csv", metrics, vcfg.eval_runs)
        rows.append([entry.name, repr(metrics.completion_rate),
                     _csv_float(metrics.pick_success),
                     _csv_float(metrics.action_efficiency)])
        print(f"ablate[{entry.name}]: completion={rows[-1][1]} "
              f"pick={rows[-1][2]} efficiency={rows[-1][3]}")
    with open(out_dir / "ablation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "completion_rate", "pick_success",
                         "action_efficiency"])
        writer.writerows(rows)
    return 0


def _cmd_inspect(args):
    if args.dump_reward_map:
        return _dump_reward_map(args)
    if not args.checkpoint:
        raise ConfigError("inspect requires a checkpoint path")
    if args.dump_qmap and args.dump_qmap not in {p.value for p in Primitive}:
        raise ConfigError(f"--dump-qmap {args.dump_qmap!r} must be one of "
                          f"{', '.join(p.value for p in Primitive)}")
    header = qfunc.read_checkpoint_header(args.checkpoint)
    for key in (*qfunc.HEADER_FIELDS, "config_hash"):
        print(f"{key}: {header[key]}")
    for name, shape in header["arrays"]:
        print(f"array: {name} shape={'x'.join(map(str, shape))}")
    if args.dump_qmap:
        return _dump_qmap(args)
    return 0


def _dump_qmap(args):
    _, cfg = _load_effective_config(args)
    net = _load_checkpoint_for(cfg, args.checkpoint)
    _, obs = gridsim.reset(cfg.task, cfg.seed)
    primitive = Primitive(args.dump_qmap)
    maps = qfunc.forward_all(net, obs, None, [primitive])[primitive]
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for r in range(maps.shape[0]):
        path = out_dir / f"qmap_{primitive.value}_r{r}.csv"
        np.savetxt(path, maps[r], delimiter=",")
        print(f"wrote {path}")
    return 0


def _dump_reward_map(args):
    _, cfg = _load_effective_config(args)
    task = cfg.task
    arg = f"--dump-reward-map {args.dump_reward_map}"
    try:
        x, y, theta_index, r_tp = args.dump_reward_map.split(",")
        x, y, theta_index, r_tp = int(x), int(y), int(theta_index), float(r_tp)
    except ValueError as exc:
        raise ConfigError(f"--dump-reward-map wants x,y,theta_index,r_tp: {exc}")
    if not (0 <= x < task.width and 0 <= y < task.height):
        raise ConfigError(f"{arg}: pose ({x},{y}) is outside the "
                          f"{task.width}x{task.height} grid")
    if not 0 <= theta_index < task.rotations:
        raise ConfigError(f"{arg}: theta_index must lie in "
                          f"[0, {task.rotations})")
    if not 0 <= r_tp < math.inf:
        raise ConfigError(f"{arg}: r_tp must be finite and >= 0")
    from .reward import tpg_reward_map
    pose = (x, y, gridsim.theta_radians(theta_index, task.rotations))
    rmap = tpg_reward_map(r_tp, pose, cfg.reward, (task.height, task.width))
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "reward_map.csv"
    np.savetxt(path, rmap.grid, delimiter=",")
    print(f"wrote {path}")
    return 0


def _cmd_selftest(args):
    checks = selftest.run_all(fast=args.fast)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    return 0 if all(c.passed for c in checks) else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridmanip",
        description="Grid-world manipulation RL lab: train, evaluate and "
                    "ablate pixel-wise Q policies.")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="path to the run config (INI sections)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. reward.sigma_y=2.0")

    for name, fn in (("train", _cmd_train), ("eval", _cmd_eval),
                     ("ablate", _cmd_ablate)):
        p = sub.add_parser(name)
        common(p)
        if name == "eval":
            p.add_argument("--checkpoint", help="trained checkpoint to evaluate")
        if name == "train":
            p.add_argument("--dump-replay", action="store_true",
                           help="write the final replay buffer as JSON lines")
        p.set_defaults(fn=fn)

    p = sub.add_parser("inspect")
    p.add_argument("checkpoint", nargs="?", help="checkpoint file to describe")
    common(p)
    p.add_argument("--dump-qmap", metavar="PRIMITIVE",
                   help="write per-rotation Q maps for a primitive as CSV")
    p.add_argument("--dump-reward-map", metavar="X,Y,THETA,R_TP",
                   help="write the smoothed reward map for a pose as CSV")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("selftest")
    p.add_argument("--fast", action="store_true",
                   help="reduced draw counts for smoke testing")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_usage()
        return 1
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except TrainingDivergence as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
