"""Run configuration: flat key/value text with one section per module.

The effective configuration (file plus --set overrides) is echoed verbatim
next to the run outputs so any run can be relaunched from its echo alone.
Unknown sections or keys are rejected by name.
"""

import configparser
import io

from .gridsim import Primitive, TaskConfig, TaskKind
from .harness import RunConfig
from .policy import ExplorationState
from .qfunc import TrainHyper
from .reward import RewardParams


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "task": {
        "kind": "block_stacking",
        "width": "10",
        "height": "10",
        "n_blocks": "5",
        "goal_stack_height": "2",
        "allowed_primitives": "pick,place",
        "max_steps": "0",
        "push_distance": "2",
        "fail_limit": "10",
        "rotations": "4",
        "layout": "",
    },
    "reward": {
        "kind": "tpg",
        "weight_push": "0.5",
        "weight_pick": "1.0",
        "weight_place": "1.0",
        "sigma_y": "0.5",
        "anisotropy": "2.0",
    },
    "policy": {
        "kind": "lae",
        "alpha_scale": "1.0",
        "sigma": "0.01",
        "beta": "0.01",
        "epsilon_init": "0.9",
        "decay_floor": "0.1",
        "decay_span": "0.4",
        "decay_rate": "0.9998",
    },
    "network": {
        "hidden_channels": "16",
        "lr": "0.03",
        "momentum": "0.9",
        "gamma": "0.5",
        "batch_size": "8",
        "loss_alpha": "1.0",
        "loss_scale": "1.0",
    },
    "replay": {
        "capacity": "2000",
        "rank_exponent": "0.7",
    },
    "run": {
        "train_steps": "2000",
        "eval_runs": "30",
        "seed": "0",
        "checkpoint_every": "500",
        "window": "100",
    },
}


def default_config() -> dict:
    return {section: dict(keys) for section, keys in DEFAULTS.items()}


def _validate_keys(values: dict):
    for section, keys in values.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in keys:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")


def load_config(path) -> dict:
    """Read an INI file on top of the defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    loaded = {s: dict(parser.items(s)) for s in parser.sections()}
    _validate_keys(loaded)
    values = default_config()
    for section, keys in loaded.items():
        values[section].update(keys)
    return values


def apply_overrides(values: dict, overrides):
    """Apply repeatable ``section.key=value`` settings in place."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        section, key = dotted.split(".", 1)
        _validate_keys({section: {key: raw}})
        values[section][key] = raw
    return values


def config_text(values: dict) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    for section in DEFAULTS:
        parser[section] = {k: values[section][k] for k in DEFAULTS[section]}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _convert(section, key, raw, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}={raw!r}: {exc}") from exc


def _primitives(raw):
    names = [p.strip() for p in raw.split(",") if p.strip()]
    out = []
    for name in names:
        try:
            out.append(Primitive(name))
        except ValueError:
            raise ConfigError(f"unknown primitive {name!r} in allowed_primitives")
    return tuple(out)


def build_run_config(values: dict) -> RunConfig:
    """Materialize the typed RunConfig from string values and validate it,
    so a bad config fails before any work starts."""
    t, r, p, n, rp, run = (values["task"], values["reward"], values["policy"],
                           values["network"], values["replay"], values["run"])
    try:
        task_kind = TaskKind(t["kind"])
    except ValueError:
        raise ConfigError(f"task.kind={t['kind']!r} is not a known task")
    task = TaskConfig(
        kind=task_kind,
        n_blocks=_convert("task", "n_blocks", t["n_blocks"], int),
        width=_convert("task", "width", t["width"], int),
        height=_convert("task", "height", t["height"], int),
        goal_stack_height=_convert("task", "goal_stack_height",
                                   t["goal_stack_height"], int),
        allowed_primitives=_primitives(t["allowed_primitives"]),
        max_steps=_convert("task", "max_steps", t["max_steps"], int),
        push_distance=_convert("task", "push_distance", t["push_distance"], int),
        fail_limit=_convert("task", "fail_limit", t["fail_limit"], int),
        rotations=_convert("task", "rotations", t["rotations"], int),
        layout=t["layout"],
    )
    reward = RewardParams(
        weights={
            Primitive.PUSH: _convert("reward", "weight_push", r["weight_push"], float),
            Primitive.PICK: _convert("reward", "weight_pick", r["weight_pick"], float),
            Primitive.PLACE: _convert("reward", "weight_place", r["weight_place"], float),
        },
        sigma_y=_convert("reward", "sigma_y", r["sigma_y"], float),
        anisotropy=_convert("reward", "anisotropy", r["anisotropy"], float),
    )
    epsilon_init = _convert("policy", "epsilon_init", p["epsilon_init"], float)
    exploration = ExplorationState(
        epsilon=epsilon_init,
        beta=_convert("policy", "beta", p["beta"], float),
        sigma=_convert("policy", "sigma", p["sigma"], float),
        alpha_scale=_convert("policy", "alpha_scale", p["alpha_scale"], float),
        epsilon_init=epsilon_init,
    )
    hyper = TrainHyper(
        lr=_convert("network", "lr", n["lr"], float),
        momentum=_convert("network", "momentum", n["momentum"], float),
        gamma=_convert("network", "gamma", n["gamma"], float),
        loss_alpha=_convert("network", "loss_alpha", n["loss_alpha"], float),
        loss_scale=_convert("network", "loss_scale", n["loss_scale"], float),
    )
    if r["kind"] not in ("tpg", "baseline"):
        raise ConfigError(f"reward.kind={r['kind']!r} must be tpg or baseline")
    if p["kind"] not in ("lae", "decay"):
        raise ConfigError(f"policy.kind={p['kind']!r} must be lae or decay")
    cfg = RunConfig(
        task=task,
        reward=reward,
        exploration=exploration,
        hyper=hyper,
        reward_kind=r["kind"],
        exploration_kind=p["kind"],
        decay_floor=_convert("policy", "decay_floor", p["decay_floor"], float),
        decay_span=_convert("policy", "decay_span", p["decay_span"], float),
        decay_rate=_convert("policy", "decay_rate", p["decay_rate"], float),
        hidden_channels=_convert("network", "hidden_channels",
                                 n["hidden_channels"], int),
        batch_size=_convert("network", "batch_size", n["batch_size"], int),
        replay_capacity=_convert("replay", "capacity", rp["capacity"], int),
        rank_exponent=_convert("replay", "rank_exponent", rp["rank_exponent"], float),
        train_steps=_convert("run", "train_steps", run["train_steps"], int),
        eval_runs=_convert("run", "eval_runs", run["eval_runs"], int),
        seed=_convert("run", "seed", run["seed"], int),
        checkpoint_every=_convert("run", "checkpoint_every",
                                  run["checkpoint_every"], int),
        window=_convert("run", "window", run["window"], int),
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
