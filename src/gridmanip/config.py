"""Run configuration: flat key/value text with one section per module.

``SCHEMA`` is the one place a config key is declared: its section, its
default text and the parser that turns the text into a typed value. The
defaults, the known-key check, the echo order and the typed ``RunConfig``
all come from it, and the tests check ``configs/default.ini`` against it.
The effective configuration (file plus --set overrides) is echoed verbatim
next to the run outputs so any run can be relaunched from its echo alone.
Unknown sections or keys are rejected by name. The typed config objects are
frozen and check their values and kinds when they are built, so every
``RunConfig`` that exists is valid. Every config problem, here or there,
raises the one ``ConfigError``; where a value is at fault it names the key.
"""

import configparser
import io

from .gridsim import ConfigError, Primitive, TaskConfig, TaskKind
from .harness import RunConfig
from .policy import ExplorationState
from .qfunc import TrainHyper
from .reward import RewardParams


def _primitives(raw):
    return tuple(Primitive(name.strip()) for name in raw.split(",")
                 if name.strip())


# section -> key -> (default text, parser), in echo order.
SCHEMA = {
    "task": {
        "kind": ("block_stacking", TaskKind),
        "width": ("10", int),
        "height": ("10", int),
        "n_blocks": ("5", int),
        "goal_stack_height": ("2", int),
        "allowed_primitives": ("pick,place", _primitives),
        "max_steps": ("0", int),
        "push_distance": ("2", int),
        "fail_limit": ("10", int),
        "rotations": ("4", int),
        "layout": ("", str),
    },
    "reward": {
        "kind": ("tpg", str),
        "weight_push": ("0.5", float),
        "weight_pick": ("1.0", float),
        "weight_place": ("1.0", float),
        "sigma_y": ("0.5", float),
        "anisotropy": ("2.0", float),
    },
    "policy": {
        "kind": ("lae", str),
        "alpha_scale": ("1.0", float),
        "sigma": ("0.01", float),
        "beta": ("0.01", float),
        "epsilon_init": ("0.9", float),
        "decay_floor": ("0.1", float),
        "decay_span": ("0.4", float),
        "decay_rate": ("0.9998", float),
    },
    "network": {
        "hidden_channels": ("16", int),
        "lr": ("0.03", float),
        "momentum": ("0.9", float),
        "gamma": ("0.5", float),
        "batch_size": ("8", int),
        "loss_alpha": ("1.0", float),
        "loss_scale": ("1.0", float),
    },
    "replay": {
        "capacity": ("2000", int),
        "rank_exponent": ("0.7", float),
    },
    "run": {
        "train_steps": ("2000", int),
        "eval_runs": ("30", int),
        "seed": ("0", int),
        "checkpoint_every": ("500", int),
        "window": ("100", int),
    },
}

DEFAULTS = {section: {key: default for key, (default, _) in keys.items()}
            for section, keys in SCHEMA.items()}


def default_config() -> dict:
    return {section: dict(keys) for section, keys in DEFAULTS.items()}


def _validate_keys(values: dict):
    for section, keys in values.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in keys:
            if key not in SCHEMA[section]:
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


def build_run_config(values: dict) -> RunConfig:
    """Materialize the typed RunConfig from string values; building it
    checks it, so a bad config fails before any work starts."""
    typed = {section: {key: _convert(section, key, values[section][key], parse)
                       for key, (_, parse) in keys.items()}
             for section, keys in SCHEMA.items()}
    reward, policy, network = typed["reward"], typed["policy"], typed["network"]
    reward_kind = reward.pop("kind")
    weights = {p: reward.pop(f"weight_{p.value}") for p in Primitive}
    exploration_kind = policy.pop("kind")
    decay = {k: policy.pop(k) for k in ("decay_floor", "decay_span", "decay_rate")}
    sizes = {k: network.pop(k) for k in ("hidden_channels", "batch_size")}
    return RunConfig(
        task=TaskConfig(**typed["task"]),
        reward=RewardParams(weights=weights, **reward),
        exploration=ExplorationState(epsilon=policy.pop("epsilon_init"),
                                     **policy),
        hyper=TrainHyper(**network),
        reward_kind=reward_kind,
        exploration_kind=exploration_kind,
        replay_capacity=typed["replay"]["capacity"],
        rank_exponent=typed["replay"]["rank_exponent"],
        **decay, **sizes, **typed["run"])
