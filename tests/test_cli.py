import configparser
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridmanip import config as config_mod
from gridmanip import harness
from gridmanip.cli import main
from gridmanip.config import ConfigError
from gridmanip.gridsim import Primitive, TaskConfig, TaskKind
from gridmanip.harness import RunConfig
from gridmanip.policy import epsilon_greedy_decay
from gridmanip.qfunc import QNetwork, TrainingDivergence, save_checkpoint
from gridmanip.replay import ReplayBuffer

DEFAULT_INI = Path(__file__).resolve().parent.parent / "configs" / "default.ini"


TINY = """
[task]
kind = block_stacking
width = 7
height = 7
n_blocks = 4
goal_stack_height = 2
allowed_primitives = pick,place

[run]
train_steps = 50
eval_runs = 3
seed = 0
checkpoint_every = 25
"""

CLUTTER = """
[task]
kind = clutter_removal
width = 7
height = 7
n_blocks = 3
goal_stack_height = 0
allowed_primitives = push,pick

[run]
train_steps = 30
eval_runs = 3
seed = 1
"""


# Overrides that turn TINY into a scripted 4x1 arrangement, less its layout.
SCRIPTED_4X1 = ("task.kind=scripted_arrangement task.width=4 task.height=1 "
                "task.rotations=1 task.n_blocks=0")


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return path


@pytest.fixture
def clutter_cfg(tmp_path):
    path = tmp_path / "clutter.ini"
    path.write_text(CLUTTER)
    return path


class TestConfigModule:
    def test_defaults_round_trip(self):
        values = config_mod.default_config()
        text = config_mod.config_text(values)
        assert "[task]" in text and "[replay]" in text
        config_mod.build_run_config(values)

    def test_default_ini_matches_table(self):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(DEFAULT_INI)
        shipped = {s: list(parser.items(s)) for s in parser.sections()}
        table = {s: list(keys.items())
                 for s, keys in config_mod.DEFAULTS.items()}
        assert list(shipped) == list(table)
        assert shipped == table

    def test_dataclass_defaults_match_table(self):
        cfg = config_mod.build_run_config(config_mod.default_config())
        assert cfg == RunConfig(task=TaskConfig(
            kind=TaskKind.BLOCK_STACKING, n_blocks=5, goal_stack_height=2,
            allowed_primitives=(Primitive.PICK, Primitive.PLACE)))

    def test_keyword_defaults_match_table(self):
        # Code that builds these parts without a config gets the defaults.
        table = {section: {key: parse(text)
                           for key, (text, parse) in keys.items()}
                 for section, keys in config_mod.SCHEMA.items()}

        def keyword_defaults(fn):
            return {name: p.default
                    for name, p in inspect.signature(fn).parameters.items()
                    if p.default is not p.empty}
        assert keyword_defaults(QNetwork.init) == {
            "hidden_channels": table["network"]["hidden_channels"],
            "rotations": table["task"]["rotations"]}
        assert keyword_defaults(ReplayBuffer) == {
            "capacity": table["replay"]["capacity"],
            "rank_exponent": table["replay"]["rank_exponent"],
            "max_height": table["task"]["n_blocks"]}
        assert keyword_defaults(epsilon_greedy_decay) == {
            "floor": table["policy"]["decay_floor"],
            "span": table["policy"]["decay_span"],
            "rate": table["policy"]["decay_rate"]}

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[task]\nwobble = 3\n")
        with pytest.raises(ConfigError, match="task.wobble"):
            config_mod.load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[warp]\nspeed = 3\n")
        with pytest.raises(ConfigError, match="warp"):
            config_mod.load_config(path)

    def test_override_applies(self):
        values = config_mod.default_config()
        config_mod.apply_overrides(values, ["reward.sigma_y=2.0"])
        assert values["reward"]["sigma_y"] == "2.0"
        cfg = config_mod.build_run_config(values)
        assert cfg.reward.sigma_y == 2.0

    def test_override_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="reward.nope"):
            config_mod.apply_overrides(config_mod.default_config(),
                                       ["reward.nope=1"])

    def test_override_requires_assignment(self):
        with pytest.raises(ConfigError):
            config_mod.apply_overrides(config_mod.default_config(),
                                       ["reward.sigma_y"])

    def test_bad_value_reported(self):
        values = config_mod.default_config()
        values["network"]["lr"] = "fast"
        with pytest.raises(ConfigError, match="network.lr"):
            config_mod.build_run_config(values)

    def test_bad_primitive_reported(self):
        values = config_mod.default_config()
        values["task"]["allowed_primitives"] = "pick,teleport"
        with pytest.raises(ConfigError, match="teleport"):
            config_mod.build_run_config(values)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        f"{section}.{key}" for section, keys in config_mod.SCHEMA.items()
        for key, (_, kind) in keys.items() if kind is float])
    def test_non_finite_float_rejected(self, key, bad):
        values = config_mod.apply_overrides(config_mod.default_config(),
                                            [f"{key}={bad}"])
        with pytest.raises(ConfigError):
            config_mod.build_run_config(values)


class TestTrainCommand:
    def test_outputs_exist(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_cfg), "--out", str(out)]) == 0
        for name in ("run.log", "curves.csv", "checkpoint.bin",
                     "checkpoint.meta", "config.echo"):
            assert (out / name).exists(), name
        assert (out / "checkpoint_step000025.bin").exists()
        assert (out / "checkpoint_step000050.bin").exists()
        log = (out / "run.log").read_text().splitlines()
        assert len(log) == 50
        assert log[0].startswith("step=0 phi=")

    @pytest.mark.parametrize("diverge_at, written", [
        (10, []), (40, ["checkpoint_step000025.bin"])])
    def test_divergence_names_the_last_periodic_checkpoint(
            self, tiny_cfg, tmp_path, monkeypatch, capsys, diverge_at,
            written):
        real_train = harness.train

        def train(cfg, checkpoint_cb=None):
            # The real loop, raising once step diverge_at is done.
            def cb(step, net):
                if step % cfg.checkpoint_every == 0:
                    checkpoint_cb(step, net)
                if step == diverge_at:
                    raise TrainingDivergence("non-finite training loss inf")
            return real_train(replace(cfg, checkpoint_every=1), cb)
        monkeypatch.setattr(harness, "train", train)
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_cfg), "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert "training diverged: non-finite training loss inf" in err
        assert sorted(p.name for p in out.glob("checkpoint_step*.bin")) == \
            written
        if written:
            assert f"(last periodic checkpoint {out / written[-1]})" in err
        else:
            assert "(no periodic checkpoint was written)" in err

    def test_rerun_byte_identical(self, tiny_cfg, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", str(tiny_cfg), "--out", str(out_a)])
        main(["train", "--config", str(tiny_cfg), "--out", str(out_b)])
        assert (out_a / "run.log").read_bytes() == (out_b / "run.log").read_bytes()
        assert (out_a / "checkpoint.bin").read_bytes() == \
            (out_b / "checkpoint.bin").read_bytes()

    def test_echo_relaunch_matches(self, tiny_cfg, tmp_path):
        out_a = tmp_path / "a"
        main(["train", "--config", str(tiny_cfg), "--out", str(out_a),
              "--set", "reward.sigma_y=0.4"])
        out_b = tmp_path / "b"
        main(["train", "--config", str(out_a / "config.echo"),
              "--out", str(out_b)])
        assert (out_a / "run.log").read_bytes() == (out_b / "run.log").read_bytes()

    def test_override_reflected_in_echo(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out", str(out),
              "--set", "reward.sigma_y=2.0", "--set", "run.train_steps=10"])
        echo = (out / "config.echo").read_text()
        assert "sigma_y = 2.0" in echo
        assert "train_steps = 10" in echo

    def test_seed_flag_overrides(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out", str(out),
              "--seed", "9"])
        assert "seed = 9" in (out / "config.echo").read_text()

    def test_replay_dump_flag(self, tiny_cfg, tmp_path):
        import json
        out = tmp_path / "run"
        main(["train", "--config", str(tiny_cfg), "--out", str(out),
              "--dump-replay"])
        lines = (out / "replay_dump.jsonl").read_text().splitlines()
        assert len(lines) == 50
        record = json.loads(lines[0])
        assert {"insert_index", "priority", "primitive", "r_t",
                "r_next"} <= record.keys()

    def test_epsilon_init_is_the_first_epsilon(self, tiny_cfg, tmp_path):
        values = config_mod.apply_overrides(config_mod.load_config(tiny_cfg),
                                            ["policy.epsilon_init=0.3"])
        assert config_mod.build_run_config(values).exploration.epsilon == 0.3
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_cfg), "--out", str(out),
                     "--set", "policy.epsilon_init=0.3",
                     "--set", "run.train_steps=5"]) == 0
        first = (out / "run.log").read_text().splitlines()[0]
        assert " eps=0.3 " in first

    def test_run_log_epsilon_is_a_plain_float(self, tmp_path):
        # A tiny sigma saturates the loss transform at its clamp; epsilon
        # must stay a Python float, or run.log prints np.float64(...).
        out = tmp_path / "run"
        assert main(["train", "--config", str(DEFAULT_INI), "--out", str(out),
                     "--set", "policy.sigma=0.0001",
                     "--set", "run.train_steps=60"]) == 0
        assert "np." not in (out / "run.log").read_text()

    def test_missing_config_exit_one(self, capsys):
        assert main(["train"]) == 1
        assert "config" in capsys.readouterr().err

    def test_unknown_override_exit_one(self, tiny_cfg, tmp_path, capsys):
        code = main(["train", "--config", str(tiny_cfg),
                     "--out", str(tmp_path / "x"), "--set", "task.zorp=1"])
        assert code == 1
        assert "task.zorp" in capsys.readouterr().err

    @pytest.mark.parametrize("override, named", [
        ("replay.capacity=4", "replay.capacity"),
        ("replay.capacity=0", "replay.capacity"),
        ("replay.rank_exponent=-0.5", "replay.rank_exponent"),
        ("run.window=0", "run.window"),
        ("network.hidden_channels=0", "network.hidden_channels"),
        ("task.width=8", "task.width"),
        ("reward.kind=nope", "reward.kind"),
        ("policy.kind=nope", "policy.kind"),
        ("network.loss_scale=0", "network.loss_scale"),
        ("network.lr=-1", "network.lr"),
        ("network.momentum=1.5", "network.momentum"),
        ("network.gamma=-2", "network.gamma"),
        ("task.fail_limit=0", "task.fail_limit"),
        ("task.push_distance=0", "task.push_distance"),
        ("policy.decay_rate=1.5", "policy.decay_rate"),
        ("policy.decay_floor=0.9", "policy.decay_floor"),
        ("run.checkpoint_every=-5", "run.checkpoint_every"),
        (f"{SCRIPTED_4X1} task.layout=1x..", "layout character 'x'"),
        (f"{SCRIPTED_4X1} task.width=5 task.layout=1...", "layout must be"),
        (f"{SCRIPTED_4X1} task.layout=....", "layout places no blocks"),
        (f"{SCRIPTED_4X1} task.n_blocks=3 task.layout=1...", "n_blocks=3"),
        ("task.layout=1x..", "task.layout"),
        ("reward.weight_push=inf", "reward.weight_push"),
        ("reward.weight_pick=nan", "reward.weight_pick"),
        ("reward.weight_place=-inf", "reward.weight_place"),
        ("reward.sigma_y=nan", "reward.sigma_y"),
        ("reward.anisotropy=inf", "reward.anisotropy"),
        ("reward.sigma_y=1e-300", "reward.sigma_y=1e-300"),
        ("reward.sigma_y=1e300", "reward.sigma_y=1e+300"),
        ("reward.anisotropy=1e300", "reward.anisotropy=1e+300"),
        ("reward.weight_pick=1e200 reward.weight_place=1e200",
         "reward.weight_pick=1e+200"),
        ("reward.weight_push=1e119 reward.sigma_y=0.1 reward.anisotropy=1",
         "reward.weight_push=1e+119"),
        ("network.loss_scale=1e-200", "network.loss_scale=1e-200"),
        ("policy.alpha_scale=nan", "policy.alpha_scale"),
        ("policy.sigma=inf", "policy.sigma"),
        ("network.loss_alpha=nan", "network.loss_alpha"),
        ("network.loss_alpha=-inf", "network.loss_alpha"),
        ("network.lr=inf", "network.lr"),
        ("network.loss_scale=inf", "network.loss_scale"),
        ("replay.rank_exponent=inf", "replay.rank_exponent"),
        ("replay.rank_exponent=nan", "replay.rank_exponent"),
        ("task.kind=clutter_removal task.n_blocks=0", "task.n_blocks=0"),
        ("task.kind=clutter_removal task.n_blocks=-1", "task.n_blocks=-1"),
        ("task.allowed_primitives=place", "task.allowed_primitives"),
        (f"{SCRIPTED_4X1} task.allowed_primitives=push task.layout=...1",
         "can never act"),
        ("task.kind=clutter_removal task.width=2 task.height=2 "
         "task.n_blocks=4 task.allowed_primitives=push", "can never act"),
    ])
    def test_bad_run_config_exit_one_before_work(self, tiny_cfg, tmp_path,
                                                 capsys, override, named):
        # override: one or more space-separated settings
        out = tmp_path / "x"
        sets = [arg for kv in override.split() for arg in ("--set", kv)]
        code = main(["train", "--config", str(tiny_cfg), "--out", str(out),
                     *sets])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_eval_zero_initialized_checkpoint_smoke(self, clutter_cfg, tmp_path):
        # smoke: eval on a zero-initialized checkpoint must run to
        # completion and write a metrics file (values unasserted)
        net = QNetwork.init(np.random.default_rng(0), 16, 4)
        for stack in net.stacks.values():
            for name, arr in stack.params().items():
                arr[:] = 0.0
        ckpt = tmp_path / "zero.bin"
        save_checkpoint(ckpt, net, (7, 7))
        out = tmp_path / "eval"
        code = main(["eval", "--config", str(clutter_cfg), "--out", str(out),
                     "--checkpoint", str(ckpt)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ("completion_rate,pick_success,action_efficiency,"
                          "completed_runs,eval_runs")
        assert (out / "run.log").read_text().splitlines()[0].startswith("run=0 ")

    def test_eval_requires_checkpoint(self, clutter_cfg, tmp_path, capsys):
        assert main(["eval", "--config", str(clutter_cfg),
                     "--out", str(tmp_path / "x")]) == 1

    def test_eval_grid_mismatch_rejected(self, clutter_cfg, tmp_path):
        net = QNetwork.init(np.random.default_rng(0), 16, 4)
        ckpt = tmp_path / "wrong.bin"
        save_checkpoint(ckpt, net, (9, 9))
        assert main(["eval", "--config", str(clutter_cfg),
                     "--out", str(tmp_path / "x"),
                     "--checkpoint", str(ckpt)]) == 1

    @pytest.mark.parametrize("damage, named", [
        ("nan", "array pick.b3 is not finite"),
        ("truncated", "bytes of array data"),
        ("trailing", "bytes of array data"),
    ])
    def test_bad_checkpoint_exit_one_before_work(self, clutter_cfg, tmp_path,
                                                 capsys, damage, named):
        net = QNetwork.init(np.random.default_rng(0), 16, 4)
        if damage == "nan":
            net.stacks[Primitive.PICK].b3[:] = np.nan
        ckpt = tmp_path / "bad.bin"
        save_checkpoint(ckpt, net, (7, 7))
        raw = ckpt.read_bytes()
        if damage == "truncated":
            ckpt.write_bytes(raw[:-8])
        elif damage == "trailing":
            ckpt.write_bytes(raw + bytes(8))
        out = tmp_path / "x"
        assert main(["eval", "--config", str(clutter_cfg), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mismatch", ["narrow_pick_w1", "header_hidden"])
    def test_array_shape_mismatch_exit_one_before_work(self, clutter_cfg,
                                                       tmp_path, capsys,
                                                       mismatch):
        net = QNetwork.init(np.random.default_rng(0), 16, 4)
        if mismatch == "narrow_pick_w1":
            stack = net.stacks[Primitive.PICK]
            stack.w1 = stack.w1[:, :5].copy()
        else:
            net.hidden_channels = 8
        ckpt = tmp_path / "bad.bin"
        save_checkpoint(ckpt, net, (7, 7))
        out = tmp_path / "x"
        assert main(["eval", "--config", str(clutter_cfg), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 1
        assert "channel counts imply" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rotations", [2, 8])
    def test_rotation_mismatch_exit_one_before_work(self, clutter_cfg, tmp_path,
                                                    capsys, rotations):
        net = QNetwork.init(np.random.default_rng(0), 16, 4)
        ckpt = tmp_path / "four.bin"
        save_checkpoint(ckpt, net, (7, 7))
        out = tmp_path / "x"
        assert main(["eval", "--config", str(clutter_cfg), "--out", str(out),
                     "--checkpoint", str(ckpt),
                     "--set", f"task.rotations={rotations}"]) == 1
        assert "task.rotations" in capsys.readouterr().err
        assert not out.exists()

    def test_hidden_channels_mismatch_exit_one_before_work(self, clutter_cfg,
                                                           tmp_path, capsys):
        net = QNetwork.init(np.random.default_rng(0), 16, 4)
        ckpt = tmp_path / "sixteen.bin"
        save_checkpoint(ckpt, net, (7, 7))
        out = tmp_path / "x"
        assert main(["eval", "--config", str(clutter_cfg), "--out", str(out),
                     "--checkpoint", str(ckpt),
                     "--set", "network.hidden_channels=8"]) == 1
        assert "network.hidden_channels=8" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_byte_identical(self, clutter_cfg, tmp_path):
        train_out = tmp_path / "t"
        main(["train", "--config", str(clutter_cfg), "--out", str(train_out)])
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            main(["eval", "--config", str(clutter_cfg), "--out", str(out),
                  "--checkpoint", str(train_out / "checkpoint.bin")])
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == \
            (outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "run.log").read_bytes() == \
            (outs[1] / "run.log").read_bytes()


class TestAblateCommand:
    def test_ablation_table_and_subdirs(self, tiny_cfg, tmp_path):
        out = tmp_path / "ablate"
        code = main(["ablate", "--config", str(tiny_cfg), "--out", str(out),
                     "--set", "run.train_steps=30", "--set", "run.eval_runs=2"])
        assert code == 0
        table = (out / "ablation.csv").read_text().splitlines()
        assert table[0] == "variant,completion_rate,pick_success,action_efficiency"
        assert [row.split(",")[0] for row in table[1:]] == \
            ["baseline", "tpgr", "full"]
        for variant in ("baseline", "tpgr", "full"):
            assert (out / variant / "run.log").exists()
            assert (out / variant / "metrics.csv").exists()
            echo = (out / variant / "config.echo").read_text()
            if variant == "full":
                assert "kind = lae" in echo
            else:
                assert "kind = decay" in echo

    def test_finished_variants_written_when_a_later_one_diverges(
            self, tiny_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "POOL_START_S", 0.0)   # fork the rest
        real_train = harness.train

        def train(cfg, checkpoint_cb=None):
            if cfg.exploration_kind == "lae":
                raise TrainingDivergence("non-finite training loss nan")
            return real_train(cfg, checkpoint_cb)
        monkeypatch.setattr(harness, "train", train)
        out = tmp_path / "ablate"
        code = main(["ablate", "--config", str(tiny_cfg), "--out", str(out),
                     "--set", "run.train_steps=30", "--set", "run.eval_runs=2"])
        assert code == 2
        printed = capsys.readouterr()
        assert "training diverged" in printed.err
        assert [line.split(":")[0] for line in printed.out.splitlines()] == \
            ["ablate[baseline]", "ablate[tpgr]"]
        for variant in ("baseline", "tpgr"):
            for name in ("run.log", "curves.csv", "checkpoint.bin",
                         "metrics.csv"):
                assert (out / variant / name).exists()
        assert not (out / "full").exists()


class TestInspectCommand:
    def test_header_printed(self, tmp_path, capsys):
        net = QNetwork.init(np.random.default_rng(1), 16, 4)
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(ckpt, net, (7, 7), cfg_hash="cd" * 32)
        assert main(["inspect", str(ckpt)]) == 0
        printed = capsys.readouterr().out
        assert "rotations: 4" in printed
        assert "config_hash: " + "cd" * 32 in printed
        assert "array: push.w1 shape=16x6x3x3" in printed

    def test_header_lines_mirror_meta(self, tmp_path, capsys):
        net = QNetwork.init(np.random.default_rng(1), 16, 4)
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(ckpt, net, (7, 9), cfg_hash="cd" * 32)
        assert main(["inspect", str(ckpt)]) == 0
        printed = capsys.readouterr().out.splitlines()[:7]
        meta = (tmp_path / "ck.meta").read_text().splitlines()[:7]
        assert printed == [line.replace("=", ": ", 1) for line in meta]
        assert printed == ["version: 1", "rotations: 4", "in_channels: 6",
                           "hidden_channels: 16", "grid_height: 7",
                           "grid_width: 9", "config_hash: " + "cd" * 32]

    def test_missing_checkpoint_exit_one(self, capsys):
        assert main(["inspect"]) == 1

    def test_corrupt_header_exit_one(self, tmp_path, capsys):
        ckpt = tmp_path / "cut.bin"
        ckpt.write_bytes(b"GMQN\x01\x00")
        assert main(["inspect", str(ckpt)]) == 1
        assert "corrupt header" in capsys.readouterr().err

    def test_dump_reward_map(self, tiny_cfg, tmp_path):
        out = tmp_path / "dump"
        code = main(["inspect", "--config", str(tiny_cfg), "--out", str(out),
                     "--dump-reward-map", "3,3,0,0.8"])
        assert code == 0
        grid = np.loadtxt(out / "reward_map.csv", delimiter=",")
        assert grid.shape == (7, 7)
        assert grid[3, 3] == pytest.approx(0.8)

    @pytest.mark.parametrize("arg", [
        "--dump-reward-map=-1,0,0,1.0",     # off the 7x7 grid, left
        "--dump-reward-map=7,0,0,1.0",      # off the 7x7 grid, right
        "--dump-reward-map=0,0,4,1.0",      # theta_index >= task.rotations
        "--dump-reward-map=0,0,0,-1",       # negative reward
        "--dump-reward-map=0,0,0,nan",
        "--dump-qmap=nope",
    ])
    def test_bad_argument_exit_one_before_work(self, tiny_cfg, tmp_path,
                                               capsys, arg):
        net = QNetwork.init(np.random.default_rng(1), 16, 4)
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(ckpt, net, (7, 7))
        out = tmp_path / "dump"
        assert main(["inspect", str(ckpt), "--config", str(tiny_cfg),
                     "--out", str(out), arg]) == 1
        assert arg.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_dump_qmap(self, tiny_cfg, tmp_path):
        net = QNetwork.init(np.random.default_rng(1), 16, 4)
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(ckpt, net, (7, 7))
        out = tmp_path / "dump"
        code = main(["inspect", str(ckpt), "--config", str(tiny_cfg),
                     "--out", str(out), "--dump-qmap", "pick"])
        assert code == 0
        for r in range(4):
            grid = np.loadtxt(out / f"qmap_pick_r{r}.csv", delimiter=",")
            assert grid.shape == (7, 7)

    @pytest.mark.parametrize("rotations, grid, named", [
        (2, (10, 10), "task.rotations=4"),
        (4, (7, 7), "task.height=10"),
    ])
    def test_dump_qmap_mismatch_exit_one_before_work(self, tmp_path, capsys,
                                                     rotations, grid, named):
        net = QNetwork.init(np.random.default_rng(1), 16, rotations)
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(ckpt, net, grid)
        out = tmp_path / "dump"
        code = main(["inspect", str(ckpt), "--config", str(DEFAULT_INI),
                     "--out", str(out), "--dump-qmap", "pick"])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not list(tmp_path.rglob("qmap_*.csv"))

    def test_dump_qmap_hidden_channels_mismatch_exit_one_before_work(
            self, tmp_path, capsys):
        net = QNetwork.init(np.random.default_rng(1), 16, 4)
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(ckpt, net, (10, 10))
        out = tmp_path / "dump"
        code = main(["inspect", str(ckpt), "--config", str(DEFAULT_INI),
                     "--out", str(out), "--dump-qmap", "pick",
                     "--set", "network.hidden_channels=8"])
        assert code == 1
        assert "network.hidden_channels=8" in capsys.readouterr().err
        assert not out.exists()


class TestSelftestCommand:
    def test_fast_selftest_passes(self, capsys):
        assert main(["selftest", "--fast"]) == 0
        printed = capsys.readouterr().out
        assert "[PASS] convolution" in printed
        assert "[PASS] gradient" in printed


class TestUsage:
    def test_no_subcommand_exit_one(self, capsys):
        assert main([]) == 1
