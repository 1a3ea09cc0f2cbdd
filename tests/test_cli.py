import configparser
from pathlib import Path

import numpy as np
import pytest

from gridmanip import config as config_mod
from gridmanip import harness
from gridmanip.cli import main
from gridmanip.config import ConfigError
from gridmanip.gridsim import Primitive, TaskConfig, TaskKind
from gridmanip.harness import RunConfig
from gridmanip.qfunc import QNetwork, TrainingDivergence, save_checkpoint

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
        cfg = config_mod.build_run_config(values)
        cfg.validate()

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
        net = QNetwork.init(np.random.default_rng(0), 6, 16, 4)
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
        net = QNetwork.init(np.random.default_rng(0), 6, 16, 4)
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
        net = QNetwork.init(np.random.default_rng(0), 6, 16, 4)
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
        net = QNetwork.init(np.random.default_rng(1), 6, 16, 4)
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(ckpt, net, (7, 7), cfg_hash="cd" * 32)
        assert main(["inspect", str(ckpt)]) == 0
        printed = capsys.readouterr().out
        assert "rotations: 4" in printed
        assert "config_hash: " + "cd" * 32 in printed
        assert "array: push.w1 shape=16x6x3x3" in printed

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

    def test_dump_qmap(self, tiny_cfg, tmp_path):
        net = QNetwork.init(np.random.default_rng(1), 6, 16, 4)
        ckpt = tmp_path / "ck.bin"
        save_checkpoint(ckpt, net, (7, 7))
        out = tmp_path / "dump"
        code = main(["inspect", str(ckpt), "--config", str(tiny_cfg),
                     "--out", str(out), "--dump-qmap", "pick"])
        assert code == 0
        for r in range(4):
            grid = np.loadtxt(out / f"qmap_pick_r{r}.csv", delimiter=",")
            assert grid.shape == (7, 7)


class TestSelftestCommand:
    def test_fast_selftest_passes(self, capsys):
        assert main(["selftest", "--fast"]) == 0
        printed = capsys.readouterr().out
        assert "[PASS] convolution" in printed
        assert "[PASS] gradient" in printed


class TestUsage:
    def test_no_subcommand_exit_one(self, capsys):
        assert main([]) == 1
