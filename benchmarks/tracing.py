"""In-memory span tracing at the boundaries between gridmanip's layers.

Spans are recorded by wrapping the names that ``harness`` and ``cli`` call
into each layer (``harness.forward_all``, ``gridsim.step``,
``ReplayBuffer.push``, ...), so the program itself is untouched. Each span
keeps its name, start, end, the index of the enclosing span and the phase
("setup" or "run") it belongs to; spans stay in memory until the run ends.
A layer's self time is its span's duration minus the time covered by the
wrapped spans directly inside it.
"""

import functools
import time

from gridmanip import cli, config, gridsim, harness, qfunc, replay

RUN, SETUP = "run", "setup"


def layer_targets():
    """(layer name, owner object, attribute) for every traced boundary.

    The owner is where the caller looks the name up: ``harness`` imports
    ``forward_all`` and friends by name, while ``gridsim.step``,
    ``harness.train`` and ``qfunc.save_checkpoint`` are looked up on their
    module at call time.
    """
    buffer = replay.ReplayBuffer
    return [
        ("cli.main", cli, "main"),
        ("config.build_run_config", config, "build_run_config"),
        ("harness.train", harness, "train"),
        ("harness.evaluate", harness, "evaluate"),
        ("gridsim.reset", gridsim, "reset"),
        ("gridsim.step", gridsim, "step"),
        ("gridsim.valid_action_mask", harness, "valid_action_mask"),
        ("qfunc.forward_all", harness, "forward_all"),
        ("qfunc.train_step", harness, "train_step"),
        ("qfunc.save_checkpoint", qfunc, "save_checkpoint"),
        ("qfunc.load_checkpoint", qfunc, "load_checkpoint"),
        ("policy.select_action", harness, "select_action"),
        ("policy.greedy_action", harness, "greedy_action"),
        ("policy.update_exploration", harness, "update_exploration"),
        ("reward.tpg_reward_map", harness, "tpg_reward_map"),
        ("reward.spike_reward_map", harness, "spike_reward_map"),
        ("replay.push", buffer, "push"),
        ("replay.sample", buffer, "sample"),
        ("replay.sampleable_count", buffer, "sampleable_count"),
        ("replay.update_priorities", buffer, "update_priorities"),
        ("replay.finalize_pending", buffer, "finalize_pending"),
    ]


LAYERS = tuple(name for name, _, _ in layer_targets())


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, phase]
        self.phase = SETUP
        self._open = []
        self._installed = []

    def __enter__(self):
        for name, owner, attr in layer_targets():
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, name, original):
        spans, open_spans = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    open_spans[-1] if open_spans else -1, self.phase]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()
        return traced

    def layer_metrics(self):
        """``[setup.]<layer>.ms`` (self time) and ``.calls`` for every layer,
        zero for layers the phase never entered."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals = {}
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            key = name if phase == RUN else f"setup.{name}"
            ms, calls = totals.get(key, (0.0, 0))
            totals[key] = (ms + (end - start - child_s[i]) * 1e3, calls + 1)
        out = {}
        for prefix in ("", "setup."):
            for name in LAYERS:
                ms, calls = totals.get(prefix + name, (0.0, 0))
                out[f"{prefix}{name}.ms"] = (ms, "ms")
                out[f"{prefix}{name}.calls"] = (calls, "count")
        return out

    def span_records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "phase": phase}
                for name, start, end, parent, phase in self.spans]
