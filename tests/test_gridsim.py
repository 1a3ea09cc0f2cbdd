
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gridmanip import gridsim
from gridmanip.gridsim import (PRIMITIVE_ORDER, Action, ConfigError,
                               ContractViolation, DoneReason, Primitive,
                               TaskConfig, TaskKind)
from gridmanip.qfunc import stack_input


def scene_channels(ws):
    """The (3, h, w) scene channels of the network's input for ``ws``."""
    h, w = ws.heights.shape
    obs = gridsim.observe(ws)
    x = stack_input(obs.heights, obs.holding, obs.height_norm, None)
    return x[:3 * h * w].reshape(3, h, w)


def clutter_task(n=10, width=14, height=14, **kw):
    return TaskConfig(kind=TaskKind.CLUTTER_REMOVAL, n_blocks=n,
                      width=width, height=height, **kw)


def stacking_task(n=10, goal=4, width=14, height=14, **kw):
    return TaskConfig(kind=TaskKind.BLOCK_STACKING, n_blocks=n,
                      goal_stack_height=goal, width=width, height=height, **kw)


class TestReset:
    def test_clutter_occupancy_conserves_blocks(self):
        ws, obs = gridsim.reset(clutter_task(n=10), seed=7)
        assert (obs.heights > 0).sum() == 10
        assert ws.heights.sum() == 10

    def test_same_seed_bit_identical(self):
        _, obs_a = gridsim.reset(clutter_task(n=10), seed=7)
        _, obs_b = gridsim.reset(clutter_task(n=10), seed=7)
        assert np.array_equal(obs_a.heights, obs_b.heights)

    def test_stacking_initial_heights_all_one(self):
        ws, _ = gridsim.reset(stacking_task(n=10, goal=4), seed=3)
        assert set(np.unique(ws.heights)) == {0, 1}
        assert ws.heights.max() == 1

    def test_grid_too_small_rejected(self):
        with pytest.raises(ConfigError):
            gridsim.reset(clutter_task(n=10, width=3, height=3), seed=0)

    def test_gripper_empty_and_streak_zero(self):
        ws, _ = gridsim.reset(stacking_task(), seed=5)
        assert not ws.holding
        assert ws.failure_streak == 0

    def test_bad_goal_height_rejected(self):
        with pytest.raises(ConfigError):
            stacking_task(n=3, goal=5)
        with pytest.raises(ConfigError):
            stacking_task(n=3, goal=1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_clutter_without_blocks_rejected(self, n):
        with pytest.raises(ConfigError, match=f"task.n_blocks={n}"):
            clutter_task(n=n)

    def test_place_alone_rejected(self):
        for make in (clutter_task, stacking_task):
            with pytest.raises(ConfigError, match="task.allowed_primitives"):
                make(allowed_primitives=(Primitive.PLACE,))
        clutter_task(allowed_primitives=(Primitive.PUSH, Primitive.PLACE))

    def test_max_steps_defaults_to_eight_per_block(self):
        assert clutter_task(n=10).max_steps == 80

    def test_kind_must_be_a_task_kind(self):
        # A bare string would skip the goal check and run clutter rules.
        with pytest.raises(ConfigError, match="task.kind='block_stacking'"):
            TaskConfig(kind="block_stacking", n_blocks=3, goal_stack_height=9)

    @pytest.mark.parametrize("prims", [
        (Primitive.PLACE, Primitive.PICK, Primitive.PICK),
        [Primitive.PLACE, Primitive.PICK],
        {Primitive.PICK, Primitive.PLACE},
    ])
    def test_allowed_primitives_canonical(self, prims):
        task = stacking_task(allowed_primitives=prims)
        assert task.allowed_primitives == (Primitive.PICK, Primitive.PLACE)
        assert task == stacking_task(
            allowed_primitives=(Primitive.PICK, Primitive.PLACE))

    def test_allowed_primitives_must_be_primitives(self):
        with pytest.raises(ConfigError, match="task.allowed_primitives"):
            stacking_task(allowed_primitives=("pick", Primitive.PLACE))

    @pytest.mark.parametrize("task", [
        # Every cell holds a block: no push has a free cell to go to.
        dict(kind=TaskKind.CLUTTER_REMOVAL, n_blocks=4, width=2, height=2,
             rotations=4),
        # One column, and the only push directions are along the row.
        dict(kind=TaskKind.CLUTTER_REMOVAL, n_blocks=1, width=1, height=3,
             rotations=2),
        # The scripted block sits against the edge it would be pushed over.
        dict(kind=TaskKind.SCRIPTED_ARRANGEMENT, n_blocks=0, width=4,
             height=1, rotations=1, layout="...1"),
    ], ids=["full_grid", "no_direction_fits", "scripted_at_edge"])
    @pytest.mark.parametrize("prims", [(Primitive.PUSH,),
                                       (Primitive.PUSH, Primitive.PLACE)],
                             ids=["push", "push_place"])
    def test_push_without_pick_that_never_acts_rejected(self, task, prims):
        with pytest.raises(ConfigError, match="can never act"):
            TaskConfig(**task, allowed_primitives=prims)
        # With pick allowed too, every reset can act.
        TaskConfig(**task, allowed_primitives=prims + (Primitive.PICK,))


def find_block(ws):
    occupied = np.argwhere(ws.heights)
    assert len(occupied), "no block on grid"
    y, x = occupied[0]
    return int(x), int(y)


class TestPush:
    def test_push_empty_cell_is_noop(self):
        ws, _ = gridsim.reset(clutter_task(n=1, width=5, height=5), seed=0)
        x, y = find_block(ws)
        empty = next((xx, yy) for yy in range(5) for xx in range(5)
                     if (xx, yy) != (x, y))
        before = ws.heights.copy()
        res = gridsim.step(ws, Action(Primitive.PUSH, empty[0], empty[1], 0))
        assert res.primitive_success == 0
        assert np.array_equal(ws.heights, before)

    def test_push_slides_stack_up_to_distance(self):
        task = clutter_task(n=1, width=9, height=9)
        ws, _ = gridsim.reset(task, seed=1)
        x, y = find_block(ws)
        ws.heights[y, x] = 0
        ws.heights[4, 2] = 1
        res = gridsim.step(ws, Action(Primitive.PUSH, 2, 4, 0))  # theta 0 -> +x
        assert res.primitive_success == 1
        assert ws.heights[4, 4] == 1
        assert ws.heights[4, 2] == 0

    def test_push_stops_before_occupied(self):
        ws, _ = gridsim.reset(clutter_task(n=2, width=9, height=9), seed=1)
        ws.heights[:] = 0
        ws.heights[4, 2] = 1
        ws.heights[4, 4] = 1
        res = gridsim.step(ws, Action(Primitive.PUSH, 2, 4, 0))
        assert res.primitive_success == 1
        assert ws.heights[4, 3] == 1

    def test_push_against_boundary_fails(self):
        ws, _ = gridsim.reset(clutter_task(n=1, width=5, height=5), seed=1)
        x, y = find_block(ws)
        ws.heights[y, x] = 0
        ws.heights[2, 4] = 1          # east edge
        res = gridsim.step(ws, Action(Primitive.PUSH, 4, 2, 0))
        assert res.primitive_success == 0
        assert ws.heights[2, 4] == 1

    def test_push_moves_whole_stack(self):
        ws, _ = gridsim.reset(stacking_task(n=3, goal=2, width=7, height=7), seed=2)
        ws.heights[:] = 0
        ws.heights[3, 3] = 2
        gridsim.step(ws, Action(Primitive.PUSH, 3, 3, 0))
        assert ws.heights[3, 5] == 2


class TestPickPlace:
    def test_pick_from_two_stack(self):
        ws, _ = gridsim.reset(stacking_task(n=3, goal=3, width=7, height=7), seed=2)
        ws.heights[:] = 0
        ws.heights[3, 3] = 2
        ws.heights[1, 1] = 1
        res = gridsim.step(ws, Action(Primitive.PICK, 3, 3, 0))
        assert res.primitive_success == 1
        assert ws.heights[3, 3] == 1
        assert ws.holding

    def test_clutter_pick_removes_from_scene(self):
        ws, _ = gridsim.reset(clutter_task(n=2, width=6, height=6), seed=4)
        x, y = find_block(ws)
        res = gridsim.step(ws, Action(Primitive.PICK, x, y, 0))
        assert res.primitive_success == 1
        assert not ws.holding
        assert ws.removed == 1 and ws.heights.sum() == 1

    def test_pick_with_full_gripper_is_noop(self):
        ws, _ = gridsim.reset(stacking_task(n=3, goal=2, width=7, height=7), seed=2)
        x, y = find_block(ws)
        gridsim.step(ws, Action(Primitive.PICK, x, y, 0))
        assert ws.holding
        x2, y2 = find_block(ws)
        before = ws.heights.copy()
        res = gridsim.step(ws, Action(Primitive.PICK, x2, y2, 0))
        assert res.primitive_success == 0
        assert np.array_equal(ws.heights, before)

    def test_place_with_empty_gripper_is_noop(self):
        ws, _ = gridsim.reset(stacking_task(n=3, goal=2, width=7, height=7), seed=2)
        before = ws.heights.copy()
        res = gridsim.step(ws, Action(Primitive.PLACE, 0, 0, 0))
        assert res.primitive_success == 0
        assert np.array_equal(ws.heights, before)

    def test_unsuccessful_place_still_deposits(self):
        ws, _ = gridsim.reset(stacking_task(n=3, goal=3, width=7, height=7), seed=2)
        x, y = find_block(ws)
        gridsim.step(ws, Action(Primitive.PICK, x, y, 0))
        res = gridsim.step(ws, Action(Primitive.PLACE, x, y, 0))  # back on table
        assert res.primitive_success == 0
        assert not ws.holding
        assert ws.heights[y, x]

    def test_place_scripted_three_action_sequence(self):
        # Derived oracle: replay pick -> place (makes a 2-stack) -> pick ->
        # place on the 2-stack; the final place tops the old maximum.
        task = stacking_task(n=4, goal=4, width=7, height=7)
        ws, _ = gridsim.reset(task, seed=9)
        ws.heights[:] = 0
        ws.heights[2, 2] = 1
        ws.heights[2, 4] = 1
        ws.heights[5, 5] = 1
        ws.heights[0, 0] = 1
        gridsim.step(ws, Action(Primitive.PICK, 4, 2, 0))
        r2 = gridsim.step(ws, Action(Primitive.PLACE, 2, 2, 0))
        assert r2.primitive_success == 1 and ws.heights[2, 2] == 2
        gridsim.step(ws, Action(Primitive.PICK, 5, 5, 0))
        r4 = gridsim.step(ws, Action(Primitive.PLACE, 2, 2, 0))
        assert r4.primitive_success == 1
        assert ws.heights[2, 2] == 3
        assert r4.progress == pytest.approx(3 / 4)

    def test_place_not_exceeding_max_fails(self):
        ws, _ = gridsim.reset(stacking_task(n=4, goal=4, width=7, height=7), seed=9)
        ws.heights[:] = 0
        ws.heights[2, 2] = 2
        ws.heights[4, 4] = 1
        ws.heights[0, 0] = 1
        gridsim.step(ws, Action(Primitive.PICK, 4, 4, 0))
        res = gridsim.step(ws, Action(Primitive.PLACE, 0, 0, 0))  # 2-high tie
        assert res.primitive_success == 0
        assert ws.heights[0, 0] == 2


class TestProgressAndDone:
    def test_stacking_ratio(self):
        ws, _ = gridsim.reset(stacking_task(n=4, goal=4, width=7, height=7), seed=9)
        ws.heights[:] = 0
        ws.heights[0, 0] = 2
        ws.heights[3, 3] = 1
        ws.heights[4, 4] = 1
        assert gridsim.task_progress(ws) == pytest.approx(0.5)

    def test_clutter_progress_and_goal(self):
        task = clutter_task(n=2, width=6, height=6)
        ws, _ = gridsim.reset(task, seed=4)
        assert gridsim.task_progress(ws) == 0.0
        x, y = find_block(ws)
        gridsim.step(ws, Action(Primitive.PICK, x, y, 0))
        assert gridsim.task_progress(ws) == pytest.approx(0.5)
        x, y = find_block(ws)
        res = gridsim.step(ws, Action(Primitive.PICK, x, y, 0))
        assert res.progress == 1.0
        assert res.done and res.done_reason is DoneReason.GOAL

    def test_fail_streak_terminates(self):
        task = clutter_task(n=1, width=6, height=6, fail_limit=10)
        ws, _ = gridsim.reset(task, seed=4)
        x, y = find_block(ws)
        empty = next((xx, yy) for yy in range(6) for xx in range(6)
                     if (xx, yy) != (x, y))
        res = None
        for _ in range(10):
            res = gridsim.step(ws, Action(Primitive.PUSH, empty[0], empty[1], 0))
        assert res.done and res.done_reason is DoneReason.FAIL_STREAK
        assert ws.failure_streak == 10

    def test_streak_resets_on_success(self):
        ws, _ = gridsim.reset(clutter_task(n=2, width=6, height=6), seed=4)
        x, y = find_block(ws)
        empty = next((xx, yy) for yy in range(6) for xx in range(6)
                     if not ws.heights[yy, xx])
        gridsim.step(ws, Action(Primitive.PUSH, empty[0], empty[1], 0))
        assert ws.failure_streak == 1
        gridsim.step(ws, Action(Primitive.PICK, x, y, 0))
        assert ws.failure_streak == 0

    def test_max_steps_terminates(self):
        task = clutter_task(n=2, width=6, height=6, max_steps=3, fail_limit=100)
        ws, _ = gridsim.reset(task, seed=4)
        empty = next((xx, yy) for yy in range(6) for xx in range(6)
                     if not ws.heights[yy, xx])
        res = None
        for _ in range(3):
            res = gridsim.step(ws, Action(Primitive.PUSH, empty[0], empty[1], 3))
        assert res.done and res.done_reason is DoneReason.MAX_STEPS

    def test_contract_violations(self):
        ws, _ = gridsim.reset(clutter_task(n=2, width=6, height=6), seed=4)
        with pytest.raises(ContractViolation):
            gridsim.step(ws, Action(Primitive.PICK, 9, 0, 0))
        with pytest.raises(ContractViolation):
            gridsim.step(ws, Action(Primitive.PICK, 0, 0, 7))
        task = clutter_task(n=2, width=6, height=6,
                            allowed_primitives=(Primitive.PICK,))
        ws2, _ = gridsim.reset(task, seed=4)
        with pytest.raises(ContractViolation):
            gridsim.step(ws2, Action(Primitive.PUSH, 0, 0, 0))


class TestMasksAndRendering:
    def test_empty_workspace_pick_mask_false(self):
        ws, _ = gridsim.reset(clutter_task(n=1, width=5, height=5), seed=0)
        x, y = find_block(ws)
        ws.heights[y, x] = 0
        assert not gridsim.valid_action_mask(ws, Primitive.PICK).any()

    def test_place_mask_empty_when_not_holding(self):
        ws, _ = gridsim.reset(stacking_task(n=3, goal=2, width=7, height=7), seed=0)
        assert not gridsim.valid_action_mask(ws, Primitive.PLACE).any()

    def test_single_block_pick_mask(self):
        ws, _ = gridsim.reset(clutter_task(n=1, width=8, height=8), seed=0)
        ws.heights[:] = 0
        ws.heights[4, 3] = 1
        mask = gridsim.valid_action_mask(ws, Primitive.PICK)
        assert mask.sum() == 1 and mask[4, 3]

    def test_place_mask_on_or_adjacent(self):
        ws, _ = gridsim.reset(stacking_task(n=2, goal=2, width=7, height=7), seed=0)
        ws.heights[:] = 0
        ws.heights[3, 3] = 1
        ws.holding = True
        mask = gridsim.valid_action_mask(ws, Primitive.PLACE)
        assert mask[3, 3] and mask[2, 2] and mask[4, 4]
        assert mask.sum() == 9

    def test_push_mask_requires_free_neighbor(self):
        ws, _ = gridsim.reset(clutter_task(n=1, width=5, height=5), seed=0)
        ws.heights[:] = 0
        ws.heights[2, 2] = 1
        assert gridsim.valid_action_mask(ws, Primitive.PUSH)[2, 2]

    def test_height_channel_normalization(self):
        ws, _ = gridsim.reset(stacking_task(n=4, goal=4, width=7, height=7), seed=9)
        ws.heights[:] = 0
        ws.heights[2, 2] = 3
        ws.heights[0, 0] = 1
        channels = scene_channels(ws)
        assert channels[1][2, 2] == pytest.approx(0.75)
        assert np.array_equal(channels[0], (ws.heights > 0))

    def test_gripper_channel_broadcast(self):
        ws, _ = gridsim.reset(stacking_task(n=3, goal=2, width=7, height=7), seed=0)
        x, y = find_block(ws)
        gridsim.step(ws, Action(Primitive.PICK, x, y, 0))
        assert (scene_channels(ws)[2] == 1.0).all()


class TestObservationIsCopy:
    def test_observe_reset_and_step_outlive_later_steps(self):
        task = stacking_task(n=4, goal=3, width=5, height=5)
        ws, at_reset = gridsim.reset(task, seed=1)
        observed = gridsim.observe(ws)
        snapshots = [(obs, obs.heights.copy(), obs.holding)
                     for obs in (at_reset, observed)]
        x, y = find_block(ws)
        res = gridsim.step(ws, Action(Primitive.PICK, x, y, 0))
        assert res.primitive_success and ws.holding
        snapshots.append((res.next_observation, ws.heights.copy(), True))
        gridsim.step(ws, Action(Primitive.PLACE, *find_block(ws), 0))
        assert not ws.holding
        for obs, heights, holding in snapshots:
            assert obs.heights.tobytes() == heights.tobytes()
            assert obs.holding is holding
            assert obs.height_norm == 3
        assert not np.array_equal(ws.heights, snapshots[0][1])


class TestInvariantsRandomly:
    """Invariants over random valid action sequences."""

    def _random_rollout(self, task, seed, n_steps=60):
        rng = np.random.default_rng(seed)
        ws, _ = gridsim.reset(task, seed)
        results = []
        for _ in range(n_steps):
            prim = task.allowed_primitives[int(rng.integers(len(task.allowed_primitives)))]
            x = int(rng.integers(task.width))
            y = int(rng.integers(task.height))
            theta = int(rng.integers(task.rotations))
            before = ws.heights.copy(), ws.holding, ws.removed
            res = gridsim.step(ws, Action(prim, x, y, theta))
            results.append((prim, before, res))
            # conservation
            assert ws.heights.sum() + ws.removed + ws.holding == task.n_blocks
            assert 0.0 <= res.progress <= 1.0
            if res.done:
                assert res.done_reason is not None
                break
        return results

    @pytest.mark.parametrize("seed", range(8))
    def test_conservation_and_bounds_clutter(self, seed):
        self._random_rollout(clutter_task(n=6, width=8, height=8), seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_conservation_and_bounds_stacking(self, seed):
        self._random_rollout(stacking_task(n=5, goal=3, width=8, height=8), seed)

    def test_unsuccessful_nonplace_never_mutates(self):
        # X=0 implies no mutation for push/pick and empty-gripper place;
        # a held-block place deposits by design even when unsuccessful.
        task = stacking_task(n=5, goal=3, width=8, height=8)
        rng = np.random.default_rng(123)
        ws, _ = gridsim.reset(task, 123)
        for _ in range(120):
            prim = task.allowed_primitives[int(rng.integers(3))]
            a = Action(prim, int(rng.integers(8)), int(rng.integers(8)),
                       int(rng.integers(4)))
            before = ws.heights.copy()
            holding_before = ws.holding
            res = gridsim.step(ws, a)
            if res.primitive_success == 0 and not (
                    prim is Primitive.PLACE and holding_before):
                assert np.array_equal(ws.heights, before)
            if res.done:
                break

    def test_step_sequence_determinism(self):
        task = stacking_task(n=5, goal=3, width=8, height=8)
        actions = [Action(Primitive.PICK, x, y, 0)
                   for x in range(8) for y in range(8)][:20]
        outs = []
        for _ in range(2):
            ws, _ = gridsim.reset(task, 77)
            chans = []
            for a in actions:
                res = gridsim.step(ws, a)
                chans.append(res.next_observation.heights)
                if res.done:
                    break
            outs.append(np.stack(chans))
        assert np.array_equal(outs[0], outs[1])


class TestScripted:
    LAYOUT = ("....." "\n"
              "..2.." "\n"
              ".1.3." "\n"
              "....." "\n"
              ".....")

    def test_layout_parsing_and_progress(self):
        task = TaskConfig(kind=TaskKind.SCRIPTED_ARRANGEMENT, n_blocks=0,
                          width=5, height=5, layout=self.LAYOUT)
        ws, obs = gridsim.reset(task, seed=0)
        assert task.n_blocks == 6
        assert ws.heights[1, 2] == 2
        assert ws.heights[2, 3] == 3
        assert gridsim.task_progress(ws) == 0.0
        res = gridsim.step(ws, Action(Primitive.PICK, 3, 2, 0))
        assert res.primitive_success == 1
        assert gridsim.task_progress(ws) == pytest.approx(1 / 6)
        # removal semantics: gripper stays empty
        assert not ws.holding

    def test_layout_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            TaskConfig(kind=TaskKind.SCRIPTED_ARRANGEMENT, n_blocks=0,
                       width=4, height=5, layout=self.LAYOUT)

    def test_height_norm_uses_max_initial_stack(self):
        task = TaskConfig(kind=TaskKind.SCRIPTED_ARRANGEMENT, n_blocks=0,
                          width=5, height=5, layout=self.LAYOUT)
        ws, obs = gridsim.reset(task, seed=0)
        assert task.height_norm == obs.height_norm == 3
        assert scene_channels(ws)[1][2, 3] == pytest.approx(1.0)


def loop_valid_action_mask(ws, primitive):
    """The cell-by-cell masks that valid_action_mask's shifted slices
    replaced."""
    height, width = ws.heights.shape
    occupied = ws.heights > 0
    if primitive is Primitive.PICK:
        return occupied
    if primitive is Primitive.PUSH:
        mask = np.zeros_like(occupied)
        dirs = {gridsim.push_direction(r, ws.task.rotations)
                for r in range(ws.task.rotations)}
        for y in range(height):
            for x in range(width):
                if not occupied[y, x]:
                    continue
                for dx, dy in dirs:
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < width and 0 <= ny < height \
                            and not occupied[ny, nx]:
                        mask[y, x] = True
                        break
        return mask
    if not ws.holding:
        return np.zeros_like(occupied)
    mask = np.zeros_like(occupied)
    for y in range(height):
        for x in range(width):
            y0, y1 = max(0, y - 1), min(height, y + 2)
            x0, x1 = max(0, x - 1), min(width, x + 2)
            mask[y, x] = occupied[y0:y1, x0:x1].any()
    return mask


class TestMaskLoopOracle:
    @given(h=st.integers(1, 14), w=st.integers(1, 14),
           rotations=st.sampled_from([1, 2, 3, 4, 8]),
           kind=st.sampled_from([TaskKind.BLOCK_STACKING,
                                 TaskKind.CLUTTER_REMOVAL]),
           holding=st.booleans(), fill=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_masks_and_heights_equal_loop_version(self, h, w, rotations, kind,
                                                  holding, fill, seed):
        if rotations not in (1, 2):
            w = h       # a task that turns by 90 degrees has a square grid
        assume(kind is TaskKind.CLUTTER_REMOVAL or h * w >= 2)
        rng = np.random.default_rng(seed)
        heights = (rng.random((h, w)) < fill) * rng.integers(1, 4, size=(h, w))
        # The workspace is built here, not by reset, so the task's block
        # count only has to be one a task can hold.
        task = TaskConfig(kind=kind, n_blocks=min(2, h * w), width=w,
                          height=h, goal_stack_height=2, rotations=rotations)
        ws = gridsim.Workspace(heights=heights, task=task, holding=holding)
        for prim in Primitive:
            mask = gridsim.valid_action_mask(ws, prim)
            ref = loop_valid_action_mask(ws, prim)
            assert mask.dtype == ref.dtype and mask.shape == ref.shape
            assert mask.tobytes() == ref.tobytes()
        channels = scene_channels(ws)
        for y in range(h):
            for x in range(w):
                assert channels[0, y, x] == (1.0 if heights[y, x] else 0.0)
                assert channels[1, y, x] == min(1.0, heights[y, x] / task.height_norm)
                assert channels[2, y, x] == (1.0 if holding else 0.0)


@st.composite
def episodes(draw):
    """A random task of any kind, and actions that reach every cell, one
    step off the grid and one rotation out of range, with every primitive,
    including those the task does not allow."""
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(TaskKind))
    rotations = draw(st.sampled_from([1, 2, 4, 8]))
    if rotations not in (1, 2):
        w = h           # a task that turns by 90 degrees has a square grid
    common = dict(width=w, height=h, rotations=rotations,
                  # Place alone can never act, so no task offers it alone.
                  allowed_primitives=draw(st.sets(
                      st.sampled_from(PRIMITIVE_ORDER), min_size=1).filter(
                          lambda prims: prims != {Primitive.PLACE})),
                  push_distance=draw(st.integers(1, 3)),
                  fail_limit=draw(st.integers(1, 12)),
                  max_steps=draw(st.integers(0, 30)))
    if kind is TaskKind.SCRIPTED_ARRANGEMENT:
        cells = draw(st.lists(st.integers(0, 4), min_size=h * w,
                              max_size=h * w).filter(any))
        layout = "\n".join("".join(str(c) if c else "." for c in
                                   cells[y * w:(y + 1) * w]) for y in range(h))
        fields = dict(n_blocks=0, layout=layout)
    else:
        low = 2 if kind is TaskKind.BLOCK_STACKING else 1
        assume(h * w >= low)
        n = draw(st.integers(low, h * w))
        goal = draw(st.integers(2, n)) if low == 2 else 0
        fields = dict(n_blocks=n, goal_stack_height=goal)
    try:
        task = TaskConfig(kind=kind, **fields, **common)
    except ConfigError:
        # Without pick, a task on which no reset can push can never act.
        assume(False)
    actions = draw(st.lists(st.builds(
        Action, st.sampled_from(Primitive), st.integers(-1, w),
        st.integers(-1, h), st.integers(-1, rotations)), max_size=40))
    return task, actions


class TestSimulatorInvariants:
    @given(episode=episodes(), seed=st.integers(0, 2 ** 32 - 1))
    def test_conservation_pick_and_rejected_steps(self, episode, seed):
        task, actions = episode
        ws, _ = gridsim.reset(task, seed)
        for action in actions:
            pick_mask = gridsim.valid_action_mask(ws, Primitive.PICK)
            before = (ws.heights.copy(), ws.holding, ws.removed,
                      ws.step_count, ws.failure_streak)
            try:
                res = gridsim.step(ws, action)
            except ContractViolation:
                assert np.array_equal(ws.heights, before[0])
                assert (ws.holding, ws.removed, ws.step_count,
                        ws.failure_streak) == before[1:]
                continue
            assert ws.heights.sum() + ws.holding + ws.removed == task.n_blocks
            if action.primitive is Primitive.PICK and not before[1]:
                # A pick with an empty gripper succeeds exactly where the
                # mask says it is valid.
                assert res.primitive_success == pick_mask[action.y, action.x]
            if res.done:
                break
