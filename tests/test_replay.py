import gc
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmanip.gridsim import (Action, Observation, Primitive,
                               PRIMITIVE_ORDER, TaskConfig, TaskKind,
                               action_fields)
from gridmanip.harness import RunConfig, train
from gridmanip.replay import (PRIORITY_FLOOR, ReplayBuffer, ReplayError,
                              Transition, UnderfullError)
from gridmanip.reward import RewardMap, spike_reward_map


def one_cell_row():
    """A 1x1 observation and reward map: the smallest real row."""
    return dict(observation=Observation(heights=np.zeros((1, 1), dtype=int),
                                        holding=False, height_norm=1),
                reward_map=spike_reward_map(0.0, (0, 0), (1, 1)))


def make_transition(r_t=0.5, r_next=0.0):
    action = Action(Primitive.PICK, 0, 0, 0, 0.0)
    return Transition(prev_action=None, action=action, r_t=r_t, r_next=r_next,
                      **one_cell_row())


def filled_buffer(losses, omega=1.0, capacity=100):
    """Buffer whose i-th item has priority |losses[i]| + PRIORITY_FLOOR, set
    through update_priorities so that the kept rank order follows."""
    buf = ReplayBuffer(capacity=capacity, rank_exponent=omega)
    for loss in losses:
        buf.update_priorities([buf.push(make_transition())], [loss])
    return buf


def held_ids(buf):
    """The insert ids of every held row, oldest first."""
    return list(range(buf._next_index - len(buf), buf._next_index))


def _action(fields):
    primitive, x, y, theta_index, q_value = fields
    return Action(PRIMITIVE_ORDER[primitive], x, y, theta_index, q_value)


def rebuilt_rows(buf, ids):
    """The rows with these insert ids as Transitions, rebuilt from
    ``rows(ids)``; a pending row's r_next is None."""
    heights, records, boxes = buf.rows(ids)
    out = []
    for index, grid, record, box in zip(ids, heights, records.tolist(),
                                        boxes):
        (holding, height_norm, action, prev, has_prev, r_t, r_next,
         (y0, x0, bh, bw)) = record
        pending = buf.has_pending and index == buf._next_index - 1
        out.append(Transition(
            observation=Observation(heights=grid, holding=holding,
                                    height_norm=height_norm),
            prev_action=_action(prev) if has_prev else None,
            action=_action(action), r_t=r_t,
            reward_map=RewardMap(y0=y0, x0=x0, values=box[:bh, :bw],
                                 shape=grid.shape),
            r_next=None if pending else r_next))
    return out


def record_of(buf, index):
    """The held row's record, read through rows."""
    return buf.rows([index])[1][0]


class TestPushFinalize:
    def test_first_push_priority_one(self):
        buf = ReplayBuffer()
        t = make_transition(r_next=None)
        buf.push(t)
        assert buf._priorities[:len(buf)].tolist() == [1.0]
        assert buf.has_pending

    def test_new_item_gets_max_priority(self):
        buf = filled_buffer([0.2, 3.0, 1.1])
        buf.push(make_transition())
        assert buf.dump_records()[-1]["priority"] == 3.0 + PRIORITY_FLOOR

    def test_eviction_oldest_first(self):
        buf = ReplayBuffer(capacity=3)
        ids = [buf.push(make_transition(r_t=0.25 * i)) for i in range(4)]
        assert ids == [0, 1, 2, 3]
        assert len(buf) == 3
        assert [r["insert_index"] for r in buf.dump_records()] == ids[1:]
        assert buf.rows(ids[1:])[1]["r_t"].tolist() == [0.25, 0.5, 0.75]
        with pytest.raises(ReplayError, match="not held"):
            buf.rows([ids[0]])

    def test_rows_of_ids_not_held_rejected(self):
        buf = ReplayBuffer(capacity=2)
        with pytest.raises(ReplayError, match="no row"):
            buf.rows([])
        for _ in range(3):
            buf.push(make_transition())
        for bad in ([0], [1, 3], [-1]):
            with pytest.raises(ReplayError, match="not held"):
                buf.rows(bad)
        assert len(buf.rows([2, 1, 2])[1]) == 3

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0)

    def test_dropped_buffer_freed_by_refcount(self):
        # Transitions must not link back to their buffer in a cycle, or
        # every finished run's buffer waits for the collector.
        buf = ReplayBuffer(capacity=2)
        kept = make_transition()
        buf.push(kept)
        ref = weakref.ref(buf)
        gc.disable()
        try:
            del buf
            assert ref() is None
        finally:
            gc.enable()

    def test_push_with_pending_rejected(self):
        buf = ReplayBuffer()
        buf.push(make_transition(r_next=None))
        with pytest.raises(ReplayError):
            buf.push(make_transition())

    def test_finalize_sets_r_next(self):
        buf = ReplayBuffer()
        t = make_transition(r_next=None)
        index = buf.push(t)
        assert np.isnan(record_of(buf, index)["r_next"])
        buf.finalize_pending(0.75)
        assert record_of(buf, index)["r_next"] == 0.75
        assert t.r_next is None         # the pushed Transition is not written
        assert not buf.has_pending

    def test_finalize_without_pending_rejected(self):
        buf = ReplayBuffer()
        with pytest.raises(ReplayError):
            buf.finalize_pending(0.0)
        buf.push(make_transition())          # already finalized
        with pytest.raises(ReplayError):
            buf.finalize_pending(0.0)

    def test_pending_reward_is_the_pushed_r_t_while_pending(self):
        buf = ReplayBuffer(capacity=2)
        with pytest.raises(ReplayError):
            buf.pending_reward()
        for r_t in (0.25, -0.0, 1.5, 0.1):     # the last two wrap the ring
            buf.push(make_transition(r_t=r_t, r_next=None))
            got = buf.pending_reward()
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(r_t).tobytes()
            buf.finalize_pending(0.0)
            with pytest.raises(ReplayError):
                buf.pending_reward()

    def test_episode_end_zero_finalize(self):
        buf = ReplayBuffer()
        index = buf.push(make_transition(r_next=None))
        buf.finalize_pending(0.0)
        assert record_of(buf, index)["r_next"] == 0.0
        assert not buf.has_pending and buf.sampleable_count() == 1


class TestSampling:
    def test_pending_never_sampled(self):
        buf = ReplayBuffer()
        for _ in range(5):
            buf.push(make_transition())
        pending = buf.push(make_transition(r_next=None))
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert pending not in buf.sample(3, rng)
        assert buf.sampleable_count() == 5

    def test_underfull_raises(self):
        buf = ReplayBuffer()
        buf.push(make_transition())
        with pytest.raises(UnderfullError):
            buf.sample(2, np.random.default_rng(0))

    def test_exhaustive_sample_is_permutation(self):
        buf = filled_buffer([5.0, 1.0, 3.0, 2.0])
        ids = buf.sample(4, np.random.default_rng(1))
        assert sorted(ids) == held_ids(buf)

    def test_analytic_rank_probabilities(self):
        # priorities 5 > 3 > 1: ranks 1,2,3 -> weights 1, 1/2, 1/3
        buf = filled_buffer([5.0, 1.0, 3.0], omega=1.0)
        probs = buf.probabilities()
        np.testing.assert_allclose(probs, [6 / 11, 2 / 11, 3 / 11], atol=1e-12)

    def test_single_draw_matches_rank_law(self):
        buf = filled_buffer([5.0, 1.0, 3.0], omega=1.0)
        rng = np.random.default_rng(7)
        n = 200_000
        counts = np.zeros(3)
        for _ in range(n):
            ids = buf.sample(1, rng)
            counts[ids[0]] += 1
        np.testing.assert_allclose(counts / n, [6 / 11, 2 / 11, 3 / 11],
                                   atol=0.005)

    def test_omega_zero_uniform(self):
        buf = filled_buffer([9.0, 0.5, 2.0, 4.0], omega=0.0)
        rng = np.random.default_rng(3)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            ids = buf.sample(1, rng)
            counts[ids[0]] += 1
        assert np.abs(counts / n - 0.25).max() < 0.01

    def test_priority_ties_rank_by_insert_order(self):
        buf = filled_buffer([2.0, 2.0, 2.0], omega=1.0)
        probs = buf.probabilities()
        assert probs[0] > probs[1] > probs[2]


class TestPriorities:
    def test_zero_loss_floor(self):
        buf = filled_buffer([1.0, 1.0])
        ids = held_ids(buf)
        buf.update_priorities(ids, [0.0, 2.0])
        assert buf._priorities[:len(buf)].tolist() == [
            PRIORITY_FLOOR, 2.0 + PRIORITY_FLOOR]

    def test_negative_loss_absolute_value(self):
        buf = filled_buffer([1.0])
        buf.update_priorities([held_ids(buf)[0]], [-3.0])
        assert buf._priorities[0] == pytest.approx(3.0 + PRIORITY_FLOOR)

    def test_stale_index_skipped(self):
        buf = ReplayBuffer(capacity=2)
        stale_id = buf.push(make_transition())
        buf.push(make_transition())
        buf.push(make_transition())              # evicts first
        buf.update_priorities([stale_id], [9.0])
        assert 9.0 + PRIORITY_FLOOR not in buf._priorities[:len(buf)]

    def test_untouched_priorities_unchanged(self):
        buf = filled_buffer([4.0, 2.0, 1.0])
        buf.update_priorities([held_ids(buf)[1]], [0.5])
        assert buf._priorities[0] == 4.0 + PRIORITY_FLOOR
        assert buf._priorities[2] == 1.0 + PRIORITY_FLOOR

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_rejected_before_any_change(self, bad):
        buf = filled_buffer([4.0, 2.0, 1.0])
        ids = held_ids(buf)
        before = buf._priorities[:len(buf)].copy()
        probs = buf.probabilities()
        with pytest.raises(ReplayError, match="non-finite"):
            buf.update_priorities(ids, [0.5, bad, 3.0])
        assert buf._priorities[:len(buf)].tobytes() == before.tobytes()
        assert buf.probabilities().tobytes() == probs.tobytes()

    def test_larger_loss_weakly_higher_rank(self):
        buf = filled_buffer([1.0, 1.0, 1.0], omega=1.0)
        ids = held_ids(buf)
        buf.update_priorities(ids, [0.1, 5.0, 1.0])
        probs = buf.probabilities()
        assert probs[1] > probs[2] > probs[0]


class TestInterleaving:
    def test_rank_consistency_under_churn(self):
        rng = np.random.default_rng(5)
        buf = ReplayBuffer(capacity=16, rank_exponent=0.7)
        for step in range(400):
            if buf.has_pending:
                buf.finalize_pending(float(rng.random()))
            buf.push(make_transition(r_next=None))
            if rng.random() < 0.5 and buf.sampleable_count() >= 3:
                ids = buf.sample(3, rng)
                buf.update_priorities(ids, rng.random(3).tolist())
            assert len(buf) <= 16
            weights = buf._rank_weights(len(buf))
            order = np.argsort(-weights)
            # weights are a permutation of the rank law values
            expect = sorted(((1.0 / r) ** 0.7 for r in range(1, len(buf) + 1)),
                            reverse=True)
            np.testing.assert_allclose(sorted(weights, reverse=True), expect)

    def test_dump_records(self):
        buf = filled_buffer([1.0, 2.0])
        records = buf.dump_records()
        assert len(records) == 2
        assert {"insert_index", "r_t", "r_next", "priority",
                "primitive", "x", "y", "theta_index"} <= records[0].keys()


class TestLawCache:
    """sample and probabilities keep the rank law and its cumulative sum
    until the buffer changes; the draws and bits are those of a fresh one."""

    @staticmethod
    def fresh_law(buf):
        weights = buf._rank_weights(buf.sampleable_count())
        return weights.tobytes(), weights.cumsum().tobytes()

    def test_kept_while_unchanged_and_never_rewritten(self):
        buf = filled_buffer([5.0, 0.3, 2.0, 2.0, 9.0])
        law = buf._sampleable_law()
        rng = np.random.default_rng(2)
        for k in (1, 3, 1, 5, 1):
            buf.sample(k, rng)
            assert buf._law is law
            assert tuple(a.tobytes() for a in law) == self.fresh_law(buf)

    @pytest.mark.parametrize("pending, change", [
        (False, lambda buf: buf.push(make_transition(r_next=None))),
        (False, lambda buf: buf.update_priorities([held_ids(buf)[1]], [7.0])),
        (True, lambda buf: buf.finalize_pending(0.5)),
    ], ids=["push", "update_priorities", "finalize_pending"])
    def test_dropped_when_the_buffer_changes(self, pending, change):
        buf = filled_buffer([5.0, 0.3, 2.0])
        if pending:
            buf.push(make_transition(r_next=None))
        buf.probabilities()
        change(buf)
        assert buf._law is None
        weights, cdf = buf._sampleable_law()
        assert (weights.tobytes(), cdf.tobytes()) == self.fresh_law(buf)

    def test_batch_draw_after_a_change_keeps_nothing(self):
        # Training's pattern: the buffer changes before every batch draw, so
        # the draw builds its own law and caches no copy of it.
        buf = filled_buffer([5.0, 0.3, 2.0, 2.0, 9.0])
        buf.sample(3, np.random.default_rng(0))
        assert buf._law is None


# Reference: the list-based buffer that kept each priority on its Transition
# and rescanned the list on every call. The array-backed buffer must match
# it byte for byte: same draws from the same Generator, same probabilities,
# same records.

@dataclass
class ListTransition:
    observation: object
    prev_action: object
    action: object
    r_t: float
    reward_map: object
    r_next: float | None = None
    priority: float = 1.0
    insert_index: int = -1

    @property
    def pending(self):
        return self.r_next is None


@dataclass
class ListReplayBuffer:
    capacity: int = 2000
    rank_exponent: float = 0.7
    _items: list = field(default_factory=list)
    _next_index: int = 0

    def __len__(self):
        return len(self._items)

    @property
    def has_pending(self):
        return bool(self._items) and self._items[-1].pending

    def sampleable_count(self):
        return sum(not t.pending for t in self._items)

    def push(self, transition):
        if self.has_pending:
            raise ReplayError("previous transition still pending; finalize first")
        transition.priority = max((t.priority for t in self._items), default=1.0)
        transition.insert_index = self._next_index
        self._next_index += 1
        self._items.append(transition)
        if len(self._items) > self.capacity:
            self._items.pop(0)

    def finalize_pending(self, r_next):
        if not self.has_pending:
            raise ReplayError("no pending transition to finalize")
        self._items[-1].r_next = float(r_next)

    def _rank_weights(self, items):
        priorities = np.array([t.priority for t in items])
        inserted = np.array([t.insert_index for t in items])
        order = np.lexsort((inserted, -priorities))
        weights = np.empty(len(items))
        weights[order] = (1.0 / np.arange(1, len(items) + 1)) ** self.rank_exponent
        return weights

    def probabilities(self):
        items = [t for t in self._items if not t.pending]
        weights = self._rank_weights(items)
        return weights / weights.sum()

    def sample(self, k, rng):
        pool = [t for t in self._items if not t.pending]
        if len(pool) < k:
            raise UnderfullError(f"need {k} sampleable transitions, have {len(pool)}")
        weights = self._rank_weights(pool)
        chosen = []
        for _ in range(k):
            cdf = np.cumsum(weights)
            pos = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
            pos = min(pos, len(pool) - 1)
            weights[pos] = 0.0
            chosen.append(pool[pos])
        return chosen, [t.insert_index for t in chosen]

    def update_priorities(self, ids, losses):
        by_id = {t.insert_index: t for t in self._items}
        for insert_index, loss in zip(ids, losses):
            item = by_id.get(insert_index)
            if item is not None:
                item.priority = abs(float(loss)) + PRIORITY_FLOOR

    def dump_records(self):
        return [{"insert_index": t.insert_index, "r_t": t.r_t,
                 "r_next": t.r_next, "priority": t.priority,
                 "primitive": t.action.primitive.value,
                 "x": t.action.x, "y": t.action.y,
                 "theta_index": t.action.theta_index}
                for t in self._items]


# Few distinct losses, so updates tie often; stale ids reach below the
# oldest held index and past the newest.
_losses = st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, 1e-7]) |
                   st.floats(-4.0, 4.0, allow_nan=False), min_size=1,
                   max_size=4)
_ops = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 3), st.integers(1, 12),
              st.none() | st.sampled_from([0.0, 0.5])),
    st.tuples(st.just("finalize"), st.sampled_from([0.0, 0.25, 1.0])),
    st.tuples(st.just("sample"), st.integers(1, 4)),
    st.tuples(st.just("update"), st.booleans(), _losses,
              st.lists(st.integers(-3, 40), max_size=3)),
)


def _both_raise(exc, call_ref, call_new):
    with pytest.raises(exc):
        call_ref()
    with pytest.raises(exc):
        call_new()


class TestListOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    # Small capacities evict constantly; past 16 items numpy's default sort
    # stops being an insertion sort, so only a stable sort keeps tie order.
    @given(capacity=st.integers(1, 6) | st.integers(17, 40),
           omega=st.sampled_from([0.0, 0.7, 1.0]),
           seed=st.integers(0, 2**32 - 1),
           ops=st.lists(_ops, min_size=1, max_size=120))
    def test_churn_matches_list_buffer(self, capacity, omega, seed, ops):
        ref = ListReplayBuffer(capacity=capacity, rank_exponent=omega)
        new = ReplayBuffer(capacity=capacity, rank_exponent=omega)
        rng_ref = np.random.default_rng(seed)
        rng_new = np.random.default_rng(seed)
        last_ids = []
        for op in ops:
            if op[0] == "push":
                # `repeat` finalized transitions, the last one maybe pending
                _, x, repeat, r_last = op
                for i in range(repeat):
                    args = dict(prev_action=None,
                                action=Action(Primitive.PICK, x, i, 0, 0.0),
                                r_t=float(x),
                                r_next=r_last if i == repeat - 1 else 0.0,
                                **one_cell_row())
                    if ref.has_pending:
                        _both_raise(ReplayError,
                                    lambda: ref.push(ListTransition(**args)),
                                    lambda: new.push(Transition(**args)))
                        break
                    listed = ListTransition(**args)
                    ref.push(listed)
                    assert new.push(Transition(**args)) == listed.insert_index
            elif op[0] == "finalize":
                if ref.has_pending:
                    ref.finalize_pending(op[1])
                    new.finalize_pending(op[1])
                else:
                    _both_raise(ReplayError, lambda: ref.finalize_pending(op[1]),
                                lambda: new.finalize_pending(op[1]))
            elif op[0] == "sample":
                k = op[1]
                if ref.sampleable_count() < k:
                    _both_raise(UnderfullError, lambda: ref.sample(k, rng_ref),
                                lambda: new.sample(k, rng_new))
                else:
                    chosen, last_ids = ref.sample(k, rng_ref)
                    ids = new.sample(k, rng_new)
                    assert ids == last_ids
                    actions = new.rows(ids)[1]["action"]
                    assert list(zip(actions["x"].tolist(),
                                    actions["y"].tolist())) == \
                        [(t.action.x, t.action.y) for t in chosen]
            else:
                _, use_last, losses, stale = op
                ids = (last_ids if use_last else []) + stale
                losses = (losses * len(ids))[:len(ids)]
                ref.update_priorities(ids, losses)
                new.update_priorities(ids, losses)
            assert len(new) == len(ref)
            assert new.has_pending == ref.has_pending
            assert new.sampleable_count() == ref.sampleable_count()
            assert new.probabilities().tobytes() == ref.probabilities().tobytes()
            assert new.dump_records() == ref.dump_records()
            assert new._priorities[:len(new)].tolist() == \
                [t.priority for t in ref._items]
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


# Reference: the array buffer before it kept its rank order. It ranked by a
# stable argsort of the insertion-ordered priorities on every call and ran a
# full cumsum before every draw.

def _argsort_rank_weights(priorities, n, omega):
    order = np.argsort(-priorities[:n], kind="stable")
    weights = np.empty(n)
    weights[order] = (1.0 / np.arange(1, n + 1)) ** omega
    return weights


def _full_cumsum_sample(held_ids, weights, k, rng):
    n = len(weights)
    chosen = []
    for _ in range(k):
        cdf = np.cumsum(weights)
        pos = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
        pos = min(pos, n - 1)
        weights[pos] = 0.0
        chosen.append(held_ids[pos])
    return chosen


class TestKeptOrderMatchesArgsort:
    @pytest.mark.parametrize("capacity, seed", [(200, 0), (347, 1), (500, 2)])
    def test_churn_at_scale(self, capacity, seed):
        omega = 0.7
        rng = np.random.default_rng(seed)         # drives the churn
        draw_rng = np.random.default_rng(seed + 100)
        ref_rng = np.random.default_rng(seed + 100)
        buf = ReplayBuffer(capacity=capacity, rank_exponent=omega)
        # Mostly repeated values, 0.0 among them (priority PRIORITY_FLOOR),
        # so that many priorities tie.
        tie_losses = np.array([0.0, 0.0, 0.25, 1.0, 1.0, 3.5])
        for step in range(3 * capacity):
            if buf.has_pending:
                buf.finalize_pending(0.0)
            buf.push(make_transition(r_next=None if step % 7 else 0.0))
            n = buf.sampleable_count()
            for m in {n, len(buf)}:
                assert buf._rank_weights(m).tobytes() == _argsort_rank_weights(
                    buf._priorities, m, omega).tobytes()
            if n < 8:
                continue
            k = 1 + step % 8
            oldest = buf._next_index - len(buf)
            expect = _full_cumsum_sample(
                range(oldest, buf._next_index),
                _argsort_rank_weights(buf._priorities, n, omega), k, ref_rng)
            ids = buf.sample(k, draw_rng)
            assert ids == expect
            assert draw_rng.bit_generator.state == ref_rng.bit_generator.state
            losses = np.where(rng.random(k) < 0.8, rng.choice(tie_losses, k),
                              rng.normal(size=k))
            # two stale ids, the newest item (pending on most steps), and a
            # repeated id whose last loss wins
            others = [oldest - 1 - int(rng.integers(5)),
                      buf._next_index + int(rng.integers(5)),
                      buf._next_index - 1, ids[0]]
            buf.update_priorities(ids + others, np.concatenate(
                [losses, [9.0, 9.0], rng.choice(tie_losses, 2)]))
        assert len(buf) == capacity
        assert buf._next_index > capacity           # evicted all along


# Rows kept in slot arrays: what comes back is what was pushed.

def same_action(got, want):
    if want is None:
        return got is None
    return got == want and \
        np.float64(got.q_value).tobytes() == np.float64(want.q_value).tobytes()


def assert_same_row(got, want):
    """Field by field, floats by their bits; heights by value, since the
    buffer keeps them in a narrower dtype."""
    obs, expect = got.observation, want.observation
    assert obs.heights.shape == expect.heights.shape
    assert np.array_equal(obs.heights, expect.heights)
    assert (obs.holding, obs.height_norm) == (expect.holding,
                                              expect.height_norm)
    assert same_action(got.action, want.action)
    assert same_action(got.prev_action, want.prev_action)
    assert np.float64(got.r_t).tobytes() == np.float64(want.r_t).tobytes()
    assert (got.r_next is None) == (want.r_next is None)
    if want.r_next is not None:
        assert got.r_next == want.r_next
    rmap, expect = got.reward_map, want.reward_map
    assert (rmap.y0, rmap.x0, rmap.shape) == (expect.y0, expect.x0,
                                              expect.shape)
    assert rmap.values.shape == expect.values.shape
    assert rmap.values.tobytes() == expect.values.tobytes()


def assert_batch_entry_is(buf, batch, i, want):
    """Entry i of a ``rows`` batch holds the pushed transition ``want``:
    heights by bytes in the buffer's dtype, the record's fields (floats by
    their bits) and the box's values on its own bh x bw."""
    heights, records, boxes = batch
    obs, record = want.observation, records[i]
    assert heights[i].dtype == buf.height_dtype
    assert heights[i].tobytes() == \
        obs.heights.astype(buf.height_dtype).tobytes()
    assert (record["holding"], record["height_norm"]) == (obs.holding,
                                                          obs.height_norm)
    dtype = record["action"].dtype
    assert record["action"].tobytes() == \
        np.array(action_fields(want.action), dtype).tobytes()
    assert record["has_prev"] == (want.prev_action is not None)
    if want.prev_action is not None:
        assert record["prev_action"].tobytes() == \
            np.array(action_fields(want.prev_action), dtype).tobytes()
    assert record["r_t"].tobytes() == np.float64(want.r_t).tobytes()
    if want.r_next is None:
        assert np.isnan(record["r_next"])
    else:
        assert record["r_next"].tobytes() == np.float64(want.r_next).tobytes()
    rmap = want.reward_map
    bh, bw = rmap.values.shape
    assert record["box"].tolist() == (rmap.y0, rmap.x0, bh, bw)
    assert boxes[i].shape[0] >= bh and boxes[i].shape[1] >= bw
    assert boxes[i][:bh, :bw].tobytes() == rmap.values.tobytes()


_q_values = st.sampled_from([0.0, -0.0, 1.5, -2.25]) | st.floats(
    -1e6, 1e6, allow_nan=False)


@st.composite
def _actions(draw, h, w):
    return Action(draw(st.sampled_from(list(Primitive))),
                  draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)),
                  draw(st.integers(0, 7)), draw(_q_values))


@st.composite
def _rows(draw, h, w, max_height, whole_grid_box=False):
    heights = np.array(draw(st.lists(st.integers(0, max_height),
                                     min_size=h * w, max_size=h * w)),
                       dtype=np.int64).reshape(h, w)
    if whole_grid_box:
        y0, x0, bh, bw = 0, 0, h, w
    else:
        y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        bh, bw = draw(st.integers(1, h - y0)), draw(st.integers(1, w - x0))
    values = np.array(draw(st.lists(st.floats(0, 10), min_size=bh * bw,
                                    max_size=bh * bw))).reshape(bh, bw)
    return Transition(
        observation=Observation(heights=heights, holding=draw(st.booleans()),
                                height_norm=draw(st.integers(1, 5))),
        prev_action=draw(st.none() | _actions(h, w)),
        action=draw(_actions(h, w)), r_t=draw(st.floats(0, 5)),
        reward_map=RewardMap(y0=y0, x0=x0, values=values, shape=(h, w)),
        r_next=draw(st.none() | st.floats(0, 5)))


class TestSlotRows:
    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 9), shape=st.tuples(st.integers(1, 4),
                                                       st.integers(1, 4)),
           max_height=st.sampled_from([3, 255, 300]), seed=st.integers(0, 99),
           data=st.data())
    def test_rows_come_back_as_pushed(self, capacity, shape, max_height,
                                      seed, data):
        # Small capacities evict. Boxes of random sizes, and "grow" rows
        # whose box is the whole grid, grow every slot's box while earlier
        # rows are held.
        buf = ReplayBuffer(capacity=capacity, max_height=max_height)
        rng = np.random.default_rng(seed)
        pushed = {}     # insert id -> the transition, with its final r_next
        last_ids = []
        for op in data.draw(st.lists(st.sampled_from(
                ["push", "push", "grow", "finalize", "sample", "update"]),
                min_size=1, max_size=40)):
            if op in ("push", "grow") and not buf.has_pending:
                row = data.draw(_rows(*shape, max_height,
                                      whole_grid_box=op == "grow"))
                pushed[buf.push(row)] = row
            elif op == "finalize" and buf.has_pending:
                r_next = data.draw(st.floats(0, 5))
                buf.finalize_pending(r_next)
                newest = buf._next_index - 1
                pushed[newest] = replace(pushed[newest], r_next=r_next)
            elif op == "sample" and buf.sampleable_count():
                k = data.draw(st.integers(1, buf.sampleable_count()))
                last_ids = buf.sample(k, rng)
                batch = buf.rows(last_ids)
                for i, index in enumerate(last_ids):
                    assert pushed[index].r_next is not None
                    assert_batch_entry_is(buf, batch, i, pushed[index])
            elif op == "update" and last_ids:
                buf.update_priorities(last_ids, rng.random(len(last_ids)))
            ids = held_ids(buf)
            assert [r["insert_index"] for r in buf.dump_records()] == ids
            if not ids:
                continue
            if buf.has_pending:
                # pending_reward reads the newest held row's pushed r_t.
                assert np.float64(buf.pending_reward()).tobytes() == \
                    np.float64(pushed[ids[-1]].r_t).tobytes()
            batch = buf.rows(ids)
            for i, (index, got) in enumerate(zip(ids,
                                                 rebuilt_rows(buf, ids))):
                assert_batch_entry_is(buf, batch, i, pushed[index])
                assert_same_row(got, pushed[index])

    @pytest.mark.parametrize("max_height, dtype", [
        (4, np.uint8), (255, np.uint8), (256, np.uint16),
        (70_000, np.uint32)])
    def test_height_at_dtype_maximum_stored_exactly_above_raises(
            self, max_height, dtype):
        buf = ReplayBuffer(capacity=3, max_height=max_height)
        assert buf.height_dtype == dtype
        top = int(np.iinfo(dtype).max)

        def row(cells):
            tr = make_transition()
            obs = Observation(heights=np.array([cells]), holding=False,
                              height_norm=1)
            return Transition(observation=obs, prev_action=None,
                              action=tr.action, r_t=tr.r_t, r_next=tr.r_next,
                              reward_map=spike_reward_map(0.0, (0, 0),
                                                          (1, 2)))
        stored = buf.rows([buf.push(row([top, 0]))])[0][0]
        assert stored.dtype == dtype and stored.tolist() == [[top, 0]]
        for bad in ([top + 1, 0], [0, -1]):
            with pytest.raises(ReplayError, match="outside"):
                buf.push(row(bad))
        assert len(buf) == 1 and buf._next_index == 1

    def test_training_rows_are_uint8(self):
        task = TaskConfig(kind=TaskKind.BLOCK_STACKING, n_blocks=4,
                          goal_stack_height=2, width=5, height=5)
        buf = train(RunConfig(task=task, train_steps=12, eval_runs=1,
                              checkpoint_every=0)).replay_buffer
        assert buf.height_dtype == np.uint8
        assert buf.rows(held_ids(buf))[0].dtype == np.uint8
