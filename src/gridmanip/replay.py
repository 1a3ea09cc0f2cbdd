"""Experience replay with stochastic rank-based prioritization.

Items are sampled without replacement with probability proportional to
(1/rank)^omega, ranks ordered by descending priority (ties broken by insert
order). The newest transition stays pending, and unsampleable, until the
following step's reward arrives to complete its bootstrap target.

The buffer owns every priority: they live in one preallocated float64 array
kept in insertion order beside the list of transitions, which stay plain
data. Eviction is oldest-first, so held insert indices are contiguous and a
transition's slot is its insert index minus the oldest one's. Per call, with N items held and k drawn: ``sampleable_count``
and ``finalize_pending`` are O(1); ``push`` is one array max plus, once
full, one array shift; ``update_priorities`` is O(k); ``sample`` and
``probabilities`` are one stable argsort of the priorities plus, for
``sample``, k cumulative sums. None of them walks the transitions in Python.
"""

from dataclasses import dataclass

import numpy as np

PRIORITY_FLOOR = 1e-6


class ReplayError(RuntimeError):
    pass


class UnderfullError(ReplayError):
    """Fewer sampleable transitions than requested; skip the train step."""


@dataclass
class Transition:
    observation: object
    prev_action_context: object
    action: object
    r_t: float
    reward_map: object
    r_next: float | None = None     # pending until the next step finalizes it
    insert_index: int = -1

    @property
    def pending(self):
        return self.r_next is None


class ReplayBuffer:
    """Rank-prioritized replay of at most ``capacity`` transitions.

    ``rank_exponent`` is fixed at construction: the rank law is tabulated
    once for every rank up to ``capacity``.
    """

    def __init__(self, capacity: int = 2000, rank_exponent: float = 0.7):
        if capacity < 1:
            raise ValueError(f"replay capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rank_exponent = rank_exponent
        self._items = []                          # oldest first
        self._priorities = np.empty(capacity)     # [i] belongs to _items[i]
        self._rank_law = (1.0 / np.arange(1, capacity + 1)) ** rank_exponent
        self._next_index = 0

    def __len__(self):
        return len(self._items)

    @property
    def has_pending(self):
        return bool(self._items) and self._items[-1].pending

    def pending_item(self):
        return self._items[-1] if self.has_pending else None

    def _sampleable(self):
        # Only the newest item can be pending. Internal callers use this,
        # not sampleable_count, so that per-method call counts and timings
        # of the public API reflect the caller's calls alone.
        return len(self._items) - self.has_pending

    def sampleable_count(self):
        return self._sampleable()

    def _slot(self, insert_index):
        """Array slot of a held insert index, or None once evicted."""
        slot = insert_index - (self._next_index - len(self._items))
        return slot if 0 <= slot < len(self._items) else None

    def push(self, transition: Transition):
        """Store with priority equal to the current maximum (1.0 if empty)."""
        if self.has_pending:
            raise ReplayError("previous transition still pending; finalize first")
        n = len(self._items)
        priority = self._priorities[:n].max() if n else 1.0
        if n == self.capacity:
            self._items.pop(0)
            self._priorities[:-1] = self._priorities[1:]
            n -= 1
        transition.insert_index = self._next_index
        self._next_index += 1
        self._items.append(transition)
        self._priorities[n] = priority

    def finalize_pending(self, r_next: float):
        """Attach the follow-up reward to the most recent transition."""
        if not self.has_pending:
            raise ReplayError("no pending transition to finalize")
        self._items[-1].r_next = float(r_next)

    def _rank_weights(self, n):
        """(1/rank)^omega for the n oldest items, ranks by descending priority
        then insert order (a stable sort of the insertion-ordered array)."""
        order = np.argsort(-self._priorities[:n], kind="stable")
        weights = np.empty(n)
        weights[order] = self._rank_law[:n]
        return weights

    def probabilities(self):
        """Normalized single-draw distribution over sampleable items, in
        insertion order."""
        weights = self._rank_weights(self._sampleable())
        return weights / weights.sum()

    def sample(self, k: int, rng: np.random.Generator):
        """Draw k distinct finalized transitions (sequential renormalized
        draws from the rank law); returns (items, ids)."""
        n = self._sampleable()
        if n < k:
            raise UnderfullError(f"need {k} sampleable transitions, have {n}")
        weights = self._rank_weights(n)
        chosen = []
        for _ in range(k):
            cdf = np.cumsum(weights)
            pos = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
            pos = min(pos, n - 1)
            weights[pos] = 0.0
            chosen.append(self._items[pos])
        return chosen, [t.insert_index for t in chosen]

    def update_priorities(self, ids, losses):
        """priority <- |loss| + floor; ids evicted in the meantime are skipped."""
        for insert_index, loss in zip(ids, losses):
            slot = self._slot(insert_index)
            if slot is not None:
                self._priorities[slot] = abs(float(loss)) + PRIORITY_FLOOR

    def dump_records(self):
        """Plain-dict view of the buffer for post-hoc inspection."""
        priorities = self._priorities[:len(self._items)].tolist()
        return [{"insert_index": t.insert_index, "r_t": t.r_t,
                 "r_next": t.r_next, "priority": priority,
                 "primitive": t.action.primitive.value,
                 "x": t.action.x, "y": t.action.y,
                 "theta_index": t.action.theta_index}
                for t, priority in zip(self._items, priorities)]
