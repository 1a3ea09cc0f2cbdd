"""Experience replay with stochastic rank-based prioritization.

Items are sampled without replacement with probability proportional to
(1/rank)^omega, ranks ordered by descending priority (ties broken by insert
order). The newest transition stays pending, and unsampleable, until the
following step's reward arrives to complete its bootstrap target.

The buffer owns every priority: they live in one preallocated float64 array
kept in insertion order beside the list of transitions, which stay plain
data. Eviction is oldest-first, so held insert indices are contiguous and a
transition's slot is its insert index minus the oldest one's. Beside the
priorities the buffer keeps every held item's rank order as a sorted array
of complex keys ``-priority + 1j * insert_index``: NumPy orders complex
numbers by real part, then imaginary part, so ascending keys are descending
priorities with ties in insert order, and one ``searchsorted`` finds an
item's exact place.

Per call, with N items held and k drawn: ``sampleable_count`` and
``finalize_pending`` are O(1); ``push`` reads the maximum at the head of the
order and shifts the order once (twice once full, to evict);
``update_priorities`` moves its k items in one batch of two ``searchsorted``
calls and two masked copies of the order; ``sample`` and ``probabilities``
scatter the rank law through the order, with no sort, and ``sample`` runs
one full cumulative sum plus, per later draw, one over the tail from the
item drawn last. ``probabilities`` and single draws keep the scattered law
and its cumulative sum until the buffer next changes, so repeated single
draws from an unchanged buffer skip both; a batch draw rewrites its own
copy, so training pays no extra copy. None of them walks the transitions in Python. On a
2-vCPU x86-64 VM with NumPy 2.4, one push, sample and update of k = 8 take
about 0.15 ms together at N = 4000, 0.10 ms at N = 2000 and 0.07 ms at
N = 50.
"""

import math
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
    prev_action: object     # the Action before; None at an episode's start
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
        # [:len] holds every item's key, ascending: the rank order
        self._order = np.empty(capacity, dtype=complex)
        self._rank_law = (1.0 / np.arange(1, capacity + 1)) ** rank_exponent
        self._next_index = 0
        self._law = None        # see _sampleable_law

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

    def push(self, transition: Transition):
        """Store with priority equal to the current maximum (1.0 if empty)."""
        if self.has_pending:
            raise ReplayError("previous transition still pending; finalize first")
        self._law = None
        n = len(self._items)
        order = self._order
        priority = -order[0].real if n else 1.0
        if n == self.capacity:
            evicted = self._items.pop(0)
            pos = order[:n].searchsorted(complex(-self._priorities[0],
                                                 evicted.insert_index))
            order[pos:n - 1] = order[pos + 1:n]
            self._priorities[:-1] = self._priorities[1:]
            n -= 1
        transition.insert_index = self._next_index
        self._next_index += 1
        self._items.append(transition)
        self._priorities[n] = priority
        # Ranks last among the items tied at the maximum: it is the newest.
        key = complex(-priority, transition.insert_index)
        pos = order[:n].searchsorted(key)
        # A copy: NumPy shifts an overlapping slice rightwards element-wise.
        order[pos + 1:n + 1] = order[pos:n].copy()
        order[pos] = key

    def finalize_pending(self, r_next: float):
        """Attach the follow-up reward to the most recent transition."""
        if not self.has_pending:
            raise ReplayError("no pending transition to finalize")
        self._law = None
        self._items[-1].r_next = float(r_next)

    def _rank_weights(self, n):
        """(1/rank)^omega for the n oldest items, ranks by descending priority
        then insert order: the rank law scattered through the kept order."""
        held = len(self._items)
        slots = self._order[:held].imag.astype(np.intp)
        slots -= self._next_index - held
        if n < held:
            slots = slots[slots < n]
        weights = np.empty(n)
        weights[slots] = self._rank_law[:n]
        return weights

    def _sampleable_law(self):
        """The sampleable items' rank weights and their cumulative sum, kept
        until push, update_priorities or finalize_pending changes the buffer.
        Callers only read them."""
        if self._law is None:
            weights = self._rank_weights(self._sampleable())
            self._law = weights, weights.cumsum()
        return self._law

    def probabilities(self):
        """Normalized single-draw distribution over sampleable items, in
        insertion order."""
        weights, _ = self._sampleable_law()
        return weights / weights.sum()

    def sample(self, k: int, rng: np.random.Generator):
        """Draw k distinct finalized transitions (sequential renormalized
        draws from the rank law); returns (items, ids)."""
        n = self._sampleable()
        if n < k:
            raise UnderfullError(f"need {k} sampleable transitions, have {n}")
        if k == 1:
            weights, cdf = self._sampleable_law()
        else:
            # Later draws rewrite both, so they are built afresh and not
            # kept: in training the buffer changes between draws anyway.
            weights = self._rank_weights(n)
            cdf = weights.cumsum()
        chosen = []
        # One call for k uniforms draws what k single calls would.
        for draw, u in enumerate(rng.random(k)):
            if draw:
                # Zero the last drawn weight and re-accumulate the tail from
                # its slot, which holds the sum before it meanwhile. A cumsum
                # adds left to right, so cdf gets the bits of a full cumsum
                # of the zeroed weights.
                weights[pos] = cdf[pos - 1] if pos else 0.0
                weights[pos:].cumsum(out=cdf[pos:])
                weights[pos] = 0.0
            pos = int(cdf.searchsorted(u * cdf[-1], side="right"))
            pos = min(pos, n - 1)
            chosen.append(self._items[pos])
        return chosen, [t.insert_index for t in chosen]

    def update_priorities(self, ids, losses):
        """priority <- |loss| + floor; ids evicted in the meantime are skipped,
        and of repeated ids the last wins. A non-finite loss has no rank: it
        raises ReplayError before any priority changes."""
        n = len(self._items)
        oldest = self._next_index - n
        latest = {}
        for insert_index, loss in zip(ids, losses):
            priority = abs(float(loss)) + PRIORITY_FLOOR
            if not math.isfinite(priority):
                raise ReplayError(f"non-finite loss {loss!r} for transition "
                                  f"{insert_index}")
            if oldest <= insert_index < self._next_index:
                latest[insert_index] = priority
        if not latest:
            return
        self._law = None
        moved = np.fromiter(latest, np.intp, len(latest))
        new = np.fromiter(latest.values(), float, len(latest))
        slots = moved - oldest
        order = self._order[:n]
        # Lift the moved items' old keys out of the order, then merge their
        # new keys back in among the rest: two masked copies, no sort of N.
        keep = np.ones(n, dtype=bool)
        keep[order.searchsorted(1j * moved - self._priorities[slots])] = False
        rest = order[keep]
        keys = 1j * moved - new
        keys.sort()
        at = rest.searchsorted(keys) + np.arange(len(keys))
        keep = np.ones(n, dtype=bool)
        keep[at] = False
        order[keep] = rest
        order[at] = keys
        self._priorities[slots] = new

    def dump_records(self):
        """Plain-dict view of the buffer for post-hoc inspection."""
        priorities = self._priorities[:len(self._items)].tolist()
        return [{"insert_index": t.insert_index, "r_t": t.r_t,
                 "r_next": t.r_next, "priority": priority,
                 "primitive": t.action.primitive.value,
                 "x": t.action.x, "y": t.action.y,
                 "theta_index": t.action.theta_index}
                for t, priority in zip(self._items, priorities)]
