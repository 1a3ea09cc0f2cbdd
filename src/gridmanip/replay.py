"""Experience replay with stochastic rank-based prioritization.

Items are sampled without replacement with probability proportional to
(1/rank)^omega, ranks ordered by descending priority (ties broken by insert
order). The newest transition stays pending, and unsampleable, until the
following step's reward arrives to complete its bootstrap target.

The buffer keeps every row's fields in arrays, allocated at the first push
and indexed by ring slot, ``insert_index % capacity``: the height grid in
the narrowest unsigned dtype that holds ``max_height``, the holding flag and
height norm, the action and the previous action (with a flag for none), the
two rewards, and the reward map's supervised box with its values. The slot
arrays are the only form a stored row takes: a ``Transition`` is what
``push`` takes in, ``sample`` returns the drawn insert ids, ``rows(ids)``
hands training the drawn slots of the three arrays, and ``pending_reward``
reads one field of the newest row. A row takes 84 bytes of scalar fields,
its height grid and its box: 576 bytes at 10x10 with uint8 heights and the
Gaussian reward's 7x7 box at the default sigmas, 128 bytes at 6x6 with the
baseline's one-pixel box.

The buffer owns every priority: they live in one preallocated float64 array
kept in insertion order. Eviction is oldest-first, so held insert indices
are contiguous and a transition's place in that array is its insert index
minus the oldest one's. Beside the priorities the buffer keeps every held
item's rank order as a sorted array of complex keys
``-priority + 1j * insert_index``: NumPy orders complex numbers by real
part, then imaginary part, so ascending keys are descending priorities with
ties in insert order, and one ``searchsorted`` finds an item's exact place.

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
copy, so training pays no extra copy. ``rows`` checks its k ids and makes
three fancy indexes of k slots, whatever N. None of them walks the
transitions in Python. On a 2-vCPU x86-64 VM with NumPy 2.4, one push,
sample, rows and update of k = 8 take about 0.16 ms together at N = 4000
(6x6 rows), 0.13 ms at N = 2000 and 0.08 ms at N = 50 (10x10 rows); rows
alone takes about 15 us.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gridsim import PRIMITIVE_ORDER, action_fields

PRIORITY_FLOOR = 1e-6

# One action in a row: its primitive's place in PRIMITIVE_ORDER, its pose and
# its Q value.
_ACTION = np.dtype([("primitive", np.uint8), ("x", np.int32), ("y", np.int32),
                    ("theta_index", np.int32), ("q_value", np.float64)])
# A row's fields beside its height grid and reward box values. r_next is NaN
# while the row is pending.
_ROW = np.dtype([
    ("holding", np.bool_), ("height_norm", np.int64),
    ("action", _ACTION), ("prev_action", _ACTION), ("has_prev", np.bool_),
    ("r_t", np.float64), ("r_next", np.float64),
    ("box", [("y0", np.int32), ("x0", np.int32), ("h", np.int32),
             ("w", np.int32)]),
])


class ReplayError(RuntimeError):
    pass


class UnderfullError(ReplayError):
    """Fewer sampleable transitions than requested; skip the train step."""


@dataclass(frozen=True)
class Transition:
    """One step as ``push`` stores it in a row."""
    observation: object
    prev_action: object     # the Action before; None at an episode's start
    action: object
    r_t: float
    reward_map: object
    r_next: float | None = None     # None: pending until finalize_pending


class ReplayBuffer:
    """Rank-prioritized replay of at most ``capacity`` transitions.

    ``rank_exponent`` is fixed at construction: the rank law is tabulated
    once for every rank up to ``capacity``. Height grids are stored in the
    narrowest unsigned dtype that holds ``max_height``, which training sets
    to the task's block count; pushing a height that dtype cannot hold
    raises ReplayError. ``push`` returns the row's insert index, which
    ``sample`` draws and ``rows`` and ``update_priorities`` take.
    """

    def __init__(self, capacity: int = 2000, rank_exponent: float = 0.7,
                 max_height: int = 5):
        if capacity < 1:
            raise ValueError(f"replay capacity must be >= 1, got {capacity}")
        if max_height < 0:
            raise ValueError(f"max_height must be >= 0, got {max_height}")
        self.capacity = capacity
        self.rank_exponent = rank_exponent
        self.height_dtype = np.min_scalar_type(max_height)
        self._len = 0
        # [i] belongs to the i-th oldest item
        self._priorities = np.empty(capacity)
        # [:len] holds every item's key, ascending: the rank order
        self._order = np.empty(capacity, dtype=complex)
        self._rank_law = (1.0 / np.arange(1, capacity + 1)) ** rank_exponent
        self._next_index = 0
        self._law = None        # see _sampleable_law
        self._pending = False   # whether the newest row awaits its r_next
        # Per ring slot, allocated at the first push (see _store).
        self._heights = self._rows = self._box_values = None

    def __len__(self):
        return self._len

    @property
    def has_pending(self):
        return self._pending

    def pending_reward(self) -> float:
        """The pending transition's r_t, read from its row."""
        if not self._pending:
            raise ReplayError("no pending transition")
        return float(self._rows["r_t"][(self._next_index - 1) % self.capacity])

    def _sampleable(self):
        # Only the newest item can be pending. Internal callers use this,
        # not sampleable_count, so that per-method call counts and timings
        # of the public API reflect the caller's calls alone.
        return self._len - self.has_pending

    def sampleable_count(self):
        return self._sampleable()

    def push(self, transition: Transition) -> int:
        """Store with priority equal to the current maximum (1.0 if empty);
        returns the row's insert index."""
        if self.has_pending:
            raise ReplayError("previous transition still pending; finalize first")
        self._check(transition)
        self._law = None
        n = self._len
        order = self._order
        priority = -order[0].real if n else 1.0
        if n == self.capacity:
            oldest = self._next_index - n
            pos = order[:n].searchsorted(complex(-self._priorities[0], oldest))
            order[pos:n - 1] = order[pos + 1:n]
            self._priorities[:-1] = self._priorities[1:]
            n -= 1
        index = self._next_index
        self._next_index += 1
        self._store(index % self.capacity, transition)
        self._len = n + 1
        self._pending = transition.r_next is None
        self._priorities[n] = priority
        # Ranks last among the items tied at the maximum: it is the newest.
        key = complex(-priority, index)
        pos = order[:n].searchsorted(key)
        # A copy: NumPy shifts an overlapping slice rightwards element-wise.
        order[pos + 1:n + 1] = order[pos:n].copy()
        order[pos] = key
        return index

    def _check(self, transition):
        """Raise ReplayError unless the transition's grids fit the rows."""
        heights = transition.observation.heights
        if self._heights is not None and \
                heights.shape != self._heights.shape[1:]:
            raise ReplayError(f"observation shape {heights.shape}, the "
                              f"buffer holds {self._heights.shape[1:]}")
        if transition.reward_map.shape != heights.shape:
            raise ReplayError(f"reward map shape {transition.reward_map.shape}"
                              f" differs from observation shape {heights.shape}")
        top = np.iinfo(self.height_dtype).max
        if heights.min() < 0 or heights.max() > top:
            raise ReplayError(f"heights span [{heights.min()}, {heights.max()}]"
                              f", outside the {self.height_dtype} rows' "
                              f"[0, {top}]")

    def _store(self, slot, transition):
        obs, prev = transition.observation, transition.prev_action
        rmap = transition.reward_map
        values = rmap.values
        # Uninitialized: a slot is read only after it is written, and a
        # box only on the part its row wrote. So no page of a slot not yet
        # written is touched.
        if self._rows is None:
            self._heights = np.empty((self.capacity, *obs.shape),
                                     self.height_dtype)
            self._rows = np.empty(self.capacity, _ROW)
            self._box_values = np.empty((self.capacity, 0, 0))
        boxes = self._box_values
        if values.shape[0] > boxes.shape[1] or values.shape[1] > boxes.shape[2]:
            # Grow every slot's box to hold the larger one; copy the slots
            # written so far.
            grown = np.empty((self.capacity,
                              *np.maximum(values.shape, boxes.shape[1:])))
            used = min(self._next_index, self.capacity)
            grown[:used, :boxes.shape[1], :boxes.shape[2]] = boxes[:used]
            self._box_values = boxes = grown
        self._heights[slot] = obs.heights
        self._rows[slot] = (
            obs.holding, obs.height_norm, action_fields(transition.action),
            action_fields(prev) if prev is not None else (0, 0, 0, 0, 0.0),
            prev is not None, transition.r_t,
            math.nan if transition.r_next is None else transition.r_next,
            (rmap.y0, rmap.x0, *values.shape))
        boxes[slot, :values.shape[0], :values.shape[1]] = values

    def finalize_pending(self, r_next: float):
        """Attach the follow-up reward to the most recent transition."""
        if not self.has_pending:
            raise ReplayError("no pending transition to finalize")
        self._law = None
        self._rows["r_next"][(self._next_index - 1) % self.capacity] = \
            float(r_next)
        self._pending = False

    def _rank_weights(self, n):
        """(1/rank)^omega for the n oldest items, ranks by descending priority
        then insert order: the rank law scattered through the kept order."""
        held = self._len
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
        """Draw k distinct finalized rows (sequential renormalized draws
        from the rank law); returns their insert ids, in draw order."""
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
        oldest = self._next_index - self._len
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
            chosen.append(oldest + pos)
        return chosen

    def rows(self, ids):
        """The held rows with these insert ids, in their order: (heights,
        records, boxes), each one fancy index of its slot array, so a copy.
        ``heights[i]`` is row i's height grid, ``records[i]`` its ``_ROW``
        record, and ``boxes[i]`` holds its reward box's values at
        ``[:h, :w]`` of the record's box; the rest of ``boxes[i]`` is
        unspecified. A pending row's ``r_next`` is NaN."""
        if self._rows is None:
            raise ReplayError("no row has been pushed")
        oldest = self._next_index - self._len
        for index in ids:
            if not oldest <= index < self._next_index:
                raise ReplayError(f"insert index {index} is not held; the "
                                  f"buffer holds [{oldest}, "
                                  f"{self._next_index})")
        slots = np.asarray(ids, dtype=np.intp) % self.capacity
        return (self._heights[slots], self._rows[slots],
                self._box_values[slots])

    def update_priorities(self, ids, losses):
        """priority <- |loss| + floor; ids evicted in the meantime are skipped,
        and of repeated ids the last wins. A non-finite loss has no rank: it
        raises ReplayError before any priority changes."""
        n = self._len
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
        n = self._len
        if not n:
            return []
        oldest = self._next_index - n
        rows = self._rows[np.arange(oldest, oldest + n) % self.capacity]
        r_next = rows["r_next"].tolist()
        if self.has_pending:
            r_next[-1] = None
        return [{"insert_index": oldest + i, "r_t": r_t, "r_next": rn,
                 "priority": priority,
                 "primitive": PRIMITIVE_ORDER[action[0]].value,
                 "x": action[1], "y": action[2], "theta_index": action[3]}
                for i, (r_t, rn, priority, action) in enumerate(zip(
                    rows["r_t"].tolist(), r_next,
                    self._priorities[:n].tolist(), rows["action"].tolist()))]
