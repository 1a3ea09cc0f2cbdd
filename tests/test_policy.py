import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridmanip.gridsim import Action, Primitive, PRIMITIVE_ORDER
from gridmanip.policy import (ExplorationState, NoValidActionError,
                              boltzmann_loss_term, epsilon_greedy_decay,
                              greedy_action, select_action, update_exploration)

STATE = ExplorationState(epsilon=0.5, beta=0.1, sigma=1.0, alpha_scale=1.0)


class TestBoltzmannTerm:
    def test_zero_loss(self):
        assert boltzmann_loss_term(0.0, STATE) == 0.0

    def test_asymptote(self):
        assert boltzmann_loss_term(1e9, STATE) > 0.999
        assert boltzmann_loss_term(1e9, STATE) < 1.0

    def test_closed_form_point(self):
        # (1 - e^-1) / (1 + e^-1), frozen from direct evaluation
        assert boltzmann_loss_term(1.0, STATE) == pytest.approx(
            0.46211715726000974, abs=1e-12)

    def test_sign_invariance(self):
        assert boltzmann_loss_term(-2.5, STATE) == boltzmann_loss_term(2.5, STATE)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_weakly_monotone_in_abs_loss(self, a, b):
        fa = boltzmann_loss_term(a, STATE)
        fb = boltzmann_loss_term(b, STATE)
        if abs(a) < abs(b):
            assert fa <= fb
        elif abs(a) == abs(b):
            assert fa == fb

    @given(st.floats(-8, 8), st.floats(-8, 8))
    def test_strictly_monotone_below_saturation(self, a, b):
        # float64 tanh saturates for huge inputs; strictness is testable in
        # the responsive range
        if abs(abs(a) - abs(b)) < 1e-9:
            return
        fa = boltzmann_loss_term(a, STATE)
        fb = boltzmann_loss_term(b, STATE)
        assert (fa < fb) == (abs(a) < abs(b))

    @given(st.floats(-1e12, 1e12, allow_nan=False))
    def test_range(self, loss):
        f = boltzmann_loss_term(loss, STATE)
        assert 0.0 <= f < 1.0


class TestExplorationUpdate:
    def test_beta_zero_keeps_epsilon(self):
        state = ExplorationState(epsilon=0.37, beta=0.0)
        assert update_exploration(state, 123.0).epsilon == 0.37

    def test_ema_arithmetic(self):
        # choose L so that f(L) = 0.2 exactly
        loss = 2.0 * math.atanh(0.2)
        state = ExplorationState(epsilon=0.4, beta=0.5, sigma=1.0,
                                 alpha_scale=1.0)
        assert update_exploration(state, loss).epsilon == pytest.approx(0.3,
                                                                        abs=1e-12)

    def test_fixed_point_of_repeated_updates(self):
        state = ExplorationState(epsilon=0.9, beta=0.1, sigma=1.0,
                                 alpha_scale=1.0)
        f = boltzmann_loss_term(0.7, state)
        for _ in range(1000):
            state = update_exploration(state, 0.7)
        assert abs(state.epsilon - f) < 1e-6

    def test_other_fields_unchanged(self):
        state = update_exploration(STATE, 2.0)
        assert (state.beta, state.sigma, state.alpha_scale) == (0.1, 1.0, 1.0)

    @given(st.lists(st.floats(0, 1e6), max_size=60))
    def test_epsilon_stays_in_unit_interval(self, losses):
        state = ExplorationState(epsilon=0.9, beta=0.3)
        for loss in losses:
            state = update_exploration(state, loss)
            assert 0.0 <= state.epsilon < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplorationState(epsilon=1.0)
        with pytest.raises(ValueError):
            ExplorationState(sigma=0.0)


class TestDecaySchedule:
    def test_initial_value(self):
        assert epsilon_greedy_decay(0) == pytest.approx(0.5)

    def test_floor(self):
        assert epsilon_greedy_decay(10_000_000) == pytest.approx(0.1)

    def test_frozen_midpoint(self):
        # 0.1 + 0.4 * 0.9998**3465, frozen from direct evaluation
        assert epsilon_greedy_decay(3465) == pytest.approx(0.3000155748701371,
                                                           abs=1e-12)

    def test_monotone_decreasing(self):
        values = [epsilon_greedy_decay(t) for t in range(0, 5000, 37)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def _qmaps(rng, rotations=2, h=4, w=4, prims=PRIMITIVE_ORDER):
    return {p: rng.normal(size=(rotations, h, w)) for p in prims}


def _full_masks(h=4, w=4, prims=PRIMITIVE_ORDER):
    return {p: np.ones((h, w), dtype=bool) for p in prims}


class TestGreedy:
    def test_all_equal_takes_first_lexicographic(self):
        q = {p: np.zeros((2, 3, 3)) for p in PRIMITIVE_ORDER}
        masks = _full_masks(3, 3)
        a = greedy_action(q, masks)
        assert (a.primitive, a.theta_index, a.y, a.x) == (Primitive.PUSH, 0, 0, 0)

    def test_single_max_found(self):
        rng = np.random.default_rng(0)
        q = {p: np.zeros((2, 4, 4)) for p in PRIMITIVE_ORDER}
        q[Primitive.PLACE][1, 2, 3] = 5.0
        a = greedy_action(q, _full_masks())
        assert (a.primitive, a.theta_index, a.y, a.x) == (Primitive.PLACE, 1, 2, 3)
        assert a.q_value == 5.0

    def test_masked_out_max_skipped(self):
        q = {p: np.zeros((1, 4, 4)) for p in PRIMITIVE_ORDER}
        q[Primitive.PICK][0, 1, 1] = 9.0
        q[Primitive.PICK][0, 2, 2] = 3.0
        masks = _full_masks()
        masks[Primitive.PICK] = np.zeros((4, 4), dtype=bool)
        masks[Primitive.PICK][2, 2] = True
        masks[Primitive.PUSH][:] = False
        masks[Primitive.PLACE][:] = False
        a = greedy_action(q, masks)
        assert (a.primitive, a.x, a.y) == (Primitive.PICK, 2, 2)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        q = _qmaps(rng)
        masks = {p: rng.random((4, 4)) < 0.5 for p in PRIMITIVE_ORDER}
        masks[Primitive.PUSH][0, 0] = True
        base = greedy_action(q, masks)
        for c in (0.5, 2.0, 17.0):
            scaled = {p: c * v for p, v in q.items()}
            a = greedy_action(scaled, masks)
            assert (a.primitive, a.theta_index, a.x, a.y) == \
                (base.primitive, base.theta_index, base.x, base.y)

    def test_all_masked_raises(self):
        q = {p: np.zeros((1, 3, 3)) for p in PRIMITIVE_ORDER}
        masks = {p: np.zeros((3, 3), dtype=bool) for p in PRIMITIVE_ORDER}
        with pytest.raises(NoValidActionError):
            greedy_action(q, masks)


def _select(q, masks, epsilon, rng):
    """select_action on the ready maps ``q``, which all share one rotation
    count."""
    rotations = next(iter(q.values())).shape[0]
    return select_action(lambda: q, lambda prim, r: q[prim][r], masks,
                         rotations, epsilon, rng)


class TestSelect:
    def test_epsilon_zero_equals_greedy(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            q = _qmaps(rng)
            masks = {p: rng.random((4, 4)) < 0.6 for p in PRIMITIVE_ORDER}
            if not any(m.any() for m in masks.values()):
                continue
            state = ExplorationState(epsilon=0.0)
            a = _select(q, masks, state.epsilon, rng)
            g = greedy_action(q, masks)
            assert (a.primitive, a.theta_index, a.x, a.y) == \
                (g.primitive, g.theta_index, g.x, g.y)

    def test_epsilon_one_single_candidate(self):
        q = {Primitive.PICK: np.zeros((1, 3, 3))}
        masks = {Primitive.PICK: np.zeros((3, 3), dtype=bool)}
        masks[Primitive.PICK][1, 2] = True
        rng = np.random.default_rng(0)
        state = ExplorationState(epsilon=np.nextafter(1.0, 0.0))
        for _ in range(20):
            a = _select(q, masks, state.epsilon, rng)
            assert (a.primitive, a.x, a.y) == (Primitive.PICK, 2, 1)

    def test_uniform_frequencies_four_candidates(self):
        # epsilon=1, 4 valid cells, one rotation: each frequency within 0.01
        # of 0.25 over 100k draws
        q = {Primitive.PICK: np.zeros((1, 3, 3))}
        masks = {Primitive.PICK: np.zeros((3, 3), dtype=bool)}
        cells = [(0, 0), (2, 1), (1, 2), (2, 2)]
        for x, y in cells:
            masks[Primitive.PICK][y, x] = True
        rng = np.random.default_rng(42)
        state = ExplorationState(epsilon=np.nextafter(1.0, 0.0))
        counts = {c: 0 for c in cells}
        n = 100_000
        for _ in range(n):
            a = _select(q, masks, state.epsilon, rng)
            counts[(a.x, a.y)] += 1
        for c in cells:
            assert abs(counts[c] / n - 0.25) < 0.01

    def test_returned_q_matches_entry(self):
        rng = np.random.default_rng(9)
        q = _qmaps(rng)
        masks = _full_masks()
        a = _select(q, masks, 0.7, rng)
        assert a.q_value == q[a.primitive][a.theta_index, a.y, a.x]

    def test_never_returns_invalid_pose(self):
        # quantified invariant: 100k random (q, mask, rng) instances
        rng = np.random.default_rng(77)
        hits = 0
        for _ in range(100_000):
            rotations = int(rng.integers(1, 3))
            q = {p: rng.normal(size=(rotations, 3, 3))
                 for p in PRIMITIVE_ORDER}
            masks = {p: rng.random((3, 3)) < 0.3 for p in PRIMITIVE_ORDER}
            if not any(m.any() for m in masks.values()):
                continue
            state = ExplorationState(epsilon=float(rng.random()))
            a = _select(q, masks, state.epsilon, rng)
            assert masks[a.primitive][a.y, a.x]
            hits += 1
        assert hits > 90_000

    def test_empty_masks_raise(self):
        q = {p: np.zeros((1, 2, 2)) for p in PRIMITIVE_ORDER}
        masks = {p: np.zeros((2, 2), dtype=bool) for p in PRIMITIVE_ORDER}
        rng = np.random.default_rng(0)
        with pytest.raises(NoValidActionError):
            _select(q, masks, 1 - 1e-9, rng)
        with pytest.raises(NoValidActionError):
            _select(q, masks, 0.0, rng)


# Reference: selection as it was before the Q maps became lazy. Every map of
# every actable primitive was computed first; the count of a primitive's
# entries came from its map's rotation count.

def eager_select_action(q_maps, masks, epsilon, rng):
    if float(rng.random()) < epsilon:
        counts = [(prim, q_maps[prim].shape[0] * int(masks[prim].sum()))
                  for prim in PRIMITIVE_ORDER if prim in q_maps]
        total = sum(c for _, c in counts)
        if total == 0:
            raise NoValidActionError("no valid pose under any primitive mask")
        draw = int(rng.integers(total))
        for prim, count in counts:
            if draw >= count:
                draw -= count
                continue
            rotations = q_maps[prim].shape[0]
            r, cell = divmod(draw, count // rotations)
            ys, xs = np.nonzero(masks[prim])
            y, x = int(ys[cell]), int(xs[cell])
            return Action(primitive=prim, x=x, y=y, theta_index=r,
                          q_value=float(q_maps[prim][r, y, x]))
        raise AssertionError("unreachable")
    return greedy_action(q_maps, masks)


class CountingMaps:
    """The two lazy views select_action takes, over ready maps, counting
    what is asked of them."""

    def __init__(self, q):
        self.q = q
        self.full_calls = 0
        self.one_calls = []

    def full(self):
        self.full_calls += 1
        return self.q

    def one(self, prim, r):
        self.one_calls.append((prim, r))
        return self.q[prim][r]


class TestLazySelect:
    def test_equals_eager_version(self):
        # Masks as the episode loop builds them: one per allowed primitive,
        # maps only for those with a valid cell.
        rng = np.random.default_rng(11)
        for _ in range(3000):
            rotations = int(rng.integers(1, 9))
            h, w = (int(v) for v in rng.integers(1, 6, size=2))
            allowed = [p for p in PRIMITIVE_ORDER if rng.random() < 0.7]
            masks = {p: rng.random((h, w)) < rng.random() for p in allowed}
            actable = [p for p in allowed if masks[p].any()]
            if not actable:
                continue
            q = {p: rng.normal(size=(rotations, h, w)) for p in actable}
            epsilon = float(rng.choice([0.0, 1.0, rng.random()]))
            seed = int(rng.integers(2**32))
            lazy_rng = np.random.default_rng(seed)
            eager_rng = np.random.default_rng(seed)
            maps = CountingMaps(q)
            got = select_action(maps.full, maps.one, masks, rotations,
                                epsilon, lazy_rng)
            assert got == eager_select_action(q, masks, epsilon, eager_rng)
            assert lazy_rng.bit_generator.state == \
                eager_rng.bit_generator.state

    def test_explore_computes_one_rotation(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = _qmaps(rng, rotations=4)
            masks = {p: rng.random((4, 4)) < 0.5 for p in PRIMITIVE_ORDER}
            masks[Primitive.PICK][1, 1] = True
            maps = CountingMaps(q)
            a = select_action(maps.full, maps.one, masks, 4, 1.0, rng)
            assert maps.full_calls == 0
            assert maps.one_calls == [(a.primitive, a.theta_index)]
            assert a.q_value == q[a.primitive][a.theta_index, a.y, a.x]

    def test_greedy_computes_the_maps_once(self):
        rng = np.random.default_rng(6)
        q = _qmaps(rng, rotations=4)
        maps = CountingMaps(q)
        a = select_action(maps.full, maps.one, _full_masks(), 4, 0.0, rng)
        assert (maps.full_calls, maps.one_calls) == (1, [])
        assert a == greedy_action(q, _full_masks())

    def test_empty_masks_count_no_cells(self):
        # An allowed primitive without a valid cell has no map, and no draw
        # lands on it.
        masks = {p: np.zeros((3, 3), dtype=bool) for p in PRIMITIVE_ORDER}
        masks[Primitive.PLACE][2, 0] = True
        q = {Primitive.PLACE: np.arange(18.0).reshape(2, 3, 3)}
        rng = np.random.default_rng(1)
        for _ in range(50):
            maps = CountingMaps(q)
            a = select_action(maps.full, maps.one, masks, 2, 1.0, rng)
            assert (a.primitive, a.x, a.y) == (Primitive.PLACE, 0, 2)
