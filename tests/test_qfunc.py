import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gridmanip.gridsim import (Action, Observation, Primitive, PRIMITIVE_ORDER,
                               TaskConfig, TaskKind, Workspace, observe,
                               theta_radians)
from gridmanip import qfunc
from gridmanip.qfunc import (CHECKPOINT_VERSION, CheckpointError, IN_CHANNELS,
                             QNetwork, TrainHyper, TrainingDivergence,
                             build_target_map, compute_target, forward_all,
                             forward_rotation, load_checkpoint, meta_path,
                             read_checkpoint_header, robust_loss, rotate_grid,
                             rotate_grid_grad, save_checkpoint, stack_input,
                             train_step, transition_backward, transition_loss)
from gridmanip.replay import Transition
from gridmanip.reward import RewardParams, spike_reward_map, tpg_reward_map
from gridmanip.selftest import gradient_check, random_transition


# ---------------------------------------------------------------------------
# Reference implementation: the straightforward im2col network that the
# lean hot path in gridmanip.qfunc must reproduce bit for bit. Every layer
# rotates or pads its input into a fresh array, gathers patches from it and
# keeps the (channels, h, w) layout; rotation gradients scatter-add.


def ref_rotation_map(h, w, theta):
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dx, dy = xs - cx, ys - cy
    ct, st_ = math.cos(theta), math.sin(theta)
    sx = np.round(ct * dx + st_ * dy + cx)
    sy = np.round(-st_ * dx + ct * dy + cy)
    valid = (sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)
    flat = (np.clip(sy, 0, h - 1) * w + np.clip(sx, 0, w - 1)).astype(np.intp)
    return flat, valid


def ref_rotate_grid(grid, theta):
    h, w = grid.shape[-2:]
    flat, valid = ref_rotation_map(h, w, theta)
    stack = grid.reshape(-1, h * w)
    out = stack[:, flat.ravel()]
    out[:, ~valid.ravel()] = 0.0
    return out.reshape(grid.shape)


def ref_rotate_grid_grad(dout, theta):
    h, w = dout.shape[-2:]
    flat, valid = ref_rotation_map(h, w, theta)
    dstack = dout.reshape(-1, h * w)
    din = np.zeros_like(dstack)
    idx = flat.ravel()[valid.ravel()]
    for c in range(dstack.shape[0]):
        np.add.at(din[c], idx, dstack[c][valid.ravel()])
    return din.reshape(dout.shape)


def ref_patch_index(c, h, w, k):
    p = k // 2
    hp, wp = h + 2 * p, w + 2 * p
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    base = ys.ravel()[:, None] * wp + xs.ravel()[:, None]
    ci, ki, kj = np.meshgrid(np.arange(c), np.arange(k), np.arange(k),
                             indexing="ij")
    offset = (ci * hp * wp + ki * wp + kj).ravel()[None, :]
    return (base + offset).astype(np.intp), p, hp, wp


def ref_pad(x, p):
    if p == 0:
        return x
    c, h, w = x.shape
    out = np.zeros((c, h + 2 * p, w + 2 * p), dtype=np.float64)
    out[:, p:p + h, p:p + w] = x
    return out


def conv_forward(x, weight, bias):
    """'Same' zero-padded convolution; x (c_in, h, w) -> (c_out, h, w)."""
    c_out, c_in, k, _ = weight.shape
    h, w = x.shape[1:]
    idx, p, hp, wp = ref_patch_index(c_in, h, w, k)
    patches = ref_pad(x, p).ravel()[idx]
    out = patches @ weight.reshape(c_out, -1).T + bias
    return out.T.reshape(c_out, h, w), patches


def conv_backward(dout, patches, weight, x_shape, need_dx=True):
    """Returns (dx, dweight, dbias) for conv_forward."""
    c_out, c_in, k, _ = weight.shape
    h, w = x_shape[1:]
    idx, p, hp, wp = ref_patch_index(c_in, h, w, k)
    dflat = dout.reshape(c_out, -1).T
    dweight = (dflat.T @ patches).reshape(weight.shape)
    dbias = dout.sum(axis=(1, 2))
    if not need_dx:
        return None, dweight, dbias
    dpatches = dflat @ weight.reshape(c_out, -1)
    dpadded = np.bincount(idx.ravel(), weights=dpatches.ravel(),
                          minlength=c_in * hp * wp).reshape(c_in, hp, wp)
    dx = dpadded[:, p:p + h, p:p + w] if p else dpadded
    return dx, dweight, dbias


def ref_stack_forward(stack, x):
    z1, p1 = conv_forward(x, stack.w1, stack.b1)
    a1 = np.maximum(z1, 0.0)
    z2, p2 = conv_forward(a1, stack.w2, stack.b2)
    a2 = np.maximum(z2, 0.0)
    z3, p3 = conv_forward(a2, stack.w3, stack.b3)
    return z3[0], (x.shape, z1, p1, a1.shape, z2, p2, a2.shape, p3)


def ref_stack_backward(stack, cache, dq, grads):
    x_shape, z1, p1, a1_shape, z2, p2, a2_shape, p3 = cache
    da2, dw3, db3 = conv_backward(dq[None, :, :], p3, stack.w3, a2_shape)
    dz2 = da2 * (z2 > 0.0)
    da1, dw2, db2 = conv_backward(dz2, p2, stack.w2, a1_shape)
    dz1 = da1 * (z1 > 0.0)
    _, dw1, db1 = conv_backward(dz1, p1, stack.w1, x_shape, need_dx=False)
    for name, g in zip(("w1", "b1", "w2", "b2", "w3", "b3"),
                       (dw1, db1, dw2, db2, dw3, db3)):
        grads[name] = grads.get(name, 0.0) + g


def ref_forward_rotation(net, x, primitive, theta_index):
    theta = theta_radians(theta_index, net.rotations)
    q, cache = ref_stack_forward(net.stacks[primitive],
                                 ref_rotate_grid(x, -theta))
    return ref_rotate_grid(q, theta), cache, theta


def ref_render(heights, holding, height_norm):
    """The (3, h, w) scene channels as the simulator once rendered them for
    every observation: occupancy, the stack height over ``height_norm``
    clipped to [0, 1], and the holding flag over the grid."""
    occupancy = (heights > 0).astype(np.float64)
    norm_height = np.clip(heights / height_norm, 0.0, 1.0)
    holding = np.full_like(occupancy, 1.0 if holding else 0.0)
    return np.stack([occupancy, norm_height, holding])


def ref_context(prev_action, h, w):
    """The dense previous-action context: the action's Q at its pose in its
    primitive's channel, channels in PRIMITIVE_ORDER; all zero for None."""
    ctx = np.zeros((3, h, w))
    if prev_action is not None:
        ctx[PRIMITIVE_ORDER.index(prev_action.primitive), prev_action.y,
            prev_action.x] = prev_action.q_value
    return ctx


def ref_input(obs, prev_action):
    """conv1's (6, h, w) input: scene channels, then context channels."""
    return np.concatenate([ref_render(obs.heights, obs.holding,
                                      obs.height_norm),
                           ref_context(prev_action, *obs.shape)], axis=0)


def ref_forward(net, obs, prev_action, primitive):
    x = ref_input(obs, prev_action)
    return np.stack([ref_forward_rotation(net, x, primitive, r)[0]
                     for r in range(net.rotations)])


def ref_target_map(reward_map, action, y):
    """The full-grid targets: the whole reward map scaled so the executed
    pixel carries y; all zero when the spike is zero."""
    grid = reward_map.grid
    executed = grid[action.y, action.x]
    if executed > 0.0:
        return y * grid / executed
    return np.zeros_like(grid)


def ref_transition_grads(net, tr, hp, batch_size):
    """transition_loss and transition_backward on the full grid: targets and
    gradient over every pixel, the supervised ones picked by a boolean mask,
    through the network code under test."""
    x = stack_input(tr.observation, tr.prev_action)
    pred, cache, theta = forward_rotation(net, x, tr.observation.shape,
                                          tr.action.primitive,
                                          tr.action.theta_index)
    y = compute_target(tr.r_t, tr.r_next, hp.gamma)
    targets = ref_target_map(tr.reward_map, tr.action, y)
    mask = tr.reward_map.supervised_mask
    losses, dresiduals = robust_loss(pred[mask] - targets[mask],
                                     hp.loss_alpha, hp.loss_scale)
    dpred = np.zeros_like(pred)
    dpred[mask] = dresiduals / (dresiduals.size * batch_size)
    grads = {}
    net.stacks[tr.action.primitive].backward(
        cache, rotate_grid_grad(dpred, theta), grads)
    return losses, grads


def ref_train_step(net, batch, hp):
    grads = {prim: {} for prim in PRIMITIVE_ORDER}
    touched = set()
    per_losses = np.zeros(len(batch))
    n = len(batch)
    for i, tr in enumerate(batch):
        x = ref_input(tr.observation, tr.prev_action)
        pred, cache, theta = ref_forward_rotation(net, x, tr.action.primitive,
                                                  tr.action.theta_index)
        y = compute_target(tr.r_t, tr.r_next, hp.gamma)
        targets = ref_target_map(tr.reward_map, tr.action, y)
        mask = tr.reward_map.supervised_mask
        residuals = pred[mask] - targets[mask]
        losses, dresiduals = robust_loss(residuals, hp.loss_alpha,
                                         hp.loss_scale)
        per_losses[i] = float(np.mean(losses))
        dpred = np.zeros_like(pred)
        dpred[mask] = dresiduals / (residuals.size * n)
        dq = ref_rotate_grid_grad(dpred, theta)
        ref_stack_backward(net.stacks[tr.action.primitive], cache, dq,
                           grads[tr.action.primitive])
        touched.add(tr.action.primitive)
    for prim in touched:    # momentum SGD, v <- momentum * v + g
        stack = net.stacks[prim]
        for name, param in stack.params().items():
            v = hp.momentum * stack.velocity.get(name, 0.0) + grads[prim][name]
            stack.velocity[name] = v
            param -= hp.lr * v
    return float(np.mean(per_losses)), per_losses


def oracle_case(seed, rotations, hidden):
    """A generator for the inputs and two equal networks: one for the code
    under test, one for the reference."""
    rng = np.random.default_rng(seed)
    nets = [QNetwork.init(np.random.default_rng(seed),
                          hidden_channels=hidden, rotations=rotations)
            for _ in range(2)]
    return rng, nets


def random_observation(rng, h, w, holding=None):
    """A random height grid with stacks up to twice the height norm, so the
    height channel clips; the holding flag is random unless given."""
    norm = int(rng.integers(1, 4))
    if holding is None:
        holding = bool(rng.integers(2))
    return Observation(heights=rng.integers(0, 2 * norm + 1, size=(h, w)),
                       holding=holding, height_norm=norm)


def oracle_inputs(rng, h, w):
    """A random observation, and no previous action or one whose Q is
    negative, positive or -0.0."""
    obs = random_observation(rng, h, w)
    choice = int(rng.integers(4))
    if choice == 0:
        return obs, None
    magnitude = float(rng.uniform(0.01, 2.0))
    q = (-magnitude, magnitude, -0.0)[choice - 1]
    return obs, Action(PRIMITIVE_ORDER[int(rng.integers(3))],
                       int(rng.integers(w)), int(rng.integers(h)), 0, q)


def oracle_transition(rng, h, w, rotations):
    obs, prev = oracle_inputs(rng, h, w)
    theta_index = int(rng.integers(rotations))
    x, y = int(rng.integers(w)), int(rng.integers(h))
    r_t = float(rng.choice([0.0, rng.uniform(0.05, 1.0)]))
    if rng.random() < 0.5:
        rmap = tpg_reward_map(r_t, (x, y, theta_radians(theta_index, rotations)),
                              RewardParams(sigma_y=float(rng.uniform(0.3, 1.0))),
                              (h, w))
    else:
        rmap = spike_reward_map(r_t, (x, y), (h, w))
    action = Action(PRIMITIVE_ORDER[int(rng.integers(3))], x, y, theta_index,
                    float(rng.normal()))
    return Transition(observation=obs, prev_action=prev, action=action,
                      r_t=r_t, reward_map=rmap,
                      r_next=float(rng.uniform(0.0, 1.0)))


oracle_shapes = st.tuples(st.integers(3, 14), st.integers(3, 14),
                          st.sampled_from([1, 2, 4, 8])).map(
    lambda t: t if t[2] in (1, 2) else (t[0], t[0], t[2]))


def fresh_net(seed=0, hidden=16, rotations=4):
    return QNetwork.init(np.random.default_rng(seed),
                         hidden_channels=hidden, rotations=rotations)


def params_snapshot(net):
    return {prim: {k: v.copy() for k, v in net.stacks[prim].params().items()}
            for prim in PRIMITIVE_ORDER}


def params_equal(snap, net, prims):
    return all(np.array_equal(snap[p][k], net.stacks[p].params()[k])
               for p in prims for k in snap[p])


class TestRotation:
    @pytest.mark.parametrize("n", [4, 6, 7, 10])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_quarter_turns_are_exact_permutations(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        grid = rng.normal(size=(n, n))
        theta = k * math.pi / 2
        rotated = rotate_grid(grid, theta)
        assert sorted(rotated.ravel()) == sorted(grid.ravel())
        back = rotate_grid(rotated, -theta)
        np.testing.assert_array_equal(back, grid)

    def test_zero_rotation_identity(self):
        grid = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(rotate_grid(grid, 0.0), grid)

    def test_stacked_channels(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(5, 6, 6))
        rot = rotate_grid(stack, math.pi / 2)
        for c in range(5):
            np.testing.assert_array_equal(rot[c],
                                          rotate_grid(stack[c], math.pi / 2))

    def test_gather_scatter_adjoint(self):
        # <rotate(x), y> == <x, rotate_grad(y)> for any theta
        rng = np.random.default_rng(8)
        for theta in (0.3, math.pi / 2, 2.2):
            x = rng.normal(size=(7, 7))
            y = rng.normal(size=(7, 7))
            lhs = float((rotate_grid(x, theta) * y).sum())
            rhs = float((x * rotate_grid_grad(y, theta)).sum())
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestReferenceOracle:
    """The lean network against the reference above, compared by bytes."""

    @settings(max_examples=100, deadline=None)
    @given(shape=oracle_shapes, hidden=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_q_maps_bitwise_equal(self, shape, hidden, seed):
        h, w, rotations = shape
        rng, (net, ref_net) = oracle_case(seed, rotations, hidden)
        obs, prev = oracle_inputs(rng, h, w)
        maps = forward_all(net, obs, prev, PRIMITIVE_ORDER)
        for prim in PRIMITIVE_ORDER:
            assert maps[prim].tobytes() == \
                ref_forward(ref_net, obs, prev, prim).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(shape=oracle_shapes, hidden=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_signed_flat_input_bitwise_equal(self, shape, hidden, seed):
        # No height grid gives a negative input; conv1 must still match the
        # reference on one, through every rotation.
        h, w, rotations = shape
        rng, (net, ref_net) = oracle_case(seed, rotations, hidden)
        x = rng.normal(size=(IN_CHANNELS, h, w))
        x[rng.random(x.shape) < 0.1] = -0.0
        flat = np.append(x.ravel(), 0.0)
        for prim in PRIMITIVE_ORDER:
            for r in range(rotations):
                q = forward_rotation(net, flat, (h, w), prim, r)[0]
                assert q.tobytes() == \
                    ref_forward_rotation(ref_net, x, prim, r)[0].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(shape=oracle_shapes, hidden=st.integers(1, 16),
           batch_size=st.integers(1, 6),
           alpha=st.sampled_from([1.0, 2.0, 0.0, 0.5, -1.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_train_steps_bitwise_equal(self, shape, hidden, batch_size, alpha,
                                       seed):
        h, w, rotations = shape
        rng, (net, ref_net) = oracle_case(seed, rotations, hidden)
        hp = TrainHyper(lr=0.05, loss_alpha=alpha)
        for _ in range(3):
            batch = [oracle_transition(rng, h, w, rotations)
                     for _ in range(batch_size)]
            loss, per = train_step(net, batch, hp)
            ref_loss, ref_per = ref_train_step(ref_net, batch, hp)
            assert per.tobytes() == ref_per.tobytes()
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        for prim in PRIMITIVE_ORDER:
            stack, ref_stack = net.stacks[prim], ref_net.stacks[prim]
            for name, arr in stack.params().items():
                assert arr.tobytes() == ref_stack.params()[name].tobytes()
            assert stack.velocity.keys() == ref_stack.velocity.keys()
            for name, v in stack.velocity.items():
                assert v.tobytes() == ref_stack.velocity[name].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
           kind=st.sampled_from(["box", "tpg", "spike"]),
           alpha=st.sampled_from([2.0, 1.0, 0.0, -1.5]),
           batch_size=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_box_loss_bitwise_equal_to_full_grid_mask(self, shape, kind, alpha,
                                                      batch_size, seed):
        # The box form against the full-grid form it replaced: the same
        # losses and gradients, bit for bit, on random boxes, TPG maps
        # (their clipped kernel support) and one-pixel spikes.
        h, w = shape
        rng = np.random.default_rng(seed)
        net = QNetwork.init(rng, hidden_channels=4, rotations=2)
        tr = random_transition(rng, h=h, w=w, rotations=2)
        if kind != "box":
            r_t = float(rng.choice([0.0, rng.uniform(0.05, 1.0)]))
            a = tr.action
            tr.r_t, tr.reward_map = r_t, (
                tpg_reward_map(r_t, (a.x, a.y, theta_radians(a.theta_index, 2)),
                               RewardParams(sigma_y=float(rng.uniform(0.3, 2.0))),
                               shape)
                if kind == "tpg" else spike_reward_map(r_t, (a.x, a.y), shape))
        hp = TrainHyper(loss_alpha=alpha, loss_scale=float(rng.uniform(0.5, 2.0)))
        losses, saved = transition_loss(net, tr, hp)
        grads = {}
        transition_backward(net, tr, saved, grads, batch_size)
        ref_losses, ref_grads = ref_transition_grads(net, tr, hp, batch_size)
        assert losses.tobytes() == ref_losses.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(shape=oracle_shapes, theta_index=st.integers(0, 7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rotation_grad_bitwise_equal(self, shape, theta_index, seed):
        h, w, rotations = shape
        rng = np.random.default_rng(seed)
        dout = rng.normal(size=(2, h, w))
        dout[rng.random((2, h, w)) < 0.3] = -0.0
        theta = theta_radians(theta_index % rotations, rotations)
        assert rotate_grid_grad(dout, theta).tobytes() == \
            ref_rotate_grid_grad(dout, theta).tobytes()

    def test_rotation_grad_turns_negative_zero_positive(self):
        dout = np.full((4, 4), -0.0)
        dout[1, 2] = -1.5
        din = rotate_grid_grad(dout, math.pi / 2)
        assert din.tobytes() == ref_rotate_grid_grad(dout, math.pi / 2).tobytes()
        assert not np.signbit(din[din == 0.0]).any()
        assert (din == -1.5).sum() == 1


class TestConvLayer:
    """The reference im2col layer used by the oracle tests."""

    def test_same_shape_and_known_value(self):
        x = np.zeros((1, 5, 5))
        x[0, 2, 2] = 1.0
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 0, 0] = 1.0            # top-left tap
        out, _ = conv_forward(x, w, np.zeros(1))
        assert out.shape == (1, 5, 5)
        # output pixel (3,3) sees input (2,2) through the (0,0) tap
        assert out[0, 3, 3] == 1.0
        assert out.sum() == 1.0

    def test_bias_broadcast(self):
        x = np.zeros((2, 4, 4))
        w = np.zeros((3, 2, 3, 3))
        out, _ = conv_forward(x, w, np.array([1.0, -2.0, 0.5]))
        assert (out[0] == 1.0).all() and (out[1] == -2.0).all()

    def test_backward_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5, 5))
        w = rng.normal(size=(2, 3, 3, 3)) * 0.3
        b = rng.normal(size=2) * 0.1
        out, patches = conv_forward(x, w, b)
        dout = rng.normal(size=out.shape)
        dx, dw, db = conv_backward(dout, patches, w, x.shape)
        eps = 1e-6

        def loss(xx, ww, bb):
            return float((conv_forward(xx, ww, bb)[0] * dout).sum())

        for idx in [(0, 0, 0), (1, 2, 3), (2, 4, 4)]:
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            num = (loss(xp, w, b) - loss(xm, w, b)) / (2 * eps)
            assert num == pytest.approx(dx[idx], rel=1e-5, abs=1e-8)
        for idx in [(0, 0, 0, 0), (1, 2, 1, 2)]:
            wp = w.copy(); wp[idx] += eps
            wm = w.copy(); wm[idx] -= eps
            num = (loss(x, wp, b) - loss(x, wm, b)) / (2 * eps)
            assert num == pytest.approx(dw[idx], rel=1e-5, abs=1e-8)
        num = (loss(x, w, b + np.array([eps, 0])) -
               loss(x, w, b - np.array([eps, 0]))) / (2 * eps)
        assert num == pytest.approx(db[0], rel=1e-5, abs=1e-8)


def forward(net, obs, prev_action, primitive):
    """The (rotations, h, w) Q-map set of one primitive."""
    return forward_all(net, obs, prev_action, [primitive])[primitive]


class TestForward:
    def test_zeroed_final_layer_gives_zero_maps(self):
        net = fresh_net(1)
        obs = random_observation(np.random.default_rng(0), 8, 8)
        for prim in PRIMITIVE_ORDER:
            net.stacks[prim].w3[:] = 0.0
            net.stacks[prim].b3[:] = 0.0
        maps = forward(net, obs, None, Primitive.PICK)
        assert maps.shape == (4, 8, 8)
        assert not maps.any()

    def test_rotation_equivariance_on_symmetric_input(self):
        # 90-degree symmetric observation, zero context: the four maps are
        # quarter-turn rotations of one another.
        net = fresh_net(2)
        rng = np.random.default_rng(5)
        base = rng.integers(0, 2, size=(8, 8))
        sym = base + np.rot90(base, 1) + np.rot90(base, 2) + np.rot90(base, 3)
        obs = Observation(heights=sym, holding=True, height_norm=3)
        maps = forward(net, obs, None, Primitive.PUSH)
        for r in range(1, 4):
            expected = rotate_grid(maps[0], r * math.pi / 2)
            np.testing.assert_allclose(maps[r], expected, atol=1e-12)

    def test_forward_deterministic(self):
        net = fresh_net(3)
        rng = np.random.default_rng(1)
        obs = random_observation(rng, 6, 6)
        prev = Action(Primitive.PICK, 2, 3, 0, 0.4)
        a = forward(net, obs, prev, Primitive.PLACE)
        b = forward(net, obs, prev, Primitive.PLACE)
        np.testing.assert_array_equal(a, b)

    def test_context_changes_output(self):
        net = fresh_net(4)
        obs = random_observation(np.random.default_rng(2), 6, 6)
        a = forward(net, obs, None, Primitive.PICK)
        b = forward(net, obs, Action(Primitive.PLACE, 1, 1, 0, 0.9),
                    Primitive.PICK)
        assert not np.array_equal(a, b)


def context_block(prev_action, h, w):
    """The (3, h, w) context channels of stack_input's vector, after checking
    that the scene channels and the trailing zero slot are intact."""
    obs = random_observation(np.random.default_rng(9), h, w)
    x = stack_input(obs, prev_action)
    assert x.shape == (6 * h * w + 1,)
    assert x[:3 * h * w].tobytes() == \
        ref_render(obs.heights, obs.holding, obs.height_norm).tobytes()
    assert x[-1] == 0.0
    return x[3 * h * w:-1].reshape(3, h, w)


@st.composite
def workspaces(draw):
    """A workspace of any task kind, built directly, with stacks up to 9
    high (above every task's height norm here) and either gripper state."""
    kind = draw(st.sampled_from(TaskKind))
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, 9), min_size=h * w, max_size=h * w))
    heights = np.array(cells).reshape(h, w)
    # One rotation, so any grid shape is a valid task.
    grid = dict(width=w, height=h, rotations=1)
    if kind is TaskKind.SCRIPTED_ARRANGEMENT:
        # The layout sets the height norm: its tallest stack, 1 to 5.
        layout = np.zeros(h * w, dtype=int)
        layout[0] = draw(st.integers(1, 5))
        task = TaskConfig(kind=kind, n_blocks=0, layout="\n".join(
            "".join(map(str, row)) for row in layout.reshape(h, w)), **grid)
    elif kind is TaskKind.BLOCK_STACKING:
        assume(h * w >= 2)
        task = TaskConfig(kind=kind, n_blocks=h * w, goal_stack_height=draw(
            st.integers(2, min(h * w, 5))), **grid)
    else:
        task = TaskConfig(kind=kind, n_blocks=1, **grid)
    holding = draw(st.booleans())
    prev = draw(st.none() | st.builds(
        Action, st.sampled_from(PRIMITIVE_ORDER), st.integers(0, w - 1),
        st.integers(0, h - 1), st.just(0),
        st.sampled_from([-0.0]) | st.floats(-2.0, -0.01)
        | st.floats(0.01, 2.0)))
    return Workspace(heights=heights, task=task, holding=holding), prev


class TestContext:
    @given(case=workspaces())
    def test_stack_input_bitwise_equal_to_rendered_channels(self, case):
        ws, prev = case
        h, w = ws.heights.shape
        expected = np.concatenate([
            ref_render(ws.heights, ws.holding, ws.task.height_norm).ravel(),
            ref_context(prev, h, w).ravel(), [0.0]])
        assert stack_input(observe(ws), prev).tobytes() == expected.tobytes()

    def test_initial_all_zero(self):
        ctx = context_block(None, 5, 7)
        assert not ctx.any()

    def test_single_entry_in_primitive_channel(self):
        a = Action(Primitive.PLACE, 4, 2, 1, 0.7)
        ctx = context_block(a, 6, 6)
        assert np.count_nonzero(ctx) == 1
        assert ctx[PRIMITIVE_ORDER.index(Primitive.PLACE), 2, 4] == 0.7


class TestTarget:
    def test_gate_closed(self):
        assert compute_target(0.0, 0.8, 0.5) == 0.0

    def test_gate_open(self):
        assert compute_target(0.5, 0.8, 0.5) == pytest.approx(0.9)

    def test_no_future_reward(self):
        assert compute_target(0.5, 0.0, 0.5) == pytest.approx(0.5)

    @given(st.floats(0, 10), st.floats(0, 1))
    def test_zero_reward_blocks_propagation(self, r_next, gamma):
        assert compute_target(0.0, r_next, gamma) == 0.0

    def test_target_map_scaling(self):
        rmap = tpg_reward_map(0.5, (3, 3, 0.0), RewardParams(sigma_y=1.0),
                              (9, 9))
        targets = build_target_map(rmap, Action(Primitive.PICK, 3, 3, 0), 0.9)
        assert targets[3, 3] == pytest.approx(0.9)
        ratio = rmap.grid[3, 5] / rmap.grid[3, 3]
        assert targets[3, 5] == pytest.approx(0.9 * ratio)

    def test_target_map_zero_spike(self):
        rmap = spike_reward_map(0.0, (2, 2), (6, 6))
        targets = build_target_map(rmap, Action(Primitive.PICK, 2, 2, 0), 0.7)
        assert not targets.any()


class TestRobustLoss:
    def test_zero_residual(self):
        for alpha in (-2.0, 0.0, 1.0, 2.0):
            loss, grad = robust_loss(0.0, alpha, 1.0)
            assert loss == 0.0 and grad == 0.0

    def test_quadratic_case(self):
        loss, grad = robust_loss(2.0, 2.0, 1.0)
        assert loss == pytest.approx(2.0)
        assert grad == pytest.approx(2.0)

    def test_charbonnier_point(self):
        # frozen: sqrt(2) - 1
        loss, _ = robust_loss(1.0, 1.0, 1.0)
        assert loss == pytest.approx(0.41421356237309515, abs=1e-12)

    def test_log_case(self):
        x, c = 1.5, 0.8
        loss, _ = robust_loss(x, 0.0, c)
        assert loss == pytest.approx(math.log(0.5 * (x / c) ** 2 + 1), abs=1e-12)

    def test_alpha_two_limit_within_bound(self):
        xs = np.linspace(-10, 10, 401)
        loss, _ = robust_loss(xs, 2.0 - 1e-6, 1.0)
        assert np.max(np.abs(loss - 0.5 * xs ** 2)) < 1e-4

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            robust_loss(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("alpha", [-2.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    def test_derivative_matches_finite_difference(self, alpha):
        rng = np.random.default_rng(10)
        for _ in range(40):
            x = float(rng.uniform(-3, 3))
            c = float(rng.uniform(0.3, 2.0))
            _, grad = robust_loss(x, alpha, c)
            eps = 1e-6
            up, _ = robust_loss(x + eps, alpha, c)
            down, _ = robust_loss(x - eps, alpha, c)
            assert grad == pytest.approx((up - down) / (2 * eps),
                                         rel=1e-5, abs=1e-7)

    def test_vector_input(self):
        xs = np.array([-1.0, 0.0, 2.0])
        loss, grad = robust_loss(xs, 1.0, 1.0)
        assert loss.shape == grad.shape == (3,)
        assert loss[1] == 0.0


def one_pixel_transition(rng, h=6, w=6, r_t=0.5, r_next=0.5):
    obs = random_observation(rng, h, w, holding=True)
    action = Action(Primitive.PICK, x=3, y=2, theta_index=1, q_value=0.0)
    return Transition(observation=obs,
                      prev_action=None,
                      action=action, r_t=r_t,
                      reward_map=spike_reward_map(r_t, (3, 2), (h, w)),
                      r_next=r_next)


class TestTrainStep:
    def test_zero_residual_batch_leaves_params_unchanged(self):
        net = fresh_net(6)
        for prim in PRIMITIVE_ORDER:
            net.stacks[prim].w3[:] = 0.0
            net.stacks[prim].b3[:] = 0.0
        rng = np.random.default_rng(0)
        tr = one_pixel_transition(rng, r_t=0.0, r_next=0.9)  # target 0, pred 0
        snap = params_snapshot(net)
        loss, per = train_step(net, [tr], TrainHyper())
        assert loss == 0.0
        assert params_equal(snap, net, PRIMITIVE_ORDER)

    def test_overfit_single_transition(self):
        # Monotone descent at the conservative rate over the first 50 steps;
        # momentum ringing rules out strict monotonicity at any rate fast
        # enough for 50-step convergence, so the 1e-3 bound gets 200 steps.
        rng = np.random.default_rng(11)
        net = fresh_net(11)
        tr = one_pixel_transition(rng)
        hp = TrainHyper(lr=1e-3)
        losses = [train_step(net, [tr], hp)[0] for _ in range(200)]
        first50 = losses[:50]
        assert all(b < a for a, b in zip(first50, first50[1:]))
        assert min(losses) < 1e-3

    def test_supervision_locality(self):
        net = fresh_net(7)
        rng = np.random.default_rng(1)
        tr = one_pixel_transition(rng)           # a PICK transition
        snap = params_snapshot(net)
        train_step(net, [tr], TrainHyper())
        assert params_equal(snap, net, [Primitive.PUSH, Primitive.PLACE])
        assert not params_equal(snap, net, [Primitive.PICK])

    def test_momentum_state_untouched_for_unseen_primitives(self):
        net = fresh_net(8)
        rng = np.random.default_rng(2)
        train_step(net, [one_pixel_transition(rng)], TrainHyper())
        assert net.stacks[Primitive.PICK].velocity
        assert not net.stacks[Primitive.PUSH].velocity
        assert not net.stacks[Primitive.PLACE].velocity

    def test_per_transition_losses_returned(self):
        net = fresh_net(9)
        rng = np.random.default_rng(3)
        batch = [one_pixel_transition(rng), one_pixel_transition(rng, r_t=0.2)]
        mean_loss, per = train_step(net, batch, TrainHyper())
        assert per.shape == (2,)
        assert mean_loss == pytest.approx(per.mean())

    def test_divergence_detected(self):
        net = fresh_net(10)
        rng = np.random.default_rng(4)
        tr = one_pixel_transition(rng)
        net.stacks[Primitive.PICK].w1[:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergence):
            train_step(net, [tr], TrainHyper())

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            train_step(fresh_net(0), [], TrainHyper())


class TestGradientCheck:
    def test_small_randomized_gradcheck(self):
        report = gradient_check(n_draws=4, coords_per_draw=12, seed=99,
                                exhaustive_first=False)
        assert report.passed, report.detail


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = fresh_net(12)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net, (10, 10), cfg_hash="ab" * 32)
        loaded, header = load_checkpoint(path)
        assert header["rotations"] == 4
        assert header["in_channels"] == 6
        assert header["hidden_channels"] == 16
        assert (header["grid_height"], header["grid_width"]) == (10, 10)
        assert header["config_hash"] == "ab" * 32
        for prim in PRIMITIVE_ORDER:
            for key, arr in net.stacks[prim].params().items():
                np.testing.assert_array_equal(arr,
                                              loaded.stacks[prim].params()[key])

    def test_meta_sidecar_mirrors_header(self, tmp_path):
        net = fresh_net(13)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net, (8, 9))
        meta = (tmp_path / "checkpoint.meta").read_text()
        assert "rotations=4" in meta
        assert "grid_height=8" in meta and "grid_width=9" in meta
        assert "array=push.w1 16,6,3,3" in meta
        assert meta_path(path) == str(tmp_path / "checkpoint.meta")

    def test_header_only_read(self, tmp_path):
        net = fresh_net(14)
        path = tmp_path / "net.bin"
        save_checkpoint(path, net, (6, 6))
        header = read_checkpoint_header(path)
        assert len(header["arrays"]) == 18        # 3 nets x 6 arrays
        assert header["arrays"][0][0] == "push.w1"

    @pytest.mark.parametrize("old, new", [
        (struct.pack("<I", CHECKPOINT_VERSION), struct.pack("<I", 99)),
        (b"place.b3", b"place.b4"),
    ])
    def test_other_version_or_arrays_rejected(self, tmp_path, old, new):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, fresh_net(16), (6, 6))
        raw = path.read_bytes()
        path.write_bytes(raw.replace(old, new, 1))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("mismatch", ["narrow_pick_w1", "header_hidden",
                                          "in_channels"])
    def test_shapes_the_header_does_not_imply_rejected(self, tmp_path,
                                                       mismatch):
        net = fresh_net(19)
        if mismatch == "narrow_pick_w1":
            stack = net.stacks[Primitive.PICK]
            stack.w1 = stack.w1[:, :5].copy()
        elif mismatch == "header_hidden":
            net.hidden_channels = 8
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net, (6, 6))
        if mismatch == "in_channels":
            # The header claims a 5-channel input.
            at = len(qfunc.CHECKPOINT_MAGIC) \
                + 4 * qfunc.HEADER_FIELDS.index("in_channels")
            raw = path.read_bytes()
            path.write_bytes(raw[:at] + struct.pack("<I", 5) + raw[at + 4:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_checkpoint_header(path)

    def test_little_endian_float64_payload(self, tmp_path):
        net = fresh_net(15)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net, (6, 6))
        header = read_checkpoint_header(path)
        raw = path.read_bytes()[header["data_offset"]:]
        first = np.frombuffer(raw[:8 * net.stacks[Primitive.PUSH].w1.size],
                              dtype="<f8")
        np.testing.assert_array_equal(
            first.reshape(net.stacks[Primitive.PUSH].w1.shape),
            net.stacks[Primitive.PUSH].w1)

    @pytest.mark.parametrize("torn", [".bin.tmp", ".meta.tmp"])
    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path,
                                                        monkeypatch, torn):
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, fresh_net(17), (6, 6))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert set(before) == {"checkpoint.bin", "checkpoint.meta"}
        real_open = open

        class TornFile:
            """Writes half of what goes to the file named ``torn``, then
            raises."""

            def __init__(self, name, mode):
                self.fh = real_open(name, mode)
                self.tear = str(name).endswith(torn)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.tear:
                    self.fh.write(data[:len(data) // 2])
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(qfunc, "open", TornFile, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, fresh_net(18), (6, 6))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
