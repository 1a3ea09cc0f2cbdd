import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmanip.gridsim import (Action, Observation, Primitive, PRIMITIVE_ORDER,
                               theta_radians)
from gridmanip import qfunc
from gridmanip.qfunc import (CHECKPOINT_VERSION, CheckpointError,
                             PrevActionContext, QNetwork, TrainHyper,
                             TrainingDivergence, build_target_map,
                             compute_target, forward, forward_all,
                             load_checkpoint, meta_path,
                             read_checkpoint_header, robust_loss, rotate_grid,
                             rotate_grid_grad, save_checkpoint, train_step)
from gridmanip.replay import Transition
from gridmanip.reward import RewardParams, spike_reward_map, tpg_reward_map
from gridmanip.selftest import gradient_check


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


def ref_forward(net, obs, ctx, primitive):
    x = np.concatenate([obs.channels, ctx.channels], axis=0)
    return np.stack([ref_forward_rotation(net, x, primitive, r)[0]
                     for r in range(net.rotations)])


def ref_train_step(net, batch, hp):
    grads = {prim: {} for prim in PRIMITIVE_ORDER}
    touched = set()
    per_losses = np.zeros(len(batch))
    n = len(batch)
    for i, tr in enumerate(batch):
        x = np.concatenate([tr.observation.channels,
                            tr.prev_action_context.channels], axis=0)
        pred, cache, theta = ref_forward_rotation(net, x, tr.action.primitive,
                                                  tr.action.theta_index)
        y = compute_target(tr.r_t, tr.r_next, hp.gamma)
        targets = build_target_map(tr.reward_map, tr.action, y)
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
    for prim in touched:
        net.stacks[prim].apply_sgd(grads[prim], hp.lr, hp.momentum)
    return float(np.mean(per_losses)), per_losses


def oracle_case(seed, rotations, hidden):
    """A generator for the inputs and two equal networks: one for the code
    under test, one for the reference."""
    rng = np.random.default_rng(seed)
    nets = [QNetwork.init(np.random.default_rng(seed), in_channels=6,
                          hidden_channels=hidden, rotations=rotations)
            for _ in range(2)]
    return rng, nets


def oracle_inputs(rng, h, w):
    """An observation with negative values and a sparse previous-action
    context holding negatives and -0.0."""
    obs = Observation(channels=rng.normal(size=(3, h, w)))
    ctx = rng.normal(size=(3, h, w)) * (rng.random((3, h, w)) < 0.2)
    ctx[rng.random((3, h, w)) < 0.2] = -0.0
    return obs, PrevActionContext(channels=ctx)


def oracle_transition(rng, h, w, rotations):
    obs, ctx = oracle_inputs(rng, h, w)
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
    return Transition(observation=obs, prev_action_context=ctx, action=action,
                      r_t=r_t, reward_map=rmap,
                      r_next=float(rng.uniform(0.0, 1.0)))


oracle_shapes = st.tuples(st.integers(3, 14), st.integers(3, 14),
                          st.sampled_from([1, 2, 4, 8])).map(
    lambda t: t if t[2] in (1, 2) else (t[0], t[0], t[2]))


def fresh_net(seed=0, hidden=16, rotations=4):
    return QNetwork.init(np.random.default_rng(seed), in_channels=6,
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
        obs, ctx = oracle_inputs(rng, h, w)
        maps = forward_all(net, obs, ctx, PRIMITIVE_ORDER)
        for prim in PRIMITIVE_ORDER:
            assert maps[prim].tobytes() == \
                ref_forward(ref_net, obs, ctx, prim).tobytes()

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


class TestForward:
    def test_zeroed_final_layer_gives_zero_maps(self):
        net = fresh_net(1)
        obs = Observation(channels=np.random.default_rng(0).random((3, 8, 8)))
        ctx = PrevActionContext.initial(8, 8)
        for prim in PRIMITIVE_ORDER:
            net.stacks[prim].w3[:] = 0.0
            net.stacks[prim].b3[:] = 0.0
        maps = forward(net, obs, ctx, Primitive.PICK)
        assert maps.shape == (4, 8, 8)
        assert not maps.any()

    def test_rotation_equivariance_on_symmetric_input(self):
        # 90-degree symmetric observation, zero context: the four maps are
        # quarter-turn rotations of one another.
        net = fresh_net(2)
        rng = np.random.default_rng(5)
        base = rng.random((3, 8, 8))
        sym = base + np.rot90(base, 1, (1, 2)) + np.rot90(base, 2, (1, 2)) \
            + np.rot90(base, 3, (1, 2))
        obs = Observation(channels=sym)
        ctx = PrevActionContext.initial(8, 8)
        maps = forward(net, obs, ctx, Primitive.PUSH)
        for r in range(1, 4):
            expected = rotate_grid(maps[0], r * math.pi / 2)
            np.testing.assert_allclose(maps[r], expected, atol=1e-12)

    def test_forward_deterministic(self):
        net = fresh_net(3)
        rng = np.random.default_rng(1)
        obs = Observation(channels=rng.random((3, 6, 6)))
        ctx = PrevActionContext.from_action(
            Action(Primitive.PICK, 2, 3, 0, 0.4), 6, 6)
        a = forward(net, obs, ctx, Primitive.PLACE)
        b = forward(net, obs, ctx, Primitive.PLACE)
        np.testing.assert_array_equal(a, b)

    def test_context_changes_output(self):
        net = fresh_net(4)
        obs = Observation(channels=np.random.default_rng(2).random((3, 6, 6)))
        a = forward(net, obs, PrevActionContext.initial(6, 6), Primitive.PICK)
        ctx = PrevActionContext.from_action(
            Action(Primitive.PLACE, 1, 1, 0, 0.9), 6, 6)
        b = forward(net, obs, ctx, Primitive.PICK)
        assert not np.array_equal(a, b)


class TestContext:
    def test_initial_all_zero(self):
        ctx = PrevActionContext.initial(5, 7)
        assert ctx.channels.shape == (3, 5, 7)
        assert not ctx.channels.any()

    def test_single_entry_in_primitive_channel(self):
        a = Action(Primitive.PLACE, 4, 2, 1, 0.7)
        ctx = PrevActionContext.from_action(a, 6, 6)
        assert np.count_nonzero(ctx.channels) == 1
        assert ctx.channels[PRIMITIVE_ORDER.index(Primitive.PLACE), 2, 4] == 0.7


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
    obs = Observation(channels=rng.uniform(0, 1, size=(3, h, w)))
    action = Action(Primitive.PICK, x=3, y=2, theta_index=1, q_value=0.0)
    return Transition(observation=obs,
                      prev_action_context=PrevActionContext.initial(h, w),
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
