"""Pixel-wise Q approximator with hand-derived gradients.

One small convolutional stack per primitive (3x3 -> 3x3 -> 1x1, ReLU between,
zero 'same' padding) maps the observed scene plus the previous action's
Q prediction at its pose to an h x w Q grid. Rotations are handled by
counter-rotating the input, running the stack, and rotating the output back;
rotation is a cached nearest-neighbour gather, exact for multiples of 90
degrees on square grids, so its gradient is the matching scatter-add. The
input counter-rotation is folded into conv1's cached patch gather.

Forward, backward, the robust training loss and SGD-with-momentum are all
explicit numpy; no autodiff anywhere.
"""

import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .gridsim import (Action, ConfigError, Observation, Primitive,
                      PRIMITIVE_ORDER, check_value, theta_radians)
from .reward import RewardMap

IN_CHANNELS = 3 + len(PRIMITIVE_ORDER)     # scene, context (stack_input)
CHECKPOINT_MAGIC = b"GMQN"
CHECKPOINT_VERSION = 1
# The checkpoint header's integer fields, in file and .meta order.
HEADER_FIELDS = ("version", "rotations", "in_channels", "hidden_channels",
                 "grid_height", "grid_width")
_HEADER_INTS = struct.Struct(f"<{len(HEADER_FIELDS)}I")

# Alpha windows where the robust loss must use its exact limit forms; the
# general expression loses ~5e-4 of absolute accuracy per 1e-6 of |alpha-2|.
_ALPHA_QUAD_TOL = 1e-5
_ALPHA_LOG_TOL = 1e-12


class TrainingDivergence(RuntimeError):
    """Loss or parameters became non-finite."""


class CheckpointError(ConfigError):
    """A checkpoint file is malformed, truncated or holds non-finite weights."""


# ---------------------------------------------------------------------------
# rotation


_ROTATION_CACHE = {}


def _rotation_map(h, w, theta):
    """Cached nearest-neighbour gather for rotating an (h, w) grid by theta:
    (flat source pixel per output pixel, valid mask or None when every pixel
    has a source, inverse permutation or None when the map is no bijection).
    """
    key = (h, w, round(theta, 12))
    hit = _ROTATION_CACHE.get(key)
    if hit is not None:
        return hit
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dx, dy = xs - cx, ys - cy
    ct, st = math.cos(theta), math.sin(theta)
    # output(p) samples input at R(-theta) (p - c) + c
    sx = np.round(ct * dx + st * dy + cx)
    sy = np.round(-st * dx + ct * dy + cy)
    valid = ((sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)).ravel()
    flat = (np.clip(sy, 0, h - 1) * w
            + np.clip(sx, 0, w - 1)).astype(np.intp).ravel()
    inverse = None
    if valid.all():
        valid = None
        if np.bincount(flat, minlength=h * w).max() == 1:
            inverse = np.argsort(flat)
    entry = (flat, valid, inverse)
    _ROTATION_CACHE[key] = entry
    return entry


def rotate_grid(grid: np.ndarray, theta: float) -> np.ndarray:
    """Rotate grid content by ``theta`` about the grid centre (NN sampling,
    zeros outside)."""
    h, w = grid.shape[-2:]
    flat, valid, _ = _rotation_map(h, w, theta)
    out = grid.reshape(-1, h * w)[:, flat]
    if valid is not None:
        out[:, ~valid] = 0.0
    return out.reshape(grid.shape)


def rotate_grid_grad(dout: np.ndarray, theta: float) -> np.ndarray:
    """Gradient of rotate_grid: scatter-add through the same gather map.

    A bijective map scatters onto each pixel exactly once, so the scatter is
    a gather through the inverse permutation; adding 0.0 keeps the result of
    adding into zeros, which turns -0.0 into +0.0.
    """
    h, w = dout.shape[-2:]
    flat, valid, inverse = _rotation_map(h, w, theta)
    dstack = dout.reshape(-1, h * w)
    if inverse is not None:
        din = dstack[:, inverse]
        din += 0.0
        return din.reshape(dout.shape)
    din = np.zeros_like(dstack)
    keep = slice(None) if valid is None else valid
    for c in range(dstack.shape[0]):
        np.add.at(din[c], flat[keep], dstack[c][keep])
    return din.reshape(dout.shape)


# ---------------------------------------------------------------------------
# convolution layers
#
# Both 3x3 layers are im2col GEMMs: a (pixels, channels*9) patch matrix times
# the transposed weights. The patch matrices are built by one fancy-index
# gather each, through indices cached per grid shape (and, for conv1, per
# rotation). Every zero of the padding (and of the counter-rotation) is read
# from a zero slot at the end of the gathered vector, so no padded copy is
# ever made. Hidden activations stay in the GEMM's (pixels, channels) layout.


_INDEX_CACHE = {}


def _taps(h, w, source):
    """(h*w, 9) source pixel read by each 3x3 tap of each output pixel under
    zero 'same' padding; ``source`` (h*w,) names the pixel each grid pixel
    reads (-1 for a zero), and -1 marks a tap that reads a zero."""
    padded = np.full((h + 2, w + 2), -1, dtype=np.intp)
    padded[1:-1, 1:-1] = source.reshape(h, w)
    ys, xs = np.divmod(np.arange(h * w), w)
    ki, kj = np.divmod(np.arange(9), 3)
    return padded[ys[:, None] + ki, xs[:, None] + kj]


def _input_index(h, w, theta):
    """Gather index from stack_input's vector to conv1's (h*w, IN_CHANNELS*9)
    patch matrix of the input counter-rotated by ``theta``."""
    key = ("input", h, w, round(theta, 12))
    hit = _INDEX_CACHE.get(key)
    if hit is None:
        flat, valid, _ = _rotation_map(h, w, -theta)
        source = flat if valid is None else np.where(valid, flat, -1)
        taps = _taps(h, w, source)[:, None, :]
        channel = np.arange(IN_CHANNELS)[:, None] * (h * w)
        hit = np.where(taps >= 0, channel + taps,
                       IN_CHANNELS * h * w).reshape(h * w, -1)
        _INDEX_CACHE[key] = hit
    return hit


def _hidden_index(c, h, w):
    """conv2's gather from (h*w + 1, c) activations whose last row is zero,
    and the matching col2im scatter onto a channel-major (c, h*w) gradient
    plus one dump bin, in the same (pixel, channel, tap) order."""
    key = ("hidden", c, h, w)
    hit = _INDEX_CACHE.get(key)
    if hit is None:
        hw = h * w
        taps = _taps(h, w, np.arange(hw))[:, None, :]
        channel = np.arange(c)[:, None]
        inside = taps >= 0
        gather = np.where(inside, taps * c + channel, hw * c + channel)
        scatter = np.where(inside, channel * hw + taps, c * hw)
        hit = (gather.reshape(hw, -1), scatter.ravel())
        _INDEX_CACHE[key] = hit
    return hit


_PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def _param_shapes(hidden):
    """Each stack parameter's shape, in _PARAM_NAMES order."""
    return dict(zip(_PARAM_NAMES, (
        (hidden, IN_CHANNELS, 3, 3), (hidden,),
        (hidden, hidden, 3, 3), (hidden,),
        (1, hidden, 1, 1), (1,))))


@dataclass
class ConvStack:
    """Three-layer map from stacked input channels to one Q grid."""
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    velocity: dict = field(default_factory=dict, repr=False)

    @classmethod
    def init(cls, rng, hidden):
        def uniform(shape):
            bound = 1.0 / math.sqrt(math.prod(shape[1:]))     # 1/sqrt(fan in)
            return rng.uniform(-bound, bound, size=shape)

        return cls(**{name: np.zeros(shape) if name.startswith("b")
                      else uniform(shape)
                      for name, shape in _param_shapes(hidden).items()})

    def params(self):
        return {name: getattr(self, name) for name in _PARAM_NAMES}

    def forward(self, x, index, shape):
        """Flat input ``x`` gathered through conv1's patch ``index`` ->
        ((h*w, 1) Q column, cache (z1, p1, z2, p2, a2) for backward)."""
        hw, c = index.shape[0], self.b1.shape[0]
        p1 = x[index]
        z1 = p1 @ self.w1.reshape(c, -1).T
        z1 += self.b1
        a1 = np.empty((hw + 1, c))
        a1[hw] = 0.0
        np.maximum(z1, 0.0, out=a1[:hw])
        p2 = a1.ravel()[_hidden_index(c, *shape)[0]]
        z2 = p2 @ self.w2.reshape(c, -1).T
        z2 += self.b2
        a2 = np.maximum(z2, 0.0)        # conv3's 1x1 patch matrix
        q = a2 @ self.w3.reshape(1, -1).T
        q += self.b3
        return q, (z1, p1, z2, p2, a2)

    def backward(self, cache, dq, grads):
        """Accumulate parameter gradients for dL/dq (h, w) into ``grads``.

        Layer gradients are channel-major (c, h*w): every GEMM and bias sum
        takes the operand shapes and memory order of a plain im2col stack,
        and conv2's col2im adds in the same order, so the bits match it.
        """
        z1, p1, z2, p2, a2 = cache
        (h, w), c = dq.shape, z1.shape[1]
        drow = dq.reshape(1, -1)
        dw3 = (drow @ a2).reshape(self.w3.shape)
        db3 = dq[None, :, :].sum(axis=(1, 2))
        # A 1x1 col2im adds each patch gradient onto a zero once; "+ 0.0"
        # keeps that, turning -0.0 into +0.0.
        dz2 = np.add((drow.T @ self.w3.reshape(1, -1)).T, 0.0, order="C")
        dz2 *= z2.T > 0.0
        dw2 = (dz2 @ p2).reshape(self.w2.shape)
        db2 = dz2.reshape(c, h, w).sum(axis=(1, 2))
        dp2 = dz2.T @ self.w2.reshape(c, -1)
        dz1 = np.bincount(_hidden_index(c, h, w)[1], weights=dp2.ravel(),
                          minlength=c * h * w + 1)[:-1].reshape(c, -1)
        dz1 *= z1.T > 0.0
        dw1 = (dz1 @ p1).reshape(self.w1.shape)
        db1 = dz1.reshape(c, h, w).sum(axis=(1, 2))
        for name, g in zip(_PARAM_NAMES, (dw1, db1, dw2, db2, dw3, db3)):
            grads[name] = grads.get(name, 0.0) + g

    def apply_sgd(self, grads, lr, momentum):
        for name in _PARAM_NAMES:
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(getattr(self, name))
            v = momentum * v + grads[name]
            self.velocity[name] = v
            getattr(self, name)[...] -= lr * v


@dataclass
class QNetwork:
    stacks: dict                 # Primitive -> ConvStack
    hidden_channels: int
    rotations: int

    @classmethod
    def init(cls, rng, hidden_channels=16, rotations=4):
        stacks = {prim: ConvStack.init(rng, hidden_channels)
                  for prim in PRIMITIVE_ORDER}
        return cls(stacks=stacks, hidden_channels=hidden_channels,
                   rotations=rotations)

    def param_arrays(self):
        """(name, array) pairs in the declared checkpoint order."""
        out = []
        for prim in PRIMITIVE_ORDER:
            for name, arr in self.stacks[prim].params().items():
                out.append((f"{prim.value}.{name}", arr))
        return out


def stack_input(obs: Observation, prev_action: Action | None) -> np.ndarray:
    """conv1's flat input: occupancy, the stack height over height_norm
    clipped to [0, 1] and the holding flag, each over the grid; one channel
    per primitive, in PRIMITIVE_ORDER, with the previous action's Q at its
    pose in its own channel (all zero for None, at an episode's start); then
    a zero that conv1's gather reads for padded and out-of-grid pixels."""
    h, w = obs.shape
    x = np.zeros(IN_CHANNELS * h * w + 1)
    scene = x[:3 * h * w].reshape(3, h, w)
    scene[0] = obs.heights > 0
    scene[1] = np.minimum(obs.heights / obs.height_norm, 1.0)  # counts >= 0
    scene[2] = obs.holding
    if prev_action is not None:
        channel = 3 + PRIMITIVE_ORDER.index(prev_action.primitive)
        x[(channel * h + prev_action.y) * w + prev_action.x] = \
            prev_action.q_value
    return x


def forward_rotation(net: QNetwork, x: np.ndarray, shape, primitive: Primitive,
                     theta_index: int):
    """Q grid for one rotation of the flat input ``x`` (see stack_input) on
    an ``shape`` grid: counter-rotate input, run stack, rotate back."""
    theta = theta_radians(theta_index, net.rotations)
    index = _input_index(*shape, theta)
    q, cache = net.stacks[primitive].forward(x, index, shape)
    return rotate_grid(q.reshape(shape), theta), cache, theta


def forward_all(net: QNetwork, obs, prev_action, primitives) -> dict:
    """Primitive -> full (rotations, h, w) Q-map set, for each primitive."""
    x = stack_input(obs, prev_action)
    return {prim: np.stack([forward_rotation(net, x, obs.shape, prim, r)[0]
                            for r in range(net.rotations)])
            for prim in primitives}


def forward_one(net: QNetwork, obs, prev_action, primitive, theta_index):
    """One rotation's (h, w) Q grid of one primitive: the same floats as that
    entry of ``forward_all``'s map set, for one stack forward."""
    return forward_rotation(net, stack_input(obs, prev_action), obs.shape,
                            primitive, theta_index)[0]


# ---------------------------------------------------------------------------
# targets and loss


def compute_target(r_t: float, r_next: float, gamma: float) -> float:
    """Recursive expected reward: r_t + gate * gamma * r_next, where the
    gate opens only when the step's own reward is positive."""
    eta = 1.0 if r_t > 0.0 else 0.0
    return r_t + eta * gamma * r_next


def robust_loss(residual, alpha: float, c: float):
    """General robust loss and its derivative w.r.t. the residual.

    rho(x, alpha, c) = (|2-alpha|/alpha) * [((x/c)^2 / |2-alpha| + 1)^(alpha/2) - 1]
    with the quadratic (alpha=2) and log (alpha=0) limits taken exactly when
    alpha is within snapping distance of them. Accepts scalars or arrays.
    """
    if c <= 0:
        raise ValueError("scale c must be positive")
    x = np.asarray(residual, dtype=np.float64)
    s = (x / c) ** 2
    if abs(alpha - 2.0) <= _ALPHA_QUAD_TOL:
        loss = 0.5 * s
        grad = x / (c * c)
    elif abs(alpha) <= _ALPHA_LOG_TOL:
        loss = np.log1p(0.5 * s)
        grad = (x / (c * c)) / (0.5 * s + 1.0)
    else:
        b = abs(2.0 - alpha)
        log_term = np.log1p(s / b)
        loss = (b / alpha) * np.expm1((alpha / 2.0) * log_term)
        grad = (x / (c * c)) * np.exp((alpha / 2.0 - 1.0) * log_term)
    if np.isscalar(residual):
        return float(loss), float(grad)
    return loss, grad


def build_target_map(reward_map: RewardMap, action: Action, y: float):
    """Per-pixel targets on the reward map's supervised box, scaled so the
    executed pixel carries exactly ``y``; all-zero when the spike itself is
    zero."""
    executed = reward_map.at(action.y, action.x)
    if executed > 0.0:
        return y * reward_map.values / executed
    return np.zeros_like(reward_map.values)


@dataclass(frozen=True)
class TrainHyper:
    lr: float = 0.03
    momentum: float = 0.9
    gamma: float = 0.5
    loss_alpha: float = 1.0
    loss_scale: float = 1.0

    def __post_init__(self):
        check_value("network.lr", self.lr, 0 < self.lr < math.inf,
                    "finite and > 0")
        check_value("network.momentum", self.momentum,
                    0 <= self.momentum < 1, "in [0, 1)")
        check_value("network.gamma", self.gamma, 0 <= self.gamma <= 1,
                    "in [0, 1]")
        check_value("network.loss_scale", self.loss_scale,
                    0 < self.loss_scale < math.inf, "finite and > 0")
        check_value("network.loss_alpha", self.loss_alpha,
                    math.isfinite(self.loss_alpha), "finite")


def transition_loss(net: QNetwork, tr, hp: TrainHyper):
    """Robust per-pixel losses of one finalized transition, and what
    ``transition_backward`` needs to differentiate their mean.

    Supervision covers only the executed primitive's map at the executed
    rotation, on the reward map's supervised box. The losses are a flat
    array, the box's pixels in row-major order.
    """
    x = stack_input(tr.observation, tr.prev_action)
    pred, cache, theta = forward_rotation(net, x, tr.observation.shape,
                                          tr.action.primitive,
                                          tr.action.theta_index)
    y = compute_target(tr.r_t, tr.r_next, hp.gamma)
    targets = build_target_map(tr.reward_map, tr.action, y)
    box = tr.reward_map.box
    residuals = (pred[box] - targets).ravel()
    losses, dresiduals = robust_loss(residuals, hp.loss_alpha, hp.loss_scale)
    return losses, (pred, cache, theta, box, dresiduals)


def transition_backward(net: QNetwork, tr, saved, grads, batch_size=1):
    """Accumulate the gradient of the transition's mean loss, divided by
    ``batch_size``, into ``grads`` for the executed primitive's stack."""
    pred, cache, theta, box, dresiduals = saved
    dpred = np.zeros_like(pred)
    dbox = dpred[box]
    dbox.flat = dresiduals / (dresiduals.size * batch_size)
    net.stacks[tr.action.primitive].backward(
        cache, rotate_grid_grad(dpred, theta), grads)


def train_step(net: QNetwork, batch, hp: TrainHyper):
    """One SGD step over a batch of finalized transitions.

    Only the executed primitive's network receives gradient (see
    ``transition_loss``); the others are left untouched, including their
    momentum state. Returns (mean batch loss, per-transition losses).
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    grads = {prim: {} for prim in PRIMITIVE_ORDER}
    touched = set()
    per_losses = np.zeros(len(batch))
    n = len(batch)

    # Each item's backward runs right after its forward, while its patch
    # matrices are still in cache (measured faster than batching the loss).
    for i, tr in enumerate(batch):
        # Rebinding `saved` frees the previous item's forward cache before
        # this item's backward allocates. Holding it through the backward
        # makes glibc trim and refault the heap on 14x14 grids.
        losses, saved = transition_loss(net, tr, hp)
        # The mean as np.mean computes it: pairwise sum, then one division.
        per_losses[i] = losses.sum() / losses.size
        transition_backward(net, tr, saved, grads[tr.action.primitive], n)
        touched.add(tr.action.primitive)

    mean_loss = float(np.mean(per_losses))
    if not np.isfinite(mean_loss):
        raise TrainingDivergence(f"non-finite training loss {mean_loss}")
    for prim in touched:
        net.stacks[prim].apply_sgd(grads[prim], hp.lr, hp.momentum)
        for name, arr in net.stacks[prim].params().items():
            if not np.all(np.isfinite(arr)):
                raise TrainingDivergence(f"non-finite parameter {prim.value}.{name}")
    return mean_loss, per_losses


# ---------------------------------------------------------------------------
# checkpoints


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def save_checkpoint(path, net: QNetwork, grid_shape, cfg_hash: str = ""):
    """Binary header + parameter arrays (little-endian float64, declared
    order), mirrored by a ``<path>.meta`` text sidecar."""
    values = (CHECKPOINT_VERSION, net.rotations, IN_CHANNELS,
              net.hidden_channels, *grid_shape)
    arrays = net.param_arrays()
    digest = bytes.fromhex(cfg_hash) if cfg_hash else b"\x00" * 32
    header = [CHECKPOINT_MAGIC,
              _HEADER_INTS.pack(*values),
              digest,
              struct.pack("<I", len(arrays))]
    for name, arr in arrays:
        encoded = name.encode()
        header.append(struct.pack("<H", len(encoded)))
        header.append(encoded)
        header.append(struct.pack("<B", arr.ndim))
        header.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    data = b"".join(header) + b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays)
    meta = [f"{key}={value}" for key, value in zip(HEADER_FIELDS, values)]
    meta.append(f"config_hash={cfg_hash or '0' * 64}")
    meta += [f"array={name} {','.join(map(str, arr.shape))}"
             for name, arr in arrays]
    _write_replacing({path: data,
                      meta_path(path): ("\n".join(meta) + "\n").encode()})


def _write_replacing(files):
    """Write ``{path: bytes}`` to temp files beside the targets, then rename
    each over its target, so an interrupted save leaves the previous files
    whole and no temp file behind."""
    staged = []
    try:
        for path, data in files.items():
            staged.append(f"{path}.tmp")
            with open(staged[-1], "wb") as fh:
                fh.write(data)
        for path, tmp in zip(files, staged):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


def meta_path(path) -> str:
    path = str(path)
    return path[:-4] + ".meta" if path.endswith(".bin") else path + ".meta"


def read_checkpoint_header(path):
    with open(path, "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint file")
        try:
            fields = dict(zip(HEADER_FIELDS,
                              _HEADER_INTS.unpack(fh.read(_HEADER_INTS.size))))
            digest = fh.read(32).hex()
            (n_arrays,) = struct.unpack("<I", fh.read(4))
            arrays = []
            for _ in range(n_arrays):
                (name_len,) = struct.unpack("<H", fh.read(2))
                name = fh.read(name_len).decode()
                (ndim,) = struct.unpack("<B", fh.read(1))
                shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
                arrays.append((name, shape))
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
        offset = fh.tell()
    return {**fields, "config_hash": digest, "arrays": arrays,
            "data_offset": offset}


def load_checkpoint(path):
    """Read a checkpoint back, rejecting another version or input channel
    count, arrays other than the header's channel counts imply, missing or
    trailing data, and non-finite weights with CheckpointError."""
    header = read_checkpoint_header(path)
    if header["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: version {header['version']}, "
                              f"expected {CHECKPOINT_VERSION}")
    c_in, hidden = header["in_channels"], header["hidden_channels"]
    if c_in != IN_CHANNELS or hidden < 1:
        raise CheckpointError(
            f"{path}: in_channels={c_in}, hidden_channels={hidden}; expected "
            f"in_channels={IN_CHANNELS} and hidden_channels >= 1")
    expected = [(f"{prim.value}.{pname}", shape) for prim in PRIMITIVE_ORDER
                for pname, shape in _param_shapes(hidden).items()]
    for got, want in itertools.zip_longest(header["arrays"], expected):
        if got != want:
            raise CheckpointError(f"{path}: array (name, shape) {got}, the "
                                  f"header's channel counts imply {want}")
    counts = [math.prod(shape) for _, shape in header["arrays"]]
    with open(path, "rb") as fh:
        fh.seek(header["data_offset"])
        data = fh.read()
    if len(data) != 8 * sum(counts):
        raise CheckpointError(f"{path}: {len(data)} bytes of array data, "
                              f"the header declares {8 * sum(counts)}")
    net = QNetwork(stacks={}, hidden_channels=hidden,
                   rotations=header["rotations"])
    raw, offset = {}, 0
    for (name, shape), count in zip(header["arrays"], counts):
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {name} is not finite")
        raw[name] = arr.reshape(shape).astype(np.float64)
        offset += 8 * count
    for prim in PRIMITIVE_ORDER:
        kwargs = {pname: raw[f"{prim.value}.{pname}"] for pname in _PARAM_NAMES}
        net.stacks[prim] = ConvStack(**kwargs)
    return net, header
