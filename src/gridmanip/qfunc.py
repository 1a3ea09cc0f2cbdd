"""Pixel-wise Q approximator with hand-derived gradients.

One small convolutional stack per primitive (3x3 -> 3x3 -> 1x1, ReLU between,
zero 'same' padding) maps the observed scene plus the previous action's
Q prediction at its pose to an h x w Q grid. Rotations are handled by
counter-rotating the input, running the stack, and rotating the output back,
both by nearest-neighbour gathers (exact for multiples of 90 degrees on
square grids) that one cached table per grid shape and rotation count
holds (_rotation_stack). The counter-rotation is folded into conv1's patch
gather, which stacks every rotation's patch matrix so that one pass of the
stack computes them all: each layer is one 3-D matmul, and each of its
slices is the BLAS call a single rotation's patch matrix makes, so every
map keeps its bits (one fused GEMM over all rotations' pixels would not).
The rotate-back is one gather of the Q columns, and its gradient a
bincount through the same index.

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

from .gridsim import (ConfigError, Primitive, PRIMITIVE_ORDER, action_fields,
                      check_value, theta_radians)

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


def _rotation_map(h, w, theta):
    """Nearest-neighbour gather for rotating an (h, w) grid by theta: the
    flat source pixel of each output pixel, -1 where it has none."""
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dx, dy = xs - cx, ys - cy
    ct, st = math.cos(theta), math.sin(theta)
    # output(p) samples input at R(-theta) (p - c) + c
    sx = np.round(ct * dx + st * dy + cx)
    sy = np.round(-st * dx + ct * dy + cy)
    valid = (sx >= 0) & (sx < w) & (sy >= 0) & (sy < h)
    return np.where(valid, sy * w + sx, -1).astype(np.intp).ravel()


# ---------------------------------------------------------------------------
# convolution layers
#
# Both 3x3 layers are im2col GEMMs: a (pixels, channels*9) patch matrix times
# the transposed weights, for a stack of g such matrices (one per rotation)
# at once. The patch matrices are built by one fancy-index gather each,
# through indices cached per grid shape (and, for conv1, per rotation
# count). Every zero of the padding (and of the counter-rotation) is read
# from a zero slot at the end of the gathered vector, so no padded copy is
# ever made. Hidden activations stay in the GEMM's (pixels, channels) layout.
# The Q columns get a zero slot too: the rotate-back gather reads it for
# pixels with no source, and its bincount backward dumps their gradient
# there, as conv2's col2im does with the padding's.


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


def _rotation_stack(h, w, rotations):
    """The network's one rotation table, cached per grid shape and rotation
    count: (index, back).

    ``index`` is conv1's (rotations, h*w, IN_CHANNELS*9) gather from
    stack_input's vector to each rotation's patch matrix of the
    counter-rotated input. ``back`` (rotations, h*w) rotates the Q columns
    back: ConvStack.forward lays them out with a zero slot after each, so
    column r starts at r * (h*w + 1), and ``back[r]`` reads column r, each
    pixel with no source reading its zero slot. One gather through ``back``
    rotates every map back; the backward of row r is np.bincount through
    ``back[r] - r * (h*w + 1)``, whose last bin, the zero slot, takes the
    gradient of the pixels with no source.
    """
    key = ("rotations", h, w, rotations)
    hit = _INDEX_CACHE.get(key)
    if hit is None:
        hw = h * w
        channel = np.arange(IN_CHANNELS)[:, None] * hw
        index = np.empty((rotations, hw, IN_CHANNELS * 9), dtype=np.intp)
        back = np.empty((rotations, hw), dtype=np.intp)
        for r in range(rotations):
            theta = theta_radians(r, rotations)
            taps = _taps(h, w, _rotation_map(h, w, -theta))[:, None, :]
            index[r] = np.where(taps >= 0, channel + taps,
                                IN_CHANNELS * hw).reshape(hw, -1)
            source = _rotation_map(h, w, theta)
            back[r] = np.where(source >= 0, source, hw) + r * (hw + 1)
        hit = (index, back)
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

    def forward(self, p1, shape):
        """A stack of g conv1 patch matrices (g, h*w, IN_CHANNELS*9) ->
        ((g, h*w + 1) Q columns, each followed by a zero slot for the
        rotate-back gather; cache (a1, p1, a2, p2) for backward).

        Each layer is one 3-D matmul, and each of its g slices is the BLAS
        call of that slice's 2-D GEMM, so a slice's Q column has the bits of
        a forward of that patch matrix alone. ReLU runs in place: backward
        masks by the activations, which are positive exactly where their
        pre-activations are.
        """
        (g, hw, _), c = p1.shape, self.b1.shape[0]
        # conv2 reads a1 through a zero row after each slice's pixels.
        padded = np.empty((g, hw + 1, c))
        padded[:, hw] = 0.0
        a1 = padded[:, :hw]
        np.matmul(p1, self.w1.reshape(c, -1).T, out=a1)
        a1 += self.b1
        np.maximum(a1, 0.0, out=a1)
        p2 = np.take(padded.reshape(g, -1), _hidden_index(c, *shape)[0],
                     axis=1)
        a2 = p2 @ self.w2.reshape(c, -1).T
        a2 += self.b2
        np.maximum(a2, 0.0, out=a2)     # conv3's 1x1 patch matrix
        q = np.zeros((g, hw + 1))
        np.add(a2 @ self.w3.reshape(1, -1).T, self.b3, out=q[:, :hw, None])
        return q, (a1, p1, a2, p2)

    def backward(self, cache, dq, grads):
        """Accumulate parameter gradients for dL/dq (h, w) into ``grads``.

        ``cache`` is one slice of ``forward``'s. Layer gradients are
        channel-major (c, h*w): every GEMM and bias sum takes the operand
        shapes and memory order of a plain im2col stack, and conv2's col2im
        adds in the same order, so the bits match it.
        """
        a1, p1, a2, p2 = cache
        (h, w), c = dq.shape, a1.shape[1]
        drow = dq.reshape(1, -1)
        dw3 = (drow @ a2).reshape(self.w3.shape)
        db3 = dq[None, :, :].sum(axis=(1, 2))
        # A 1x1 col2im adds each patch gradient onto a zero once; "+ 0.0"
        # keeps that, turning -0.0 into +0.0.
        dz2 = np.add((drow.T @ self.w3.reshape(1, -1)).T, 0.0, order="C")
        dz2 *= a2.T > 0.0
        dw2 = (dz2 @ p2).reshape(self.w2.shape)
        db2 = dz2.reshape(c, h, w).sum(axis=(1, 2))
        dp2 = dz2.T @ self.w2.reshape(c, -1)
        dz1 = np.bincount(_hidden_index(c, h, w)[1], weights=dp2.ravel(),
                          minlength=c * h * w + 1)[:-1].reshape(c, -1)
        dz1 *= a1.T > 0.0
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


def stack_input(heights, holding, height_norm, prev) -> np.ndarray:
    """conv1's flat input from one observation's fields: occupancy, the
    stack height over height_norm clipped to [0, 1] and the holding flag,
    each over the grid; one channel per primitive, in PRIMITIVE_ORDER, with
    the previous action's Q at its pose in its own channel (all zero when
    ``prev`` is None, at an episode's start); then a zero that conv1's
    gather reads for padded and out-of-grid pixels.

    Acting passes an ``Observation``'s fields and training a replay row's,
    whose heights are unsigned ints: the channels take the same floats from
    either. ``prev`` is the previous action's ``gridsim.action_fields``, as
    a row's record keeps them.
    """
    h, w = heights.shape
    x = np.zeros(IN_CHANNELS * h * w + 1)
    scene = x[:3 * h * w].reshape(3, h, w)
    scene[0] = heights > 0
    scene[1] = np.minimum(heights / height_norm, 1.0)  # counts >= 0
    scene[2] = holding
    if prev is not None:
        primitive, px, py, _, q_value = prev
        x[((3 + primitive) * h + py) * w + px] = q_value
    return x


def _observed_input(obs, prev_action):
    """stack_input of an Observation and the Action before it, or None."""
    return stack_input(obs.heights, obs.holding, obs.height_norm,
                       None if prev_action is None
                       else action_fields(prev_action))


def forward_rotation(net: QNetwork, x: np.ndarray, shape, primitive: Primitive,
                     theta_index: int):
    """Q grid for one rotation of the flat input ``x`` (see stack_input) on
    an ``shape`` grid, the stack's forward cache of that one rotation, and
    the rotate-back gather of its one Q column (its row of ``back`` in
    _rotation_stack, moved to column 0): a one-slice stacked pass, its
    output rotated back."""
    index, back = _rotation_stack(*shape, net.rotations)
    q, cache = net.stacks[primitive].forward(
        x[index[theta_index:theta_index + 1]], shape)
    cache = tuple(a[0] for a in cache)
    column = back[theta_index] - theta_index * q.shape[1]
    return q[0][column].reshape(shape), cache, column


def forward_all(net: QNetwork, obs, prev_action, primitives) -> dict:
    """Primitive -> full (rotations, h, w) Q-map set, for each primitive.

    conv1's patch matrices of every rotation are gathered once and shared by
    the primitives; each primitive's maps take one stacked pass of its
    stack, whose every rotation has the bits of a ``forward_one`` of it, and
    one gather through ``back`` rotates them all back.
    """
    (h, w), g = obs.shape, net.rotations
    index, back = _rotation_stack(h, w, g)
    p1 = _observed_input(obs, prev_action)[index]
    maps = {}
    for prim in primitives:
        # [0] drops the forward cache at once: no backward reads it.
        q = net.stacks[prim].forward(p1, obs.shape)[0]
        maps[prim] = q.ravel()[back].reshape(g, h, w)
    return maps


def forward_one(net: QNetwork, obs, prev_action, primitive, theta_index):
    """One rotation's (h, w) Q grid of one primitive: the same floats as that
    entry of ``forward_all``'s map set, for a one-rotation stack pass."""
    return forward_rotation(net, _observed_input(obs, prev_action), obs.shape,
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


def build_target_map(values, dy, dx, y: float):
    """Per-pixel targets on a reward map's supervised box of ``values``,
    scaled so the executed pixel, at (dy, dx) in the box, carries exactly
    ``y``; all-zero when that pixel is off the box or its value is zero."""
    bh, bw = values.shape
    executed = values[dy, dx] if 0 <= dy < bh and 0 <= dx < bw else 0.0
    if executed > 0.0:
        return y * values / executed
    return np.zeros_like(values)


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


def transition_loss(net: QNetwork, heights, row, box, hp: TrainHyper):
    """Robust per-pixel losses of one finalized replay row, and what
    ``transition_backward`` needs to differentiate their mean.

    ``heights``, ``row`` and ``box`` are one row of ``ReplayBuffer.rows``:
    its height grid, its record as a tuple (``tolist``) and its box slot,
    whose ``[:h, :w]`` holds the record's box values. Supervision covers
    only the executed primitive's map at the executed rotation, on the
    reward map's supervised box. The losses are a flat array, the box's
    pixels in row-major order.
    """
    (holding, height_norm, action, prev, has_prev, r_t, r_next,
     (y0, x0, bh, bw)) = row
    index, ax, ay, theta_index, _ = action
    primitive = PRIMITIVE_ORDER[index]
    x = stack_input(heights, holding, height_norm, prev if has_prev else None)
    pred, cache, column = forward_rotation(net, x, heights.shape, primitive,
                                           theta_index)
    y = compute_target(r_t, r_next, hp.gamma)
    targets = build_target_map(box[:bh, :bw], ay - y0, ax - x0, y)
    window = slice(y0, y0 + bh), slice(x0, x0 + bw)
    residuals = (pred[window] - targets).ravel()
    losses, dresiduals = robust_loss(residuals, hp.loss_alpha, hp.loss_scale)
    return losses, (primitive, pred, cache, column, window, dresiduals)


def transition_backward(net: QNetwork, saved, grads, batch_size=1):
    """Accumulate the gradient of a row's mean loss, divided by
    ``batch_size``, into ``grads`` for the executed primitive's stack;
    ``saved`` is what ``transition_loss`` returned for the row.

    The rotate-back's backward is a bincount through its gather. bincount
    adds each bin's terms in pixel order onto +0.0, as a scatter-add into
    zeros does (so -0.0 comes back +0.0), and its last bin, the column's
    zero slot, takes the gradient of the pixels with no source.
    """
    primitive, pred, cache, column, window, dresiduals = saved
    dpred = np.zeros_like(pred)
    dbox = dpred[window]
    dbox.flat = dresiduals / (dresiduals.size * batch_size)
    dq = np.bincount(column, weights=dpred.ravel(),
                     minlength=column.size + 1)[:-1].reshape(pred.shape)
    net.stacks[primitive].backward(cache, dq, grads)


def train_step(net: QNetwork, batch, hp: TrainHyper):
    """One SGD step over a batch of finalized replay rows, the ``(heights,
    records, boxes)`` that ``ReplayBuffer.rows`` returns.

    Only the executed primitive's network receives gradient (see
    ``transition_loss``); the others are left untouched, including their
    momentum state. Returns (mean batch loss, per-row losses).
    """
    heights, records, boxes = batch
    n = len(records)
    if not n:
        raise ValueError("batch must be nonempty")
    grads = {prim: {} for prim in PRIMITIVE_ORDER}
    touched = set()
    per_losses = np.zeros(n)

    # Each row's backward runs right after its forward, while its patch
    # matrices are still in cache (measured faster than batching the loss).
    # tolist() gives every record field as the Python value the loss reads.
    for i, row in enumerate(records.tolist()):
        # Rebinding `saved` frees the previous row's forward cache before
        # this row's backward allocates. Holding it through the backward
        # makes glibc trim and refault the heap on 14x14 grids.
        losses, saved = transition_loss(net, heights[i], row, boxes[i], hp)
        # The mean as np.mean computes it: pairwise sum, then one division.
        per_losses[i] = losses.sum() / losses.size
        primitive = saved[0]
        transition_backward(net, saved, grads[primitive], n)
        touched.add(primitive)

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
