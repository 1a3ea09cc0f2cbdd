"""Step rewards and pixel-wise supervision maps.

The shaped reward is a product of a per-primitive weight, the primitive
success indicator and the overall task progress. The resulting scalar spike
is smeared over neighbouring poses with a rotated anisotropic Gaussian and
max-fused with the original spike. A map is kept as its supervised box alone,
the pixels that carry a training target, and their values; every pixel off
the box is 0. The Gaussian's box is its support clipped at the borders, at
most (2K+1)^2 pixels for half-width K (7x7 at the default sigmas); the
baseline's spike is a 1x1 box.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .gridsim import ConfigError, Primitive, check_value


@dataclass(frozen=True)
class RewardParams:
    weights: dict = field(default_factory=lambda: {
        Primitive.PUSH: 0.5,
        Primitive.PICK: 1.0,
        Primitive.PLACE: 1.0,
    })
    sigma_y: float = 0.5
    anisotropy: float = 2.0      # sigma_x = anisotropy * sigma_y

    @property
    def sigma_x(self):
        return self.anisotropy * self.sigma_y

    @property
    def kernel_peak(self):
        """The Gaussian density at its centre, 1 / (2 pi sigma_x sigma_y)."""
        return 1.0 / (2.0 * math.pi * self.sigma_x * self.sigma_y)

    @property
    def truncation(self):
        """Kernel half-width in cells, before any grid caps it."""
        return math.ceil(3.0 * self.sigma_x)

    def __post_init__(self):
        for primitive, weight in self.weights.items():
            check_value(f"reward.weight_{primitive.value}", weight,
                        0 < weight < math.inf, "finite and > 0")
        check_value("reward.sigma_y", self.sigma_y,
                    0 < self.sigma_y < math.inf, "finite and > 0")
        check_value("reward.anisotropy", self.anisotropy,
                    0 < self.anisotropy < math.inf, "finite and > 0")
        # The kernel divides by these three; each, and the density's peak
        # 1 / (2 pi sigma_x sigma_y), must be a float that is finite and > 0.
        sx, sy = self.sigma_x, self.sigma_y
        area = 2.0 * math.pi * sx * sy
        if not (all(0 < v < math.inf for v in (area, 2.0 * sx * sx,
                                               2.0 * sy * sy))
                and self.kernel_peak < math.inf):
            raise ConfigError(
                f"reward.sigma_y={sy} and reward.anisotropy={self.anisotropy} "
                f"give sigma_x={sx}; 2*pi*sigma_x*sigma_y, its inverse and "
                "2*sigma**2 of each axis must be finite and > 0")


@dataclass(frozen=True)
class RewardMap:
    """The supervised box ``values`` of a ``shape`` grid, at rows
    y0:y0+bh and columns x0:x0+bw; the map is 0 off the box."""
    y0: int
    x0: int
    values: np.ndarray           # (bh, bw) nonnegative reals: the box's pixels
    shape: tuple                 # (h, w) of the whole grid

    @property
    def box(self):
        """The (rows, columns) slices of the box in the grid."""
        bh, bw = self.values.shape
        return slice(self.y0, self.y0 + bh), slice(self.x0, self.x0 + bw)

    def at(self, y, x):
        """The map's value at grid pixel (y, x)."""
        bh, bw = self.values.shape
        dy, dx = y - self.y0, x - self.x0
        return self.values[dy, dx] if 0 <= dy < bh and 0 <= dx < bw else 0.0

    @property
    def grid(self):
        """The whole (h, w) map."""
        grid = np.zeros(self.shape)
        grid[self.box] = self.values
        return grid

    @property
    def supervised_mask(self):
        """(h, w) bools: the pixels that carry a training target."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.box] = True
        return mask


def task_progress_reward(primitive: Primitive, success: int, progress: float,
                         params: RewardParams) -> float:
    """weight(primitive) * success * progress."""
    return params.weights[primitive] * float(success) * float(progress)


def step_reward(primitive, success, progress, prev_progress, params) -> float:
    """Full shaped step reward: the product above, forced to 0 whenever the
    step reversed overall progress (a locally successful action that undoes
    the task earns nothing)."""
    if progress < prev_progress:
        return 0.0
    return task_progress_reward(primitive, success, progress, params)


def baseline_reward(success: int) -> float:
    """Ablation baseline: the bare success indicator."""
    return float(success)


def gaussian_kernel(theta: float, params: RewardParams, k=None) -> np.ndarray:
    """Anisotropic Gaussian on integer offsets, long axis along the gripper
    x-axis (coordinates rotated by -theta). Density values, not renormalized.

    Returns a (2K+1, 2K+1) grid, K = ``k`` or else the truncation half-width,
    indexed [dy + K, dx + K]. Each value depends on its offset alone, so a
    smaller K gives the centre of the larger kernel, bit for bit.
    """
    sx, sy = params.sigma_x, params.sigma_y
    if k is None:
        k = params.truncation
    offs = np.arange(-k, k + 1, dtype=np.float64)
    dxg, dyg = np.meshgrid(offs, offs)
    ct, st = math.cos(theta), math.sin(theta)
    xr = dxg * ct + dyg * st
    yr = -dxg * st + dyg * ct
    return params.kernel_peak * np.exp(-(xr ** 2 / (2.0 * sx ** 2) + yr ** 2 / (2.0 * sy ** 2)))


_KERNEL_CACHE = {}


def _cached_kernel(theta, params, k):
    # The kernel depends on theta, the Gaussian's widths and its half-width.
    key = (theta, params.sigma_x, params.sigma_y, k)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        kernel = _KERNEL_CACHE[key] = gaussian_kernel(theta, params, k)
    return kernel


def tpg_reward_map(r_tp: float, pose, params: RewardParams, shape) -> RewardMap:
    """Smoothed reward map: max(spike, spike * Gaussian) on the translated
    kernel support clipped at the borders, which is the supervised box.

    ``pose`` is (x, y, theta_radians) of the executed action. Convolving a
    one-pixel spike pastes ``r_tp`` times the kernel around the pixel; adding
    0.0 to the paste keeps a zero-padded convolution's bits (0.0 + -0.0 is
    +0.0). Off the box the convolution and the spike are both 0. Offsets past
    ``max(h, w) - 1`` never reach the grid, so the kernel's half-width is
    capped there: a wide Gaussian costs no more than the grid.
    """
    if r_tp < 0:
        raise ValueError("shaped reward must be nonnegative")
    x, y, theta = pose
    h, w = shape
    k = min(params.truncation, max(h, w) - 1)
    y0, y1 = max(0, y - k), min(h, y + k + 1)
    x0, x1 = max(0, x - k), min(w, x + k + 1)
    kernel = _cached_kernel(theta, params, k)[y0 - y + k:y1 - y + k,
                                              x0 - x + k:x1 - x + k]
    smoothed = r_tp * kernel + 0.0
    spike = np.zeros_like(smoothed)
    spike[y - y0, x - x0] = r_tp
    return RewardMap(y0=y0, x0=x0, values=np.maximum(spike, smoothed),
                     shape=tuple(shape))


def spike_reward_map(r: float, pose, shape) -> RewardMap:
    """Unsmoothed map for the ablation baseline: one supervised pixel."""
    x, y = pose[0], pose[1]
    return RewardMap(y0=y, x0=x, values=np.full((1, 1), r, dtype=np.float64),
                     shape=tuple(shape))
