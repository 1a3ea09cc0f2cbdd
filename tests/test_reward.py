import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridmanip import reward
from gridmanip.gridsim import ConfigError, Primitive
from gridmanip.reward import (RewardParams, baseline_reward, gaussian_kernel,
                              spike_reward_map, step_reward,
                              task_progress_reward, tpg_reward_map)

UNIT_PARAMS = RewardParams(sigma_y=1.0)      # sigma_x = 2, truncation 6


def supervised_mask(rmap):
    """(h, w) bools: the pixels of the map's box, which carry a training
    target."""
    mask = np.zeros(rmap.shape, dtype=bool)
    mask[rmap.box] = True
    return mask


def convolve_same(grid: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded sliding-window 2D convolution, output sized like ``grid``.

    True convolution (kernel flipped), accumulated offset by offset; no FFT.
    """
    kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernel dimensions must be odd")
    h, w = grid.shape
    ky, kx = kh // 2, kw // 2
    padded = np.zeros((h + 2 * ky, w + 2 * kx), dtype=np.float64)
    padded[ky:ky + h, kx:kx + w] = grid
    out = np.zeros((h, w), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            # out[y, x] += kernel[i, j] * grid[y - (i - ky), x - (j - kx)]
            out += kernel[i, j] * padded[ky - (i - ky):ky - (i - ky) + h,
                                         kx - (j - kx):kx - (j - kx) + w]
    return out


class TestProgressReward:
    def test_pick_product(self):
        assert task_progress_reward(Primitive.PICK, 1, 0.5, UNIT_PARAMS) == 0.5

    def test_gated_by_indicator(self):
        assert task_progress_reward(Primitive.PUSH, 0, 0.9, UNIT_PARAMS) == 0.0

    def test_place_product(self):
        assert task_progress_reward(Primitive.PLACE, 1, 0.75, UNIT_PARAMS) == 0.75

    def test_push_weight_halves(self):
        assert task_progress_reward(Primitive.PUSH, 1, 1.0, UNIT_PARAMS) == 0.5

    @given(st.sampled_from(list(Primitive)), st.floats(0, 1))
    def test_zero_indicator_zero_reward(self, prim, progress):
        assert task_progress_reward(prim, 0, progress, UNIT_PARAMS) == 0.0

    @given(st.floats(0.01, 1), st.floats(0.01, 1))
    def test_monotone_in_progress(self, p_low, p_high):
        lo, hi = sorted((p_low, p_high))
        r_lo = task_progress_reward(Primitive.PICK, 1, lo, UNIT_PARAMS)
        r_hi = task_progress_reward(Primitive.PICK, 1, hi, UNIT_PARAMS)
        assert (r_hi > r_lo) == (hi > lo) or hi == lo

    def test_progress_reversal_forced_to_zero(self):
        assert step_reward(Primitive.PICK, 1, 0.33, 0.66, UNIT_PARAMS) == 0.0
        assert step_reward(Primitive.PICK, 1, 0.66, 0.33, UNIT_PARAMS) == \
            pytest.approx(0.66)
        assert step_reward(Primitive.PICK, 1, 0.5, 0.5, UNIT_PARAMS) == \
            pytest.approx(0.5)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RewardParams(sigma_y=-1)
        # 2*pi*sigma_x*sigma_y underflows to 0, or overflows to inf.
        for kwargs in (dict(sigma_y=1e-300), dict(sigma_y=1e300),
                       dict(anisotropy=1e300), dict(sigma_y=1e-161,
                                                    anisotropy=1.0)):
            with pytest.raises(ConfigError, match="2\\*pi\\*sigma_x"):
                RewardParams(**kwargs)
        weights = dict(RewardParams().weights)
        weights[Primitive.PUSH] = 0.0
        with pytest.raises(ValueError):
            RewardParams(weights=weights)


class TestKernel:
    def test_center_value(self):
        k = gaussian_kernel(0.0, UNIT_PARAMS)
        mid = k.shape[0] // 2
        assert k[mid, mid] == pytest.approx(1.0 / (4 * math.pi), abs=1e-12)

    def test_offset_two_along_x(self):
        # frozen from direct evaluation of the density formula
        k = gaussian_kernel(0.0, UNIT_PARAMS)
        mid = k.shape[0] // 2
        assert k[mid, mid + 2] == pytest.approx(0.04826617631502696, abs=1e-12)

    def test_quarter_turn_is_transpose(self):
        k0 = gaussian_kernel(0.0, UNIT_PARAMS)
        k90 = gaussian_kernel(math.pi / 2, UNIT_PARAMS)
        np.testing.assert_allclose(k90, k0.T, atol=1e-12)

    def test_anisotropy_exponent_equality(self):
        k = gaussian_kernel(0.0, UNIT_PARAMS)
        mid = k.shape[0] // 2
        for step in (1, 2, 3):
            assert k[mid, mid + 2 * step] == pytest.approx(k[mid + step, mid],
                                                           abs=1e-13)

    def test_truncation_halfwidth(self):
        assert UNIT_PARAMS.truncation == 6
        assert gaussian_kernel(0.0, UNIT_PARAMS).shape == (13, 13)
        assert RewardParams(sigma_y=0.5).truncation == 3

    def test_not_renormalized(self):
        # density values verbatim: the sum is whatever the truncated formula
        # gives, not 1
        k = gaussian_kernel(0.0, UNIT_PARAMS)
        assert k.sum() != pytest.approx(1.0, abs=1e-3)


class TestConvolution:
    def _brute(self, grid, kernel):
        h, w = grid.shape
        kh, kw = kernel.shape
        ky, kx = kh // 2, kw // 2
        out = np.zeros_like(grid)
        for y in range(h):
            for x in range(w):
                for i in range(kh):
                    for j in range(kw):
                        sy, sx = y - (i - ky), x - (j - kx)
                        if 0 <= sy < h and 0 <= sx < w:
                            out[y, x] += kernel[i, j] * grid[sy, sx]
        return out

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.normal(size=(rng.integers(3, 16), rng.integers(3, 16)))
        kernel = gaussian_kernel(rng.uniform(0, 2 * np.pi),
                                 RewardParams(sigma_y=0.5))
        np.testing.assert_allclose(convolve_same(grid, kernel),
                                   self._brute(grid, kernel), atol=1e-13)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            convolve_same(np.zeros((4, 4)), np.zeros((2, 3)))


class TestTpgMap:
    def test_zero_reward_zero_map(self):
        rmap = tpg_reward_map(0.0, (3, 4, 0.0), UNIT_PARAMS, (10, 10))
        assert not rmap.grid.any()
        assert supervised_mask(rmap)[4, 3]

    def test_executed_pixel_keeps_spike_value(self):
        rmap = tpg_reward_map(0.8, (3, 4, 0.0), UNIT_PARAMS, (10, 10))
        assert rmap.grid[4, 3] == pytest.approx(0.8)

    def test_off_center_pixel_matches_kernel(self):
        rmap = tpg_reward_map(0.8, (3, 4, 0.0), UNIT_PARAMS, (12, 12))
        assert rmap.grid[4, 5] == pytest.approx(0.8 * 0.04826617631502696,
                                                abs=1e-12)

    def test_dominates_spike_and_smoothed(self):
        r_tp = 0.7
        pose = (5, 5, np.pi / 4)
        rmap = tpg_reward_map(r_tp, pose, UNIT_PARAMS, (11, 11))
        spike = np.zeros((11, 11))
        spike[5, 5] = r_tp
        smoothed = convolve_same(spike, gaussian_kernel(np.pi / 4, UNIT_PARAMS))
        assert (rmap.grid >= spike - 1e-15).all()
        assert (rmap.grid >= smoothed - 1e-15).all()
        np.testing.assert_allclose(rmap.grid, np.maximum(spike, smoothed),
                                   atol=1e-15)

    def test_supervised_mask_is_clipped_box(self):
        rmap = tpg_reward_map(0.5, (0, 0, 0.0), UNIT_PARAMS, (10, 10))
        expect = np.zeros((10, 10), dtype=bool)
        expect[0:7, 0:7] = True          # truncation 6, clipped at border
        assert np.array_equal(supervised_mask(rmap), expect)

    def test_negative_reward_rejected(self):
        with pytest.raises(ValueError):
            tpg_reward_map(-0.1, (0, 0, 0.0), UNIT_PARAMS, (5, 5))

    def test_map_nonnegative(self):
        rmap = tpg_reward_map(1.0, (2, 2, 1.1), UNIT_PARAMS, (9, 9))
        assert (rmap.grid >= 0).all()


class TestBaseline:
    def test_indicator_passthrough(self):
        assert baseline_reward(1) == 1.0
        assert baseline_reward(0) == 0.0

    def test_spike_map_single_supervised_pixel(self):
        rmap = spike_reward_map(1.0, (3, 4), (8, 8))
        assert supervised_mask(rmap).sum() == 1
        assert supervised_mask(rmap)[4, 3]
        assert rmap.grid[4, 3] == 1.0
        assert rmap.grid.sum() == 1.0


def convolved_reward_map(r_tp, pose, params, shape):
    """The convolution path tpg_reward_map replaced: a one-hot spike run
    through convolve_same, max-fused with the spike."""
    x, y, theta = pose
    spike = np.zeros(shape)
    spike[y, x] = r_tp
    smoothed = convolve_same(spike, gaussian_kernel(theta, params))
    k = params.truncation
    mask = np.zeros(shape, dtype=bool)
    mask[max(0, y - k):y + k + 1, max(0, x - k):x + k + 1] = True
    return np.maximum(spike, smoothed), mask


class TestPastedKernelOracle:
    @given(h=st.integers(1, 16), w=st.integers(1, 16),
           x=st.integers(0, 15), y=st.integers(0, 15),
           theta_index=st.integers(0, 7), rotations=st.sampled_from([1, 4, 8]),
           r_tp=st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0, 3),
           sigma_y=st.floats(0.2, 1.5), anisotropy=st.floats(0.5, 2.5))
    def test_bitwise_equal_to_convolution(self, h, w, x, y, theta_index,
                                          rotations, r_tp, sigma_y, anisotropy):
        pose = (x % w, y % h, 2 * math.pi * (theta_index % rotations) / rotations)
        params = RewardParams(sigma_y=sigma_y, anisotropy=anisotropy)
        rmap = tpg_reward_map(r_tp, pose, params, (h, w))
        grid, mask = convolved_reward_map(r_tp, pose, params, (h, w))
        assert rmap.grid.tobytes() == grid.tobytes()
        assert supervised_mask(rmap).tobytes() == mask.tobytes()

    def test_wide_kernel_capped_at_the_grid(self):
        # sigma_x = 40: a half-width of 120 cells, 9 of which reach a 10x10
        # grid. The cached kernel is cut there, and a smaller grid asking
        # for the same Gaussian gets its own half-width, not the 10x10 one.
        params = RewardParams(sigma_y=20.0)
        assert params.truncation == 120
        reward._KERNEL_CACHE.clear()
        for shape, pose in (((10, 10), (3, 7, math.pi / 2)),
                            ((4, 6), (5, 0, math.pi / 2))):
            rmap = tpg_reward_map(0.75, pose, params, shape)
            grid, mask = convolved_reward_map(0.75, pose, params, shape)
            assert rmap.grid.tobytes() == grid.tobytes()
            assert supervised_mask(rmap).tobytes() == mask.tobytes()
        assert sorted(k.shape for k in reward._KERNEL_CACHE.values()) == \
            [(11, 11), (19, 19)]

    def test_mutated_params_not_served_from_cache(self):
        before = tpg_reward_map(1.0, (4, 4, 0.0), RewardParams(sigma_y=0.5),
                                (9, 9))
        params = RewardParams(sigma_y=1.0)
        after = tpg_reward_map(1.0, (4, 4, 0.0), params, (9, 9))
        grid, _ = convolved_reward_map(1.0, (4, 4, 0.0), params, (9, 9))
        assert after.grid.tobytes() == grid.tobytes()
        assert not np.array_equal(before.grid, after.grid)
