import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import peak_bytes
from stegowav import metrics as me
from stegowav.errors import ConfigError, UsageError


def naive_ssim_plane(x, y):
    """Direct-formula window loop (oracle for the vectorized implementation)."""
    size, sigma = me.SSIM_WINDOW, me.SSIM_SIGMA
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2 * sigma * sigma))
    win = np.outer(g, g)
    win /= win.sum()
    c1, c2 = me.SSIM_K1 ** 2, me.SSIM_K2 ** 2
    h, w = x.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(w - size + 1):
            px = x[i:i + size, j:j + size]
            py = y[i:i + size, j:j + size]
            mx, my_ = (win * px).sum(), (win * py).sum()
            vx = (win * px * px).sum() - mx * mx
            vy = (win * py * py).sum() - my_ * my_
            cov = (win * px * py).sum() - mx * my_
            vals.append(((2 * mx * my_ + c1) * (2 * cov + c2))
                        / ((mx * mx + my_ * my_ + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


def test_psnr_examples():
    img = np.random.default_rng(0).random((3, 8, 8))
    assert me.psnr_db(img, img) == float("inf")
    a = np.zeros((3, 4, 4))
    b = np.full((3, 4, 4), 0.1)
    assert abs(me.psnr_db(a, b) - 20.0) < 1e-12


def test_psnr_matches_formula_oracle(rng):
    a, b = rng.random((3, 8, 8)), rng.random((3, 8, 8))
    direct = 10.0 * np.log10(1.0 / np.mean((a - b) ** 2))
    assert abs(me.psnr_db(a, b) - direct) < 1e-9
    assert me.psnr_db(a, b) == me.psnr_db(b, a)


def test_psnr_shape_mismatch():
    with pytest.raises(ConfigError):
        me.psnr_db(np.zeros((3, 4, 4)), np.zeros((3, 4, 5)))


def test_ssim_self_is_one(rng):
    img = rng.random((3, 16, 16))
    assert abs(me.ssim(img, img) - 1.0) < 1e-9


def test_ssim_matches_naive_loop(rng):
    x, y = rng.random((14, 13)), rng.random((14, 13))
    assert abs(me.ssim(x, y) - naive_ssim_plane(x, y)) < 1e-10


def test_ssim_checkerboard_inversion_negative():
    yy, xx = np.mgrid[0:16, 0:16]
    board = ((yy + xx) % 2).astype(float)
    value = me.ssim(board, 1.0 - board)
    assert value < 0.0
    assert abs(value - naive_ssim_plane(board, 1.0 - board)) < 1e-10


def test_ssim_shift_invariance_unclamped(rng):
    # the luminance ratio is exactly 1 whenever the two images share their
    # Gaussian-window means, and contrast/structure ignore shifts; build a
    # perturbation whose filtered mean vanishes so the property holds exactly
    size = 16
    x = 0.4 * rng.random((size, size))
    half = (me.SSIM_WINDOW - 1) / 2.0
    g = np.exp(-((np.arange(me.SSIM_WINDOW) - half) ** 2) / (2 * me.SSIM_SIGMA ** 2))
    win = np.outer(g, g)
    win /= win.sum()
    valid = size - me.SSIM_WINDOW + 1
    rows = []
    for i in range(valid):
        for j in range(valid):
            buf = np.zeros((size, size))
            buf[i:i + me.SSIM_WINDOW, j:j + me.SSIM_WINDOW] = win
            rows.append(buf.ravel())
    a = np.stack(rows)
    v0 = rng.normal(size=size * size)
    v = v0 - a.T @ np.linalg.solve(a @ a.T, a @ v0)  # filtered mean exactly 0
    y = x + 0.05 * v.reshape(size, size)
    base = me.ssim(x, y)
    shifted = me.ssim(x + 0.1, y + 0.1)
    assert abs(base - shifted) < 1e-6


def one_plane_ssim(a, b):
    """SSIM with each statistic of each plane filtered on its own by two 1-D passes, a mean per plane, then per
    image."""
    g = me._gaussian_window(me.SSIM_WINDOW, me.SSIM_SIGMA)
    c1, c2 = me.SSIM_K1 ** 2, me.SSIM_K2 ** 2

    def filt(z):
        return sliding_window_view(sliding_window_view(z, me.SSIM_WINDOW, axis=1) @ g, me.SSIM_WINDOW, axis=0) @ g

    values = []
    for x, y in zip(a, b):
        mx, my = filt(x), filt(y)
        vx, vy, cov = filt(x * x) - mx * mx, filt(y * y) - my * my, filt(x * y) - mx * my
        values.append(float(np.mean((2 * mx * my + c1) * (2 * cov + c2)
                                    / ((mx * mx + my * my + c1) * (vx + vy + c2)))))
    return float(np.mean(values))


@pytest.mark.parametrize("size", [16, 32, 256])
def test_stacked_ssim_equals_single_calls_byte_for_byte(size, rng):
    a = rng.random((5, 3, size, size))
    b = np.clip(a + rng.normal(0.0, 0.2, a.shape), 0.0, 1.0)
    stacked = me.ssim(a, b)
    assert stacked.shape == (5,)
    singles = [me.ssim(x, y) for x, y in zip(a, b)]
    assert all(isinstance(v, float) for v in singles)
    assert stacked.tolist() == singles == [one_plane_ssim(x, y) for x, y in zip(a, b)]


def test_paper_size_ssim_copies_no_window_patches(rng):
    # the five filtered statistics of three 256x256 planes are ~22 MiB; an 11x11 patch matrix of one plane is 56 MiB
    a, b = rng.random((2, 3, 256, 256))
    assert peak_bytes(lambda: me.ssim(a, b)) <= 32 * 2 ** 20


def test_ssim_rejects_other_ranks():
    with pytest.raises(UsageError, match="expected"):
        me.ssim(np.zeros((1, 1, 3, 16, 16)), np.zeros((1, 1, 3, 16, 16)))
    with pytest.raises(UsageError, match="expected"):
        me.ssim(np.zeros(16), np.zeros(16))


def test_ssim_symmetric_and_window_guard(rng):
    x, y = rng.random((12, 12)), rng.random((12, 12))
    assert abs(me.ssim(x, y) - me.ssim(y, x)) < 1e-12
    with pytest.raises(UsageError):
        me.ssim(np.zeros((8, 8)), np.zeros((8, 8)))


def test_snr_examples(rng):
    w = rng.normal(size=1000)
    assert me.snr_db(w, w) == float("inf")
    # unit-power reference with 1e-3 noise power sits at the 30 dB threshold
    ref = np.ones(1000)
    noise = np.sqrt(0.001) * np.ones(1000)
    assert abs(me.snr_db(ref, ref + noise) - 30.0) < 1e-9


def test_snr_matches_formula_and_asymmetry(rng):
    w = rng.normal(size=500)
    v = w + 0.1 * rng.normal(size=500)
    direct = 10.0 * np.log10(np.sum(w ** 2) / np.sum((w - v) ** 2))
    assert abs(me.snr_db(w, v) - direct) < 1e-9
    assert me.snr_db(w, v) != me.snr_db(v, w)
    # a silent reference reads -inf against a sounding signal and +inf against a silent one
    assert me.snr_db(np.zeros(10), np.ones(10)) == -math.inf
    assert me.snr_db(np.zeros(10), np.zeros(10)) == math.inf


def test_rgb_histogram_density(rng):
    img = rng.random((3, 16, 16))
    h = me.rgb_histogram(img)
    assert h.shape == (3, 256)
    assert np.max(np.abs(h.sum(axis=1) - 1.0)) < 1e-12


def test_histogram_l1_examples(rng):
    img = rng.random((3, 8, 8))
    h = me.rgb_histogram(img)
    assert me.histogram_l1(h, h) == 0.0
    black = me.rgb_histogram(np.zeros((3, 8, 8)))
    white = me.rgb_histogram(np.ones((3, 8, 8)))
    assert abs(me.histogram_l1(black, white) - 2.0) < 1e-12  # disjoint support


def test_histogram_grayscale_vs_colorful(rng):
    colorful = rng.random((3, 16, 16))
    gray = np.tile(colorful.mean(axis=0), (3, 1, 1))
    d = me.histogram_l1(me.rgb_histogram(colorful), me.rgb_histogram(gray))
    assert d > 0.0


def test_metrics_row_csv():
    row = dict(zip(me.METRICS_CSV_HEADER.split(","), ("replicate", "magnitude", 0.75, 1.0, 0.9, 25.0,
                                                       float("inf"), 1e-4, 0.2)))
    text = me.csv_table(me.METRICS_CSV_HEADER, [row]).splitlines()[1]
    assert text.startswith("replicate,magnitude,0.75,1,")
    assert ",inf," in text
    assert len(text.split(",")) == len(me.METRICS_CSV_HEADER.split(","))


def test_csv_line_writes_floats_to_twelve_digits_and_the_rest_with_str():
    assert me.csv_line(["stft", 3, 1.0, np.float64(2 / 3), float("nan"), "+0%", True]) == (
        "stft,3,1,0.666666666667,nan,+0%,True")
