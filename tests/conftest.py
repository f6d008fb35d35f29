import numpy as np
import pytest

from stegowav import autodiff as ad
from stegowav import dsp
from stegowav import imageops as iops


def nyquist_free_signal(length, cfg, rng):
    """Random waveform whose every analysis frame has zero Nyquist content.

    Construction: an N-periodic trig polynomial on frame bins <= N/2-2 whose
    periodic extension also vanishes on the analysis pad positions, so edge
    frames see pure cyclic windows of the period.  `length` must be a
    multiple of the frame length.
    """
    n, r = cfg.frame_length, cfg.hop
    assert length % n == 0
    t = np.arange(n)
    cols = [np.ones(n)]
    for k in range(1, n // 2 - 1):
        cols.append(np.cos(2.0 * np.pi * k * t / n))
        cols.append(np.sin(2.0 * np.pi * k * t / n))
    basis = np.stack(cols, axis=1)
    residues = sorted({(n - r + i) % n for i in range(r)})
    constraint = basis[residues, :]
    _, s, vt = np.linalg.svd(constraint)
    rank = int((s > 1e-10 * s[0]).sum()) if s.size else 0
    null = vt[rank:].T
    if null.shape[1] == 0:
        raise ValueError("no Nyquist-free signals under these pad constraints")
    period = basis @ (null @ rng.normal(size=null.shape[1]))
    x = np.tile(period, length // n)
    return x / np.max(np.abs(x))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_waveform(samples, sr=8000):
    return dsp.Waveform(np.asarray(samples, dtype=float), sr)


# the image-side tape ops applied to plain arrays


def unshuffle(plane, use_luma=True):
    return iops.unshuffle_op(ad.Tensor(plane), use_luma=use_luma).data


def pack(stack, grid):
    return iops.pack_grid_op(ad.Tensor(stack), grid).data


def unpack(container, grid):
    return iops.unpack_grid_op(ad.Tensor(container), grid).data


# reference implementations the tests compare the package against

# Full-range JPEG YCbCr with the standard (rounded) forward coefficients; the
# inverse is the exact numerical inverse of this matrix.
_YCBCR = np.array([
    [0.299, 0.587, 0.114],
    [-0.168736, -0.331264, 0.5],
    [0.5, -0.418688, -0.081312],
])
_YCBCR_INV = np.linalg.inv(_YCBCR)


def rgb_to_ycbcr(rgb):
    """(3, ...) RGB in [0,1] -> (3, ...) YCbCr; chroma offset +0.5."""
    rgb = np.asarray(rgb, dtype=np.float64)
    out = np.tensordot(_YCBCR, rgb, axes=(1, 0))
    out[1] += 0.5
    out[2] += 0.5
    return out


def ycbcr_to_rgb(ycc, clamp=True):
    ycc = np.asarray(ycc, dtype=np.float64)
    shifted = np.stack([ycc[0], ycc[1] - 0.5, ycc[2] - 0.5])
    out = np.tensordot(_YCBCR_INV, shifted, axes=(1, 0))
    return np.clip(out, 0.0, 1.0) if clamp else out


def hard_dtw(x, y):
    """Classic min-rule DTW (oracle for the gamma -> 0 limit)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n, m = x.size, y.size
    d = (x[:, None] - y[None, :]) ** 2
    r = np.full((n + 1, m + 1), np.inf)
    r[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            r[i, j] = d[i - 1, j - 1] + min(r[i - 1, j], r[i, j - 1], r[i - 1, j - 1])
    return r[n, m]


def read_pgm(path):
    """Read a binary P5 pixmap back into a [0,1] float plane (top row first)."""
    return iops.read_pnm(path, b"P5")[:, :, 0].astype(np.float64) / 255.0
