import gc
import weakref

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


# The square-table soft-DTW DP that `losses` used before its diagonal-major
# kernel: the byte-for-byte oracle for that kernel's value and gradients.
def _softmin3(a, b, c, gamma):
    m = np.minimum(np.minimum(a, b), c)
    # inf cells stay inf; max-shift keeps exp arguments <= 0
    with np.errstate(invalid="ignore"):
        s = (np.exp(np.where(np.isinf(m), 0.0, (m - a) / gamma))
             + np.exp(np.where(np.isinf(m), 0.0, (m - b) / gamma))
             + np.exp(np.where(np.isinf(m), 0.0, (m - c) / gamma)))
    return np.where(np.isinf(m), m, m - gamma * np.log(s))


def _sdtw_forward(x, y, gamma):
    """DP table r[i,j] = d(i,j) + softmin(r[i-1,j], r[i,j-1], r[i-1,j-1])."""
    n, m = x.size, y.size
    d = (x[:, None] - y[None, :]) ** 2
    r = np.full((n + 1, m + 1), np.inf)
    r[0, 0] = 0.0
    # anti-diagonal sweep: cells (i, k-i) for the k-th diagonal
    for k in range(2, n + m + 1):
        i0, i1 = max(1, k - m), min(n, k - 1)
        i = np.arange(i0, i1 + 1)
        j = k - i
        r[i, j] = d[i - 1, j - 1] + _softmin3(r[i - 1, j], r[i, j - 1], r[i - 1, j - 1], gamma)
    return r


def _sdtw_backward(x, y, gamma, r):
    """Alignment-weight DP; returns E with dLoss/dD[i,j] = E[i,j]."""
    n, m = x.size, y.size
    d = np.zeros((n + 2, m + 2))
    d[1:n + 1, 1:m + 1] = (x[:, None] - y[None, :]) ** 2
    rr = np.full((n + 2, m + 2), -np.inf)
    rr[:n + 1, :m + 1] = r
    rr[n + 1, m + 1] = rr[n, m]
    e = np.zeros((n + 2, m + 2))
    e[n + 1, m + 1] = 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n + m, 1, -1):
            i0, i1 = max(1, k - m), min(n, k - 1)
            i = np.arange(i0, i1 + 1)
            j = k - i
            a = np.exp((rr[i + 1, j] - rr[i, j] - d[i + 1, j]) / gamma)
            b = np.exp((rr[i, j + 1] - rr[i, j] - d[i, j + 1]) / gamma)
            c = np.exp((rr[i + 1, j + 1] - rr[i, j] - d[i + 1, j + 1]) / gamma)
            e[i, j] = (np.nan_to_num(a, nan=0.0, posinf=0.0) * e[i + 1, j]
                       + np.nan_to_num(b, nan=0.0, posinf=0.0) * e[i, j + 1]
                       + np.nan_to_num(c, nan=0.0, posinf=0.0) * e[i + 1, j + 1])
    return e[1:n + 1, 1:m + 1]


def read_pgm(path):
    """Read a binary P5 pixmap back into a [0,1] float plane (top row first)."""
    return iops.read_pnm(path, b"P5")[:, :, 0].astype(np.float64) / 255.0


def conv2d_single_block(x, kernel, bias):
    """'Same' conv2d forward over the whole input as one block (one tap GEMM each).

    `x` is zero-padded by k//2 on each side plus one spare row at the bottom
    and each channel flattened, so tap (dy, dx) reads the contiguous slice at
    offset dy*Wp + dx, n = H*Wp long; the bias plus the tap products add up in
    tap order, and the wrapped 2*(k//2) columns per row are cropped.
    """
    cout, cin, k, _ = kernel.shape
    pad = k // 2
    _, h, w = x.shape
    hp, wp = h + 2 * pad + 1, w + 2 * pad
    n = h * wp
    xp = np.zeros((cin, hp, wp))
    xp[:, pad:pad + h, pad:pad + w] = x
    xf = xp.reshape(cin, -1)
    out = np.empty((cout, n))
    prod = np.empty((cout, n))
    out[:] = bias[:, None]
    for dy in range(k):
        for dx in range(k):
            o = dy * wp + dx
            np.add(out, np.matmul(kernel[:, :, dy, dx], xf[:, o:o + n], out=prod), out=out)
    return out.reshape(cout, h, wp)[:, :, :w].copy()


def block_sums_reshaped(a):
    """Sums over 2x2 blocks of the trailing two axes, as a reshape-sum."""
    s = a.shape
    return a.reshape(s[:-2] + (s[-2] // 2, 2, s[-1] // 2, 2)).sum(axis=(-3, -1))


def assert_freed_by_refcount(build):
    """Every value a taped graph computed dies with the graph, without the cycle collector.

    A closure that holds its own node's output Tensor makes a reference cycle,
    and the values of every node such a cycle reaches stay alive until a
    collection: a taped training step then keeps its whole graph for a while."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        root = build()
        ad.backward(root)
        refs = [weakref.ref(node.data) for node in ad._topo(root, grad_only=False) if not node.is_leaf()]
        del root
        assert len(refs) > 1 and all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()
