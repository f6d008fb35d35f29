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


def pack(replicas, grid):
    return iops.pack_grid_op([ad.Tensor(r) for r in replicas], grid).data


def unpack(container, grid):
    return [t.data for t in iops.unpack_grid_op(ad.Tensor(container), grid)]
