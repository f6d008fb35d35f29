"""Color conversion, luma-buffered pixel shuffle, bilinear resize, replica grids.

Images are float64 arrays of shape (3, H, W) with values in [0, 1]; planes
are 2-D (H, W) arrays.  Unshuffle, resize and the replica-grid packing exist
only as tape ops (suffix ``_op``); to apply one to a plain array, wrap it in
a non-grad ``autodiff.Tensor`` and read ``.data``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, UsageError

# Full-range JPEG YCbCr with the standard (rounded) forward coefficients.
# The inverse uses the exact numerical inverse of this matrix; the familiar
# rounded inverse constants (1.402, 0.344136, ...) would cap round trips
# near 1e-7.
_KR, _KG, _KB = 0.299, 0.587, 0.114
_YCBCR = np.array([
    [_KR, _KG, _KB],
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


def luma(rgb):
    return _KR * rgb[0] + _KG * rgb[1] + _KB * rgb[2]


# ---------------------------------------------------------------------------
# pixel shuffle with luma buffer
#
# Cell layout per source pixel (fixed convention): [[R, G], [B, Y]].  The
# zero-pad variant stores 0 in the Y slot and ignores it when unshuffling.


def shuffle_with_luma(img, use_luma=True):
    """(3, H, W) -> (2H, 2W) plane of [R,G;B,Y] cells."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise UsageError(f"expected (3, H, W) image, got {img.shape}")
    _, h, w = img.shape
    plane = np.empty((2 * h, 2 * w))
    plane[0::2, 0::2] = img[0]
    plane[0::2, 1::2] = img[1]
    plane[1::2, 0::2] = img[2]
    plane[1::2, 1::2] = luma(img) if use_luma else 0.0
    return plane


# Unshuffle is an affine map per cell: out_rgb = A @ [R, G, B, Yr].  With the
# luma buffer, Y* = (Yr + luma(RGB))/2 replaces the luma while Cb/Cr come from
# the received RGB; without it, the RGB slots pass straight through.
def _unshuffle_matrix(use_luma):
    if not use_luma:
        return np.hstack([np.eye(3), np.zeros((3, 1))])
    ycc_of_rgb = np.vstack([0.5 * _YCBCR[0], _YCBCR[1], _YCBCR[2]])
    a = _YCBCR_INV @ ycc_of_rgb
    return np.hstack([a, _YCBCR_INV @ np.array([[0.5], [0.0], [0.0]])])


_UNSHUFFLE_LUMA = _unshuffle_matrix(True)
_UNSHUFFLE_ZERO = _unshuffle_matrix(False)


def _cells(plane):
    return plane[0::2, 0::2], plane[0::2, 1::2], plane[1::2, 0::2], plane[1::2, 1::2]


def unshuffle_op(t, use_luma=True):
    """Tape-registered unshuffle (linear, unclamped) for the training path."""
    a = _UNSHUFFLE_LUMA if use_luma else _UNSHUFFLE_ZERO

    def fwd():
        return np.tensordot(a, np.stack(_cells(t.data)), axes=(1, 0))

    def bwd(g, acc):
        dslots = np.tensordot(a.T, g, axes=(1, 0))
        buf = np.empty_like(t.data)
        buf[0::2, 0::2] = dslots[0]
        buf[0::2, 1::2] = dslots[1]
        buf[1::2, 0::2] = dslots[2]
        buf[1::2, 1::2] = dslots[3]
        acc(t, buf)

    return ad.register_op("luma_unshuffle", (t,), fwd, bwd)


# ---------------------------------------------------------------------------
# bilinear resize (corner-aligned, separable, exact identity at equal sizes)


@lru_cache(maxsize=None)
def _interp_matrix(src, dst):
    m = np.zeros((dst, src))
    if src == 1 or dst == 1:
        m[:, 0] = 1.0
        return m
    pos = np.arange(dst) * (src - 1) / (dst - 1)
    i0 = np.minimum(pos.astype(int), src - 2)
    frac = pos - i0
    m[np.arange(dst), i0] = 1.0 - frac
    m[np.arange(dst), i0 + 1] = frac
    return m


def bilinear_resize_op(t, out_h, out_w):
    if out_h < 1 or out_w < 1:
        raise UsageError(f"resize target must be positive, got {out_h}x{out_w}")
    mr = _interp_matrix(t.data.shape[0], out_h)
    mc = _interp_matrix(t.data.shape[1], out_w)

    def bwd(g, acc):
        acc(t, mr.T @ g @ mc)

    return ad.register_op("bilinear_resize", (t,), lambda: mr @ t.data @ mc.T, bwd)


# ---------------------------------------------------------------------------
# replica grids


@dataclass(frozen=True)
class ReplicaGrid:
    """rows x cols tiling of cell_h x cell_w replicas over a container.

    Replica index is row-major; replica 0 sits at the low-frequency edge
    (container row 0).
    """

    rows: int
    cols: int
    cell_h: int
    cell_w: int

    def __post_init__(self):
        if min(self.rows, self.cols, self.cell_h, self.cell_w) < 1:
            raise ConfigError(f"degenerate replica grid {self}")

    @property
    def count(self):
        return self.rows * self.cols

    @property
    def container_shape(self):
        return (self.rows * self.cell_h, self.cols * self.cell_w)

    def block(self, index):
        i, j = divmod(index, self.cols)
        return (slice(i * self.cell_h, (i + 1) * self.cell_h),
                slice(j * self.cell_w, (j + 1) * self.cell_w))


def plane_grid_shape(large):
    """Replica counts for pixel-shuffled plane methods: 2 small, 8 (4x2) large."""
    return (4, 2) if large else (2, 1)


def channel_grid_shape(large):
    """Replica counts for multichannel: 8 (4x2) small, 32 (8x4) large."""
    return (8, 4) if large else (4, 2)


def pack_grid_op(replicas, grid):
    if len(replicas) != grid.count:
        raise ConfigError(f"pack_grid: expected {grid.count} replicas, got {len(replicas)}")
    for idx, rep in enumerate(replicas):
        if rep.data.shape != (grid.cell_h, grid.cell_w):
            raise ConfigError(
                f"pack_grid: replica {idx} has shape {rep.data.shape}, expected {(grid.cell_h, grid.cell_w)}")

    def fwd():
        out = np.empty(grid.container_shape)
        for idx, rep in enumerate(replicas):
            out[grid.block(idx)] = rep.data
        return out

    def bwd(g, acc):
        for idx, rep in enumerate(replicas):
            acc(rep, g[grid.block(idx)])

    return ad.register_op("pack_grid", tuple(replicas), fwd, bwd)


def unpack_grid_op(container, grid):
    if container.data.shape != grid.container_shape:
        raise ConfigError(
            f"unpack_grid: container shape {container.data.shape} does not match grid {grid.container_shape}")

    def piece(idx):
        sel = grid.block(idx)

        def bwd(g, acc):
            buf = np.zeros_like(container.data)
            buf[sel] = g
            acc(container, buf)

        return ad.register_op("unpack_grid", (container,), lambda: container.data[sel].copy(), bwd)

    return [piece(i) for i in range(grid.count)]


# ---------------------------------------------------------------------------
# 8-bit binary pixmap (P6) ingest/emit — the bit-exact image interchange format


def write_ppm(img, path):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise UsageError(f"expected (3, H, W) image, got {img.shape}")
    raster = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = raster.shape[1:]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(raster.transpose(1, 2, 0).tobytes())


def read_ppm(path):
    from .dsp import _pnm_token

    with open(path, "rb") as f:
        data = f.read()
    magic, pos = _pnm_token(data, 0)
    if magic != b"P6":
        raise DataError(f"{path}: not a P6 pixmap (magic {magic!r})")
    w, pos = _pnm_token(data, pos)
    h, pos = _pnm_token(data, pos)
    maxval, pos = _pnm_token(data, pos)
    w, h, maxval = int(w), int(h), int(maxval)
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    raw = data[pos:pos + 3 * w * h]
    if len(raw) < 3 * w * h:
        raise DataError(f"{path}: truncated pixel data")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return np.clip(arr.transpose(2, 0, 1).astype(np.float64) / 255.0, 0.0, 1.0)
