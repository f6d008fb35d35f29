"""Luma-buffered pixel shuffle, bilinear resize, replica grids, PPM I/O.

Images are float64 arrays of shape (3, H, W) with values in [0, 1]; planes
are 2-D (H, W) arrays.  Unshuffle, resize and the replica-grid packing exist
only as tape ops (suffix ``_op``); to apply one to a plain array, wrap it in
a non-grad ``autodiff.Tensor`` and read ``.data``.

Replicas travel as one stack: a (count, cell_h, cell_w) array whose leading
axis is the row-major replica index.  ``ReplicaGrid.pack`` tiles a stack over
the container and ``ReplicaGrid.unpack`` cuts it back out; the two are
reshape/transpose copies and each other's inverse.  Since the tiling is a
permutation, they are also each other's adjoint, so ``pack_grid_op`` and
``unpack_grid_op`` each record one node whose backward pass is the other.
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

    def _cells(self, container):
        """(rows, cols, cell_h, cell_w) view of a container array."""
        return container.reshape(self.rows, self.cell_h, self.cols, self.cell_w).swapaxes(1, 2)

    def pack(self, stack):
        """(count, cell_h, cell_w) stack -> new container array."""
        out = np.empty(self.container_shape)
        self._cells(out)[...] = stack.reshape(self.rows, self.cols, self.cell_h, self.cell_w)
        return out

    def unpack(self, container):
        """Container array -> new (count, cell_h, cell_w) stack."""
        out = np.empty((self.count, self.cell_h, self.cell_w))
        out.reshape(self.rows, self.cols, self.cell_h, self.cell_w)[...] = self._cells(container)
        return out


def plane_grid_shape(large):
    """Replica counts for pixel-shuffled plane methods: 2 small, 8 (4x2) large."""
    return (4, 2) if large else (2, 1)


def channel_grid_shape(large):
    """Replica counts for multichannel: 8 (4x2) small, 32 (8x4) large."""
    return (8, 4) if large else (4, 2)


def pack_grid_op(stack, grid):
    """Tape op: (count, cell_h, cell_w) replica stack -> container plane."""
    want = (grid.count, grid.cell_h, grid.cell_w)
    if stack.data.shape != want:
        raise ConfigError(f"pack_grid: expected a {want} replica stack, got {stack.data.shape}")
    return ad.register_op("pack_grid", (stack,), lambda: grid.pack(stack.data),
                          lambda g, acc: acc(stack, grid.unpack(g)))


def unpack_grid_op(container, grid):
    """Tape op: container plane -> (count, cell_h, cell_w) replica stack."""
    if container.data.shape != grid.container_shape:
        raise ConfigError(
            f"unpack_grid: container shape {container.data.shape} does not match grid {grid.container_shape}")
    return ad.register_op("unpack_grid", (container,), lambda: grid.unpack(container.data),
                          lambda g, acc: acc(container, grid.pack(g)))


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
    arr = read_pnm(path, b"P6")
    return np.clip(arr.transpose(2, 0, 1).astype(np.float64) / 255.0, 0.0, 1.0)


_PNM_DEPTH = {b"P5": 1, b"P6": 3}


def read_pnm(path, magic):
    """Binary 8-bit P5 (gray) or P6 (RGB) raster -> uint8 array (H, W, depth)."""
    with open(path, "rb") as f:
        data = f.read()
    found, pos = _pnm_token(data, 0, path, "magic")
    if found != magic:
        raise DataError(f"{path}: not a {magic.decode()} pixmap (magic {found!r})")
    fields = []
    for what in ("width", "height", "maxval"):
        token, pos = _pnm_token(data, pos, path, what)
        if not token.isdigit() or len(token) > 9 or int(token) == 0:
            raise DataError(f"{path}: pixmap {what} {token!r} is not a positive integer "
                            f"of at most 9 digits")
        fields.append(int(token))
    w, h, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    size = _PNM_DEPTH[magic] * w * h
    raw = data[pos:pos + size]
    if len(raw) < size:
        raise DataError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, _PNM_DEPTH[magic])


def _pnm_token(data, pos, path, what):
    """Next whitespace-delimited token, skipping '#' comments; returns (token, next_pos)."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DataError(f"{path}: pixmap header truncated before its {what}")
    return data[start:pos], pos + 1
