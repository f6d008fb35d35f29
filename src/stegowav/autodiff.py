"""Minimal reverse-mode automatic differentiation over dense numpy tensors.

Every non-leaf tensor records its parents plus two closures: ``_forward``
recomputes the value from the parents (used by the finite-difference replay
in :func:`grad_check`) and ``_backward`` scatters an incoming gradient to the
parents.  Graphs are built eagerly; :func:`backward` walks the tape in
reverse topological order and accumulates gradients on ``requires_grad``
leaves only (intermediate gradients are not retained, so calling
:func:`backward` twice doubles the leaf gradients exactly).

Inside ``with no_grad():`` ops still compute their values but record nothing:
the result does not require a gradient and holds no parents or closures, so
each intermediate is freed as soon as the next op stops referencing it.
Inference runs this way.  The flag is module-wide and restored when the block
exits, also on an exception.

Tapes are single-threaded.  Tensor data must not be mutated once the tensor
participates in a graph.  Ops allocate fresh output buffers, but :func:`reshape`
returns a view and :func:`conv2d` without a tape writes into an ``out=`` array.

Every op here is one the pipeline records.  :func:`conv2d` runs one correlate
kernel over output row tiles (forward, input gradient, np.where(z > 0, z, slope * z));
one 2x2 block-sum and one 2x2 block-fill kernel serve avg_pool2 and upsample_concat.
A U-Net decoder conv given its skip records upsample_concat as its input on a
tape; without one, its tiles are filled straight from the upsampled input and the
skip (which it may write over), and the concatenated input is never built.  Handed
the net's 1x1 head too, it records a second conv2d on a tape; without one its tiles go through the head.

A batch of B images travels as (C, B*H, W), the samples stacked along the
rows: the 2x2 ops never mix two samples (H is even), and :func:`conv2d` pads
each sample on its own.  abs_sum and sq_sum can sum each sample on its own.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ConfigError, UsageError

class Tensor:
    """Dense float64 tensor, optionally tracked by the tape."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_forward", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise UsageError("leaf tensor rejected: contains NaN or Inf")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._forward = None
        self._backward = None

    def is_leaf(self):
        return not self._parents

    def zero_grad(self):
        self.grad = None


_recording = True


@contextlib.contextmanager
def no_grad():
    """Compute ops without recording them on the tape (restored on exit)."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _node(op, parents, forward, backward):
    """Create a tracked tensor whose value is ``forward()``.

    Under :func:`no_grad` the value is still computed, but the tensor keeps
    no parents or closures and does not require a gradient.
    """
    t = Tensor.__new__(Tensor)
    t.data = forward()
    if not _recording:
        parents, forward, backward = (), None, None
    t.grad = None
    t.requires_grad = any(p.requires_grad for p in parents)
    t.op = op
    t._parents = tuple(parents)
    t._forward = forward
    t._backward = backward
    return t


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _same_shape(kind, a, b):
    if a.data.shape != b.data.shape:
        raise ConfigError(f"{kind}: operand shapes differ: {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# core op set


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape("add", a, b)

    def bwd(g, acc):
        acc(a, g)
        acc(b, g)

    return _node("add", (a, b), lambda: a.data + b.data, bwd)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape("sub", a, b)

    def bwd(g, acc):
        acc(a, g)
        acc(b, -g)

    return _node("sub", (a, b), lambda: a.data - b.data, bwd)


def scale(a, s):
    """Multiply by a python constant (not a tracked weight)."""
    a = _as_tensor(a)
    s = float(s)

    def bwd(g, acc):
        acc(a, g * s)

    return _node("scale", (a,), lambda: a.data * s, bwd)


def reshape(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)

    def bwd(g, acc):
        acc(a, g.reshape(a.data.shape))

    return _node("reshape", (a,), lambda: a.data.reshape(shape), bwd)


def _block_sums(a):
    """Sums over 2x2 blocks of the trailing two axes, (a00 + a01) + (a10 + a11), added from quarter-size views.

    That is numpy's pairwise order: the bytes equal a reshape-sum if the width is >= 4."""
    s = a[..., 0::2, 0::2] + a[..., 0::2, 1::2]
    s += a[..., 1::2, 0::2] + a[..., 1::2, 1::2]
    return s


def _upsample_into(a, out, odd=0):
    """Fill out (..., n, 2W) with rows odd, odd + 1, ... of a (..., m, W) upsampled 2x (nearest), `odd` 0 or 1:
    four strided copies, no temporary (one broadcast write into an (h, 2, w, 2) view ran twice as slow at desk)."""
    for j in (0, 1):
        rows = out[..., j::2, :]
        first = (j + odd) // 2  # out row j is upsampled row j + odd, a's row (j + odd) // 2
        src = a[..., first:first + rows.shape[-2], :]
        rows[..., 0::2] = src
        rows[..., 1::2] = src
    return out


def upsample_concat(a, skip):
    """np.concatenate([np.repeat(np.repeat(a, 2, 1), 2, 2), skip]) in one buffer; a (C, H, W), skip (C', 2H, 2W).

    The gradient of a is the 2x2 block sums of g's first C channels."""
    a, skip = _as_tensor(a), _as_tensor(skip)
    if a.data.ndim != 3 or skip.data.ndim != 3 or skip.data.shape[1:] != tuple(2 * n for n in a.data.shape[1:]):
        raise ConfigError(f"upsample_concat: want (C, H, W) and (C', 2H, 2W), got {a.data.shape}, {skip.data.shape}")
    c, h, w = a.data.shape

    def fwd():
        out = np.empty((c + skip.data.shape[0], 2 * h, 2 * w))
        _upsample_into(a.data, out[:c])
        out[c:] = skip.data
        return out

    def bwd(g, acc):
        acc(a, _block_sums(g[:c]))
        acc(skip, g[c:])

    return _node("upsample_concat", (a, skip), fwd, bwd)


def avg_pool2(a):
    """Mean over non-overlapping 2x2 blocks of the trailing two axes."""
    a = _as_tensor(a)
    h, w = a.data.shape[-2:]
    if h % 2 or w % 2:
        raise ConfigError(f"avg_pool2: trailing extents must be even, got {a.data.shape}")

    def bwd(g, acc):
        acc(a, _upsample_into(g * 0.25, np.empty(a.data.shape)))

    def fwd():
        s = _block_sums(a.data)
        return np.multiply(s, 0.25, out=s)

    return _node("avg_pool2", (a,), fwd, bwd)


def mean(a):
    a = _as_tensor(a)
    n = a.data.size

    def bwd(g, acc):
        acc(a, np.full_like(a.data, float(g) / n))

    return _node("mean", (a,), lambda: np.asarray(a.data.mean()), bwd)


def abs_sum(a, axis=None):
    """Sum of |a| over `axis` (numpy's meaning; all axes by default)."""
    a = _as_tensor(a)

    def bwd(g, acc):
        acc(a, (g if axis is None else np.expand_dims(g, axis)) * np.sign(a.data))

    return _node("abs_sum", (a,), lambda: np.asarray(np.abs(a.data).sum(axis=axis)), bwd)


def sq_sum(a, axis=None):
    """Sum of a*a over `axis` (numpy's meaning; all axes by default)."""
    a = _as_tensor(a)

    def bwd(g, acc):
        acc(a, (g if axis is None else np.expand_dims(g, axis)) * 2.0 * a.data)

    return _node("sq_sum", (a,), lambda: np.asarray((a.data * a.data).sum(axis=axis)), bwd)


def sqrt(a):
    """Elementwise square root; subgradient 0 at exactly 0."""
    a = _as_tensor(a)

    def bwd(g, acc):
        root = np.sqrt(a.data)
        acc(a, np.where(a.data > 0, g * 0.5 / np.where(root > 0, root, 1.0), 0.0))

    return _node("sqrt", (a,), lambda: np.sqrt(a.data), bwd)


def recip(a):
    a = _as_tensor(a)

    def bwd(g, acc):
        acc(a, -g / (a.data * a.data))

    return _node("recip", (a,), lambda: 1.0 / a.data, bwd)


def weighted_sum(tensors, weights):
    """sum_i w_i * x_i with scalar weight tensors (both sides get gradients)."""
    ts = [_as_tensor(t) for t in tensors]
    ws = [_as_tensor(w) for w in weights]
    if len(ts) != len(ws) or not ts:
        raise ConfigError(f"weighted_sum: {len(ts)} tensors vs {len(ws)} weights")
    for w in ws:
        if w.data.size != 1:
            raise ConfigError(f"weighted_sum: weight must be scalar, got shape {w.data.shape}")
    for t in ts[1:]:
        _same_shape("weighted_sum", ts[0], t)

    def fwd():
        out = np.zeros_like(ts[0].data)
        for t, w in zip(ts, ws):
            out += w.data.item() * t.data
        return out

    def bwd(g, acc):
        for t, w in zip(ts, ws):
            acc(t, g * w.data.item())
            acc(w, np.asarray((g * t.data).sum()).reshape(w.data.shape))

    return _node("weighted_sum", tuple(ts) + tuple(ws), fwd, bwd)


def _weighted_rows(stack, w):
    """sum_i w[i] * stack[i], accumulated in index order."""
    out = np.zeros(stack.shape[1:])
    for row, wi in zip(stack, w):
        out += wi * row
    return out


def _row_dots(stack, a):
    """<stack[i], a> for every i (a broadcasts over the leading axis)."""
    return (stack * a).reshape(len(stack), -1).sum(axis=1)


def replicas(a, w):
    """Stack of scaled copies, out[i] = w[i] * a, with a leading axis of len(w).

    Bilinear, and the adjoint of :func:`merge` in `a`; both sides get
    gradients.
    """
    a, w = _as_tensor(a), _as_tensor(w)
    if w.data.ndim != 1:
        raise ConfigError(f"replicas: weights must be 1-D, got shape {w.data.shape}")

    def bwd(g, acc):
        acc(a, _weighted_rows(g, w.data))
        acc(w, _row_dots(g, a.data))

    return _node("replicas", (a, w), lambda: np.multiply.outer(w.data, a.data), bwd)


def merge(stack, w):
    """Weighted sum over the leading axis, sum_i w[i] * stack[i], in index order.

    Bilinear, and the adjoint of :func:`replicas` in `stack`.
    """
    stack, w = _as_tensor(stack), _as_tensor(w)
    if w.data.ndim != 1 or stack.data.shape[:1] != w.data.shape:
        raise ConfigError(f"merge: weights of shape {w.data.shape} for a stack of shape {stack.data.shape}")

    def bwd(g, acc):
        acc(stack, np.multiply.outer(w.data, g))
        acc(w, _row_dots(stack.data, g))

    return _node("merge", (stack, w), lambda: _weighted_rows(stack.data, w.data), bwd)


_TILE_POSITIONS = 4096  # output positions per correlation row tile: a tile's buffers stay cache-sized
_GRAD_TILE_POSITIONS = 8192  # ... per kernel-gradient row tile: its sums over a tile's columns fix the trained bytes
_TILE_FLOATS = 60_000  # floats of padded input and output up to which one tile holds several whole samples
_PRODUCT_COLUMNS = 8  # tile products widen to a multiple: BLAS rounds the last n % 8 columns in another order


def _row_tiles(src, k, samples=1, out_channels=0, skip=None, positions=None):
    """Tiles of a 'same' k x k correlation over src (C, B*H, W), B = `samples` stacked along rows.

    With a skip (C', B*H, W), src is (C, B*H/2, W/2) and the input is src
    upsampled 2x (nearest) stacked over the skip by channel: the tiles read
    both straight, and that (C + C', B*H, W) input is never built.

    Yields (rows, n, flat, cells) per tile: the output row slice, the tile's n
    output positions, its input zero-padded by k//2 on each side (each sample
    on its own) plus spare bottom rows and _PRODUCT_COLUMNS spare floats, every channel flattened
    into one reused buffer, and `cells`, which views a (C', n) tile array as the (C', S, rows, W)
    outputs of its S samples.  Tap (dy, dx) reads the contiguous window
    flat[:, o:o + n], o = dy*Wp + dx (Wp = W + k - 1).

    While the tile's input and output floats, (C + out_channels) times the
    padded positions, stay within _TILE_FLOATS for several samples, a tile
    holds whole samples, their padded blocks one after another, and the output
    rows facing the 2*(k//2) halo rows of each block are cropped.  Otherwise a
    tile holds about `positions` (default _TILE_POSITIONS) output positions of one sample's rows, so
    with one sample every tile is the same; a later one moves the last one's bottom 2*(k//2) rows
    to its top, so no input row is read after the tile that outputs it: the output may overwrite the skip."""
    if skip is None:
        c, total, w = src.shape

        def fill(dst, lo, hi):  # rows lo:hi of the input into dst (C, ..., W)
            dst[...] = src[:, lo:hi].reshape(dst.shape)
    else:
        up = len(src)
        c, total, w = up + len(skip), *skip.shape[1:]

        def fill(dst, lo, hi):  # a tile's halo may start on an odd upsampled row
            low = src[:, lo // 2:(hi + 1) // 2]
            _upsample_into(low.reshape((up,) + dst.shape[1:-2] + (-1, low.shape[-1])), dst[:up], lo % 2)
            dst[up:] = skip[:, lo:hi].reshape(dst[up:].shape)
    h, pad = total // samples, k // 2
    wp = w + 2 * pad
    per = max(1, min(samples, _TILE_FLOATS // ((c + out_channels) * (h + 2 * pad) * wp)))
    step = h if per > 1 else max(1, min(h, (positions or _TILE_POSITIONS) // wp))
    block = step + 2 * pad
    height = per * block + 1 + (2 * pad if per > 1 else 0)
    flat = np.zeros((c, height * wp + _PRODUCT_COLUMNS))
    buf = flat[:, :height * wp].reshape(c, height, wp, copy=False)
    for s0 in range(0, samples, per):
        s = min(per, samples - s0)
        for r0 in range(0, h, step):
            r1 = min(r0 + step, h)
            if per > 1:  # whole samples: the halo rows are never written, so they stay zero
                blocks = buf[:, :s * block].reshape(c, s, block, wp)
                fill(blocks[:, :, pad:pad + h, pad:pad + w], s0 * h, (s0 + s) * h)
            else:
                lo, hi = min(r0 + pad, h) if r0 else 0, min(r1 + pad, h)
                if r0:  # input rows r0 - pad:r0 + pad, the last tile's bottom rows, move to the top
                    buf[:, :2 * pad] = buf[:, step:step + 2 * pad]
                elif s0:  # the last tiles of the sample before wrote the top rows
                    buf[:, :pad] = 0
                fill(buf[:, lo - r0 + pad:hi - r0 + pad, pad:pad + w], s0 * h + lo, s0 * h + hi)
                buf[:, hi - r0 + pad:] = 0
            n = (s * block if per > 1 else r1 - r0) * wp  # whole blocks reshape to (C', s, block, Wp)
            yield (slice(s0 * h + r0, (s0 + s - 1) * h + r1), n, flat,
                   lambda a, s=s, rows=r1 - r0: a.reshape(len(a), s, -1, wp, copy=False)[:, :, :rows, :w])


def _correlate(src, taps, k, bias, slope=None, samples=1, skip=None, head=None, out=None):
    """'Same' k x k correlation of src (C_in, B*H, W), or of src and a skip read as :func:`_row_tiles` says:
    bias + sum of m @ window(dy, dx).

    `taps` lists (m, dy, dx), m (C_out, C_in), added in list order in a tile-sized
    accumulator whose wrapped columns and rows between samples are cropped.  BLAS
    rounds a product's last n % 8 columns in another order than the rest, so every
    product is rounded up to a multiple of _PRODUCT_COLUMNS and the extra columns dropped:
    an output's bits do not depend on the tiling.  Over one input channel m @ window
    is an outer product: a broadcast multiply gives the same bytes, faster.  With a
    slope, each tile becomes max(acc, slope * acc) before the crop: the bytes of
    np.where(acc > 0, acc, slope * acc) for 0 <= slope <= 1.  A head (w (C_h, C_out), b (C_h,)) then maps
    each tile to b + w @ tile by the same rule; only that is written, into `out` if given."""
    cout, cin = taps[0][0].shape
    extents = (src if skip is None else skip).shape[1:]
    wp = extents[1] + k - 1
    product = np.multiply if cin == 1 else np.matmul
    heads = 0 if head is None else len(head[1])
    out, buffers = np.empty((heads or cout,) + extents) if out is None else out, None
    for rows, n, flat, cells in _row_tiles(src, k, samples, cout, skip):
        wide = -(-n // _PRODUCT_COLUMNS) * _PRODUCT_COLUMNS
        buffers = buffers or tuple(np.empty((c, wide)) for c in (cout, cout, heads))  # the first tile is the largest
        acc, prod, top = (buffer[:, :wide] for buffer in buffers)
        acc[:] = bias[:, None]
        for m, dy, dx in taps:
            o = dy * wp + dx
            np.add(acc, product(m, flat[:, o:o + wide], out=prod), out=acc)
        acc = acc if slope is None else np.maximum(acc, np.multiply(acc, slope, out=prod), out=prod)
        if head is not None:
            acc = np.add(head[1][:, None], (np.multiply if cout == 1 else np.matmul)(head[0], acc, out=top), out=top)
        tile = cells(acc[:, :n])
        out[:, rows].reshape(tile.shape, copy=False)[...] = tile
    return out


def conv2d(x, kernel, bias, slope=None, samples=1, skip=None, head=None, out=None):
    """2-D convolution, stride 1, odd square kernel, zero 'same' padding.

    x: (C_in, B*H, W), B = `samples` images stacked along the rows, each padded
    on its own; kernel: (C_out, C_in, k, k); bias: (C_out,).  A slope in [0, 1]
    applies the leaky ReLU y = np.where(z > 0, z, slope * z) to the
    convolution z; the backward pass scales g by np.where(y > 0, 1.0, slope).
    With a skip (C', B*2H, 2W), the input is upsample_concat(x, skip), the
    bytes of a U-Net decoder level: on a tape that op is recorded as the
    input; without one the row tiles read x and the skip straight, and the
    (C + C', B*2H, 2W) input is never built.  A head (kernel (C_h, C_out, 1, 1),
    bias (C_h,)) returns conv2d(y, *head, samples=samples), a U-Net's linear output:
    two conv2d nodes on a tape; without one each row tile of y goes through the head
    in cache, and y is never built; the two agree in every bit, as any two tilings do (see :func:`_correlate`).
    Without a tape, `out` (numpy's meaning; a ConfigError on a tape) receives the output and may be the skip's data.

    No im2col buffer and no padded copy of the whole input are built: every
    pass runs over tiles (:func:`_row_tiles`), of whole samples where they are
    small and of one sample's rows otherwise.  The forward pass is
    :func:`_correlate`, and so is the input gradient: the correlation of the
    output gradient with the flipped, transposed kernel, its taps added in the
    forward's order.  The kernel gradient adds, per tile and tap, the output
    gradient (zero at the cropped positions) times the tap's input window: a sum
    over the tile's columns, whose bits depend on the tile, so its tiles keep
    _GRAD_TILE_POSITIONS positions.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if slope is not None and not 0.0 <= slope <= 1.0:
        raise ConfigError(f"conv2d: leaky slope must lie in [0, 1], got {slope}")
    if x.data.ndim != 3 or samples < 1 or x.data.shape[1] % samples:
        raise ConfigError(f"conv2d: input must be (C, B*H, W) with B = {samples}, got {x.data.shape}")
    if kernel.data.ndim != 4:
        raise ConfigError(f"conv2d: kernel must be (Cout,Cin,k,k), got {kernel.data.shape}")
    cout, cin, k, kw = kernel.data.shape
    if k != kw or k % 2 == 0:
        raise ConfigError(f"conv2d: kernel must be odd square, got {k}x{kw}")
    if head is not None:
        head = tuple(_as_tensor(t) for t in head)
        if len(head) != 2 or head[0].data.shape != head[1].data.shape[:1] + (cout, 1, 1) or head[1].data.ndim != 1:
            raise ConfigError(f"conv2d: head wants (C_h, {cout}, 1, 1) and (C_h,), got {[t.data.shape for t in head]}")
        if _recording:
            return conv2d(conv2d(x, kernel, bias, slope, samples, skip), *head, samples=samples, out=out)
    if skip is not None:
        skip = _as_tensor(skip)
        if skip.data.ndim != 3 or skip.data.shape[1:] != tuple(2 * n for n in x.data.shape[1:]) \
                or x.data.shape[0] + skip.data.shape[0] != cin:
            raise ConfigError(f"conv2d: want x (C, B*H, W) and skip (C', B*2H, 2W) with C + C' = kernel depth "
                              f"{cin}, got {x.data.shape}, {skip.data.shape}")
        if _recording:  # a tape records the concat as the input: traced training reports its shape
            x, skip = upsample_concat(x, skip), None
    elif cin != x.data.shape[0]:
        raise ConfigError(f"conv2d: input depth {x.data.shape[0]} does not match kernel depth {cin}")
    if bias.data.shape != (cout,):
        raise ConfigError(f"conv2d: bias shape {bias.data.shape} does not match {cout} output channels")
    want = (len(head[1].data) if head else cout,) + (x.data if skip is None else skip.data).shape[1:]
    if out is not None and (_recording or getattr(out, "shape", None) != want
                            or out.dtype != np.float64 or not out.flags.c_contiguous):
        raise ConfigError(f"conv2d: out= takes a C-contiguous float64 array of shape {want}, and no tape")
    grid = [(dy, dx) for dy in range(k) for dx in range(k)]
    y = None  # the latest output, an array: a closure over the output Tensor would be a cycle

    def fwd():
        nonlocal y
        y = _correlate(x.data, [(kernel.data[:, :, dy, dx], dy, dx) for dy, dx in grid], k, bias.data, slope,
                       samples, None if skip is None else skip.data,
                       None if head is None else (head[0].data[:, :, 0, 0], head[1].data), out)
        return y

    def bwd(g, acc):
        if slope is not None:  # g * np.where(y > 0, 1.0, slope): max(True, slope) is 1.0, and g * 1.0 is g
            scaled = np.maximum(y > 0, slope)
            g = np.multiply(g, scaled, out=scaled)
        acc(bias, g.sum(axis=(1, 2)))
        dk, buffer, wp = np.zeros(kernel.data.shape), None, x.data.shape[2] + k - 1
        for rows, n, flat, cells in _row_tiles(x.data, k, samples, cout, positions=_GRAD_TILE_POSITIONS):
            buffer = np.empty((cout, n)) if buffer is None else buffer
            gf = buffer[:, :n]
            gf[:] = 0
            tile = cells(gf)
            tile[...] = g[:, rows].reshape(tile.shape)
            for dy, dx in grid:
                dk[:, :, dy, dx] += gf @ flat[:, dy * wp + dx:dy * wp + dx + n].T
        acc(kernel, dk)
        if x.requires_grad:
            taps = [(kernel.data[:, :, dy, dx].T, k - 1 - dy, k - 1 - dx) for dy, dx in grid]
            acc(x, _correlate(g, taps, k, np.zeros(cin), samples=samples))

    # parents[1] stays the kernel, which names the layer; a head is only ever run without a tape, so bwd omits it
    return _node("conv2d", ((x, kernel, bias) if skip is None else (x, kernel, bias, skip)) + (head or ()), fwd, bwd)


def register_op(op, parents, forward, backward):
    """Record a custom differentiable op (used by dsp/imageops/losses)."""
    return _node(op, tuple(_as_tensor(p) for p in parents), forward, backward)


# ---------------------------------------------------------------------------
# tape traversal


def _topo(root, grad_only):
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and (not grad_only or p.requires_grad):
                stack.append((p, False))
    return order  # parents precede children


def backward(root):
    """Populate .grad on every requires_grad leaf reachable from a scalar root.

    Accumulation is additive: leaf gradients are never reset here.  A node's
    first gradient is kept as handed over, not copied, so every backward
    closure must treat its `g` as read-only: no op writes into `g` in place.
    The closure holds the only reference to its `g`, so it can drop it early.
    A leaf copies its gradient once, so no two `.grad` arrays share memory.
    """
    if root.data.size != 1:
        raise UsageError(f"backward: root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        return
    order = _topo(root, grad_only=True)
    pending = {id(root): np.ones_like(root.data)}

    def acc(parent, g):
        if not parent.requires_grad:
            return
        key = id(parent)
        pending[key] = pending[key] + g if key in pending else g

    for node in reversed(order):
        key = id(node)
        if key not in pending:
            continue
        if node.is_leaf():
            g = pending.pop(key)
            node.grad = g.copy() if node.grad is None else node.grad + g
        elif node._backward is not None:
            node._backward(pending.pop(key), acc)


def replay_forward(root):
    """Recompute every tracked value under the root from current leaf data."""
    for node in _topo(root, grad_only=False):
        if node._forward is not None:
            node.data = node._forward()


def grad_check(builder, seed, step=1e-5):
    """Max relative error between tape gradients and central differences.

    ``builder(rng)`` must construct a graph from seeded random leaves and
    return ``(root, leaves)`` with a scalar root.  Error per element is
    |analytic - numeric| / max(1e-8, |numeric|).
    """
    rng = np.random.default_rng(seed)
    root, leaves = builder(rng)
    if root.data.size != 1:
        raise UsageError("grad_check: builder must return a scalar root")
    for leaf in leaves:
        leaf.grad = None
    backward(root)
    worst = 0.0
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        gflat = (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)).reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            replay_forward(root)
            fp = float(root.data)
            flat[i] = keep - step
            replay_forward(root)
            fm = float(root.data)
            flat[i] = keep
            numeric = (fp - fm) / (2.0 * step)
            err = abs(float(gflat[i]) - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, err)
    replay_forward(root)
    return worst
