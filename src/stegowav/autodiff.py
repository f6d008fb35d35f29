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
participates in a graph; all ops allocate fresh output buffers.

:func:`conv2d` runs one correlate kernel over output row tiles (forward pass,
input gradient, optional leaky ReLU per tile); :func:`upsample_concat` fills one buffer.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ConfigError, UsageError

DEFAULT_DTYPE = np.float64


class Tensor:
    """Dense real tensor, optionally tracked by the tape."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_forward", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        if not np.all(np.isfinite(arr)):
            raise UsageError("leaf tensor rejected: contains NaN or Inf")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._forward = None
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def is_leaf(self):
        return not self._parents

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"


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


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape("mul", a, b)

    def bwd(g, acc):
        acc(a, g * b.data)
        acc(b, g * a.data)

    return _node("mul", (a, b), lambda: a.data * b.data, bwd)


def concat_depth(tensors):
    """Concatenate 3-D (C,H,W) tensors along the channel axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise UsageError("concat_depth: empty input list")
    hw = ts[0].data.shape[1:]
    for t in ts:
        if t.data.ndim != 3 or t.data.shape[1:] != hw:
            raise ConfigError(f"concat_depth: incompatible shape {t.data.shape}, expected (*, {hw[0]}, {hw[1]})")
    splits = np.cumsum([t.data.shape[0] for t in ts])[:-1]

    def bwd(g, acc):
        for t, piece in zip(ts, np.split(g, splits, axis=0)):
            acc(t, piece)

    return _node("concat_depth", ts, lambda: np.concatenate([t.data for t in ts], axis=0), bwd)


def slice_axis(a, start, stop, axis=0):
    a = _as_tensor(a)
    if not (0 <= axis < a.data.ndim):
        raise ConfigError(f"slice: axis {axis} out of range for shape {a.data.shape}")
    n = a.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise ConfigError(f"slice: range [{start},{stop}) invalid for extent {n}")
    sel = tuple(slice(None) if d != axis else slice(start, stop) for d in range(a.data.ndim))

    def bwd(g, acc):
        buf = np.zeros_like(a.data)
        buf[sel] = g
        acc(a, buf)

    return _node("slice", (a,), lambda: a.data[sel].copy(), bwd)


def reshape(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)

    def bwd(g, acc):
        acc(a, g.reshape(a.data.shape))

    return _node("reshape", (a,), lambda: a.data.reshape(shape).copy(), bwd)


def _leaky(a, slope, out):
    """max(a, slope * a) into out (not a): the bytes of np.where(a > 0, a, slope * a) for 0 <= slope <= 1."""
    return np.maximum(a, np.multiply(a, slope, out=out), out=out)


def leaky_relu(a, slope=0.2):
    a = _as_tensor(a)
    slope = float(slope)
    if not 0.0 <= slope <= 1.0:
        raise ConfigError(f"leaky_relu: slope must lie in [0, 1], got {slope}")

    def bwd(g, acc):
        acc(a, g * np.where(a.data > 0, 1.0, slope))

    return _node("leaky_relu", (a,), lambda: _leaky(a.data, slope, np.empty_like(a.data)), bwd)


def _block_sums(a):
    """Sums over 2x2 blocks of the trailing two axes, (a00 + a01) + (a10 + a11).

    That is numpy's pairwise order: the bytes equal a reshape-sum if the width is >= 4."""
    s = a[..., 0::2] + a[..., 1::2]
    return s[..., 0::2, :] + s[..., 1::2, :]


def _upsample_into(a, out):
    """Write each value of a's trailing two axes into a 2x2 block of out: a width repeat, a row-pair broadcast."""
    *lead, h, w = a.shape
    out.reshape(*lead, h, 2, 2 * w, copy=False)[:] = np.repeat(a, 2, axis=-1)[..., None, :]
    return out


def nearest_upsample2(a):
    """Duplicate every value of the trailing two axes into a 2x2 block."""
    a = _as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise ConfigError(f"nearest_upsample2: expected 2-D or 3-D input, got shape {a.data.shape}")
    *lead, h, w = a.data.shape

    def bwd(g, acc):
        acc(a, _block_sums(g))

    return _node("nearest_upsample2", (a,), lambda: _upsample_into(a.data, np.empty((*lead, 2 * h, 2 * w))), bwd)


def upsample_concat(a, skip):
    """concat_depth([nearest_upsample2(a), skip]) in one buffer; a (C, H, W), skip (C', 2H, 2W)."""
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
        acc(a, np.repeat(np.repeat(g, 2, axis=-2), 2, axis=-1) * 0.25)

    return _node("avg_pool2", (a,), lambda: _block_sums(a.data) * 0.25, bwd)


def mean(a):
    a = _as_tensor(a)
    n = a.data.size

    def bwd(g, acc):
        acc(a, np.full_like(a.data, float(g) / n))

    return _node("mean", (a,), lambda: np.asarray(a.data.mean()), bwd)


def abs_sum(a):
    a = _as_tensor(a)

    def bwd(g, acc):
        acc(a, float(g) * np.sign(a.data))

    return _node("abs_sum", (a,), lambda: np.asarray(np.abs(a.data).sum()), bwd)


def sq_sum(a):
    a = _as_tensor(a)

    def bwd(g, acc):
        acc(a, float(g) * 2.0 * a.data)

    return _node("sq_sum", (a,), lambda: np.asarray((a.data * a.data).sum()), bwd)


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


_TILE_POSITIONS = 8192  # output positions per conv row tile: a tile's buffers stay cache-sized


def _row_tiles(src, k):
    """Blocks of whole output rows of a 'same' k x k correlation over src (C, H, W).

    Yields (rows, n, flat) per block of about _TILE_POSITIONS output positions:
    the output row slice, n = len(rows)*Wp (Wp = W + k - 1), and the block's
    input rows zero-padded by k//2 on each side plus a spare bottom row, each
    channel flattened into one reused buffer.  Tap (dy, dx) then reads the
    contiguous window flat[:, o:o + n], o = dy*Wp + dx."""
    c, h, w = src.shape
    pad = k // 2
    wp = w + 2 * pad
    step = max(1, min(h, _TILE_POSITIONS // wp))
    buf = np.zeros((c, step + 2 * pad + 1, wp))
    for r0 in range(0, h, step):
        r1 = min(r0 + step, h)
        lo, hi = max(r0 - pad, 0), min(r1 + pad, h)
        buf[:, lo - r0 + pad:hi - r0 + pad, pad:pad + w] = src[:, lo:hi]
        buf[:, hi - r0 + pad:] = 0
        yield slice(r0, r1), (r1 - r0) * wp, buf.reshape(c, -1)


def _correlate(src, taps, k, bias, slope=None):
    """'Same' k x k correlation of src (C_in, H, W): bias + sum of m @ window(dy, dx).

    `taps` lists (m, dy, dx), m (C_out, C_in), added in list order in a tile-sized
    accumulator whose 2*(k//2) wrapped columns per row are cropped.  Over one
    input channel m @ window is an outer product: a broadcast multiply gives the
    same bytes, faster.  With a slope, each tile goes through a leaky ReLU before the crop."""
    cout, cin = taps[0][0].shape
    _, h, w = src.shape
    wp = w + k - 1
    product = np.multiply if cin == 1 else np.matmul
    out = np.empty((cout, h, w))
    for rows, n, flat in _row_tiles(src, k):
        acc, prod = np.empty((cout, n)), np.empty((cout, n))
        acc[:] = bias[:, None]
        for m, dy, dx in taps:
            o = dy * wp + dx
            np.add(acc, product(m, flat[:, o:o + n], out=prod), out=acc)
        acc = acc if slope is None else _leaky(acc, slope, prod)
        out[:, rows] = acc.reshape(cout, -1, wp)[:, :, :w]
    return out


def conv2d(x, kernel, bias, slope=None):
    """2-D convolution, stride 1, odd square kernel, zero 'same' padding.

    x: (C_in, H, W); kernel: (C_out, C_in, k, k); bias: (C_out,); a slope in
    [0, 1] gives leaky_relu(conv2d(x, kernel, bias), slope), bytes and gradients.

    No im2col buffer and no padded copy of the whole input are built: every
    pass runs over tiles of whole output rows (:func:`_row_tiles`).  The forward
    pass is :func:`_correlate`, and so is the input gradient: the correlation of
    the output gradient with the flipped, transposed kernel, its taps added in
    the forward's order.  The kernel gradient adds, per tile and tap, the output
    gradient (zero-extended to Wp columns) times the tap's input window.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if slope is not None and not 0.0 <= slope <= 1.0:
        raise ConfigError(f"conv2d: leaky slope must lie in [0, 1], got {slope}")
    if x.data.ndim != 3:
        raise ConfigError(f"conv2d: input must be (C,H,W), got {x.data.shape}")
    if kernel.data.ndim != 4:
        raise ConfigError(f"conv2d: kernel must be (Cout,Cin,k,k), got {kernel.data.shape}")
    cout, cin, k, kw = kernel.data.shape
    if k != kw or k % 2 == 0:
        raise ConfigError(f"conv2d: kernel must be odd square, got {k}x{kw}")
    if cin != x.data.shape[0]:
        raise ConfigError(f"conv2d: input depth {x.data.shape[0]} does not match kernel depth {cin}")
    if bias.data.shape != (cout,):
        raise ConfigError(f"conv2d: bias shape {bias.data.shape} does not match {cout} output channels")
    w = x.data.shape[2]
    wp = w + k - 1
    grid = [(dy, dx) for dy in range(k) for dx in range(k)]
    y = None  # the latest output, an array: a closure over the output Tensor would be a cycle

    def fwd():
        nonlocal y
        y = _correlate(x.data, [(kernel.data[:, :, dy, dx], dy, dx) for dy, dx in grid], k, bias.data, slope)
        return y

    def bwd(g, acc):
        g = g if slope is None else g * np.where(y > 0, 1.0, slope)
        acc(bias, g.sum(axis=(1, 2)))
        dk = np.zeros(kernel.data.shape)
        for rows, n, flat in _row_tiles(x.data, k):
            gf = np.zeros((cout, n))
            gf.reshape(cout, -1, wp)[:, :, :w] = g[:, rows]
            for dy, dx in grid:
                dk[:, :, dy, dx] += gf @ flat[:, dy * wp + dx:dy * wp + dx + n].T
        acc(kernel, dk)
        if x.requires_grad:
            taps = [(kernel.data[:, :, dy, dx].T, k - 1 - dy, k - 1 - dx) for dy, dx in grid]
            acc(x, _correlate(g, taps, k, np.zeros(cin)))

    return _node("conv2d", (x, kernel, bias), fwd, bwd)


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

    Accumulation is additive: leaf gradients are never reset here.
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
        if key in pending:
            pending[key] = pending[key] + g
        else:
            pending[key] = np.array(g, dtype=parent.data.dtype, copy=True)

    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node.is_leaf():
            node.grad = g if node.grad is None else node.grad + g
        elif node._backward is not None:
            node._backward(g, acc)


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
