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


def leaky_relu(a, slope=0.2):
    a = _as_tensor(a)
    slope = float(slope)

    def bwd(g, acc):
        acc(a, g * np.where(a.data > 0, 1.0, slope))

    return _node("leaky_relu", (a,), lambda: np.where(a.data > 0, a.data, slope * a.data), bwd)


def nearest_upsample2(a):
    """Duplicate every value of the trailing two axes into a 2x2 block."""
    a = _as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise ConfigError(f"nearest_upsample2: expected 2-D or 3-D input, got shape {a.data.shape}")

    def fwd():
        return np.repeat(np.repeat(a.data, 2, axis=-2), 2, axis=-1)

    def bwd(g, acc):
        s = g.shape
        blocks = g.reshape(s[:-2] + (s[-2] // 2, 2, s[-1] // 2, 2))
        acc(a, blocks.sum(axis=(-3, -1)))

    return _node("nearest_upsample2", (a,), fwd, bwd)


def avg_pool2(a):
    """Mean over non-overlapping 2x2 blocks of the trailing two axes."""
    a = _as_tensor(a)
    h, w = a.data.shape[-2:]
    if h % 2 or w % 2:
        raise ConfigError(f"avg_pool2: trailing extents must be even, got {a.data.shape}")

    def fwd():
        s = a.data.shape
        return a.data.reshape(s[:-2] + (h // 2, 2, w // 2, 2)).mean(axis=(-3, -1))

    def bwd(g, acc):
        acc(a, np.repeat(np.repeat(g, 2, axis=-2), 2, axis=-1) * 0.25)

    return _node("avg_pool2", (a,), fwd, bwd)


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


def conv2d(x, kernel, bias):
    """2-D convolution, stride 1, odd square kernel, zero 'same' padding.

    x: (C_in, H, W); kernel: (C_out, C_in, k, k); bias: (C_out,).

    No im2col buffer is built.  `x` is zero-padded by k//2 on each side plus
    one spare row at the bottom, and each channel's rows are flattened, so
    the window of tap (dy, dx) over every output position is the contiguous
    slice at offset dy*Wp + dx, n = H*Wp long (Wp = W + 2*(k//2)).  The
    forward pass sums one (C_out, C_in) @ (C_in, n) product per tap and crops
    the 2*(k//2) columns per row that wrapped into the next row; the backward
    pass runs over the same slices with the gradient zero-extended to Wp.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 3:
        raise ConfigError(f"conv2d: input must be (C,H,W), got {x.data.shape}")
    if kernel.data.ndim != 4:
        raise ConfigError(f"conv2d: kernel must be (Cout,Cin,k,k), got {kernel.data.shape}")
    cout, cin, kh, kw = kernel.data.shape
    if kh != kw or kh % 2 == 0:
        raise ConfigError(f"conv2d: kernel must be odd square, got {kh}x{kw}")
    if cin != x.data.shape[0]:
        raise ConfigError(f"conv2d: input depth {x.data.shape[0]} does not match kernel depth {cin}")
    if bias.data.shape != (cout,):
        raise ConfigError(f"conv2d: bias shape {bias.data.shape} does not match {cout} output channels")
    k = kh
    pad = k // 2
    _, h, w = x.data.shape
    hp, wp = h + 2 * pad + 1, w + 2 * pad
    n = h * wp
    taps = [(dy, dx, dy * wp + dx) for dy in range(k) for dx in range(k)]

    def padded_rows():
        xp = np.zeros((cin, hp, wp))
        xp[:, pad:pad + h, pad:pad + w] = x.data
        return xp.reshape(cin, -1)

    def fwd():
        xf = padded_rows()
        out = np.empty((cout, n))
        prod = np.empty((cout, n))
        out[:] = bias.data[:, None]
        for dy, dx, o in taps:
            np.add(out, np.matmul(kernel.data[:, :, dy, dx], xf[:, o:o + n], out=prod), out=out)
        return out.reshape(cout, h, wp)[:, :, :w].copy()

    def bwd(g, acc):
        acc(bias, g.sum(axis=(1, 2)))
        xf = padded_rows()
        gf = np.zeros((cout, h, wp))
        gf[:, :, :w] = g
        gf = gf.reshape(cout, n)
        dk = np.empty(kernel.data.shape)
        for dy, dx, o in taps:
            dk[:, :, dy, dx] = gf @ xf[:, o:o + n].T
        acc(kernel, dk)
        if not x.requires_grad:
            return
        dxf = np.zeros_like(xf)
        prod = np.empty_like(xf)[:, :n]  # same row stride as the dxf slices: a faster add
        for dy, dx, o in taps:
            view = dxf[:, o:o + n]
            np.add(view, np.matmul(kernel.data[:, :, dy, dx].T, gf, out=prod), out=view)
        acc(x, dxf.reshape(cin, hp, wp)[:, pad:pad + h, pad:pad + w])

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
