"""Container arrangement strategies around the hiding/revealing networks.

Five methods share three hooks:

* ``encode_arrange``: watermark (plane or channel stack) -> container shape
* ``decode_prepare``: container plane -> revealing-network input
* ``decode_finalize``: revealing-network output -> plane or RGB image

Replicas form one (count, cell_h, cell_w) stack, replica index first, that
the ``imageops`` pack/unpack adjoint pair moves in and out of the container,
so each hook records the same number of tape nodes at any replica count.
The ``multichannel`` watermark is the stack; the plane methods build it with
``autodiff.replicas``, scaling the plane by ones (``replicate``) or by the
trainable ``embed.enc_weights`` (``w_replicate``, ``ws_replicate``).
``ws_replicate`` and ``multichannel`` reveal from the unpacked stack.  The
``CONTAINER_REVEAL`` methods reveal from the whole container: ``stretch``
resizes the output down, which keeps its MAC count equal to ``replicate``'s,
and ``replicate``/``w_replicate`` merge the unpacked stack in one weighted sum
over the replica axis, by 1/count or by the trained ``embed.dec_weights``
normalised by their sum.
The replica weights live in the model's ``params``, made by ``init_weights``;
the hooks read them from there, and an ``EmbeddingContext`` holds geometry only.
A batch of B samples enters ``encode_arrange`` with a batch axis and leaves
as (B, *container_shape); the reveal hooks keep the U-Net's (C, B*H, W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import imageops as iops
from . import networks as nets
from .errors import ConfigError

METHODS = ("stretch", "replicate", "w_replicate", "ws_replicate", "multichannel")
# methods whose revealing network runs at container size
CONTAINER_REVEAL = ("stretch", "replicate", "w_replicate")


@dataclass(frozen=True)
class EmbeddingContext:
    method: str
    image_hw: tuple
    grid: iops.ReplicaGrid

    @property
    def plane_hw(self):
        return (2 * self.image_hw[0], 2 * self.image_hw[1])

    @property
    def container_shape(self):
        return self.grid.container_shape


def make_context(method, image_hw, large):
    """The geometry of one method/size: its replica grid, and so its container shape."""
    if method not in METHODS:
        raise ConfigError(f"unknown embedding method {method!r}")
    h, w = image_hw
    # stretch shares the replicate container so sizes stay comparable
    grid = (iops.ReplicaGrid(*iops.channel_grid_shape(large), h, w) if method == "multichannel"
            else iops.ReplicaGrid(*iops.plane_grid_shape(large), 2 * h, 2 * w))
    return EmbeddingContext(method, (h, w), grid)


def init_weights(ctx):
    """{name: tensor} of the method's trainable replica weights, all ones: embed.enc_weights
    (w_replicate, ws_replicate), then embed.dec_weights (w_replicate)."""
    names = {"w_replicate": ("enc", "dec"), "ws_replicate": ("enc",)}.get(ctx.method, ())
    return {f"embed.{name}_weights": ad.Tensor(np.ones(ctx.grid.count), requires_grad=True) for name in names}


def net_depths(cfg, n):
    """(hiding, revealing) U-Net configs with each method's channel depths; n replicas."""
    hide_in, hide_out, reveal_in, reveal_out = {
        "multichannel": (3, n, n, 3), "ws_replicate": (1, 1, n, 1)}.get(cfg.method, (1, 1, 1, 1))
    return (nets.UNetConfig(hide_in, hide_out, cfg.depth, cfg.channels, cfg.kernel),
            nets.UNetConfig(reveal_in, reveal_out, cfg.depth, cfg.channels, cfg.kernel))


def _check_shape(t, want, what):
    """t's shape is `want` after any leading axes, or (C, B*H, W) for want = (C, H, W)."""
    shape = t.data.shape
    stacked = len(shape) == len(want) == 3 and shape[::2] == want[::2] and shape[1] % want[1] == 0
    if shape[-len(want):] != want and not stacked:
        raise ConfigError(f"{what}: expected shape {want}, with samples stacked, got {shape}")


def encode_arrange(wmark, ctx, params):
    """Watermark (..., 2h, 2w), or multichannel (count, ..., h, w) -> (..., *container_shape), differentiable."""
    if ctx.method == "multichannel":
        return iops.pack_grid_op(wmark, ctx.grid)
    _check_shape(wmark, ctx.plane_hw, "encode_arrange")
    if ctx.method == "stretch":
        return iops.bilinear_resize_op(wmark, *ctx.container_shape)
    weights = np.ones(ctx.grid.count) if ctx.method == "replicate" else params["embed.enc_weights"]
    return iops.pack_grid_op(ad.replicas(wmark, weights), ctx.grid)


def decode_prepare(container, ctx):
    """Containers (..., *container_shape) -> (C, B*H, W) revealing-network input, differentiable."""
    _check_shape(container, ctx.container_shape, "decode_prepare")
    if ctx.method in CONTAINER_REVEAL:
        return ad.reshape(container, (1, -1, ctx.container_shape[1]))
    return iops.unpack_grid_op(container, ctx.grid)


def decode_finalize(net_out, ctx, params):
    """Revealing-network output (C, B*H, W) -> planes (B*2h, 2w) or RGB images (3, B*h, w)."""
    method = ctx.method
    if method == "multichannel":
        _check_shape(net_out, (3,) + ctx.image_hw, "decode_finalize")
        return net_out
    plane_w = ctx.plane_hw[1]
    if method == "ws_replicate":
        _check_shape(net_out, (1,) + ctx.plane_hw, "decode_finalize")
        return ad.reshape(net_out, (-1, plane_w))

    _check_shape(net_out, (1,) + ctx.container_shape, "decode_finalize")
    if method == "stretch":
        planes = iops.bilinear_resize_op(ad.reshape(net_out, (-1,) + ctx.container_shape), *ctx.plane_hw)
        return ad.reshape(planes, (-1, plane_w))
    n = ctx.grid.count
    if method == "replicate":
        weights = np.full(n, 1.0 / n)
    else:
        # w_replicate: trained weights normalised by their sum
        dec = params["embed.dec_weights"]
        weights = ad.replicas(ad.recip(ad.scale(ad.mean(dec), n)), dec)
    return ad.merge(iops.unpack_grid_op(net_out, ctx.grid), weights)
