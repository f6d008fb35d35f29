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
trainable ``enc_weights`` (``w_replicate``, ``ws_replicate``).
``ws_replicate`` and ``multichannel`` reveal from the unpacked stack.  The
``CONTAINER_REVEAL`` methods reveal from the whole container: ``stretch``
resizes the output down, which keeps its MAC count equal to ``replicate``'s,
and ``replicate``/``w_replicate`` merge the unpacked stack in one weighted sum
over the replica axis, by 1/count or by the trained ``dec_weights``
normalised by their sum.
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


@dataclass
class EmbeddingContext:
    method: str
    image_hw: tuple
    large: bool
    grid: iops.ReplicaGrid
    enc_weights: ad.Tensor | None
    dec_weights: ad.Tensor | None

    @property
    def plane_hw(self):
        return (2 * self.image_hw[0], 2 * self.image_hw[1])

    @property
    def container_shape(self):
        return self.grid.container_shape

    def weight_tensors(self):
        out = []
        if self.enc_weights is not None:
            out.append(("embed.enc_weights", self.enc_weights))
        if self.dec_weights is not None:
            out.append(("embed.dec_weights", self.dec_weights))
        return out


def replica_grid(method, image_hw, large):
    """The replica grid, and so the container shape, of one method/size."""
    if method not in METHODS:
        raise ConfigError(f"unknown embedding method {method!r}")
    h, w = image_hw
    if method == "multichannel":
        return iops.ReplicaGrid(*iops.channel_grid_shape(large), h, w)
    # stretch shares the replicate container so sizes stay comparable
    return iops.ReplicaGrid(*iops.plane_grid_shape(large), 2 * h, 2 * w)


def make_context(method, image_hw, large):
    """Build the replica grid and trainable weights for one method/size."""
    grid = replica_grid(method, image_hw, large)
    enc = dec = None
    if method in ("w_replicate", "ws_replicate"):
        enc = ad.Tensor(np.ones(grid.count), requires_grad=True)
    if method == "w_replicate":
        dec = ad.Tensor(np.ones(grid.count), requires_grad=True)
    return EmbeddingContext(method, tuple(image_hw), large, grid, enc, dec)


def net_depths(cfg, n):
    """(hiding, revealing) U-Net configs with each method's channel depths; n replicas."""
    hide_in, hide_out, reveal_in, reveal_out = {
        "multichannel": (3, n, n, 3), "ws_replicate": (1, 1, n, 1)}.get(cfg.method, (1, 1, 1, 1))
    return (nets.UNetConfig(hide_in, hide_out, cfg.depth, cfg.channels, cfg.kernel),
            nets.UNetConfig(reveal_in, reveal_out, cfg.depth, cfg.channels, cfg.kernel))


def _check_shape(t, want, what):
    if t.data.shape != want:
        raise ConfigError(f"{what}: expected shape {want}, got {t.data.shape}")


def encode_arrange(wmark, ctx):
    """Watermark -> container-shaped tensor (2-D), differentiable."""
    if ctx.method == "multichannel":
        return iops.pack_grid_op(wmark, ctx.grid)
    _check_shape(wmark, ctx.plane_hw, "encode_arrange")
    if ctx.method == "stretch":
        return iops.bilinear_resize_op(wmark, *ctx.container_shape)
    weights = ctx.enc_weights if ctx.enc_weights is not None else np.ones(ctx.grid.count)
    return iops.pack_grid_op(ad.replicas(wmark, weights), ctx.grid)


def decode_prepare(container, ctx):
    """Container plane -> (C, H, W) revealing-network input, differentiable."""
    _check_shape(container, ctx.container_shape, "decode_prepare")
    if ctx.method in CONTAINER_REVEAL:
        return ad.reshape(container, (1,) + ctx.container_shape)
    return iops.unpack_grid_op(container, ctx.grid)


def decode_finalize(net_out, ctx):
    """Revealing-network output -> plane (2H, 2W) or RGB (3, H, W) tensor."""
    method = ctx.method
    if method == "multichannel":
        _check_shape(net_out, (3,) + ctx.image_hw, "decode_finalize")
        return net_out
    if method == "ws_replicate":
        _check_shape(net_out, (1,) + ctx.plane_hw, "decode_finalize")
        return ad.reshape(net_out, ctx.plane_hw)

    _check_shape(net_out, (1,) + ctx.container_shape, "decode_finalize")
    plane = ad.reshape(net_out, ctx.container_shape)
    if method == "stretch":
        return iops.bilinear_resize_op(plane, *ctx.plane_hw)
    n = ctx.grid.count
    if method == "replicate":
        weights = np.full(n, 1.0 / n)
    else:
        # w_replicate: trained weights normalised by their sum
        weights = ad.replicas(ad.recip(ad.scale(ad.mean(ctx.dec_weights), n)), ctx.dec_weights)
    return ad.merge(iops.unpack_grid_op(plane, ctx.grid), weights)
