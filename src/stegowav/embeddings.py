"""Container arrangement strategies around the hiding/revealing networks.

Five methods share three hooks:

* ``encode_arrange``: watermark (plane or channel stack) -> container shape
* ``decode_prepare``: container plane -> revealing-network input
* ``decode_finalize``: revealing-network output -> plane or RGB image

``stretch`` runs the revealing network at container resolution and resizes
its output down afterwards, which keeps its MAC count identical to
``replicate`` at equal container size; the weighted variants scale replicas
with trainable scalars at the encoder (w_replicate, ws_replicate) and merge
with a sum-normalized trained weighted average at the decoder (w_replicate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import imageops as iops
from .errors import ConfigError

METHODS = ("stretch", "replicate", "w_replicate", "ws_replicate", "multichannel")


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


def _check_plane(t, hw, what):
    if t.data.shape != hw:
        raise ConfigError(f"{what}: expected shape {hw}, got {t.data.shape}")


def encode_arrange(wmark, ctx):
    """Watermark -> container-shaped tensor (2-D), differentiable."""
    method = ctx.method
    if method == "multichannel":
        want = (ctx.grid.count,) + ctx.image_hw
        if wmark.data.shape != want:
            raise ConfigError(f"encode_arrange: expected {want}, got {wmark.data.shape}")
        channels = [ad.reshape(ad.slice_axis(wmark, c, c + 1), ctx.image_hw)
                    for c in range(ctx.grid.count)]
        return iops.pack_grid_op(channels, ctx.grid)

    _check_plane(wmark, ctx.plane_hw, "encode_arrange")
    if method == "stretch":
        return iops.bilinear_resize_op(wmark, *ctx.container_shape)
    if method == "replicate":
        return iops.pack_grid_op([wmark] * ctx.grid.count, ctx.grid)
    # weighted replicas: one trainable scalar per copy
    scaled = [ad.weighted_sum([wmark], [ad.slice_axis(ctx.enc_weights, i, i + 1)])
              for i in range(ctx.grid.count)]
    return iops.pack_grid_op(scaled, ctx.grid)


def decode_prepare(container, ctx):
    """Container plane -> (C, H, W) revealing-network input, differentiable."""
    _check_plane(container, ctx.container_shape, "decode_prepare")
    method = ctx.method
    if method in ("stretch", "replicate", "w_replicate"):
        return ad.reshape(container, (1,) + ctx.container_shape)
    pieces = iops.unpack_grid_op(container, ctx.grid)
    cell = (1, ctx.grid.cell_h, ctx.grid.cell_w)
    return ad.concat_depth([ad.reshape(p, cell) for p in pieces])


def decode_finalize(net_out, ctx):
    """Revealing-network output -> plane (2H, 2W) or RGB (3, H, W) tensor."""
    method = ctx.method
    if method == "multichannel":
        want = (3,) + ctx.image_hw
        if net_out.data.shape != want:
            raise ConfigError(f"decode_finalize: expected {want}, got {net_out.data.shape}")
        return net_out
    if method == "ws_replicate":
        want = (1,) + ctx.plane_hw
        if net_out.data.shape != want:
            raise ConfigError(f"decode_finalize: expected {want}, got {net_out.data.shape}")
        return ad.reshape(net_out, ctx.plane_hw)

    want = (1,) + ctx.container_shape
    if net_out.data.shape != want:
        raise ConfigError(f"decode_finalize: expected {want}, got {net_out.data.shape}")
    plane = ad.reshape(net_out, ctx.container_shape)
    if method == "stretch":
        return iops.bilinear_resize_op(plane, *ctx.plane_hw)
    pieces = iops.unpack_grid_op(plane, ctx.grid)
    n = ctx.grid.count
    if method == "replicate":
        return ad.weighted_sum(pieces, [ad.Tensor(1.0 / n)] * n)
    # w_replicate: trained weighted average, weights normalized by their sum
    total = ad.scale(ad.mean(ctx.dec_weights), n)
    inv = ad.recip(total)
    norm = [ad.mul(ad.reshape(ad.slice_axis(ctx.dec_weights, i, i + 1), ()), inv)
            for i in range(n)]
    return ad.weighted_sum(pieces, norm)
