"""Container arrangement strategies around the hiding/revealing networks.

This module alone decides what each of the five methods does, in four hooks
that read the model's ``PipelineConfig`` (``method``, ``luma``, ``image``, ``grid``):

* ``encode_prepare``: secret images (3, B*h, w) -> hiding-network input
* ``encode_arrange``: hiding-network output -> (B, *container_shape) containers
* ``decode_prepare``: containers -> revealing-network input
* ``decode_finalize``: revealing-network output -> RGB images (3, B*h, w)

``replica_grid`` holds the published replica counts, which the config keeps
as ``cfg.grid``: 2 or 8 (4x2, large) pixel-shuffled planes (luma-buffered
unless ``cfg.luma`` is off), whose container ``stretch`` shares, or 8 (4x2)
or 32 (8x4, large) RGB images for ``multichannel``.  Replicas form one
(count, cell_h, cell_w) stack that the ``imageops`` pack/unpack adjoint pair
moves in and out of the container, so each hook records the same number of
tape nodes at any replica count.  The plane methods build the stack with
``autodiff.replicas``, scaling the plane by ones (``replicate``) or by the
trainable ``embed.enc_weights`` (``w_replicate``, ``ws_replicate``).
``ws_replicate`` and ``multichannel`` reveal from the unpacked stack.  The
``CONTAINER_REVEAL`` methods reveal from the whole container: ``stretch``
resizes the output down, which keeps its MAC count equal to ``replicate``'s,
and ``replicate``/``w_replicate`` merge the unpacked stack in one weighted sum
over the replica axis, by 1/count or by the trained ``embed.dec_weights``
normalised by their sum.  The replica weights live in the model's ``params``,
made by ``init_weights``.  The U-Nets stack B samples along the rows.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import imageops as iops
from . import networks as nets
from .errors import ConfigError

METHODS = ("stretch", "replicate", "w_replicate", "ws_replicate", "multichannel")
# methods whose revealing network runs at container size
CONTAINER_REVEAL = ("stretch", "replicate", "w_replicate")


def replica_grid(method, image, large):
    """The replica grid of one method and image size, and so its container shape."""
    if method not in METHODS:
        raise ConfigError(f"unknown embedding method {method!r}")
    if method == "multichannel":
        return iops.ReplicaGrid(*((8, 4) if large else (4, 2)), image, image)
    return iops.ReplicaGrid(*((4, 2) if large else (2, 1)), 2 * image, 2 * image)


def init_weights(cfg):
    """{name: tensor} of the method's trainable replica weights, all ones: embed.enc_weights
    (w_replicate, ws_replicate), then embed.dec_weights (w_replicate)."""
    names = {"w_replicate": ("enc", "dec"), "ws_replicate": ("enc",)}.get(cfg.method, ())
    return {f"embed.{name}_weights": ad.Tensor(np.ones(cfg.grid.count), requires_grad=True) for name in names}


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


def encode_prepare(images, cfg):
    """Secret images (3, B*h, w) -> hiding-network input: the images, or one (1, B*2h, 2w) shuffle of them."""
    if cfg.method == "multichannel":
        return ad.Tensor(images)
    return ad.Tensor(iops.shuffle_with_luma(images, use_luma=cfg.luma)[None])


def encode_arrange(out, cfg, params, samples):
    """Hiding-network output (C, B*H, W) of `samples` samples -> (B, *container_shape) containers, differentiable."""
    grid, width = cfg.grid, out.data.shape[-1]
    if cfg.method == "multichannel":  # (count, B*h, w) -> the (count, B, h, w) replica stack
        return iops.pack_grid_op(ad.reshape(out, (grid.count, samples, -1, width)), grid)
    wmark = ad.reshape(out, (samples, -1, width))
    _check_shape(wmark, (2 * cfg.image,) * 2, "encode_arrange")
    if cfg.method == "stretch":
        return iops.bilinear_resize_op(wmark, *grid.container_shape)
    weights = np.ones(grid.count) if cfg.method == "replicate" else params["embed.enc_weights"]
    return iops.pack_grid_op(ad.replicas(wmark, weights), grid)


def decode_prepare(container, cfg):
    """Containers (..., *container_shape) -> (C, B*H, W) revealing-network input, differentiable."""
    shape = cfg.grid.container_shape
    _check_shape(container, shape, "decode_prepare")
    if cfg.method in CONTAINER_REVEAL:
        return ad.reshape(container, (1, -1, shape[1]))
    return iops.unpack_grid_op(container, cfg.grid)


def decode_finalize(net_out, cfg, params):
    """Revealing-network output (C, B*H, W) -> RGB images (3, B*h, w), differentiable and unclamped."""
    method, grid, plane_hw = cfg.method, cfg.grid, (2 * cfg.image,) * 2
    if method == "multichannel":
        _check_shape(net_out, (3, cfg.image, cfg.image), "decode_finalize")
        return net_out
    _check_shape(net_out, (1,) + (plane_hw if method == "ws_replicate" else grid.container_shape), "decode_finalize")
    if method == "ws_replicate":
        planes = ad.reshape(net_out, (-1, plane_hw[1]))
    elif method == "stretch":
        resized = iops.bilinear_resize_op(ad.reshape(net_out, (-1,) + grid.container_shape), *plane_hw)
        planes = ad.reshape(resized, (-1, plane_hw[1]))
    else:
        n, dec = grid.count, params.get("embed.dec_weights")  # w_replicate's weights, normalised by their sum
        weights = (np.full(n, 1.0 / n) if method == "replicate"
                   else ad.replicas(ad.recip(ad.scale(ad.mean(dec), n)), dec))
        planes = ad.merge(iops.unpack_grid_op(net_out, grid), weights)
    return iops.unshuffle_op(planes, use_luma=cfg.luma)
