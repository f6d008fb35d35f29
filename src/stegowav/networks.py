"""U-Net style hiding/revealing networks and the dual-container coupler.

Down path: conv+leaky ReLU -> 2x mean-pool per level; bottleneck conv+leaky
ReLU; up path: conv+leaky ReLU over the nearest-upsampled input stacked with
the skip (read straight into the conv's row tiles without a tape, which write
over it); a linear 1x1 head, handed to the last decoder conv (run on its row
tiles without a tape).  Each leaky ReLU runs in its conv's row tiles.  Channel
widths double per level from ``base_channels``.  A batch of B inputs runs as
one (C, B*H, W) array, samples stacked along the rows, in every layer.  The
layer schedule is the single source of truth shared by initialization,
forward, and the analytic MAC accounting in :mod:`costing`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class UNetConfig:
    in_depth: int
    out_depth: int
    depth: int = 2
    base_channels: int = 8
    kernel: int = 3

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"unet depth must be >= 1, got {self.depth}")
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ConfigError(f"unet kernel must be odd, got {self.kernel}")
        if self.base_channels < 1:
            raise ConfigError(f"unet channels must be >= 1, got {self.base_channels}")


@dataclass(frozen=True)
class ConvSpec:
    name: str
    in_c: int
    out_c: int
    kernel: int
    scale: int  # spatial downscale factor relative to the input


def layer_schedule(cfg):
    """Conv layers in forward order with their spatial scale divisors."""
    layers = []
    c = cfg.in_depth
    width = cfg.base_channels
    for i in range(cfg.depth):
        layers.append(ConvSpec(f"enc{i}", c, width, cfg.kernel, 2 ** i))
        c = width
        width *= 2
    layers.append(ConvSpec("bottleneck", c, width, cfg.kernel, 2 ** cfg.depth))
    c = width
    for i in reversed(range(cfg.depth)):
        skip = cfg.base_channels * (2 ** i)
        layers.append(ConvSpec(f"dec{i}", c + skip, skip, cfg.kernel, 2 ** i))
        c = skip
    layers.append(ConvSpec("head", c, cfg.out_depth, 1, 1))
    return layers


def unet_mac_count(cfg, h, w):
    """Conv MACs at input resolution (h, w): out_pixels * in_c * out_c * k^2."""
    total = 0
    for s in layer_schedule(cfg):
        total += (h // s.scale) * (w // s.scale) * s.in_c * s.out_c * s.kernel * s.kernel
    return total


def init_unet(cfg, rng, prefix):
    """He-initialized parameter dict: weight std sqrt(2/fan_in), zero bias."""
    params = {}
    for s in layer_schedule(cfg):
        std = np.sqrt(2.0 / (s.in_c * s.kernel * s.kernel))
        w = rng.normal(0.0, std, size=(s.out_c, s.in_c, s.kernel, s.kernel))
        params[f"{prefix}.{s.name}.w"] = ad.Tensor(w, requires_grad=True)
        params[f"{prefix}.{s.name}.b"] = ad.Tensor(np.zeros(s.out_c), requires_grad=True)
    return params


def unet_forward(cfg, params, x, prefix, samples=1):
    """Forward pass over x (C, B*H, W), B = `samples`; H and W must be divisible by 2**depth."""
    _, rows, w = x.data.shape
    h, div = rows // samples, 2 ** cfg.depth
    if rows % samples or h % div or w % div:
        raise ConfigError(f"unet input {rows}x{w} is not {samples} sample(s) with extents divisible by 2^{cfg.depth}")
    if x.data.shape[0] != cfg.in_depth:
        raise ConfigError(f"unet input depth {x.data.shape[0]} != configured {cfg.in_depth}")

    *convs, head = [(s.name, params[f"{prefix}.{s.name}.w"], params[f"{prefix}.{s.name}.b"])
                    for s in layer_schedule(cfg)]
    skips, t = [], x
    for name, w, b in convs:
        # a decoder conv reads its upsampled input and its skip, popped so that nothing else holds it; the last
        # one, dec0, runs the head too, and each other one has its skip's shape: without a tape, it writes over it
        skip = skips.pop() if name.startswith("dec") else None
        t = ad.conv2d(t, w, b, LEAKY_SLOPE, samples, skip, head[1:] if name == "dec0" else None,
                      None if skip is None or name == "dec0" or ad._recording else skip.data)
        if name.startswith("enc"):
            skips.append(t)
            t = ad.avg_pool2(t)
    return t


# ---------------------------------------------------------------------------
# dual-container coupling: out = w1*a + w2*b + bias (exactly 3 parameters)


def init_coupling():
    return {
        "couple.w1": ad.Tensor(0.5, requires_grad=True),
        "couple.w2": ad.Tensor(0.5, requires_grad=True),
        "couple.b": ad.Tensor(0.0, requires_grad=True),
    }


def couple(a, b, params):
    if a.data.shape != b.data.shape:
        raise ConfigError(f"couple: shapes differ: {a.data.shape} vs {b.data.shape}")
    ones = ad.Tensor(np.ones(a.data.shape))
    return ad.weighted_sum([a, b, ones], [params["couple.w1"], params["couple.w2"], params["couple.b"]])


def param_count(params):
    """Total learnable elements of a named parameter dict."""
    return sum(t.data.size for t in params.values())
