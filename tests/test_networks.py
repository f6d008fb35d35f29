import tracemalloc

import numpy as np
import pytest

from conftest import assert_freed_by_refcount
from stegowav import autodiff as ad
from stegowav import networks as nets
from stegowav.errors import ConfigError


def test_output_spatial_shape_matches_input(rng):
    cfg = nets.UNetConfig(in_depth=2, out_depth=3, depth=2, base_channels=4)
    params = nets.init_unet(cfg, np.random.default_rng(0), "u")
    for h, w in ((8, 8), (16, 8), (12, 20)):
        y = nets.unet_forward(cfg, params, ad.Tensor(rng.random((2, h, w))), "u")
        assert y.data.shape == (3, h, w)


def test_divisibility_enforced():
    cfg = nets.UNetConfig(1, 1, depth=2)
    params = nets.init_unet(cfg, np.random.default_rng(0), "u")
    with pytest.raises(ConfigError):
        nets.unet_forward(cfg, params, ad.Tensor(np.zeros((1, 6, 8))), "u")
    with pytest.raises(ConfigError):
        nets.unet_forward(cfg, params, ad.Tensor(np.zeros((2, 8, 8))), "u")


def test_zero_parameters_give_zero_output(rng):
    cfg = nets.UNetConfig(1, 1)
    params = nets.init_unet(cfg, np.random.default_rng(0), "u")
    for t in params.values():
        t.data = np.zeros_like(t.data)
    y = nets.unet_forward(cfg, params, ad.Tensor(rng.random((1, 8, 8))), "u")
    assert np.all(y.data == 0.0)


def test_forward_deterministic(rng):
    cfg = nets.UNetConfig(1, 1, base_channels=4)
    params = nets.init_unet(cfg, np.random.default_rng(1), "u")
    x = ad.Tensor(rng.random((1, 8, 8)))
    y1 = nets.unet_forward(cfg, params, x, "u")
    y2 = nets.unet_forward(cfg, params, x, "u")
    assert np.array_equal(y1.data, y2.data)


def test_he_init_reproducible_and_scaled():
    cfg = nets.UNetConfig(4, 2, depth=2, base_channels=16)
    p1 = nets.init_unet(cfg, np.random.default_rng(7), "u")
    p2 = nets.init_unet(cfg, np.random.default_rng(7), "u")
    assert p1.keys() == p2.keys()
    for k in p1:
        assert np.array_equal(p1[k].data, p2[k].data)
    for spec in nets.layer_schedule(cfg):
        w = p1[f"u.{spec.name}.w"].data
        fan_in = spec.in_c * spec.kernel ** 2
        assert abs(w.std() - np.sqrt(2.0 / fan_in)) < 0.4 * np.sqrt(2.0 / fan_in)
        assert np.all(p1[f"u.{spec.name}.b"].data == 0.0)


def test_param_count_matches_schedule():
    cfg = nets.UNetConfig(1, 1, depth=2, base_channels=8, kernel=3)
    params = nets.init_unet(cfg, np.random.default_rng(0), "u")
    assert nets.param_count(params) == nets.unet_param_count(cfg)
    # hand count: 1->8, 8->16, 16->32, 48->16, 24->8, 8->1 (1x1)
    hand = (8 * 9 + 8) + (16 * 8 * 9 + 16) + (32 * 16 * 9 + 32) \
        + (16 * 48 * 9 + 16) + (8 * 24 * 9 + 8) + (8 + 1)
    assert nets.unet_param_count(cfg) == hand


def test_unet_grad_check_desk_scale():
    def builder(rng):
        cfg = nets.UNetConfig(1, 1, depth=2, base_channels=4)
        params = nets.init_unet(cfg, rng, "u")
        x = ad.Tensor(rng.uniform(0.4, 1.2, size=(1, 16, 16)), requires_grad=True)
        y = nets.unet_forward(cfg, params, x, "u")
        return ad.sq_sum(y), [x] + list(params.values())

    assert ad.grad_check(builder, 0) < 1e-4


def test_unet_graph_freed_by_refcount():
    cfg = nets.UNetConfig(1, 1, depth=2, base_channels=4)
    params = nets.init_unet(cfg, np.random.default_rng(0), "u")
    x = ad.Tensor(np.random.default_rng(1).normal(size=(1, 16, 8)))
    assert_freed_by_refcount(lambda: ad.sq_sum(nets.unet_forward(cfg, params, x, "u")))


def test_unet_inference_peak_memory():
    cfg = nets.UNetConfig(1, 1)
    params = nets.init_unet(cfg, np.random.default_rng(0), "u")
    x = ad.Tensor(np.random.default_rng(1).normal(size=(1, 256, 128)))
    tracemalloc.start()
    try:
        with ad.no_grad():
            nets.unet_forward(cfg, params, x, "u")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Separate leaky ReLU, upsample and concat ops, with the skips held to the
    # end, peak at 15.26 MiB here; with the leaky ReLU in the conv tiles and one
    # upsample-concat op that frees its inputs, 11.08 MiB.
    assert peak < 13 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_couple_projection_and_average(rng):
    params = nets.init_coupling()
    a = ad.Tensor(rng.random((4, 4)))
    b = ad.Tensor(rng.random((4, 4)))
    params["couple.w1"].data[...] = 1.0
    params["couple.w2"].data[...] = 0.0
    params["couple.b"].data[...] = 0.0
    assert np.array_equal(nets.couple(a, b, params).data, a.data)
    params["couple.w1"].data[...] = 0.5
    params["couple.w2"].data[...] = 0.5
    assert np.allclose(nets.couple(a, a, params).data, a.data, atol=1e-15)
    assert nets.param_count(params) == 3


def test_couple_shape_mismatch():
    params = nets.init_coupling()
    with pytest.raises(ConfigError):
        nets.couple(ad.Tensor(np.zeros((2, 2))), ad.Tensor(np.zeros((3, 2))), params)


def test_couple_gradient():
    def builder(rng):
        params = nets.init_coupling()
        a = ad.Tensor(rng.uniform(0.4, 1.2, size=(3, 3)), requires_grad=True)
        b = ad.Tensor(rng.uniform(0.4, 1.2, size=(3, 3)), requires_grad=True)
        y = nets.couple(a, b, params)
        return ad.sq_sum(y), [a, b] + list(params.values())

    assert ad.grad_check(builder, 0) < 1e-10
