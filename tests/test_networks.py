import contextlib
import tracemalloc

import numpy as np
import pytest

from conftest import assert_freed_by_refcount, peak_bytes
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


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_forward_reads_the_kernels_in_schedule_order(rng, depth):
    cfg = nets.UNetConfig(1, 2, depth=depth, base_channels=2)
    read = []

    class Recording(dict):
        def __getitem__(self, key):
            read.append(key)
            return super().__getitem__(key)

    params = Recording(nets.init_unet(cfg, np.random.default_rng(0), "u"))
    nets.unet_forward(cfg, params, ad.Tensor(rng.random((1, 8, 8))), "u")
    assert [k for k in read if k.endswith(".w")] == [f"u.{s.name}.w" for s in nets.layer_schedule(cfg)]


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
    # hand count: 1->8, 8->16, 16->32, 48->16, 24->8, 8->1 (1x1)
    hand = (8 * 9 + 8) + (16 * 8 * 9 + 16) + (32 * 16 * 9 + 32) \
        + (16 * 48 * 9 + 16) + (8 * 24 * 9 + 8) + (8 + 1)
    assert nets.param_count(params) == hand


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
    # upsample-concat op that frees its inputs, 11.08 MiB; with the concat read
    # straight into the tiles and dec0 running the head, 9.67 MiB; with dec1
    # written over its skip, 8.67 MiB.
    assert peak < 9.2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def reveal_unet_peak(h, w):
    """tracemalloc's peak of the no-grad revealing U-Net of every profile over a (1, h, w) container."""
    cfg = nets.UNetConfig(1, 1)
    params = nets.init_unet(cfg, np.random.default_rng(0), "u")
    x = ad.Tensor(np.random.default_rng(1).normal(size=(1, h, w)))
    with ad.no_grad():
        return peak_bytes(lambda: nets.unet_forward(cfg, params, x, "u"))


def test_reveal_unet_inference_builds_no_decoder_input():
    peak = reveal_unet_peak(512, 256)
    # dec0's upsampled input stacked with its skip, (24, 512, 256), is 24 MiB:
    # built, it peaked at 36.0 MiB beside its 4 MiB deep input and 8 MiB skip;
    # read straight into the conv's row tiles, 23.3 MiB; with dec1 written over
    # its skip, 20.2 MiB.
    assert peak < 21.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_paper_size_reveal_unet_inference_writes_dec1_over_its_skip():
    peak = reveal_unet_peak(1024, 512)  # paper_shape's container
    # 77.2 MiB with dec1's 16 MiB output allocated beside its skip; 65.2 MiB written over it.
    assert peak < 70 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("record,convs", [(contextlib.nullcontext, 6), (ad.no_grad, 5)])
def test_dec0_runs_the_head_without_a_tape(rng, monkeypatch, record, convs):
    cfg = nets.UNetConfig(1, 3, depth=2, base_channels=2)
    params = nets.init_unet(cfg, np.random.default_rng(0), "u")
    made, node = [], ad._node

    def recording(op, parents, forward, backward):
        t = node(op, parents, forward, backward)
        if op == "conv2d":
            made.append((parents, t.data.shape))
        return t

    monkeypatch.setattr(ad, "_node", recording)
    with record():
        nets.unet_forward(cfg, params, ad.Tensor(rng.random((1, 8, 8))), "u")
    assert len(made) == convs
    parents, shape = made[-1]
    assert shape == (cfg.out_depth, 8, 8) and parents[-2:] == (params["u.head.w"], params["u.head.b"])
    assert parents[1] is params["u.head.w" if convs == 6 else "u.dec0.w"]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("channels,out_depth", [(1, 1), (8, 1), (8, 3), (16, 4)])
# (1, 64, 512) splits enc0's and dec0's sample into several row tiles: a decoder conv writes over its skip as it reads
@pytest.mark.parametrize("samples,h,w", [(1, 64, 32), (3, 24, 40), (2, 8, 16), (1, 64, 512)])
def test_unet_without_a_tape_gives_the_bytes_of_the_taped_forward(depth, kernel, channels, out_depth, samples, h, w):
    cfg = nets.UNetConfig(2, out_depth, depth, channels, kernel)
    rng = np.random.default_rng(depth * kernel * channels)
    params = nets.init_unet(cfg, rng, "u")
    for tensor in params.values():  # non-zero biases too
        tensor.data = tensor.data + rng.normal(0.0, 0.1, tensor.data.shape)
    x = ad.Tensor(rng.normal(size=(2, samples * h, w)))
    assert (len(list(ad._row_tiles(x.data, kernel, samples, channels))) > samples) == (w == 512)
    with ad.no_grad():
        got = nets.unet_forward(cfg, params, x, "u", samples).data
    want = nets.unet_forward(cfg, params, x, "u", samples).data
    assert got.shape == want.shape == (out_depth, samples * h, w) and got.tobytes() == want.tobytes()


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
