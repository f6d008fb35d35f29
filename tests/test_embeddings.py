import numpy as np
import pytest

from conftest import take_rows
from stegowav import autodiff as ad
from stegowav import embeddings as emb
from stegowav.errors import ConfigError


def _watermark(ctx, rng):
    if ctx.method == "multichannel":
        return ad.Tensor(rng.random((ctx.grid.count,) + ctx.image_hw))
    return ad.Tensor(rng.random(ctx.plane_hw))


def _net_out(ctx, rng):
    """A shape-correct fake revealing-network output."""
    if ctx.method in ("stretch", "replicate", "w_replicate"):
        return ad.Tensor(rng.random((1,) + ctx.container_shape))
    if ctx.method == "ws_replicate":
        return ad.Tensor(rng.random((1,) + ctx.plane_hw))
    return ad.Tensor(rng.random((3,) + ctx.image_hw))


@pytest.mark.parametrize("method", emb.METHODS)
@pytest.mark.parametrize("large", [False, True])
def test_shape_contracts_all_methods_both_sizes(method, large, rng):
    ctx = emb.make_context(method, (16, 16), large)
    params = emb.init_weights(ctx)
    wm = _watermark(ctx, rng)
    container = emb.encode_arrange(wm, ctx, params)
    assert container.data.shape == ctx.container_shape
    prep = emb.decode_prepare(container, ctx)
    if method in ("stretch", "replicate", "w_replicate"):
        assert prep.data.shape == (1,) + ctx.container_shape
    elif method == "ws_replicate":
        assert prep.data.shape == (ctx.grid.count,) + ctx.plane_hw
    else:
        assert prep.data.shape == (ctx.grid.count,) + ctx.image_hw
    # feed a shape-correct fake network output through finalize
    expect = (3,) + ctx.image_hw if method == "multichannel" else ctx.plane_hw
    assert emb.decode_finalize(_net_out(ctx, rng), ctx, params).data.shape == expect


@pytest.mark.parametrize("method", emb.METHODS)
def test_hook_node_counts_do_not_grow_with_replicas(method, rng, monkeypatch):
    node = ad._node
    ops = []
    monkeypatch.setattr(ad, "_node", lambda *args: ops.append(args[0]) or node(*args))

    def hook_counts(large):
        ctx = emb.make_context(method, (8, 8), large)
        params = emb.init_weights(ctx)
        counts = []
        for hook, arg in ((emb.encode_arrange, _watermark(ctx, rng)),
                          (lambda x, c, _: emb.decode_prepare(x, c), ad.Tensor(rng.random(ctx.container_shape))),
                          (emb.decode_finalize, _net_out(ctx, rng))):
            ops.clear()
            hook(arg, ctx, params)
            counts.append(len(ops))
        return counts

    small, large = hook_counts(False), hook_counts(True)
    assert emb.make_context(method, (8, 8), True).grid.count > emb.make_context(
        method, (8, 8), False).grid.count
    assert large == small


def test_replica_counts_match_published_grids():
    assert emb.make_context("replicate", (16, 16), False).grid.count == 2
    assert emb.make_context("replicate", (16, 16), True).grid.count == 8
    small_mc = emb.make_context("multichannel", (16, 16), False)
    assert (small_mc.grid.rows, small_mc.grid.cols) == (4, 2)
    large_mc = emb.make_context("multichannel", (16, 16), True)
    assert (large_mc.grid.rows, large_mc.grid.cols, large_mc.grid.count) == (8, 4, 32)


def test_replicate_all_ones_fills_container():
    ctx = emb.make_context("replicate", (4, 4), False)
    out = emb.encode_arrange(ad.Tensor(np.ones(ctx.plane_hw)), ctx, {})
    assert np.all(out.data == 1.0)


def test_w_replicate_enc_weights_scale_halves(rng):
    ctx = emb.make_context("w_replicate", (4, 4), False)
    params = emb.init_weights(ctx)
    params["embed.enc_weights"].data[:] = [1.0, 0.0]
    wm = ad.Tensor(rng.random(ctx.plane_hw))
    out = emb.encode_arrange(wm, ctx, params)
    assert np.array_equal(out.data[:8], wm.data)
    assert np.all(out.data[8:] == 0.0)


def test_multichannel_small_shapes():
    ctx = emb.make_context("multichannel", (256, 256), False)
    assert ctx.grid.count == 8
    assert ctx.container_shape == (1024, 512)


def test_ws_replicate_paper_stack_shape():
    ctx = emb.make_context("ws_replicate", (256, 256), False)
    container = ad.Tensor(np.zeros(ctx.container_shape))
    prep = emb.decode_prepare(container, ctx)
    assert prep.data.shape == (2, 512, 512)


def test_finalize_replicate_mean(rng):
    ctx = emb.make_context("replicate", (4, 4), False)
    r = rng.random(ctx.plane_hw)
    container = np.concatenate([r, r], axis=0)
    out = emb.decode_finalize(ad.reshape(ad.Tensor(container), (1,) + ctx.container_shape), ctx, {})
    assert np.allclose(out.data, r, atol=1e-15)
    shifted = np.concatenate([r, r + 0.5], axis=0)
    out2 = emb.decode_finalize(ad.reshape(ad.Tensor(shifted), (1,) + ctx.container_shape), ctx, {})
    assert np.allclose(out2.data, r + 0.25, atol=1e-15)


def test_finalize_w_replicate_uniform_weights_is_mean(rng):
    ctx = emb.make_context("w_replicate", (4, 4), False)
    params = emb.init_weights(ctx)
    r = rng.random(ctx.plane_hw)
    container = np.concatenate([r, r + 0.5], axis=0)
    out = emb.decode_finalize(ad.reshape(ad.Tensor(container), (1,) + ctx.container_shape), ctx, params)
    assert np.allclose(out.data, r + 0.25, atol=1e-14)
    # weights normalize by their sum: [2, 2] behaves like [1, 1]
    params["embed.dec_weights"].data[:] = 2.0
    out2 = emb.decode_finalize(ad.reshape(ad.Tensor(container), (1,) + ctx.container_shape), ctx, params)
    assert np.allclose(out2.data, out.data, atol=1e-14)


def test_identity_stub_network_replica_erasure(rng):
    # with an identity reveal network, zeroing one replica's region halves
    # that replica's contribution to the plain replicate mean
    ctx = emb.make_context("replicate", (4, 4), False)
    wm = ad.Tensor(rng.random(ctx.plane_hw))
    container = emb.encode_arrange(wm, ctx, {})
    damaged = container.data.copy()
    damaged[8:, :] = 0.0  # erase replica 1
    out = emb.decode_finalize(ad.reshape(ad.Tensor(damaged), (1, 16, 8)), ctx, {})
    assert np.allclose(out.data, wm.data / 2.0, atol=1e-15)


def test_encode_shape_errors():
    ctx = emb.make_context("replicate", (4, 4), False)
    with pytest.raises(ConfigError):
        emb.encode_arrange(ad.Tensor(np.zeros((3, 3))), ctx, {})
    with pytest.raises(ConfigError):
        emb.decode_prepare(ad.Tensor(np.zeros((4, 4))), ctx)
    with pytest.raises(ConfigError):
        emb.decode_finalize(ad.Tensor(np.zeros((2, 2, 2))), ctx, {})
    with pytest.raises(ConfigError):
        emb.make_context("mosaic", (4, 4), False)


@pytest.mark.parametrize("method", emb.METHODS)
def test_arrange_finalize_gradients(method):
    def builder(rng):
        ctx = emb.make_context(method, (2, 2), False)
        params = emb.init_weights(ctx)
        leaves = list(params.values())
        # move the trainable weights off their symmetric init (where the
        # normalized-average gradient vanishes identically) before building
        for weights in leaves:
            weights.data[:] = rng.uniform(0.5, 1.5, size=weights.data.shape)
        if method == "multichannel":
            wm = ad.Tensor(rng.uniform(0.4, 1.2, size=(ctx.grid.count,) + ctx.image_hw),
                           requires_grad=True)
        else:
            wm = ad.Tensor(rng.uniform(0.4, 1.2, size=ctx.plane_hw), requires_grad=True)
        leaves.append(wm)
        container = emb.encode_arrange(wm, ctx, params)
        prep = emb.decode_prepare(container, ctx)
        if method in ("stretch", "replicate", "w_replicate"):
            y = emb.decode_finalize(prep, ctx, params)
        elif method == "ws_replicate":
            y = emb.decode_finalize(take_rows(prep, 1), ctx, params)
        else:
            y = emb.decode_finalize(take_rows(prep, 3), ctx, params)
        return ad.sq_sum(y), leaves

    for seed in range(3):
        assert ad.grad_check(builder, seed) < 1e-4
