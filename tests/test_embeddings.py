import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import take_rows, unshuffle
from stegowav import autodiff as ad
from stegowav import embeddings as emb
from stegowav import pipeline as pl
from stegowav.errors import ConfigError


def _cfg(method, image, large=False):
    return pl.PipelineConfig(method=method, image=image, large=large)


def _hide_out(cfg, rng):
    """A shape-correct fake hiding-network output for one sample."""
    if cfg.method == "multichannel":
        return ad.Tensor(rng.random((cfg.grid.count, cfg.image, cfg.image)))
    return ad.Tensor(rng.random((1, 2 * cfg.image, 2 * cfg.image)))


def _net_out(cfg, rng):
    """A shape-correct fake revealing-network output."""
    if cfg.method in ("stretch", "replicate", "w_replicate"):
        return ad.Tensor(rng.random((1,) + cfg.grid.container_shape))
    if cfg.method == "ws_replicate":
        return ad.Tensor(rng.random((1, 2 * cfg.image, 2 * cfg.image)))
    return ad.Tensor(rng.random((3, cfg.image, cfg.image)))


@pytest.mark.parametrize("method", emb.METHODS)
@pytest.mark.parametrize("large", [False, True])
def test_shape_contracts_all_methods_both_sizes(method, large, rng):
    cfg = _cfg(method, 16, large)
    params = emb.init_weights(cfg)
    image_hw, plane_hw = (16, 16), (32, 32)
    secret_t = emb.encode_prepare(rng.random((3,) + image_hw), cfg)
    assert secret_t.data.shape == ((3,) + image_hw if method == "multichannel" else (1,) + plane_hw)
    container = emb.encode_arrange(_hide_out(cfg, rng), cfg, params, 1)
    assert container.data.shape == (1,) + cfg.grid.container_shape
    prep = emb.decode_prepare(container, cfg)
    if method in ("stretch", "replicate", "w_replicate"):
        assert prep.data.shape == (1,) + cfg.grid.container_shape
    elif method == "ws_replicate":
        assert prep.data.shape == (cfg.grid.count,) + plane_hw
    else:
        assert prep.data.shape == (cfg.grid.count,) + image_hw
    # feed a shape-correct fake network output through finalize
    assert emb.decode_finalize(_net_out(cfg, rng), cfg, params).data.shape == (3,) + image_hw


@pytest.mark.parametrize("method", emb.METHODS)
def test_hook_node_counts_do_not_grow_with_replicas(method, rng, monkeypatch):
    node = ad._node
    ops = []
    monkeypatch.setattr(ad, "_node", lambda *args: ops.append(args[0]) or node(*args))

    def hook_counts(large):
        cfg = _cfg(method, 8, large)
        params = emb.init_weights(cfg)
        counts = []
        for hook, arg in ((lambda x: emb.encode_prepare(x, cfg), rng.random((3, 8, 8))),
                          (lambda x: emb.encode_arrange(x, cfg, params, 1), _hide_out(cfg, rng)),
                          (lambda x: emb.decode_prepare(x, cfg), ad.Tensor(rng.random(cfg.grid.container_shape))),
                          (lambda x: emb.decode_finalize(x, cfg, params), _net_out(cfg, rng))):
            ops.clear()
            hook(arg)
            counts.append(len(ops))
        return counts

    small, large = hook_counts(False), hook_counts(True)
    assert _cfg(method, 8, True).grid.count > _cfg(method, 8, False).grid.count
    assert large == small


def test_replica_counts_match_published_grids():
    assert emb.replica_grid("replicate", 16, False).count == 2
    assert emb.replica_grid("replicate", 16, True).count == 8
    small_mc = emb.replica_grid("multichannel", 16, False)
    assert (small_mc.rows, small_mc.cols) == (4, 2)
    large_mc = emb.replica_grid("multichannel", 16, True)
    assert (large_mc.rows, large_mc.cols, large_mc.count) == (8, 4, 32)


def test_replicate_all_ones_fills_container():
    cfg = _cfg("replicate", 4)
    out = emb.encode_arrange(ad.Tensor(np.ones((1, 8, 8))), cfg, {}, 1)
    assert np.all(out.data == 1.0)


def test_w_replicate_enc_weights_scale_halves(rng):
    cfg = _cfg("w_replicate", 4)
    params = emb.init_weights(cfg)
    params["embed.enc_weights"].data[:] = [1.0, 0.0]
    wm = ad.Tensor(rng.random((1, 8, 8)))
    out = emb.encode_arrange(wm, cfg, params, 1)
    assert np.array_equal(out.data[0, :8], wm.data[0])
    assert np.all(out.data[0, 8:] == 0.0)


def test_multichannel_small_shapes():
    grid = emb.replica_grid("multichannel", 256, False)
    assert grid.count == 8
    assert grid.container_shape == (1024, 512)


def test_ws_replicate_paper_stack_shape():
    cfg = _cfg("ws_replicate", 256)
    container = ad.Tensor(np.zeros(cfg.grid.container_shape))
    prep = emb.decode_prepare(container, cfg)
    assert prep.data.shape == (2, 512, 512)


def test_finalize_replicate_mean(rng):
    cfg = _cfg("replicate", 4)
    r = rng.random((8, 8))
    container = np.concatenate([r, r], axis=0)
    out = emb.decode_finalize(ad.reshape(ad.Tensor(container), (1,) + cfg.grid.container_shape), cfg, {})
    assert np.allclose(out.data, unshuffle(r), atol=1e-15)
    shifted = np.concatenate([r, r + 0.5], axis=0)
    out2 = emb.decode_finalize(ad.reshape(ad.Tensor(shifted), (1,) + cfg.grid.container_shape), cfg, {})
    assert np.allclose(out2.data, unshuffle(r + 0.25), atol=1e-15)


def test_finalize_w_replicate_uniform_weights_is_mean(rng):
    cfg = _cfg("w_replicate", 4)
    params = emb.init_weights(cfg)
    r = rng.random((8, 8))
    container = np.concatenate([r, r + 0.5], axis=0)
    out = emb.decode_finalize(ad.reshape(ad.Tensor(container), (1,) + cfg.grid.container_shape), cfg, params)
    assert np.allclose(out.data, unshuffle(r + 0.25), atol=1e-14)
    # weights normalize by their sum: [2, 2] behaves like [1, 1]
    params["embed.dec_weights"].data[:] = 2.0
    out2 = emb.decode_finalize(ad.reshape(ad.Tensor(container), (1,) + cfg.grid.container_shape), cfg, params)
    assert np.allclose(out2.data, out.data, atol=1e-14)


def test_identity_stub_network_replica_erasure(rng):
    # with an identity reveal network, zeroing one replica's region halves
    # that replica's contribution to the plain replicate mean
    cfg = _cfg("replicate", 4)
    wm = ad.Tensor(rng.random((1, 8, 8)))
    container = emb.encode_arrange(wm, cfg, {}, 1)
    damaged = container.data.copy()
    damaged[:, 8:, :] = 0.0  # erase replica 1
    out = emb.decode_finalize(ad.reshape(ad.Tensor(damaged), (1, 16, 8)), cfg, {})
    assert np.allclose(out.data, unshuffle(wm.data[0] / 2.0), atol=1e-15)


def test_encode_shape_errors():
    cfg = _cfg("replicate", 4)
    with pytest.raises(ConfigError):
        emb.encode_arrange(ad.Tensor(np.zeros((3, 3))), cfg, {}, 1)
    with pytest.raises(ConfigError):
        emb.decode_prepare(ad.Tensor(np.zeros((4, 4))), cfg)
    with pytest.raises(ConfigError):
        emb.decode_finalize(ad.Tensor(np.zeros((2, 2, 2))), cfg, {})
    with pytest.raises(ConfigError):
        emb.replica_grid("mosaic", 4, False)


@pytest.mark.parametrize("method", emb.METHODS)
def test_arrange_finalize_gradients(method):
    def builder(rng):
        # 2 px images are below the smallest PipelineConfig; the hooks read only these fields
        cfg = SimpleNamespace(method=method, image=2, luma=True, grid=emb.replica_grid(method, 2, False))
        params = emb.init_weights(cfg)
        leaves = list(params.values())
        # move the trainable weights off their symmetric init (where the
        # normalized-average gradient vanishes identically) before building
        for weights in leaves:
            weights.data[:] = rng.uniform(0.5, 1.5, size=weights.data.shape)
        if method == "multichannel":
            wm = ad.Tensor(rng.uniform(0.4, 1.2, size=(cfg.grid.count, 2, 2)), requires_grad=True)
        else:
            wm = ad.Tensor(rng.uniform(0.4, 1.2, size=(1, 4, 4)), requires_grad=True)
        leaves.append(wm)
        container = emb.encode_arrange(wm, cfg, params, 1)
        prep = emb.decode_prepare(container, cfg)
        if method in ("stretch", "replicate", "w_replicate"):
            y = emb.decode_finalize(prep, cfg, params)
        elif method == "ws_replicate":
            y = emb.decode_finalize(take_rows(prep, 1), cfg, params)
        else:
            y = emb.decode_finalize(take_rows(prep, 3), cfg, params)
        return ad.sq_sum(y), leaves

    for seed in range(3):
        assert ad.grad_check(builder, seed) < 1e-4


def test_only_embeddings_and_costing_know_the_methods():
    # outside embeddings and costing's analytic counts no src module compares a method or names one;
    # PipelineConfig's default method is the one name allowed
    found = []
    for path in sorted(Path(emb.__file__).parent.glob("*.py")):
        if path.name in ("embeddings.py", "costing.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defaults = {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "method"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(getattr(side, "attr", None) == "method"
                                                     for side in [node.left, *node.comparators]):
                found.append(f"{path.name}:{node.lineno} compares a method")
            if isinstance(node, ast.Constant) and node.value in emb.METHODS and id(node) not in defaults:
                found.append(f"{path.name}:{node.lineno} names {node.value!r}")
    assert found == []
