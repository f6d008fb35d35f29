import contextlib
import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate

from conftest import (assert_freed_by_refcount, block_sums_reshaped, conv2d_single_block, inject, leaky_oracle,
                      upsample_concat_oracle)
from stegowav import autodiff as ad
from stegowav import embeddings as emb
from stegowav import pipeline as pl
from stegowav.errors import ConfigError, UsageError


def test_leaf_rejects_nonfinite():
    with pytest.raises(UsageError):
        ad.Tensor([1.0, np.nan])
    with pytest.raises(UsageError):
        ad.Tensor([np.inf])


def test_conv2d_identity_kernel():
    x = ad.Tensor(np.random.default_rng(0).random((2, 5, 5)))
    kernel = ad.Tensor(np.eye(2).reshape(2, 2, 1, 1))
    bias = ad.Tensor(np.zeros(2))
    y = ad.conv2d(x, kernel, bias)
    assert np.array_equal(y.data, x.data)


def test_conv2d_same_padding_preserves_extents():
    x = ad.Tensor(np.ones((1, 7, 9)))
    for k in (1, 3, 5):
        kernel = ad.Tensor(np.ones((4, 1, k, k)))
        y = ad.conv2d(x, kernel, ad.Tensor(np.zeros(4)))
        assert y.data.shape == (4, 7, 9)


def test_conv2d_shape_errors_name_operands():
    x = ad.Tensor(np.ones((2, 4, 4)))
    with pytest.raises(ConfigError, match="depth"):
        ad.conv2d(x, ad.Tensor(np.ones((1, 3, 3, 3))), ad.Tensor(np.zeros(1)))
    with pytest.raises(ConfigError, match="odd"):
        ad.conv2d(x, ad.Tensor(np.ones((1, 2, 2, 2))), ad.Tensor(np.zeros(1)))
    with pytest.raises(ConfigError, match="bias"):
        ad.conv2d(x, ad.Tensor(np.ones((1, 2, 3, 3))), ad.Tensor(np.zeros(2)))
    kernel = ad.Tensor(np.ones((1, 3, 3, 3)))  # 2 upsampled channels and a skip of 1
    for skip in ((8, 8), (1, 8, 6), (1, 6, 8), (2, 8, 8)):
        for record in (contextlib.nullcontext, ad.no_grad):
            with record(), pytest.raises(ConfigError, match=rf"\(2, 4, 4\), {re.escape(str(skip))}"):
                ad.conv2d(x, kernel, ad.Tensor(np.zeros(1)), skip=ad.Tensor(np.ones(skip)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5)), slope=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_leaky_relu_matches_where_oracle(shape, slope, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    unit = x[:1].copy()
    unit.flat[0] = -0.0
    # a 1x1 unit kernel with bias -0.0 passes its input through byte for byte, -0.0 included
    cases = [(x, rng.normal(size=(2, shape[0], 3, 3)), rng.normal(size=2)),
             (unit, np.ones((1, 1, 1, 1)), np.array([-0.0]))]
    assert ad.conv2d(*map(ad.Tensor, cases[1])).data.tobytes() == unit.tobytes()
    for s in (slope, 0.0, 1.0):
        for case in cases:
            z = ad.conv2d(*map(ad.Tensor, case)).data
            assert ad.conv2d(*map(ad.Tensor, case), s).data.tobytes() == np.where(z > 0, z, s * z).tobytes()


@pytest.mark.parametrize("slope", [-0.1, 1.5, np.nan])
def test_leaky_slope_outside_unit_interval_rejected(slope):
    x, kernel, bias = ad.Tensor(np.ones((1, 3, 3))), ad.Tensor(np.ones((1, 1, 3, 3))), ad.Tensor(np.zeros(1))
    with pytest.raises(ConfigError, match="slope"):
        ad.conv2d(x, kernel, bias, slope)


def test_upsample_concat_rejects_mismatched_shapes():
    a = ad.Tensor(np.ones((2, 3, 4)))
    for skip in (np.ones((1, 6, 7)), np.ones((1, 3, 4)), np.ones((6, 8))):
        with pytest.raises(ConfigError, match="upsample_concat"):
            ad.upsample_concat(a, ad.Tensor(skip))
    with pytest.raises(ConfigError, match="upsample_concat"):
        ad.upsample_concat(ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones((1, 6, 8))))


def test_backward_requires_scalar_root():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        ad.backward(ad.add(x, x))


def test_backward_simple_gradients():
    x = ad.Tensor([3.0], requires_grad=True)
    ad.backward(ad.sq_sum(x))
    assert np.allclose(x.grad, [6.0])

    y = ad.Tensor([-2.0, 5.0], requires_grad=True)
    ad.backward(ad.abs_sum(y))
    assert np.allclose(y.grad, [-1.0, 1.0])


def test_backward_twice_accumulates_exactly():
    x = ad.Tensor(np.arange(1.0, 5.0), requires_grad=True)
    root = ad.sq_sum(ad.scale(x, 0.5))
    ad.backward(root)
    once = x.grad.copy()
    ad.backward(root)
    assert np.array_equal(x.grad, 2.0 * once)


def test_shared_parent_accumulates():
    x = ad.Tensor([2.0], requires_grad=True)
    root = ad.sq_sum(ad.add(x, x))  # (2x)^2 -> d/dx = 8x
    ad.backward(root)
    assert np.allclose(x.grad, [16.0])


def test_backward_hands_a_non_leaf_its_gradient_uncopied():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    handed, seen = np.full(3, 2.0), []

    def inner_bwd(g, acc):
        seen.append(g)
        acc(x, g)

    inner = ad.register_op("probe_inner", (x,), lambda: x.data.copy(), inner_bwd)
    root = ad.register_op("probe_outer", (inner,), lambda: np.asarray(inner.data.sum()),
                          lambda g, acc: acc(inner, handed))
    ad.backward(root)
    assert len(seen) == 1 and seen[0] is handed
    assert np.array_equal(x.grad, handed) and not np.shares_memory(x.grad, handed)


def test_leaf_gradients_of_add_do_not_share_memory():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    y = ad.Tensor(np.ones(3), requires_grad=True)
    ad.backward(ad.sq_sum(ad.add(x, y)))
    assert np.array_equal(x.grad, np.full(3, 4.0)) and np.array_equal(y.grad, x.grad)
    assert not np.shares_memory(x.grad, y.grad)


def test_grad_check_linear_chain_is_exact():
    def builder(rng):
        x = ad.Tensor(rng.normal(size=12), requires_grad=True)
        y = ad.Tensor(rng.normal(size=12), requires_grad=True)
        return ad.mean(ad.add(x, y)), [x, y]

    assert ad.grad_check(builder, 0) < 1e-10


def test_grad_check_weighted_sum_bilinear():
    def builder(rng):
        a = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w1 = ad.Tensor(rng.normal(), requires_grad=True)
        w2 = ad.Tensor(rng.normal(), requires_grad=True)
        return ad.mean(ad.weighted_sum([a, b], [w1, w2])), [a, b, w1, w2]

    assert ad.grad_check(builder, 1) < 1e-10


def _op_builders():
    """One scalar-rooted graph per op kind, gradients kept O(1).

    Leaf magnitudes are bounded away from zero so the finite-difference
    reference never sinks into roundoff noise.
    """

    def via(fn):
        def builder(rng):
            mags = rng.uniform(0.6, 1.4, size=(2, 4, 4))
            signs = rng.choice([-1.0, 1.0], size=(2, 4, 4))
            x = ad.Tensor(mags * signs, requires_grad=True)
            return ad.sq_sum(fn(x, rng)), [x]
        return builder

    def with_weights(fn, count):
        """Like `via`, with a trainable (count,) weight vector as a checked leaf."""
        def builder(rng):
            w = ad.Tensor(rng.uniform(0.6, 1.4, size=count) * rng.choice([-1.0, 1.0], size=count),
                          requires_grad=True)
            root, leaves = via(lambda x, r: fn(x, w))(rng)
            return root, leaves + [w]
        return builder

    return {
        "add": via(lambda x, r: ad.add(x, ad.scale(x, 0.5))),
        "sub": via(lambda x, r: ad.sub(ad.scale(x, 2.0), x)),
        "scale": via(lambda x, r: ad.scale(x, -1.7)),
        "reshape": via(lambda x, r: ad.reshape(x, (4, 8))),
        "conv2d": via(lambda x, r: ad.conv2d(x, ad.Tensor(r.normal(size=(3, 2, 3, 3)) * 0.4, requires_grad=True),
                                             ad.Tensor(r.normal(size=3), requires_grad=True))),
        "conv2d_k5": via(lambda x, r: ad.conv2d(x, ad.Tensor(r.normal(size=(2, 2, 5, 5)) * 0.25, requires_grad=True),
                                                ad.Tensor(r.normal(size=2), requires_grad=True))),
        "conv2d_cin1": via(lambda x, r: ad.conv2d(ad.reshape(x, (1, 8, 4)),
                                                  ad.Tensor(r.normal(size=(3, 1, 3, 3)) * 0.6, requires_grad=True),
                                                  ad.Tensor(r.normal(size=3), requires_grad=True))),
        "conv2d_leaky": via(lambda x, r: ad.conv2d(x, ad.Tensor(r.normal(size=(3, 2, 3, 3)) * 0.4, requires_grad=True),
                                                   ad.Tensor(r.normal(size=3), requires_grad=True), 0.2)),
        "upsample_concat": via(lambda x, r: ad.upsample_concat(ad.avg_pool2(x), ad.scale(x, 0.5))),
        "avg_pool2": via(lambda x, r: ad.avg_pool2(x)),
        "mean": via(lambda x, r: ad.scale(ad.mean(x), 5.0)),
        "abs_sum": via(lambda x, r: ad.scale(ad.abs_sum(x), 0.25)),
        "sq_sum": via(lambda x, r: ad.scale(ad.sq_sum(x), 0.25)),
        "sqrt": via(lambda x, r: ad.sqrt(ad.add(ad.scale(x, 0.5), ad.Tensor(np.full((2, 4, 4), 1.2))))),
        "recip": via(lambda x, r: ad.recip(ad.add(ad.scale(x, 0.5), ad.Tensor(np.ones((2, 4, 4)))))),
        "weighted_sum": via(lambda x, r: ad.weighted_sum(
            [x, ad.sqrt(ad.add(x, ad.Tensor(np.full((2, 4, 4), 2.0))))],
            [ad.Tensor(r.normal(), requires_grad=True), ad.Tensor(r.normal(), requires_grad=True)])),
        "replicas": with_weights(ad.replicas, 3),
        "merge": with_weights(ad.merge, 2),
    }


@pytest.mark.parametrize("kind", sorted(_op_builders()))
def test_every_op_grad_checks_10_seeds(kind):
    builder = _op_builders()[kind]
    for seed in range(10):
        err = ad.grad_check(builder, seed)
        assert err < 1e-4, f"{kind} seed {seed}: {err}"


def test_grad_check_conv_chain():
    def builder(rng):
        x = ad.Tensor(rng.normal(size=(1, 6, 6)), requires_grad=True)
        k = ad.Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.5, requires_grad=True)
        b = ad.Tensor(rng.normal(size=2), requires_grad=True)
        y = ad.conv2d(x, k, b, 0.2)
        return ad.sq_sum(y), [x, k, b]

    assert ad.grad_check(builder, 0) < 1e-4


@st.composite
def conv_case(draw):
    """(x, kernel, bias, rng) with k in {1, 3, 5}, 1-4 channels each way and
    extents 1..9, so some inputs are smaller than the kernel."""
    k = draw(st.sampled_from([1, 3, 5]), label="k")
    cin, cout = draw(st.integers(1, 4), label="cin"), draw(st.integers(1, 4), label="cout")
    h, w = draw(st.integers(1, 9), label="h"), draw(st.integers(1, 9), label="w")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    return rng.normal(size=(cin, h, w)), rng.normal(size=(cout, cin, k, k)), rng.normal(size=cout), rng


def check_matches_scipy_correlate(x, kernel, bias):
    y = ad.conv2d(ad.Tensor(x), ad.Tensor(kernel), ad.Tensor(bias)).data
    expect = np.stack([bias[o] + sum(correlate(x[i], kernel[o, i], mode="same", method="direct")
                                     for i in range(x.shape[0]))
                       for o in range(kernel.shape[0])])
    assert y.shape == expect.shape
    assert np.max(np.abs(y - expect)) <= 1e-12
    return y


def check_adjoint_identities(x, kernel, bias, rng):
    xt, kt = ad.Tensor(x, requires_grad=True), ad.Tensor(kernel, requires_grad=True)
    bt = ad.Tensor(np.zeros_like(bias), requires_grad=True)
    out = ad.conv2d(xt, kt, bt)
    g = rng.normal(size=out.data.shape)
    ad.backward(inject(out, g))
    # with zero bias the conv is linear in x and in the kernel separately
    inner = np.sum(out.data * g)
    tol = 1e-12 * max(1.0, np.sum(np.abs(out.data * g)))
    assert abs(np.sum(x * xt.grad) - inner) <= tol
    assert abs(np.sum(kernel * kt.grad) - inner) <= tol
    assert np.allclose(bt.grad, g.sum(axis=(1, 2)), rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=conv_case())
def test_conv2d_matches_scipy_correlate(case):
    x, kernel, bias, _ = case
    y = check_matches_scipy_correlate(x, kernel, bias)
    # every case fits one row tile, which gives the bytes of the single-block formula
    assert np.array_equal(y, conv2d_single_block(x, kernel, bias))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=conv_case())
def test_conv2d_backward_adjoint_identities(case):
    check_adjoint_identities(*case)


# Rows per tile for an input of h rows: one row each, or a ragged last tile
# (any h >= 3 splits into a full tile and a shorter one).
TILINGS = {"one_row": lambda h: 1, "ragged": lambda h: h // 2 + 1}


@contextlib.contextmanager
def row_tiles(tiling, shape, k):
    """Run conv2d and its backward (the kernel gradient too) in tiles of TILINGS[tiling] rows for inputs of `shape`."""
    _, h, w = shape
    rows = min(h, TILINGS[tiling](h))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_TILE_POSITIONS", rows * (w + k - 1))
        mp.setattr(ad, "_GRAD_TILE_POSITIONS", rows * (w + k - 1))
        assert len(list(ad._row_tiles(np.zeros(shape), k))) == -(-h // rows)
        yield


@pytest.mark.parametrize("tiling", sorted(TILINGS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=conv_case())
def test_conv2d_matches_scipy_correlate_in_row_tiles(tiling, case):
    x, kernel, bias, _ = case
    with row_tiles(tiling, x.shape, kernel.shape[-1]):
        check_matches_scipy_correlate(x, kernel, bias)


@pytest.mark.parametrize("tiling", sorted(TILINGS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=conv_case())
def test_conv2d_adjoint_identities_in_row_tiles(tiling, case):
    x, kernel, _, _ = case
    with row_tiles(tiling, x.shape, kernel.shape[-1]):
        check_adjoint_identities(*case)


def fused_and_oracle(build_fused, build_oracle, arrays, g):
    """[value, gradient of each input] of the fused op and of its oracle, both fed the upstream gradient g."""
    results = []
    for build in (build_fused, build_oracle):
        leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
        y = build(*leaves)
        ad.backward(inject(y, g))
        results.append([y.data] + [t.grad for t in leaves])
    return results


@pytest.mark.parametrize("tiling", sorted(TILINGS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=conv_case(), slope=st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 1.0))
def test_conv2d_leaky_matches_leaky_relu_of_conv2d_in_row_tiles(tiling, case, slope):
    x, kernel, bias, rng = case
    g = rng.normal(size=(kernel.shape[0],) + x.shape[1:])
    with row_tiles(tiling, x.shape, kernel.shape[-1]):
        fused, oracle = fused_and_oracle(lambda *t: ad.conv2d(*t, slope),
                                         lambda *t: leaky_oracle(ad.conv2d(*t), slope), (x, kernel, bias), g)
    for got, want in zip(fused, oracle):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=st.integers(1, 3), c_skip=st.integers(1, 3), h=st.integers(1, 5), w=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_upsample_concat_matches_concat_of_nearest_upsample2(c, c_skip, h, w, seed):
    rng = np.random.default_rng(seed)
    a, skip, g = (rng.normal(size=(n, f * h, f * w)) for n, f in ((c, 1), (c_skip, 2), (c + c_skip, 2)))
    fused, oracle = fused_and_oracle(ad.upsample_concat, upsample_concat_oracle, (a, skip), g)
    for i, (got, want) in enumerate(zip(fused, oracle)):
        assert got.shape == want.shape
        if i == 1 and w == 1:
            # a's gradient at upsampled width 2: the reshape-sum adds the pairs in
            # another order, so it is held relative to the block sums of |g|
            # (a block of four O(1) values can sum to nearly 0)
            assert np.all(np.abs(got - want) <= 1e-15 * block_sums_reshaped(np.abs(g[:c])))
        else:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("samples", [1, 4])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("slope", [None, 0.2])
@pytest.mark.parametrize("tile_rows", [None, 1, 2, 3])  # None: whole-sample tiles
def test_conv2d_skip_without_a_tape_equals_conv2d_of_upsample_concat(samples, k, slope, tile_rows, monkeypatch):
    if tile_rows:  # several tiles per sample, some of whose halos start on an odd upsampled row
        monkeypatch.setattr(ad, "_TILE_POSITIONS", tile_rows * (8 + k - 1))
        monkeypatch.setattr(ad, "_TILE_FLOATS", 1)
    rng = np.random.default_rng(10 * samples + k)
    x, skip = rng.normal(size=(3, samples * 5, 4)), rng.normal(size=(2, samples * 10, 8))
    kernel, bias = rng.normal(size=(4, 5, k, k)), rng.normal(size=4)
    tiles = len(list(ad._row_tiles(np.zeros((5, samples * 10, 8)), k, samples, 4)))
    assert tiles == (samples * -(-10 // tile_rows) if tile_rows else 1)
    with ad.no_grad():
        fused = ad.conv2d(x, kernel, bias, slope, samples, skip).data
        want = ad.conv2d(ad.upsample_concat(x, skip), kernel, bias, slope, samples).data
    assert fused.shape == want.shape and fused.tobytes() == want.tobytes()


def test_conv2d_skip_on_a_tape_records_upsample_concat():
    rng = np.random.default_rng(3)
    arrays = rng.normal(size=(3, 6, 4)), rng.normal(size=(2, 12, 8)), rng.normal(size=(4, 5, 3, 3)), rng.normal(size=4)
    g = rng.normal(size=(4, 12, 8))
    fused, oracle = fused_and_oracle(lambda x, s, k, b: ad.conv2d(x, k, b, 0.2, 2, s),
                                     lambda x, s, k, b: ad.conv2d(ad.upsample_concat(x, s), k, b, 0.2, 2), arrays, g)
    for got, want in zip(fused, oracle):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    x, skip, kernel, bias = map(ad.Tensor, arrays)
    parents = ad.conv2d(x, kernel, bias, 0.2, 2, skip)._parents
    assert parents[0].op == "upsample_concat" and parents[1:] == (kernel, bias)


# (samples, skip rows per sample, skip width): whole samples in one tile; rows of one sample in several tiles;
# one-row tiles, shorter than a 5x5 kernel's 2 halo rows (_TILE_POSITIONS // (4096 + 4) <= 1)
OUT_CASES = {"whole": (3, 8, 8), "rows": (1, 64, 512), "narrow": (1, 8, 4096)}


@pytest.mark.parametrize("case", sorted(OUT_CASES))
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_out_over_its_skip_gives_the_bytes_of_the_allocating_call(case, k):
    samples, h, w = OUT_CASES[case]
    rng = np.random.default_rng(k)
    x, skip = rng.normal(size=(3, samples * h // 2, w // 2)), rng.normal(size=(2, samples * h, w))
    kernel, bias = rng.normal(size=(2, 5, k, k)), rng.normal(size=2)
    rows = [r for r, *_ in ad._row_tiles(x, k, samples, 2, skip)]
    assert len(rows) == (1 if case == "whole" else -(-h // max(1, ad._TILE_POSITIONS // (w + k - 1)))) \
        > (case != "whole")
    assert (rows[0].stop - rows[0].start < k // 2) == (case == "narrow" and k == 5)
    before = skip.copy()
    with ad.no_grad():
        want = ad.conv2d(x, kernel, bias, 0.2, samples, skip).data
        assert skip.tobytes() == before.tobytes()  # no out: the skip is only read
        got = ad.conv2d(x, kernel, bias, 0.2, samples, skip, out=skip).data
    assert got is skip and got.tobytes() == want.tobytes()


# the no-tape forward runs as each U-Net conv does: plain, with its leaky ReLU, as a decoder conv (writing over its
# skip or not) and as dec0 with the linear head
TILE_VARIANTS = {"plain": {}, "slope": {"slope": 0.2}, "skip": {"slope": 0.2, "skip": True},
                 "out": {"slope": 0.2, "skip": True, "out": True}, "head": {"slope": 0.2, "skip": True, "head": True}}


@pytest.mark.parametrize("variant", sorted(TILE_VARIANTS))
@pytest.mark.parametrize("k", [1, 3, 5])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=st.sampled_from([1, 2, 8, 16]), cout=st.sampled_from([1, 3, 8]), samples=st.integers(1, 2),
       h=st.integers(8, 20), w=st.integers(260, 600), seed=st.integers(0, 2 ** 32 - 1))
def test_conv2d_without_a_tape_gives_the_same_bytes_at_every_tile_size(variant, k, c, cout, samples, h, w, seed):
    opts = TILE_VARIANTS[variant]
    rng = np.random.default_rng(seed)
    f = 2 if opts.get("skip") else 1  # a skip doubles the output extents over x's
    x = rng.normal(size=(c, samples * h, w))
    skip = rng.normal(size=(cout, samples * f * h, f * w)) if opts.get("skip") else None
    kernel, bias = rng.normal(size=(cout, c + (0 if skip is None else cout), k, k)), rng.normal(size=cout)
    head = (rng.normal(size=(2, cout, 1, 1)), rng.normal(size=2)) if opts.get("head") else None
    got = {}
    for positions in (2048, 3072, 4096, 8192):
        with pytest.MonkeyPatch.context() as mp, ad.no_grad():
            mp.setattr(ad, "_TILE_POSITIONS", positions)
            mp.setattr(ad, "_TILE_FLOATS", 1)  # rows of one sample per tile, so the tile size decides
            dst = None if skip is None else skip.copy()  # out= writes over it
            tiles = len(list(ad._row_tiles(x, k, samples, cout, dst)))
            y = ad.conv2d(x, kernel, bias, opts.get("slope"), samples, dst, head,
                          out=dst if opts.get("out") else None).data
            got[positions] = (tiles, y.tobytes())
    assert got[2048][0] > got[8192][0] >= samples
    assert len({y for _, y in got.values()}) == 1


def test_conv2d_out_is_refused_on_a_tape_or_in_another_shape():
    rng = np.random.default_rng(4)
    x, skip = ad.Tensor(rng.normal(size=(3, 4, 4))), rng.normal(size=(2, 8, 8))
    kernel, bias, head = ad.Tensor(rng.normal(size=(2, 5, 3, 3))), ad.Tensor(np.zeros(2)), (np.ones((1, 2, 1, 1)), [0.0])
    for kwargs in ({}, {"head": head}):
        with pytest.raises(ConfigError, match="no tape"):
            ad.conv2d(x, kernel, bias, 0.2, 1, skip, out=skip, **kwargs)
    with ad.no_grad():
        for out in (np.zeros((2, 8, 4)), skip.T, skip.astype(np.float32), skip[:, ::2, ::2]):
            with pytest.raises(ConfigError, match=re.escape("(2, 8, 8)")):
                ad.conv2d(x, kernel, bias, 0.2, 1, skip, out=out)
        with pytest.raises(ConfigError, match=re.escape("(1, 8, 8)")):
            ad.conv2d(x, kernel, bias, 0.2, 1, skip, head, out=skip)
        assert ad.conv2d(x, kernel, bias, 0.2, 1, skip, head, out=np.zeros((1, 8, 8))).data.shape == (1, 8, 8)


@pytest.mark.parametrize("tiling", [None] + sorted(TILINGS))  # None: the default tiles, whole samples here
@settings(max_examples=100, deadline=None, derandomize=True)
@given(cout=st.integers(1, 4), heads=st.integers(1, 3), k=st.sampled_from([1, 3]), samples=st.integers(1, 3),
       with_skip=st.booleans(), slope=st.sampled_from([None, 0.2]), c=st.integers(1, 3), h=st.integers(1, 4),
       w=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_conv2d_head_equals_a_1x1_conv2d_of_its_output(tiling, cout, heads, k, samples, with_skip, slope, c, h, w,
                                                         seed):
    rng = np.random.default_rng(seed)
    f = 2 if with_skip else 1  # a skip doubles the output extents over x's
    arrays = [rng.normal(size=(c, samples * h, w)), rng.normal(size=(cout, c + with_skip, k, k)),
              rng.normal(size=cout), rng.normal(size=(heads, cout, 1, 1)), rng.normal(size=heads)]
    arrays += [rng.normal(size=(1, samples * f * h, f * w))] if with_skip else []
    g = rng.normal(size=(heads, samples * f * h, f * w))

    def fused(x, kernel, bias, head_w, head_b, *skip):
        return ad.conv2d(x, kernel, bias, slope, samples, *skip, head=(head_w, head_b))

    def separate(x, kernel, bias, head_w, head_b, *skip):
        return ad.conv2d(ad.conv2d(x, kernel, bias, slope, samples, *skip), head_w, head_b, samples=samples)

    with pytest.MonkeyPatch.context() as mp:
        if tiling:  # tiles of TILINGS[tiling] rows of one sample
            for name in ("_TILE_POSITIONS", "_GRAD_TILE_POSITIONS"):
                mp.setattr(ad, name, min(f * h, TILINGS[tiling](f * h)) * (f * w + k - 1))
            mp.setattr(ad, "_TILE_FLOATS", 1)
        with ad.no_grad():
            got, want = (build(*map(ad.Tensor, arrays)).data for build in (fused, separate))
        # byte for byte although a head tile's columns sit at other offsets than a 1x1 conv's: every tile
        # product is rounded up to a multiple of 8 columns, so BLAS rounds each column alike
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # on a tape the head is a second conv2d node, with the gradients of the two calls
        for got, want in zip(*fused_and_oracle(fused, separate, arrays, g)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        leaves = list(map(ad.Tensor, arrays))
        y = fused(*leaves)
        assert y.op == y._parents[0].op == "conv2d" and y._parents[1:] == tuple(leaves[3:5])
        assert y._parents[0]._parents[1:3] == tuple(leaves[1:3])


def test_conv2d_head_shapes_are_checked():
    x, kernel, bias = ad.Tensor(np.ones((2, 4, 4))), ad.Tensor(np.ones((3, 2, 3, 3))), ad.Tensor(np.zeros(3))
    for head in ((np.ones((1, 3, 1, 1)),), (np.ones((1, 2, 1, 1)), np.zeros(1)), (np.ones((1, 3, 3, 3)), np.zeros(1)),
                 (np.ones((2, 3, 1, 1)), np.zeros(1)), (np.ones((1, 3, 1, 1)), np.zeros(()))):
        for record in (contextlib.nullcontext, ad.no_grad):
            with record(), pytest.raises(ConfigError, match=r"head wants \(C_h, 3, 1, 1\) and \(C_h,\), got \["):
                ad.conv2d(x, kernel, bias, 0.2, head=head)


def test_conv2d_leaky_graph_freed_by_refcount():
    rng = np.random.default_rng(0)
    x, kernel, bias = (ad.Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, 5, 4), (3, 2, 3, 3), (3,)))
    assert_freed_by_refcount(lambda: ad.sq_sum(ad.conv2d(x, kernel, bias, 0.2)))


@pytest.mark.parametrize("tiling", sorted(TILINGS))
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("cin,cout", [(1, 3), (2, 1), (2, 3)])
def test_conv2d_grad_checks_in_row_tiles(tiling, k, cin, cout):
    def builder(rng):
        x = ad.Tensor(rng.uniform(0.6, 1.4, size=(cin, 5, 4)) * rng.choice([-1.0, 1.0], size=(cin, 5, 4)),
                      requires_grad=True)
        kernel = ad.Tensor(rng.normal(size=(cout, cin, k, k)) / k, requires_grad=True)
        bias = ad.Tensor(rng.normal(size=cout), requires_grad=True)
        return ad.sq_sum(ad.conv2d(x, kernel, bias)), [x, kernel, bias]

    with row_tiles(tiling, (cin, 5, 4), k):
        for seed in range(3):
            err = ad.grad_check(builder, seed)
            assert err < 1e-4, f"seed {seed}: {err}"


@pytest.mark.parametrize("cin,cout,k,h,w", [(1, 8, 3, 64, 32), (8, 16, 3, 32, 16), (24, 8, 3, 64, 32),
                                            (48, 16, 3, 32, 16), (8, 1, 1, 64, 32)])
def test_conv2d_desk_layers_fit_one_tile_and_match_single_block_oracle(cin, cout, k, h, w):
    rng = np.random.default_rng(cin * cout)
    x, kernel, bias = rng.normal(size=(cin, h, w)), rng.normal(size=(cout, cin, k, k)), rng.normal(size=cout)
    assert len(list(ad._row_tiles(x, k))) == 1
    y = ad.conv2d(ad.Tensor(x), ad.Tensor(kernel), ad.Tensor(bias)).data
    assert np.array_equal(y, conv2d_single_block(x, kernel, bias))


def conv_value_and_grads(x, kernel, bias, slope, g, samples=1):
    leaves = [ad.Tensor(a, requires_grad=True) for a in (x, kernel, bias)]
    y = ad.conv2d(*leaves, slope, samples)
    ad.backward(inject(y, g))
    return [y.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("cin,cout,k,h,w", [(1, 8, 3, 64, 32), (8, 16, 3, 32, 16), (48, 16, 3, 32, 16),
                                            (24, 8, 3, 64, 32), (8, 1, 1, 64, 32), (2, 3, 5, 3, 4)])
@pytest.mark.parametrize("samples", [2, 3, 4])
@pytest.mark.parametrize("one_row_tiles", [False, True])
def test_stacked_conv2d_equals_per_sample_calls(cin, cout, k, h, w, samples, one_row_tiles, monkeypatch):
    if one_row_tiles:  # several tiles per sample: each sample's first tile must not see the one before
        monkeypatch.setattr(ad, "_TILE_POSITIONS", w + k - 1)
        monkeypatch.setattr(ad, "_GRAD_TILE_POSITIONS", w + k - 1)
        monkeypatch.setattr(ad, "_TILE_FLOATS", 1)
    rng = np.random.default_rng(cin * cout + samples)
    xs, gs = rng.normal(size=(samples, cin, h, w)), rng.normal(size=(samples, cout, h, w))
    kernel, bias = rng.normal(size=(cout, cin, k, k)), rng.normal(size=cout)
    stacked = conv_value_and_grads(np.concatenate(xs, axis=1), kernel, bias, 0.2, np.concatenate(gs, axis=1),
                                   samples)
    each = [conv_value_and_grads(x, kernel, bias, 0.2, g) for x, g in zip(xs, gs)]
    # outputs and input gradients stack along the rows; kernel and bias gradients add up
    want = [np.concatenate([e[i] for e in each], axis=1) for i in (0, 1)] + [sum(e[i] for e in each) for i in (2, 3)]
    per_sample = len(list(ad._row_tiles(np.zeros((cin, samples * h, w)), k, samples, cout))) >= samples
    if per_sample:
        assert stacked[0].tobytes() == want[0].tobytes()
    for got, expect in zip(stacked, want):
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("floats", [1, 10 ** 9])  # a tile per sample, or every sample in one tile
@pytest.mark.parametrize("k", [3, 5])
def test_stacked_conv2d_grad_checks_with_taps_across_samples(floats, k, monkeypatch):
    monkeypatch.setattr(ad, "_TILE_FLOATS", floats)

    def builder(rng):
        # 3 rows per sample: a 5x5 kernel's taps reach past both edges of a sample
        x = ad.Tensor(rng.uniform(0.6, 1.4, size=(2, 6, 4)) * rng.choice([-1.0, 1.0], size=(2, 6, 4)),
                      requires_grad=True)
        kernel = ad.Tensor(rng.normal(size=(3, 2, k, k)) / k, requires_grad=True)
        bias = ad.Tensor(rng.normal(size=3), requires_grad=True)
        return ad.sq_sum(ad.conv2d(x, kernel, bias, 0.2, samples=2)), [x, kernel, bias]

    assert len(list(ad._row_tiles(np.zeros((2, 6, 4)), k, 2, 3))) == (1 if floats > 1 else 2)
    for seed in range(3):
        assert ad.grad_check(builder, seed) < 1e-4


def test_conv2d_peak_memory_is_tile_sized():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(24, 256, 128)), requires_grad=True)
    kernel = ad.Tensor(rng.normal(size=(8, 24, 3, 3)), requires_grad=True)
    bias = ad.Tensor(rng.normal(size=8), requires_grad=True)
    tracemalloc.start()
    try:
        ad.backward(ad.sq_sum(ad.conv2d(x, kernel, bias)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A single-block conv (a padded copy of the whole input, 6.5 MiB, and
    # whole-input product buffers) peaks at 30.6 MiB here; row tiles peak at
    # 18.2 MiB, most of it x.grad (6 MiB) and its copy in the tape's accumulator.
    assert peak < 22 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("shape", [(3, 4, 2), (2, 2, 2), (6, 2), (5, 4, 4), (3, 8, 6), (2, 64, 32), (16, 8)])
def test_pool_and_upsample_adjoint_match_reshape_sum_oracle(shape):
    rng = np.random.default_rng(10 * len(shape) + shape[-1])
    a = rng.normal(size=shape)
    expect = block_sums_reshaped(a)
    # upsample_concat hands the upsampled channels' gradient, here a, to its
    # low-resolution input as 2x2 block sums
    small = ad.Tensor(np.zeros(expect.shape), requires_grad=True)
    h, w = shape[-2:]
    skip = ad.Tensor(np.zeros((1, h, w)), requires_grad=True)
    g_skip = rng.normal(size=(1, h, w))
    ad.backward(inject(ad.upsample_concat(ad.reshape(small, (-1, h // 2, w // 2)), skip),
                       np.concatenate([a.reshape(-1, h, w), g_skip])))
    assert skip.grad.tobytes() == g_skip.tobytes()
    # and avg_pool2's backward fills each 2x2 block with a quarter of its gradient
    g_pool = rng.normal(size=expect.shape)
    x = ad.Tensor(a, requires_grad=True)
    ad.backward(inject(ad.avg_pool2(x), g_pool))
    assert x.grad.tobytes() == np.repeat(np.repeat(g_pool * 0.25, 2, axis=-2), 2, axis=-1).tobytes()
    for got, want in ((ad.avg_pool2(ad.Tensor(a)).data, expect / 4), (small.grad, expect)):
        if shape[-1] >= 4:
            assert np.array_equal(got, want)
        else:  # width 2: numpy sums the pairs in another order
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15


def test_no_grad_records_no_tape():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    k = ad.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=3), requires_grad=True)
    taped = ad.conv2d(x, k, b, 0.2)
    with ad.no_grad():
        y = ad.conv2d(x, k, b, 0.2)
    assert not y.requires_grad and y.is_leaf()
    assert y._parents == () and y._forward is None and y._backward is None
    assert np.array_equal(y.data, taped.data)
    assert taped.requires_grad and taped._parents
    ad.backward(ad.sq_sum(y))
    assert x.grad is None and k.grad is None


def test_no_grad_restored_after_exception():
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ConfigError):
        with ad.no_grad():
            ad.add(x, ad.Tensor(np.ones(3)))
    root = ad.sq_sum(x)
    assert root.requires_grad and root._parents
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert not ad.sq_sum(x).requires_grad
    assert ad.sq_sum(x).requires_grad


# tape machinery, not ops: nothing records these
TAPE_MACHINERY = {"no_grad", "register_op", "backward", "replay_forward", "grad_check"}


def test_every_autodiff_op_is_recorded_by_a_pipeline_graph():
    configs = [pl.PipelineConfig(method=m) for m in emb.METHODS]
    configs.append(pl.PipelineConfig(transform="stft", container="dual"))
    recorded = set()
    for cfg in configs:
        total, _ = pl._sample_loss(pl.build_model(cfg), pl.synth_dataset(1, cfg=cfg))
        recorded |= {node.op for node in ad._topo(total, grad_only=False)}
    ops = {name for name, fn in vars(ad).items()
           if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")}
    assert ops - TAPE_MACHINERY - recorded == set()
