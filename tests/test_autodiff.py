import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate

from conftest import assert_freed_by_refcount, block_sums_reshaped, conv2d_single_block
from stegowav import autodiff as ad
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


def test_leaky_relu_definition():
    y = ad.leaky_relu(ad.Tensor([-1.0, 2.0]), slope=0.2)
    assert np.allclose(y.data, [-0.2, 2.0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3), slope=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_leaky_relu_matches_where_oracle(shape, slope, seed):
    a = np.random.default_rng(seed).normal(size=shape)
    a.flat[0] = -0.0
    for s in (slope, 0.0, 1.0):
        assert ad.leaky_relu(ad.Tensor(a), s).data.tobytes() == np.where(a > 0, a, s * a).tobytes()


@pytest.mark.parametrize("slope", [-0.1, 1.5, np.nan])
def test_leaky_slope_outside_unit_interval_rejected(slope):
    x, kernel, bias = ad.Tensor(np.ones((1, 3, 3))), ad.Tensor(np.ones((1, 1, 3, 3))), ad.Tensor(np.zeros(1))
    with pytest.raises(ConfigError, match="slope"):
        ad.leaky_relu(x, slope)
    with pytest.raises(ConfigError, match="slope"):
        ad.conv2d(x, kernel, bias, slope)


def test_upsample_concat_rejects_mismatched_shapes():
    a = ad.Tensor(np.ones((2, 3, 4)))
    for skip in (np.ones((1, 6, 7)), np.ones((1, 3, 4)), np.ones((6, 8))):
        with pytest.raises(ConfigError, match="upsample_concat"):
            ad.upsample_concat(a, ad.Tensor(skip))
    with pytest.raises(ConfigError, match="upsample_concat"):
        ad.upsample_concat(ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones((1, 6, 8))))


def test_nearest_upsample2_blocks():
    y = ad.nearest_upsample2(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]))
    expect = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float)
    assert np.array_equal(y.data, expect)


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
        "mul": via(lambda x, r: ad.mul(x, ad.add(x, x))),
        "concat_depth": via(lambda x, r: ad.concat_depth([x, ad.scale(x, 0.3)])),
        "slice": via(lambda x, r: ad.add(ad.scale(x, 0.1),
                                         ad.concat_depth([ad.slice_axis(x, 0, 1), ad.slice_axis(x, 1, 2)]))),
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
        "leaky_relu": via(lambda x, r: ad.leaky_relu(x, 0.2)),
        "nearest_upsample2": via(lambda x, r: ad.nearest_upsample2(x)),
        "upsample_concat": via(lambda x, r: ad.upsample_concat(ad.avg_pool2(x), ad.scale(x, 0.5))),
        "avg_pool2": via(lambda x, r: ad.avg_pool2(x)),
        "mean": via(lambda x, r: ad.scale(ad.mean(x), 5.0)),
        "abs_sum": via(lambda x, r: ad.scale(ad.abs_sum(x), 0.25)),
        "sq_sum": via(lambda x, r: ad.scale(ad.sq_sum(x), 0.25)),
        "sqrt": via(lambda x, r: ad.sqrt(ad.add(ad.mul(x, x), ad.Tensor(np.full((2, 4, 4), 0.5))))),
        "recip": via(lambda x, r: ad.recip(ad.add(ad.mul(x, x), ad.Tensor(np.ones((2, 4, 4)))))),
        "weighted_sum": via(lambda x, r: ad.weighted_sum(
            [x, ad.mul(x, x)], [ad.Tensor(r.normal(), requires_grad=True),
                                ad.Tensor(r.normal(), requires_grad=True)])),
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
        y = ad.leaky_relu(ad.conv2d(x, k, b), 0.2)
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
    g = rng.normal(size=out.shape)
    # d/d(out) of size * mean(out * g) is exactly g
    ad.backward(ad.scale(ad.mean(ad.mul(out, ad.Tensor(g))), out.data.size))
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
    """Run conv2d (and its backward) in tiles of TILINGS[tiling] rows for inputs of `shape`."""
    _, h, w = shape
    rows = min(h, TILINGS[tiling](h))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_TILE_POSITIONS", rows * (w + k - 1))
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


def check_fused_matches_composed(build_fused, build_composed, arrays, g):
    """The fused op's value and the gradients of all its inputs have the bytes of the composed ops'."""
    results = []
    for build in (build_fused, build_composed):
        leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
        y = build(*leaves)
        # d/d(y) of size * mean(y * g) is exactly g
        ad.backward(ad.scale(ad.mean(ad.mul(y, ad.Tensor(g))), y.data.size))
        results.append([y.data] + [t.grad for t in leaves])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tiling", sorted(TILINGS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=conv_case(), slope=st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 1.0))
def test_conv2d_leaky_matches_leaky_relu_of_conv2d_in_row_tiles(tiling, case, slope):
    x, kernel, bias, rng = case
    g = rng.normal(size=(kernel.shape[0],) + x.shape[1:])
    with row_tiles(tiling, x.shape, kernel.shape[-1]):
        check_fused_matches_composed(lambda *t: ad.conv2d(*t, slope),
                                     lambda *t: ad.leaky_relu(ad.conv2d(*t), slope), (x, kernel, bias), g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=st.integers(1, 3), c_skip=st.integers(1, 3), h=st.integers(1, 5), w=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_upsample_concat_matches_concat_of_nearest_upsample2(c, c_skip, h, w, seed):
    rng = np.random.default_rng(seed)
    a, skip, g = (rng.normal(size=(n, f * h, f * w)) for n, f in ((c, 1), (c_skip, 2), (c + c_skip, 2)))
    assert ad.nearest_upsample2(a).data.tobytes() == np.repeat(np.repeat(a, 2, axis=-2), 2, axis=-1).tobytes()
    check_fused_matches_composed(ad.upsample_concat, lambda a, s: ad.concat_depth([ad.nearest_upsample2(a), s]),
                                 (a, skip), g)


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
    a = np.random.default_rng(10 * len(shape) + shape[-1]).normal(size=shape)
    expect = block_sums_reshaped(a)
    small = ad.Tensor(np.zeros(expect.shape), requires_grad=True)
    # d/d(up) of size * mean(up * a) is exactly a, so small.grad is a's block sums
    ad.backward(ad.scale(ad.mean(ad.mul(ad.nearest_upsample2(small), ad.Tensor(a))), a.size))
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
    taped = ad.leaky_relu(ad.conv2d(x, k, b), 0.2)
    with ad.no_grad():
        y = ad.leaky_relu(ad.conv2d(x, k, b), 0.2)
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
