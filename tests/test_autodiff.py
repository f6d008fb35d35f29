import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate

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
        "leaky_relu": via(lambda x, r: ad.leaky_relu(x, 0.2)),
        "nearest_upsample2": via(lambda x, r: ad.nearest_upsample2(x)),
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=conv_case())
def test_conv2d_matches_scipy_correlate(case):
    x, kernel, bias, _ = case
    y = ad.conv2d(ad.Tensor(x), ad.Tensor(kernel), ad.Tensor(bias)).data
    expect = np.stack([bias[o] + sum(correlate(x[i], kernel[o, i], mode="same", method="direct")
                                     for i in range(x.shape[0]))
                       for o in range(kernel.shape[0])])
    assert y.shape == expect.shape
    assert np.max(np.abs(y - expect)) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=conv_case())
def test_conv2d_backward_adjoint_identities(case):
    x, kernel, bias, rng = case
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
