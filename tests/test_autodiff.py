import numpy as np
import pytest

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
