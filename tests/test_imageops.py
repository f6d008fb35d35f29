import numpy as np
import pytest

from stegowav import autodiff as ad
from stegowav import imageops as iops
from stegowav.errors import ConfigError, DataError

from conftest import pack, rgb_to_ycbcr, unpack, unshuffle, ycbcr_to_rgb


def test_ycbcr_gray_and_black():
    for v in (0.0, 0.3, 1.0):
        assert np.allclose(rgb_to_ycbcr(np.array([v, v, v])), [v, 0.5, 0.5], atol=1e-12)


def test_ycbcr_roundtrip_1000_pixels(rng):
    p = rng.random((3, 1000))
    back = ycbcr_to_rgb(rgb_to_ycbcr(p), clamp=False)
    assert np.max(np.abs(back - p)) < 1e-9


def test_shuffle_shapes_and_red_pixel():
    img = np.zeros((3, 1, 1))
    img[0] = 1.0
    cell = iops.shuffle_with_luma(img)
    assert np.allclose(cell, [[1.0, 0.0], [0.0, 0.299]], atol=1e-12)
    big = np.zeros((3, 256, 256))
    assert iops.shuffle_with_luma(big).shape == (512, 512)


def test_shuffle_gray_fixed_point():
    img = np.full((3, 4, 4), 0.5)
    plane = iops.shuffle_with_luma(img)
    assert np.allclose(plane, 0.5, atol=1e-12)
    assert np.allclose(unshuffle(plane), img, atol=1e-12)


def test_unshuffle_roundtrip_100_images():
    rng = np.random.default_rng(11)
    for _ in range(100):
        img = rng.random((3, 6, 6))
        back = unshuffle(iops.shuffle_with_luma(img))
        assert np.max(np.abs(back - img)) < 1e-9


def test_zero_pad_variant_ignores_fourth_slot(rng):
    img = rng.random((3, 5, 5))
    plane = iops.shuffle_with_luma(img, use_luma=False)
    assert np.all(plane[1::2, 1::2] == 0.0)
    plane[1::2, 1::2] = 0.77  # garbage in the pad slot must not matter
    back = unshuffle(plane, use_luma=False)
    assert np.max(np.abs(back - img)) < 1e-12


def test_shuffle_is_injective(rng):
    img = rng.random((3, 4, 4))
    other = img.copy()
    other[1, 2, 3] += 0.01
    assert not np.array_equal(iops.shuffle_with_luma(img), iops.shuffle_with_luma(other))


def test_single_cell_luma_perturbation(rng):
    # corrupting one received Y by +d moves only that pixel, by d/2 along
    # the luma direction (uniform RGB shift for the JPEG matrix)
    img = rng.random((3, 4, 4)) * 0.5 + 0.25
    plane = iops.shuffle_with_luma(img)
    delta = 0.1
    plane[1, 1] += delta  # Y slot of cell (0, 0)
    out = unshuffle(plane)
    diff = out - img
    expect = iops._YCBCR_INV @ np.array([delta / 2.0, 0.0, 0.0])
    assert np.allclose(diff[:, 0, 0], expect, atol=1e-12)
    assert np.allclose(expect, delta / 2.0)  # pure luma shift
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = False
    assert np.max(np.abs(diff[:, mask])) < 1e-12


def test_bilinear_identity_and_constant(rng):
    x = rng.random((6, 5))
    assert np.array_equal(iops.bilinear_resize_op(ad.Tensor(x), 6, 5).data, x)
    const = np.full((4, 7), 0.3)
    assert np.allclose(iops.bilinear_resize_op(ad.Tensor(const), 9, 3).data, 0.3, atol=1e-12)


def test_bilinear_up_down_smooth_error():
    # round-trip measurement oracle on Gaussian-filtered noise
    rng = np.random.default_rng(12)
    noise = rng.normal(size=(64, 64))
    k = np.exp(-0.5 * (np.arange(-6, 7) / 2.0) ** 2)
    k /= k.sum()
    smooth = np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), 1, noise)
    smooth = np.apply_along_axis(lambda c: np.convolve(c, k, mode="same"), 0, smooth)
    up = iops.bilinear_resize_op(ad.Tensor(smooth), 128, 64).data
    down = iops.bilinear_resize_op(ad.Tensor(up), 64, 64).data
    rel = np.linalg.norm(down - smooth) / np.linalg.norm(smooth)
    assert rel < 0.05


def test_bilinear_gradient():
    def builder(rng):
        t = ad.Tensor(rng.uniform(0.5, 1.5, size=(5, 4)), requires_grad=True)
        return ad.sq_sum(iops.bilinear_resize_op(t, 9, 7)), [t]

    assert ad.grad_check(builder, 0) < 1e-4


def test_unshuffle_op_matches_function_and_grad(rng):
    # oracle: received RGB to YCbCr, average the received Y slot into the
    # luma, back to RGB unclamped
    plane = rng.random((6, 6))
    ycc = rgb_to_ycbcr(np.stack([plane[0::2, 0::2], plane[0::2, 1::2], plane[1::2, 0::2]]))
    ycc[0] = (ycc[0] + plane[1::2, 1::2]) / 2.0
    assert np.allclose(unshuffle(plane), ycbcr_to_rgb(ycc, clamp=False), atol=1e-12)

    def builder(r):
        x = ad.Tensor(r.uniform(0.2, 0.8, size=(6, 6)), requires_grad=True)
        return ad.sq_sum(iops.unshuffle_op(x)), [x]

    assert ad.grad_check(builder, 1) < 1e-4


def test_pack_unpack_exact_partition(rng):
    grid = iops.ReplicaGrid(2, 1, 8, 8)
    reps = rng.random((2, 8, 8))
    container = pack(reps, grid)
    assert container.shape == (16, 8)
    back = unpack(container, grid)
    for a, b in zip(reps, back):
        assert np.array_equal(a, b)
    rebuilt = pack(back, grid)
    assert np.array_equal(rebuilt, container)


def test_paper_replica_counts():
    # 2 x (512 x 512) -> 1024 x 512 with replica 0 in the low-frequency half
    grid = iops.ReplicaGrid(*iops.plane_grid_shape(False), 512, 512)
    reps = np.stack([np.zeros((512, 512)), np.ones((512, 512))])
    container = pack(reps, grid)
    assert container.shape == (1024, 512)
    assert np.all(container[:512] == 0.0) and np.all(container[512:] == 1.0)
    # 8 x (256 x 256) in a 4 x 2 grid -> 1024 x 512
    grid8 = iops.ReplicaGrid(*iops.channel_grid_shape(False), 256, 256)
    container8 = pack(np.stack([np.full((256, 256), i) for i in range(8)]), grid8)
    assert container8.shape == (1024, 512)
    assert container8[0, 0] == 0 and container8[0, 256] == 1 and container8[768, 256] == 7


def test_pack_grid_shape_errors():
    grid = iops.ReplicaGrid(2, 1, 4, 4)
    with pytest.raises(ConfigError):
        pack(np.zeros((1, 4, 4)), grid)
    with pytest.raises(ConfigError):
        pack(np.zeros((2, 3, 4)), grid)
    with pytest.raises(ConfigError):
        unpack(np.zeros((9, 4)), grid)


def test_pack_unpack_ops_gradient():
    def builder(rng):
        grid = iops.ReplicaGrid(2, 1, 3, 4)
        t = ad.Tensor(rng.uniform(0.5, 1.5, size=(3, 4)), requires_grad=True)
        container = iops.pack_grid_op(ad.replicas(t, [1.0, 0.5]), grid)
        parts = iops.unpack_grid_op(container, grid)
        return ad.sq_sum(ad.merge(parts, [1.0, 1.0])), [t]

    assert ad.grad_check(builder, 2) < 1e-4


def test_ppm_roundtrip(tmp_path, rng):
    img = np.round(rng.random((3, 9, 7)) * 255.0) / 255.0
    path = tmp_path / "img.ppm"
    iops.write_ppm(img, path)
    back = iops.read_ppm(path)
    assert back.shape == img.shape
    assert np.array_equal(back, img)  # 8-bit-representable values are exact


def test_ppm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n....")
    with pytest.raises(DataError):
        iops.read_ppm(path)
    path.write_bytes(b"P6\n4 4\n255\nxx")
    with pytest.raises(DataError, match="truncated"):
        iops.read_ppm(path)
