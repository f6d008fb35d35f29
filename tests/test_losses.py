import numpy as np
import pytest

from stegowav import autodiff as ad
from stegowav import losses as lo
from stegowav.errors import ConfigError, UsageError


def brute_force_soft_dtw(x, y, gamma):
    """Enumerate every monotone alignment path; -gamma*logsumexp(-cost/gamma)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n, m = x.size, y.size
    d = (x[:, None] - y[None, :]) ** 2
    costs = []

    def walk(i, j, acc):
        acc = acc + d[i, j]
        if i == n - 1 and j == m - 1:
            costs.append(acc)
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    costs = np.asarray(costs)
    low = costs.min()
    return float(low - gamma * np.log(np.exp(-(costs - low) / gamma).sum()))


def sdtw_value(x, y, gamma):
    return float(lo.soft_dtw(ad.Tensor(x), ad.Tensor(y), gamma).data)


def test_l1_l2_arithmetic():
    x = ad.Tensor([1.0, 2.0])
    assert float(lo.l1(x, x).data) == 0.0
    assert float(lo.l1(ad.Tensor([0.0, 0.0]), ad.Tensor([1.0, 3.0])).data) == 2.0
    assert float(lo.l2(ad.Tensor([0.0]), ad.Tensor([3.0])).data) == 3.0


def test_soft_dtw_rejects_bad_input():
    with pytest.raises(UsageError):
        lo.soft_dtw(ad.Tensor(np.zeros(0)), ad.Tensor(np.ones(3)), 1.0)
    with pytest.raises(UsageError):
        lo.soft_dtw(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(3)), 0.0)


def test_soft_dtw_matches_brute_force_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n, m = rng.integers(1, 7, size=2)
        x, y = rng.normal(size=n), rng.normal(size=m)
        for gamma in (0.1, 1.0, 3.0):
            assert abs(sdtw_value(x, y, gamma) - brute_force_soft_dtw(x, y, gamma)) < 1e-9


def test_soft_dtw_small_gamma_approaches_hard_dtw():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x, y = rng.normal(size=9), rng.normal(size=11)
        assert abs(sdtw_value(x, y, 0.001) - lo.hard_dtw(x, y)) < 1e-3


def test_soft_dtw_self_is_nonpositive():
    rng = np.random.default_rng(2)
    for length in (2, 5, 16):
        x = rng.normal(size=length)
        for gamma in (0.1, 1.0):
            assert sdtw_value(x, x, gamma) <= 0.0


def test_soft_dtw_symmetric():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=7), rng.normal(size=12)
    assert abs(sdtw_value(x, y, 0.7) - sdtw_value(y, x, 0.7)) < 1e-12


def test_soft_dtw_monotone_in_gamma():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y = rng.normal(size=10), rng.normal(size=10)
        values = [sdtw_value(x, y, g) for g in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_soft_dtw_gradient_fd():
    for seed in range(10):
        for gamma in (0.1, 1.0):
            def builder(rng, gamma=gamma):
                n = int(rng.integers(8, 17))
                m = int(rng.integers(8, 17))
                x = ad.Tensor(rng.normal(size=n), requires_grad=True)
                y = ad.Tensor(rng.normal(size=m), requires_grad=True)
                return lo.soft_dtw(x, y, gamma), [x, y]

            assert ad.grad_check(builder, seed) < 1e-4


def test_soft_dtw_chunking_matches_manual_sum():
    rng = np.random.default_rng(5)
    x = rng.normal(size=5000)
    y = x + 0.01 * rng.normal(size=5000)
    total = float(lo.soft_dtw_chunked(ad.Tensor(x), ad.Tensor(y), 1.0).data)
    manual = sum(sdtw_value(x[s:s + 1024], y[s:s + 1024], 1.0) for s in range(0, 5000, 1024))
    assert abs(total - manual) < 1e-12
    # short inputs bypass chunking
    short = float(lo.soft_dtw_chunked(ad.Tensor(x[:100]), ad.Tensor(y[:100]), 1.0).data)
    assert abs(short - sdtw_value(x[:100], y[:100], 1.0)) < 1e-12


def _zero_args(planes):
    s = ad.Tensor(np.full((3, 4, 4), 0.4))
    w = ad.Tensor(np.linspace(-0.5, 0.5, 32))
    m = ad.Tensor(np.ones((6, 6)))
    p = ad.Tensor(np.zeros((6, 6)))
    pairs = {"magnitude": (m, m), "phase": (p, p)}
    return (s, s, w, w, {plane: pairs[plane] for plane in planes})


def test_composite_zero_when_all_equal():
    for planes in (("magnitude",), ("phase",), ("magnitude", "phase")):
        total, terms = lo.composite_loss(lo.LossConfig(), *_zero_args(planes))
        assert float(total.data) == 0.0
        assert all(v == 0.0 for v in terms.values())


def test_composite_soft_dtw_identical_waveforms_documented_bound():
    cfg = lo.LossConfig(waveform_loss="soft_dtw", gamma=1.0)
    total, _ = lo.composite_loss(cfg, *_zero_args(("magnitude",)))
    assert float(total.data) <= 0.0
    assert abs(float(total.data)) < 1e-6 or float(total.data) < 0.0  # softmin slack only


def test_composite_beta_one_lambda_zero_reduces_to_image_l1(rng):
    s = ad.Tensor(rng.random((3, 4, 4)))
    s2 = ad.Tensor(rng.random((3, 4, 4)))
    w = ad.Tensor(rng.normal(size=30))
    m = ad.Tensor(rng.random((6, 6)))
    m2 = ad.Tensor(rng.random((6, 6)))
    cfg = lo.LossConfig(beta=1.0, lam=0.0)
    total, _ = lo.composite_loss(cfg, s, s2, w, w, {"magnitude": (m, m2)})
    assert abs(float(total.data) - float(lo.l1(s, s2).data)) < 1e-15


def test_composite_dual_theta_zero_drops_phase_term(rng):
    s, s2 = ad.Tensor(rng.random((3, 4, 4))), ad.Tensor(rng.random((3, 4, 4)))
    w, w2 = ad.Tensor(rng.normal(size=30)), ad.Tensor(rng.normal(size=30))
    m, m2 = ad.Tensor(rng.random((6, 6))), ad.Tensor(rng.random((6, 6)))
    p, p2 = ad.Tensor(rng.random((6, 6))), ad.Tensor(rng.random((6, 6)))
    cfg = lo.LossConfig(theta=0.0)
    total_dual, _ = lo.composite_loss(cfg, s, s2, w, w2, {"magnitude": (m, m2), "phase": (p, p2)})
    total_single, _ = lo.composite_loss(cfg, s, s2, w, w2, {"magnitude": (m, m2)})
    assert abs(float(total_dual.data) - float(total_single.data)) < 1e-12


def test_composite_terms_follow_the_planes(rng):
    s = ad.Tensor(rng.random((3, 4, 4)))
    w = ad.Tensor(rng.normal(size=30))
    a, b = ad.Tensor(rng.random((6, 6))), ad.Tensor(rng.random((6, 6)))
    dist = float(lo.l2(a, b).data)
    _, terms = lo.composite_loss(lo.LossConfig(), s, s, w, w, {"phase": (a, b)})
    assert terms["phase_l2"] == dist and terms["mag_l2"] == 0.0
    _, terms = lo.composite_loss(lo.LossConfig(), s, s, w, w, {"magnitude": (a, b)})
    assert terms["mag_l2"] == dist and terms["phase_l2"] == 0.0
    for planes in ({}, {"colour": (a, b)}):
        with pytest.raises(UsageError):
            lo.composite_loss(lo.LossConfig(), s, s, w, w, planes)


def test_composite_monotone_in_each_term(rng):
    s = ad.Tensor(rng.random((3, 4, 4)))
    w = ad.Tensor(rng.normal(size=30))
    m = ad.Tensor(rng.random((6, 6)))
    cfg = lo.LossConfig()
    base, _ = lo.composite_loss(cfg, s, s, w, w, {"magnitude": (m, m)})
    worse_img, _ = lo.composite_loss(cfg, s, ad.scale(s, 0.5), w, w, {"magnitude": (m, m)})
    worse_wav, _ = lo.composite_loss(cfg, s, s, w, ad.scale(w, 0.5), {"magnitude": (m, m)})
    worse_mag, _ = lo.composite_loss(cfg, s, s, w, w, {"magnitude": (m, ad.scale(m, 0.5))})
    assert float(base.data) == 0.0
    assert float(worse_img.data) > 0 and float(worse_wav.data) > 0 and float(worse_mag.data) > 0


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        lo.LossConfig(beta=1.5)
    with pytest.raises(ConfigError):
        lo.LossConfig(lam=-1.0)
    with pytest.raises(ConfigError):
        lo.LossConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        lo.LossConfig(waveform_loss="l7")
