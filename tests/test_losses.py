import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegowav import autodiff as ad
from stegowav import losses as lo
from stegowav import pipeline as pl
from stegowav.errors import ConfigError, UsageError

from conftest import _sdtw_backward, _sdtw_forward, hard_dtw, peak_bytes


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


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_soft_dtw_rejects_nonfinite_gamma(gamma):
    with pytest.raises(UsageError, match="finite"):
        lo.soft_dtw(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(4)), gamma)


@st.composite
def sdtw_case(draw, batch=1, gamma=None):
    """(x, y, gamma) with n, m in 1..48 (n != m included) and gamma in [0.01, 5] unless given;
    half the cases draw from a coarse grid, so minima tie and differences are 0."""
    n, m = draw(st.integers(1, 48), label="n"), draw(st.integers(1, 48), label="m")
    gamma = draw(st.floats(0.01, 5.0), label="gamma") if gamma is None else gamma
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if draw(st.booleans(), label="grid"):
        return rng.integers(-2, 3, size=(batch, n)) / 2.0, rng.integers(-2, 3, size=(batch, m)) / 2.0, gamma
    return rng.normal(size=(batch, n)), rng.normal(size=(batch, m)), gamma


def assert_matches_oracle(x, y, gamma):
    r = _sdtw_forward(x, y, gamma)
    e = _sdtw_backward(x, y, gamma, r)
    diff = x[:, None] - y[None, :]
    xt, yt = ad.Tensor(x, requires_grad=True), ad.Tensor(y, requires_grad=True)
    value = lo.soft_dtw(xt, yt, gamma)
    ad.backward(value)
    assert np.asarray(value.data).tobytes() == r[x.size, y.size].tobytes()
    assert xt.grad.tobytes() == (2.0 * (e * diff).sum(axis=1)).tobytes()
    assert yt.grad.tobytes() == (-2.0 * (e * diff).sum(axis=0)).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=sdtw_case())
def test_soft_dtw_bytes_match_square_table_oracle(case):
    (x,), (y,), gamma = case
    assert_matches_oracle(x, y, gamma)


@pytest.mark.parametrize("n, m", [(150, 70), (70, 150), (130, 1), (1, 130), (200, 200)])
def test_soft_dtw_bytes_match_oracle_past_one_gradient_tile(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    assert_matches_oracle(rng.normal(size=n), rng.normal(size=m), 0.3)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=sdtw_case(batch=4))
def test_soft_dtw_batch_equals_its_rows(case):
    x, y, gamma = case
    table, values = lo._sdtw_forward(x, y, gamma)
    grads = lo._sdtw_backward(x, y, gamma, table)
    for b in range(len(x)):
        table_b, value_b = lo._sdtw_forward(x[b:b + 1], y[b:b + 1], gamma)
        assert values[b].tobytes() == value_b[0].tobytes()
        for batched, row in zip(grads, lo._sdtw_backward(x[b:b + 1], y[b:b + 1], gamma, table_b)):
            assert batched[b].tobytes() == row[0].tobytes()


def assert_batch_matches_oracle(x, y, gamma):
    """The batched kernel's values and gradient sums equal the square-table oracle's row by row,
    and the forward that keeps no table gives the same values."""
    table, values = lo._sdtw_forward(x, y, gamma)
    gx, gy = lo._sdtw_backward(x, y, gamma, table)
    assert lo._sdtw_forward(x, y, gamma, keep=False)[1].tobytes() == values.tobytes()
    for b in range(len(x)):
        r = _sdtw_forward(x[b], y[b], gamma)
        weighted = _sdtw_backward(x[b], y[b], gamma, r) * (x[b][:, None] - y[b][None, :])
        assert values[b].tobytes() == r[-1, -1].tobytes()
        assert gx[b].tobytes() == weighted.sum(axis=1).tobytes()
        assert gy[b].tobytes() == weighted.sum(axis=0).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=sdtw_case(batch=4, gamma=1.0))
def test_soft_dtw_gamma_one_bytes_match_square_table_oracle(case):
    # gamma = 1 skips the kernel's divisions and products by gamma
    assert_batch_matches_oracle(*case)


@pytest.mark.parametrize("gamma", [1.0, 0.3])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 9), (9, 1), (5, 17), (17, 5)])
@pytest.mark.parametrize("grid", [False, True])
def test_soft_dtw_edge_shapes_match_oracle_with_and_without_table(n, m, grid, gamma):
    rng = np.random.default_rng(n * 100 + m)
    draw = (lambda size: rng.integers(-2, 3, size=size) / 2.0) if grid else (lambda size: rng.normal(size=size))
    assert_batch_matches_oracle(draw((4, n)), draw((4, m)), gamma)


def test_soft_dtw_backward_twice_accumulates_exactly():
    rng = np.random.default_rng(6)
    x, y = ad.Tensor(rng.normal(size=9), requires_grad=True), ad.Tensor(rng.normal(size=7))
    value = lo.soft_dtw(x, y, 0.5)
    ad.backward(value)
    once = x.grad.copy()
    ad.backward(value)  # the first backward overwrote the DP tables with E
    assert np.array_equal(x.grad, once + once)


def test_soft_dtw_peak_memory_is_bounded():
    rng = np.random.default_rng(7)
    x, y = ad.Tensor(rng.normal(size=1024), requires_grad=True), ad.Tensor(rng.normal(size=1024))
    # one 1,024-sample forward + backward: the square-table DP peaked at
    # 32.2 MiB; skewed (2n+1) x (n+1) r and E tables alone would take 32 MiB
    assert peak_bytes(lambda: ad.backward(lo.soft_dtw(x, y, 1.0))) <= 34 * 2 ** 20


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
        assert abs(sdtw_value(x, y, 0.001) - hard_dtw(x, y)) < 1e-3


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


SDTW = pl.PipelineConfig(wave_loss="soft_dtw")


def test_soft_dtw_chunking_matches_manual_sum():
    rng = np.random.default_rng(5)
    x = rng.normal(size=5000)
    y = x + 0.01 * rng.normal(size=5000)
    xt = ad.Tensor(x, requires_grad=True)
    chunked = lo.waveform_term(SDTW, xt, ad.Tensor(y))
    ad.backward(chunked)
    total = float(chunked.data)
    manual = sum(sdtw_value(x[s:s + 1024], y[s:s + 1024], 1.0) for s in range(0, 5000, 1024))
    assert abs(total - manual) < 1e-12
    assert total == manual
    pieces = [ad.Tensor(x[s:s + 1024], requires_grad=True) for s in range(0, 5000, 1024)]
    for s, piece in zip(range(0, 5000, 1024), pieces):
        ad.backward(lo.soft_dtw(piece, ad.Tensor(y[s:s + 1024]), 1.0))
    assert np.array_equal(xt.grad, np.concatenate([piece.grad for piece in pieces]))
    # short inputs bypass chunking
    short = float(lo.waveform_term(SDTW, ad.Tensor(x[:100]), ad.Tensor(y[:100])).data)
    assert abs(short - sdtw_value(x[:100], y[:100], 1.0)) < 1e-12


def _recorded_ops(monkeypatch):
    """The tape nodes made from now on, in order."""
    made, node = [], ad._node

    def recording_node(*args):
        made.append(node(*args))
        return made[-1]

    monkeypatch.setattr(ad, "_node", recording_node)
    return made


def test_soft_dtw_chunked_records_one_node(monkeypatch):
    rng = np.random.default_rng(8)
    x, y = ad.Tensor(rng.normal(size=5000), requires_grad=True), ad.Tensor(rng.normal(size=5000))
    made = _recorded_ops(monkeypatch)
    total = lo.waveform_term(SDTW, x, y)
    assert [t.op for t in made] == ["soft_dtw"] and total._parents == (x, y)


def test_waveform_term_is_l1_on_two_planes(monkeypatch):
    rng = np.random.default_rng(10)
    w, w2 = ad.Tensor(rng.normal(size=(2, 300)), requires_grad=True), ad.Tensor(rng.normal(size=(2, 300)))
    made = _recorded_ops(monkeypatch)
    dual = lo.waveform_term(pl.PipelineConfig(transform="stft", container="dual", wave_loss="soft_dtw"), w, w2)
    assert "soft_dtw" not in [t.op for t in made]
    assert dual.data.tobytes() == lo.l1(w, w2, -1).data.tobytes()
    made.clear()
    lo.waveform_term(SDTW, w, w2)
    assert [t.op for t in made].count("soft_dtw") == 1


def test_waveform_term_rejects_unequal_shapes():
    for cfg in (pl.PipelineConfig(), SDTW):
        with pytest.raises(ConfigError, match="shapes differ"):
            lo.waveform_term(cfg, np.zeros(10), np.zeros(12))


def test_soft_dtw_chunked_inference_keeps_no_tables():
    rng = np.random.default_rng(9)
    x, y = ad.Tensor(rng.normal(size=10000)), ad.Tensor(rng.normal(size=10000))

    def run():
        with ad.no_grad():
            lo.waveform_term(SDTW, x, y)

    # ten chunks: kept DP tables would take 77 MiB; the per-chunk square-table
    # DP peaked at 16.1 MiB, the one scratch row reads 0.8 MiB
    assert peak_bytes(run) <= 4 * 2 ** 20


def _zero_args(planes):
    s = ad.Tensor(np.full((3, 4, 4), 0.4))
    w = ad.Tensor(np.linspace(-0.5, 0.5, 32))
    m = ad.Tensor(np.ones((6, 6)))
    p = ad.Tensor(np.zeros((6, 6)))
    pairs = {"magnitude": (m, m), "phase": (p, p)}
    return (s, s, w, w, {plane: pairs[plane] for plane in planes})


def test_composite_zero_when_all_equal():
    for planes in (("magnitude",), ("phase",), ("magnitude", "phase")):
        total, terms = lo.composite_loss(pl.PipelineConfig(), *_zero_args(planes))
        assert float(total.data) == 0.0
        assert all(v == 0.0 for v in terms.values())


def test_composite_soft_dtw_identical_waveforms_documented_bound():
    total, _ = lo.composite_loss(SDTW, *_zero_args(("magnitude",)))
    assert float(total.data) <= 0.0
    assert abs(float(total.data)) < 1e-6 or float(total.data) < 0.0  # softmin slack only


def test_composite_beta_one_lambda_zero_reduces_to_image_l1(rng):
    s = ad.Tensor(rng.random((3, 4, 4)))
    s2 = ad.Tensor(rng.random((3, 4, 4)))
    w = ad.Tensor(rng.normal(size=30))
    m = ad.Tensor(rng.random((6, 6)))
    m2 = ad.Tensor(rng.random((6, 6)))
    cfg = pl.PipelineConfig(beta=1.0, lam=0.0)
    total, _ = lo.composite_loss(cfg, s, s2, w, w, {"magnitude": (m, m2)})
    assert abs(float(total.data) - float(lo.l1(s, s2).data)) < 1e-15


def test_composite_dual_theta_zero_drops_phase_term(rng):
    s, s2 = ad.Tensor(rng.random((3, 4, 4))), ad.Tensor(rng.random((3, 4, 4)))
    w, w2 = ad.Tensor(rng.normal(size=30)), ad.Tensor(rng.normal(size=30))
    m, m2 = ad.Tensor(rng.random((6, 6))), ad.Tensor(rng.random((6, 6)))
    p, p2 = ad.Tensor(rng.random((6, 6))), ad.Tensor(rng.random((6, 6)))
    cfg = pl.PipelineConfig(theta=0.0)
    total_dual, _ = lo.composite_loss(cfg, s, s2, w, w2, {"magnitude": (m, m2), "phase": (p, p2)})
    total_single, _ = lo.composite_loss(cfg, s, s2, w, w2, {"magnitude": (m, m2)})
    assert abs(float(total_dual.data) - float(total_single.data)) < 1e-12


def test_composite_terms_follow_the_planes(rng):
    s = ad.Tensor(rng.random((3, 4, 4)))
    w = ad.Tensor(rng.normal(size=30))
    a, b = ad.Tensor(rng.random((6, 6))), ad.Tensor(rng.random((6, 6)))
    dist = float(lo.l2(a, b).data)
    _, terms = lo.composite_loss(pl.PipelineConfig(), s, s, w, w, {"phase": (a, b)})
    assert terms["phase_l2"] == dist and terms["mag_l2"] == 0.0
    _, terms = lo.composite_loss(pl.PipelineConfig(), s, s, w, w, {"magnitude": (a, b)})
    assert terms["mag_l2"] == dist and terms["phase_l2"] == 0.0
    for planes in ({}, {"colour": (a, b)}):
        with pytest.raises(UsageError):
            lo.composite_loss(pl.PipelineConfig(), s, s, w, w, planes)


def test_composite_monotone_in_each_term(rng):
    s = ad.Tensor(rng.random((3, 4, 4)))
    w = ad.Tensor(rng.normal(size=30))
    m = ad.Tensor(rng.random((6, 6)))
    cfg = pl.PipelineConfig()
    base, _ = lo.composite_loss(cfg, s, s, w, w, {"magnitude": (m, m)})
    worse_img, _ = lo.composite_loss(cfg, s, ad.scale(s, 0.5), w, w, {"magnitude": (m, m)})
    worse_wav, _ = lo.composite_loss(cfg, s, s, w, ad.scale(w, 0.5), {"magnitude": (m, m)})
    worse_mag, _ = lo.composite_loss(cfg, s, s, w, w, {"magnitude": (m, ad.scale(m, 0.5))})
    assert float(base.data) == 0.0
    assert float(worse_img.data) > 0 and float(worse_wav.data) > 0 and float(worse_mag.data) > 0
