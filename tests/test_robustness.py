import numpy as np
import pytest

from stegowav import autodiff as ad
from stegowav import dsp
from stegowav import embeddings as emb
from stegowav import imageops as iops
from stegowav import pipeline as pl
from stegowav import robustness as rob
from stegowav.errors import UsageError


def make_spec(t=32, f=16, seed=0):
    rng = np.random.default_rng(seed)
    cfg = dsp.StftConfig(2 * f, f // 2)
    return dsp.Spectrogram(rng.random((f, t)) + 0.1, rng.uniform(-3, 3, (f, t)),
                           cfg, "stft", 400, 8000)


def test_keep_all_is_bitwise_identity():
    spec = make_spec()
    out = rob.apply_frame_dropout(spec, rob.DropoutSpec(1.0))
    assert np.array_equal(out.magnitude, spec.magnitude)
    assert np.array_equal(out.phase, spec.phase)


def test_sequential_drops_trailing_half():
    spec = make_spec(t=32)
    out = rob.apply_frame_dropout(spec, rob.DropoutSpec(0.5, "sequential"))
    assert np.all(out.magnitude[:, 16:] == 0.0)
    assert np.array_equal(out.magnitude[:, :16], spec.magnitude[:, :16])
    assert np.array_equal(out.phase, spec.phase)  # phase untouched


def test_sequential_offset_configurable():
    spec = make_spec(t=32)
    out = rob.apply_frame_dropout(spec, rob.DropoutSpec(0.75, "sequential", offset=4))
    assert np.all(out.magnitude[:, 4:12] == 0.0)
    assert np.array_equal(out.magnitude[:, :4], spec.magnitude[:, :4])
    with pytest.raises(UsageError):
        rob.apply_frame_dropout(spec, rob.DropoutSpec(0.5, "sequential", offset=30))


def test_random_mode_seeded_and_counted():
    spec = make_spec(t=32)
    a = rob.apply_frame_dropout(spec, rob.DropoutSpec(0.75, "random", seed=3))
    b = rob.apply_frame_dropout(spec, rob.DropoutSpec(0.75, "random", seed=3))
    c = rob.apply_frame_dropout(spec, rob.DropoutSpec(0.75, "random", seed=4))
    assert np.array_equal(a.magnitude, b.magnitude)
    assert not np.array_equal(a.magnitude, c.magnitude)
    zero_cols = np.all(a.magnitude == 0.0, axis=0)
    assert zero_cols.sum() == 8  # round((1-0.75)*32)


def test_dropout_idempotent():
    spec = make_spec()
    d = rob.DropoutSpec(0.5, "random", seed=7)
    once = rob.apply_frame_dropout(spec, d)
    twice = rob.apply_frame_dropout(once, d)
    assert np.array_equal(once.magnitude, twice.magnitude)


def test_dropout_rejects_bad_fraction():
    with pytest.raises(UsageError):
        rob.DropoutSpec(0.0)
    with pytest.raises(UsageError):
        rob.DropoutSpec(1.5)
    with pytest.raises(UsageError):
        rob.DropoutSpec(0.5, "sideways")
    with pytest.raises(UsageError, match="seed.*-1"):
        rob.DropoutSpec(0.5, "random", -1)


@pytest.mark.parametrize("fraction,seed", [(0.5, -1), (0.0, 0)])
def test_sweep_rejects_a_bad_cell_before_embedding(fraction, seed, monkeypatch):
    bundle = pl.build_model(pl.PipelineConfig())
    pairs = pl.synth_dataset(2, cfg=bundle.cfg)
    monkeypatch.setattr(pl, "embed", lambda *args: pytest.fail("embedded before the check"))
    with pytest.raises(UsageError):
        rob.robustness_sweep(bundle, pairs, fractions=(1.0, fraction), modes=("random",), seed=seed)


def test_identity_stub_replica_time_erasure():
    # large plane grid (4 x 2): dropping frames entirely inside the first
    # time column halves those pixels' contribution under the replicate mean
    ctx = emb.make_context("replicate", (4, 4), True)
    rng = np.random.default_rng(1)
    wm = rng.random(ctx.plane_hw)
    container = iops.pack_grid_op(ad.Tensor(np.stack([wm] * ctx.grid.count)), ctx.grid).data
    t = ctx.container_shape[1]
    damaged = container.copy()
    cols = np.arange(0, 3)  # inside column block 0 (width t//2)
    assert cols.max() < t // 2
    damaged[:, cols] = 0.0
    merged = emb.decode_finalize(
        ad.reshape(ad.Tensor(damaged), (1,) + ctx.container_shape), ctx)
    expect = wm.copy()
    expect[:, :3] = wm[:, :3] / 2.0
    assert np.max(np.abs(merged.data - expect)) < 1e-9


@pytest.fixture(scope="module")
def trained_desk():
    cfg = pl.PipelineConfig(method="replicate", steps=40, batch=2, lr=5e-3, seed=0)
    pairs = pl.synth_dataset(4, cfg=cfg, seed=0)
    bundle, _ = pl.train(pairs, cfg)
    return bundle, pairs


def test_sweep_row_count_and_order(trained_desk):
    bundle, pairs = trained_desk
    rows = rob.robustness_sweep(bundle, pairs, fractions=(1.0, 0.5), modes=("sequential", "random"))
    assert len(rows) == 4
    assert [(r["mode"], r["keep_fraction"]) for r in rows] == [
        ("sequential", 1.0), ("sequential", 0.5), ("random", 1.0), ("random", 0.5)]
    csv = rob.sweep_to_csv(rows)
    assert csv.splitlines()[0] == rob.SWEEP_CSV_HEADER
    assert len(csv.splitlines()) == 5


def test_fraction_one_matches_no_attack_eval(trained_desk):
    bundle, pairs = trained_desk
    rows = rob.robustness_sweep(bundle, pairs, fractions=(1.0,), modes=("sequential",))
    from stegowav import metrics as me
    ssims, psnrs = [], []
    for pair in pairs:
        stego, _ = pl.embed(pair.secret, pair.cover, bundle)
        revealed = pl.reveal(stego, bundle)
        ssims.append(me.ssim(pair.secret, revealed))
        psnrs.append(me.psnr_db(pair.secret, revealed))
    assert abs(rows[0]["mean_ssim"] - np.mean(ssims)) < 1e-12
    assert abs(rows[0]["mean_psnr_db"] - np.mean(psnrs)) < 1e-12


def test_sweep_deterministic_across_runs(trained_desk):
    bundle, pairs = trained_desk
    r1 = rob.robustness_sweep(bundle, pairs, fractions=(0.5, 0.25), modes=("random",), seed=2)
    r2 = rob.robustness_sweep(bundle, pairs, fractions=(0.5, 0.25), modes=("random",), seed=2)
    assert r1 == r2


def test_sweep_embeds_each_pair_once(trained_desk, monkeypatch):
    bundle, pairs = trained_desk
    calls = []
    real_embed = pl.embed

    def counting_embed(*args):
        calls.append(1)
        return real_embed(*args)

    monkeypatch.setattr(pl, "embed", counting_embed)
    rows = rob.robustness_sweep(bundle, pairs, fractions=(1.0, 0.5), modes=rob.MODES)
    assert len(rows) == 4
    assert len(calls) == len(pairs)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("STEGOWAV_THREADS", "3")
    assert rob.worker_count() == 3
    monkeypatch.setenv("STEGOWAV_THREADS", "")
    assert rob.worker_count() >= 1


def test_worker_count_rejects_non_integer(monkeypatch):
    monkeypatch.setenv("STEGOWAV_THREADS", "two")
    with pytest.raises(UsageError, match="STEGOWAV_THREADS"):
        rob.worker_count()
