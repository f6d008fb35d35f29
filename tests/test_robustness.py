from dataclasses import replace

import numpy as np
import pytest

from stegowav import autodiff as ad
from stegowav import dsp
from stegowav import embeddings as emb
from stegowav import imageops as iops
from stegowav import metrics as me
from stegowav import networks as nets
from stegowav import pipeline as pl
from stegowav import robustness as rob
from stegowav.errors import UsageError

from conftest import unshuffle


def make_spec(t=32, f=16, seed=0):
    rng = np.random.default_rng(seed)
    cfg = dsp.StftConfig(2 * f, f // 2)
    return dsp.Spectrogram(rng.random((f, t)) + 0.1, rng.uniform(-3, 3, (f, t)),
                           cfg, 400, 8000)


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
    assert np.all(out.phase[:, 16:] == 0.0)
    assert np.array_equal(out.phase[:, :16], spec.phase[:, :16])


def test_dropout_reaches_a_model_that_reads_phase():
    # an erased frame reads phase 0 too, so a phase model's attacked rows move off its fraction-1.0 row
    cfg = pl.PipelineConfig(transform="stft", container="phase", seed=3)
    rows = rob.robustness_sweep(pl.build_model(cfg), pl.synth_dataset(2, cfg=cfg), fractions=(1.0, 0.5, 0.125))
    scores = [(r["mean_ssim"], r["mean_psnr_db"]) for r in rows]
    kept = [score for score, r in zip(scores, rows) if r["keep_fraction"] == 1.0]
    assert len(set(kept)) == 1
    assert all(score != kept[0] for score, r in zip(scores, rows) if r["keep_fraction"] < 1.0)


def test_random_mode_seeded_and_counted():
    spec = make_spec(t=32)
    a = rob.apply_frame_dropout(spec, rob.DropoutSpec(0.75, "random", seed=3))
    b = rob.apply_frame_dropout(spec, rob.DropoutSpec(0.75, "random", seed=3))
    c = rob.apply_frame_dropout(spec, rob.DropoutSpec(0.75, "random", seed=4))
    assert np.array_equal(a.magnitude, b.magnitude)
    assert not np.array_equal(a.magnitude, c.magnitude)
    zero_cols = np.all(a.magnitude == 0.0, axis=0)
    assert zero_cols.sum() == 8  # round((1-0.75)*32)


def test_dropout_erases_a_frame_across_the_stack():
    singles = [make_spec(seed=seed) for seed in range(3)]
    stack = replace(singles[0], magnitude=np.stack([s.magnitude for s in singles]),
                    phase=np.stack([s.phase for s in singles]))
    drop = rob.DropoutSpec(0.75, "random", seed=5)
    out = rob.apply_frame_dropout(stack, drop)
    for i, single in enumerate(singles):
        want = rob.apply_frame_dropout(single, drop)
        assert np.array_equal(out.magnitude[i], want.magnitude) and np.array_equal(out.phase[i], want.phase)
    assert np.all(out.magnitude == 0.0, axis=(0, 1)).sum() == 8  # the same 8 frames in every pair


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


@pytest.mark.parametrize("fractions,modes", [((), ("random",)), ((0.5,), ())])
def test_sweep_without_cells_is_rejected_before_embedding(fractions, modes, monkeypatch):
    bundle = pl.build_model(pl.PipelineConfig())
    pairs = pl.synth_dataset(1, cfg=bundle.cfg)
    monkeypatch.setattr(pl, "embed", lambda *args: pytest.fail("embedded before the check"))
    with pytest.raises(UsageError, match="no cells"):
        rob.robustness_sweep(bundle, pairs, fractions=fractions, modes=modes)


def test_sweep_rejects_an_empty_dataset_before_embedding(monkeypatch):
    bundle = pl.build_model(pl.PipelineConfig())
    monkeypatch.setattr(pl, "embed", lambda *args: pytest.fail("embedded before the check"))
    with pytest.raises(UsageError, match="empty dataset"):
        rob.robustness_sweep(bundle, [])


@pytest.mark.parametrize("run", [pl.evaluate, rob.robustness_sweep])
def test_every_pair_is_checked_with_its_index_before_the_first_embed(run, monkeypatch):
    bundle = pl.build_model(pl.PipelineConfig())
    pairs = pl.synth_dataset(4, cfg=bundle.cfg)
    pairs[3] = pl.SamplePair(pairs[3].secret, dsp.Waveform(pairs[3].cover.samples, 44100))
    monkeypatch.setattr(pl, "embed", lambda *args: pytest.fail("embedded before the check"))
    with pytest.raises(UsageError, match=r"pair 3: cover is sampled at 44100 Hz; this model requires 16000 Hz"):
        run(bundle, pairs)


@pytest.mark.parametrize("run", [pl.evaluate, rob.robustness_sweep])
def test_a_stacked_cover_is_rejected_with_its_pair_index_before_the_first_embed(run, monkeypatch):
    bundle = pl.build_model(pl.PipelineConfig())
    pairs = pl.synth_dataset(4, cfg=bundle.cfg)
    pairs[2] = pl.SamplePair(pairs[2].secret, dsp.Waveform(np.stack([pairs[2].cover.samples] * 3), 16000))
    monkeypatch.setattr(pl, "embed", lambda *args: pytest.fail("embedded before the check"))
    with pytest.raises(UsageError, match=rf"pair 2: cover has shape \(3, {bundle.cfg.required_samples()}\)"):
        run(bundle, pairs)


def test_a_cell_reveals_in_chunks_and_embeds_each_pair_once(monkeypatch):
    bundle = pl.build_model(pl.PipelineConfig())
    pairs = pl.synth_dataset(16, cfg=bundle.cfg)
    calls = {"embed": 0, "reveal": 0}
    embed, unet_forward = pl.embed, nets.unet_forward

    def counting_embed(*args):
        calls["embed"] += 1
        return embed(*args)

    def counting_unet_forward(cfg, params, x, prefix, samples=1):
        calls["reveal"] += prefix == "reveal"
        return unet_forward(cfg, params, x, prefix, samples)

    monkeypatch.setattr(pl, "embed", counting_embed)
    monkeypatch.setattr(nets, "unet_forward", counting_unet_forward)
    rows = rob.robustness_sweep(bundle, pairs, fractions=(0.5,), modes=("random",))
    per_chunk = pl._CHUNK_FLOATS // int(np.prod(bundle.cfg.grid.container_shape))
    assert len(rows) == 1 and per_chunk == 8
    assert calls == {"embed": 16, "reveal": -(-16 // per_chunk)}


def test_cells_that_drop_the_same_frames_reveal_once(monkeypatch):
    bundle = pl.build_model(pl.PipelineConfig())
    pairs, fractions, seed = pl.synth_dataset(4, cfg=bundle.cfg), (1.0, 0.5), 3
    _, spec, _ = pl.stego_spectrograms(bundle, pairs, "test")
    drops = [rob.DropoutSpec(fraction, mode, seed) for mode in rob.MODES for fraction in fractions]
    expected = [rob._sweep_cell(bundle, spec, drop) for drop in drops]
    reveals, dumped = [], []
    unet_forward = nets.unet_forward

    def counting_unet_forward(cfg, params, x, prefix, samples=1):
        reveals.append(prefix == "reveal")
        return unet_forward(cfg, params, x, prefix, samples)

    monkeypatch.setattr(nets, "unet_forward", counting_unet_forward)
    rows = rob.robustness_sweep(bundle, pairs, fractions, rob.MODES, seed, on_cell=lambda *cell: dumped.append(cell))
    assert sum(reveals) == 3  # four cells of one chunk each; both fraction-1.0 cells keep every frame
    assert [(mode, fraction) for mode, fraction, _ in dumped] == [(d.mode, d.keep_fraction) for d in drops]
    assert all(got.tobytes() == want.tobytes() for (_, _, got), want in zip(dumped, expected))
    secrets = np.stack([pair.secret for pair in pairs])
    assert [(row["mean_ssim"], row["mean_psnr_db"]) for row in rows] == [
        (float(np.mean(me.ssim(secrets, want))), float(np.mean([me.psnr_db(s, i) for s, i in zip(secrets, want)])))
        for want in expected]


def test_identity_stub_replica_time_erasure():
    # large plane grid (4 x 2): dropping frames entirely inside the first
    # time column halves those pixels' contribution under the replicate mean
    cfg = pl.PipelineConfig(image=4, large=True)
    rng = np.random.default_rng(1)
    wm = rng.random((8, 8))
    container = iops.pack_grid_op(ad.Tensor(np.stack([wm] * cfg.grid.count)), cfg.grid).data
    t = cfg.grid.container_shape[1]
    damaged = container.copy()
    cols = np.arange(0, 3)  # inside column block 0 (width t//2)
    assert cols.max() < t // 2
    damaged[:, cols] = 0.0
    merged = emb.decode_finalize(
        ad.reshape(ad.Tensor(damaged), (1,) + cfg.grid.container_shape), cfg, {})
    expect = wm.copy()
    expect[:, :3] = wm[:, :3] / 2.0
    assert np.max(np.abs(merged.data - unshuffle(expect))) < 1e-9


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
    csv = me.csv_table(rob.SWEEP_CSV_HEADER, rows)
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


@pytest.mark.parametrize("cfg", [None, pl.PipelineConfig(transform="stft", container="dual", seed=1)],
                         ids=["trained_replicate", "stft_dual_two_chunks"])
def test_fraction_one_rows_are_evaluates_scores_exactly(trained_desk, cfg):
    bundle, pairs = trained_desk if cfg is None else (pl.build_model(cfg), pl.synth_dataset(5, cfg=cfg))
    row = pl.evaluate(bundle, pairs)
    kept = [r for r in rob.robustness_sweep(bundle, pairs, fractions=(1.0, 0.5)) if r["keep_fraction"] == 1.0]
    assert len(kept) == len(rob.MODES)
    assert all((r["mean_ssim"], r["mean_psnr_db"]) == (row["ssim"], row["psnr_db"]) for r in kept)


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
