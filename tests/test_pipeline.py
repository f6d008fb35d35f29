import contextlib
import re
import struct
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from stegowav import autodiff as ad
from stegowav import dsp
from stegowav import embeddings as emb
from stegowav import losses as lo
from stegowav import metrics as me
from stegowav import pipeline as pl
from stegowav import wavio
from stegowav.errors import ConfigError, DataError, NumericError, UsageError

DESK = pl.PipelineConfig(steps=5, batch=2)


def tiny_pairs(cfg, n=3, seed=0):
    return pl.synth_dataset(n, cfg=cfg, seed=seed)


def zeroed(bundle):
    for t in bundle.params.values():
        t.data = np.zeros_like(t.data)
    return bundle


# -- configuration ----------------------------------------------------------

def test_config_geometry_desk():
    cfg = pl.PipelineConfig()
    assert cfg.transform == "stdct"
    assert cfg.frame_length() == 64 and cfg.hop_length() == 32
    assert cfg.grid.container_shape == (64, 32)
    stft = pl.PipelineConfig(transform="stft")
    assert stft.frame_length() == 128 and stft.hop_length() == 32
    assert stft.grid.container_shape == (64, 32)


def test_config_rejects_inconsistencies():
    with pytest.raises(ConfigError):
        pl.PipelineConfig(transform="stdct", container="phase")
    with pytest.raises(ConfigError):
        pl.PipelineConfig(transform="stdct", container="dual")
    with pytest.raises(ConfigError):
        pl.PipelineConfig(frame=100)
    with pytest.raises(ConfigError):
        pl.PipelineConfig(method="sideways")
    for bad in (dict(wave_loss="l3"), dict(wave_loss="l7"), dict(beta=2.0), dict(beta=1.5),
                dict(lam=-1.0), dict(theta=1.5),
                dict(gamma=0.0), dict(sample_rate=-5), dict(sample_rate=0), dict(seed=-1),
                dict(lr=float("nan")), dict(lr=-1e-3), dict(lr=float("inf")),
                dict(adam_beta1=1.5), dict(adam_beta1=1.0), dict(adam_beta2=-0.1),
                dict(adam_eps=0.0), dict(adam_eps=float("inf")), dict(lam=float("inf")),
                dict(gamma=float("nan"))):
        with pytest.raises(ConfigError):
            pl.PipelineConfig(**bad)
    for gamma in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ConfigError, match="finite"):
            pl.PipelineConfig(wave_loss="soft_dtw", gamma=gamma)
    # the edges the training tests rely on stay legal
    pl.PipelineConfig(lr=0.0)
    pl.PipelineConfig(lr=1e150)


@pytest.mark.parametrize("overrides,message", [
    (dict(image=6), r"image extents 6x6 not divisible by 2\^2"),
    (dict(depth=5), r"image extents 16x16 not divisible by 2\^5"),
    (dict(kernel=2), "kernel must be odd"),
    (dict(channels=0), "channels must be >= 1"),
    (dict(depth=0), "depth must be >= 1")])
def test_config_rejects_what_no_model_can_be_built_from(overrides, message):
    with pytest.raises(ConfigError, match=message):
        pl.PipelineConfig(**overrides)


def test_bundle_holds_cfg_and_params_and_reads_geometry_from_cfg(monkeypatch):
    cfg = pl.PipelineConfig(method="ws_replicate", large=True)
    bundle = pl.build_model(cfg)
    assert [f.name for f in fields(pl.ModelBundle)] == ["cfg", "params"]
    assert bundle.cfg.grid is cfg.grid and cfg.grid == emb.replica_grid("ws_replicate", 16, True)
    assert bundle.cfg.unets == emb.net_depths(cfg, cfg.grid.count)
    # the geometry was derived once, when the config was made
    monkeypatch.setattr(emb, "replica_grid", lambda *args: pytest.fail("geometry derived again"))
    monkeypatch.setattr(emb, "net_depths", lambda *args: pytest.fail("U-Net configs derived again"))
    pair = tiny_pairs(cfg, 1)[0]
    stego, _ = pl.embed(pair.secret, pair.cover, bundle)
    assert pl.reveal(stego, bundle).shape == (3, 16, 16)
    assert cfg.required_samples() == len(stego) and cfg.frame_length() == cfg.grid.container_shape[0]


def test_config_text_roundtrip_and_rejection():
    cfg = pl.PipelineConfig(method="ws_replicate", beta=0.8, lam=0.5, seed=3)
    text = pl.config_to_text(cfg)
    assert pl.parse_config_text(text) == cfg
    assert pl.config_to_text(pl.parse_config_text(text)) == text
    with pytest.raises(UsageError, match="unknown key"):
        pl.parse_config_text("unknown_key=4")
    with pytest.raises(UsageError, match="bad value"):
        pl.parse_config_text("beta=soup")
    # comments and blank lines are fine; overrides merge over a base
    merged = pl.parse_config_text("# comment\n\nbeta=0.9\n", base=cfg)
    assert merged.beta == 0.9 and merged.method == "ws_replicate"


def test_paper_shape_profile():
    cfg = pl.profile_config("paper_shape")
    assert cfg.grid.container_shape == (1024, 512)
    assert cfg.image == 256 and cfg.sample_rate == 44100
    with pytest.raises(UsageError):
        pl.profile_config("galaxy")


# -- embed / reveal ---------------------------------------------------------

def test_zero_hide_net_gives_transform_roundtrip():
    bundle = zeroed(pl.build_model(DESK))
    pair = tiny_pairs(DESK, 1)[0]
    stego, diag = pl.embed(pair.secret, pair.cover, bundle)
    base = dsp.inverse_transform(dsp.transform(
        dsp.Waveform(pair.cover.samples[:DESK.required_samples()], pair.cover.sample_rate),
        DESK.stft_config(), DESK.transform))
    assert np.array_equal(stego.samples, base.samples)
    assert diag["stego_snr_db"] == float("inf")
    assert diag["container_l2"] == 0.0


@pytest.mark.parametrize("overrides", [{}, {"transform": "stft"}, {"transform": "stft", "container": "phase"},
                                       {"transform": "stft", "container": "dual"}])
def test_embed_synthesises_stego_and_reference_as_two_separate_syntheses_would(overrides):
    # embed synthesises [cover; stego] in one call, a plane the model leaves unchanged as one repeated row
    cfg = pl.PipelineConfig(**overrides)
    bundle = pl.build_model(cfg)
    pair = tiny_pairs(cfg, 1)[0]
    stego, diag = pl.embed(pair.secret, pair.cover, bundle)
    with ad.no_grad():
        out = pl.run_pipeline(bundle, [pair])
        want = pl._stego_wave(out).data[0]
    base = dsp.inverse_transform(out["spec"]).samples[0]
    assert stego.samples.tobytes() == want.tobytes()
    assert diag["stego_snr_db"] == me.snr_db(base, want)


def test_silent_cover_snr_is_minus_inf_or_plus_inf():
    pair = tiny_pairs(DESK, 1)[0]
    silent = dsp.Waveform(np.zeros(DESK.required_samples()), DESK.sample_rate)
    stego, diag = pl.embed(pair.secret, silent, pl.build_model(DESK))
    assert np.any(stego.samples) and diag["stego_snr_db"] == float("-inf")
    stego, diag = pl.embed(pair.secret, silent, zeroed(pl.build_model(DESK)))
    assert not np.any(stego.samples) and diag["stego_snr_db"] == float("inf")


def test_magnitude_embedding_leaves_phase_bit_identical():
    cfg = pl.PipelineConfig(transform="stft", container="magnitude", steps=0)
    bundle = pl.build_model(cfg)
    pair = tiny_pairs(cfg, 1)[0]
    out = pl.run_pipeline(bundle, [pair])
    assert out["stego_planes"]["phase"] is out["cover_planes"]["phase"]
    assert np.array_equal(out["stego_planes"]["phase"].data[0], out["spec"].phase[0])
    assert not np.array_equal(out["stego_planes"]["magnitude"].data[0], out["spec"].magnitude[0])


@pytest.mark.parametrize("overrides", [{}, {"method": "multichannel"}, {"transform": "stft", "container": "dual"}])
def test_run_pipeline_over_a_batch_matches_one_pair_calls_row_for_row(overrides):
    # pins the one analysis of the (B, L) covers, cut from covers of unequal length, and the one pixel shuffle
    cfg = pl.PipelineConfig(**overrides)
    bundle = pl.build_model(cfg)
    pairs = tiny_pairs(cfg, 4)
    longer = np.concatenate([pairs[1].cover.samples, np.ones(50)])
    pairs[1] = pl.SamplePair(pairs[1].secret, dsp.Waveform(longer, cfg.sample_rate))
    with ad.no_grad():
        batch = pl.run_pipeline(bundle, pairs)
        singles = [pl.run_pipeline(bundle, [pair]) for pair in pairs]
        waves = [pl._stego_wave(out).data for out in [batch] + singles]  # the synthesis a training step records
    assert batch["cover"].shape == (4, cfg.required_samples())
    for i, single in enumerate(singles):
        assert batch["cover"][i].tobytes() == single["cover"][0].tobytes()
        assert waves[0][i].tobytes() == waves[i + 1][0].tobytes()
        for key in ("cover_planes", "stego_planes"):
            assert batch[key].keys() == single[key].keys()
            for plane, t in batch[key].items():
                assert t.data[i].tobytes() == single[key][plane].data[0].tobytes(), (key, plane)


def test_phase_embedding_leaves_magnitude_bit_identical():
    cfg = pl.PipelineConfig(transform="stft", container="phase")
    bundle = pl.build_model(cfg)
    pair = tiny_pairs(cfg, 1)[0]
    out = pl.run_pipeline(bundle, [pair])
    assert out["stego_planes"]["magnitude"] is out["cover_planes"]["magnitude"]
    assert np.array_equal(out["stego_planes"]["magnitude"].data[0], out["spec"].magnitude[0])


def test_reveal_shape_correct_untrained():
    for method in ("stretch", "multichannel"):
        cfg = pl.PipelineConfig(method=method)
        bundle = pl.build_model(cfg)
        pair = tiny_pairs(cfg, 1)[0]
        stego, _ = pl.embed(pair.secret, pair.cover, bundle)
        img = pl.reveal(stego, bundle)
        assert img.shape == (3, 16, 16)
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_paper_scale_reveal_shape():
    cfg = pl.profile_config("paper_shape")
    bundle = pl.build_model(cfg)
    pair = pl.synth_dataset(1, cfg=cfg, seed=0)[0]
    stego, _ = pl.embed(pair.secret, pair.cover, bundle)
    assert pl.reveal(stego, bundle).shape == (3, 256, 256)


def test_embed_cover_length_errors():
    bundle = pl.build_model(DESK)
    short = dsp.Waveform(np.zeros(100), 16000)
    with pytest.raises(UsageError, match=str(DESK.required_samples())):
        pl.embed(tiny_pairs(DESK, 1)[0].secret, short, bundle)
    with pytest.raises(UsageError):
        pl.reveal(dsp.Waveform(np.zeros(DESK.required_samples() + 5), 16000), bundle)


def test_embed_and_reveal_take_one_waveform_not_a_stack():
    bundle = pl.build_model(DESK)
    pair = tiny_pairs(DESK, 1)[0]
    n = DESK.required_samples()
    with pytest.raises(UsageError, match=rf"pair 0: cover has shape \(2, {n}\); a pair holds one waveform"):
        pl.embed(pair.secret, dsp.Waveform(np.stack([pair.cover.samples] * 2), 16000), bundle)
    stego, _ = pl.embed(pair.secret, pair.cover, bundle)
    with pytest.raises(UsageError, match=rf"stego has shape \(2, {n}\); this model requires exactly \({n},\)"):
        pl.reveal(dsp.Waveform(np.stack([stego.samples] * 2), 16000), bundle)


def test_sample_rate_mismatch_rejected():
    bundle = pl.build_model(DESK)
    pair = tiny_pairs(DESK, 1)[0]
    with pytest.raises(UsageError, match="44100 Hz.*16000 Hz"):
        pl.embed(pair.secret, dsp.Waveform(pair.cover.samples, 44100), bundle)
    stego, _ = pl.embed(pair.secret, pair.cover, bundle)
    with pytest.raises(UsageError, match="8000 Hz.*16000 Hz"):
        pl.reveal(dsp.Waveform(stego.samples, 8000), bundle)


def test_longer_cover_is_trimmed():
    bundle = pl.build_model(DESK)
    pair = tiny_pairs(DESK, 1)[0]
    longer = dsp.Waveform(np.concatenate([pair.cover.samples, np.ones(50)]), 16000)
    stego, _ = pl.embed(pair.secret, longer, bundle)
    assert len(stego) == DESK.required_samples()


def test_dual_coupling_projection_ignores_phase_branch():
    cfg = pl.PipelineConfig(transform="stft", container="dual")
    bundle = pl.build_model(cfg)
    bundle.params["couple.w1"].data[...] = 1.0
    bundle.params["couple.w2"].data[...] = 0.0
    bundle.params["couple.b"].data[...] = 0.0
    pair = tiny_pairs(cfg, 1)[0]
    stego, _ = pl.embed(pair.secret, pair.cover, bundle)
    revealed = pl.reveal(stego, bundle)
    # damaging the phase reveal net must not change the output
    for name, t in bundle.params.items():
        if name.startswith("reveal_phase"):
            t.data = t.data + 10.0
    assert np.array_equal(pl.reveal(stego, bundle), revealed)


# -- inference without a tape ----------------------------------------------

@pytest.mark.parametrize("overrides", [{}, {"transform": "stft", "container": "dual"},
                                       {"method": "multichannel"}])
def test_no_grad_inference_matches_the_taped_path(overrides, monkeypatch):
    cfg = pl.PipelineConfig(**overrides)
    bundle = pl.build_model(cfg)
    pair = tiny_pairs(cfg, 1)[0]

    def run():
        stego, diag = pl.embed(pair.secret, pair.cover, bundle)
        spec = dsp.transform(stego, cfg.stft_config(), cfg.transform)
        return stego.samples.tobytes(), diag, pl.reveal_from_spectrogram(spec, bundle)[0].tobytes()

    lean = run()
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    assert run() == lean


INFERENCE_CONFIGS = [{"method": m} for m in emb.METHODS] + [
    {"transform": "stft", "container": "dual"}, {"transform": "stft", "container": "phase"}]


def stack_of(specs):
    """One (B, F, T) spectrogram of B single ones."""
    return replace(specs[0], **{plane: np.stack([getattr(s, plane) for s in specs])
                                for plane in ("magnitude", "phase") if getattr(specs[0], plane) is not None})


@pytest.mark.parametrize("overrides", INFERENCE_CONFIGS)
def test_batched_reveal_equals_per_spectrogram_calls(overrides, monkeypatch):
    cfg = pl.PipelineConfig(**overrides)
    bundle = pl.build_model(cfg)
    specs = [dsp.transform(pl.embed(pair.secret, pair.cover, bundle)[0], cfg.stft_config(), cfg.transform)
             for pair in tiny_pairs(cfg, 16)]
    singles = [pl.reveal_from_spectrogram(spec, bundle) for spec in specs]
    assert all(single.shape == (1, 3, cfg.image, cfg.image) for single in singles)
    seen, reveal_from_planes = [], pl._reveal_from_planes

    def recording(bundle, planes):
        seen.extend(planes.items())
        return reveal_from_planes(bundle, planes)

    monkeypatch.setattr(pl, "_reveal_from_planes", recording)
    pair_floats = len(cfg.planes()) * np.prod(cfg.grid.container_shape)
    for chunk_floats in (pl._CHUNK_FLOATS, 3 * pair_floats):  # default; chunks of 3, the last of 1
        monkeypatch.setattr(pl, "_CHUNK_FLOATS", chunk_floats)
        per = max(1, chunk_floats // pair_floats)
        for n in (1, 3, 16):
            stack, seen[:] = stack_of(specs[:n]), []
            revealed = pl.reveal_from_spectrogram(stack, bundle)
            assert revealed.shape == (n, 3, cfg.image, cfg.image)
            assert all(revealed[i].tobytes() == singles[i][0].tobytes() for i in range(n))
            # each chunk is a view of the stack, and the chunks cover it once
            assert len(seen) == len(cfg.planes()) * -(-n // per)
            assert all(np.shares_memory(t.data, getattr(stack, plane)) for plane, t in seen)


def test_batched_reveal_rejects_empty_and_mismatched_lists():
    cfg = pl.PipelineConfig()
    bundle = pl.build_model(cfg)
    spec = dsp.transform(tiny_pairs(cfg, 1)[0].cover, cfg.stft_config(), cfg.transform)
    with pytest.raises(ConfigError, match=r"needs \(B >= 1, 64, T\) planes, got \(0, 64, 32\)"):
        replace(spec, magnitude=spec.magnitude[None, :, :][:0])
    long = dsp.transform(dsp.Waveform(np.zeros(cfg.required_samples() + 64), cfg.sample_rate),
                         cfg.stft_config(), cfg.transform)
    with pytest.raises(UsageError, match=r"spectrogram shape \(3, 64, 34\) does not match model container"):
        pl.reveal_from_spectrogram(stack_of([long] * 3), bundle)


@pytest.mark.parametrize("case", ["stdct_spectrogram", "two_stdct_spectrograms", "44100_hz"])
def test_batched_reveal_rejects_spectrograms_the_model_cannot_read(case):
    cfg = pl.PipelineConfig(transform="stft", container="phase")
    bundle = pl.build_model(cfg)
    stack = stack_of([dsp.transform(pair.cover, cfg.stft_config(), cfg.transform) for pair in tiny_pairs(cfg, 3)])
    # an stdct stack of half the frame length has the container's plane shape and no phase plane
    stdct = replace(stack, phase=None, config=dsp.StftConfig(cfg.frame_length() // 2, cfg.hop_length()))
    bad = {"stdct_spectrogram": replace(stdct, magnitude=stdct.magnitude[1:2]),
           "two_stdct_spectrograms": replace(stdct, magnitude=stdct.magnitude[1:]),
           "44100_hz": replace(stack, sample_rate=44100)}[case]
    with pytest.raises(UsageError, match=r"^spectrogram \(config, sample rate, phase plane\)"):
        pl.reveal_from_spectrogram(bad, bundle)


def test_evaluate_rejects_an_empty_dataset_before_embedding(monkeypatch):
    bundle = pl.build_model(pl.PipelineConfig())
    monkeypatch.setattr(pl, "embed", lambda *args: pytest.fail("embedded before the check"))
    with pytest.raises(UsageError, match="empty dataset"):
        pl.evaluate(bundle, [])


@pytest.mark.parametrize("wave_loss", ["l1", "soft_dtw"])
def test_evaluate_row_equals_the_per_pair_formula(wave_loss):
    cfg = pl.PipelineConfig(wave_loss=wave_loss)
    bundle = pl.build_model(cfg)
    pairs = tiny_pairs(cfg, 5)
    snrs, waves, ssims, psnrs, hists = [], [], [], [], []
    for pair in pairs:
        stego, diag = pl.embed(pair.secret, pair.cover, bundle)
        revealed = pl.reveal(stego, bundle)
        snrs.append(diag["stego_snr_db"])
        with ad.no_grad():
            cover = ad.Tensor(pair.cover.samples[:cfg.required_samples()])
            waves.append(float(lo.waveform_term(cfg, cover, ad.Tensor(stego.samples)).data))
        ssims.append(me.ssim(pair.secret, revealed))
        psnrs.append(me.psnr_db(pair.secret, revealed))
        hists.append(me.histogram_l1(me.rgb_histogram(pair.secret), me.rgb_histogram(revealed)))
    row = pl.evaluate(bundle, pairs)
    assert (row["ssim"], row["psnr_db"], row["snr_db"], row["waveform_loss"], row["hist_l1"]) == tuple(
        float(np.mean(values)) for values in (ssims, psnrs, snrs, waves, hists))


def test_evaluate_snr_is_the_plain_mean_over_pairs():
    bundle = pl.build_model(DESK)
    loud, quiet_secret, silent_cover = tiny_pairs(DESK, 3)
    # a black secret meets zero biases: the watermark is exactly zero and that pair reads +inf
    quiet_secret.secret = np.zeros_like(quiet_secret.secret)
    silent_cover.cover = dsp.Waveform(np.zeros(DESK.required_samples()), DESK.sample_rate)
    assert pl.embed(quiet_secret.secret, quiet_secret.cover, bundle)[1]["stego_snr_db"] == float("inf")
    assert pl.evaluate(bundle, [loud, silent_cover])["snr_db"] == float("-inf")
    assert pl.evaluate(bundle, [loud, quiet_secret])["snr_db"] == float("inf")
    assert np.isnan(pl.evaluate(bundle, [loud, quiet_secret, silent_cover])["snr_db"])


def test_soft_dtw_evaluate_records_no_tape(monkeypatch):
    cfg = pl.PipelineConfig(wave_loss="soft_dtw")
    bundle = pl.build_model(cfg)
    pairs = tiny_pairs(cfg, 2)
    made = []
    node = ad._node

    def recording_node(*args):
        made.append(node(*args))
        return made[-1]

    monkeypatch.setattr(ad, "_node", recording_node)
    row = pl.evaluate(bundle, pairs)
    assert made and np.isfinite(row["waveform_loss"])
    assert [t.op for t in made if t._parents] == []


def test_training_still_records_after_failed_inference():
    cfg = pl.PipelineConfig(steps=1, batch=2)
    bundle = pl.build_model(cfg)
    pairs = tiny_pairs(cfg, 2)
    with pytest.raises(UsageError, match="exactly"):
        pl.reveal(dsp.Waveform(np.zeros(cfg.required_samples() + 1), cfg.sample_rate), bundle)
    with pytest.raises(UsageError, match="secret image shape"):
        pl.embed(np.zeros((3, 5, 5)), pairs[0].cover, bundle)  # raised inside the graph
    pl.train(pairs, cfg, bundle=bundle)
    for name, t in bundle.params.items():
        assert t.grad is not None and np.any(t.grad != 0), name


def test_reveal_peak_memory_is_bounded():
    cfg = pl.PipelineConfig(image=64)
    bundle = pl.build_model(cfg)
    pair = tiny_pairs(cfg, 1)[0]
    stego, _ = pl.embed(pair.secret, pair.cover, bundle)
    pl.reveal(stego, bundle)
    tracemalloc.start()
    try:
        pl.reveal(stego, bundle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 256x128 container: 21.7 MiB without a tape; an im2col buffer per conv
    # and a tape kept until the end took 85.4 MiB
    assert peak < 40 * 2 ** 20


def test_paper_scale_evaluate_hands_the_reveal_its_only_spectrogram():
    # the reveal frees the stacked stego phase, which a magnitude model never reads, only if evaluate holds no
    # reference to the spectrogram: 138.4 MiB traced while it did
    cfg = pl.profile_config("paper_shape")
    bundle = pl.build_model(cfg)
    pairs = pl.synth_dataset(4, cfg=cfg, seed=5)
    tracemalloc.start()
    try:
        pl.evaluate(bundle, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 112 * 2 ** 20


# -- training ---------------------------------------------------------------

def test_lr_zero_leaves_parameters_bit_identical():
    cfg = pl.PipelineConfig(steps=1, batch=2, lr=0.0)
    bundle = pl.build_model(cfg)
    before = {k: t.data.copy() for k, t in bundle.params.items()}
    bundle, _ = pl.train(tiny_pairs(cfg), cfg, bundle=bundle)
    for k, t in bundle.params.items():
        assert np.array_equal(before[k], t.data)


def test_training_deterministic_loss_traces():
    cfg = pl.PipelineConfig(steps=4, batch=2, seed=9)
    pairs = tiny_pairs(cfg, 4, seed=9)
    _, log1 = pl.train(pairs, cfg)
    _, log2 = pl.train(pairs, cfg)
    assert log1.rows == log2.rows


def test_training_reduces_loss_smoke():
    cfg = pl.PipelineConfig(steps=25, batch=2, lr=5e-3)
    pairs = tiny_pairs(cfg, 4)
    _, log = pl.train(pairs, cfg)
    totals = log.totals()
    assert totals[-1] < totals[0]
    assert len(totals) == 25


BATCH_CONFIGS = [{"method": m} for m in emb.METHODS] + [
    {"transform": "stft", "container": "dual"}, {"transform": "stft", "container": "phase"},
    {"wave_loss": "soft_dtw"}]


@pytest.mark.parametrize("samples", [2, 3])
@pytest.mark.parametrize("overrides", BATCH_CONFIGS, ids=lambda o: "-".join(map(str, o.values())))
def test_batch_loss_and_gradients_are_the_mean_of_single_pair_graphs(overrides, samples):
    cfg = pl.PipelineConfig(**overrides, seed=4)
    bundle = pl.build_model(cfg)
    pairs = tiny_pairs(cfg, samples, seed=6)

    def loss_and_grads(batch):
        for t in bundle.params.values():
            t.zero_grad()
        total, terms = pl._sample_loss(bundle, batch)
        ad.backward(total)
        return float(total.data), terms, {k: t.grad for k, t in bundle.params.items()}

    total, terms, grads = loss_and_grads(pairs)
    each = [loss_and_grads([pair]) for pair in pairs]
    assert abs(total - np.mean([e[0] for e in each])) <= 1e-12 * abs(total)
    for k, v in terms.items():
        assert abs(v - np.mean([e[1][k] for e in each])) <= 1e-12 * abs(v)
    for k, g in grads.items():
        want = sum(e[2][k] for e in each) / samples
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), k


def test_train_objective_comes_from_its_cfg_not_the_bundle():
    bundle = pl.build_model(DESK)
    cfg = pl.PipelineConfig(steps=4, batch=2, beta=1.0, lam=0.0)
    _, log = pl.train(tiny_pairs(DESK), cfg, bundle=bundle)
    assert len(log.rows) == 4
    assert all(total == image_l1 for _, total, image_l1, *_ in log.rows)


def test_resumed_train_returns_and_checkpoints_its_cfg(tmp_path):
    bundle = pl.build_model(DESK)
    tensors = list(bundle.params.values())
    cfg = replace(DESK, steps=2, beta=1.0, lam=0.0)
    trained, _ = pl.train(tiny_pairs(DESK), cfg, bundle=bundle)
    assert trained.cfg == cfg
    assert all(a is b for a, b in zip(trained.params.values(), tensors, strict=True))  # trained in place
    pl.save_checkpoint(trained, tmp_path / "m.pxw2")
    assert pl.load_checkpoint(tmp_path / "m.pxw2").cfg == cfg


@pytest.mark.parametrize("made,cfg,message", [
    (dict(transform="stft", wave_loss="soft_dtw"), dict(container="dual"),
     "has 'hide.enc0.w' (8, 1, 3, 3) where cfg makes 'hide_mag.enc0.w' (8, 1, 3, 3)"),
    (dict(), dict(channels=4), "has 'hide.enc0.w' (8, 1, 3, 3) where cfg makes 'hide.enc0.w' (4, 1, 3, 3)"),
    (dict(), dict(method="w_replicate"), "has no parameter where cfg makes 'embed.enc_weights' (2,)"),
    (dict(method="w_replicate"), dict(method="replicate"), "has 'embed.enc_weights' (2,) where cfg makes no parameter"),
    (dict(method="multichannel"), dict(method="replicate"),
     "has 'hide.enc0.w' (8, 3, 3, 3) where cfg makes 'hide.enc0.w' (8, 1, 3, 3)")])
def test_train_rejects_a_bundle_whose_params_cfg_does_not_make(made, cfg, message, monkeypatch):
    made = replace(DESK, **made)
    bundle = pl.build_model(made)
    before = {k: t.data.copy() for k, t in bundle.params.items()}
    monkeypatch.setattr(pl, "_sample_loss", lambda *args: pytest.fail("a step ran before the check"))
    with pytest.raises(ConfigError, match=re.escape(f"train: bundle {message}")):
        pl.train(tiny_pairs(made), replace(made, **cfg), bundle=bundle)
    assert all(np.array_equal(t.data, before[k]) and t.grad is None for k, t in bundle.params.items())


def test_resumed_train_at_another_image_size_keeps_the_size_free_params():
    # conv kernels and replica weights do not depend on the image size, so a desk
    # bundle resumes at 32 px and comes back as a 32 px model
    bundle = pl.build_model(DESK)
    cfg = replace(DESK, image=32, steps=1)
    trained, _ = pl.train(tiny_pairs(cfg, 2), cfg, bundle=bundle)
    assert trained.cfg == cfg and trained.cfg.image == 32
    pair = tiny_pairs(cfg, 1)[0]
    stego, _ = pl.embed(pair.secret, pair.cover, trained)
    assert pl.reveal(stego, trained).shape == (3, 32, 32)


def test_replica_weights_are_read_from_params():
    cfg = pl.PipelineConfig(method="w_replicate")
    bundle = pl.build_model(cfg)
    assert list(bundle.params)[-2:] == ["embed.enc_weights", "embed.dec_weights"]
    pair = tiny_pairs(cfg, 1)[0]
    assert pl.embed(pair.secret, pair.cover, bundle)[1]["container_l2"] > 0.0
    # a replaced tensor takes effect: zero encoder weights leave the container unchanged
    bundle.params["embed.enc_weights"] = ad.Tensor(np.zeros(bundle.cfg.grid.count), requires_grad=True)
    assert pl.embed(pair.secret, pair.cover, bundle)[1]["container_l2"] == 0.0


def test_train_rejects_empty_dataset():
    with pytest.raises(UsageError):
        pl.train([], DESK)


def test_end_to_end_grad_check_subsample():
    # embed -> reveal -> composite loss against central differences on a
    # random ~1% parameter subsample.  Step 1e-6: a 1e-5 bias perturbation
    # pushes thousands of leaky_relu pre-activations across their kink,
    # which corrupts the finite-difference reference (the error plateau at
    # h >= 1e-5 vanishes below the kink-crossing scale).
    cfg = pl.PipelineConfig(steps=0, batch=1, seed=0)
    pairs = tiny_pairs(cfg, 1)

    def builder(rng):
        bundle = pl.build_model(cfg)
        total, _ = pl._sample_loss(bundle, pairs[:1])
        names = sorted(bundle.params)
        picks = [names[i] for i in rng.choice(len(names), size=3, replace=False)]
        return total, [bundle.params[p] for p in picks if bundle.params[p].data.size < 600]

    assert ad.grad_check(builder, 0, step=1e-6) < 1e-3


def test_smoke_matrix_all_legal_combinations():
    # every legal (method x container x transform) runs 10 steps cleanly
    for transform in ("stft", "stdct"):
        for container in ("magnitude", "phase", "dual"):
            if transform == "stdct" and container != "magnitude":
                continue
            for method in ("stretch", "replicate", "w_replicate", "ws_replicate", "multichannel"):
                cfg = pl.PipelineConfig(transform=transform, container=container,
                                        method=method, steps=10, batch=2, seed=0)
                pairs = tiny_pairs(cfg, 2)
                _, log = pl.train(pairs, cfg)
                assert np.all(np.isfinite(log.totals())), (transform, container, method)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_loss_aborts_with_step_and_term():
    cfg = pl.PipelineConfig(steps=3, batch=1, seed=0)
    bundle = pl.build_model(cfg)
    bundle.params["hide.head.w"].data += 1e200  # overflow the watermark
    with pytest.raises(NumericError, match=r"step 0.*term"):
        pl.train(tiny_pairs(cfg, 2), cfg, bundle=bundle)


@pytest.mark.parametrize("bad,message", [
    (lambda p: pl.SamplePair(np.zeros((3, 8, 8)), p.cover), r"pair 2: secret image shape \(3, 8, 8\)"),
    (lambda p: pl.SamplePair(p.secret, dsp.Waveform(p.cover.samples[:100], 16000)),
     rf"pair 2: cover has 100 samples; this model requires {DESK.required_samples()}"),
    (lambda p: pl.SamplePair(p.secret, dsp.Waveform(p.cover.samples, 44100)),
     r"pair 2: cover is sampled at 44100 Hz; this model requires 16000 Hz"),
    (lambda p: pl.SamplePair(p.secret, dsp.Waveform(np.stack([p.cover.samples] * 2), 16000)),
     rf"pair 2: cover has shape \(2, {DESK.required_samples()}\); a pair holds one waveform")])
def test_train_checks_every_pair_before_step_0(bad, message, monkeypatch):
    pairs = tiny_pairs(DESK, 3)
    pairs[2] = bad(pairs[2])
    monkeypatch.setattr(pl, "_sample_loss", lambda *args: pytest.fail("a step ran before the check"))
    with pytest.raises(UsageError, match=message):
        pl.train(pairs, DESK)


def test_luma_buffer_flag_changes_pipeline():
    on = pl.PipelineConfig(luma=True, seed=0)
    off = pl.PipelineConfig(luma=False, seed=0)
    pair = tiny_pairs(on, 1)[0]
    stego_on, _ = pl.embed(pair.secret, pair.cover, pl.build_model(on))
    stego_off, _ = pl.embed(pair.secret, pair.cover, pl.build_model(off))
    assert not np.array_equal(stego_on.samples, stego_off.samples)


# -- synthesis --------------------------------------------------------------

def test_synth_shapes_and_determinism():
    pairs1 = pl.synth_dataset(3, cfg=DESK, seed=5)
    pairs2 = pl.synth_dataset(3, cfg=DESK, seed=5)
    other = pl.synth_dataset(3, cfg=DESK, seed=6)
    for a, b in zip(pairs1, pairs2):
        assert np.array_equal(a.secret, b.secret)
        assert np.array_equal(a.cover.samples, b.cover.samples)
    assert not np.array_equal(pairs1[0].secret, other[0].secret)
    p = pairs1[0]
    assert p.secret.shape == (3, 16, 16)
    assert p.secret.min() >= 0.0 and p.secret.max() <= 1.0
    assert len(p.cover) == DESK.required_samples()
    assert np.max(np.abs(p.cover.samples)) <= 0.8 + 1e-12


def test_synth_rejects_zero():
    with pytest.raises(UsageError):
        pl.synth_dataset(0, cfg=DESK)


def test_dataset_dir_roundtrip(tmp_path):
    pairs = pl.synth_dataset(2, cfg=DESK, seed=1)
    pl.save_dataset(pairs, tmp_path / "d")
    back = pl.load_dataset(tmp_path / "d")
    assert len(back) == 2
    # files quantize to 8-bit/16-bit; loading them again is bit-stable
    pl.save_dataset(back, tmp_path / "d2")
    for name in ("secret_000.ppm", "cover_000.wav"):
        assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()
    with pytest.raises(DataError):
        pl.load_dataset(tmp_path / "missing")


def test_dataset_loads_in_index_order_past_999(tmp_path):
    pl.save_dataset(pl.synth_dataset(3, cfg=DESK, seed=1), tmp_path)
    saved = pl.load_dataset(tmp_path)
    for old, new in (("000", "100"), ("001", "1000"), ("002", "101")):
        for kind, ext in (("secret", "ppm"), ("cover", "wav")):
            (tmp_path / f"{kind}_{old}.{ext}").rename(tmp_path / f"{kind}_{new}.{ext}")
    back = pl.load_dataset(tmp_path)  # 100, 101, 1000
    for want, got in zip([saved[0], saved[2], saved[1]], back, strict=True):
        assert np.array_equal(got.secret, want.secret)
        assert np.array_equal(got.cover.samples, want.cover.samples)
    (tmp_path / "secret_100.ppm").rename(tmp_path / "secret_x.ppm")
    with pytest.raises(DataError, match="secret_x.ppm: expected secret_<index>.ppm"):
        pl.load_dataset(tmp_path)


# -- wav io -----------------------------------------------------------------

def test_wav_roundtrip_bit_exact(tmp_path, rng):
    ints = rng.integers(-32768, 32768, size=777)
    w = dsp.Waveform(ints / 32768.0, 44100)
    wavio.write_wav(w, tmp_path / "x.wav")
    back = wavio.read_wav(tmp_path / "x.wav")
    assert back.sample_rate == 44100
    assert np.array_equal(np.round(back.samples * 32768.0), ints)


def test_wav_rounds_half_away_and_clips(tmp_path):
    w = dsp.Waveform(np.array([0.5 / 32768.0, -0.5 / 32768.0, 1.5, -1.5]), 8000)
    wavio.write_wav(w, tmp_path / "y.wav")
    back = wavio.read_wav(tmp_path / "y.wav")
    assert np.array_equal(np.round(back.samples * 32768.0), [1, -1, 32767, -32768])


def test_write_wav_rejects_a_stack_and_writes_nothing(tmp_path):
    with pytest.raises(UsageError, match=r"a WAV file holds one waveform, got shape \(2, 64\)"):
        wavio.write_wav(dsp.Waveform(np.zeros((2, 64)), 8000), tmp_path / "stack.wav")
    assert not (tmp_path / "stack.wav").exists()


def test_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFFnope")
    with pytest.raises(DataError):
        wavio.read_wav(path)


# -- checkpoints ------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = pl.PipelineConfig(method="w_replicate", steps=2, batch=2)
    bundle, _ = pl.train(tiny_pairs(cfg), cfg)
    path = tmp_path / "m.pxw2"
    pl.save_checkpoint(bundle, path)
    loaded = pl.load_checkpoint(path)
    assert loaded.cfg == bundle.cfg
    assert list(loaded.params) == list(bundle.params)
    for k in bundle.params:
        assert np.array_equal(loaded.params[k].data, bundle.params[k].data)
    # config text round trips verbatim through a save/load/save cycle
    path2 = tmp_path / "m2.pxw2"
    pl.save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_corruption_detected(tmp_path):
    bundle = pl.build_model(DESK)
    path = tmp_path / "m.pxw2"
    pl.save_checkpoint(bundle, path)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.pxw2"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(DataError, match="magic"):
        pl.load_checkpoint(bad_magic)

    bad_version = tmp_path / "bad_version.pxw2"
    bad_version.write_bytes(bytes(raw[:4]) + b"\x07\x00\x00\x00" + bytes(raw[8:]))
    with pytest.raises(DataError, match="version"):
        pl.load_checkpoint(bad_version)

    truncated = tmp_path / "trunc.pxw2"
    truncated.write_bytes(bytes(raw[:len(raw) // 2]))
    with pytest.raises(DataError, match="byte"):
        pl.load_checkpoint(truncated)


def _v1_bytes(raw):
    """The version-1 layout of a checkpoint: no CRC-32 after the config text."""
    (config_len,) = struct.unpack("<I", raw[8:12])
    crc_at = 12 + config_len
    return raw[:4] + struct.pack("<I", 1) + raw[8:crc_at] + raw[crc_at + 4:]


def test_checkpoint_version_1_still_loads(tmp_path):
    cfg = pl.PipelineConfig(method="w_replicate", steps=2, batch=2)
    bundle, _ = pl.train(tiny_pairs(cfg), cfg)
    pl.save_checkpoint(bundle, tmp_path / "m.pxw2")
    raw = (tmp_path / "m.pxw2").read_bytes()
    assert struct.unpack("<I", raw[4:8]) == (pl.CHECKPOINT_VERSION,) == (2,)
    (tmp_path / "v1.pxw2").write_bytes(_v1_bytes(raw))
    loaded = pl.load_checkpoint(tmp_path / "v1.pxw2")
    assert loaded.cfg == bundle.cfg
    for k in bundle.params:
        assert np.array_equal(loaded.params[k].data, bundle.params[k].data)
    pl.save_checkpoint(loaded, tmp_path / "again.pxw2")
    assert (tmp_path / "again.pxw2").read_bytes() == raw


def test_checkpoint_single_bit_flips_all_raise(tmp_path):
    """Every bit of the header and config text, and a fixed sample of the
    parameter bytes (the CRC-32 itself included), flipped one at a time."""
    pl.save_checkpoint(pl.build_model(pl.PipelineConfig(channels=2)), tmp_path / "m.pxw2")
    raw = (tmp_path / "m.pxw2").read_bytes()
    (config_len,) = struct.unpack("<I", raw[8:12])
    flips = [(pos, bit) for pos in range(12 + config_len) for bit in range(8)]
    flips += [(pos, pos % 8) for pos in range(12 + config_len, len(raw), 37)]
    assert len(flips) > 2000
    bad = tmp_path / "bad.pxw2"
    loaded = []
    for pos, bit in flips:
        flipped = bytearray(raw)
        flipped[pos] ^= 1 << bit
        bad.write_bytes(bytes(flipped))
        try:
            pl.load_checkpoint(bad)
        except DataError as exc:
            assert "bad.pxw2" in str(exc)
        else:
            loaded.append((pos, bit))
    assert loaded == []


def test_checkpoint_checksum_mismatch_names_the_crc(tmp_path):
    pl.save_checkpoint(pl.build_model(DESK), tmp_path / "m.pxw2")
    raw = bytearray((tmp_path / "m.pxw2").read_bytes())
    (config_len,) = struct.unpack("<I", raw[8:12])
    raw[-8] ^= 0x01  # the lowest mantissa bit of the last value: still finite
    (tmp_path / "bad.pxw2").write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"checksum mismatch.*byte {12 + config_len}"):
        pl.load_checkpoint(tmp_path / "bad.pxw2")


def test_best_constant_baseline_is_channel_median():
    img = np.zeros((3, 2, 2))
    img[0] = [[0.0, 0.0], [1.0, 1.0]]
    expect = np.mean(np.abs(img[0] - 0.5)) / 3.0
    assert abs(pl.best_constant_baseline_l1(img) - expect) < 1e-12
