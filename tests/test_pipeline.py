import contextlib
import tracemalloc

import numpy as np
import pytest

from stegowav import autodiff as ad
from stegowav import dsp
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
    assert cfg.container_shape() == (64, 32)
    stft = pl.PipelineConfig(transform="stft")
    assert stft.frame_length() == 128 and stft.hop_length() == 32
    assert stft.container_shape() == (64, 32)


def test_config_rejects_inconsistencies():
    with pytest.raises(ConfigError):
        pl.PipelineConfig(transform="stdct", container="phase")
    with pytest.raises(ConfigError):
        pl.PipelineConfig(transform="stdct", container="dual")
    with pytest.raises(ConfigError):
        pl.PipelineConfig(frame=100)
    with pytest.raises(ConfigError):
        pl.PipelineConfig(method="sideways")
    for bad in (dict(wave_loss="l3"), dict(beta=2.0), dict(lam=-1.0), dict(theta=1.5),
                dict(gamma=0.0), dict(sample_rate=-5), dict(sample_rate=0), dict(seed=-1),
                dict(lr=float("nan")), dict(lr=-1e-3), dict(lr=float("inf")),
                dict(adam_beta1=1.5), dict(adam_beta1=1.0), dict(adam_beta2=-0.1),
                dict(adam_eps=0.0), dict(adam_eps=float("inf")), dict(lam=float("inf")),
                dict(gamma=float("nan"))):
        with pytest.raises(ConfigError):
            pl.PipelineConfig(**bad)
    # the edges the training tests rely on stay legal
    pl.PipelineConfig(lr=0.0)
    pl.PipelineConfig(lr=1e150)


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
    assert cfg.container_shape() == (1024, 512)
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


def test_magnitude_embedding_leaves_phase_bit_identical():
    cfg = pl.PipelineConfig(transform="stft", container="magnitude", steps=0)
    bundle = pl.build_model(cfg)
    pair = tiny_pairs(cfg, 1)[0]
    out = pl.run_pipeline(bundle, pair.secret, pair.cover, with_reveal=False)
    assert out["stego_planes"]["phase"].data is out["spec"].phase
    assert not np.array_equal(out["stego_planes"]["magnitude"].data, out["spec"].magnitude)


def test_phase_embedding_leaves_magnitude_bit_identical():
    cfg = pl.PipelineConfig(transform="stft", container="phase")
    bundle = pl.build_model(cfg)
    pair = tiny_pairs(cfg, 1)[0]
    out = pl.run_pipeline(bundle, pair.secret, pair.cover, with_reveal=False)
    assert out["stego_planes"]["magnitude"].data is out["spec"].magnitude


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
        return stego.samples.tobytes(), diag, pl.reveal_from_spectrogram(spec, bundle).tobytes()

    lean = run()
    monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
    assert run() == lean


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
    assert made and np.isfinite(row.waveform_loss)
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
    loss_cfg = cfg.loss_config()

    def builder(rng):
        bundle = pl.build_model(cfg)
        total, _ = pl._sample_loss(bundle, pairs[0], loss_cfg)
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


def test_best_constant_baseline_is_channel_median():
    img = np.zeros((3, 2, 2))
    img[0] = [[0.0, 0.0], [1.0, 1.0]]
    expect = np.mean(np.abs(img[0] - 0.5)) / 3.0
    assert abs(pl.best_constant_baseline_l1(img) - expect) < 1e-12
