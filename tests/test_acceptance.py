"""Acceptance gate: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  The desk training profile is deliberately explicit
here: 16x16 images, STDCT frame 64 / hop 32 (the 64x32 container all five
embedding methods share), 16 samples, 300 Adam steps at lr 5e-3, seed 0.
"""

import time

import numpy as np
import pytest

from stegowav import autodiff as ad
from stegowav import costing
from stegowav import dsp
from stegowav import embeddings as emb
from stegowav import imageops as iops
from stegowav import losses as lo
from stegowav import metrics as me
from stegowav import networks as nets
from stegowav import pipeline as pl
from stegowav import robustness as rob

from conftest import (hard_dtw, nyquist_free_signal, pack, rgb_to_ycbcr, unpack, unshuffle,
                      ycbcr_to_rgb)
from test_losses import brute_force_soft_dtw

METHODS = ("stretch", "replicate", "w_replicate", "ws_replicate", "multichannel")

DESK = dict(transform="stdct", container="magnitude", large=False,
            steps=300, batch=4, lr=5e-3, seed=0)


def desk_config(method):
    return pl.PipelineConfig(method=method, **DESK)


@pytest.fixture(scope="module")
def trained_desk_models():
    """The criterion-7 training runs, shared with the criterion-8 sweeps."""
    models = {}
    for method in METHODS:
        cfg = desk_config(method)
        pairs = pl.synth_dataset(16, cfg=cfg, seed=0)
        start = time.monotonic()
        bundle, log = pl.train(pairs, cfg)
        models[method] = {
            "bundle": bundle,
            "pairs": pairs,
            "log": log,
            "train_seconds": time.monotonic() - start,
        }
    return models


def test_c01_transform_round_trips():
    start = time.monotonic()
    worst_stft = worst_stdct = 0.0
    for n in (16, 64, 256):
        for hop in (n // 4, n // 2):
            cfg = dsp.StftConfig(n, hop)
            for seed in range(10):
                rng = np.random.default_rng(seed)
                x = nyquist_free_signal(8 * n, cfg, rng)
                back = dsp.inverse_transform(dsp.transform(dsp.Waveform(x, 8000), cfg, "stft"))
                worst_stft = max(worst_stft, np.linalg.norm(back.samples - x) / np.linalg.norm(x))
                y = rng.normal(size=5 * n + 7)
                back2 = dsp.inverse_transform(dsp.transform(dsp.Waveform(y, 8000), cfg, "stdct"))
                worst_stdct = max(worst_stdct, np.linalg.norm(back2.samples - y) / np.linalg.norm(y))
    elapsed = time.monotonic() - start
    assert worst_stft < 1e-8 and worst_stdct < 1e-8
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: round trips stft {worst_stft:.2e} / stdct {worst_stdct:.2e} "
          f"(< 1e-8) in {elapsed:.1f}s")


def _registered_op_builders():
    def leaf(rng, shape):
        mags = rng.uniform(0.6, 1.4, size=shape)
        return ad.Tensor(mags * rng.choice([-1.0, 1.0], size=shape), requires_grad=True)

    def pos_leaf(rng, shape, lo_=0.3, hi=1.3):
        return ad.Tensor(rng.uniform(lo_, hi, size=shape), requires_grad=True)

    stft_cfg = dsp.StftConfig(16, 4)
    frames = 5
    length = stft_cfg.samples_for_frames(frames)

    def b_istft(rng):
        mag = pos_leaf(rng, (8, frames))
        ph = ad.Tensor(rng.uniform(-2.5, 2.5, (8, frames)), requires_grad=True)
        return ad.sq_sum(dsp.istft_op(mag, ph, stft_cfg, length)), [mag, ph]

    def b_istdct(rng):
        c = leaf(rng, (16, frames))
        return ad.sq_sum(dsp.istdct_op(c, stft_cfg, length)), [c]

    def b_stft_mag(rng):
        w = leaf(rng, (length,))
        return ad.sq_sum(dsp.stft_mag_op(w, stft_cfg)), [w]

    def b_stft_phase(rng):
        w = ad.Tensor(rng.uniform(0.3, 1.0, size=length), requires_grad=True)
        return ad.sq_sum(dsp.stft_phase_op(w, stft_cfg)), [w]

    def b_stdct_fwd(rng):
        w = leaf(rng, (length,))
        return ad.sq_sum(dsp.stdct_fwd_op(w, stft_cfg)), [w]

    def b_bilinear(rng):
        t = pos_leaf(rng, (6, 5))
        return ad.sq_sum(iops.bilinear_resize_op(t, 11, 7)), [t]

    def b_pack_unpack(rng):
        grid = iops.ReplicaGrid(2, 1, 3, 4)
        t = pos_leaf(rng, (3, 4))
        c = iops.pack_grid_op(ad.replicas(t, [1.0, 0.7]), grid)
        parts = iops.unpack_grid_op(c, grid)
        return ad.sq_sum(ad.merge(parts, [1.0, 1.0])), [t]

    def b_unshuffle(rng):
        t = pos_leaf(rng, (6, 6))
        return ad.sq_sum(iops.unshuffle_op(t)), [t]

    def b_unshuffle_zero(rng):
        t = pos_leaf(rng, (6, 6))
        return ad.sq_sum(iops.unshuffle_op(t, use_luma=False)), [t]

    def b_softdtw(rng):
        x = leaf(rng, (9,))
        y = leaf(rng, (11,))
        return lo.soft_dtw(x, y, 0.5), [x, y]

    core = {
        "add": lambda rng: (lambda x: (ad.sq_sum(ad.add(x, ad.scale(x, 0.5))), [x]))(leaf(rng, (2, 4, 4))),
        "sub": lambda rng: (lambda x: (ad.sq_sum(ad.sub(ad.scale(x, 2.0), x)), [x]))(leaf(rng, (2, 4, 4))),
        "scale": lambda rng: (lambda x: (ad.sq_sum(ad.scale(x, -1.3)), [x]))(leaf(rng, (2, 4, 4))),
        "reshape": lambda rng: (lambda x: (ad.sq_sum(ad.reshape(x, (4, 8))), [x]))(leaf(rng, (2, 4, 4))),
        "conv2d": lambda rng: (lambda x, k, b: (ad.sq_sum(ad.conv2d(x, k, b)), [x, k, b]))(
            leaf(rng, (2, 4, 4)), leaf(rng, (3, 2, 3, 3)), leaf(rng, (3,))),
        "conv2d_leaky": lambda rng: (lambda x, k, b: (ad.sq_sum(ad.conv2d(x, k, b, 0.2)), [x, k, b]))(
            leaf(rng, (2, 4, 4)), leaf(rng, (3, 2, 3, 3)), leaf(rng, (3,))),
        "upsample_concat": lambda rng: (lambda a, s: (ad.sq_sum(ad.upsample_concat(a, s)), [a, s]))(
            leaf(rng, (2, 2, 3)), leaf(rng, (3, 4, 6))),
        "avg_pool2": lambda rng: (lambda x: (ad.sq_sum(ad.avg_pool2(x)), [x]))(leaf(rng, (2, 4, 4))),
        "mean": lambda rng: (lambda x: (ad.scale(ad.mean(x), 7.0), [x]))(leaf(rng, (2, 4, 4))),
        "abs_sum": lambda rng: (lambda x: (ad.scale(ad.abs_sum(x), 0.5), [x]))(leaf(rng, (2, 4, 4))),
        "sq_sum": lambda rng: (lambda x: (ad.scale(ad.sq_sum(x), 0.5), [x]))(leaf(rng, (2, 4, 4))),
        "sqrt": lambda rng: (lambda x: (ad.sq_sum(ad.sqrt(x)), [x]))(pos_leaf(rng, (2, 4, 4))),
        "recip": lambda rng: (lambda x: (ad.sq_sum(ad.recip(x)), [x]))(pos_leaf(rng, (2, 4, 4), 0.5, 1.5)),
        "weighted_sum": lambda rng: (lambda x, y, w1, w2: (
            ad.sq_sum(ad.weighted_sum([x, y], [w1, w2])), [x, y, w1, w2]))(
            leaf(rng, (3, 3)), leaf(rng, (3, 3)), leaf(rng, ()), leaf(rng, ())),
        "replicas": lambda rng: (lambda x, w: (ad.sq_sum(ad.replicas(x, w)), [x, w]))(
            leaf(rng, (3, 3)), leaf(rng, (4,))),
        "merge": lambda rng: (lambda x, w: (ad.sq_sum(ad.merge(x, w)), [x, w]))(
            leaf(rng, (3, 3, 3)), leaf(rng, (3,))),
    }
    domain = {
        "istft": b_istft,
        "istdct": b_istdct,
        "stft_mag": b_stft_mag,
        "stft_phase": b_stft_phase,
        "stdct_fwd": b_stdct_fwd,
        "bilinear_resize": b_bilinear,
        "pack_unpack_grid": b_pack_unpack,
        "luma_unshuffle": b_unshuffle,
        "zero_pad_unshuffle": b_unshuffle_zero,
        "soft_dtw": b_softdtw,
    }
    return core, domain


def test_c02_autodiff_gradients():
    start = time.monotonic()
    core, domain = _registered_op_builders()
    worst = {}
    for name, builder in core.items():
        worst[name] = max(ad.grad_check(builder, seed) for seed in range(10))
    for name, builder in domain.items():
        worst[name] = max(ad.grad_check(builder, seed) for seed in range(3))

    def unet_builder(rng):
        cfg = nets.UNetConfig(1, 1, depth=2, base_channels=4)
        params = nets.init_unet(cfg, rng, "u")
        x = ad.Tensor(rng.uniform(0.4, 1.2, size=(1, 16, 16)), requires_grad=True)
        y = nets.unet_forward(cfg, params, x, "u")
        return ad.sq_sum(y), [x] + list(params.values())

    worst["unet_full"] = ad.grad_check(unet_builder, 0)
    elapsed = time.monotonic() - start
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    assert not bad, bad
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2 PASS: {len(worst)} ops + full U-Net, worst grad error "
          f"{max(worst.values()):.2e} (< 1e-4) in {elapsed:.1f}s")


def test_c03_soft_dtw():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst_bf = 0.0
    for _ in range(30):
        n, m = rng.integers(1, 7, size=2)
        x, y = rng.normal(size=n), rng.normal(size=m)
        for gamma in (0.1, 1.0):
            got = float(lo.soft_dtw(ad.Tensor(x), ad.Tensor(y), gamma).data)
            worst_bf = max(worst_bf, abs(got - brute_force_soft_dtw(x, y, gamma)))
    assert worst_bf < 1e-9

    def builder(r):
        x = ad.Tensor(r.normal(size=12), requires_grad=True)
        y = ad.Tensor(r.normal(size=10), requires_grad=True)
        return lo.soft_dtw(x, y, 1.0), [x, y]

    worst_grad = max(ad.grad_check(builder, seed) for seed in range(5))
    assert worst_grad < 1e-4

    self_vals = [float(lo.soft_dtw(ad.Tensor(rng.normal(size=k)),
                                   ad.Tensor(rng.normal(size=0) if False else rng.normal(size=k)),
                                   1.0).data) for k in (3,)]
    for k in (2, 6, 15):
        x = rng.normal(size=k)
        assert float(lo.soft_dtw(ad.Tensor(x), ad.Tensor(x), 1.0).data) <= 0.0

    worst_hard = 0.0
    for _ in range(5):
        x, y = rng.normal(size=9), rng.normal(size=11)
        got = float(lo.soft_dtw(ad.Tensor(x), ad.Tensor(y), 0.001).data)
        worst_hard = max(worst_hard, abs(got - hard_dtw(x, y)))
    assert worst_hard < 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: soft-DTW vs enumeration {worst_bf:.2e} (< 1e-9), grad "
          f"{worst_grad:.2e} (< 1e-4), hard-DTW gap {worst_hard:.2e} (< 1e-3) in {elapsed:.1f}s")


def test_c04_pixel_shuffle_luma():
    rng = np.random.default_rng(0)
    worst_rt = 0.0
    for _ in range(100):
        img = rng.random((3, 8, 8))
        back = unshuffle(iops.shuffle_with_luma(img))
        worst_rt = max(worst_rt, np.max(np.abs(back - img)))
    assert worst_rt < 1e-9

    pix = rng.random((3, 1000))
    worst_ycc = np.max(np.abs(ycbcr_to_rgb(rgb_to_ycbcr(pix), clamp=False) - pix))
    assert worst_ycc < 1e-9

    # gray fixed point: the shuffled plane is bit-exactly the gray value;
    # the decimal luma weights sum to 1 only to one ulp, so the full round
    # trip is exact to float64 resolution
    gray = np.full((3, 4, 4), 0.37)
    plane = iops.shuffle_with_luma(gray)
    assert np.array_equal(plane, np.full((8, 8), 0.37))
    worst_gray = np.max(np.abs(unshuffle(plane) - gray))
    assert worst_gray <= 5e-16
    print(f"\nACCEPTANCE 4 PASS: shuffle round trip {worst_rt:.2e} (< 1e-9), ycbcr "
          f"{worst_ycc:.2e} (< 1e-9), gray fixed point {worst_gray:.1e} (float64-exact)")


def test_c05_embedding_geometry():
    rng = np.random.default_rng(0)
    cases = [
        # (grid shape source, cell, expected container, expected count)
        (emb.replica_grid("replicate", 256, False), (512, 512), (1024, 512), 2),
        (emb.replica_grid("replicate", 256, True), (512, 512), (2048, 1024), 8),
        (emb.replica_grid("multichannel", 256, False), (256, 256), (1024, 512), 8),
        (emb.replica_grid("multichannel", 256, True), (256, 256), (2048, 1024), 32),
    ]
    for grid, cell, container_shape, count in cases:
        assert (grid.cell_h, grid.cell_w) == cell
        assert grid.count == count
        assert grid.container_shape == container_shape
        reps = rng.random((count,) + cell)
        container = pack(reps, grid)
        back = unpack(container, grid)
        assert all(np.array_equal(a, b) for a, b in zip(reps, back))
        assert np.array_equal(pack(back, grid), container)
    assert (cases[2][0].rows, cases[2][0].cols) == (4, 2)
    assert (cases[3][0].rows, cases[3][0].cols) == (8, 4)
    print("\nACCEPTANCE 5 PASS: pack/unpack exact partitions: 2 replicas (small plane), "
          "8 in 4x2 (large plane & small multichannel), 32 in 8x4 (large multichannel)")


def test_c06_container_isolation():
    cfg = pl.PipelineConfig(transform="stft", container="magnitude", seed=0)
    bundle = pl.build_model(cfg)
    pair = pl.synth_dataset(1, cfg=cfg, seed=0)[0]
    out = pl.run_pipeline(bundle, [pair])
    stego, spec = out["stego_planes"], out["spec"]
    assert np.array_equal(stego["phase"].data[0], spec.phase[0])
    assert stego["phase"] is out["cover_planes"]["phase"]
    assert not np.array_equal(stego["magnitude"].data[0], spec.magnitude[0])
    print("\nACCEPTANCE 6 PASS: magnitude-only embedding leaves the cover phase plane "
          "bit-identical before inversion")


def test_c07_training_smoke(trained_desk_models):
    total_time = sum(m["train_seconds"] for m in trained_desk_models.values())
    lines = []
    for method in METHODS:
        entry = trained_desk_models[method]
        totals = entry["log"].totals()
        ratio = totals[-1] / totals[0]
        assert ratio <= 0.5, (method, ratio)
        baseline = np.mean([pl.best_constant_baseline_l1(p.secret) for p in entry["pairs"]])
        l1s = []
        for pair in entry["pairs"]:
            stego, _ = pl.embed(pair.secret, pair.cover, entry["bundle"])
            revealed = pl.reveal(stego, entry["bundle"])
            l1s.append(np.mean(np.abs(revealed - pair.secret)))
        revealed_l1 = float(np.mean(l1s))
        assert revealed_l1 < baseline, (method, revealed_l1, baseline)
        lines.append(f"{method}: loss x{ratio:.3f}, revealed L1 {revealed_l1:.4f} < {baseline:.4f}")

    for container in ("dual", "phase"):
        cfg = pl.PipelineConfig(transform="stft", container=container, method="stretch",
                                steps=50, batch=4, lr=5e-3, seed=0)
        pairs = pl.synth_dataset(8, cfg=cfg, seed=0)
        _, log = pl.train(pairs, cfg)
        assert np.all(np.isfinite(log.totals())), container

    assert total_time < 600.0
    print(f"\nACCEPTANCE 7 PASS: desk smoke (300 steps, seed 0) in {total_time:.0f}s; "
          + "; ".join(lines) + "; dual/phase 50 steps finite")


def test_c08_robustness_harness(trained_desk_models):
    fractions = (1.0, 0.75, 0.5, 0.25, 0.125)
    gaps = {}
    seq_half = {}
    for method in METHODS:
        entry = trained_desk_models[method]
        bundle, pairs = entry["bundle"], entry["pairs"]
        rows = rob.robustness_sweep(bundle, pairs, fractions, ("sequential", "random"))
        # fraction-1.0 rows equal the no-attack evaluation within 1e-12
        ssims, psnrs = [], []
        for pair in pairs:
            stego, _ = pl.embed(pair.secret, pair.cover, bundle)
            revealed = pl.reveal(stego, bundle)
            ssims.append(me.ssim(pair.secret, revealed))
            psnrs.append(me.psnr_db(pair.secret, revealed))
        for row in rows:
            if row["keep_fraction"] == 1.0:
                assert abs(row["mean_ssim"] - np.mean(ssims)) < 1e-12
                assert abs(row["mean_psnr_db"] - np.mean(psnrs)) < 1e-12
        # monotone degradation per mode, one inversion <= 0.02 tolerated
        for mode in ("sequential", "random"):
            series = [r["mean_ssim"] for r in rows if r["mode"] == mode]
            inversions = [max(0.0, series[i + 1] - series[i]) for i in range(len(series) - 1)]
            big = [v for v in inversions if v > 1e-12]
            assert len(big) <= 1, (method, mode, series)
            assert all(v <= 0.02 for v in big), (method, mode, series)
            if mode == "sequential":
                seq_half[method] = series[fractions.index(0.5)]
        gaps[method] = seq_half[method]
    gap = gaps["replicate"] - gaps["stretch"]
    print(f"\nACCEPTANCE 8 PASS: fraction-1.0 rows match eval (<1e-12); SSIM non-increasing "
          f"per mode; replicate-vs-stretch SSIM gap at p=0.5 sequential: {gap:+.4f} "
          f"(sign {'+' if gap >= 0 else '-'}; reported, not asserted)")


def test_c09_cost_structure():
    rows = {r["name"]: r for r in costing.cost_table(
        costing.standard_variants(pl.PipelineConfig(method="stretch")))}
    assert rows["replicate"]["param_delta"] == 0
    assert rows["w_replicate"]["param_delta"] == 4
    assert rows["dual_container"]["params"] == 2 * rows["baseline"]["params"] + 3
    assert rows["luma"]["param_delta"] == 0
    assert rows["replicate"]["macs"] == rows["baseline"]["macs"]
    assert rows["stretch_large"]["mac_delta_pct"] > 0.0
    assert rows["stretch_large"]["macs_image_stage"] == rows["baseline"]["macs_image_stage"]
    assert rows["stretch_large"]["macs_container_stage"] > rows["baseline"]["macs_container_stage"]
    print(f"\nACCEPTANCE 9 PASS: replicate +0, w_replicate +4, dual 2x+3, luma +0, "
          f"stretch==replicate MACs, large +{rows['stretch_large']['mac_delta_pct']:.2f}% "
          f"(container-stage only); published 962128 params / 34.6 GMAC printed for comparison")


def test_c10_determinism(tmp_path):
    cfg_text = ("method=w_replicate\ntransform=stdct\ncontainer=magnitude\n"
                "steps=12\nbatch=2\nlr=0.005\nseed=0\n")
    cfg = pl.parse_config_text(cfg_text)
    artifacts = []
    for tag in ("a", "b"):
        pairs = pl.synth_dataset(4, cfg=cfg, seed=cfg.seed)
        data_dir = tmp_path / f"pairs_{tag}"
        pl.save_dataset(pairs, data_dir)
        bundle, log = pl.train(pl.load_dataset(data_dir), cfg)
        ckpt = tmp_path / f"model_{tag}.pxw2"
        pl.save_checkpoint(bundle, ckpt)
        (tmp_path / f"loss_{tag}.csv").write_text(log.to_csv(), encoding="utf-8")
        rows = rob.robustness_sweep(bundle, pairs, (1.0, 0.5), ("sequential", "random"))
        (tmp_path / f"sweep_{tag}.csv").write_text(me.csv_table(rob.SWEEP_CSV_HEADER, rows), encoding="utf-8")
        artifacts.append({
            "data": [(p.name, p.read_bytes()) for p in sorted(data_dir.iterdir())],
            "ckpt": ckpt.read_bytes(),
            "loss": (tmp_path / f"loss_{tag}.csv").read_bytes(),
            "sweep": (tmp_path / f"sweep_{tag}.csv").read_bytes(),
        })
    assert artifacts[0]["data"] == artifacts[1]["data"]
    assert artifacts[0]["ckpt"] == artifacts[1]["ckpt"]
    assert artifacts[0]["loss"] == artifacts[1]["loss"]
    assert artifacts[0]["sweep"] == artifacts[1]["sweep"]
    print("\nACCEPTANCE 10 PASS: byte-identical datasets, checkpoints, loss and sweep CSVs "
          "across two seeded runs")
