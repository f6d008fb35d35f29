"""Frame-dropout attack harness: zero temporal frames of the stego
spectrogram, decode what survives, and measure the damage.

Dropping a frame zeroes its magnitude column only; with zero magnitude the
phase no longer influences the inverse transform, so this matches erasing
the spectral content outright.  Cover content in dropped frames is lost
along with the watermark.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dsp
from . import metrics as me
from . import pipeline as pl
from .errors import UsageError

MODES = ("sequential", "random")
DEFAULT_FRACTIONS = (1.0, 0.75, 0.5, 0.25, 0.125)
SWEEP_CSV_HEADER = "method,mode,keep_fraction,mean_ssim,mean_psnr_db"


@dataclass(frozen=True)
class DropoutSpec:
    keep_fraction: float
    mode: str = "sequential"
    seed: int = 0
    offset: int | None = None  # sequential start frame; None = drop the tail

    def __post_init__(self):
        if not 0.0 < self.keep_fraction <= 1.0:
            raise UsageError(f"keep fraction must be in (0, 1], got {self.keep_fraction}")
        if self.mode not in MODES:
            raise UsageError(f"unknown dropout mode {self.mode!r}")


def apply_frame_dropout(spec, drop):
    """Zero the magnitude of round((1-p)*T) frames; phase untouched."""
    frames = spec.shape[1]
    n_drop = int(round((1.0 - drop.keep_fraction) * frames))
    if n_drop == 0:
        return spec.with_planes(magnitude=spec.magnitude.copy())
    if drop.mode == "sequential":
        start = frames - n_drop if drop.offset is None else drop.offset
        if not 0 <= start <= frames - n_drop:
            raise UsageError(f"dropout offset {start} out of range for {frames} frames")
        cols = np.arange(start, start + n_drop)
    else:
        rng = np.random.default_rng(drop.seed)
        cols = rng.choice(frames, size=n_drop, replace=False)
    mag = spec.magnitude.copy()
    mag[:, cols] = 0.0
    return spec.with_planes(magnitude=mag)


def _sweep_cell(bundle, data, fraction, mode, seed):
    ssims, psnrs = [], []
    cfg = bundle.cfg
    for pair in data:
        stego, _ = pl.embed(pair.secret, pair.cover, bundle)
        spec = dsp.transform(stego, cfg.stft_config(), cfg.transform)
        attacked = apply_frame_dropout(spec, DropoutSpec(fraction, mode, seed))
        revealed = pl.reveal_from_spectrogram(attacked, bundle)
        ssims.append(me.ssim(pair.secret, revealed))
        psnrs.append(me.psnr_db(pair.secret, revealed))
    return float(np.mean(ssims)), float(np.mean(psnrs))


def worker_count():
    env = os.environ.get("STEGOWAV_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"STEGOWAV_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def robustness_sweep(bundle, data, fractions=DEFAULT_FRACTIONS, modes=MODES, seed=0):
    """One aggregated row per (mode, fraction), ordered deterministically."""
    cells = [(mode, fraction) for mode in modes for fraction in fractions]
    workers = worker_count()
    if workers > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda c: _sweep_cell(bundle, data, c[1], c[0], seed), cells))
    else:
        results = [_sweep_cell(bundle, data, fraction, mode, seed) for mode, fraction in cells]
    rows = []
    for (mode, fraction), (mean_ssim, mean_psnr) in zip(cells, results):
        rows.append({
            "method": bundle.cfg.method,
            "mode": mode,
            "keep_fraction": fraction,
            "mean_ssim": mean_ssim,
            "mean_psnr_db": mean_psnr,
        })
    return rows


def sweep_to_csv(rows):
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(",".join([
            row["method"],
            row["mode"],
            format(row["keep_fraction"], ".12g"),
            format(row["mean_ssim"], ".12g"),
            format(row["mean_psnr_db"], ".12g") if np.isfinite(row["mean_psnr_db"]) else "inf",
        ]))
    return "\n".join(lines) + "\n"
