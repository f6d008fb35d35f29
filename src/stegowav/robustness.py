"""Frame-dropout attack harness: zero temporal frames of the stego
spectrogram, decode what survives, and measure the damage.

The sweep is one serial pass on `evaluate`'s path: `pipeline.stego_spectrograms`
embeds each pair once and analyses the (B, L) stegos in one call, and every
(mode, fraction) cell attacks a copy of that cached (B, F, T) spectrogram,
reveals its pairs as one batch (see `pipeline.reveal_from_spectrogram`) and
scores them with `metrics.image_scores`; cells that drop the same frames
share one reveal and one score.
Dropping a frame erases its spectral content outright: the frame's column is
zeroed in every plane, so it reads magnitude 0 and, as `np.angle` reports an
erased bin, phase 0.  A model that reads phase loses the frame as surely as
one that reads magnitude.  Cover content in dropped frames is lost along with
the watermark.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

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

    def __post_init__(self):
        if not 0.0 < self.keep_fraction <= 1.0:
            raise UsageError(f"keep fraction must be in (0, 1], got {self.keep_fraction}")
        if self.mode not in MODES:
            raise UsageError(f"unknown dropout mode {self.mode!r}; choose from {MODES}")
        if self.seed < 0:
            raise UsageError(f"dropout seed must be >= 0, got {self.seed}")


def _dropped_frames(frames, drop):
    """The round((1-p)*frames) frame indices `drop` removes: the last ones or a seeded random set."""
    n_drop = int(round((1.0 - drop.keep_fraction) * frames))
    if drop.mode == "sequential":
        return np.arange(frames - n_drop, frames)
    return np.random.default_rng(drop.seed).choice(frames, size=n_drop, replace=False)


def apply_frame_dropout(spec, drop):
    """Zero the dropped frames in every plane of `spec`, one (F, T) spectrogram or a (B, F, T) stack."""
    dropped, planes = _dropped_frames(spec.shape[-1], drop), {}
    for plane in ("magnitude", "phase"):
        if getattr(spec, plane) is not None:
            planes[plane] = getattr(spec, plane).copy()
            planes[plane][..., dropped] = 0.0
    return replace(spec, **planes)


def _sweep_cell(bundle, spec, drop):
    """Revealed (B, 3, h, w) images of one cell: the cached (B, F, T) spectrogram under one attack, one batch."""
    return pl.reveal_from_spectrogram(apply_frame_dropout(spec, drop), bundle)


def worker_count():
    """Thread count from STEGOWAV_THREADS, else the CPU count.

    The sweep is serial; the benchmark's environment report is the only
    caller left.
    """
    env = os.environ.get("STEGOWAV_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"STEGOWAV_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def robustness_sweep(bundle, data, fractions=DEFAULT_FRACTIONS, modes=MODES, seed=0,
                     on_cell=None):
    """One `SWEEP_CSV_HEADER` row per (mode, fraction), ordered deterministically.

    `on_cell(mode, fraction, revealed)`, when given, receives each cell's
    revealed (B, 3, h, w) images in pair order; cells that drop the same
    frames hand over the same array.
    """
    # every cell's attack and every pair is checked before the first pair is embedded
    drops = [DropoutSpec(fraction, mode, seed) for mode in modes for fraction in fractions]
    if not drops:
        raise UsageError("robustness sweep has no cells: give at least one fraction and one mode")
    _, spec, _ = pl.stego_spectrograms(bundle, data, "robustness sweep")
    secrets = np.stack([pair.secret for pair in data])
    # cells that drop the same frames (every fraction-1.0 cell) are revealed and scored once
    attacks = [np.sort(_dropped_frames(spec.shape[-1], drop)).tobytes() for drop in drops]
    cells, rows = {}, []
    for index, (drop, attack) in enumerate(zip(drops, attacks)):
        if attack not in cells:
            revealed = _sweep_cell(bundle, spec, drop)
            cells[attack] = (revealed,) + me.image_scores(secrets, revealed)
        revealed, ssim, psnr = cells[attack] if attack in attacks[index + 1:] else cells.pop(attack)
        if on_cell is not None:
            on_cell(drop.mode, drop.keep_fraction, revealed)
        values = (bundle.cfg.method, drop.mode, drop.keep_fraction, ssim, psnr)
        rows.append(dict(zip(SWEEP_CSV_HEADER.split(","), values)))
    return rows

