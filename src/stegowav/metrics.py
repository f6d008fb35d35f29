"""Evaluation metrics: SSIM/PSNR for images, SNR for audio, RGB histograms;
`image_scores` and `score_row` are the one scorer of revealed images.  SSIM's
11x11 Gaussian window is applied as two 1-D passes, rows then columns, over
strided views: no window patch is copied.  An output table's header is the
only spelling of its columns: its rows are plain dicts keyed by the header's
names, and `csv_table` writes every table.

The RGB density histogram distance stands in for subjective color-restoration
judgements: a revealed image that lost its colors shows collapsed channel
densities and a large L1 gap to the secret's histograms.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, UsageError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr_db(a, b):
    """10*log10(1/MSE) for [0,1]-range images; +inf when identical."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"psnr: shapes differ: {a.shape} vs {b.shape}")
    mse = np.mean((a - b) ** 2)
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def _gaussian_window(size, sigma):
    """The normalised 1-D Gaussian; SSIM's 2-D window is its outer product with itself."""
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def _ssim_planes(x, y):
    """Mean SSIM of each plane pair of x and y (P, H, W).  The window is separable, so the five statistics
    (x, y, x*x, y*y, x*y) are filtered as one (5P, H, W) stack by two 1-D passes, each a strided view of 11
    neighbours `@` the 1-D Gaussian: along the rows, then along the columns.  No window patch is copied."""
    g = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
    rows = sliding_window_view(np.concatenate([x, y, x * x, y * y, x * y]), SSIM_WINDOW, axis=2) @ g
    mx, my, mxx, myy, mxy = np.split(sliding_window_view(rows, SSIM_WINDOW, axis=1) @ g, 5)
    vx, vy, cov = mxx - mx * mx, myy - my * my, mxy - mx * my
    num = (2 * mx * my + c1) * (2 * cov + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return np.mean(num / den, axis=(1, 2))


def ssim(a, b):
    """Mean structural similarity, 11x11 Gaussian window (sigma 1.5), L=1.

    Computed per channel then averaged; accepts (H,W) or (C,H,W) for one
    value, or an (N,C,H,W) stack for N, each the bytes of its own call.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"ssim: shapes differ: {a.shape} vs {b.shape}")
    if not 2 <= a.ndim <= 4:
        raise UsageError(f"ssim: expected (H,W), (C,H,W) or (N,C,H,W), got {a.shape}")
    if a.shape[-1] < SSIM_WINDOW or a.shape[-2] < SSIM_WINDOW:
        raise UsageError(f"ssim: image {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    planes = _ssim_planes(a.reshape((-1,) + a.shape[-2:]), b.reshape((-1,) + b.shape[-2:]))
    values = np.mean(planes.reshape(a.shape[:-2] or (1,)), axis=-1)
    return values if a.ndim == 4 else float(values)


def image_scores(secrets, revealed):
    """(mean SSIM, mean PSNR dB) of (N, 3, h, w) revealed images against their secrets: the one scorer of
    `pipeline.evaluate`, every robustness-sweep cell and `reveal --reference` (a stack of one)."""
    psnrs = [psnr_db(secret, image) for secret, image in zip(secrets, revealed)]
    return float(np.mean(ssim(secrets, revealed))), float(np.mean(psnrs))


def snr_db(reference, signal):
    """10*log10(sum(ref^2)/sum((ref-sig)^2)); asymmetric in its arguments.  A silent reference reads -inf
    against a sounding signal and +inf against a silent one."""
    reference = np.asarray(reference, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if reference.shape != signal.shape:
        raise ConfigError(f"snr: shapes differ: {reference.shape} vs {signal.shape}")
    noise = float(np.sum((reference - signal) ** 2))
    if noise == 0.0:
        return float("inf")
    with np.errstate(divide="ignore"):  # a silent reference: log10(0) = -inf
        return float(10.0 * np.log10(float(np.sum(reference ** 2)) / noise))


def rgb_histogram(img):
    """Per-channel 256-bin density histogram over [0,1]; each row sums to 1."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 3 or img.shape[0] != 3:
        raise UsageError(f"expected (3, H, W) image, got {img.shape}")
    out = np.empty((3, 256))
    for c in range(3):
        counts, _ = np.histogram(img[c], bins=256, range=(0.0, 1.0))
        out[c] = counts / counts.sum()
    return out


def histogram_l1(h1, h2):
    """Mean over channels of the per-channel L1 histogram distance."""
    h1, h2 = np.asarray(h1, dtype=float), np.asarray(h2, dtype=float)
    if h1.shape != h2.shape:
        raise ConfigError(f"histogram_l1: shapes differ: {h1.shape} vs {h2.shape}")
    return float(np.mean(np.sum(np.abs(h1 - h2), axis=-1)))


def csv_line(values):
    """One line of every CSV table: a float to 12 significant digits, any other value as str() writes it."""
    return ",".join(format(v, ".12g") if isinstance(v, float) else str(v) for v in values)


def csv_table(header, rows):
    """The one CSV table writer: `header`, then each row's values in the header's order, one `csv_line` each."""
    names = header.split(",")
    return "\n".join([header] + [csv_line(row[name] for name in names) for row in rows]) + "\n"


METRICS_CSV_HEADER = "method,container,beta,lambda,ssim,psnr_db,snr_db,waveform_loss,hist_l1"


def score_row(cfg, secrets, revealed, snr_db=float("nan"), waveform_loss=float("nan")):
    """The `METRICS_CSV_HEADER` row of model config `cfg` for (N, 3, h, w) revealed images: `image_scores` and
    the mean histogram L1."""
    hists = [histogram_l1(rgb_histogram(secret), rgb_histogram(image)) for secret, image in zip(secrets, revealed)]
    values = (cfg.beta, cfg.lam, *image_scores(secrets, revealed), snr_db, waveform_loss, np.mean(hists))
    return dict(zip(METRICS_CSV_HEADER.split(","), [cfg.method, cfg.container, *map(float, values)]))
