"""Distances and composite training objectives.

l1/l2 use mean reductions so the mixing weights stay comparable across
container sizes.  Soft dynamic time warping runs a log-sum-exp softmin DP
with an analytic backward pass; both directions are vectorized along
anti-diagonals so chunked waveform losses stay tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, UsageError

SOFT_DTW_CHUNK = 1024
SOFT_DTW_CHUNK_THRESHOLD = 4096


@dataclass
class LossConfig:
    beta: float = 0.75
    lam: float = 1.0
    theta: float = 0.5
    gamma: float = 1.0
    waveform_loss: str = "l1"

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0,1], got {self.beta}")
        if self.lam < 0.0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must be in [0,1], got {self.theta}")
        if self.gamma <= 0.0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if self.waveform_loss not in ("l1", "soft_dtw"):
            raise ConfigError(f"unknown waveform loss {self.waveform_loss!r}")


def l1(a, b):
    """Mean absolute difference, on the tape."""
    d = ad.sub(a, b)
    return ad.scale(ad.abs_sum(d), 1.0 / d.data.size)


def l2(a, b):
    """Root of the mean squared difference, on the tape."""
    d = ad.sub(a, b)
    return ad.sqrt(ad.scale(ad.sq_sum(d), 1.0 / d.data.size))


# ---------------------------------------------------------------------------
# soft dynamic time warping


def _softmin3(a, b, c, gamma):
    m = np.minimum(np.minimum(a, b), c)
    # inf cells stay inf; max-shift keeps exp arguments <= 0
    with np.errstate(invalid="ignore"):
        s = (np.exp(np.where(np.isinf(m), 0.0, (m - a) / gamma))
             + np.exp(np.where(np.isinf(m), 0.0, (m - b) / gamma))
             + np.exp(np.where(np.isinf(m), 0.0, (m - c) / gamma)))
    return np.where(np.isinf(m), m, m - gamma * np.log(s))


def _sdtw_forward(x, y, gamma):
    """DP table r[i,j] = d(i,j) + softmin(r[i-1,j], r[i,j-1], r[i-1,j-1])."""
    n, m = x.size, y.size
    d = (x[:, None] - y[None, :]) ** 2
    r = np.full((n + 1, m + 1), np.inf)
    r[0, 0] = 0.0
    # anti-diagonal sweep: cells (i, k-i) for the k-th diagonal
    for k in range(2, n + m + 1):
        i0, i1 = max(1, k - m), min(n, k - 1)
        i = np.arange(i0, i1 + 1)
        j = k - i
        r[i, j] = d[i - 1, j - 1] + _softmin3(r[i - 1, j], r[i, j - 1], r[i - 1, j - 1], gamma)
    return r


def _sdtw_backward(x, y, gamma, r):
    """Alignment-weight DP; returns E with dLoss/dD[i,j] = E[i,j]."""
    n, m = x.size, y.size
    d = np.zeros((n + 2, m + 2))
    d[1:n + 1, 1:m + 1] = (x[:, None] - y[None, :]) ** 2
    rr = np.full((n + 2, m + 2), -np.inf)
    rr[:n + 1, :m + 1] = r
    rr[n + 1, m + 1] = rr[n, m]
    e = np.zeros((n + 2, m + 2))
    e[n + 1, m + 1] = 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n + m, 1, -1):
            i0, i1 = max(1, k - m), min(n, k - 1)
            i = np.arange(i0, i1 + 1)
            j = k - i
            a = np.exp((rr[i + 1, j] - rr[i, j] - d[i + 1, j]) / gamma)
            b = np.exp((rr[i, j + 1] - rr[i, j] - d[i, j + 1]) / gamma)
            c = np.exp((rr[i + 1, j + 1] - rr[i, j] - d[i + 1, j + 1]) / gamma)
            e[i, j] = (np.nan_to_num(a, nan=0.0, posinf=0.0) * e[i + 1, j]
                       + np.nan_to_num(b, nan=0.0, posinf=0.0) * e[i, j + 1]
                       + np.nan_to_num(c, nan=0.0, posinf=0.0) * e[i + 1, j + 1])
    return e[1:n + 1, 1:m + 1]


def soft_dtw(x, y, gamma=1.0):
    """Soft-DTW discrepancy with squared-difference cell cost, on the tape."""
    x, y = ad._as_tensor(x), ad._as_tensor(y)
    if x.data.ndim != 1 or y.data.ndim != 1 or x.data.size == 0 or y.data.size == 0:
        raise UsageError("soft_dtw expects non-empty 1-D sequences")
    if gamma <= 0:
        raise UsageError(f"soft_dtw smoothing gamma must be > 0, got {gamma}")
    cache = {}

    def fwd():
        r = _sdtw_forward(x.data, y.data, gamma)
        cache["r"] = r
        return np.asarray(r[x.data.size, y.data.size])

    def bwd(g, acc):
        e = _sdtw_backward(x.data, y.data, gamma, cache["r"])
        diff = x.data[:, None] - y.data[None, :]
        acc(x, float(g) * 2.0 * (e * diff).sum(axis=1))
        acc(y, float(g) * -2.0 * (e * diff).sum(axis=0))

    return ad.register_op("soft_dtw", (x, y), fwd, bwd)


def soft_dtw_chunked(x, y, gamma=1.0, chunk=SOFT_DTW_CHUNK, threshold=SOFT_DTW_CHUNK_THRESHOLD):
    """Soft-DTW, split into consecutive same-position chunks past `threshold`.

    The O(n^2) DP is intractable on long waveforms; the documented fallback
    sums soft-DTW over aligned non-overlapping chunks of `chunk` samples
    (trailing remainder included).
    """
    x, y = ad._as_tensor(x), ad._as_tensor(y)
    if x.data.size != y.data.size:
        raise ConfigError(f"soft_dtw_chunked: lengths differ: {x.data.size} vs {y.data.size}")
    n = x.data.size
    if n <= threshold:
        return soft_dtw(x, y, gamma)
    total = None
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        piece = soft_dtw(ad.slice_axis(x, start, stop), ad.slice_axis(y, start, stop), gamma)
        total = piece if total is None else ad.add(total, piece)
    return total


def hard_dtw(x, y):
    """Classic min-rule DTW (oracle for the gamma -> 0 limit)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n, m = x.size, y.size
    d = (x[:, None] - y[None, :]) ** 2
    r = np.full((n + 1, m + 1), np.inf)
    r[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            r[i, j] = d[i - 1, j - 1] + min(r[i - 1, j], r[i, j - 1], r[i - 1, j - 1])
    return r[n, m]


# ---------------------------------------------------------------------------
# composite objectives


def waveform_term(cfg, w, w_stego):
    if cfg.waveform_loss == "soft_dtw":
        return soft_dtw_chunked(w, w_stego, cfg.gamma)
    return l1(w, w_stego)


def composite_loss(cfg, secret, revealed, wave, wave_stego, planes):
    """Total objective plus a float breakdown of its terms.

    beta*l1(s,s') + lambda*wave(w,w') + spectral, where `planes` maps each
    active plane name to its (cover, stego) tensors.  One plane adds
    (1-beta)*l2(P,P'); two planes split (1-beta) as (1-theta) for the
    magnitude and theta for the phase.
    """
    if not planes or not set(planes) <= {"magnitude", "phase"}:
        raise UsageError(f"composite_loss: planes must be magnitude and/or phase, got {list(planes)}")
    if len(planes) == 1:
        weights = {plane: 1.0 - cfg.beta for plane in planes}
    else:
        weights = {"magnitude": (1.0 - cfg.beta) * (1.0 - cfg.theta),
                   "phase": (1.0 - cfg.beta) * cfg.theta}
    img = l1(secret, revealed)
    wav = waveform_term(cfg, wave, wave_stego)
    dists = {plane: l2(cover, stego) for plane, (cover, stego) in planes.items()}
    head = ad.add(ad.scale(img, cfg.beta), ad.scale(wav, cfg.lam))
    scaled = [ad.scale(dists[plane], weights[plane]) for plane in dists]
    total = ad.add(head, scaled[0] if len(scaled) == 1 else ad.add(*scaled))
    terms = {
        "image_l1": float(img.data),
        "wave_term": float(wav.data),
        "mag_l2": float(dists["magnitude"].data) if "magnitude" in dists else 0.0,
        "phase_l2": float(dists["phase"].data) if "phase" in dists else 0.0,
    }
    return total, terms
