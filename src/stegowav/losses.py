"""Distances and composite training objectives.

l1/l2 use mean reductions so the mixing weights stay comparable across
container sizes, one per sample in a batch.  Soft dynamic time warping
(Cuturi & Blondel, arXiv 1703.01541) runs the log-sum-exp softmin DP and its
analytic backward pass over a batch of equal-length sequence pairs, one
anti-diagonal per step.  Its value is a sum over DP cells, not a mean, so its
scale grows with the waveform (see `waveform_term`).
Cell (i, j) of pair b (0-based) sits at T[(i + j) % m, b, i]: a diagonal and
its neighbours are contiguous slices, and a pair's n*m cells fill T once, less
than the (n+1)^2 square table.  Boundary cells live only in rolling buffers.
A kept T starts as every cell's cost, filled in one pass from a strided view
of y, and the forward pass adds each soft-min into its cell in place.  At
gamma = 1 both passes skip the divisions and products by gamma, which are
exact there, so every gamma gives the same bytes as the plain formula.
The backward pass overwrites T with the alignment weights E and reads the
gradient through a strided view, a few rows at a time.  `soft_dtw` is the
exact DP over whole sequences; `waveform_term` runs a long waveform's
equal-length chunks as one batch in one tape node.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .errors import ConfigError, UsageError

SOFT_DTW_CHUNK = 1024
SOFT_DTW_CHUNK_THRESHOLD = 4096
_TILE_ROWS = 64  # rows of E rebuilt per gradient gather, so the gather stays in cache


def l1(a, b, axis=None):
    """Mean absolute difference over `axis` (all axes by default), on the tape."""
    d = ad.sub(a, b)
    s = ad.abs_sum(d, axis)
    return ad.scale(s, 1.0 / (d.data.size // s.data.size))


def l2(a, b, axis=None):
    """Root of the mean squared difference over `axis` (all axes by default), on the tape."""
    d = ad.sub(a, b)
    s = ad.sq_sum(d, axis)
    return ad.sqrt(ad.scale(s, 1.0 / (d.data.size // s.data.size)))


# ---------------------------------------------------------------------------
# soft dynamic time warping


def _diagonal_costs(x, y):
    """cost(k, lo, hi, out) = d(i, k - i) for the 1-based rows i = lo..hi, zero past n and m."""
    xp = np.concatenate([x, np.zeros((len(x), 1))], axis=1)
    ypr, m = np.concatenate([np.zeros((len(y), 1)), y[:, ::-1]], axis=1), y.shape[1]
    return lambda k, lo, hi, out=None: np.square(
        np.subtract(xp[:, lo - 1:hi], ypr[:, m + 1 - k + lo:m + 2 - k + hi], out=out), out=out)


def _cost_table(x, y):
    """T[(i + j) % m, b, i] = (x[b, i] - y[b, j])**2: every cell's cost in its ring slot."""
    (nb, n), m = x.shape, y.shape[1]
    wraps = -(-(n - 1) // m)  # y tiled so that column (r - i) % m sits at r - i + wraps*m
    yt = np.tile(y, (1, wraps + 1))[:, wraps * m:]
    view = as_strided(yt, (m, nb, n), (yt.strides[1], yt.strides[0], -yt.strides[1]), writeable=False)
    T = np.subtract(x, view, out=np.empty((m, nb, n)))
    return np.square(T, out=T)


def _exp_over(w, gamma):
    """exp(w / gamma), in place; x / 1 is exact, so gamma = 1 skips the division."""
    if gamma != 1.0:
        w /= gamma
    return np.exp(w, out=w)


def _successor_weight(r_s, r, d_s, e_s, gamma):
    """exp((r_s - r - d_s) / gamma) * E_s, in a fresh array."""
    w = np.subtract(r_s, r)
    w -= d_s
    return np.multiply(_exp_over(w, gamma), e_s, out=w)


def _sdtw_forward(x, y, gamma, keep=True):
    """T of r[i,j] = d(i,j) + softmin(r[i-1,j], r[i,j-1], r[i-1,j-1]) and r[n,m] per pair;
    without `keep` (no backward will read T) T is one scratch row, not the table."""
    (nb, n), m, cost = x.shape, y.shape[1], _diagonal_costs(x, y)
    T, R = _cost_table(x, y) if keep else np.empty((1, nb, n)), np.full((3, nb, n + 2), np.inf)
    # R: the last three diagonals by 1-based row, +inf past the edges; softmin(inf, inf, 0) == 0
    R[2, :, 1] = cost(2, 1, 1)[:, 0]
    for k in range(3, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        t = T[(k - 2) % m, :, lo - 1:hi] if keep else cost(k, lo, hi, T[0, :, lo - 1:hi])
        a, b, c = R[(k - 1) % 3, :, lo - 1:hi], R[(k - 1) % 3, :, lo:hi + 1], R[(k - 2) % 3, :, lo - 1:hi]
        mn = np.minimum(np.minimum(a, b), c)
        s = _exp_over(mn - a, gamma)
        s += _exp_over(mn - b, gamma)
        s += _exp_over(mn - c, gamma)
        np.log(s, out=s)
        if gamma != 1.0:  # 1 * x is exact
            s *= gamma
        t += np.subtract(mn, s, out=s)
        R[k % 3, :, lo:hi + 1] = t
    return T, R[(n + m) % 3, :, n]


def _sdtw_backward(x, y, gamma, T):
    """Overwrite T with E[i,j] = sum over successors s of exp((r_s - r[i,j] - d_s) / gamma) * E_s
    (r = -inf past n or m, E[n,m] = 1); return the row and column sums of E * diff."""
    (nb, n), m, cost = x.shape, y.shape[1], _diagonal_costs(x, y)
    R, E, D = np.full((2, nb, n + 2), -np.inf), np.zeros((2, nb, n + 2)), np.zeros((2, nb, n + 2))
    R[(n + m) % 2, :, n] = T[(n + m - 2) % m, :, n - 1]
    E[(n + m) % 2, :, n] = T[(n + m - 2) % m, :, n - 1] = 1.0
    for k in range(n + m - 1, 1, -1):
        lo, hi = max(1, k - m), min(n, k - 1)
        r, r1, r2, e1, e2 = T[(k - 2) % m, :, lo - 1:hi], R[(k + 1) % 2], R[k % 2], E[(k + 1) % 2], E[k % 2]
        d1 = cost(k + 1, lo, hi + 1, D[(k + 1) % 2, :, lo:hi + 2])
        a = _successor_weight(r1[:, lo + 1:hi + 2], r, d1[:, 1:], e1[:, lo + 1:hi + 2], gamma)
        a += _successor_weight(r1[:, lo:hi + 1], r, d1[:, :-1], e1[:, lo:hi + 1], gamma)
        c = _successor_weight(r2[:, lo + 1:hi + 2], r, D[k % 2, :, lo + 1:hi + 2], e2[:, lo + 1:hi + 2], gamma)
        r2[:, lo:hi + 1] = r
        e2[:, lo:hi + 1] = np.add(a, c, out=r)
    gx, gy, rows = np.empty((nb, n)), np.empty((nb, m)), np.arange(n + m - 1) % m
    for s in range(nb):  # p[0] carries the column sums, so the rows add in order
        p = np.zeros((_TILE_ROWS + 1, m))
        for i in range(0, n, _TILE_ROWS):
            tile = T[rows[i:i + _TILE_ROWS + m - 1], s, i:i + _TILE_ROWS]
            w = tile.shape[1]
            np.subtract.outer(x[s, i:i + w], y[s], out=p[1:w + 1])
            p[1:w + 1] *= as_strided(tile, (w, m), (tile.strides[0] + tile.strides[1], tile.strides[0]))
            gx[s, i:i + w], p[0] = p[1:w + 1].sum(axis=1), p[:w + 1].sum(axis=0)
        gy[s] = p[0] if m > 1 else gx[s].sum()  # numpy sums one column pairwise
    return gx, gy


def soft_dtw(x, y, gamma=1.0, chunk=0):
    """Soft-DTW discrepancy with squared-difference cell cost, as one tape node: the DP over
    aligned `chunk`-sample pieces (default: whole sequences) as a batch plus a shorter tail,
    the values added in piece order; x and y are sequences, or rows of them with one value per row."""
    x, y = ad._as_tensor(x), ad._as_tensor(y)
    if x.data.ndim not in (1, 2) or x.data.shape[:-1] != y.data.shape[:-1] or 0 in x.data.shape + y.data.shape:
        raise UsageError("soft_dtw expects non-empty 1-D sequences or rows of them")
    if not 0.0 < gamma < np.inf:
        raise UsageError(f"soft_dtw smoothing gamma must be finite and > 0, got {gamma}")
    (*lead, n), m, cache = x.data.shape, y.data.shape[-1], {}
    cx, cy, rows, q = chunk or n, chunk or m, x.data.size // n, n // (chunk or n)

    def batches():
        xs, ys = x.data.reshape(rows, n), y.data.reshape(rows, m)
        whole = [(xs[:, :q * cx].reshape(-1, cx), ys[:, :q * cy].reshape(-1, cy))]
        return whole + ([(xs[:, q * cx:], ys[:, q * cy:])] if q * cx < n else [])

    def fwd():
        cache["t"] = [_sdtw_forward(a, b, gamma, ad._recording) for a, b in batches()]
        values = np.concatenate([v.reshape(rows, -1) for _, v in cache["t"]], axis=1)
        return np.cumsum(values, axis=1)[:, -1].reshape(lead)

    def bwd(g, acc):  # E overwrites the tables, so a second backward rebuilds them
        tables = cache.pop("t", None) or [_sdtw_forward(a, b, gamma) for a, b in batches()]
        grads = [_sdtw_backward(a, b, gamma, t) for (a, b), (t, _) in zip(batches(), tables)]
        g = np.asarray(g)[..., None]
        acc(x, g * 2.0 * np.concatenate([gx.reshape(rows, -1) for gx, _ in grads], axis=1).reshape(x.data.shape))
        acc(y, g * -2.0 * np.concatenate([gy.reshape(rows, -1) for _, gy in grads], axis=1).reshape(y.data.shape))

    return ad.register_op("soft_dtw", (x, y), fwd, bwd)


# ---------------------------------------------------------------------------
# composite objectives


def waveform_term(cfg, w, w_stego):
    """The waveform term of a PipelineConfig `cfg` for a waveform (L,), or for each row of (B, L).

    Two planes always use l1.  Past SOFT_DTW_CHUNK_THRESHOLD samples, soft-DTW runs over aligned
    SOFT_DTW_CHUNK-sample chunks (tail included) as one batch in one tape node.  l1 is a mean over
    samples, but soft-DTW a sum over cells and chunks: seeded `evaluate` rows read 0.056 against
    1,028.7 at desk and 0.0235 against 1,441,434 at paper_shape, so at lambda = 1 a soft-DTW
    objective is almost all waveform term.
    """
    w, w_stego = ad._as_tensor(w), ad._as_tensor(w_stego)
    if w.data.shape != w_stego.data.shape:
        raise ConfigError(f"waveform_term: shapes differ: {w.data.shape} vs {w_stego.data.shape}")
    if cfg.wave_loss == "l1" or len(cfg.planes()) == 2:
        return l1(w, w_stego, -1)
    chunk = SOFT_DTW_CHUNK if w.data.shape[-1] > SOFT_DTW_CHUNK_THRESHOLD else 0
    return soft_dtw(w, w_stego, cfg.gamma, chunk)


def composite_loss(cfg, secret, revealed, wave, wave_stego, planes):
    """Mean over the samples of their objectives, plus each term's mean as a float.

    With the weights of the PipelineConfig `cfg`: beta*l1(s,s') +
    lambda*wave(w,w') + spectral, where `planes` maps each active plane name
    to its (cover, stego) tensors.  One plane adds (1-beta)*l2(P,P'); two
    planes split (1-beta) as (1-theta) for the magnitude and theta for the
    phase.  A batch holds waveforms (B, L), planes (B, F, T) and images
    (3, B, h*w); with 1-D waveforms all is one sample.
    """
    if not planes or not set(planes) <= {"magnitude", "phase"}:
        raise UsageError(f"composite_loss: planes must be magnitude and/or phase, got {list(planes)}")
    if len(planes) == 1:
        weights = {plane: 1.0 - cfg.beta for plane in planes}
    else:
        weights = {"magnitude": (1.0 - cfg.beta) * (1.0 - cfg.theta),
                   "phase": (1.0 - cfg.beta) * cfg.theta}
    img = l1(secret, revealed, (0, 2) if wave.data.ndim == 2 else None)
    wav = waveform_term(cfg, wave, wave_stego)
    dists = {plane: l2(cover, stego, (-2, -1)) for plane, (cover, stego) in planes.items()}
    head = ad.add(ad.scale(img, cfg.beta), ad.scale(wav, cfg.lam))
    scaled = [ad.scale(dists[plane], weights[plane]) for plane in dists]
    total = ad.mean(ad.add(head, scaled[0] if len(scaled) == 1 else ad.add(*scaled)))
    terms = {
        "image_l1": float(img.data.mean()),
        "wave_term": float(wav.data.mean()),
        "mag_l2": float(dists["magnitude"].data.mean()) if "magnitude" in dists else 0.0,
        "phase_l2": float(dists["phase"].data.mean()) if "phase" in dists else 0.0,
    }
    return total, terms
