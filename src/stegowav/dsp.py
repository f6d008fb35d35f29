"""Short-time transforms between waveforms and spectrograms.

Two bases share one framing scheme: the complex STFT (magnitude + phase,
Nyquist bin dropped so F = N/2) and the orthonormal DCT-II STDCT (a single
signed plane, F = N).  Analysis zero-pads one hop in front of the signal and
whatever is needed at the tail; the periodic Hann window vanishes at its
first sample, so without the leading pad the first waveform sample would be
annihilated and no overlap-add inverse could recover it.  With the pad, the
squared-window overlap-add denominator is strictly positive at every
retained sample for any hop < N, which makes the inverses exact to machine
precision.

The framing lives here alone, as one adjoint pair: `_frame_signal` (pad,
slice, window) and `_scatter_frames` (window, overlap-add, trim).
`_overlap_add` divides the scatter by the squared-window sum (memoized per
config, frame count and length), and `_gather_frames` is its adjoint.  Each
transform has one numpy kernel, called by the plain function (`stft`,
`istdct`, ...) and by the tape op over raw arrays (`stft_mag_op`, `istdct_op`,
...) that pipeline training records.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import autodiff as ad
from .errors import ConfigError, UsageError


def hann_window(n):
    """Periodic Hann weights w[k] = 0.5 - 0.5*cos(2*pi*k/n)."""
    if n < 4 or n % 2:
        raise ConfigError(f"hann_window: frame length must be even and >= 4, got {n}")
    k = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / n)


@dataclass(frozen=True)
class StftConfig:
    frame_length: int
    hop: int
    window: str = "hann_periodic"

    def __post_init__(self):
        if self.frame_length < 4 or self.frame_length % 2:
            raise ConfigError(f"frame length must be even and >= 4, got {self.frame_length}")
        if not (1 <= self.hop <= self.frame_length):
            raise ConfigError(f"hop must be in [1, {self.frame_length}], got {self.hop}")
        if self.window != "hann_periodic":
            raise ConfigError(f"unknown window {self.window!r}")

    @property
    def freq_bins(self):
        return self.frame_length // 2

    def window_weights(self):
        return hann_window(self.frame_length)

    def frame_count(self, num_samples):
        """Frames covering the front-padded signal (one leading hop of zeros)."""
        n, r = self.frame_length, self.hop
        if num_samples < n:
            raise UsageError(f"waveform of {num_samples} samples is shorter than one frame ({n})")
        return int(np.ceil((num_samples + r - n) / r)) + 1

    def samples_for_frames(self, frames):
        """Largest sample count that yields exactly `frames` frames."""
        if frames < 1:
            raise UsageError("frame count must be >= 1")
        return (frames - 1) * self.hop + self.frame_length - self.hop


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise UsageError(f"waveform must be 1-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise UsageError("waveform contains NaN or Inf")
        if self.sample_rate <= 0:
            raise UsageError(f"sample rate must be positive, got {self.sample_rate}")
        self.samples = arr

    def __len__(self):
        return self.samples.size


@dataclass
class Spectrogram:
    """Magnitude/phase planes of shape (F, T) plus the transform setup.

    kind == "stdct" stores signed DCT coefficients in `magnitude` and has no
    phase plane (`phase is None`).  The magnitude invariant (>= 0) holds for
    transform output; stego spectrograms built by residual addition may dip
    negative, which the inverse handles as a phase flip.
    """

    magnitude: np.ndarray
    phase: np.ndarray | None
    config: StftConfig
    kind: str
    num_samples: int
    sample_rate: int

    def __post_init__(self):
        if self.kind not in ("stft", "stdct"):
            raise UsageError(f"unknown spectrogram kind {self.kind!r}")
        if (self.phase is None) != (self.kind == "stdct"):
            raise ConfigError(f"{self.kind} spectrogram "
                              f"{'needs a' if self.phase is None else 'cannot have a'} phase plane")
        if self.phase is not None and self.magnitude.shape != self.phase.shape:
            raise ConfigError(
                f"magnitude/phase shapes differ: {self.magnitude.shape} vs {self.phase.shape}")

    @property
    def shape(self):
        return self.magnitude.shape


def _frame_signal(x, cfg):
    """Window the front/tail padded signal into (T, N) frames."""
    n, r = cfg.frame_length, cfg.hop
    t = cfg.frame_count(x.size)
    padded = np.zeros((t - 1) * r + n)
    padded[r:r + x.size] = x
    idx = np.arange(n)[None, :] + (np.arange(t) * r)[:, None]
    return padded[idx] * cfg.window_weights()


def _scatter_frames(frames, cfg, num_samples):
    """Adjoint of _frame_signal: window, overlap-add, trim the pads back off."""
    t, n = frames.shape
    r = cfg.hop
    acc = np.zeros((t - 1) * r + n)
    windowed = frames * cfg.window_weights()
    for m in range(t):
        acc[m * r:m * r + n] += windowed[m]
    return acc[r:r + num_samples]


@functools.lru_cache(maxsize=32)
def _ola_denominator(cfg, count, num_samples):
    """Squared-window overlap-add sum of `count` frames over the retained samples.

    Memoized on its arguments; the array it returns is read-only.
    """
    win = np.broadcast_to(cfg.window_weights(), (count, cfg.frame_length))
    den = _scatter_frames(win, cfg, num_samples)
    if np.any(den <= 0.0):
        raise ConfigError(
            f"overlap-add denominator vanishes inside the signal "
            f"(hop {cfg.hop} too large for frame {cfg.frame_length})")
    den.flags.writeable = False
    return den


def _overlap_add(frames, cfg, num_samples):
    """Squared-window-normalized overlap-add; trims the pads back off."""
    return _scatter_frames(frames, cfg, num_samples) / _ola_denominator(
        cfg, frames.shape[0], num_samples)


def _gather_frames(grad, cfg):
    """Adjoint of _overlap_add: per-sample gradient -> (T, N) frame gradient."""
    return _frame_signal(grad / _ola_denominator(cfg, cfg.frame_count(grad.size), grad.size), cfg)


def _stft_bins(x, cfg):
    """(T, F) complex spectrum of the framed signal, Nyquist bin dropped."""
    return np.fft.rfft(_frame_signal(x, cfg), axis=1)[:, :cfg.freq_bins]


def _istft_samples(mag, phase, cfg, num_samples):
    # irfft zero-fills the dropped Nyquist bin
    z = mag * np.exp(1j * phase)
    frames = np.fft.irfft(z.T, n=cfg.frame_length, axis=1)
    return _overlap_add(frames, cfg, num_samples)


def _stdct_coeff(x, cfg):
    """(N, T) orthonormal DCT-II coefficients of the framed signal."""
    return scipy.fft.dct(_frame_signal(x, cfg), type=2, axis=1, norm="ortho").T.copy()


def _istdct_samples(coeff, cfg, num_samples):
    frames = scipy.fft.idct(coeff.T, type=2, axis=1, norm="ortho")
    return _overlap_add(frames, cfg, num_samples)


def stft(w, cfg):
    """Windowed per-frame DFT; bins 0..N/2-1 kept (Nyquist dropped)."""
    z = _stft_bins(w.samples, cfg)
    return Spectrogram(
        magnitude=np.abs(z).T.copy(),
        phase=np.angle(z).T.copy(),
        config=cfg,
        kind="stft",
        num_samples=len(w),
        sample_rate=w.sample_rate,
    )


def istft(s):
    """Inverse STFT via weighted overlap-add; the dropped Nyquist bin is zero."""
    if s.kind != "stft":
        raise UsageError(f"istft expects kind='stft', got {s.kind!r}")
    return Waveform(_istft_samples(s.magnitude, s.phase, s.config, s.num_samples), s.sample_rate)


def stdct(w, cfg):
    """Short-time orthonormal DCT-II; all N bins kept as a signed plane."""
    coeff = _stdct_coeff(w.samples, cfg)
    return Spectrogram(
        magnitude=coeff,
        phase=None,
        config=cfg,
        kind="stdct",
        num_samples=len(w),
        sample_rate=w.sample_rate,
    )


def istdct(s):
    if s.kind != "stdct":
        raise UsageError(f"istdct expects kind='stdct', got {s.kind!r}")
    return Waveform(_istdct_samples(s.magnitude, s.config, s.num_samples), s.sample_rate)


# ---------------------------------------------------------------------------
# tape transforms: the kernels above as differentiable ops over raw arrays


def istft_op(mag, phase, cfg, num_samples):
    """Tape-registered inverse STFT over (F, T) magnitude/phase tensors."""
    if mag.data.shape != phase.data.shape:
        raise ConfigError(f"istft: magnitude/phase shapes differ: {mag.data.shape} vs {phase.data.shape}")

    def bwd(g, acc):
        n = cfg.frame_length
        c = np.fft.rfft(_gather_frames(g, cfg), axis=1)[:, :cfg.freq_bins].T
        d_re = (2.0 / n) * c.real
        d_re[0] *= 0.5
        d_im = (2.0 / n) * c.imag
        cosp, sinp = np.cos(phase.data), np.sin(phase.data)
        acc(mag, d_re * cosp + d_im * sinp)
        acc(phase, mag.data * (d_im * cosp - d_re * sinp))

    return ad.register_op(
        "istft", (mag, phase),
        lambda: _istft_samples(mag.data, phase.data, cfg, num_samples), bwd)


def istdct_op(coeff, cfg, num_samples):
    """Tape-registered inverse STDCT over an (N, T) coefficient tensor."""

    def bwd(g, acc):
        acc(coeff, scipy.fft.dct(_gather_frames(g, cfg), type=2, axis=1, norm="ortho").T)

    return ad.register_op(
        "istdct", (coeff,), lambda: _istdct_samples(coeff.data, cfg, num_samples), bwd)


def _stft_plane_op(kind, wave, cfg):
    """Shared body of stft_mag_op and stft_phase_op; `kind` names the plane."""

    def fwd():
        z = _stft_bins(wave.data, cfg)
        return (np.abs(z) if kind == "stft_mag" else np.angle(z)).T.copy()

    def bwd(g, acc):
        z = _stft_bins(wave.data, cfg)
        phi = np.angle(z)
        if kind == "stft_mag":
            d_re = g.T * np.cos(phi)
            d_im = g.T * np.sin(phi)
        else:
            mag = np.maximum(np.abs(z), 1e-12)  # guard near zero magnitude
            d_re = -g.T * np.sin(phi) / mag
            d_im = g.T * np.cos(phi) / mag
        # transpose of frame -> one-sided DFT: undo irfft's hermitian
        # doubling of the interior bins (the dropped Nyquist bin is zero)
        dz = d_re + 1j * d_im
        dz[:, 1:] *= 0.5
        frames = np.fft.irfft(dz, n=cfg.frame_length, axis=1) * cfg.frame_length
        acc(wave, _scatter_frames(frames, cfg, wave.data.size))

    return ad.register_op(kind, (wave,), fwd, bwd)


def stft_mag_op(wave, cfg):
    """Tape-registered |STFT| of a waveform tensor (Nyquist bin dropped)."""
    return _stft_plane_op("stft_mag", wave, cfg)


def stft_phase_op(wave, cfg):
    """Tape-registered STFT phase plane of a waveform tensor."""
    return _stft_plane_op("stft_phase", wave, cfg)


def stdct_fwd_op(wave, cfg):
    """Tape-registered short-time DCT-II of a waveform tensor."""

    def bwd(g, acc):
        frames = scipy.fft.idct(g.T, type=2, axis=1, norm="ortho")
        acc(wave, _scatter_frames(frames, cfg, wave.data.size))

    return ad.register_op("stdct_fwd", (wave,), lambda: _stdct_coeff(wave.data, cfg), bwd)


def transform(w, cfg, kind):
    if kind == "stft":
        return stft(w, cfg)
    if kind == "stdct":
        return stdct(w, cfg)
    raise UsageError(f"unknown transform kind {kind!r}")


def inverse_transform(s):
    return istft(s) if s.kind == "stft" else istdct(s)


def log_view(s):
    """log(1 + |magnitude|) normalized to [0, 1]; a one-way display mapping."""
    v = np.log1p(np.abs(s.magnitude))
    peak = v.max()
    return v / peak if peak > 0 else v


def write_spectrogram_pgm(s, path):
    """8-bit P5 raster of log_view; low frequencies at the bottom row."""
    v = log_view(s)
    raster = np.flipud(np.round(v * 255.0).astype(np.uint8))
    h, w = raster.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(raster.tobytes())

