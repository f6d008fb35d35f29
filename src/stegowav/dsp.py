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
transform has one kernel on numpy's real FFT (the STDCT's is `_dct`, the
orthonormal DCT-II, and its transpose `_idct`), called by `transform`/
`inverse_transform` and by the tape op over raw arrays (`stft_mag_op`,
`istdct_op`, ...) that pipeline training records.  The kernels, the tape
ops and the two entry points take any leading axes: a `Waveform` holds one
(L,) waveform or a (B, L) stack, as a `Spectrogram` holds (F, T) or
(B, F, T) planes, so one call analyses or synthesises a whole batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import imageops as iops
from .errors import ConfigError, UsageError


@functools.lru_cache(maxsize=32)
def hann_window(n):
    """Periodic Hann weights w[k] = 0.5 - 0.5*cos(2*pi*k/n); memoized per n and read-only."""
    if n < 4 or n % 2:
        raise ConfigError(f"hann_window: frame length must be even and >= 4, got {n}")
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    win.flags.writeable = False
    return win


@dataclass(frozen=True)
class StftConfig:
    frame_length: int
    hop: int

    def __post_init__(self):
        if self.frame_length < 4 or self.frame_length % 2:
            raise ConfigError(f"frame length must be even and >= 4, got {self.frame_length}")
        if not (1 <= self.hop <= self.frame_length):
            raise ConfigError(f"hop must be in [1, {self.frame_length}], got {self.hop}")

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
    """One (L,) waveform, or a (B, L) stack of B >= 1, and its sample rate; `len()` is L."""
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if not (arr.ndim == 1 or arr.ndim == 2 and len(arr)):
            raise UsageError(f"waveform must be (L,) or (B >= 1, L), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise UsageError("waveform contains NaN or Inf")
        if self.sample_rate <= 0:
            raise UsageError(f"sample rate must be positive, got {self.sample_rate}")
        self.samples = arr

    def __len__(self):
        return self.samples.shape[-1]


@dataclass
class Spectrogram:
    """Magnitude/phase planes of shape (F, T), or a (B, F, T) stack of B >= 1, plus the transform setup.

    Having a phase plane names the transform: an STFT spectrogram has one
    and F = N/2 rows (Nyquist bin dropped); an STDCT spectrogram has none and
    keeps all F = N signed DCT coefficients in `magnitude` (N =
    config.frame_length).  Transform output has magnitude >= 0; stego
    spectrograms built by residual addition may dip negative, which the
    inverse handles as a phase flip.
    """

    magnitude: np.ndarray
    phase: np.ndarray | None
    config: StftConfig
    num_samples: int
    sample_rate: int

    def __post_init__(self):
        if self.phase is not None and self.magnitude.shape != self.phase.shape:
            raise ConfigError(
                f"magnitude/phase shapes differ: {self.magnitude.shape} vs {self.phase.shape}")
        kind, rows = ("stdct", self.config.frame_length) if self.phase is None else ("stft", self.config.freq_bins)
        dims = self.magnitude.shape
        if len(dims) not in (2, 3) or dims[-2] != rows or not dims[0]:
            raise ConfigError(f"{kind} spectrogram of frame length {self.config.frame_length} needs "
                              f"({'B >= 1, ' * (len(dims) == 3)}{rows}, T) planes, got {dims}")

    @property
    def shape(self):
        return self.magnitude.shape


def _frame_signal(x, cfg):
    """Window the front/tail padded signal (..., L) into (..., T, N) frames."""
    n, r, size = cfg.frame_length, cfg.hop, x.shape[-1]
    t = cfg.frame_count(size)
    padded = np.zeros(x.shape[:-1] + ((t - 1) * r + n,))
    padded[..., r:r + size] = x
    step = padded.strides[-1]  # frame m is the view of padded[..., m*r:m*r + n]
    frames = np.ndarray(padded.shape[:-1] + (t, n), padded.dtype, padded, 0, padded.strides[:-1] + (r * step, step))
    return frames * cfg.window_weights()


def _scatter_frames(frames, cfg, num_samples):
    """Adjoint of _frame_signal: window, overlap-add, trim the pads back off.

    Block j (hop-long, the last zero-filled) of every frame adds in one slice,
    last block first, so that each sample adds its frames in frame order."""
    *lead, t, n = frames.shape
    r = cfg.hop
    q = -(-n // r)
    windowed = np.zeros((*lead, t, q * r))
    np.multiply(frames, cfg.window_weights(), out=windowed[..., :n])
    blocks = windowed.reshape(*lead, t, q, r)
    acc = np.zeros((*lead, t + q - 1, r))
    for j in reversed(range(q)):
        acc[..., j:j + t, :] += blocks[..., j, :]
    return acc.reshape(*lead, -1)[..., r:r + num_samples]


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
        cfg, frames.shape[-2], num_samples)


def _gather_frames(grad, cfg):
    """Adjoint of _overlap_add: per-sample gradient (..., L) -> (..., T, N) frame gradient."""
    size = grad.shape[-1]
    return _frame_signal(grad / _ola_denominator(cfg, cfg.frame_count(size), size), cfg)


def _stft_bins(x, cfg):
    """(..., T, F) complex spectrum of the framed signal, Nyquist bin dropped."""
    return np.fft.rfft(_frame_signal(x, cfg), axis=-1)[..., :cfg.freq_bins]


def _stft_plane(zt, kind):
    """The "stft_mag" or "stft_phase" plane of a transposed (..., F, T) spectrum, written straight into (..., F, T)
    (np.angle is arctan2(imag, real))."""
    plane = np.empty(zt.shape)
    return np.abs(zt, out=plane) if kind == "stft_mag" else np.arctan2(zt.imag, zt.real, out=plane)


def _istft_samples(mag, phase, cfg, num_samples):
    """(..., F, T) planes -> (..., L), a row at a time: each row's spectrum is built frame-major, so irfft reads
    contiguous frames, and a phase plane that repeats one row (a stride-0 stack) becomes a phasor once.
    irfft zero-fills the dropped Nyquist bin."""
    out = np.empty(mag.shape[:-2] + (num_samples,))
    phasor, z = (np.empty(mag.shape[:-3:-1], complex) for _ in range(2))
    for i, row in enumerate(np.ndindex(mag.shape[:-2])):
        if not i or any(phase.strides[:-2]):
            np.exp(np.multiply(1j, phase[row].T, out=phasor), out=phasor)
        frames = np.fft.irfft(np.multiply(mag[row].T, phasor, out=z), n=cfg.frame_length, axis=-1)
        out[row] = _overlap_add(frames, cfg, num_samples)
    return out


@functools.lru_cache(maxsize=32)
def _dct_twiddle(n):
    """s_k exp(-i pi k / 2n) for k = 0..n/2, s_k the orthonormal DCT-II scale; memoized per n and read-only."""
    twiddle = np.sqrt(2.0 / n) * np.exp(-0.5j * np.pi * np.arange(n // 2 + 1) / n)
    twiddle[0] = np.sqrt(1.0 / n)
    twiddle.flags.writeable = False
    return twiddle


def _dct(frames):
    """(..., T, N) frames -> (..., N, T) orthonormal DCT-II coefficients (Makhoul, IEEE TASSP 1980):
    with z = twiddle * rfft(even samples, then odd ones reversed), X[k] = Re z[k] and X[N-k] = -Im z[k]."""
    *lead, t, n = frames.shape
    z = np.fft.rfft(np.concatenate((frames[..., ::2], frames[..., ::-2]), axis=-1), axis=-1)
    z *= _dct_twiddle(n)
    coeff = np.empty((*lead, n, t))
    rows = coeff.swapaxes(-1, -2)
    rows[..., :n // 2 + 1] = z.real
    np.negative(z.imag[..., n // 2 - 1:0:-1], out=rows[..., n // 2 + 1:])
    return coeff


def _idct(coeff):
    """Transpose (and inverse) of _dct: (..., N, T) coefficients -> (..., T, N) frames, from z[k] = X[k] - i X[N-k]."""
    n, rows = coeff.shape[-2], coeff.swapaxes(-1, -2)
    z = rows[..., :n // 2 + 1] + 0j
    z.imag[..., 1:] = -rows[..., :n // 2 - 1:-1]
    z /= _dct_twiddle(n)
    v = np.fft.irfft(z, n=n, axis=-1)
    frames = np.empty(rows.shape)
    frames[..., ::2], frames[..., 1::2] = v[..., :n // 2], v[..., :n // 2 - 1:-1]
    return frames


# ---------------------------------------------------------------------------
# tape transforms: the kernels above as differentiable ops over raw arrays


def istft_op(mag, phase, cfg, num_samples):
    """Tape-registered inverse STFT over (..., F, T) magnitude/phase tensors."""
    if mag.data.shape != phase.data.shape:
        raise ConfigError(f"istft: magnitude/phase shapes differ: {mag.data.shape} vs {phase.data.shape}")

    def bwd(g, acc):
        n = cfg.frame_length
        c = np.fft.rfft(_gather_frames(g, cfg), axis=-1)[..., :cfg.freq_bins].swapaxes(-1, -2)
        d_re = (2.0 / n) * c.real
        d_re[..., 0, :] *= 0.5
        d_im = (2.0 / n) * c.imag
        cosp, sinp = np.cos(phase.data), np.sin(phase.data)
        acc(mag, d_re * cosp + d_im * sinp)
        acc(phase, mag.data * (d_im * cosp - d_re * sinp))

    return ad.register_op(
        "istft", (mag, phase),
        lambda: _istft_samples(mag.data, phase.data, cfg, num_samples), bwd)


def istdct_op(coeff, cfg, num_samples):
    """Tape-registered inverse STDCT over an (..., N, T) coefficient tensor."""

    def bwd(g, acc):
        acc(coeff, _dct(_gather_frames(g, cfg)))

    return ad.register_op(
        "istdct", (coeff,), lambda: _overlap_add(_idct(coeff.data), cfg, num_samples), bwd)


def _stft_plane_op(kind, wave, cfg):
    """Shared body of stft_mag_op and stft_phase_op; `kind` names the plane."""

    def bwd(g, acc):
        z = _stft_bins(wave.data, cfg)
        phi, g = np.angle(z), g.swapaxes(-1, -2)
        if kind == "stft_mag":
            d_re = g * np.cos(phi)
            d_im = g * np.sin(phi)
        else:
            mag = np.maximum(np.abs(z), 1e-12)  # guard near zero magnitude
            d_re = -g * np.sin(phi) / mag
            d_im = g * np.cos(phi) / mag
        # transpose of frame -> one-sided DFT: undo irfft's hermitian
        # doubling of the interior bins (the dropped Nyquist bin is zero)
        dz = d_re + 1j * d_im
        dz[..., 1:] *= 0.5
        frames = np.fft.irfft(dz, n=cfg.frame_length, axis=-1) * cfg.frame_length
        acc(wave, _scatter_frames(frames, cfg, wave.data.shape[-1]))

    return ad.register_op(kind, (wave,), lambda: _stft_plane(_stft_bins(wave.data, cfg).swapaxes(-1, -2), kind), bwd)


def stft_mag_op(wave, cfg):
    """Tape-registered |STFT| of a waveform tensor (Nyquist bin dropped)."""
    return _stft_plane_op("stft_mag", wave, cfg)


def stft_phase_op(wave, cfg):
    """Tape-registered STFT phase plane of a waveform tensor."""
    return _stft_plane_op("stft_phase", wave, cfg)


def stdct_fwd_op(wave, cfg):
    """Tape-registered short-time DCT-II of a waveform tensor."""

    def bwd(g, acc):
        acc(wave, _scatter_frames(_idct(g), cfg, wave.data.shape[-1]))

    return ad.register_op("stdct_fwd", (wave,), lambda: _dct(_frame_signal(wave.data, cfg)), bwd)


def transform(w, cfg, kind):
    """Analyse a waveform into a `kind` spectrogram ("stft" or "stdct"): (L,) into (F, T), (B, L) into (B, F, T).

    STFT keeps bins 0..N/2-1 (the Nyquist bin is dropped) as magnitude and
    phase planes; STDCT keeps all N orthonormal DCT-II bins as one signed
    plane and has no phase.
    """
    if kind == "stft":
        zt = _stft_bins(w.samples, cfg).swapaxes(-1, -2)
        magnitude, phase = _stft_plane(zt, "stft_mag"), _stft_plane(zt, "stft_phase")
    elif kind == "stdct":
        magnitude, phase = _dct(_frame_signal(w.samples, cfg)), None
    else:
        raise UsageError(f"unknown transform kind {kind!r}")
    return Spectrogram(magnitude, phase, cfg, len(w), w.sample_rate)


def inverse_transform(s):
    """Overlap-add synthesis of `s`: (F, T) into (L,), (B, F, T) into (B, L); a dropped Nyquist bin reads as zero.

    An STFT stack whose phase repeats one plane (np.broadcast_to, stride 0) turns it into a phasor once."""
    if s.phase is None:
        x = _overlap_add(_idct(s.magnitude), s.config, s.num_samples)
    else:
        x = _istft_samples(s.magnitude, s.phase, s.config, s.num_samples)
    return Waveform(x, s.sample_rate)


def log_view(s):
    """log(1 + |magnitude|) normalized to [0, 1]; a one-way display mapping."""
    v = np.log1p(np.abs(s.magnitude))
    peak = v.max()
    return v / peak if peak > 0 else v


def write_spectrogram_pgm(s, path):
    """8-bit P5 raster of log_view; low frequencies at the bottom row."""
    iops.write_pnm(np.flipud(np.round(log_view(s) * 255.0).astype(np.uint8))[:, :, None], path, b"P5")

