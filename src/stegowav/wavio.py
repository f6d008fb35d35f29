"""WAV file I/O: PCM 16-bit signed little-endian, mono.

Ingest maps samples to [-1, 1) by dividing by 32768; emit rounds half away
from zero and clips, so int16 -> float -> int16 is bit-exact.
"""

from __future__ import annotations

import wave

import numpy as np

from .dsp import Waveform
from .errors import DataError, UsageError


def read_wav(path):
    try:
        with wave.open(str(path), "rb") as f:
            channels = f.getnchannels()
            width = f.getsampwidth()
            rate = f.getframerate()
            frames = f.getnframes()
            raw = f.readframes(frames)
    except (wave.Error, EOFError, OSError, RuntimeError) as exc:
        # RuntimeError: the chunk reader seeking past a corrupt chunk size
        raise DataError(f"{path}: not a readable WAV file ({exc})") from exc
    if channels != 1 or width != 2:
        raise DataError(f"{path}: expected mono 16-bit PCM, got {channels} ch x {8 * width} bit")
    if rate <= 0:
        raise DataError(f"{path}: header declares a sample rate of {rate} Hz")
    if len(raw) != 2 * frames:
        raise DataError(f"{path}: header declares {frames} frames but the data chunk "
                        f"holds {len(raw)} bytes")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples, rate)


def write_wav(w, path):
    if w.samples.ndim != 1:
        raise UsageError(f"{path}: a WAV file holds one waveform, got shape {w.samples.shape}")
    scaled = w.samples * 32768.0
    ints = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    ints = np.clip(ints, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate)
        f.writeframes(ints.tobytes())
