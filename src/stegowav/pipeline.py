"""End-to-end embed/reveal data flow, training loop, datasets, checkpoints.

The transmitter, `run_pipeline`, follows the transmit-side picture: the
secret image is prepared for the hiding network, pushed through it, arranged
to container shape and residually added onto the cover's spectral plane(s);
the inverse transform makes the stego waveform.  `embed` synthesises the
stego and the cover's round trip (its SNR reference) in one call; a
training step (`_sample_loss`) synthesises on the tape and joins the
receiver, re-analysing the stego waveform and revealing from those planes as
`reveal_from_spectrogram` does from a received waveform's transform.
What the embedding method does on either side of each network is left to
the four `embeddings` hooks, which read the model's config; no function here
branches on the method.  Inference runs under `autodiff.no_grad`, and a stego
or revealed image that is not finite is a `NumericError`.  `evaluate` and the
robustness sweep score on one path: `stego_spectrograms`,
`reveal_from_spectrogram`, `metrics.image_scores`.

The graph runs B pairs at once, one pair being a batch of one: waveforms are
(B, L), planes (B, F, T), and the U-Nets stack samples along the rows (see
`networks`).  A training step records one graph over its minibatch, and
`reveal_from_spectrogram` runs one per chunk of the stack it is given.

A model is a `ModelBundle`: a `PipelineConfig`, checked in full wherever it
is read (config file, `--set` or checkpoint), and named parameters.  A resumed
`train(..., bundle=)` trains the bundle's parameters under the config it is
given and returns them under that config.
"""

from __future__ import annotations

import io
import itertools
import math
import struct
import zlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import dsp
from . import embeddings as emb
from . import imageops as iops
from . import losses as lo
from . import metrics as me
from . import networks as nets
from . import wavio
from .dsp import istdct_op, istft_op, stdct_fwd_op, stft_mag_op, stft_phase_op
from .errors import ConfigError, DataError, NumericError, UsageError

CHECKPOINT_MAGIC = b"PXW2"
CHECKPOINT_VERSION = 2  # 2 adds a CRC-32; version 1 files still load
_CHUNK_FLOATS = 2 ** 14  # floats of stacked container planes up to which one reveal graph holds several pairs
_CONFIG_KEYS = {"lam": "lambda"}  # config-file keys that differ from their PipelineConfig attribute


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class PipelineConfig:
    image: int = 16
    transform: str = "stdct"
    container: str = "magnitude"       # magnitude | phase | dual
    method: str = "replicate"
    large: bool = False
    luma: bool = True
    frame: int = 0                     # 0 = derive from container shape
    hop: int = 0                       # 0 = N/4 (stft) or N/2 (stdct)
    sample_rate: int = 16000
    beta: float = 0.75
    lam: float = 1.0
    theta: float = 0.5
    gamma: float = 1.0
    wave_loss: str = "l1"
    lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    steps: int = 300
    batch: int = 4
    seed: int = 0
    depth: int = 2
    channels: int = 8
    kernel: int = 3

    def __post_init__(self):
        if self.transform not in ("stft", "stdct"):
            raise ConfigError(f"unknown transform {self.transform!r}")
        if self.container not in ("magnitude", "phase", "dual"):
            raise ConfigError(f"unknown container kind {self.container!r}")
        if self.transform == "stdct" and self.container != "magnitude":
            raise ConfigError("stdct is a real transform: container must be 'magnitude'")
        if self.image < 4 or self.image % 2:
            raise ConfigError(f"image size must be even and >= 4, got {self.image}")
        # replica_grid rejects an unknown method, UNetConfig a depth, kernel or channel count no layer can take
        object.__setattr__(self, "grid", emb.replica_grid(self.method, self.image, self.large))
        object.__setattr__(self, "unets", emb.net_depths(self, self.grid.count))
        n = self.frame_length()
        if self.frame and self.frame != n:
            raise ConfigError(
                f"frame length {self.frame} inconsistent with container "
                f"(needs {n} for {self.transform})")
        if self.hop and not (1 <= self.hop < n):
            raise ConfigError(f"hop must be in [1, {n}), got {self.hop}")
        for f in fields(self):
            if isinstance(f.default, float) and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{_CONFIG_KEYS.get(f.name, f.name)} must be finite, got {getattr(self, f.name)}")
        for name, ok, rule in (
                ("batch", self.batch >= 1, ">= 1"), ("steps", self.steps >= 0, ">= 0"),
                ("seed", self.seed >= 0, ">= 0"), ("sample_rate", self.sample_rate > 0, "> 0"),
                ("lr", self.lr >= 0.0, ">= 0"), ("adam_eps", self.adam_eps > 0.0, "> 0"),
                ("adam_beta1", 0.0 <= self.adam_beta1 < 1.0, "in [0, 1)"),
                ("adam_beta2", 0.0 <= self.adam_beta2 < 1.0, "in [0, 1)"),
                ("beta", 0.0 <= self.beta <= 1.0, "in [0, 1]"), ("lam", self.lam >= 0.0, ">= 0"),
                ("theta", 0.0 <= self.theta <= 1.0, "in [0, 1]"), ("gamma", self.gamma > 0.0, "> 0"),
                ("wave_loss", self.wave_loss in ("l1", "soft_dtw"), "'l1' or 'soft_dtw'")):
            if not ok:
                raise ConfigError(f"{_CONFIG_KEYS.get(name, name)} must be {rule}, got {getattr(self, name)!r}")
        div = 2 ** self.depth
        for what, (h, w) in (("container", self.grid.container_shape), ("plane", (2 * self.image,) * 2),
                             ("image", (self.image,) * 2)):
            if h % div or w % div:
                raise ConfigError(f"{what} extents {h}x{w} not divisible by 2^{self.depth}")

    def planes(self):
        """Spectral planes that carry the secret, in network order."""
        return ("magnitude", "phase") if self.container == "dual" else (self.container,)

    def frame_length(self):
        f = self.grid.container_shape[0]
        return 2 * f if self.transform == "stft" else f

    def hop_length(self):
        if self.hop:
            return self.hop
        n = self.frame_length()
        return n // 4 if self.transform == "stft" else n // 2

    def stft_config(self):
        return dsp.StftConfig(self.frame_length(), self.hop_length())

    def required_samples(self):
        return self.stft_config().samples_for_frames(self.grid.container_shape[1])


# (config-file key, attribute, type) in field order, each typed by its default
_CONFIG_FIELDS = tuple((_CONFIG_KEYS.get(f.name, f.name), f.name, type(f.default)) for f in fields(PipelineConfig))


def config_to_text(cfg):
    """Canonical key=value rendering (the checkpoint and config-file format)."""
    lines = []
    for key, attr, typ in _CONFIG_FIELDS:
        value = getattr(cfg, attr)
        if typ is bool:
            text = "true" if value else "false"
        elif typ is float:
            text = format(float(value), ".17g")
        else:
            text = str(value)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def parse_config_text(text, base=None, source="<config>"):
    """Parse key=value lines ('#' comments); unknown keys are rejected."""
    fields_by_key = {key: (attr, typ) for key, attr, typ in _CONFIG_FIELDS}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in fields_by_key:
            raise UsageError(f"{source}:{lineno}: unknown key {key!r}")
        attr, typ = fields_by_key[key]
        try:
            if typ is bool:
                if val.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(val)
                parsed = val.lower() in ("true", "1")
            else:
                parsed = typ(val)
        except ValueError:
            raise UsageError(f"{source}:{lineno}: bad value {val!r} for {key}") from None
        values[attr] = parsed
    try:
        return PipelineConfig(**values) if base is None else replace(base, **values)
    except ConfigError as exc:
        raise UsageError(f"{source}: {exc}") from exc


# ---------------------------------------------------------------------------
# model assembly


@dataclass
class ModelBundle:
    """A model: its cfg, checked in full when made, which fixes geometry and objective, and its named parameters."""
    cfg: PipelineConfig
    params: dict

    def param_count(self):
        return nets.param_count(self.params)


def _net_prefixes(cfg, role):
    """{plane: parameter prefix} of one role's networks: `role`, or `role_mag`/`role_phase`."""
    planes = cfg.planes()
    if len(planes) == 1:
        return {planes[0]: role}
    return {"magnitude": f"{role}_mag", "phase": f"{role}_phase"}


def build_model(cfg):
    """A freshly initialised model for `cfg`, seeded by cfg.seed; `cfg` was checked in full when it was made."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    params = {}
    for role, net_cfg in zip(("hide", "reveal"), cfg.unets):
        for prefix in _net_prefixes(cfg, role).values():
            params.update(nets.init_unet(net_cfg, rng, prefix))
    if len(cfg.planes()) == 2:
        params.update(nets.init_coupling())
    params.update(emb.init_weights(cfg))
    return ModelBundle(cfg, params)


# ---------------------------------------------------------------------------
# forward data flow


def check_secret(bundle, secret, where):
    """Reject a secret image of any shape but the model's (3, image, image); `where` names it."""
    want = (3, bundle.cfg.image, bundle.cfg.image)
    if np.shape(secret) != want:
        raise UsageError(f"{where}: secret image shape {np.shape(secret)}, expected {want}")


def check_pairs(bundle, pairs):
    """Reject the first pair whose secret, cover shape, length or sample rate the model cannot take; name its index."""
    cfg = bundle.cfg
    need = cfg.required_samples()
    for index, pair in enumerate(pairs):
        check_secret(bundle, pair.secret, f"pair {index}")
        if pair.cover.samples.ndim != 1:
            raise UsageError(f"pair {index}: cover has shape {pair.cover.samples.shape}; a pair holds one waveform")
        if len(pair.cover) < need:
            raise UsageError(f"pair {index}: cover has {len(pair.cover)} samples; this model requires {need}")
        if pair.cover.sample_rate != cfg.sample_rate:
            raise UsageError(f"pair {index}: cover is sampled at {pair.cover.sample_rate} Hz; "
                             f"this model requires {cfg.sample_rate} Hz")


def _secret_images(pairs):
    """The secrets as one (3, B*h, w) array, stacked along the rows like the U-Net's samples."""
    secrets = np.stack([np.asarray(pair.secret, dtype=np.float64) for pair in pairs], axis=1)
    return secrets.reshape(3, -1, secrets.shape[-1])


def _hide_branch(bundle, secret_t, prefix, samples):
    out = nets.unet_forward(bundle.cfg.unets[0], bundle.params, secret_t, prefix, samples)
    return emb.encode_arrange(out, bundle.cfg, bundle.params, samples)


def _reveal_branch(bundle, container_t, prefix):
    xin = emb.decode_prepare(container_t, bundle.cfg)
    return nets.unet_forward(bundle.cfg.unets[1], bundle.params, xin, prefix, len(container_t.data))


def _finalize(bundle, net_out):
    return emb.decode_finalize(net_out, bundle.cfg, bundle.params)


def _cover_spectrogram(bundle, pairs):
    """The covers cut to the model's length as one (B, L) Waveform, and its (B, F, T) spectrogram from one call."""
    cfg = bundle.cfg
    covers = dsp.Waveform(np.stack([pair.cover.samples[:cfg.required_samples()] for pair in pairs]), cfg.sample_rate)
    return covers, dsp.transform(covers, cfg.stft_config(), cfg.transform)


def run_pipeline(bundle, pairs):
    """Build the differentiable transmitter for a batch of B pairs up to its stego planes; `_sample_loss`
    synthesises them on the tape and joins the receiver, `embed` synthesises them beside the cover.

    Returns a dict with the trimmed covers as (B, L) rows, their one (B, F, T)
    spectrogram and the cover and stego plane tensors (B, F, T) keyed by plane
    name (every plane of the transform; only the active ones carry the
    watermark).
    """
    cfg = bundle.cfg
    check_pairs(bundle, pairs)
    covers, spec = _cover_spectrogram(bundle, pairs)
    secret_t = emb.encode_prepare(_secret_images(pairs), cfg)  # the hiding network's input
    cover_planes = {plane: ad.Tensor(getattr(spec, plane))
                    for plane in ("magnitude", "phase") if getattr(spec, plane) is not None}
    stego_planes = dict(cover_planes)
    for plane, prefix in _net_prefixes(cfg, "hide").items():
        stego_planes[plane] = ad.add(cover_planes[plane], _hide_branch(bundle, secret_t, prefix, len(pairs)))
    return {"cover": covers.samples, "spec": spec, "cover_planes": cover_planes, "stego_planes": stego_planes}


def _stego_wave(out):
    """The (B, L) stego waveform tensor of `run_pipeline`'s stego planes, synthesised on the tape."""
    spec, planes = out["spec"], out["stego_planes"]
    if spec.phase is None:
        return istdct_op(planes["magnitude"], spec.config, spec.num_samples)
    return istft_op(planes["magnitude"], planes["phase"], spec.config, spec.num_samples)


def _reveal_from_planes(bundle, planes):
    """Reveal from the active `{plane: tensor}`; two planes meet in the coupler."""
    outs = [_reveal_branch(bundle, planes[plane], prefix)
            for plane, prefix in _net_prefixes(bundle.cfg, "reveal").items()]
    return _finalize(bundle, outs[0] if len(outs) == 1 else nets.couple(*outs, bundle.params))


def embed(secret, cover, bundle):
    """Hide `secret` in `cover`; returns (stego waveform, diagnostics).  `stego_snr_db` compares the stego with
    the cover's transform round trip; if that is silent, it reads -inf for a sounding stego, +inf for a silent one."""
    with ad.no_grad():
        out = run_pipeline(bundle, [SamplePair(secret, cover)])
    covers, stegos = out["cover_planes"], out["stego_planes"]
    # one synthesis of the rows [cover; stego]: a plane the model leaves as it is repeats one row (stride 0)
    rows = {plane: np.broadcast_to(t.data, (2,) + t.data.shape[1:]) if stegos[plane] is t
            else np.concatenate((t.data, stegos[plane].data)) for plane, t in covers.items()}
    try:
        both = dsp.inverse_transform(replace(out["spec"], magnitude=rows["magnitude"], phase=rows.get("phase")))
    except UsageError:  # the Waveform refuses non-finite samples; the cover's row is finite
        raise NumericError("embed: the stego waveform holds NaN or Inf") from None
    base, stego = both.samples[0], dsp.Waveform(both.samples[1].copy(), cover.sample_rate)
    pert = float(np.sqrt(sum(np.mean((stegos[plane].data[0] - covers[plane].data[0]) ** 2)
                             for plane in bundle.cfg.planes())))
    return stego, {"stego_snr_db": me.snr_db(base, stego.samples), "container_l2": pert}


def reveal(stego, bundle):
    """Decode the revealed image from a received stego waveform."""
    cfg = bundle.cfg
    need = cfg.required_samples()
    if stego.samples.shape != (need,):
        raise UsageError(f"stego has shape {stego.samples.shape}; this model requires exactly ({need},)")
    if stego.sample_rate != cfg.sample_rate:
        raise UsageError(f"stego is sampled at {stego.sample_rate} Hz; this model requires {cfg.sample_rate} Hz")
    return reveal_from_spectrogram(dsp.transform(stego, cfg.stft_config(), cfg.transform), bundle)[0]


def reveal_from_spectrogram(spec, bundle):
    """Decode a (possibly attacked) stego spectrogram, (F, T) or (B, F, T), into (B, 3, h, w) images in [0,1].

    One no-grad graph runs per chunk of pairs, as many as keep the chunk's
    container planes within _CHUNK_FLOATS (at least one); a chunk is a view
    of the stack."""
    cfg, shape, planes = bundle.cfg, bundle.cfg.grid.container_shape, bundle.cfg.planes()
    if spec.shape[-2:] != shape:
        raise UsageError(f"spectrogram shape {spec.shape} does not match model container {shape}")
    got = (spec.config, spec.sample_rate, spec.phase is not None)
    want = (cfg.stft_config(), cfg.sample_rate, cfg.transform == "stft")
    if got != want:
        raise UsageError(f"spectrogram (config, sample rate, phase plane) {got} does not match the model's {want}")
    stack = {plane: getattr(spec, plane).reshape((-1,) + shape) for plane in planes}
    del spec  # unless the caller holds it, a plane the model does not read (a magnitude model's phase) is freed
    image_hw = (cfg.image, cfg.image)
    out = np.empty((len(stack[planes[0]]), 3) + image_hw)
    per = max(1, _CHUNK_FLOATS // (len(planes) * shape[0] * shape[1]))
    for s0 in range(0, len(out), per):
        with ad.no_grad():
            revealed = _reveal_from_planes(bundle, {plane: ad.Tensor(a[s0:s0 + per]) for plane, a in stack.items()})
        images = revealed.data.reshape((3, -1) + image_hw).transpose(1, 0, 2, 3)
        finite = np.isfinite(images).all(axis=(1, 2, 3))
        if not finite.all():
            raise NumericError(f"pair {s0 + int(np.argmin(finite))}: the revealed image holds NaN or Inf")
        np.clip(images, 0.0, 1.0, out=out[s0:s0 + per])
    return out


# ---------------------------------------------------------------------------
# dataset synthesis


@dataclass
class SamplePair:
    secret: np.ndarray
    cover: dsp.Waveform


PROFILES = {
    "desk": {},
    "paper_shape": {"image": 256, "transform": "stft", "hop": 128, "sample_rate": 44100},
}


def profile_config(profile, cfg=None):
    if cfg is not None:
        return cfg
    if profile not in PROFILES:
        raise UsageError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    return PipelineConfig(**PROFILES[profile])


def _synth_image(rng, size):
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    img = np.empty((3, size, size))
    for c in range(3):
        fy, fx = rng.uniform(0.3, 1.5, size=2)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.15, 0.35)
        img[c] = 0.5 + amp * np.sin(2.0 * np.pi * (fy * yy + fx * xx) + ph)
    for _ in range(int(rng.integers(2, 5))):
        color = rng.random(3)
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        radius = rng.uniform(0.1, 0.35)
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2
        alpha = rng.uniform(0.5, 1.0)
        img = np.where(mask, (1 - alpha) * img + alpha * color[:, None, None], img)
    return np.clip(img, 0.0, 1.0)


def _pink_noise(rng, length):
    white = rng.normal(size=length)
    spec = np.fft.rfft(white)
    spec /= np.sqrt(np.maximum(1, np.arange(spec.size)))
    pink = np.fft.irfft(spec, n=length)
    peak = np.max(np.abs(pink))
    return pink / peak if peak > 0 else pink


def _synth_cover(rng, length, sample_rate):
    t = np.arange(length) / sample_rate
    x = np.zeros(length)
    for _ in range(int(rng.integers(3, 9))):
        freq = rng.uniform(40.0, 0.4 * sample_rate)
        amp = rng.uniform(0.05, 0.3)
        x += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    x += 0.1 * _pink_noise(rng, length)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.8 / peak
    return x


def synth_dataset(n, profile="desk", seed=0, cfg=None):
    """Procedural secrets/covers sized for `cfg` (or the named profile)."""
    if n < 1:
        raise UsageError(f"dataset size must be >= 1, got {n}")
    cfg = profile_config(profile, cfg)
    if cfg.sample_rate < 100:  # cover tones are drawn from [40 Hz, 0.4 * rate]
        raise UsageError(f"synth: sample rate {cfg.sample_rate} Hz is below the 100 Hz minimum")
    rng = np.random.default_rng(seed)
    length = cfg.required_samples()
    pairs = []
    for _ in range(n):
        secret = _synth_image(rng, cfg.image)
        cover = dsp.Waveform(_synth_cover(rng, length, cfg.sample_rate), cfg.sample_rate)
        pairs.append(SamplePair(secret, cover))
    return pairs


def save_dataset(pairs, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for i, pair in enumerate(pairs):
        iops.write_ppm(pair.secret, directory / f"secret_{i:03d}.ppm")
        wavio.write_wav(pair.cover, directory / f"cover_{i:03d}.wav")


def _pair_index(path):
    """The index a secret_<index>.ppm file names, which orders the dataset."""
    index = path.stem[len("secret_"):]
    if not index.isdecimal():
        raise DataError(f"{path}: expected secret_<index>.ppm")
    return int(index)


def load_dataset(directory):
    """The pairs save_dataset wrote to `directory`, in index order."""
    secrets = sorted(directory.glob("secret_*.ppm"), key=_pair_index)
    if not secrets:
        raise DataError(f"{directory}: no secret_*.ppm files found")
    pairs = []
    for spath in secrets:
        wpath = directory / spath.name.replace("secret_", "cover_").replace(".ppm", ".wav")
        if not wpath.exists():
            raise DataError(f"{wpath}: missing cover for {spath.name}")
        pairs.append(SamplePair(iops.read_ppm(spath), wavio.read_wav(wpath)))
    return pairs


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)

    CSV_HEADER = "step,total,image_l1,wave_term,mag_l2,phase_l2"

    def append(self, step, total, terms):
        self.rows.append((step, total) + tuple(terms[name] for name in self.CSV_HEADER.split(",")[2:]))

    def totals(self):
        return [row[1] for row in self.rows]

    def to_csv(self):
        return me.csv_table(self.CSV_HEADER, [dict(zip(self.CSV_HEADER.split(","), row)) for row in self.rows])


class Adam:
    def __init__(self, params, cfg):
        self.params = params
        self.lr = cfg.lr
        self.b1, self.b2, self.eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self):
        """One update from the parameters' gradients; m and v are updated in place."""
        self.t += 1
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            mhat = m / (1 - self.b1 ** self.t)
            vhat = v / (1 - self.b2 ** self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _sample_loss(bundle, pairs):
    """The batch loss of `pairs` under bundle.cfg: the mean of each pair's composite loss, and the mean terms."""
    cfg = bundle.cfg
    out = run_pipeline(bundle, pairs)
    stego_wave = _stego_wave(out)
    # reveal from the re-analysed stego waveform, as the receiver does: this keeps training and inference on one
    # path and drives the hiding network toward transform-consistent watermarks
    ops = {"magnitude": stdct_fwd_op if cfg.transform == "stdct" else stft_mag_op, "phase": stft_phase_op}
    revealed = _reveal_from_planes(bundle, {plane: ops[plane](stego_wave, cfg.stft_config())
                                            for plane in cfg.planes()})
    planes = {plane: (out["cover_planes"][plane], out["stego_planes"][plane]) for plane in cfg.planes()}
    images = (3, len(pairs), -1)  # each sample's image as a column: its loss sums over axes 0 and 2
    return lo.composite_loss(cfg, ad.Tensor(_secret_images(pairs).reshape(images)),
                             ad.reshape(revealed, images), ad.Tensor(out["cover"]), stego_wave, planes)


def train(dataset, cfg, bundle=None):
    """Adam training of all parameters against the composite loss; returns (ModelBundle(cfg, params), TrainLog).

    Deterministic given cfg.seed: fixed init, fixed shuffling.  A given `bundle` resumes: its parameters, which
    must have the names, order and shapes `build_model(cfg)` makes, are trained in place under `cfg`.  Every
    pair is checked before the first step.  Each step records one graph over its minibatch, whose loss is the
    mean of the pairs' losses, and runs one backward pass.
    """
    if not dataset:
        raise UsageError("train: empty dataset")
    fresh = build_model(cfg)
    if bundle is not None:
        have, want = ([f"{name!r} {t.data.shape}" for name, t in b.params.items()] for b in (bundle, fresh))
        for got, need in itertools.zip_longest(have, want, fillvalue="no parameter"):
            if got != need:
                raise ConfigError(f"train: bundle has {got} where cfg makes {need}")
    bundle = fresh if bundle is None else ModelBundle(cfg, bundle.params)
    check_pairs(bundle, dataset)
    opt = Adam(bundle.params, cfg)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)).spawn(1)[0])
    order = []
    log = TrainLog()
    for step in range(cfg.steps):
        batch = []
        for _ in range(min(cfg.batch, len(dataset))):
            if not order:
                order = list(shuffle_rng.permutation(len(dataset)))
            batch.append(dataset[order.pop()])
        for tensor in bundle.params.values():
            tensor.zero_grad()
        total, terms = _sample_loss(bundle, batch)
        value = float(total.data)
        if not np.isfinite(value):
            bad = next((k for k, v in terms.items() if not np.isfinite(v)), "total")
            raise NumericError(f"training aborted at step {step}: term '{bad}' is not finite")
        ad.backward(total)
        del total  # the graph dies here, not while the next step records its own
        opt.step()
        bad = next((name for name, p in bundle.params.items() if not np.isfinite(np.vdot(p.data, p.data))), None)
        if bad is not None:  # finite weights whose squares overflow make the next forward pass overflow too
            raise NumericError(f"training aborted at step {step}: sum of squares of parameter '{bad}' is not finite")
        log.append(step, value, terms)
    return bundle, log


def best_constant_baseline_l1(secret):
    """Mean |s - c*| for the best constant image c* (per-channel median)."""
    secret = np.asarray(secret, dtype=np.float64)
    med = np.median(secret.reshape(3, -1), axis=1)
    return float(np.mean(np.abs(secret - med[:, None, None])))


def stego_spectrograms(bundle, dataset, what):
    """Check every pair, embed each once and analyse the stegos in one call, as the receiver does: (one (B, L)
    stego Waveform, its spectrogram, embed diagnostics).  `evaluate` and the sweep call it; `what` names the caller."""
    if not dataset:
        raise UsageError(f"{what}: empty dataset")
    check_pairs(bundle, dataset)
    cfg = bundle.cfg
    done = []
    for pair in dataset:
        try:
            done.append(embed(pair.secret, pair.cover, bundle))
        except NumericError as exc:
            raise NumericError(f"pair {len(done)}: {exc}") from None
    stegos, diags = zip(*done)
    stego = dsp.Waveform(np.stack([s.samples for s in stegos]), cfg.sample_rate)
    return stego, dsp.transform(stego, cfg.stft_config(), cfg.transform), diags


def evaluate(bundle, dataset):
    """Mean `metrics.score_row` over a dataset (the `eval` row): `stego_spectrograms`, one batched reveal, one score."""
    cfg = bundle.cfg
    held = list(stego_spectrograms(bundle, dataset, "evaluate"))
    revealed = reveal_from_spectrogram(held.pop(1), bundle)  # the only reference: the reveal frees unread planes
    stego, diags = held
    covers = np.stack([pair.cover.samples[:cfg.required_samples()] for pair in dataset])
    with ad.no_grad():
        waves = lo.waveform_term(cfg, ad.Tensor(covers), ad.Tensor(stego.samples)).data
    with np.errstate(invalid="ignore"):  # a +inf pair and a -inf pair average to nan, which says so
        snr = float(np.mean([diag["stego_snr_db"] for diag in diags]))
    return me.score_row(cfg, np.stack([pair.secret for pair in dataset]), revealed, snr, np.mean(waves))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(bundle, path):
    """Magic, version, config text, a CRC-32 over every other byte, then the parameters."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    config = config_to_text(bundle.cfg).encode("utf-8")
    buf.write(struct.pack("<I", len(config)))
    buf.write(config)
    crc_at = buf.tell()
    buf.write(struct.pack("<I", len(bundle.params)))
    for name, tensor in bundle.params.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", tensor.data.ndim))
        for dim in tensor.data.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(tensor.data.astype("<f8").tobytes())
    raw = buf.getvalue()
    crc = zlib.crc32(raw[crc_at:], zlib.crc32(raw[:crc_at]))
    with open(path, "wb") as f:
        f.write(raw[:crc_at] + struct.pack("<I", crc) + raw[crc_at:])


class _Reader:
    def __init__(self, data, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, count, what):
        if self.pos + count > len(self.data):
            raise DataError(f"{self.path}: truncated at byte {self.pos} while reading {what}")
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, count, what):
        start = self.pos
        try:
            return self.take(count, what).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.path}: {what} at byte {start} is not UTF-8") from None


def load_checkpoint(path):
    with open(path, "rb") as f:
        reader = _Reader(f.read(), path)
    magic = reader.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r} at byte 0 (expected {CHECKPOINT_MAGIC!r})")
    (version,) = reader.unpack("<I", "version")
    if version not in (1, CHECKPOINT_VERSION):
        raise DataError(f"{path}: unsupported checkpoint version {version} at byte 4")
    (config_len,) = reader.unpack("<I", "config length")
    config_text = reader.text(config_len, "config text")
    crc_at = reader.pos
    (crc,) = reader.unpack("<I", "checksum") if version > 1 else (None,)
    try:
        bundle = build_model(parse_config_text(config_text, source=str(path)))
    except UsageError as exc:
        raise DataError(f"{path}: stored config rejected: {exc}") from exc
    (count,) = reader.unpack("<I", "parameter count")
    if count != len(bundle.params):
        raise DataError(f"{path}: has {count} parameters, model expects {len(bundle.params)}")
    for name in bundle.params:
        (name_len,) = reader.unpack("<H", "parameter name length")
        stored = reader.text(name_len, "parameter name")
        if stored != name:
            raise DataError(f"{path}: parameter {stored!r} at byte {reader.pos}, expected {name!r}")
        (ndim,) = reader.unpack("<B", "ndim")
        shape = tuple(reader.unpack("<I", "dim")[0] for _ in range(ndim))
        tensor = bundle.params[name]
        if shape != tensor.data.shape:
            raise DataError(f"{path}: parameter {name!r} has shape {shape}, expected {tensor.data.shape}")
        start = reader.pos
        raw = reader.take(8 * int(np.prod(shape, dtype=np.int64)) if shape else 8, "values")
        values = np.frombuffer(raw, dtype="<f8")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataError(f"{path}: parameter {name!r} holds non-finite value "
                            f"{values[bad[0]]} at byte {start + 8 * int(bad[0])}")
        tensor.data = values.reshape(shape).astype(np.float64)
    if reader.pos != len(reader.data):
        raise DataError(f"{path}: {len(reader.data) - reader.pos} trailing bytes at byte {reader.pos}")
    if crc is not None and crc != zlib.crc32(reader.data[crc_at + 4:], zlib.crc32(reader.data[:crc_at])):
        raise DataError(f"{path}: checksum mismatch: the CRC-32 at byte {crc_at} does not match the file")
    return bundle
