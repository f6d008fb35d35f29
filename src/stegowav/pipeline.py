"""End-to-end embed/reveal data flow, training loop, datasets, checkpoints.

The training graph follows the transmit-side picture: the secret image is
pixel-shuffled (luma-buffered unless disabled), pushed through the hiding
network, arranged to container shape and residually added onto the cover's
spectral plane(s); the revealing network decodes straight from the stego
plane while the stego waveform for the audio loss term comes from the
differentiable inverse transform.  At inference the revealing side starts
from the received waveform's own transform, and `embed` and
`reveal_from_spectrogram` run the same graph under `autodiff.no_grad`, so no
tape is kept.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import dsp
from . import embeddings as emb
from . import imageops as iops
from . import losses as lo
from . import metrics as me
from . import networks as nets
from .dsp import istdct_op, istft_op, stdct_fwd_op, stft_mag_op, stft_phase_op
from .errors import ConfigError, DataError, NumericError, UsageError

CHECKPOINT_MAGIC = b"PXW2"
CHECKPOINT_VERSION = 1


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
        if self.method not in emb.METHODS:
            raise ConfigError(f"unknown embedding method {self.method!r}")
        if self.image < 4 or self.image % 2:
            raise ConfigError(f"image size must be even and >= 4, got {self.image}")
        n = self.frame_length()
        if self.frame and self.frame != n:
            raise ConfigError(
                f"frame length {self.frame} inconsistent with container "
                f"(needs {n} for {self.transform})")
        if self.hop and not (1 <= self.hop < n):
            raise ConfigError(f"hop must be in [1, {n}), got {self.hop}")
        for f in fields(self):
            if isinstance(f.default, float) and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name, ok, rule in (
                ("batch", self.batch >= 1, ">= 1"), ("steps", self.steps >= 0, ">= 0"),
                ("seed", self.seed >= 0, ">= 0"), ("sample_rate", self.sample_rate > 0, "> 0"),
                ("lr", self.lr >= 0.0, ">= 0"), ("adam_eps", self.adam_eps > 0.0, "> 0"),
                ("adam_beta1", 0.0 <= self.adam_beta1 < 1.0, "in [0, 1)"),
                ("adam_beta2", 0.0 <= self.adam_beta2 < 1.0, "in [0, 1)")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")
        self.loss_config()  # beta, lambda, theta, gamma and wave_loss

    def planes(self):
        """Spectral planes that carry the secret, in network order."""
        return ("magnitude", "phase") if self.container == "dual" else (self.container,)

    def container_shape(self):
        return emb.replica_grid(self.method, (self.image, self.image), self.large).container_shape

    def frame_length(self):
        f = self.container_shape()[0]
        return 2 * f if self.transform == "stft" else f

    def hop_length(self):
        if self.hop:
            return self.hop
        n = self.frame_length()
        return n // 4 if self.transform == "stft" else n // 2

    def stft_config(self):
        return dsp.StftConfig(self.frame_length(), self.hop_length())

    def required_samples(self):
        return self.stft_config().samples_for_frames(self.container_shape()[1])

    def loss_config(self):
        """Loss weights; two planes always use an l1 waveform term."""
        cfg = lo.LossConfig(beta=self.beta, lam=self.lam, theta=self.theta, gamma=self.gamma,
                            waveform_loss=self.wave_loss)
        return cfg if len(self.planes()) == 1 else replace(cfg, waveform_loss="l1")


# (config-file key, attribute, type) in field order, each typed by its default
_CONFIG_FIELDS = tuple(("lambda" if f.name == "lam" else f.name, f.name, type(f.default))
                       for f in fields(PipelineConfig))


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
    cfg: PipelineConfig
    ctx: emb.EmbeddingContext
    hide_cfg: nets.UNetConfig
    reveal_cfg: nets.UNetConfig
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
    ctx = emb.make_context(cfg.method, (cfg.image, cfg.image), cfg.large)
    hide_cfg, reveal_cfg = emb.net_depths(cfg, ctx.grid.count)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    params = {}
    for role, net_cfg in (("hide", hide_cfg), ("reveal", reveal_cfg)):
        for prefix in _net_prefixes(cfg, role).values():
            params.update(nets.init_unet(net_cfg, rng, prefix))
    if len(cfg.planes()) == 2:
        params.update(nets.init_coupling())
    for name, tensor in ctx.weight_tensors():
        params[name] = tensor
    _validate_geometry(cfg, ctx)
    return ModelBundle(cfg, ctx, hide_cfg, reveal_cfg, params)


def _validate_geometry(cfg, ctx):
    div = 2 ** cfg.depth
    shapes = {"container": ctx.container_shape, "plane": ctx.plane_hw, "image": ctx.image_hw}
    for what, (h, w) in shapes.items():
        if h % div or w % div:
            raise ConfigError(f"{what} extents {h}x{w} not divisible by 2^{cfg.depth}")


# ---------------------------------------------------------------------------
# forward data flow


def _secret_tensor(bundle, secret):
    secret = np.asarray(secret, dtype=np.float64)
    want = (3, bundle.cfg.image, bundle.cfg.image)
    if secret.shape != want:
        raise UsageError(f"secret image shape {secret.shape}, expected {want}")
    if bundle.cfg.method == "multichannel":
        return ad.Tensor(secret)
    return ad.Tensor(iops.shuffle_with_luma(secret, use_luma=bundle.cfg.luma))


def _hide_branch(bundle, secret_t, prefix):
    ctx = bundle.ctx
    if bundle.cfg.method == "multichannel":
        wm = nets.unet_forward(bundle.hide_cfg, bundle.params, secret_t, prefix)
    else:
        x = ad.reshape(secret_t, (1,) + ctx.plane_hw)
        out = nets.unet_forward(bundle.hide_cfg, bundle.params, x, prefix)
        wm = ad.reshape(out, ctx.plane_hw)
    return emb.encode_arrange(wm, ctx)


def _reveal_branch(bundle, container_t, prefix):
    xin = emb.decode_prepare(container_t, bundle.ctx)
    return nets.unet_forward(bundle.reveal_cfg, bundle.params, xin, prefix)


def _finalize(bundle, net_out):
    y = emb.decode_finalize(net_out, bundle.ctx)
    if bundle.cfg.method == "multichannel":
        return y
    return iops.unshuffle_op(y, use_luma=bundle.cfg.luma)


def _cover_spectrogram(bundle, cover):
    cfg = bundle.cfg
    need = cfg.required_samples()
    if len(cover) < need:
        raise UsageError(f"cover has {len(cover)} samples; this model requires {need}")
    if cover.sample_rate != cfg.sample_rate:
        raise UsageError(f"cover is sampled at {cover.sample_rate} Hz; this model requires {cfg.sample_rate} Hz")
    if len(cover) > need:
        cover = dsp.Waveform(cover.samples[:need].copy(), cover.sample_rate)
    return cover, dsp.transform(cover, cfg.stft_config(), cfg.transform)


def run_pipeline(bundle, secret, cover, with_reveal=True):
    """Build the full differentiable graph for one sample.

    Returns a dict with the trimmed cover waveform, its spectrogram, the
    cover and stego plane tensors keyed by plane name (every plane of the
    transform; only the active ones carry the watermark), the stego waveform
    tensor, and (optionally) the revealed image tensor.
    """
    cfg = bundle.cfg
    cover, spec = _cover_spectrogram(bundle, cover)
    secret_t = _secret_tensor(bundle, secret)
    cover_planes = {"magnitude": ad.Tensor(spec.magnitude)}
    if spec.phase is not None:
        cover_planes["phase"] = ad.Tensor(spec.phase)
    stego_planes = dict(cover_planes)
    for plane, prefix in _net_prefixes(cfg, "hide").items():
        stego_planes[plane] = ad.add(cover_planes[plane], _hide_branch(bundle, secret_t, prefix))

    if cfg.transform == "stft":
        stego_wave = istft_op(stego_planes["magnitude"], stego_planes["phase"],
                              spec.config, spec.num_samples)
    else:
        stego_wave = istdct_op(stego_planes["magnitude"], spec.config, spec.num_samples)

    out = {
        "cover": cover,
        "spec": spec,
        "cover_planes": cover_planes,
        "stego_planes": stego_planes,
        "stego_wave": stego_wave,
    }
    if with_reveal:
        # decode from the re-analysis of the stego waveform, exactly like the
        # receiver does; this keeps training and inference on the same path
        # and drives the hiding network toward transform-consistent watermarks
        ops = {"magnitude": stdct_fwd_op if cfg.transform == "stdct" else stft_mag_op,
               "phase": stft_phase_op}
        received = {plane: ops[plane](stego_wave, spec.config) for plane in cfg.planes()}
        out["revealed_t"] = _reveal_from_planes(bundle, received)
    return out


def _reveal_from_planes(bundle, planes):
    """Reveal from the active `{plane: tensor}`; two planes meet in the coupler."""
    outs = [_reveal_branch(bundle, planes[plane], prefix)
            for plane, prefix in _net_prefixes(bundle.cfg, "reveal").items()]
    return _finalize(bundle, outs[0] if len(outs) == 1 else nets.couple(*outs, bundle.params))


def embed(secret, cover, bundle):
    """Hide `secret` in `cover`; returns (stego waveform, diagnostics)."""
    with ad.no_grad():
        out = run_pipeline(bundle, secret, cover, with_reveal=False)
    spec = out["spec"]
    stego = dsp.Waveform(out["stego_wave"].data.copy(), out["cover"].sample_rate)
    base = dsp.inverse_transform(spec)
    pert = float(np.sqrt(sum(np.mean((out["stego_planes"][plane].data - getattr(spec, plane)) ** 2)
                             for plane in bundle.cfg.planes())))
    diag = {
        "stego_snr_db": me.snr_db(base.samples, stego.samples),
        "container_l2": pert,
    }
    return stego, diag


def reveal(stego, bundle):
    """Decode the revealed image from a received stego waveform."""
    cfg = bundle.cfg
    need = cfg.required_samples()
    if len(stego) != need:
        raise UsageError(f"stego has {len(stego)} samples; this model requires exactly {need}")
    if stego.sample_rate != cfg.sample_rate:
        raise UsageError(f"stego is sampled at {stego.sample_rate} Hz; this model requires {cfg.sample_rate} Hz")
    spec = dsp.transform(stego, cfg.stft_config(), cfg.transform)
    return reveal_from_spectrogram(spec, bundle)


def reveal_from_spectrogram(spec, bundle):
    """Decode from a (possibly attacked) stego spectrogram; clamps to [0,1]."""
    if spec.shape != bundle.ctx.container_shape:
        raise UsageError(
            f"spectrogram shape {spec.shape} does not match model container "
            f"{bundle.ctx.container_shape}")
    with ad.no_grad():
        revealed = _reveal_from_planes(
            bundle, {plane: ad.Tensor(getattr(spec, plane)) for plane in bundle.cfg.planes()})
    return np.clip(revealed.data, 0.0, 1.0)


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
    rng = np.random.default_rng(seed)
    length = cfg.required_samples()
    pairs = []
    for _ in range(n):
        secret = _synth_image(rng, cfg.image)
        cover = dsp.Waveform(_synth_cover(rng, length, cfg.sample_rate), cfg.sample_rate)
        pairs.append(SamplePair(secret, cover))
    return pairs


def save_dataset(pairs, directory):
    from . import wavio

    directory.mkdir(parents=True, exist_ok=True)
    for i, pair in enumerate(pairs):
        iops.write_ppm(pair.secret, directory / f"secret_{i:03d}.ppm")
        wavio.write_wav(pair.cover, directory / f"cover_{i:03d}.wav")


def load_dataset(directory):
    from . import wavio

    secrets = sorted(directory.glob("secret_*.ppm"))
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
        self.rows.append((step, total, terms["image_l1"], terms["wave_term"],
                          terms["mag_l2"], terms["phase_l2"]))

    def totals(self):
        return [row[1] for row in self.rows]

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(",".join([str(row[0])] + [format(v, ".12g") for v in row[1:]]))
        return "\n".join(lines) + "\n"


class Adam:
    def __init__(self, params, cfg):
        self.params = params
        self.lr = cfg.lr
        self.b1, self.b2, self.eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0

    def step(self, grad_scale):
        self.t += 1
        for name, p in self.params.items():
            g = (p.grad if p.grad is not None else np.zeros_like(p.data)) * grad_scale
            self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            mhat = self.m[name] / (1 - self.b1 ** self.t)
            vhat = self.v[name] / (1 - self.b2 ** self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _sample_loss(bundle, pair, loss_cfg):
    out = run_pipeline(bundle, pair.secret, pair.cover)
    secret_const = ad.Tensor(np.asarray(pair.secret, dtype=np.float64))
    wave_const = ad.Tensor(out["cover"].samples)
    planes = {plane: (out["cover_planes"][plane], out["stego_planes"][plane])
              for plane in bundle.cfg.planes()}
    return lo.composite_loss(loss_cfg, secret_const, out["revealed_t"], wave_const,
                             out["stego_wave"], planes)


def train(dataset, cfg, bundle=None):
    """Adam training of all parameters against the composite loss.

    Deterministic given cfg.seed: fixed init, fixed shuffling, sequential
    gradient accumulation.  Returns (bundle, TrainLog).
    """
    if not dataset:
        raise UsageError("train: empty dataset")
    if bundle is None:
        bundle = build_model(cfg)
    loss_cfg = cfg.loss_config()
    opt = Adam(bundle.params, cfg)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)).spawn(1)[0])
    order = []
    log = TrainLog()
    for step in range(cfg.steps):
        batch = []
        for _ in range(min(cfg.batch, len(dataset))):
            if not order:
                order = list(shuffle_rng.permutation(len(dataset)))
            batch.append(order.pop())
        for tensor in bundle.params.values():
            tensor.zero_grad()
        total_acc = 0.0
        terms_acc = {"image_l1": 0.0, "wave_term": 0.0, "mag_l2": 0.0, "phase_l2": 0.0}
        for idx in batch:
            total, terms = _sample_loss(bundle, dataset[idx], loss_cfg)
            value = float(total.data)
            if not np.isfinite(value):
                bad = next((k for k, v in terms.items() if not np.isfinite(v)), "total")
                raise NumericError(f"training aborted at step {step}: term '{bad}' is not finite")
            ad.backward(total)
            total_acc += value
            for k in terms_acc:
                terms_acc[k] += terms[k]
        scale = 1.0 / len(batch)
        opt.step(scale)
        log.append(step, total_acc * scale, {k: v * scale for k, v in terms_acc.items()})
    return bundle, log


def best_constant_baseline_l1(secret):
    """Mean |s - c*| for the best constant image c* (per-channel median)."""
    secret = np.asarray(secret, dtype=np.float64)
    med = np.median(secret.reshape(3, -1), axis=1)
    return float(np.mean(np.abs(secret - med[:, None, None])))


def evaluate(bundle, dataset):
    """Mean metrics row over a dataset (the `eval` CLI output)."""
    cfg = bundle.cfg
    ssims, psnrs, snrs, waves, hists = [], [], [], [], []
    loss_cfg = cfg.loss_config()
    for pair in dataset:
        stego, diag = embed(pair.secret, pair.cover, bundle)
        revealed = reveal(stego, bundle)
        ssims.append(me.ssim(pair.secret, revealed))
        psnrs.append(me.psnr_db(pair.secret, revealed))
        snrs.append(diag["stego_snr_db"])
        cover_trim = pair.cover.samples[:cfg.required_samples()]
        if loss_cfg.waveform_loss == "soft_dtw":
            with ad.no_grad():
                wave = float(lo.soft_dtw_chunked(ad.Tensor(cover_trim), ad.Tensor(stego.samples),
                                                 loss_cfg.gamma).data)
        else:
            wave = float(np.mean(np.abs(cover_trim - stego.samples)))
        waves.append(wave)
        hists.append(me.histogram_l1(me.rgb_histogram(pair.secret), me.rgb_histogram(revealed)))
    return me.MetricsRow(
        method=cfg.method,
        container=cfg.container,
        beta=cfg.beta,
        lam=cfg.lam,
        revealed_ssim=float(np.mean(ssims)),
        revealed_psnr=float(np.mean(psnrs)),
        stego_snr=float(np.mean(snrs)) if np.all(np.isfinite(snrs)) else float("inf"),
        waveform_loss=float(np.mean(waves)),
        histogram_l1=float(np.mean(hists)),
    )


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(bundle, path):
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    config = config_to_text(bundle.cfg).encode("utf-8")
    buf.write(struct.pack("<I", len(config)))
    buf.write(config)
    buf.write(struct.pack("<I", len(bundle.params)))
    for name, tensor in bundle.params.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", tensor.data.ndim))
        for dim in tensor.data.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(tensor.data.astype("<f8").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


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
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version} at byte 4")
    (config_len,) = reader.unpack("<I", "config length")
    config_text = reader.text(config_len, "config text")
    try:
        bundle = build_model(parse_config_text(config_text, source=str(path)))
    except (UsageError, ConfigError) as exc:
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
    return bundle
