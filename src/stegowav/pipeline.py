"""End-to-end embed/reveal data flow, training loop, datasets, checkpoints.

The training graph follows the transmit-side picture: the secret image is
pixel-shuffled (luma-buffered unless disabled), pushed through the hiding
network, arranged to container shape and residually added onto the cover's
spectral plane(s); the revealing network decodes straight from the stego
plane while the stego waveform for the audio loss term comes from the
differentiable inverse transform.  At inference the revealing side starts
from the received waveform's own transform.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

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
        if self.batch < 1 or self.steps < 0:
            raise ConfigError("batch must be >= 1 and steps >= 0")

    def container_shape(self):
        h = w = self.image
        if self.method == "multichannel":
            rows, cols = iops.channel_grid_shape(self.large)
            return (rows * h, cols * w)
        rows, cols = iops.plane_grid_shape(self.large)
        return (rows * 2 * h, cols * 2 * w)

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
        return lo.LossConfig(
            beta=self.beta, lam=self.lam, theta=self.theta, gamma=self.gamma,
            waveform_loss=self.wave_loss, container_kind=self.container)


_CONFIG_FIELDS = (
    ("image", int), ("transform", str), ("container", str), ("method", str),
    ("large", bool), ("luma", bool), ("frame", int), ("hop", int),
    ("sample_rate", int), ("beta", float), ("lambda", float), ("theta", float),
    ("gamma", float), ("wave_loss", str), ("lr", float), ("adam_beta1", float),
    ("adam_beta2", float), ("adam_eps", float), ("steps", int), ("batch", int),
    ("seed", int), ("depth", int), ("channels", int), ("kernel", int),
)
_KEY_TO_ATTR = {key: ("lam" if key == "lambda" else key) for key, _ in _CONFIG_FIELDS}


def config_to_text(cfg):
    """Canonical key=value rendering (the checkpoint and config-file format)."""
    lines = []
    for key, typ in _CONFIG_FIELDS:
        value = getattr(cfg, _KEY_TO_ATTR[key])
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
    types = dict(_CONFIG_FIELDS)
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise UsageError(f"{source}:{lineno}: unknown key {key!r}")
        typ = types[key]
        try:
            if typ is bool:
                if val.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(val)
                parsed = val.lower() in ("true", "1")
            else:
                parsed = typ(val)
        except ValueError:
            raise UsageError(f"{source}:{lineno}: bad value {val!r} for {key}") from None
        values[_KEY_TO_ATTR[key]] = parsed
    merged = {}
    if base is not None:
        merged.update({_KEY_TO_ATTR[k]: getattr(base, _KEY_TO_ATTR[k]) for k, _ in _CONFIG_FIELDS})
    merged.update(values)
    try:
        return PipelineConfig(**merged)
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


def _net_depths(cfg, replica_count):
    if cfg.method == "multichannel":
        hide_in, hide_out = 3, replica_count
        reveal_in, reveal_out = replica_count, 3
    elif cfg.method == "ws_replicate":
        hide_in, hide_out = 1, 1
        reveal_in, reveal_out = replica_count, 1
    else:
        hide_in, hide_out = 1, 1
        reveal_in, reveal_out = 1, 1
    return (nets.UNetConfig(hide_in, hide_out, cfg.depth, cfg.channels, cfg.kernel),
            nets.UNetConfig(reveal_in, reveal_out, cfg.depth, cfg.channels, cfg.kernel))


def build_model(cfg):
    ctx = emb.make_context(cfg.method, (cfg.image, cfg.image), cfg.large)
    hide_cfg, reveal_cfg = _net_depths(cfg, ctx.grid.count)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    params = {}
    prefixes = ("hide_mag", "hide_phase") if cfg.container == "dual" else ("hide",)
    for prefix in prefixes:
        params.update(nets.init_unet(hide_cfg, rng, prefix))
    prefixes = ("reveal_mag", "reveal_phase") if cfg.container == "dual" else ("reveal",)
    for prefix in prefixes:
        params.update(nets.init_unet(reveal_cfg, rng, prefix))
    if cfg.container == "dual":
        params.update(nets.init_coupling())
    for name, tensor in ctx.weight_tensors():
        params[name] = tensor
    _validate_geometry(cfg, ctx)
    return ModelBundle(cfg, ctx, hide_cfg, reveal_cfg, params)


def _validate_geometry(cfg, ctx):
    f, t = ctx.container_shape
    div = 2 ** cfg.depth
    shapes = {"container": (f, t), "plane": ctx.plane_hw, "image": ctx.image_hw}
    for what, (h, w) in shapes.items():
        if h % div or w % div:
            raise ConfigError(f"{what} extents {h}x{w} not divisible by 2^{cfg.depth}")
    if cfg.transform == "stft" and cfg.frame_length() != 2 * f:
        raise ConfigError("container height inconsistent with stft frame length")


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
    spec = dsp.transform(cover, cfg.stft_config(), cfg.transform)
    if spec.shape != bundle.ctx.container_shape:
        raise ConfigError(
            f"transform produced container {spec.shape}, model expects {bundle.ctx.container_shape}")
    return cover, spec


def run_pipeline(bundle, secret, cover, with_reveal=True):
    """Build the full differentiable graph for one sample.

    Returns a dict with the cover spectrogram, stego plane tensors, the stego
    waveform tensor, and (optionally) the revealed image tensor.
    """
    cfg = bundle.cfg
    cover, spec = _cover_spectrogram(bundle, cover)
    secret_t = _secret_tensor(bundle, secret)
    mag0 = ad.Tensor(spec.magnitude)
    phase0 = ad.Tensor(spec.phase)

    if cfg.container == "dual":
        stego_mag = ad.add(mag0, _hide_branch(bundle, secret_t, "hide_mag"))
        stego_phase = ad.add(phase0, _hide_branch(bundle, secret_t, "hide_phase"))
    elif cfg.container == "phase":
        stego_mag = mag0
        stego_phase = ad.add(phase0, _hide_branch(bundle, secret_t, "hide"))
    else:
        stego_mag = ad.add(mag0, _hide_branch(bundle, secret_t, "hide"))
        stego_phase = phase0

    if cfg.transform == "stft":
        stego_wave = istft_op(stego_mag, stego_phase, spec.config, spec.num_samples)
    else:
        stego_wave = istdct_op(stego_mag, spec.config, spec.num_samples)

    out = {
        "cover": cover,
        "spec": spec,
        "mag0": mag0,
        "phase0": phase0,
        "stego_mag": stego_mag,
        "stego_phase": stego_phase,
        "stego_wave": stego_wave,
    }
    if with_reveal:
        # decode from the re-analysis of the stego waveform, exactly like the
        # receiver does; this keeps training and inference on the same path
        # and drives the hiding network toward transform-consistent watermarks
        if cfg.transform == "stdct":
            rx_mag, rx_phase = stdct_fwd_op(stego_wave, spec.config), stego_phase
        else:
            rx_mag = (stft_mag_op(stego_wave, spec.config)
                      if cfg.container in ("magnitude", "dual") else stego_mag)
            rx_phase = (stft_phase_op(stego_wave, spec.config)
                        if cfg.container in ("phase", "dual") else stego_phase)
        out["revealed_t"] = _reveal_from_planes(bundle, rx_mag, rx_phase)
    return out


def _reveal_from_planes(bundle, mag_t, phase_t):
    cfg = bundle.cfg
    if cfg.container == "dual":
        a = _reveal_branch(bundle, mag_t, "reveal_mag")
        b = _reveal_branch(bundle, phase_t, "reveal_phase")
        coupled = nets.couple(a, b, bundle.params)
        return _finalize(bundle, coupled)
    plane = phase_t if cfg.container == "phase" else mag_t
    return _finalize(bundle, _reveal_branch(bundle, plane, "reveal"))


def embed(secret, cover, bundle):
    """Hide `secret` in `cover`; returns (stego waveform, diagnostics)."""
    out = run_pipeline(bundle, secret, cover, with_reveal=False)
    stego = dsp.Waveform(out["stego_wave"].data.copy(), out["cover"].sample_rate)
    base = dsp.inverse_transform(out["spec"])
    pert = float(np.sqrt(np.mean((out["stego_mag"].data - out["spec"].magnitude) ** 2)
                         + np.mean((out["stego_phase"].data - out["spec"].phase) ** 2)))
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
    revealed = _reveal_from_planes(bundle, ad.Tensor(spec.magnitude), ad.Tensor(spec.phase))
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
    kwargs = {}
    if loss_cfg.container_kind == "dual":
        kwargs = {"phase": out["phase0"], "phase_stego": out["stego_phase"]}
        active, active_stego = out["mag0"], out["stego_mag"]
    elif loss_cfg.container_kind == "phase":
        active, active_stego = out["phase0"], out["stego_phase"]
    else:
        active, active_stego = out["mag0"], out["stego_mag"]
    total, terms = lo.composite_loss(
        loss_cfg, secret_const, out["revealed_t"], wave_const, out["stego_wave"],
        active, active_stego, **kwargs)
    return total, terms


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
        if loss_cfg.waveform_loss == "soft_dtw" and cfg.container != "dual":
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
        raw = reader.take(8 * int(np.prod(shape, dtype=np.int64)) if shape else 8, "values")
        tensor.data = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if reader.pos != len(reader.data):
        raise DataError(f"{path}: {len(reader.data) - reader.pos} trailing bytes at byte {reader.pos}")
    return bundle
