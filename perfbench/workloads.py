"""The four benchmark workloads and their correctness checks.

Each workload drives the public API of `stegowav` from outside, closed-loop
with one client: the next call starts when the previous one has returned.
Inputs come from `pipeline.synth_dataset` with the run's seed; model
configuration is fixed.  A workload fills a `Run`: set-up times, per-op
timings, quality numbers and checks.

- train_desk: `pipeline.train` at the desk profile, cycling through all five
  embedding methods.  Conv2d on tiny arrays and per-op Python overhead.
- train_sdtw: the desk `replicate` model trained with the soft-DTW waveform
  loss, batch 1.  The soft-DTW DP dominates; conv is a few percent.
- codec_paper: `cli.run embed` then `cli.run reveal` per pair at
  `paper_shape` with an untrained seeded model.  Forward-only, big arrays,
  bound by memory.
- sweep_desk: `cli.run robustness --dump-dir` over 16 desk pairs with a
  `replicate` model trained during set-up.  Frame dropout, SSIM, the
  `STEGOWAV_THREADS` pool.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import statistics
import threading
import time
import wave

import numpy as np

METHODS = ("stretch", "replicate", "w_replicate", "ws_replicate", "multichannel")
DESK = dict(transform="stdct", container="magnitude", large=False, batch=4, lr=5e-3, seed=0)
DESK_PAIRS = 16
DESK_JOB_STEPS = 10       # Adam steps per train_desk job (one job per method)
SDTW_JOB_STEPS = 4        # Adam steps per train_sdtw job (batch 1)
SWEEP_TRAIN_STEPS = 12    # Adam steps of the sweep_desk model, trained in set-up
CODEC_PAIRS = 4
SETUP_REPEATS = 3
FRACTIONS = "1.0,0.75,0.5,0.25,0.125"
MODES = "sequential,random"

# sha256 of the seed-0 inputs (secrets and covers as float64 bytes); a change
# to synth_dataset fails the input check instead of changing the traffic
PINNED_INPUT_DIGESTS = {
    "desk": "93940d49870f634e6a33aed1ac5b4f66cdd3c8ed3006ae39986b7266ac5c5901",
    "paper_shape": "39c841130d35fe2af69f33da5daadcb5fe192d3f82b893e2971634cf3212a42c",
}


class Run:
    """What one workload run measured and checked.

    Timings are kept as (ms, start, end) so that they can be scaled by the
    speed of their gauge around each of them once the run is over.  Set-up,
    ops and the embed/reveal evaluation each have a gauge of their own kind.
    """

    def __init__(self, name, gauges):
        self.name = name
        self.gauges = gauges      # "setup", "op" and "eval" -> Gauge
        self.gauge = gauges["op"]
        self.timings = {"setup": [], "op": [], "embed": [], "reveal": []}
        self.psnr = []
        self.ssim = []
        self.noise_ratio = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.info = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def record(self, what, start, end, per=1, exclude_ms=0.0):
        self.timings[what].append((((end - start) * 1e3 - exclude_ms) / per, start, end))

    def raw(self, what):
        return [ms for ms, _, _ in self.timings[what]]

    def scaled(self, what):
        gauge = self.gauges["eval" if what in ("embed", "reveal") else what]
        return [gauge.scale(ms, start, end) for ms, start, end in self.timings[what]]

    def set_up(self, build, repeats=SETUP_REPEATS):
        """Run `build` `repeats` times, timing each; returns the last result."""
        result = None
        gauge = self.gauges["setup"]
        gauge.measure()
        for _ in range(repeats):
            start = time.perf_counter()
            result = build()
            self.record("setup", start, time.perf_counter())
            gauge.measure()
        return result


class StepClock:
    """Records when each `pipeline.Adam.step` call returns.

    `on_step` runs after the return is stamped; `resumes` holds the time it
    finished, from which the next step's interval is counted.
    """

    def __init__(self, pl, on_step=None):
        self.pl = pl
        self.on_step = on_step
        self.returns = []
        self.resumes = []
        self._original = None

    def __enter__(self):
        self._original = original = self.pl.Adam.__dict__["step"]
        clock = self

        def step(adam, *args, **kwargs):
            out = original(adam, *args, **kwargs)
            clock.returns.append(time.perf_counter())
            if clock.on_step is not None:
                clock.on_step()
            clock.resumes.append(time.perf_counter())
            return out

        self.pl.Adam.step = step
        return self

    def __exit__(self, *exc):
        self.pl.Adam.step = self._original


class Pacer:
    """Runs the gauge from inside a long op, after main-thread calls of
    `owner.attr`, at most every `interval` seconds; `spent_ms` is the gauge
    time, to take off the op's wall time."""

    def __init__(self, owner, attr, gauge, interval=0.5):
        self.owner, self.attr, self.gauge, self.interval = owner, attr, gauge, interval
        self.spent_ms = 0.0
        self._original = None

    def __enter__(self):
        self._original = original = self.owner.__dict__[self.attr]
        pacer = self
        main = threading.main_thread()

        def paced(*args, **kwargs):
            out = original(*args, **kwargs)
            if threading.current_thread() is main and pacer.gauge.samples and \
                    time.perf_counter() - pacer.gauge.samples[-1][0] >= pacer.interval:
                start = time.perf_counter()
                pacer.gauge.measure()
                pacer.spent_ms += (time.perf_counter() - start) * 1e3
            return out

        setattr(self.owner, self.attr, paced)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._original)


def input_digest(pairs):
    h = hashlib.sha256()
    for pair in pairs:
        h.update(np.ascontiguousarray(pair.secret, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(pair.cover.samples, dtype=np.float64).tobytes())
        h.update(str(pair.cover.sample_rate).encode())
    return h.hexdigest()


def _check_inputs(run, sw, profile, count, cfg=None):
    pairs = sw["pipeline"].synth_dataset(count, profile=profile, seed=0, cfg=cfg)
    digest = input_digest(pairs)
    run.info["reference_input_digest"] = digest
    run.check(digest == PINNED_INPUT_DIGESTS[profile],
              f"seed-0 {profile} input digest {digest[:16]} differs from the pinned one")


def _check_revealed(run, revealed, size, what):
    arr = np.asarray(revealed)
    run.check(arr.shape == (3, size, size) and bool(np.all(np.isfinite(arr)))
              and float(arr.min()) >= 0.0 and float(arr.max()) <= 1.0,
              f"{what}: revealed image shape {arr.shape} or range is wrong")


def _noise_ratio(cover, stego):
    """RMS of the stego perturbation over RMS of the cover."""
    return float(np.sqrt(np.mean((stego - cover) ** 2)) / np.sqrt(np.mean(cover ** 2)))


def _evaluate(run, sw, bundle, pairs, what):
    """Embed and reveal every pair once: timings, quality and output checks."""
    pl, me = sw["pipeline"], sw["metrics"]
    need = bundle.cfg.required_samples()
    ssims, psnrs = [], []
    gauge = run.gauges["eval"]
    gauge.measure()
    for i, pair in enumerate(pairs):
        start = time.perf_counter()
        stego, _ = pl.embed(pair.secret, pair.cover, bundle)
        mid = time.perf_counter()
        revealed = pl.reveal(stego, bundle)
        end = time.perf_counter()
        run.record("embed", start, mid)
        run.record("reveal", mid, end)
        gauge.measure()
        run.check(len(stego) == need and stego.sample_rate == pair.cover.sample_rate,
                  f"{what} pair {i}: stego has {len(stego)} samples at {stego.sample_rate} Hz")
        _check_revealed(run, revealed, bundle.cfg.image, f"{what} pair {i}")
        ssims.append(me.ssim(pair.secret, revealed))
        psnrs.append(me.psnr_db(pair.secret, revealed))
        run.noise_ratio.append(_noise_ratio(pair.cover.samples[:need], stego.samples))
    return ssims, psnrs


def _train_job(run, pl, pairs, cfg, clock, what):
    start = time.perf_counter()
    first = len(clock.returns)
    bundle, log = pl.train(pairs, cfg)
    begins = [start] + clock.resumes[first:-1]
    for begin, end in zip(begins, clock.returns[first:]):
        run.record("op", begin, end, per=cfg.batch)
    for step, row in enumerate(log.rows):
        run.check(all(np.isfinite(v) for v in row[1:]), f"{what} step {step}: loss not finite")
    return bundle


def _train_loop(run, sw, ctx, pairs, configs):
    """Train one job per config, cycling, until the time is up.

    Only whole cycles run, so every config has the same share of the step
    timings.  The first cycle's models are returned for evaluation.
    """
    pl = sw["pipeline"]
    first_cycle = []

    def on_step():
        run.gauge.measure()
        if ctx.tracer:
            ctx.tracer.next_trace()

    run.gauge.measure()
    start = time.perf_counter()
    deadline = start + ctx.seconds
    # the clock wraps outside the tracer, so gauge runs stay out of step spans
    with ctx.traced(), StepClock(pl, on_step=on_step) as clock:
        while not first_cycle or time.perf_counter() < deadline:
            bundles = [_train_job(run, pl, pairs, cfg, clock, cfg.method) for cfg in configs]
            if not first_cycle:
                first_cycle = list(zip(configs, bundles))
    return first_cycle


def train_desk(run, sw, ctx):
    pl = sw["pipeline"]
    configs = [pl.PipelineConfig(method=m, steps=DESK_JOB_STEPS, **DESK) for m in METHODS]
    pairs = run.set_up(lambda: pl.synth_dataset(DESK_PAIRS, cfg=configs[0], seed=ctx.seed),
                       repeats=5)
    run.info["input_digest"] = input_digest(pairs)
    for cfg, bundle in _train_loop(run, sw, ctx, pairs, configs):
        ssims, psnrs = _evaluate(run, sw, bundle, pairs, cfg.method)
        run.ssim += ssims
        run.psnr += psnrs
    _check_inputs(run, sw, "desk", DESK_PAIRS, cfg=configs[0])
    ctx.roundtrip = (pairs, configs[0])


def train_sdtw(run, sw, ctx):
    pl = sw["pipeline"]
    cfg = pl.PipelineConfig(method="replicate", steps=SDTW_JOB_STEPS, wave_loss="soft_dtw",
                            **{**DESK, "batch": 1})
    pairs = run.set_up(lambda: pl.synth_dataset(DESK_PAIRS, cfg=cfg, seed=ctx.seed), repeats=5)
    run.info["input_digest"] = input_digest(pairs)
    for _, bundle in _train_loop(run, sw, ctx, pairs, [cfg]):
        ssims, psnrs = _evaluate(run, sw, bundle, pairs, "soft_dtw")
        run.ssim += ssims
        run.psnr += psnrs
    _check_inputs(run, sw, "desk", DESK_PAIRS, cfg=cfg)
    ctx.roundtrip = (pairs, cfg)


def _cli(sw, argv, run, what):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = sw["cli"].run([str(a) for a in argv])
    run.check(code == 0, f"{what}: exit code {code}: {out.getvalue().strip()[-200:]}")
    return code


def _read_wav_header(path):
    with wave.open(str(path), "rb") as f:
        return f.getnframes(), f.getframerate(), f.getnchannels()


def codec_paper(run, sw, ctx):
    pl, iops, wavio = sw["pipeline"], sw["imageops"], sw["wavio"]
    cfg = pl.profile_config("paper_shape")
    work = ctx.workdir
    model = work / "model.pxw2"

    def build():
        pairs = pl.synth_dataset(CODEC_PAIRS, profile="paper_shape", seed=ctx.seed)
        pl.save_checkpoint(pl.build_model(cfg), model)
        for i, pair in enumerate(pairs):
            iops.write_ppm(pair.secret, work / f"secret_{i}.ppm")
            wavio.write_wav(pair.cover, work / f"cover_{i}.wav")
        return pairs

    pairs = run.set_up(build)
    run.info["input_digest"] = input_digest(pairs)

    def round_trip(i, tag):
        """Embed then reveal pair i; returns the (start, end) of each call."""
        stego, revealed = work / f"stego_{tag}.wav", work / f"revealed_{tag}.ppm"
        run.gauge.measure()
        start = time.perf_counter()
        _cli(sw, ["embed", "--model", model, "--image", work / f"secret_{i}.ppm",
                  "--audio", work / f"cover_{i}.wav", "--out", stego], run, f"embed {tag}")
        embedded = time.perf_counter()
        run.gauge.measure()
        begin = time.perf_counter()
        _cli(sw, ["reveal", "--model", model, "--audio", stego, "--out", revealed],
             run, f"reveal {tag}")
        revealed_at = time.perf_counter()
        run.gauge.measure()
        return (start, embedded), (begin, revealed_at), stego

    # warm-up on pair 0; the first timed op repeats it for the determinism check
    warm_bytes = round_trip(0, "warm")[2].read_bytes()
    start = time.perf_counter()
    deadline = start + ctx.seconds
    done = 0
    with ctx.traced():
        while done == 0 or time.perf_counter() < deadline:
            if ctx.tracer:
                ctx.tracer.next_trace()
            index = done % CODEC_PAIRS
            embed, reveal, stego = round_trip(index, str(index))
            run.record("embed", *embed)
            run.record("reveal", *reveal)
            # one op is both calls; the gauge time between them is left out
            run.timings["op"].append((run.raw("embed")[-1] + run.raw("reveal")[-1],
                                      embed[0], reveal[1]))
            if done == 0:
                run.check(stego.read_bytes() == warm_bytes,
                          "embed is not byte-deterministic on the warm-up pair")
            done += 1
    for index in range(min(done, CODEC_PAIRS)):
        _check_codec_outputs(run, sw, cfg, work, index)
    _check_inputs(run, sw, "paper_shape", CODEC_PAIRS)
    ctx.roundtrip = (pairs[:1], cfg)


def _check_codec_outputs(run, sw, cfg, work, index):
    iops, wavio = sw["imageops"], sw["wavio"]
    stego_path = work / f"stego_{index}.wav"
    frames, rate, channels = _read_wav_header(stego_path)
    run.check((frames, rate, channels) == (cfg.required_samples(), cfg.sample_rate, 1),
              f"stego {index}: {frames} samples at {rate} Hz x{channels}, expected "
              f"{cfg.required_samples()} at {cfg.sample_rate} Hz mono")
    revealed = iops.read_ppm(work / f"revealed_{index}.ppm")
    _check_revealed(run, revealed, cfg.image, f"codec pair {index}")
    secret = iops.read_ppm(work / f"secret_{index}.ppm")
    cover = wavio.read_wav(work / f"cover_{index}.wav").samples
    run.ssim.append(sw["metrics"].ssim(secret, revealed))
    run.psnr.append(sw["metrics"].psnr_db(secret, revealed))
    run.noise_ratio.append(_noise_ratio(cover, wavio.read_wav(stego_path).samples))


def sweep_desk(run, sw, ctx):
    pl = sw["pipeline"]
    cfg = pl.PipelineConfig(method="replicate", steps=SWEEP_TRAIN_STEPS, **DESK)
    work = ctx.workdir
    data, model, dump = work / "pairs", work / "model.pxw2", work / "dump"
    models = []

    def build():
        pairs = pl.synth_dataset(DESK_PAIRS, cfg=cfg, seed=ctx.seed)
        pl.save_dataset(pairs, data)
        bundle, _ = pl.train(pairs, cfg)
        pl.save_checkpoint(bundle, model)
        models.append(model.read_bytes())
        return pairs

    pairs = run.set_up(build)
    run.check(all(m == models[0] for m in models), "set-up training is not byte-deterministic")
    run.info["input_digest"] = input_digest(pairs)
    argv = ["robustness", "--model", model, "--data", data, "--fractions", FRACTIONS,
            "--modes", MODES, "--seed", ctx.seed, "--dump-dir", dump]
    sweeps = []
    start = time.perf_counter()
    deadline = start + ctx.seconds
    with ctx.traced():
        while not sweeps or time.perf_counter() < deadline:
            if ctx.tracer:
                ctx.tracer.next_trace()
            out = work / f"sweep_{len(sweeps) % 2}.csv"
            run.gauge.measure()
            t0 = time.perf_counter()
            with Pacer(pl, "embed", run.gauge) as pacer:
                _cli(sw, argv + ["--out", out], run, f"sweep {len(sweeps)}")
            run.record("op", t0, time.perf_counter(), exclude_ms=pacer.spent_ms)
            run.gauge.measure()
            sweeps.append(out.read_bytes() if out.exists() else b"")
    run.check(all(s == sweeps[0] for s in sweeps), "sweep CSV differs between repeats")
    rows = list(csv.DictReader(io.StringIO(sweeps[0].decode("utf-8"))))
    run.check(len(rows) == 10, f"sweep wrote {len(rows)} rows, expected 10")
    run.ssim = [float(r["mean_ssim"]) for r in rows]
    run.psnr = [float(r["mean_psnr_db"]) for r in rows]

    # fraction-1.0 rows must equal a no-attack evaluation of the same files
    bundle, loaded = pl.load_checkpoint(model), pl.load_dataset(data)
    ssims, psnrs = _evaluate(run, sw, bundle, loaded, "sweep eval")
    for row in rows:
        if float(row["keep_fraction"]) == 1.0:
            # the CSV keeps 12 significant digits, which bounds the PSNR match
            run.check(abs(float(row["mean_ssim"]) - float(np.mean(ssims))) <= 1e-12,
                      f"{row['mode']} fraction-1.0 SSIM differs from the no-attack eval")
            psnr = float(np.mean(psnrs))
            run.check(abs(float(row["mean_psnr_db"]) - psnr) <= 1e-11 * abs(psnr),
                      f"{row['mode']} fraction-1.0 PSNR differs from the no-attack eval")
    dumped = sorted(dump.glob("*.ppm"))
    run.check(len(dumped) == 10 * DESK_PAIRS, f"dump holds {len(dumped)} images, expected 160")
    for path in dumped:
        _check_revealed(run, sw["imageops"].read_ppm(path), cfg.image, path.name)
    _check_inputs(run, sw, "desk", DESK_PAIRS, cfg=cfg)
    ctx.roundtrip = (pairs, cfg)
    ctx.pairs_per_sweep = DESK_PAIRS


# workload -> (function, gauge kinds for set-up, ops and the embed/reveal
# evaluation; see gauge.py).  Each kind is the kernel most like that work.
WORKLOADS = {
    "train_desk": (train_desk, {"setup": "dp", "op": "desk", "eval": "desk"}),
    "train_sdtw": (train_sdtw, {"setup": "dp", "op": "dp", "eval": "desk"}),
    "codec_paper": (codec_paper, {"setup": "dp", "op": "wall", "eval": "wall"}),
    "sweep_desk": (sweep_desk, {"setup": "dp", "op": "desk-cpus", "eval": "desk"}),
}


def roundtrip_errors(sw, pairs, cfg):
    """Max |x - inverse(transform(x))| over the covers, overall and interior.

    The interior leaves out the last hop of samples, where the overlap-add
    denominator is smallest.
    """
    dsp = sw["dsp"]
    worst = interior = 0.0
    hop = cfg.hop_length()
    for pair in pairs:
        need = cfg.required_samples()
        cover = dsp.Waveform(pair.cover.samples[:need].copy(), pair.cover.sample_rate)
        back = dsp.inverse_transform(dsp.transform(cover, cfg.stft_config(), cfg.transform))
        err = np.abs(back.samples - cover.samples)
        worst = max(worst, float(err.max()))
        interior = max(interior, float(err[:-hop].max()))
    return worst, interior


def median(values):
    return statistics.median(values) if values else 0.0
