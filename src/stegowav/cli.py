"""Command-line entry point.

Subcommands: synth, train, embed, reveal, eval, robustness, cost,
spectrogram.  Exit codes: 0 success, 1 usage/config error or a refused
allocation ("out of memory"), 2 data/IO error, 3 numeric failure.  Before any
work, an output file whose directory is missing or a path of the wrong kind exits 2
and a model too small for SSIM's window exits 1 where it is scored.  Config files are flat
key=value text ('#' comments); --set key=value flags override file values.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import costing, dsp, imageops, metrics, pipeline, robustness, wavio
from .errors import ConfigError, DataError, NumericError, UsageError

_FRACTION_NAME = "{:g}".format  # a fraction as the dump files name it: no two cells may share a name


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_config_args(sub):
    sub.add_argument("--config", type=Path, help="key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key (repeatable)")


def _load_config(args, base=None):
    cfg = base if base is not None else pipeline.PipelineConfig()
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"{args.config}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"{args.config}: config text at byte {exc.start} is not UTF-8") from None
        cfg = pipeline.parse_config_text(text, base=cfg, source=str(args.config))
    return pipeline.parse_config_text("\n".join(args.set), base=cfg, source="--set")


def _output_file(text, directory=False):
    """An output's path, refused as the flags are parsed, before any work, if a file's directory is missing or the
    path names what the output is not: a file is no directory, and a `directory` (made if missing) no file."""
    if not (directory or Path(text).parent.is_dir()):
        raise DataError(f"{text}: directory {Path(text).parent} not found; nothing written")
    if Path(text).exists() and Path(text).is_dir() != directory:
        raise DataError(f"{text}: is {'not ' * directory}a directory; nothing written")
    return Path(text)


def _build_parser():
    parser = _Parser(prog="stegowav",
                     description="Image-in-audio steganography on spectral containers.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", parents=[], help="synthesize a secret/cover dataset")
    _add_config_args(p)
    p.add_argument("--n", type=int, default=16, help="number of sample pairs")
    p.add_argument("--profile", default="desk", choices=sorted(pipeline.PROFILES))
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = subs.add_parser("train", help="train a model on a dataset directory")
    _add_config_args(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=_output_file, required=True, help="checkpoint path")
    p.add_argument("--log", type=_output_file, help="per-step loss CSV path")

    p = subs.add_parser("embed", help="hide an image in a cover audio file")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--image", type=Path, required=True, help="secret image (P6 .ppm)")
    p.add_argument("--audio", type=Path, required=True, help="cover audio (PCM16 mono .wav)")
    p.add_argument("--out", type=_output_file, required=True, help="stego .wav path")

    p = subs.add_parser("reveal", help="decode the hidden image from stego audio")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--audio", type=Path, required=True, help="stego .wav")
    p.add_argument("--out", type=_output_file, required=True, help="revealed image .ppm path")
    p.add_argument("--reference", type=Path, help="original secret (P6); prints a metrics row when given")

    p = subs.add_parser("eval", help="metrics row over a dataset")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=_output_file, help="append CSV here (header if new)")

    p = subs.add_parser("robustness", help="frame-dropout sweep")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--fractions", default=",".join(map(str, robustness.DEFAULT_FRACTIONS)))
    p.add_argument("--modes", default=",".join(robustness.MODES))
    p.add_argument("--seed", type=int, default=0, help="seed of the random frame-dropout mode")
    p.add_argument("--out", type=_output_file, required=True)
    p.add_argument("--dump-dir", type=functools.partial(_output_file, directory=True),
                   help="optionally dump revealed images per cell")

    p = subs.add_parser("cost", help="parameter/MAC cost table")
    _add_config_args(p)
    p.add_argument("--out", type=_output_file, help="CSV path (text table prints to stdout)")

    p = subs.add_parser("spectrogram", help="dump a log-magnitude raster (P5)")
    _add_config_args(p)
    p.add_argument("--audio", type=Path, required=True)
    p.add_argument("--out", type=_output_file, required=True)

    return parser


def _require(path):
    if not path.exists():
        raise DataError(f"{path}: file not found")
    return path


def _model(path, scored=False):
    """The checkpoint at `path`; a `scored` model's images must hold SSIM's window, checked before any work."""
    bundle, window = pipeline.load_checkpoint(_require(path)), metrics.SSIM_WINDOW
    if scored and bundle.cfg.image < window:
        raise UsageError(f"{path}: the model's {bundle.cfg.image}x{bundle.cfg.image} images are smaller than the "
                         f"{window}x{window} SSIM window; nothing written")
    return bundle


def _cmd_synth(args):
    cfg = _load_config(args, base=pipeline.profile_config(args.profile))
    pairs = pipeline.synth_dataset(args.n, profile=args.profile, seed=cfg.seed, cfg=cfg)
    pipeline.save_dataset(pairs, args.out)
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


def _cmd_train(args):
    cfg = _load_config(args)
    pairs = pipeline.load_dataset(_require(args.data))
    bundle, log = pipeline.train(pairs, cfg)
    pipeline.save_checkpoint(bundle, args.out)
    if args.log is not None:
        args.log.write_text(log.to_csv(), encoding="utf-8")
    totals = log.totals()
    if totals:
        print(f"trained {cfg.steps} steps: loss {totals[0]:.6g} -> {totals[-1]:.6g}")
    print(f"checkpoint: {args.out} ({bundle.param_count()} parameters)")
    return 0


def _cmd_embed(args):
    bundle = _model(args.model)
    secret = imageops.read_ppm(_require(args.image))
    cover = wavio.read_wav(_require(args.audio))
    stego, diag = pipeline.embed(secret, cover, bundle)
    wavio.write_wav(stego, args.out)
    print(f"stego: {args.out}  snr_db={diag['stego_snr_db']:.3f}  "
          f"container_l2={diag['container_l2']:.6g}")
    return 0


def _cmd_reveal(args):
    bundle = _model(args.model, scored=args.reference is not None)
    stego = wavio.read_wav(_require(args.audio))
    if args.reference is not None:  # checked before decoding, so a bad reference writes nothing
        secret = imageops.read_ppm(_require(args.reference))
        pipeline.check_secret(bundle, secret, args.reference)
    revealed = pipeline.reveal(stego, bundle)
    imageops.write_ppm(revealed, args.out)
    print(f"revealed: {args.out}")
    if args.reference is not None:
        row = metrics.score_row(bundle.cfg, secret[None], revealed[None])
        print(metrics.csv_table(metrics.METRICS_CSV_HEADER, [row]), end="")
    return 0


def _cmd_eval(args):
    bundle = _model(args.model, scored=True)
    pairs = pipeline.load_dataset(_require(args.data))
    skip = None if args.out is None else _written_head(args.out, metrics.METRICS_CSV_HEADER)  # before evaluating
    table = metrics.csv_table(metrics.METRICS_CSV_HEADER, [pipeline.evaluate(bundle, pairs)])
    print(table, end="")
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(table[skip:])
    return 0


def _written_head(path, header):
    """0 if `path` is missing or empty, else the length of its first line, which must be `header` or a DataError."""
    try:
        with open(path, "rb") as f:
            first = f.readline(len(header) + 1).decode("utf-8", "backslashreplace")
    except FileNotFoundError:
        first = ""
    if first and first.rstrip("\n") != header:
        raise DataError(f"{path}: first line starts {first.rstrip()!r}, not the header {header!r}; nothing written")
    return len(first)


def _cell_list(flag, text, parse, name=repr):
    """The values of a comma-separated list; an empty list or two values of one name are a usage error."""
    try:
        values = [parse(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad {flag} list: {text!r}") from None
    names = [name(v) for v in values]
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if not values or repeated:
        raise UsageError(f"{flag} list {text!r} " + (f"repeats {repeated[0]}" if values else "is empty"))
    return values


def _cmd_robustness(args):
    fractions = _cell_list("--fractions", args.fractions, float, _FRACTION_NAME)
    modes = _cell_list("--modes", args.modes, str)
    bundle = _model(args.model, scored=True)
    pairs = pipeline.load_dataset(_require(args.data))
    on_cell = None if args.dump_dir is None else functools.partial(_dump_cells, args.dump_dir)
    rows = robustness.robustness_sweep(bundle, pairs, fractions, modes, seed=args.seed, on_cell=on_cell)
    args.out.write_text(metrics.csv_table(robustness.SWEEP_CSV_HEADER, rows), encoding="utf-8")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _dump_cells(directory, mode, fraction, revealed):
    directory.mkdir(parents=True, exist_ok=True)
    for i, image in enumerate(revealed):
        imageops.write_ppm(image, directory / f"revealed_{mode}_p{_FRACTION_NAME(fraction)}_{i:03d}.ppm")


def _cmd_cost(args):
    cfg = _load_config(args)
    rows = costing.cost_table(costing.standard_variants(cfg))
    print(costing.cost_to_text(rows))
    if args.out is not None:
        args.out.write_text(costing.cost_to_csv(rows), encoding="utf-8")
    return 0


def _cmd_spectrogram(args):
    cfg = _load_config(args)
    wave = wavio.read_wav(_require(args.audio))
    spec = dsp.transform(wave, cfg.stft_config(), cfg.transform)
    dsp.write_spectrogram_pgm(spec, args.out)
    print(f"wrote {spec.shape[0]}x{spec.shape[1]} raster to {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "embed": _cmd_embed,
    "reveal": _cmd_reveal,
    "eval": _cmd_eval,
    "robustness": _cmd_robustness,
    "cost": _cmd_cost,
    "spectrogram": _cmd_spectrogram,
}


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # a NaN or Inf is reported once, as a NumericError, not as numpy warnings
            return _COMMANDS[args.command](args)
    except MemoryError as exc:  # a refused allocation; Python's own bare MemoryError() has no message
        message, code = "out of memory" + (f": {exc}" if str(exc) else ""), 1
    except (UsageError, ConfigError) as exc:
        message, code = exc, 1
    except (DataError, OSError) as exc:
        message, code = exc, 2
    except NumericError as exc:
        message, code = exc, 3
    print(f"error: {message}", file=sys.stderr)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
