"""Digests of the seeded outputs: `{artifact: sha256}` JSON for every file the CLI writes from a seed.

    PYTHONPATH=src python tools/seeded_digests.py > digests.json

Run it from the root of two checkouts: a change that keeps seeded outputs
byte-identical prints the same JSON on both.  Everything runs in process
through `cli.run`, in a temporary directory.  Per configuration (the five
embedding methods, small and `large`; STFT `dual` and `phase`;
`channels=1`, `kernel=5`, `depth=3`; soft-DTW): synth 3 pairs, train 6
steps (batch 2, lr 0.005); for an untrained `paper_shape` model: synth 1
pair.  Of each: the synth files (secret PPMs and cover WAVs), the
`spectrogram` PGM of cover 0, the checkpoint and the loss CSV; of pair 0, the
stego WAV, the `embed` standard output (its SNR and container distance, with
the path it names taken out), the revealed PPM and the `reveal --reference`
metrics row; and an `eval --out` CSV written twice (header, row, row) with its
standard output.
Then the sweep CSV and the dumped PPMs of the first configuration, and the
`cost` CSV and text.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from stegowav import cli

def _sets(keys):
    return [arg for key in keys for arg in ("--set", key)]


_METHODS = ("stretch", "replicate", "w_replicate", "ws_replicate", "multichannel")
_VARIANTS = {
    **{method: [f"method={method}"] for method in _METHODS},
    **{f"{method}_large": [f"method={method}", "large=true"] for method in _METHODS},
    "stft_dual": ["transform=stft", "container=dual"],
    "stft_phase": ["transform=stft", "container=phase"],
    "channels_1": ["channels=1"],
    "kernel_5": ["kernel=5"],
    "depth_3": ["depth=3"],
    "soft_dtw": ["wave_loss=soft_dtw"],
}
_TRAIN_KEYS = ["steps=6", "batch=2", "lr=0.005", "seed=0"]
CONFIGS = {  # name: (synth arguments, train keys); the sweep runs on the first
    **{name: (_sets(keys + _TRAIN_KEYS) + ["--n", 3], keys + _TRAIN_KEYS) for name, keys in _VARIANTS.items()},
    "paper_shape": (["--profile", "paper_shape", "--n", 1],
                    ["image=256", "transform=stft", "hop=128", "sample_rate=44100", "steps=0", "seed=0"]),
}


def _cli(*argv):
    """Standard output of one `cli.run` call, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"stegowav {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def _sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def _sha_dir(directory):
    """sha256 of every file of `directory`, each name then its bytes, in name order."""
    return _sha(b"".join(p.name.encode() + p.read_bytes() for p in sorted(directory.iterdir())))


def _model_outputs(work, keys):
    """{"<work's name>/<artifact>": sha256} of the model `keys` trains on `work`/pairs (steps=0: untrained),
    run on pair 0."""
    pairs, model = work / "pairs", work / "model.pxw2"
    out = {"checkpoint": model, "loss.csv": work / "loss.csv", "stego.wav": work / "stego.wav",
           "revealed.ppm": work / "revealed.ppm"}
    _cli("train", *_sets(keys), "--data", pairs, "--out", model, "--log", out["loss.csv"])
    embedded = _cli("embed", "--model", model, "--image", pairs / "secret_000.ppm", "--audio",
                    pairs / "cover_000.wav", "--out", out["stego.wav"])
    printed = _cli("reveal", "--model", model, "--audio", out["stego.wav"], "--out", out["revealed.ppm"],
                   "--reference", pairs / "secret_000.ppm")
    digests = {name: _sha(path.read_bytes()) for name, path in out.items()}
    digests["reveal_reference"] = _sha("\n".join(printed.splitlines()[-2:]))  # the line before names the path
    digests["embed_stdout"] = _sha(embedded.replace(str(out["stego.wav"]), "stego.wav"))
    return {f"{work.name}/{name}": digest for name, digest in digests.items()}


def manifest(workdir, configs=CONFIGS):
    """{artifact: sha256 hex} of every seeded output of `configs`, written under `workdir`."""
    workdir, digests = Path(workdir), {}
    for name, (synth_args, train_keys) in configs.items():
        work = workdir / name
        _cli("synth", *synth_args, "--out", work / "pairs")
        digests[f"{name}/synth"] = _sha_dir(work / "pairs")
        _cli("spectrogram", *_sets(train_keys), "--audio", work / "pairs" / "cover_000.wav",
             "--out", work / "spectrogram.pgm")
        digests[f"{name}/spectrogram.pgm"] = _sha((work / "spectrogram.pgm").read_bytes())
        digests.update(_model_outputs(work, train_keys))
        printed = "".join(_cli("eval", "--model", work / "model.pxw2", "--data", work / "pairs",
                               "--out", work / "eval.csv") for _ in range(2))
        digests[f"{name}/eval.csv"] = _sha((work / "eval.csv").read_bytes())
        digests[f"{name}/eval_stdout"] = _sha(printed)
    first = workdir / next(iter(configs))
    dump = first / "dump"
    _cli("robustness", "--model", first / "model.pxw2", "--data", first / "pairs", "--out", first / "sweep.csv",
         "--dump-dir", dump)
    digests["sweep/sweep.csv"] = _sha((first / "sweep.csv").read_bytes())
    digests["sweep/dump"] = _sha_dir(dump)
    printed = _cli("cost", "--out", workdir / "cost.csv")
    digests["cost/cost.csv"] = _sha((workdir / "cost.csv").read_bytes())
    digests["cost/stdout"] = _sha(printed)
    return digests


def main():
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(manifest(tmp), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
