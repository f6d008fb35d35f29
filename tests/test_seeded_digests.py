"""`tools/seeded_digests.py`: the digest manifest of one desk config is the same on a second run."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "seeded_digests.py"
_SPEC = importlib.util.spec_from_file_location("seeded_digests", _PATH)
seeded_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seeded_digests)


def test_manifest_of_one_desk_config_repeats(tmp_path):
    configs = {"replicate": seeded_digests.CONFIGS["replicate"]}
    first = seeded_digests.manifest(tmp_path / "a", configs)
    assert first == seeded_digests.manifest(tmp_path / "b", configs)
    assert sorted(first) == sorted(
        [f"replicate/{name}" for name in ("synth", "spectrogram.pgm", "checkpoint", "loss.csv", "stego.wav",
                                          "embed_stdout", "revealed.ppm", "reveal_reference", "eval.csv",
                                          "eval_stdout")]
        + ["sweep/sweep.csv", "sweep/dump", "cost/cost.csv", "cost/stdout"])
    assert all(len(digest) == 64 for digest in first.values())
