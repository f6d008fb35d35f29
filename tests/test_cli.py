import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stegowav import dsp, imageops, metrics, pipeline, robustness, wavio
from stegowav.cli import run
from stegowav.errors import DataError, StegoError

from conftest import read_pgm

DESK_CFG = """# desk test profile
method=replicate
transform=stdct
container=magnitude
steps=6
batch=2
lr=0.005
seed=0
"""


@pytest.fixture
def workspace(tmp_path):
    cfg_path = tmp_path / "desk.cfg"
    cfg_path.write_text(DESK_CFG, encoding="utf-8")
    return tmp_path


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        run(["--help"])
    assert info.value.code == 0
    for sub in ("synth", "train", "embed", "reveal", "eval", "robustness", "cost", "spectrogram"):
        with pytest.raises(SystemExit) as info:
            run([sub, "--help"])
        assert info.value.code == 0, sub
    capsys.readouterr()


def test_full_workflow(workspace, capsys):
    ws = workspace
    assert run(["synth", "--config", str(ws / "desk.cfg"), "--n", "4", "--out", str(ws / "pairs")]) == 0
    assert run(["train", "--config", str(ws / "desk.cfg"), "--data", str(ws / "pairs"),
                "--out", str(ws / "model.pxw2"), "--log", str(ws / "loss.csv")]) == 0
    assert run(["embed", "--model", str(ws / "model.pxw2"),
                "--image", str(ws / "pairs" / "secret_000.ppm"),
                "--audio", str(ws / "pairs" / "cover_000.wav"),
                "--out", str(ws / "stego.wav")]) == 0
    assert run(["reveal", "--model", str(ws / "model.pxw2"), "--audio", str(ws / "stego.wav"),
                "--out", str(ws / "revealed.ppm"),
                "--reference", str(ws / "pairs" / "secret_000.ppm")]) == 0
    out = capsys.readouterr().out
    assert metrics.METRICS_CSV_HEADER in out  # metrics row printed on reveal
    assert run(["eval", "--model", str(ws / "model.pxw2"), "--data", str(ws / "pairs"),
                "--out", str(ws / "eval.csv")]) == 0
    assert run(["robustness", "--model", str(ws / "model.pxw2"), "--data", str(ws / "pairs"),
                "--fractions", "1,0.5,0.25", "--modes", "sequential,random",
                "--out", str(ws / "sweep.csv")]) == 0
    assert run(["cost", "--config", str(ws / "desk.cfg"), "--out", str(ws / "cost.csv")]) == 0
    assert run(["spectrogram", "--config", str(ws / "desk.cfg"), "--audio", str(ws / "stego.wav"),
                "--out", str(ws / "spec.pgm")]) == 0
    capsys.readouterr()

    # artifacts exist and parse
    assert imageops.read_ppm(ws / "revealed.ppm").shape == (3, 16, 16)
    assert len(wavio.read_wav(ws / "stego.wav")) == 1024
    loss_lines = (ws / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == pipeline.TrainLog.CSV_HEADER
    assert len(loss_lines) == 7
    eval_lines = (ws / "eval.csv").read_text().splitlines()
    assert eval_lines[0] == metrics.METRICS_CSV_HEADER
    sweep_lines = (ws / "sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == 1 + 6  # header + |fractions| x |modes|
    raster = read_pgm(ws / "spec.pgm")
    assert raster.shape == (64, 32)


def test_missing_files_exit_2(workspace, capsys):
    ws = workspace
    assert run(["reveal", "--model", str(ws / "nope.pxw2"), "--audio", str(ws / "x.wav"),
                "--out", str(ws / "y.ppm")]) == 2
    assert run(["train", "--config", str(ws / "ghost.cfg"), "--data", str(ws / "pairs"),
                "--out", str(ws / "m.pxw2")]) == 2
    capsys.readouterr()


def test_usage_errors_exit_1(workspace, capsys):
    ws = workspace
    assert run(["synth", "--config", str(ws / "desk.cfg"), "--set", "nope=1",
                "--n", "2", "--out", str(ws / "p")]) == 1
    assert run(["synth", "--config", str(ws / "desk.cfg"), "--set", "transform=stdct",
                "--set", "container=dual", "--n", "2", "--out", str(ws / "p")]) == 1
    (ws / "pairs2").mkdir()
    assert run(["robustness", "--model", str(ws / "m.pxw2"), "--data", str(ws / "pairs2"),
                "--fractions", "banana", "--out", str(ws / "s.csv")]) == 1
    capsys.readouterr()


def test_robustness_negative_seed_exits_1(workspace, capsys):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pipeline.save_dataset(pipeline.synth_dataset(2, cfg=cfg), ws / "p")
    pipeline.save_checkpoint(pipeline.build_model(cfg), ws / "m.pxw2")
    assert run(["robustness", "--model", str(ws / "m.pxw2"), "--data", str(ws / "p"),
                "--fractions", "0.5", "--modes", "random", "--seed", "-1",
                "--out", str(ws / "s.csv")]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_argparse_usage_error_exits_1(capsys):
    assert run(["no_such_command"]) == 1
    assert run(["train"]) == 1  # missing required flags
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_exits_3(workspace, capsys):
    ws = workspace
    assert run(["synth", "--config", str(ws / "desk.cfg"), "--n", "2", "--out", str(ws / "p")]) == 0
    code = run(["train", "--config", str(ws / "desk.cfg"), "--set", "lr=1e150",
                "--set", "steps=8", "--data", str(ws / "p"), "--out", str(ws / "m.pxw2")])
    assert code == 3
    assert "is not finite" in capsys.readouterr().err


def test_seeded_runs_byte_identical(workspace, capsys):
    ws = workspace
    for tag in ("a", "b"):
        assert run(["synth", "--config", str(ws / "desk.cfg"), "--n", "3",
                    "--out", str(ws / f"pairs_{tag}")]) == 0
        assert run(["train", "--config", str(ws / "desk.cfg"), "--data", str(ws / f"pairs_{tag}"),
                    "--out", str(ws / f"model_{tag}.pxw2"), "--log", str(ws / f"loss_{tag}.csv")]) == 0
        assert run(["robustness", "--model", str(ws / f"model_{tag}.pxw2"),
                    "--data", str(ws / f"pairs_{tag}"), "--fractions", "1,0.5",
                    "--modes", "random", "--seed", "0", "--out", str(ws / f"sweep_{tag}.csv")]) == 0
    capsys.readouterr()
    for i in range(3):
        assert (ws / "pairs_a" / f"secret_{i:03d}.ppm").read_bytes() \
            == (ws / "pairs_b" / f"secret_{i:03d}.ppm").read_bytes()
        assert (ws / "pairs_a" / f"cover_{i:03d}.wav").read_bytes() \
            == (ws / "pairs_b" / f"cover_{i:03d}.wav").read_bytes()
    assert (ws / "model_a.pxw2").read_bytes() == (ws / "model_b.pxw2").read_bytes()
    assert (ws / "loss_a.csv").read_bytes() == (ws / "loss_b.csv").read_bytes()
    assert (ws / "sweep_a.csv").read_bytes() == (ws / "sweep_b.csv").read_bytes()


def test_robustness_dump_dir(workspace, capsys):
    ws = workspace
    assert run(["synth", "--config", str(ws / "desk.cfg"), "--n", "2", "--out", str(ws / "p")]) == 0
    assert run(["train", "--config", str(ws / "desk.cfg"), "--set", "steps=2",
                "--data", str(ws / "p"), "--out", str(ws / "m.pxw2")]) == 0
    assert run(["robustness", "--model", str(ws / "m.pxw2"), "--data", str(ws / "p"),
                "--fractions", "0.5", "--modes", "sequential", "--out", str(ws / "s.csv"),
                "--dump-dir", str(ws / "cells")]) == 0
    capsys.readouterr()
    dumps = sorted((ws / "cells").glob("*.ppm"))
    assert [d.name for d in dumps] == ["revealed_sequential_p0.5_000.ppm",
                                       "revealed_sequential_p0.5_001.ppm"]
    # each dump holds the cell's own reveal: embed, analyse, drop, reveal
    bundle = pipeline.load_checkpoint(ws / "m.pxw2")
    cfg = bundle.cfg
    for pair, dump in zip(pipeline.load_dataset(ws / "p"), dumps):
        stego, _ = pipeline.embed(pair.secret, pair.cover, bundle)
        spec = dsp.transform(stego, cfg.stft_config(), cfg.transform)
        attacked = robustness.apply_frame_dropout(spec, robustness.DropoutSpec(0.5, "sequential"))
        imageops.write_ppm(pipeline.reveal_from_spectrogram(attacked, bundle), ws / "expect.ppm")
        assert dump.read_bytes() == (ws / "expect.ppm").read_bytes()


def _corrupt_config_byte(raw):
    raw[12] = 0xFF  # first byte of the stored config text: never valid UTF-8
    return raw


def _corrupt_config_value(raw):
    start = raw.index(b"transform=stdct")
    raw[start:start + 15] = b"transform=stdcx"
    return raw


def _corrupt_config_geometry(raw):
    start = raw.index(b"depth=2")
    raw[start:start + 7] = b"depth=5"  # 2^5 does not divide the 16x16 image
    return raw


def _corrupt_config_channels(raw):
    start = raw.index(b"channels=8")
    raw[start:start + 10] = b"channels=0"  # one bit flip away; no layer can be built
    return raw


def _corrupt_config_wave_loss(raw):
    start = raw.index(b"wave_loss=l1")
    raw[start:start + 12] = b"wave_loss=l3"  # one bit flip away; not a waveform loss
    return raw


def _append_byte(raw):
    return raw + b"\x00"


@pytest.mark.parametrize("corrupt", [_corrupt_config_byte, _corrupt_config_value,
                                     _corrupt_config_geometry, _corrupt_config_channels,
                                     _corrupt_config_wave_loss, _append_byte])
def test_corrupt_checkpoint_exits_2(workspace, capsys, corrupt):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pipeline.save_dataset(pipeline.synth_dataset(1, cfg=cfg), ws / "p")
    pipeline.save_checkpoint(pipeline.build_model(cfg), ws / "m.pxw2")
    raw = corrupt(bytearray((ws / "m.pxw2").read_bytes()))
    (ws / "bad.pxw2").write_bytes(bytes(raw))
    argv = ["embed", "--image", str(ws / "p" / "secret_000.ppm"),
            "--audio", str(ws / "p" / "cover_000.wav"), "--out", str(ws / "s.wav")]
    assert run(argv + ["--model", str(ws / "m.pxw2")]) == 0
    assert run(argv + ["--model", str(ws / "bad.pxw2")]) == 2
    assert "bad.pxw2" in capsys.readouterr().err


def test_nonfinite_checkpoint_exits_2(workspace, capsys):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pipeline.save_dataset(pipeline.synth_dataset(1, cfg=cfg), ws / "p")
    bundle = pipeline.build_model(cfg)
    assert list(bundle.params)[-1] == "reveal.head.b"
    pipeline.save_checkpoint(bundle, ws / "m.pxw2")
    raw = bytearray((ws / "m.pxw2").read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    (ws / "bad.pxw2").write_bytes(bytes(raw))
    embed = ["embed", "--image", str(ws / "p" / "secret_000.ppm"),
             "--audio", str(ws / "p" / "cover_000.wav"), "--out", str(ws / "s.wav")]
    assert run(embed + ["--model", str(ws / "m.pxw2")]) == 0
    capsys.readouterr()
    reveal = ["reveal", "--audio", str(ws / "s.wav"), "--out", str(ws / "r.ppm")]
    for argv in (embed, reveal):
        assert run(argv + ["--model", str(ws / "bad.pxw2")]) == 2
        err = capsys.readouterr().err
        assert "'reveal.head.b'" in err and f"byte {len(raw) - 8}" in err
    assert not (ws / "r.ppm").exists()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One valid file of each kind the CLI reads, keyed by suffix."""
    d = tmp_path_factory.mktemp("valid")
    cfg = pipeline.parse_config_text(DESK_CFG)
    pair = pipeline.synth_dataset(1, cfg=cfg)[0]
    imageops.write_ppm(pair.secret, d / "f.ppm")
    dsp.write_spectrogram_pgm(dsp.transform(pair.cover, cfg.stft_config(), cfg.transform),
                              d / "f.pgm")
    wavio.write_wav(pair.cover, d / "f.wav")
    pipeline.save_checkpoint(pipeline.build_model(cfg), d / "f.pxw2")
    return {p.suffix: p.read_bytes() for p in d.iterdir()}


READERS = {".ppm": imageops.read_ppm, ".pgm": read_pgm, ".wav": wavio.read_wav,
           ".pxw2": pipeline.load_checkpoint}


@pytest.mark.parametrize("suffix", sorted(READERS))
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_files_raise_only_package_errors(valid_files, tmp_path, suffix, data):
    raw = bytearray(valid_files[suffix])
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, min(600, len(raw)) - 1), label="byte")
        raw[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    path = tmp_path / f"corrupt{suffix}"
    path.write_bytes(bytes(raw))
    try:
        READERS[suffix](path)
    except (StegoError, OSError):
        pass


def test_wav_corrupt_chunk_size_is_data_error(valid_files, tmp_path):
    raw = bytearray(valid_files[".wav"])
    raw[17] ^= 0x80  # the fmt chunk size now points past the end of the file
    (tmp_path / "bad.wav").write_bytes(bytes(raw))
    with pytest.raises(DataError, match="bad.wav"):
        wavio.read_wav(tmp_path / "bad.wav")


def test_wav_zero_sample_rate_is_data_error(valid_files, workspace, capsys):
    raw = bytearray(valid_files[".wav"])
    raw[24:28] = bytes(4)  # the fmt chunk's sample rate
    bad = workspace / "bad.wav"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="bad.wav.*sample rate of 0"):
        wavio.read_wav(bad)
    assert run(["spectrogram", "--audio", str(bad), "--out", str(workspace / "s.pgm")]) == 2
    assert "bad.wav" in capsys.readouterr().err


def test_cover_sample_rate_mismatch_exits_1(workspace, capsys):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pair = pipeline.synth_dataset(1, cfg=cfg)[0]
    imageops.write_ppm(pair.secret, ws / "secret.ppm")
    wavio.write_wav(dsp.Waveform(pair.cover.samples, 44100), ws / "cover.wav")
    pipeline.save_checkpoint(pipeline.build_model(cfg), ws / "m.pxw2")
    assert run(["embed", "--model", str(ws / "m.pxw2"), "--image", str(ws / "secret.ppm"),
                "--audio", str(ws / "cover.wav"), "--out", str(ws / "s.wav")]) == 1
    err = capsys.readouterr().err
    assert "44100" in err and "16000" in err
