import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stegowav import cli, costing, dsp, imageops, metrics, pipeline, robustness, wavio
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


def test_config_check_names_the_config_key(capsys):
    assert run(["cost", "--set", "lambda=-1"]) == 1
    assert "lambda must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["cost", "--set", "image=6"], "image extents 6x6 not divisible by 2^2"),
    (["synth", "--set", "image=6", "--n", "1"], "image extents 6x6 not divisible by 2^2"),
    (["synth", "--set", "kernel=2", "--n", "1"], "kernel must be odd"),
    (["spectrogram", "--set", "depth=5", "--audio"], "image extents 16x16 not divisible by 2^5")])
def test_unbuildable_config_exits_1_before_any_work(workspace, capsys, argv, message):
    ws = workspace
    pipeline.save_dataset(pipeline.synth_dataset(1), ws / "p")
    if argv[-1] == "--audio":
        argv = argv + [str(ws / "p" / "cover_000.wav")]
    assert run(argv + ["--out", str(ws / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (ws / "out").exists()


def test_silent_cover_embeds_and_evaluates(workspace, capsys):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pairs = pipeline.synth_dataset(1, cfg=cfg)
    pairs[0].cover = dsp.Waveform(np.zeros(cfg.required_samples()), cfg.sample_rate)
    pipeline.save_dataset(pairs, ws / "p")
    pipeline.save_checkpoint(pipeline.build_model(cfg), ws / "m.pxw2")
    assert run(["embed", "--model", str(ws / "m.pxw2"), "--image", str(ws / "p" / "secret_000.ppm"),
                "--audio", str(ws / "p" / "cover_000.wav"), "--out", str(ws / "s.wav")]) == 0
    assert "snr_db=-inf" in capsys.readouterr().out
    assert run(["eval", "--model", str(ws / "m.pxw2"), "--data", str(ws / "p")]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[metrics.METRICS_CSV_HEADER.split(",").index("snr_db")] == "-inf"


def _eval_to(ws, out):
    """`eval --out out` of an untrained desk model over two pairs; returns the exit code."""
    cfg = pipeline.parse_config_text(DESK_CFG)
    pipeline.save_dataset(pipeline.synth_dataset(2, cfg=cfg), ws / "p")
    pipeline.save_checkpoint(pipeline.build_model(cfg), ws / "m.pxw2")
    return run(["eval", "--model", str(ws / "m.pxw2"), "--data", str(ws / "p"), "--out", str(out)])


@pytest.mark.parametrize("start", ["", None, metrics.METRICS_CSV_HEADER], ids=["empty", "missing", "header_no_eol"])
def test_eval_out_starts_or_continues_a_metrics_table(workspace, capsys, start):
    out = workspace / "eval.csv"
    if start is not None:
        out.write_text(start, encoding="utf-8")
    assert _eval_to(workspace, out) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == metrics.METRICS_CSV_HEADER
    assert out.read_text(encoding="utf-8") == printed
    assert _eval_to(workspace, out) == 0
    assert out.read_text(encoding="utf-8") == printed + capsys.readouterr().out.splitlines(keepends=True)[1]


@pytest.mark.parametrize("first", [(robustness.SWEEP_CSV_HEADER + "\n").encode(), b"\xff\xfe not text\n"],
                         ids=["sweep_header", "not_utf8"])
def test_eval_out_refuses_another_tables_file_before_evaluating(workspace, capsys, monkeypatch, first):
    out = workspace / "eval.csv"
    out.write_bytes(first + b"sequential,1,0.5,20\n")

    def never(*args):
        raise AssertionError("evaluate ran")

    monkeypatch.setattr(pipeline, "evaluate", never)
    assert _eval_to(workspace, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: first line starts ") and metrics.METRICS_CSV_HEADER in err
    assert (robustness.SWEEP_CSV_HEADER in err) == first.startswith(b"method")
    assert out.read_bytes() == first + b"sequential,1,0.5,20\n"


def _never(*args, **kwargs):
    raise AssertionError("the work ran")


@pytest.fixture
def model_files(workspace, monkeypatch):
    """A desk dataset of one pair, an untrained model and a stego of the pair; then the work of every command
    fails, so a command that reaches it is caught."""
    cfg = pipeline.parse_config_text(DESK_CFG)
    pairs = pipeline.synth_dataset(1, cfg=cfg)
    pipeline.save_dataset(pairs, workspace / "p")
    bundle = pipeline.build_model(cfg)
    pipeline.save_checkpoint(bundle, workspace / "m.pxw2")
    wavio.write_wav(pipeline.embed(pairs[0].secret, pairs[0].cover, bundle)[0], workspace / "stego.wav")
    for owner, name in ((pipeline, "train"), (pipeline, "embed"), (pipeline, "reveal"), (pipeline, "evaluate"),
                        (robustness, "robustness_sweep"), (costing, "cost_table"), (dsp, "transform")):
        monkeypatch.setattr(owner, name, _never)
    return workspace


_OUTPUT_CASES = {  # argv with {w} for the workspace; the output under a missing directory is nodir/<name>
    "train_out": "train --config {w}/desk.cfg --data {w}/p --out {w}/nodir/m2.pxw2",
    "train_log": "train --config {w}/desk.cfg --data {w}/p --out {w}/m2.pxw2 --log {w}/nodir/loss.csv",
    "embed": "embed --model {w}/m.pxw2 --image {w}/p/secret_000.ppm --audio {w}/p/cover_000.wav --out {w}/nodir/s.wav",
    "reveal": "reveal --model {w}/m.pxw2 --audio {w}/stego.wav --out {w}/nodir/r.ppm",
    "eval": "eval --model {w}/m.pxw2 --data {w}/p --out {w}/nodir/e.csv",
    "robustness": "robustness --model {w}/m.pxw2 --data {w}/p --out {w}/nodir/s.csv --dump-dir {w}/dump",
    "cost": "cost --out {w}/nodir/c.csv",
    "spectrogram": "spectrogram --audio {w}/stego.wav --out {w}/nodir/s.pgm",
}


@pytest.mark.parametrize("case", sorted(_OUTPUT_CASES))
def test_output_file_in_a_missing_directory_is_refused_before_any_work(model_files, capsys, case):
    ws = model_files
    before = sorted(ws.rglob("*"))
    argv = _OUTPUT_CASES[case].format(w=ws).split()
    assert run(argv) == 2
    bad = next(arg for arg in argv if "/nodir/" in arg)
    assert capsys.readouterr() == ("", f"error: {bad}: directory {ws / 'nodir'} not found; nothing written\n")
    assert sorted(ws.rglob("*")) == before


@pytest.mark.parametrize("case", sorted(_OUTPUT_CASES))
def test_output_file_naming_a_directory_is_refused_before_any_work(model_files, capsys, case):
    ws = model_files
    (ws / "adir").mkdir()
    before = sorted(ws.rglob("*"))
    argv = [str(ws / "adir") if "/nodir/" in arg else arg for arg in _OUTPUT_CASES[case].format(w=ws).split()]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {ws / 'adir'}: is a directory; nothing written\n")
    assert sorted(ws.rglob("*")) == before


def test_dump_dir_naming_a_file_is_refused_before_any_work(model_files, capsys):
    ws = model_files
    (ws / "afile").write_bytes(b"")
    before = sorted(ws.rglob("*"))
    assert run(f"robustness --model {ws}/m.pxw2 --data {ws}/p --out {ws}/s.csv --dump-dir {ws}/afile".split()) == 2
    assert capsys.readouterr() == ("", f"error: {ws / 'afile'}: is not a directory; nothing written\n")
    assert sorted(ws.rglob("*")) == before and (ws / "afile").read_bytes() == b""


@pytest.mark.parametrize("command", ["eval", "robustness", "reveal"])
def test_model_too_small_to_score_is_refused_before_any_work(workspace, capsys, monkeypatch, command):
    ws = workspace
    (ws / "desk.cfg").write_text(DESK_CFG + "image=8\n", encoding="utf-8")
    cfg = pipeline.parse_config_text(DESK_CFG + "image=8\n")
    pairs = pipeline.synth_dataset(1, cfg=cfg)
    pipeline.save_dataset(pairs, ws / "p")
    bundle = pipeline.build_model(cfg)
    pipeline.save_checkpoint(bundle, ws / "m.pxw2")
    wavio.write_wav(pipeline.embed(pairs[0].secret, pairs[0].cover, bundle)[0], ws / "stego.wav")
    assert run(["reveal", "--model", str(ws / "m.pxw2"), "--audio", str(ws / "stego.wav"),
                "--out", str(ws / "unscored.ppm")]) == 0  # revealing alone scores nothing, so it is not refused
    for name in ("embed", "reveal", "evaluate"):
        monkeypatch.setattr(pipeline, name, _never)
    before = sorted(ws.rglob("*"))
    capsys.readouterr()
    model, data = ["--model", str(ws / "m.pxw2")], ["--data", str(ws / "p")]
    argv = {"eval": ["eval", *model, *data, "--out", str(ws / "e.csv")],
            "robustness": ["robustness", *model, *data, "--out", str(ws / "s.csv"), "--dump-dir", str(ws / "dump")],
            "reveal": ["reveal", *model, "--audio", str(ws / "stego.wav"), "--out", str(ws / "r.ppm"),
                       "--reference", str(ws / "p" / "secret_000.ppm")]}[command]
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {ws / 'm.pxw2'}: the model's 8x8 images are smaller than the "
                                       "11x11 SSIM window; nothing written\n")
    assert sorted(ws.rglob("*")) == before


def test_refused_allocation_is_one_error_line(capsys):
    # enc1's kernel alone is 131 TiB, past the address space: refused at once under any overcommit mode
    assert run(["cost", "--set", "channels=1000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1 and "Traceback" not in err


def test_bare_memory_error_still_names_its_cause(monkeypatch, capsys):
    def refuse(args):
        raise MemoryError()  # Python's own allocations raise it without a message

    monkeypatch.setitem(cli._COMMANDS, "cost", refuse)
    assert run(["cost"]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_robustness_negative_seed_exits_1(workspace, capsys):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pipeline.save_dataset(pipeline.synth_dataset(2, cfg=cfg), ws / "p")
    pipeline.save_checkpoint(pipeline.build_model(cfg), ws / "m.pxw2")
    assert run(["robustness", "--model", str(ws / "m.pxw2"), "--data", str(ws / "p"),
                "--fractions", "0.5", "--modes", "random", "--seed", "-1",
                "--out", str(ws / "s.csv")]) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_robustness_unknown_mode_exits_1_naming_the_choices(workspace, capsys):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pipeline.save_dataset(pipeline.synth_dataset(2, cfg=cfg), ws / "p")
    pipeline.save_checkpoint(pipeline.build_model(cfg), ws / "m.pxw2")
    assert run(["robustness", "--model", str(ws / "m.pxw2"), "--data", str(ws / "p"),
                "--modes", "sideways", "--out", str(ws / "s.csv")]) == 1
    assert f"unknown dropout mode 'sideways'; choose from {robustness.MODES}" in capsys.readouterr().err
    assert not (ws / "s.csv").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--fractions", "", "--fractions list '' is empty"), ("--modes", ",", "--modes list ',' is empty"),
    ("--fractions", "0.5,0.5", "--fractions list '0.5,0.5' repeats 0.5"),
    ("--fractions", "0.5, .5", "--fractions list '0.5, .5' repeats 0.5"),
    ("--fractions", "0.1234567,0.12345671", "--fractions list '0.1234567,0.12345671' repeats 0.123457"),
    ("--modes", "random,sequential,random", "--modes list 'random,sequential,random' repeats 'random'")])
def test_robustness_empty_or_repeated_cells_exit_1_before_loading(workspace, capsys, flag, value, message):
    ws = workspace
    # no model and no data exist: the lists are checked before either is read
    assert run(["robustness", "--model", str(ws / "missing.pxw2"), "--data", str(ws / "missing"),
                flag, value, "--out", str(ws / "s.csv")]) == 1
    assert message in capsys.readouterr().err
    assert not (ws / "s.csv").exists()


@pytest.mark.parametrize("flag", ["--seed", "--steps"])
@pytest.mark.parametrize("command", ["synth", "train", "cost", "spectrogram"])
def test_config_commands_take_seed_and_steps_only_through_set(workspace, capsys, command, flag):
    # `--set seed=N` / `--set steps=N` are the one spelling; robustness --seed is the frame-dropout seed
    ws = workspace
    pipeline.save_dataset(pipeline.synth_dataset(1), ws / "p")
    argv = {"synth": ["--n", "1"], "train": ["--set", "steps=0", "--data", str(ws / "p")], "cost": [],
            "spectrogram": ["--audio", str(ws / "p" / "cover_000.wav")]}[command]
    assert run([command, *argv, "--out", str(ws / "out"), flag, "1"]) == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (ws / "out").exists()


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
        imageops.write_ppm(pipeline.reveal_from_spectrogram(attacked, bundle)[0], ws / "expect.ppm")
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


def test_nonfinite_outputs_exit_3_and_write_nothing(workspace, capsys):
    # finite but huge weights load; the NaN or Inf they make is a NumericError, not a clipped or zeroed file
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pipeline.save_dataset(pipeline.synth_dataset(2, cfg=cfg), ws / "p")
    for role in ("hide", "reveal"):
        bundle = pipeline.build_model(cfg)
        for name, tensor in bundle.params.items():
            tensor.data = tensor.data * (1e200 if name.startswith(role) else 1.0)
        pipeline.save_checkpoint(bundle, ws / f"{role}.pxw2")
    embed = ["embed", "--image", str(ws / "p" / "secret_000.ppm"), "--audio", str(ws / "p" / "cover_000.wav")]
    data = ["--data", str(ws / "p")]
    with np.errstate(all="ignore"):
        assert run(embed + ["--model", str(ws / "reveal.pxw2"), "--out", str(ws / "s.wav")]) == 0
        capsys.readouterr()
        assert run(embed + ["--model", str(ws / "hide.pxw2"), "--out", str(ws / "bad.wav")]) == 3
        assert "stego" in capsys.readouterr().err
        for argv, message in (
                (["reveal", "--audio", str(ws / "s.wav"), "--out", str(ws / "r.ppm")], "pair 0"),
                (["eval", *data], "pair 0"),
                (["robustness", *data, "--out", str(ws / "sweep.csv")], "pair 0")):
            assert run(argv + ["--model", str(ws / "reveal.pxw2")]) == 3
            assert message in capsys.readouterr().err
    assert not any((ws / name).exists() for name in ("bad.wav", "r.ppm", "sweep.csv"))


def test_training_that_overflows_the_parameters_exits_3_and_writes_no_checkpoint(workspace, capsys):
    # one Adam step at lr=1e300 leaves finite weights near 1e300, whose squares (and next forward pass) overflow
    ws = workspace
    assert run(["synth", "--config", str(ws / "desk.cfg"), "--n", "2", "--out", str(ws / "p")]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # as outside the tests: a numpy warning would print to stderr
        assert run(["train", "--config", str(ws / "desk.cfg"), "--set", "lr=1e300", "--set", "steps=1",
                    "--set", "batch=2", "--data", str(ws / "p"), "--out", str(ws / "m.pxw2")]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: training aborted at step 0: sum of squares of parameter '[\w.]+' is not finite\n", err)
    assert not (ws / "m.pxw2").exists()


def test_embed_overflow_prints_only_the_error_line_naming_the_pair(workspace, capsys):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pipeline.save_dataset(pipeline.synth_dataset(2, cfg=cfg), ws / "p")
    bundle = pipeline.build_model(cfg)
    for name, tensor in bundle.params.items():
        tensor.data = tensor.data * (1e200 if name.startswith("hide") else 1.0)
    pipeline.save_checkpoint(bundle, ws / "hide.pxw2")
    embed = ["embed", "--image", str(ws / "p" / "secret_000.ppm"), "--audio", str(ws / "p" / "cover_000.wav"),
             "--out", str(ws / "s.wav")]
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # as outside the tests: a numpy warning would print to stderr
        for argv, where in ((embed, ""), (["eval", "--data", str(ws / "p")], "pair 0: ")):
            assert run(argv + ["--model", str(ws / "hide.pxw2")]) == 3
            assert capsys.readouterr().err == f"error: {where}embed: the stego waveform holds NaN or Inf\n"
    assert not (ws / "s.wav").exists()


def test_synth_below_100_hz_exits_1_without_a_traceback(workspace, capsys):
    for rate in (1, 99):
        assert run(["synth", "--set", f"sample_rate={rate}", "--n", "1", "--out", str(workspace / "p")]) == 1
        err = capsys.readouterr().err
        assert f"sample rate {rate} Hz" in err and "100 Hz minimum" in err and "Traceback" not in err
    assert not (workspace / "p").exists()


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
    (d / "f.cfg").write_text(DESK_CFG, encoding="utf-8")
    return {p.suffix: p.read_bytes() for p in d.iterdir()}


def _cost_with_config(path):
    run(["cost", "--config", str(path)])  # a package error becomes an exit code; any other exception escapes


READERS = {".ppm": imageops.read_ppm, ".pgm": read_pgm, ".wav": wavio.read_wav,
           ".pxw2": pipeline.load_checkpoint, ".cfg": _cost_with_config}


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


def test_config_that_is_not_utf8_exits_2_naming_the_file(workspace, capsys):
    raw = DESK_CFG.encode("utf-8")
    at = raw.index(b"stdct")
    (workspace / "bad.cfg").write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    assert run(["cost", "--config", str(workspace / "bad.cfg")]) == 2
    assert f"bad.cfg: config text at byte {at} is not UTF-8" in capsys.readouterr().err


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


@pytest.mark.parametrize("size", [(32, 32), (16, 8)])
def test_reveal_rejects_a_wrong_size_reference_before_writing(workspace, capsys, size):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pair = pipeline.synth_dataset(1, cfg=cfg)[0]
    bundle = pipeline.build_model(cfg)
    pipeline.save_checkpoint(bundle, ws / "m.pxw2")
    wavio.write_wav(pipeline.embed(pair.secret, pair.cover, bundle)[0], ws / "stego.wav")
    imageops.write_ppm(np.zeros((3,) + size), ws / "ref.ppm")
    assert run(["reveal", "--model", str(ws / "m.pxw2"), "--audio", str(ws / "stego.wav"),
                "--out", str(ws / "r.ppm"), "--reference", str(ws / "ref.ppm")]) == 1
    assert f"{ws / 'ref.ppm'}: secret image shape {(3,) + size}, expected (3, 16, 16)" in capsys.readouterr().err
    assert not (ws / "r.ppm").exists()


def test_reveal_reference_prints_the_scores_evaluate_reports(workspace, capsys, monkeypatch):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pairs = pipeline.synth_dataset(1, cfg=cfg)
    pipeline.save_checkpoint(pipeline.train(pairs, replace(cfg, steps=2))[0], ws / "m.pxw2")
    imageops.write_ppm(pairs[0].secret, ws / "secret.ppm")
    wavio.write_wav(pairs[0].cover, ws / "cover.wav")
    assert run(["embed", "--model", str(ws / "m.pxw2"), "--image", str(ws / "secret.ppm"),
                "--audio", str(ws / "cover.wav"), "--out", str(ws / "stego.wav")]) == 0
    assert run(["reveal", "--model", str(ws / "m.pxw2"), "--audio", str(ws / "stego.wav"),
                "--out", str(ws / "r.ppm"), "--reference", str(ws / "secret.ppm")]) == 0
    printed = capsys.readouterr().out.splitlines()[-1].split(",")
    # evaluate the one pair the CLI saw; its embed hands over the PCM16 stego that reveal read
    embed = pipeline.embed
    monkeypatch.setattr(pipeline, "embed", lambda *args: (wavio.read_wav(ws / "stego.wav"), embed(*args)[1]))
    pair = pipeline.SamplePair(imageops.read_ppm(ws / "secret.ppm"), wavio.read_wav(ws / "cover.wav"))
    row = pipeline.evaluate(pipeline.load_checkpoint(ws / "m.pxw2"), [pair])
    row = metrics.csv_table(metrics.METRICS_CSV_HEADER, [row]).splitlines()[1].split(",")
    names = metrics.METRICS_CSV_HEADER.split(",")
    for name in ("ssim", "psnr_db", "hist_l1"):
        assert printed[names.index(name)] == row[names.index(name)], name


def test_robustness_defaults_are_the_sweep_constants(workspace, capsys):
    ws = workspace
    cfg = pipeline.parse_config_text(DESK_CFG)
    pipeline.save_dataset(pipeline.synth_dataset(2, cfg=cfg), ws / "p")
    pipeline.save_checkpoint(pipeline.build_model(cfg), ws / "m.pxw2")
    sweep = ["robustness", "--model", str(ws / "m.pxw2"), "--data", str(ws / "p")]
    assert run(sweep + ["--out", str(ws / "default.csv")]) == 0
    assert run(sweep + ["--fractions", ",".join(f"{f:g}" for f in robustness.DEFAULT_FRACTIONS),
                        "--modes", ",".join(robustness.MODES), "--out", str(ws / "explicit.csv")]) == 0
    capsys.readouterr()
    default = (ws / "default.csv").read_text()
    assert default == (ws / "explicit.csv").read_text()
    assert len(default.splitlines()) == 1 + len(robustness.DEFAULT_FRACTIONS) * len(robustness.MODES)
