import ast
import inspect
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from stegowav import dsp
from stegowav.errors import ConfigError, UsageError

from conftest import make_waveform, nyquist_free_signal, read_pgm

SWEEP = [(16, 4), (16, 8), (64, 16), (64, 32), (256, 64), (256, 128)]


def test_hann_closed_form():
    assert np.allclose(dsp.hann_window(4), [0.0, 0.5, 1.0, 0.5])
    for n in (4, 16, 64):
        assert dsp.hann_window(n)[0] == 0.0


def test_hann_rejects_bad_lengths():
    with pytest.raises(ConfigError):
        dsp.hann_window(3)
    with pytest.raises(ConfigError):
        dsp.hann_window(2)


def test_hann_window_is_cached_read_only():
    n = 64
    win = dsp.hann_window(n)
    assert dsp.StftConfig(n, 16).window_weights() is win
    assert not win.flags.writeable
    assert win.tobytes() == (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)).tobytes()


def test_hann_cola_sum_at_quarter_hop():
    # direct summation oracle: shifted windows at hop N/4 sum to 2 interior
    n = 64
    win = dsp.hann_window(n)
    hop = n // 4
    total = np.zeros(n * 6)
    for m in range(20):
        total[m * hop:m * hop + n] += win
    interior = total[n:-n]
    assert np.allclose(interior, 2.0, atol=1e-12)


def test_stft_zero_waveform():
    cfg = dsp.StftConfig(64, 16)
    s = dsp.transform(make_waveform(np.zeros(300)), cfg, "stft")
    assert np.all(s.magnitude == 0.0)
    assert s.phase is not None
    assert s.magnitude.shape[0] == 32


def test_stft_rejects_empty_and_short():
    cfg = dsp.StftConfig(64, 16)
    with pytest.raises(UsageError):
        dsp.transform(make_waveform(np.zeros(0)), cfg, "stft")
    with pytest.raises(UsageError):
        dsp.transform(make_waveform(np.zeros(10)), cfg, "stft")


def test_cosine_at_bin_center_energy():
    # direct DFT oracle on one windowed frame: a bin-3 cosine under a Hann
    # window spreads over bins 2..4 with weights (1/4, 1/2, 1/4); bin 3 is
    # the argmax and holds 2/3 of the energy, bins 2..4 hold all of it
    n = 64
    t = np.arange(n)
    frame = np.cos(2.0 * np.pi * 3.0 * t / n) * dsp.hann_window(n)
    energy = np.abs(np.fft.rfft(frame)) ** 2
    share3 = energy[3] / energy.sum()
    assert abs(share3 - 2.0 / 3.0) < 1e-12
    assert energy[2:5].sum() / energy.sum() > 0.999

    cfg = dsp.StftConfig(n, n // 4)
    x = np.cos(2.0 * np.pi * 3.0 * np.arange(8 * n) / n)
    s = dsp.transform(make_waveform(x), cfg, "stft")
    interior = s.magnitude[:, 4:-4] ** 2
    shares = interior[3] / interior.sum(axis=0)
    assert np.all(np.argmax(interior, axis=0) == 3)
    assert np.allclose(shares, share3, atol=1e-9)


def assert_stack_is_its_rows(rows, cfg, kind):
    """One transform of the (B, L) stack and one inverse of its (B, F, T) spectrogram equal the per-row calls
    byte for byte."""
    stack = dsp.transform(make_waveform(rows), cfg, kind)
    back = dsp.inverse_transform(stack)
    assert back.samples.shape == rows.shape and len(back) == rows.shape[1] and stack.num_samples == rows.shape[1]
    assert (stack.phase is None) == (kind == "stdct")
    for i, row in enumerate(rows):
        single = dsp.transform(make_waveform(row), cfg, kind)
        assert stack.magnitude[i].tobytes() == single.magnitude.tobytes()
        assert kind == "stdct" or stack.phase[i].tobytes() == single.phase.tobytes()
        assert back.samples[i].tobytes() == dsp.inverse_transform(single).samples.tobytes()


@pytest.mark.parametrize("n,hop", SWEEP)
def test_stft_roundtrip_nyquist_free(n, hop):
    cfg = dsp.StftConfig(n, hop)
    rows = []
    for seed in range(10):
        x = nyquist_free_signal(8 * n, cfg, np.random.default_rng(seed))
        w = make_waveform(x)
        back = dsp.inverse_transform(dsp.transform(w, cfg, "stft"))
        err = np.linalg.norm(back.samples - x) / np.linalg.norm(x)
        assert err < 1e-8
        rows.append(x)
    assert_stack_is_its_rows(np.stack(rows), cfg, "stft")


@pytest.mark.parametrize("n,hop", SWEEP)
def test_stdct_roundtrip_arbitrary(n, hop):
    cfg = dsp.StftConfig(n, hop)
    rows = []
    for seed in range(10):
        x = np.random.default_rng(seed).normal(size=5 * n + 7)
        back = dsp.inverse_transform(dsp.transform(make_waveform(x), cfg, "stdct"))
        err = np.linalg.norm(back.samples - x) / np.linalg.norm(x)
        assert err < 1e-8
        rows.append(x)
    assert_stack_is_its_rows(np.stack(rows), cfg, "stdct")


def test_waveform_holds_one_waveform_or_a_stack_and_len_is_the_row_length():
    assert len(make_waveform(np.zeros(64))) == len(make_waveform(np.zeros((3, 64)))) == 64
    assert len(make_waveform(np.zeros((1, 0)))) == len(make_waveform(np.zeros(0))) == 0
    for shape in ((0, 64), (2, 3, 64), ()):
        with pytest.raises(UsageError, match=re.escape(f"waveform must be (L,) or (B >= 1, L), got shape {shape}")):
            make_waveform(np.zeros(shape))


def test_istft_zero_spectrogram():
    cfg = dsp.StftConfig(64, 16)
    s = dsp.transform(make_waveform(np.zeros(256)), cfg, "stft")
    assert np.all(dsp.inverse_transform(s).samples == 0.0)


def test_transform_rejects_unknown_kind():
    with pytest.raises(UsageError, match="unknown transform kind 'dft'"):
        dsp.transform(make_waveform(np.ones(64)), dsp.StftConfig(16, 8), "dft")


def test_istft_hop_equal_frame_fails():
    cfg = dsp.StftConfig(16, 16)
    s = dsp.transform(make_waveform(np.ones(64)), cfg, "stft")
    with pytest.raises(ConfigError, match="hop"):
        dsp.inverse_transform(s)


def test_ola_denominator_is_cached_read_only():
    cfg = dsp.StftConfig(16, 4)
    num_samples = cfg.samples_for_frames(10)
    den = dsp._ola_denominator(cfg, 10, num_samples)
    assert dsp._ola_denominator(dsp.StftConfig(16, 4), 10, num_samples) is den
    assert not den.flags.writeable
    with pytest.raises(ValueError):
        den[0] = 1.0
    bad = dsp.StftConfig(16, 16)
    for _ in range(2):
        with pytest.raises(ConfigError, match="hop 16"):
            dsp._ola_denominator(bad, 4, bad.samples_for_frames(4))


def test_istft_linearity():
    cfg = dsp.StftConfig(64, 16)
    rng = np.random.default_rng(3)
    s1 = dsp.transform(make_waveform(rng.normal(size=256)), cfg, "stft")
    s2 = dsp.transform(make_waveform(rng.normal(size=256)), cfg, "stft")
    z1 = s1.magnitude * np.exp(1j * s1.phase)
    z2 = s2.magnitude * np.exp(1j * s2.phase)
    zsum = z1 + z2
    ssum = replace(s1, magnitude=np.abs(zsum), phase=np.angle(zsum))
    lhs = dsp.inverse_transform(ssum).samples
    rhs = dsp.inverse_transform(s1).samples + dsp.inverse_transform(s2).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_stft_complex_linearity():
    cfg = dsp.StftConfig(64, 32)
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=300), rng.normal(size=300)
    a, b = 1.7, -0.4

    def complex_of(w):
        s = dsp.transform(make_waveform(w), cfg, "stft")
        return s.magnitude * np.exp(1j * s.phase)

    lhs = complex_of(a * x + b * y)
    rhs = a * complex_of(x) + b * complex_of(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_parseval_per_frame_before_nyquist_drop():
    cfg = dsp.StftConfig(64, 16)
    rng = np.random.default_rng(5)
    x = rng.normal(size=400)
    frames = dsp._frame_signal(x, cfg)
    spec = np.fft.rfft(frames, axis=1)
    n = cfg.frame_length
    for m in range(frames.shape[0]):
        time_energy = np.sum(frames[m] ** 2)
        mags = np.abs(spec[m]) ** 2
        spec_energy = (mags[0] + 2.0 * mags[1:n // 2].sum() + mags[n // 2]) / n
        assert abs(time_energy - spec_energy) <= 1e-8 * max(time_energy, 1e-30)


def test_nyquist_drop_harmless_for_lowpassed():
    # compare the pipeline against a keep-Nyquist variant on band-limited input
    cfg = dsp.StftConfig(64, 16)
    x = nyquist_free_signal(8 * 64, cfg, np.random.default_rng(6))
    s = dsp.transform(make_waveform(x), cfg, "stft")
    dropped = dsp.inverse_transform(s).samples

    frames = dsp._frame_signal(x, cfg)
    full = np.fft.rfft(frames, axis=1)
    kept = np.fft.irfft(full, n=cfg.frame_length, axis=1)
    manual = dsp._overlap_add(kept, cfg, x.size)
    rel_change = np.linalg.norm(dropped - manual) / np.linalg.norm(x)
    assert rel_change < 1e-6


def test_stdct_constant_frame_concentrates_at_dc():
    # the Hann window turns a constant frame into 0.5 - 0.5*cos(2*pi*n/N),
    # whose orthonormal DCT lives in the first few coefficients with the DC
    # term dominant (2/3 of the energy)
    cfg = dsp.StftConfig(16, 8)
    s = dsp.transform(make_waveform(np.ones(64)), cfg, "stdct")
    energy = s.magnitude ** 2
    interior = energy[:, 3:-3]
    assert np.all(np.argmax(interior, axis=0) == 0)
    shares = interior[0] / interior.sum(axis=0)
    assert np.allclose(shares, 2.0 / 3.0, atol=1e-9)
    assert np.all(interior[:4].sum(axis=0) / interior.sum(axis=0) > 0.999)


@pytest.mark.parametrize("lead", [(1, 32), (4, 32)])
@pytest.mark.parametrize("n", [4, 6, 64, 1024])
def test_dct_kernel_pair_matches_scipy_ortho_dct(n, lead):
    # scipy's orthonormal DCT-II and its inverse are the reference
    rng = np.random.default_rng(n)
    frames = rng.normal(size=lead + (n,))
    want = scipy.fft.dct(frames, type=2, axis=-1, norm="ortho").swapaxes(-1, -2)
    got = dsp._dct(frames)
    assert got.shape == lead[:-1] + (n, lead[-1]) and got.flags.c_contiguous
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
    coeff = rng.normal(size=lead[:-1] + (n, lead[-1]))
    want = scipy.fft.idct(coeff.swapaxes(-1, -2), type=2, axis=-1, norm="ortho")
    assert np.max(np.abs(dsp._idct(coeff) - want)) <= 2e-15 * np.max(np.abs(want))
    basis = dsp._dct(np.eye(n))  # column j is the transform of the unit frame e_j
    assert np.max(np.abs(basis @ basis.T - np.eye(n))) <= 2e-15


def test_stdct_zero_signal():
    cfg = dsp.StftConfig(16, 8)
    assert np.all(dsp.transform(make_waveform(np.zeros(64)), cfg, "stdct").magnitude == 0.0)


def test_stdct_has_no_phase_plane():
    cfg = dsp.StftConfig(16, 8)
    w = make_waveform(np.ones(64))
    spec = dsp.transform(w, cfg, "stdct")
    assert spec.phase is None
    stft = dsp.transform(w, cfg, "stft")
    with pytest.raises(ConfigError, match=r"stdct spectrogram of frame length 16 needs \(16, T\) planes"):
        replace(stft, phase=None)
    with pytest.raises(ConfigError, match=r"stft spectrogram of frame length 16 needs \(8, T\) planes"):
        replace(spec, phase=np.zeros_like(spec.magnitude))


@pytest.mark.parametrize("shape,phased", [((8, 9), False), ((16, 9), True), ((16,), False), ((8,), True),
                                          ((2, 16, 9), True), ((0, 8, 9), True), ((1, 2, 16, 9), False)])
def test_spectrogram_rejects_planes_of_the_wrong_row_count(shape, phased):
    # frame length 16: an STFT spectrogram has 8 rows, an STDCT one 16; a stack holds at least one pair
    plane = np.zeros(shape)
    with pytest.raises(ConfigError, match="needs"):
        dsp.Spectrogram(plane, plane if phased else None, dsp.StftConfig(16, 8), 64, 8000)


@pytest.mark.parametrize("shape,phased", [((8, 9), True), ((16, 9), False), ((1, 8, 9), True), ((3, 16, 9), False)])
def test_spectrogram_takes_one_pair_or_a_stack(shape, phased):
    plane = np.zeros(shape)
    assert dsp.Spectrogram(plane, plane if phased else None, dsp.StftConfig(16, 8), 64, 8000).shape == shape


def test_paper_scale_container_shape():
    # ~1.5 s at 44,100 Hz with frame 2048 / hop 128 -> a 1024 x 512 container
    cfg = dsp.StftConfig(2048, 128)
    length = cfg.samples_for_frames(512)
    assert 1.4 < length / 44100 < 1.6
    s = dsp.transform(dsp.Waveform(np.zeros(length), 44100), cfg, "stft")
    assert s.shape == (1024, 512)


def test_log_view_properties():
    cfg = dsp.StftConfig(16, 8)
    zero = dsp.transform(make_waveform(np.zeros(64)), cfg, "stft")
    assert np.all(dsp.log_view(zero) == 0.0)
    rng = np.random.default_rng(7)
    s = dsp.transform(make_waveform(rng.normal(size=100)), cfg, "stft")
    view = dsp.log_view(s)
    assert view.min() >= 0.0 and view.max() <= 1.0
    flat_mag = s.magnitude.ravel()
    flat_view = view.ravel()
    order = np.argsort(flat_mag)
    assert np.all(np.diff(flat_view[order]) >= -1e-15)


def test_spectrogram_pgm_roundtrip(tmp_path):
    cfg = dsp.StftConfig(16, 4)
    s = dsp.transform(make_waveform(np.random.default_rng(8).normal(size=80)), cfg, "stft")
    path = tmp_path / "spec.pgm"
    dsp.write_spectrogram_pgm(s, path)
    raster = read_pgm(path)
    assert raster.shape == s.shape
    expect = np.flipud(np.round(dsp.log_view(s) * 255.0) / 255.0)
    assert np.allclose(raster, expect, atol=1e-12)


# -- the framing adjoint pair -----------------------------------------------

@st.composite
def framings(draw):
    """(cfg, num_samples, rng): even N in 4..64, hop in 1..N-1, 2..20 frames
    (the leading pad puts every signal in at least two), ragged tails."""
    n = 2 * draw(st.integers(2, 32))
    hop = draw(st.integers(1, n - 1))
    frames = draw(st.integers(2, 20))
    tail = draw(st.integers(0, min(hop - 1, (frames - 2) * hop)))
    cfg = dsp.StftConfig(n, hop)
    num_samples = cfg.samples_for_frames(frames) - tail
    assert cfg.frame_count(num_samples) == frames
    return cfg, num_samples, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


@settings(deadline=None)
@given(framings())
def test_scatter_is_adjoint_of_framing(case):
    cfg, num_samples, rng = case
    x = rng.normal(size=num_samples)
    fx = dsp._frame_signal(x, cfg)
    y = rng.normal(size=fx.shape)
    lhs = np.vdot(fx, y)
    rhs = np.vdot(x, dsp._scatter_frames(y, cfg, num_samples))
    assert abs(lhs - rhs) <= 1e-9 * np.linalg.norm(fx) * np.linalg.norm(y)


@settings(deadline=None)
@given(framings())
def test_gather_is_adjoint_of_overlap_add(case):
    cfg, num_samples, rng = case
    frames = rng.normal(size=(cfg.frame_count(num_samples), cfg.frame_length))
    g = rng.normal(size=num_samples)
    ola = dsp._overlap_add(frames, cfg, num_samples)
    gathered = dsp._gather_frames(g, cfg)
    lhs = np.vdot(ola, g)
    rhs = np.vdot(frames, gathered)
    assert abs(lhs - rhs) <= 1e-9 * max(np.linalg.norm(ola) * np.linalg.norm(g),
                                        np.linalg.norm(frames) * np.linalg.norm(gathered))


@settings(deadline=None)
@given(framings())
def test_stdct_roundtrip_exact(case):
    cfg, num_samples, rng = case
    x = rng.normal(size=num_samples)
    back = dsp.inverse_transform(dsp.transform(make_waveform(x), cfg, "stdct"))
    assert np.max(np.abs(back.samples - x)) <= 1e-9


# -- one entry point per direction ------------------------------------------

# public helpers that only dsp itself calls: StftConfig.window_weights and
# write_spectrogram_pgm
DSP_HELPERS = {"hann_window", "log_view"}


def _referenced_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_dsp_function_has_a_src_caller():
    public = {name for name, fn in vars(dsp).items()
              if inspect.isfunction(fn) and fn.__module__ == dsp.__name__ and not name.startswith("_")}
    dsp_path = Path(dsp.__file__)
    outside = set().union(*(_referenced_names(p) for p in dsp_path.parent.glob("*.py") if p != dsp_path))
    assert DSP_HELPERS <= _referenced_names(dsp_path)
    assert public - outside - DSP_HELPERS == set()


def test_program_modules_import_no_scipy():
    # every module the benchmark imports, in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    body = ast.parse((root / "perfbench" / "run.py").read_text(encoding="utf-8")).body
    modules = next(ast.literal_eval(node.value) for node in body if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "MODULES")
    assert "cli" in modules and "dsp" in modules
    code = "".join(f"import stegowav.{name}\n" for name in modules)
    code += "import sys\nprint(sorted(key for key in sys.modules if key.startswith('scipy')))\n"
    env = {**os.environ, "PYTHONPATH": str(Path(dsp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_one_number_format_and_one_variant_list():
    # every CSV table writes its floats through metrics.csv_line; the published cost rows live in VARIANTS
    src = Path(dsp.__file__).parent
    texts = {p.name: p.read_text(encoding="utf-8") for p in src.glob("*.py")}
    assert {name for name, text in texts.items() if ".12g" in text} == {"metrics.py"}
    csv_line = next(node for node in ast.parse(texts["metrics.py"]).body if getattr(node, "name", None) == "csv_line")
    assert texts["metrics.py"].count(".12g") == ast.get_source_segment(texts["metrics.py"], csv_line).count(".12g")
    assert not any("PAPER_DELTAS" in text for text in texts.values())
