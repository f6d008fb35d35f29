"""Tests of the benchmark harness itself (not of stegowav).

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from gauge import Gauge  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(name, start, end, parent=None, thread=1):
    return [name, start, end, parent, 0, thread, None, 0]


def test_self_time_subtracts_same_thread_children_only():
    root = _span("cli.robustness", 0.0, 10.0)
    a = _span("pipeline.embed", 1.0, 4.0, root)
    b = _span("pipeline.reveal", 4.0, 6.5, root)
    leaf = _span("autodiff.conv2d.fwd", 1.5, 2.0, a)
    worker = _span("robustness._sweep_cell", 2.0, 9.0, root, thread=2)
    gauge = _span("perfbench.gauge", 10.0, 12.0)
    spans = [root, a, b, leaf, worker, gauge]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.5, 2.5, 0.5, 7.0, 2.0])
    # entry spans are left out of coverage, other threads are not counted and
    # the benchmark's own spans come off the wall time
    assert tracing.coverage(spans, main_thread=1, wall=12.0) == pytest.approx(0.55)


def test_percentile_interpolates_and_tail_keeps_ten_beyond():
    xs = list(range(1, 101))
    assert bench.percentile(xs, 50) == pytest.approx(50.5)
    assert bench.percentile(xs, 90) == pytest.approx(90.1)
    assert bench.percentile([7.0], 90) == 7.0
    assert bench.tail_level(10) is None
    for n in (11, 16, 100, 600):
        level = bench.tail_level(n)
        assert n * (1 - level / 100) == pytest.approx(10)
        values = list(range(n))
        assert sum(v > bench.percentile(values, level) for v in values) == 10
    assert bench.tail_level(100) == pytest.approx(90.0)


def test_wrappers_are_restored():
    sw = bench._import_program(ROOT)
    owners = [(owner, attr) for owner, attr, _ in tracing.wrap_targets(sw)]
    owners += [(sw["autodiff"], "_node")]
    before = {(id(o), a): o.__dict__[a] for o, a in owners}
    tracer = tracing.Tracer()
    tracer.install(sw)
    assert all(o.__dict__[a] is not before[(id(o), a)] for o, a in owners)
    tracer.uninstall()
    assert all(o.__dict__[a] is before[(id(o), a)] for o, a in owners)
    with wl.StepClock(sw["pipeline"]):
        assert sw["pipeline"].Adam.__dict__["step"] is not before[(id(sw["pipeline"].Adam), "step")]
    assert sw["pipeline"].Adam.__dict__["step"] is before[(id(sw["pipeline"].Adam), "step")]


def test_traced_training_attributes_conv_to_layers():
    sw = bench._import_program(ROOT)
    pl = sw["pipeline"]
    cfg = pl.PipelineConfig(method="replicate", steps=1, batch=1, **{
        k: v for k, v in wl.DESK.items() if k != "batch"})
    pairs = pl.synth_dataset(1, cfg=cfg, seed=0)
    tracer = tracing.Tracer()
    tracer.install(sw)
    try:
        pl.train(pairs, cfg)
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(tracer)
    assert values["autodiff.conv2d.calls"] == 12
    for prefix in tracing.UNET_PREFIXES:
        for layer in tracing.UNET_LAYERS:
            assert values[f"networks.{prefix}.{layer}.fwd_s"] > 0
            assert values[f"networks.{prefix}.{layer}.bwd_s"] > 0
    # dec0 of the revealing net sees (8 + 16) channels at 64x32: 24*9*2048 float64
    assert values["networks.reveal.dec0.im2col_mb"] == pytest.approx(24 * 9 * 2048 * 8 / 2 ** 20)
    assert values["pipeline.optimizer_s"] > 0 and values["losses.composite_s"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    names = e2e + layers + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert layers == [n for n, _ in tracing.per_layer_names()]
    assert {m["unit"] for m in spec["per_layer"]} >= {"s", "count"}
    assert set(tracing.layer_metrics(tracing.Tracer())) == set(layers)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    gauge = Gauge("desk")
    gauge.measure()
    run = wl.Run("x", {"setup": gauge, "op": gauge, "eval": gauge})
    for what in run.timings:
        run.record(what, 0.0, 1.0)
    run.psnr, run.noise_ratio = [5.0], [0.1]
    assert list(bench.end_to_end(run)) == e2e
