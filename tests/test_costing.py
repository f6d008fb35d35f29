import numpy as np
import pytest

from stegowav import costing
from stegowav import networks as nets
from stegowav import pipeline as pl
from stegowav.errors import UsageError


def test_single_conv_mac_count():
    # 3x3 conv, 1 -> 1 channel, 8x8 input: 8*8*9 = 576
    cfg = nets.UNetConfig(1, 1)
    specs = nets.layer_schedule(cfg)
    one = [s for s in specs if s.name == "enc0"][0]
    assert 8 * 8 * one.in_c * 1 * 9 == 576
    # depth-1, single-channel net on 8x8: enc0 576 + bottleneck 288 (4x4,
    # 1 -> 2 ch) + dec0 1728 (3 -> 1 ch after skip concat) + 1x1 head 64
    assert nets.unet_mac_count(nets.UNetConfig(1, 1, depth=1, base_channels=1, kernel=3), 8, 8) \
        == 576 + 288 + 1728 + 64


def _rows():
    return costing.cost_table(costing.standard_variants(pl.PipelineConfig(method="stretch")))


def test_structural_parameter_deltas():
    rows = {r["name"]: r for r in _rows()}
    assert rows["replicate"]["param_delta"] == 0
    assert rows["w_replicate"]["param_delta"] == 4
    assert rows["luma"]["param_delta"] == 0
    assert rows["stft_magnitude"]["param_delta"] == 0
    assert rows["stft_phase"]["param_delta"] == 0
    assert rows["l1_loss"]["param_delta"] == 0
    assert rows["dual_container"]["params"] == 2 * rows["baseline"]["params"] + 3
    # our large weighted grid carries 8 + 8 weights (flagged vs the published +4)
    assert rows["w_replicate_large"]["param_delta"] == 16


def test_mac_structure():
    rows = {r["name"]: r for r in _rows()}
    assert rows["replicate"]["macs"] == rows["baseline"]["macs"]
    assert rows["w_replicate"]["macs"] == rows["baseline"]["macs"]
    assert rows["luma"]["macs"] == rows["baseline"]["macs"]
    for name in ("stretch_large", "replicate_large", "w_replicate_large"):
        assert rows[name]["mac_delta_pct"] > 0.0
    # the large-container growth comes from container-resolution stages only
    assert rows["stretch_large"]["macs_container_stage"] > rows["baseline"]["macs_container_stage"]
    assert rows["stretch_large"]["macs_image_stage"] == rows["baseline"]["macs_image_stage"]
    # depth-stacked decoders trade parameters for fewer operations
    assert rows["ws_replicate"]["mac_delta_pct"] < 0.0
    assert rows["multichannel"]["mac_delta_pct"] < 0.0


def test_costs_are_pure_functions_of_config():
    cfg = pl.PipelineConfig(method="w_replicate")
    a = costing.model_cost(cfg)
    bundle = pl.build_model(cfg)
    for t in bundle.params.values():
        t.data = t.data + 3.0  # trained values must not matter
    assert costing.model_cost(bundle.cfg) == a


def test_analytic_params_match_built_models():
    for name, cfg in costing.standard_variants(pl.PipelineConfig(method="stretch")):
        bundle = pl.build_model(cfg)
        assert bundle.param_count() == costing.model_cost(cfg)["params"], name


def test_stage_split_sums_to_total():
    for name, cfg in costing.standard_variants(pl.PipelineConfig(method="stretch")):
        c = costing.model_cost(cfg)
        assert c["macs"] == c["macs_container_stage"] + c["macs_image_stage"], name


def test_table_requires_baseline():
    with pytest.raises(UsageError):
        costing.cost_table([("other", pl.PipelineConfig())])


def test_table_rejects_a_repeated_row_name():
    named = [("baseline", pl.PipelineConfig()), ("x", pl.PipelineConfig(method="multichannel")),
             ("x", pl.PipelineConfig(method="stretch"))]
    with pytest.raises(UsageError, match="repeats row name 'x'"):
        costing.cost_table(named)


def test_csv_and_text_render():
    rows = _rows()
    csv = costing.cost_to_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == costing.COST_CSV_HEADER
    assert len(lines) == len(rows) + 1
    assert lines[1].startswith("baseline,")
    text = costing.cost_to_text(rows)
    assert "962128" in text  # published absolute figures printed, not asserted
    assert "34.6" in text
    assert "+200.00%" in text
