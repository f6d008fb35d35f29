"""Analytic parameter and multiply-accumulate accounting per configuration.

Counts are pure functions of the configuration (no trained values):
parameters are those of the model `pipeline.build_model` makes.  Conv
layers cost out_pixels * in_c * out_c * k^2 MACs; elementwise and resize
stages cost one MAC per output element; the dual coupler costs two per
pixel.  MACs are split into container-resolution stages (the revealing
network when it consumes the full container, plus the residual add) and
image-resolution stages (the hiding network and replica-resolution
decoders), which exhibits why growing the container four-fold leaves the
hiding cost flat while the revealing cost scales with container area.  Costs
and table rows are plain dicts; the CSV holds the `COST_CSV_HEADER` columns.

Published reference deltas are printed alongside for comparison, never
asserted: the underlying architecture here is desk-scale, so only the
structural patterns (zero-cost replication, +4 weights, double-plus-coupler
duality, free luma buffering) are reproduced exactly.
"""

from __future__ import annotations

from dataclasses import replace

from . import embeddings as emb
from . import metrics as me
from . import networks as nets
from . import pipeline as pl
from .errors import UsageError

# The published cost table's rows: name -> (overrides of the base configuration, where None flips the
# base's value; published parameter delta; published MAC delta), against its absolute baseline of
# 962,128 parameters / 34.6 GMAC.  w_replicate_large is listed there as +4 although the large grid
# carries 8 weights per side; our count reports 16 and this table keeps the published figure for
# side-by-side inspection.
PAPER_BASELINE_PARAMS = 962128
PAPER_BASELINE_GMAC = 34.6
VARIANTS = {
    "baseline": ({}, "+0", "+0%"),
    "stft_magnitude": ({"transform": "stft"}, "+0", "+0%"),
    "stft_phase": ({"transform": "stft", "container": "phase"}, "+0", "+0%"),
    "dual_container": ({"transform": "stft", "container": "dual"}, "+962131", "+100.00%"),
    "l1_loss": ({"wave_loss": "l1"}, "+0", "+0%"),
    "replicate": ({"method": "replicate"}, "+0", "+0%"),
    "w_replicate": ({"method": "w_replicate"}, "+4", "+0%"),
    "ws_replicate": ({"method": "ws_replicate"}, "+584", "-32.89%"),
    "multichannel": ({"method": "multichannel"}, "+12735", "-81.68%"),
    "stretch_large": ({"large": True}, "+0", "+200.00%"),
    "replicate_large": ({"method": "replicate", "large": True}, "+0", "+200.00%"),
    "w_replicate_large": ({"method": "w_replicate", "large": True}, "+4", "+200.00%"),
    "ws_replicate_large": ({"method": "ws_replicate", "large": True}, "+4103", "-30.23%"),
    "multichannel_large": ({"method": "multichannel", "large": True}, "+67695", "-73.20%"),
    "luma": ({"luma": None}, "+0", "+0%"),
}

COST_CSV_HEADER = ("name,params,param_delta,macs,mac_delta_pct,"
                   "paper_param_delta,paper_mac_delta_pct")


def model_cost(cfg):
    """{params, macs, macs_container_stage, macs_image_stage} of one pipeline configuration."""
    grid, (hide_cfg, reveal_cfg) = cfg.grid, cfg.unets
    f, t = grid.container_shape
    image_px = cfg.image * cfg.image
    plane_px = 4 * image_px

    # both networks run per replica cell, except that the container-merging
    # methods reveal from the whole container; the
    # arrange/merge/resize stages cost 1 MAC per output element, uniformly:
    # encode_arrange always emits a container (upsample, packed copies, or
    # scaled copies alike), so stretch and replicate stay exactly equal
    container_stage = 2 * f * t         # encode_arrange output + residual add onto the cover
    image_stage = nets.unet_mac_count(hide_cfg, grid.cell_h, grid.cell_w)
    if cfg.method in emb.CONTAINER_REVEAL:
        container_stage += nets.unet_mac_count(reveal_cfg, f, t)
        image_stage += plane_px         # finalize: downsample or replica merge
    else:
        container_stage += f * t        # decode_prepare unpack/stack
        image_stage += nets.unet_mac_count(reveal_cfg, grid.cell_h, grid.cell_w)
    if cfg.method != "multichannel":
        image_stage += 3 * image_px     # pixel unshuffle back to RGB

    duplication = len(cfg.planes())     # one hiding/revealing pair per active plane
    container_stage *= duplication
    image_stage *= duplication
    if duplication == 2:  # the coupler's two MACs per revealed pixel
        image_stage += 2 * (3 * image_px if cfg.method == "multichannel" else plane_px)
    return {"params": pl.build_model(cfg).param_count(), "macs": int(container_stage + image_stage),
            "macs_container_stage": int(container_stage), "macs_image_stage": int(image_stage)}


def standard_variants(base_cfg):
    """The published cost-table rows, rebuilt around a base configuration."""
    return [(name, replace(base_cfg, **{key: not getattr(base_cfg, key) if value is None else value
                                        for key, value in overrides.items()}))
            for name, (overrides, _, _) in VARIANTS.items()]


def cost_table(named_configs):
    """Rows of {name, params, deltas, macs, stage split, paper reference}; deltas are against the 'baseline' row."""
    names = [name for name, _ in named_configs]
    if "baseline" not in names:
        raise UsageError(f"cost table needs a 'baseline' row, got {names}")
    repeated = [n for i, n in enumerate(names) if n in names[:i]]
    if repeated:
        raise UsageError(f"cost table repeats row name {repeated[0]!r}; each row needs its own name")
    costs = {name: model_cost(cfg) for name, cfg in named_configs}
    base = costs["baseline"]
    rows = []
    for name, c in costs.items():
        _, paper_p, paper_m = VARIANTS.get(name, (None, "", ""))
        rows.append(dict(c, name=name, param_delta=c["params"] - base["params"],
                         mac_delta_pct=100.0 * (c["macs"] - base["macs"]) / base["macs"],
                         paper_param_delta=paper_p, paper_mac_delta_pct=paper_m))
    return rows


def cost_to_csv(rows):  # the two deltas signed, the MAC one to 2 decimals
    return me.csv_table(COST_CSV_HEADER, [dict(r, param_delta=f"{r['param_delta']:+d}",
                                               mac_delta_pct=f"{r['mac_delta_pct']:+.2f}") for r in rows])


def cost_to_text(rows):
    """Aligned table with the container/image stage split and paper figures."""
    header = (f"{'name':<20} {'params':>8} {'delta':>8} {'macs':>12} {'delta%':>9} "
              f"{'container':>12} {'image':>12} {'paper_dp':>10} {'paper_dm':>9}")
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['name']:<20} {r['params']:>8} {r['param_delta']:>+8d} {r['macs']:>12} "
            f"{r['mac_delta_pct']:>+9.2f} {r['macs_container_stage']:>12} "
            f"{r['macs_image_stage']:>12} {r['paper_param_delta']:>10} {r['paper_mac_delta_pct']:>9}")
    lines.append("")
    lines.append(f"published absolute baseline: {PAPER_BASELINE_PARAMS} params, "
                 f"{PAPER_BASELINE_GMAC} GMAC (architecture internals unpublished; "
                 f"only the deltas above are comparable)")
    lines.append("note: w_replicate_large counts 8+8 trainable replica weights here; "
                 "the published table lists +4 for it")
    return "\n".join(lines) + "\n"
