"""Analytic parameter and multiply-accumulate accounting per configuration.

Counts are pure functions of the configuration (no trained values).  Conv
layers cost out_pixels * in_c * out_c * k^2 MACs; elementwise and resize
stages cost one MAC per output element; the dual coupler costs two per
pixel.  MACs are split into container-resolution stages (the revealing
network when it consumes the full container, plus the residual add) and
image-resolution stages (the hiding network and replica-resolution
decoders), which exhibits why growing the container four-fold leaves the
hiding cost flat while the revealing cost scales with container area.

Published reference deltas are printed alongside for comparison, never
asserted: the underlying architecture here is desk-scale, so only the
structural patterns (zero-cost replication, +4 weights, double-plus-coupler
duality, free luma buffering) are reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import embeddings as emb
from . import networks as nets
from .errors import UsageError

# Reference values from the published cost table (absolute baseline:
# 962,128 parameters / 34.6 GMAC).  w_replicate_large is listed there as +4
# although the large grid carries 8 weights per side; our count reports 16
# and this table keeps the published figure for side-by-side inspection.
PAPER_BASELINE_PARAMS = 962128
PAPER_BASELINE_GMAC = 34.6
PAPER_DELTAS = {
    "baseline": ("+0", "+0%"),
    "stft_magnitude": ("+0", "+0%"),
    "stft_phase": ("+0", "+0%"),
    "dual_container": ("+962131", "+100.00%"),
    "l1_loss": ("+0", "+0%"),
    "replicate": ("+0", "+0%"),
    "w_replicate": ("+4", "+0%"),
    "ws_replicate": ("+584", "-32.89%"),
    "multichannel": ("+12735", "-81.68%"),
    "stretch_large": ("+0", "+200.00%"),
    "replicate_large": ("+0", "+200.00%"),
    "w_replicate_large": ("+4", "+200.00%"),
    "ws_replicate_large": ("+4103", "-30.23%"),
    "multichannel_large": ("+67695", "-73.20%"),
    "luma": ("+0", "+0%"),
}

COST_CSV_HEADER = ("name,params,param_delta,macs,mac_delta_pct,"
                   "paper_param_delta,paper_mac_delta_pct")


@dataclass(frozen=True)
class CostBreakdown:
    params: int
    macs: int
    macs_container_stage: int
    macs_image_stage: int


def model_cost(cfg):
    """Parameter and MAC totals for one pipeline configuration."""
    ctx = emb.make_context(cfg.method, (cfg.image, cfg.image), cfg.large)
    f, t = ctx.container_shape
    plane_px = ctx.plane_hw[0] * ctx.plane_hw[1]
    image_px = cfg.image * cfg.image
    hide_cfg, reveal_cfg = emb.net_depths(cfg, ctx.grid.count)

    # both networks run per replica cell, except that the container-merging
    # methods reveal from the whole container; the
    # arrange/merge/resize stages cost 1 MAC per output element, uniformly:
    # encode_arrange always emits a container (upsample, packed copies, or
    # scaled copies alike), so stretch and replicate stay exactly equal
    container_stage = 2 * f * t         # encode_arrange output + residual add onto the cover
    image_stage = nets.unet_mac_count(hide_cfg, ctx.grid.cell_h, ctx.grid.cell_w)
    if cfg.method in emb.CONTAINER_REVEAL:
        container_stage += nets.unet_mac_count(reveal_cfg, f, t)
        image_stage += plane_px         # finalize: downsample or replica merge
    else:
        container_stage += f * t        # decode_prepare unpack/stack
        image_stage += nets.unet_mac_count(reveal_cfg, ctx.grid.cell_h, ctx.grid.cell_w)
    if cfg.method != "multichannel":
        image_stage += 3 * image_px     # pixel unshuffle back to RGB

    duplication = len(cfg.planes())     # one hiding/revealing pair per active plane
    params = duplication * (nets.unet_param_count(hide_cfg) + nets.unet_param_count(reveal_cfg))
    params += sum(w.data.size for _, w in ctx.weight_tensors())
    container_stage *= duplication
    image_stage *= duplication
    if duplication == 2:  # the 3-weight coupler and its two MACs per revealed pixel
        params += 3
        image_stage += 2 * (3 * image_px if cfg.method == "multichannel" else plane_px)
    return CostBreakdown(
        params=int(params),
        macs=int(container_stage + image_stage),
        macs_container_stage=int(container_stage),
        macs_image_stage=int(image_stage),
    )


def standard_variants(base_cfg):
    """The published cost-table rows, rebuilt around a base configuration."""
    rows = [("baseline", base_cfg)]
    rows.append(("stft_magnitude", replace(base_cfg, transform="stft")))
    rows.append(("stft_phase", replace(base_cfg, transform="stft", container="phase")))
    rows.append(("dual_container", replace(base_cfg, transform="stft", container="dual")))
    rows.append(("l1_loss", replace(base_cfg, wave_loss="l1")))
    rows.append(("replicate", replace(base_cfg, method="replicate")))
    rows.append(("w_replicate", replace(base_cfg, method="w_replicate")))
    rows.append(("ws_replicate", replace(base_cfg, method="ws_replicate")))
    rows.append(("multichannel", replace(base_cfg, method="multichannel")))
    rows.append(("stretch_large", replace(base_cfg, large=True)))
    rows.append(("replicate_large", replace(base_cfg, method="replicate", large=True)))
    rows.append(("w_replicate_large", replace(base_cfg, method="w_replicate", large=True)))
    rows.append(("ws_replicate_large", replace(base_cfg, method="ws_replicate", large=True)))
    rows.append(("multichannel_large", replace(base_cfg, method="multichannel", large=True)))
    rows.append(("luma", replace(base_cfg, luma=not base_cfg.luma)))
    return rows


def cost_table(named_configs, baseline_name="baseline"):
    """Rows of {name, params, deltas, macs, stage split, paper reference}."""
    names = [name for name, _ in named_configs]
    if baseline_name not in names:
        raise UsageError(f"cost table needs a {baseline_name!r} row, got {names}")
    costs = {name: model_cost(cfg) for name, cfg in named_configs}
    base = costs[baseline_name]
    rows = []
    for name, _ in named_configs:
        c = costs[name]
        paper_p, paper_m = PAPER_DELTAS.get(name, ("", ""))
        rows.append({
            "name": name,
            "params": c.params,
            "param_delta": c.params - base.params,
            "macs": c.macs,
            "mac_delta_pct": 100.0 * (c.macs - base.macs) / base.macs,
            "macs_container_stage": c.macs_container_stage,
            "macs_image_stage": c.macs_image_stage,
            "paper_param_delta": paper_p,
            "paper_mac_delta_pct": paper_m,
        })
    return rows


def cost_to_csv(rows):
    lines = [COST_CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r["name"], str(r["params"]), f"{r['param_delta']:+d}", str(r["macs"]),
            format(r["mac_delta_pct"], "+.2f"), r["paper_param_delta"], r["paper_mac_delta_pct"],
        ]))
    return "\n".join(lines) + "\n"


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
