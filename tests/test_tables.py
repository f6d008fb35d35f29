"""One spelling per column: every output table's header names are the keys of its rows, and `metrics.csv_table`
writes each table as the literal text below, byte for byte."""

import numpy as np

from stegowav import costing
from stegowav import metrics as me
from stegowav import pipeline as pl
from stegowav import robustness as rob

DESK = pl.PipelineConfig(method="replicate", steps=2, batch=2, seed=0)


def _names(header):
    return header.split(",")


def test_eval_and_sweep_rows_hold_exactly_their_header_names():
    bundle = pl.build_model(DESK)
    pairs = pl.synth_dataset(2, cfg=DESK, seed=0)
    assert list(pl.evaluate(bundle, pairs)) == _names(me.METRICS_CSV_HEADER)
    rows = rob.robustness_sweep(bundle, pairs, fractions=(1.0, 0.5))
    assert rows and all(list(row) == _names(rob.SWEEP_CSV_HEADER) for row in rows)


def test_cost_rows_are_keyed_by_the_cost_header_names():
    rows = costing.cost_table(costing.standard_variants(pl.PipelineConfig()))
    assert all(set(_names(costing.COST_CSV_HEADER)) <= set(row) for row in rows)


def test_metrics_table_text():
    row = dict(zip(_names(me.METRICS_CSV_HEADER), ("stft", "dual", 0.5, 2.0, 1 / 3, 12.345678901234567,
                                                    float("-inf"), float("nan"), 0.1 + 0.2)))
    assert me.csv_table(me.METRICS_CSV_HEADER, [row]) == (
        "method,container,beta,lambda,ssim,psnr_db,snr_db,waveform_loss,hist_l1\n"
        "stft,dual,0.5,2,0.333333333333,12.3456789012,-inf,nan,0.3\n")


def test_sweep_table_text():
    row = dict(zip(_names(rob.SWEEP_CSV_HEADER), ("ws_replicate", "random", 0.125, 2 / 3, 14.000000000001)))
    assert me.csv_table(rob.SWEEP_CSV_HEADER, [row]) == (
        "method,mode,keep_fraction,mean_ssim,mean_psnr_db\nws_replicate,random,0.125,0.666666666667,14\n")


def test_cost_table_text():
    rows = [{"name": "multichannel", "params": 974863, "param_delta": 12735, "macs": 1234567,
             "mac_delta_pct": -81.68123, "macs_container_stage": 1000000, "macs_image_stage": 234567,
             "paper_param_delta": "+12735", "paper_mac_delta_pct": "-81.68%"},
            {"name": "ws_replicate", "params": 961544, "param_delta": -584, "macs": 7, "mac_delta_pct": 0.0,
             "macs_container_stage": 3, "macs_image_stage": 4, "paper_param_delta": "", "paper_mac_delta_pct": ""}]
    assert costing.cost_to_csv(rows) == (
        "name,params,param_delta,macs,mac_delta_pct,paper_param_delta,paper_mac_delta_pct\n"
        "multichannel,974863,+12735,1234567,-81.68,+12735,-81.68%\n"
        "ws_replicate,961544,-584,7,+0.00,,\n")


def test_loss_table_text():
    log = pl.TrainLog()
    log.append(3, np.float64(0.5), {"image_l1": np.float64(1 / 7), "wave_term": 2.5e-7, "mag_l2": float("inf"),
                                    "phase_l2": 0.0})
    text = "step,total,image_l1,wave_term,mag_l2,phase_l2\n3,0.5,0.142857142857,2.5e-07,inf,0\n"
    assert log.to_csv() == text
    assert me.csv_table(log.CSV_HEADER, [dict(zip(_names(log.CSV_HEADER), log.rows[0]))]) == text
