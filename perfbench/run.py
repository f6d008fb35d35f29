"""Benchmark entry point for `stegowav`.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a fresh child
process, so its peak RSS is its own.  With `--trace 0` the last line of
standard output is one JSON object with the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` the workload runs twice, untraced and then
traced, and the object holds the per-layer metrics, including the tracing
overhead (traced minus untraced median op time).  Lines before it give every
metric with its unit and sample count, the environment, failed checks and
the largest self times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import workloads as wl
from gauge import Gauge

TIME_LIMIT_S = 175.0
WORK_ROOT = Path(".bench_build") / "perfbench"
MODULES = ("autodiff", "cli", "dsp", "embeddings", "imageops", "losses", "metrics",
           "networks", "pipeline", "robustness", "wavio")


def percentile(values, q):
    """Linear-interpolated percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n):
    """Highest percentile with at least ten samples beyond it (None if n <= 10)."""
    return 100.0 * (n - 10) / n if n > 10 else None


def load_spec(root):
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "stegowav").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# child: one workload in this process


class Context:
    """Run settings plus the tracer, if this run is traced."""

    def __init__(self, sw, seed, seconds, workdir, tracer):
        self.sw = sw
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.traced_wall_s = 0.0
        self.roundtrip = None
        self.pairs_per_sweep = 0

    @contextlib.contextmanager
    def traced(self):
        """The timed window: tracer installed (if tracing) and wall time kept."""
        if self.tracer is not None:
            self.tracer.install(self.sw)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.traced_wall_s += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.uninstall()


def _import_program(root):
    sys.path.insert(0, str(root / "src"))
    return {name: importlib.import_module(f"stegowav.{name}") for name in MODULES}


def end_to_end(run):
    """End-to-end values (times gauge-scaled) and their sample counts."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup, op = run.scaled("setup"), run.scaled("op")
    embed, reveal = run.scaled("embed"), run.scaled("reveal")
    return {
        "setup_s": (percentile(setup, 50) / 1e3, len(setup)),
        "op_ms.p50": (percentile(op, 50), len(op)),
        "op_ms.p90": (percentile(op, 90), len(op)),
        "embed_ms.p50": (percentile(embed, 50), len(embed)),
        "reveal_ms.p50": (percentile(reveal, 50), len(reveal)),
        "revealed_psnr_db": (sum(run.psnr) / len(run.psnr), len(run.psnr)),
        "peak_rss_mb": (peak_mb, 1),
    }


def child_main(args, root):
    import tracing

    sw = _import_program(root)
    workdir = root / WORK_ROOT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    ctx = Context(sw, args.seed, args.seconds, workdir, tracer)
    workload, kinds = wl.WORKLOADS[args.workload]
    # one gauge per kind, shared where set-up, ops or evaluation use the same
    by_kind = {kind: Gauge(kind, tracer) for kind in set(kinds.values())}
    run = wl.Run(args.workload, {what: by_kind[kind] for what, kind in kinds.items()})
    try:
        workload(run, sw, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = end_to_end(run)
    timing = {}
    for what in ("setup", "op", "embed", "reveal"):
        for label, xs in (("raw", run.raw(what)), ("scaled", run.scaled(what))):
            level = tail_level(len(xs))
            timing[f"{what}_ms {label}"] = {
                "n": len(xs), "p50": percentile(xs, 50), "p90": percentile(xs, 90),
                "tail_level": level, "tail": percentile(xs, level) if level else None}
    for kind, gauge in by_kind.items():
        gauge_ms = [ms for _, ms in gauge.samples]
        if not gauge_ms:
            continue
        timing[f"gauge_ms {kind}"] = {
            "n": len(gauge_ms), "p50": percentile(gauge_ms, 50), "p90": percentile(gauge_ms, 90),
            "tail_level": None, "tail": None}
    out = {"attempted": run.attempted, "failed": run.failed, "failures": run.failures,
           "metrics": {k: v for k, (v, _) in metrics.items()},
           "counts": {k: n for k, (_, n) in metrics.items()},
           "timing": timing, "env": _environment(args, root, sw),
           "info": {**run.info, "revealed_ssim": sum(run.ssim) / len(run.ssim),
                    "stego_snr_db": -20.0 * math.log10(wl.median(run.noise_ratio))}}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, ctx.pairs_per_sweep)
        pairs, cfg = ctx.roundtrip
        worst, interior = wl.roundtrip_errors(sw, pairs, cfg)
        layers["dsp.roundtrip_max_abs_err"] = worst
        layers["dsp.roundtrip_interior_max_abs_err"] = interior
        main = threading.main_thread().ident
        layers["trace.self_coverage"] = tracing.coverage(tracer.spans, main, ctx.traced_wall_s)
        out["layers"] = layers
        out["self_table"] = tracing.self_time_table(tracer.spans, main)
        # shares are of the traced wall time less the gauge runs in it
        out["traced_wall_s"] = ctx.traced_wall_s - tracing.own_time(tracer.spans, main)
        traces = root / WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl.gz")
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn, collect, report


def _spawn(args, trace, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: workload {args.workload} ran out of time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"perfbench: workload {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(args, root, sw):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "worker_count": sw["robustness"].worker_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "STEGOWAV_THREADS": os.environ.get("STEGOWAV_THREADS"),
        "source_sha256": source_digest(root),
    }


def _report(result, spec, traced=None):
    print(f"env {json.dumps(result['env'])}")
    for name, t in result["timing"].items():
        tail = (f", p{t['tail_level']:.1f}={t['tail']:.4f} (highest with >=10 beyond)"
                if t["tail"] is not None else "")
        print(f"timing {name}: n={t['n']} p50={t['p50']:.4f} p90={t['p90']:.4f}{tail}")
    for m in spec["end_to_end"]:
        name = m["name"]
        print(f"metric {name} = {result['metrics'][name]:.6g} {m['unit']} "
              f"(n={result['counts'][name]})")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"checks attempted={result['attempted']} failed={result['failed']} "
          f"fail_ratio={ratio:.6g}")
    for what in result["failures"]:
        print(f"FAILED {what}")
    print(f"info {json.dumps(result['info'])}")
    if traced is not None:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in traced["layers"].items():
            print(f"layer {name} = {value:.6g} {units[name]}")
        wall = traced["traced_wall_s"]
        print(f"self time, main thread, of {wall:.3f} s traced wall (gauge runs excluded):")
        for name, secs in traced["self_table"]:
            print(f"  {name:<44} {secs:9.4f} s  {100.0 * secs / wall:6.2f}%")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "stegowav" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the repository root (src/stegowav not found)\n")
        return 2
    if args.workload not in wl.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}\n")
        return 2
    if args.child:
        return child_main(args, root)

    deadline = time.monotonic() + TIME_LIMIT_S
    spec = load_spec(root)
    plain = _spawn(args, 0, deadline)
    if not args.trace:
        _report(plain, spec)
        metrics = {m["name"]: {"value": plain["metrics"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        attempted, failed = plain["attempted"], plain["failed"]
    else:
        traced = _spawn(args, 1, deadline)
        base = plain["metrics"]["op_ms.p50"]
        traced["layers"]["trace.overhead_pct"] = \
            100.0 * (traced["metrics"]["op_ms.p50"] - base) / base
        _report(plain, spec, traced)
        metrics = {m["name"]: {"value": traced["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
