"""Span tracer for the traced benchmark run.

Spans are recorded from outside the program: `Tracer.install` replaces public
functions of the `stegowav` modules with wrappers that open a span around
each call, and `Tracer.uninstall` puts the originals back.  Every tape node
is timed by wrapping `autodiff._node`, which all ops go through; its backward
pass is timed by wrapping the node's `_backward` closure.  Conv nodes are
attributed to a U-Net layer by matching the kernel tensor against the
parameters of every model `pipeline.build_model` returned.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time

# span fields; TAG is the U-Net layer of a conv span, BYTES a node's output size
NAME, START, END, PARENT, TRACE, THREAD, TAG, BYTES = range(8)

# tape op kinds reported one by one; every other kind goes to "other"
# (soft_dtw is reported under losses)
OP_KINDS = ("conv2d", "leaky_relu", "avg_pool2", "nearest_upsample2", "concat_depth",
            "reshape", "istdct", "stdct_fwd", "istft", "pack_grid", "unpack_grid")
UNET_PREFIXES = ("hide", "reveal")
UNET_LAYERS = ("enc0", "enc1", "bottleneck", "dec1", "dec0", "head")
ENTRY_SPANS = ("pipeline.train", "cli.")


def _unet_name(args, kwargs):
    prefix = kwargs.get("prefix", args[3] if len(args) > 3 else "?")
    return f"networks.unet_forward.{prefix}"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv", ["?"])
    return f"cli.{argv[0] if argv else '?'}"


def wrap_targets(sw):
    """(owner, attribute, span name) for every call the tracer wraps.

    `sw` maps module names to the imported `stegowav` modules.
    """
    pl, ad = sw["pipeline"], sw["autodiff"]
    targets = [(pl.Adam, "step", "pipeline.Adam.step"), (ad, "backward", "autodiff.backward")]
    for attr in ("train", "build_model", "synth_dataset", "run_pipeline", "embed", "reveal",
                 "reveal_from_spectrogram", "save_checkpoint", "load_checkpoint",
                 "save_dataset", "load_dataset", "_sample_loss", "_cover_spectrogram",
                 "istft_op", "istdct_op", "stdct_fwd_op", "stft_mag_op", "stft_phase_op",
                 "_reveal_branch", "_finalize"):
        targets.append((pl, attr, f"pipeline.{attr}"))
    for module, attrs in (
            ("dsp", ("transform", "inverse_transform")),
            ("wavio", ("read_wav", "write_wav")),
            ("losses", ("composite_loss",)),
            ("metrics", ("ssim", "psnr_db")),
            ("robustness", ("robustness_sweep", "_sweep_cell", "apply_frame_dropout")),
            ("embeddings", ("encode_arrange", "decode_prepare", "decode_finalize")),
            ("imageops", ("shuffle_with_luma", "read_ppm", "write_ppm")),
            ("cli", ("_dump_cells",))):
        for attr in attrs:
            targets.append((sw[module], attr, f"{module}.{attr}"))
    targets.append((sw["networks"], "unet_forward", _unet_name))
    targets.append((sw["cli"], "run", _cli_name))
    return targets


class Tracer:
    """Records spans (name, start, end, parent, trace id, thread, tag)."""

    def __init__(self):
        self.spans = []
        self.trace_id = 0
        self.kernel_layers = {}   # id(kernel tensor) -> "prefix.layer"
        self.im2col_bytes = {}    # "prefix.layer" -> bytes of one forward im2col buffer
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []
        self.active = False       # spans are recorded only while installed

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_trace(self):
        """Start a new trace id: one per training step or per request."""
        self.trace_id += 1

    def _open(self, name, tag=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's first span hangs under whatever the main thread
            # is waiting in, so ancestry crosses threads
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, 0.0, 0.0, parent, self.trace_id, threading.get_ident(), tag, 0]
        self.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()

    def timed(self, name, fn, args, kwargs, tag=None):
        if not self.active:
            return fn(*args, **kwargs)
        span = self._open(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrapper(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return tracer.timed(label, original, args, kwargs)

        return wrapper

    def install(self, sw):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in wrap_targets(sw):
            self._patch(owner, attr, self._wrapper(owner.__dict__[attr], name))
        self._patch(sw["autodiff"], "_node", self._node_wrapper(sw["autodiff"]._node))
        build = sw["pipeline"].build_model

        @functools.wraps(build)
        def build_model(*args, **kwargs):
            bundle = build(*args, **kwargs)
            for pname, tensor in bundle.params.items():
                if pname.endswith(".w"):
                    self.kernel_layers[id(tensor)] = pname[:-2]
            return bundle

        self._patch(sw["pipeline"], "build_model", build_model)
        self.active = True

    def uninstall(self):
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _node_wrapper(self, original):
        tracer = self

        def node(op, parents, forward, backward):
            layer = None
            if op == "conv2d":
                layer = tracer.kernel_layers.get(id(parents[1]))
                x, kernel = parents[0].data, parents[1].data
                k = kernel.shape[-1]
                cols = x.shape[0] * k * k * x.shape[1] * x.shape[2] * x.itemsize
                key = layer or "unattributed"
                tracer.im2col_bytes[key] = max(tracer.im2col_bytes.get(key, 0), cols)
            span = tracer._open(f"autodiff.{op}.fwd", layer)
            try:
                t = original(op, parents, forward, backward)
            finally:
                tracer._close(span)
            span[BYTES] = t.data.nbytes
            if t._backward is not None:
                inner = t._backward

                def timed_backward(g, acc):
                    return tracer.timed(f"autodiff.{op}.bwd", inner, (g, acc), {}, tag=layer)

                t._backward = timed_backward
            return t

        return node

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line (gzip), parents as indices."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                parent = index.get(id(s[PARENT])) if s[PARENT] is not None else None
                f.write(json.dumps({
                    "i": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": parent, "trace": s[TRACE], "thread": s[THREAD],
                    "tag": s[TAG], "bytes": s[BYTES]}) + "\n")


def self_times(spans):
    """Per-span self time: its duration minus its same-thread children's.

    Children of one span on one thread run one after another, so their
    durations add up to the part of the parent's interval they cover.
    """
    covered = {}
    for s in spans:
        parent = s[PARENT]
        if parent is not None and parent[THREAD] == s[THREAD]:
            covered[id(parent)] = covered.get(id(parent), 0.0) + (s[END] - s[START])
    return [(s[END] - s[START]) - covered.get(id(s), 0.0) for s in spans]


def _root(span):
    while span[PARENT] is not None:
        span = span[PARENT]
    return span


def is_entry(span):
    return span[PARENT] is None and span[NAME].startswith(ENTRY_SPANS)


def coverage(spans, main_thread, wall):
    """Share of the wall time that self times of layer spans account for.

    Entry spans (`pipeline.train`, `cli.*`) are left out: their self time is
    the entry point's own overhead, not attributed to any layer.  Time in
    the benchmark's own spans (`perfbench.*`) is taken off the wall time.
    """
    own = own_time(spans, main_thread)
    total = sum(t for s, t in zip(spans, self_times(spans))
                if s[THREAD] == main_thread and not is_entry(s)
                and not s[NAME].startswith("perfbench."))
    return total / (wall - own) if wall > own else 0.0


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for kind in OP_KINDS + ("other",):
        names += [(f"autodiff.{kind}.fwd_s", "s"), (f"autodiff.{kind}.bwd_s", "s"),
                  (f"autodiff.{kind}.calls", "count"), (f"autodiff.{kind}.out_bytes", "bytes")]
    names.append(("autodiff.backward_s", "s"))
    for prefix in UNET_PREFIXES:
        for layer in UNET_LAYERS:
            base = f"networks.{prefix}.{layer}"
            names += [(f"{base}.fwd_s", "s"), (f"{base}.bwd_s", "s"), (f"{base}.im2col_mb", "MB")]
    for stage in ("transform", "hide", "arrange", "inverse", "reanalysis", "reveal", "finalize"):
        names.append((f"pipeline.stage.{stage}_s", "s"))
    names += [("pipeline.optimizer_s", "s"), ("pipeline.checkpoint_load_s", "s"),
              ("dsp.transform_s", "s"), ("dsp.inverse_transform_s", "s"),
              ("dsp.roundtrip_max_abs_err", "abs"), ("dsp.roundtrip_interior_max_abs_err", "abs"),
              ("wavio.read_s", "s"), ("wavio.write_s", "s"),
              ("losses.soft_dtw.fwd_s", "s"), ("losses.soft_dtw.bwd_s", "s"),
              ("losses.composite_s", "s"),
              ("robustness.dropout_s", "s"), ("robustness.embeds_per_pair", "embeds/pair"),
              ("metrics.ssim_s", "s"), ("metrics.calls", "count"),
              ("embeddings.encode_arrange_s", "s"), ("embeddings.decode_prepare_s", "s"),
              ("embeddings.decode_finalize_s", "s"),
              ("imageops.shuffle_s", "s"), ("imageops.ppm_read_s", "s"),
              ("imageops.ppm_write_s", "s"),
              ("trace.self_coverage", "ratio"), ("trace.overhead_pct", "%"),
              ("trace.spans", "count")]
    return names


# metric -> span names whose durations it sums
_SUMS = {
    "pipeline.stage.transform_s": ("pipeline._cover_spectrogram",),
    "pipeline.stage.arrange_s": ("embeddings.encode_arrange",),
    "pipeline.stage.inverse_s": ("pipeline.istft_op", "pipeline.istdct_op"),
    "pipeline.stage.reveal_s": ("pipeline._reveal_branch",),
    "pipeline.stage.finalize_s": ("pipeline._finalize",),
    "pipeline.optimizer_s": ("pipeline.Adam.step",),
    "pipeline.checkpoint_load_s": ("pipeline.load_checkpoint",),
    "autodiff.backward_s": ("autodiff.backward",),
    "dsp.transform_s": ("dsp.transform",),
    "dsp.inverse_transform_s": ("dsp.inverse_transform",),
    "wavio.read_s": ("wavio.read_wav",),
    "wavio.write_s": ("wavio.write_wav",),
    "losses.soft_dtw.fwd_s": ("autodiff.soft_dtw.fwd",),
    "losses.soft_dtw.bwd_s": ("autodiff.soft_dtw.bwd",),
    "losses.composite_s": ("losses.composite_loss",),
    "robustness.dropout_s": ("robustness.apply_frame_dropout",),
    "metrics.ssim_s": ("metrics.ssim",),
    "embeddings.encode_arrange_s": ("embeddings.encode_arrange",),
    "embeddings.decode_prepare_s": ("embeddings.decode_prepare",),
    "embeddings.decode_finalize_s": ("embeddings.decode_finalize",),
    "imageops.shuffle_s": ("imageops.shuffle_with_luma",),
    "imageops.ppm_read_s": ("imageops.read_ppm",),
    "imageops.ppm_write_s": ("imageops.write_ppm",),
}


def layer_metrics(tracer, pairs_per_sweep=0):
    """Per-layer values from the recorded spans (trace.* and dsp.roundtrip_*
    are filled in by the caller)."""
    values = {name: 0.0 for name, _ in per_layer_names()}
    for s in tracer.spans:
        name, dur = s[NAME], s[END] - s[START]
        for metric, sources in _SUMS.items():
            if name in sources:
                values[metric] += dur
        if name.startswith("networks.unet_forward.hide"):
            values["pipeline.stage.hide_s"] += dur
        elif name in ("pipeline.stdct_fwd_op", "pipeline.stft_mag_op", "pipeline.stft_phase_op"):
            values["pipeline.stage.reanalysis_s"] += dur
        elif name == "dsp.transform" and s[PARENT] is not None \
                and s[PARENT][NAME] == "pipeline.reveal":
            values["pipeline.stage.reanalysis_s"] += dur
        elif name in ("metrics.ssim", "metrics.psnr_db"):
            values["metrics.calls"] += 1
        elif name.startswith("autodiff.") and name.endswith((".fwd", ".bwd")):
            kind, direction = name[len("autodiff."):].rsplit(".", 1)
            if kind == "soft_dtw":
                continue
            key = kind if kind in OP_KINDS else "other"
            values[f"autodiff.{key}.{direction}_s"] += dur
            if direction == "fwd":
                values[f"autodiff.{key}.calls"] += 1
                values[f"autodiff.{key}.out_bytes"] += s[BYTES]
            if kind == "conv2d":
                metric = f"networks.{s[TAG]}.{direction}_s"
                if metric in values:
                    values[metric] += dur
    for layer, nbytes in tracer.im2col_bytes.items():
        metric = f"networks.{layer}.im2col_mb"
        if metric in values:
            values[metric] = nbytes / 2 ** 20
    if pairs_per_sweep:
        sweeps = sum(1 for s in tracer.spans if s[NAME] == "cli.robustness")
        embeds = sum(1 for s in tracer.spans if s[NAME] == "pipeline.embed"
                     and _root(s)[NAME] == "cli.robustness")
        if sweeps:
            values["robustness.embeds_per_pair"] = embeds / (sweeps * pairs_per_sweep)
    values["trace.spans"] = float(len(tracer.spans))
    return values


def self_time_table(spans, main_thread, top=12):
    """(name, self seconds) summed by span name, largest first, main thread
    only, leaving out the benchmark's own spans."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        if s[THREAD] == main_thread and not s[NAME].startswith("perfbench."):
            totals[s[NAME]] = totals.get(s[NAME], 0.0) + t
    return sorted(totals.items(), key=lambda kv: -kv[1])[:top]


def own_time(spans, main_thread):
    """Seconds the main thread spent in the benchmark's own spans."""
    return sum(s[END] - s[START] for s in spans
               if s[THREAD] == main_thread and s[NAME].startswith("perfbench."))
