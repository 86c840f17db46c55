"""Outside-in tracer for the dmsr benchmark.

The tracer wraps public functions and methods of `dmsr` from outside the
package. A function is replaced in every `dmsr` module namespace that bound
it (``naf.py`` imports ``conv2d`` by name, so ``dmsr.naf.conv2d`` is wrapped
as well as ``dmsr.ops.conv2d``); a method is replaced on its class. It also
wraps ``record`` in ``dmsr.tensor`` and ``dmsr.ops`` so that every backward
closure is timed and attributed to its op kind and to the model stage that
recorded it.

Spans are kept in memory as tuples and turned into per-layer numbers by
`layer_metrics` when the run ends. `Tracer.uninstall` puts every original
object back, in reverse order of installation.
"""

import bisect
import itertools
import os
import threading
import time
from collections import defaultdict

clock = time.perf_counter

# span tuple fields
SID, PARENT, NAME, T0, T1, TID, TAG = range(7)

# Per-call operation counts and bytes moved, computed from operand shapes
# (forward pass only, float64 operands). Each returns (flop, bytes) and
# becomes the span's tag.


def _matmul_cost(args, out):
    a, b = args[0], args[1]
    return 2.0 * out.size * a.shape[-1], 8.0 * (a.size + b.size + out.size)


def _conv2d_cost(args, out):
    x, w = args[0], args[1]
    _, c, kh, kw = w.shape
    return 2.0 * out.size * c * kh * kw, 8.0 * (x.size + w.size + out.size)


def _depthwise_cost(args, out):
    x, w = args[0], args[1]
    return 2.0 * out.size * w.shape[1] * w.shape[2], 8.0 * (x.size + w.size + out.size)


def _layer_norm_cost(args, out):
    # mean, centre, variance, scale, affine: about 8 flops per element
    return 8.0 * out.size, 8.0 * (args[0].size + out.size)


def _bilinear_cost(args, out):
    # 4 taps x (multiply + add) per output, plus 8 flops of corner weights
    # per sampled position; reads 4 corner values per output and the coords
    coords = args[1]
    return (8.0 * out.size + 4.0 * coords.size,
            8.0 * (4 * out.size + coords.size + out.size))


def _resize_key(args, out):
    return tuple(args[:2])


def _file_size(args, out):
    return os.path.getsize(args[0])


# (module, function, span name, tag function or None)
FUNCTIONS = (
    ("tensor", "matmul", "tensor.matmul", _matmul_cost),
    ("ops", "conv2d", "ops.conv2d", _conv2d_cost),
    ("ops", "depthwise_conv2d", "ops.depthwise_conv2d", _depthwise_cost),
    ("ops", "layer_norm", "ops.layer_norm", _layer_norm_cost),
    ("ops", "bilinear_sample", "ops.bilinear_sample", _bilinear_cost),
    ("ops", "multi_head_attention", "ops.multi_head_attention", None),
    ("ops", "pixel_shuffle", "ops.rearrange", None),
    ("ops", "pixel_unshuffle", "ops.rearrange", None),
    ("ops", "window_partition", "ops.rearrange", None),
    ("ops", "window_merge", "ops.rearrange", None),
    ("model", "upsample_lr", "model.upsample_lr", None),
    ("model", "combine_weights", "model.combine", None),
    ("model", "combine_offsets", "model.combine", None),
    ("model", "apply_joint_filter", "model.joint_filter", None),
    ("data", "resize_matrix", "data.resize_matrix", _resize_key),
    ("data", "bicubic_resize", "data.bicubic_resize", None),
    ("data", "load_manifest_pairs", "data.load_manifest_pairs", None),
    ("imageio", "load_ppm", "imageio.load", _file_size),
    ("imageio", "load_pgm16", "imageio.load", _file_size),
    ("train", "evaluate", "train.evaluate", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save", _file_size),
    ("checkpoint", "restore_model", "checkpoint.restore", None),
    ("cli", "cmd_eval", "cli.eval", None),
)

# (module, class, method, span name)
METHODS = (
    ("tensor", "Tape", "backward", "tensor.backward"),
    ("train", "Adam", "step", "train.adam"),
    ("model", "DmsrModel", "forward", "model.forward"),
    ("model", "HeadConvs", "forward", "model.heads"),
    ("swin", "SwinBackbone", "forward", "swin.backbone"),
    ("swin", "Rstb", "forward", "swin.block"),
    ("naf", "NafBackbone", "forward", "naf.backbone"),
    ("naf", "NafBlock", "forward", "naf.block"),
)

# spans that open a model stage; backward closures recorded inside one are
# attributed to it
STAGES = {"model.upsample_lr", "model.combine", "model.joint_filter",
          "model.heads", "model.forward"}

# modules whose `record` binding is wrapped; the span layer is the module
RECORDERS = ("tensor", "ops")


class Tracer:
    """Installs wrappers into the `dmsr` modules and records spans.

    Use as a context manager, or call install() and uninstall(). Spans are
    (sid, parent, name, t0, t1, thread id, tag) tuples in `spans`.
    """

    def __init__(self, modules):
        self.modules = modules          # {"tensor": dmsr.tensor, ...}
        self.spans = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._patches = []              # (owner, attribute, original)

    # ------------------------------------------------------------------
    # span bookkeeping

    def _stack(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.stage = None
            tls.model = None
        return tls.stack

    def _timed(self, name, fn, args, kwargs, tag=None, stage=None):
        """Call fn inside a span; a callable `tag` is applied to (args, out)."""
        stack = self._stack()
        tls = self._tls
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        saved_stage = tls.stage
        if stage is not None:
            tls.stage = stage
        stack.append(sid)
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            tls.stage = saved_stage
        if callable(tag):
            tag = tag(args, out)
        self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), tag))
        return out

    # ------------------------------------------------------------------
    # wrappers

    def _wrap_function(self, name, fn, tag):
        tracer = self
        stage = name if name in STAGES else None

        def wrapper(*args, **kwargs):
            return tracer._timed(name, fn, args, kwargs, tag=tag, stage=stage)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_method(self, name, fn):
        tracer = self

        if name == "model.forward":
            def wrapper(obj, *args, **kwargs):
                tls = tracer._tls
                tracer._stack()
                saved, tls.model = tls.model, obj
                try:
                    return tracer._timed(name, fn, (obj,) + args, kwargs,
                                         stage="model.forward")
                finally:
                    tls.model = saved
        elif name.endswith(".backbone"):
            def wrapper(obj, *args, **kwargs):
                tracer._stack()
                model = tracer._tls.model
                role = "guide" if model is not None and obj is model.guide_backbone \
                    else "target"
                return tracer._timed(name, fn, (obj,) + args, kwargs, tag=role,
                                     stage=f"model.{role}_backbone")
        else:
            stage = name if name in STAGES else None

            def wrapper(obj, *args, **kwargs):
                return tracer._timed(name, fn, (obj,) + args, kwargs, stage=stage)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_record(self, layer, record):
        tracer = self

        def traced_record(op, inputs, out_data, backward):
            tracer._stack()
            stage = tracer._tls.stage
            inputs = tuple(inputs)
            name = f"{layer}.bwd.{op}"

            def timed_backward(g):
                stack = tracer._stack()
                sid = next(tracer._ids)
                parent = stack[-1] if stack else None
                t0 = clock()
                grads = tuple(backward(g))
                t1 = clock()
                nbytes = n_disc = disc_bytes = 0
                for x, gx in zip(inputs, grads):
                    if gx is None:
                        continue
                    nbytes += gx.nbytes
                    if not getattr(x, "requires_grad", False):
                        n_disc += 1
                        disc_bytes += gx.nbytes
                tracer.spans.append((sid, parent, name, t0, t1, threading.get_ident(),
                                     (stage, nbytes, n_disc, disc_bytes)))
                return grads

            return record(op, inputs, out_data, timed_backward)

        traced_record.__wrapped__ = record
        return traced_record

    # ------------------------------------------------------------------
    # installation

    def _replace_everywhere(self, original, replacement):
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer in RECORDERS:
                mod = self.modules[layer]
                original = mod.record
                self._patches.append((mod, "record", original))
                mod.record = self._wrap_record(layer, original)
            for mod_name, fn_name, span, tag in FUNCTIONS:
                original = getattr(self.modules[mod_name], fn_name)
                self._replace_everywhere(original, self._wrap_function(span, original, tag))
            for mod_name, cls_name, meth, span in METHODS:
                cls = getattr(self.modules[mod_name], cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap_method(span, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False


# ----------------------------------------------------------------------
# aggregation

TENSOR_BWD_KINDS = ("matmul", "softmax", "gelu", "add", "mul", "slice", "concat",
                    "transpose", "reshape")
OPS_KINDS = ("conv2d", "depthwise_conv2d", "layer_norm", "bilinear_sample")
COSTED = {"tensor.matmul", "ops.conv2d", "ops.depthwise_conv2d", "ops.layer_norm",
          "ops.bilinear_sample"}
SELF_LAYERS = ("tensor", "ops", "swin", "naf", "model", "data", "train")


def per_layer_names():
    """(name, unit, better) for every per-layer metric, in report order."""
    m = [("tensor.nodes_per_step", "count", "lower"),
         ("tensor.backward_ms", "ms", "lower")]
    m += [(f"tensor.op.{k}.bwd_ms", "ms", "lower") for k in TENSOR_BWD_KINDS]
    m += [("tensor.matmul.fwd_ms", "ms", "lower"),
          ("tensor.matmul.calls", "count", "lower"),
          ("tensor.matmul.gflop", "GFLOP", "lower"),
          ("tensor.matmul.mb_moved", "MB", "lower"),
          ("tensor.discarded_grads", "count", "lower"),
          ("tensor.discarded_grad_mb", "MB", "lower"),
          ("tensor.discarded_grad_share", "share", "lower")]
    for op in OPS_KINDS:
        m += [(f"ops.{op}.fwd_ms", "ms", "lower"), (f"ops.{op}.bwd_ms", "ms", "lower"),
              (f"ops.{op}.calls", "count", "lower"), (f"ops.{op}.gflop", "GFLOP", "lower"),
              (f"ops.{op}.mb_moved", "MB", "lower")]
    m += [("ops.multi_head_attention.fwd_ms", "ms", "lower"),
          ("ops.rearrange_ms", "ms", "lower"),
          ("swin.backbone_fwd_ms", "ms", "lower"), ("swin.block_fwd_ms", "ms", "lower"),
          ("naf.backbone_fwd_ms", "ms", "lower"), ("naf.block_fwd_ms", "ms", "lower")]
    m += [(f"model.{s}", "ms", "lower") for s in
          ("forward_ms", "upsample_lr_ms", "guide_backbone_ms", "target_backbone_ms",
           "heads_ms", "combine_ms", "joint_filter_fwd_ms", "joint_filter_bwd_ms")]
    m += [("model.joint_filter_nodes", "count", "lower"),
          ("data.resize_matrix.ms", "ms", "lower"),
          ("data.resize_matrix.calls", "count", "lower"),
          ("data.resize_matrix.distinct", "count", "lower"),
          ("data.bicubic_resize_ms", "ms", "lower"),
          ("data.load_manifest_pairs_ms", "ms", "lower"),
          ("imageio.load_ms", "ms", "lower"),
          ("imageio.bytes_read", "bytes", "lower"),
          ("train.adam_ms", "ms", "lower"),
          ("train.evaluate_ms", "ms", "lower"),
          ("train.eval_parallel_efficiency", "share", "higher"),
          ("checkpoint.save_ms", "ms", "lower"),
          ("checkpoint.restore_ms", "ms", "lower"),
          ("checkpoint.bytes", "bytes", "lower"),
          ("cli.eval_self_ms", "ms", "lower")]
    m += [(f"{layer}.self_ms", "ms", "lower") for layer in SELF_LAYERS]
    m += [("trace.overhead_ms", "ms", "lower"),
          ("trace.overhead_share", "share", "lower"),
          ("trace.spans_per_step", "count", "lower")]
    return m


def assign_steps(spans, steps):
    """Map span index -> step index, for spans starting inside a step on the
    step's own thread. `steps` is a list of (tid, t0, t1)."""
    by_tid = defaultdict(list)
    for i, (tid, t0, t1) in enumerate(steps):
        by_tid[tid].append((t0, t1, i))
    for lst in by_tid.values():
        lst.sort()
    starts = {tid: [s[0] for s in lst] for tid, lst in by_tid.items()}
    out = {}
    for j, s in enumerate(spans):
        lst = by_tid.get(s[TID])
        if not lst:
            continue
        k = bisect.bisect_right(starts[s[TID]], s[T0]) - 1
        if k >= 0 and s[T0] <= lst[k][1]:
            out[j] = lst[k][2]
    return out


def _child_time(spans):
    """span id -> seconds covered by its child spans."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[T1] - s[T0]
    return child


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, steps, fanout_spans=()):
    """Per-layer metrics from a traced phase.

    `steps` are the (tid, t0, t1) intervals of the workload's unit of work
    (a training step). Step-scoped metrics are means per step; call-scoped
    ones (evaluate, checkpoint, file loads, manifest load, cli) are means per
    call. A call-scoped span name that the phase never records (file loads,
    manifest load, checkpoint restore and cli, which only `dmsr eval` runs)
    is taken from `fanout_spans`, the traced `dmsr eval` invocation.
    train.eval_parallel_efficiency comes from that invocation too
    (`parallel_efficiency`) and reads 0 here.
    """
    names = [n for n, _, _ in per_layer_names()]
    out = dict.fromkeys(names, 0.0)
    n_steps = len(steps)
    if not n_steps:
        return out
    in_step = assign_steps(spans, steps)

    child = _child_time(spans)

    ms = defaultdict(float)       # name -> summed ms inside steps
    calls = defaultdict(int)
    flop = defaultdict(float)
    mbytes = defaultdict(float)
    self_ms = defaultdict(float)
    resize_keys = set()
    n_nodes = grad_bytes = disc = disc_bytes = 0
    for j in in_step:
        s = spans[j]
        name, dur = s[NAME], 1000.0 * (s[T1] - s[T0])
        ms[name] += dur
        calls[name] += 1
        self_ms[name.split(".", 1)[0]] += dur - 1000.0 * child[s[SID]]
        tag = s[TAG]
        if name in ("swin.backbone", "naf.backbone"):
            ms[f"model.{tag}_backbone"] += dur
        elif name == "data.resize_matrix":
            resize_keys.add(tag)
        elif ".bwd." in name:
            stage, nb, nd, ndb = tag
            n_nodes += 1
            grad_bytes += nb
            disc += nd
            disc_bytes += ndb
            if stage == "model.joint_filter":
                ms["model.joint_filter.bwd"] += dur
                calls["model.joint_filter.bwd"] += 1
        elif name in COSTED:
            f, b = tag
            flop[name] += f
            mbytes[name] += b

    per = 1.0 / n_steps
    out["tensor.nodes_per_step"] = n_nodes * per
    out["tensor.backward_ms"] = ms["tensor.backward"] * per
    for k in TENSOR_BWD_KINDS:
        out[f"tensor.op.{k}.bwd_ms"] = ms[f"tensor.bwd.{k}"] * per
    out["tensor.matmul.fwd_ms"] = ms["tensor.matmul"] * per
    out["tensor.matmul.calls"] = calls["tensor.matmul"] * per
    out["tensor.matmul.gflop"] = flop["tensor.matmul"] * per / 1e9
    out["tensor.matmul.mb_moved"] = mbytes["tensor.matmul"] * per / 1e6
    out["tensor.discarded_grads"] = disc * per
    out["tensor.discarded_grad_mb"] = disc_bytes * per / 1e6
    out["tensor.discarded_grad_share"] = disc_bytes / grad_bytes if grad_bytes else 0.0
    for op in OPS_KINDS:
        out[f"ops.{op}.fwd_ms"] = ms[f"ops.{op}"] * per
        out[f"ops.{op}.bwd_ms"] = ms[f"ops.bwd.{op}"] * per
        out[f"ops.{op}.calls"] = calls[f"ops.{op}"] * per
        out[f"ops.{op}.gflop"] = flop[f"ops.{op}"] * per / 1e9
        out[f"ops.{op}.mb_moved"] = mbytes[f"ops.{op}"] * per / 1e6
    out["ops.multi_head_attention.fwd_ms"] = ms["ops.multi_head_attention"] * per
    out["ops.rearrange_ms"] = ms["ops.rearrange"] * per
    for b in ("swin", "naf"):
        out[f"{b}.backbone_fwd_ms"] = ms[f"{b}.backbone"] * per
        out[f"{b}.block_fwd_ms"] = ms[f"{b}.block"] * per
    out["model.forward_ms"] = ms["model.forward"] * per
    out["model.upsample_lr_ms"] = ms["model.upsample_lr"] * per
    out["model.guide_backbone_ms"] = ms["model.guide_backbone"] * per
    out["model.target_backbone_ms"] = ms["model.target_backbone"] * per
    out["model.heads_ms"] = ms["model.heads"] * per
    out["model.combine_ms"] = ms["model.combine"] * per
    out["model.joint_filter_fwd_ms"] = ms["model.joint_filter"] * per
    out["model.joint_filter_bwd_ms"] = ms["model.joint_filter.bwd"] * per
    out["model.joint_filter_nodes"] = calls["model.joint_filter.bwd"] * per
    out["data.resize_matrix.ms"] = ms["data.resize_matrix"] * per
    out["data.resize_matrix.calls"] = calls["data.resize_matrix"] * per
    out["data.resize_matrix.distinct"] = len(resize_keys)
    out["data.bicubic_resize_ms"] = ms["data.bicubic_resize"] * per
    out["train.adam_ms"] = ms["train.adam"] * per
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = self_ms[layer] * per
    out["trace.spans_per_step"] = len(in_step) * per

    # call-scoped metrics over every span of the phase, inside steps or not
    by_name = defaultdict(list)       # name -> [(span, its children's time)]
    for s in spans:
        by_name[s[NAME]].append((s, child[s[SID]]))
    phase_names = set(by_name)
    fanout_child = _child_time(fanout_spans)
    for s in fanout_spans:
        if s[NAME] not in phase_names:
            by_name[s[NAME]].append((s, fanout_child[s[SID]]))

    def mean_ms(name):
        return _mean([1000.0 * (s[T1] - s[T0]) for s, _ in by_name[name]])

    out["data.load_manifest_pairs_ms"] = mean_ms("data.load_manifest_pairs")
    out["imageio.load_ms"] = mean_ms("imageio.load")
    out["imageio.bytes_read"] = _mean([s[TAG] for s, _ in by_name["imageio.load"]])
    out["train.evaluate_ms"] = mean_ms("train.evaluate")
    out["checkpoint.save_ms"] = mean_ms("checkpoint.save")
    out["checkpoint.bytes"] = _mean([s[TAG] for s, _ in by_name["checkpoint.save"]])
    out["checkpoint.restore_ms"] = mean_ms("checkpoint.restore")
    out["cli.eval_self_ms"] = _mean([1000.0 * (s[T1] - s[T0] - covered)
                                     for s, covered in by_name["cli.eval"]])
    return out


def parallel_efficiency(spans, workers):
    """Summed forward busy time inside each `evaluate` of `spans` over
    workers x its wall time."""
    evaluates = [s for s in spans if s[NAME] == "train.evaluate"]
    if not evaluates:
        return 0.0
    fwd = sorted((s[T0], s[T1]) for s in spans if s[NAME] == "model.forward")
    t0s = [f[0] for f in fwd]
    busy = wall = 0.0
    for e in evaluates:
        lo = bisect.bisect_left(t0s, e[T0])
        hi = bisect.bisect_right(t0s, e[T1])
        busy += sum(t1 - t0 for t0, t1 in fwd[lo:hi])
        wall += workers * (e[T1] - e[T0])
    return busy / wall if wall else 0.0
