"""Per-layer tracing: spans around calls into the package, made from the benchmark.

``Tracer.installed`` replaces every module-level reference to a set of the
package's public functions (``LAYER_FUNCTIONS`` and ``OPS``) with a wrapper
that records a span: its name, the phase it ran in (train, score or
explain), its parent span, its start and end. It also wraps the backward
closures that ops hand to the tape: a backward span keeps the index of the
span that recorded its node (its origin), so backward time is attributed
to the op and block of the forward call. Nothing under ``src/`` changes.

Bytes come from ``tracemalloc`` (numpy reports its buffers to it), which
slows every allocation. So it runs only during the first optimizer step of
``fit``; that step gives the retained-bytes figures and is left out of
every timing, which come from the other steps. Spans stay in memory and
are saved when the run ends.
"""

import json
import sys
import tracemalloc
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from sleepstager import blocks, data, explain, model, recurrent, training
from sleepstager.autodiff import ops, tensor
from sleepstager.data.windows import WindowView

# op kinds the per-layer metrics cover: every op the model records, save
# the cheap reshape/select/loss ops that run once per forward
OPS = ("conv1d", "batchnorm1d", "max_pool1d", "global_avg_pool", "channel_scale",
       "matmul", "add_rowvec", "add", "mul", "relu", "sigmoid", "tanh", "concat",
       "transpose", "take_rows")

# span name -> (module that defines the function, attribute)
LAYER_FUNCTIONS = {
    "data.load_epochset": (data.epochs, "load_epochset"),
    "autodiff.backward": (tensor, "backward"),
    "blocks.extractor": (blocks, "feature_extractor_forward"),
    "blocks.block": (blocks, "basic_block_forward"),
    "recurrent.stack": (recurrent, "stack_forward"),
    "model.forward_batch": (model, "forward_batch"),
    "model.checkpoint_load": (model, "checkpoint_load"),
    "model.checkpoint_save": (model, "checkpoint_save"),
    "training.fit": (training, "fit"),
    "training.adam_step": (training, "adam_step"),
    "training.predict_epochs": (training, "predict_epochs"),
    "explain.gradcam": (explain, "gradcam"),
}
PHASES = ("train", "score", "explain")
STAGES = ("stem", "s0", "s1", "s2", "s3")
MB = 1024 * 1024


def _conv_flops(x, w, b=None, stride=1, padding=0):
    """Multiply-add flops of conv1d forward and of its backward GEMMs."""
    n = x.data.shape[0] if x.data.ndim == 3 else 1
    c_out, c_in, k = w.data.shape
    l_out = (x.data.shape[-1] + 2 * padding - k) // stride + 1
    gemm = 2 * n * c_out * c_in * k * l_out
    return gemm, gemm * (2 if x.requires_grad else 1)


def _matmul_flops(a, b):
    m, k = a.data.shape
    n = b.data.shape[1] if b.data.ndim == 2 else 1
    return 2 * m * k * n, 4 * m * k * n


FLOPS = {"conv1d": _conv_flops, "matmul": _matmul_flops}


class Spans:
    """Column store of spans; index -1 means "none"."""

    FIELDS = {"name": "i", "phase": "b", "parent": "q", "origin": "q",
              "t0": "q", "t1": "q", "tracked": "b", "mem": "q", "value": "d"}

    def __init__(self):
        self.names = []
        self._ids = {}
        for field, code in self.FIELDS.items():
            setattr(self, field, array(code))

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name, phase, parent, origin=-1, t0=0, t1=0, tracked=0, mem=0,
            value=0.0):
        self.name.append(self.name_id(name))
        self.phase.append(phase)
        self.parent.append(parent)
        self.origin.append(origin)
        self.t0.append(t0)
        self.t1.append(t1)
        self.tracked.append(tracked)  # 1: ran under tracemalloc
        self.mem.append(mem)
        self.value.append(value)
        return len(self.name) - 1

    def __len__(self):
        return len(self.name)

    def columns(self):
        cols = {f: as_numpy(getattr(self, f)) for f in self.FIELDS}
        cols["names"] = np.array(self.names)
        return cols


def as_numpy(a):
    """A numpy view of an ``array.array``."""
    return np.frombuffer(a, dtype=a.typecode) if len(a) else np.zeros(0, a.typecode)


def covered_ns(intervals, lo, hi):
    """Length of ``[lo, hi]`` covered by the union of the ``(t0, t1)`` intervals."""
    total, end = 0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


def self_time_ns(span, children, lo=None, hi=None):
    """A span's time in ``[lo, hi]`` (default: all of it) not covered by its children."""
    t0, t1 = span
    lo = t0 if lo is None else max(lo, t0)
    hi = t1 if hi is None else min(hi, t1)
    return max(hi - lo, 0) - covered_ns(children, lo, hi)


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.phase_id = -1  # index into PHASES; -1: outside the measured phases
        self.stack = []  # open spans
        self.records = array("q")  # origin span of every tape node
        self.record_phase = array("b")
        self.held = []  # bytes live when backward starts, memory step only
        self.mem_state = "pending"  # -> "on" for fit's first step -> "done"
        self._bwd_flops = 0  # backward flops of the op now recording its node
        self._stage_of = {}
        self._undo = []

    @contextmanager
    def phase(self, name):
        prev, self.phase_id = self.phase_id, PHASES.index(name)
        try:
            yield
        finally:
            self.phase_id = prev

    # -- spans ---------------------------------------------------------------

    def _open(self, name, value=0.0):
        if (self.mem_state == "pending" and self.phase_id == 0
                and name == "data.gather"):
            tracemalloc.start()
            self.mem_state = "on"
        tracked = self.mem_state == "on"
        mem = tracemalloc.get_traced_memory()[0] if tracked else 0
        parent = self.stack[-1] if self.stack else -1
        idx = self.spans.add(name, self.phase_id, parent, tracked=tracked, mem=mem,
                             value=value)
        self.stack.append(idx)
        self.spans.t0[idx] = perf_counter_ns()
        return idx

    def _close(self, idx):
        self.spans.t1[idx] = perf_counter_ns()
        self.stack.pop()
        if self.spans.tracked[idx]:
            self.spans.mem[idx] = tracemalloc.get_traced_memory()[0] - self.spans.mem[idx]
        if self.mem_state == "on" and self.spans.names[self.spans.name[idx]] == "training.adam_step":
            tracemalloc.stop()
            self.mem_state = "done"

    def _wrap(self, name, fn, value_of=None):
        def traced(*args, **kwargs):
            if self.phase_id < 0:
                return fn(*args, **kwargs)
            idx = self._open(name, value_of(*args, **kwargs) if value_of else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_op(self, kind, fn):
        flops = FLOPS.get(kind)
        name = f"op.{kind}"

        def traced(*args, **kwargs):
            if self.phase_id < 0:
                return fn(*args, **kwargs)
            fwd, bwd = flops(*args, **kwargs) if flops else (0, 0)
            idx = self._open(name, fwd)
            self._bwd_flops = bwd
            try:
                return fn(*args, **kwargs)
            finally:
                self._bwd_flops = 0
                self._close(idx)

        return traced

    def _record(self, out, backward_fn):
        """Stand-in for ``ops.record``: count the node and time its backward."""
        if self.phase_id < 0 or tensor.active_tape() is None or not out.requires_grad:
            return self._orig_record(out, backward_fn)
        origin = self.stack[-1] if self.stack else -1
        self.records.append(origin)
        self.record_phase.append(self.phase_id)
        flops = self._bwd_flops

        def timed_backward(g):
            if self.phase_id < 0:
                return backward_fn(g)
            idx = self._open("bwd", flops)
            self.spans.origin[idx] = origin
            try:
                return backward_fn(g)
            finally:
                self._close(idx)

        return self._orig_record(out, timed_backward)

    def _backward_value(self, loss, tape):
        if self.mem_state == "on" and self.phase_id == 0:
            self.held.append(tracemalloc.get_traced_memory()[0])
        return len(tape)

    def _block_value(self, x, p, mode):
        return self._stage_of.get(id(p), -1)

    def _extractor_value(self, x, cfg, params, mode):
        for s, stage in enumerate(params.stages):
            for p in stage:
                self._stage_of[id(p)] = s
        return x.data.shape[0]

    # -- installing ----------------------------------------------------------

    def _patch_everywhere(self, orig, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    @contextmanager
    def installed(self, *extra_modules):
        """Wrap the package's layer functions in ``sleepstager`` and ``extra_modules``."""
        modules = [m for n, m in sys.modules.items()
                   if n == "sleepstager" or n.startswith("sleepstager.")]
        modules += list(extra_modules)
        values = {"autodiff.backward": self._backward_value,
                  "blocks.block": self._block_value,
                  "blocks.extractor": self._extractor_value}
        try:
            for name, (mod, attr) in LAYER_FUNCTIONS.items():
                orig = getattr(mod, attr)
                self._patch_everywhere(orig, self._wrap(name, orig, values.get(name)),
                                       modules)
            for kind in OPS:
                orig = getattr(ops, kind)
                self._patch_everywhere(orig, self._wrap_op(kind, orig), modules)
            gather = WindowView.gather
            self._undo.append((WindowView, "gather", gather))
            WindowView.gather = self._wrap("data.gather", gather)
            self._orig_record = ops.record
            self._undo.append((ops, "record", ops.record))
            ops.record = self._record
            yield self
        finally:
            for obj, attr, value in reversed(self._undo):
                setattr(obj, attr, value)
            self._undo = []
            if tracemalloc.is_tracing():
                tracemalloc.stop()

    # -- output --------------------------------------------------------------

    def save(self, path, **meta):
        cols = self.spans.columns()
        cols["records"] = as_numpy(self.records)
        cols["record_phase"] = as_numpy(self.record_phase)
        cols["meta"] = np.array(json.dumps(meta))
        np.savez_compressed(path, **cols)


# -- per-layer metrics -------------------------------------------------------

STAGE_BIT = {stage: 1 << k for k, stage in enumerate(STAGES)}
EXTRACTOR_BIT = 1 << len(STAGES)
RECURRENT_BIT = EXTRACTOR_BIT << 1


def layer_masks(names, name, parent, value):
    """Bit mask per span of the layers it runs inside, its own included.

    Blocks are named by stage; an op called by the extractor itself, not
    by one of its blocks, belongs to the stem. Parents precede children.
    """
    ids = {n: k for k, n in enumerate(names)}
    ext, block, stack = (ids.get(n, -1) for n in
                         ("blocks.extractor", "blocks.block", "recurrent.stack"))
    ops_ = {ids[n] for n in names if n.startswith("op.")}
    name, parent, value = (np.asarray(a).tolist() for a in (name, parent, value))
    masks = [0] * len(name)
    for i, (nm, p) in enumerate(zip(name, parent)):
        m = masks[p] if p >= 0 else 0
        if nm == ext:
            m |= EXTRACTOR_BIT
        elif nm == block:
            m |= STAGE_BIT[f"s{int(value[i])}"]
        elif nm == stack:
            m |= RECURRENT_BIT
        elif nm in ops_ and p >= 0 and name[p] == ext:
            m |= STAGE_BIT["stem"]
        masks[i] = m
    return np.array(masks, dtype=np.int64)


def per_layer_metrics(tracer, extras):
    """The per-layer metrics of BENCHMARK.json from a traced run's spans.

    Train figures are per optimizer step: timings and counts over the steps
    after the first, bytes of the first (the one run under tracemalloc).
    Score figures are per scored epoch, explain figures per heatmap, and
    ``score.model.checkpoint_load_ms`` per load.
    """
    c = tracer.spans.columns()
    names = list(c["names"])
    ids = {n: k for k, n in enumerate(names)}
    name, phase, origin = c["name"], c["phase"], c["origin"]
    dur = (c["t1"] - c["t0"]) / 1e6
    mem, value = c["mem"], c["value"]
    masks = layer_masks(names, name, c["parent"], value)
    timed = c["tracked"] == 0
    has_origin = origin >= 0
    safe_origin = np.where(has_origin, origin, 0)
    origin_name = np.where(has_origin, name[safe_origin], -1)
    origin_mask = np.where(has_origin, masks[safe_origin], 0)
    is_bwd = name == ids.get("bwd", -1)
    train, score, explain_ = range(len(PHASES))

    def span(phase_, fn, timed_=True):
        return (phase == phase_) & (name == ids.get(fn, -1)) & (timed if timed_ else ~timed)

    def bwd(phase_, op=None, bit=None):
        sel = is_bwd & (phase == phase_) & timed
        if op is not None:
            sel &= origin_name == ids.get(op, -2)
        if bit is not None:
            sel &= (origin_mask & bit) != 0
        return sel

    n_steps = int(span(train, "training.adam_step").sum())
    if n_steps < 1:
        raise ValueError("the traced run needs at least two optimizer steps")
    all_steps = n_steps + 1
    rec, rec_phase = as_numpy(tracer.records), as_numpy(tracer.record_phase)
    rec_mask = np.where(rec >= 0, masks[np.maximum(rec, 0)], 0)

    m = {}
    m["train.data.gather_ms"] = dur[span(train, "data.gather")].sum() / n_steps
    m["train.autodiff.tape_nodes"] = int((rec_phase == train).sum()) / all_steps
    m["train.autodiff.backward_ms"] = dur[span(train, "autodiff.backward")].sum() / n_steps
    m["train.autodiff.retained_mb"] = tracer.held[0] / MB if tracer.held else 0.0
    for kind in OPS:
        op = f"op.{kind}"
        fwd, back = span(train, op), bwd(train, op=op)
        m[f"train.autodiff.{kind}.calls"] = int(fwd.sum()) / n_steps
        m[f"train.autodiff.{kind}.fwd_ms"] = dur[fwd].sum() / n_steps
        m[f"train.autodiff.{kind}.bwd_ms"] = dur[back].sum() / n_steps
        m[f"train.autodiff.{kind}.retained_mb"] = mem[span(train, op, False)].sum() / MB
        if kind in FLOPS:
            m[f"train.autodiff.{kind}.gflop"] = (
                value[fwd].sum() + value[back].sum()) / n_steps / 1e9

    ext, ext_mem = span(train, "blocks.extractor"), span(train, "blocks.extractor", False)
    blk, blk_mem = span(train, "blocks.block"), span(train, "blocks.block", False)
    m["train.blocks.fwd_ms"] = dur[ext].sum() / n_steps
    m["train.blocks.bwd_ms"] = dur[bwd(train, bit=EXTRACTOR_BIT)].sum() / n_steps
    m["train.blocks.retained_mb"] = mem[ext_mem].sum() / MB
    for s, stage in enumerate(STAGES):
        if stage == "stem":
            fwd = dur[ext].sum() - dur[blk].sum()
            held = mem[ext_mem].sum() - mem[blk_mem].sum()
        else:
            fwd = dur[blk & (value == s - 1)].sum()
            held = mem[blk_mem & (value == s - 1)].sum()
        m[f"train.blocks.{stage}.fwd_ms"] = fwd / n_steps
        m[f"train.blocks.{stage}.bwd_ms"] = dur[bwd(train, bit=STAGE_BIT[stage])].sum() / n_steps
        m[f"train.blocks.{stage}.retained_mb"] = held / MB

    m["train.recurrent.fwd_ms"] = dur[span(train, "recurrent.stack")].sum() / n_steps
    m["train.recurrent.bwd_ms"] = dur[bwd(train, bit=RECURRENT_BIT)].sum() / n_steps
    m["train.recurrent.retained_mb"] = mem[span(train, "recurrent.stack", False)].sum() / MB
    m["train.recurrent.tape_nodes"] = int(
        ((rec_phase == train) & ((rec_mask & RECURRENT_BIT) != 0)).sum()) / all_steps
    m["train.training.adam_ms"] = dur[span(train, "training.adam_step")].sum() / n_steps
    m["train.training.loop_ms"] = fit_self_ms(c, ids) / n_steps

    epochs = extras["scored_epochs"]
    s_ext = span(score, "blocks.extractor")
    loads = span(score, "model.checkpoint_load")
    m["score.data.load_ms"] = dur[span(score, "data.load_epochset")].sum() / epochs
    m["score.blocks.ms"] = dur[s_ext].sum() / epochs
    m["score.blocks.epochs_per_scored_epoch"] = value[s_ext].sum() / epochs
    m["score.recurrent.ms"] = dur[span(score, "recurrent.stack")].sum() / epochs
    m["score.model.checkpoint_load_ms"] = dur[loads].sum() / loads.sum()

    maps = int(span(explain_, "explain.gradcam").sum())
    e_bw = span(explain_, "autodiff.backward")
    m["explain.autodiff.tape_nodes"] = int((rec_phase == explain_).sum()) / int(e_bw.sum())
    m["explain.autodiff.backwards"] = int(e_bw.sum()) / maps
    m["explain.autodiff.backward_ms"] = dur[e_bw].sum() / maps
    m["explain.blocks.fwd_ms"] = dur[span(explain_, "blocks.extractor")].sum() / maps
    m["explain.recurrent.fwd_ms"] = dur[span(explain_, "recurrent.stack")].sum() / maps
    m["explain.model.forwards"] = int(span(explain_, "model.forward_batch").sum()) / maps
    return {k: float(v) for k, v in m.items()}


def fit_self_ms(c, ids):
    """Self time of the train phase's ``fit`` call over its timed steps, in ms.

    A step runs from the end of the previous ``adam_step`` to the end of its
    own, so the first step is left out; the fit span's direct children are
    its calls into the other layers.
    """
    train = PHASES.index("train")
    fit = np.flatnonzero((c["name"] == ids.get("training.fit", -1)) & (c["phase"] == train))
    if len(fit) != 1:
        raise ValueError(f"expected one traced fit call, found {len(fit)}")
    f = int(fit[0])
    kids = np.flatnonzero(c["parent"] == f)
    children = list(zip(c["t0"][kids].tolist(), c["t1"][kids].tolist()))
    steps = kids[c["name"][kids] == ids["training.adam_step"]]
    ends = sorted(c["t1"][steps].tolist())
    span = (int(c["t0"][f]), int(c["t1"][f]))
    return sum(self_time_ns(span, children, lo, hi) for lo, hi in zip(ends, ends[1:])) / 1e6
