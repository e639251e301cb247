"""The full stager: feature extractor + Bi-LSTM stack + middle-epoch head.

A window of W consecutive epochs runs through the shared extractor, the
per-epoch features form a sequence for the stacked Bi-LSTM, and one linear
softmax head reads the stack's state at the middle position (W-1)/2, the
one position the stack computes in its last layer. To
score a whole recording, ``encode_epochs`` encodes each epoch once, in
extractor calls of ``EVAL_BATCH`` epochs, and ``classify`` reads windows of
the features. Every entry point takes a batch: windows ``[B, W, L]`` in
``forward_batch`` and a recording's epochs ``[N, L]`` in ``encode_epochs``;
training, scoring and GradCAM all end in the head ``classify``.
A checkpoint's payload holds, bit-exactly and in this order, every learnable
tensor, then each batchnorm state's running mean and running variance.
"""

import io
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import NUM_STAGES, epoch_samples
from .autodiff import (
    Tensor,
    add_rowvec,
    log_softmax,
    matmul,
    take_rows,
    transpose,
)
from .blocks import (
    FeatureExtractorConfig,
    ParamBuilder,
    build_extractor,
    feature_extractor_forward,
)
from .errors import ConfigError, CorruptCheckpoint, IoError, ShapeError
from .parallel import map_passes, pass_workers
from .recurrent import build_bilstm_stack, stack_forward

CHECKPOINT_MAGIC = b"SSTG"
CHECKPOINT_VERSION = 1
# epochs per extractor call in eval: at paper scale a call of 32 peaks near
# 230 MB and scores as fast as larger calls. Calls that run at once on
# worker threads hold at most this many epochs together.
EVAL_BATCH = 32
# manifest keys with one legal value: checkpoints still carry them, so the
# file format is unchanged, but no config can set them
_FIXED_MANIFEST_KEYS = {
    "stride_eval": 1,
    "num_classes": NUM_STAGES,
    "head_widths": [NUM_STAGES],
}


@dataclass
class StagerConfig:
    window_size: int = 9
    stride_train: int = 4
    extractor: FeatureExtractorConfig = field(
        default_factory=FeatureExtractorConfig.create
    )
    lstm_hidden: int = 128
    lstm_depth: int = 3
    sample_rate: float = 100.0
    seed: int = 0

    def validate(self):
        if self.window_size < 1 or self.window_size % 2 == 0:
            raise ConfigError(
                f"window_size must be odd and >= 1, got {self.window_size}"
            )
        if self.stride_train < 1:
            raise ConfigError("stride_train must be >= 1")
        if self.lstm_hidden < 1 or self.lstm_depth < 1:
            raise ConfigError("lstm hidden size and depth must be >= 1")
        epoch_samples(self.sample_rate)  # raises unless the epoch is whole
        self.extractor.validate()
        return self

    @property
    def epoch_len(self):
        return epoch_samples(self.sample_rate)

    @property
    def middle_index(self):
        return (self.window_size - 1) // 2

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**d, **_FIXED_MANIFEST_KEYS, "extractor": self.extractor.to_dict()}

    @classmethod
    def from_dict(cls, d):
        for key, value in _FIXED_MANIFEST_KEYS.items():
            if d[key] != value:
                raise ConfigError(f"{key} is fixed at {value}, got {d[key]}")
        try:
            numbers = {f.name: f.type(d[f.name]) for f in fields(cls)
                       if f.name != "extractor"}
            cfg = cls(**numbers,
                      extractor=FeatureExtractorConfig.from_dict(d["extractor"]))
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"manifest value is not a usable number: {e}") from e
        return cfg.validate()


@dataclass
class StagerParams:
    extractor: object
    stack: list  # Bi-LSTM layers [(forward cell, backward cell), ...]
    head: tuple  # (w [5, 2H], b [5])
    registry: dict  # stable name -> learnable Tensor
    states: dict  # batchnorm name -> BatchNormState


def build_stager_params(cfg):
    cfg.validate()
    builder = ParamBuilder(cfg.seed)
    extractor = build_extractor(builder, cfg.extractor)
    stack = build_bilstm_stack(
        builder, "lstm", cfg.extractor.feature_dim, cfg.lstm_hidden, cfg.lstm_depth
    )
    head = (
        builder.weight("head.0.w", [NUM_STAGES, 2 * cfg.lstm_hidden]),
        builder.const("head.0.b", [NUM_STAGES]),
    )
    return StagerParams(extractor, stack, head, builder.registry, builder.states)


@dataclass
class WindowForward:
    log_probs: Tensor  # [B, 5]


def classify(feats, spans, params, cfg):
    """Log-probabilities ``[B, 5]`` of windows of per-epoch features.

    Row ``b`` of ``spans`` ``[B, W]`` lists the rows of ``feats`` that make
    window b. The Bi-LSTM reads them in order and returns its state at the
    middle position alone (``stack_forward``), which the head classifies.
    """
    seq = [take_rows(feats, spans[:, t]) for t in range(cfg.window_size)]
    middle = stack_forward(seq, params.stack)
    w, b = params.head
    logits = add_rowvec(matmul(middle, transpose(w)), b)
    return log_softmax(logits)


def window_epochs(windows, cfg):
    """Check windows ``[B, W, L_epoch]``; return their epochs ``[B*W, 1, L_epoch]``."""
    arr = np.asarray(windows, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"expected windows [B, W, L], got {arr.shape}")
    b, w, l = arr.shape
    if w != cfg.window_size:
        raise ShapeError(f"window size {w} != configured {cfg.window_size}")
    if l != cfg.epoch_len:
        raise ShapeError(f"epoch length {l} != configured {cfg.epoch_len}")
    return arr.reshape(b * w, 1, l)


def forward_batch(windows, params, cfg, mode):
    """Run an array of windows ``[B, W, L_epoch]`` through the full model."""
    x = Tensor(window_epochs(windows, cfg))
    feats, _ = feature_extractor_forward(x, cfg.extractor, params.extractor, mode)
    rows = np.arange(len(x.data)).reshape(-1, cfg.window_size)
    return WindowForward(log_probs=classify(feats, rows, params, cfg))


def encode_epochs(epochs, params, cfg):
    """Eval-mode extractor features ``[N, D]`` of epochs ``[N, L_epoch]``.

    Each epoch goes through the extractor once, in calls of at most
    ``EVAL_BATCH`` epochs, which bounds the memory of the conv maps. Calls
    large enough to gain run on one thread per core (``parallel``), each
    of at most ``EVAL_BATCH // workers`` epochs.
    """
    epochs = np.asarray(epochs)
    if epochs.ndim != 2 or epochs.shape[1] != cfg.epoch_len:
        raise ShapeError(
            f"expected epochs [N, {cfg.epoch_len}], got {epochs.shape}"
        )
    n = len(epochs)
    # decided on the size of one serial call; the parts that then run at
    # once hold at most EVAL_BATCH epochs together, split evenly when fewer
    workers = pass_workers(cfg, min(n, EVAL_BATCH))
    size = max(1, min(EVAL_BATCH // workers, -(-n // workers)))

    def encode(start):
        feats, _ = feature_extractor_forward(
            Tensor(epochs[start:start + size, None, :]), cfg.extractor,
            params.extractor, "eval",
        )
        return feats.data

    starts = range(0, n, size)
    out = np.empty((n, cfg.extractor.feature_dim))
    for start, feats in zip(starts, map_passes(encode, starts, workers)):
        out[start:start + size] = feats
    return out


# ---------------------------------------------------------------------------
# checkpoints


def _manifest(params, cfg):
    tensors = [{"name": name, "shape": list(t.data.shape)}
               for name, t in params.registry.items()]
    state = [{"name": name, "shape": list(st.running_mean.shape),
              "initialized": bool(st.initialized)}
             for name, st in params.states.items()]
    return {"config": cfg.to_dict(), "tensors": tensors, "state": state}


def _payload(params):
    """The payload's arrays in file order, as ``(name, owner, attribute)``."""
    for name, t in params.registry.items():
        yield name, t, "data"
    for name, st in params.states.items():
        yield name, st, "running_mean"
        yield name, st, "running_var"


def checkpoint_save(params, cfg, path):
    manifest = json.dumps(_manifest(params, cfg), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(np.uint32(CHECKPOINT_VERSION).tobytes())
    buf.write(np.uint64(len(manifest)).tobytes())
    buf.write(manifest)
    for _, owner, attr in _payload(params):
        buf.write(np.ascontiguousarray(getattr(owner, attr), dtype="<f8").tobytes())
    try:
        with open(path, "wb") as f:
            f.write(buf.getvalue())
    except OSError as e:
        raise IoError(f"cannot write checkpoint {path}: {e}") from e


def _read_exact(f, n, field):
    data = f.read(n)
    if len(data) != n:
        raise CorruptCheckpoint(
            f"file ends after {len(data)} of {n} expected bytes", field=field
        )
    return data


def _read_array(f, shape, field):
    count = int(np.prod(shape))
    raw = _read_exact(f, count * 8, field)
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if not np.all(np.isfinite(arr)):
        raise CorruptCheckpoint("non-finite values in payload", field=field)
    return arr


def _check_entries(entries, key, noun, expected):
    """Check a manifest list against the ``expected`` entries the config
    writes: their fields, a list ``shape``, then the names and shapes."""
    required = set().union(*expected)  # the fields of the expected entries
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and required <= e.keys() and isinstance(e["shape"], list)
        for e in entries
    ):
        raise CorruptCheckpoint(f"malformed {key} entries in the manifest", field=key)
    if [e["name"] for e in entries] != [e["name"] for e in expected]:
        raise CorruptCheckpoint(
            f"{noun} list does not match the declared config", field=key
        )
    for entry, want in zip(entries, expected):
        if entry["shape"] != want["shape"]:
            raise CorruptCheckpoint(
                f"declared shape {entry['shape']} != expected {want['shape']}",
                field=entry["name"],
            )


def checkpoint_load(path):
    """Rebuild ``(params, config)`` from a checkpoint file, bit-exactly."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise IoError(f"cannot read checkpoint {path}: {e}") from e
    with f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CorruptCheckpoint(f"bad magic {magic!r}", field="magic")
        version = int(np.frombuffer(_read_exact(f, 4, "version"), dtype="<u4")[0])
        if version != CHECKPOINT_VERSION:
            raise CorruptCheckpoint(f"unsupported version {version}", field="version")
        mlen = int(np.frombuffer(_read_exact(f, 8, "manifest_len"), dtype="<u8")[0])
        try:
            manifest = json.loads(_read_exact(f, mlen, "manifest"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise CorruptCheckpoint(f"manifest is not valid JSON: {e}",
                                    field="manifest") from e
        try:
            cfg = StagerConfig.from_dict(manifest["config"])
            tensors, state = manifest["tensors"], manifest["state"]
        except (KeyError, TypeError, ConfigError) as e:
            raise CorruptCheckpoint(f"bad manifest: {e}", field="manifest") from e

        params = build_stager_params(cfg)
        expected = _manifest(params, cfg)
        _check_entries(tensors, "tensors", "tensor", expected["tensors"])
        _check_entries(state, "state", "state", expected["state"])
        for entry, st in zip(state, params.states.values()):
            st.initialized = bool(entry["initialized"])
        for name, owner, attr in _payload(params):
            setattr(owner, attr, _read_array(f, getattr(owner, attr).shape, name))
        if f.read(1):
            raise CorruptCheckpoint("trailing bytes after payload", field="payload")
    return params, cfg
