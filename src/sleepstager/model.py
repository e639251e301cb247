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
Checkpoints serialize every learnable tensor plus batchnorm running state
bit-exactly.
"""

import io
import json
from dataclasses import dataclass, field

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
from .recurrent import build_bilstm_stack, stack_forward

CHECKPOINT_MAGIC = b"SSTG"
CHECKPOINT_VERSION = 1
# epochs per extractor call in eval: at paper scale a call of 32 peaks near
# 230 MB and scores as fast as larger calls
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
        return {
            "window_size": self.window_size,
            "stride_train": self.stride_train,
            **_FIXED_MANIFEST_KEYS,
            "extractor": self.extractor.to_dict(),
            "lstm_hidden": self.lstm_hidden,
            "lstm_depth": self.lstm_depth,
            "sample_rate": self.sample_rate,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        for key, value in _FIXED_MANIFEST_KEYS.items():
            if d[key] != value:
                raise ConfigError(f"{key} is fixed at {value}, got {d[key]}")
        try:
            cfg = cls(
                window_size=int(d["window_size"]),
                stride_train=int(d["stride_train"]),
                extractor=FeatureExtractorConfig.from_dict(d["extractor"]),
                lstm_hidden=int(d["lstm_hidden"]),
                lstm_depth=int(d["lstm_depth"]),
                sample_rate=float(d["sample_rate"]),
                seed=int(d["seed"]),
            )
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
    ``EVAL_BATCH`` epochs, which bounds the memory of the conv maps.
    """
    epochs = np.asarray(epochs)
    if epochs.ndim != 2 or epochs.shape[1] != cfg.epoch_len:
        raise ShapeError(
            f"expected epochs [N, {cfg.epoch_len}], got {epochs.shape}"
        )
    out = np.empty((len(epochs), cfg.extractor.feature_dim))
    for start in range(0, len(epochs), EVAL_BATCH):
        stop = min(start + EVAL_BATCH, len(epochs))
        feats, _ = feature_extractor_forward(
            Tensor(epochs[start:stop, None, :]), cfg.extractor, params.extractor,
            "eval",
        )
        out[start:stop] = feats.data
    return out


# ---------------------------------------------------------------------------
# checkpoints


def _manifest(params, cfg):
    tensors = [
        {"name": name, "shape": list(t.data.shape)}
        for name, t in params.registry.items()
    ]
    state = []
    for name, st in params.states.items():
        state.append(
            {
                "name": name,
                "shape": list(st.running_mean.shape),
                "initialized": bool(st.initialized),
            }
        )
    return {"config": cfg.to_dict(), "tensors": tensors, "state": state}


def checkpoint_save(params, cfg, path):
    manifest = json.dumps(_manifest(params, cfg), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(np.uint32(CHECKPOINT_VERSION).tobytes())
    buf.write(np.uint64(len(manifest)).tobytes())
    buf.write(manifest)
    for t in params.registry.values():
        buf.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    for st in params.states.values():
        buf.write(np.ascontiguousarray(st.running_mean, dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(st.running_var, dtype="<f8").tobytes())
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


def _entries(manifest, key, fields):
    """The manifest's ``key`` list; each entry must be an object that holds
    ``fields`` and a list ``shape``."""
    entries = manifest[key]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and fields <= e.keys() and isinstance(e["shape"], list)
        for e in entries
    ):
        raise CorruptCheckpoint(f"malformed {key} entries in the manifest", field=key)
    return entries


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
        except json.JSONDecodeError as e:
            raise CorruptCheckpoint(f"manifest is not valid JSON: {e}",
                                    field="manifest") from e
        try:
            cfg = StagerConfig.from_dict(manifest["config"])
            tensor_entries = _entries(manifest, "tensors", {"name", "shape"})
            state_entries = _entries(manifest, "state", {"name", "shape", "initialized"})
        except (KeyError, TypeError, ConfigError) as e:
            raise CorruptCheckpoint(f"bad manifest: {e}", field="manifest") from e

        params = build_stager_params(cfg)
        declared = [e["name"] for e in tensor_entries]
        if declared != list(params.registry.keys()):
            raise CorruptCheckpoint(
                "tensor list does not match the declared config", field="tensors"
            )
        for entry in tensor_entries:
            name = entry["name"]
            t = params.registry[name]
            if tuple(entry["shape"]) != t.data.shape:
                raise CorruptCheckpoint(
                    f"declared shape {entry['shape']} != expected "
                    f"{list(t.data.shape)}", field=name
                )
            t.data = _read_array(f, t.data.shape, name)
        if [e["name"] for e in state_entries] != list(params.states.keys()):
            raise CorruptCheckpoint(
                "state list does not match the declared config", field="state"
            )
        for entry in state_entries:
            name = entry["name"]
            st = params.states[name]
            if tuple(entry["shape"]) != st.running_mean.shape:
                raise CorruptCheckpoint(
                    f"declared shape {entry['shape']} != expected "
                    f"{list(st.running_mean.shape)}", field=name
                )
            st.running_mean = _read_array(f, st.running_mean.shape, name)
            st.running_var = _read_array(f, st.running_mean.shape, name)
            st.initialized = bool(entry["initialized"])
        if f.read(1):
            raise CorruptCheckpoint("trailing bytes after payload", field="payload")
    return params, cfg
