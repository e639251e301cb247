"""Labeled 30-second epochs: slicing, normalization, and the SEPC cache.

An ``EpochSet`` holds one recording's epochs ``[N, L]``, their stage
labels, the subject id, the sample rate and, for synthetic recordings, the
ground-truth event intervals of each epoch. The cache stores all of it but
the events. Its layout is: magic "SEPC", u32 version, u16 subject-id
length + utf-8 bytes, f64 sample rate, u64 N, u64 L, N stage bytes, then
N*L little-endian f32 samples.

A set read from a cache keeps its samples as float32, half the memory of
float64. The model and ``normalize_recording`` widen them to float64 as
they read them; the widening is exact, so a cached set trains, scores and
explains to the same bits as a float64 copy of it.
"""

from dataclasses import dataclass, field

import numpy as np

from .. import EXCLUDED, NUM_STAGES, epoch_samples
from ..errors import (
    ConfigError,
    CorruptCache,
    DegenerateSignal,
    InvalidInput,
    IoError,
)

CACHE_MAGIC = b"SEPC"
CACHE_VERSION = 1


@dataclass
class EpochSet:
    """A recording cut into labeled 30 s epochs for one subject.

    ``events`` optionally carries per-epoch ground-truth intervals
    (kind, start_s, end_s) used by localization experiments; it is not
    persisted in the cache format.
    """

    epochs: np.ndarray  # [N, L] float64, or float32 as read from a cache
    labels: np.ndarray  # [N] int8 in 0..4
    subject_id: str
    sample_rate: float
    events: list | None = field(default=None, repr=False)

    def __post_init__(self):
        if np.asarray(self.epochs).dtype != np.float32:
            self.epochs = np.asarray(self.epochs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.epochs.ndim != 2:
            raise InvalidInput(f"epochs must be [N, L], got {self.epochs.shape}")
        if len(self.labels) != len(self.epochs):
            raise InvalidInput("labels and epochs disagree on length")
        if np.any(self.labels < 0) or np.any(self.labels >= NUM_STAGES):
            raise InvalidInput("labels must be stage indices 0..4")
        if self.epochs.shape[1] != epoch_samples(self.sample_rate):
            raise ConfigError(
                f"epoch length {self.epochs.shape[1]} != 30 s at "
                f"{self.sample_rate} Hz"
            )

    def __len__(self):
        return len(self.labels)

    @property
    def epoch_len(self):
        return self.epochs.shape[1]

    def stage_counts(self):
        return np.bincount(self.labels, minlength=NUM_STAGES)


def epochize(recording, channel_name, hypnogram, subject_id="subject"):
    """Slice one channel into the hypnogram's 30 s epochs, dropping EXCLUDED.

    Epochs whose samples run past the end of the signal are dropped, as are
    hypnogram entries beyond the recorded duration.
    """
    signal = recording.channel(channel_name)
    rate = recording.sample_rate(channel_name)
    l_epoch = epoch_samples(rate)
    n_available = len(signal) // l_epoch
    n = min(len(hypnogram), n_available)
    keep = [i for i in range(n) if hypnogram[i] != EXCLUDED]
    if not keep:
        return EpochSet(
            np.empty((0, l_epoch)), np.empty(0, dtype=np.int8), subject_id, rate
        )
    rows = np.stack([signal[i * l_epoch : (i + 1) * l_epoch] for i in keep])
    labels = hypnogram[keep].astype(np.int8)
    return EpochSet(rows, labels, subject_id, rate)


def normalize_recording(es, scheme):
    """Affine normalization; labels and metadata pass through untouched."""
    if scheme == "none":
        return es
    x = np.asarray(es.epochs, dtype=np.float64)
    if scheme == "zscore_per_recording":
        flat = x.reshape(-1)
        std = flat.std()
        if std < 1e-12:
            raise DegenerateSignal("recording has (near-)zero variance")
        epochs = (x - flat.mean()) / std
    elif scheme == "zscore_per_epoch":
        std = x.std(axis=1, keepdims=True)
        if np.any(std < 1e-12):
            raise DegenerateSignal("an epoch has (near-)zero variance")
        epochs = (x - x.mean(axis=1, keepdims=True)) / std
    else:
        raise ConfigError(f"unknown normalization scheme {scheme!r}")
    return EpochSet(epochs, es.labels.copy(), es.subject_id, es.sample_rate,
                    events=es.events)


def save_epochset(es, path):
    try:
        with open(path, "wb") as f:
            f.write(CACHE_MAGIC)
            f.write(np.uint32(CACHE_VERSION).tobytes())
            sid = es.subject_id.encode("utf-8")
            f.write(np.uint16(len(sid)).tobytes())
            f.write(sid)
            f.write(np.float64(es.sample_rate).astype("<f8").tobytes())
            f.write(np.uint64(len(es)).tobytes())
            f.write(np.uint64(es.epoch_len).tobytes())
            f.write(es.labels.astype(np.uint8).tobytes())
            f.write(np.ascontiguousarray(es.epochs, dtype="<f4").tobytes())
    except OSError as e:
        raise IoError(f"cannot write epoch cache {path}: {e}") from e


def _need(f, n, field_name):
    data = f.read(n)
    if len(data) != n:
        raise CorruptCache(
            f"cache ends after {len(data)} of {n} expected bytes", field=field_name
        )
    return data


def load_epochset(path):
    """Read a SEPC cache."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise IoError(f"cannot read epoch cache {path}: {e}") from e
    with f:
        if f.read(4) != CACHE_MAGIC:
            raise CorruptCache("bad cache magic", field="magic")
        version = int(np.frombuffer(_need(f, 4, "version"), dtype="<u4")[0])
        if version != CACHE_VERSION:
            raise CorruptCache(f"unsupported cache version {version}",
                                    field="version")
        sid_len = int(np.frombuffer(_need(f, 2, "subject_id"), dtype="<u2")[0])
        raw_id = _need(f, sid_len, "subject_id")
        try:
            subject_id = raw_id.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptCache(f"subject id is not UTF-8: {e}", field="subject_id") from e
        rate = float(np.frombuffer(_need(f, 8, "sample_rate"), dtype="<f8")[0])
        n = int(np.frombuffer(_need(f, 8, "n_epochs"), dtype="<u8")[0])
        l_epoch = int(np.frombuffer(_need(f, 8, "epoch_len"), dtype="<u8")[0])
        try:
            expected = epoch_samples(rate)
        except ConfigError as e:
            raise CorruptCache(str(e), field="sample_rate") from e
        if l_epoch != expected:
            raise CorruptCache(f"epoch length {l_epoch} != 30 s at {rate} Hz",
                               field="sample_rate")
        stages = np.frombuffer(_need(f, n, "labels"), dtype=np.uint8)
        if n and stages.max() >= NUM_STAGES:
            raise CorruptCache(
                f"stage byte {stages.max()} outside 0..{NUM_STAGES - 1}",
                field="labels",
            )
        samples = np.empty((n, l_epoch), dtype="<f4")
        got = f.readinto(samples)
        if got != samples.nbytes:
            raise CorruptCache(
                f"cache ends after {got} of {samples.nbytes} expected bytes",
                field="samples",
            )
        if f.read(1):
            raise CorruptCache("trailing bytes after samples", field="samples")
    return EpochSet(samples, stages, subject_id, rate)
