"""EDF/EDF+ reader and writer.

Layout per the format: a 256-byte ASCII main header, 256 bytes of header
per signal (field-major: all labels, then all transducers, ...), then data
records of interleaved 2-byte little-endian two's-complement samples.
Digital values map to physical units through the per-signal calibration:

    phys = (dig - dig_min) * (phys_max - phys_min) / (dig_max - dig_min) + phys_min

One table per header (``_MAIN_FIELDS``, ``_SIGNAL_FIELDS``) states each
field's name, width and type; the reader and the writer both walk it.

Signals labeled "EDF Annotations" carry EDF+ timestamped annotation lists
(TALs) instead of samples; their raw bytes are kept for the hypnogram
parser.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ChannelNotFound, IoError, ParseError

ANNOTATION_LABEL = "EDF Annotations"

# (name, width, type) of the fixed main-header fields, in file order; the
# reserved field has no type and is neither read nor checked
_MAIN_FIELDS = (
    ("version", 8, str),
    ("patient_id", 80, str),
    ("recording_id", 80, str),
    ("start_date", 8, str),
    ("start_time", 8, str),
    ("header_bytes", 8, int),
    ("reserved", 44, None),
    ("n_records", 8, int),
    ("record_duration", 8, float),
    ("n_signals", 4, int),
)

# (name, width, type) of the per-signal fields, in file order
_SIGNAL_FIELDS = (
    ("label", 16, str),
    ("transducer", 80, str),
    ("physical_dim", 8, str),
    ("phys_min", 8, float),
    ("phys_max", 8, float),
    ("dig_min", 8, int),
    ("dig_max", 8, int),
    ("prefilter", 80, str),
    ("samples_per_record", 8, int),
    ("reserved", 32, None),
)

_MAIN_BYTES = sum(width for _, width, _ in _MAIN_FIELDS)
_SIGNAL_BYTES = sum(width for _, width, _ in _SIGNAL_FIELDS)  # per signal


@dataclass
class EdfSignal:
    label: str
    transducer: str
    physical_dim: str
    phys_min: float
    phys_max: float
    dig_min: int
    dig_max: int
    prefilter: str
    samples_per_record: int


@dataclass
class EdfRecording:
    version: str
    patient_id: str
    recording_id: str
    start_date: str
    start_time: str
    n_records: int
    record_duration: float
    signals: list
    data: list  # physical float64 arrays; None for annotation signals
    annotation_bytes: bytes = b""
    digital: list = field(default_factory=list)  # int16 arrays, same order

    def signal_index(self, label):
        labels = [s.label for s in self.signals]
        try:
            return labels.index(label)
        except ValueError:
            raise ChannelNotFound(
                f"channel {label!r} not in recording; available: {labels}"
            ) from None

    def channel(self, label):
        i = self.signal_index(label)
        if self.data[i] is None:
            raise ChannelNotFound(f"{label!r} is an annotation stream, not a signal")
        return self.data[i]

    def sample_rate(self, label):
        i = self.signal_index(label)
        return self.signals[i].samples_per_record / self.record_duration


def _read_field(raw, offset, width, field, kind):
    """The stripped ASCII text of one header cell, converted by ``kind``."""
    chunk = raw[offset : offset + width]
    try:
        text = chunk.decode("ascii").strip()
    except UnicodeDecodeError as e:
        raise ParseError(f"non-ASCII bytes: {chunk!r}", offset=offset, field=field) from e
    try:
        return kind(text)
    except ValueError as e:
        raise ParseError(
            f"expected a number, got {text!r}", offset=offset, field=field
        ) from e


def _offsets(table, base=0, n=1, i=0):
    """Where cell ``i`` of each field starts, in a block of ``n`` cells per
    field from ``base`` on."""
    offsets = {}
    for name, width, _ in table:
        offsets[name] = base + i * width
        base += n * width
    return offsets


def _read_fields(raw, table, offsets, suffix=""):
    """Each typed field's value, by name."""
    return {
        name: _read_field(raw, offsets[name], width, name + suffix, kind)
        for name, width, kind in table
        if kind is not None
    }


def _check(checks, offsets, suffix=""):
    """Raise on the first ``(field, failed, message)`` that failed."""
    for name, failed, message in checks:
        if failed:
            raise ParseError(message, offset=offsets[name], field=name + suffix)


def parse_edf(data):
    """Parse an EDF byte string into an :class:`EdfRecording`."""
    if len(data) < _MAIN_BYTES:
        raise ParseError(
            f"file is {len(data)} bytes, shorter than the {_MAIN_BYTES}-byte header",
            offset=len(data), field="header",
        )
    at = _offsets(_MAIN_FIELDS)
    head = _read_fields(data, _MAIN_FIELDS, at)
    n_signals = head.pop("n_signals")
    n_records, duration = head["n_records"], head["record_duration"]
    _check([
        ("n_signals", n_signals < 1, f"signal count {n_signals} < 1"),
        ("n_records", n_records < 0, f"record count {n_records} < 0"),
        ("record_duration", duration <= 0, f"record duration {duration} <= 0"),
    ], at)

    header_len = _MAIN_BYTES + _SIGNAL_BYTES * n_signals
    if len(data) < header_len:
        raise ParseError(
            f"file ends inside the signal headers ({len(data)} < {header_len})",
            offset=len(data), field="signal_headers",
        )
    declared = head.pop("header_bytes")
    _check([("header_bytes", declared != header_len,
             f"declared header size {declared} != {header_len}")], at)

    signals = []
    for i in range(n_signals):
        at = _offsets(_SIGNAL_FIELDS, _MAIN_BYTES, n_signals, i)
        sig = EdfSignal(**_read_fields(data, _SIGNAL_FIELDS, at, f"[{i}]"))
        _check([
            ("dig_min", sig.dig_min >= sig.dig_max,
             f"dig_min {sig.dig_min} >= dig_max {sig.dig_max}"),
            ("phys_min", sig.phys_min == sig.phys_max,
             f"phys_min == phys_max == {sig.phys_min}"),
            ("samples_per_record", sig.samples_per_record < 1,
             f"samples_per_record {sig.samples_per_record} < 1"),
        ], at, f"[{i}]")
        signals.append(sig)

    record_samples = sum(s.samples_per_record for s in signals)
    need = header_len + n_records * record_samples * 2
    if len(data) < need:
        raise ParseError(
            f"declared {n_records} records need {need} bytes, file has {len(data)}",
            offset=len(data), field="data_records",
        )

    raw = np.frombuffer(data, dtype="<i2", offset=header_len,
                        count=n_records * record_samples)
    raw = raw.reshape(n_records, record_samples)
    digital, physical, annotation_parts = [], [], []
    start = 0
    for sig in signals:
        stop = start + sig.samples_per_record
        dig = np.ascontiguousarray(raw[:, start:stop]).reshape(-1)
        digital.append(dig)
        start = stop
        if sig.label == ANNOTATION_LABEL:
            physical.append(None)
            annotation_parts.append(dig.tobytes())
        else:
            gain = (sig.phys_max - sig.phys_min) / (sig.dig_max - sig.dig_min)
            physical.append((dig.astype(np.float64) - sig.dig_min) * gain
                            + sig.phys_min)

    return EdfRecording(
        **head,
        signals=signals,
        data=physical,
        annotation_bytes=b"".join(annotation_parts),
        digital=digital,
    )


def parse_edf_file(path):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise IoError(f"cannot read EDF file {path}: {e}") from e
    return parse_edf(data)


def _fit(value, width, field, kind):
    """One header cell: floats as ``:g``, anything else as ``str``."""
    text = f"{value:g}" if kind is float else value
    raw = str(text).encode("ascii")
    if len(raw) > width:
        raise ParseError(f"value {text!r} exceeds field width {width}", field=field)
    return raw.ljust(width)


def write_edf(signals, *, patient_id="X", recording_id="X", start_date="01.01.00",
              start_time="00.00.00", record_duration=1.0, n_records=None):
    """Serialize signals to EDF bytes.

    ``signals`` is a list of dicts with keys ``label``, ``phys_min``,
    ``phys_max``, ``dig_min``, ``dig_max``, ``samples_per_record`` and
    ``digital`` (an int16 array of n_records * samples_per_record values;
    raw TAL bytes may be given instead for annotation signals). Optional:
    ``transducer``, ``physical_dim``, ``prefilter``.
    """
    prepared = []
    counts = set()
    for spec in signals:
        spr = int(spec["samples_per_record"])
        payload = spec["digital"]
        if isinstance(payload, (bytes, bytearray)):
            if len(payload) % 2:
                raise ParseError("annotation byte payload must be even-length",
                                 field=spec["label"])
            dig = np.frombuffer(bytes(payload), dtype="<i2")
        else:
            dig = np.asarray(payload, dtype="<i2")
        if dig.size % spr:
            raise ParseError(
                f"digital length {dig.size} not a multiple of {spr}",
                field=spec["label"],
            )
        counts.add(dig.size // spr)
        prepared.append((spec, spr, dig))
    if len(counts) != 1:
        raise ParseError(f"signals disagree on record count: {sorted(counts)}",
                         field="n_records")
    records = counts.pop()
    if n_records is not None and n_records != records:
        raise ParseError(f"n_records {n_records} != data-implied {records}",
                         field="n_records")

    head = {
        "version": "0", "patient_id": patient_id, "recording_id": recording_id,
        "start_date": start_date, "start_time": start_time, "n_records": records,
        "header_bytes": _MAIN_BYTES + _SIGNAL_BYTES * len(prepared),
        "record_duration": record_duration, "n_signals": len(prepared),
    }
    columns = [
        {"transducer": "", "physical_dim": "", "prefilter": "", **spec,
         "samples_per_record": spr}
        for spec, spr, _ in prepared
    ]
    out = bytearray()
    for name, width, kind in _MAIN_FIELDS:
        out += _fit(head[name] if kind else "", width, name, kind)
    for name, width, kind in _SIGNAL_FIELDS:
        for values in columns:
            out += _fit(values[name] if kind else "", width, name, kind)

    for r in range(records):
        for _, spr, dig in prepared:
            out += dig[r * spr : (r + 1) * spr].tobytes()
    return bytes(out)
