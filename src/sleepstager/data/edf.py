"""EDF/EDF+ reader and writer.

Layout per the format: a 256-byte ASCII main header, 256 bytes of header
per signal (field-major: all labels, then all transducers, ...), then data
records of interleaved 2-byte little-endian two's-complement samples.
Digital values map to physical units through the per-signal calibration:

    phys = (dig - dig_min) * (phys_max - phys_min) / (dig_max - dig_min) + phys_min

Signals labeled "EDF Annotations" carry EDF+ timestamped annotation lists
(TALs) instead of samples; their raw bytes are kept for the hypnogram
parser.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ChannelNotFound, IoError, ParseError

ANNOTATION_LABEL = "EDF Annotations"

# (name, width) of the fixed main-header fields, in file order
_MAIN_FIELDS = (
    ("version", 8),
    ("patient_id", 80),
    ("recording_id", 80),
    ("start_date", 8),
    ("start_time", 8),
    ("header_bytes", 8),
    ("reserved", 44),
    ("n_records", 8),
    ("record_duration", 8),
    ("n_signals", 4),
)

# (name, width) of the per-signal fields, in file order
_SIGNAL_FIELDS = (
    ("label", 16),
    ("transducer", 80),
    ("physical_dim", 8),
    ("phys_min", 8),
    ("phys_max", 8),
    ("dig_min", 8),
    ("dig_max", 8),
    ("prefilter", 80),
    ("samples_per_record", 8),
    ("reserved", 32),
)


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


def _ascii(raw, offset, width, fname):
    chunk = raw[offset : offset + width]
    try:
        return chunk.decode("ascii")
    except UnicodeDecodeError as e:
        raise ParseError(f"non-ASCII bytes: {chunk!r}", offset=offset, field=fname) from e


def _numeric(raw, offset, width, fname, kind):
    text = _ascii(raw, offset, width, fname).strip()
    try:
        return kind(text)
    except ValueError as e:
        raise ParseError(
            f"expected a number, got {text!r}", offset=offset, field=fname
        ) from e


def parse_edf(data):
    """Parse an EDF byte string into an :class:`EdfRecording`."""
    if len(data) < 256:
        raise ParseError(
            f"file is {len(data)} bytes, shorter than the 256-byte header",
            offset=len(data), field="header",
        )
    fields = {}
    offset = 0
    for fname, width in _MAIN_FIELDS:
        fields[fname] = (offset, width)
        offset += width

    def main_str(fname):
        off, width = fields[fname]
        return _ascii(data, off, width, fname).strip()

    def main_num(fname, kind):
        off, width = fields[fname]
        return _numeric(data, off, width, fname, kind)

    version = main_str("version")
    n_records = main_num("n_records", int)
    record_duration = main_num("record_duration", float)
    n_signals = main_num("n_signals", int)
    if n_signals < 1:
        raise ParseError(f"signal count {n_signals} < 1",
                         offset=fields["n_signals"][0], field="n_signals")
    if n_records < 0:
        raise ParseError(f"record count {n_records} < 0",
                         offset=fields["n_records"][0], field="n_records")
    if record_duration <= 0:
        raise ParseError(f"record duration {record_duration} <= 0",
                         offset=fields["record_duration"][0],
                         field="record_duration")

    header_len = 256 + 256 * n_signals
    if len(data) < header_len:
        raise ParseError(
            f"file ends inside the signal headers ({len(data)} < {header_len})",
            offset=len(data), field="signal_headers",
        )

    declared_header_bytes = main_num("header_bytes", int)
    if declared_header_bytes != header_len:
        raise ParseError(
            f"declared header size {declared_header_bytes} != {header_len}",
            offset=fields["header_bytes"][0], field="header_bytes",
        )

    # per-signal headers are field-major
    signals = []
    base = 256
    columns = {}
    for fname, width in _SIGNAL_FIELDS:
        columns[fname] = (base, width)
        base += width * n_signals
    for i in range(n_signals):
        def col_str(fname):
            off, width = columns[fname]
            return _ascii(data, off + i * width, width, f"{fname}[{i}]").strip()

        def col_num(fname, kind):
            off, width = columns[fname]
            return _numeric(data, off + i * width, width, f"{fname}[{i}]", kind)

        sig = EdfSignal(
            label=col_str("label"),
            transducer=col_str("transducer"),
            physical_dim=col_str("physical_dim"),
            phys_min=col_num("phys_min", float),
            phys_max=col_num("phys_max", float),
            dig_min=col_num("dig_min", int),
            dig_max=col_num("dig_max", int),
            prefilter=col_str("prefilter"),
            samples_per_record=col_num("samples_per_record", int),
        )
        if sig.dig_min >= sig.dig_max:
            off, width = columns["dig_min"]
            raise ParseError(
                f"dig_min {sig.dig_min} >= dig_max {sig.dig_max}",
                offset=off + i * width, field=f"dig_min[{i}]",
            )
        if sig.phys_min == sig.phys_max:
            off, width = columns["phys_min"]
            raise ParseError(
                f"phys_min == phys_max == {sig.phys_min}",
                offset=off + i * width, field=f"phys_min[{i}]",
            )
        if sig.samples_per_record < 1:
            off, width = columns["samples_per_record"]
            raise ParseError(
                f"samples_per_record {sig.samples_per_record} < 1",
                offset=off + i * width, field=f"samples_per_record[{i}]",
            )
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
    digital = []
    start = 0
    for sig in signals:
        digital.append(
            np.ascontiguousarray(raw[:, start : start + sig.samples_per_record])
            .reshape(-1)
        )
        start += sig.samples_per_record

    physical = []
    annotation_parts = []
    for sig, dig in zip(signals, digital):
        if sig.label == ANNOTATION_LABEL:
            physical.append(None)
            annotation_parts.append(dig.tobytes())
        else:
            gain = (sig.phys_max - sig.phys_min) / (sig.dig_max - sig.dig_min)
            physical.append((dig.astype(np.float64) - sig.dig_min) * gain
                            + sig.phys_min)

    return EdfRecording(
        version=version,
        patient_id=main_str("patient_id"),
        recording_id=main_str("recording_id"),
        start_date=main_str("start_date"),
        start_time=main_str("start_time"),
        n_records=n_records,
        record_duration=record_duration,
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


def _fit(text, width, fname):
    raw = str(text).encode("ascii")
    if len(raw) > width:
        raise ParseError(f"value {text!r} exceeds field width {width}", field=fname)
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

    n_signals = len(prepared)
    header_len = 256 + 256 * n_signals
    out = bytearray()
    out += _fit("0", 8, "version")
    out += _fit(patient_id, 80, "patient_id")
    out += _fit(recording_id, 80, "recording_id")
    out += _fit(start_date, 8, "start_date")
    out += _fit(start_time, 8, "start_time")
    out += _fit(header_len, 8, "header_bytes")
    out += _fit("", 44, "reserved")
    out += _fit(records, 8, "n_records")
    out += _fit(f"{record_duration:g}", 8, "record_duration")
    out += _fit(n_signals, 4, "n_signals")

    def column(fname, values, width):
        for v in values:
            out.extend(_fit(v, width, fname))

    column("label", [s["label"] for s, _, _ in prepared], 16)
    column("transducer", [s.get("transducer", "") for s, _, _ in prepared], 80)
    column("physical_dim", [s.get("physical_dim", "") for s, _, _ in prepared], 8)
    column("phys_min", [f"{s['phys_min']:g}" for s, _, _ in prepared], 8)
    column("phys_max", [f"{s['phys_max']:g}" for s, _, _ in prepared], 8)
    column("dig_min", [s["dig_min"] for s, _, _ in prepared], 8)
    column("dig_max", [s["dig_max"] for s, _, _ in prepared], 8)
    column("prefilter", [s.get("prefilter", "") for s, _, _ in prepared], 80)
    column("samples_per_record", [spr for _, spr, _ in prepared], 8)
    column("reserved", ["" for _ in prepared], 32)

    for r in range(records):
        for _, spr, dig in prepared:
            out += dig[r * spr : (r + 1) * spr].tobytes()
    return bytes(out)
