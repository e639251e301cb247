"""Hypnogram ingestion: stage-label mapping and annotation expansion.

Accepts EDF+ annotation streams (TALs) or a CSV of
``onset_s,duration_s,stage_string`` rows; a file's suffix tells which.
Both R&K (stages 1-4) and AASM (N1-N3) vocabularies map onto the
five-class scheme; legacy stages 3 and 4 merge into N3, and
movement/unknown epochs are marked EXCLUDED so they never reach training
or metrics. A hypnogram is the ``int8`` array of its epochs' labels: a
stage index 0..4, or EXCLUDED.
"""

import logging

import numpy as np

from .. import EPOCH_SECONDS, EXCLUDED, STAGE_TO_INDEX
from ..errors import AnnotationError, IoError
from .edf import parse_edf

log = logging.getLogger(__name__)

_STAGE_ALIASES = {
    "W": "W",
    "WAKE": "W",
    "0": "W",
    "1": "N1",
    "N1": "N1",
    "2": "N2",
    "N2": "N2",
    "3": "N3",
    "N3": "N3",
    "4": "N3",  # legacy R&K stage 4 folds into N3
    "N4": "N3",
    "R": "REM",
    "REM": "REM",
}

_EXCLUDED_FORMS = {"M", "MOVEMENT", "MOVEMENT TIME", "?", "UNKNOWN", "UNSCORED"}


def map_stage_label(raw):
    """Map a free-form stage string to a stage index or ``EXCLUDED``.

    Total: every string maps somewhere; unrecognized labels are excluded
    (and logged) rather than rejected.
    """
    text = str(raw).strip().upper()
    if text.startswith("SLEEP STAGE"):
        text = text[len("SLEEP STAGE"):].strip()
    if text in _STAGE_ALIASES:
        return STAGE_TO_INDEX[_STAGE_ALIASES[text]]
    if text not in _EXCLUDED_FORMS:
        log.info("unrecognized stage label %r treated as excluded", raw)
    return EXCLUDED


def _is_stage_annotation(text):
    t = str(text).strip().upper()
    return t.startswith("SLEEP STAGE") or t in _EXCLUDED_FORMS or t in _STAGE_ALIASES


def _on_grid(seconds):
    """Whether ``seconds`` (>= 0) is a whole number of epochs; NaN is not."""
    r = seconds % EPOCH_SECONDS
    return min(r, EPOCH_SECONDS - r) <= 1e-9


def hypnogram_from_annotations(annotations):
    """Expand ``(onset_s, duration_s, stage_string)`` rows into epoch labels."""
    rows = []
    for onset, duration, text in annotations:
        onset = float(onset)
        duration = float(duration)
        if onset < 0:
            raise AnnotationError(f"negative onset {onset}")
        if duration <= 0:
            raise AnnotationError(f"non-positive duration {duration} at {onset}s")
        if not _on_grid(onset):
            raise AnnotationError(f"onset {onset}s not aligned to the 30 s grid")
        if not _on_grid(duration):
            raise AnnotationError(f"duration {duration}s at {onset}s not a multiple of 30 s")
        rows.append((onset, duration, text))
    rows.sort(key=lambda r: r[0])
    for (o1, d1, _), (o2, _, _) in zip(rows, rows[1:]):
        if o2 < o1 + d1 - 1e-9:
            raise AnnotationError(
                f"annotations overlap: [{o1}, {o1 + d1}) and onset {o2}"
            )
    if not rows:
        return np.empty(0, dtype=np.int8)
    end = rows[-1][0] + rows[-1][1]
    n = int(round(end / EPOCH_SECONDS))
    labels = np.full(n, EXCLUDED, dtype=np.int8)
    for onset, duration, text in rows:
        stage = map_stage_label(text)
        first = int(round(onset / EPOCH_SECONDS))
        count = int(round(duration / EPOCH_SECONDS))
        labels[first : first + count] = stage
    return labels


def parse_tals(raw):
    """Split an EDF+ annotation byte stream into (onset, duration, text) rows.

    Each TAL is ``<onset>[\\x15<duration>]\\x14<text>\\x14...\\x14\\x00``;
    time-keeping TALs (empty text) are skipped.
    """
    rows = []
    for chunk in raw.split(b"\x00"):
        if not chunk or b"\x14" not in chunk:
            continue
        head, *texts = chunk.split(b"\x14")
        if b"\x15" in head:
            onset_b, duration_b = head.split(b"\x15", 1)
        else:
            onset_b, duration_b = head, b"0"
        try:
            onset = float(onset_b.decode("ascii"))
            duration = float(duration_b.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as e:
            raise AnnotationError(f"malformed TAL header {head!r}") from e
        for t in texts:
            text = t.decode("utf-8", errors="replace").strip()
            if text:
                rows.append((onset, duration, text))
    return rows


def parse_hypnogram_edf(data):
    """Hypnogram from the bytes of an EDF+ file with an annotation channel."""
    rec = parse_edf(data)
    if not rec.annotation_bytes:
        raise AnnotationError("recording has no EDF Annotations channel")
    rows = [r for r in parse_tals(rec.annotation_bytes) if _is_stage_annotation(r[2])]
    if not rows:
        raise AnnotationError("annotation stream holds no stage annotations")
    return hypnogram_from_annotations(rows)


def parse_hypnogram_csv(text):
    """Hypnogram from ``onset_s,duration_s,stage`` CSV text (header optional)."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",", 2)]
        if len(parts) != 3:
            raise AnnotationError(f"line {lineno}: expected 3 columns, got {line!r}")
        try:
            onset = float(parts[0])
            duration = float(parts[1])
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise AnnotationError(f"line {lineno}: non-numeric onset/duration")
        rows.append((onset, duration, parts[2]))
    if not rows:
        raise AnnotationError("CSV holds no annotations")
    return hypnogram_from_annotations(rows)


def parse_hypnogram(path):
    """Hypnogram from the file at ``path``: CSV if it ends in ``.csv``, else EDF+."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise IoError(f"cannot read hypnogram {path}: {e}") from e
    if not str(path).lower().endswith(".csv"):
        return parse_hypnogram_edf(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise AnnotationError(f"hypnogram {path} is not UTF-8 text: {e}") from e
    return parse_hypnogram_csv(text)
