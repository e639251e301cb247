"""Stage-label mapping and hypnogram expansion from annotations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sleepstager import EXCLUDED, STAGE_TO_INDEX
from sleepstager.data import (
    hypnogram_from_annotations,
    map_stage_label,
    parse_hypnogram,
    parse_hypnogram_csv,
    parse_hypnogram_edf,
    parse_tals,
    write_edf,
)
from sleepstager.errors import AnnotationError

W, N1, N2, N3, REM = (STAGE_TO_INDEX[s] for s in ("W", "N1", "N2", "N3", "REM"))


class TestStageMapping:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Sleep stage W", W),
            ("Sleep stage 1", N1),
            ("Sleep stage 2", N2),
            ("Sleep stage 3", N3),
            ("Sleep stage 4", N3),
            ("Sleep stage R", REM),
            ("Sleep stage ?", EXCLUDED),
            ("Movement time", EXCLUDED),
            ("W", W),
            ("N1", N1),
            ("N2", N2),
            ("N3", N3),
            ("N4", N3),
            ("REM", REM),
            ("wake", W),
            ("unscored", EXCLUDED),
            ("garbage-label", EXCLUDED),
        ],
    )
    def test_mapping(self, raw, expected):
        assert map_stage_label(raw) == expected

    @given(st.text(max_size=40))
    def test_total_over_strings(self, raw):
        assert map_stage_label(raw) in {W, N1, N2, N3, REM, EXCLUDED}


class TestExpansion:
    def test_sixty_seconds_of_wake(self):
        h = hypnogram_from_annotations([(0, 60, "Sleep stage W")])
        assert h.dtype == np.int8
        np.testing.assert_array_equal(h, [W, W])

    def test_stage_four_merges_to_n3(self):
        h = hypnogram_from_annotations([(0, 30, "Sleep stage 4")])
        np.testing.assert_array_equal(h, [N3])

    def test_movement_excluded(self):
        h = hypnogram_from_annotations([(0, 30, "Movement time")])
        np.testing.assert_array_equal(h, [EXCLUDED])

    def test_gap_becomes_excluded(self):
        h = hypnogram_from_annotations(
            [(0, 30, "Sleep stage W"), (90, 30, "Sleep stage 2")]
        )
        np.testing.assert_array_equal(h, [W, EXCLUDED, EXCLUDED, N2])

    def test_overlap_rejected(self):
        with pytest.raises(AnnotationError):
            hypnogram_from_annotations(
                [(0, 60, "Sleep stage W"), (30, 30, "Sleep stage 1")]
            )

    def test_misaligned_duration_rejected(self):
        for duration in (45, float("nan"), float("inf")):
            with pytest.raises(AnnotationError):
                hypnogram_from_annotations([(0, duration, "Sleep stage W")])

    def test_misaligned_onset_rejected(self):
        for onset in (10, float("nan"), float("inf")):
            with pytest.raises(AnnotationError):
                hypnogram_from_annotations([(onset, 30, "Sleep stage W")])


class TestCsv:
    def test_with_header(self):
        text = "onset,duration,stage\n0,30,Sleep stage W\n30,60,Sleep stage 2\n"
        h = parse_hypnogram_csv(text)
        np.testing.assert_array_equal(h, [W, N2, N2])

    def test_without_header(self):
        h = parse_hypnogram_csv("0,30,W\n30,30,REM\n")
        np.testing.assert_array_equal(h, [W, REM])

    def test_empty_rejected(self):
        with pytest.raises(AnnotationError):
            parse_hypnogram_csv("onset,duration,stage\n")

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "SC4001.csv"
        path.write_bytes(b"0,30,W\n30,30,N2\xff\n")
        with pytest.raises(AnnotationError, match="not UTF-8"):
            parse_hypnogram(path)


def tal_bytes(rows, keepalives=True):
    out = bytearray()
    if keepalives:
        out += b"+0\x14\x14\x00"
    for onset, duration, text in rows:
        out += f"+{onset:g}\x15{duration:g}\x14{text}\x14\x00".encode("ascii")
    if len(out) % 2:
        out += b"\x00"
    return bytes(out)


class TestEdfPlus:
    def test_tal_parsing(self):
        raw = tal_bytes([(0, 30, "Sleep stage W"), (30, 60, "Sleep stage R")])
        rows = parse_tals(raw)
        assert rows == [(0.0, 30.0, "Sleep stage W"), (30.0, 60.0, "Sleep stage R")]

    def test_hypnogram_from_edf_stream(self):
        payload = tal_bytes(
            [
                (0, 30, "Sleep stage W"),
                (30, 60, "Sleep stage 2"),
                (90, 30, "Sleep stage 4"),
                (120, 30, "Lights off"),  # non-stage event: ignored
            ]
        )
        blob = write_edf(
            [
                {"label": "EDF Annotations", "phys_min": -1, "phys_max": 1,
                 "dig_min": -32768, "dig_max": 32767,
                 "samples_per_record": len(payload) // 2, "digital": payload},
            ]
        )
        h = parse_hypnogram_edf(blob)
        np.testing.assert_array_equal(h, [W, N2, N2, N3])

    def test_no_stage_annotations_rejected(self):
        payload = tal_bytes([(0, 30, "Lights off")])
        blob = write_edf(
            [
                {"label": "EDF Annotations", "phys_min": -1, "phys_max": 1,
                 "dig_min": -32768, "dig_max": 32767,
                 "samples_per_record": len(payload) // 2, "digital": payload},
            ]
        )
        with pytest.raises(AnnotationError):
            parse_hypnogram_edf(blob)
