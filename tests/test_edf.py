"""EDF parser: crafted-file round trips, scaling, and malformation handling."""

import numpy as np
import pytest

from sleepstager.data import parse_edf, write_edf
from sleepstager.errors import ChannelNotFound, ParseError


def craft_simple(dig_samples=(0, 100, -100, 5, 6, 7), records=2):
    per_record = len(dig_samples) // records
    return write_edf(
        [
            {
                "label": "EEG Fpz-Cz",
                "phys_min": -250,
                "phys_max": 250,
                "dig_min": -32768,
                "dig_max": 32767,
                "samples_per_record": per_record,
                "digital": np.array(dig_samples, dtype=np.int16),
                "physical_dim": "uV",
            }
        ],
        record_duration=1.0,
        patient_id="subject-1",
    )


class TestScaling:
    def test_hand_derived_physical_value(self):
        # dig 0 over [-32768, 32767] -> [-250, 250]:
        # (0 + 32768) * 500 / 65535 - 250 = 0.0038147...
        rec = parse_edf(craft_simple())
        assert abs(rec.data[0][0] - 0.003815) < 1e-6
        expected = (0 + 32768) * 500.0 / 65535.0 - 250.0
        assert rec.data[0][0] == pytest.approx(expected, abs=1e-12)

    def test_full_scale_endpoints(self):
        rec = parse_edf(craft_simple(dig_samples=(-32768, 32767, 0, 0, 0, 0)))
        assert rec.data[0][0] == pytest.approx(-250.0)
        assert rec.data[0][1] == pytest.approx(250.0)


class TestHeaderArithmetic:
    def test_two_signals_header_768_bytes(self):
        blob = write_edf(
            [
                {"label": "A", "phys_min": -1, "phys_max": 1, "dig_min": -100,
                 "dig_max": 100, "samples_per_record": 2,
                 "digital": np.zeros(4, dtype=np.int16)},
                {"label": "B", "phys_min": -1, "phys_max": 1, "dig_min": -100,
                 "dig_max": 100, "samples_per_record": 3,
                 "digital": np.zeros(6, dtype=np.int16)},
            ]
        )
        rec = parse_edf(blob)
        assert len(rec.signals) == 2
        assert blob[184:192].decode().strip() == "768"

    def test_sample_rate(self):
        rec = parse_edf(craft_simple())
        assert rec.sample_rate("EEG Fpz-Cz") == 3.0


class TestRoundTrip:
    def test_headers_and_digital_identity(self):
        rng = np.random.default_rng(0)
        dig = rng.integers(-2048, 2048, size=30).astype(np.int16)
        blob = write_edf(
            [
                {"label": "EEG C4-A1", "transducer": "AgCl", "physical_dim": "uV",
                 "phys_min": -312.5, "phys_max": 312.5, "dig_min": -2048,
                 "dig_max": 2047, "samples_per_record": 10, "digital": dig,
                 "prefilter": "HP:0.5Hz"},
            ],
            patient_id="P-42", recording_id="night-1",
            start_date="02.03.04", start_time="23.11.00", record_duration=2.0,
        )
        rec = parse_edf(blob)
        sig = rec.signals[0]
        assert (rec.patient_id, rec.recording_id) == ("P-42", "night-1")
        assert (rec.start_date, rec.start_time) == ("02.03.04", "23.11.00")
        assert rec.record_duration == 2.0 and rec.n_records == 3
        assert (sig.label, sig.transducer, sig.physical_dim) == (
            "EEG C4-A1", "AgCl", "uV")
        assert (sig.phys_min, sig.phys_max) == (-312.5, 312.5)
        assert (sig.dig_min, sig.dig_max) == (-2048, 2047)
        assert sig.prefilter == "HP:0.5Hz"
        np.testing.assert_array_equal(rec.digital[0], dig)
        blob2 = write_edf(
            [
                {"label": sig.label, "transducer": sig.transducer,
                 "physical_dim": sig.physical_dim, "phys_min": sig.phys_min,
                 "phys_max": sig.phys_max, "dig_min": sig.dig_min,
                 "dig_max": sig.dig_max, "prefilter": sig.prefilter,
                 "samples_per_record": sig.samples_per_record,
                 "digital": rec.digital[0]},
            ],
            patient_id=rec.patient_id, recording_id=rec.recording_id,
            start_date=rec.start_date, start_time=rec.start_time,
            record_duration=rec.record_duration,
        )
        assert blob2 == blob


class TestMalformations:
    def test_short_file(self):
        with pytest.raises(ParseError) as e:
            parse_edf(b"0" * 100)
        assert e.value.field == "header"

    def test_truncated_data_records(self):
        blob = craft_simple()
        cut = blob[:-4]
        with pytest.raises(ParseError) as e:
            parse_edf(cut)
        assert e.value.field == "data_records"
        assert e.value.offset == len(cut)

    def test_truncated_signal_headers(self):
        blob = craft_simple()
        with pytest.raises(ParseError) as e:
            parse_edf(blob[:300])
        assert e.value.field == "signal_headers"

    def test_non_numeric_field(self):
        blob = bytearray(craft_simple())
        blob[236:244] = b"oops    "  # record count
        with pytest.raises(ParseError) as e:
            parse_edf(bytes(blob))
        assert e.value.field == "n_records"
        assert e.value.offset == 236

    def test_dig_range_inverted(self):
        blob = craft_simple()
        # dig_min column offset for signal 0: 256 + (16+80+8+8+8)*1
        off = 256 + (16 + 80 + 8 + 8 + 8) * 1
        patched = blob[:off] + b"40000   " + blob[off + 8:]
        with pytest.raises(ParseError) as e:
            parse_edf(patched)
        assert "dig_min" in e.value.field

    def test_missing_channel_listed(self):
        rec = parse_edf(craft_simple())
        with pytest.raises(ChannelNotFound) as e:
            rec.channel("EEG Pz-Oz")
        assert "EEG Fpz-Cz" in str(e.value)


# Header layout per the EDF specification, written out here independently
# of the module's tables: (name, width, numeric) in file order, reserved
# fields left out but counted in the offsets.
MAIN_LAYOUT = [
    ("version", 8, False), ("patient_id", 80, False),
    ("recording_id", 80, False), ("start_date", 8, False),
    ("start_time", 8, False), ("header_bytes", 8, True), (None, 44, False),
    ("n_records", 8, True), ("record_duration", 8, True),
    ("n_signals", 4, True),
]
SIGNAL_LAYOUT = [
    ("label", 16, False), ("transducer", 80, False),
    ("physical_dim", 8, False), ("phys_min", 8, True), ("phys_max", 8, True),
    ("dig_min", 8, True), ("dig_max", 8, True), ("prefilter", 80, False),
    ("samples_per_record", 8, True), (None, 32, False),
]
TAL = b"+0\x1430\x15Sleep stage W\x14\x00+30\x1430\x15Sleep stage 1\x14\x00"


def two_signal_file():
    """An EEG signal and an EDF+ annotation signal, two 30 s records."""
    dig = np.random.default_rng(5).integers(-2048, 2048, 20).astype(np.int16)
    return write_edf(
        [
            {"label": "EEG Fpz-Cz", "transducer": "AgCl", "physical_dim": "uV",
             "phys_min": -312.5, "phys_max": 312.5, "dig_min": -2048,
             "dig_max": 2047, "prefilter": "HP:0.5Hz", "samples_per_record": 10,
             "digital": dig},
            {"label": "EDF Annotations", "phys_min": -1, "phys_max": 1,
             "dig_min": -32768, "dig_max": 32767, "samples_per_record": 15,
             "digital": TAL.ljust(60, b"\x00")},
        ],
        patient_id="P-7", recording_id="night-2", record_duration=30.0,
    )


def header_cells(n_signals=2):
    """``(field, offset, width, numeric)`` of every typed header cell."""
    cells, at = [], 0
    for name, width, numeric in MAIN_LAYOUT:
        if name:
            cells.append((name, at, width, numeric))
        at += width
    for name, width, numeric in SIGNAL_LAYOUT:
        for i in range(n_signals):
            if name:
                cells.append((f"{name}[{i}]", at + i * width, width, numeric))
        at += n_signals * width
    return cells


class TestFieldTable:
    @pytest.mark.parametrize("fname, offset, width, numeric", header_cells())
    def test_non_ascii_cell_named_with_its_offset(self, fname, offset, width, numeric):
        blob = two_signal_file()
        bad = "é".encode("latin-1").ljust(width)
        with pytest.raises(ParseError) as e:
            parse_edf(blob[:offset] + bad + blob[offset + width:])
        assert (e.value.field, e.value.offset) == (fname, offset)
        assert "non-ASCII" in str(e.value)

    @pytest.mark.parametrize(
        "fname, offset, width",
        [(f, o, w) for f, o, w, numeric in header_cells() if numeric],
    )
    def test_non_numeric_cell_named_with_its_offset(self, fname, offset, width):
        blob = two_signal_file()
        with pytest.raises(ParseError) as e:
            parse_edf(blob[:offset] + b"x1".ljust(width) + blob[offset + width:])
        assert (e.value.field, e.value.offset) == (fname, offset)
        assert "expected a number" in str(e.value)

    @pytest.mark.parametrize("spec, kwargs, fname", [
        ({}, {"patient_id": "p" * 81}, "patient_id"),
        ({"label": "L" * 17}, {}, "label"),
    ])
    def test_writer_rejects_a_value_wider_than_its_field(self, spec, kwargs, fname):
        sig = {"label": "EEG", "phys_min": -1, "phys_max": 1, "dig_min": -10,
               "dig_max": 10, "samples_per_record": 2,
               "digital": np.zeros(4, dtype=np.int16), **spec}
        with pytest.raises(ParseError) as e:
            write_edf([sig], **kwargs)
        assert e.value.field == fname

    def test_annotation_signal_round_trips_byte_for_byte(self):
        blob = two_signal_file()
        rec = parse_edf(blob)
        assert rec.data[1] is None
        assert rec.annotation_bytes == TAL.ljust(60, b"\x00")
        again = write_edf(
            [
                {**vars(sig), "digital": dig}
                for sig, dig in zip(rec.signals, rec.digital)
            ],
            patient_id=rec.patient_id, recording_id=rec.recording_id,
            start_date=rec.start_date, start_time=rec.start_time,
            record_duration=rec.record_duration,
        )
        assert again == blob
