"""Epoching, normalization, windows, folds, and the epoch cache."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepstager import EXCLUDED, STAGE_TO_INDEX, epoch_samples
from sleepstager.data import (
    EpochSet,
    epochize,
    kfold_split,
    load_epochset,
    make_windows,
    normalize_recording,
    parse_edf,
    save_epochset,
    synth_generate,
    write_edf,
)
from sleepstager.errors import (
    ChannelNotFound,
    ConfigError,
    CorruptCache,
    DegenerateSignal,
    EmptyDataset,
    IoError,
)
from sleepstager.model import StagerConfig

W, N2 = STAGE_TO_INDEX["W"], STAGE_TO_INDEX["N2"]


def recording_with(rate, n_epochs, label="EEG Fpz-Cz"):
    n_samples = int(rate * 30) * n_epochs
    rng = np.random.default_rng(0)
    dig = rng.integers(-1000, 1000, size=n_samples).astype(np.int16)
    blob = write_edf(
        [
            {"label": label, "phys_min": -250, "phys_max": 250,
             "dig_min": -32768, "dig_max": 32767,
             "samples_per_record": int(rate), "digital": dig},
        ],
        record_duration=1.0,
    )
    return parse_edf(blob)


class TestEpochize:
    def test_hundred_hz_three_epochs(self):
        rec = recording_with(100, 3)
        h = np.array([W, N2, W], dtype=np.int8)
        es = epochize(rec, "EEG Fpz-Cz", h, subject_id="s1")
        assert es.epochs.shape == (3, 3000)
        np.testing.assert_array_equal(es.labels, [W, N2, W])

    def test_excluded_epochs_dropped(self):
        rec = recording_with(100, 3)
        h = np.array([W, EXCLUDED, N2], dtype=np.int8)
        es = epochize(rec, "EEG Fpz-Cz", h)
        assert len(es) == 2
        np.testing.assert_array_equal(es.labels, [W, N2])
        # the surviving rows are epochs 0 and 2 of the signal
        sig = rec.channel("EEG Fpz-Cz")
        np.testing.assert_array_equal(es.epochs[1], sig[6000:9000])

    def test_125_hz_epoch_length(self):
        rec = recording_with(125, 2)
        h = np.array([W, W], dtype=np.int8)
        es = epochize(rec, "EEG Fpz-Cz", h)
        assert es.epoch_len == 3750

    def test_missing_channel(self):
        rec = recording_with(100, 1)
        with pytest.raises(ChannelNotFound):
            epochize(rec, "EEG Pz-Oz", np.array([W], dtype=np.int8))

    def test_hypnogram_longer_than_signal_truncated(self):
        rec = recording_with(100, 2)
        h = np.array([W, W, W, W], dtype=np.int8)
        assert len(epochize(rec, "EEG Fpz-Cz", h)) == 2


class TestNormalize:
    def test_none_is_identity(self):
        es = EpochSet(np.random.default_rng(1).normal(size=(4, 300)),
                      [0, 1, 2, 3], "s", 10.0)
        assert normalize_recording(es, "none") is es

    def test_zscore_per_recording_statistics(self):
        rng = np.random.default_rng(2)
        es = EpochSet(rng.normal(5.0, 3.0, size=(6, 300)),
                      [0] * 6, "s", 10.0)
        out = normalize_recording(es, "zscore_per_recording")
        flat = out.epochs.reshape(-1)
        assert abs(flat.mean()) < 1e-10
        assert abs(flat.var() - 1.0) < 1e-9

    def test_zscore_per_epoch_statistics(self):
        rng = np.random.default_rng(3)
        es = EpochSet(rng.normal(-2.0, 7.0, size=(5, 300)),
                      [0] * 5, "s", 10.0)
        out = normalize_recording(es, "zscore_per_epoch")
        assert np.max(np.abs(out.epochs.mean(axis=1))) < 1e-10
        np.testing.assert_allclose(out.epochs.var(axis=1), 1.0, atol=1e-9)

    def test_constant_signal_degenerate(self):
        es = EpochSet(np.ones((2, 300)), [0, 0], "s", 10.0)
        with pytest.raises(DegenerateSignal):
            normalize_recording(es, "zscore_per_recording")


def toy_epochset(n, l_epoch=30, rate=1.0):
    rng = np.random.default_rng(n)
    return EpochSet(rng.normal(size=(n, l_epoch)), rng.integers(0, 5, size=n),
                    f"s{n}", rate)


def enumerate_skip(n, w, s):
    """Brute-force window enumeration, independent of the implementation."""
    out = []
    start = 0
    while start + w <= n:
        out.append(list(range(start, start + w)))
        start += s
    return out


def enumerate_replicate(n, w, s):
    half = (w - 1) // 2
    out = []
    for center in range(0, n, s):
        out.append([min(max(i, 0), n - 1) for i in range(center - half, center + half + 1)])
    return out


def centers(view):
    return [view.center(k) for k in range(len(view))]


class TestWindows:
    def test_fig3_style_layout(self):
        # N=10, W=3, S=2 -> 4 windows centered at 1, 3, 5, 7
        es = toy_epochset(10)
        view = make_windows(es, 3, 2, "skip")
        assert len(view) == 4
        np.testing.assert_array_equal(centers(view), [1, 3, 5, 7])
        np.testing.assert_array_equal(view.spans([0])[0], [0, 1, 2])
        assert view.labels()[0] == es.labels[1]

    def test_exact_fit(self):
        view = make_windows(toy_epochset(5), 5, 1, "skip")
        assert len(view) == 1 and view.center(0) == 2

    def test_replicate_edges(self):
        es = toy_epochset(5)
        view = make_windows(es, 3, 1, "replicate")
        assert len(view) == 5
        np.testing.assert_array_equal(view.spans([0])[0], [0, 0, 1])
        np.testing.assert_array_equal(view.spans([4])[0], [3, 4, 4])
        gathered = view.gather([0])
        np.testing.assert_array_equal(gathered[0, 0], es.epochs[0])
        np.testing.assert_array_equal(gathered[0, 1], es.epochs[0])
        np.testing.assert_array_equal(gathered[0, 2], es.epochs[1])

    def test_window_larger_than_set(self):
        with pytest.raises(EmptyDataset):
            make_windows(toy_epochset(3), 5, 1, "skip")

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            make_windows(toy_epochset(10), 4, 1, "skip")

    @pytest.mark.parametrize("w", [1, 3, 5, 7, 9, 11])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_counts_and_labels_match_enumeration(self, w, s):
        for n in (1, 2, w - 1, w, w + 1, 17, 30):
            if n < 1:
                continue
            es = toy_epochset(n)
            expected = enumerate_skip(n, w, s)
            if not expected:
                with pytest.raises(EmptyDataset):
                    make_windows(es, w, s, "skip")
            else:
                view = make_windows(es, w, s, "skip")
                assert len(view) == len(expected)
                assert len(view) == (n - w) // s + 1
                for k, span in enumerate(expected):
                    np.testing.assert_array_equal(view.spans([k])[0], span)
                    assert view.labels()[k] == es.labels[span[(w - 1) // 2]]
            expected_r = enumerate_replicate(n, w, s)
            view_r = make_windows(es, w, s, "replicate")
            assert len(view_r) == len(expected_r)
            for k, span in enumerate(expected_r):
                np.testing.assert_array_equal(view_r.spans([k])[0], span)
                assert view_r.labels()[k] == es.labels[span[(w - 1) // 2]]

    def test_stride_windows_are_subset_of_stride_one(self):
        es = toy_epochset(40)
        full = make_windows(es, 9, 1, "skip")
        for s in (2, 3, 4, 5):
            sub = make_windows(es, 9, s, "skip")
            assert set(centers(sub)) <= set(centers(full))
            np.testing.assert_array_equal(centers(sub), centers(full)[::s])

    def test_label_ignores_non_middle_epochs(self):
        # per window: relabeling every epoch except the center leaves the
        # window's training target untouched
        for policy in ("skip", "replicate"):
            es = toy_epochset(11)
            view = make_windows(es, 5, 1, policy)
            for k in range(len(view)):
                center = view.center(k)
                before = view.labels()[k]
                original = es.labels.copy()
                es.labels = (es.labels + 1) % 5
                es.labels[center] = original[center]
                assert view.labels()[k] == before
                es.labels = original


class TestKFold:
    def test_leave_one_subject_out(self):
        ids = [f"s{i}" for i in range(20)]
        splits = kfold_split(ids, 20, seed=0)
        assert len(splits) == 20
        for train, test in splits:
            assert len(test) == 1 and len(train) == 19

    def test_seven_subjects_three_folds(self):
        sizes = sorted(len(t) for _, t in kfold_split(list("abcdefg"), 3, 1))
        assert sizes == [2, 2, 3]

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(9)]
        assert kfold_split(ids, 4, 7) == kfold_split(ids, 4, 7)

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            kfold_split(["a", "b"], 3, 0)

    @given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, k, seed):
        if k > n:
            return
        ids = [f"s{i}" for i in range(n)]
        splits = kfold_split(ids, k, seed)
        all_test = [s for _, t in splits for s in t]
        assert sorted(all_test) == sorted(ids)
        for train, test in splits:
            assert not set(train) & set(test)
            assert sorted(train + test) == sorted(ids)


class TestCache:
    def test_roundtrip(self, tmp_path):
        es = toy_epochset(7, l_epoch=60, rate=2.0)
        path = tmp_path / "s.sepc"
        save_epochset(es, path)
        loaded = load_epochset(path)
        assert loaded.subject_id == es.subject_id
        assert loaded.sample_rate == es.sample_rate
        np.testing.assert_array_equal(loaded.labels, es.labels)
        # samples pass through f32
        np.testing.assert_allclose(loaded.epochs, es.epochs, atol=1e-6)
        np.testing.assert_array_equal(
            loaded.epochs, es.epochs.astype(np.float32).astype(np.float64)
        )
        # kept at the cache's precision
        assert loaded.epochs.dtype == np.float32

    @pytest.mark.parametrize("scheme", ["zscore_per_recording", "zscore_per_epoch"])
    def test_cached_set_normalizes_in_float64(self, tmp_path, scheme):
        save_epochset(toy_epochset(6, l_epoch=60, rate=2.0), tmp_path / "s.sepc")
        narrow = load_epochset(tmp_path / "s.sepc")
        wide = EpochSet(narrow.epochs.astype(np.float64), narrow.labels,
                        narrow.subject_id, narrow.sample_rate)
        out = normalize_recording(narrow, scheme).epochs
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, normalize_recording(wide, scheme).epochs)

    def test_truncated(self, tmp_path):
        es = toy_epochset(4, l_epoch=60, rate=2.0)
        path = tmp_path / "s.sepc"
        save_epochset(es, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CorruptCache) as e:
            load_epochset(path)
        assert e.value.field == "samples"

    @pytest.mark.parametrize("field", ["sample_rate", "labels"])
    def test_corrupt_header_field(self, tmp_path, field):
        es = toy_epochset(4, l_epoch=60, rate=2.0)
        path = tmp_path / "s.sepc"
        save_epochset(es, path)
        blob = bytearray(path.read_bytes())
        # magic, version, u16 id length + id, f64 rate, u64 N, u64 L, stages
        rate_at = 10 + len(es.subject_id.encode())
        if field == "sample_rate":
            blob[rate_at : rate_at + 8] = np.float64(3.0).tobytes()
        else:
            blob[rate_at + 24] = 5
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCache) as e:
            load_epochset(path)
        assert e.value.field == field

    def test_subject_id_not_utf8(self, tmp_path):
        path = tmp_path / "s.sepc"
        save_epochset(toy_epochset(4, l_epoch=60, rate=2.0), path)
        blob = bytearray(path.read_bytes())
        blob[10:12] = b"\xff\xfe"  # the id's first two bytes, after its u16 length
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCache) as e:
            load_epochset(path)
        assert e.value.field == "subject_id"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.sepc"
        path.write_bytes(b"NOPE" + b"\x00" * 50)
        with pytest.raises(CorruptCache) as e:
            load_epochset(path)
        assert e.value.field == "magic"

    def test_unwritable_path_names_it(self, tmp_path):
        path = tmp_path / "s.sepc"
        path.mkdir()
        with pytest.raises(IoError) as e:
            save_epochset(toy_epochset(2), path)
        assert str(path) in str(e.value)


class TestEpochLength:
    @pytest.mark.parametrize("rate, samples", [(100.0, 3000), (8.0, 240), (1 / 3, 10)])
    def test_whole_epochs(self, rate, samples):
        assert epoch_samples(rate) == samples

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, 1.01])
    def test_bad_rate_raises_each_sites_error(self, tmp_path, rate):
        # every site that works out the epoch length raises its own typed
        # error, never the ValueError or OverflowError of round()
        with pytest.raises(ConfigError):
            epoch_samples(rate)
        with pytest.raises(ConfigError):
            StagerConfig(sample_rate=rate).validate()
        with pytest.raises(ConfigError):
            synth_generate(1, 1, rate, 0)
        with pytest.raises(ConfigError):
            EpochSet(np.zeros((1, 30)), [0], "s", rate)
        path = tmp_path / "s.sepc"
        save_epochset(toy_epochset(2), path)
        blob = bytearray(path.read_bytes())
        rate_at = 10 + len("s2")
        blob[rate_at : rate_at + 8] = np.float64(rate).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCache) as e:
            load_epochset(path)
        assert e.value.field == "sample_rate"
