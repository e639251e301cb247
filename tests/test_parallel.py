"""Eval extractor passes on worker threads.

Passes large enough to run on workers must give the bits that the same
passes give run one after another at one BLAS thread; small passes, and
every pass without OpenBLAS's per-thread setter, run today's plain loop.
"""

import contextlib
import os
import sys
import threading
import time

import numpy as np
import pytest

from sleepstager import explain, model, parallel
from sleepstager.autodiff import Tape, Tensor
from sleepstager.blocks import FeatureExtractorConfig, feature_extractor_forward
from sleepstager.data import synth_generate
from sleepstager.explain import gradcam
from sleepstager.model import StagerConfig, build_stager_params, encode_epochs

SETTER = parallel._blas_threads_setter()
needs_setter = pytest.mark.skipif(
    SETTER is None, reason="OpenBLAS's openblas_set_num_threads_local not found")


def config(rate, width, reduction, window=9):
    return StagerConfig(
        window_size=window,
        extractor=FeatureExtractorConfig.create(
            "se_resnet_18", width_multiplier=width, reduction_ratio=reduction),
        lstm_hidden=4, lstm_depth=1, sample_rate=rate, seed=3,
    ).validate()


DESK = config(32.0, 1 / 32, 2)
PAPER = config(100.0, 1.0, 16)
# 100 Hz at width 1/8: a 9-epoch pass holds 9 x 8 x 1500 = 108K stem-map
# values, above the threshold, at a few ms per epoch
WIDE = config(100.0, 1 / 8, 4)


def with_running_stats(cfg):
    params = build_stager_params(cfg)
    rng = np.random.default_rng(4)
    for st in params.states.values():
        st.running_mean = rng.normal(0.0, 0.1, size=st.running_mean.shape)
        st.running_var = rng.uniform(0.5, 2.0, size=st.running_var.shape)
        st.initialized = True
    return params


@pytest.fixture(scope="module")
def wide():
    epochs = synth_generate(1, 40, WIDE.sample_rate, seed=6)[0].epochs
    return with_running_stats(WIDE), epochs.astype(np.float64)


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def threads_of_calls(monkeypatch):
    """The thread of every extractor call that encode_epochs and gradcam make."""
    seen = []
    real = feature_extractor_forward

    def recorded(*args):
        seen.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(model, "feature_extractor_forward", recorded)
    monkeypatch.setattr(explain, "feature_extractor_forward", recorded)
    return seen


@contextlib.contextmanager
def one_blas_thread():
    previous = SETTER(1)
    try:
        yield
    finally:
        SETTER(previous)


def serial_features(epochs, params, cfg, size):
    """The plain loop: extractor calls of ``size`` epochs, in order."""
    return np.concatenate([
        feature_extractor_forward(Tensor(epochs[s:s + size, None, :]), cfg.extractor,
                                  params.extractor, "eval")[0].data
        for s in range(0, len(epochs), size)
    ])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_heatmap(a, b):
    return (same_bits(a.values, b.values) and a.predicted_class == b.predicted_class
            and a.raw_max == b.raw_max and a.empty == b.empty)


class TestWorkers:
    def test_desk_passes_stay_serial_and_paper_passes_split(self, two_cores):
        assert parallel.pass_workers(DESK, DESK.window_size) == 1
        assert parallel.pass_workers(DESK, model.EVAL_BATCH) == 1
        expected = 2 if SETTER is not None else 1
        assert parallel.pass_workers(PAPER, PAPER.window_size) == expected
        assert parallel.pass_workers(PAPER, 8) == expected
        assert parallel.pass_workers(WIDE, WIDE.window_size) == expected

    def test_one_core_stays_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert parallel.pass_workers(PAPER, PAPER.window_size) == 1

    def test_results_keep_part_order(self):
        # later parts finish first
        def run(part):
            time.sleep(0.002 * (6 - part))
            return part, threading.get_ident()

        out = parallel.map_passes(run, range(6), 2)
        assert [part for part, _ in out] == list(range(6))
        assert threading.get_ident() not in {ident for _, ident in out}

    def test_worker_exception_reaches_the_caller(self):
        def run(part):
            if part == 3:
                raise ValueError(f"part {part} failed")
            return part

        with pytest.raises(ValueError, match="part 3 failed"):
            parallel.map_passes(run, range(6), 2)

    def test_no_thread_outlives_the_call(self):
        before = set(threading.enumerate())
        parallel.map_passes(lambda part: part, range(4), 2)
        assert set(threading.enumerate()) == before


@needs_setter
class TestSameBits:
    @pytest.mark.parametrize("n, size", [(19, 10), (20, 10), (40, 16)])
    def test_encode_matches_serial_passes_at_one_blas_thread(
            self, wide, two_cores, threads_of_calls, n, size):
        # parts of at most EVAL_BATCH // 2 epochs, split evenly when fewer
        params, epochs = wide
        got = encode_epochs(epochs[:n], params, WIDE)
        assert len(threads_of_calls) == -(-n // size)
        assert threading.get_ident() not in threads_of_calls
        with one_blas_thread():
            want = serial_features(epochs[:n], params, WIDE, size)
        assert same_bits(got, want)

    def test_gradcam_matches_serial_passes_at_one_blas_thread(
            self, wide, two_cores, threads_of_calls, monkeypatch):
        params, epochs = wide
        got = gradcam(params, WIDE, epochs[10:19])
        assert len(threads_of_calls) == explain.PATH_STEPS
        assert threading.get_ident() not in threads_of_calls
        monkeypatch.setattr(explain, "pass_workers", lambda cfg, epochs: 1)
        with one_blas_thread():
            want = gradcam(params, WIDE, epochs[10:19])
        assert same_heatmap(got, want)

    def test_without_the_setter_the_plain_loop_runs(
            self, wide, two_cores, threads_of_calls, monkeypatch):
        params, epochs = wide
        heatmap = gradcam(params, WIDE, epochs[10:19])
        monkeypatch.setattr(parallel, "_blas_threads_setter", lambda: None)
        threads_of_calls.clear()
        got = encode_epochs(epochs, params, WIDE)
        # today's loop: calls of EVAL_BATCH epochs at the default BLAS threads
        assert same_bits(got, serial_features(epochs, params, WIDE, model.EVAL_BATCH))
        serial_map = gradcam(params, WIDE, epochs[10:19])
        assert set(threads_of_calls) == {threading.get_ident()}
        assert len(threads_of_calls) == 2 + explain.PATH_STEPS
        assert serial_map.predicted_class == heatmap.predicted_class
        np.testing.assert_allclose(serial_map.values, heatmap.values, rtol=0,
                                   atol=1e-12)

    def test_desk_passes_run_the_plain_loop(self, two_cores, threads_of_calls):
        params = with_running_stats(DESK)
        epochs = synth_generate(1, 40, DESK.sample_rate, seed=6)[0].epochs
        encode_epochs(epochs, params, DESK)
        gradcam(params, DESK, epochs[:9])
        assert set(threads_of_calls) == {threading.get_ident()}
        assert len(threads_of_calls) == 2 + explain.PATH_STEPS

    def test_stress_more_workers_than_cores(self, wide):
        # four workers on short switch intervals: every round must give the
        # serial bits in order, record nothing on the caller's tape and leave
        # the caller's BLAS thread count as it was
        params, epochs = wide
        parts = [epochs[s:s + 2] for s in range(0, 16, 2)]

        def run(part):
            return feature_extractor_forward(Tensor(part[:, None, :]), WIDE.extractor,
                                             params.extractor, "eval")[0].data

        with one_blas_thread():
            want = [run(part) for part in parts]
        failures, rounds = [], []

        def stress():
            deadline = time.monotonic() + 2.0
            try:
                while not rounds or time.monotonic() < deadline:
                    before = SETTER(1)
                    SETTER(before)
                    with Tape() as tape:
                        got = parallel.map_passes(run, parts, 4)
                    after = SETTER(before)
                    ok = (len(tape) == 0 and after == before
                          and all(same_bits(g, w) for g, w in zip(got, want)))
                    rounds.append(ok)
            except Exception as e:  # reported below, on the test's thread
                failures.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=stress)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert not failures, failures
        assert rounds and all(rounds)
