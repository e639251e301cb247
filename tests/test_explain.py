"""GradCAM formula, determinism, and artifact rendering."""

import numpy as np
import pytest

from sleepstager import STAGES, explain
from sleepstager.autodiff import Tape, Tensor, backward, take_per_row, zero_grads
from sleepstager.blocks import FeatureExtractorConfig, feature_extractor_forward
from sleepstager.data import synth_generate
from sleepstager.errors import InvalidInput, IoError, ShapeError
from sleepstager.explain import (
    PATH_STEPS,
    Heatmap,
    cam_from,
    export_features_csv,
    gradcam,
    heatmap_mass_fraction,
    normalize_minmax,
    render_heatmap,
    upsample_linear,
)
from sleepstager.model import (
    StagerConfig,
    build_stager_params,
    classify,
    encode_epochs,
)
from sleepstager.training import TrainConfig, fit


def tiny_cfg(seed=0):
    return StagerConfig(
        window_size=3,
        stride_train=1,
        extractor=FeatureExtractorConfig.create(
            "se_resnet_18", width_multiplier=0.0625, reduction_ratio=4
        ),
        lstm_hidden=4,
        lstm_depth=1,
        sample_rate=8.0,
        seed=seed,
    ).validate()


@pytest.fixture(scope="module")
def trained():
    cfg = tiny_cfg()
    data = synth_generate(2, 20, 8.0, seed=5)
    params, _ = fit(data, cfg, TrainConfig(epochs=2, batch_size=16, stride_train=1,
                                           seed=5))
    return cfg, params, data


class TestCamFormula:
    def test_contrived_activation_map(self):
        acts = np.array([[0.0, 2.0, 0.0, 1.0]])
        grads = np.ones((1, 4))
        raw = cam_from(acts, grads)
        normalized, empty = normalize_minmax(raw)
        assert not empty
        np.testing.assert_allclose(normalized, [0.0, 1.0, 0.0, 0.5])

    def test_negative_gradients_kill_map(self):
        acts = np.array([[1.0, 2.0, 3.0, 1.0]])
        grads = -np.ones((1, 4))
        raw = cam_from(acts, grads)
        values, empty = normalize_minmax(raw)
        assert empty
        np.testing.assert_array_equal(values, 0.0)

    def test_channel_weighting(self):
        acts = np.array([[1.0, 0.0], [0.0, 1.0]])
        grads = np.array([[2.0, 2.0], [-1.0, -1.0]])  # w = [2, -1]
        np.testing.assert_allclose(cam_from(acts, grads), [2.0, 0.0])

    def test_upsample_preserves_argmax_cell(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.uniform(0, 1, size=10)
            up = upsample_linear(raw, 300)
            cell = np.argmax(raw)
            up_pos = np.argmax(up)
            assert abs(up_pos - (cell + 0.5) * 30) <= 30


class TestGradcam:
    def test_output_contract(self, trained):
        cfg, params, data = trained
        window = data[0].epochs[:3]
        h = gradcam(params, cfg, window)
        assert h.values.shape == (cfg.epoch_len,)
        assert h.values.min() >= 0.0 and h.values.max() <= 1.0
        assert h.predicted_class in range(5)
        if not h.empty:
            assert h.values.max() == 1.0

    def test_window_must_be_epochs_by_samples(self, trained):
        cfg, params, data = trained
        with pytest.raises(ShapeError):
            gradcam(params, cfg, data[0].epochs[:3, None, :])

    def test_deterministic(self, trained):
        cfg, params, data = trained
        window = data[0].epochs[:3]
        a = gradcam(params, cfg, window)
        b = gradcam(params, cfg, window)
        np.testing.assert_array_equal(a.values, b.values)

    def test_mass_fraction_helper(self):
        h = Heatmap(np.array([0.0, 1.0, 1.0, 0.0]), 2, 1.0)
        assert heatmap_mass_fraction(h, [(1.0, 3.0)], sample_rate=1.0) == 1.0
        assert heatmap_mass_fraction(h, [(0.0, 1.0)], sample_rate=1.0) == 0.0
        empty = Heatmap(np.zeros(4), 2, 0.0, empty=True)
        assert heatmap_mass_fraction(empty, [(0.0, 4.0)], sample_rate=1.0) == 0.0

    def test_consumes_the_returned_activation_tensor(self, trained):
        # bit for bit the algorithm that recorded the extractor on the tape:
        # one unscaled pass for the prediction and the activations, then
        # PATH_STEPS taped passes whose gradients are read at the conv maps
        cfg, params, data = trained
        window = data[0].epochs[:3]
        spans, mid = np.arange(cfg.window_size)[None], cfg.middle_index
        tensors = list(params.registry.values())

        def extract(scale):
            x = Tensor((window * scale)[:, None, :])
            return feature_extractor_forward(x, cfg.extractor, params.extractor, "eval")

        def reference():
            feats, acts = extract(1.0)
            predicted = int(np.argmax(classify(feats, spans, params, cfg).data[0]))
            grads = np.zeros_like(acts.data[mid])
            for k in range(1, PATH_STEPS + 1):
                zero_grads(tensors)
                with Tape() as tape:
                    feats, maps = extract(k / PATH_STEPS)
                    log_probs = classify(feats, spans, params, cfg)
                    backward(take_per_row(log_probs, np.array([predicted])), tape)
                grads += maps.grad[mid]
            zero_grads(tensors)
            raw = cam_from(acts.data[mid], grads / PATH_STEPS)
            values, _ = normalize_minmax(upsample_linear(raw, cfg.epoch_len))
            return values, float(raw.max()), predicted

        h = gradcam(params, cfg, window)
        values, raw_max, predicted = reference()
        assert np.array_equal(h.values, values)
        assert h.raw_max == raw_max
        assert h.predicted_class == predicted
        assert raw_max > 0.0

    def test_extractor_stays_off_the_tape(self, trained, monkeypatch):
        # no sweep computes a parameter gradient, and each path step runs
        # the extractor once, the unscaled window included
        cfg, params, data = trained
        tensors = list(params.registry.values())
        zero_grads(tensors)
        calls = {"backward": 0, "extractor": 0}
        real_backward = explain.backward
        real_extractor = explain.feature_extractor_forward

        def checked_backward(loss, tape):
            real_backward(loss, tape)
            calls["backward"] += 1
            assert all(t.grad is None for t in tensors)

        def counted_extractor(*args):
            calls["extractor"] += 1
            return real_extractor(*args)

        monkeypatch.setattr(explain, "backward", checked_backward)
        monkeypatch.setattr(explain, "feature_extractor_forward", counted_extractor)
        gradcam(params, cfg, data[0].epochs[:3])
        assert calls == {"backward": PATH_STEPS, "extractor": PATH_STEPS}
        assert all(t.grad is None for t in params.registry.values())

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_parameters_come_back_as_found(self, trained, monkeypatch, fail):
        # the sweeps run with every requires_grad off; gradcam restores the
        # flags and writes no grad, also when its second sweep raises
        cfg, params, data = trained
        tensors = list(params.registry.values())
        zero_grads(tensors)
        tensors[0].grad = kept = np.zeros_like(tensors[0].data)
        tensors[-1].requires_grad = False
        before = [(t.requires_grad, t.grad) for t in tensors]
        real_backward = explain.backward
        calls = []

        def failing_backward(loss, tape):
            calls.append(1)
            if fail and len(calls) == 2:
                raise RuntimeError("sweep failed")
            real_backward(loss, tape)

        monkeypatch.setattr(explain, "backward", failing_backward)
        try:
            if fail:
                with pytest.raises(RuntimeError, match="sweep failed"):
                    gradcam(params, cfg, data[0].epochs[:3])
            else:
                gradcam(params, cfg, data[0].epochs[:3])
            after = [(t.requires_grad, t.grad) for t in tensors]
        finally:
            tensors[-1].requires_grad = True
            zero_grads(tensors)
        assert len(calls) == (2 if fail else PATH_STEPS)
        assert [flag for flag, _ in after] == [flag for flag, _ in before]
        assert all(g is g0 for (_, g), (_, g0) in zip(after, before))
        assert after[0][1] is kept and not kept.any()


class TestExportFeatures:
    def test_full_width_dimension(self):
        cfg = StagerConfig(
            window_size=3,
            extractor=FeatureExtractorConfig.create("se_resnet_18"),
            sample_rate=100.0,
            seed=0,
        ).validate()
        params = build_stager_params(cfg)
        for state in params.states.values():
            state.initialized = True  # neutral running stats
        rng = np.random.default_rng(1)
        feats = encode_epochs(rng.normal(size=(2, 3000)), params, cfg)
        assert feats.shape == (2, 512)

    def test_duplicate_epochs_identical_rows(self, trained):
        cfg, params, data = trained
        epoch = data[0].epochs[0]
        feats = encode_epochs(np.stack([epoch, epoch]), params, cfg)
        np.testing.assert_array_equal(feats[0], feats[1])

    def test_zero_epoch_neutral_stats_zero_row(self):
        cfg = tiny_cfg(seed=2)
        params = build_stager_params(cfg)
        for state in params.states.values():
            state.initialized = True  # mean 0, var 1: eval BN is a pure scale
        feats = encode_epochs(np.zeros((1, cfg.epoch_len)), params, cfg)
        np.testing.assert_allclose(feats[0], 0.0, atol=1e-15)

    def test_csv_export(self, trained, tmp_path):
        cfg, params, data = trained
        path = tmp_path / "features.csv"
        export_features_csv(params, cfg, data[0], path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(data[0]) + 1
        header = lines[0].split(",")
        assert header[-1] == "label"
        assert len(header) == cfg.extractor.feature_dim + 1
        assert [line.split(",")[-1] for line in lines[1:]] == [
            STAGES[label] for label in data[0].labels
        ]


class TestRender:
    def test_row_count_and_determinism(self, trained, tmp_path):
        cfg, params, data = trained
        h = gradcam(params, cfg, data[0].epochs[:3])
        signal = data[0].epochs[1]
        base = tmp_path / "epoch1"
        csv_path, svg_path = render_heatmap(h, signal, base)
        lines = open(csv_path).read().splitlines()
        assert len(lines) == cfg.epoch_len + 1
        first = open(csv_path, "rb").read(), open(svg_path, "rb").read()
        render_heatmap(h, signal, base)
        again = open(csv_path, "rb").read(), open(svg_path, "rb").read()
        assert first == again

    def test_zero_heatmap_no_bands(self, tmp_path):
        h = Heatmap(np.zeros(100), 0, 0.0, empty=True)
        signal = np.sin(np.linspace(0, 6, 100))
        _, svg_path = render_heatmap(h, signal, tmp_path / "flat")
        svg = open(svg_path).read()
        assert "#d62728" not in svg
        assert "<polyline" in svg

    def test_length_mismatch(self, tmp_path):
        h = Heatmap(np.zeros(10), 0, 0.0)
        with pytest.raises(InvalidInput):
            render_heatmap(h, np.zeros(11), tmp_path / "x")

    def test_unwritable_path(self, trained):
        h = Heatmap(np.zeros(10), 0, 0.0)
        with pytest.raises(IoError):
            render_heatmap(h, np.zeros(10), "/nonexistent-dir/deep/x")
