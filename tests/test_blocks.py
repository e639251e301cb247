"""SE block, residual block, and feature extractor behavior."""

import numpy as np
import pytest

import sleepstager.blocks as blocks
from sleepstager.autodiff import Tensor, channel_scale, global_avg_pool, sum_all, mul
from sleepstager.blocks import (
    FeatureExtractorConfig,
    ParamBuilder,
    basic_block_forward,
    build_basic_block,
    build_extractor,
    build_se,
    feature_extractor_forward,
    se_forward,
)
from sleepstager.errors import ConfigError, ShapeError
from sleepstager.autodiff import grad_check


class TestSEBlock:
    def test_forced_scale_is_channel_scaling(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        s = Tensor([[0.5, 1.0]])
        np.testing.assert_allclose(
            channel_scale(x, s).data, [[[0.5, 1.0], [3.0, 4.0]]]
        )

    def test_squeeze_is_hand_average(self):
        z = global_avg_pool(Tensor([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]]))
        np.testing.assert_allclose(z.data, [[2.0, 5.0]])

    def test_scale_in_sigmoid_range_and_contracts(self):
        rng = np.random.default_rng(0)
        builder = ParamBuilder(seed=1)
        p = build_se(builder, "se", 4, 2)
        x = Tensor(rng.normal(size=(1, 4, 8)))
        y = se_forward(x, p).data
        assert np.all(np.abs(y) <= np.abs(x.data) + 1e-15)
        assert np.all(np.sign(y) == np.sign(x.data))

    def test_batched_matches_single(self):
        # a batch of three against three batches of one
        rng = np.random.default_rng(1)
        builder = ParamBuilder(seed=2)
        p = build_se(builder, "se", 4, 2)
        xs = rng.normal(size=(3, 4, 6))
        batched = se_forward(Tensor(xs), p).data
        for i in range(3):
            np.testing.assert_allclose(
                batched[i], se_forward(Tensor(xs[i : i + 1]), p).data[0], rtol=1e-12
            )

    def test_gradient(self):
        rng = np.random.default_rng(2)
        builder = ParamBuilder(seed=3)
        p = build_se(builder, "se", 4, 2)
        x = Tensor(rng.normal(size=(1, 4, 8)))
        w = rng.uniform(-1, 1, size=(1, 4, 8))
        err = grad_check(
            lambda xx, f1, f2: sum_all(mul(se_forward(xx, p), Tensor(w))),
            [x, p.fc1, p.fc2],
        )
        assert err < 1e-6


class TestBasicBlock:
    def test_zeroed_residual_branch_is_relu(self):
        rng = np.random.default_rng(3)
        builder = ParamBuilder(seed=4)
        p = build_basic_block(builder, "blk", 3, 3, 1, 1)
        assert p.shortcut_conv is None
        p.conv2.data[:] = 0.0
        x = Tensor(rng.normal(size=(2, 3, 10)))
        y = basic_block_forward(x, p, "train")
        np.testing.assert_allclose(y.data, np.maximum(x.data, 0.0), atol=1e-12)

    def test_stride_two_halves_length(self):
        builder = ParamBuilder(seed=5)
        p = build_basic_block(builder, "blk", 2, 4, 2, 2)
        assert p.shortcut_conv is not None
        x = Tensor(np.random.default_rng(4).normal(size=(1, 2, 16)))
        assert basic_block_forward(x, p, "train").data.shape == (1, 4, 8)

    def test_se_is_pure_channel_reweighting(self, monkeypatch):
        # with the excitation forced to all ones the block must equal the
        # same block with the SE stage dropped entirely
        rng = np.random.default_rng(5)
        builder = ParamBuilder(seed=6)
        p = build_basic_block(builder, "blk", 3, 3, 1, 3)
        x = Tensor(rng.normal(size=(1, 3, 12)))

        def forced_ones(h, _p):
            return channel_scale(h, Tensor(np.ones(h.data.shape[:2])))

        monkeypatch.setattr(blocks, "se_forward", forced_ones)
        forced = basic_block_forward(x, p, "train").data
        monkeypatch.setattr(blocks, "se_forward", lambda h, _p: h)
        removed = basic_block_forward(x, p, "train").data
        np.testing.assert_allclose(forced, removed, rtol=1e-12)

    def test_gradient_through_block(self):
        rng = np.random.default_rng(6)
        builder = ParamBuilder(seed=7)
        p = build_basic_block(builder, "blk", 2, 4, 2, 2)
        # zero-initialized biases/betas leave SE pre-activations exactly on
        # the relu kink where central differences are ill-defined; move to a
        # generic point before checking
        for t in builder.registry.values():
            t.data += rng.uniform(0.05, 0.2, size=t.data.shape) * rng.choice(
                [-1.0, 1.0], size=t.data.shape
            )
        x = Tensor(rng.normal(size=(1, 2, 12)))
        w = rng.uniform(-1, 1, size=(1, 4, 6))
        tensors = [x] + list(builder.registry.values())

        def fn(*ts):
            return sum_all(mul(basic_block_forward(ts[0], p, "train"), Tensor(w)))

        assert grad_check(fn, tensors) < 1e-5


class TestExtractorConfig:
    def test_variant_block_counts(self):
        assert FeatureExtractorConfig.create("se_resnet_18").blocks_per_stage == (2, 2, 2, 2)
        assert FeatureExtractorConfig.create("se_resnet_34").blocks_per_stage == (3, 4, 6, 3)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            FeatureExtractorConfig.create("se_resnet_50")

    def test_width_smaller_than_reduction_rejected(self):
        with pytest.raises(ConfigError):
            FeatureExtractorConfig.create("se_resnet_18", width_multiplier=0.125,
                                          reduction_ratio=16)

    def test_dict_roundtrip(self):
        cfg = FeatureExtractorConfig.create("se_resnet_34", 0.25, 8)
        again = FeatureExtractorConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestFeatureExtractor:
    def test_full_width_dimension_is_512(self):
        cfg = FeatureExtractorConfig.create("se_resnet_18")
        builder = ParamBuilder(seed=8)
        params = build_extractor(builder, cfg)
        x = Tensor(np.random.default_rng(7).normal(size=(1, 1, 3000)))
        feat, acts = feature_extractor_forward(x, cfg, params, "train")
        assert feat.data.shape == (1, 512)
        # 3000 samples: stem stride 2 to 1500, max-pool to 749, then stages
        # s1..s3 halve it (rounding up) to 375, 188 and 94
        assert acts.data.shape == (1, 512, 94)

    def test_eighth_width_dimension_is_64(self):
        cfg = FeatureExtractorConfig.create("se_resnet_18", width_multiplier=0.125,
                                            reduction_ratio=8)
        assert cfg.feature_dim == 64

    def test_zero_input_zero_biases_gives_zero_features(self):
        cfg = FeatureExtractorConfig.create("se_resnet_18", width_multiplier=0.0625,
                                            reduction_ratio=4)
        builder = ParamBuilder(seed=9)
        params = build_extractor(builder, cfg)
        x = Tensor(np.zeros((1, 1, 300)))
        feat, _ = feature_extractor_forward(x, cfg, params, "train")
        np.testing.assert_allclose(feat.data, 0.0, atol=1e-15)

    def test_output_shape_independent_of_values(self):
        cfg = FeatureExtractorConfig.create("se_resnet_18", width_multiplier=0.0625,
                                            reduction_ratio=4)
        builder = ParamBuilder(seed=10)
        params = build_extractor(builder, cfg)
        rng = np.random.default_rng(8)
        shapes = set()
        for scale in (0.01, 1.0, 100.0):
            x = Tensor(rng.normal(scale=scale, size=(2, 1, 300)))
            feat, acts = feature_extractor_forward(x, cfg, params, "train")
            shapes.add((feat.data.shape, acts.data.shape))
        assert len(shapes) == 1

    def test_wrong_rank_rejected(self):
        cfg = FeatureExtractorConfig.create("se_resnet_18", width_multiplier=0.0625,
                                            reduction_ratio=4)
        builder = ParamBuilder(seed=11)
        params = build_extractor(builder, cfg)
        with pytest.raises(ShapeError):
            feature_extractor_forward(Tensor(np.zeros((2, 300))), cfg, params, "train")
