"""Full model assembly, prediction rules, and checkpoint persistence."""

import json

import numpy as np
import pytest

from sleepstager.autodiff import Tensor, grad_check, scale, sum_all, take_per_row
from sleepstager.blocks import FeatureExtractorConfig, feature_extractor_forward
from sleepstager.data import EpochSet, load_epochset, make_windows, save_epochset
from sleepstager.errors import ConfigError, CorruptCheckpoint, ShapeError
from sleepstager.model import (
    StagerConfig,
    build_stager_params,
    checkpoint_load,
    checkpoint_save,
    encode_epochs,
    forward_batch,
)
from sleepstager.training import predict_epochs


def tiny_config(window_size=3, seed=0, depth=2, hidden=8):
    return StagerConfig(
        window_size=window_size,
        stride_train=1,
        extractor=FeatureExtractorConfig.create(
            "se_resnet_18", width_multiplier=0.125, reduction_ratio=8
        ),
        lstm_hidden=hidden,
        lstm_depth=depth,
        sample_rate=10.0,  # 300-sample epochs keep tests quick
        seed=seed,
    ).validate()


@pytest.fixture(scope="module")
def tiny_model():
    cfg = tiny_config()
    params = build_stager_params(cfg)
    return cfg, params


class TestConfig:
    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(window_size=4)

    def test_dict_roundtrip(self):
        cfg = tiny_config(window_size=5, seed=3)
        assert StagerConfig.from_dict(cfg.to_dict()) == cfg

    def test_middle_index(self):
        assert tiny_config(window_size=9).middle_index == 4
        assert tiny_config(window_size=1).middle_index == 0


class TestForward:
    def test_window_size_one_degenerates(self, tiny_model):
        _, _ = tiny_model
        cfg = tiny_config(window_size=1, seed=1)
        params = build_stager_params(cfg)
        rng = np.random.default_rng(0)
        window = rng.normal(size=(1, cfg.epoch_len))
        out = forward_batch(window[None], params, cfg, "train")
        assert out.log_probs.data.shape == (1, 5)
        _, maps = feature_extractor_forward(
            Tensor(window[:, None, :]), cfg.extractor, params.extractor, "train"
        )
        assert maps.data.shape[:2] == (1, cfg.extractor.feature_dim)

    def test_log_probs_normalized(self, tiny_model):
        cfg, params = tiny_model
        rng = np.random.default_rng(1)
        for _ in range(5):
            window = rng.normal(size=(cfg.window_size, cfg.epoch_len))
            log_probs = forward_batch(window[None], params, cfg, "train").log_probs
            assert abs(np.exp(log_probs.data).sum() - 1.0) < 1e-12

    def test_wrong_window_or_length_rejected(self, tiny_model):
        cfg, params = tiny_model
        rng = np.random.default_rng(2)
        with pytest.raises(ShapeError):
            forward_batch(rng.normal(size=(1, 5, cfg.epoch_len)), params, cfg, "train")
        with pytest.raises(ShapeError):
            forward_batch(rng.normal(size=(1, 3, 123)), params, cfg, "train")
        with pytest.raises(ShapeError):
            forward_batch(rng.normal(size=(3, cfg.epoch_len)), params, cfg, "train")

    def test_batch_equivariance(self, tiny_model):
        cfg, params = tiny_model
        rng = np.random.default_rng(3)
        # initialize batchnorm running stats, then eval mode is pure
        warm = rng.normal(size=(2, cfg.window_size, cfg.epoch_len))
        forward_batch(warm, params, cfg, "train")
        w1 = rng.normal(size=(cfg.window_size, cfg.epoch_len))
        w2 = rng.normal(size=(cfg.window_size, cfg.epoch_len))
        a = forward_batch(np.stack([w1, w2]), params, cfg, "eval").log_probs.data
        b = forward_batch(np.stack([w2, w1]), params, cfg, "eval").log_probs.data
        np.testing.assert_array_equal(a[0], b[1])
        np.testing.assert_array_equal(a[1], b[0])

    def test_eval_forward_is_pure(self, tiny_model):
        cfg, params = tiny_model
        rng = np.random.default_rng(4)
        forward_batch(
            rng.normal(size=(2, cfg.window_size, cfg.epoch_len)), params, cfg, "train"
        )
        window = rng.normal(size=(cfg.window_size, cfg.epoch_len))
        a = forward_batch(window[None], params, cfg, "eval").log_probs
        b = forward_batch(window[None], params, cfg, "eval").log_probs
        assert np.array_equal(a.data, b.data)

    def test_composite_gradient_sampled(self):
        cfg = tiny_config(seed=5, depth=1)
        params = build_stager_params(cfg)
        rng = np.random.default_rng(5)
        for t in params.registry.values():
            t.data += rng.uniform(0.02, 0.1, size=t.data.shape) * rng.choice(
                [-1.0, 1.0], size=t.data.shape
            )
        window = rng.normal(size=(cfg.window_size, cfg.epoch_len))
        target = np.array([2])
        tensors = list(params.registry.values())
        entries = []
        for _ in range(12):
            i = int(rng.integers(len(tensors)))
            entries.append((i, int(rng.integers(tensors[i].data.size))))

        def fn(*ts):
            out = forward_batch(window[None], params, cfg, "train")
            return scale(sum_all(take_per_row(out.log_probs, target)), -1.0)

        assert grad_check(fn, tensors, entries=entries) < 1e-4


def random_recording(cfg, rng, n):
    return EpochSet(rng.normal(size=(n, cfg.epoch_len)), np.zeros(n), "s",
                    cfg.sample_rate)


class TestPredict:
    def test_argmax_and_tie_rule(self, tiny_model):
        cfg, params = tiny_model
        rng = np.random.default_rng(6)
        forward_batch(
            rng.normal(size=(2, cfg.window_size, cfg.epoch_len)), params, cfg, "train"
        )
        w, b = params.head
        saved_w, saved_b = w.data.copy(), b.data.copy()
        try:
            w.data[:] = 0.0
            b.data[:] = [1.0, 0.0, 0.5, 0.0, 1.0]  # exact tie between 0 and 4
            es = random_recording(cfg, rng, 4)
            np.testing.assert_array_equal(predict_epochs(params, cfg, es), 0)
            b.data[:] = [0.0, 0.0, 1.0, 0.0, 0.0]  # unique max at N2
            np.testing.assert_array_equal(predict_epochs(params, cfg, es), 2)
        finally:
            w.data, b.data = saved_w, saved_b

    def test_predict_matches_forward_argmax(self, tiny_model):
        cfg, params = tiny_model
        rng = np.random.default_rng(7)
        forward_batch(
            rng.normal(size=(2, cfg.window_size, cfg.epoch_len)), params, cfg, "train"
        )
        es = random_recording(cfg, rng, 100)
        windows = make_windows(es, cfg.window_size, 1, "replicate").gather(range(100))
        log_probs = forward_batch(windows, params, cfg, "eval").log_probs
        np.testing.assert_array_equal(
            predict_epochs(params, cfg, es), np.argmax(log_probs.data, axis=1)
        )


class TestCachedSamples:
    def test_float32_cache_set_runs_as_its_float64_copy(self, tiny_model, tmp_path):
        """A set read from a cache keeps float32 samples; every model path
        widens them to the same float64 values a float64 set would hold."""
        cfg, params = tiny_model
        save_epochset(random_recording(cfg, np.random.default_rng(8), 12),
                      tmp_path / "s.sepc")
        narrow = load_epochset(tmp_path / "s.sepc")
        wide = EpochSet(narrow.epochs.astype(np.float64), narrow.labels, "s",
                        cfg.sample_rate)
        assert narrow.epochs.dtype == np.float32
        assert wide.epochs.dtype == np.float64
        np.testing.assert_array_equal(encode_epochs(narrow.epochs, params, cfg),
                                      encode_epochs(wide.epochs, params, cfg))
        np.testing.assert_array_equal(predict_epochs(params, cfg, narrow),
                                      predict_epochs(params, cfg, wide))
        for mode in ("eval", "train"):
            outs = [
                forward_batch(make_windows(es, cfg.window_size, 1, "replicate")
                              .gather(range(12)), params, cfg, mode).log_probs.data
                for es in (narrow, wide)
            ]
            np.testing.assert_array_equal(outs[0], outs[1])


def rewrite_manifest(path, edit):
    """Apply ``edit`` to a checkpoint's JSON manifest in place; return it."""
    blob = path.read_bytes()
    mlen = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    manifest = json.loads(blob[16 : 16 + mlen])
    edit(manifest)
    raw = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + np.uint64(len(raw)).tobytes() + raw + blob[16 + mlen :])
    return manifest


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = tiny_config(seed=8)
        params = build_stager_params(cfg)
        rng = np.random.default_rng(8)
        forward_batch(
            rng.normal(size=(2, cfg.window_size, cfg.epoch_len)), params, cfg, "train"
        )
        path = tmp_path / "model.sstg"
        checkpoint_save(params, cfg, path)
        loaded, cfg2 = checkpoint_load(path)
        assert cfg2 == cfg
        for name, t in params.registry.items():
            assert np.array_equal(loaded.registry[name].data, t.data), name
        for name, st in params.states.items():
            assert np.array_equal(loaded.states[name].running_mean, st.running_mean)
            assert np.array_equal(loaded.states[name].running_var, st.running_var)
            assert loaded.states[name].initialized == st.initialized

    def test_truncated_payload(self, tmp_path):
        cfg = tiny_config(seed=9)
        params = build_stager_params(cfg)
        path = tmp_path / "model.sstg"
        checkpoint_save(params, cfg, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(CorruptCheckpoint):
            checkpoint_load(path)

    def test_bad_magic_and_version(self, tmp_path):
        cfg = tiny_config(seed=10)
        params = build_stager_params(cfg)
        path = tmp_path / "model.sstg"
        checkpoint_save(params, cfg, path)
        blob = bytearray(path.read_bytes())
        bad = tmp_path / "bad.sstg"
        bad.write_bytes(b"XXXX" + bytes(blob[4:]))
        with pytest.raises(CorruptCheckpoint) as e:
            checkpoint_load(bad)
        assert e.value.field == "magic"
        blob[4] = 99
        bad.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint) as e:
            checkpoint_load(bad)
        assert e.value.field == "version"

    def test_shape_mismatch_names_tensor(self, tmp_path):
        cfg = tiny_config(seed=11)
        params = build_stager_params(cfg)
        path = tmp_path / "model.sstg"
        checkpoint_save(params, cfg, path)

        def lie_about_first_tensor(manifest):
            manifest["tensors"][0]["shape"][0] += 1

        manifest = rewrite_manifest(path, lie_about_first_tensor)
        with pytest.raises(CorruptCheckpoint) as e:
            checkpoint_load(path)
        assert e.value.field == manifest["tensors"][0]["name"]

    @pytest.mark.parametrize("fault", [
        "tensor_renamed", "state_renamed", "state_shape", "nan_in_first_tensor",
        "nan_in_last_running_var", "trailing_byte",
    ])
    def test_single_fault_names_what_broke(self, tmp_path, fault):
        # one fault per file: each raises its own field and message
        cfg = tiny_config(seed=14)
        params = build_stager_params(cfg)
        path = tmp_path / "model.sstg"
        checkpoint_save(params, cfg, path)
        tensor, state = next(iter(params.registry)), list(params.states)[-1]
        channels = params.states[state].running_mean.shape[0]

        def edit(key, index, field, value):
            rewrite_manifest(path, lambda m: m[key][index].__setitem__(field, value))

        def nan_at(offset):
            blob = bytearray(path.read_bytes())
            blob[offset : offset + 8] = np.float64(np.nan).tobytes()
            path.write_bytes(bytes(blob))

        if fault == "tensor_renamed":
            edit("tensors", 0, "name", "renamed")
            field, message = "tensors", "tensor list does not match the declared config"
        elif fault == "state_renamed":
            edit("state", -1, "name", "renamed")
            field, message = "state", "state list does not match the declared config"
        elif fault == "state_shape":
            edit("state", -1, "shape", [channels + 1])
            field = state
            message = f"declared shape [{channels + 1}] != expected [{channels}]"
        elif fault == "nan_in_first_tensor":
            mlen = int(np.frombuffer(path.read_bytes()[8:16], dtype="<u8")[0])
            nan_at(16 + mlen)
            field, message = tensor, "non-finite values in payload"
        elif fault == "nan_in_last_running_var":
            nan_at(len(path.read_bytes()) - 8)
            field, message = state, "non-finite values in payload"
        else:
            path.write_bytes(path.read_bytes() + b"\0")
            field, message = "payload", "trailing bytes after payload"
        with pytest.raises(CorruptCheckpoint) as e:
            checkpoint_load(path)
        assert e.value.field == field
        assert str(e.value) == f"{message} (field: {field})"

    def test_manifest_not_utf8(self, tmp_path):
        # a manifest length 5 too large reads payload bytes, which are not UTF-8
        cfg = tiny_config(seed=14)
        path = tmp_path / "model.sstg"
        checkpoint_save(build_stager_params(cfg), cfg, path)
        blob = path.read_bytes()
        mlen = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
        path.write_bytes(blob[:8] + np.uint64(mlen + 5).tobytes() + blob[16:])
        with pytest.raises(CorruptCheckpoint) as e:
            checkpoint_load(path)
        assert e.value.field == "manifest"
        assert str(e.value).startswith("manifest is not valid JSON: ")
        assert isinstance(e.value.__cause__, UnicodeDecodeError)

    @pytest.mark.parametrize("edit, field", [
        (lambda m: m["tensors"].__setitem__(0, ["w", [1]]), "tensors"),
        (lambda m: m["tensors"][0].__setitem__("shape", 8), "tensors"),
        (lambda m: m["tensors"][0].pop("shape"), "tensors"),
        (lambda m: m["state"][0].pop("initialized"), "state"),
    ], ids=["tensor_not_object", "shape_not_list", "shape_missing",
            "initialized_missing"])
    def test_malformed_entry_names_its_list(self, tmp_path, edit, field):
        # a manifest that is valid JSON but whose entries are malformed
        cfg = tiny_config(seed=13)
        path = tmp_path / "model.sstg"
        checkpoint_save(build_stager_params(cfg), cfg, path)
        rewrite_manifest(path, edit)
        with pytest.raises(CorruptCheckpoint) as e:
            checkpoint_load(path)
        assert e.value.field == field

    @pytest.mark.parametrize("key, value", [
        ("stride_eval", 2),
        ("num_classes", 4),
        ("head_widths", [8, 5]),
        ("extractor.stem_kernel", 5),
        ("extractor.stage_widths", [16, 32, 64, 128]),  # width 0.25, not 0.125
        ("extractor.blocks_per_stage", [3, 4, 6, 3]),  # se_resnet_34's
        ("window_size", "three"),
        ("extractor.width_multiplier", "wide"),
    ])
    def test_fixed_manifest_key_rejected(self, tmp_path, key, value):
        # the manifest still carries keys that no config can set: fixed
        # values, and extractor shapes derived from its three settings;
        # any other value marks a corrupt manifest, as does a setting
        # that is not a number
        cfg = tiny_config(seed=12)
        *parents, name = key.split(".")

        def set_key(manifest):
            section = manifest["config"]
            for parent in parents:
                section = section[parent]
            assert section[name] != value
            section[name] = value

        path = tmp_path / "model.sstg"
        checkpoint_save(build_stager_params(cfg), cfg, path)
        manifest = rewrite_manifest(path, set_key)
        with pytest.raises(CorruptCheckpoint) as e:
            checkpoint_load(path)
        assert e.value.field == "manifest"
        with pytest.raises(ConfigError):
            StagerConfig.from_dict(manifest["config"])
