"""Loss, optimizer, training loop, and cross-validation harness."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sleepstager.autodiff import Tape, Tensor, backward, grad_check, log_softmax, zero_grads
from sleepstager.blocks import FeatureExtractorConfig
from sleepstager.data import EpochSet, make_windows, synth_generate
from sleepstager.errors import (
    ConfigError,
    ContractViolation,
    EmptyDataset,
    InvalidLabel,
)
from sleepstager import model, training
from sleepstager.metrics import metrics_report
from sleepstager.model import StagerConfig, build_stager_params, forward_batch
from sleepstager.training import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_validate,
    evaluate,
    fit,
    init_adam,
    nll_loss,
    predict_epochs,
)


def supertiny_config(seed=0, window=3, rate=10.0):
    return StagerConfig(
        window_size=window,
        stride_train=1,
        extractor=FeatureExtractorConfig.create(
            "se_resnet_18", width_multiplier=0.0625, reduction_ratio=4
        ),
        lstm_hidden=4,
        lstm_depth=1,
        sample_rate=rate,
        seed=seed,
    ).validate()


def noise_epochset(n, label_seq, rate=10.0, subject="s", seed=0):
    rng = np.random.default_rng(seed)
    labels = np.resize(np.array(label_seq, dtype=np.int8), n)
    return EpochSet(rng.normal(size=(n, int(30 * rate))), labels, subject, rate)


class FakeParams:
    def __init__(self, registry):
        self.registry = registry


class TestNllLoss:
    def test_hand_value(self):
        probs = np.array([[0.7, 0.2, 0.05, 0.03, 0.02]])
        loss = nll_loss(Tensor(np.log(probs)), [0])
        assert loss.item() == pytest.approx(0.35667, abs=1e-5)
        assert loss.item() == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_perfect_prediction_limit(self):
        probs = np.full((1, 5), 1e-12)
        probs[0, 3] = 1.0 - 4e-12
        loss = nll_loss(Tensor(np.log(probs)), [3])
        assert loss.item() < 1e-10

    def test_batch_mean(self):
        lp = np.log(np.full((4, 5), 0.2))
        assert nll_loss(Tensor(lp), [0, 1, 2, 3]).item() == pytest.approx(
            -math.log(0.2)
        )

    def test_out_of_range_target(self):
        lp = Tensor(np.log(np.full((2, 5), 0.2)))
        with pytest.raises(InvalidLabel):
            nll_loss(lp, [0, 5])

    def test_gradient(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(6, 5)))
        targets = rng.integers(0, 5, size=6)
        err = grad_check(lambda t: nll_loss(log_softmax(t), targets), [x])
        assert err < 1e-7


class TestAdam:
    def test_first_step_magnitude(self):
        theta = Tensor(np.zeros(4), requires_grad=True)
        params = FakeParams({"theta": theta})
        state = init_adam(params, lr=0.001)
        theta.grad = np.ones(4)
        adam_step(params, state)
        np.testing.assert_allclose(theta.data, -0.001 / (1 + 1e-8), rtol=1e-12)

    def test_zero_gradient_no_motion(self):
        theta = Tensor(np.full(3, 1.5), requires_grad=True)
        params = FakeParams({"theta": theta})
        state = init_adam(params, lr=0.01)
        for _ in range(10):
            theta.grad = np.zeros(3)
            adam_step(params, state)
        np.testing.assert_array_equal(theta.data, np.full(3, 1.5))

    def test_missing_grad_rejected(self):
        theta = Tensor(np.zeros(2), requires_grad=True)
        params = FakeParams({"theta": theta})
        state = init_adam(params, lr=0.001)
        with pytest.raises(ContractViolation):
            adam_step(params, state)

    def test_quadratic_descent_matches_scalar_oracle(self):
        # independent plain-float Adam on f(x) = x^2 from x = 1; lr chosen so
        # 100 bounded Adam steps (each ~lr) can actually cover the distance
        lr, b1, b2, eps = 0.015, 0.9, 0.999, 1e-8
        x, m, v = 1.0, 0.0, 0.0
        oracle = []
        for t in range(1, 101):
            g = 2.0 * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            oracle.append(x)

        theta = Tensor(np.array([1.0]), requires_grad=True)
        params = FakeParams({"theta": theta})
        state = init_adam(params, lr=lr)
        mine = []
        for _ in range(100):
            theta.grad = 2.0 * theta.data
            adam_step(params, state)
            mine.append(float(theta.data[0]))
        np.testing.assert_allclose(mine, oracle, rtol=1e-12)
        tail = np.abs(mine[3:])
        assert np.all(np.diff(tail) < 0)
        assert abs(mine[-1]) < 0.1


@pytest.fixture(scope="module")
def small_synth():
    # low sample rate keeps trainer mechanics tests fast
    return synth_generate(4, 24, 8.0, seed=77)


class TestFit:
    def test_loss_descends_and_is_deterministic(self, small_synth):
        cfg = supertiny_config(rate=8.0)
        tc = TrainConfig(epochs=3, batch_size=16, stride_train=1, seed=5)
        _, hist1 = fit(small_synth, cfg, tc)
        _, hist2 = fit(small_synth, cfg, tc)
        assert hist1 == hist2
        assert hist1[-1] < hist1[0]

    def test_checkpoints_identical_across_runs(self, small_synth, tmp_path):
        cfg = supertiny_config(rate=8.0)
        tc = TrainConfig(epochs=2, batch_size=16, stride_train=2, seed=9)
        fit(small_synth, cfg, tc, checkpoint_path=tmp_path / "a.sstg")
        fit(small_synth, cfg, tc, checkpoint_path=tmp_path / "b.sstg")
        assert (tmp_path / "a.sstg").read_bytes() == (tmp_path / "b.sstg").read_bytes()

    def test_leaves_no_gradient_behind(self, small_synth):
        cfg = supertiny_config(rate=8.0)
        tc = TrainConfig(epochs=1, batch_size=16, stride_train=1, seed=9)
        params, _ = fit(small_synth, cfg, tc)
        assert [n for n, t in params.registry.items() if t.grad is not None] == []

    def test_checkpoint_records_the_trained_stride(self, small_synth, tmp_path):
        # the model config says stride 1, the run trains at stride 4
        cfg = supertiny_config(rate=8.0)
        tc = TrainConfig(epochs=1, batch_size=16, stride_train=4, seed=9)
        params, _ = fit(small_synth, cfg, tc, checkpoint_path=tmp_path / "c.sstg")
        loaded, saved_cfg = model.checkpoint_load(tmp_path / "c.sstg")
        assert cfg.stride_train == 1
        assert saved_cfg == replace(cfg, stride_train=4)
        for name, t in params.registry.items():
            assert np.array_equal(loaded.registry[name].data, t.data), name

    def test_stride_four_quarter_windows(self, small_synth):
        # 24 epochs, W=9: stride 1 -> 16 windows; stride 4 -> 4 windows
        es = small_synth[0]
        assert len(make_windows(es, 9, 1, "skip")) == 16
        assert len(make_windows(es, 9, 4, "skip")) == 4

    def test_stride_schedule_covers_every_window(self, small_synth, monkeypatch):
        # record the (view, window) rows fit draws for each epoch; one batch
        # holds a whole epoch, in the order fit shuffled it
        stride = 4
        cfg = supertiny_config(rate=8.0)
        drawn = []
        window_rows = training._window_rows

        def recording_rows(views, stride, phases):
            rows = window_rows(views, stride, phases)
            drawn.append((views, rows))
            return rows

        monkeypatch.setattr(training, "_window_rows", recording_rows)
        tc = TrainConfig(epochs=2 * stride, batch_size=1000, lr=0.0,
                         stride_train=stride, seed=3)
        params, history = fit(small_synth, cfg, tc)
        monkeypatch.undo()
        # fit draws the rows once per epoch
        assert len(drawn) == tc.epochs
        views = drawn[0][0]
        assert len(views) == len(small_synth)
        assert all(view.epoch_set is es for view, es in zip(views, small_synth))
        per_epoch = []
        for epoch_views, rows in drawn:
            assert epoch_views is views
            per_epoch.append([rows[rows[:, 0] == s, 1] for s in range(len(views))])
        half = cfg.middle_index
        for s, (view, es) in enumerate(zip(views, small_synth)):
            n1 = len(make_windows(es, cfg.window_size, 1, "skip"))
            for ks in (epoch[s] for epoch in per_epoch):
                assert ks[0] < stride and np.all(np.diff(ks) == stride)
                assert ks[-1] + stride >= n1 > ks[-1]
                assert abs(len(ks) - n1 / stride) < 1.0
            # every block of `stride` epochs makes every centre a target
            for block in range(2):
                centres = set()
                for epoch in per_epoch[block * stride:(block + 1) * stride]:
                    centres.update(view.center(k) for k in epoch[s])
                assert centres == set(range(half, len(es) - half))
        # lr 0 keeps the parameters fixed: each history entry is the mean
        # loss over exactly that epoch's windows
        for e, epoch in enumerate(per_epoch):
            batch = np.concatenate([v.gather(ks) for v, ks in zip(views, epoch)])
            targets = np.concatenate([v.labels()[ks] for v, ks in zip(views, epoch)])
            out = forward_batch(batch, params, cfg, "train")
            assert history[e] == pytest.approx(nll_loss(out.log_probs, targets).item(),
                                               rel=1e-12)
        trained = replace(tc, lr=0.001, epochs=stride)
        assert fit(small_synth, cfg, trained)[1] == fit(small_synth, cfg, trained)[1]

    def test_empty_training_set(self):
        cfg = supertiny_config()
        with pytest.raises(EmptyDataset):
            fit([], cfg, TrainConfig(epochs=1))

    def test_epoch_length_mismatch(self, small_synth):
        cfg = supertiny_config(rate=10.0)  # 300-sample epochs vs 240 in data
        with pytest.raises(ConfigError):
            fit(small_synth, cfg, TrainConfig(epochs=1))

    def test_sanity_descent_across_seeds(self):
        # fixed batch, 5 steps: loss strictly decreases for >= 90% of seeds
        ok = 0
        for seed in range(20):
            cfg = supertiny_config(seed=seed)
            params = build_stager_params(cfg)
            rng = np.random.default_rng(seed)
            batch = rng.normal(size=(8, cfg.window_size, cfg.epoch_len))
            targets = rng.integers(0, 5, size=8)
            state = init_adam(params, lr=1e-3)
            tensors = list(params.registry.values())
            losses = []
            for _ in range(6):
                zero_grads(tensors)
                with Tape() as tape:
                    out = forward_batch(batch, params, cfg, "train")
                    loss = nll_loss(out.log_probs, targets)
                losses.append(loss.item())
                backward(loss, tape)
                adam_step(params, state)
            if all(b < a for a, b in zip(losses, losses[1:])):
                ok += 1
        assert ok >= 18


class TestEvaluate:
    def test_every_epoch_predicted(self, small_synth):
        cfg = supertiny_config(rate=8.0)
        params = build_stager_params(cfg)
        # initialize bn state
        fit(small_synth[:1], cfg, TrainConfig(epochs=1, batch_size=8, stride_train=2),
            params=params)
        cm = evaluate(params, cfg, small_synth)
        assert cm.sum() == sum(len(es) for es in small_synth)

    def test_predictions_align_with_labels_vector(self, small_synth):
        cfg = supertiny_config(rate=8.0)
        params, _ = fit(
            small_synth[:1], cfg, TrainConfig(epochs=1, batch_size=8, stride_train=1)
        )
        preds = predict_epochs(params, cfg, small_synth[1])
        assert preds.shape == (len(small_synth[1]),)
        assert set(np.unique(preds)) <= {0, 1, 2, 3, 4}


def trained_window5(small_synth):
    """A window-5 model after one epoch, so batchnorm has running statistics."""
    cfg = supertiny_config(window=5, rate=8.0)
    params, _ = fit(small_synth[:1], cfg,
                    TrainConfig(epochs=1, batch_size=8, stride_train=1))
    return params, cfg


class TestScoreEpochs:
    BATCH = 4

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(model, "EVAL_BATCH", self.BATCH)

    @pytest.mark.parametrize("n", [1, 4, 5, 2 * BATCH + 1])
    def test_matches_window_by_window(self, small_synth, n):
        # 1 and W-1 epochs clamp every window at both edges, W clamps all
        # but the middle one, and 2 * BATCH + 1 crosses two chunk boundaries
        params, cfg = trained_window5(small_synth)
        es = small_synth[2]
        es = EpochSet(es.epochs[:n], es.labels[:n], es.subject_id, es.sample_rate)
        view = make_windows(es, cfg.window_size, 1, "replicate")
        ks = np.arange(n)
        expected = forward_batch(view.gather(ks), params, cfg, "eval").log_probs.data
        features = Tensor(model.encode_epochs(es.epochs, params, cfg))
        got = model.classify(features, view.spans(ks), params, cfg).data
        assert got.shape == (n, 5)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(
            predict_epochs(params, cfg, es), np.argmax(expected, axis=1)
        )

    def test_each_epoch_reaches_the_extractor_once(self, small_synth, monkeypatch):
        params, cfg = trained_window5(small_synth)
        es = small_synth[1]
        calls = []
        original = model.feature_extractor_forward

        def recording(x, *args):
            calls.append(x.data.copy())
            return original(x, *args)

        monkeypatch.setattr(model, "feature_extractor_forward", recording)
        preds = predict_epochs(params, cfg, es)
        assert preds.shape == (len(es),)
        assert max(len(x) for x in calls) <= self.BATCH
        np.testing.assert_array_equal(np.concatenate(calls)[:, 0, :], es.epochs)

    def test_evaluate_skips_empty_recordings(self, small_synth):
        params, cfg = trained_window5(small_synth)
        empty = EpochSet(np.empty((0, small_synth[0].epoch_len)), [], "e", 8.0)
        cm = evaluate(params, cfg, [empty, small_synth[3]])
        assert cm.sum() == len(small_synth[3])
        with pytest.raises(EmptyDataset):
            evaluate(params, cfg, [empty])


class TestCrossValidate:
    def test_two_folds_accounting(self, small_synth):
        cfg = supertiny_config(rate=8.0)
        tc = TrainConfig(epochs=1, batch_size=16, stride_train=2, seed=3)
        results, pooled = cross_validate(small_synth, 2, cfg, tc)
        assert len(results) == 2
        total = sum(len(es) for es in small_synth)
        assert pooled["overall"]["total_epochs"] == total
        assert sum(r.confusion.sum() for r in results) == total
        for r in results:
            assert not set(r.train_subjects) & set(r.test_subjects)

    def test_pooled_equals_sum_of_fold_matrices(self, small_synth):
        cfg = supertiny_config(rate=8.0)
        tc = TrainConfig(epochs=1, batch_size=16, stride_train=2, seed=4)
        results, pooled = cross_validate(small_synth, 2, cfg, tc)
        summed = np.sum([r.confusion for r in results], axis=0)
        assert pooled == metrics_report(summed)
        # pooled MF1 comes from the pooled matrix, not the fold mean
        assert pooled["overall"]["mf1"] == metrics_report(summed)["overall"]["mf1"]

    def test_degenerate_all_wake_collapses_to_majority(self):
        sets = [noise_epochset(12, [0], subject=f"s{i}", seed=i) for i in range(4)]
        cfg = supertiny_config()
        tc = TrainConfig(epochs=8, batch_size=8, stride_train=1, seed=0, lr=0.005)
        _, pooled = cross_validate(sets, 2, cfg, tc)
        assert pooled["overall"]["accuracy"] == 1.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_end_to_end(self, small_synth, jobs):
        # the second run goes through the process pool at jobs=2
        cfg = supertiny_config(rate=8.0)
        tc = TrainConfig(epochs=1, batch_size=16, stride_train=2, seed=11)
        r1, p1 = cross_validate(small_synth, 2, cfg, tc)
        r2, p2 = cross_validate(small_synth, 2, cfg, tc, jobs=jobs)
        assert len(r1) == len(r2) == 2
        assert p1 == p2
        for a, b in zip(r1, r2):
            assert a.loss_history == b.loss_history
            assert np.array_equal(a.confusion, b.confusion)
