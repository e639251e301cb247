"""Acceptance suite: one test per release criterion, each printing a verdict.

Heavy fixtures (the 45-epoch desk-scale trainings) are shared across
criteria 5-7. Run with ``pytest tests/test_acceptance.py -v`` for the
per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from sleepstager import STAGE_TO_INDEX, STAGES
from sleepstager.autodiff import (
    BatchNormState,
    Tensor,
    batchnorm1d,
    conv1d,
    global_avg_pool,
    grad_check,
    log_softmax,
    matmul,
    max_pool1d,
    mul,
    relu,
    sigmoid,
    sum_all,
    tanh,
)
from sleepstager.blocks import FeatureExtractorConfig
from sleepstager.cli import main as cli_main
from sleepstager.data import make_windows, parse_edf, synth_generate, write_edf
from sleepstager.data.windows import WindowView
from sleepstager.errors import EmptyDataset, ParseError
from sleepstager.explain import gradcam, heatmap_mass_fraction
from sleepstager.metrics import confusion_from, kappa_multiclass, metrics_report
from sleepstager.model import StagerConfig, build_stager_params, forward_batch
from sleepstager.training import TrainConfig, evaluate, fit, nll_loss

FS = 32.0
SEED = 42


def announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


# ---------------------------------------------------------------------------
# shared desk-scale fixtures


@pytest.fixture(scope="module")
def synth_data():
    sets = synth_generate(10, 120, FS, seed=SEED)
    return sets[:8], sets[8:]


def desk_config(seed=0):
    return StagerConfig(
        window_size=9,
        stride_train=1,
        extractor=FeatureExtractorConfig.create(
            "se_resnet_18", width_multiplier=0.03125, reduction_ratio=2
        ),
        lstm_hidden=16,
        lstm_depth=2,
        sample_rate=FS,
        seed=seed,
    ).validate()


@pytest.fixture(scope="module")
def trained_stride1(synth_data):
    train_sets, _ = synth_data
    cfg = desk_config()
    t0 = time.perf_counter()
    params, history = fit(
        train_sets, cfg,
        TrainConfig(epochs=45, batch_size=64, lr=0.001, stride_train=1, seed=0),
    )
    return cfg, params, history, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trained_stride4(synth_data):
    train_sets, _ = synth_data
    cfg = desk_config()
    t0 = time.perf_counter()
    params, history = fit(
        train_sets, cfg,
        TrainConfig(epochs=45, batch_size=64, lr=0.001, stride_train=4, seed=0),
    )
    return cfg, params, history, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity


def test_criterion_1_gradient_fidelity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    eps = 1e-5
    worst_per_op = {}

    def check(name, fn, make_inputs, points=10, tol=1e-6):
        worst = 0.0
        for _ in range(points):
            worst = max(worst, grad_check(fn, make_inputs(), epsilon=eps))
        worst_per_op[name] = worst
        assert worst < tol, f"{name}: {worst}"

    check("matmul",
          lambda a, b: sum_all(tanh(matmul(a, b))),
          lambda: [Tensor(rng.uniform(-1, 1, (4, 5))),
                   Tensor(rng.uniform(-1, 1, (5, 3)))])
    check("conv1d",
          lambda x, w: sum_all(tanh(conv1d(x, w, stride=2, padding=1))),
          lambda: [Tensor(rng.uniform(-1, 1, (1, 2, 16))),
                   Tensor(rng.uniform(-1, 1, (3, 2, 5)))])

    def bn_inputs():
        return [Tensor(rng.uniform(-1, 1, (3, 2, 8))),
                Tensor(rng.uniform(0.5, 1.5, 2)),
                Tensor(rng.uniform(-0.5, 0.5, 2))]

    bn_weights = rng.uniform(-1, 1, (3, 2, 8))
    check("batchnorm1d",
          lambda x, g, b: sum_all(mul(
              batchnorm1d(x, g, b, BatchNormState(2), "train"),
              Tensor(bn_weights))),
          bn_inputs, tol=1e-5)
    for kind, op in (("relu", relu), ("sigmoid", sigmoid), ("tanh", tanh)):
        def make(kind=kind):
            x = rng.uniform(-2, 2, 8)
            x[np.abs(x) < 1e-3] += 0.01
            return [Tensor(x)]
        check(kind, lambda x, op=op: sum_all(op(x)), make)
    ls_weights = rng.uniform(-1, 1, (3, 5))
    check("log_softmax",
          lambda x: sum_all(mul(log_softmax(x), Tensor(ls_weights))),
          lambda: [Tensor(rng.uniform(-3, 3, (3, 5)))])
    check("global_avg_pool",
          lambda x: sum_all(sigmoid(global_avg_pool(x))),
          lambda: [Tensor(rng.uniform(-1, 1, (1, 3, 12)))])
    check("max_pool",
          lambda x: sum_all(tanh(max_pool1d(x, 3, 2))),
          lambda: [Tensor(rng.permutation(np.linspace(-2, 2, 36)).reshape(1, 3, 12))])
    check("nll_loss",
          lambda x: nll_loss(log_softmax(x), np.array([0, 3, 2])),
          lambda: [Tensor(rng.uniform(-2, 2, (3, 5)))], tol=1e-7)

    # composed tiny model: window 3, 300-sample epochs, H=8, eighth width
    cfg = StagerConfig(
        window_size=3,
        stride_train=1,
        extractor=FeatureExtractorConfig.create(
            "se_resnet_18", width_multiplier=0.125, reduction_ratio=8
        ),
        lstm_hidden=8,
        lstm_depth=3,
        sample_rate=10.0,
        seed=7,
    ).validate()
    params = build_stager_params(cfg)
    for t in params.registry.values():
        t.data += rng.uniform(0.02, 0.1, t.data.shape) * rng.choice(
            [-1.0, 1.0], t.data.shape
        )
    window = rng.normal(size=(cfg.window_size, cfg.epoch_len))
    target = np.array([2])
    tensors = list(params.registry.values())
    entries = []
    for _ in range(20):
        i = int(rng.integers(len(tensors)))
        entries.append((i, int(rng.integers(tensors[i].data.size))))

    def model_fn(*ts):
        out = forward_batch(window[None], params, cfg, "train")
        return nll_loss(out.log_probs, target)

    composite = grad_check(model_fn, tensors, epsilon=eps, entries=entries)
    elapsed = time.perf_counter() - t0
    assert composite < 1e-4, composite
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s"
    announce(
        capsys,
        f"ACCEPTANCE 1 gradient fidelity: PASS "
        f"(worst op {max(worst_per_op.values()):.2e}, composite {composite:.2e}, "
        f"{elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: LSTM equation conformance


def test_criterion_2_lstm_equations(capsys):
    from sleepstager.blocks import ParamBuilder
    from sleepstager.recurrent import build_lstm_cell, lstm_cell_step
    from sleepstager.autodiff import add_rowvec, concat, transpose

    builder = ParamBuilder(seed=0)
    p = build_lstm_cell(builder, "cell", 3, 4)
    for t in builder.registry.values():
        t.data[:] = 0.0
    x = Tensor([[0.7, -1.1, 0.4]])
    h0 = Tensor(np.zeros((1, 4)))
    c0 = Tensor(np.zeros((1, 4)))
    # gate values at zero parameters: sigmoid(0) exactly 0.5, tanh(0) = 0
    zcat = concat([h0, x])
    for w, b in ((p.w_f, p.b_f), (p.w_i, p.b_i), (p.w_o, p.b_o)):
        gate = sigmoid(add_rowvec(matmul(zcat, transpose(w)), b))
        np.testing.assert_array_equal(gate.data[0], np.full(4, 0.5))
    c_hat = tanh(add_rowvec(matmul(zcat, transpose(p.w_c)), p.b_c))
    np.testing.assert_array_equal(c_hat.data[0], np.zeros(4))
    h1, c1 = lstm_cell_step(x, h0, c0, p)
    np.testing.assert_array_equal(c1.data[0], np.zeros(4))
    np.testing.assert_array_equal(h1.data[0], np.zeros(4))

    # saturated forget gate holds memory, closed input gate admits nothing
    p.b_f.data[:] = 10.0
    p.b_i.data[:] = -10.0
    held = np.array([1.5, -0.7, 0.2, 2.0])
    _, c_t = lstm_cell_step(x, Tensor(np.zeros((1, 4))), Tensor(held[None].copy()), p)
    drift = np.max(np.abs(c_t.data - held))
    assert drift < 1e-3, drift
    announce(capsys, f"ACCEPTANCE 2 LSTM equations: PASS (memory drift {drift:.2e})")


# ---------------------------------------------------------------------------
# criterion 3: metric oracle equivalence


def test_criterion_3_metric_oracles(capsys):
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(5, 200))
        labels = rng.integers(0, 5, n)
        preds = rng.integers(0, 5, n)
        report = metrics_report(confusion_from(preds, labels))
        got = report["overall"]
        # matrix-free counting oracle with the same arithmetic structure
        acc = float(np.sum(preds == labels)) / n
        f1s, sens, spec, support = [], [], [], []
        for c in range(5):
            tp = int(np.sum((preds == c) & (labels == c)))
            fp = int(np.sum((preds == c) & (labels != c)))
            fn = int(np.sum((preds != c) & (labels == c)))
            tn = n - tp - fp - fn
            pr = tp / (tp + fp) if tp + fp else 0.0
            re = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2.0 * pr * re / (pr + re) if pr + re else 0.0)
            sens.append(re)
            spec.append(tn / (tn + fp) if tn + fp else 0.0)
            support.append(tp + fn + fp > 0)
        idx = [c for c in range(5) if support[c]]
        p_e = sum(
            int(np.sum(labels == c)) * int(np.sum(preds == c)) for c in range(5)
        ) / (n * n)
        assert got["accuracy"] == acc
        assert [report["per_class"][stage]["f1"] for stage in STAGES] == f1s
        assert got["mf1"] == float(np.mean([f1s[c] for c in idx]))
        assert got["macro_sensitivity"] == float(np.mean([sens[c] for c in idx]))
        assert got["macro_specificity"] == float(np.mean([spec[c] for c in idx]))
        assert got["kappa"] == (acc - p_e) / (1.0 - p_e)

    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(1, 80, 4))
        cm5 = np.zeros((5, 5), dtype=int)
        cm5[0, 0], cm5[0, 1], cm5[1, 0], cm5[1, 1] = tp, fn, fp, tn
        closed = 2.0 * (tp * tn - fn * fp) / (
            (tp + fp) * (fp + tn) + (tp + fn) * (fn + tn)
        )
        assert abs(kappa_multiclass(cm5) - closed) < 1e-12

    w, n1, n2, rem = (STAGE_TO_INDEX[s] for s in ("W", "N1", "N2", "REM"))
    hand = metrics_report(
        confusion_from([w, w, n2, n2, rem], [w, n1, n2, n2, rem])
    )["overall"]
    assert hand["accuracy"] == 0.8
    assert abs(hand["mf1"] - 2.0 / 3.0) < 1e-15
    assert abs(hand["kappa"] - 0.52 / 0.72) < 1e-15
    announce(capsys, "ACCEPTANCE 3 metric oracle equivalence: PASS "
                     "(1000 vectors exact, 1000 binary kappas, hand example)")


# ---------------------------------------------------------------------------
# criterion 4: window/stride arithmetic


def test_criterion_4_window_arithmetic(capsys):
    from sleepstager.data import EpochSet

    checked = 0
    for n in range(1, 51):
        rng = np.random.default_rng(n)
        es = EpochSet(
            rng.normal(size=(n, 30)), rng.integers(0, 5, n), f"s{n}", 1.0
        )
        for w in (1, 3, 5, 7, 9, 11):
            half = (w - 1) // 2
            for s in range(1, 6):
                # independent enumeration
                expected = []
                start = 0
                while start + w <= n:
                    expected.append(start + half)
                    start += s
                if not expected:
                    with pytest.raises(EmptyDataset):
                        make_windows(es, w, s, "skip")
                else:
                    view = make_windows(es, w, s, "skip")
                    assert len(view) == len(expected) == (n - w) // s + 1
                    for k, center in enumerate(expected):
                        assert view.center(k) == center
                        assert view.labels()[k] == es.labels[center]
                        lo = view.spans([k])[0]
                        assert lo[0] == center - half and lo[-1] == center + half
                # replicate: every epoch reachable as center at stride granularity
                view_r = make_windows(es, w, s, "replicate")
                centers = list(range(0, n, s))
                assert [view_r.center(k) for k in range(len(view_r))] == centers
                for k, center in enumerate(centers):
                    assert view_r.labels()[k] == es.labels[center]
                checked += 1
    # the worked example: 10 epochs, window 3, stride 2
    rng = np.random.default_rng(0)
    es = EpochSet(rng.normal(size=(10, 30)), rng.integers(0, 5, 10), "f", 1.0)
    view = make_windows(es, 3, 2, "skip")
    assert [view.center(k) for k in range(len(view))] == [1, 3, 5, 7]
    np.testing.assert_array_equal(view.spans([0])[0], [0, 1, 2])
    np.testing.assert_array_equal(view.spans([1])[0], [2, 3, 4])
    announce(capsys, f"ACCEPTANCE 4 window/stride arithmetic: PASS "
                     f"({checked} (N,W,S) combinations enumerated)")


# ---------------------------------------------------------------------------
# criteria 5-7: desk-scale training, data efficiency, localization


def test_criterion_5_synthetic_learnability(capsys, synth_data, trained_stride1):
    train_sets, test_sets = synth_data
    cfg, params, history, elapsed = trained_stride1
    train_metrics = metrics_report(evaluate(params, cfg, train_sets))["overall"]
    test_metrics = metrics_report(evaluate(params, cfg, test_sets))["overall"]
    assert history[-1] < history[0]
    assert train_metrics["accuracy"] >= 0.95, train_metrics["accuracy"]
    assert test_metrics["mf1"] >= 0.85, test_metrics["mf1"]
    assert elapsed < 900.0, f"training took {elapsed:.0f}s"
    announce(
        capsys,
        f"ACCEPTANCE 5 synthetic learnability: PASS "
        f"(train acc {train_metrics['accuracy']:.4f}, held-out MF1 "
        f"{test_metrics['mf1']:.4f}, {elapsed / 60:.1f} min)",
    )


def test_criterion_6_data_efficiency(capsys, synth_data, trained_stride1,
                                     trained_stride4):
    train_sets, test_sets = synth_data
    cfg, params1, _, t1 = trained_stride1
    _, params4, _, t4 = trained_stride4
    mf1_1 = metrics_report(evaluate(params1, cfg, test_sets))["overall"]["mf1"]
    mf1_4 = metrics_report(evaluate(params4, cfg, test_sets))["overall"]["mf1"]
    gap = abs(mf1_1 - mf1_4) * 100.0
    assert gap <= 4.0, f"MF1 gap {gap:.2f} points"
    # window budget: stride 4 keeps exactly 25% up to the boundary term
    for es in train_sets:
        n1 = len(make_windows(es, cfg.window_size, 1, "skip"))
        n4 = len(make_windows(es, cfg.window_size, 4, "skip"))
        assert n4 == (n1 - 1) // 4 + 1
        assert abs(n4 - n1 / 4) <= 1.0
    announce(
        capsys,
        f"ACCEPTANCE 6 data-efficient training: PASS "
        f"(MF1 stride1 {mf1_1:.4f} vs stride4 {mf1_4:.4f}, gap {gap:.2f} pts, "
        f"speedup {t1 / t4:.1f}x)",
    )


def test_criterion_7_gradcam_localization(capsys, synth_data, trained_stride1):
    _, test_sets = synth_data
    cfg, params, _, _ = trained_stride1
    n2 = STAGE_TO_INDEX["N2"]
    fractions = []
    for es in test_sets:
        view = make_windows(es, cfg.window_size, 1, "replicate")
        for idx in range(len(es)):
            if es.labels[idx] != n2:
                continue
            heatmap = gradcam(params, cfg, view.gather([idx])[0])
            intervals = [(t0, t1) for _, t0, t1 in es.events[idx]]
            fractions.append(
                heatmap_mass_fraction(heatmap, intervals, FS, pad_s=0.5)
            )
    fractions = np.array(fractions)
    assert len(fractions) >= 20, f"only {len(fractions)} N2 test epochs"
    hit_rate = float(np.mean(fractions >= 0.5))
    assert hit_rate >= 0.80, f"localization rate {hit_rate:.2f}"
    announce(
        capsys,
        f"ACCEPTANCE 7 GradCAM localization: PASS "
        f"({len(fractions)} N2 epochs, {hit_rate:.0%} with >=50% mass in "
        f"event intervals, median {np.median(fractions):.2f})",
    )


# ---------------------------------------------------------------------------
# criterion 8: EDF parser


def test_criterion_8_edf_parser(capsys):
    rng = np.random.default_rng(8)
    dig = rng.integers(-3000, 3000, 40).astype(np.int16)
    spec = {
        "label": "EEG Fpz-Cz", "transducer": "AgCl", "physical_dim": "uV",
        "phys_min": -250.0, "phys_max": 250.0, "dig_min": -32768,
        "dig_max": 32767, "prefilter": "HP:0.5", "samples_per_record": 10,
        "digital": dig,
    }
    blob = write_edf([spec], patient_id="P1", recording_id="R1",
                     start_date="01.02.03", start_time="22.00.00",
                     record_duration=1.0)
    rec = parse_edf(blob)
    # round trip: re-serialize from parsed headers + digital samples
    sig = rec.signals[0]
    blob2 = write_edf(
        [{
            "label": sig.label, "transducer": sig.transducer,
            "physical_dim": sig.physical_dim, "phys_min": sig.phys_min,
            "phys_max": sig.phys_max, "dig_min": sig.dig_min,
            "dig_max": sig.dig_max, "prefilter": sig.prefilter,
            "samples_per_record": sig.samples_per_record,
            "digital": rec.digital[0],
        }],
        patient_id=rec.patient_id, recording_id=rec.recording_id,
        start_date=rec.start_date, start_time=rec.start_time,
        record_duration=rec.record_duration,
    )
    assert blob2 == blob

    # the hand-derived calibration point
    zero_spec = dict(spec, digital=np.zeros(10, dtype=np.int16))
    value = parse_edf(write_edf([zero_spec])).data[0][0]
    assert abs(value - 0.003815) < 1e-6

    # ten malformation fixtures, each raising ParseError on the named field
    def patch(offset, payload):
        return blob[:offset] + payload + blob[offset + len(payload):]

    fixtures = [
        ("short file", blob[:100], "header"),
        ("header cut", blob[:300], "signal_headers"),
        ("data truncated", blob[:-6], "data_records"),
        ("n_records NaN", patch(236, b"oops    "), "n_records"),
        ("negative n_records", patch(236, b"-2      "), "n_records"),
        ("bad duration", patch(244, b"0       "), "record_duration"),
        ("zero signals", patch(252, b"0   "), "n_signals"),
        ("header_bytes lie", patch(184, b"9999    "), "header_bytes"),
        ("dig range inverted", patch(376, b"40000   "), "dig_min"),
        ("flat phys range", patch(360, b"250     "), "phys_min"),
        ("bad samples_per_record", patch(472, b"0       "), "samples_per_record"),
    ]
    for name, payload, field in fixtures:
        with pytest.raises(ParseError) as err:
            parse_edf(payload)
        assert field in str(err.value.field), (name, err.value.field)
    announce(capsys, f"ACCEPTANCE 8 EDF parser: PASS "
                     f"(round-trip bit-exact, scaling 0.003815, "
                     f"{len(fixtures)} malformations rejected)")


# ---------------------------------------------------------------------------
# criterion 9: leakage and determinism


def test_criterion_9_leakage_and_determinism(capsys, tmp_path):
    from sleepstager.data import kfold_split
    from sleepstager.training import _training_windows

    sets = synth_generate(6, 24, 8.0, seed=90)
    by_id = {es.subject_id: es for es in sets}
    splits = kfold_split(list(by_id), 3, seed=11)
    windows_checked = 0
    for train_ids, test_ids in splits:
        test_set = set(test_ids)
        train_sets = [by_id[s] for s in train_ids]
        for view in _training_windows(train_sets, 9):
            subject = view.epoch_set.subject_id
            assert subject not in test_set
            assert subject in set(train_ids)
            windows_checked += len(view)

    # identical seeds: bit-identical loss history, checkpoint, metrics JSON
    cache = tmp_path / "cache"
    assert cli_main(["synth", "--subjects", "4", "--epochs-per-subject", "16",
                     "--sample-rate", "8", "--seed", "13",
                     "--out-dir", str(cache)]) == 0
    flags = ["--cache-dir", str(cache), "--width-multiplier", "0.0625",
             "--reduction-ratio", "4", "--window-size", "3",
             "--lstm-hidden", "4", "--lstm-depth", "1", "--epochs", "2",
             "--batch-size", "16", "--stride-train", "1", "--seed", "13",
             "--k", "2"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["cv", *flags, "--out-dir", str(out_a)]) == 0
    assert cli_main(["cv", *flags, "--out-dir", str(out_b)]) == 0
    for name in ("metrics.json", "fold_0.sstg", "fold_1.sstg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    metrics = json.loads((out_a / "metrics.json").read_text())
    fold_tests = [set(f["test_subjects"]) for f in metrics["folds"]]
    assert not fold_tests[0] & fold_tests[1]
    assert metrics["pooled"]["overall"]["total_epochs"] == 64
    announce(
        capsys,
        f"ACCEPTANCE 9 leakage & determinism: PASS "
        f"({windows_checked} training windows audited, CV artifacts "
        f"bit-identical across reruns)",
    )
