"""Metric suite vs hand values and a matrix-free counting oracle."""

import numpy as np
import pytest

from sleepstager import NUM_STAGES, STAGES
from sleepstager.errors import InvalidInput
from sleepstager.metrics import (
    confusion_from,
    kappa_multiclass,
    metrics_report,
)

W, N1, N2, N3, REM = range(5)


def class_f1s(report):
    return [report["per_class"][stage]["f1"] for stage in STAGES]


def five_sample_matrix():
    # preds [W, W, N2, N2, REM] vs labels [W, N1, N2, N2, REM]
    return confusion_from([W, W, N2, N2, REM], [W, N1, N2, N2, REM])


def counting_oracle(preds, labels):
    """Metrics computed by direct counting, never building a matrix."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    acc = float(np.mean(preds == labels))
    f1s, sens, spec, support = [], [], [], []
    for c in range(NUM_STAGES):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        tn = int(np.sum((preds != c) & (labels != c)))
        pr = tp / (tp + fp) if tp + fp else 0.0
        re = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * pr * re / (pr + re) if pr + re else 0.0
        f1s.append(f1)
        sens.append(re)
        spec.append(tn / (tn + fp) if tn + fp else 0.0)
        support.append(tp + fn + fp > 0)
    idx = [c for c in range(NUM_STAGES) if support[c]]
    p_o = acc
    p_e = sum(
        float(np.sum(labels == c)) * float(np.sum(preds == c))
        for c in range(NUM_STAGES)
    ) / len(preds) ** 2
    kappa = (p_o - p_e) / (1 - p_e) if p_e < 1 else 1.0
    return {
        "accuracy": acc,
        "mf1": float(np.mean([f1s[c] for c in idx])),
        "kappa": kappa,
        "macro_sensitivity": float(np.mean([sens[c] for c in idx])),
        "macro_specificity": float(np.mean([spec[c] for c in idx])),
        "per_class_f1": f1s,
    }


def paper_binary_kappa(tp, tn, fp, fn):
    return 2.0 * (tp * tn - fn * fp) / (
        (tp + fp) * (fp + tn) + (tp + fn) * (fn + tn)
    )


class TestConfusion:
    def test_perfect_agreement_diagonal(self):
        v = [0, 1, 2, 3, 4, 2, 2, 1]
        cm = confusion_from(v, v)
        assert np.trace(cm) == len(v)
        assert cm.sum() == len(v)

    def test_hand_tally(self):
        cm = five_sample_matrix()
        assert cm[N1][W] == 1
        assert np.trace(cm) == 4
        assert cm.sum() == 5

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            confusion_from([], [])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            confusion_from([0, 1], [0])


def class_scores(cm, c):
    return metrics_report(cm)["per_class"][STAGES[c]]


class TestClassScores:
    def test_hand_values_class_w(self):
        s = class_scores(five_sample_matrix(), W)
        assert s["precision"] == 0.5
        assert s["recall"] == 1.0
        assert s["f1"] == pytest.approx(2 / 3)
        assert s["sensitivity"] == s["recall"]

    def test_zero_tp_convention(self):
        s = class_scores(five_sample_matrix(), N1)
        assert (s["precision"], s["recall"], s["f1"]) == (0.0, 0.0, 0.0)

    def test_perfect_diagonal(self):
        cm = np.diag([3, 4, 5, 6, 7])
        for c in range(NUM_STAGES):
            s = class_scores(cm, c)
            assert s["precision"] == s["recall"] == s["f1"] == s["sensitivity"] == 1.0
            assert s["specificity"] == 1.0

    def test_printed_specificity_variant(self):
        s = class_scores(five_sample_matrix(), W)
        # W: one hit, one N1 epoch called W, three epochs neither
        assert (s["tp"], s["tn"], s["fp"], s["fn"]) == (1, 3, 1, 0)
        assert s["specificity_printed_variant"] == 3 / 1
        assert s["specificity"] == 3 / 4


class TestOverall:
    def test_hand_values(self):
        report = metrics_report(five_sample_matrix())
        m = report["overall"]
        assert m["accuracy"] == pytest.approx(0.8)
        assert class_f1s(report) == pytest.approx([2 / 3, 0.0, 1.0, 0.0, 1.0])
        assert m["mf1"] == pytest.approx(2 / 3)
        assert m["kappa"] == pytest.approx(0.52 / 0.72)

    def test_perfect_predictions(self):
        cm = np.diag([2, 2, 2, 2, 2])
        m = metrics_report(cm)["overall"]
        assert m["accuracy"] == m["mf1"] == m["kappa"] == 1.0

    def test_chance_level_kappa(self):
        rng = np.random.default_rng(0)
        n = 100_000
        labels = rng.integers(0, 5, size=n)
        preds = rng.integers(0, 5, size=n)
        m = metrics_report(confusion_from(preds, labels))["overall"]
        assert abs(m["kappa"]) < 0.02

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cm = rng.integers(0, 30, size=(5, 5))
            if cm.sum() == 0:
                continue
            report = metrics_report(cm)
            m = report["overall"]
            for key in ("accuracy", "mf1", "macro_sensitivity", "macro_specificity"):
                assert 0.0 <= m[key] <= 1.0
            assert m["kappa"] <= 1.0
            assert all(0.0 <= f <= 1.0 for f in class_f1s(report))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        cm = rng.integers(0, 25, size=(5, 5))
        base = metrics_report(cm)["overall"]
        for _ in range(10):
            perm = rng.permutation(5)
            m = metrics_report(cm[np.ix_(perm, perm)])["overall"]
            assert m["accuracy"] == pytest.approx(base["accuracy"])
            assert m["mf1"] == pytest.approx(base["mf1"])
            assert m["kappa"] == pytest.approx(base["kappa"])


class TestKappa:
    def test_paper_closed_form_hand_case(self):
        # TP=40, TN=45, FP=5, FN=10 -> 3500/5000 = 0.7
        cm5 = np.zeros((5, 5), dtype=int)
        cm5[0, 0], cm5[0, 1], cm5[1, 0], cm5[1, 1] = 40, 10, 5, 45
        assert kappa_multiclass(cm5) == pytest.approx(0.7)
        assert paper_binary_kappa(40, 45, 5, 10) == pytest.approx(0.7)

    def test_matches_closed_form_on_random_binary(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            tp, tn, fp, fn = rng.integers(1, 60, size=4)
            cm5 = np.zeros((5, 5), dtype=int)
            cm5[0, 0], cm5[0, 1], cm5[1, 0], cm5[1, 1] = tp, fn, fp, tn
            assert kappa_multiclass(cm5) == pytest.approx(
                paper_binary_kappa(tp, tn, fp, fn), abs=1e-12
            )

    def test_identical_marginal_perfect_diagonal(self):
        assert kappa_multiclass(np.diag([4, 4, 4, 4, 4])) == 1.0

    def test_single_class_degenerate(self):
        cm = np.zeros((5, 5), dtype=int)
        cm[2, 2] = 10
        # every sample truly N2 and predicted N2: p_e == p_o == 1
        assert kappa_multiclass(cm) == 1.0
        # everything predicted N2 with mixed truth is pure chance agreement
        cm[2, 2], cm[1, 2] = 9, 1
        assert kappa_multiclass(cm) == pytest.approx(0.0)
        # p_e == 1 with p_o < 1 cannot arise from consistent marginals
        # (Cauchy-Schwarz); the DegenerateDistribution branch stays defensive


class TestOracleEquivalence:
    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(5, 300))
            labels = rng.integers(0, 5, size=n)
            preds = rng.integers(0, 5, size=n)
            report = metrics_report(confusion_from(preds, labels))
            got = report["overall"]
            want = counting_oracle(preds, labels)
            assert got["accuracy"] == pytest.approx(want["accuracy"], abs=1e-12)
            assert got["mf1"] == pytest.approx(want["mf1"], abs=1e-12)
            assert got["kappa"] == pytest.approx(want["kappa"], abs=1e-12)
            assert got["macro_sensitivity"] == pytest.approx(
                want["macro_sensitivity"], abs=1e-12)
            assert got["macro_specificity"] == pytest.approx(
                want["macro_specificity"], abs=1e-12)
            assert class_f1s(report) == pytest.approx(
                want["per_class_f1"], abs=1e-12)


class TestReport:
    def test_report_structure(self):
        report = metrics_report(five_sample_matrix())
        assert set(report) == {
            "overall", "per_class", "confusion", "confusion_row_normalized"
        }
        assert report["overall"]["total_epochs"] == 5
        assert report["per_class"]["W"]["f1"] == pytest.approx(2 / 3)
        row = np.array(report["confusion_row_normalized"])[N2]
        assert row.sum() == pytest.approx(1.0)
        empty_row = np.array(report["confusion_row_normalized"])[N3]
        assert empty_row.sum() == 0.0
