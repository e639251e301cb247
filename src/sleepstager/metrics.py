"""Confusion-matrix construction and the full scoring metric suite.

Rows are expert-annotated stages, columns are predictions, in the fixed
order W, N1, N2, N3, REM. One table holds each stage's one-vs-rest
TP/TN/FP/FN and the scores made from them: precision, recall (reported
again as sensitivity), F1, specificity TN/(TN+FP), and the TN/(TP+FN)
variant that some published metric listings print, kept for audit. The
overall block and the per-class block of a report both read that table.
Any 0/0 ratio is defined as 0, and classes absent from both truth and
prediction stay out of the macro averages.
"""

import numpy as np

from . import NUM_STAGES, STAGES
from .errors import DegenerateDistribution, InvalidInput


def confusion_from(preds, labels):
    """Count matrix ``counts[true][pred]`` from parallel index vectors."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise InvalidInput(
            f"preds {preds.shape} and labels {labels.shape} must be equal-length vectors"
        )
    if preds.size == 0:
        raise InvalidInput("cannot build a confusion matrix from no samples")
    if preds.min() < 0 or preds.max() >= NUM_STAGES:
        raise InvalidInput("prediction indices outside 0..4")
    if labels.min() < 0 or labels.max() >= NUM_STAGES:
        raise InvalidInput("label indices outside 0..4")
    cm = np.zeros((NUM_STAGES, NUM_STAGES), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def _validate_cm(cm):
    cm = np.asarray(cm, dtype=np.int64)
    if cm.shape != (NUM_STAGES, NUM_STAGES):
        raise InvalidInput(f"confusion matrix must be 5x5, got {cm.shape}")
    if np.any(cm < 0):
        raise InvalidInput("confusion matrix counts must be non-negative")
    if cm.sum() == 0:
        raise InvalidInput("confusion matrix is empty")
    return cm


def _ratio(num, den):
    return num / den if den else 0.0


def _per_class(cm):
    """Each stage's one-vs-rest counts and scores, keyed by stage name."""
    total = int(cm.sum())
    table = {}
    for c, name in enumerate(STAGES):
        tp = int(cm[c, c])
        fn = int(cm[c].sum()) - tp
        fp = int(cm[:, c].sum()) - tp
        tn = total - tp - fn - fp
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
        table[name] = {
            "precision": precision,
            "recall": recall,
            "f1": _ratio(2.0 * precision * recall, precision + recall),
            "sensitivity": recall,
            "specificity": _ratio(tn, tn + fp),
            "specificity_printed_variant": _ratio(tn, tp + fn),
            "tp": tp, "tn": tn, "fp": fp, "fn": fn,
        }
    return table


def kappa_multiclass(cm):
    """Cohen's kappa: (p_o - p_e) / (1 - p_e) over the full matrix."""
    cm = _validate_cm(cm)
    total = cm.sum()
    p_o = np.trace(cm) / total
    rows = cm.sum(axis=1)
    cols = cm.sum(axis=0)
    p_e = float(rows @ cols) / (total * total)
    if p_e >= 1.0 - 1e-15:
        if p_o >= 1.0 - 1e-15:
            return 1.0
        raise DegenerateDistribution(
            "chance agreement is 1 while observed agreement is below 1"
        )
    return float((p_o - p_e) / (1.0 - p_e))


def metrics_report(cm):
    """JSON-ready report: overall block, per-class block, raw + normalized counts."""
    cm = _validate_cm(cm)
    per_class = _per_class(cm)
    # the macro averages run over the stages seen in truth or prediction
    seen = [r for r in per_class.values() if r["tp"] + r["fn"] + r["fp"] > 0]
    row_sums = cm.sum(axis=1, keepdims=True)
    normalized = np.divide(
        cm, row_sums, out=np.zeros(cm.shape, dtype=np.float64),
        where=row_sums > 0,
    )
    return {
        "overall": {
            "accuracy": float(np.trace(cm) / cm.sum()),
            "mf1": float(np.mean([r["f1"] for r in seen])),
            "kappa": kappa_multiclass(cm),
            "macro_sensitivity": float(np.mean([r["sensitivity"] for r in seen])),
            "macro_specificity": float(np.mean([r["specificity"] for r in seen])),
            "total_epochs": int(cm.sum()),
        },
        "per_class": per_class,
        "confusion": cm.tolist(),
        "confusion_row_normalized": normalized.tolist(),
    }
