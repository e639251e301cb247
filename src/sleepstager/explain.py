"""Relevance maps and feature export for model interpretation.

GradCAM over one window explains the class the model predicts for its
middle epoch: differentiate that class's score with respect to the middle
epoch's final conv activation map, average the gradients per channel into
weights, rectify the weighted activation sum, then upsample to signal
length and min-max normalize. The score differentiated is the predicted
class's log-probability, the quantity the model is trained on. The raw
logit localizes worse: on a synthetic test it put half the relevance
on the events for 0.77 of N2 maps, against 1.00 for the log-probability.

The gradients are averaged along a straight path of ``PATH_STEPS``
copies of the window, scaled from near zero up to the window itself: the
path of integrated gradients (Sundararajan et al., arXiv 1703.01365), as
Integrated Grad-CAM (Sattarzadeh et al., 2021) uses it. At the window
alone the gradients saturate. Its context epochs already decide the
stage, so the middle epoch's events barely move the score there, although
removing the events from the whole window flips the prediction.

Only the layers above the final conv maps are differentiated: each step's
extractor runs with no tape open, and its maps become a fresh leaf under
pooling, the Bi-LSTM and the head. A heatmap costs ``PATH_STEPS`` (16)
extractor passes and as many backward sweeps, none through a conv layer.
The parameters do not require grad during the sweeps, so no sweep computes
a weight gradient; only the leaf's gradient feeds the map.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import STAGES
from .autodiff import Tape, Tensor, backward, global_avg_pool, take_per_row
from .blocks import feature_extractor_forward
from .errors import InvalidInput, IoError
from .model import classify, encode_epochs, window_epochs

PATH_STEPS = 16


@dataclass
class Heatmap:
    """Per-sample relevance in [0, 1] over one 30-second epoch."""

    values: np.ndarray
    predicted_class: int
    raw_max: float
    empty: bool = False


def cam_from(activations, gradients):
    """Raw relevance: relu of the gradient-weighted channel sum."""
    if activations.shape != gradients.shape or activations.ndim != 2:
        raise InvalidInput(
            f"activations {activations.shape} vs gradients {gradients.shape}"
        )
    weights = gradients.mean(axis=1)
    return np.maximum(weights @ activations, 0.0)


def upsample_linear(values, length):
    """Cell-centered linear interpolation from len(values) to ``length``."""
    src = (np.arange(len(values)) + 0.5) * (length / len(values))
    dst = np.arange(length) + 0.5
    return np.interp(dst, src, values)


def normalize_minmax(values):
    lo, hi = float(values.min()), float(values.max())
    if hi <= 0.0:
        return np.zeros_like(values), True
    if hi == lo:
        return np.ones_like(values), False
    return (values - lo) / (hi - lo), False


def gradcam(params, cfg, window):
    """Predicted-class relevance for the middle epoch of one window ``[W, L]``.

    The model runs in eval mode. Each of the ``PATH_STEPS`` extractor
    passes, one per path step, is differentiated from its final conv maps
    upward only. The last step, the unscaled window, runs first: it gives
    the predicted class and the activations that the path-averaged
    gradients weight. Every parameter's ``requires_grad`` is off during the
    sweeps and restored afterwards, also when a sweep raises; no parameter
    ``grad`` is written.
    """
    epochs = window_epochs(np.asarray(window)[None], cfg)
    spans, mid = np.arange(cfg.window_size)[None], cfg.middle_index
    flags = [(t, t.requires_grad) for t in params.registry.values()]
    grads = [None] * PATH_STEPS  # indexed by step, so they sum in step order
    try:
        for t, _ in flags:
            t.requires_grad = False
        for k in (PATH_STEPS, *range(1, PATH_STEPS)):
            x = Tensor(epochs * (k / PATH_STEPS))
            _, maps = feature_extractor_forward(x, cfg.extractor, params.extractor, "eval")
            leaf = Tensor(maps.data, requires_grad=True)
            with Tape() as tape:
                log_probs = classify(global_avg_pool(leaf), spans, params, cfg)
                if k == PATH_STEPS:
                    predicted = int(np.argmax(log_probs.data[0]))
                    acts = maps.data[mid]
                backward(take_per_row(log_probs, np.array([predicted])), tape)
            grads[k - 1] = leaf.grad[mid].copy()
    finally:
        for t, flag in flags:
            t.requires_grad = flag
    raw = cam_from(acts, sum(grads) / PATH_STEPS)
    values, empty = normalize_minmax(upsample_linear(raw, cfg.epoch_len))
    return Heatmap(values, predicted, float(raw.max()), empty)


def heatmap_mass_fraction(heatmap, intervals, sample_rate, pad_s=0.0):
    """Fraction of total relevance mass inside the given (t0, t1) intervals."""
    total = float(heatmap.values.sum())
    if total == 0.0:
        return 0.0
    t = np.arange(len(heatmap.values)) / sample_rate
    mask = np.zeros(len(t), dtype=bool)
    for t0, t1 in intervals:
        mask |= (t >= t0 - pad_s) & (t < t1 + pad_s)
    return float(heatmap.values[mask].sum()) / total


def export_features_csv(params, cfg, epoch_set, path):
    """Write the per-epoch extractor features ``[N, D]`` and stage labels as CSV.

    The features come from ``encode_epochs``, the extractor pass that
    evaluation scores from: each epoch once, in eval mode.
    """
    features = encode_epochs(epoch_set.epochs, params, cfg)
    try:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([f"f{i}" for i in range(features.shape[1])] + ["label"])
            for row, label in zip(features, epoch_set.labels):
                writer.writerow([f"{v:.10g}" for v in row] + [STAGES[label]])
    except OSError as e:
        raise IoError(f"cannot write feature CSV {path}: {e}") from e


def _svg_heatmap(heatmap, signal, width=1000.0, height=300.0):
    l = len(signal)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    # relevance bands: contiguous runs of equal two-decimal opacity
    q = np.round(heatmap.values, 2)
    x_of = lambda i: i * width / l
    start = 0
    for i in range(1, l + 1):
        if i == l or q[i] != q[start]:
            if q[start] > 0:
                parts.append(
                    f'<rect x="{x_of(start):.2f}" y="0" '
                    f'width="{x_of(i) - x_of(start):.2f}" height="{height:g}" '
                    f'fill="#d62728" fill-opacity="{0.85 * q[start]:.3f}"/>'
                )
            start = i
    lo, hi = float(signal.min()), float(signal.max())
    span = hi - lo if hi > lo else 1.0
    ys = height - 10 - (signal - lo) / span * (height - 20)
    xs = np.arange(l) * width / (l - 1 if l > 1 else 1)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f3b70" stroke-width="0.8"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def render_heatmap(heatmap, signal, path_base):
    """Write ``<path_base>.csv`` and ``<path_base>.svg``; both deterministic."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1 or len(signal) != len(heatmap.values):
        raise InvalidInput(
            f"signal length {signal.shape} != heatmap length {len(heatmap.values)}"
        )
    csv_path = f"{path_base}.csv"
    svg_path = f"{path_base}.svg"
    try:
        with open(csv_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["sample_index", "signal_value", "relevance"])
            for i, (v, r) in enumerate(zip(signal, heatmap.values)):
                writer.writerow([i, f"{v:.10g}", f"{r:.6f}"])
        with open(svg_path, "w") as f:
            f.write(_svg_heatmap(heatmap, signal))
    except OSError as e:
        raise IoError(f"cannot write heatmap artifacts at {path_base}: {e}") from e
    return csv_path, svg_path
