"""Adam optimization, NLL loss, the training loop, and k-fold cross-validation.

Adam runs at its standard moment decays and epsilon; the learning rate is
its one setting.

Training windows come from the ``skip`` edge policy. At training stride s
an epoch trains on 1/s of them: each recording gives the windows at one
stride phase, and its phases run through a fresh random permutation every
s epochs, so each block of s epochs makes every labeled epoch a training
target once. A fixed phase would leave 1 - 1/s of the labels unseen, and
the model overfits the rest. Every epoch also draws a fresh order of its
windows before cutting them into batches. An epoch at stride s takes 1/s
of the optimizer steps. Adam moves each parameter by about the learning
rate per step, so the rate grows by s to keep the run's reach, rate times
steps, at that of stride 1. Stride 1 draws no phases and keeps the
configured rate, which may be 0 (the parameters then stay fixed) but not
negative or non-finite.

Evaluation labels every epoch of a recording once, from its window at
stride 1 with ``replicate`` edges. ``predict_epochs`` puts each epoch
through the extractor once (``model.encode_epochs``); ``model.classify``
then reads each window's per-epoch features with the Bi-LSTM and the head,
the sequence-to-sequence scoring of DeepSleepNet (Supratak et al., arXiv
1703.04046). Runs are bit-reproducible for a fixed seed. A checkpoint
records the stride it was trained at, ``TrainConfig.stride_train``.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor, backward, scale, sum_all, take_per_row, zero_grads
from .data.folds import kfold_split
from .data.windows import make_windows
from .errors import (
    ConfigError,
    ContractViolation,
    EmptyDataset,
    InvalidInput,
    InvalidLabel,
)
from .metrics import confusion_from, metrics_report
from .model import (
    build_stager_params,
    checkpoint_save,
    classify,
    encode_epochs,
    forward_batch,
)

from . import NUM_STAGES


@dataclass
class TrainConfig:
    epochs: int = 45
    batch_size: int = 128
    lr: float = 0.001
    stride_train: int = 4
    seed: int = 0

    def validate(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # 0 is legal: it holds the parameters fixed
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.stride_train < 1:
            raise ConfigError("stride_train must be >= 1")
        return self


def nll_loss(log_probs, targets):
    """Mean negative log-likelihood of the target stages; differentiable."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1:
        raise InvalidLabel(f"targets must be a vector, got shape {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= NUM_STAGES):
        raise InvalidLabel(f"targets outside 0..{NUM_STAGES - 1}")
    if log_probs.data.ndim != 2 or log_probs.data.shape[0] != targets.size:
        raise InvalidLabel(
            f"log_probs {log_probs.data.shape} vs {targets.size} targets"
        )
    picked = take_per_row(log_probs, targets)
    return scale(sum_all(picked), -1.0 / targets.size)


# Adam's standard moment decays and denominator epsilon (Kingma & Ba)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step count."""

    lr: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(params, lr):
    state = AdamState(lr)
    for name, tensor in params.registry.items():
        state.m[name] = np.zeros_like(tensor.data)
        state.v[name] = np.zeros_like(tensor.data)
    return state


def adam_step(params, state):
    """One in-place update; every registered parameter must hold a gradient."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, tensor in params.registry.items():
        g = tensor.grad
        if g is None:
            raise ContractViolation(f"parameter {name} has no gradient")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        tensor.data -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def _window_rows(views, stride, phases):
    """``(view_idx, window_idx)`` rows: windows ``phase, phase + stride, ...``."""
    rows = [
        (vi, k)
        for vi, (view, phase) in enumerate(zip(views, phases))
        for k in range(phase, len(view), stride)
    ]
    return np.array(rows, dtype=np.intp)


def _training_windows(epoch_sets, window_size):
    """Stride-1 ``skip`` views of every recording that fits one window."""
    views = [
        make_windows(es, window_size, 1, "skip")
        for es in epoch_sets
        if len(es) >= window_size
    ]
    if not views:
        raise EmptyDataset("no training windows: every recording is too short")
    return views


def _stride_phases(rng, sizes, stride):
    """Yield every training epoch's stride phase per recording.

    Each recording runs through fresh random permutations of its phases
    ``0 .. min(stride, size) - 1``, so each block of ``stride`` epochs
    (counted from the first) makes every window a training target once.
    A recording with a single phase, and so every recording at stride 1,
    draws nothing from ``rng``.
    """
    pending = [[] for _ in sizes]
    while True:
        phases = []
        for size, queue in zip(sizes, pending):
            if not queue:
                cycle = min(stride, size)
                queue.extend(rng.permutation(cycle) if cycle > 1 else [0])
            phases.append(int(queue.pop()))
        yield phases


def fit(train_sets, model_cfg, train_cfg, params=None, checkpoint_path=None):
    """Train the stager; returns ``(params, per-epoch mean loss history)``.

    Deterministic for fixed configs: parameter init derives from the model
    seed, stride phases and shuffling from the training seed, and batches
    run single-threaded. Each history entry is the mean loss over that
    epoch's windows. No parameter holds a gradient when it returns.
    """
    if not train_sets:
        raise EmptyDataset("no training recordings")
    model_cfg.validate()
    train_cfg.validate()
    for es in train_sets:
        if not np.all(np.isfinite(es.epochs)):
            raise ContractViolation(f"recording {es.subject_id} has non-finite samples")
        if es.epoch_len != model_cfg.epoch_len:
            raise ConfigError(
                f"recording {es.subject_id} epoch length {es.epoch_len} "
                f"!= model's {model_cfg.epoch_len}"
            )
    if params is None:
        params = build_stager_params(model_cfg)
    stride = train_cfg.stride_train
    views = _training_windows(train_sets, model_cfg.window_size)
    rng = np.random.default_rng(train_cfg.seed)
    phases = _stride_phases(rng, [len(v) for v in views], stride)
    adam = init_adam(params, train_cfg.lr * stride)
    tensors = list(params.registry.values())
    labels = [view.labels() for view in views]
    history = []
    for _ in range(train_cfg.epochs):
        index = _window_rows(views, stride, next(phases))
        n = len(index)
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, train_cfg.batch_size):
            chosen = index[order[start : start + train_cfg.batch_size]]
            batch = np.stack([views[vi].gather([k])[0] for vi, k in chosen])
            targets = [labels[vi][k] for vi, k in chosen]
            zero_grads(tensors)
            with Tape() as tape:
                out = forward_batch(batch, params, model_cfg, "train")
                loss = nll_loss(out.log_probs, targets)
            value = loss.item()
            if not np.isfinite(value):
                raise ContractViolation("training loss diverged to NaN/Inf")
            backward(loss, tape)
            adam_step(params, adam)
            total += value * len(chosen)
        history.append(total / n)
    zero_grads(tensors)
    if checkpoint_path is not None:
        checkpoint_save(params, replace(model_cfg, stride_train=stride), checkpoint_path)
    return params, history


def predict_epochs(params, model_cfg, es):
    """Stage prediction for every epoch (stride 1, replicate edges).

    One pass: each epoch goes through the extractor once, in calls of at
    most ``model.EVAL_BATCH`` epochs, and each epoch's window of features
    then runs through the Bi-LSTM and the head. Exact ties resolve to the
    lowest stage index.
    """
    view = make_windows(es, model_cfg.window_size, 1, "replicate")
    spans = view.spans(np.arange(len(view)))
    features = Tensor(encode_epochs(es.epochs, params, model_cfg))
    log_probs = classify(features, spans, params, model_cfg)
    return np.argmax(log_probs.data, axis=1)


def predict_sets(params, model_cfg, epoch_sets):
    """``[(epoch_set, predictions)]`` for every recording that has epochs."""
    scored = [
        (es, predict_epochs(params, model_cfg, es))
        for es in epoch_sets
        if len(es)
    ]
    if not scored:
        raise EmptyDataset("no epochs to evaluate")
    return scored


def pooled_confusion(scored):
    """Confusion matrix over every epoch of ``predict_sets``' output."""
    return confusion_from(
        np.concatenate([preds for _, preds in scored]),
        np.concatenate([es.labels.astype(np.int64) for es, _ in scored]),
    )


def evaluate(params, model_cfg, epoch_sets):
    """Pooled confusion matrix over every epoch of the given recordings.

    Each epoch goes through the extractor once (see ``predict_epochs``).
    """
    return pooled_confusion(predict_sets(params, model_cfg, epoch_sets))


@dataclass
class FoldResult:
    fold_index: int
    train_subjects: list
    test_subjects: list
    confusion: np.ndarray
    loss_history: list
    wall_clock_s: float

    @property
    def report(self):
        return metrics_report(self.confusion)


def _run_fold(args):
    fold_index, train_sets, test_sets, model_cfg, train_cfg, checkpoint_path = args
    t0 = time.perf_counter()
    model_cfg_f = replace(model_cfg, seed=model_cfg.seed + fold_index)
    train_cfg_f = replace(train_cfg, seed=train_cfg.seed + fold_index)
    train_ids = [es.subject_id for es in train_sets]
    test_ids = [es.subject_id for es in test_sets]
    leak = set(train_ids) & set(test_ids)
    if leak:
        raise ContractViolation(f"fold {fold_index} leaks subjects: {sorted(leak)}")
    params, history = fit(train_sets, model_cfg_f, train_cfg_f,
                          checkpoint_path=checkpoint_path)
    cm = evaluate(params, model_cfg_f, test_sets)
    return FoldResult(
        fold_index=fold_index,
        train_subjects=train_ids,
        test_subjects=test_ids,
        confusion=cm,
        loss_history=history,
        wall_clock_s=time.perf_counter() - t0,
    )


def cross_validate(epoch_sets, k, model_cfg, train_cfg, jobs=1,
                   checkpoint_dir=None):
    """Subject-wise k-fold CV.

    Returns ``(fold_results, pooled_report)`` where the pooled report is
    computed on the sum of the per-fold confusion matrices (micro pooling),
    with per-fold metrics available on each FoldResult. Each fold's task
    carries its own train and test recordings.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    sets_by_id = {}
    for es in epoch_sets:
        if es.subject_id in sets_by_id:
            raise InvalidInput(f"duplicate subject id {es.subject_id}")
        sets_by_id[es.subject_id] = es
    subjects = list(sets_by_id)
    splits = kfold_split(subjects, k, train_cfg.seed)
    tasks = []
    for i, (train_ids, test_ids) in enumerate(splits):
        path = None
        if checkpoint_dir is not None:
            path = str(Path(checkpoint_dir) / f"fold_{i}.sstg")
        tasks.append((i, [sets_by_id[s] for s in train_ids],
                      [sets_by_id[s] for s in test_ids], model_cfg, train_cfg, path))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_fold, tasks))
    else:
        results = [_run_fold(t) for t in tasks]
    pooled = np.sum([r.confusion for r in results], axis=0)
    return results, metrics_report(pooled)
