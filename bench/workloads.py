"""The benchmark's two workloads: inputs made from a seed, timed phases, checks.

A run makes its inputs ``SETUP_REPEATS`` times and keeps the last set, then
runs three phases:

- train: ``fit`` at stride 4 for a fixed number of epochs, saving a
  checkpoint. The amount is fixed because the checks need the trained model.
- score: reload the checkpoint, then score whole recordings from their SEPC
  caches with ``predict_epochs`` (what ``evaluate`` and the ``eval``
  command do per recording), one recording per round.
- explain: ``gradcam`` heatmaps of N2 epochs of those recordings, a few per
  round.

After training, score and explain rounds alternate until the run's
seconds are spent, so both sample the same stretch of time; every recording
is scored at least once, and a round starts only if the previous one would
still fit. Operations: each optimizer step, scored recording and heatmap.
"""

import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sleepstager import STAGE_TO_INDEX, data, explain, model, training
from sleepstager.autodiff import Tape, backward, zero_grads
from sleepstager.blocks import FeatureExtractorConfig

SETUP_REPEATS = 5
STRIDE = 4
LR = 0.001
N2 = STAGE_TO_INDEX["N2"]

# Output-check bounds; README.md lists the values measured against them.
MF1_BOUND = 0.80
HIT_MASS = 0.5
HIT_PAD_S = 0.5
GRAD_REL_TOL = 1e-4
GRAD_STEP = 1e-7  # at 1e-5 the paper-scale stem crosses ReLU and max-pool kinks
PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    sample_rate: float
    width: float
    reduction: int
    hidden: int
    depth: int
    batch: int
    train_recordings: int
    train_epochs_each: int  # epochs per training recording
    fit_epochs: int
    nights: int  # scored recordings, of subjects never trained on
    night_epochs: int
    heatmaps_per_round: int
    window_checks: int  # epochs re-scored one window at a time
    grad_entries: int  # parameter entries checked by central differences
    check_quality: bool  # loss falls, held-out MF1 clears its bound
    window: int = 9


WORKLOADS = {
    "desk": Workload(
        name="desk", sample_rate=32.0, width=1 / 32, reduction=2, hidden=16,
        depth=2, batch=64, train_recordings=8, train_epochs_each=120,
        fit_epochs=16, nights=2, night_epochs=960, heatmaps_per_round=6,
        window_checks=32, grad_entries=0, check_quality=True,
    ),
    "paper": Workload(
        name="paper", sample_rate=100.0, width=1.0, reduction=16, hidden=128,
        depth=3, batch=4, train_recordings=2, train_epochs_each=24,
        fit_epochs=1, nights=1, night_epochs=16, heatmaps_per_round=1,
        window_checks=2, grad_entries=4, check_quality=False,
    ),
}

# parameters whose entries the paper gradient check samples, one per layer
GRAD_TENSORS = ("extractor.stem.w", "extractor.s3.b1.conv2.w",
                "lstm.l0.fwd.w_i", "head.0.w")


def model_config(w, seed):
    return model.StagerConfig(
        window_size=w.window,
        stride_train=STRIDE,
        extractor=FeatureExtractorConfig.create(
            "se_resnet_18", width_multiplier=w.width, reduction_ratio=w.reduction
        ),
        lstm_hidden=w.hidden,
        lstm_depth=w.depth,
        sample_rate=w.sample_rate,
        seed=seed,
    ).validate()


@dataclass
class Inputs:
    cfg: object
    params: object
    train_sets: list
    night_paths: list
    night_truth: list  # generator's (labels, events) per scored recording


def make_inputs(w, seed, workdir):
    """Synthetic recordings, their SEPC caches and fresh parameters.

    Training and scored subjects come from different generator seeds, so
    no scored subject is ever trained on.
    """
    train = data.synth_generate(w.train_recordings, w.train_epochs_each,
                                w.sample_rate, seed=2 * seed)
    nights = data.synth_generate(w.nights, w.night_epochs, w.sample_rate,
                                 seed=2 * seed + 1)
    train_paths = [workdir / f"train-{i}.sepc" for i in range(len(train))]
    night_paths = [workdir / f"night-{i}.sepc" for i in range(len(nights))]
    for es, path in zip(train + nights, train_paths + night_paths):
        data.save_epochset(es, path)
    cfg = model_config(w, seed)
    return Inputs(
        cfg=cfg,
        params=model.build_stager_params(cfg),
        train_sets=[data.load_epochset(p) for p in train_paths],
        night_paths=night_paths,
        night_truth=[(es.labels.astype(np.int64), es.events) for es in nights],
    )


class StepClock:
    """Timestamps the end of every ``adam_step`` made through ``training``."""

    def __init__(self):
        self.ends = []
        self._orig = None

    def __enter__(self):
        self._orig = training.adam_step

        def adam_step(*args, **kwargs):
            out = self._orig(*args, **kwargs)
            self.ends.append(time.perf_counter())
            return out

        training.adam_step = adam_step
        return self

    def __exit__(self, *exc):
        training.adam_step = self._orig
        return False


def _rounds(run_round, deadline, min_rounds=1):
    """Run whole rounds until the next would pass ``deadline``; at least ``min_rounds``."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(run_round(len(results)))
        last = time.perf_counter() - t0
        if len(results) >= min_rounds and time.perf_counter() + last > deadline:
            return results


def macro_f1(preds, labels, classes=5):
    """Mean F1 over the classes present in the truth or the predictions."""
    f1s = []
    for c in range(classes):
        tp = int(np.sum((preds == c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        if tp + fp + fn:
            f1s.append(2 * tp / (2 * tp + fp + fn))
    return float(np.mean(f1s))


def mass_fraction(values, intervals, sample_rate, pad_s):
    """Share of a heatmap's relevance within ``pad_s`` of the intervals."""
    t = np.arange(len(values)) / sample_rate
    inside = np.zeros(len(values), dtype=bool)
    for t0, t1 in intervals:
        inside |= (t >= t0 - pad_s) & (t < t1 + pad_s)
    total = float(values.sum())
    return float(values[inside].sum()) / total if total > 0 else 0.0


def expected_steps(w):
    per_epoch = 0
    for _ in range(w.train_recordings):
        n_windows = w.train_epochs_each - w.window + 1
        if n_windows % STRIDE:
            raise ValueError("training windows must split evenly into stride phases")
        per_epoch += n_windows // STRIDE
    return w.fit_epochs * -(-per_epoch // w.batch), w.fit_epochs * per_epoch


class Checks:
    """Named pass/fail results; the run is correct only if all pass."""

    def __init__(self):
        self.results = {}

    def __call__(self, name, ok, detail=""):
        self.results[name] = (bool(ok), detail)

    @property
    def passed(self):
        return all(ok for ok, _ in self.results.values())

    def failures(self):
        return {k: d for k, (ok, d) in self.results.items() if not ok}


def run(w, seed, seconds, workdir, tracer):
    """Run workload ``w``; returns ``(metrics, attempted, checks, extras)``.

    ``tracer`` marks the phases; it records spans only when installed.
    """
    workdir = Path(workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = make_inputs(w, seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    cfg = inp.cfg
    checks = Checks()
    start = time.perf_counter()

    # train: a fixed amount of work
    ckpt = workdir / "model.sstg"
    tcfg = training.TrainConfig(epochs=w.fit_epochs, batch_size=w.batch, lr=LR,
                                stride_train=STRIDE, seed=seed)
    with StepClock() as clock, tracer.phase("train"):
        t0 = time.perf_counter()
        _, history = training.fit(inp.train_sets, cfg, tcfg, params=inp.params,
                                  checkpoint_path=ckpt)
        fit_s = time.perf_counter() - t0
    steps, windows = expected_steps(w)
    step_s = np.diff([t0] + clock.ends)
    checks("train.steps", len(clock.ends) == steps,
           f"{len(clock.ends)} optimizer steps, expected {steps}")
    checks("train.loss_finite", np.all(np.isfinite(history)), str(history))
    if w.check_quality:
        checks("train.loss_falls", history[-1] < history[0],
               f"first {history[0]:.4f}, last {history[-1]:.4f}")

    # score and explain, alternating whole rounds until the seconds are spent
    with tracer.phase("score"):
        params, cfg = model.checkpoint_load(ckpt)
    labels = [truth[0] for truth in inp.night_truth]
    views = [data.make_windows(data.load_epochset(p), cfg.window_size, 1, "replicate")
             for p in inp.night_paths]
    rng = np.random.default_rng([seed, 7])
    n2 = [(i, k) for i, y in enumerate(labels) for k in np.flatnonzero(y == N2)]
    if not n2:
        raise ValueError("the scored recordings hold no N2 epoch to explain")
    order = [n2[j] for j in rng.permutation(len(n2))]

    def score_round(r):
        """Score one recording from its cache; the recordings take turns."""
        i = r % len(inp.night_paths)
        t0 = time.perf_counter()
        es = data.load_epochset(inp.night_paths[i])
        pred = training.predict_epochs(params, cfg, es)
        return (time.perf_counter() - t0) / len(es), i, es, pred

    def explain_round(r):
        """Heatmaps of the next N2 epochs of the recordings, in a seeded order."""
        out = []
        for j in range(r * w.heatmaps_per_round, (r + 1) * w.heatmaps_per_round):
            i, k = order[j % len(order)]
            window = views[i].gather([k])[0]
            t0 = time.perf_counter()
            heatmap = explain.gradcam(params, cfg, window)
            out.append((time.perf_counter() - t0, i, k, heatmap))
        return out

    def both(r):
        with tracer.phase("score"):
            scored = score_round(r)
        with tracer.phase("explain"):
            return scored, explain_round(r)

    rounds = _rounds(both, start + seconds, min_rounds=w.nights)
    scored = [s for s, _ in rounds]
    maps = [m for _, e in rounds for m in e]
    sets = [r[2] for r in scored[:w.nights]]
    preds = [r[3] for r in scored[:w.nights]]
    for i, (es, p, y) in enumerate(zip(sets, preds, labels)):
        checks(f"score.night{i}.one_prediction_per_epoch",
               p.shape == (len(es),) == y.shape and np.issubdtype(p.dtype, np.integer)
               and p.min() >= 0 and p.max() <= 4, f"{p.shape} for {len(es)} epochs")
    checks("score.rounds_agree", all(np.array_equal(r[3], preds[r[1]]) for r in scored),
           "every round scores its recording as the first did")
    mf1 = macro_f1(np.concatenate(preds), np.concatenate(labels))
    if w.check_quality:
        checks("score.heldout_mf1", mf1 >= MF1_BOUND,
               f"{mf1:.4f} against bound {MF1_BOUND}")
    for _, i, k, hm in maps:
        if not (hm.values.shape == (cfg.epoch_len,) and hm.values.min() >= 0
                and hm.values.max() <= 1 and (hm.empty or hm.values.max() == 1)):
            checks("explain.heatmap_range", False, f"night {i} epoch {k}")
            break
    else:
        checks("explain.heatmap_range", True)
    fractions = [mass_fraction(hm.values, [(a, b) for _, a, b in
                                           inp.night_truth[i][1][k]],
                               cfg.sample_rate, HIT_PAD_S)
                 for _, i, k, hm in maps]
    # Reported, not checked: on some seeds a model that stages well still
    # gets maps that avoid the events (CHANGES.md, FOUND), so a bound
    # would fail on some seeds and pass on others.
    hit_rate = float(np.mean(np.array(fractions) >= HIT_MASS))

    # window-by-window and gradient checks, outside every timed phase
    window_check(views, preds, cfg, params, w.window_checks, rng, checks)
    if w.grad_entries:
        gradient_check(params, cfg, views[0], labels[0], w.grad_entries, rng,
                       checks)

    metrics = {
        "setup_s": statistics.median(setup_times),
        "train.windows_per_s": windows / fit_s,
        "train.step_ms": 1000 * statistics.median(step_s),
        "score.ms_per_epoch": 1000 * statistics.median(r[0] for r in scored),
        "explain.ms_per_map": 1000 * statistics.median(m[0] for m in maps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = len(clock.ends) + len(scored) + len(maps)
    extras = {
        "heldout_mf1": mf1,
        "hit_rate": hit_rate,
        "loss_history": list(history),
        "train_steps": len(clock.ends),
        "train_windows": windows,
        "scored_epochs": sum(len(r[2]) for r in scored),
        "score_rounds": len(scored),
        "heatmaps": len(maps),
        "setup_times_s": setup_times,
        "checks": {k: list(v) for k, v in checks.results.items()},
    }
    return metrics, attempted, checks, extras


def window_check(views, preds, cfg, params, count, rng, checks):
    """Score sampled epochs one window at a time; compare with the batched pass.

    The sample always holds the first and last epoch of the first
    recording, where the windows are clamped. The log-probabilities of each
    window must sum to one after ``exp``.
    """
    picks = [(0, 0), (0, len(views[0]) - 1)]
    while len(picks) < count:
        i = int(rng.integers(len(views)))
        picks.append((i, int(rng.integers(len(views[i])))))
    bad, worst_sum = [], 0.0
    for i, k in picks[:count]:
        out = model.forward_batch(views[i].gather([k]), params, cfg, "eval")
        lp = out.log_probs.data
        worst_sum = max(worst_sum, float(np.max(np.abs(np.exp(lp).sum(axis=1) - 1))))
        if int(np.argmax(lp[0])) != preds[i][k]:
            bad.append((i, k))
    checks("score.window_by_window", not bad,
           f"{len(bad)} of {count} sampled epochs differ: {bad[:5]}")
    checks("score.probabilities_sum_to_one", worst_sum <= PROB_SUM_TOL,
           f"worst |sum(exp(log p)) - 1| = {worst_sum:.2e}")


def gradient_check(params, cfg, view, labels, count, rng, checks):
    """Autodiff gradients against central differences of the NLL.

    The loss of one window in train mode, as ``fit`` computes it; the
    benchmark computes the differenced losses itself from forward passes.
    Entries are drawn from the top hundredth by gradient magnitude of a
    few parameters, so rounding in the differenced losses stays far below
    the tolerance.
    """
    k = len(view) // 2
    window = view.gather([k])
    target = np.array([labels[view.center(k)]])
    tensors = list(params.registry.values())
    zero_grads(tensors)
    with Tape() as tape:
        out = model.forward_batch(window, params, cfg, "train")
        loss = training.nll_loss(out.log_probs, target)
    backward(loss, tape)

    def nll():
        lp = model.forward_batch(window, params, cfg, "train").log_probs.data
        return -float(np.mean(lp[np.arange(len(target)), target]))

    worst, detail = 0.0, []
    for j in range(count):
        t = params.registry[GRAD_TENSORS[j % len(GRAD_TENSORS)]]
        g = np.abs(t.grad).reshape(-1)
        top = np.flatnonzero(g >= np.quantile(g, 0.99))
        idx = int(rng.choice(top))
        analytic = float(t.grad.reshape(-1)[idx])
        orig = float(t.data.flat[idx])
        t.data.flat[idx] = orig + GRAD_STEP
        up = nll()
        t.data.flat[idx] = orig - GRAD_STEP
        down = nll()
        t.data.flat[idx] = orig
        numeric = (up - down) / (2 * GRAD_STEP)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
        detail.append(f"{GRAD_TENSORS[j % len(GRAD_TENSORS)]}[{idx}] {rel:.1e}")
    zero_grads(tensors)
    checks("train.gradients_match_central_differences", worst < GRAD_REL_TOL,
           "; ".join(detail))
