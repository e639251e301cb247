"""Command-line surface: prepare, synth, train, cv, eval, explain.

Every flag mirrors a config-file key (``--window-size`` <-> ``[model]
window_size``); precedence is flag > config file > default. All
quantitative outputs are JSON; fold wall-clock times go to a separate
timing.json so result files stay bit-reproducible for a fixed seed. eval
also writes each scored epoch's true and predicted stage to predictions.csv.
``main`` reads the settings and creates the output directory once, then
runs the command. Exit codes: 0 success, 2 configuration error
(``ConfigError``), 3 any other typed error (every other ``StagerError``:
bad data, a corrupt cache or checkpoint, a file that cannot be read or
written, an uninitialized model, ...),
each reported as one line on stderr.
"""

import argparse
import csv
import glob
import json
import os
import string
import sys
from pathlib import Path

from . import STAGES
from .config import KEYS, RunConfig, load_config_file, model_config_from, train_config_from
from .data import (
    epochize,
    load_epochset,
    make_windows,
    normalize_recording,
    parse_edf_file,
    parse_hypnogram,
    save_epochset,
    synth_generate,
)
from .errors import (
    ConfigError,
    EmptyDataset,
    InvalidInput,
    IoError,
    ParseError,
    StagerError,
)
from .explain import export_features_csv, gradcam, render_heatmap
from .metrics import metrics_report
from .model import checkpoint_load
from .training import cross_validate, fit, pooled_confusion, predict_sets

def _write_json(path, payload):
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from e


def _add_keys(parser, names):
    for name in names:
        spec = KEYS[name]
        parser.add_argument(
            f"--{name.replace('_', '-')}",
            dest=name,
            default=None,
            metavar=spec.kind.upper(),
            help=f"{spec.help} (default: {spec.default})",
        )


def _run_config(args):
    file_values = load_config_file(args.config) if args.config else {}
    flag_values = {
        name: getattr(args, name) for name in KEYS if hasattr(args, name)
    }
    return RunConfig(flag_values=flag_values, file_values=file_values)


def _stage_counts(es):
    counts = es.stage_counts()
    out = {name: int(c) for name, c in zip(STAGES, counts)}
    out["Total"] = int(counts.sum())
    return out


def _load_caches(cache_dir):
    paths = sorted(Path(cache_dir).glob("*.sepc"))
    if not paths:
        raise EmptyDataset(f"no .sepc caches under {cache_dir}")
    sets = [load_epochset(p) for p in paths]
    rates = {es.sample_rate for es in sets}
    if len(rates) != 1:
        raise ConfigError(f"caches disagree on sample rate: {sorted(rates)}")
    return sets, rates.pop()


def _check_rate(rate, model_cfg):
    """Caches must hold the sample rate the checkpoint was trained on."""
    if abs(rate - model_cfg.sample_rate) > 1e-9:
        raise ConfigError(
            f"cache rate {rate} Hz != checkpoint's {model_cfg.sample_rate} Hz"
        )


def _subject_of(edf_path):
    """The recording's stem: ``NAME-PSG.edf`` and ``NAME.edf`` give ``NAME``."""
    stem = edf_path.name[: -len(edf_path.suffix)]
    return stem[: -len("-PSG")] if stem.endswith("-PSG") else stem


# hypnogram names per format, in order of preference
_HYPNOGRAM_NAMES = (
    ("{}-Hypnogram.edf", "{}.hypnogram.edf"),
    ("{}.csv", "{}.hyp.csv"),
)


def _find_hypnogram(edf_path):
    """The one hypnogram next to a recording; its suffix tells its format.

    Failing every exact name, a stem that ends in ``0`` pairs the way
    SleepEDF names its files: ``SC4001E0-PSG.edf`` with
    ``SC4001EC-Hypnogram.edf``, the last character a scorer's letter.
    """
    stem = _subject_of(edf_path)
    found = []
    for names in _HYPNOGRAM_NAMES:
        paths = [edf_path.parent / n.format(stem) for n in names]
        found += [p for p in paths if p.exists()][:1]
    if len(found) > 1:
        raise ParseError(
            f"hypnograms of two formats next to {edf_path.name}: "
            f"{found[0].name} and {found[1].name}",
            field="hypnogram",
        )
    tried = [n.format(stem) for names in _HYPNOGRAM_NAMES for n in names]
    if not found and stem.endswith("0"):
        prefix = stem[:-1]
        tried.append(f"{prefix}?-Hypnogram.edf")
        found = sorted(
            p for p in edf_path.parent.glob(f"{glob.escape(prefix)}?-Hypnogram.edf")
            if p.name[len(prefix)] in string.ascii_letters
        )
        if len(found) > 1:
            raise ParseError(
                f"hypnograms of {len(found)} scorers next to {edf_path.name}: "
                + ", ".join(p.name for p in found),
                field="hypnogram",
            )
    if not found:
        raise ParseError(
            f"no hypnogram next to {edf_path.name}; tried {tried}",
            field="hypnogram",
        )
    return found[0]


def cmd_prepare(run, out_dir):
    edf_dir = Path(run.require("edf_dir"))
    channel = run["channel"]
    signal_files = sorted(
        p for p in edf_dir.glob("*.edf") if "hypnogram" not in p.name.lower()
    )
    if not signal_files:
        raise EmptyDataset(f"no EDF recordings under {edf_dir}")
    manifest = {"subjects": [], "failures": []}
    for path in signal_files:
        subject = _subject_of(path)
        try:
            recording = parse_edf_file(path)
            hyp = parse_hypnogram(_find_hypnogram(path))
            es = epochize(recording, channel, hyp, subject_id=subject)
            if len(es) == 0:
                raise EmptyDataset("no scored epochs survive exclusion")
            es = normalize_recording(es, run["normalize"])
            save_epochset(es, out_dir / f"{subject}.sepc")
            manifest["subjects"].append(
                {
                    "id": subject,
                    "source": path.name,
                    "sample_rate": es.sample_rate,
                    "epoch_counts": _stage_counts(es),
                }
            )
        except StagerError as e:
            print(f"prepare: skipping {path.name}: {e}", file=sys.stderr)
            manifest["failures"].append({"source": path.name, "error": str(e)})
    if not manifest["subjects"]:
        raise EmptyDataset("every recording failed to prepare")
    totals = {name: 0 for name in (*STAGES, "Total")}
    for entry in manifest["subjects"]:
        for name, c in entry["epoch_counts"].items():
            totals[name] += c
    manifest["totals"] = totals
    _write_json(out_dir / "manifest.json", manifest)
    print(f"prepared {len(manifest['subjects'])} subjects -> {out_dir}")
    return 0


def cmd_synth(run, out_dir):
    sets = synth_generate(
        run["subjects"], run["epochs_per_subject"], run["sample_rate"], run["seed"]
    )
    manifest = {"subjects": [], "seed": run["seed"],
                "sample_rate": run["sample_rate"]}
    for es in sets:
        save_epochset(es, out_dir / f"{es.subject_id}.sepc")
        _write_json(
            out_dir / f"{es.subject_id}.events.json",
            {
                "subject": es.subject_id,
                "events": [
                    [[kind, t0, t1] for kind, t0, t1 in evs] for evs in es.events
                ],
            },
        )
        manifest["subjects"].append(
            {"id": es.subject_id, "epoch_counts": _stage_counts(es)}
        )
    _write_json(out_dir / "manifest.json", manifest)
    print(f"generated {len(sets)} synthetic subjects -> {out_dir}")
    return 0


def _check_checkpoint_writable(path):
    """Fail now, not after a long run, if ``path`` cannot be written.

    Opens the file for appending, which leaves any file there as it is,
    and removes the empty file the probe made.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "ab"):
            pass
    except OSError as e:
        raise IoError(f"cannot write checkpoint {path}: {e}") from e
    if not existed:
        os.remove(path)


def cmd_train(run, out_dir):
    sets, rate = _load_caches(run.require("cache_dir"))
    model_cfg = model_config_from(run, rate)
    train_cfg = train_config_from(run)
    checkpoint = out_dir / "checkpoint.sstg"
    _check_checkpoint_writable(checkpoint)
    _, history = fit(sets, model_cfg, train_cfg, checkpoint_path=checkpoint)
    _write_json(
        out_dir / "loss_history.json",
        {"epochs": train_cfg.epochs, "mean_loss_per_epoch": history,
         "windows_stride": train_cfg.stride_train, "seed": train_cfg.seed},
    )
    print(f"trained {train_cfg.epochs} epochs -> {checkpoint}")
    return 0


def cmd_cv(run, out_dir):
    sets, rate = _load_caches(run.require("cache_dir"))
    model_cfg = model_config_from(run, rate)
    train_cfg = train_config_from(run)
    results, pooled = cross_validate(
        sets, run["k"], model_cfg, train_cfg, jobs=run["jobs"],
        checkpoint_dir=out_dir,
    )
    _write_json(
        out_dir / "metrics.json",
        {
            "pooled": pooled,
            "folds": [
                {
                    "fold": r.fold_index,
                    "test_subjects": r.test_subjects,
                    "report": r.report,
                    "loss_history": r.loss_history,
                }
                for r in results
            ],
        },
    )
    _write_json(
        out_dir / "timing.json",
        {"fold_wall_clock_s": {str(r.fold_index): r.wall_clock_s for r in results}},
    )
    print(f"cross-validated {run['k']} folds -> {out_dir / 'metrics.json'}")
    return 0


def cmd_eval(run, out_dir):
    params, model_cfg = checkpoint_load(run.require("checkpoint"))
    sets, rate = _load_caches(run.require("cache_dir"))
    _check_rate(rate, model_cfg)
    scored = predict_sets(params, model_cfg, sets)
    cm = pooled_confusion(scored)
    _write_json(out_dir / "metrics.json", metrics_report(cm))
    _write_predictions(out_dir / "predictions.csv", scored)
    print(f"evaluated {int(cm.sum())} epochs -> {out_dir / 'metrics.json'}")
    return 0


def _write_predictions(path, scored):
    """One row per scored epoch: the predicted hypnogram beside the true one."""
    try:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["subject", "epoch", "true", "predicted"])
            for es, preds in scored:
                for i, (label, pred) in enumerate(zip(es.labels, preds)):
                    writer.writerow([es.subject_id, i, STAGES[label], STAGES[pred]])
    except OSError as e:
        raise IoError(f"cannot write predictions CSV {path}: {e}") from e


def cmd_explain(run, out_dir):
    params, model_cfg = checkpoint_load(run.require("checkpoint"))
    subject = run.require("subject")
    cache = Path(run.require("cache_dir")) / f"{subject}.sepc"
    if not cache.exists():
        raise EmptyDataset(f"no cache for subject {subject!r} at {cache}")
    es = load_epochset(cache)
    _check_rate(es.sample_rate, model_cfg)
    view = make_windows(es, model_cfg.window_size, 1, "replicate")
    bad = [idx for idx in run["epoch_indices"] if not 0 <= idx < len(es)]
    if bad:
        raise InvalidInput(f"epoch index {bad[0]} outside 0..{len(es) - 1} for {subject}")
    summary = {"subject": subject, "epochs": []}
    for idx in run["epoch_indices"]:
        window = view.gather([idx])[0]
        heatmap = gradcam(params, model_cfg, window)
        base = out_dir / f"{subject}_epoch{idx:05d}"
        render_heatmap(heatmap, es.epochs[idx], base)
        summary["epochs"].append(
            {
                "index": int(idx),
                "label": STAGES[es.labels[idx]],
                "predicted": STAGES[heatmap.predicted_class],
                # GradCAM explains the predicted stage; the key keeps the
                # file's layout
                "target": STAGES[heatmap.predicted_class],
                "raw_max": heatmap.raw_max,
                "empty": heatmap.empty,
                "csv": f"{base.name}.csv",
                "svg": f"{base.name}.svg",
            }
        )
    if run["export_features"]:
        feat_path = out_dir / f"{subject}_features.csv"
        export_features_csv(params, model_cfg, es, feat_path)
        summary["features_csv"] = feat_path.name
    _write_json(out_dir / f"{subject}_explain.json", summary)
    print(f"explained {len(run['epoch_indices'])} epochs -> {out_dir}")
    return 0


# the keys of a training run, shared by train and cv
_TRAIN_KEYS = ("cache_dir", *(
    name for name, spec in KEYS.items() if spec.section in ("model", "train")
))

_COMMANDS = {
    "prepare": (
        cmd_prepare,
        "cut EDF recordings into labeled 30 s epoch caches",
        ("edf_dir", "channel", "normalize", "out_dir"),
    ),
    "synth": (
        cmd_synth,
        "generate a synthetic labeled dataset with known microstructures",
        ("subjects", "epochs_per_subject", "sample_rate", "seed", "out_dir"),
    ),
    "train": (
        cmd_train,
        "train the stager on prepared caches",
        (*_TRAIN_KEYS, "out_dir"),
    ),
    "cv": (
        cmd_cv,
        "subject-wise k-fold cross-validation with pooled metrics",
        (*_TRAIN_KEYS, "k", "jobs", "out_dir"),
    ),
    "eval": (
        cmd_eval,
        "score a checkpoint on held-out caches (stride 1, replicate edges)",
        ("checkpoint", "cache_dir", "out_dir"),
    ),
    "explain": (
        cmd_explain,
        "GradCAM heatmaps (CSV + SVG) and optional feature export",
        ("checkpoint", "cache_dir", "subject", "epoch_indices",
         "export_features", "out_dir"),
    ),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sleepstager",
        description="Single-channel EEG sleep staging: data preparation, "
                    "training, cross-validation, evaluation, explanation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", default=None,
                       help="INI config file; flags override its values")
        _add_keys(p, keys)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        run = _run_config(args)
        out_dir = Path(run.require("out_dir"))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise IoError(f"cannot create output directory {out_dir}: {e}") from e
        return args.func(run, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except StagerError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
