"""CLI commands end to end: preparation, training, metrics, explanations."""

import csv
import json

import numpy as np
import pytest

from sleepstager import STAGES, cli
from sleepstager.blocks import FeatureExtractorConfig
from sleepstager.cli import build_parser, main
from sleepstager.config import KEYS, RunConfig, load_config_file
from sleepstager.data import load_epochset, write_edf
from sleepstager.errors import ConfigError, StagerError
from sleepstager.model import StagerConfig, build_stager_params, checkpoint_save


def tal_bytes(rows):
    out = bytearray(b"+0\x14\x14\x00")
    for onset, duration, text in rows:
        out += f"+{onset:g}\x15{duration:g}\x14{text}\x14\x00".encode("ascii")
    if len(out) % 2:
        out += b"\x00"
    return bytes(out)


def craft_pair(directory, stem, annotations, n_epochs, rate=10, seed=0,
               csv_hypnogram=False):
    """Write <stem>-PSG.edf plus <stem>-Hypnogram.edf into ``directory``.

    With ``csv_hypnogram`` the hypnogram is <stem>.csv instead.
    """
    rng = np.random.default_rng(seed)
    samples = int(rate * 30) * n_epochs
    signal = write_edf(
        [
            {"label": "EEG Fpz-Cz", "phys_min": -250, "phys_max": 250,
             "dig_min": -32768, "dig_max": 32767,
             "samples_per_record": int(rate * 30),
             "digital": rng.integers(-500, 500, size=samples, dtype=np.int16)},
        ],
        record_duration=30.0,
    )
    (directory / f"{stem}-PSG.edf").write_bytes(signal)
    if csv_hypnogram:
        rows = [f"{onset},{duration},{text}" for onset, duration, text in annotations]
        (directory / f"{stem}.csv").write_text("\n".join(rows) + "\n")
        return
    payload = tal_bytes(annotations)
    hyp = write_edf(
        [
            {"label": "EDF Annotations", "phys_min": -1, "phys_max": 1,
             "dig_min": -32768, "dig_max": 32767,
             "samples_per_record": len(payload) // 2, "digital": payload},
        ]
    )
    (directory / f"{stem}-Hypnogram.edf").write_bytes(hyp)


TINY_MODEL_FLAGS = [
    "--width-multiplier", "0.0625", "--reduction-ratio", "4",
    "--lstm-hidden", "4", "--lstm-depth", "1", "--window-size", "3",
]


def untrained_checkpoint(path, initialized=False):
    """An 8 Hz tiny model that never trained.

    Its batchnorm state is uninitialized, or with ``initialized`` marked
    initialized at the neutral running stats (mean 0, variance 1).
    """
    cfg = StagerConfig(
        window_size=3,
        extractor=FeatureExtractorConfig.create(
            "se_resnet_18", width_multiplier=0.0625, reduction_ratio=4
        ),
        lstm_hidden=4, lstm_depth=1, sample_rate=8.0,
    ).validate()
    params = build_stager_params(cfg)
    for state in params.states.values():
        state.initialized = initialized
    checkpoint_save(params, cfg, path)
    return path


class TestConfigSurface:
    def test_precedence_per_key(self, tmp_path):
        from sleepstager.config import convert

        def sample(spec, alt=False):
            if spec.kind == "choice":
                return spec.choices[-1] if alt else spec.choices[0]
            if spec.kind == "bool":
                return str(not spec.default).lower() if not alt else str(spec.default).lower()
            return {"int": ("7", "11"), "float": ("0.25", "0.75"),
                    "str": ("value-x", "value-y"),
                    "intlist": ("8,5", "16,5")}[spec.kind][alt]

        for name, spec in KEYS.items():
            # default when nothing is given
            assert RunConfig()[name] == spec.default
            # file value beats default
            file_raw = sample(spec)
            cfg_file = tmp_path / "cfg.ini"
            cfg_file.write_text(f"[{spec.section}]\n{name} = {file_raw}\n")
            from_file = RunConfig(file_values=load_config_file(cfg_file))
            assert from_file[name] == convert(spec, file_raw)
            # flag beats file
            flag_raw = sample(spec, alt=True)
            merged = RunConfig(
                flag_values={name: flag_raw},
                file_values=load_config_file(cfg_file),
            )
            assert merged[name] == convert(spec, flag_raw)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        # the head, the GradCAM score and the window reshuffle are fixed
        # parts of the design
        for text in ("[train]\nlearning_rate = 0.1\n",
                     "[model]\nhead_widths = 5\n",
                     "[explain]\ngradient_source = log_prob\n",
                     "[train]\nshuffle = false\n"):
            cfg.write_text(text)
            with pytest.raises(ConfigError):
                load_config_file(cfg)

    def test_wrong_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[model]\nepochs = 3\n")  # epochs lives under [train]
        with pytest.raises(ConfigError):
            load_config_file(cfg)

    def test_help_enumerates_every_key(self):
        parser = build_parser()
        helps = []
        for action in parser._subparsers._group_actions[0].choices.values():
            helps.append(action.format_help())
        combined = "\n".join(helps)
        for name in KEYS:
            assert f"--{name.replace('_', '-')}" in combined, name

    def test_bad_flag_value_exits_2(self, tmp_path):
        code = main(["synth", "--subjects", "not-a-number",
                     "--out-dir", str(tmp_path)])
        assert code == 2


class TestPrepare:
    def test_two_pairs_hand_counted(self, tmp_path):
        edf_dir = tmp_path / "edf"
        edf_dir.mkdir()
        craft_pair(
            edf_dir, "SC4001",
            [(0, 60, "Sleep stage W"), (60, 30, "Sleep stage 4"),
             (90, 30, "Movement time"), (120, 30, "Sleep stage R")],
            n_epochs=5, seed=1,
        )
        craft_pair(
            edf_dir, "SC4002",
            [(0, 30, "Sleep stage 1"), (30, 60, "Sleep stage 2")],
            n_epochs=3, seed=2,
        )
        out = tmp_path / "cache"
        code = main(["prepare", "--edf-dir", str(edf_dir), "--out", "dummy",
                     "--out-dir", str(out)]) if False else main(
            ["prepare", "--edf-dir", str(edf_dir), "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["subjects"]) == 2
        by_id = {s["id"]: s["epoch_counts"] for s in manifest["subjects"]}
        assert by_id["SC4001"] == {"W": 2, "N1": 0, "N2": 0, "N3": 1, "REM": 1,
                                   "Total": 4}
        assert by_id["SC4002"] == {"W": 0, "N1": 1, "N2": 2, "N3": 0, "REM": 0,
                                   "Total": 3}
        assert manifest["totals"]["Total"] == 7
        es = load_epochset(out / "SC4001.sepc")
        assert len(es) == 4 and es.epoch_len == 300

    def test_missing_channel_skips_and_fails(self, tmp_path):
        edf_dir = tmp_path / "edf"
        edf_dir.mkdir()
        craft_pair(edf_dir, "X1", [(0, 30, "Sleep stage W")], n_epochs=1)
        out = tmp_path / "cache"
        code = main(["prepare", "--edf-dir", str(edf_dir),
                     "--channel", "EEG Pz-Oz", "--out-dir", str(out)])
        assert code == 3

    def test_csv_hypnogram_needs_no_flag(self, tmp_path):
        edf_dir = tmp_path / "edf"
        edf_dir.mkdir()
        craft_pair(
            edf_dir, "ST7011",
            [(0, 60, "W"), (60, 30, "N2"), (90, 30, "?"), (120, 30, "REM")],
            n_epochs=5, seed=3, csv_hypnogram=True,
        )
        out = tmp_path / "cache"
        assert main(["prepare", "--edf-dir", str(edf_dir), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == []
        assert manifest["subjects"][0]["epoch_counts"] == {
            "W": 2, "N1": 0, "N2": 1, "N3": 0, "REM": 1, "Total": 4
        }
        assert len(load_epochset(out / "ST7011.sepc")) == 4

    def test_hypnograms_of_both_formats_fail_that_recording(self, tmp_path, capsys):
        edf_dir = tmp_path / "edf"
        edf_dir.mkdir()
        annotations = [(0, 30, "Sleep stage W"), (30, 30, "Sleep stage 2")]
        craft_pair(edf_dir, "A1", annotations, n_epochs=2, seed=1)
        craft_pair(edf_dir, "A1", annotations, n_epochs=2, seed=1,
                   csv_hypnogram=True)
        craft_pair(edf_dir, "B2", annotations, n_epochs=2, seed=2)
        craft_pair(edf_dir, "C3", annotations, n_epochs=2, seed=3,
                   csv_hypnogram=True)
        out = tmp_path / "cache"
        assert main(["prepare", "--edf-dir", str(edf_dir), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["id"] for s in manifest["subjects"]] == ["B2", "C3"]
        [failure] = manifest["failures"]
        assert failure["source"] == "A1-PSG.edf"
        assert "A1-Hypnogram.edf" in failure["error"]
        assert "A1.csv" in failure["error"]
        assert not (out / "A1.sepc").exists()
        assert "skipping A1-PSG.edf" in capsys.readouterr().err

    def test_unreadable_hypnogram_fails_that_recording(self, tmp_path, capsys):
        edf_dir = tmp_path / "edf"
        edf_dir.mkdir()
        annotations = [(0, 30, "Sleep stage W"), (30, 30, "Sleep stage 2")]
        craft_pair(edf_dir, "SC4001", annotations, n_epochs=2, seed=1,
                   csv_hypnogram=True)
        (edf_dir / "SC4001.csv").unlink()
        (edf_dir / "SC4001.csv").mkdir()
        craft_pair(edf_dir, "SC4002", annotations, n_epochs=2, seed=2)
        out = tmp_path / "cache"
        assert main(["prepare", "--edf-dir", str(edf_dir), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["id"] for s in manifest["subjects"]] == ["SC4002"]
        [failure] = manifest["failures"]
        assert failure["source"] == "SC4001-PSG.edf"
        assert failure["error"].startswith(
            f"cannot read hypnogram {edf_dir / 'SC4001.csv'}: ")
        assert (out / "SC4002.sepc").exists()
        assert "skipping SC4001-PSG.edf" in capsys.readouterr().err

    def test_missing_edf_dir_is_config_error(self, tmp_path):
        assert main(["prepare", "--out-dir", str(tmp_path)]) == 2


@pytest.fixture(scope="module")
def synth_cache(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthcache")
    code = main(["synth", "--subjects", "4", "--epochs-per-subject", "16",
                 "--sample-rate", "8", "--seed", "21", "--out-dir", str(out)])
    assert code == 0
    return out


class TestSynthCommand:
    def test_outputs(self, synth_cache):
        caches = sorted(synth_cache.glob("*.sepc"))
        assert len(caches) == 4
        manifest = json.loads((synth_cache / "manifest.json").read_text())
        assert len(manifest["subjects"]) == 4
        events = json.loads((synth_cache / "synth-000.events.json").read_text())
        assert len(events["events"]) == 16

    def test_deterministic_bytes(self, synth_cache, tmp_path):
        again = tmp_path / "again"
        main(["synth", "--subjects", "4", "--epochs-per-subject", "16",
              "--sample-rate", "8", "--seed", "21", "--out-dir", str(again)])
        for name in ("synth-000.sepc", "manifest.json", "synth-002.events.json"):
            assert (again / name).read_bytes() == (synth_cache / name).read_bytes()


class TestTrainEvalExplain:
    def test_end_to_end_smoke(self, synth_cache, tmp_path):
        run1 = tmp_path / "run1"
        args = ["train", "--cache-dir", str(synth_cache), *TINY_MODEL_FLAGS,
                "--epochs", "2", "--batch-size", "16", "--stride-train", "1",
                "--seed", "3"]
        assert main([*args, "--out-dir", str(run1)]) == 0
        history = json.loads((run1 / "loss_history.json").read_text())
        assert len(history["mean_loss_per_epoch"]) == 2

        # identical seeds: bit-identical loss history and checkpoint
        run2 = tmp_path / "run2"
        assert main([*args, "--out-dir", str(run2)]) == 0
        assert (run1 / "loss_history.json").read_bytes() == \
            (run2 / "loss_history.json").read_bytes()
        assert (run1 / "checkpoint.sstg").read_bytes() == \
            (run2 / "checkpoint.sstg").read_bytes()

        out_eval = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run1 / "checkpoint.sstg"),
                     "--cache-dir", str(synth_cache),
                     "--out-dir", str(out_eval)]) == 0
        metrics = json.loads((out_eval / "metrics.json").read_text())
        assert 0.0 <= metrics["overall"]["accuracy"] <= 1.0
        assert metrics["overall"]["total_epochs"] == 64
        with open(out_eval / "predictions.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["subject", "epoch", "true", "predicted"]
        assert len(rows) - 1 == metrics["overall"]["total_epochs"]
        assert rows[1][:2] == ["synth-000", "0"]
        assert {r[2] for r in rows[1:]} <= set(STAGES)
        assert {r[3] for r in rows[1:]} <= set(STAGES)

        out_exp = tmp_path / "explain"
        assert main(["explain", "--checkpoint", str(run1 / "checkpoint.sstg"),
                     "--cache-dir", str(synth_cache), "--subject", "synth-001",
                     "--epoch-indices", "0,5", "--export-features", "true",
                     "--out-dir", str(out_exp)]) == 0
        summary = json.loads((out_exp / "synth-001_explain.json").read_text())
        assert len(summary["epochs"]) == 2
        assert (out_exp / "synth-001_epoch00000.svg").exists()
        assert (out_exp / "synth-001_epoch00000.csv").exists()
        assert (out_exp / "synth-001_features.csv").exists()

    def test_cv_two_folds(self, synth_cache, tmp_path):
        out = tmp_path / "cv"
        assert main(["cv", "--cache-dir", str(synth_cache), *TINY_MODEL_FLAGS,
                     "--epochs", "1", "--batch-size", "16", "--stride-train", "2",
                     "--seed", "5", "--k", "2", "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["folds"]) == 2
        assert metrics["pooled"]["overall"]["total_epochs"] == 64
        timing = json.loads((out / "timing.json").read_text())
        assert set(timing["fold_wall_clock_s"]) == {"0", "1"}
        assert (out / "fold_0.sstg").exists() and (out / "fold_1.sstg").exists()

    def test_empty_cache_dir_exits_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["train", "--cache-dir", str(empty),
                     "--out-dir", str(tmp_path / "o")]) == 3

    def test_corrupt_cache_exits_3(self, synth_cache, tmp_path, capsys):
        blob = (synth_cache / "synth-000.sepc").read_bytes()
        # the rate follows magic, version and the u16-prefixed subject id
        at = 10 + len("synth-000")
        assert np.frombuffer(blob[at : at + 8], dtype="<f8")[0] == 8.0
        corrupt = {
            "samples": blob[:-10],
            "sample_rate": blob[:at] + np.float64(9.0).tobytes() + blob[at + 8 :],
        }
        for field, bad_blob in corrupt.items():
            bad = tmp_path / field
            bad.mkdir()
            (bad / "synth-000.sepc").write_bytes(bad_blob)
            assert main(["train", "--cache-dir", str(bad),
                         "--out-dir", str(tmp_path / "o")]) == 3
            assert f"(field: {field})" in capsys.readouterr().err

    def test_rate_mismatch_exits_2(self, tmp_path, capsys):
        # a checkpoint trained at 8 Hz cannot read a 16 Hz cache: eval and
        # explain both say so as a config error, before any forward pass
        ckpt = untrained_checkpoint(tmp_path / "model.sstg")
        fast = tmp_path / "fast"
        assert main(["synth", "--subjects", "1", "--epochs-per-subject", "4",
                     "--sample-rate", "16", "--seed", "1",
                     "--out-dir", str(fast)]) == 0
        capsys.readouterr()
        common = ["--checkpoint", str(ckpt), "--cache-dir", str(fast)]
        assert main(["eval", *common, "--out-dir", str(tmp_path / "e")]) == 2
        assert main(["explain", *common, "--subject", "synth-000",
                     "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: cache rate 16.0 Hz != checkpoint's 8.0 Hz"] * 2

    def test_bad_epoch_index_renders_nothing(self, synth_cache, tmp_path, capsys):
        # every index is checked before the first heatmap is computed
        ckpt = untrained_checkpoint(tmp_path / "model.sstg", initialized=True)
        common = ["explain", "--checkpoint", str(ckpt), "--cache-dir",
                  str(synth_cache), "--subject", "synth-000"]
        good = tmp_path / "good"
        assert main([*common, "--epoch-indices", "0", "--out-dir", str(good)]) == 0
        assert (good / "synth-000_epoch00000.csv").exists()
        capsys.readouterr()
        bad = tmp_path / "bad"
        assert main([*common, "--epoch-indices", "0,99999",
                     "--out-dir", str(bad)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "data error: epoch index 99999 outside 0..15 for synth-000"
        ]
        assert list(bad.iterdir()) == []

    def test_config_file_drives_training(self, synth_cache, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[data]\n"
            f"cache_dir = {synth_cache}\n"
            "[model]\n"
            "width_multiplier = 0.0625\n"
            "reduction_ratio = 4\n"
            "window_size = 3\n"
            "lstm_hidden = 4\n"
            "lstm_depth = 1\n"
            "[train]\n"
            "epochs = 1\n"
            "batch_size = 16\n"
            "stride_train = 2\n"
            "seed = 9\n"
        )
        out = tmp_path / "from-config"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out)]) == 0
        history = json.loads((out / "loss_history.json").read_text())
        assert history["epochs"] == 1 and history["seed"] == 9


def typed_errors():
    """``StagerError`` and every class below it."""
    found, pending = [], [StagerError]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class TestExitCodes:
    def test_every_typed_error_exits_with_one_line(self, tmp_path, monkeypatch,
                                                   capsys):
        errors = typed_errors()
        assert len(errors) >= 17
        for cls in errors:
            def fail(*args, cls=cls):
                raise cls(f"{cls.__name__} raised")

            monkeypatch.setattr(cli, "synth_generate", fail)
            code = main(["synth", "--out-dir", str(tmp_path)])
            kind = "config" if cls is ConfigError else "data"
            assert code == (2 if cls is ConfigError else 3), cls.__name__
            assert capsys.readouterr().err.splitlines() == [
                f"{kind} error: {cls.__name__} raised"
            ]

    def test_out_dir_under_a_file_exits_3(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub"
        assert main(["synth", "--subjects", "1", "--epochs-per-subject", "2",
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"data error: cannot create output directory {out}: ")

    def test_unwritable_manifest_exits_3(self, tmp_path, capsys):
        (tmp_path / "manifest.json").mkdir()
        assert main(["synth", "--subjects", "1", "--epochs-per-subject", "2",
                     "--sample-rate", "8", "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(
            f"data error: cannot write {tmp_path / 'manifest.json'}: ")

    def test_missing_checkpoint_exits_3(self, synth_cache, tmp_path, capsys):
        missing = tmp_path / "nope.sstg"
        assert main(["eval", "--checkpoint", str(missing), "--cache-dir",
                     str(synth_cache), "--out-dir", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"data error: cannot read checkpoint {missing}: ")

    def test_unwritable_checkpoint_exits_3(self, synth_cache, tmp_path, capsys,
                                           monkeypatch):
        # the checkpoint path is checked before training, not after it
        fits = []
        monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: fits.append(args))
        (tmp_path / "checkpoint.sstg").mkdir()
        assert main(["train", "--cache-dir", str(synth_cache), *TINY_MODEL_FLAGS,
                     "--epochs", "1", "--batch-size", "16", "--stride-train", "4",
                     "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(
            f"data error: cannot write checkpoint {tmp_path / 'checkpoint.sstg'}: ")
        assert fits == []

    def test_uninitialized_checkpoint_exits_3(self, synth_cache, tmp_path, capsys):
        ckpt = untrained_checkpoint(tmp_path / "model.sstg")
        assert main(["eval", "--checkpoint", str(ckpt), "--cache-dir",
                     str(synth_cache), "--out-dir", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: "), err

    def test_malformed_manifest_exits_3(self, synth_cache, tmp_path, capsys):
        # valid JSON, but a tensor entry without its shape
        ckpt = untrained_checkpoint(tmp_path / "model.sstg", initialized=True)
        blob = ckpt.read_bytes()
        mlen = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
        manifest = json.loads(blob[16 : 16 + mlen])
        del manifest["tensors"][0]["shape"]
        raw = json.dumps(manifest).encode()
        ckpt.write_bytes(blob[:8] + np.uint64(len(raw)).tobytes() + raw
                         + blob[16 + mlen :])
        assert main(["eval", "--checkpoint", str(ckpt), "--cache-dir",
                     str(synth_cache), "--out-dir", str(tmp_path / "e")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: "), err
        assert "field: tensors" in err[0]

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.01"])
    def test_bad_lr_exits_2(self, synth_cache, tmp_path, capsys, lr):
        assert main(["train", "--cache-dir", str(synth_cache), *TINY_MODEL_FLAGS,
                     "--lr", lr, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: lr must be")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, synth_cache, tmp_path, capsys, jobs):
        assert main(["cv", "--cache-dir", str(synth_cache), *TINY_MODEL_FLAGS,
                     "--k", "2", "--jobs", jobs, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: jobs must be")
        assert not (tmp_path / "metrics.json").exists()

    def test_shuffle_flag_is_unknown(self, tmp_path):
        for command in ("train", "cv"):
            with pytest.raises(SystemExit) as exit_:
                main([command, "--shuffle", "false", "--out-dir", str(tmp_path)])
            assert exit_.value.code == 2
