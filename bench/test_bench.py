"""Fast tests of the benchmark's own code: ``python3 -m pytest bench -q``."""

import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import summary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sleepstager.explain import PATH_STEPS  # noqa: E402

SPEC = summary.load_spec(HERE.parent / "BENCHMARK.json")


# -- median and quartile summary ----------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 10.0, 4.0, 8.0, 6.0]
    assert summary.quartiles(values) == (2.75, 5.5, 8.25)
    assert summary.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_spread_is_interquartile_distance_over_median():
    assert summary.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]) == 1.0
    assert summary.spread([4.0] * 10) == 0.0
    # scaling every value leaves the share unchanged
    values = [0.9, 1.1, 1.0, 1.05, 0.95]
    assert summary.spread([v * 1000 for v in values]) == pytest.approx(
        summary.spread(values))


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_covered_child_time():
    parent = (0, 100)
    # overlapping children count once; a child running past the parent is clipped
    children = [(20, 50), (10, 30), (60, 70), (95, 120)]
    assert tracing.covered_ns(children, 0, 100) == 40 + 10 + 5
    assert tracing.self_time_ns(parent, children) == 45
    # restricted to a window of the parent: [25, 65] is covered for 25 + 5
    assert tracing.self_time_ns(parent, children, 25, 65) == 40 - 30
    assert tracing.self_time_ns(parent, []) == 100


def _spans(rows):
    """Hand-built span list: rows of (name, phase, parent, t0, t1, value)."""
    sp = tracing.Spans()
    for name, phase, parent, t0, t1, value in rows:
        sp.add(name, phase, parent, t0=t0, t1=t1, value=value)
    return sp


def test_fit_self_time_counts_only_steps_after_the_first():
    # fit [0, 100]; step 0 ends at 30, step 1 at 60, step 2 at 100
    sp = _spans([
        ("training.fit", 0, -1, 0, 100, 0),
        ("data.gather", 0, 0, 2, 5, 0),
        ("training.adam_step", 0, 0, 25, 30, 0),
        ("data.gather", 0, 0, 32, 35, 0),             # step 1: self 30 - 3 - 10 - 5
        ("model.forward_batch", 0, 0, 40, 50, 0),
        ("op.conv1d", 0, 4, 41, 45, 0),               # grandchild: already covered
        ("training.adam_step", 0, 0, 55, 60, 0),
        ("model.forward_batch", 0, 0, 70, 90, 0),     # step 2: self 40 - 20 - 4
        ("training.adam_step", 0, 0, 96, 100, 0),
    ])
    c = sp.columns()
    ids = {n: k for k, n in enumerate(c["names"])}
    assert tracing.fit_self_ms(c, ids) == pytest.approx((12 + 16) / 1e6)


def test_layer_masks_name_blocks_by_stage_and_ops_of_the_extractor_the_stem():
    sp = _spans([
        ("blocks.extractor", 0, -1, 0, 10, 1),
        ("op.conv1d", 0, 0, 0, 1, 0),
        ("blocks.block", 0, 0, 1, 5, 2),   # a stage-2 block
        ("op.conv1d", 0, 2, 1, 2, 0),
        ("recurrent.stack", 0, -1, 10, 12, 0),
        ("op.matmul", 0, 4, 10, 11, 0),
    ])
    c = sp.columns()
    masks = tracing.layer_masks(list(c["names"]), c["name"], c["parent"], c["value"])
    ext, stem, s2 = tracing.EXTRACTOR_BIT, tracing.STAGE_BIT["stem"], tracing.STAGE_BIT["s2"]
    assert list(masks) == [ext, ext | stem, ext | s2, ext | s2, tracing.RECURRENT_BIT,
                           tracing.RECURRENT_BIT]


# -- metric names and units ----------------------------------------------------


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == sorted(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_with_units_rejects_missing_unknown_and_non_finite_metrics():
    spec = {"end_to_end": [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "s"}]}
    assert summary.with_units({"a_ms": 1, "b": 2.5}, spec, "end_to_end") == {
        "a_ms": {"value": 1.0, "unit": "ms"}, "b": {"value": 2.5, "unit": "s"}}
    with pytest.raises(ValueError, match="missing"):
        summary.with_units({"a_ms": 1}, spec, "end_to_end")
    with pytest.raises(ValueError, match="unknown"):
        summary.with_units({"a_ms": 1, "b": 2, "c": 3}, spec, "end_to_end")
    with pytest.raises(ValueError, match="finite"):
        summary.with_units({"a_ms": float("nan"), "b": 2}, spec, "end_to_end")


@pytest.fixture(scope="module")
def tiny_traced_run(tmp_path_factory):
    """The desk model on a few short recordings, traced: a few seconds."""
    w = replace(workloads.WORKLOADS["desk"], train_recordings=2, train_epochs_each=24,
                fit_epochs=2, nights=1, night_epochs=30, heatmaps_per_round=1,
                window_checks=3, grad_entries=2, check_quality=False)
    tracer = tracing.Tracer()
    with tracer.installed(workloads):
        metrics, attempted, checks, extras = workloads.run(
            w, 3, 0.1, tmp_path_factory.mktemp("work"), tracer)
    return metrics, attempted, checks, extras, tracer


def test_every_printed_metric_is_named_in_benchmark_json(tiny_traced_run):
    metrics, attempted, checks, extras, tracer = tiny_traced_run
    assert checks.passed, checks.failures()
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for kind, values in (("end_to_end", metrics),
                         ("per_layer", tracing.per_layer_metrics(tracer, extras))):
        printed = summary.with_units(values, SPEC, kind)
        assert all(printed[n]["unit"] == units[n] for n in printed)
    assert attempted == extras["train_steps"] + extras["score_rounds"] + extras["heatmaps"]


def test_traced_counts_follow_the_program(tiny_traced_run):
    _, _, _, extras, tracer = tiny_traced_run
    m = tracing.per_layer_metrics(tracer, extras)
    assert m["score.blocks.epochs_per_scored_epoch"] == 9  # the window size
    assert m["explain.model.forwards"] == PATH_STEPS + 1
    assert m["explain.autodiff.backwards"] == PATH_STEPS
    stages = sum(m[f"train.blocks.{s}.bwd_ms"] for s in tracing.STAGES)
    assert stages == pytest.approx(m["train.blocks.bwd_ms"])
    assert m["train.recurrent.tape_nodes"] < m["train.autodiff.tape_nodes"]
    # only fit's first step runs under tracemalloc, and it is left out of the
    # timings even where it freed more than it allocated
    c = tracer.spans.columns()
    names = list(c["names"])
    backwards = (c["name"] == names.index("autodiff.backward")) & (c["phase"] == 0)
    assert int((backwards & (c["tracked"] == 1)).sum()) == 1
    assert int((backwards & (c["tracked"] == 0)).sum()) == extras["train_steps"] - 1
    closures = sum(m[f"train.autodiff.{k}.bwd_ms"] for k in tracing.OPS)
    assert 0.5 * m["train.autodiff.backward_ms"] < closures <= m["train.autodiff.backward_ms"]
    # the traced run leaves the package as it found it
    assert workloads.training.fit.__module__ == "sleepstager.training"
    assert not hasattr(workloads.training.fit, "__wrapped__")


def test_run_rejects_an_unknown_workload():
    with pytest.raises(SystemExit) as exc:
        import run
        run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"])
    assert exc.value.code != 0


def test_spec_is_valid_json_text():
    text = (HERE.parent / "BENCHMARK.json").read_text()
    assert json.loads(text) == SPEC and len(text.encode()) <= 64 * 1024
