"""Data pipeline: EDF ingestion, hypnograms, epoching, windows, folds, synthesis."""

from .edf import EdfRecording, EdfSignal, parse_edf, parse_edf_file, write_edf
from .epochs import (
    EpochSet,
    epochize,
    load_epochset,
    normalize_recording,
    save_epochset,
)
from .folds import kfold_split
from .hypnogram import (
    hypnogram_from_annotations,
    map_stage_label,
    parse_hypnogram,
    parse_hypnogram_csv,
    parse_hypnogram_edf,
    parse_tals,
)
from .synth import synth_generate
from .windows import WindowView, make_windows

__all__ = [
    "EdfRecording",
    "EdfSignal",
    "EpochSet",
    "WindowView",
    "epochize",
    "hypnogram_from_annotations",
    "kfold_split",
    "load_epochset",
    "make_windows",
    "map_stage_label",
    "normalize_recording",
    "parse_edf",
    "parse_edf_file",
    "parse_hypnogram",
    "parse_hypnogram_csv",
    "parse_hypnogram_edf",
    "parse_tals",
    "save_epochset",
    "synth_generate",
    "write_edf",
]
