"""Run configuration: one registry of keys, mirrored by flags and config file.

The config file is INI-style ``key = value`` under ``[section]`` headers.
Precedence per key is flag > config file > default. Unknown file keys are
rejected before any work starts; flag and file values go through the same
converter so both surfaces behave identically. The model and training keys
take their defaults from the config dataclasses they fill. The parts of the
paper's design that hold one value (the stem, the linear softmax head, the
log-probability GradCAM explains) are constants, not keys.
"""

import configparser
from dataclasses import dataclass, fields

from .blocks import BLOCKS_PER_STAGE, FeatureExtractorConfig
from .errors import ConfigError
from .model import StagerConfig
from .training import TrainConfig


@dataclass(frozen=True)
class KeySpec:
    name: str
    section: str
    kind: str  # int | float | str | bool | choice | intlist
    default: object
    help: str
    choices: tuple = ()


KEYS = {
    spec.name: spec
    for spec in [
        # data
        KeySpec("edf_dir", "data", "str", None,
                "directory of EDF recordings, each beside an EDF+ or CSV hypnogram"),
        KeySpec("channel", "data", "str", "EEG Fpz-Cz",
                "signal label to extract (e.g. 'EEG Fpz-Cz', 'EEG C4-A1')"),
        KeySpec("normalize", "data", "choice", "none",
                "per-recording normalization applied at preparation",
                choices=("none", "zscore_per_recording", "zscore_per_epoch")),
        KeySpec("cache_dir", "data", "str", None,
                "directory of prepared .sepc epoch caches"),
        # model
        KeySpec("variant", "model", "choice", FeatureExtractorConfig.variant,
                "feature extractor variant; sets the residual blocks per stage",
                choices=tuple(BLOCKS_PER_STAGE)),
        KeySpec("width_multiplier", "model", "float",
                FeatureExtractorConfig.width_multiplier,
                "scales the extractor stage widths 64, 128, 256, 512 "
                "(desk-scale shrinking)"),
        KeySpec("reduction_ratio", "model", "int",
                FeatureExtractorConfig.reduction_ratio,
                "squeeze-and-excitation bottleneck reduction"),
        KeySpec("window_size", "model", "int", StagerConfig.window_size,
                "odd number of epochs per window"),
        KeySpec("lstm_hidden", "model", "int", StagerConfig.lstm_hidden,
                "hidden size per LSTM direction"),
        KeySpec("lstm_depth", "model", "int", StagerConfig.lstm_depth,
                "stacked Bi-LSTM layers"),
        # training
        KeySpec("epochs", "train", "int", TrainConfig.epochs,
                "training passes over the windows"),
        KeySpec("batch_size", "train", "int", TrainConfig.batch_size,
                "windows per optimizer step"),
        KeySpec("lr", "train", "float", TrainConfig.lr,
                "Adam learning rate at stride 1; stride s trains at lr * s"),
        KeySpec("stride_train", "train", "int", TrainConfig.stride_train,
                "training window stride s: each epoch uses 1/s of the windows, "
                "at a phase per recording that changes every epoch "
                "(evaluation always uses 1)"),
        KeySpec("seed", "train", "int", TrainConfig.seed,
                "master seed for init and shuffling"),
        # cross-validation
        KeySpec("k", "cv", "int", 20, "number of subject-wise folds"),
        KeySpec("jobs", "cv", "int", 1, "parallel fold processes"),
        # synthesis
        KeySpec("subjects", "synth", "int", 8, "synthetic subjects to generate"),
        KeySpec("epochs_per_subject", "synth", "int", 120,
                "30 s epochs per synthetic subject"),
        KeySpec("sample_rate", "synth", "float", 100.0,
                "synthetic sampling rate in Hz"),
        # evaluation / explanation
        KeySpec("checkpoint", "eval", "str", None, "trained checkpoint path"),
        KeySpec("subject", "explain", "str", None,
                "subject id (cache stem) to explain"),
        KeySpec("epoch_indices", "explain", "intlist", (0,),
                "comma-separated epoch indices to explain"),
        KeySpec("export_features", "explain", "bool", False,
                "also write the per-epoch feature matrix CSV"),
        # output
        KeySpec("out_dir", "output", "str", "out", "artifact output directory"),
    ]
}


def convert(spec, raw):
    """Parse a raw string to the key's type; used by flags and file alike."""
    if raw is None:
        return None
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if spec.kind == "int":
            return int(text)
        if spec.kind == "float":
            return float(text)
        if spec.kind == "str":
            return text
        if spec.kind == "bool":
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if spec.kind == "choice":
            if text not in spec.choices:
                raise ValueError(f"must be one of {spec.choices}, got {text!r}")
            return text
        if spec.kind == "intlist":
            return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as e:
        raise ConfigError(f"config key {spec.name}: {e}") from e
    raise ConfigError(f"unhandled key kind {spec.kind!r}")


def load_config_file(path):
    """Read a config file into {key: typed value}; unknown keys are fatal."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"malformed config file {path}: {e}") from e
    values = {}
    for section in parser.sections():
        for name, raw in parser.items(section):
            spec = KEYS.get(name)
            if spec is None or spec.section != section:
                raise ConfigError(
                    f"unknown config key [{section}] {name} in {path}"
                )
            values[name] = convert(spec, raw)
    return values


class RunConfig:
    """Merged view of defaults, config file, and flag overrides."""

    def __init__(self, flag_values=None, file_values=None):
        self._values = {name: spec.default for name, spec in KEYS.items()}
        for name, value in (file_values or {}).items():
            self._values[name] = value
        for name, value in (flag_values or {}).items():
            if value is not None:
                self._values[name] = convert(KEYS[name], value)

    def __getitem__(self, name):
        return self._values[name]

    def require(self, name):
        value = self._values[name]
        if value is None:
            raise ConfigError(f"missing required setting: {name}")
        return value


def _from_run(cls, run, **given):
    """``cls``'s fields by name: ``given``, the rest from the run's keys."""
    return {f.name: run[f.name] for f in fields(cls) if f.name not in given} | given


def model_config_from(run, sample_rate):
    """Build a validated StagerConfig from run settings plus the data's rate."""
    extractor = FeatureExtractorConfig.create(**_from_run(FeatureExtractorConfig, run))
    return StagerConfig(**_from_run(
        StagerConfig, run, extractor=extractor, sample_rate=sample_rate
    )).validate()


def train_config_from(run):
    return TrainConfig(**_from_run(TrainConfig, run)).validate()
