"""Single-channel EEG sleep staging: model, data pipeline, training, metrics."""

import math

from .errors import ConfigError

__version__ = "0.1.0"

STAGES = ("W", "N1", "N2", "N3", "REM")
STAGE_TO_INDEX = {name: i for i, name in enumerate(STAGES)}
NUM_STAGES = 5
EXCLUDED = -1
EPOCH_SECONDS = 30.0


def epoch_samples(rate):
    """Samples in one 30 s epoch at ``rate`` Hz.

    Raises ``ConfigError`` unless that is a whole number, at least one.
    """
    samples = EPOCH_SECONDS * rate
    if not (1 <= samples < math.inf and abs(samples - round(samples)) <= 1e-9):
        raise ConfigError(
            f"sample rate {rate} Hz does not give a whole number of samples "
            f"per {EPOCH_SECONDS:g} s epoch"
        )
    return int(round(samples))
