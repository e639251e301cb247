"""Synthetic single-channel EEG with stage-specific microstructures.

Every epoch is pink-noise background plus its stage's signature: sustained
alpha for W, steady low-amplitude 4-7 Hz tones for N1, a spindle burst plus
one sharp biphasic K-complex for N2 (with ground-truth intervals recorded),
waxing-and-waning high-amplitude delta for N3, and strongly
amplitude-modulated 2-8 Hz bursts for REM. The background level varies per
epoch and the N3/REM envelopes leave bare-background stretches, so no
single global energy or texture statistic separates the classes; N2 is
recognizable only by its transient events, which keeps saliency
experiments meaningful. Stage sequences follow a dwell-time cycle through
light and deep sleep so windows carry realistic context.
"""

import numpy as np

from .. import STAGE_TO_INDEX, epoch_samples
from ..errors import ConfigError
from .epochs import EpochSet

BG_RMS = 1.0
BG_GAIN_RANGE = (0.5, 1.6)
ALPHA_BAND = (8.0, 12.0)
THETA_BAND = (4.0, 7.0)
SPINDLE_BAND = (12.0, 14.0)
DELTA_BAND = (0.5, 2.0)
REM_BAND = (2.0, 8.0)
ALPHA_AMP = 2.5
THETA_AMP = 0.5
SPINDLE_AMP = 10.0
KCOMPLEX_AMP = 9.0
DELTA_AMP = 7.0
REM_AMP = 1.5

# one pass through a night-like cycle; N2 is visited twice per cycle,
# mirroring its dominance in real recordings
_STAGE_CYCLE = ("W", "N1", "N2", "N3", "N2", "REM")


def _pink_noise(rng, n, fs):
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    amp = np.zeros_like(freqs)
    amp[1:] = 1.0 / np.sqrt(freqs[1:])
    phases = rng.uniform(0, 2 * np.pi, size=len(freqs))
    spectrum = amp * np.exp(1j * phases)
    x = np.fft.irfft(spectrum, n=n)
    rms = np.sqrt(np.mean(x * x))
    return x / rms * BG_RMS


def _tone(rng, t, band, amp):
    f = rng.uniform(*band)
    phase = rng.uniform(0, 2 * np.pi)
    return amp * np.sin(2 * np.pi * f * t + phase)


def _stage_sequence(rng, n_epochs):
    labels = []
    pos = int(rng.integers(len(_STAGE_CYCLE)))
    while len(labels) < n_epochs:
        stage = _STAGE_CYCLE[pos % len(_STAGE_CYCLE)]
        dwell = int(rng.integers(2, 6))
        labels.extend([STAGE_TO_INDEX[stage]] * dwell)
        pos += 1
    return np.array(labels[:n_epochs], dtype=np.int8)


def _kcomplex(t, onset, amp):
    sharp = np.exp(-(((t - onset) / 0.08) ** 2))
    rebound = np.exp(-(((t - onset - 0.22) / 0.18) ** 2))
    return amp * (-sharp + 0.75 * rebound)


def _make_epoch(rng, stage, t, fs):
    # per-epoch background level: absolute energy carries no stage label
    x = rng.uniform(*BG_GAIN_RANGE) * _pink_noise(rng, len(t), fs)
    gain = rng.uniform(0.7, 1.3)
    events = []
    if stage == STAGE_TO_INDEX["W"]:
        x += gain * _tone(rng, t, ALPHA_BAND, ALPHA_AMP)
    elif stage == STAGE_TO_INDEX["N1"]:
        for _ in range(3):
            x += gain * _tone(rng, t, THETA_BAND, THETA_AMP)
    elif stage == STAGE_TO_INDEX["N2"]:
        ev_gain = rng.uniform(0.9, 1.1)
        dur = rng.uniform(1.0, 1.5)
        s0 = rng.uniform(2.0, 28.0 - dur)
        mask = (t >= s0) & (t < s0 + dur)
        envelope = np.zeros_like(t)
        envelope[mask] = np.sin(np.pi * (t[mask] - s0) / dur) ** 2
        # keep the carrier off the band edges: the short envelope spreads
        # the spectrum by a few Hz either side
        f_spindle = rng.uniform(SPINDLE_BAND[0] + 0.3, SPINDLE_BAND[1] - 0.3)
        x += ev_gain * SPINDLE_AMP * envelope * np.sin(
            2 * np.pi * f_spindle * t + rng.uniform(0, 2 * np.pi)
        )
        events.append(("spindle", float(s0), float(s0 + dur)))
        while True:
            k0 = rng.uniform(1.0, 28.0)
            if k0 + 1.0 < s0 - 0.5 or k0 > s0 + dur + 0.5:
                break
        x += ev_gain * _kcomplex(t, k0, KCOMPLEX_AMP)
        events.append(("kcomplex", float(max(k0 - 0.4, 0.0)), float(k0 + 1.0)))
    elif stage == STAGE_TO_INDEX["N3"]:
        # slow waves wax and wane: half the epoch is bare background, but the
        # steep envelope keeps several near-full-amplitude delta bursts
        f_am = rng.uniform(0.15, 0.3)
        env = np.clip(
            3.0 * np.sin(2 * np.pi * f_am * t + rng.uniform(0, 2 * np.pi)), 0.0, 1.0
        )
        x += gain * env * _tone(rng, t, DELTA_BAND, DELTA_AMP)
    else:  # REM: mixed-frequency bursts separated by silent stretches
        f_am = rng.uniform(0.15, 0.35)
        env = np.maximum(np.sin(2 * np.pi * f_am * t + rng.uniform(0, 2 * np.pi)), 0.0)
        mix = np.zeros_like(t)
        for _ in range(3):
            mix += _tone(rng, t, REM_BAND, REM_AMP)
        x += gain * env * mix
    return x, events


def synth_generate(n_subjects, epochs_per_subject, sample_rate, seed):
    """Deterministic synthetic dataset: one EpochSet per subject.

    Ground-truth event intervals (epoch-relative seconds) ride along in
    ``EpochSet.events``, one list per epoch.
    """
    if n_subjects < 1 or epochs_per_subject < 1:
        raise ConfigError("subject and epoch counts must be >= 1")
    l_epoch = epoch_samples(sample_rate)
    t = np.arange(l_epoch) / sample_rate
    sets = []
    for s in range(n_subjects):
        rng = np.random.default_rng([int(seed), s])
        labels = _stage_sequence(rng, epochs_per_subject)
        epochs = np.empty((epochs_per_subject, l_epoch))
        events = []
        for i, stage in enumerate(labels):
            epochs[i], ev = _make_epoch(rng, int(stage), t, sample_rate)
            events.append(ev)
        sets.append(
            EpochSet(epochs, labels, f"synth-{s:03d}", sample_rate, events=events)
        )
    return sets
