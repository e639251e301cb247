"""Window/stride views over an epoch set.

A window of W consecutive epochs is labeled by its middle epoch. The
``skip`` policy only emits fully in-range windows (training); the
``replicate`` policy clamps indices at the recording edges so every epoch
can be a center (evaluation).
"""

import numpy as np

from ..errors import ConfigError, EmptyDataset


class WindowView:
    def __init__(self, epoch_set, window_size, stride, edge_policy):
        self.epoch_set = epoch_set
        self.edge_policy = edge_policy
        n = len(epoch_set)
        half = (window_size - 1) // 2
        if edge_policy == "skip":
            if n < window_size:
                raise EmptyDataset(
                    f"window {window_size} exceeds the {n} available epochs"
                )
            count = (n - window_size) // stride + 1
            self._centers = np.arange(count) * stride + half
        elif edge_policy == "replicate":
            if n < 1:
                raise EmptyDataset("no epochs to window")
            count = (n - 1) // stride + 1
            self._centers = np.arange(count) * stride
        else:
            raise ConfigError(f"unknown edge policy {edge_policy!r}")
        self._half = half

    def __len__(self):
        return len(self._centers)

    def center(self, k):
        return int(self._centers[k])

    def labels(self):
        return self.epoch_set.labels[self._centers].copy()

    def spans(self, ks):
        """Epoch indices ``[len(ks), W]`` of windows ``ks``, row by row.

        Under ``replicate`` the indices are clamped to the recording, so an
        edge window repeats its first or last epoch.
        """
        ks = np.asarray(ks, dtype=np.intp)
        spans = (
            self._centers[ks][:, None]
            + np.arange(-self._half, self._half + 1)[None, :]
        )
        if self.edge_policy == "replicate":
            spans = np.clip(spans, 0, len(self.epoch_set) - 1)
        return spans

    def gather(self, ks):
        """Materialize windows ``ks`` as an array ``[len(ks), W, L]``."""
        return self.epoch_set.epochs[self.spans(ks)]


def make_windows(epoch_set, window_size, stride, edge_policy="skip"):
    if window_size < 1 or window_size % 2 == 0:
        raise ConfigError(f"window size must be odd and >= 1, got {window_size}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    return WindowView(epoch_set, window_size, stride, edge_policy)
