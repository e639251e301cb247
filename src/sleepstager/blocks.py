"""SE-ResNet building blocks for 1-D signals.

A squeeze-and-excitation gate re-weights the channels of each residual
block; four stages of such blocks turn one 30-second epoch into a single
feature vector. Everything takes a batch ``[N, C, L]``; one epoch is a
batch of one. The parameter structs hold each conv weight as a plain
tensor: batchnorm follows every conv and absorbs a bias, so none has one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    BatchNormState,
    Tensor,
    add,
    batchnorm1d,
    channel_scale,
    conv1d,
    global_avg_pool,
    matmul,
    max_pool1d,
    relu,
    sigmoid,
    transpose,
)
from .errors import ConfigError, ShapeError

RESNET_BASE_WIDTHS = (64, 128, 256, 512)
BLOCKS_PER_STAGE = {"se_resnet_18": (2, 2, 2, 2), "se_resnet_34": (3, 4, 6, 3)}
STEM_KERNEL = 7
STEM_STRIDE = 2


@dataclass
class FeatureExtractorConfig:
    """The three settings of the extractor; its stage shapes derive from them.

    The variant fixes the residual blocks per stage, and the width
    multiplier scales ResNet's stage widths (64, 128, 256, 512).
    """

    variant: str = "se_resnet_18"
    width_multiplier: float = 1.0
    reduction_ratio: int = 16

    # the defaults are the field defaults above
    @classmethod
    def create(cls, variant=variant, width_multiplier=width_multiplier,
               reduction_ratio=reduction_ratio):
        cfg = cls(variant, width_multiplier, reduction_ratio)
        cfg.validate()
        return cfg

    def validate(self):
        if self.variant not in BLOCKS_PER_STAGE:
            raise ConfigError(f"unknown extractor variant: {self.variant!r}")
        if not 0 < self.width_multiplier < math.inf:
            raise ConfigError(f"width_multiplier {self.width_multiplier} is not "
                              "positive and finite")
        r = self.reduction_ratio
        if r < 1:
            raise ConfigError("reduction_ratio must be >= 1")
        for w in self.stage_widths:
            if w < r:
                raise ConfigError(f"stage width {w} smaller than reduction ratio {r}")
            if w % r != 0:
                raise ConfigError(f"stage width {w} not divisible by reduction {r}")

    @property
    def stage_widths(self):
        return tuple(
            int(round(w * self.width_multiplier)) for w in RESNET_BASE_WIDTHS
        )

    @property
    def blocks_per_stage(self):
        return BLOCKS_PER_STAGE[self.variant]

    @property
    def feature_dim(self):
        return self.stage_widths[-1]

    def to_dict(self):
        return {
            "variant": self.variant,
            "stem_kernel": STEM_KERNEL,
            "stem_stride": STEM_STRIDE,
            "stage_widths": list(self.stage_widths),
            "blocks_per_stage": list(self.blocks_per_stage),
            "reduction_ratio": self.reduction_ratio,
            "width_multiplier": self.width_multiplier,
        }

    @classmethod
    def from_dict(cls, d):
        """Rebuild from the three settings; the derived keys must agree."""
        try:
            width, ratio = float(d["width_multiplier"]), int(d["reduction_ratio"])
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"extractor setting is not a usable number: {e}") from e
        cfg = cls.create(d["variant"], width, ratio)
        for key, value in cfg.to_dict().items():
            if d[key] != value:
                raise ConfigError(
                    f"extractor {key} {d[key]} != {value} of {cfg.variant} "
                    f"at width multiplier {cfg.width_multiplier}"
                )
        return cfg


class ParamBuilder:
    """Creates named, deterministically initialized parameters.

    Every learnable tensor lands in ``registry`` under a stable name; batch
    norm running state lands in ``states``. Per-tensor seeds derive from
    the master seed and the creation counter, so the same config and seed
    always produce bit-identical parameters.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self.registry = {}
        self.states = {}
        self._count = 0

    def _register(self, name, t):
        if name in self.registry:
            raise ConfigError(f"duplicate parameter name: {name}")
        self.registry[name] = t
        return t

    def weight(self, name, shape):
        """He-normal draws: zero mean, variance 2 / fan_in, where fan_in is
        the product of the non-leading extents."""
        self._count += 1
        rng = np.random.default_rng([self.seed, self._count])
        std = np.sqrt(2.0 / math.prod(shape[1:]))
        t = Tensor(rng.normal(0.0, std, size=tuple(shape)), requires_grad=True)
        return self._register(name, t)

    def const(self, name, shape, value=0.0):
        t = Tensor(np.full(tuple(shape), float(value)), requires_grad=True)
        return self._register(name, t)

    def bn(self, name, channels):
        gamma = self.const(f"{name}.gamma", [channels], 1.0)
        beta = self.const(f"{name}.beta", [channels], 0.0)
        state = BatchNormState(channels)
        self.states[name] = state
        return BatchNormParams(gamma, beta, state)


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    state: BatchNormState


@dataclass
class SEBlockParams:
    fc1: Tensor  # [C // r, C]
    fc2: Tensor  # [C, C // r]


@dataclass
class BasicBlockParams:
    conv1: Tensor
    bn1: BatchNormParams
    conv2: Tensor
    bn2: BatchNormParams
    se: SEBlockParams
    stride: int
    shortcut_conv: Tensor | None = None
    shortcut_bn: BatchNormParams | None = None


@dataclass
class FeatureExtractorParams:
    stem_conv: Tensor
    stem_bn: BatchNormParams
    stages: list = field(default_factory=list)


def build_se(builder, name, channels, reduction_ratio):
    if channels % reduction_ratio != 0:
        raise ConfigError(
            f"channels {channels} not divisible by reduction {reduction_ratio}"
        )
    hidden = channels // reduction_ratio
    fc1 = builder.weight(f"{name}.fc1", [hidden, channels])
    fc2 = builder.weight(f"{name}.fc2", [channels, hidden])
    return SEBlockParams(fc1, fc2)


def build_basic_block(builder, name, c_in, c_out, stride, reduction_ratio):
    conv1 = builder.weight(f"{name}.conv1.w", [c_out, c_in, 3])
    bn1 = builder.bn(f"{name}.bn1", c_out)
    conv2 = builder.weight(f"{name}.conv2.w", [c_out, c_out, 3])
    bn2 = builder.bn(f"{name}.bn2", c_out)
    se = build_se(builder, f"{name}.se", c_out, reduction_ratio)
    block = BasicBlockParams(conv1, bn1, conv2, bn2, se, stride)
    if stride != 1 or c_in != c_out:
        block.shortcut_conv = builder.weight(f"{name}.short.w", [c_out, c_in, 1])
        block.shortcut_bn = builder.bn(f"{name}.short.bn", c_out)
    return block


def build_extractor(builder, cfg, prefix="extractor"):
    widths = cfg.stage_widths
    stem_conv = builder.weight(f"{prefix}.stem.w", [widths[0], 1, STEM_KERNEL])
    stem_bn = builder.bn(f"{prefix}.stem.bn", widths[0])
    params = FeatureExtractorParams(stem_conv, stem_bn)
    c_in = widths[0]
    for s, (width, n_blocks) in enumerate(zip(widths, cfg.blocks_per_stage)):
        stage = []
        for b in range(n_blocks):
            stride = 2 if (b == 0 and s > 0) else 1
            stage.append(
                build_basic_block(
                    builder, f"{prefix}.s{s}.b{b}", c_in, width, stride,
                    cfg.reduction_ratio,
                )
            )
            c_in = width
        params.stages.append(stage)
    return params


def se_forward(x, p):
    """Squeeze (global average), excite (bottleneck MLP + sigmoid), rescale."""
    z = global_avg_pool(x)
    s = sigmoid(matmul(relu(matmul(z, transpose(p.fc1))), transpose(p.fc2)))
    return channel_scale(x, s)


def basic_block_forward(x, p, mode):
    h = conv1d(x, p.conv1, stride=p.stride, padding=1)
    h = relu(batchnorm1d(h, p.bn1.gamma, p.bn1.beta, p.bn1.state, mode))
    h = conv1d(h, p.conv2, stride=1, padding=1)
    h = batchnorm1d(h, p.bn2.gamma, p.bn2.beta, p.bn2.state, mode)
    h = se_forward(h, p.se)
    if p.shortcut_conv is not None:
        sc = conv1d(x, p.shortcut_conv, stride=p.stride)
        sc = batchnorm1d(
            sc, p.shortcut_bn.gamma, p.shortcut_bn.beta, p.shortcut_bn.state, mode
        )
    else:
        sc = x
    return relu(add(h, sc))


def feature_extractor_forward(x, cfg, params, mode):
    """Map epochs ``[N,1,L]`` to features ``[N,D]``.

    Returns ``(features, last_activations)`` where the activations are the
    final stage's output map, retained for relevance attribution.
    """
    xd = x.data
    if xd.ndim != 3 or xd.shape[1] != 1:
        raise ShapeError(f"feature_extractor_forward: expected [N,1,L], got {xd.shape}")
    h = conv1d(x, params.stem_conv, stride=STEM_STRIDE,
               padding=(STEM_KERNEL - 1) // 2)
    h = relu(batchnorm1d(h, params.stem_bn.gamma, params.stem_bn.beta,
                         params.stem_bn.state, mode))
    h = max_pool1d(h, 3, 2)
    for stage in params.stages:
        for block in stage:
            h = basic_block_forward(h, block, mode)
    return global_avg_pool(h), h
