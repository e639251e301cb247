"""Differentiable operations: exactly the set the stager model needs.

Each op has one batched form: convolution, pooling, the SE scaling
primitive and batch normalization take ``[N, C, L]``, matmul takes two
matrices, log-softmax normalizes the rows of a ``[B, C]`` matrix, and input
of another rank raises ``ShapeError``. A single sample is a batch with
N == 1. Broadcasting is limited to bias-add and channel-scale by design.
Ops take only the arguments the model varies: convolution has no bias,
because batchnorm follows every conv and would absorb it; ``concat`` joins
along the last axis; and batch normalization uses the standard momentum
and epsilon (``BN_MOMENTUM``, ``BN_EPS``).

Between forward and backward an op keeps only its inputs' gradient slots
and the arrays its backward reads: conv1d its input and weight,
batchnorm1d its input and per-channel ``mean``, ``ivar`` and ``gamma``,
mul, matmul and channel_scale their operands, relu, sigmoid, tanh and
log_softmax their own output, and the rest shapes or indices only. So an
op output that no backward reads, such as a batchnorm output under a
relu, is freed with the forward pass's last reference to it. conv1d keeps
no padded or unfolded copy of its input and batchnorm1d no normalized
copy; their backward rebuilds them with the calls forward made, so the
gradients keep their bits. A backward rule skips the gradient of an input
whose slot does not require grad.
"""

import numpy as np

from ..errors import ContractViolation, InvalidInput, ShapeError, UninitializedState
from .tensor import Tensor, record


def _rg(*tensors):
    return any(t.slot.requires_grad for t in tensors)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} vs {b.data.shape}")
    out = Tensor._wrap(a.data + b.data, _rg(a, b))
    sa, sb = a.slot, b.slot

    def bwd(g):
        if sa.requires_grad:
            sa.accumulate(g)
        if sb.requires_grad:
            sb.accumulate(g)

    record(out, bwd)
    return out


def add_rowvec(x, b):
    """Add a bias vector ``b[M]`` to every row of ``x[B, M]``."""
    if x.data.ndim != 2 or b.data.shape != (x.data.shape[1],):
        raise ShapeError(f"add_rowvec: {x.data.shape} + {b.data.shape}")
    out = Tensor._wrap(x.data + b.data, _rg(x, b))
    sx, sb = x.slot, b.slot

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(g)
        if sb.requires_grad:
            sb.accumulate(g.sum(axis=0))

    record(out, bwd)
    return out


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    out = Tensor._wrap(ad * bd, _rg(a, b))
    sa, sb = a.slot, b.slot

    def bwd(g):
        if sa.requires_grad:
            sa.accumulate(g * bd)
        if sb.requires_grad:
            sb.accumulate(g * ad)

    record(out, bwd)
    return out


def scale(x, c):
    """Multiply by a python constant."""
    c = float(c)
    sx = x.slot
    out = Tensor._wrap(x.data * c, sx.requires_grad)

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(g * c)

    record(out, bwd)
    return out


def channel_scale(x, s):
    """Per-channel rescaling: ``y[n, c, t] = s[n, c] * x[n, c, t]``."""
    xd, sd = x.data, s.data
    if xd.ndim != 3 or sd.shape != xd.shape[:2]:
        raise ShapeError(f"channel_scale: x {xd.shape} vs s {sd.shape}")
    se = sd[:, :, None]
    out = Tensor._wrap(xd * se, _rg(x, s))
    sx, ss = x.slot, s.slot

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(g * se)
        if ss.requires_grad:
            ss.accumulate((g * xd).sum(axis=-1))

    record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    """Matrix product ``[m,k] @ [k,n] -> [m,n]``."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: shapes {ad.shape} vs {bd.shape}")
    out = Tensor._wrap(ad @ bd, _rg(a, b))
    sa, sb = a.slot, b.slot

    def bwd(g):
        if sa.requires_grad:
            sa.accumulate(g @ bd.T)
        if sb.requires_grad:
            sb.accumulate(ad.T @ g)

    record(out, bwd)
    return out


def transpose(x):
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got {x.data.shape}")
    sx = x.slot
    out = Tensor._wrap(x.data.T, sx.requires_grad)

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(g.T)

    record(out, bwd)
    return out


def concat(tensors):
    """Join along the last axis, the feature axis of every caller."""
    if not tensors:
        raise InvalidInput("concat of an empty list")
    nd = tensors[0].data.ndim
    if any(t.data.ndim != nd for t in tensors):
        raise ShapeError("concat: rank mismatch")
    out = Tensor._wrap(
        np.concatenate([t.data for t in tensors], axis=-1), _rg(*tensors)
    )
    slots = [t.slot for t in tensors]
    sizes = [t.data.shape[-1] for t in tensors]

    def bwd(g):
        start = 0
        for slot, n in zip(slots, sizes):
            if slot.requires_grad:
                slot.accumulate(g[..., start : start + n])
            start += n

    record(out, bwd)
    return out


def take_rows(x, indices):
    """Gather rows along axis 0; duplicate indices accumulate gradients."""
    idx = np.asarray(indices, dtype=np.intp)
    sx, shape = x.slot, x.data.shape
    out = Tensor._wrap(x.data[idx], sx.requires_grad)

    def bwd(g):
        if not sx.requires_grad:
            return
        if sx.grad is None:
            sx.grad = np.zeros(shape)
        np.add.at(sx.grad, idx, g)

    record(out, bwd)
    return out


def take_per_row(x, indices):
    """``y[b] = x[b, indices[b]]`` for a matrix ``x[B, C]``."""
    idx = np.asarray(indices, dtype=np.intp)
    if x.data.ndim != 2 or idx.shape != (x.data.shape[0],):
        raise ShapeError(f"take_per_row: x {x.data.shape}, idx {idx.shape}")
    rows = np.arange(x.data.shape[0])
    sx, shape = x.slot, x.data.shape
    out = Tensor._wrap(x.data[rows, idx], sx.requires_grad)

    def bwd(g):
        if not sx.requires_grad:
            return
        if sx.grad is None:
            sx.grad = np.zeros(shape)
        np.add.at(sx.grad, (rows, idx), g)

    record(out, bwd)
    return out


def sum_all(x):
    sx, shape = x.slot, x.data.shape
    out = Tensor._wrap(np.asarray(x.data.sum()), sx.requires_grad)

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(np.broadcast_to(g, shape))

    record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# activations


def relu(x):
    """``max(x, 0)``; backward masks by the output, as ``y > 0`` iff ``x > 0``."""
    sx = x.slot
    y = np.maximum(x.data, 0.0)
    out = Tensor._wrap(y, sx.requires_grad)

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(g * (y > 0))

    record(out, bwd)
    return out


def sigmoid(x):
    xd = x.data
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    y[~pos] = ex / (1.0 + ex)
    sx = x.slot
    out = Tensor._wrap(y, sx.requires_grad)

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(g * y * (1.0 - y))

    record(out, bwd)
    return out


def tanh(x):
    y = np.tanh(x.data)
    sx = x.slot
    out = Tensor._wrap(y, sx.requires_grad)

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(g * (1.0 - y * y))

    record(out, bwd)
    return out


def log_softmax(x):
    """Log-probabilities of each row of a matrix ``x[B, C]``."""
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError(f"log_softmax: expected [B, C], got {xd.shape}")
    m = xd.max(axis=1, keepdims=True)
    z = xd - m
    y = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    sx = x.slot
    out = Tensor._wrap(y, sx.requires_grad)

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(g - np.exp(y) * g.sum(axis=1, keepdims=True))

    record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# convolution and pooling


def _check_ncl(op, x):
    """Reject any input but a batch of signals ``[N, C, L]``."""
    if x.data.ndim != 3:
        raise ShapeError(f"{op}: expected [N, C, L], got {x.data.shape}")


def _conv_patches(xd, k, stride, padding, l_out):
    """Pad ``[N, C, L]`` and unfold it (im2col) to ``[N, C*K, L_out]``.

    Forward and backward both build the patches here. Per-sample GEMMs on
    them keep results independent of batch composition (bit-exact batch
    equivariance).
    """
    if padding:
        xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding)))
    else:
        xp = np.ascontiguousarray(xd)
    n, c, _ = xp.shape
    sn, sc, sl = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, k, l_out), strides=(sn, sc, sl, sl * stride)
    )
    return np.ascontiguousarray(windows).reshape(n, c * k, l_out)


def conv1d(x, w, *, stride=1, padding=0):
    """1-D cross-correlation without bias.

    ``x[N,C_in,L]``, ``w[C_out,C_in,K]`` -> ``[N,C_out,L_out]`` with
    L_out = floor((L + 2*padding - K)/stride) + 1.

    Keeps for backward only the arrays of ``x`` and ``w``: backward rebuilds
    the padded input and its K-times-larger im2col copy with the same calls.
    """
    _check_ncl("conv1d", x)
    xd, wd = x.data, w.data
    if wd.ndim != 3:
        raise ShapeError(f"conv1d: weight must be [C_out,C_in,K], got {wd.shape}")
    n, c_in, l = xd.shape
    c_out, c_in_w, k = wd.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv1d: input channels {c_in} vs weight {c_in_w}")
    lp = l + 2 * padding
    if lp < k:
        raise ShapeError(f"conv1d: kernel {k} larger than padded input {lp}")
    l_out = (lp - k) // stride + 1
    patches = _conv_patches(xd, k, stride, padding, l_out)
    y = np.matmul(wd.reshape(c_out, c_in * k), patches)  # [N, C_out, L_out]
    out = Tensor._wrap(y, _rg(x, w))
    sx, sw = x.slot, w.slot

    def bwd(g):
        if sw.requires_grad:
            patches = _conv_patches(xd, k, stride, padding, l_out)
            # sample by sample into one [C_out, C_in*K] buffer: the same sums,
            # in the same order, as a stacked product reduced over the batch
            gw = g[0] @ patches[0].T
            for i in range(1, n):
                gw += g[i] @ patches[i].T
            del patches
            sw.accumulate(gw.reshape(c_out, c_in, k))
        if sx.requires_grad:
            w2 = wd.reshape(c_out, c_in * k)
            dpat = np.matmul(w2.T, g).reshape(n, c_in, k, l_out)
            dxp = np.zeros((n, c_in, lp))
            for kk in range(k):
                dxp[:, :, kk : kk + stride * l_out : stride] += dpat[:, :, kk, :]
            dx = dxp[:, :, padding : padding + l] if padding else dxp
            sx.accumulate(dx)

    record(out, bwd)
    return out


def global_avg_pool(x):
    """Average over the time axis: ``[N,C,L] -> [N,C]``."""
    _check_ncl("global_avg_pool", x)
    xd = x.data
    l = xd.shape[-1]
    sx = x.slot
    out = Tensor._wrap(xd.mean(axis=-1), sx.requires_grad)

    def bwd(g):
        if sx.requires_grad:
            sx.accumulate(np.repeat(g[..., None], l, axis=-1) / l)

    record(out, bwd)
    return out


def max_pool1d(x, k, stride):
    """Max pooling; gradient routes to the first maximal index of each window."""
    _check_ncl("max_pool1d", x)
    n, c, l = x.data.shape
    if l < k:
        raise ShapeError(f"max_pool1d: window {k} exceeds length {l}")
    l_out = (l - k) // stride + 1
    xc = np.ascontiguousarray(x.data)
    sn, sc, sl = xc.strides
    windows = np.lib.stride_tricks.as_strided(
        xc, shape=(n, c, l_out, k), strides=(sn, sc, sl * stride, sl)
    )
    arg = windows.argmax(axis=-1)
    y = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    sx = x.slot
    out = Tensor._wrap(y, sx.requires_grad)

    def bwd(g):
        if not sx.requires_grad:
            return
        dx = np.zeros((n, c, l))
        ni, ci, ti = np.indices(arg.shape)
        np.add.at(dx, (ni, ci, ti * stride + arg), g)
        sx.accumulate(dx)

    record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# batch normalization

# the standard settings the paper trains with
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


class BatchNormState:
    """Running statistics for one batchnorm layer (mutated in train mode)."""

    __slots__ = ("running_mean", "running_var", "initialized")

    def __init__(self, channels):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.initialized = False


def _normalized(xd, mean, ivar):
    """``xhat``, as forward and backward compute it."""
    return (xd - mean[:, None]) * ivar[:, None]


def batchnorm1d(x, gamma, beta, state, mode):
    """Per-channel normalization over the (batch, time) axes.

    Train mode normalizes by batch statistics and folds them into the
    running state; eval mode applies the stored running statistics.

    Keeps for backward the input and the per-channel ``mean``, ``ivar`` and
    ``gamma``; backward recomputes the normalized input ``xhat`` from them.
    """
    _check_ncl("batchnorm1d", x)
    xd = x.data
    n, c, l = xd.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"batchnorm1d: {c} channels, gamma {gamma.data.shape}")
    if mode == "train":
        m = n * l
        if m < 2:
            raise InvalidInput("batchnorm train mode needs N*L >= 2")
        mean = xd.mean(axis=(0, 2))
        var = xd.var(axis=(0, 2))
        state.running_mean = (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        unbiased = var * m / (m - 1)
        state.running_var = (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * unbiased
        state.initialized = True
    elif mode == "eval":
        if not state.initialized:
            raise UninitializedState("batchnorm eval before any train step")
        m = None
        mean = state.running_mean
        var = state.running_var
    else:
        raise ContractViolation(f"unknown batchnorm mode: {mode!r}")

    ivar = 1.0 / np.sqrt(var + BN_EPS)
    gd = gamma.data
    y = gd[:, None] * _normalized(xd, mean, ivar) + beta.data[:, None]
    out = Tensor._wrap(y, _rg(x, gamma, beta))
    sx, sg, sb = x.slot, gamma.slot, beta.slot

    def bwd(g):
        xhat = _normalized(xd, mean, ivar)
        if sg.requires_grad:
            sg.accumulate((g * xhat).sum(axis=(0, 2)))
        if sb.requires_grad:
            sb.accumulate(g.sum(axis=(0, 2)))
        if not sx.requires_grad:
            return
        dxhat = g * gd[:, None]
        if mode == "eval":
            dx = dxhat * ivar[:, None]
        else:
            s1 = dxhat.sum(axis=(0, 2), keepdims=True)
            s2 = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
            dx = (ivar[:, None] / m) * (m * dxhat - s1 - xhat * s2)
        sx.accumulate(dx)

    record(out, bwd)
    return out
