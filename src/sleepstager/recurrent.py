"""LSTM cell and the stacked Bi-LSTM context encoder.

Each cell holds four gate matrices acting on the concatenation
``[h(t-1), x(t)]``. Every step takes a batch of B sequences, ``x(t)`` as
``[B, D]`` and the state as ``[B, H]``; hidden state starts at zero for
every sequence.

The stack encodes a window for a head that reads only its middle
position, so it returns the last layer's state there alone. Each lower
layer runs both directions over the whole window; the last layer's
forward cell stops at the middle, and its backward cell runs from the
window's end back to it.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    add_rowvec,
    concat,
    matmul,
    mul,
    sigmoid,
    tanh,
    transpose,
)
from .errors import ConfigError, InvalidInput, ShapeError


@dataclass
class LSTMCellParams:
    w_f: Tensor
    w_i: Tensor
    w_c: Tensor
    w_o: Tensor
    b_f: Tensor
    b_i: Tensor
    b_c: Tensor
    b_o: Tensor

    @property
    def hidden_size(self):
        return self.w_f.data.shape[0]

    @property
    def input_size(self):
        return self.w_f.data.shape[1] - self.w_f.data.shape[0]


def build_lstm_cell(builder, name, input_size, hidden_size):
    """Forget-gate bias starts at 1 to keep early memory open; others at 0."""
    shape = [hidden_size, hidden_size + input_size]
    return LSTMCellParams(
        w_f=builder.weight(f"{name}.w_f", shape),
        w_i=builder.weight(f"{name}.w_i", shape),
        w_c=builder.weight(f"{name}.w_c", shape),
        w_o=builder.weight(f"{name}.w_o", shape),
        b_f=builder.const(f"{name}.b_f", [hidden_size], 1.0),
        b_i=builder.const(f"{name}.b_i", [hidden_size], 0.0),
        b_c=builder.const(f"{name}.b_c", [hidden_size], 0.0),
        b_o=builder.const(f"{name}.b_o", [hidden_size], 0.0),
    )


def build_bilstm_stack(builder, name, input_size, hidden_size, depth):
    """The stack's layers: a list of ``(forward cell, backward cell)``."""
    if depth < 1:
        raise ConfigError("stack depth must be >= 1")
    layers = []
    d = input_size
    for k in range(depth):
        fwd = build_lstm_cell(builder, f"{name}.l{k}.fwd", d, hidden_size)
        bwd = build_lstm_cell(builder, f"{name}.l{k}.bwd", d, hidden_size)
        layers.append((fwd, bwd))
        d = 2 * hidden_size
    return layers


def _gate(zcat, w_t, b, act):
    return act(add_rowvec(matmul(zcat, w_t), b))


def _transposed_gates(p):
    """The four gate weights as ``[H+D, H]``, in the order f, i, c~, o."""
    return [transpose(w) for w in (p.w_f, p.w_i, p.w_c, p.w_o)]


def _cell_step(x_t, h_prev, c_prev, p, gates_t):
    """:func:`lstm_cell_step` with the gate weights already transposed."""
    xs, hs = x_t.data.shape, h_prev.data.shape
    if len(xs) != 2 or xs[1] != p.input_size or hs != (xs[0], p.hidden_size):
        raise ShapeError(
            f"lstm_cell_step: x {xs} and h {hs} do not fit "
            f"[B, {p.input_size}] and [B, {p.hidden_size}]"
        )
    w_f, w_i, w_c, w_o = gates_t
    zcat = concat([h_prev, x_t])
    f = _gate(zcat, w_f, p.b_f, sigmoid)
    i = _gate(zcat, w_i, p.b_i, sigmoid)
    c_hat = _gate(zcat, w_c, p.b_c, tanh)
    c_t = add(mul(f, c_prev), mul(i, c_hat))
    o = _gate(zcat, w_o, p.b_o, sigmoid)
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


def lstm_cell_step(x_t, h_prev, c_prev, p):
    """One step of the gated recurrence.

    f = sigma(W_f [h, x] + b_f), i = sigma(W_i [h, x] + b_i),
    c~ = tanh(W_c [h, x] + b_c), c = f*c_prev + i*c~,
    o = sigma(W_o [h, x] + b_o), h = o*tanh(c).
    """
    return _cell_step(x_t, h_prev, c_prev, p, _transposed_gates(p))


def _run_direction(seq, cell):
    """The cell's hidden states over ``seq``, in order, from a zero state.

    The gate weights are transposed once, for every step of the run.
    """
    gates_t = _transposed_gates(cell)
    h = c = Tensor(np.zeros((seq[0].data.shape[0], cell.hidden_size)))
    outputs = []
    for x_t in seq:
        h, c = _cell_step(x_t, h, c, cell, gates_t)
        outputs.append(h)
    return outputs


def stack_forward(seq, layers):
    """The last layer's state ``[B, 2H]`` at the middle of ``seq``.

    The middle is position ``(len(seq) - 1) // 2``: the forward and the
    backward hidden state there, concatenated. The states at the other
    positions of the last layer reach no output, so they are not computed.
    """
    if not seq:
        raise InvalidInput("bilstm stack got an empty sequence")
    if len(layers) < 1:
        raise ConfigError("stack depth must be >= 1")
    for k, (fwd_cell, bwd_cell) in enumerate(layers):
        if seq[0].data.shape[-1] != fwd_cell.input_size:
            raise ConfigError(
                f"stack layer {k} expects input dim {fwd_cell.input_size}, "
                f"got {seq[0].data.shape[-1]}"
            )
        if k < len(layers) - 1:
            fwd = _run_direction(seq, fwd_cell)
            bwd = _run_direction(seq[::-1], bwd_cell)[::-1]
            seq = [concat([f, b]) for f, b in zip(fwd, bwd)]
    mid = (len(seq) - 1) // 2
    h_fwd = _run_direction(seq[: mid + 1], fwd_cell)[-1]
    h_bwd = _run_direction(seq[mid:][::-1], bwd_cell)[-1]
    return concat([h_fwd, h_bwd])
