"""LSTM cell equations and the stacked Bi-LSTM encoder."""

import numpy as np
import pytest

from sleepstager import recurrent
from sleepstager.autodiff import Tape, Tensor, backward, concat, grad_check, mul, sum_all
from sleepstager.blocks import ParamBuilder
from sleepstager.errors import ConfigError, InvalidInput
from sleepstager.recurrent import (
    build_bilstm_stack,
    build_lstm_cell,
    lstm_cell_step,
    stack_forward,
)


def zero_cell(input_size, hidden_size):
    builder = ParamBuilder(seed=0)
    p = build_lstm_cell(builder, "cell", input_size, hidden_size)
    for t in builder.registry.values():
        t.data[:] = 0.0
    return p


def random_cell(seed, input_size, hidden_size):
    builder = ParamBuilder(seed=seed)
    p = build_lstm_cell(builder, "cell", input_size, hidden_size)
    return p, builder


def full_sequence_stack(seq, layers):
    """Reference Bi-LSTM: every layer's output at every position.

    Both directions of every layer, the last included, run over the whole
    sequence, one ``lstm_cell_step`` at a time from a zero state.
    """

    def run(xs, cell):
        h = c = Tensor(np.zeros((xs[0].data.shape[0], cell.hidden_size)))
        states = []
        for x_t in xs:
            h, c = lstm_cell_step(x_t, h, c, cell)
            states.append(h)
        return states

    for fwd_cell, bwd_cell in layers:
        fwd = run(seq, fwd_cell)
        bwd = run(seq[::-1], bwd_cell)[::-1]
        seq = [concat([f, b]) for f, b in zip(fwd, bwd)]
    return seq


class TestLSTMCell:
    def test_zero_parameters_fixed_point(self):
        p = zero_cell(3, 4)
        x = Tensor([[0.3, -1.2, 2.0]])
        h, c = lstm_cell_step(x, Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))), p)
        np.testing.assert_array_equal(c.data, np.zeros((1, 4)))
        np.testing.assert_array_equal(h.data, np.zeros((1, 4)))

    def test_gate_saturation_memory_hold(self):
        p = zero_cell(3, 4)
        p.b_f.data[:] = 10.0
        p.b_i.data[:] = -10.0
        v = np.array([[1.5, -0.7, 0.2, 2.0]])
        x = Tensor([[0.5, 0.5, 0.5]])
        h, c = lstm_cell_step(x, Tensor(np.zeros((1, 4))), Tensor(v.copy()), p)
        assert np.max(np.abs(c.data - v)) < 1e-3

    def test_bptt_gradient_three_steps(self):
        rng = np.random.default_rng(1)
        p, builder = random_cell(2, 3, 4)
        xs = [Tensor(rng.normal(size=(1, 3))) for _ in range(3)]
        w = rng.uniform(-1, 1, size=(1, 4))
        tensors = xs + list(builder.registry.values())

        def fn(*ts):
            h = Tensor(np.zeros((1, 4)))
            c = Tensor(np.zeros((1, 4)))
            for x_t in ts[:3]:
                h, c = lstm_cell_step(x_t, h, c, p)
            return sum_all(mul(h, Tensor(w)))

        assert grad_check(fn, tensors) < 1e-6

    def test_batched_matches_single(self):
        # a batch of four against four batches of one
        rng = np.random.default_rng(2)
        p, _ = random_cell(3, 3, 5)
        xs = rng.normal(size=(4, 3))
        hs = rng.normal(size=(4, 5))
        cs = rng.normal(size=(4, 5))
        hb, cb = lstm_cell_step(Tensor(xs), Tensor(hs), Tensor(cs), p)
        for i in range(4):
            one = slice(i, i + 1)
            h1, c1 = lstm_cell_step(Tensor(xs[one]), Tensor(hs[one]), Tensor(cs[one]), p)
            np.testing.assert_allclose(hb.data[i], h1.data[0], rtol=1e-12)
            np.testing.assert_allclose(cb.data[i], c1.data[0], rtol=1e-12)

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(3)
        p, _ = random_cell(4, 2, 6)
        h = Tensor(np.zeros((1, 6)))
        c = Tensor(np.zeros((1, 6)))
        for _ in range(50):
            h, c = lstm_cell_step(Tensor(rng.normal(scale=3.0, size=(1, 2))), h, c, p)
            assert np.all(np.abs(h.data) <= 1.0)


class TestBiLSTMLayer:
    """A depth-1 stack is one Bi-LSTM layer read at its middle position."""

    def test_length_one_sequence(self):
        rng = np.random.default_rng(4)
        fwd, _ = random_cell(5, 3, 4)
        bwd, _ = random_cell(6, 3, 4)
        x = Tensor(rng.normal(size=(1, 3)))
        out = stack_forward([x], [(fwd, bwd)])
        zeros = Tensor(np.zeros((1, 4)))
        hf, _ = lstm_cell_step(x, zeros, zeros, fwd)
        hb, _ = lstm_cell_step(x, zeros, zeros, bwd)
        np.testing.assert_allclose(out.data, np.concatenate([hf.data, hb.data], axis=1))

    def test_palindrome_with_tied_cells(self):
        # both directions read a, b, c at the middle of a, b, c, b, a
        rng = np.random.default_rng(5)
        cell, _ = random_cell(7, 3, 4)
        a, b, c = [rng.normal(size=(1, 3)) for _ in range(3)]
        seq = [Tensor(v) for v in (a, b, c, b, a)]
        out = stack_forward(seq, [(cell, cell)])
        np.testing.assert_allclose(out.data[:, :4], out.data[:, 4:], rtol=1e-12)

    def test_reversal_swaps_directions(self):
        rng = np.random.default_rng(6)
        fwd, _ = random_cell(8, 3, 4)
        bwd, _ = random_cell(9, 3, 4)
        seq = [Tensor(rng.normal(size=(1, 3))) for _ in range(5)]
        out = stack_forward(seq, [(fwd, bwd)])
        out_rev = stack_forward(seq[::-1], [(bwd, fwd)])
        np.testing.assert_allclose(out.data[:, :4], out_rev.data[:, 4:], rtol=1e-12)
        np.testing.assert_allclose(out.data[:, 4:], out_rev.data[:, :4], rtol=1e-12)

    def test_empty_sequence_rejected(self):
        fwd, _ = random_cell(10, 3, 4)
        with pytest.raises(InvalidInput):
            stack_forward([], [(fwd, fwd)])

    def test_gradient(self):
        rng = np.random.default_rng(7)
        builder = ParamBuilder(seed=11)
        fwd = build_lstm_cell(builder, "f", 2, 3)
        bwd = build_lstm_cell(builder, "b", 2, 3)
        xs = [Tensor(rng.normal(size=(1, 2))) for _ in range(5)]
        w = rng.uniform(-1, 1, size=(1, 6))

        def fn(*ts):
            out = stack_forward(list(ts[:5]), [(fwd, bwd)])
            return sum_all(mul(out, Tensor(w)))

        assert grad_check(fn, xs + list(builder.registry.values())) < 1e-6


def taped_grads(run, tensors, g):
    """``run()``'s output and every tensor's gradient of ``sum(run() * g)``."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        out = run()
        loss = sum_all(mul(out, Tensor(g)))
    backward(loss, tape)
    return out.data, [t.grad for t in tensors]


class TestStack:
    def test_depth_one_equals_single_layer(self):
        rng = np.random.default_rng(8)
        builder = ParamBuilder(seed=12)
        stack = build_bilstm_stack(builder, "stk", 3, 4, 1)
        seq = [Tensor(rng.normal(size=(1, 3))) for _ in range(5)]
        a = stack_forward(seq, stack)
        b = full_sequence_stack(seq, stack)[2]
        np.testing.assert_array_equal(a.data, b.data)

    def test_depth_three_window_nine_shapes(self):
        rng = np.random.default_rng(9)
        builder = ParamBuilder(seed=13)
        stack = build_bilstm_stack(builder, "stk", 6, 5, 3)
        seq = [Tensor(rng.normal(size=(1, 6))) for _ in range(9)]
        assert stack_forward(seq, stack).data.shape == (1, 10)

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("length", [1, 3, 9])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_full_sequence_reference_bit_for_bit(self, depth, length, batch):
        rng = np.random.default_rng(100 * depth + 10 * length + batch)
        builder = ParamBuilder(seed=depth)
        stack = build_bilstm_stack(builder, "stk", 3, 4, depth)
        seq = [Tensor(rng.normal(size=(batch, 3)), requires_grad=True)
               for _ in range(length)]
        tensors = seq + list(builder.registry.values())
        g = rng.uniform(-1, 1, size=(batch, 8))
        mid = (length - 1) // 2
        out, grads = taped_grads(lambda: stack_forward(seq, stack), tensors, g)
        ref_out, ref_grads = taped_grads(
            lambda: full_sequence_stack(seq, stack)[mid], tensors, g
        )
        assert out.tobytes() == ref_out.tobytes()
        for got, want in zip(grads, ref_grads):
            assert got is not None
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("depth,length", [(1, 1), (1, 9), (2, 9), (3, 9), (3, 5)])
    def test_cell_steps_per_forward(self, depth, length, monkeypatch):
        # lower layers step both cells over all W positions; the last layer
        # steps each cell from its end of the window to the middle
        calls = []
        step = recurrent._cell_step

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(recurrent, "_cell_step", counted)
        stack = build_bilstm_stack(ParamBuilder(seed=18), "stk", 3, 4, depth)
        seq = [Tensor(np.ones((2, 3))) for _ in range(length)]
        stack_forward(seq, stack)
        mid = (length - 1) // 2
        assert len(calls) == 2 * length * (depth - 1) + 2 * (mid + 1)

    def test_dimension_mismatch_between_layers(self):
        builder = ParamBuilder(seed=15)
        l0 = (build_lstm_cell(builder, "a.f", 3, 4),
              build_lstm_cell(builder, "a.b", 3, 4))
        l1 = (build_lstm_cell(builder, "b.f", 5, 4),
              build_lstm_cell(builder, "b.b", 5, 4))
        seq = [Tensor(np.zeros((1, 3)))]
        with pytest.raises(ConfigError):
            stack_forward(seq, [l0, l1])

    def test_zero_depth_rejected(self):
        builder = ParamBuilder(seed=16)
        with pytest.raises(ConfigError):
            build_bilstm_stack(builder, "stk", 3, 4, 0)

    def test_gradient_depth_two(self):
        rng = np.random.default_rng(11)
        builder = ParamBuilder(seed=17)
        stack = build_bilstm_stack(builder, "stk", 2, 2, 2)
        xs = [Tensor(rng.normal(size=(1, 2))) for _ in range(3)]
        w = rng.uniform(-1, 1, size=(1, 4))

        def fn(*ts):
            out = stack_forward(list(ts[:3]), stack)
            return sum_all(mul(out, Tensor(w)))

        assert grad_check(fn, xs + list(builder.registry.values())) < 1e-5
