"""Tensor engine: hand-computed forwards plus finite-difference gradients."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from sleepstager.autodiff import (
    BatchNormState,
    Tape,
    Tensor,
    add,
    backward,
    batchnorm1d,
    channel_scale,
    concat,
    conv1d,
    global_avg_pool,
    grad_check,
    log_softmax,
    matmul,
    max_pool1d,
    mul,
    relu,
    scale,
    sigmoid,
    sum_all,
    take_per_row,
    take_rows,
    tanh,
    transpose,
)
from sleepstager.autodiff.ops import BN_EPS
from sleepstager.blocks import (
    FeatureExtractorConfig,
    ParamBuilder,
    basic_block_forward,
    build_basic_block,
    build_extractor,
)
from sleepstager.errors import (
    ContractViolation,
    ShapeError,
    UninitializedState,
)


def backward_from(g, op, *inputs):
    """Run ``op(*inputs)`` on a tape and hand its output exactly ``g`` as gradient."""
    with Tape() as tape:
        out = op(*inputs)
        loss = sum_all(mul(out, Tensor(g)))
    backward(loss, tape)
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rand_tensor(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape))


class TestTensorInit:
    """Parameters come from ``ParamBuilder``: constant fills and He-normal draws."""

    def test_constant(self):
        t = ParamBuilder(seed=0).const("c", [3], 1.5)
        np.testing.assert_array_equal(t.data, [1.5, 1.5, 1.5])
        assert t.requires_grad

    def test_fan_in_variance(self):
        # empirical variance of the generator over 10k draws, target 2/3
        draws = []
        for seed in range(157):
            w = ParamBuilder(seed=seed).weight("w", [64, 3])
            draws.append(w.data.ravel())
        sample = np.concatenate(draws)[:10_000]
        var = sample.var()
        assert abs(var - 2.0 / 3.0) / (2.0 / 3.0) < 0.30
        assert abs(sample.mean()) < 0.05

    def test_deterministic(self):
        a, b = ParamBuilder(seed=7), ParamBuilder(seed=7)
        for name, shape in (("w1", [4, 5]), ("w2", [2, 3, 5])):
            np.testing.assert_array_equal(a.weight(name, shape).data,
                                          b.weight(name, shape).data)
        # each weight draws from its own stream
        assert not np.array_equal(a.registry["w1"].data.ravel()[:6],
                                  a.registry["w2"].data.ravel()[:6])

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractViolation):
            Tensor([1.0, float("nan")])


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(a, b).data, b.data)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[11.0]])

    def test_matvec(self):
        a = Tensor([[1.0, 0.0], [0.0, 2.0]])
        v = Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(matmul(a, v).data, [[3.0], [8.0]])

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient(self):
        rng = np.random.default_rng(0)
        a = rand_tensor(rng, (4, 5))
        b = rand_tensor(rng, (5, 3))
        err = grad_check(lambda x, y: sum_all(matmul(x, y)), [a, b])
        assert err < 1e-6


class TestConv1d:
    def test_hand_edge_detector(self):
        x = Tensor([[[1.0, 2.0, 3.0]]])
        w = Tensor([[[1.0, 0.0, -1.0]]])
        np.testing.assert_allclose(conv1d(x, w).data, [[[-2.0]]])

    def test_hand_stride(self):
        x = Tensor([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
        w = Tensor([[[1.0, 1.0]]])
        np.testing.assert_allclose(conv1d(x, w, stride=2).data, [[[3.0, 7.0]]])

    def test_too_large_kernel(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.ones((1, 1, 3))), Tensor(np.ones((1, 1, 5))))

    def test_output_length(self):
        x = Tensor(np.ones((1, 2, 16)))
        w = Tensor(np.ones((3, 2, 5)))
        assert conv1d(x, w, stride=2, padding=2).data.shape == (1, 3, 8)

    def test_gradients_input_and_weight(self):
        rng = np.random.default_rng(1)
        x = rand_tensor(rng, (1, 2, 16))
        w = rand_tensor(rng, (3, 2, 5))
        err = grad_check(
            lambda xx, ww: sum_all(tanh(conv1d(xx, ww, stride=2, padding=1))),
            [x, w],
        )
        assert err < 1e-6

    def test_stride_and_padding_are_keywords(self):
        # by keyword only, so a wrapper that forwards the arguments cannot
        # read a stride as some other parameter
        x, w = Tensor(np.ones((1, 1, 8))), Tensor(np.ones((1, 1, 3)))
        with pytest.raises(TypeError):
            conv1d(x, w, 2)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("n", [1, 3, 36])
    def test_gradients_match_the_stacked_reference(self, n, k, stride):
        # the weight gradient summed sample by sample and the input gradient
        # from the rebuilt patches give the bits of one stacked product
        # reduced over the batch and a per-tap scatter from kept patches
        rng = np.random.default_rng(100 + 10 * n + k + stride)
        c_in, c_out, l, pad = 4, 5, 23, k // 2
        x = Tensor(rng.normal(size=(n, c_in, l)), requires_grad=True)
        w = Tensor(rng.normal(size=(c_out, c_in, k)), requires_grad=True)
        l_out = (l + 2 * pad - k) // stride + 1
        g = rng.normal(size=(n, c_out, l_out))
        backward_from(g, lambda a, b: conv1d(a, b, stride=stride, padding=pad), x, w)

        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
        win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride]
        patches = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(
            n, c_in * k, l_out)
        w2 = w.data.reshape(c_out, c_in * k)
        gw = np.matmul(g, patches.transpose(0, 2, 1)).sum(axis=0)
        dpat = np.matmul(w2.T, g).reshape(n, c_in, k, l_out)
        dxp = np.zeros_like(xp)
        for kk in range(k):
            dxp[:, :, kk : kk + stride * l_out : stride] += dpat[:, :, kk, :]
        assert same_bits(w.grad, gw.reshape(c_out, c_in, k))
        assert same_bits(x.grad, dxp[:, :, pad : pad + l])

    def test_batched_matches_single(self):
        # a batch of four against four batches of one
        rng = np.random.default_rng(2)
        xs = rng.uniform(-1, 1, size=(4, 2, 10))
        w = Tensor(rng.uniform(-1, 1, size=(3, 2, 3)))
        batched = conv1d(Tensor(xs), w, stride=1, padding=1).data
        for i in range(4):
            single = conv1d(Tensor(xs[i : i + 1]), w, stride=1, padding=1).data
            np.testing.assert_allclose(batched[i], single[0], rtol=1e-12)


class TestActivations:
    def test_fixed_points(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5
        assert tanh(Tensor([0.0])).data[0] == 0.0
        assert relu(Tensor([-3.0])).data[0] == 0.0

    def test_log_softmax_uniform(self):
        y = log_softmax(Tensor([[0.0] * 5]))
        np.testing.assert_allclose(y.data, math.log(1 / 5), atol=1e-12)

    def test_log_softmax_normalizes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = Tensor(rng.uniform(-30, 30, size=(4, 5)))
            p = np.exp(log_softmax(x).data)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
    def test_elementwise_gradients(self, kind):
        op = {"relu": relu, "sigmoid": sigmoid, "tanh": tanh}[kind]
        rng = np.random.default_rng(4)
        for point in range(10):
            x = rand_tensor(rng, (6,), lo=-2.0, hi=2.0)
            x.data[np.abs(x.data) < 1e-3] += 0.01  # keep clear of relu kink
            err = grad_check(lambda t: sum_all(op(t)), [x])
            assert err < 1e-6, f"{kind} point {point}: {err}"

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rand_tensor(rng, (3, 5), lo=-3, hi=3)
            w = rng.uniform(-1, 1, size=(3, 5))
            err = grad_check(
                lambda t: sum_all(mul(log_softmax(t), Tensor(w))), [x]
            )
            assert err < 1e-6


class TestPooling:
    def test_global_avg_hand(self):
        x = Tensor([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
        np.testing.assert_allclose(global_avg_pool(x).data, [[2.0, 5.0]])

    def test_max_hand(self):
        x = Tensor([[[1.0, 3.0, 2.0, 5.0]]])
        np.testing.assert_allclose(max_pool1d(x, 2, 2).data, [[[3.0, 5.0]]])

    def test_max_tie_first_index(self):
        x = Tensor([[[2.0, 2.0]]])
        with Tape() as tape:
            xt = Tensor(x.data, requires_grad=True)
            y = sum_all(max_pool1d(xt, 2, 1))
        backward(y, tape)
        np.testing.assert_array_equal(xt.grad, [[[1.0, 0.0]]])

    def test_gradients(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rand_tensor(rng, (1, 3, 12))
            err = grad_check(lambda t: sum_all(global_avg_pool(t)), [x])
            assert err < 1e-6
            # keep windows clear of ties so the subgradient is unique
            x2 = Tensor(rng.permutation(np.linspace(-2, 2, 36)).reshape(1, 3, 12))
            err = grad_check(lambda t: sum_all(max_pool1d(t, 3, 2)), [x2])
            assert err < 1e-6


class TestBatchNorm:
    def test_already_normalized_passthrough(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 2, 50))
        x -= x.mean(axis=(0, 2), keepdims=True)
        x /= x.std(axis=(0, 2), keepdims=True)
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        out = batchnorm1d(Tensor(x), gamma, beta, BatchNormState(2), "train")
        assert np.max(np.abs(out.data - x)) < 1e-4

    def test_gamma_zero_gives_beta(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 7)))
        gamma, beta = Tensor(np.zeros(3)), Tensor([1.0, 2.0, 3.0])
        out = batchnorm1d(x, gamma, beta, BatchNormState(3), "train")
        expect = np.broadcast_to(np.array([1.0, 2.0, 3.0])[:, None], (2, 3, 7))
        np.testing.assert_allclose(out.data, expect)

    def test_train_statistics(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(3.0, 2.5, size=(6, 4, 30)))
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        out = batchnorm1d(x, gamma, beta, BatchNormState(4), "train")
        mean = out.data.mean(axis=(0, 2))
        var = out.data.var(axis=(0, 2))
        assert np.max(np.abs(mean)) < 1e-10
        batch_var = x.data.var(axis=(0, 2))
        np.testing.assert_allclose(var, batch_var / (batch_var + BN_EPS), rtol=1e-6)

    def test_eval_before_train_raises(self):
        x = Tensor(np.ones((1, 2, 4)))
        with pytest.raises(UninitializedState):
            batchnorm1d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        BatchNormState(2), "eval")

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(10)
        state = BatchNormState(2)
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        for _ in range(200):
            x = Tensor(rng.normal(1.0, 2.0, size=(8, 2, 25)))
            batchnorm1d(x, gamma, beta, state, "train")
        np.testing.assert_allclose(state.running_mean, 1.0, atol=0.1)
        np.testing.assert_allclose(state.running_var, 4.0, rtol=0.1)
        y = batchnorm1d(Tensor(np.full((1, 2, 4), 1.0)), gamma, beta, state, "eval")
        assert np.max(np.abs(y.data)) < 0.1

    def test_gradient_train_mode(self):
        rng = np.random.default_rng(11)
        x = rand_tensor(rng, (3, 2, 8))
        gamma = rand_tensor(rng, (2,), lo=0.5, hi=1.5)
        beta = rand_tensor(rng, (2,))
        weights = rng.uniform(-1, 1, size=(3, 2, 8))

        def fn(xx, gg, bb):
            y = batchnorm1d(xx, gg, bb, BatchNormState(2), "train")
            return sum_all(mul(y, Tensor(weights)))

        assert grad_check(fn, [x, gamma, beta]) < 1e-5

    def test_gradient_eval_mode(self):
        rng = np.random.default_rng(12)
        state = BatchNormState(2)
        batchnorm1d(
            Tensor(rng.normal(size=(4, 2, 10))),
            Tensor(np.ones(2)), Tensor(np.zeros(2)), state, "train",
        )
        x = rand_tensor(rng, (2, 2, 6))
        gamma = rand_tensor(rng, (2,), lo=0.5, hi=1.5)
        beta = rand_tensor(rng, (2,))

        def fn(xx, gg, bb):
            y = batchnorm1d(xx, gg, bb, state, "eval")
            return sum_all(sigmoid(y))

        assert grad_check(fn, [x, gamma, beta]) < 1e-6

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradients_match_the_kept_xhat_formula(self, mode):
        # backward recomputes xhat; the gradients keep the bits of the
        # formula that read the xhat forward made
        rng = np.random.default_rng(17)
        state = BatchNormState(3)
        if mode == "eval":
            batchnorm1d(Tensor(rng.normal(size=(4, 3, 10))), Tensor(np.ones(3)),
                        Tensor(np.zeros(3)), state, "train")
            mean, var = state.running_mean, state.running_var
        x = Tensor(rng.normal(2.0, 3.0, size=(5, 3, 40)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        g = rng.normal(size=(5, 3, 40))
        backward_from(g, lambda a, b, c: batchnorm1d(a, b, c, state, mode),
                      x, gamma, beta)

        xd, m = x.data, x.data.shape[0] * x.data.shape[2]
        if mode == "train":
            mean, var = xd.mean(axis=(0, 2)), xd.var(axis=(0, 2))
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (xd - mean[:, None]) * ivar[:, None]
        dxhat = g * gamma.data[:, None]
        if mode == "eval":
            dx = dxhat * ivar[:, None]
        else:
            s1 = dxhat.sum(axis=(0, 2), keepdims=True)
            s2 = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
            dx = (ivar[:, None] / m) * (m * dxhat - s1 - xhat * s2)
        assert same_bits(gamma.grad, (g * xhat).sum(axis=(0, 2)))
        assert same_bits(beta.grad, g.sum(axis=(0, 2)))
        assert same_bits(x.grad, dx)


class TestRetention:
    def test_conv_batchnorm_relu_keep_only_their_outputs(self):
        # between forward and backward, conv1d keeps no padded or unfolded
        # copy of its input and batchnorm1d no normalized copy: what a
        # taped conv -> batchnorm -> relu holds is its three outputs
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(8, 16, 500)), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 16, 7)), requires_grad=True)
        gamma = Tensor(np.ones(16), requires_grad=True)
        beta = Tensor(np.zeros(16), requires_grad=True)
        state = BatchNormState(16)
        tracemalloc.start()
        try:
            with Tape() as tape:
                h = relu(batchnorm1d(conv1d(x, w, padding=3), gamma, beta,
                                     state, "train"))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 3
        assert held <= 1.1 * 3 * h.data.nbytes, held

    @staticmethod
    def conv_bn_relu_inputs():
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(8, 16, 500)), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 16, 7)), requires_grad=True)
        gamma = Tensor(np.ones(16), requires_grad=True)
        beta = Tensor(np.zeros(16), requires_grad=True)
        return x, w, gamma, beta, BatchNormState(16)

    def test_batchnorm_output_under_relu_dies_with_the_forward(self):
        # relu's backward masks by its own output, so nothing on the open
        # tape reads the batchnorm output it was given
        x, w, gamma, beta, state = self.conv_bn_relu_inputs()
        with Tape() as tape:
            b = batchnorm1d(conv1d(x, w, padding=3), gamma, beta, state, "train")
            kept = weakref.ref(b.data)
            h = relu(b)
            del b
            assert kept() is None
            loss = sum_all(h)
        backward(loss, tape)
        assert x.grad is not None and w.grad is not None

    def test_conv_batchnorm_relu_keep_only_what_backward_reads(self):
        # batchnorm reads the conv output and relu its own output: two maps
        x, w, gamma, beta, state = self.conv_bn_relu_inputs()
        tracemalloc.start()
        try:
            with Tape() as tape:
                h = relu(batchnorm1d(conv1d(x, w, padding=3), gamma, beta,
                                     state, "train"))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 3
        assert held <= 1.1 * 2 * h.data.nbytes, held

    def test_block_with_shortcut_keeps_only_what_backward_reads(self):
        # the [N, C_out, L_out] maps the block's backward rules read: conv1's
        # output (bn1), relu1's (itself, conv2), conv2's (bn2), bn2's
        # (channel_scale), the shortcut conv's (its batchnorm) and the
        # block's output (the last relu): 6. Freed with the forward pass:
        # the outputs of bn1, channel_scale, the shortcut batchnorm and add.
        rng = np.random.default_rng(19)
        p = build_basic_block(ParamBuilder(seed=0), "b", 8, 16, 2, 4)
        x = Tensor(rng.normal(size=(4, 8, 1000)), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = basic_block_forward(x, p, "train")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) > 0 and out.data.shape == (4, 16, 500)
        assert held <= 1.1 * 6 * out.data.nbytes, held

    def test_held_intermediate_keeps_its_grad(self):
        # the sweep frees the nodes it has run, not the gradients of
        # tensors the caller still holds
        with Tape() as tape:
            x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
            h = tanh(x)
            loss = sum_all(mul(h, h))
        backward(loss, tape)
        assert len(tape) == 0
        np.testing.assert_array_equal(h.grad, 2.0 * h.data)
        np.testing.assert_array_equal(x.grad, 2.0 * h.data * (1.0 - h.data * h.data))


class TestBackward:
    def test_sum_linear(self):
        with Tape() as tape:
            x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
            loss = sum_all(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        with Tape() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            loss = sum_all(mul(x, x))
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        # x used twice: loss = sum(x*x) + sum(x) has grad 2x + 1
        with Tape() as tape:
            x = Tensor([3.0, -1.0], requires_grad=True)
            loss = add(sum_all(mul(x, x)), sum_all(x))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [7.0, -1.0])

    def test_non_scalar_loss_rejected(self):
        with Tape() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            y = mul(x, x)
        with pytest.raises(ContractViolation):
            backward(y, tape)

    def test_loss_off_tape_rejected(self):
        with Tape() as tape:
            x = Tensor([1.0], requires_grad=True)
            sum_all(x)
        stray = Tensor([2.0])
        with pytest.raises(ContractViolation):
            backward(stray, tape)

    def test_tape_consumed_once(self):
        with Tape() as tape:
            x = Tensor([1.0], requires_grad=True)
            loss = sum_all(x)
        backward(loss, tape)
        with pytest.raises(ContractViolation):
            backward(loss, tape)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 3, 20))
        w = ParamBuilder(seed=3).weight("w", [2, 3, 5])
        a = conv1d(Tensor(x), w, stride=2, padding=2).data
        b2 = conv1d(Tensor(x), w, stride=2, padding=2).data
        assert np.array_equal(a, b2)


class TestStructuralOps:
    def test_concat_and_grad(self):
        rng = np.random.default_rng(14)
        a, b = rand_tensor(rng, (3,)), rand_tensor(rng, (2,))
        out = concat([a, b])
        assert out.data.shape == (5,)
        w = rng.uniform(-1, 1, size=5)
        err = grad_check(
            lambda x, y: sum_all(mul(concat([x, y]), Tensor(w))), [a, b]
        )
        assert err < 1e-10

    def test_take_rows_duplicates_accumulate(self):
        with Tape() as tape:
            x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
            y = sum_all(take_rows(x, [0, 0, 2]))
        backward(y, tape)
        np.testing.assert_array_equal(x.grad, [[2, 2], [0, 0], [1, 1]])

    def test_take_per_row(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(take_per_row(x, [1, 0]).data, [2.0, 3.0])

    def test_transpose_scale_channel_scale_grads(self):
        rng = np.random.default_rng(15)
        x = rand_tensor(rng, (1, 3, 6))
        s = rand_tensor(rng, (1, 3))
        w = rng.uniform(-1, 1, size=(1, 3, 6))
        err = grad_check(
            lambda xx, ss: sum_all(mul(channel_scale(xx, ss), Tensor(w))), [x, s]
        )
        assert err < 1e-8
        m = rand_tensor(rng, (4, 3))
        err = grad_check(lambda t: sum_all(tanh(transpose(t))), [m])
        assert err < 1e-6
        err = grad_check(lambda t: sum_all(scale(sigmoid(t), -2.5)), [m])
        assert err < 1e-6


def _extractor_on(x):
    from sleepstager.blocks import feature_extractor_forward

    cfg = FeatureExtractorConfig.create("se_resnet_18", width_multiplier=0.0625,
                                        reduction_ratio=4)
    params = build_extractor(ParamBuilder(seed=0), cfg)
    return feature_extractor_forward(Tensor(x), cfg, params, "train")


def _lstm_step_on(x):
    from sleepstager.recurrent import build_lstm_cell, lstm_cell_step

    p = build_lstm_cell(ParamBuilder(seed=0), "cell", 3, 4)
    return lstm_cell_step(Tensor(x), Tensor(np.zeros(4)), Tensor(np.zeros(4)), p)


# op -> (the single-sample shape it is handed, the call)
SINGLE_SAMPLE_CALLS = {
    "conv1d": ((2, 8), lambda: conv1d(Tensor(np.ones((2, 8))), Tensor(np.ones((3, 2, 3))))),
    "max_pool1d": ((2, 8), lambda: max_pool1d(Tensor(np.ones((2, 8))), 2, 2)),
    "batchnorm1d": ((2, 8), lambda: batchnorm1d(
        Tensor(np.ones((2, 8))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
        BatchNormState(2), "train")),
    "channel_scale": ((2, 8), lambda: channel_scale(Tensor(np.ones((2, 8))),
                                                    Tensor(np.ones(2)))),
    "global_avg_pool": ((2, 8), lambda: global_avg_pool(Tensor(np.ones((2, 8))))),
    "feature_extractor_forward": ((1, 300), lambda: _extractor_on(np.ones((1, 300)))),
    "lstm_cell_step": ((3,), lambda: _lstm_step_on(np.ones(3))),
    "matmul": ((3,), lambda: matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))),
    "log_softmax": ((5,), lambda: log_softmax(Tensor(np.zeros(5)))),
}


class TestWrongRank:
    @pytest.mark.parametrize("op", list(SINGLE_SAMPLE_CALLS))
    def test_single_sample_form_rejected(self, op):
        # every op takes one batched rank; a single sample [C, L] or [D]
        # fails with a ShapeError that names the op and the shape it got
        shape, call = SINGLE_SAMPLE_CALLS[op]
        with pytest.raises(ShapeError) as e:
            call()
        assert op in str(e.value)
        assert str(shape) in str(e.value)


class TestGradCheckHarness:
    def test_exact_on_linear(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]))
        assert grad_check(sum_all, [x]) < 1e-10

    def test_sigmoid_sum(self):
        rng = np.random.default_rng(16)
        x = rand_tensor(rng, (8,), lo=-2, hi=2)
        assert grad_check(lambda t: sum_all(sigmoid(t)), [x]) < 1e-7

    def test_rejects_non_scalar(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ContractViolation):
            grad_check(lambda t: mul(t, t), [x])
